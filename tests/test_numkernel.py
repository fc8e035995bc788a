"""Tests for the tensor tape: ops, backward pass, and the gradient checker."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from molvae import numkernel as nk
from molvae.encoder import LATENT_DIM
from molvae.numkernel import (
    NonFiniteValue,
    NumericError,
    ParamStore,
    Tensor,
    backward,
    constant,
    grad_check,
)
from molvae.smiles import parse_smiles
from molvae.vaemodel import MolTensors, init_model_params, joint_loss

from helpers import FLOAT_ARRAYS, SPECIAL_FLOATS, stack_edges, summed, weighted_sum


def finite_diff(f, store, name, idx, eps=1e-6):
    flat = store[name].data.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + eps
    hi = f(store).item()
    flat[idx] = orig - eps
    lo = f(store).item()
    flat[idx] = orig
    return (hi - lo) / (2 * eps)


# -- Tensor basics -------------------------------------------------------


def test_tensor_is_float64():
    t = constant([1, 2, 3])
    assert t.data.dtype == np.float64


def test_non_finite_creation_rejected():
    with pytest.raises(NonFiniteValue):
        constant([1.0, np.nan])
    with pytest.raises(NonFiniteValue):
        constant(np.inf)


def test_overflowing_op_names_itself():
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="produced by block_products$"):
            nk.checked(nk.block_products(constant([[1e200]]), nk.PairLayout([1])))
        with pytest.raises(NonFiniteValue, match="produced by squared_error$"):
            nk.checked(nk.squared_error(constant([1e200, 1.0]), np.zeros(2)))


def test_checked_names_the_first_bad_op_on_a_multi_op_tape():
    x = constant([[1e200], [-1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        over = nk.block_products(x, nk.PairLayout([2]))  # inf: the first non-finite node
        # Its logits at positions 0 and 1 are [inf, -1e200], and inf - 0 * inf is NaN.
        loss = nk.bce_with_logits(over, np.array([0, 1]), np.zeros(2), np.ones(2))
    assert np.isnan(loss.item())
    for op in (over, loss):
        with pytest.raises(NonFiniteValue, match="produced by block_products$"):
            nk.checked(op)
    with pytest.raises(NonFiniteValue, match="produced by block_products$"):
        backward(loss, ParamStore({}))
    assert nk.checked(x) is x


def test_saturating_overflow_returns_its_finite_result():
    # The products overflow to +-inf, but the logistic of +-inf is exactly 1
    # or 0: a result that is finite is returned, whatever its intermediates held.
    with np.errstate(over="ignore"):
        out = nk.checked(nk.logistic(nk.block_products(constant([[1e200], [-1e200]]), nk.PairLayout([2]))))
    assert np.array_equal(out.data, [[[1.0, 0.0], [0.0, 1.0]]])


def test_backward_requires_scalar():
    with pytest.raises(NumericError, match=r"^backward requires a scalar, got shape \(2,\)$"):
        backward(constant([1.0, 2.0]), ParamStore({}))


# -- forward values ------------------------------------------------------


def test_shape_mismatch_add():
    # The one elementwise loss left checks that its two operands agree.
    with pytest.raises(NumericError, match=r"^squared_error shapes \(1, 2\) vs \(2,\)$"):
        nk.squared_error(constant([[1.0, -2.0]]), np.zeros(2))
    with pytest.raises(NumericError, match=r"^squared_error shapes \(2, 2\) vs \(2, 3\)$"):
        nk.squared_error(constant(np.ones((2, 2))), np.ones((2, 3)))


def test_elementwise_values():
    # (1 - 3)^2 + (-2 - 4)^2 = 40; the gradient is 2 (pred - target), entry by entry.
    store = ParamStore({"p": [[1.0, -2.0]]})
    loss = nk.squared_error(store["p"], np.array([[3.0, 4.0]]))
    assert loss.item() == 40.0
    assert np.array_equal(backward(loss, store)["p"], [[-4.0, -12.0]])


def test_reduce_sum_totals_every_entry():
    # squared_error sums every entry, in any shape, to a scalar.
    ones = np.ones((3, 3))
    ones[2] = 2.0
    assert nk.squared_error(constant(ones), np.zeros((3, 3))).shape == ()
    assert nk.squared_error(constant(ones), np.zeros((3, 3))).item() == 18.0
    assert nk.squared_error(constant(ones.reshape(-1)), np.zeros(9)).item() == 18.0
    assert nk.squared_error(constant(np.zeros(0)), np.zeros(0)).item() == 0.0


def test_logistic_value_and_saturation():
    x = constant([[0.0, 1000.0, -1000.0]])
    out = nk.logistic(x).data
    assert out[0, 0] == 0.5
    assert out[0, 1] == 1.0
    assert out[0, 2] == 0.0


@settings(max_examples=300, deadline=None)
@given(FLOAT_ARRAYS)
@example(SPECIAL_FLOATS)
@example(SPECIAL_FLOATS.reshape(4, -1))
def test_sigmoid_keeps_the_bits_of_its_select_form(x):
    """max(e, [x >= 0]) / (1 + e) gives the bits of the np.where form for
    every float: e = e^-|x| <= 1, so the numerator is exactly 1.0 for
    x >= 0 and exactly e below."""
    with np.errstate(all="ignore"):
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        got = nk._sigmoid(x)
    assert got.tobytes() == want.tobytes()


def test_bce_with_logits_matches_naive_and_saturates():
    x = np.array([-3.0, 0.0, 3.0])
    t = np.array([1.0, 0.0, 1.0])
    w = np.array([0.5, 1.0, 2.0])
    p = 1.0 / (1.0 + np.exp(-x))
    naive = -(w * (t * np.log(p) + (1.0 - t) * np.log(1.0 - p))).sum()
    # The logits are read at the positions given, in their order.
    scores = constant([[x[1], 0.0], [x[2], x[0]]])
    assert nk.bce_with_logits(scores, np.array([3, 0, 2]), t, w).item() == pytest.approx(naive, rel=1e-14)
    # Linear regime, no overflow: each confidently wrong logit costs |x|.
    both = np.arange(2)
    assert nk.bce_with_logits(constant([800.0, -800.0]), both, np.array([0.0, 1.0]), np.ones(2)).item() == 1600.0
    with pytest.raises(NumericError, match=r"^bce_with_logits shapes \(3,\) / \(2,\) / \(3,\)$"):
        nk.bce_with_logits(constant(x), np.arange(3), t[:2], w)


def test_bce_with_logits_gradient_matches_central_differences():
    # Seven of a 3 x 3 stack's nine entries are logits; the other two get no gradient.
    rng = np.random.default_rng(0)
    store = ParamStore({"x": rng.normal(size=(3, 3), scale=3.0)})
    at = rng.permutation(9)[:7]
    t = (rng.uniform(size=7) < 0.5).astype(float)
    w = rng.uniform(0.1, 1.0, 7)
    assert grad_check(lambda s: nk.bce_with_logits(s["x"], at, t, w), store) < 1e-7


def test_bce_with_logits_reads_and_writes_only_the_pairs_of_a_padded_batch():
    # A 3-atom and a 2-atom molecule: a (2, 3, 3) stack whose second block is
    # padded. The pairs are (0, 0, 1), (0, 0, 2), (0, 1, 2) and (1, 0, 1).
    layout = nk.PairLayout([3, 2])
    assert layout.pairs.tolist() == [1, 2, 5, 10]
    b, i, j = [0, 0, 0, 1], [0, 0, 1, 0], [1, 2, 2, 1]
    rng = np.random.default_rng(0)
    store = ParamStore({"s": rng.normal(size=(2, 3, 3), scale=3.0)})
    t = np.array([1.0, 0.0, 0.0, 1.0])
    w = rng.uniform(0.1, 1.0, 4)
    loss = nk.bce_with_logits(store["s"], layout.pairs, t, w)
    x = store["s"].data[b, i, j]
    assert loss.item() == (w * (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))) - t * x)).sum()
    grad = backward(loss, store)["s"]
    on_pairs = np.zeros((2, 3, 3), dtype=bool)
    on_pairs[b, i, j] = True
    assert np.array_equal(grad[on_pairs], w * (nk._sigmoid(x) - t))
    # The diagonal, the lower triangle and the padding get exactly 0.0.
    assert (grad[~on_pairs] == 0.0).all()
    assert grad_check(lambda s: nk.bce_with_logits(s["s"], layout.pairs, t, w), store) < 1e-7
    # Single atoms have no pairs: no loss and no gradient.
    singles = nk.PairLayout([1, 1, 1])
    alone = ParamStore({"s": rng.normal(size=(3, 1, 1))})
    none = nk.bce_with_logits(alone["s"], singles.pairs, np.zeros(0), np.zeros(0))
    assert none.item() == 0.0
    assert np.array_equal(backward(none, alone)["s"], np.zeros((3, 1, 1)))
    with pytest.raises(NumericError, match=r"^bce_with_logits shapes \(4,\) / \(3,\) / \(4,\)$"):
        nk.bce_with_logits(store["s"], layout.pairs, t[:3], w)


def test_squared_error_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    store = ParamStore({"p": rng.normal(size=(3, 4))})
    target = rng.normal(size=(3, 4))
    assert grad_check(lambda s: nk.squared_error(s["p"], target), store) < 1e-7


def test_index_op_values():
    h = constant(np.arange(8.0).reshape(4, 2))
    # out[dst] += w * h[src]; row 1 receives two edges, rows 2 and 3 none.
    first = nk.Edges(np.array([0, 1, 1]), np.array([1, 0, 3]), np.array([2.0, 0.5, 1.0]))
    agg = nk.stack_agg(h, first, 1)
    assert np.array_equal(agg.data, [[[4.0, 6.0], [6.0, 7.5], [0.0, 0.0], [0.0, 0.0]]])
    # A plain array, a constant, gives the same values, as a plain array.
    plain = nk.stack_agg(h.data, first, 1)
    assert type(plain) is np.ndarray and np.array_equal(plain, agg.data)
    # Stacked, a second list fills slot 1 alone: its edge carries row 2 into row 3.
    second = nk.Edges(np.array([3]), np.array([2]), np.array([1.0]))
    both = nk.stack_agg(h, stack_edges([first, second], 4), 2)
    assert np.array_equal(both.data, [agg.data[0], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 5.0]]])
    seg = nk.segment_sums(h.data, np.array([0, 0, 0, 1]), 2)
    assert np.array_equal(seg, [[6.0, 9.0], [6.0, 7.0]])
    empty = np.array([], dtype=np.int64)
    assert np.array_equal(nk.stack_agg(h, nk.Edges(empty, empty, np.array([])), 1).data, np.zeros((1, 4, 2)))
    assert nk.stack_agg(h, stack_edges([], 4), 0).shape == (0, 4, 2)


def test_stack_agg_gradient_matches_central_differences():
    # Three edge lists, one of them empty, over 5 rows; ends repeat freely.
    rng = np.random.default_rng(0)
    n = 5
    store = ParamStore({"h": rng.normal(size=(n, 3))})
    lists = [nk.Edges(rng.integers(0, n, e), rng.integers(0, n, e), rng.uniform(0.1, 1.0, e)) for e in (6, 0, 4)]
    edges = stack_edges(lists, n)
    target = rng.uniform(-1.0, 1.0, (3, n, 3))
    assert grad_check(lambda s: nk.squared_error(nk.stack_agg(s["h"], edges, 3), target), store) < 1e-7


def test_stack_agg_keeps_the_bits_of_its_gather_then_scale_form():
    # The reference is the composition the op was written as: wcol * x[src]
    # for the value and wcol * g[dst] for the rule, each scattered by
    # bincount at the flat positions of the rows it adds into. Two slots
    # over 5 rows whose ends repeat, then two slots of which one is empty.
    rng = np.random.default_rng(1)
    n, width = 5, 3
    store = ParamStore({"h": rng.normal(size=(n, width))})
    x = store["h"].data

    def scatter(vals, rows, n_rows):
        flat = (rows[:, None] * width + np.arange(width)).ravel()
        return np.bincount(flat, weights=vals.ravel(), minlength=n_rows * width).reshape(n_rows, width)

    def edge_list(dst, src):
        return nk.Edges(np.array(dst, np.int64), np.array(src, np.int64), rng.uniform(0.1, 1.0, len(dst)))

    repeated = [edge_list([0, 0, 3, 3, 3], [1, 4, 1, 1, 2]), edge_list([2, 4, 2, 2], [0, 0, 3, 0])]
    for lists in (repeated, [repeated[0], edge_list([], [])]):
        edges = stack_edges(lists, n)
        wcol = edges.w[:, None]
        g = rng.uniform(-1.0, 1.0, (2, n, width))
        out = nk.stack_agg(store["h"], edges, 2)
        assert out.data.tobytes() == scatter(wcol * x[edges.src], edges.dst, 2 * n).reshape(2, n, width).tobytes()
        want = scatter(wcol * g.reshape(-1, width)[edges.dst], edges.src, n)
        assert backward(weighted_sum(out, g), store)["h"].tobytes() == want.tobytes()


def test_pair_layout_lists_each_blocks_pairs_row_by_row_block_after_block():
    layout = nk.PairLayout([3, 0, 1, 4])
    assert layout.counts.tolist() == [3, 0, 0, 6]
    want = [(b, i, j) for b, n in enumerate([3, 0, 1, 4]) for i in range(n) for j in range(i + 1, n)]
    # In the (B, m, m) product of the padded stack, pair (b, i, j) sits at (b, i, j).
    assert layout.m == 4
    assert layout.pairs.tolist() == [(b * 4 + i) * 4 + j for b, i, j in want]
    z = np.arange(16.0).reshape(8, 2)
    zp = layout.pad(z)
    assert zp.shape == (4, 4, 2)
    assert np.array_equal(zp.reshape(-1, 2)[layout.rows], z)
    assert not zp[1].any() and not zp[2, 1:].any() and not zp[0, 3].any()
    one = nk.PairLayout([8])
    assert np.shares_memory(one.pad(z), z)  # one block needs no padding
    with pytest.raises(NumericError, match=r"^\(7, 2\) array for blocks of 8 rows$"):
        layout.pad(np.zeros((7, 2)))


def test_block_products_values_and_gradient():
    rng = np.random.default_rng(0)
    layout = nk.PairLayout([2, 0, 3])
    store = ParamStore({"z": rng.normal(size=(5, 3))})
    z = store["z"].data
    prod = nk.block_products(store["z"], layout)
    assert prod.shape == (3, 3, 3)
    assert np.allclose(prod.data[0, :2, :2], z[:2] @ z[:2].T) and np.allclose(prod.data[2], z[2:] @ z[2:].T)
    assert not prod.data[1].any() and not prod.data[0, 2].any() and not prod.data[0, :, 2].any()
    weights = rng.uniform(-1.0, 1.0, (3, 3, 3))
    assert grad_check(lambda s: weighted_sum(nk.block_products(s["z"], layout), weights), store) < 1e-7


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=4), st.integers(0, 10_000))
@example(sizes=[1, 1, 1], seed=0)  # single atoms only: a union with no pairs
@example(sizes=[1, 7, 1, 3], seed=1)
def test_index_op_gradients_match_finite_differences(sizes, seed):
    # Random edges may repeat a row on both ends and hit it many times; the
    # pair products run over a union of molecules of `sizes` atoms.
    rng = np.random.default_rng(seed)
    sizes = np.array(sizes)
    n, e = int(sizes.sum()), int(rng.integers(0, 12))
    store = ParamStore({"h": rng.normal(size=(n, 3))})
    edges = nk.Edges(rng.integers(0, n, e), rng.integers(0, n, e), rng.uniform(0.1, 1.0, e))
    target = rng.uniform(-1.0, 1.0, (1, n, 3))
    layout = nk.PairLayout(sizes)
    # The pair products are weighted, and every other entry of their stack is not.
    pair_w = np.zeros(sizes.size * layout.m**2)
    pair_w[layout.pairs] = rng.uniform(-1.0, 1.0, int((sizes * (sizes - 1) // 2).sum()))
    pair_w = pair_w.reshape(sizes.size, layout.m, layout.m)

    def f(s):  # h feeds both ops, so its gradient is a sum of two
        agg = nk.stack_agg(s["h"], edges, 1)
        return summed(nk.squared_error(agg, target), weighted_sum(nk.block_products(s["h"], layout), pair_w))

    assert grad_check(f, store) < 1e-7


# -- backward pass -------------------------------------------------------


def test_grad_of_sum_is_ones():
    store = ParamStore({"p": np.arange(4.0).reshape(2, 2)})
    p = store["p"]
    grads = backward(weighted_sum(p), store)
    assert np.array_equal(grads["p"], np.ones((2, 2)))


def test_reused_node_accumulates_gradient():
    # loss = (p - 1)^2 + p: d/dp = 2(p - 1) + 1.
    store = ParamStore({"p": np.array([[3.0]])})
    p = store["p"]
    loss = summed(nk.squared_error(p, np.ones((1, 1))), weighted_sum(p))
    grads = backward(loss, store)
    assert grads["p"][0, 0] == 5.0


def test_diamond_graph_gradient():
    # y = (q - 1)^2 + 3q for q = p . p: dy/dp = 2p (2(q - 1) + 3), the
    # gradient of q reaching backward as the sum of two rules' outputs.
    store = ParamStore({"p": np.array([[2.0]])})
    q = nk.block_products(store["p"], nk.PairLayout([1]))
    grads = backward(summed(nk.squared_error(q, np.ones((1, 1, 1))), weighted_sum(q, 3.0)), store)
    assert grads["p"][0, 0] == 36.0


def test_off_tape_parameter_gets_zero_gradient():
    store = ParamStore({"a": np.ones((1, 1)), "unused": np.ones((2, 2))})
    a = store["a"]
    grads = backward(weighted_sum(a), store)
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def test_backward_gives_one_flat_array_and_views_of_it_by_name():
    store = ParamStore({"a": np.ones((2, 3)), "unused": np.ones((1, 2)), "b": np.ones((3, 1))})
    grads = backward(summed(weighted_sum(store["a"], 2.0), weighted_sum(store["b"], -1.0)), store)
    assert grads.flat.shape == store.flat.shape
    assert np.array_equal(grads.flat, np.concatenate([grads[name].ravel() for name in store.names()]))
    assert list(grads) == store.names() and len(grads) == len(store)
    assert [grads[name].shape for name in grads] == [store[name].shape for name in store.names()]
    assert np.all(grads["unused"] == 0.0) and np.all(grads["a"] == 2.0) and np.all(grads["b"] == -1.0)
    assert all(np.shares_memory(grads[name], grads.flat) for name in grads)
    with pytest.raises(KeyError):
        grads["missing"]
    with pytest.raises(TypeError):
        grads["a"] = np.zeros((2, 3))


def _gradients_by_name(loss, params):
    """Gradients of `loss` as a fresh array per parameter name, zeros off the
    tape: the sweep `backward` makes, with the dict it returned before it
    wrote one flat array."""
    grads = {loss: np.ones_like(loss.data)}
    for node in reversed(nk._tape(loss)):
        if node._grad_fn is not None:
            for parent, g in zip(node._parents, node._grad_fn(grads.pop(node))):
                grads[parent] = grads[parent] + g if parent in grads else g
    return {name: grads[p] if p in grads else np.zeros_like(p.data) for name, p in params.items()}


def test_backward_views_hold_the_by_name_gradients_bit_for_bit():
    # A two-molecule union with single and double bonds only, so some relation
    # weights are off the tape and read zero.
    mt = MolTensors.from_mols([parse_smiles("CC=O"), parse_smiles("C1CC1N")])
    params = init_model_params(seed=0)
    noise = np.random.default_rng(0).standard_normal((len(mt.features), LATENT_DIM))
    total, _ = joint_loss(mt, [3.0, 4.0], params, noise, beta=0.5)
    want = _gradients_by_name(total, params)
    grads = backward(total, params)
    assert not want["enc.l1.rel2"].any() and want["enc.l1.rel0"].any()
    for name in params.names():
        assert grads[name].shape == want[name].shape, name
        assert grads[name].tobytes() == want[name].tobytes(), name


def test_stale_gradient_cleared_between_backward_calls():
    store = ParamStore({"a": np.ones((1, 1)), "b": np.ones((1, 1))})
    a, b = store["a"], store["b"]
    backward(summed(weighted_sum(a), weighted_sum(b)), store)
    grads = backward(weighted_sum(a, 3.0), store)
    assert grads["b"][0, 0] == 0.0
    assert grads["a"][0, 0] == 3.0


def test_deep_chain_does_not_hit_recursion_limit():
    store = ParamStore({"p": np.ones((1, 1))})
    x = store["p"]
    for _ in range(5000):
        x = weighted_sum(x)
    grads = backward(x, store)
    assert grads["p"][0, 0] == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_grad_check_on_random_composite_expressions(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, int(rng.integers(1, 4)))
    n, e = int(sizes.sum()), int(rng.integers(0, 10))
    store = ParamStore({"x": rng.normal(size=(n, 3)), "y": rng.normal(size=(n, 3))})
    edges = nk.Edges(rng.integers(0, n, e), rng.integers(0, n, e), rng.uniform(0.1, 1.0, e))
    layout = nk.PairLayout(sizes)
    n_pairs = int(layout.counts.sum())
    target = (rng.uniform(size=n_pairs) < 0.5).astype(float)
    weight = rng.uniform(0.1, 1.0, n_pairs)
    mix = np.zeros((n, 3))
    mix[:, 0] = rng.uniform(-1.0, 1.0, n)  # h's first column alone

    def f(s):
        # h reaches the loss by three paths, y by two; x is also read directly.
        h = nk.logistic(s["x"])
        agg = nk.stack_agg(h, edges, 1)
        return summed(
            nk.bce_with_logits(nk.block_products(h, layout), layout.pairs, target, weight),
            nk.squared_error(agg, np.zeros((1, n, 3))),
            weighted_sum(h, mix),
            nk.squared_error(nk.logistic(nk.stack_agg(s["y"], edges, 1)), np.full((1, n, 3), 0.5)),
            weighted_sum(s["y"]),
            nk.squared_error(s["x"], np.zeros((n, 3))),
        )

    assert grad_check(f, store) < 1e-6


def test_grad_check_catches_a_wrong_gradient():
    store = ParamStore({"p": np.array([[1.0, 2.0]])})

    def wrong_square(t):
        # Deliberately broken local rule (missing factor 2).
        return Tensor(t.data * t.data, (t,), lambda g: (g * t.data,), "bad")

    def f(s):
        return weighted_sum(wrong_square(s["p"]))

    assert grad_check(f, store) > 0.4


def test_grad_check_perturbs_the_largest_gradients_ties_in_table_order():
    # A linear loss whose gradient is `coef`, with 270 coordinates in two
    # tensors and many equal magnitudes, so the cut at GRAD_CHECK_MAX_COORDS
    # falls inside a tie.
    coef = (np.arange(270.0) % 7) - 3
    store = ParamStore({"a": np.zeros((10, 15)), "b": np.zeros((12, 10))})
    ca, cb = coef[:150].reshape(10, 15), coef[150:].reshape(12, 10)
    touched = []

    def f(s):
        touched.append(np.flatnonzero(s.flat).tolist())
        return summed(weighted_sum(s["a"], ca), weighted_sum(s["b"], cb))

    assert grad_check(f, store) < 1e-7
    assert touched[0] == [] and all(len(t) == 1 for t in touched[1:])
    visited = [t[0] for t in touched[1::2]]
    assert touched[1::2] == touched[2::2]
    expected = sorted(range(coef.size), key=lambda i: -abs(coef[i]))[: nk.GRAD_CHECK_MAX_COORDS]
    assert visited == expected
    left_out = np.delete(np.abs(coef), expected)
    assert left_out.max() == abs(coef[expected[-1]])


def test_grad_check_eps_bounds():
    store = ParamStore({"p": np.ones((1, 1))})
    with pytest.raises(ValueError):
        grad_check(lambda s: weighted_sum(s["p"]), store, eps=1.0)


# -- ParamStore ----------------------------------------------------------


def test_param_store_holds_views_of_one_buffer():
    a0 = np.arange(6.0).reshape(2, 3)
    store = ParamStore({"a": a0, "b": np.array([[7.0], [8.0]]), "c": np.array(9.0)})
    a, b, c = store["a"], store["b"], store["c"]
    assert np.array_equal(store.flat, [0, 1, 2, 3, 4, 5, 7, 8, 9])
    assert all(np.shares_memory(t.data, store.flat) for t in (a, b, c))
    assert (a.shape, b.shape, c.shape) == ((2, 3), (2, 1), ())
    store.flat -= 1.0
    assert np.array_equal(a.data, a0 - 1.0) and b.data[1, 0] == 7.0 and c.item() == 8.0
    assert a0[0, 0] == 0.0  # the caller's array is copied, not aliased


def test_param_store_lookup():
    store = ParamStore({"w": np.ones(1)})
    assert len(store) == 1
    assert store.names() == ["w"]
