"""Tests for the tensor tape: ops, backward pass, and the gradient checker."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from molvae import numkernel as nk
from molvae.numkernel import (
    NonFiniteValue,
    NumericError,
    ParamStore,
    Tensor,
    backward,
    constant,
    grad_check,
)

from helpers import stack_edges


def loss_of(t):
    return nk.reduce_sum(t)


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
    big = constant([[1e200]])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="produced by matmul$"):
            nk.checked(nk.matmul(big, big))
        with pytest.raises(NonFiniteValue, match="produced by exp$"):
            nk.checked(nk.exp(constant([[800.0]])))


def test_checked_names_the_first_bad_op_on_a_multi_op_tape():
    x = constant([[1.0, -2.0]])
    big = nk.scale(x, 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        over = nk.square(big)  # inf: the first non-finite node
        nan = nk.sub(over, over)  # inf - inf: non-finite, but so are its inputs
        loss = nk.reduce_sum(nk.add(nk.exp(x), nan))
    for op in (over, nan, loss):
        with pytest.raises(NonFiniteValue, match="produced by square$"):
            nk.checked(op)
    with pytest.raises(NonFiniteValue, match="produced by square$"):
        backward(loss, ParamStore({}))
    assert nk.checked(big) is big


def test_saturating_overflow_returns_its_finite_result():
    # exp overflows to inf, but the logistic of inf is exactly 1: a result that
    # is finite is returned, whatever its intermediates held.
    with np.errstate(over="ignore"):
        out = nk.checked(nk.logistic(nk.exp(constant([[1000.0, -1000.0]]))))
    assert np.array_equal(out.data, [[1.0, 0.5]])


def test_backward_requires_scalar():
    with pytest.raises(NumericError, match=r"^backward requires a scalar, got shape \(2,\)$"):
        backward(constant([1.0, 2.0]), ParamStore({}))


def test_shape_mismatch_add():
    with pytest.raises(NumericError, match=r"^add shapes \(2, 2\) vs \(2, 3\)$"):
        nk.add(constant(np.ones((2, 2))), constant(np.ones((2, 3))))


def test_shape_mismatch_matmul():
    with pytest.raises(NumericError, match=r"^matmul shapes \(2, 3\) x \(2, 3\)$"):
        nk.matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))


# -- forward values ------------------------------------------------------


def test_matmul_value():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    b = constant([[5.0], [6.0]])
    assert np.array_equal(nk.matmul(a, b).data, [[17.0], [39.0]])


def test_elementwise_values():
    a = constant([[1.0, -2.0]])
    b = constant([[3.0, 4.0]])
    assert np.array_equal(nk.add(a, b).data, [[4.0, 2.0]])
    assert np.array_equal(nk.sub(a, b).data, [[-2.0, -6.0]])
    assert np.array_equal(nk.hadamard(a, b).data, [[3.0, -8.0]])
    assert np.array_equal(nk.scale(a, -1.0).data, [[-1.0, 2.0]])
    assert np.array_equal(nk.square(a).data, [[1.0, 4.0]])


def test_elu_value():
    x = constant([[-1.0, 0.0, 2.0]])
    out = nk.elu(x).data
    assert out[0, 0] == pytest.approx(np.exp(-1.0) - 1.0)
    assert out[0, 1] == 0.0
    assert out[0, 2] == 2.0


def test_logistic_value_and_saturation():
    x = constant([[0.0, 1000.0, -1000.0]])
    out = nk.logistic(x).data
    assert out[0, 0] == 0.5
    assert out[0, 1] == 1.0
    assert out[0, 2] == 0.0


def test_bce_with_logits_matches_naive_and_saturates():
    x = np.array([-3.0, 0.0, 3.0])
    t = np.array([1.0, 0.0, 1.0])
    w = np.array([0.5, 1.0, 2.0])
    p = 1.0 / (1.0 + np.exp(-x))
    naive = -(w * (t * np.log(p) + (1.0 - t) * np.log(1.0 - p))).sum()
    assert nk.bce_with_logits(constant(x), t, w).item() == pytest.approx(naive, rel=1e-14)
    # Linear regime, no overflow: each confidently wrong logit costs |x|.
    assert nk.bce_with_logits(constant([800.0, -800.0]), np.array([0.0, 1.0]), np.ones(2)).item() == 1600.0
    with pytest.raises(NumericError, match=r"^bce_with_logits shapes \(3,\) / \(2,\) / \(3,\)$"):
        nk.bce_with_logits(constant(x), t[:2], w)


def test_bce_with_logits_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    store = ParamStore({"x": rng.normal(size=7, scale=3.0)})
    t = (rng.uniform(size=7) < 0.5).astype(float)
    w = rng.uniform(0.1, 1.0, 7)
    assert grad_check(lambda s: nk.bce_with_logits(s["x"], t, w), store) < 1e-7


def test_add_bias_adds_the_row_to_every_row():
    rng = np.random.default_rng(0)
    store = ParamStore({"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3))})
    out = nk.add_bias(store["a"], store["b"])
    assert np.array_equal(out.data, store["a"].data + store["b"].data)
    weights = constant(rng.uniform(-1.0, 1.0, (4, 3)))
    f = lambda s: nk.reduce_sum(nk.hadamard(weights, nk.square(nk.add_bias(s["a"], s["b"]))))
    assert grad_check(f, store) < 1e-7
    with pytest.raises(NumericError, match=r"^add_bias shapes \(4, 3\) \+ \(4, 3\)$"):
        nk.add_bias(store["a"], store["a"])


def test_row_softmax_rows_sum_to_one():
    x = constant([[1.0, 2.0, 3.0], [1000.0, 1000.0, 999.0]])
    out = nk.row_softmax(x).data
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.all(out > 0.0)


def test_reduce_sum_totals_every_entry():
    cat = constant([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    assert nk.reduce_sum(cat).shape == ()
    assert nk.reduce_sum(cat).item() == 12.0


def test_reshape_keeps_the_entries_in_order():
    a = constant(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(nk.reshape(a, (6,)).data, np.arange(6.0))


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
    seg = nk.seg_sum(h, np.array([0, 0, 0, 1]), 2)
    assert np.array_equal(seg.data, [[6.0, 9.0], [6.0, 7.0]])
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
    weights = constant(rng.uniform(-1.0, 1.0, (3, n, 3)))
    f = lambda s: nk.reduce_sum(nk.hadamard(weights, nk.square(nk.stack_agg(s["h"], edges, 3))))
    assert grad_check(f, store) < 1e-7


def test_take_values_gradient_and_empty_positions():
    store = ParamStore({"a": np.arange(6.0).reshape(2, 3)})
    flat = np.array([5, 0, 3])
    taken = nk.take(store["a"], flat)
    assert np.array_equal(taken.data, [5.0, 0.0, 3.0])
    # The gradient scatters each output's gradient to its position, zeros elsewhere.
    grads = backward(nk.reduce_sum(nk.hadamard(constant([1.0, 2.0, 3.0]), taken)), store)
    assert np.array_equal(grads["a"], [[2.0, 0.0, 0.0], [3.0, 0.0, 1.0]])
    weights = constant(np.random.default_rng(0).uniform(-1.0, 1.0, 3))
    assert grad_check(lambda s: nk.reduce_sum(nk.hadamard(weights, nk.square(nk.take(s["a"], flat)))), store) < 1e-7
    none = nk.take(store["a"], np.zeros(0, dtype=np.int64))
    assert none.shape == (0,)
    assert np.array_equal(backward(nk.reduce_sum(none), store)["a"], np.zeros((2, 3)))


def test_take_of_block_products_values_and_gradient_on_a_two_molecule_union():
    # Molecule 0 is rows 0-1, molecule 1 rows 2-4; its pairs (0,1), (0,2), (1,2).
    store = ParamStore({"z": [[1.0, 0.0], [2.0, 1.0], [0.0, 1.0], [1.0, 1.0], [3.0, -1.0]]})
    z = store["z"]

    def dots(layout):
        return nk.take(nk.block_products(z, layout), layout.pairs)

    union = dots(nk.PairLayout([2, 3]))
    assert np.array_equal(union.data, [2.0, 1.0, -1.0, 2.0])
    # d/dz of sum_k g_k dot_k: each row gains g_k times its partner in pair k.
    g = nk.constant([1.0, 2.0, 3.0, 4.0])
    grads = backward(nk.reduce_sum(nk.hadamard(g, union)), store)
    assert np.array_equal(grads["z"], [[2.0, 1.0], [1.0, 0.0], [11.0, -1.0], [12.0, -2.0], [4.0, 7.0]])
    assert dots(nk.PairLayout([1, 1, 1, 1, 1])).shape == (0,)
    with pytest.raises(NumericError, match=r"^\(5, 2\) array for blocks of 4 rows$"):
        dots(nk.PairLayout([2, 2]))


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
    weights = nk.constant(rng.uniform(-1.0, 1.0, (3, 3, 3)))
    assert grad_check(lambda s: nk.reduce_sum(nk.hadamard(weights, nk.block_products(s["z"], layout))), store) < 1e-7


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
    dst, src = rng.integers(0, n, e), rng.integers(0, n, e)
    w = rng.uniform(0.1, 1.0, e)
    seg = np.sort(rng.integers(0, 3, n))
    layout = nk.PairLayout(sizes)
    pair_w = nk.constant(rng.uniform(-1.0, 1.0, int((sizes * (sizes - 1) // 2).sum())))

    def f(s):
        agg = nk.reshape(nk.stack_agg(s["h"], nk.Edges(dst, src, w), 1), (n, 3))
        pooled = nk.seg_sum(nk.add(agg, s["h"]), seg, 3)
        dots = nk.take(nk.block_products(nk.add(agg, s["h"]), layout), layout.pairs)
        return nk.add(nk.reduce_sum(nk.square(pooled)), nk.reduce_sum(nk.hadamard(pair_w, dots)))

    assert grad_check(f, store) < 1e-7


# -- backward pass -------------------------------------------------------


def test_grad_of_sum_is_ones():
    store = ParamStore({"p": np.arange(4.0).reshape(2, 2)})
    p = store["p"]
    grads = backward(loss_of(p), store)
    assert np.array_equal(grads["p"], np.ones((2, 2)))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    store = ParamStore({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))})

    def f(s):
        return loss_of(nk.square(nk.matmul(s["a"], s["b"])))

    assert grad_check(f, store) < 1e-7


def test_reused_node_accumulates_gradient():
    # loss = sum(p * p + p): d/dp = 2p + 1.
    store = ParamStore({"p": np.array([[3.0]])})
    p = store["p"]
    loss = nk.reduce_sum(nk.add(nk.hadamard(p, p), p))
    grads = backward(loss, store)
    assert grads["p"][0, 0] == 7.0


def test_diamond_graph_gradient():
    # y = (p + p)^2 = 4p^2: dy/dp = 8p.
    store = ParamStore({"p": np.array([[2.0]])})
    p = store["p"]
    s = nk.add(p, p)
    grads = backward(nk.reduce_sum(nk.square(s)), store)
    assert grads["p"][0, 0] == 16.0


def test_off_tape_parameter_gets_zero_gradient():
    store = ParamStore({"a": np.ones((1, 1)), "unused": np.ones((2, 2))})
    a = store["a"]
    grads = backward(loss_of(a), store)
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def test_stale_gradient_cleared_between_backward_calls():
    store = ParamStore({"a": np.ones((1, 1)), "b": np.ones((1, 1))})
    a, b = store["a"], store["b"]
    backward(loss_of(nk.add(a, b)), store)
    grads = backward(loss_of(nk.scale(a, 3.0)), store)
    assert grads["b"][0, 0] == 0.0
    assert grads["a"][0, 0] == 3.0


def test_deep_chain_does_not_hit_recursion_limit():
    store = ParamStore({"p": np.ones((1, 1))})
    x = store["p"]
    for _ in range(5000):
        x = nk.scale(x, 1.0)
    grads = backward(nk.reduce_sum(x), store)
    assert grads["p"][0, 0] == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_grad_check_on_random_composite_expressions(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore({
        "w": rng.normal(size=(4, 4), scale=0.5),
        "x": rng.normal(size=(3, 4), scale=0.5),
    })

    def f(s):
        h = nk.elu(nk.matmul(s["x"], s["w"]))
        h = nk.row_softmax(h)
        h = nk.exp(nk.sub(h, nk.logistic(s["x"])))
        return nk.reduce_sum(nk.square(h))

    assert grad_check(f, store) < 1e-6


def test_grad_check_catches_a_wrong_gradient():
    store = ParamStore({"p": np.array([[1.0, 2.0]])})

    def wrong_square(t):
        # Deliberately broken local rule (missing factor 2).
        return Tensor(t.data * t.data, (t,), lambda g: (g * t.data,), "bad")

    def f(s):
        return nk.reduce_sum(wrong_square(s["p"]))

    assert grad_check(f, store) > 0.4


def test_grad_check_perturbs_the_largest_gradients_ties_in_table_order():
    # A linear loss whose gradient is `coef`, with 270 coordinates in two
    # tensors and many equal magnitudes, so the cut at GRAD_CHECK_MAX_COORDS
    # falls inside a tie.
    coef = (np.arange(270.0) % 7) - 3
    store = ParamStore({"a": np.zeros((10, 15)), "b": np.zeros((12, 10))})
    ca, cb = constant(coef[:150].reshape(10, 15)), constant(coef[150:].reshape(12, 10))
    touched = []

    def f(s):
        touched.append(np.flatnonzero(s.flat).tolist())
        return nk.add(nk.reduce_sum(nk.hadamard(s["a"], ca)), nk.reduce_sum(nk.hadamard(s["b"], cb)))

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
        grad_check(lambda s: loss_of(s["p"]), store, eps=1.0)


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
