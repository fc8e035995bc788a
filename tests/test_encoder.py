"""Tests for the relational encoder and softmax pooling."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from molvae import encoder, numkernel as nk
from molvae.chem import adjacency_tensor
from molvae.corpus import random_molecule
from molvae.encoder import (
    ENCODER_PARAM_SHAPES,
    HIDDEN_DIM,
    LATENT_DIM,
    POOL_DIM,
    POOL_PARAM_SHAPES,
    encode,
    pool,
)
from molvae.smiles import parse_smiles
from molvae.vaemodel import MolTensors, decoded_blocks, init_model_params, pooled_vectors

from helpers import FLOAT_ARRAYS, SPECIAL_FLOATS, permute, stack_edges, weighted_sum


def encode_mol(mol, store):
    return encode(MolTensors.from_mol(mol), store, "mu", "sigma")


# -- parameter inventory -------------------------------------------------


def test_parameter_shapes():
    # Two shared layers and two heads, each with 4 relation weights + self.
    assert len(ENCODER_PARAM_SHAPES) == 4 * 5
    assert ENCODER_PARAM_SHAPES["enc.l1.rel0"] == (HIDDEN_DIM, HIDDEN_DIM)
    assert ENCODER_PARAM_SHAPES["enc.mu.self"] == (HIDDEN_DIM, LATENT_DIM)
    assert POOL_PARAM_SHAPES["pool.wp"] == (LATENT_DIM, POOL_DIM)


def test_init_covers_all_shapes():
    store = init_model_params(seed=0)
    for name, shape in {**ENCODER_PARAM_SHAPES, **POOL_PARAM_SHAPES}.items():
        assert store[name].shape == shape


def test_glorot_bound():
    rng = np.random.default_rng(0)
    w = encoder.glorot_uniform(rng, 32, 32)
    s = np.sqrt(6.0 / 64)
    assert np.all(np.abs(w) <= s)


# -- relation edge lists ------------------------------------------------


def neighbor_means(mol, r):
    """Relation r's neighbor-mean operator applied to the identity, as a dense
    matrix: zero when the molecule has no bond of type r."""
    mt = MolTensors.from_mol(mol)
    eye = np.eye(mol.n_atoms)
    if r not in mt.types:
        return np.zeros_like(eye)
    return nk.stack_agg(nk.constant(eye), mt.edges, len(mt.types)).data[mt.types.index(r)]


def test_mean_mats_rows_average_neighbors():
    mol = parse_smiles("CCO")
    m = neighbor_means(mol, 0)  # single bonds only
    assert np.allclose(m[1], [0.5, 0.0, 0.5])  # middle atom averages both ends
    assert np.allclose(m[0], [0.0, 1.0, 0.0])


def test_mean_mats_skip_empty_relations():
    # Bond types the molecule lacks have no slot, so the encoder skips them.
    mt = MolTensors.from_mol(parse_smiles("C=C"))
    assert mt.types == (1,)
    assert mt.edges.dst.tolist() == [0, 1]


def test_mean_mats_isolated_node_row_is_zero():
    mol = parse_smiles("C")
    mt = MolTensors.from_mol(mol)
    assert mt.types == () and mt.edges.dst.size == 0
    assert np.array_equal(neighbor_means(mol, 0), [[0.0]])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_relations_are_the_dense_neighbor_means(seed):
    # Row i of relation r averages over the r-neighbors of i; rows without
    # such neighbors are zero.
    rng = np.random.default_rng(seed)
    mol = random_molecule(rng, int(rng.integers(1, 12)))
    a = adjacency_tensor(mol)
    for r in range(a.shape[2]):
        counts = a[:, :, r].sum(axis=1, keepdims=True)
        dense = np.divide(a[:, :, r], counts, out=np.zeros_like(a[:, :, r]), where=counts > 0)
        assert np.allclose(neighbor_means(mol, r), dense, rtol=0, atol=1e-15)


# -- encoder -------------------------------------------------------------


def test_encode_output_shapes():
    store = init_model_params(seed=0)
    mol = parse_smiles("CC(=O)O")
    mu, log_std = encode_mol(mol, store)
    assert mu.shape == (4, LATENT_DIM)
    assert log_std.shape == (4, LATENT_DIM)


def test_encode_rejects_bad_feature_width():
    store = init_model_params(seed=0)
    with pytest.raises(nk.NumericError, match="^feature width 7 != 32$"):
        encode(MolTensors(np.zeros((3, 7)), (), stack_edges([], 3), nk.PairLayout([3])), store, "mu")


def test_heads_share_the_first_two_layers():
    # Perturbing a sigma-head weight must leave mu untouched, while
    # perturbing a shared layer-1 weight must move both heads.
    store = init_model_params(seed=0)
    mol = parse_smiles("CCO")
    mu0, ls0 = encode_mol(mol, store)

    store["enc.sigma.self"].data[0, 0] += 1.0
    mu1, ls1 = encode_mol(mol, store)
    assert np.array_equal(mu1.data, mu0.data)
    assert not np.array_equal(ls1.data, ls0.data)

    # Row 1 of the layer-1 weight multiplies the carbon one-hot, which is
    # active for this molecule.
    store["enc.l1.self"].data[1, 0] += 1.0
    mu2, ls2 = encode_mol(mol, store)
    assert not np.array_equal(mu2.data, mu1.data)
    assert not np.array_equal(ls2.data, ls1.data)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_encoder_is_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    mol = random_molecule(rng, int(rng.integers(2, 10)))
    store = init_model_params(seed=seed)
    perm = list(rng.permutation(mol.n_atoms))
    mu_a, ls_a = encode_mol(mol, store)
    mu_b, ls_b = encode_mol(permute(mol, perm), store)
    assert np.allclose(mu_b.data[perm], mu_a.data, atol=1e-12)
    assert np.allclose(ls_b.data[perm], ls_a.data, atol=1e-12)


def test_encode_accepts_precomputed_mean_mats():
    # A precomputed stacked edge list: a slot with no edges adds nothing;
    # dropping a slot with edges changes the output.
    store = init_model_params(seed=0)
    mol = parse_smiles("CC=O")
    mt = MolTensors.from_mol(mol)
    assert mt.types == (0, 1)
    assert mt.edges.dst.tolist() == [0, 1, 3 + 1, 3 + 2]  # C-C in slot 0, C=O in slot 1
    n, half = mol.n_atoms, mt.edges.dst.size // 2
    single, double = (nk.Edges(mt.edges.dst[s] % n, mt.edges.src[s], mt.edges.w[s]) for s in (slice(half), slice(half, None)))
    empty = np.zeros(0, dtype=np.int64)
    padded = stack_edges([single, nk.Edges(empty, empty, np.zeros(0)), double], n)
    mu1, ls1 = encode(mt, store, "mu", "sigma")
    mu2, ls2 = encode(replace(mt, types=(0, 3, 1), edges=padded), store, "mu", "sigma")
    assert np.array_equal(mu1.data, mu2.data)
    assert np.array_equal(ls1.data, ls2.data)
    (mu3,) = encode(replace(mt, types=(0,), edges=stack_edges([single], n)), store, "mu")
    assert not np.array_equal(mu1.data, mu3.data)


def test_encode_builds_no_edge_list(monkeypatch):
    # A MolTensors holds its stacked edge list: encoding it, for pooled
    # vectors or decoded blocks, makes no `nk.Edges` of its own.
    mt = MolTensors.from_mols([parse_smiles(s) for s in ("CC=O", "C#N", "c1ccccc1", "C")])
    made = []
    real = nk.Edges.__init__

    def counting(self, *args):
        made.append(args)
        real(self, *args)

    monkeypatch.setattr(nk.Edges, "__init__", counting)
    store = init_model_params(seed=0)
    pooled_vectors(mt, store)
    decoded_blocks(mt, store)
    assert made == []
    mt.select([1, 0])  # the count sees the Edges a selection makes
    assert len(made) == 1


def _layer_inputs(rng, n):
    """A (n, 4) input and its neighbor means over bond types 0 and 2, and the
    store of a layer "x" that reads them."""
    lists = [nk.Edges(rng.integers(0, n, e), rng.integers(0, n, e), rng.uniform(0.1, 1.0, e)) for e in (8, 5)]
    store = nk.ParamStore({
        "h": rng.normal(size=(n, 4)),
        "x.self": rng.normal(size=(4, 3)),
        "x.rel0": rng.normal(size=(4, 3)),
        "x.rel2": rng.normal(size=(4, 3)),
    })
    return stack_edges(lists, n), store


def test_rgcn_layer_is_one_op_that_adds_each_bond_type_in_order():
    # Bond types 0 and 2 over 6 rows; the layer reads W_self, W_0 and W_2.
    rng = np.random.default_rng(0)
    n = 6
    edges, store = _layer_inputs(rng, n)
    weights = rng.uniform(-1.0, 1.0, (n, 3))

    def layer(s, activate):
        return encoder.rgcn_layer(s["h"], ((0, 2), nk.stack_agg(s["h"], edges, 2)), s, "x", activate)

    agg = nk.stack_agg(store["h"], edges, 2).data
    linear = store["h"].data @ store["x.self"].data + agg[0] @ store["x.rel0"].data + agg[1] @ store["x.rel2"].data
    assert np.array_equal(layer(store, False).data, linear)
    assert np.array_equal(layer(store, True).data, encoder.elu(linear)[0])
    assert layer(store, True).name == "rgcn_layer"
    for activate in (False, True):
        assert nk.grad_check(lambda s: weighted_sum(layer(s, activate), weights), store) < 1e-7
    # With no bond types the stack is empty and the layer is its self term.
    bare = encoder.rgcn_layer(store["h"], ((), nk.stack_agg(store["h"], stack_edges([], n), 0)), store, "x", False)
    assert np.array_equal(bare.data, store["h"].data @ store["x.self"].data)
    grads = nk.backward(weighted_sum(bare, weights), store)
    assert np.array_equal(grads["x.self"], store["h"].data.T @ weights) and not grads["x.rel0"].any()


def test_rgcn_layer_on_plain_arrays_records_only_its_weights():
    # Plain-array inputs are constants: the op's parents are its weights, and
    # its value and weight gradients equal those of the same layer on tensors.
    # A parameter input, which has no parents either, keeps its gradient.
    rng = np.random.default_rng(1)
    n = 6
    edges, store = _layer_inputs(rng, n)
    weights = rng.uniform(-1.0, 1.0, (n, 3))
    x = store["h"].data.copy()
    plain = encoder.rgcn_layer(x, ((0, 2), nk.stack_agg(x, edges, 2)), store, "x", True)
    assert isinstance(nk.stack_agg(x, edges, 2), np.ndarray)
    assert plain._parents == (store["x.self"], store["x.rel0"], store["x.rel2"])
    taped = encoder.rgcn_layer(store["h"], ((0, 2), nk.stack_agg(store["h"], edges, 2)), store, "x", True)
    assert np.array_equal(plain.data, taped.data)
    g_plain = nk.backward(weighted_sum(plain, weights), store)
    g_taped = nk.backward(weighted_sum(taped, weights), store)
    assert not g_plain["h"].any() and g_taped["h"].any()
    for name in ("x.self", "x.rel0", "x.rel2"):
        assert np.array_equal(g_plain[name], g_taped[name]), name

    def f(s):  # the layer's input `h` is a parameter, a leaf like a constant
        out = encoder.rgcn_layer(s["h"], ((0, 2), nk.stack_agg(s["h"], edges, 2)), s, "x", True)
        return weighted_sum(out, weights)

    assert store["h"]._parents == () and len(store.flat) <= nk.GRAD_CHECK_MAX_COORDS  # h's entries are checked
    assert nk.grad_check(f, store) < 1e-7


# -- pooling -------------------------------------------------------------


def test_pool_entries_sum_to_atom_count():
    store = init_model_params(seed=0)
    for smi in ("C", "CCO", "c1ccccc1"):
        mol = parse_smiles(smi)
        mu, _ = encode_mol(mol, store)
        g = pool(mu, store, np.array([mol.n_atoms]))
        assert g.shape == (1, POOL_DIM)
        assert g.data.sum() == pytest.approx(mol.n_atoms, abs=1e-9)
        assert np.all(g.data >= 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pool_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    mol = random_molecule(rng, int(rng.integers(2, 10)))
    store = init_model_params(seed=seed)
    perm = list(rng.permutation(mol.n_atoms))
    mu_a, _ = encode_mol(mol, store)
    mu_b, _ = encode_mol(permute(mol, perm), store)
    sizes = np.array([mol.n_atoms])
    g_a = pool(mu_a, store, sizes).data
    g_b = pool(mu_b, store, sizes).data
    assert np.allclose(g_a, g_b, atol=1e-12)


def test_pool_gradient_flows_to_wp():
    store = init_model_params(seed=0)
    mol = parse_smiles("CCO")
    mu, _ = encode_mol(mol, store)
    grads = nk.backward(nk.squared_error(pool(mu, store, np.array([3])), np.zeros((1, POOL_DIM))), store)
    assert np.any(grads["pool.wp"] != 0.0)


def test_pool_is_one_op_equal_bit_for_bit_to_softmax_then_row_sums():
    # Molecules of 3, 1 and 4 atoms. The reference is the old composition,
    # x Wp, a max-subtracted row softmax and per-molecule sums row by row,
    # and its rules in reverse: g[seg], the softmax rule, the product rule.
    rng = np.random.default_rng(0)
    sizes = np.array([3, 1, 4])
    n = int(sizes.sum())
    store = nk.ParamStore({"x": rng.normal(size=(n, LATENT_DIM)), "pool.wp": rng.normal(size=(LATENT_DIM, POOL_DIM))})
    w = rng.uniform(-1.0, 1.0, (sizes.size, POOL_DIM))
    x, wp = store["x"].data, store["pool.wp"].data
    logits = x @ wp
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    seg = np.repeat(np.arange(sizes.size), sizes)
    want = np.zeros((sizes.size, POOL_DIM))
    for i, s in enumerate(seg):
        want[s] = want[s] + soft[i]
    g = w[seg]
    g_logits = soft * (g - (g * soft).sum(axis=1, keepdims=True))

    out = pool(store["x"], store, sizes)
    assert out.name == "pool" and out._parents == (store["x"], store["pool.wp"])
    assert out.data.tobytes() == want.tobytes()
    assert out.data[1].sum() == pytest.approx(1.0)  # the 1-atom molecule's one row
    grads = nk.backward(weighted_sum(out, w), store)
    assert grads["x"].tobytes() == (g_logits @ wp.T).tobytes()
    assert grads["pool.wp"].tobytes() == (x.T @ g_logits).tobytes()
    assert nk.grad_check(lambda s: weighted_sum(pool(s["x"], s, sizes), w), store) < 1e-7


def test_elu_value_and_gradient_rule():
    x = np.array([[-1.0, 0.0, 2.0]])
    out, back = encoder.elu(x)
    assert out[0, 0] == pytest.approx(np.exp(-1.0) - 1.0)
    assert out[0, 1] == 0.0 and out[0, 2] == 2.0
    # The slope is e^x for x <= 0 and 1 above.
    assert np.allclose(back(np.full((1, 3), 3.0)), [[3.0 * np.exp(-1.0), 3.0, 3.0]], rtol=1e-15, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(FLOAT_ARRAYS)
@example(SPECIAL_FLOATS)
@example(SPECIAL_FLOATS.reshape(4, -1))
def test_elu_keeps_the_bits_of_its_select_form(x):
    """max(x, 0) + neg and g (neg + 1) give the bits of the np.where form for
    every float: neg is exactly 0.0 above 0, so neg + 1 is exactly 1.0. The
    gradient g is `x` reversed. A signaling NaN raises numpy's invalid flag
    in the new sum but keeps its bits, so flags are ignored on both sides."""
    g = x.ravel()[::-1].reshape(x.shape)
    with np.errstate(all="ignore"):
        neg = np.exp(np.minimum(x, 0.0)) - 1.0
        want_out, want_g = np.where(x > 0.0, x, neg), g * np.where(x > 0.0, 1.0, neg + 1.0)
        out, back = encoder.elu(x)
        got_g = back(g)
    assert out.tobytes() == want_out.tobytes()
    assert got_g.tobytes() == want_g.tobytes()
