"""Tests for the relational encoder and softmax pooling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from molvae.vaemodel import MolTensors, init_model_params

from helpers import permute


def encode_mol(mol, store):
    mt = MolTensors.from_mol(mol)
    return encode(mt.features, mt.relations, store, "mu", "sigma")


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
    edges = dict(MolTensors.from_mol(mol).relations).get(r)
    eye = np.eye(mol.n_atoms)
    return np.zeros_like(eye) if edges is None else nk.stack_agg(nk.constant(eye), edges, 1).data[0]


def test_mean_mats_rows_average_neighbors():
    mol = parse_smiles("CCO")
    m = neighbor_means(mol, 0)  # single bonds only
    assert np.allclose(m[1], [0.5, 0.0, 0.5])  # middle atom averages both ends
    assert np.allclose(m[0], [0.0, 1.0, 0.0])


def test_mean_mats_skip_empty_relations():
    # Bond types the molecule lacks have no entry, so the encoder skips them.
    mol = parse_smiles("C=C")
    sizes = {r: e.dst.size for r, e in MolTensors.from_mol(mol).relations}
    assert sizes == {1: 2}


def test_mean_mats_isolated_node_row_is_zero():
    mol = parse_smiles("C")
    assert MolTensors.from_mol(mol).relations == ()
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
        encode(np.zeros((3, 7)), [], store, "mu")


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
    # Precomputed edge lists by bond type: an entry with no edges adds
    # nothing; dropping an entry with edges changes the output.
    store = init_model_params(seed=0)
    mol = parse_smiles("CC=O")
    mt = MolTensors.from_mol(mol)
    by_type = dict(mt.relations)
    assert {r: e.dst.size for r, e in by_type.items()} == {0: 2, 1: 2}
    empty = np.zeros(0, dtype=np.int64)
    padded = ((0, by_type[0]), (3, nk.Edges(empty, empty, np.zeros(0))), (1, by_type[1]))
    mu1, ls1 = encode(mt.features, mt.relations, store, "mu", "sigma")
    mu2, ls2 = encode(mt.features, padded, store, "mu", "sigma")
    assert np.array_equal(mu1.data, mu2.data)
    assert np.array_equal(ls1.data, ls2.data)
    (mu3,) = encode(mt.features, ((0, by_type[0]),), store, "mu")
    assert not np.array_equal(mu1.data, mu3.data)


def test_rgcn_layer_is_one_op_that_adds_each_bond_type_in_order():
    # Bond types 0 and 2 over 6 rows; the layer reads W_self, W_0 and W_2.
    rng = np.random.default_rng(0)
    n = 6
    lists = [nk.Edges(rng.integers(0, n, e), rng.integers(0, n, e), rng.uniform(0.1, 1.0, e)) for e in (8, 5)]
    edges = nk.Edges.stacked(lists, n)
    store = nk.ParamStore({
        "h": rng.normal(size=(n, 4)),
        "x.self": rng.normal(size=(4, 3)),
        "x.rel0": rng.normal(size=(4, 3)),
        "x.rel2": rng.normal(size=(4, 3)),
    })
    weights = nk.constant(rng.uniform(-1.0, 1.0, (n, 3)))

    def layer(s, activate):
        return encoder.rgcn_layer(s["h"], ((0, 2), nk.stack_agg(s["h"], edges, 2)), s, "x", activate)

    agg = nk.stack_agg(store["h"], edges, 2).data
    linear = store["h"].data @ store["x.self"].data + agg[0] @ store["x.rel0"].data + agg[1] @ store["x.rel2"].data
    assert np.array_equal(layer(store, False).data, linear)
    assert np.array_equal(layer(store, True).data, nk.elu(nk.constant(linear)).data)
    assert layer(store, True).name == "rgcn_layer"
    for activate in (False, True):
        assert nk.grad_check(lambda s: nk.reduce_sum(nk.hadamard(weights, layer(s, activate))), store) < 1e-7
    # With no bond types the stack is empty and the layer is its self term.
    bare = encoder.rgcn_layer(store["h"], ((), nk.stack_agg(store["h"], nk.Edges.stacked([], n), 0)), store, "x", False)
    assert np.array_equal(bare.data, store["h"].data @ store["x.self"].data)
    grads = nk.backward(nk.reduce_sum(nk.hadamard(weights, bare)), store)
    assert np.array_equal(grads["x.self"], store["h"].data.T @ weights.data) and not grads["x.rel0"].any()


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
    grads = nk.backward(nk.reduce_sum(nk.square(pool(mu, store, np.array([3])))), store)
    assert np.any(grads["pool.wp"] != 0.0)
