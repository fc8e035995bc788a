"""Tests for the relational encoder and softmax pooling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from molvae import encoder, numkernel as nk
from molvae.chem import adjacency_tensor, node_features
from molvae.corpus import random_molecule
from molvae.encoder import (
    ENCODER_PARAM_SHAPES,
    HIDDEN_DIM,
    LATENT_DIM,
    POOL_DIM,
    POOL_PARAM_SHAPES,
    encode,
    neighbor_mean_mats,
    pool,
)
from molvae.smiles import parse_smiles
from molvae.vaemodel import MolTensors, init_model_params

from helpers import permute


def encode_mol(mol, store):
    mt = MolTensors.from_mol(mol)
    return encode(mt.features, mt.mean_mats, store)


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


# -- neighbor mean matrices ----------------------------------------------


def test_mean_mats_rows_average_neighbors():
    mol = parse_smiles("CCO")
    mats = neighbor_mean_mats(adjacency_tensor(mol))
    assert [r for r, _ in mats] == [0]  # single bonds only
    m = mats[0][1]
    assert np.allclose(m[1], [0.5, 0.0, 0.5])  # middle atom averages both ends
    assert np.allclose(m[0], [0.0, 1.0, 0.0])


def test_mean_mats_skip_empty_relations():
    mol = parse_smiles("C=C")
    mats = neighbor_mean_mats(adjacency_tensor(mol))
    assert [r for r, _ in mats] == [1]


def test_mean_mats_isolated_node_row_is_zero():
    mol = parse_smiles("C")
    assert neighbor_mean_mats(adjacency_tensor(mol)) == []


# -- encoder -------------------------------------------------------------


def test_encode_output_shapes():
    store = init_model_params(seed=0)
    mol = parse_smiles("CC(=O)O")
    mu, log_std = encode_mol(mol, store)
    assert mu.shape == (4, LATENT_DIM)
    assert log_std.shape == (4, LATENT_DIM)


def test_encode_rejects_bad_feature_width():
    store = init_model_params(seed=0)
    with pytest.raises(nk.ShapeMismatch):
        encode(np.zeros((3, 7)), [], store)


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
    # Leaving out a relation with no bonds, as neighbor_mean_mats does, gives
    # the same encoding as passing its all-zero mean matrix.
    store = init_model_params(seed=0)
    mol = parse_smiles("CC=O")
    a = adjacency_tensor(mol)
    h = node_features(mol)
    skipped = neighbor_mean_mats(a)
    assert [r for r, _ in skipped] == [0, 1]
    full = skipped + [(r, np.zeros((3, 3))) for r in (2, 3)]
    mu1, ls1 = encode(h, skipped, store)
    mu2, ls2 = encode(h, full, store)
    assert np.allclose(mu1.data, mu2.data, rtol=0, atol=1e-15)
    assert np.allclose(ls1.data, ls2.data, rtol=0, atol=1e-15)


# -- pooling -------------------------------------------------------------


def test_pool_entries_sum_to_atom_count():
    store = init_model_params(seed=0)
    for smi in ("C", "CCO", "c1ccccc1"):
        mol = parse_smiles(smi)
        mu, _ = encode_mol(mol, store)
        g = pool(mu, store)
        assert g.shape == (POOL_DIM,)
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
    g_a = pool(mu_a, store).data
    g_b = pool(mu_b, store).data
    assert np.allclose(g_a, g_b, atol=1e-12)


def test_pool_gradient_flows_to_wp():
    store = init_model_params(seed=0)
    mol = parse_smiles("CCO")
    mu, _ = encode_mol(mol, store)
    grads = nk.backward(nk.reduce_sum(nk.square(pool(mu, store))), store)
    assert np.any(grads["pool.wp"] != 0.0)
