"""Tests for latent sampling, decoding, the loss terms, and reconstruction."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from molvae import encoder, numkernel as nk, train, vaemodel
from molvae.chem import Atom, BondType, MolGraph, adjacency_tensor, build, check_valence, is_isomorphic
from molvae.corpus import DRUG_SMILES, random_molecule
from molvae.dataio import Dataset, Record, load_bundled_corpus
from molvae.encoder import LATENT_DIM
from molvae.numkernel import constant
from molvae.smiles import parse_smiles
from molvae.vaemodel import (
    PARAM_SHAPES,
    LossBreakdown,
    MolTensors,
    init_model_params,
    joint_loss,
    kl_term,
    decoded_blocks,
    latent_similarity,
    pooled_vector,
    pooled_vectors,
    predict,
    recon_bce,
    reconstruct,
    reconstruct_from_probs,
    sample_latent,
    side_predict,
)

from helpers import (
    assert_same_tensors,
    oracle_mol_tensors,
    oracle_pair_dot,
    oracle_pair_target,
    oracle_reconstruct_from_probs,
    union_pairs,
)


# -- parameters ----------------------------------------------------------


def test_init_draws_the_parameter_table_in_order():
    # A digest of the seed-0 buffer pins the draw order: every tensor of
    # PARAM_SHAPES Glorot-uniform from one generator, in order, except the
    # side MLP's biases, which are zero and draw nothing.
    store = init_model_params(seed=0)
    assert store.names() == list(PARAM_SHAPES)
    assert all(store[name].shape == shape for name, shape in PARAM_SHAPES.items())
    assert hashlib.sha256(store.flat.tobytes()).hexdigest() == (
        "da03f13f887b95fb2918ed2a5eb70002b43d426c40bd3a438e0642369cef7c59"
    )


# -- sampling ------------------------------------------------------------


def test_sample_latent_zero_noise_returns_mu():
    mu = constant(np.arange(6.0).reshape(2, 3))
    ls = constant(np.zeros((2, 3)))
    z = sample_latent(mu, ls, np.zeros((2, 3)))
    assert np.array_equal(z.data, mu.data)


def test_sample_latent_applies_std():
    mu = constant(np.zeros((1, 2)))
    ls = constant(np.log(np.array([[2.0, 3.0]])))
    z = sample_latent(mu, ls, np.ones((1, 2)))
    assert np.allclose(z.data, [[2.0, 3.0]])


def test_sample_latent_shape_mismatch():
    with pytest.raises(nk.NumericError, match=r"^latent shapes \(2, 2\) / \(2, 2\) / \(3, 2\)$"):
        sample_latent(constant(np.zeros((2, 2))), constant(np.zeros((2, 2))), np.zeros((3, 2)))


def test_sample_latent_moments():
    # Empirical mean/std of many reparameterized draws match mu, sigma.
    rng = np.random.default_rng(0)
    mu = constant(np.full((1, 1), 1.5))
    ls = constant(np.full((1, 1), np.log(0.5)))
    draws = np.array(
        [sample_latent(mu, ls, rng.standard_normal((1, 1))).data[0, 0] for _ in range(20_000)]
    )
    assert draws.mean() == pytest.approx(1.5, abs=0.02)
    assert draws.std() == pytest.approx(0.5, abs=0.02)


# -- decoder -------------------------------------------------------------


def _decoding(monkeypatch, z):
    """Make `z` the latent code of every batch the decoder queries decode."""
    monkeypatch.setattr(vaemodel, "_mu", lambda mt, store: constant(z))


def test_decode_probs_symmetric_in_unit_interval(monkeypatch):
    _decoding(monkeypatch, np.random.default_rng(0).normal(size=(5, LATENT_DIM)))
    p = vaemodel.decode_probs(parse_smiles("CCCCO"), init_model_params(seed=0))
    assert np.array_equal(p, p.T)
    assert np.all((p > 0.0) & (p < 1.0))


def test_decoded_blocks_monotone_in_alignment(monkeypatch):
    # Molecule 0's first two atoms are aligned and its third opposed; molecule
    # 1's pair is orthogonal. Padding molecule 1 to three rows changes nothing.
    _decoding(monkeypatch, np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]))
    blocks = decoded_blocks([parse_smiles("CCC"), parse_smiles("CC")], init_model_params(seed=0))
    assert blocks.shape == (2, 3, 3)
    p, q = blocks
    assert p[0, 1] > 0.5  # aligned pair
    assert p[0, 2] < 0.5  # opposed pair
    assert q[0, 1] == 0.5


# -- KL term -------------------------------------------------------------


def test_kl_standard_normal_is_zero():
    mu = constant(np.zeros((3, 4)))
    ls = constant(np.zeros((3, 4)))
    assert kl_term(mu, ls).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_unit_mean_single_coordinate():
    # mu=1, sigma=1: KL = 1/2.
    assert kl_term(constant([[1.0]]), constant([[0.0]])).item() == pytest.approx(
        0.5, abs=1e-12
    )


def test_kl_wide_posterior_single_coordinate():
    # mu=0, sigma=2: KL = (4 - 2 ln 2 - 1)/2 = 1.5 - ln 2.
    got = kl_term(constant([[0.0]]), constant([[math.log(2.0)]])).item()
    assert got == pytest.approx(1.5 - math.log(2.0), abs=1e-12)


def test_kl_sums_over_all_coordinates():
    mu = constant(np.ones((2, 3)))
    ls = constant(np.zeros((2, 3)))
    assert kl_term(mu, ls).item() == pytest.approx(3.0, abs=1e-12)


def test_kl_is_nonnegative_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        mu = constant(rng.normal(size=(3, 5), scale=2.0))
        ls = constant(rng.normal(size=(3, 5)))
        assert kl_term(mu, ls).item() >= -1e-12


def test_kl_matches_monte_carlo_estimate():
    # KL(q || N(0,1)) = E_q[log q(z) - log p(z)], estimated by sampling.
    mu_v, sd_v = 0.7, 1.3
    rng = np.random.default_rng(0)
    z = rng.normal(mu_v, sd_v, size=200_000)
    log_q = -0.5 * ((z - mu_v) / sd_v) ** 2 - np.log(sd_v) - 0.5 * np.log(2 * np.pi)
    log_p = -0.5 * z**2 - 0.5 * np.log(2 * np.pi)
    mc = float((log_q - log_p).mean())
    closed = kl_term(constant([[mu_v]]), constant([[np.log(sd_v)]])).item()
    assert closed == pytest.approx(mc, abs=0.01)


def test_kl_term_is_one_op_whose_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    store = nk.ParamStore({"mu": rng.normal(size=(5, 3)), "ls": rng.normal(size=(5, 3), scale=0.5)})
    assert kl_term(store["mu"], store["ls"]).name == "kl_term"
    assert nk.grad_check(lambda s: kl_term(s["mu"], s["ls"]), store) < 1e-7


def test_kl_shape_mismatch():
    with pytest.raises(nk.NumericError, match=r"^kl shapes \(2, 2\) vs \(3, 2\)$"):
        kl_term(constant(np.zeros((2, 2))), constant(np.zeros((3, 2))))


# -- reconstruction BCE --------------------------------------------------


def test_pair_mask_counts():
    # The decoder's pair list: the strict upper triangle, bonded pairs marked.
    mt = MolTensors.from_mol(parse_smiles("CC(=O)O"))
    i, j = union_pairs(mt.sizes)
    assert i.size == 6
    assert np.all(i < j)
    assert len(set(zip(i, j))) == 6
    a = adjacency_tensor(parse_smiles("CC(=O)O")).sum(axis=2)
    assert np.array_equal(mt.pair_target, a[i, j])


def test_take_of_block_products_agrees_with_one_gather_per_pair_on_a_union():
    # The decoder's pair products over a 12-20-atom minibatch, against the
    # gather/scatter formula applied to a list of the union's pairs.
    rng = np.random.default_rng(5)
    mols = [random_molecule(rng, int(rng.integers(12, 21))) for _ in range(16)]
    mt = MolTensors.from_mols(mols)
    store = nk.ParamStore({"z": rng.standard_normal((len(mt.features), LATENT_DIM))})
    z = store["z"]
    g = rng.standard_normal(mt.pair_target.size)
    want, want_grad = oracle_pair_dot(z.data, *union_pairs(mt.sizes), g)
    dots = nk.take(nk.block_products(z, mt.layout), mt.layout.pairs)
    grad = nk.backward(nk.reduce_sum(nk.hadamard(constant(g), dots)), store)["z"]
    assert dots.shape == want.shape
    assert np.max(np.abs(dots.data - want)) <= 1e-12
    assert np.max(np.abs(grad - want_grad)) <= 1e-12


# C, CC#N, C=CO and aspirin: all four bond types, and a molecule with no bonds.
FOUR_BOND_TYPES = ("C", "CC#N", "C=CO", DRUG_SMILES["aspirin"])


def test_union_loss_aggregates_once_per_layer_and_once_for_both_heads(monkeypatch):
    calls = []
    real = nk.stack_agg

    def counting(h, edges, depth):
        calls.append((edges.dst.size, depth))
        return real(h, edges, depth)

    monkeypatch.setattr(nk, "stack_agg", counting)
    mols = [parse_smiles(s) for s in FOUR_BOND_TYPES]
    mt = MolTensors.from_mols(mols)
    assert mt.types == (0, 1, 2, 3)
    edges = mt.edges.dst.size
    noise = np.random.default_rng(0).standard_normal((len(mt.features), LATENT_DIM))
    joint_loss(mt, [1.0] * len(mols), init_model_params(seed=0), noise)
    # Layer 1 (on plain arrays), layer 2, and one for the mu and sigma heads:
    # each stacks all four bond types.
    assert calls == [(edges, 4)] * 3


def test_joint_loss_gradient_matches_central_differences_on_a_batch_of_every_bond_type():
    mols = [parse_smiles(s) for s in FOUR_BOND_TYPES]
    mt = MolTensors.from_mols(mols)
    assert mt.types == tuple(int(t) for t in BondType)
    noise = np.random.default_rng(0).standard_normal((len(mt.features), LATENT_DIM))
    labels = [float(m.n_atoms) for m in mols]
    store = init_model_params(seed=0)

    def loss(s):
        return joint_loss(mt, labels, s, noise)[0]

    assert nk.grad_check(loss, store) < 1e-7
    # grad_check perturbs only the largest gradients; check the triple and
    # aromatic weights of every layer at their largest entry too.
    grads = nk.backward(loss(store), store)
    for name in [f"enc.{layer}.rel{r}" for layer in ("l1", "l2", "mu", "sigma") for r in (2, 3)]:
        w, i = store[name].data.reshape(-1), int(np.argmax(np.abs(grads[name])))
        orig = w[i]
        w[i] = orig + 1e-5
        hi = loss(store).item()
        w[i] = orig - 1e-5
        lo = loss(store).item()
        w[i] = orig
        assert grads[name].reshape(-1)[i] == pytest.approx((hi - lo) / 2e-5, rel=1e-6, abs=1e-8), name


def test_recon_bce_at_half_is_ln2():
    mol = parse_smiles("CCO")
    a = adjacency_tensor(mol)
    p = constant(np.full((3, 3), 0.5))
    assert recon_bce(p, a).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_recon_bce_perfect_prediction_near_zero():
    mol = parse_smiles("CCO")
    a = adjacency_tensor(mol)
    target = (a.sum(axis=2) > 0).astype(float)
    p = constant(np.clip(target, 1e-9, 1 - 1e-9))
    assert recon_bce(p, a).item() == pytest.approx(0.0, abs=1e-6)


def test_recon_bce_single_atom_is_zero():
    mol = parse_smiles("C")
    a = adjacency_tensor(mol)
    assert recon_bce(constant(np.zeros((1, 1))), a).item() == 0.0


def test_recon_bce_logits_matches_probability_form():
    # joint_loss's reconstruction term, taken from pair logits, equals
    # recon_bce on the decoded probabilities for the same latent draw.
    mol = parse_smiles("CC(=O)O")
    store = init_model_params(seed=0)
    store["enc.sigma.self"].data[...] -= 1.0  # keep the logits out of the clamp
    noise = np.random.default_rng(0).standard_normal((4, LATENT_DIM))
    _, bd = joint_loss(mol, 4.0, store, noise)
    mt = MolTensors.from_mol(mol)
    mu, log_std = encoder.encode(mt.features, mt.types, mt.edges, store, "mu", "sigma")
    z = sample_latent(mu, log_std, noise).data
    probs = constant(1.0 / (1.0 + np.exp(-z @ z.T)))
    assert bd.recon == pytest.approx(recon_bce(probs, adjacency_tensor(mol)).item(), rel=1e-12)


def _per_pair_bce(p, mol):
    """Mean over pairs i < j of -(y ln q + (1 - y) ln(1 - q)), q = p[i, j]
    clamped to [1e-12, 1 - 1e-12] and y whether any bond joins i and j."""
    bonded = {frozenset((i, j)) for i, j, _ in mol.bonds}
    terms = []
    for i in range(mol.n_atoms):
        for j in range(i + 1, mol.n_atoms):
            q = min(max(float(p[i, j]), 1e-12), 1.0 - 1e-12)
            terms.append(-math.log(q) if frozenset((i, j)) in bonded else -math.log(1.0 - q))
    return sum(terms) / len(terms)


@pytest.mark.parametrize("smiles", ["CCO", "CC(=O)Oc1ccccc1C(=O)O", "C#N"])
def test_recon_bce_matches_the_per_pair_formula(smiles):
    mol = parse_smiles(smiles)
    n, a = mol.n_atoms, adjacency_tensor(mol)
    bonded = a.sum(axis=2) > 0
    rng = np.random.default_rng(n)
    p = rng.random((n, n))
    assert recon_bce(constant(p), a).item() == pytest.approx(_per_pair_bce(p, mol), rel=1e-12)
    # Exactly 0 and 1 on bonded and on some unbonded pairs hit the clamp both
    # ways; the other unbonded pairs keep their random values.
    for on_bond, off_bond in [(0.0, 1.0), (1.0, 0.0)]:
        q = p.copy()
        q[bonded] = on_bond
        q[~bonded & (rng.random((n, n)) < 0.5)] = off_bond
        assert recon_bce(constant(q), a).item() == pytest.approx(_per_pair_bce(q, mol), rel=1e-12)


def test_recon_bce_shape_mismatch():
    mol = parse_smiles("CCO")
    with pytest.raises(nk.NumericError, match=r"^probability shape \(2, 2\) vs 3 atoms$"):
        recon_bce(constant(np.full((2, 2), 0.5)), adjacency_tensor(mol))


# -- side predictor ------------------------------------------------------


def test_side_predict_scalar_output():
    store = init_model_params(seed=0)
    g = constant(np.random.default_rng(0).normal(size=(64,)))
    out = side_predict(g, store)
    assert out.shape == ()


def test_side_predict_zero_bias_at_zero_input():
    store = init_model_params(seed=0)
    # ELU(0) = 0 and both biases start at zero, so a zero pooled vector maps to 0.
    assert side_predict(constant(np.zeros(64)), store).item() == 0.0


# -- joint loss ----------------------------------------------------------


def test_joint_loss_breakdown_adds_up():
    mol = parse_smiles("CC(=O)O")
    store = init_model_params(seed=0)
    noise = np.random.default_rng(0).standard_normal((4, LATENT_DIM))
    beta, lam = 0.37, 2.5
    total, bd = joint_loss(mol, 4.0, store, noise, beta=beta, lam=lam)
    assert isinstance(bd, LossBreakdown)
    assert total.item() == pytest.approx(bd.total, rel=1e-12)
    assert bd.total == pytest.approx(bd.recon + beta * bd.kl + lam * bd.side, rel=1e-12)
    assert bd.kl >= 0.0
    assert bd.recon >= 0.0
    assert bd.side >= 0.0


def test_joint_loss_is_differentiable_everywhere_reached():
    mol = parse_smiles("CCO")
    store = init_model_params(seed=3)
    noise = np.random.default_rng(3).standard_normal((3, LATENT_DIM))
    total, _ = joint_loss(mol, 3.0, store, noise)
    grads = nk.backward(total, store)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    # Every parameter group participates in the joint objective.
    for name in ("enc.l1.self", "enc.mu.self", "enc.sigma.self", "pool.wp", "side.m1"):
        assert np.any(grads[name] != 0.0), name


def test_joint_loss_cache_gives_identical_result():
    mol = parse_smiles("CC(C)O")
    store = init_model_params(seed=0)
    noise = np.random.default_rng(1).standard_normal((mol.n_atoms, LATENT_DIM))
    t1, _ = joint_loss(mol, 4.0, store, noise)
    t2, _ = joint_loss(MolTensors.from_mol(mol), 4.0, store, noise)
    assert t1.item() == t2.item()


# -- reconstruction ------------------------------------------------------


def _perfect_store_for(mol):
    """A hand-built latent geometry whose decoder reproduces mol exactly.

    Bypasses the encoder: used to test the thresholding logic in isolation.
    """
    n = mol.n_atoms
    z = np.full((n, LATENT_DIM), -10.0 / np.sqrt(LATENT_DIM))
    return z


def test_reconstruct_keeps_input_bond_types():
    mol = parse_smiles("C=C")
    store = init_model_params(seed=0)
    out, _ = reconstruct(mol, store)
    for i, j, t in out.bonds:
        assert t == BondType.DOUBLE  # only possible typed pair comes from input


def test_reconstruct_refits_hydrogens_and_reports_validity():
    mol = parse_smiles("CCO")
    store = init_model_params(seed=0)
    out, report = reconstruct(mol, store)
    assert out.n_atoms == mol.n_atoms
    if report.valid:
        assert check_valence(out).valid
    else:
        assert len(report.offending) > 0


def test_reconstruct_threshold_extremes():
    mol = parse_smiles("CCCC")
    store = init_model_params(seed=0)
    # Threshold above any probability: edgeless graph, all atoms refit to CH4.
    out, report = reconstruct(mol, store, threshold=1.1)
    assert len(out.bonds) == 0
    assert report.valid
    assert all(a.implicit_h == 4 for a in out.atoms)
    # Threshold below any probability: complete graph on 4 carbons (3 bonds
    # each), which refits but stays valid only if 3+h in {4}.
    out2, _ = reconstruct(mol, store, threshold=-0.1)
    assert len(out2.bonds) == 6


def test_reconstruct_from_probs_thresholds_the_given_matrix():
    # A 4-ring from a chain: the decoded 0-3 pair is new and becomes Single,
    # the input's double bond keeps its type, and the 0-2 pair at exactly
    # the threshold stays unbonded.
    mol = parse_smiles("C=CCC")
    probs = np.full((4, 4), 0.1)
    for i, j, p in ((0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (0, 3, 0.6), (0, 2, 0.5)):
        probs[i, j] = probs[j, i] = p
    out, report = reconstruct_from_probs(mol, probs, threshold=0.5)
    assert out.bonds == (
        (0, 1, BondType.DOUBLE),
        (0, 3, BondType.SINGLE),
        (1, 2, BondType.SINGLE),
        (2, 3, BondType.SINGLE),
    )
    assert [a.implicit_h for a in out.atoms] == [1, 1, 2, 2]
    assert report.valid


def test_reconstruct_is_reconstruct_from_decoded_probs():
    mol = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    store = init_model_params(seed=1)
    probs = vaemodel.decode_probs(mol, store)
    assert reconstruct(mol, store, 0.4) == reconstruct_from_probs(mol, probs, 0.4)


def test_predict_is_the_side_predictor_on_the_pooled_vector():
    mol = parse_smiles("CCO")
    store = init_model_params(seed=0)
    expected = side_predict(constant(pooled_vector(mol, store)), store).item()
    assert predict(mol, store) == expected


def test_reconstruct_marks_unfixable_atoms_offending():
    # Force a complete graph on 5 carbons: degree 4 already saturates carbon,
    # no H refit applies... still valid; use 6 atoms to exceed valence 4.
    mol = parse_smiles("CCCCCC")
    store = init_model_params(seed=0)
    out, report = reconstruct(mol, store, threshold=-0.1)
    assert not report.valid
    assert len(report.offending) == 6


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1000))
def test_reconstruct_never_crashes_and_reports_consistently(seed):
    rng = np.random.default_rng(seed)
    mol = random_molecule(rng, int(rng.integers(2, 10)))
    store = init_model_params(seed=seed)
    out, report = reconstruct(mol, store)
    assert out.n_atoms == mol.n_atoms
    assert report.valid == (len(report.offending) == 0)
    if report.valid:
        assert check_valence(out).valid


@pytest.mark.parametrize(
    "fn", ["pooled_vector", "decode_probs", "side_predict", "pooled_vectors", "evaluate_edge_auc"]
)
def test_inference_raises_on_a_store_holding_1e200_weights(fn):
    # 1e200 squared overflows in the encoder's second layer (and the heads'
    # sums of +inf and -inf terms are NaN) and in the side predictor's output.
    store = init_model_params(seed=0)
    for name in ("enc.l1.self", "enc.l2.self", "side.m1", "side.m2"):
        store[name].data[...] = 1e200
    mol = parse_smiles("CCO")
    finite_g = constant(pooled_vector(mol, init_model_params(seed=0)))
    batch = [mol, parse_smiles("CC=O"), parse_smiles("C1CC1N")]
    records = [Record(s, parse_smiles(s), {}) for s in ("CCO", "CC=O", "C1CC1N")]
    call = {
        "pooled_vector": lambda: pooled_vector(mol, store),
        "decode_probs": lambda: vaemodel.decode_probs(mol, store),
        "side_predict": lambda: side_predict(finite_g, store),
        "pooled_vectors": lambda: pooled_vectors(batch, store),
        "evaluate_edge_auc": lambda: train.evaluate_edge_auc(store, Dataset(records)),
    }[fn]
    op = "matmul" if fn == "side_predict" else "rgcn_layer"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nk.NonFiniteValue, match=f"produced by {op}$"):
            call()


def test_predict_names_the_side_predictor_op_that_overflows():
    # The encoder stays finite; the side predictor's second matmul overflows.
    # Its own `checked` sees a result with no tape, so the pass must re-run
    # with recording on to name the op.
    store = init_model_params(seed=0)
    for name in ("side.m1", "side.m2"):
        store[name].data[...] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nk.NonFiniteValue, match="produced by matmul$"):
            predict(parse_smiles("CCO"), store)


# -- the batched inference path ------------------------------------------


def _training_path_mu(mol, store):
    """Mu as training computes it: both heads built, on the molecule alone."""
    mt = MolTensors.from_mol(mol)
    mu, _ = encoder.encode(mt.features, mt.types, mt.edges, store, "mu", "sigma")
    return mu


def test_batch_forms_equal_each_molecule_alone_bit_for_bit():
    rng = np.random.default_rng(3)
    mols = [rec.mol for rec in load_bundled_corpus().records[::10]]
    mols += [random_molecule(rng, int(rng.integers(12, 21))) for _ in range(20)]
    store = init_model_params(seed=4)
    pooled = pooled_vectors(mols, store)
    blocks = decoded_blocks(mols, store)
    m = max(mol.n_atoms for mol in mols)
    assert pooled.shape == (len(mols), 64) and blocks.shape == (len(mols), m, m)
    for mol, row, block in zip(mols, pooled, blocks):
        mu = _training_path_mu(mol, store)
        alone = encoder.pool(mu, store, np.array([mol.n_atoms])).data[0]
        assert row.tobytes() == pooled_vector(mol, store).tobytes() == alone.tobytes()
        z = mu.data
        # One molecule needs no padding: its block is logistic(z zᵀ) bit for bit.
        assert vaemodel.decode_probs(mol, store).tobytes() == nk.logistic(constant(z @ z.T)).data.tobytes()
        # A batch pads its rows to its largest molecule, and the larger product
        # may round the last bit of an entry differently.
        n = mol.n_atoms
        np.testing.assert_allclose(block[:n, :n], 1.0 / (1.0 + np.exp(-z @ z.T)), rtol=0, atol=1e-15)


def test_decoded_pairs_are_each_molecules_upper_triangle_in_pair_target_order():
    rng = np.random.default_rng(0)
    mols = [parse_smiles("C"), build([], []), random_molecule(rng, 20), parse_smiles("CO")]
    store = init_model_params(seed=1)
    mt = MolTensors.from_mols(mols)
    blocks = decoded_blocks(mols, store)
    assert blocks.shape == (4, 20, 20)
    probs = blocks.reshape(-1)[mt.layout.pairs]
    assert probs.shape == mt.pair_target.shape == (0 + 0 + 190 + 1,)
    want_p, want_y = [], []
    for mol in mols:
        z = _training_path_mu(mol, store).data
        i, j = np.triu_indices(mol.n_atoms, 1)
        want_p.append((1.0 / (1.0 + np.exp(-z @ z.T)))[i, j])
        want_y.append(adjacency_tensor(mol).sum(axis=2)[i, j])
    np.testing.assert_allclose(probs, np.concatenate(want_p), rtol=0, atol=1e-15)
    assert np.array_equal(mt.pair_target, np.concatenate(want_y))
    assert decoded_blocks(mt, store).tobytes() == blocks.tobytes()


def test_pooling_the_corpus_keeps_no_tape_in_memory():
    # An encoder tape holds each op's inputs and gradient rule until Mu is
    # computed, about 9 KB per atom: 28.3 MB at the peak over the corpus.
    mols = [rec.mol for rec in load_bundled_corpus().records]
    store = init_model_params(seed=0)
    tracemalloc.start()
    try:
        pooled_vectors(mols, store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_batch_pools_an_empty_molecule_to_a_zero_row():
    store = init_model_params(seed=0)
    mol, empty = parse_smiles("CCO"), build([], [])
    pooled = pooled_vectors([mol, empty], store)
    assert pooled.shape == (2, 64)
    assert pooled[0].sum() == pytest.approx(3.0) and not pooled[1].any()
    assert pooled_vectors([empty], store).shape == (1, 64)
    assert decoded_blocks([empty, mol], store).shape == (2, 3, 3)
    assert vaemodel.decode_probs(empty, store).shape == (0, 0)
    with pytest.raises(nk.NumericError, match="^pooled vector has zero norm$"):
        latent_similarity(mol, empty, store)


def test_latent_similarity_of_a_batch_pair_equals_each_molecule_alone():
    store = init_model_params(seed=2)
    a, b = parse_smiles("CC(=O)Oc1ccccc1C(=O)O"), parse_smiles("CCN(CC)CC")
    ga, gb = pooled_vector(a, store), pooled_vector(b, store)
    d = np.linalg.norm(ga / np.linalg.norm(ga) - gb / np.linalg.norm(gb))
    assert latent_similarity(a, b, store) == 1.0 / (1.0 + float(d))
    assert latent_similarity(a, a, store) == 1.0


# -- molecule tensors ----------------------------------------------------

_CORPUS = [rec.mol for rec in load_bundled_corpus().records]
_SPECIAL = {
    "no atoms": build([], []),
    "single atom": parse_smiles("C"),
    "bondless": build([Atom("C", 0, 4), Atom("O", 0, 2), Atom("N", 0, 3)], []),
    "aromatic drug": parse_smiles(DRUG_SMILES["nicotine"]),
    "triple bond": parse_smiles("CC#N"),
    "charged": parse_smiles("C[N+](C)(C)CC(=O)[O-]"),
    "clamped charges": build([Atom("N", 2, 0), Atom("O", -2, 0), Atom("C", 0, 4)], [(0, 1, BondType.SINGLE)]),
    "not made by build": MolGraph(
        atoms=(Atom("C", 0, 3), Atom("C", 0, 2), Atom("O", 0, 0)),
        bonds=((2, 1, BondType.SINGLE), (0, 2, BondType.DOUBLE)),
    ),
    "double bond listed (j, i)": MolGraph(
        atoms=(Atom("C", 0, 3), Atom("C", 0, 1), Atom("O", 0, 0)),
        bonds=((1, 0, BondType.SINGLE), (2, 1, BondType.DOUBLE)),
    ),
    "no single bond": parse_smiles("O=C=O"),
}
# Double and triple bonds each in only one molecule, and a 1- and a 0-atom one.
_MIXED = [_SPECIAL[k] for k in ("double bond listed (j, i)", "single atom", "triple bond", "no atoms")]
_MOLECULE = st.one_of(
    st.sampled_from(_CORPUS),
    st.integers(0, 2**32 - 1).map(lambda seed: random_molecule(np.random.default_rng(seed), 12 + seed % 9)),
    st.sampled_from(list(_SPECIAL.values())),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_MOLECULE, min_size=1, max_size=12))
@example(list(_SPECIAL.values()))
@example([_SPECIAL["no atoms"]])
@example([_SPECIAL["bondless"], _SPECIAL["single atom"], _SPECIAL["no atoms"]])
@example(_MIXED)
def test_from_mols_matches_building_each_molecule_alone(mols):
    assert_same_tensors(MolTensors.from_mols(mols), oracle_mol_tensors(mols), oracle_pair_target(mols))
    one = mols[:1]
    assert_same_tensors(MolTensors.from_mol(one[0]), oracle_mol_tensors(one), oracle_pair_target(one))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_select_equals_from_mols_of_the_chosen_molecules(data):
    mols = data.draw(st.lists(_MOLECULE, min_size=1, max_size=12))
    if data.draw(st.booleans()):
        idx = data.draw(st.permutations(range(len(mols))))[: data.draw(st.integers(1, len(mols)))]
    else:  # with repeats
        idx = data.draw(st.lists(st.integers(0, len(mols) - 1), min_size=1, max_size=2 * len(mols)))
    chosen = [mols[i] for i in idx]
    full = MolTensors.from_mols(mols)
    assert_same_tensors(full.select(idx), MolTensors.from_mols(chosen), oracle_pair_target(chosen))
    assert_same_tensors(full.select(np.arange(len(mols))), full, oracle_pair_target(mols))


def test_select_with_repeated_molecules_reads_each_copys_targets():
    full = MolTensors.from_mols(_MIXED)
    idx = [2, 0, 2, 1, 3, 0]
    part = full.select(idx)
    assert part.sizes.tolist() == [3, 3, 3, 1, 0, 3]
    # CC#N: (0, 1), (1, 2) bonded; the (j, i)-listed chain C-C=O likewise.
    assert part.pair_target.tolist() == [1.0, 0.0, 1.0] * 4
    assert part.types == (0, 1, 2)
    chosen = [_MIXED[i] for i in idx]
    assert_same_tensors(part, MolTensors.from_mols(chosen), oracle_pair_target(chosen))


def test_select_moves_each_kept_bond_type_to_its_slot_in_the_selection():
    # The batch has slots for bond types (0, 1, 2); O=C=O alone keeps only
    # bond type 1, which moves from slot 1 to slot 0.
    mols = [parse_smiles(s) for s in ("CC#N", "O=C=O", "C=C", "C")]
    full = MolTensors.from_mols(mols)
    assert full.types == (0, 1, 2)
    for idx in ([1], [2, 1], [3, 1, 3], [0, 1], [2, 0]):
        chosen = [mols[i] for i in idx]
        assert_same_tensors(full.select(idx), oracle_mol_tensors(chosen), oracle_pair_target(chosen))
    assert full.select([1]).types == (1,) and full.select([1]).edges.dst.tolist() == [0, 1, 1, 2]


def test_a_bond_type_without_edges_has_no_entry():
    assert MolTensors.from_mol(parse_smiles("CC=O")).types == (0, 1)
    assert MolTensors.from_mol(parse_smiles("C")).types == ()
    both = MolTensors.from_mols([parse_smiles("C=C"), _SPECIAL["bondless"]])
    assert both.types == (1,)
    assert both.select([1]).types == () and both.select([1]).edges.dst.size == 0
    # A batch of single atoms has no edges and no pairs, and still runs.
    atoms = MolTensors.from_mols([parse_smiles(s) for s in ("C", "O", "N")])
    store = init_model_params(seed=0)
    noise = np.random.default_rng(0).standard_normal((3, LATENT_DIM))
    _, bd = joint_loss(atoms, [1.0, 1.0, 1.0], store, noise)
    assert bd.recon == 0.0 and np.isfinite(bd.total)
    assert pooled_vectors(atoms, store).shape == (3, 64)


def test_pair_targets_are_built_only_when_read(monkeypatch):
    # Inference on one molecule never reads its pair targets, so it never
    # builds them; the loss, and a batch whose targets are read, build them once.
    built = []
    raw = vars(MolTensors)["from_mols"]

    def keeping(cls, mols):
        built.append(raw.__func__(cls, mols))
        return built[-1]

    monkeypatch.setattr(MolTensors, "from_mols", classmethod(keeping))
    store = init_model_params(seed=0)
    mol = parse_smiles(DRUG_SMILES["caffeine"])
    vaemodel.decode_probs(mol, store)
    pooled_vector(mol, store)
    predict(mol, store)
    reconstruct(mol, store)
    assert len(built) == 4 and all("pair_target" not in vars(mt) for mt in built)
    full = MolTensors.from_mols([mol, parse_smiles("CCO")])
    part = full.select([1])
    assert "pair_target" not in vars(full) and "pair_target" not in vars(part)
    assert part.pair_target.tolist() == [1.0, 0.0, 1.0]  # CCO's pairs (0, 1), (0, 2), (1, 2)
    assert part.pair_target is part.pair_target
    assert "pair_target" not in vars(full)  # a selected batch reads its own edge lists
    assert full.pair_target.sum() == len(mol.bonds) + 2
    built.clear()
    joint_loss(mol, 1.0, store, np.zeros((mol.n_atoms, LATENT_DIM)))
    assert len(built) == 1 and "pair_target" in vars(built[0])


# -- reconstruction against its oracle -----------------------------------

_THRESHOLD = st.sampled_from([-0.1, 0.0, 0.2, 0.5, 1.0, 1.1]) | st.floats(-0.1, 1.1)


@settings(max_examples=150, deadline=None)
@given(_MOLECULE, st.integers(0, 2**32 - 1), _THRESHOLD, st.floats(0.0, 1.0))
@example(_SPECIAL["single atom"], 0, 0.5, 0.5)
@example(_SPECIAL["bondless"], 1, -0.1, 0.0)
@example(_SPECIAL["no atoms"], 2, 0.5, 0.0)
@example(_SPECIAL["not made by build"], 3, 0.5, 0.3)
@example(_SPECIAL["aromatic drug"], 4, 0.5, 1.0)
@example(_SPECIAL["double bond listed (j, i)"], 5, 0.5, 0.0)
def test_reconstruct_from_probs_matches_a_per_pair_loop(mol, seed, threshold, tie_share):
    # An asymmetric matrix over [-0.2, 1.2], with a share of its entries
    # exactly at the threshold: only the strict upper triangle counts.
    rng = np.random.default_rng(seed)
    n = mol.n_atoms
    probs = rng.uniform(-0.2, 1.2, (n, n))
    probs[rng.random((n, n)) < tie_share] = threshold
    got = reconstruct_from_probs(mol, probs, threshold)
    assert got == oracle_reconstruct_from_probs(mol, probs, threshold)
    assert all(type(t) is BondType for _, _, t in got[0].bonds)


def test_reconstruct_from_probs_keeps_the_type_of_a_bond_listed_as_j_i():
    ethene = (Atom("C", 0, 2), Atom("C", 0, 2))
    for bonds in (((1, 0, BondType.DOUBLE),), ((0, 1, BondType.DOUBLE),)):
        got, report = reconstruct_from_probs(MolGraph(ethene, bonds), np.full((2, 2), 0.9))
        assert got == MolGraph(ethene, ((0, 1, BondType.DOUBLE),))
        assert report.valid


def test_reconstruct_from_probs_rejects_a_matrix_of_another_size():
    mol = parse_smiles("CCO")
    for shape in ((4, 4), (2, 2), (3,), (3, 3, 1)):
        with pytest.raises(nk.NumericError, match=rf"^probability shape {re.escape(str(shape))} vs 3 atoms$"):
            reconstruct_from_probs(mol, np.full(shape, 0.9))
