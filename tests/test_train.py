"""Tests for Adam, the training loop, and the evaluation metrics."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from molvae import dataio, encoder, numkernel as nk, vaemodel
from molvae.chem import N_BOND_TYPES
from molvae.corpus import DRUG_SMILES
from molvae.encoder import LATENT_DIM
from molvae.numkernel import NonFiniteValue, ParamStore, backward
from molvae.smiles import parse_smiles
from molvae.train import (
    AdamState,
    TrainConfig,
    TrainError,
    adam_step,
    evaluate_edge_auc,
    evaluate_validity,
    fit_probe,
    train,
    _midranks,
)
from molvae.vaemodel import MolTensors, init_model_params, joint_loss


def tiny_dataset(smis=("C", "CC", "CCO", "CCC", "CC(C)O", "C=C")):
    recs = [
        dataio.Record(smiles=s, mol=parse_smiles(s), properties={"heavy_atoms": float(parse_smiles(s).n_atoms)})
        for s in smis
    ]
    return dataio.Dataset(records=recs)


# -- Adam ----------------------------------------------------------------


def test_adam_first_step_moves_by_lr():
    # With bias correction, the very first update is lr * g / (|g| + eps),
    # i.e. lr * sign(g) up to eps.
    store = ParamStore({"p": np.array([[1.0, -2.0]])})
    state = AdamState()
    adam_step(store, {"p": np.array([[0.5, -3.0]])}, state, lr=0.1)
    assert np.allclose(store["p"].data, [[0.9, -1.9]], atol=1e-8)
    assert state.step == 1


def test_adam_zero_gradient_keeps_param():
    store = ParamStore({"p": np.array([[7.0]])})
    adam_step(store, {"p": np.zeros((1, 1))}, AdamState(), lr=0.1)
    assert store["p"].data[0, 0] == 7.0


def test_adam_converges_on_quadratic():
    store = ParamStore({"p": np.array([[5.0]])})
    state = AdamState()
    for _ in range(3000):
        g = 2.0 * (store["p"].data - 1.5)
        adam_step(store, {"p": g}, state, lr=0.01)
    assert store["p"].data[0, 0] == pytest.approx(1.5, abs=1e-3)


def test_adam_matches_reference_formula():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(2, 2))
    store = ParamStore({"p": p0.copy()})
    state = AdamState()
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    ref = p0.copy()
    for t in range(1, 6):
        g = rng.normal(size=(2, 2))
        adam_step(store, {"p": g.copy()}, state, lr=1e-3)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 1e-3 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert np.allclose(store["p"].data, ref, atol=1e-15)


def test_adam_flat_step_is_the_per_parameter_update_bit_for_bit():
    rng = np.random.default_rng(1)
    shapes = {"a": (3, 2), "b": (1, 4), "c": (1, 1)}
    ref = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    store = ParamStore({name: r.copy() for name, r in ref.items()})
    state = AdamState()
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for t in range(1, 5):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        adam_step(store, grads, state, lr=1e-2, scale=1.0 / 3)
        for name in shapes:  # the per-parameter loop, operation for operation
            g = grads[name] * (1.0 / 3)
            m[name] *= 0.9
            m[name] += (1.0 - 0.9) * g
            v[name] *= 0.999
            v[name] += (1.0 - 0.999) * g * g
            m_hat = m[name] / (1.0 - 0.9**t)
            v_hat = v[name] / (1.0 - 0.999**t)
            ref[name] -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(store[name].data, ref[name]), (t, name)


@pytest.mark.parametrize("warm", [False, True])
def test_adam_names_the_first_non_finite_gradient_and_changes_nothing(warm):
    store = init_model_params(seed=0)
    state = AdamState()
    grads = {name: np.full(p.shape, 0.5) for name, p in store.items()}
    if warm:
        adam_step(store, grads, state, lr=0.1)
    before = (store.flat.copy(), state.step, copy.deepcopy(state.m), copy.deepcopy(state.v))
    grads["enc.l1.rel0"][1, 2] = np.nan
    grads["side.m1"][0, 0] = np.inf
    with pytest.raises(NonFiniteValue, match="^non-finite gradient for enc.l1.rel0$"):
        adam_step(store, grads, state, lr=0.1, scale=0.25)
    assert np.array_equal(store.flat, before[0])
    assert state.step == before[1]
    for got, want in ((state.m, before[2]), (state.v, before[3])):
        assert (got is None and want is None) or np.array_equal(got, want)


def test_adam_shape_mismatch():
    store = ParamStore({"p": np.ones((2, 2))})
    with pytest.raises(nk.NumericError, match=r"^gradient shape for p: \(3,\) vs \(2, 2\)$"):
        adam_step(store, {"p": np.ones(3)}, AdamState(), lr=0.1)


# -- training loop -------------------------------------------------------


def test_train_empty_dataset_rejected():
    with pytest.raises(TrainError, match="^no molecules to train on$"):
        train(dataio.Dataset(records=[]), "heavy_atoms", TrainConfig(epochs=1))


def test_train_returns_history_per_epoch():
    ds = tiny_dataset()
    params, history = train(ds, "heavy_atoms", TrainConfig(epochs=3, seed=0))
    assert len(history) == 3
    assert all(np.isfinite(h.total) for h in history)


def test_train_loss_decreases_on_tiny_set():
    ds = tiny_dataset()
    _, history = train(
        ds, "heavy_atoms", TrainConfig(epochs=40, seed=0, beta=0.01, batch_size=6)
    )
    assert history[-1].total < history[0].total


def test_train_deterministic_given_seed():
    ds = tiny_dataset()
    cfg = TrainConfig(epochs=3, seed=7)
    p1, h1 = train(ds, "heavy_atoms", cfg)
    p2, h2 = train(ds, "heavy_atoms", cfg)
    for name, t in p1.items():
        assert np.array_equal(t.data, p2[name].data)
    assert [h.total for h in h1] == [h.total for h in h2]


def test_train_seed_changes_outcome():
    ds = tiny_dataset()
    p1, _ = train(ds, "heavy_atoms", TrainConfig(epochs=2, seed=0))
    p2, _ = train(ds, "heavy_atoms", TrainConfig(epochs=2, seed=1))
    assert any(not np.array_equal(t.data, p2[name].data) for name, t in p1.items())


@pytest.mark.parametrize("batch_size", [1, 7, 16])
def test_one_sweep_over_a_minibatch_equals_the_mean_of_per_molecule_gradients(batch_size):
    corpus = dataio.load_bundled_corpus()
    rng = np.random.default_rng(batch_size)
    picks = rng.choice(len(corpus), size=batch_size, replace=False)
    params = init_model_params(seed=0)
    losses = []
    for k in picks:
        rec = corpus.records[int(k)]
        noise = rng.standard_normal((rec.mol.n_atoms, LATENT_DIM))
        total, _ = joint_loss(rec.mol, rec.properties["heavy_atoms"], params, noise, beta=0.001)
        losses.append(total)
    batch_loss = losses[0]
    for loss in losses[1:]:
        batch_loss = nk.add(batch_loss, loss)
    swept = backward(batch_loss, params)
    per_molecule = [backward(loss, params) for loss in losses]
    for name in params.names():
        mean = sum(g[name] for g in per_molecule) / batch_size
        assert np.max(np.abs(swept[name] * (1.0 / batch_size) - mean)) <= 1e-12, name


def test_union_loss_equals_the_sum_of_per_molecule_losses():
    # A single atom (no pairs, no edges), molecules lacking bond types that
    # others in the batch have, and an aromatic drug.
    smis = ("C", "CCO", "C=C", DRUG_SMILES["aspirin"], "C#N", "c1ccccc1O")
    mols = [parse_smiles(s) for s in smis]
    labels = [float(m.n_atoms) for m in mols]
    params = init_model_params(seed=0)
    rng = np.random.default_rng(0)
    noises = [rng.standard_normal((m.n_atoms, LATENT_DIM)) for m in mols]
    per = [joint_loss(m, y, params, z, beta=0.01, lam=0.5) for m, y, z in zip(mols, labels, noises)]
    mt = MolTensors.from_mols(mols)
    union, bd = joint_loss(mt, labels, params, np.concatenate(noises), beta=0.01, lam=0.5)
    assert union.item() == pytest.approx(sum(t.item() for t, _ in per), rel=0, abs=1e-12)
    for field in vaemodel.LossBreakdown._fields:
        want = sum(getattr(b, field) for _, b in per)
        assert getattr(bd, field) == pytest.approx(want, rel=0, abs=1e-12), field
    swept = backward(union, params)
    per_molecule = [backward(t, params) for t, _ in per]
    for name in params.names():
        want = sum(g[name] for g in per_molecule) / len(mols)
        assert np.max(np.abs(swept[name] / len(mols) - want)) <= 1e-12, name


def _kept_arrays(node):
    """A tape node's value, and every array its gradient rule keeps for the backward pass."""
    kept = [node.data]
    for cell in getattr(node._grad_fn, "__closure__", None) or ():
        value = cell.cell_contents
        if isinstance(value, nk.Tensor):
            kept.append(value.data)
        elif isinstance(value, np.ndarray):
            kept.append(value)
    return kept


def test_union_tape_holds_no_array_as_large_as_all_atom_pairs():
    corpus = dataio.load_bundled_corpus()
    recs = corpus.records[:16]
    mt = MolTensors.from_mols([r.mol for r in recs])
    n = len(mt.features)
    b, m = mt.sizes.size, int(mt.sizes.max())
    noise = np.random.default_rng(0).standard_normal((n, LATENT_DIM))
    store = init_model_params(0)
    total, _ = joint_loss(mt, [r.properties["heavy_atoms"] for r in recs], store, noise)
    seen, stack, pair_ops = set(), [total], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for arr in _kept_arrays(node):
            assert arr.size < n * n, (node.name, arr.shape, n)
        if node.name == "block_products":
            # The padded (B, m, 16) latent stack and its (B, m, m) product:
            # sized by the largest molecule, m.
            pair_ops += 1
            assert max(arr.size for arr in _kept_arrays(node)) <= b * m * max(m, LATENT_DIM)
        stack.extend(node._parents)
    # The walk reached every parameter but the weights of bond types the batch lacks.
    absent = tuple(f".rel{r}" for r in range(N_BOND_TYPES) if r not in mt.types)
    assert [name for name, p in store.items() if id(p) in seen] == [
        name for name in store.names() if not name.endswith(absent)
    ]
    assert pair_ops == 1
    assert b * m * max(m, LATENT_DIM) < n * n


def test_one_training_tape_holds_the_same_few_ops_whatever_bond_types_its_batch_holds():
    corpus = [r.mol for r in dataio.load_bundled_corpus().records[:16]]
    every_type = [parse_smiles(s) for s in ("C", "CC#N", "C=CO", DRUG_SMILES["aspirin"])]
    counts = []
    for mols, n_types in ((every_type, 4), (corpus, 2)):
        mt = MolTensors.from_mols(mols)
        assert len(mt.types) == n_types
        noise = np.random.default_rng(0).standard_normal((len(mt.features), LATENT_DIM))
        total, _ = joint_loss(mt, [1.0] * len(mols), init_model_params(0), noise)
        counts.append(sum(node._grad_fn is not None for node in nk._tape(total)))  # ops with a gradient rule
    assert counts[0] == counts[1] <= 29, counts


def test_layer_one_puts_no_gradient_rule_on_the_tape():
    # Layer 1 reads the constant feature rows and their neighbor means, so
    # backward runs the aggregation rule only for layer 2 and for the heads,
    # and layer 1's op has only its own weights as parents.
    recs = dataio.load_bundled_corpus().records[:16]
    mt = MolTensors.from_mols([r.mol for r in recs])
    store = init_model_params(0)
    noise = np.random.default_rng(0).standard_normal((len(mt.features), LATENT_DIM))
    total, _ = joint_loss(mt, [r.properties["heavy_atoms"] for r in recs], store, noise)
    tape = nk._tape(total)
    runs = []

    def counted(rule):
        def run(g):
            runs.append(g.shape)
            return rule(g)

        return run

    for node in tape:
        if node.name == "stack_agg":
            node._grad_fn = counted(node._grad_fn)
    backward(total, store)
    assert len(runs) == 2, runs
    # A parameter's name is its store name; an op's is the op's.
    layers = [[p.name for p in node._parents] for node in tape if node.name == "rgcn_layer"]
    l1 = [names for names in layers if any(name.startswith("enc.l1.") for name in names)]
    assert l1 == [["enc.l1.self"] + [f"enc.l1.rel{r}" for r in mt.types]], layers


def test_train_calls_joint_loss_once_per_minibatch(monkeypatch):
    calls = []
    real = vaemodel.joint_loss

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(vaemodel, "joint_loss", counting)
    train(tiny_dataset(), "heavy_atoms", TrainConfig(epochs=2, seed=0, batch_size=4))
    assert len(calls) == 4  # 6 molecules: batches of 4 and 2, twice
    assert sorted(mt.sizes.size for mt in calls) == [2, 2, 4, 4]


def test_train_builds_the_training_set_once_and_selects_each_minibatch(monkeypatch):
    built, selected = [], []
    from_mols, select = vars(MolTensors)["from_mols"], MolTensors.select

    def counting_build(cls, mols):
        built.append(len(mols))
        return from_mols.__func__(cls, mols)

    def counting_select(self, idx):
        selected.append(len(idx))
        return select(self, idx)

    monkeypatch.setattr(MolTensors, "from_mols", classmethod(counting_build))
    monkeypatch.setattr(MolTensors, "select", counting_select)
    train(tiny_dataset(), "heavy_atoms", TrainConfig(epochs=2, seed=0, batch_size=4))
    assert built == [6]
    assert selected == [4, 2, 4, 2]


def test_train_overflowing_label_names_the_op():
    ds = tiny_dataset()
    ds.records[2].properties["heavy_atoms"] = 1e200
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="square"):
            train(ds, "heavy_atoms", TrainConfig(epochs=1, seed=0))


# -- evaluation ----------------------------------------------------------


def test_midranks_ties():
    r = _midranks(np.array([1.0, 2.0, 2.0, 3.0]))
    assert np.array_equal(r, [1.0, 2.5, 2.5, 4.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=40), st.integers(0, 4))
def test_midranks_match_brute_force(values, scale):
    # Small integers make ties common; a tie group's rank is the mean of the
    # 1-based positions it spans, i.e. (#smaller) + (#equal + 1) / 2.
    x = np.array(values, dtype=float) / (scale + 1)
    brute = [(x < v).sum() + ((x == v).sum() + 1) / 2.0 for v in x]
    assert np.array_equal(_midranks(x), np.array(brute, dtype=float))


EVALUATORS = pytest.mark.parametrize(
    "evaluate",
    [evaluate_validity, evaluate_edge_auc, lambda p, ds: fit_probe(p, ds, "heavy_atoms")],
    ids=["validity", "edge_auc", "probe"],
)


@EVALUATORS
def test_evaluators_encode_the_dataset_once(evaluate, monkeypatch):
    params = init_model_params(seed=0)
    calls = []
    real = encoder.encode

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(encoder, "encode", counting)
    evaluate(params, tiny_dataset())
    assert len(calls) == 1
    assert calls[0][0].shape[0] == sum(rec.mol.n_atoms for rec in tiny_dataset().records)


@EVALUATORS
def test_evaluators_reject_an_empty_dataset(evaluate):
    _, held_out = tiny_dataset().split(1.0, seed=0)
    assert held_out.records == []
    with pytest.raises(TrainError, match="^no molecules to evaluate$"):
        evaluate(init_model_params(seed=0), held_out)


def test_edge_auc_bounds_and_degenerate_case():
    ds = tiny_dataset()
    params, _ = train(ds, "heavy_atoms", TrainConfig(epochs=1, seed=0))
    auc = evaluate_edge_auc(params, ds)
    assert 0.0 <= auc <= 1.0
    # All-positive pairs (only 2-atom molecules): AUC defined as 0.5.
    ds2 = tiny_dataset(("CC", "C=C"))
    assert evaluate_edge_auc(params, ds2) == 0.5


def test_validity_fraction_bounds():
    ds = tiny_dataset()
    params, _ = train(ds, "heavy_atoms", TrainConfig(epochs=1, seed=0))
    v = evaluate_validity(params, ds)
    assert 0.0 <= v <= 1.0


def test_train_names_an_unknown_property():
    with pytest.raises(TrainError, match=r"property 'logp' not in \['heavy_atoms'\]"):
        train(tiny_dataset(), "logp", TrainConfig(epochs=1))


def test_fit_probe_rejects_an_unknown_property_before_encoding(monkeypatch):
    def never(*args):
        raise AssertionError("encoded before the labels were read")

    monkeypatch.setattr(encoder, "encode", never)
    with pytest.raises(TrainError, match=r"property 'logp' not in \['heavy_atoms'\]"):
        fit_probe(init_model_params(seed=0), tiny_dataset(), "logp")


def test_fit_probe_recovers_linear_property():
    # heavy_atoms equals the sum of the pooled vector, which is linear in it,
    # so even an untrained model probes perfectly.
    ds = tiny_dataset(("C", "CC", "CCC", "CCCC", "CCO", "CC(C)C", "CCCCC", "OCCO", "CCN", "CCCO"))
    params, _ = train(ds, "heavy_atoms", TrainConfig(epochs=1, seed=0))
    _, r2 = fit_probe(params, ds, "heavy_atoms", seed=0)
    assert r2 > 0.99


def test_fit_probe_zero_variance_target():
    ds = tiny_dataset(("CC", "C=C", "CO", "CN", "CCl"))
    for rec in ds.records:
        rec.properties["const"] = 5.0
    params, _ = train(ds, "heavy_atoms", TrainConfig(epochs=1, seed=0))
    _, r2 = fit_probe(params, ds, "const", seed=0)
    assert r2 == 1.0
