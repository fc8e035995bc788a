"""Training loop, Adam, and the evaluation metrics."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import vaemodel
from .encoder import LATENT_DIM
from .numkernel import NonFiniteValue, NumericError, ParamStore, backward
from .vaemodel import LossBreakdown, MolTensors, init_model_params


class TrainError(ValueError):
    pass


# The smallest value each TrainConfig field may take; learning_rate must be above 0.
_LOWEST = {"epochs": 0, "batch_size": 1, "beta": 0, "lam": 0, "seed": 0}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta: float = 1.0
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                ok, what = isinstance(value, int), "an integer"
            else:  # a NaN fails the comparison; an int past float range fails it too
                ok, what = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max, "a finite number"
            if isinstance(value, bool) or not ok:
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        for name, low in _LOWEST.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be above 0, got {self.learning_rate!r}")


@dataclass
class AdamState:
    """First and second moments over a ParamStore's flat buffer, and two scratch buffers of its size."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scaled: np.ndarray | None = None
    work: np.ndarray | None = None
    step: int = 0


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(
    params: ParamStore,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    scale: float = 1.0,
) -> None:
    """Adam with bias correction on `scale` times `grad`, laid out like the
    store's flat buffer (as `backward(...).flat` is), in place over that buffer.
    In Kingma & Ba's cheaper ordering (arXiv 1412.6980, §2, after Algorithm
    1), α_t = lr·√(1−β₂ᵗ)/(1−β₁ᵗ), ε̂ = ε·√(1−β₂ᵗ), θ ← θ − α_t·m/(√v + ε̂).

    NonFiniteValue names the first parameter with a non-finite gradient,
    before the parameters or the moments change, or else the first whose
    updated value is not finite, before the parameters change.
    """
    if grad.shape != params.flat.shape:
        raise NumericError(f"gradient shape {grad.shape} vs {params.flat.shape}")
    g = np.multiply(grad, scale, out=state.scaled)
    if not np.isfinite(g).all():
        raise NonFiniteValue(f"non-finite gradient for {params.name_at(np.argmin(np.isfinite(g)))}")
    if state.m is None:
        state.m, state.v, state.scaled, state.work = np.zeros_like(g), np.zeros_like(g), g, np.empty_like(g)
    state.step += 1
    # m = β₁m + (1-β₁)g, v = β₂v + (1-β₂)g·g, then the update: each float operation
    # as written, into the kept buffers (the buffer-sized temporaries of the
    # plain expressions, and their page faults, cost as much as the arithmetic).
    m, v, step = state.m, state.v, state.work
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, g, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=step)
    step *= g
    v += step
    root = math.sqrt(1.0 - ADAM_BETA2**state.step)
    np.sqrt(v, out=g)
    g += ADAM_EPS * root
    np.multiply(lr * root / (1.0 - ADAM_BETA1**state.step), m, out=step)
    step /= g
    np.subtract(params.flat, step, out=step)
    if not np.isfinite(step).all():
        bad = params.name_at(np.argmin(np.isfinite(step)))
        raise NonFiniteValue(f"non-finite update for {bad} at learning rate {lr:g}")
    params.flat[:] = step


def train(dataset, property_name: str, config: TrainConfig) -> tuple[ParamStore, list[LossBreakdown]]:
    """Train on every record's molecule and side-property value.

    Deterministic given the config seed: shuffling, initialization, and
    per-atom noise all come from one seeded generator. The training set's
    tensors are built once; each minibatch selects its molecules' rows from
    them, as one disjoint-union graph: one `joint_loss` call builds its summed
    loss on one tape, one `backward` sweep gives the summed gradients, and the
    Adam step scales them by 1/batch size.
    """
    records = list(dataset.records)
    if not records:
        raise TrainError("no molecules to train on")
    labels = _labels(records, property_name)
    full = MolTensors.from_mols([rec.mol for rec in records])

    params = init_model_params(config.seed)
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    history: list[LossBreakdown] = []

    for _epoch in range(config.epochs):
        order = rng.permutation(len(records))
        sums = np.zeros(4)
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            mt = full.select(batch)
            noise = rng.standard_normal((len(mt.features), LATENT_DIM))
            # Rebinding `total` frees the last step's tape only once this one
            # is built, so the heap it grew is reused. Freed before, it would
            # let glibc trim the heap top and this step fault it back in: about
            # 150 minor page faults per step on 16 molecules of 12-20 atoms,
            # against 30-40.
            total, bd = vaemodel.joint_loss(
                mt, labels[batch], params, noise, beta=config.beta, lam=config.lam
            )
            sums += bd
            adam_step(params, backward(total, params).flat, state, config.learning_rate, scale=1.0 / len(batch))
        means = sums / len(records)
        history.append(LossBreakdown(*means))

    return params, history


def _labels(records, name: str) -> np.ndarray:
    """Each record's value of property `name`; TrainError if a record lacks it."""
    for rec in records:
        if name not in rec.properties:
            raise TrainError(f"property {name!r} not in {list(rec.properties)}")
    return np.array([float(rec.properties[name]) for rec in records])


def _molecules(dataset) -> list:
    mols = [rec.mol for rec in dataset.records]
    if not mols:
        raise TrainError("no molecules to evaluate")
    return mols


def evaluate_validity(params: ParamStore, dataset) -> float:
    """Fraction of deterministic reconstructions, at the default threshold,
    that pass the valence check."""
    mols = _molecules(dataset)
    reports = [
        vaemodel.reconstruct_from_probs(mol, block[:mol.n_atoms, :mol.n_atoms])[1]
        for mol, block in zip(mols, vaemodel.decoded_blocks(MolTensors.from_mols(mols), params))
    ]
    return sum(r.valid for r in reports) / len(mols)


def evaluate_edge_auc(params: ParamStore, dataset) -> float:
    """ROC-AUC of decoded pair probabilities against binary adjacency.

    Pools all unordered pairs of all molecules; ties are handled by midrank.
    """
    mt = MolTensors.from_mols(_molecules(dataset))
    s = vaemodel.decoded_blocks(mt, params).reshape(-1)[mt.layout.pairs]
    y = mt.pair_target > 0
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = _midranks(s)
    return (ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of `x`, each group of tied values sharing its mean rank."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


PROBE_RIDGE = 1e-6


def fit_probe(
    params: ParamStore,
    dataset,
    target_column: str,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Ridge regression from pooled vectors to a property; held-out R^2.

    The model parameters stay frozen; only the linear probe is fit, on a
    seeded 80/20 split.
    """
    mols = _molecules(dataset)
    ys = _labels(dataset.records, target_column)
    xs = vaemodel.pooled_vectors(MolTensors.from_mols(mols), params)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ys))
    cut = max(1, int(0.8 * len(ys)))
    tr, te = order[:cut], order[cut:]
    if te.size == 0:
        te = tr
    x_tr = np.hstack([xs[tr], np.ones((tr.size, 1))])
    a = x_tr.T @ x_tr + PROBE_RIDGE * np.eye(x_tr.shape[1])
    w = np.linalg.solve(a, x_tr.T @ ys[tr])
    x_te = np.hstack([xs[te], np.ones((te.size, 1))])
    pred = x_te @ w
    ss_res = float(((ys[te] - pred) ** 2).sum())
    ss_tot = float(((ys[te] - ys[te].mean()) ** 2).sum())
    if ss_tot == 0.0:
        return w, 1.0
    return w, 1.0 - ss_res / ss_tot
