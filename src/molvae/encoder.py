"""Relational GCN encoder and softmax pooling."""

from __future__ import annotations

import numpy as np

from . import numkernel as nk
from .chem import FEATURE_DIM, N_BOND_TYPES
from .numkernel import ParamStore, Tensor

LATENT_DIM = 16
HIDDEN_DIM = 32
POOL_DIM = 64


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


ENCODER_PARAM_SHAPES: dict[str, tuple[int, int]] = {}
for _l in (1, 2):
    for _r in range(N_BOND_TYPES):
        ENCODER_PARAM_SHAPES[f"enc.l{_l}.rel{_r}"] = (HIDDEN_DIM, HIDDEN_DIM)
    ENCODER_PARAM_SHAPES[f"enc.l{_l}.self"] = (HIDDEN_DIM, HIDDEN_DIM)
for _head in ("mu", "sigma"):
    for _r in range(N_BOND_TYPES):
        ENCODER_PARAM_SHAPES[f"enc.{_head}.rel{_r}"] = (HIDDEN_DIM, LATENT_DIM)
    ENCODER_PARAM_SHAPES[f"enc.{_head}.self"] = (HIDDEN_DIM, LATENT_DIM)

POOL_PARAM_SHAPES = {"pool.wp": (LATENT_DIM, POOL_DIM)}


def init_encoder_params(store: ParamStore, rng: np.random.Generator) -> None:
    for name, (fi, fo) in ENCODER_PARAM_SHAPES.items():
        store.add(name, glorot_uniform(rng, fi, fo))


def init_pool_params(store: ParamStore, rng: np.random.Generator) -> None:
    for name, (fi, fo) in POOL_PARAM_SHAPES.items():
        store.add(name, glorot_uniform(rng, fi, fo))


def neighbor_mean_mats(adjacency: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Per relation, the N x N mean-aggregation matrix; empty relations omitted.

    Row i of the matrix for relation r averages over N_r(i); rows with no
    neighbors of that type are zero.
    """
    out = []
    for r in range(adjacency.shape[2]):
        a = adjacency[:, :, r]
        counts = a.sum(axis=1, keepdims=True)
        if counts.sum() == 0:
            continue
        m = np.divide(a, counts, out=np.zeros_like(a), where=counts > 0)
        out.append((r, m))
    return out


def rgcn_layer(
    h: Tensor,
    mean_mats: list[tuple[int, np.ndarray]],
    store: ParamStore,
    prefix: str,
    activate: bool,
) -> Tensor:
    """One relational update: mean-aggregated neighbor terms plus a self term."""
    out = nk.matmul(h, store[f"{prefix}.self"])
    for r, m in mean_mats:
        agg = nk.matmul(nk.constant(m), h)
        out = nk.add(out, nk.matmul(agg, store[f"{prefix}.rel{r}"]))
    return nk.elu(out) if activate else out


def encode(
    features: np.ndarray,
    mean_mats: list[tuple[int, np.ndarray]],
    store: ParamStore,
) -> tuple[Tensor, Tensor]:
    """Run the three-layer encoder; returns per-node mean and log-std.

    `mean_mats` comes from `neighbor_mean_mats`. Layers 1 and 2 are shared
    between the two heads and ELU-activated; each head applies its own
    linear third layer.
    """
    if features.shape[1] != FEATURE_DIM:
        raise nk.ShapeMismatch(f"feature width {features.shape[1]} != {FEATURE_DIM}")
    h = nk.constant(features, "H")
    h = rgcn_layer(h, mean_mats, store, "enc.l1", activate=True)
    h = rgcn_layer(h, mean_mats, store, "enc.l2", activate=True)
    mu = rgcn_layer(h, mean_mats, store, "enc.mu", activate=False)
    log_std = rgcn_layer(h, mean_mats, store, "enc.sigma", activate=False)
    return mu, log_std


def pool(node_vectors: Tensor, store: ParamStore) -> Tensor:
    """Order-invariant molecule vector: sum of per-node softmax rows.

    Each node contributes a probability vector over 64 slots, so the entries
    of the result sum to the atom count.
    """
    scores = nk.matmul(node_vectors, store["pool.wp"])
    return nk.reduce_sum(nk.row_softmax(scores), axis=0)
