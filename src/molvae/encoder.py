"""Relational GCN encoder and softmax pooling."""

from __future__ import annotations

import numpy as np

from . import numkernel as nk
from .chem import N_BOND_TYPES
from .numkernel import ParamStore, Tensor

FEATURE_DIM = 32  # width of an atom's feature row (see `vaemodel.MolTensors.from_mols`)
LATENT_DIM = 16
HIDDEN_DIM = 32
POOL_DIM = 64


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


ENCODER_PARAM_SHAPES: dict[str, tuple[int, int]] = {}
for _l, _width in ((1, FEATURE_DIM), (2, HIDDEN_DIM)):  # layer 1 reads feature rows
    for _r in range(N_BOND_TYPES):
        ENCODER_PARAM_SHAPES[f"enc.l{_l}.rel{_r}"] = (_width, HIDDEN_DIM)
    ENCODER_PARAM_SHAPES[f"enc.l{_l}.self"] = (_width, HIDDEN_DIM)
for _head in ("mu", "sigma"):
    for _r in range(N_BOND_TYPES):
        ENCODER_PARAM_SHAPES[f"enc.{_head}.rel{_r}"] = (HIDDEN_DIM, LATENT_DIM)
    ENCODER_PARAM_SHAPES[f"enc.{_head}.self"] = (HIDDEN_DIM, LATENT_DIM)

POOL_PARAM_SHAPES = {"pool.wp": (LATENT_DIM, POOL_DIM)}

Relations = tuple[tuple[int, nk.Edges], ...]  # see `encode`


def aggregate(h: Tensor, relations: Relations) -> tuple[tuple[int, Tensor], ...]:
    """(r, neighbor means of `h` over relation r) for each relation r in `relations`."""
    return tuple((r, nk.seg_agg(h, e)) for r, e in relations)


def rgcn_layer(
    h: Tensor,
    aggs: tuple[tuple[int, Tensor], ...],
    store: ParamStore,
    prefix: str,
    activate: bool,
) -> Tensor:
    """One relational update of `h`, given its `aggregate`: neighbor terms plus a self term."""
    out = nk.matmul(h, store[f"{prefix}.self"])
    for r, agg in aggs:
        out = nk.add(out, nk.matmul(agg, store[f"{prefix}.rel{r}"]))
    return nk.elu(out) if activate else out


def encode(
    features: np.ndarray,
    relations: Relations,
    store: ParamStore,
    *heads: str,
) -> tuple[Tensor, ...]:
    """Run the three-layer encoder; returns the per-node output of each named
    head ("mu" the mean, "sigma" the log-std), building only those.

    Each entry (r, edges) of `relations` lists bond type r's directed edges,
    weighted w = 1/deg_r(dst) so that each node averages over its
    r-neighbors; a bond type with no entry adds nothing. Layers 1 and 2 are
    shared and ELU-activated; each head is its own linear layer, and the
    heads share one aggregation of layer 2's output. The three aggregations
    share each edge list's scatter positions.
    """
    if features.shape[1] != FEATURE_DIM:
        raise nk.NumericError(f"feature width {features.shape[1]} != {FEATURE_DIM}")
    h = nk.constant(features, "H")
    h = rgcn_layer(h, aggregate(h, relations), store, "enc.l1", activate=True)
    h = rgcn_layer(h, aggregate(h, relations), store, "enc.l2", activate=True)
    aggs = aggregate(h, relations)
    return tuple(rgcn_layer(h, aggs, store, f"enc.{head}", activate=False) for head in heads)


def pool(node_vectors: Tensor, store: ParamStore, sizes: np.ndarray) -> Tensor:
    """Order-invariant molecule vectors: per molecule, the sum of its nodes'
    softmax rows over 64 slots, so a row's entries sum to its atom count.

    Molecule b's nodes are `sizes[b]` consecutive rows of `node_vectors`.
    """
    soft = nk.row_softmax(nk.matmul(node_vectors, store["pool.wp"]))
    return nk.seg_sum(soft, np.repeat(np.arange(sizes.size), sizes), sizes.size)
