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
Aggregate = tuple[tuple[int, ...], Tensor]  # bond types, and the (R, n, width) stack of neighbor means


def rgcn_layer(h: Tensor, aggs: Aggregate, store: ParamStore, prefix: str, activate: bool) -> Tensor:
    """One relational update of `h`, as one op: h W_self, plus slot k of the
    stack of neighbor means of `h` times W_r for bond type r = types[k], added
    in that order, then ELU-activated (alpha = 1) when `activate`."""
    types, agg = aggs
    w_self = store[f"{prefix}.self"]
    w_rel = [store[f"{prefix}.rel{r}"] for r in types]
    pre = h.data @ w_self.data
    for a, w in zip(agg.data, w_rel):
        pre = pre + a @ w.data
    out, neg = pre, None
    if activate:  # as `nk.elu`
        neg = np.exp(np.minimum(pre, 0.0)) - 1.0
        out = np.where(pre > 0.0, pre, neg)

    def grad_fn(g):
        if neg is not None:
            g = g * np.where(pre > 0.0, 1.0, neg + 1.0)
        w_stack = np.array([w.data for w in w_rel]).reshape(-1, *w_self.shape)
        g_rel = agg.data.transpose(0, 2, 1) @ g
        return (g @ w_self.data.T, g @ w_stack.transpose(0, 2, 1), h.data.T @ g, *g_rel)

    return nk.Tensor(out, (h, agg, w_self, *w_rel), grad_fn, "rgcn_layer")


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
    heads share one aggregation of layer 2's output. Each aggregation is one
    op that stacks the neighbor means of every listed bond type; the three
    share one edge list over that stack, and so its scatter positions.
    """
    if features.shape[1] != FEATURE_DIM:
        raise nk.NumericError(f"feature width {features.shape[1]} != {FEATURE_DIM}")
    types = tuple(r for r, _ in relations)
    edges = nk.Edges.stacked([e for _, e in relations], len(features))

    def aggregate(h: Tensor) -> Aggregate:
        return types, nk.stack_agg(h, edges, len(types))

    h = nk.constant(features, "H")
    h = rgcn_layer(h, aggregate(h), store, "enc.l1", activate=True)
    h = rgcn_layer(h, aggregate(h), store, "enc.l2", activate=True)
    aggs = aggregate(h)
    return tuple(rgcn_layer(h, aggs, store, f"enc.{head}", activate=False) for head in heads)


def pool(node_vectors: Tensor, store: ParamStore, sizes: np.ndarray) -> Tensor:
    """Order-invariant molecule vectors: per molecule, the sum of its nodes'
    softmax rows over 64 slots, so a row's entries sum to its atom count.

    Molecule b's nodes are `sizes[b]` consecutive rows of `node_vectors`.
    """
    soft = nk.row_softmax(nk.matmul(node_vectors, store["pool.wp"]))
    return nk.seg_sum(soft, np.repeat(np.arange(sizes.size), sizes), sizes.size)
