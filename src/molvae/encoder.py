"""Relational GCN encoder and softmax pooling."""

from __future__ import annotations

from typing import Callable

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

# Bond types, and the (R, n, width) stack of neighbor means: a tensor, or a constant's plain array.
Aggregate = tuple[tuple[int, ...], Tensor | np.ndarray]


def elu(x: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The exponential linear unit (alpha = 1) of `x`, and the rule that
    carries a gradient back through it.

    `neg` is e^x - 1 below 0 and exactly 0.0 above, so adding it to
    max(x, 0) needs no select, and the slope is neg + 1 everywhere."""
    neg = np.minimum(x, 0.0)
    np.exp(neg, out=neg)
    neg -= 1.0
    out = np.maximum(x, 0.0)
    out += neg
    return out, lambda g: g * (neg + 1.0)


def rgcn_layer(h: Tensor | np.ndarray, aggs: Aggregate, store: ParamStore, prefix: str, activate: bool) -> Tensor:
    """One relational update of `h`, as one op: h W_self, plus slot k of the
    stack of neighbor means of `h` times W_r for bond type r = types[k], added
    in that order, then ELU-activated (alpha = 1) when `activate`.

    `h` and the stack are both tensors, or both plain arrays: constants, such
    as layer 1's feature rows, whose op has only the weights as parents and
    whose rule returns only their gradients."""
    types, agg = aggs
    inputs = (h, agg) if isinstance(h, Tensor) else ()
    x, stack = (h.data, agg.data) if inputs else (h, agg)
    w_self = store[f"{prefix}.self"]
    w_rel = [store[f"{prefix}.rel{r}"] for r in types]
    pre = x @ w_self.data
    for a, w in zip(stack, w_rel):
        pre += a @ w.data
    out, back = elu(pre) if activate else (pre, None)

    def grad_fn(g):
        if back is not None:
            g = back(g)
        g_weights = (x.T @ g, *(stack.transpose(0, 2, 1) @ g))
        if not inputs:
            return g_weights
        w_stack = np.array([w.data for w in w_rel]).reshape(-1, *w_self.shape)
        return (g @ w_self.data.T, g @ w_stack.transpose(0, 2, 1), *g_weights)

    return nk.Tensor(out, (*inputs, w_self, *w_rel), grad_fn, "rgcn_layer")


def encode(batch, store: ParamStore, *heads: str) -> tuple[Tensor, ...]:
    """Run the three-layer encoder over a built `vaemodel.MolTensors` batch;
    returns the per-node output of each named head ("mu" the mean, "sigma"
    the log-std), building only those.

    The batch's `features` are its atoms' feature rows, and its `edges` are
    one stacked edge list: slot k holds bond type types[k]'s directed edges,
    weighted w = 1/deg_r(dst) so that each node averages over its
    r-neighbors; a bond type not in `types` adds nothing. Layers 1 and 2 are
    shared and ELU-activated; each head is its own linear layer, and the
    heads share one aggregation of layer 2's output. The three aggregations
    run over the one list, so they share its scatter positions. Layer 1
    reads the feature rows and their neighbor means as plain arrays: they
    are constants, so its op records only its weights.
    """
    features, types, edges = batch.features, batch.types, batch.edges
    if features.shape[1] != FEATURE_DIM:
        raise nk.NumericError(f"feature width {features.shape[1]} != {FEATURE_DIM}")

    def aggregate(h: Tensor | np.ndarray) -> Aggregate:
        return types, nk.stack_agg(h, edges, len(types))

    h = rgcn_layer(features, aggregate(features), store, "enc.l1", activate=True)
    h = rgcn_layer(h, aggregate(h), store, "enc.l2", activate=True)
    aggs = aggregate(h)
    return tuple(rgcn_layer(h, aggs, store, f"enc.{head}", activate=False) for head in heads)


def pool(node_vectors: Tensor, store: ParamStore, sizes: np.ndarray) -> Tensor:
    """Order-invariant molecule vectors, as one op: per molecule, the sum of
    its nodes' softmax rows over 64 slots, so a row's entries sum to its atom
    count. Each row of `node_vectors` Wp is softmaxed after subtracting its
    largest entry.

    Molecule b's nodes are `sizes[b]` consecutive rows of `node_vectors`.
    """
    x, wp = node_vectors.data, store["pool.wp"]
    soft = x @ wp.data
    soft -= soft.max(axis=1, keepdims=True)
    np.exp(soft, out=soft)
    soft /= soft.sum(axis=1, keepdims=True)
    seg = np.repeat(np.arange(sizes.size), sizes)

    def grad_fn(g):
        g_logits = g[seg]
        g_logits -= (g_logits * soft).sum(axis=1, keepdims=True)
        g_logits *= soft
        return (g_logits @ wp.data.T, x.T @ g_logits)

    return nk.Tensor(nk.segment_sums(soft, seg, sizes.size), (node_vectors, wp), grad_fn, "pool")
