"""Dense float64 tensors with tape-based reverse-mode differentiation."""

from __future__ import annotations

from collections.abc import Callable, Mapping
from contextvars import ContextVar
from functools import cached_property

import numpy as np


class NumericError(ArithmeticError):
    """Base class for numeric failures."""


class NonFiniteValue(NumericError):
    pass


# Whether ops record the tape: on everywhere but inside `tape_free`.
_RECORDING: ContextVar[bool] = ContextVar("recording", default=True)


class Tensor:
    """A node in the computation tape.

    Holds a float64 ndarray. While recording is on, which it is everywhere
    but inside `tape_free`, an operation records its inputs and a local
    gradient rule, which `backward` runs to accumulate exact reverse-mode
    gradients; with recording off its output is a bare value with no
    parents and no rule. A tensor holds no gradient itself.
    Creating a leaf (a constant or a parameter) with a NaN or infinite entry
    raises NonFiniteValue. Op outputs are not checked as they are made:
    `checked` looks at a result once and, if it is not finite, names the op
    on its tape that first went non-finite.
    """

    __slots__ = ("data", "_parents", "_grad_fn", "name")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        grad_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
        name: str | None = None,
    ):
        arr = np.asarray(data, dtype=np.float64)
        if not parents:
            if not np.isfinite(arr).all():
                raise NonFiniteValue(f"non-finite value produced by {name or 'tensor creation'}")
        elif not _RECORDING.get():
            parents, grad_fn = (), None
        self.data = arr
        self._parents = parents
        self._grad_fn = grad_fn
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, name={self.name!r})"


def constant(data, name: str | None = None) -> Tensor:
    return Tensor(data, name=name)


def _require_2d(x: np.ndarray, op: str) -> None:
    if x.ndim != 2:
        raise NumericError(f"{op} requires a 2-D tensor, got shape {x.shape}")


# -- primitive operations ------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) without overflow for large |x|: with e = e^-|x| <= 1,
    the numerator max(e, [x >= 0]) is 1 for x >= 0 and e below."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0.0) / (1.0 + e)


def bce_with_logits(scores: Tensor, at: np.ndarray, target: np.ndarray, weight: np.ndarray) -> Tensor:
    """sum_k weight[k] * (softplus(x_k) - target[k] * x_k) for the logits x,
    the entries of `scores` at the distinct row-major positions `at`: the
    weighted binary cross-entropy of x against 0/1 targets, as a scalar.

    softplus(x) = log(1 + e^x) is computed without overflow and needs no
    clamp; the gradient is weight * (logistic(x) - target) at `at` and zero
    at every other entry of `scores`.
    """
    x = scores.data.reshape(-1)[at]
    if x.ndim != 1 or target.shape != x.shape or weight.shape != x.shape:
        raise NumericError(f"bce_with_logits shapes {x.shape} / {target.shape} / {weight.shape}")
    per_entry = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))) - target * x

    def grad_fn(g):
        gs = np.zeros(scores.shape)
        gs.reshape(-1)[at] = g * (weight * (_sigmoid(x) - target))
        return (gs,)

    return Tensor((weight * per_entry).sum(), (scores,), grad_fn, "bce_with_logits")


def squared_error(pred: Tensor, target: np.ndarray) -> Tensor:
    """sum_k (pred_k - target_k)^2 over every entry, as a scalar; the
    gradient is 2 (pred - target)."""
    if pred.shape != target.shape:
        raise NumericError(f"squared_error shapes {pred.shape} vs {target.shape}")
    err = pred.data - target
    return Tensor((err * err).sum(), (pred,), lambda g: (2.0 * g * err,), "squared_error")


def logistic(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)
    return Tensor(out_data, (a,), lambda g: (g * (out_data * (1.0 - out_data)),), "logistic")


# -- index operations over a disjoint union of graphs --------------------


def _flat_positions(rows: np.ndarray, width: int) -> np.ndarray:
    """Where the entries of rows `rows` lie in a row-major array `width` wide."""
    return (rows[:, None] * width + np.arange(width)).ravel()


def _scatter_rows(vals: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """out[rows[k]] += vals[k] for every k, as an (n, width) array, given
    `_flat_positions(rows, width)`."""
    width = vals.shape[1]
    return np.bincount(flat, weights=vals.ravel(), minlength=n * width).reshape(n, width)


class Edges:
    """A directed edge list for `stack_agg`: edge k carries row `src[k]`,
    weighted by `w[k]`, into row `dst[k]` of a stack's rows laid end to end.

    Each aggregation over the edges scatters at the flat positions of their
    rows' entries. These are built at the first use at each row width and
    kept, so every aggregation over one edge list shares them; the `src`
    positions, which only the gradient rule reads, are built only when a
    backward pass runs that rule.
    """

    __slots__ = ("dst", "src", "w", "_flat")

    def __init__(self, dst: np.ndarray, src: np.ndarray, w: np.ndarray):
        self.dst, self.src, self.w = dst, src, w
        self._flat: dict[tuple[str, int], np.ndarray] = {}

    def flat(self, ends: str, width: int) -> np.ndarray:
        """`_flat_positions` of the rows `ends` ("dst" or "src") name, `width` wide."""
        key = (ends, width)
        if key not in self._flat:
            self._flat[key] = _flat_positions(getattr(self, ends), width)
        return self._flat[key]


def stack_agg(h: Tensor | np.ndarray, edges: Edges, depth: int) -> Tensor | np.ndarray:
    """Weighted sums over an edge list into a (depth, n, width) stack, for the
    n rows of `h`: slot dst[k] // n, row dst[k] % n gains w[k] * h[src[k]].
    A plain array `h`, a constant, gives a plain array and records nothing."""
    x = h.data if isinstance(h, Tensor) else h
    _require_2d(x, "stack_agg")
    n, width = x.shape
    wcol = edges.w[:, None]
    v = x[edges.src]
    v *= wcol
    out_data = _scatter_rows(v, edges.flat("dst", width), depth * n).reshape(depth, n, width)
    if not isinstance(h, Tensor):
        return out_data

    def grad_fn(g):
        v = g.reshape(-1, width)[edges.dst]
        v *= wcol
        return (_scatter_rows(v, edges.flat("src", width), n),)

    return Tensor(out_data, (h,), grad_fn, "stack_agg")


def segment_sums(x: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """Row sums per segment of a plain array, added in row order: row s of
    the result sums the rows i of `x` with seg[i] == s."""
    return _scatter_rows(x, _flat_positions(seg, x.shape[1]), n_seg)


class PairLayout:
    """The one order of the row pairs of a batch of blocks: block b is
    `sizes[b]` consecutive rows, and its pairs i < j come row by row, block
    after block. Holds each block's pair count, and pads the blocks to a
    (B, m, width) stack, m the largest block's row count."""

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        sizes = self.sizes.tolist()  # a batch is small: Python ints beat numpy's per-call cost
        counts = [n * (n - 1) // 2 for n in sizes]
        self.counts = np.array(counts, dtype=np.int64)
        self.m = max(sizes, default=0)

    @cached_property
    def pairs(self) -> np.ndarray:
        """Pair k's entry in the flat (B, m, m) product of the padded stack."""
        ar = np.arange(self.m)
        return np.flatnonzero((ar[:, None] < ar) & (ar < self.sizes[:, None, None]))

    @cached_property
    def rows(self) -> np.ndarray:
        """Row r's row in the flat (B * m, width) padded stack."""
        return np.flatnonzero(np.arange(self.m) < self.sizes[:, None])

    def pad(self, z: np.ndarray) -> np.ndarray:
        """The blocks of the rows of `z` as a (B, m, width) stack, padded with zero rows."""
        if z.ndim != 2 or len(z) != self.sizes.sum():
            raise NumericError(f"{z.shape} array for blocks of {self.sizes.sum()} rows")
        if len(z) == self.sizes.size * self.m:  # no block is short, as when there is one
            return z.reshape(self.sizes.size, self.m, z.shape[1])
        zp = np.zeros((self.sizes.size, self.m, z.shape[1]))
        zp.reshape(-1, z.shape[1])[self.rows] = z
        return zp


def block_products(z: Tensor, layout: PairLayout) -> Tensor:
    """Inner products z_i . z_j within each block, as the (B, m, m) product
    zp zpᵀ of the padded stack zp = `layout.pad(z)`."""
    zp = layout.pad(z.data)

    def grad_fn(g):
        return (((g + g.transpose(0, 2, 1)) @ zp).reshape(-1, zp.shape[2])[layout.rows],)

    return Tensor(zp @ zp.transpose(0, 2, 1), (z,), grad_fn, "block_products")


# -- parameter store and gradient checking -------------------------------


class ParamStore:
    """Named learnable tensors with fixed shapes, built in one step from an
    ordered name -> array mapping.

    Every parameter's data is a view of one contiguous float64 buffer,
    `flat`, in the mapping's order, so an optimizer can update them all at
    once. Each name's slice of `flat` is worked out here, once.
    """

    def __init__(self, arrays: Mapping[str, object]):
        leaves = [Tensor(data, name=name) for name, data in arrays.items()]
        self.flat = np.concatenate([t.data.ravel() for t in leaves]) if leaves else np.zeros(0)
        ends = np.cumsum([t.data.size for t in leaves], dtype=np.int64).tolist()
        self._slices = {t.name: slice(end - t.data.size, end) for t, end in zip(leaves, ends)}
        for t in leaves:
            t.data = self.flat[self._slices[t.name]].reshape(t.data.shape)
        self._params = {t.name: t for t in leaves}

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def name_at(self, i: int) -> str:
        """The name of the parameter whose slice of `flat` holds index `i`."""
        return next(name for name, sl in self._slices.items() if i < sl.stop)


class Gradients(Mapping):
    """Gradients by parameter name, read-only, over one array `flat` laid out like
    a store's `flat`: a name's view of it is made only when it is read."""

    def __init__(self, flat: np.ndarray, params: ParamStore):
        self.flat, self._params = flat, params

    def __getitem__(self, name: str) -> np.ndarray:
        return self.flat[self._params._slices[name]].reshape(self._params[name].shape)

    def __iter__(self):
        return iter(self._params._slices)

    def __len__(self) -> int:
        return len(self._params)


def _tape(root: Tensor) -> list[Tensor]:
    """Every node `root` depends on, itself last, each after its parents."""
    topo: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p not in seen:
                stack.append((p, False))
    return topo


def checked(t: Tensor) -> Tensor:
    """`t` itself when every entry is finite.

    Otherwise raises NonFiniteValue naming the first op on `t`'s tape, parents
    first, whose output is non-finite while its inputs are finite. The tape
    holds every intermediate, so nothing is re-run. An op output made with
    recording off has no tape, so only `tape_free`'s taped re-run can name it.
    """
    if not np.isfinite(t.data).all():
        # Parents come first, so the first non-finite node had finite inputs;
        # `t` is on its own tape, so there always is one.
        bad = next(node for node in _tape(t) if not np.isfinite(node.data).all())
        raise NonFiniteValue(f"non-finite value produced by {bad.name or 'tensor creation'}")
    return t


def tape_free(run: Callable[[], Tensor]) -> Tensor:
    """`checked(run())`, computed with recording off, so that no tape is kept.

    `run` must be deterministic. A result without a tape cannot say which op
    went non-finite, so when it, or a value `run` checks on the way, is not
    finite, `run` runs once more with recording on and `checked` names the op.
    """
    token = _RECORDING.set(False)
    try:
        out = run()
    except NonFiniteValue:
        out = None
    finally:
        _RECORDING.reset(token)
    if out is not None and np.isfinite(out.data).all():
        return out
    token = _RECORDING.set(True)
    try:
        return checked(run())
    finally:
        _RECORDING.reset(token)


def backward(loss: Tensor, params: ParamStore) -> Gradients:
    """Gradients of the scalar `loss` by parameter name, over one fresh flat array.

    One reverse sweep over the tape in topological order. Gradients live in a
    dict local to the call; an entry is dropped once its node's rule has run,
    so the tape is left unchanged. Each parameter on the tape is copied once
    into its slice; those off the tape keep zeros. A non-finite loss raises
    NonFiniteValue (see `checked`).
    """
    if loss.data.size != 1:
        raise NumericError(f"backward requires a scalar, got shape {loss.shape}")
    checked(loss)
    grads = {loss: np.ones_like(loss.data)}
    for node in reversed(_tape(loss)):
        if node._grad_fn is None:
            continue
        for parent, g in zip(node._parents, node._grad_fn(grads.pop(node))):
            grads[parent] = grads[parent] + g if parent in grads else g
    flat = np.zeros(params.flat.size)
    for name, p in params.items():
        if p in grads:
            flat[params._slices[name]] = grads[p].ravel()
    return Gradients(flat, params)


GRAD_CHECK_MAX_COORDS = 200


def grad_check(f: Callable[[ParamStore], Tensor], params: ParamStore, eps: float = 1e-5) -> float:
    """Normwise relative error of reverse-mode gradients vs central differences.

    Over the checked coordinates i this is

        max_i |a_i - n_i| / max(max_i |a_i|, max_i |n_i|, 1e-8)

    for analytic gradients a and central differences n. Scaling by the
    largest gradient rather than each coordinate's own keeps near-zero
    gradients, whose difference quotients only measure float64 cancellation
    noise (about 1e-10 absolute at eps=1e-5), from reading as large relative
    errors; a wrong gradient rule on any coordinate with a sizable gradient
    still shows up at its relative size.

    Checks all coordinates when the total parameter count is at most
    GRAD_CHECK_MAX_COORDS. Otherwise the subset is the GRAD_CHECK_MAX_COORDS
    coordinates of `params.flat` with the largest analytic gradient magnitude,
    ties in table order.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    a = backward(f(params), params).flat
    worst_diff = 0.0
    scale = 1e-8
    for i in np.argsort(-np.abs(a), kind="stable")[:GRAD_CHECK_MAX_COORDS]:
        orig = params.flat[i]
        params.flat[i] = orig + eps
        hi = f(params).item()
        params.flat[i] = orig - eps
        lo = f(params).item()
        params.flat[i] = orig
        numeric = (hi - lo) / (2.0 * eps)
        worst_diff = max(worst_diff, abs(a[i] - numeric))
        scale = max(scale, abs(a[i]), abs(numeric))
    return float(worst_diff / scale)
