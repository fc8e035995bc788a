"""Spans around molvae's public functions, recorded from outside the library.

The library calls its own functions through module attributes
(`encoder.encode`, `train.backward`, `vaemodel.decode_probs`, ...), so
replacing every module attribute that holds a function with a wrapper makes
the wrapper see every call. Each span keeps its name, start, end and the span
that was open when it began (its parent); spans live in flat arrays in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np


class TraceError(RuntimeError):
    """A function to wrap is missing, or a wrapped function was never called."""


# (module, attribute, span name, value recorded from the result).
SPANS = [
    ("smiles", "parse_smiles", "smiles.parse", None),
    ("smiles", "write_smiles", "smiles.write", None),
    ("vaemodel", "MolTensors.from_mol", "chem.tensors", None),
    ("chem", "check_valence", "chem.check_valence", None),
    ("dataio", "load_csv", "dataio.load_csv", None),
    ("dataio", "save_checkpoint", "dataio.save_checkpoint", None),
    ("dataio", "load_checkpoint", "dataio.load_checkpoint", None),
    ("numkernel", "backward", "numkernel.backward", None),
    ("encoder", "encode", "encoder.encode", None),
    ("encoder", "pool", "encoder.pool", None),
    ("vaemodel", "joint_loss", "vaemodel.joint_loss", None),
    ("vaemodel", "side_predict", "vaemodel.side_predict", None),
    ("vaemodel", "decode_probs", "vaemodel.decode_probs", None),
    ("vaemodel", "reconstruct", "vaemodel.reconstruct", None),
    ("train", "adam_step", "train.adam_step", None),
    ("train", "train", "train.train", None),
    ("fingerprint", "enumerate_subgraphs", "fingerprint.enumerate", len),
    ("fingerprint", "canonical_subgraph_key", "fingerprint.key", hash),
    ("fingerprint", "path_fingerprint", "fingerprint.path_fingerprint", None),
    ("fingerprint", "tanimoto", "fingerprint.compare", None),
    ("fingerprint", "pooled_vector", "fingerprint.pooled_vector", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._open = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, value):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_id, parent, start, end, out = (
            self.name_id, self.parent, self.start, self.end, self.value
        )
        open_spans = self._open

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            out.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if value is not None:
                out[idx] = value(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every function in SPANS, wherever a molvae module holds it."""
        modules = [m for k, m in sys.modules.items() if k == "molvae" or k.startswith("molvae.")]
        for mod_name, attr, name, value in SPANS:
            mod = importlib.import_module(f"molvae.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if not isinstance(raw, classmethod):
                    raise TraceError(f"no classmethod molvae.{mod_name}.{attr} to wrap")
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, classmethod(self._wrap(raw.__func__, name, value)))
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                raise TraceError(f"no function molvae.{mod_name}.{attr} to wrap")
            wrapped = self._wrap(orig, name, value)
            for m in modules:
                for key, obj in list(vars(m).items()):
                    if obj is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "value": np.frombuffer(self.value, dtype=np.int64),
        }

    def write(self, path) -> int:
        np.savez_compressed(path, **self.arrays())
        return len(self.start)


class SpanStats:
    """Per span name: call count, total duration, self duration, results."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self._names = list(a["names"])
        self._a = a
        self._dur = dur
        self._self = dur - child

    def _mask(self, name: str) -> np.ndarray:
        mask = self._a["name_id"] == self._names.index(name)
        if not mask.any():
            raise TraceError(f"the wrapper for {name} was never called")
        return mask

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def mean(self, name: str) -> float:
        return float(self._dur[self._mask(name)].mean())

    def total(self, name: str) -> float:
        return float(self._dur[self._mask(name)].sum())

    def mean_self(self, name: str) -> float:
        return float(self._self[self._mask(name)].mean())

    def values(self, name: str) -> np.ndarray:
        return self._a["value"][self._mask(name)]

    def distinct_per_parent(self, name: str) -> int:
        mask = self._mask(name)
        pairs = np.stack([self._a["parent"][mask].astype(np.int64), self._a["value"][mask]])
        return int(np.unique(pairs, axis=1).shape[1])


def _distinct_key_ratio(s: SpanStats) -> float:
    return s.distinct_per_parent("fingerprint.key") / s.count("fingerprint.key")


# name -> (unit, better, value from the span statistics)
LAYER_METRICS = {
    "smiles.parse_us": ("us", "lower", lambda s: 1e6 * s.mean("smiles.parse")),
    "smiles.write_us": ("us", "lower", lambda s: 1e6 * s.mean("smiles.write")),
    "chem.tensors_us": ("us", "lower", lambda s: 1e6 * s.mean("chem.tensors")),
    "chem.check_valence_us": ("us", "lower", lambda s: 1e6 * s.mean("chem.check_valence")),
    "dataio.load_csv_ms": ("ms", "lower", lambda s: 1e3 * s.mean("dataio.load_csv")),
    "dataio.checkpoint_ms": (
        "ms",
        "lower",
        lambda s: 1e3 * (s.mean("dataio.save_checkpoint") + s.mean("dataio.load_checkpoint")),
    ),
    "numkernel.backward_ms": ("ms", "lower", lambda s: 1e3 * s.mean("numkernel.backward")),
    "numkernel.backward_total_s": (
        "s",
        "lower",
        lambda s: s.total("numkernel.backward") / s.count("train.train"),
    ),
    "encoder.encode_ms": ("ms", "lower", lambda s: 1e3 * s.mean("encoder.encode")),
    "encoder.pool_us": ("us", "lower", lambda s: 1e6 * s.mean("encoder.pool")),
    "vaemodel.joint_loss_self_ms": (
        "ms",
        "lower",
        lambda s: 1e3 * s.mean_self("vaemodel.joint_loss"),
    ),
    "vaemodel.side_predict_us": ("us", "lower", lambda s: 1e6 * s.mean("vaemodel.side_predict")),
    "vaemodel.decode_probs_ms": ("ms", "lower", lambda s: 1e3 * s.mean("vaemodel.decode_probs")),
    "vaemodel.reconstruct_self_ms": (
        "ms",
        "lower",
        lambda s: 1e3 * s.mean_self("vaemodel.reconstruct"),
    ),
    "train.adam_step_ms": ("ms", "lower", lambda s: 1e3 * s.mean("train.adam_step")),
    "train.adam_steps": (
        "count",
        "lower",
        lambda s: s.count("train.adam_step") / s.count("train.train"),
    ),
    "train.loop_self_ms": ("ms", "lower", lambda s: 1e3 * s.mean_self("train.train")),
    "fingerprint.subgraphs_per_mol": (
        "count",
        "lower",
        lambda s: float(s.values("fingerprint.enumerate").mean()),
    ),
    "fingerprint.enumerate_ms": ("ms", "lower", lambda s: 1e3 * s.mean("fingerprint.enumerate")),
    "fingerprint.key_us": ("us", "lower", lambda s: 1e6 * s.mean("fingerprint.key")),
    "fingerprint.distinct_key_ratio": ("1", "higher", _distinct_key_ratio),
    "fingerprint.path_fingerprint_self_ms": (
        "ms",
        "lower",
        lambda s: 1e3 * s.mean_self("fingerprint.path_fingerprint"),
    ),
    "fingerprint.compare_us": ("us", "lower", lambda s: 1e6 * s.mean("fingerprint.compare")),
    "fingerprint.pooled_vector_ms": (
        "ms",
        "lower",
        lambda s: 1e3 * s.mean("fingerprint.pooled_vector"),
    ),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    stats = SpanStats(tracer)
    return {
        name: {"value": float(fn(stats)), "unit": unit}
        for name, (unit, _better, fn) in LAYER_METRICS.items()
    }
