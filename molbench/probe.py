"""A fixed unit of work that reads how fast the machine runs right now.

The machine the benchmark was tuned on changes speed by up to 1.6x for
seconds to minutes at a time, and a run can fall wholly inside a slow
spell. Code like molvae's (Python sets, strings and small numpy matmuls)
slows down with it, so the benchmark reads this probe between phases and
scales each operation's time by REF_S / (the probe's time at that moment):
times read as if the probe took REF_S. The probe never calls molvae, so a
change to the program cannot change it.
"""

from __future__ import annotations

import gc
import time
from types import SimpleNamespace

import numpy as np

from . import reference as ref

# The probe's best time on the machine the benchmark was tuned on, in a
# quiet spell (2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS at one thread).
REF_S = 4.0e-4
REPEATS = 3
EVERY_S = 0.1  # the longest a phase runs between readings
SAMPLES = 9  # points per timed interval at which the probe's time is interpolated

# Aspirin's heavy-atom graph: elements, implicit H, bonds (i, j, type).
_ATOMS = [("C", 3), ("C", 0), ("O", 0), ("O", 0), ("C", 0), ("C", 1), ("C", 1),
          ("C", 1), ("C", 1), ("C", 0), ("C", 0), ("O", 0), ("O", 1)]
_BONDS = [(0, 1, 0), (1, 2, 1), (1, 3, 0), (3, 4, 0), (4, 5, 3), (5, 6, 3), (6, 7, 3),
          (7, 8, 3), (8, 9, 3), (9, 4, 3), (9, 10, 0), (10, 11, 1), (10, 12, 0)]
_MOL = SimpleNamespace(
    n_atoms=len(_ATOMS),
    atoms=[SimpleNamespace(element=e, formal_charge=0, implicit_h=h) for e, h in _ATOMS],
    bonds=_BONDS,
)
_SHAPES = {
    **{f"enc.{l}.{r}": (32, 32) for l in ("l1", "l2") for r in ("self", "rel0", "rel1", "rel2", "rel3")},
    **{f"enc.{l}.{r}": (32, 16) for l in ("mu", "sigma") for r in ("self", "rel0", "rel1", "rel2", "rel3")},
    "pool.wp": (16, 64), "side.m1": (64, 32), "side.b1": (1, 32), "side.m2": (32, 1), "side.b2": (1, 1),
}
_rng = np.random.default_rng(0)
_PARAMS = {k: _rng.uniform(-0.3, 0.3, size=s) for k, s in _SHAPES.items()}
_NOISE = _rng.standard_normal((len(_ATOMS), 16))


def _unit() -> None:
    """Grow the molecule's connected bond subgraphs to 4 bonds and key them; one model loss."""
    touching = [
        {k for k, (a, b, _) in enumerate(_BONDS) if {a, b} & {i, j}} for i, j, _ in _BONDS
    ]
    level = {frozenset((k,)) for k in range(len(_BONDS))}
    keys = set()
    for _ in range(3):
        level = {sub | {n} for sub in level for k in sub for n in touching[k] if n not in sub}
        keys |= {"|".join(sorted(f"{_ATOMS[_BONDS[k][0]][0]}{_BONDS[k][2]}" for k in sub)) for sub in level}
    ref.loss(_PARAMS, _MOL, 3.0, _NOISE, 0.001, 1.0)


def probe() -> float:
    """Best of REPEATS timings of the unit, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            _unit()
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Probe readings over a run; scale factors for operations by when they ran."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def read(self) -> None:
        t = time.perf_counter()
        self.seconds.append(probe())
        self.at.append(t)

    def due(self, now: float) -> bool:
        return now - self.at[-1] >= EVERY_S

    def scaled(self, starts, ends) -> np.ndarray:
        """Each interval's length times REF_S / the probe's time, averaged over the interval.

        The probe's time is interpolated between the readings around each of
        SAMPLES points spread over the interval.
        """
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        points = starts[:, None] + (ends - starts)[:, None] * np.linspace(0.0, 1.0, SAMPLES)
        factor = (REF_S / np.interp(points, self.at, self.seconds)).mean(axis=1)
        return (ends - starts) * factor
