"""The molvae benchmark: one workload per process, one thread, BLAS at one thread.

    python3 molbench/run.py --workload train_small --seed 0 --seconds 25 --trace 0

Run from the root of a molvae checkout; the library is imported from `src/`.
Without `--workload` every workload runs, each in its own process. The last
line of a workload's output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`). A failed check exits with code 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The keys of workloads.WORKLOADS, named here because that module imports
# numpy, which must not load before the thread settings are in place.
NAMES = ("train_small", "train_large", "screen")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXIT_SETUP = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES, help="run one workload; default: all, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="how long the rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Each workload in a child process of its own; exits non-zero if any did."""
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def import_library():
    """Import molvae from this checkout's `src/`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "molvae" / "__init__.py").is_file():
        print(f"error: no molvae sources under {src}; run from a molvae checkout", file=sys.stderr)
        raise SystemExit(EXIT_SETUP)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import molvae

    if Path(molvae.__file__).resolve().parent != (src / "molvae").resolve():
        print(f"error: imported molvae from {molvae.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(EXIT_SETUP)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args)
    import_library()
    from molbench import measure

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)


if __name__ == "__main__":
    raise SystemExit(main())
