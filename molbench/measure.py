"""One workload in this process: generate inputs, set up, run rounds, check, report."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from . import checks, probe
from .tracing import Tracer, TraceError, layer_metrics
from .workloads import WORKLOADS, Env, adam_step_marks, make_inputs, run_round, setup

EXIT_CHECK = 1
EXIT_TRACE = 3
MIN_ROUNDS = 3

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_mol_per_s": "mol/s",
    "heldout_edge_auc": "1",
    "fp_mol_per_s": "mol/s",
    "embed_mol_per_s": "mol/s",
    "reconstruct_mol_per_s": "mol/s",
    "query_ms": "ms",
    "query_ms_p95": "ms",
}


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    w = WORKLOADS[name]
    workdir = out_dir / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(w, seed, workdir)
        print(f"workload {name}: {w.why}")
        print(f"seed {seed}, {len(inputs.queries)} queries per round")
        env = Env(workdir)
        if trace:
            return _traced(w, seed, inputs, env, out_dir)
        with adam_step_marks(env):
            return _measured(w, seed, seconds, inputs, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measured(w, seed, seconds, inputs, env) -> int:
    setup_s, raw_setup_s, models, rounds = [], [], [], []
    for _ in range(w.setup_reps):
        env.speed.read()
        t0 = time.perf_counter()
        st = setup(w, inputs, env)
        t1 = time.perf_counter()
        env.speed.read()
        raw_setup_s.append(t1 - t0)
        setup_s.append(float(env.speed.scaled([t0], [t1])[0]))
        if st.model is not None:
            models.append(st.model)
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rnd = run_round(w, st, inputs, env)
        if not w.train_in_setup:
            models.append(rnd.model)
        rounds.append((rnd.seconds, rnd.scaled))
    elapsed = time.perf_counter() - start

    # Each operation's time scaled to the probe's reference speed, its median
    # over the rounds; each training step's, over the calls (README.md, "Noise").
    values, unscaled = {}, {}
    for out, which, steps in (
        (values, 1, np.median([m.segments for m in models], axis=0).sum()),
        (unscaled, 0, statistics.median(m.seconds for m in models)),
    ):
        per_op = {k: np.median([r[which][k] for r in rounds], axis=0) for k in rounds[0][which]}
        out.update(_e2e(per_op, steps, models[0].mol_steps, len(st.library)))
    values["setup_s"] = statistics.median(setup_s)
    unscaled["setup_s"] = statistics.median(raw_setup_s)
    values["peak_rss_mb"] = unscaled["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    values["heldout_edge_auc"] = unscaled["heldout_edge_auc"] = models[-1].auc
    values = {k: values[k] for k in E2E_UNITS}
    n_lib = len(st.library)
    print(f"{w.setup_reps} set-ups, then {len(rounds)} rounds in {elapsed:.1f} s; "
          f"{len(models)} train.train calls of {w.epochs} epochs on {len(st.train_set)} molecules "
          f"({len(models[0].segments)} steps); "
          f"library {n_lib} molecules; {len(inputs.queries)} queries")
    _report_reconstructions(rnd, n_lib)
    readings = env.speed.seconds
    print(f"probe: {len(readings)} readings, median {1e3 * statistics.median(readings):.3f} ms, "
          f"best {1e3 * min(readings):.3f} ms; values are scaled to {1e3 * probe.REF_S:.3f} ms")
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"  {k:<24} {m['value']:>12.6g} {m['unit']:<6} (unscaled {unscaled[k]:.6g})")
    return _finish(w, seed, st, models, rnd, inputs, env, metrics)


def _e2e(per_op: dict, train_s: float, mol_steps: int, n_lib: int) -> dict[str, float]:
    return {
        "train_mol_per_s": mol_steps / train_s,
        "fp_mol_per_s": n_lib / per_op["fp"].sum(),
        "embed_mol_per_s": n_lib / per_op["embed"].sum(),
        "reconstruct_mol_per_s": n_lib / per_op["reconstruct"].sum(),
        "query_ms": 1e3 * statistics.median(per_op["query"]),
        "query_ms_p95": 1e3 * statistics.quantiles(per_op["query"], n=20)[18],
    }


def _report_reconstructions(rnd, n_lib) -> None:
    done = [r for r in rnd.recons if r is not None]
    valid_in = sum(r[0] for r in done)
    print(f"reconstructions per round: {sum(r[2].valid for r in done)} valid of {n_lib} "
          f"({valid_in} valid inputs); without a SMILES: "
          + ", ".join(f"{v} {k}" for k, v in rnd.unwritten.items()))


def _traced(w, seed, inputs, env, out_dir) -> int:
    """An untraced set-up and round, then the same traced; per-layer metrics from the spans."""
    env.speed.read()
    t0 = time.perf_counter()
    st = setup(w, inputs, env)
    t1 = time.perf_counter()
    rnd = run_round(w, st, inputs, env)
    t2 = time.perf_counter()
    models = [st.model or rnd.model]

    tracer = Tracer()
    try:
        tracer.install()
        t3 = time.perf_counter()
        st = setup(w, inputs, env)
        t4 = time.perf_counter()
        rnd = run_round(w, st, inputs, env)
        t5 = time.perf_counter()
    except TraceError as exc:
        print(f"error: {exc}")
        return EXIT_TRACE
    finally:
        tracer.uninstall()
    models.append(st.model or rnd.model)

    try:
        values = layer_metrics(tracer)
    except TraceError as exc:
        print(f"error: {exc}")
        return EXIT_TRACE
    path = out_dir / f"trace-{w.name}-seed{seed}.npz"
    n_spans = tracer.write(path)
    print(f"trace: {n_spans} spans written to {path.relative_to(out_dir.parent.parent)}")
    setup_pair = env.speed.scaled([t3, t0], [t4, t1])
    round_pair = env.speed.scaled([t4, t1], [t5, t2])
    print("trace overhead, times scaled by the probe: "
          f"set-up {setup_pair[0]:.3f} s traced vs {setup_pair[1]:.3f} s untraced "
          f"({100 * (setup_pair[0] / setup_pair[1] - 1):+.0f}%), "
          f"round {round_pair[0]:.3f} s traced vs {round_pair[1]:.3f} s untraced "
          f"({100 * (round_pair[0] / round_pair[1] - 1):+.0f}%)")
    _report_reconstructions(rnd, len(st.library))
    for k, m in values.items():
        print(f"  {k:<38} {m['value']:>12.6g} {m['unit']}")
    return _finish(w, seed, st, models, rnd, inputs, env, values)


def _finish(w, seed, st, models, rnd, inputs, env, metrics) -> int:
    rng = np.random.default_rng([seed, 3])
    ops = env.ops
    results = checks.input_checks(st)
    results += checks.training_checks(w, st, models, rng)
    results += checks.screening_checks(st, rnd, inputs.queries, rng)
    print(f"operations: attempted {ops.attempted}, failed {ops.failed}")
    for kind, tb in ops.errors.items():
        print(f"first failed {kind} operation:\n{tb}")
    for c in results:
        print(f"check {c.name}: {'PASS' if c.ok else 'FAIL'} ({c.detail})")
    correct = all(c.ok for c in results)
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if correct else EXIT_CHECK
