"""Workload inputs, set-up and measured rounds.

Every workload runs the same two kinds of work, in different proportions:
training (`train.train`, a checkpoint round trip, held-out edge AUC) and
screening a library with the trained model (fingerprint, embed, reconstruct,
and Tanimoto queries). `train_small` and `train_large` train inside every
round; `screen` trains once in set-up, as a user would load a trained model,
and spends its rounds on the library.
"""

from __future__ import annotations

import csv
import heapq
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from molvae import chem, corpus, dataio, fingerprint, numkernel, smiles, train, vaemodel

from .probe import SpeedLog

PROPERTY = "heavy_atoms"
SPLIT_FRAC = 0.8
SPLIT_SEED = 0
THRESHOLD = 0.5
# SMILES ring-bond labels end at %99, and write_smiles never reuses a label,
# so it writes `%100` for the 100th ring closure, which parse_smiles misreads.
MAX_RING_CLOSURES = 99
LARGE_SIZES = range(12, 21)
QUERY_SIZES = range(5, 10)
QUERIES_PER_STRATUM = 40  # 400 queries, so 20 lie beyond the 95th percentile
OVERSAMPLE = 4
TOP_K = 10
# Criterion 3's settings: batch 16, beta 0.001, lr 1e-3, seed 0.
BASE_CONFIG = train.TrainConfig(batch_size=16, beta=0.001, learning_rate=1e-3, seed=0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    epochs: int  # per train.train call
    train_in_setup: bool
    data_per_stratum: int  # training CSV of generated 12-20-atom molecules; 0: the bundled corpus
    library_per_stratum: int  # generated 12-20-atom molecules added to the held-out library
    setup_reps: int


# A stratum of generated molecules is one (heavy-atom count, ring or not) pair;
# 12-20 heavy atoms make 18 strata.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_small",
            "the bundled corpus (2-9 heavy atoms): per-op tape overhead dominates training",
            epochs=3,
            train_in_setup=False,
            data_per_stratum=0,
            library_per_stratum=0,
            setup_reps=7,
        ),
        Workload(
            "train_large",
            "12-20 heavy atoms, at most one ring: same op count, larger n^2 decoder and matmuls",
            epochs=4,
            train_in_setup=False,
            data_per_stratum=6,
            library_per_stratum=4,
            setup_reps=7,
        ),
        Workload(
            "screen",
            "a model trained once in set-up screens a library with 12-20-atom molecules: "
            "fingerprint, embed, reconstruct, Tanimoto search",
            epochs=2,
            train_in_setup=True,
            data_per_stratum=0,
            library_per_stratum=4,
            setup_reps=3,
        ),
    )
}


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    csv_path: Path  # the CSV set-up loads and splits into training and held-out data
    extra_smiles: list[str]  # generated molecules the library adds to the held-out split
    queries: list[str]


def _branching(mol: chem.MolGraph) -> int:
    """Pairs of bonds that share an atom: sum over atoms of C(degree, 2)."""
    degree = [0] * mol.n_atoms
    for a, b, _ in mol.bonds:
        degree[a] += 1
        degree[b] += 1
    return sum(d * (d - 1) // 2 for d in degree)


def stratified(rng: np.random.Generator, sizes: range, per_stratum: int, accept) -> list[chem.MolGraph]:
    """`per_stratum` generated molecules per stratum: (heavy-atom count in `sizes`, ring or not).

    Each stratum first gathers OVERSAMPLE times as many distinct candidates
    that `accept(smiles, mol)` admits, sorts them by branching, and keeps every
    OVERSAMPLE-th. The cost of a fingerprint grows steeply with size, ring
    closure and branching, so fixing how these are spread keeps the work alike
    from seed to seed. `corpus.random_molecule` closes at most one ring.
    """
    want = per_stratum * OVERSAMPLE
    pools: dict[tuple[int, bool], dict[str, chem.MolGraph]] = {
        (n, ring): {} for n in sizes for ring in (False, True)
    }
    while any(len(pool) < want for pool in pools.values()):
        mol = corpus.random_molecule(rng, int(rng.integers(sizes[0], sizes[-1] + 1)))
        pool = pools.get((mol.n_atoms, len(mol.bonds) == mol.n_atoms))
        if pool is None or len(pool) == want:
            continue
        smi = smiles.write_smiles(mol)
        if smi not in pool and accept(smi, mol):
            pool[smi] = mol
    out = []
    for pool in pools.values():
        ranked = sorted(pool.items(), key=lambda item: (_branching(item[1]), item[0]))
        out += [mol for _, mol in ranked[OVERSAMPLE // 2 :: OVERSAMPLE]]
    return out


def query_smiles(rng: np.random.Generator, known: list[chem.MolGraph]) -> list[str]:
    """QUERIES_PER_STRATUM molecules per (5-9 heavy atoms, ring or not), isomorphic to
    nothing in `known` and to no other candidate."""
    by_shape: dict[tuple[int, int], list[chem.MolGraph]] = {}
    for mol in known:
        by_shape.setdefault((mol.n_atoms, len(mol.bonds)), []).append(mol)

    def new(_smi, mol) -> bool:
        same_shape = by_shape.setdefault((mol.n_atoms, len(mol.bonds)), [])
        if any(chem.is_isomorphic(mol, other) for other in same_shape):
            return False
        same_shape.append(mol)
        return True

    return [smiles.write_smiles(m) for m in stratified(rng, QUERY_SIZES, QUERIES_PER_STRATUM, new)]


def write_csv(path: Path, mols: list[chem.MolGraph]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["smiles", PROPERTY])
        for mol in mols:
            w.writerow([smiles.write_smiles(mol), mol.n_atoms])


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Everything the workload reads, generated from `seed` alone."""
    rng = np.random.default_rng([seed, 1])
    if w.data_per_stratum:
        data = stratified(rng, LARGE_SIZES, w.data_per_stratum, lambda smi, mol: True)
        csv_path = workdir / "large.csv"
        write_csv(csv_path, data)
    else:
        csv_path = dataio.bundled_corpus_path()
        data = [rec.mol for rec in dataio.load_csv(csv_path).records]
    seen = {smiles.write_smiles(m) for m in data}
    extra = stratified(rng, LARGE_SIZES, w.library_per_stratum, lambda smi, mol: smi not in seen)
    queries = query_smiles(np.random.default_rng([seed, 2]), data + extra)
    return Inputs(csv_path, [smiles.write_smiles(m) for m in extra], queries)


# -- operations --------------------------------------------------------------


@dataclass
class Ops:
    """Operations attempted and failed; the first traceback of each kind is kept."""

    attempted: int = 0
    failed: int = 0
    errors: dict[str, str] = field(default_factory=dict)

    def each(self, kind: str, fn, arg_lists, speed: SpeedLog):
        """fn(*args) for each args, timed one by one: results, wall times, scaled times.

        A failed call gives None. The probe is read before, after, and between
        calls whenever EVERY_S has passed since the last reading.
        """
        results, starts, ends = [], [], []
        clock = time.perf_counter
        speed.read()
        for args in arg_lists:
            self.attempted += 1
            t = clock()
            if speed.due(t):
                speed.read()
                t = clock()
            starts.append(t)
            try:
                results.append(fn(*args))
            except Exception:  # a failed operation is counted and reported, not fatal
                self.failed += 1
                self.errors.setdefault(kind, traceback.format_exc())
                results.append(None)
            ends.append(clock())
        speed.read()
        return results, np.subtract(ends, starts), speed.scaled(starts, ends)


@dataclass
class Trained:
    params: numkernel.ParamStore  # as reloaded from the checkpoint
    trained: numkernel.ParamStore  # as returned by train.train
    history: list
    seconds: float  # the train.train call's wall time
    segments: np.ndarray  # the same, split at each Adam step, each scaled
    mol_steps: int
    auc: float


@dataclass
class State:
    dataset: dataio.Dataset
    train_set: dataio.Dataset
    heldout: dataio.Dataset
    library: list[tuple[str, chem.MolGraph]]
    model: Trained | None = None


def config(w: Workload) -> train.TrainConfig:
    return replace(BASE_CONFIG, epochs=w.epochs)


@dataclass
class Env:
    """What the set-ups and rounds of one run share."""

    workdir: Path
    ops: Ops = field(default_factory=Ops)
    speed: SpeedLog = field(default_factory=SpeedLog)
    # (end of a train.adam_step, start of the next step) while marks are taken
    step_marks: list[tuple[float, float]] = field(default_factory=list)


@contextmanager
def adam_step_marks(env: Env):
    """Mark each `train.adam_step` return, reading the probe there when it is due.

    Successive `train.train` calls of a run repeat the same batches in the same
    order, so the steps line up from call to call. Outside a probe reading this
    costs two clock reads per batch.
    """
    orig = train.adam_step

    def marked(*args, **kwargs):
        out = orig(*args, **kwargs)
        end = time.perf_counter()
        if env.speed.due(end):
            env.speed.read()
        env.step_marks.append((end, time.perf_counter()))
        return out

    train.adam_step = marked
    try:
        yield
    finally:
        train.adam_step = orig


def train_model(w: Workload, st: State, env: Env) -> Trained:
    cfg = config(w)
    first = len(env.step_marks)
    env.speed.read()
    t0 = time.perf_counter()
    params, history = train.train(st.train_set, PROPERTY, cfg)
    t1 = time.perf_counter()
    env.speed.read()
    marks = env.step_marks[first:]
    del env.step_marks[first:]
    starts, ends = [t0, *(s for _, s in marks)], [*(e for e, _ in marks), t1]
    seconds = float(np.subtract(ends, starts).sum())  # without the probe readings
    segments = env.speed.scaled(starts, ends)
    ckpt = env.workdir / "model.ckpt"
    dataio.save_checkpoint(params, cfg, ckpt)
    loaded, _ = dataio.load_checkpoint(ckpt)
    auc = train.evaluate_edge_auc(loaded, st.heldout)
    return Trained(loaded, params, history, seconds, segments, len(st.train_set) * w.epochs, auc)


def setup(w: Workload, inputs: Inputs, env: Env) -> State:
    """Load and parse the inputs; for `screen`, also train and checkpoint the model."""
    ds = dataio.load_csv(inputs.csv_path)
    train_set, heldout = ds.split(SPLIT_FRAC, seed=SPLIT_SEED)
    library = [(rec.smiles, rec.mol) for rec in heldout.records]
    library += [(s, smiles.parse_smiles(s)) for s in inputs.extra_smiles]
    st = State(ds, train_set, heldout, library)
    if w.train_in_setup:
        st.model = train_model(w, st, env)
    return st


@dataclass
class Round:
    model: Trained
    seconds: dict[str, np.ndarray]  # per operation kind, each operation's wall time
    scaled: dict[str, np.ndarray]  # the same, scaled to the probe's reference speed
    fps: list
    embeds: list
    recons: list
    tops: list
    unwritten: dict[str, int]  # reconstructions without a SMILES, by reason


def _embed(smi: str, params):
    g = fingerprint.pooled_vector(smiles.parse_smiles(smi), params)
    return g, vaemodel.side_predict(numkernel.constant(g), params).item()


def _reconstruct(mol, params):
    """(input valid, reconstruction, its validity report, its SMILES, why it has none)."""
    valid_in = chem.check_valence(mol).valid
    out, report = vaemodel.reconstruct(mol, params, THRESHOLD)
    if len(out.bonds) - out.n_atoms + 1 > MAX_RING_CLOSURES:
        return valid_in, out, report, None, "too many ring closures"
    try:
        return valid_in, out, report, smiles.write_smiles(out), None
    except smiles.Disconnected:
        return valid_in, out, report, None, "disconnected"


def _query(smi: str, library_fps: list) -> list[tuple[int, float]]:
    q = fingerprint.path_fingerprint(smiles.parse_smiles(smi))
    scores = [fingerprint.tanimoto(q, f) for f in library_fps]
    best = heapq.nsmallest(TOP_K, range(len(scores)), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in best]


def _fingerprint(smi: str):
    return fingerprint.path_fingerprint(smiles.parse_smiles(smi))


def run_round(w: Workload, st: State, inputs: Inputs, env: Env) -> Round:
    ops = env.ops
    if w.train_in_setup:
        model = st.model
    else:
        # Nothing after this can run without the model, so a failure here ends the run.
        ops.attempted += 1
        model = train_model(w, st, env)
    params = model.params
    speed = env.speed
    seconds, scaled = {}, {}
    fps, seconds["fp"], scaled["fp"] = ops.each(
        "fingerprint", _fingerprint, [(s,) for s, _ in st.library], speed
    )
    embeds, seconds["embed"], scaled["embed"] = ops.each(
        "embed", _embed, [(s, params) for s, _ in st.library], speed
    )
    recons, seconds["reconstruct"], scaled["reconstruct"] = ops.each(
        "reconstruct", _reconstruct, [(mol, params) for _, mol in st.library], speed
    )
    usable = [f for f in fps if f is not None]
    tops, seconds["query"], scaled["query"] = ops.each(
        "query", _query, [(q, usable) for q in inputs.queries], speed
    )
    unwritten = {"disconnected": 0, "too many ring closures": 0}
    for r in recons:
        if r is not None and r[4] is not None:
            unwritten[r[4]] += 1
    return Round(model, seconds, scaled, fps, embeds, recons, tops, unwritten)
