#!/usr/bin/env python3
"""Print the sha256 of every output of the 3-epoch corpus run.

Trains `molvae train --data <bundled corpus> --property heavy_atoms --epochs 3
--batch 16 --seed 0` in a temporary directory, then prints one `<sha256>
<name>` line for the checkpoint, its history CSV, and the `--json` output of
`encode`, `predict`, `reconstruct` and `fingerprint` for aspirin, caffeine and
CCO, and of `similar --metric tanimoto|dice|cosine` for each pair of them. One
more line covers the checkpoint's reconstruction, at thresholds 0.5 and 0.2,
of every corpus molecule and of 50 seeded `corpus.random_molecule` molecules
drawn with 12-20 atoms: each one's written SMILES, or the writer's error, and
its validity report. The `evaluation` line covers the `repr`s of the
checkpoint's `evaluate_edge_auc` on the training and held-out parts of the
corpus's `split(0.8, seed=0)`, its `evaluate_validity` on the held-out part
and its `fit_probe` R^2 on the whole corpus. The `parsed` line covers the
`repr` of `parse_smiles_ex`'s molecule and stripped count for every SMILES
cell of the bundled corpus CSV, the same and the written SMILES for each
of BRACKET_SMILES, and the error type, message and position for
BAD_SMILES, one input per error message of the parser. The `gradients`
line covers `numkernel.backward`'s gradients, in `PARAM_SHAPES` order, of
one seed-0 `joint_loss` with seeded noise on GRADIENT_BATCH, a batch of all
four bond types and a molecule with no bonds, so that a change to a
gradient rule shows without a training run. The last line, `gradcheck`,
covers the `--json` output of `molvae gradcheck --seed 0`. Two commits
whose lines are equal produce the same bytes.

A first line, starting with `#`, names the CPU path the run took: the
float64 `exp` and `log1p` loops numpy dispatched to and OpenBLAS's core,
each `unknown` where it cannot be read. The hashes depend on it, and
NPY_DISABLE_CPU_FEATURES and OPENBLAS_CORETYPE each change it, so compare
only runs whose first lines agree.

These lines are the golden record. tests/golden_digest.txt holds one block
of them per CPU path, under its first line, and tests/test_golden.py runs
this script on each path and compares every line with its block, so tier-1
checks that a change leaves every output as it was. A change that means to
move them rewrites the blocks with `python3 tests/test_golden.py`. To see
one run's lines:

    python3 scripts/golden_digest.py
"""

import contextlib
import csv
import ctypes
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy.lib.introspect import opt_func_info  # numpy 2.0 and later
except ImportError:
    opt_func_info = None

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from molvae.cli import main  # noqa: E402
from molvae.corpus import DRUG_SMILES, random_molecule  # noqa: E402
from molvae.dataio import bundled_corpus_path, load_checkpoint, load_csv  # noqa: E402
from molvae.encoder import LATENT_DIM  # noqa: E402
from molvae.numkernel import backward  # noqa: E402
from molvae.smiles import SmilesError, parse_smiles, parse_smiles_ex, write_smiles  # noqa: E402
from molvae.train import evaluate_edge_auc, evaluate_validity, fit_probe  # noqa: E402
from molvae.vaemodel import MolTensors, init_model_params, joint_loss, reconstruct  # noqa: E402

QUERIES = {"aspirin": DRUG_SMILES["aspirin"], "caffeine": DRUG_SMILES["caffeine"], "ethanol": "CCO"}

# Single, double, triple and aromatic bonds, and one molecule with none.
GRADIENT_BATCH = ("C", "CC#N", "C=CO", DRUG_SMILES["aspirin"])

# Valid inputs that reach what the corpus does not: bracket atoms that parse
# (charges, explicit H, isotopes, chirality), stripped annotations, and the
# writer's bracket form.
BRACKET_SMILES = (
    "[NH4+]",
    "C[N+](C)(C)C",
    "CC(=O)[O-]",
    "[13CH4]",
    "F/C=C/F",
    "C[C@H](N)O",
    "c1cc[nH]c1",
    "[H][H]",
    "[O--]",
    "[S+2]",
)

# One input per error message of `smiles.parse_smiles_ex`, in the order the
# parser's source raises them. No parsed input reaches "graph construction
# failed": the parser rejects whatever `chem.build` would.
BAD_SMILES = (
    "",  # empty SMILES input
    "C==C",  # two consecutive bond symbols
    "1CC1",  # ring closure digit before any atom
    "C=1CC-1",  # conflicting bond orders on ring closure
    "C(1)1",  # ring bond closes onto its own atom
    "C1C1",  # duplicate bond between the same atoms
    "(C)C",  # branch opens before any atom
    "C)C",  # unmatched ')'
    "C.C",  # dot-disconnected (multi-fragment) input
    "C[NH",  # unterminated bracket atom
    "C%1CC%1",  # '%' ring closure needs two digits
    "CXC",  # unexpected character
    "/",  # no atoms in input
    "C(C",  # unclosed '('
    "C1CC",  # ring closure never closed
    "CC=",  # dangling bond symbol at end of input
    "C(C1)1",  # duplicate bond, the ring bond (1, 0) repeating the chain bond (0, 1)
    "[Xe]",  # unknown bracket atom
    "[Cx]",  # trailing characters in bracket atom
    "[N+3]",  # formal charge outside supported range
    "[CH5]",  # H count outside supported range
)


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"molvae {' '.join(argv)} exited {rc}")
    return out.getvalue().encode("utf-8")


def _reconstructions(ckpt: Path) -> bytes:
    """One line per molecule and threshold: the reconstruction's SMILES or
    the writer's error, then its validity report."""
    params, _ = load_checkpoint(ckpt)
    rng = np.random.default_rng(0)
    mols = [rec.mol for rec in load_csv(bundled_corpus_path()).records]
    mols += [random_molecule(rng, int(rng.integers(12, 21))) for _ in range(50)]
    lines = []
    for threshold in (0.5, 0.2):
        for mol in mols:
            out, report = reconstruct(mol, params, threshold)
            try:
                written = write_smiles(out)
            except SmilesError as exc:
                written = f"{type(exc).__name__}: {exc}"
            lines.append(f"{threshold} {written} {report.valid} {report.offending}\n")
    return "".join(lines).encode("utf-8")


def _parsed() -> bytes:
    """One line per corpus SMILES, bracket input and bad input: the parsed
    molecule and stripped count (and, for a bracket input, its written
    SMILES), or the error's type, message and position."""
    with bundled_corpus_path().open(encoding="utf-8-sig", newline="") as f:
        cells = [row[0] for row in itertools.islice(csv.reader(f), 1, None) if row]
    lines = []
    for smi in (*cells, *BAD_SMILES):
        try:
            res = parse_smiles_ex(smi)
            found = (res.mol, res.stripped)
        except SmilesError as exc:
            found = (type(exc).__name__, str(exc), exc.position)
        lines.append(f"{found!r}\n")
    for smi in BRACKET_SMILES:
        res = parse_smiles_ex(smi)
        lines.append(f"{(res.mol, res.stripped, write_smiles(res.mol))!r}\n")
    return "".join(lines).encode("utf-8")


def _evaluation(ckpt: Path) -> bytes:
    """The repr of each evaluation that criterion 3 makes, one per line."""
    params, _ = load_checkpoint(ckpt)
    full = load_csv(bundled_corpus_path())
    train_part, heldout = full.split(0.8, seed=0)
    found = {
        "train edge AUC": evaluate_edge_auc(params, train_part),
        "held-out edge AUC": evaluate_edge_auc(params, heldout),
        "held-out validity": evaluate_validity(params, heldout),
        "probe R^2": fit_probe(params, full, "heavy_atoms", seed=0)[1],
    }
    return "".join(f"{name} {value!r}\n" for name, value in found.items()).encode("utf-8")


def _gradients() -> bytes:
    """The bytes of `backward`'s flat gradient, each parameter's in PARAM_SHAPES
    order, of one joint loss on GRADIENT_BATCH, labelled with heavy-atom counts."""
    mols = [parse_smiles(smi) for smi in GRADIENT_BATCH]
    mt = MolTensors.from_mols(mols)
    noise = np.random.default_rng(0).standard_normal((len(mt.features), LATENT_DIM))
    params = init_model_params(0)
    total, _ = joint_loss(mt, [float(mol.n_atoms) for mol in mols], params, noise)
    return backward(total, params).flat.tobytes()


def cpu_path() -> str:
    """The header line: numpy's float64 `exp` and `log1p` loops and the core
    of numpy's bundled OpenBLAS, or `unknown` for each one it cannot read."""
    exp = log1p = core = "unknown"
    if opt_func_info is not None:
        loops = opt_func_info(func_name="^(exp|log1p)$", signature="float64")
        exp, log1p = (loops.get(name, {}).get("dd", {}).get("current", "unknown") for name in ("exp", "log1p"))
    for lib in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode("ascii")
    return f"# exp {exp}, log1p {log1p}, OpenBLAS {core}"


def outputs() -> dict[str, bytes]:
    """Each output of the run by name."""
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "model.ckpt"
        _stdout([
            "train", "--data", str(bundled_corpus_path()), "--property", "heavy_atoms",
            "--epochs", "3", "--batch", "16", "--seed", "0", "--out", str(ckpt),
        ])
        found = {
            "checkpoint": ckpt.read_bytes(),
            "history": ckpt.with_suffix(".ckpt.history.csv").read_bytes(),
        }
        for command in ("encode", "predict", "reconstruct"):
            for name, smi in QUERIES.items():
                found[f"{command} {name}"] = _stdout([command, "--ckpt", str(ckpt), "--smiles", smi, "--json"])
        found["reconstructions"] = _reconstructions(ckpt)
        found["evaluation"] = _evaluation(ckpt)
    for name, smi in QUERIES.items():
        found[f"fingerprint {name}"] = _stdout(["fingerprint", "--smiles", smi, "--json"])
    for (a, sa), (b, sb) in itertools.combinations(QUERIES.items(), 2):
        for metric in ("tanimoto", "dice", "cosine"):
            found[f"similar {metric} {a} {b}"] = _stdout([
                "similar", "--metric", metric, "--smiles", sa, "--smiles", sb, "--json",
            ])
    found["parsed"] = _parsed()
    found["gradients"] = _gradients()
    found["gradcheck"] = _stdout(["gradcheck", "--seed", "0", "--json"])
    return found


if __name__ == "__main__":
    print(cpu_path())
    for name, data in outputs().items():
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
