#!/usr/bin/env python3
"""Print the sha256 of every output of the 3-epoch corpus run.

Trains `molvae train --data <bundled corpus> --property heavy_atoms --epochs 3
--batch 16 --seed 0` in a temporary directory, then prints one `<sha256>
<name>` line for the checkpoint, its history CSV, and the `--json` output of
`encode`, `predict`, `reconstruct` and `fingerprint` for aspirin, caffeine and
CCO, and of `similar --metric tanimoto|dice|cosine` for each pair of them. Two
commits whose lines are equal produce the same bytes. To check that a change
leaves every output as it was, run the same script, from the newer commit, in
a checkout of each commit:

    python3 scripts/golden_digest.py
"""

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from molvae.cli import main  # noqa: E402
from molvae.corpus import DRUG_SMILES  # noqa: E402
from molvae.dataio import bundled_corpus_path  # noqa: E402

QUERIES = {"aspirin": DRUG_SMILES["aspirin"], "caffeine": DRUG_SMILES["caffeine"], "ethanol": "CCO"}


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"molvae {' '.join(argv)} exited {rc}")
    return out.getvalue().encode("utf-8")


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
    for name, smi in QUERIES.items():
        found[f"fingerprint {name}"] = _stdout(["fingerprint", "--smiles", smi, "--json"])
    for (a, sa), (b, sb) in itertools.combinations(QUERIES.items(), 2):
        for metric in ("tanimoto", "dice", "cosine"):
            found[f"similar {metric} {a} {b}"] = _stdout([
                "similar", "--metric", metric, "--smiles", sa, "--smiles", sb, "--json",
            ])
    return found


if __name__ == "__main__":
    for name, data in outputs().items():
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
