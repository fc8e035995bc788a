"""The golden record: `scripts/golden_digest.py`'s 28 hash lines for the
3-epoch corpus run, its queries, the parser, one gradient and `molvae
gradcheck`, checked exactly on each committed CPU path. A change that claims
to leave the trained model and its outputs unchanged must pass this
unchanged.

tests/golden_digest.txt holds one block per CPU path, each under the `#`
header line the script prints for it. Run `python3 tests/test_golden.py` to
rewrite both blocks; a change that does so says in CHANGES.md what moved and
why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tests" / "golden_digest.txt"

# numpy's AVX2 loops and OpenBLAS's Haswell core, which a CPU without AVX-512
# takes, and the settings that make a process on an AVX-512 CPU take them too.
AVX2_PATH = "# exp X86_V3, log1p baseline(X86_V2), OpenBLAS Haswell"
AVX2_SETTINGS = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR", "OPENBLAS_CORETYPE": "Haswell"}


def digest(settings: dict[str, str]) -> tuple[str, list[str]]:
    """The header and hash lines of `golden_digest.py`, run in a process that
    has `settings` and no other value of the variables they name."""
    env = {k: v for k, v in os.environ.items() if k not in AVX2_SETTINGS} | settings
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "golden_digest.py")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    return header, lines


def golden() -> dict[str, list[str]]:
    """The committed hash lines, by header."""
    blocks = (block.splitlines() for block in DIGEST.read_text(encoding="utf-8").split("\n\n"))
    return {header: lines for header, *lines in blocks}


def test_the_3_epoch_corpus_run_matches_its_golden_outputs():
    header, lines = digest({})
    want = golden()
    assert header in want, f"no golden block for this CPU path: {header}"
    assert lines == want[header]


def test_the_avx2_path_matches_its_golden_outputs():
    header, lines = digest(AVX2_SETTINGS)
    if header != AVX2_PATH:
        pytest.skip(f"this machine cannot take the AVX2 path: {header}")
    assert lines == golden()[AVX2_PATH]


if __name__ == "__main__":
    blocks = dict(digest(settings) for settings in ({}, AVX2_SETTINGS))
    DIGEST.write_text("\n\n".join("\n".join([h, *lines]) for h, lines in blocks.items()) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST}")
