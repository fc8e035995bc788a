"""Golden outputs of the 3-epoch corpus run: a change that claims to leave the
trained model and its queries unchanged must pass this unchanged.

Run `PYTHONPATH=src python tests/test_golden.py` to rewrite tests/golden_outputs.json; a
change that does so says in CHANGES.md what moved and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from molvae import cli, dataio, train, vaemodel
from molvae.corpus import DRUG_SMILES
from molvae.smiles import Disconnected, parse_smiles, write_smiles

GOLDEN = Path(__file__).parent / "golden_outputs.json"
CONFIG = train.TrainConfig(epochs=3, batch_size=16, seed=0)
QUERIES = {"aspirin": DRUG_SMILES["aspirin"], "caffeine": DRUG_SMILES["caffeine"], "ethanol": "CCO"}
RTOL = 1e-9


def _written(mol):
    """The SMILES of `mol`, or None when it is disconnected, as `molvae reconstruct` reports it."""
    try:
        return write_smiles(mol)
    except Disconnected:
        return None


def golden_outputs() -> dict:
    """The history, weight digest and query outputs of the 3-epoch corpus
    run, and `molvae gradcheck`'s error at seed 0."""
    params, history = train.train(dataio.load_bundled_corpus(), "heavy_atoms", CONFIG)
    molecules = {}
    for name, smi in QUERIES.items():
        mol = parse_smiles(smi)
        out, report = vaemodel.reconstruct(mol, params)
        molecules[name] = {
            "pooled": vaemodel.pooled_vector(mol, params).tolist(),
            "prediction": vaemodel.predict(mol, params),
            "decode_probs": vaemodel.decode_probs(mol, params).tolist(),
            "reconstructed": _written(out),
            "valid": report.valid,
        }
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["gradcheck", "--seed", "0", "--json"]) == 0
    return {
        "history": [list(bd) for bd in history],
        "flat_sha256": hashlib.sha256(params.flat.tobytes()).hexdigest(),
        "molecules": molecules,
        "gradcheck_seed0": json.loads(stdout.getvalue())["max_rel_error"],
    }


def test_the_3_epoch_corpus_run_matches_its_golden_outputs():
    got, want = golden_outputs(), json.loads(GOLDEN.read_text())
    np.testing.assert_allclose(got["history"], want["history"], rtol=RTOL, atol=0)
    assert got["flat_sha256"] == want["flat_sha256"]
    assert list(got["molecules"]) == list(want["molecules"])
    for name, g in got["molecules"].items():
        w = want["molecules"][name]
        for key in ("pooled", "prediction", "decode_probs"):
            np.testing.assert_allclose(g[key], w[key], rtol=RTOL, atol=0, err_msg=f"{name} {key}")
        assert (g["reconstructed"], g["valid"]) == (w["reconstructed"], w["valid"]), name
    np.testing.assert_allclose(got["gradcheck_seed0"], want["gradcheck_seed0"], rtol=RTOL, atol=0)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
