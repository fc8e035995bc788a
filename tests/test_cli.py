"""Tests for the command-line interface: commands, JSON output, exit codes."""

import base64
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from molvae import dataio, encoder, train as tr, vaemodel
from molvae.cli import EXIT_DOMAIN, EXIT_IO, EXIT_NUMERIC, EXIT_USAGE, _config, build_parser, main
from molvae.fingerprint import FpConfig


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    """A one-epoch checkpoint over a tiny CSV, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "d.csv"
    data.write_text(
        "smiles,heavy_atoms\nC,1\nCC,2\nCCO,3\nCCC,3\nCC(C)O,4\nC=C,2\n"
    )
    out = root / "model.ckpt"
    rc = main(
        [
            "train",
            "--data", str(data),
            "--property", "heavy_atoms",
            "--epochs", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return {"data": data, "ckpt": out}


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    return rc, json.loads(capsys.readouterr().out)


# -- train ---------------------------------------------------------------


def test_train_writes_checkpoint_and_history(ckpt):
    assert ckpt["ckpt"].exists()
    history = ckpt["ckpt"].with_suffix(".ckpt.history.csv")
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,recon,kl,side,total"
    assert len(lines) == 2  # header + one epoch


@pytest.mark.parametrize(
    "out, directory, named",
    [
        ("out", "out", "out"),
        ("missing/m.ckpt", None, "missing/m.ckpt"),
        ("m.ckpt", "m.ckpt.history.csv", "m.ckpt.history.csv"),
    ],
    ids=["out-is-a-directory", "out-directory-missing", "history-is-a-directory"],
)
def test_train_checks_out_before_reading_data_or_training(out, directory, named, ckpt, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("reached before --out was checked")

    monkeypatch.setattr(dataio, "load_csv", never)
    monkeypatch.setattr(tr, "train", never)
    if directory:
        (tmp_path / directory).mkdir()
    made = sorted(tmp_path.rglob("*"))
    rc = main(_train("--out", str(tmp_path / out))(ckpt, tmp_path))
    captured = capsys.readouterr()
    assert rc == EXIT_IO
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path / named) in captured.err
    assert sorted(tmp_path.rglob("*")) == made  # nothing written


def test_train_unknown_property(ckpt, capsys):
    rc = main(
        [
            "train",
            "--data", str(ckpt["data"]),
            "--property", "logp",
            "--epochs", "1",
            "--out", "/tmp/ignored.ckpt",
        ]
    )
    assert rc == EXIT_DOMAIN


def test_train_missing_data_file():
    rc = main(
        [
            "train",
            "--data", "/nonexistent/d.csv",
            "--property", "heavy_atoms",
            "--epochs", "1",
            "--out", "/tmp/ignored.ckpt",
        ]
    )
    assert rc == EXIT_IO


def test_train_overflowing_label_exits_numeric_with_one_error_line(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("smiles,heavy_atoms\nCCO,3\nCCN,1e200\nCC,2\n")
    out = tmp_path / "m.ckpt"
    argv = ["train", "--data", str(data), "--property", "heavy_atoms", "--epochs", "1", "--out", str(out)]
    with np.errstate(over="ignore"):
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_NUMERIC
    assert captured.err.splitlines() == ["error: non-finite value produced by square"]
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_train_overflowing_label_prints_one_stderr_line_in_a_fresh_process(tmp_path):
    # Only a separate interpreter shows numpy's RuntimeWarnings as they reach
    # a user: pytest captures them in-process.
    data = tmp_path / "d.csv"
    data.write_text("smiles,heavy_atoms\nCCO,3\nCCN,1e200\nCC,2\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    argv = ["train", "--data", str(data), "--property", "heavy_atoms", "--epochs", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "molvae.cli", *argv, "--out", str(tmp_path / "m.ckpt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stderr == "error: non-finite value produced by square\n"


def test_train_skips_a_non_finite_label(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("smiles,heavy_atoms\nCCO,3\nCCN,nan\nCC,2\n")
    argv = ["train", "--data", str(data), "--property", "heavy_atoms", "--epochs", "1"]
    rc, payload = run_json(capsys, argv + ["--out", str(tmp_path / "m.ckpt")])
    assert rc == 0
    assert payload["skipped"] == {"bad_property": 1}


def test_plain_train_output_names_skipped_rows_and_stripped_annotations(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("smiles,heavy_atoms\nCCO,3\nCCN,nan\n[13CH4],1\nC(,2\nCC,inf\n")
    out = tmp_path / "m.ckpt"
    rc = main(["train", "--data", str(data), "--property", "heavy_atoms", "--epochs", "1", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith(f"wrote {out} (1 epochs, final total ")
    assert line.endswith("; skipped 3 rows (bad_property: 2, parse_error: 1); stripped 2 stereo/isotope characters")
    data.write_text("smiles,heavy_atoms\nCCO,3\nCCN,nan\n")
    assert main(["train", "--data", str(data), "--property", "heavy_atoms", "--epochs", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}; skipped 1 row (bad_property: 1)\n"


def test_train_reports_stripped_annotations_next_to_skipped_rows(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("smiles,heavy_atoms\n[13CH4],1\nF/C=C/F,4\nCCO,3\n")
    argv = ["train", "--data", str(data), "--property", "heavy_atoms", "--epochs", "1"]
    rc, payload = run_json(capsys, argv + ["--out", str(tmp_path / "m.ckpt")])
    assert rc == 0
    assert (payload["skipped"], payload["stripped"]) == ({}, 4)


# -- usage errors --------------------------------------------------------


def test_unknown_subcommand_exits_usage():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == EXIT_USAGE


def test_max_atoms_defaults_to_the_loader_limit():
    args = build_parser().parse_args(["train", "--data", "d.csv", "--property", "p", "--epochs", "1", "--out", "m"])
    assert args.max_atoms == dataio.MAX_ATOMS
    assert inspect.signature(dataio.load_csv).parameters["max_atoms"].default == dataio.MAX_ATOMS


TRAIN_REQUIRED = ["train", "--data", "d.csv", "--property", "p", "--epochs", "5", "--out", "m"]
TRAIN_SET = ["--seed", "3", "--lr", "0.01", "--batch", "8", "--beta", "0.5", "--lambda", "2"]
FINGERPRINT_SET = ["--nbits", "64", "--min-path", "2", "--max-path", "3", "--bits-per-hash", "4"]


def test_train_flags_left_out_take_the_train_config_defaults():
    assert _config(tr.TrainConfig, build_parser().parse_args(TRAIN_REQUIRED)) == tr.TrainConfig(epochs=5)


def test_train_flags_set_their_train_config_fields():
    args = build_parser().parse_args(TRAIN_REQUIRED + TRAIN_SET)
    assert _config(tr.TrainConfig, args) == tr.TrainConfig(
        epochs=5, seed=3, learning_rate=0.01, batch_size=8, beta=0.5, lam=2.0
    )


def test_fingerprint_flags_left_out_take_the_fp_config_defaults():
    args = build_parser().parse_args(["fingerprint", "--smiles", "CCO"])
    assert _config(FpConfig, args, target_density=0.0) == FpConfig(target_density=0.0)


def test_fingerprint_flags_set_their_fp_config_fields():
    args = build_parser().parse_args(["fingerprint", "--smiles", "CCO", *FINGERPRINT_SET])
    assert _config(FpConfig, args, target_density=0.0) == FpConfig(
        nbits=64, min_path=2, max_path=3, bits_per_hash=4, target_density=0.0
    )


@pytest.mark.parametrize(
    "argv, cls, own",
    [
        (TRAIN_REQUIRED, tr.TrainConfig, {"data", "property", "out", "max_atoms"}),
        (["fingerprint", "--smiles", "CCO"], FpConfig, {"smiles"}),
    ],
)
def test_each_flag_is_a_config_field_or_read_by_the_command(argv, cls, own):
    """A flag spelled apart from its field still carries the field's name, so
    `_config` cannot miss it."""
    dests = set(vars(build_parser().parse_args(argv))) - {"command", "fn", "json"}
    assert dests - own <= {f.name for f in fields(cls)}


def test_reconstruct_threshold_defaults_to_the_model_edge_threshold():
    args = build_parser().parse_args(["reconstruct", "--ckpt", "m", "--smiles", "CCO"])
    assert args.threshold == vaemodel.EDGE_THRESHOLD


def test_missing_required_flag_exits_usage():
    with pytest.raises(SystemExit) as ei:
        main(["validate"])
    assert ei.value.code == EXIT_USAGE


# -- inference commands --------------------------------------------------


def test_encode_json(ckpt, capsys):
    rc, payload = run_json(
        capsys, ["encode", "--ckpt", str(ckpt["ckpt"]), "--smiles", "CCO"]
    )
    assert rc == 0
    assert len(payload["pooled"]) == 64
    assert sum(payload["pooled"]) == pytest.approx(3.0, abs=1e-9)


def test_encode_bad_smiles_is_io_error(ckpt):
    assert main(["encode", "--ckpt", str(ckpt["ckpt"]), "--smiles", "(("]) == EXIT_IO


def test_encode_missing_checkpoint():
    assert main(["encode", "--ckpt", "/nonexistent.ckpt", "--smiles", "C"]) == EXIT_IO


def test_reconstruct_json(ckpt, capsys):
    rc, payload = run_json(
        capsys, ["reconstruct", "--ckpt", str(ckpt["ckpt"]), "--smiles", "CCO"]
    )
    assert rc == 0
    assert list(payload) == ["edge_probabilities", "offending", "smiles", "valid"]
    assert len(payload["edge_probabilities"]) == 3


def test_reconstruct_encodes_once(ckpt, monkeypatch, capsys):
    calls = []
    real = encoder.encode

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(encoder, "encode", counting)
    assert main(["reconstruct", "--ckpt", str(ckpt["ckpt"]), "--smiles", "CCO"]) == 0
    assert len(calls) == 1


def test_reconstruct_names_a_writer_error_other_than_disconnected(ckpt, monkeypatch, capsys):
    # All pairs bonded: the complete graph on 20 atoms needs more than 99 ring labels at once.
    monkeypatch.setattr(vaemodel, "decode_probs", lambda mol, params: np.ones((mol.n_atoms, mol.n_atoms)))
    argv = ["reconstruct", "--ckpt", str(ckpt["ckpt"]), "--smiles", "C" * 20]
    assert main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "reconstructed: <not written: needs more than 99 ring-closure labels at once>"
    rc, payload = run_json(capsys, argv)
    assert (rc, payload["smiles"]) == (0, None)


def test_predict_json(ckpt, capsys):
    rc, payload = run_json(
        capsys, ["predict", "--ckpt", str(ckpt["ckpt"]), "--smiles", "CC"]
    )
    assert rc == 0
    assert isinstance(payload["prediction"], float)


# -- similarity ----------------------------------------------------------


def test_similar_tanimoto_json(capsys):
    rc, payload = run_json(
        capsys,
        ["similar", "--smiles", "CCO", "--smiles", "CCO", "--metric", "tanimoto"],
    )
    assert rc == 0
    assert payload["similarity"] == 1.0


def test_similar_needs_two_smiles(capsys):
    assert main(["similar", "--smiles", "CCO"]) == EXIT_USAGE


def test_similar_latent_requires_ckpt(capsys):
    rc = main(
        ["similar", "--smiles", "C", "--smiles", "CC", "--metric", "latent"]
    )
    assert rc == EXIT_USAGE


def test_similar_latent(ckpt, capsys):
    rc, payload = run_json(
        capsys,
        [
            "similar",
            "--ckpt", str(ckpt["ckpt"]),
            "--smiles", "CCO",
            "--smiles", "CCN",
            "--metric", "latent",
        ],
    )
    assert rc == 0
    assert 0.0 < payload["similarity"] <= 1.0


# -- fingerprint / validate / gradcheck ----------------------------------


def test_fingerprint_json(capsys):
    rc, payload = run_json(capsys, ["fingerprint", "--smiles", "CCO"])
    assert rc == 0
    assert len(payload["hex"]) == 2048 // 4
    assert payload["on_bits"] > 0
    assert payload["density"] == payload["on_bits"] / 2048


def test_validate_valid(capsys):
    rc, payload = run_json(capsys, ["validate", "--smiles", "CCO"])
    assert rc == 0
    assert payload == {"valid": True, "offending": []}


def test_validate_invalid_exit_code(capsys):
    rc, payload = run_json(capsys, ["validate", "--smiles", "[CH2]"])
    assert rc == EXIT_DOMAIN
    assert payload["valid"] is False
    assert payload["offending"] == [0]


def test_gradcheck_passes(capsys):
    rc, payload = run_json(capsys, ["gradcheck", "--seed", "0"])
    assert rc == 0
    assert payload["max_rel_error"] < 1e-5


def test_gradcheck_negative_seed_is_worded_like_train_config(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        tr.TrainConfig(seed=-1)


# -- bad flag values and bad checkpoints ----------------------------------


def _encode_edited(edit):
    """`encode` with a copy of the shared checkpoint whose document `edit` returns."""

    def make_argv(ckpt, tmp_path):
        doc = edit(json.loads(ckpt["ckpt"].read_text()))
        path = tmp_path / "edited.ckpt"
        path.write_text(json.dumps(doc))
        return ["encode", "--ckpt", str(path), "--smiles", "CCO"]

    return make_argv


def _edit_tensors(edit):
    def apply(doc):
        edit(doc["tensors"])
        return doc

    return _encode_edited(apply)


def _with_nan(tensor):
    arr = np.frombuffer(base64.b64decode(tensor["data"]), dtype="<f8").copy()
    arr[0] = np.nan
    return {**tensor, "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _fingerprint(*flags):
    return lambda ckpt, tmp_path: ["fingerprint", "--smiles", "CCO", *flags]


def _train(*flags):
    return lambda ckpt, tmp_path: [
        "train",
        "--data", str(ckpt["data"]),
        "--property", "heavy_atoms",
        "--epochs", "1",
        "--out", str(tmp_path / "out.ckpt"),
        *flags,
    ]


def _train_on(content: bytes):
    def make_argv(ckpt, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        return _train()(dict(ckpt, data=data), tmp_path)

    return make_argv


def _encode_bytes(ckpt, tmp_path):
    """`encode` with the shared checkpoint's bytes after one byte that is not UTF-8."""
    path = tmp_path / "edited.ckpt"
    path.write_bytes(b"\xff" + ckpt["ckpt"].read_bytes())
    return ["encode", "--ckpt", str(path), "--smiles", "CCO"]


def _encode_with(**config):
    return _encode_edited(lambda doc: {**doc, "config": {**doc["config"], **config}})


def _reconstruct(*flags, ckpt_path=None):
    return lambda ckpt, tmp_path: [
        "reconstruct", "--ckpt", ckpt_path or str(ckpt["ckpt"]), "--smiles", "CCO", *flags
    ]


BAD_INPUTS = {
    "nbits-not-multiple-of-8": (_fingerprint("--nbits", "12"), EXIT_USAGE),
    "nbits-zero": (_fingerprint("--nbits", "0"), EXIT_USAGE),
    "nbits-huge": (_fingerprint("--nbits", "80000000000000"), EXIT_USAGE),
    "min-path-above-max-path": (_fingerprint("--min-path", "5", "--max-path", "2"), EXIT_USAGE),
    "min-path-zero": (_fingerprint("--min-path", "0"), EXIT_USAGE),
    "bits-per-hash-zero": (_fingerprint("--bits-per-hash", "0"), EXIT_USAGE),
    "batch-zero": (_train("--batch", "0"), EXIT_USAGE),
    "epochs-negative": (_train("--epochs", "-1"), EXIT_USAGE),
    "lr-negative": (_train("--lr", "-1"), EXIT_USAGE),
    "lr-zero": (_train("--lr", "0"), EXIT_USAGE),
    "beta-negative": (_train("--beta", "-1"), EXIT_USAGE),
    "lambda-negative": (_train("--lambda", "-1"), EXIT_USAGE),
    "max-atoms-zero": (_train("--max-atoms", "0"), EXIT_USAGE),
    "seed-negative": (_train("--seed", "-1"), EXIT_USAGE),
    "gradcheck-seed-negative": (lambda ckpt, tmp_path: ["gradcheck", "--seed", "-1"], EXIT_USAGE),
    "bits-per-hash-above-nbits": (_fingerprint("--nbits", "64", "--bits-per-hash", "65"), EXIT_USAGE),
    "csv-only-non-finite-labels": (_train_on(b"smiles,heavy_atoms\nCC,nan\nCCO,inf\nC,-inf\n"), EXIT_IO),
    "csv-field-too-large": (_train_on(b"smiles,heavy_atoms\nCC,2\n" + b"C" * 131073 + b",1\n"), EXIT_IO),
    "csv-duplicate-property": (_train_on(b"smiles,heavy_atoms,heavy_atoms\nCC,2,2\nCCO,3,3\n"), EXIT_IO),
    "csv-not-utf8": (_train_on(b"smiles,heavy_atoms\nCC,2\nC\xe9,1\n"), EXIT_IO),
    "csv-is-a-directory": (lambda ckpt, tmp_path: _train()(dict(ckpt, data=tmp_path), tmp_path), EXIT_IO),
    "out-is-a-directory": (lambda ckpt, tmp_path: [*_train()(ckpt, tmp_path), "--out", str(tmp_path)], EXIT_IO),
    "checkpoint-not-utf8": (_encode_bytes, EXIT_IO),
    "checkpoint-is-a-directory": (
        lambda ckpt, tmp_path: ["encode", "--ckpt", str(tmp_path), "--smiles", "CCO"],
        EXIT_IO,
    ),
    "checkpoint-extra-config-key": (_encode_with(colour="blue"), EXIT_IO),
    "checkpoint-missing-config-key": (
        _encode_edited(lambda doc: {**doc, "config": {k: v for k, v in doc["config"].items() if k != "seed"}}),
        EXIT_IO,
    ),
    "checkpoint-nan-config-value": (_encode_with(learning_rate=float("nan")), EXIT_IO),
    "checkpoint-negative-dimensions": (
        _edit_tensors(lambda ts: ts["side.b2"].update(shape=[-1, -1])),
        EXIT_IO,
    ),
    "checkpoint-batch-zero": (_encode_with(batch_size=0), EXIT_IO),
    "checkpoint-fractional-epochs": (_encode_with(epochs=2.5), EXIT_IO),
    "checkpoint-boolean-epochs": (_encode_with(epochs=True), EXIT_IO),
    "checkpoint-negative-beta": (_encode_with(beta=-1.0), EXIT_IO),
    "checkpoint-top-level-list": (_encode_edited(lambda doc: [1, 2]), EXIT_IO),
    "checkpoint-version-2": (
        _encode_edited(lambda doc: {**doc, "version": 2, "config": {**doc["config"], "max_atoms": 20}}),
        EXIT_IO,
    ),
    "checkpoint-no-tensors": (
        _encode_edited(lambda doc: {k: v for k, v in doc.items() if k != "tensors"}),
        EXIT_IO,
    ),
    "checkpoint-tensors-not-object": (_encode_edited(lambda doc: {**doc, "tensors": []}), EXIT_IO),
    "checkpoint-missing-tensor": (_edit_tensors(lambda ts: ts.pop("pool.wp")), EXIT_IO),
    "checkpoint-extra-tensor": (_edit_tensors(lambda ts: ts.update(extra=ts["side.b2"])), EXIT_IO),
    "checkpoint-tensor-not-object": (_edit_tensors(lambda ts: ts.update({"pool.wp": [1]})), EXIT_IO),
    "checkpoint-wrong-shape": (
        _edit_tensors(lambda ts: ts["pool.wp"].update(shape=[64, 16])),
        EXIT_IO,
    ),
    "checkpoint-infinite-dimension": (
        _edit_tensors(lambda ts: ts["pool.wp"].update(shape=[float("inf"), 64])),
        EXIT_IO,
    ),
    "checkpoint-shape-overflows": (
        _edit_tensors(lambda ts: ts["pool.wp"].update(shape=[2**32, 2**32], data="")),
        EXIT_IO,
    ),
    "checkpoint-non-finite": (
        _edit_tensors(lambda ts: ts.update({"side.m1": _with_nan(ts["side.m1"])})),
        EXIT_IO,
    ),
    "threshold-nan": (_reconstruct("--threshold", "nan"), EXIT_USAGE),
    "threshold-above-one": (_reconstruct("--threshold", "1.5"), EXIT_USAGE),
    "threshold-checked-before-checkpoint": (
        _reconstruct("--threshold", "nan", ckpt_path="/nonexistent.ckpt"),
        EXIT_USAGE,
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exit_code(name, ckpt, tmp_path, capsys):
    make_argv, code = BAD_INPUTS[name]
    rc = main(make_argv(ckpt, tmp_path))
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out.ckpt").exists()


@pytest.mark.parametrize("name, file", [("csv-not-utf8", "bad.csv"), ("checkpoint-not-utf8", "edited.ckpt")])
def test_text_that_is_not_utf8_is_named_in_the_error(name, file, ckpt, tmp_path, capsys):
    make_argv, _ = BAD_INPUTS[name]
    main(make_argv(ckpt, tmp_path))
    assert str(tmp_path / file) in capsys.readouterr().err


@pytest.mark.parametrize("name", [
    "checkpoint-tensor-not-object",
    "checkpoint-negative-dimensions",
    "checkpoint-infinite-dimension",
    "checkpoint-shape-overflows",
    "checkpoint-wrong-shape",
    "checkpoint-non-finite",
])
def test_every_tensor_error_names_the_checkpoint(name, ckpt, tmp_path, capsys):
    make_argv, _ = BAD_INPUTS[name]
    main(make_argv(ckpt, tmp_path))
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'edited.ckpt'}: tensor ")


@pytest.mark.parametrize("name", ["csv-field-too-large", "csv-duplicate-property"])
def test_csv_the_reader_rejects_is_named_in_the_error(name, ckpt, tmp_path, capsys):
    make_argv, _ = BAD_INPUTS[name]
    main(make_argv(ckpt, tmp_path))
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'bad.csv'}: ")


def _mutate(doc, draw):
    """`doc`, a valid checkpoint document, with one key dropped or renamed, a
    shape changed, base64 data cut short, a value set to NaN, or the top
    level replaced; `draw` makes the choices."""
    kind = draw(st.sampled_from(["drop", "rename", "shape", "truncate", "nan", "top"]))
    if kind == "top":
        return draw(st.sampled_from([[], [1], "checkpoint", 1, None, float("nan")]))
    tensor = doc["tensors"][draw(st.sampled_from(sorted(doc["tensors"])))]
    if kind == "shape":
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2))
        flipped = [s * d for s, d in zip(signs, tensor["shape"])]
        shape = draw(st.one_of(
            st.just(flipped), st.just(tensor["shape"][::-1]), st.lists(st.integers(-3, 80), max_size=3)
        ))
        assume(shape != tensor["shape"])
        tensor["shape"] = shape
    elif kind == "truncate":
        tensor["data"] = tensor["data"][: draw(st.integers(0, len(tensor["data"]) - 1))]
    else:
        where = draw(st.sampled_from(["top", "config", "tensors", "tensor"]))
        target = {"top": doc, "config": doc["config"], "tensors": doc["tensors"], "tensor": tensor}[where]
        key = draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[key]
        elif kind == "rename":
            target[key + draw(st.sampled_from(["_", "x", " "]))] = target.pop(key)
        else:
            target[key] = float("nan")
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoint_exits_io_with_one_error_line(data, ckpt, tmp_path, capsys):
    doc = _mutate(json.loads(ckpt["ckpt"].read_text()), data.draw)
    path = tmp_path / "mutated.ckpt"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["encode", "--ckpt", str(path), "--smiles", "CCO"])
    captured = capsys.readouterr()
    assert rc == EXIT_IO
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
