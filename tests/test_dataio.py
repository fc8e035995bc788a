"""Tests for CSV ingestion, the bundled corpus, and checkpoint files."""

import base64
import csv
import io
import json

import numpy as np
import pytest

from molvae import dataio
from molvae.corpus import generate_corpus
from molvae.dataio import (
    Dataset,
    Record,
    load_bundled_corpus,
    load_checkpoint,
    load_csv,
    save_checkpoint,
)
from molvae.numkernel import ParamStore
from molvae.smiles import parse_smiles
from molvae.train import TrainConfig, train
from molvae.vaemodel import init_model_params


# -- CSV loading ---------------------------------------------------------


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("smiles,heavy_atoms\nCCO,3\nC,1\n")
    ds = load_csv(p)
    assert len(ds) == 2
    assert ds.records[0].properties == {"heavy_atoms": 3.0}
    assert list(ds.records[0].properties) == ["heavy_atoms"]
    assert ds.skipped_count == 0


def test_load_csv_skips_bad_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "smiles,heavy_atoms\n"
        "CCO,3\n"
        "not_a_smiles((,9\n"
        "CC,\n"
        "CC\n"
        f"{'C' * 30},30\n"
        ",3\n"
        "\n"
        " , \n"
    )
    ds = load_csv(p, max_atoms=20)
    assert len(ds) == 1
    # An empty SMILES cell does not parse; a row of blank cells is no row.
    assert ds.skipped == {"parse_error": 2, "bad_property": 2, "oversize": 1}


def test_load_csv_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"\xef\xbb\xbfsmiles,heavy_atoms\r\nCCO,3\r\n")
    ds = load_csv(p)
    assert [(r.smiles, r.properties) for r in ds.records] == [("CCO", {"heavy_atoms": 3.0})]
    p.write_bytes(b"\xef\xbb\xbfsmiles,heavy_atoms\nC\xe9,1\n")
    with pytest.raises(dataio.DataError, match="not UTF-8"):
        load_csv(p)


def test_load_csv_non_finite_property_is_bad_property(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("smiles,x,y\nCCO,3,1\nCCN,nan,1\nCC,2,inf\nCO,-inf,1\nCN,1e400,1\nC,1,2\n")
    ds = load_csv(p)
    assert [r.smiles for r in ds.records] == ["CCO", "C"]
    assert ds.skipped == {"bad_property": 4}


def test_load_csv_counts_stripped_annotations_apart_from_skipped_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("smiles,x\n[13CH4],1\nF/C=C/F,4\nCCO,3\n")
    ds = load_csv(p)
    assert len(ds) == 3
    assert ds.stripped == 4  # two isotope digits, two stereo bond markers
    assert ds.skipped == {} and ds.skipped_count == 0
    # A row that is skipped adds nothing to the total.
    p.write_text("smiles,x\n[13CH4],1\nF/C=C/F,nan\n")
    ds = load_csv(p)
    assert (len(ds), ds.stripped, ds.skipped) == (1, 2, {"bad_property": 1})


def test_load_csv_bad_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("name,value\nfoo,1\n")
    with pytest.raises(dataio.DataError, match=f"^{p}: header must begin with 'smiles'$"):
        load_csv(p)
    p.write_text("")
    with pytest.raises(dataio.DataError, match=f"^{p}: empty file$"):
        load_csv(p)


def test_load_csv_repeated_property_is_bad_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("smiles,y,x,y\nCCO,1,2,3\n")
    with pytest.raises(dataio.DataError, match=f"^{p}: header repeats property 'y'$"):
        load_csv(p)


def test_load_csv_blank_header_cell_names_no_property(tmp_path):
    # A blank header cell's column is not read, so blank cells under it do not
    # make every row a bad property, and two blank header cells are no repeat.
    p = tmp_path / "d.csv"
    for text in ("smiles,y,\nCC,1,\nCCO,2,\n", "smiles, ,y\nCC,,1\nCCO,,2\n", "smiles,,y,\nCC,,1,\nCCO,x,2\n"):
        p.write_text(text)
        ds = load_csv(p)
        assert [(r.smiles, r.properties) for r in ds.records] == [("CC", {"y": 1.0}), ("CCO", {"y": 2.0})], text
        assert ds.skipped == {}, text


def test_load_csv_row_the_csv_module_rejects_is_a_data_error_naming_its_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("smiles,y\nCC,2\n" + "C" * (csv.field_size_limit() + 1) + ",1\n")
    with pytest.raises(dataio.DataError, match=f"^{p}: line 3: field larger than field limit"):
        load_csv(p)


def test_load_csv_empty_after_filtering(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("smiles,x\nbogus((,1\n")
    with pytest.raises(dataio.DataError, match=f"^{p}: no usable rows$"):
        load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


# -- dataset split -------------------------------------------------------


def test_split_sizes_and_disjointness():
    ds = load_bundled_corpus()
    a, b = ds.split(0.8, seed=0)
    assert len(a) + len(b) == len(ds)
    assert len(a) == round(0.8 * len(ds))
    ids_a = {id(r) for r in a.records}
    assert all(id(r) not in ids_a for r in b.records)


def test_split_deterministic():
    ds = load_bundled_corpus()
    a1, _ = ds.split(0.8, seed=3)
    a2, _ = ds.split(0.8, seed=3)
    assert [r.smiles for r in a1.records] == [r.smiles for r in a2.records]


# -- bundled corpus ------------------------------------------------------


def test_bundled_corpus_contents():
    ds = load_bundled_corpus()
    assert len(ds) == 505
    assert list(ds.records[0].properties) == ["heavy_atoms"]
    for rec in ds.records:
        assert rec.properties["heavy_atoms"] == rec.mol.n_atoms
    # The five reference drugs are present.
    smis = {r.smiles for r in ds.records}
    assert "CC(=O)Oc1ccccc1C(=O)O" in smis  # aspirin


def test_bundled_corpus_all_valid():
    from molvae.chem import check_valence

    ds = load_bundled_corpus()
    assert all(check_valence(r.mol).valid for r in ds.records)


def test_bundled_corpus_is_what_generate_corpus_writes():
    # The same rows and CSV dialect as scripts/generate_corpus.py: the parser,
    # the writer and the corpus constants all feed the committed file.
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["smiles", "heavy_atoms"])
    writer.writerows(generate_corpus())
    assert out.getvalue().encode("utf-8") == dataio.bundled_corpus_path().read_bytes()


# -- checkpoints ---------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = init_model_params(seed=0)
    cfg = TrainConfig(epochs=7, beta=0.25, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, cfg, path)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert sorted(loaded.names()) == sorted(params.names())
    for name, t in params.items():
        assert np.array_equal(loaded[name].data, t.data)


def test_checkpoint_round_trip_keeps_the_trained_store_order_and_buffer(tmp_path):
    # The file lists tensors by sorted name; the loaded store must still be in
    # the trained store's order, so that its flat buffer is the same one.
    records = [Record(s, parse_smiles(s), {"y": float(len(s))}) for s in ("CCO", "C=C", "CC(C)O")]
    trained, _ = train(Dataset(records), "y", TrainConfig(epochs=2, batch_size=2))
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained, TrainConfig(), path)
    loaded, _ = load_checkpoint(path)
    assert loaded.names() == trained.names()
    assert np.array_equal(loaded.flat, trained.flat)


def test_checkpoint_is_versioned_json(tmp_path):
    params = ParamStore({"w": np.eye(2)})
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, TrainConfig(), path)
    doc = json.loads(path.read_text())
    assert doc["version"] == dataio.CHECKPOINT_VERSION
    assert doc["tensors"]["w"]["shape"] == [2, 2]


def test_checkpoint_byte_identical_for_same_params(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(init_model_params(seed=0), TrainConfig(), p1)
    save_checkpoint(init_model_params(seed=0), TrainConfig(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_version_mismatch(tmp_path):
    params = ParamStore({"w": np.eye(2)})
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, TrainConfig(), path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(dataio.DataError, match=f"^{path}: checkpoint version 99, this build reads 3$"):
        load_checkpoint(path)


def test_version_1_checkpoint_is_a_version_mismatch(tmp_path):
    # Version 1 files still carry the since-removed `threshold` config field;
    # they must fail on the version, not on the config.
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_model_params(seed=0), TrainConfig(), path)
    doc = json.loads(path.read_text())
    doc["version"] = 1
    doc["config"]["threshold"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(dataio.DataError, match=f"^{path}: checkpoint version 1, this build reads 3$"):
        load_checkpoint(path)


def test_version_2_checkpoint_is_a_version_mismatch(tmp_path):
    # Version 2 files still carry the since-removed `max_atoms` config field;
    # they must fail on the version, not on the config.
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_model_params(seed=0), TrainConfig(), path)
    doc = json.loads(path.read_text())
    doc["version"] = 2
    doc["config"]["max_atoms"] = 20
    path.write_text(json.dumps(doc))
    with pytest.raises(dataio.DataError, match=f"^{path}: checkpoint version 2, this build reads 3$"):
        load_checkpoint(path)


def test_checkpoint_corrupt_tensor(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_model_params(seed=0), TrainConfig(), path)
    doc = json.loads(path.read_text())
    tensor = doc["tensors"]["pool.wp"]
    tensor["data"] = base64.b64encode(base64.b64decode(tensor["data"])[:-8]).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(dataio.DataError, match=f"^{path}: tensor 'pool.wp' has .* bytes, expected "):
        load_checkpoint(path)


def test_checkpoint_invalid_json(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("{not json")
    with pytest.raises(dataio.DataError):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.ckpt")
