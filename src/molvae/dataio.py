"""Dataset ingestion (CSV), checkpoint persistence, bundled corpus."""

from __future__ import annotations

import base64
import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .chem import MolGraph
from .numkernel import ParamStore
from .smiles import SmilesError, parse_smiles_ex
from .train import TrainConfig
from .vaemodel import PARAM_SHAPES

CHECKPOINT_VERSION = 3

# The default size limit: `load_csv` skips molecules with more heavy atoms.
MAX_ATOMS = 20


class DataError(ValueError):
    """A CSV or checkpoint file is malformed; the message starts with the file's path."""


@dataclass(frozen=True)
class Record:
    smiles: str
    mol: MolGraph
    properties: dict[str, float]


@dataclass
class Dataset:
    records: list[Record]
    skipped: dict[str, int] = field(default_factory=dict)
    # Stereo and isotope characters the parser dropped from the loaded rows'
    # SMILES; such a row is still loaded, so this is not part of `skipped`.
    stripped: int = 0

    def __len__(self) -> int:
        return len(self.records)

    @property
    def skipped_count(self) -> int:
        return sum(self.skipped.values())

    def split(self, frac: float, seed: int) -> tuple["Dataset", "Dataset"]:
        """Seeded shuffle split into (first frac, rest)."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.records))
        cut = int(round(frac * len(self.records)))
        first = [self.records[i] for i in order[:cut]]
        rest = [self.records[i] for i in order[cut:]]
        return Dataset(first), Dataset(rest)


def _csv_rows(path: Path, text: str):
    """The CSV rows of `text`; a row the csv module cannot read is a DataError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc


def load_csv(path: str | Path, max_atoms: int = MAX_ATOMS) -> Dataset:
    """Read a `smiles,<prop>...` CSV, skipping rows that do not parse, are
    oversize, or have a property value that is missing or not finite."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")  # Excel's "CSV UTF-8" starts with a byte-order mark
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    skipped: dict[str, int] = {}
    records: list[Record] = []
    stripped = 0
    rows = _csv_rows(path, text)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if not header or header[0].strip().lower() != "smiles":
        raise DataError(f"{path}: header must begin with 'smiles'")
    # Column -> property name; a blank header cell names none, and its column is not read.
    columns = {k: h.strip() for k, h in enumerate(header[1:], 1) if h.strip()}
    prop_names = list(columns.values())
    repeated = sorted({name for name in prop_names if prop_names.count(name) > 1})
    if repeated:
        raise DataError(f"{path}: header repeats property {', '.join(map(repr, repeated))}")
    for row in rows:
        if not "".join(row).strip():  # every cell blank
            continue
        smi = row[0].strip()
        try:
            parsed = parse_smiles_ex(smi)
        except SmilesError:
            skipped["parse_error"] = skipped.get("parse_error", 0) + 1
            continue
        mol = parsed.mol
        if mol.n_atoms > max_atoms:
            skipped["oversize"] = skipped.get("oversize", 0) + 1
            continue
        try:
            props = {name: float(row[k]) for k, name in columns.items()}
            if not all(map(math.isfinite, props.values())):
                raise ValueError("non-finite property value")
        except (IndexError, ValueError):
            skipped["bad_property"] = skipped.get("bad_property", 0) + 1
            continue
        records.append(Record(smiles=smi, mol=mol, properties=props))
        stripped += parsed.stripped
    if not records:
        raise DataError(f"{path}: no usable rows")
    return Dataset(records=records, skipped=skipped, stripped=stripped)


def bundled_corpus_path() -> Path:
    """Path of the packaged desk-scale corpus CSV."""
    return Path(resources.files("molvae").joinpath("data/corpus.csv"))


def load_bundled_corpus() -> Dataset:
    return load_csv(bundled_corpus_path())


# -- checkpoints ---------------------------------------------------------


def _encode_tensor(arr: np.ndarray) -> dict:
    le = arr.astype("<f8", copy=False)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(le.tobytes()).decode("ascii"),
    }


def _read_tensor(path: Path, name: str, obj, shape: tuple[int, ...]) -> np.ndarray:
    """Tensor `name` of the checkpoint at `path`, which must be stored with the
    table's `shape`, hold exactly that many float64 values and be finite."""
    try:
        stored = obj["shape"]
        raw = base64.b64decode(obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: tensor {name!r} unreadable ({exc!r})") from exc
    if stored != list(shape):
        raise DataError(f"{path}: tensor {name!r} has shape {stored}, expected {list(shape)}")
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise DataError(f"{path}: tensor {name!r} has {len(raw)} bytes, expected {expected}")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: tensor {name!r} holds a non-finite value")
    return arr


def save_checkpoint(params: ParamStore, config: TrainConfig, path: str | Path) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "tensors": {name: _encode_tensor(t.data) for name, t in params.items()},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[ParamStore, TrainConfig]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    # ValueError covers UnicodeDecodeError, JSONDecodeError and an integer of
    # too many digits; RecursionError is arrays nested too deep.
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top level is not a JSON object")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    try:
        config = TrainConfig(**doc.get("config"))
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad training config ({exc})") from exc
    missing = sorted(asdict(config).keys() - doc["config"].keys())
    if missing:
        raise DataError(f"{path}: training config lacks {missing}")
    tensors = doc.get("tensors")
    if not isinstance(tensors, dict):
        raise DataError(f"{path}: no 'tensors' object")
    missing = sorted(PARAM_SHAPES.keys() - tensors.keys())
    extra = sorted(tensors.keys() - PARAM_SHAPES.keys())
    if missing or extra:
        raise DataError(f"{path}: tensors missing {missing}, unexpected {extra}")
    return ParamStore({
        name: _read_tensor(path, name, tensors[name], shape) for name, shape in PARAM_SHAPES.items()
    }), config
