"""Command-line interface: training, inference, similarity, verification."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import chem, dataio, fingerprint as fp, train as tr, vaemodel
from .chem import ChemError
from .corpus import random_molecule
from .numkernel import NumericError, grad_check
from .smiles import Disconnected, SmilesError, parse_smiles, write_smiles

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4


class _BadFlag(ValueError):
    pass


# The exit code of each error class a command may raise. An OSError is a path
# that is missing or a directory, or that cannot be read or written.
_EXIT_CODES = {
    _BadFlag: EXIT_USAGE,
    OSError: EXIT_IO,
    dataio.DataError: EXIT_IO,
    dataio.CheckpointError: EXIT_IO,
    SmilesError: EXIT_IO,
    ChemError: EXIT_DOMAIN,
    tr.TrainError: EXIT_DOMAIN,
    NumericError: EXIT_NUMERIC,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _config(cls, args, **fixed):
    """A `cls` from `fixed` and the flags given (a flag left out is None) whose dest is
    one of its fields; its defaults fill in the rest. A value it rejects is a usage error."""
    names = {f.name for f in fields(cls)}
    given = {name: v for name, v in vars(args).items() if name in names and v is not None}
    try:
        return cls(**given, **fixed)
    except ValueError as exc:
        raise _BadFlag(str(exc)) from None


def _writable(path: Path) -> Path:
    """`path`, once it is known to name no directory and to lie in one."""
    if path.is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"cannot write {path}: {path.parent} is not a directory")
    return path


def cmd_train(args) -> int:
    if args.max_atoms < 1:
        raise _BadFlag(f"--max-atoms must be at least 1, got {args.max_atoms}")
    config = _config(tr.TrainConfig, args)
    out = _writable(Path(args.out))
    history_path = _writable(out.with_suffix(out.suffix + ".history.csv"))
    dataset = dataio.load_csv(args.data, max_atoms=args.max_atoms)
    params, history = tr.train(dataset, args.property, config)
    dataio.save_checkpoint(params, config, out)
    with history_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "recon", "kl", "side", "total"])
        for epoch, bd in enumerate(history, start=1):
            writer.writerow([epoch, bd.recon, bd.kl, bd.side_mse, bd.total])
    payload = {
        "checkpoint": str(args.out),
        "history": str(history_path),
        "epochs": len(history),
        "final_total": history[-1].total if history else None,
        "skipped": dataset.skipped,
        "stripped": dataset.stripped,
    }
    plain = f"wrote {args.out}"
    if history:
        plain += f" ({len(history)} epochs, final total {history[-1].total:.6g})"
    if dataset.skipped:
        n, counts = dataset.skipped_count, ", ".join(f"{why}: {k}" for why, k in dataset.skipped.items())
        plain += f"; skipped {n} row{'s' * (n != 1)} ({counts})"
    if dataset.stripped:
        plain += f"; stripped {dataset.stripped} stereo/isotope character{'s' * (dataset.stripped != 1)}"
    _emit(args, payload, plain)
    return 0


def cmd_encode(args) -> int:
    params, _ = dataio.load_checkpoint(args.ckpt)
    mol = parse_smiles(args.smiles)
    g = vaemodel.pooled_vector(mol, params)
    _emit(args, {"pooled": [float(v) for v in g]}, "\n".join(f"{v:.17g}" for v in g))
    return 0


def cmd_reconstruct(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise _BadFlag(f"--threshold must be a number in [0, 1], got {args.threshold}")
    params, _ = dataio.load_checkpoint(args.ckpt)
    mol = parse_smiles(args.smiles)
    probs = vaemodel.decode_probs(mol, params)
    out, report = vaemodel.reconstruct_from_probs(mol, probs, args.threshold)
    try:
        smi = written = write_smiles(out)
    except Disconnected:
        smi, written = None, "<disconnected>"
    except SmilesError as exc:
        smi, written = None, f"<not written: {exc}>"
    payload = {
        "smiles": smi,
        "valid": report.valid,
        "offending": list(report.offending),
        "edge_probabilities": [[float(p) for p in row] for row in probs],
    }
    lines = [f"reconstructed: {written}", f"valid: {report.valid}"]
    if report.offending:
        lines.append(f"offending atoms: {list(report.offending)}")
    lines.append("edge probabilities:")
    lines += ["  " + " ".join(f"{p:.4f}" for p in row) for row in probs]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_predict(args) -> int:
    params, _ = dataio.load_checkpoint(args.ckpt)
    pred = vaemodel.predict(parse_smiles(args.smiles), params)
    _emit(args, {"prediction": pred}, f"{pred:.17g}")
    return 0


def cmd_similar(args) -> int:
    if len(args.smiles) != 2:
        raise _BadFlag("similar needs exactly two --smiles")
    if args.metric == "latent" and not args.ckpt:
        raise _BadFlag("--metric latent requires --ckpt")
    a, b = (parse_smiles(s) for s in args.smiles)
    if args.metric == "latent":
        params, _ = dataio.load_checkpoint(args.ckpt)
        value = vaemodel.latent_similarity(a, b, params)
    else:
        cfg = fp.FpConfig()
        fa, fb = fp.path_fingerprint(a, cfg), fp.path_fingerprint(b, cfg)
        value = {"tanimoto": fp.tanimoto, "dice": fp.dice, "cosine": fp.cosine}[
            args.metric
        ](fa, fb)
    _emit(args, {"metric": args.metric, "similarity": value}, f"{value:.17g}")
    return 0


def cmd_fingerprint(args) -> int:
    mol = parse_smiles(args.smiles)
    cfg = _config(fp.FpConfig, args, target_density=0.0)  # unfolded: the hex is exactly nbits wide
    f = fp.path_fingerprint(mol, cfg)
    payload = {"hex": f.to_hex(), "on_bits": f.on_count, "density": f.density}
    _emit(args, payload, f"{f.to_hex()}\ndensity: {f.density:.6f}")
    return 0


def cmd_validate(args) -> int:
    mol = parse_smiles(args.smiles)
    report = chem.check_valence(mol)
    payload = {"valid": report.valid, "offending": list(report.offending)}
    if report.valid:
        _emit(args, payload, "valid")
        return 0
    _emit(args, payload, f"invalid, offending atoms: {list(report.offending)}")
    return EXIT_DOMAIN


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise _BadFlag(f"seed must be at least 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    mol = random_molecule(rng, int(rng.integers(4, 11)))
    params = vaemodel.init_model_params(args.seed)
    noise = rng.standard_normal((mol.n_atoms, vaemodel.LATENT_DIM))
    label = float(rng.normal())

    def f(store):
        total, _ = vaemodel.joint_loss(mol, label, store, noise)
        return total

    err = grad_check(f, params)
    _emit(args, {"max_rel_error": err, "atoms": mol.n_atoms}, f"{err:.3e}")
    return 0 if err < 1e-5 else EXIT_NUMERIC


def build_parser() -> _Parser:
    parser = _Parser(prog="molvae", description="Graph VAE molecular toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    # A flag that sets a TrainConfig or FpConfig field has its name as dest and no default.
    p = add("train", cmd_train, help="train a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--property", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, dest="learning_rate", metavar="LR")
    p.add_argument("--batch", type=int, dest="batch_size", metavar="BATCH")
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda", type=float, dest="lam", metavar="LAMBDA")
    p.add_argument("--max-atoms", type=int, default=dataio.MAX_ATOMS, dest="max_atoms")

    p = add("encode", cmd_encode, help="print the pooled 64-vector of a molecule")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--smiles", required=True)

    p = add("reconstruct", cmd_reconstruct, help="decode a molecule's bond structure")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--smiles", required=True)
    p.add_argument("--threshold", type=float, default=vaemodel.EDGE_THRESHOLD)

    p = add("predict", cmd_predict, help="side-predictor output for a molecule")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--smiles", required=True)

    p = add("similar", cmd_similar, help="similarity between two molecules")
    p.add_argument("--ckpt")
    p.add_argument("--smiles", action="append", default=[])
    p.add_argument(
        "--metric",
        choices=["latent", "tanimoto", "dice", "cosine"],
        default="tanimoto",
    )

    p = add("fingerprint", cmd_fingerprint, help="unfolded subgraph fingerprint of a molecule")
    p.add_argument("--smiles", required=True)
    p.add_argument("--nbits", type=int)
    p.add_argument("--min-path", type=int, dest="min_path")
    p.add_argument("--max-path", type=int, dest="max_path")
    p.add_argument("--bits-per-hash", type=int, dest="bits_per_hash")

    p = add("validate", cmd_validate, help="valence check a molecule")
    p.add_argument("--smiles", required=True)

    p = add("gradcheck", cmd_gradcheck, help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # NonFiniteValue below reports a non-finite result once; numpy's warnings would repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
