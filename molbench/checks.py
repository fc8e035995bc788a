"""Correctness checks on what a workload computed.

Training checks hold the model to `reference.py`, an independent numpy
forward pass. Screening checks hold for the method whatever the hashing;
the last one, on the query ranking, also holds whatever the training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from molvae import chem, fingerprint, numkernel, smiles, vaemodel

from . import reference as ref
from .workloads import PROPERTY, THRESHOLD, TOP_K, Round, State, Trained, config

REL_TOL = 1e-9
GRAD_TOL = 1e-6
FD_EPS = 1e-5
GRAD_MOLECULES = 3
COORDS_PER_TENSOR = 2
SAMPLE = 60  # library molecules renumbered and trimmed per run


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _arrays(params: numkernel.ParamStore) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.items()}


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b), initial=0.0) / max(1.0, float(np.max(np.abs(b), initial=0.0))))


def _noise(rng: np.random.Generator, mol) -> np.ndarray:
    return rng.standard_normal((mol.n_atoms, vaemodel.LATENT_DIM))


def training_checks(w, st: State, models: list[Trained], rng: np.random.Generator) -> list[Check]:
    """`models` holds every trained model of the run; the last is the one checked."""
    cfg = config(w)
    model = models[-1]
    p = _arrays(model.params)
    out = []

    worst = 0.0
    for rec in st.heldout.records:
        label = float(rec.properties[PROPERTY])
        noise = _noise(rng, rec.mol)
        got, _ = vaemodel.joint_loss(rec.mol, label, model.params, noise, beta=cfg.beta, lam=cfg.lam)
        want = ref.loss(p, rec.mol, label, noise, cfg.beta, cfg.lam)
        worst = max(worst, abs(got.item() - want) / max(abs(want), 1e-300))
    out.append(Check(
        "joint_loss_matches_reference", worst <= REL_TOL,
        f"worst relative error {worst:.1e} over {len(st.heldout)} held-out molecules",
    ))

    worst = 0.0
    n_coords = 0
    picks = rng.choice(len(st.heldout), size=min(GRAD_MOLECULES, len(st.heldout)), replace=False)
    for k in picks:
        rec = st.heldout.records[int(k)]
        label = float(rec.properties[PROPERTY])
        noise = _noise(rng, rec.mol)
        total, _ = vaemodel.joint_loss(rec.mol, label, model.params, noise, beta=cfg.beta, lam=cfg.lam)
        grads = numkernel.backward(total, model.params)
        analytic, numeric = [], []
        for name, arr in p.items():
            for idx in rng.choice(arr.size, size=min(COORDS_PER_TENSOR, arr.size), replace=False):
                flat = arr.reshape(-1)
                orig = flat[idx]
                flat[idx] = orig + FD_EPS
                hi = ref.loss(p, rec.mol, label, noise, cfg.beta, cfg.lam)
                flat[idx] = orig - FD_EPS
                lo = ref.loss(p, rec.mol, label, noise, cfg.beta, cfg.lam)
                flat[idx] = orig
                numeric.append((hi - lo) / (2.0 * FD_EPS))
                analytic.append(grads[name].reshape(-1)[idx])
        a, n = np.array(analytic), np.array(numeric)
        worst = max(worst, float(np.max(np.abs(a - n)) / max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)))
        n_coords += a.size
    out.append(Check(
        "backward_matches_central_differences", worst < GRAD_TOL,
        f"normwise error {worst:.1e} over {n_coords} coordinates of {len(picks)} molecules",
    ))

    first, last = model.history[0].total, model.history[-1].total
    out.append(Check("loss_fell", last < first, f"epoch mean loss {first:.4g} -> {last:.4g}"))

    finite = all(np.all(np.isfinite(t.data)) for _, t in model.trained.items())
    out.append(Check("parameters_finite", finite, f"{len(model.trained)} tensors"))

    same = sorted(model.params.names()) == sorted(model.trained.names()) and all(
        np.array_equal(model.params[n].data, model.trained[n].data) for n in model.trained.names()
    )
    out.append(Check("checkpoint_round_trip", same, "save_checkpoint -> load_checkpoint"))

    base = models[0].trained
    det = all(
        m.auc == models[0].auc
        and all(np.array_equal(m.trained[n].data, base[n].data) for n in base.names())
        for m in models[1:]
    )
    out.append(Check("training_deterministic", det, f"{len(models)} train.train calls agree"))
    return out


def _renumber(mol, perm) -> chem.MolGraph:
    """New index perm[i] holds old atom i."""
    atoms = [None] * mol.n_atoms
    for i, a in enumerate(mol.atoms):
        atoms[perm[i]] = a
    return chem.build(atoms, [(perm[i], perm[j], t) for i, j, t in mol.bonds])


def _drop_terminal(mol, rng) -> chem.MolGraph | None:
    """The molecule without one degree-1 atom whose bond is not aromatic; None if there is none."""
    ends = [
        i for i in range(mol.n_atoms)
        if mol.degree(i) == 1 and mol.neighbors(i)[0][1] != chem.BondType.AROMATIC
    ]
    if not ends:
        return None
    gone = ends[int(rng.integers(len(ends)))]
    index = {old: new for new, old in enumerate(k for k in range(mol.n_atoms) if k != gone)}
    atoms = [a for k, a in enumerate(mol.atoms) if k != gone]
    bonds = [(index[i], index[j], t) for i, j, t in mol.bonds if gone not in (i, j)]
    return chem.build(atoms, bonds)


def _bitset(bits) -> int:
    x = 0
    for b in bits:
        x |= 1 << b
    return x


def _fold(x: int, nbits: int, n: int) -> int:
    """Bit b -> b mod n, for n dividing nbits: OR the n-bit chunks together."""
    out, mask = 0, (1 << n) - 1
    for _ in range(nbits // n):
        out |= x & mask
        x >>= n
    return out


def _popcount_top(query: tuple[int, int], lib: list[tuple[int, int]]) -> list[tuple[int, float]]:
    """Top-k by Tanimoto on integer bitsets, both folded to the shorter length."""
    scores = []
    for x, nx in lib:
        n = min(query[1], nx)
        a, b = _fold(query[0], query[1], n), _fold(x, nx, n)
        na, nb, c = a.bit_count(), b.bit_count(), (a & b).bit_count()
        if na == 0 and nb == 0:
            scores.append(1.0)
        elif na == 0 or nb == 0:
            scores.append(0.0)
        else:
            scores.append(c / (na + nb - c))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:TOP_K]
    return [(i, scores[i]) for i in order]


def screening_checks(st: State, rnd: Round, queries: list[str], rng: np.random.Generator) -> list[Check]:
    params = rnd.model.params
    p = _arrays(params)
    out = []
    done = [
        k for k in range(len(st.library))
        if rnd.fps[k] is not None and rnd.embeds[k] is not None and rnd.recons[k] is not None
    ]

    sample = rng.choice(done, size=min(SAMPLE, len(done)), replace=False)
    bad_perm, bad_subset, trimmed = 0, 0, 0
    unfolded = fingerprint.FpConfig(target_density=0.0)
    for k in sample:
        mol = st.library[int(k)][1]
        moved = _renumber(mol, rng.permutation(mol.n_atoms))
        g = rnd.embeds[int(k)][0]
        if fingerprint.path_fingerprint(moved) != rnd.fps[int(k)] or _rel(
            fingerprint.pooled_vector(moved, params), g
        ) > REL_TOL:
            bad_perm += 1
        smaller = _drop_terminal(mol, rng)
        if smaller is not None:
            trimmed += 1
            big = fingerprint.path_fingerprint(mol, unfolded)
            small = fingerprint.path_fingerprint(smaller, unfolded)
            if small.nbits != big.nbits or not small.bits <= big.bits:
                bad_subset += 1
    out.append(Check(
        "renumbering_invariance", bad_perm == 0,
        f"{bad_perm} of {len(sample)} renumbered molecules changed fingerprint or pooled vector",
    ))
    out.append(Check(
        "terminal_atom_subset", bad_subset == 0,
        f"{bad_subset} of {trimmed} trimmed molecules set a bit the whole molecule does not",
    ))

    worst_sum, worst_ref, bad_bonds, ambiguous, bad_rt, written = 0.0, 0.0, 0, 0, 0, 0
    for k in done:
        mol = st.library[k][1]
        g, pred = rnd.embeds[k]
        worst_sum = max(worst_sum, abs(g.sum() - mol.n_atoms) / mol.n_atoms)
        mu, _ = ref.encode(p, mol)
        g_ref = ref.pooled(p, mu)
        probs_ref = ref.edge_probs(mu)
        probs = vaemodel.decode_probs(mol, params)
        worst_ref = max(
            worst_ref, _rel(g, g_ref), _rel(pred, ref.side(p, g_ref)), _rel(probs, probs_ref)
        )
        _, out_mol, _, smi, _ = rnd.recons[k]
        got = {(i, j) for i, j, _ in out_mol.bonds}
        iu = np.triu_indices(mol.n_atoms, k=1)
        clear = np.abs(probs_ref[iu] - THRESHOLD) > REL_TOL
        ambiguous += int((~clear).sum())
        want = {(int(i), int(j)) for i, j, pr, c in zip(*iu, probs_ref[iu], clear) if c and pr > THRESHOLD}
        unsure = {(int(i), int(j)) for i, j, c in zip(*iu, clear) if not c}
        if got - unsure != want:
            bad_bonds += 1
        if smi is not None:
            written += 1
            if not chem.is_isomorphic(smiles.parse_smiles(smi), out_mol):
                bad_rt += 1
    out.append(Check(
        "pooled_vector_sums_to_atom_count", worst_sum <= REL_TOL,
        f"worst relative error {worst_sum:.1e} over {len(done)} molecules",
    ))
    out.append(Check(
        "inference_matches_reference", worst_ref <= REL_TOL,
        f"pooled_vector, side_predict, decode_probs: worst error {worst_ref:.1e} over {len(done)} molecules",
    ))
    out.append(Check(
        "reconstruct_bonds_match_reference", bad_bonds == 0,
        f"{bad_bonds} of {len(done)} bond sets differ; {ambiguous} pairs within {REL_TOL:g} of the threshold",
    ))
    out.append(Check(
        "written_smiles_reparse_isomorphic", bad_rt == 0,
        f"{bad_rt} of {written} written reconstructions",
    ))

    lib = [(_bitset(f.bits), f.nbits) for f in rnd.fps if f is not None]
    bad_top, ran = 0, 0
    for q, top in zip(queries, rnd.tops):
        if top is None:
            continue
        ran += 1
        f = fingerprint.path_fingerprint(smiles.parse_smiles(q))
        if _popcount_top((_bitset(f.bits), f.nbits), lib) != top:
            bad_top += 1
    out.append(Check(
        "query_top10_matches_popcount_tanimoto", bad_top == 0,
        f"{bad_top} of {ran} queries ranked differently",
    ))
    return out


def input_checks(st: State) -> list[Check]:
    skipped = st.dataset.skipped_count
    return [Check("inputs_loaded_whole", skipped == 0, f"{len(st.dataset)} rows, {skipped} skipped")]
