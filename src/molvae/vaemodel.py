"""Latent sampling, inner-product decoder, side predictor, the joint loss, and
every use of a trained model, through one mu-only encoder pass over a batch
that records no tape."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import chem, encoder, numkernel as nk
from .chem import Atom, BondType, MolGraph, ValidityReport
from .encoder import FEATURE_DIM, HIDDEN_DIM, LATENT_DIM, POOL_DIM
from .numkernel import ParamStore, Tensor

_P_CLAMP = 1e-12

# A pair is bonded in a reconstruction when its decoded probability exceeds this.
EDGE_THRESHOLD = 0.5
# Most atoms `molvae reconstruct` takes: it decodes and prints all n x n edge
# probabilities, so 1,024 keeps them at 2^20, the cap of `--nbits`.
RECONSTRUCT_MAX_ATOMS = 1024
_BOND_TYPES = tuple(BondType)  # indexed by value

# Every learnable tensor of the model, in the order `init_model_params` draws them.
PARAM_SHAPES = {
    **encoder.ENCODER_PARAM_SHAPES,
    **encoder.POOL_PARAM_SHAPES,
    "side.m1": (POOL_DIM, HIDDEN_DIM),
    "side.b1": (1, HIDDEN_DIM),
    "side.m2": (HIDDEN_DIM, 1),
    "side.b2": (1, 1),
}


def init_model_params(seed: int) -> ParamStore:
    """All learnable tensors of the model from one seed: the side MLP's biases
    zero, every other tensor Glorot-uniform."""
    rng = np.random.default_rng(seed)
    return ParamStore({
        name: np.zeros(shape) if name.startswith("side.b") else encoder.glorot_uniform(rng, *shape)
        for name, shape in PARAM_SHAPES.items()
    })


class LossBreakdown(NamedTuple):
    """A loss's terms and total; its fields are the history CSV's columns after `epoch`."""

    recon: float
    kl: float
    side: float
    total: float


def sample_latent(mu: Tensor, log_std: Tensor, noise: np.ndarray) -> Tensor:
    """Reparameterized draw, as one op: Z = mu + exp(log_std) * noise."""
    if mu.shape != log_std.shape or mu.shape != noise.shape:
        raise nk.NumericError(
            f"latent shapes {mu.shape} / {log_std.shape} / {noise.shape}"
        )
    std = np.exp(log_std.data)
    return nk.Tensor(mu.data + std * noise, (mu, log_std), lambda g: (g, g * noise * std), "sample_latent")


def kl_term(mu: Tensor, log_std: Tensor) -> Tensor:
    """Closed-form KL of the diagonal Gaussian posterior to the standard
    normal, as one op: 0.5 * sum(mu^2 + e^(2 log_std) - 2 log_std - 1)."""
    if mu.shape != log_std.shape:
        raise nk.NumericError(f"kl shapes {mu.shape} vs {log_std.shape}")
    two_log_std = log_std.data * 2.0
    var = np.exp(two_log_std)
    total = (mu.data * mu.data + var - two_log_std).sum()
    value = (total + -float(mu.data.size)) * 0.5
    return nk.Tensor(value, (mu, log_std), lambda g: (g * mu.data, g * (var - 1.0)), "kl_term")


def recon_bce(p: Tensor, adjacency: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over unordered atom pairs, as a constant: a
    numpy reference for the loss's `bce_with_logits` form.

    The typed adjacency collapses to a binary target: a pair is positive when
    any bond connects it. Zero atom pairs (single-atom molecules) give 0.
    """
    n = adjacency.shape[0]
    if p.shape != (n, n):
        raise nk.NumericError(f"probability shape {p.shape} vs {n} atoms")
    i, j = np.triu_indices(n, 1)
    if i.size == 0:
        return nk.constant(np.array(0.0))
    target = adjacency.sum(axis=2)[i, j] > 0
    pc = np.clip(p.data[i, j], _P_CLAMP, 1.0 - _P_CLAMP)
    return nk.constant(np.array(-np.where(target, np.log(pc), np.log(1.0 - pc)).mean()))


def side_predict(g: Tensor, store: ParamStore) -> Tensor:
    """Two-layer MLP (ELU hidden, linear output), as one op: a pooled vector
    gives a scalar, a (B, 64) stack of them gives B outputs. Checked finite."""
    if g.data.ndim not in (1, 2) or g.shape[-1] != POOL_DIM:
        raise nk.NumericError(f"side predictor input shape {g.shape}, not (64,) or (B, 64)")
    m1, b1, m2, b2 = (store[f"side.{name}"] for name in ("m1", "b1", "m2", "b2"))
    rows = g.data.reshape(-1, POOL_DIM)
    hidden, back = encoder.elu(rows @ m1.data + b1.data)

    def grad_fn(g_out):
        g_out = g_out.reshape(-1, 1)
        g_hidden = back(g_out @ m2.data.T)
        return (
            (g_hidden @ m1.data.T).reshape(g.shape),
            rows.T @ g_hidden,
            g_hidden.sum(axis=0, keepdims=True),
            hidden.T @ g_out,
            g_out.sum(axis=0, keepdims=True),
        )

    out = (hidden @ m2.data + b2.data).reshape(g.shape[:-1])
    return nk.checked(nk.Tensor(out, (g, m1, b1, m2, b2), grad_fn, "side_predict"))


def total_loss(recon: Tensor, kl: Tensor, side: Tensor, beta: float, lam: float) -> Tensor:
    """The joint loss recon + (beta kl + lam side) of its three scalar terms, as one op."""
    beta, lam = float(beta), float(lam)
    value = recon.data + (kl.data * beta + side.data * lam)
    return nk.Tensor(value, (recon, kl, side), lambda g: (g, g * beta, g * lam), "total_loss")


# An atom's (element index, charge, H count, heavy degree), clamped to
# [_LOW, _HIGH] and shifted by _BASE, are its four one-hot feature columns.
_LOW = np.array([0, -1, 0, 0])
_HIGH = np.array([len(chem.ELEMENTS) - 1, 1, 4, 4])
_BASE = np.array([0, 11, 13, 18])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges [starts[k], starts[k] + counts[k]) laid end to end."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


@dataclass
class MolTensors:
    """Encoder and loss constants of a batch of molecules, taken as one
    disjoint-union graph.

    Molecule b's atoms are `sizes[b]` consecutive rows of `features`. `types`
    are the bond types the batch has, in increasing order, and `edges` is the
    one edge list of `encoder.encode`: bond type types[k]'s directed edges,
    molecule by molecule, in slot k, so an edge into atom i has dst
    i + k * n for n atoms. `layout` orders each molecule's atom pairs i < j,
    and `pair_target` marks, in that order, which of them are bonded: it is
    read from the edge list when it is first read.
    """

    features: np.ndarray
    types: tuple[int, ...]
    edges: nk.Edges
    layout: nk.PairLayout

    @cached_property
    def pair_target(self) -> np.ndarray:
        rows, m = self.layout.rows, self.layout.m
        dense = np.zeros(self.sizes.size * m * m)  # the (B, m, m) padded blocks
        e = self.edges
        dense[rows[e.dst % len(self.features)] * m + rows[e.src] % m] = 1.0
        return dense[self.layout.pairs]

    @property
    def sizes(self) -> np.ndarray:
        return self.layout.sizes

    @classmethod
    def from_mols(cls, mols: list[MolGraph]) -> "MolTensors":
        """The tensors of `mols`, laid end to end: each molecule's atom
        indices shift past the atoms before it.

        One Python pass gathers each atom's element, charge and H count, and
        each bond's shifted ends under its type; the rest is whole-array
        work. A feature row is four one-hots:
        element (10) | charge in {-1, 0, +1}, clamped (3) | implicit H 0..4
        (5) | heavy-atom degree 0..4, clamped (5) | zero pad to 32.
        """
        sizes, cols = [], []
        dsts = [[] for _ in range(chem.N_BOND_TYPES)]
        srcs = [[] for _ in range(chem.N_BOND_TYPES)]
        off = 0
        for mol in mols:
            n = len(mol.atoms)
            sizes.append(n)
            for a in mol.atoms:
                cols += (chem.ELEMENT_INDEX[a.element], a.formal_charge, a.implicit_h, 0)
            for i, j, t in mol.bonds:
                dsts[t] += (i + off, j + off)
                srcs[t] += (j + off, i + off)
            off += n
        n = off
        types = tuple(r for r, dst in enumerate(dsts) if dst)
        dst = np.fromiter(itertools.chain(*(dsts[r] for r in types)), np.int64)
        src = np.fromiter(itertools.chain(*(srcs[r] for r in types)), np.int64, dst.size)
        end = 0
        for k, r in enumerate(types):  # bond type types[k] fills slot k
            dst[end : end + len(dsts[r])] += k * n
            end += len(dsts[r])
        deg = np.bincount(dst, minlength=len(types) * n)
        cols = np.fromiter(cols, np.int64, len(cols)).reshape(n, 4)
        cols[:, 3] = np.bincount(src, minlength=n)
        np.minimum(np.maximum(cols, _LOW, out=cols), _HIGH, out=cols)  # np.clip dispatches slower
        cols += _BASE
        features = np.zeros((n, FEATURE_DIM))
        features[np.arange(n)[:, None], cols] = 1.0
        return cls(features, types, nk.Edges(dst, src, 1.0 / deg[dst]), nk.PairLayout(sizes))

    @classmethod
    def from_mol(cls, mol: MolGraph) -> "MolTensors":
        return cls.from_mols([mol])

    @cached_property
    def _where(self) -> np.ndarray:
        """A (2R + 2, B) table of each molecule's atom count and first row,
        then where its edges start in each of the R slots of `edges`, then
        how many there are."""
        lo = np.cumsum(self.sizes) - self.sizes
        # `dst` runs slot by slot and, in a slot, molecule by molecule, so the
        # atoms of a molecule bound its edges in each slot even though `dst`
        # is not sorted within one.
        starts = np.arange(len(self.types))[:, None] * len(self.features) + lo
        first, last = np.searchsorted(self.edges.dst, (starts, starts + self.sizes))
        return np.vstack([self.sizes, lo, first, last - first])

    def select(self, idx) -> "MolTensors":
        """The tensors of molecules `idx`, in that order, as `from_mols` of
        them would build them: each one's rows and edges, renumbered."""
        idx = np.asarray(idx, dtype=np.int64)
        depth, where = len(self.types), self._where[:, idx]
        sizes, lo, first, counts = where[0], where[1], where[2 : 2 + depth], where[2 + depth :]
        shift = np.cumsum(sizes) - sizes - lo  # each chosen molecule's move
        per_slot = counts.sum(axis=1).tolist()
        kept = [s for s, c in enumerate(per_slot) if c]  # the slots that keep edges
        m, n, e = int(sizes.sum()), len(self.features), self.edges
        k = _ranges(first.ravel(), counts.ravel())
        moved = np.repeat(np.tile(shift, depth), counts.ravel())
        reslot = np.array([j * m - s * n for j, s in enumerate(kept)], np.int64)  # slot s becomes slot j
        dst = e.dst[k] + moved + np.repeat(reslot, [per_slot[s] for s in kept])
        return MolTensors(
            features=self.features[_ranges(lo, sizes)],
            types=tuple(self.types[s] for s in kept),
            edges=nk.Edges(dst, e.src[k] + moved, e.w[k]),
            layout=nk.PairLayout(sizes),
        )


def joint_loss(
    mol: MolGraph | MolTensors,
    label,
    store: ParamStore,
    noise: np.ndarray,
    beta: float = 1.0,
    lam: float = 1.0,
) -> tuple[Tensor, LossBreakdown]:
    """Full forward pass; returns the scalar loss node and its breakdown.

    `mol` is the MolTensors of a batch, with one `label` per molecule and one
    `noise` row per atom, or one molecule, as the gradient checks and the
    acceptance tests pass it. A batch's loss and breakdown are the sums over
    its molecules, built on one tape. The loss is checked finite.
    """
    mt = mol if isinstance(mol, MolTensors) else MolTensors.from_mol(mol)
    labels = np.asarray(label, dtype=np.float64).reshape(-1)
    if labels.shape != mt.sizes.shape:
        raise nk.NumericError(f"{labels.size} labels for {mt.sizes.size} molecules")
    mu, log_std = encoder.encode(mt, store, "mu", "sigma")
    z = sample_latent(mu, log_std, noise)
    counts = mt.layout.counts  # each molecule's recon term is its mean over its pairs
    weight = np.repeat(1.0 / np.maximum(counts, 1), counts)
    recon = nk.bce_with_logits(nk.block_products(z, mt.layout), mt.layout.pairs, mt.pair_target, weight)
    kl = kl_term(mu, log_std)
    g = encoder.pool(mu, store, mt.sizes)
    side = nk.squared_error(side_predict(g, store), labels)
    total = nk.checked(total_loss(recon, kl, side, beta, lam))
    breakdown = LossBreakdown(
        recon=recon.item(), kl=kl.item(), side=side.item(), total=total.item()
    )
    return total, breakdown


def _mu(mt: MolTensors, store: ParamStore) -> Tensor:
    """Mu of a batch from one encoder pass over its union that builds only
    the mu head: the deterministic latent code of inference."""
    return encoder.encode(mt, store, "mu")[0]


def pooled_vectors(mt: MolTensors, store: ParamStore) -> np.ndarray:
    """(B, 64) pooled vectors of a built batch: softmax pooling over Mu, from
    one tape-free pass, checked finite."""
    return nk.tape_free(lambda: encoder.pool(_mu(mt, store), store, mt.sizes)).data


def decoded_blocks(mt: MolTensors, store: ParamStore) -> np.ndarray:
    """Deterministic edge probabilities (Z = Mu, no sampling) of a built
    batch: the padded (B, m, m) stack of logistic(z zᵀ), one block per
    molecule, from one tape-free pass, checked finite. Molecule b's n x n
    probabilities are `[b, :n, :n]`; its pairs i < j, in `pair_target`
    order, are `.reshape(-1)[layout.pairs]`."""
    return nk.tape_free(lambda: nk.logistic(nk.block_products(_mu(mt, store), mt.layout))).data


def decode_probs(mol: MolGraph, store: ParamStore) -> np.ndarray:
    """`decoded_blocks` of one molecule, which needs no padding: its n x n
    edge probabilities."""
    return decoded_blocks(MolTensors.from_mol(mol), store)[0]


def pooled_vector(mol: MolGraph, store: ParamStore) -> np.ndarray:
    """`pooled_vectors` of one molecule: its pooled 64-vector."""
    return pooled_vectors(MolTensors.from_mol(mol), store)[0]


def predict(mol: MolGraph, store: ParamStore) -> float:
    """Side-predictor output for a molecule, from its pooled Mu: encoder,
    pooling and side MLP in one tape-free pass."""
    mt = MolTensors.from_mol(mol)
    return float(nk.tape_free(lambda: side_predict(encoder.pool(_mu(mt, store), store, mt.sizes), store)).data[0])


def latent_similarity(mol1: MolGraph, mol2: MolGraph, store: ParamStore) -> float:
    """Similarity 1/(1+d) between normalized pooled vectors, each molecule pooled alone."""
    units = []
    for g in (pooled_vector(mol1, store), pooled_vector(mol2, store)):
        norm = np.linalg.norm(g)
        if norm == 0.0:
            raise nk.NumericError("pooled vector has zero norm")
        units.append(g / norm)
    return 1.0 / (1.0 + float(np.linalg.norm(units[0] - units[1])))


def reconstruct(
    mol: MolGraph, store: ParamStore, threshold: float = EDGE_THRESHOLD
) -> tuple[MolGraph, ValidityReport]:
    """Deterministic reconstruction of a molecule's bond structure."""
    return reconstruct_from_probs(mol, decode_probs(mol, store), threshold)


def reconstruct_from_probs(
    mol: MolGraph, probs: np.ndarray, threshold: float = EDGE_THRESHOLD
) -> tuple[MolGraph, ValidityReport]:
    """Rebuild `mol`'s bonds from decoded edge probabilities.

    `probs` is n x n, and only its strict upper triangle is read: edges are
    the pairs i < j whose decoded probability exceeds the threshold; the bond
    type is copied from the input where the pair was bonded there, otherwise
    Single. Implicit hydrogens are refit to the lowest valid count per atom;
    atoms with no valid count are reported as offending.
    """
    n = mol.n_atoms
    if np.shape(probs) != (n, n):
        raise nk.NumericError(f"probability shape {np.shape(probs)} vs {n} atoms")
    types = np.zeros((n, n), dtype=np.int64)  # BondType.SINGLE is 0
    for i, j, t in mol.bonds:
        types[i, j] = types[j, i] = t  # a graph not made by `chem.build` may list a bond as (j, i)
    rows, cols = np.nonzero(probs > threshold)  # row by row
    upper = rows < cols  # the pairs i < j
    rows, cols = rows[upper], cols[upper]
    kinds = map(_BOND_TYPES.__getitem__, types[rows, cols].tolist())
    bonds = list(zip(rows.tolist(), cols.tolist(), kinds))
    order = chem.bond_order_sums(n, bonds)
    atoms = []
    offending = []
    for i, atom in enumerate(mol.atoms):
        h = chem.fill_implicit_h(atom.element, atom.formal_charge, order[i])
        if h is None:
            offending.append(i)
            h = 0
        atoms.append(Atom(atom.element, atom.formal_charge, h))
    # Every other atom's H count reaches an allowed valence by construction.
    return chem.build(atoms, bonds), ValidityReport(valid=not offending, offending=tuple(offending))
