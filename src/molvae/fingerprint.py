"""Subgraph bit fingerprints, classical similarity metrics, latent metric."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .chem import BOND_CHAR, MolGraph, aromatic_atoms
from .numkernel import ParamStore
from .vaemodel import pooled_vector

# Shortest length density folding may reach (RDKit's minSize).
_MIN_FOLD_BITS = 64


class LengthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class FpConfig:
    min_path: int = 1
    max_path: int = 7
    bits_per_hash: int = 2
    nbits: int = 2048
    # Fold the nbits-bit fingerprint in halves while its density is below
    # this, down to no fewer than 64 bits; 0.0 keeps exactly nbits.
    target_density: float = 0.3

    def __post_init__(self):
        if self.nbits <= 0 or self.nbits % 8:
            raise ValueError(f"nbits must be a positive multiple of 8, got {self.nbits}")
        if not 1 <= self.min_path <= self.max_path:
            raise ValueError(
                f"need 1 <= min_path <= max_path, got {self.min_path} and {self.max_path}"
            )
        if self.bits_per_hash < 1:
            raise ValueError(f"bits_per_hash must be at least 1, got {self.bits_per_hash}")
        if not 0.0 <= self.target_density <= 1.0:
            raise ValueError(f"target_density must lie in [0, 1], got {self.target_density}")


@dataclass(frozen=True)
class Fingerprint:
    bits: frozenset[int]
    nbits: int

    @property
    def on_count(self) -> int:
        return len(self.bits)

    @property
    def density(self) -> float:
        return self.on_count / self.nbits

    def to_hex(self) -> str:
        """Hex string, nbits/4 chars; bit 0 is the high bit of the first digit."""
        buf = bytearray(self.nbits // 8)
        for b in self.bits:
            buf[b // 8] |= 0x80 >> (b % 8)
        return buf.hex()


def enumerate_subgraphs(
    mol: MolGraph, min_len: int = 1, max_len: int = 7
) -> set[frozenset[int]]:
    """All connected bond subgraphs of min_len..max_len bonds, as bond-slot sets.

    Grown one bond at a time from single bonds; a subgraph reached along
    several growth orders is kept once.
    """
    bond_list = list(mol.bonds)
    at_atom: list[list[int]] = [[] for _ in range(mol.n_atoms)]
    for slot, (i, j, _) in enumerate(bond_list):
        at_atom[i].append(slot)
        at_atom[j].append(slot)
    touching = [set(at_atom[i] + at_atom[j]) for i, j, _ in bond_list]

    found: set[frozenset[int]] = set()
    level = {frozenset((slot,)) for slot in range(len(bond_list))}
    for size in range(1, max_len + 1):
        if size >= min_len:
            found |= level
        if size == max_len:
            break
        level = {
            sub | {nxt}
            for sub in level
            for slot in sub
            for nxt in touching[slot]
            if nxt not in sub
        }
    return found


def canonical_subgraph_key(mol: MolGraph, subgraph: frozenset[int]) -> str:
    """Sorted bond descriptors of a bond subgraph, joined by "|".

    A descriptor is both end atoms and the bond character, e.g. "C1-c2"; an
    atom is its element (lower-case if it carries an aromatic bond) followed
    by its degree inside the subgraph. The lexicographically smaller of the
    two atom orders is used, so the key does not depend on atom numbering.
    """
    aromatic = aromatic_atoms(mol)
    bond_list = list(mol.bonds)
    degree = Counter()
    for slot in subgraph:
        i, j, _ = bond_list[slot]
        degree[i] += 1
        degree[j] += 1

    def atom(idx: int) -> str:
        sym = mol.atoms[idx].element
        return f"{sym.lower() if idx in aromatic else sym}{degree[idx]}"

    descs = []
    for slot in subgraph:
        i, j, t = bond_list[slot]
        ch = BOND_CHAR[t]
        descs.append(min(atom(i) + ch + atom(j), atom(j) + ch + atom(i)))
    return "|".join(sorted(descs))


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def splitmix64(state: int):
    """Deterministic 64-bit generator used to place fingerprint bits."""
    mask = 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def path_fingerprint(mol: MolGraph, cfg: FpConfig = FpConfig()) -> Fingerprint:
    """Branched-subgraph fingerprint, folded towards `cfg.target_density`.

    Every connected bond subgraph of min_path..max_path bonds is keyed by
    `canonical_subgraph_key`; each key seeds splitmix64 with its FNV-1a hash
    and sets bits_per_hash of nbits bits.
    """
    bits: set[int] = set()
    for subgraph in enumerate_subgraphs(mol, cfg.min_path, cfg.max_path):
        key = canonical_subgraph_key(mol, subgraph)
        gen = splitmix64(fnv1a64(key.encode("ascii")))
        for _ in range(cfg.bits_per_hash):
            bits.add(next(gen) % cfg.nbits)
    return fold_to_density(Fingerprint(frozenset(bits), cfg.nbits), cfg.target_density)


def fold(f: Fingerprint, nbits: int) -> Fingerprint:
    """OR `f`'s halves together until it is nbits long (bit b -> b mod nbits).

    Raises LengthMismatch unless f.nbits is a power-of-two multiple of nbits.
    """
    if f.nbits == nbits:
        return f
    ratio, rest = divmod(f.nbits, nbits)
    if rest or ratio & (ratio - 1):
        raise LengthMismatch(f"fingerprint lengths {f.nbits} vs {nbits}")
    return Fingerprint(frozenset(b % nbits for b in f.bits), nbits)


def fold_to_density(f: Fingerprint, target: float) -> Fingerprint:
    """Fold in halves while density < target and the result keeps >= 64 bits."""
    while f.density < target and f.nbits % 2 == 0 and f.nbits // 2 >= _MIN_FOLD_BITS:
        f = fold(f, f.nbits // 2)
    return f


def _counts(a: Fingerprint, b: Fingerprint) -> tuple[int, int, int]:
    """Common/own on-bit counts, after folding the longer fingerprint down."""
    n = min(a.nbits, b.nbits)
    a, b = fold(a, n), fold(b, n)
    return len(a.bits & b.bits), len(a.bits), len(b.bits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    c, na, nb = _counts(a, b)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return c / (na + nb - c)


def dice(a: Fingerprint, b: Fingerprint) -> float:
    c, na, nb = _counts(a, b)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return 2.0 * c / (na + nb)


def cosine(a: Fingerprint, b: Fingerprint) -> float:
    c, na, nb = _counts(a, b)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return c / np.sqrt(na * nb)


class ZeroVector(ArithmeticError):
    pass


def latent_similarity(mol1: MolGraph, mol2: MolGraph, store: ParamStore) -> float:
    """Similarity 1/(1+d) from the distance between normalized pooled vectors."""
    sims = []
    for mol in (mol1, mol2):
        g = pooled_vector(mol, store)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            raise ZeroVector("pooled vector has zero norm")
        sims.append(g / norm)
    d = float(np.linalg.norm(sims[0] - sims[1]))
    return 1.0 / (1.0 + d)
