"""Subgraph bit fingerprints, classical similarity metrics, latent metric."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chem import BOND_CHAR, MolGraph, adjacency, aromatic_atoms
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


@dataclass(frozen=True, init=False)
class Fingerprint:
    """An nbits-long bit vector held in one int: bit b is `word >> b & 1`."""

    word: int
    nbits: int

    def __init__(self, bits: Iterable[int], nbits: int):
        word = 0
        for b in bits:
            word |= 1 << b
        if word >> nbits:
            raise ValueError(f"a bit position lies outside {nbits} bits")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "nbits", nbits)

    @classmethod
    def from_word(cls, word: int, nbits: int) -> Fingerprint:
        f = cls.__new__(cls)
        object.__setattr__(f, "word", word)
        object.__setattr__(f, "nbits", nbits)
        return f

    @property
    def bits(self) -> frozenset[int]:
        """The on-bit positions."""
        return frozenset(b for b, digit in enumerate(f"{self.word:b}"[::-1]) if digit == "1")

    @property
    def on_count(self) -> int:
        return self.word.bit_count()

    @property
    def density(self) -> float:
        return self.on_count / self.nbits

    def to_hex(self) -> str:
        """Hex string, nbits/4 chars; bit 0 is the high bit of the first digit."""
        return self.word.to_bytes(self.nbits // 8, "little").translate(_BIT_REVERSED).hex()


# Byte b with its bit order reversed, so that bit 0 becomes the high bit.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


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


class KeyTable(NamedTuple):
    """One molecule's bond descriptors, for every in-subgraph degree of the bond's ends."""

    ends: list[tuple[int, int]]  # bond slot -> its two atoms
    # bond slot -> [in-subgraph degree of end 0, less 1][degree of end 1, less 1] -> descriptor
    descs: list[list[list[str]]]
    n_atoms: int


def key_table(mol: MolGraph) -> KeyTable:
    """Descriptors such as "C1-c2" for every bond and every pair of end degrees.

    An atom is its element (lower-case if it carries an aromatic bond)
    followed by its degree inside the subgraph; a descriptor is the
    lexicographically smaller of the two atom orders around the bond
    character, so it does not depend on atom numbering.
    """
    aromatic = aromatic_atoms(mol)
    sym = [a.element.lower() if k in aromatic else a.element for k, a in enumerate(mol.atoms)]
    degree = [len(nbrs) for nbrs in adjacency(mol)]
    ends, descs = [], []
    for i, j, t in mol.bonds:
        ch = BOND_CHAR[t]
        ends.append((i, j))
        descs.append([
            [
                min(f"{sym[i]}{di}{ch}{sym[j]}{dj}", f"{sym[j]}{dj}{ch}{sym[i]}{di}")
                for dj in range(1, degree[j] + 1)
            ]
            for di in range(1, degree[i] + 1)
        ])
    return KeyTable(ends, descs, mol.n_atoms)


def canonical_subgraph_key(table: KeyTable, subgraph: frozenset[int]) -> str:
    """Sorted bond descriptors of a bond subgraph of `table`'s molecule, joined by "|"."""
    ends, descs, n_atoms = table
    degree = [-1] * n_atoms  # in-subgraph degree less 1: the index into descs
    for slot in subgraph:
        i, j = ends[slot]
        degree[i] += 1
        degree[j] += 1
    return "|".join(sorted([descs[s][degree[ends[s][0]]][degree[ends[s][1]]] for s in subgraph]))


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
    `canonical_subgraph_key`; each distinct key seeds splitmix64 with its
    FNV-1a hash and sets bits_per_hash of nbits bits.
    """
    table = key_table(mol)
    keys = {
        canonical_subgraph_key(table, subgraph)
        for subgraph in enumerate_subgraphs(mol, cfg.min_path, cfg.max_path)
    }
    word = 0
    for key in keys:
        gen = splitmix64(fnv1a64(key.encode("ascii")))
        for _ in range(cfg.bits_per_hash):
            word |= 1 << (next(gen) % cfg.nbits)
    return fold_to_density(Fingerprint.from_word(word, cfg.nbits), cfg.target_density)


def _fold_word(word: int, nbits: int, n: int) -> int:
    """`word` of nbits bits with bit b moved to b mod n, by ORing halves together.

    Raises LengthMismatch unless nbits is a power-of-two multiple of n.
    """
    if nbits == n:
        return word
    ratio, rest = divmod(nbits, n)
    if rest or ratio & (ratio - 1):
        raise LengthMismatch(f"fingerprint lengths {nbits} vs {n}")
    while nbits > n:
        nbits //= 2
        word = (word >> nbits) | (word & ((1 << nbits) - 1))
    return word


def fold(f: Fingerprint, nbits: int) -> Fingerprint:
    """OR `f`'s halves together until it is nbits long (bit b -> b mod nbits).

    Raises LengthMismatch unless f.nbits is a power-of-two multiple of nbits.
    """
    if f.nbits == nbits:
        return f
    return Fingerprint.from_word(_fold_word(f.word, f.nbits, nbits), nbits)


def fold_to_density(f: Fingerprint, target: float) -> Fingerprint:
    """Fold in halves while density < target and the result keeps >= 64 bits."""
    word, nbits = f.word, f.nbits
    while word.bit_count() / nbits < target and nbits % 2 == 0 and nbits // 2 >= _MIN_FOLD_BITS:
        word, nbits = _fold_word(word, nbits, nbits // 2), nbits // 2
    return f if nbits == f.nbits else Fingerprint.from_word(word, nbits)


def _counts(a: Fingerprint, b: Fingerprint) -> tuple[int, int, int]:
    """Common/own on-bit counts, after folding the longer fingerprint down."""
    n = min(a.nbits, b.nbits)
    x, y = _fold_word(a.word, a.nbits, n), _fold_word(b.word, b.nbits, n)
    return (x & y).bit_count(), x.bit_count(), y.bit_count()


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
