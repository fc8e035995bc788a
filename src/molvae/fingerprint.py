"""Subgraph bit fingerprints and classical similarity metrics (the latent one is `vaemodel`'s)."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import NamedTuple

import numpy as np

from .chem import BOND_CHAR, MolGraph, aromatic_atoms
from .vaemodel import latent_similarity, pooled_vector  # noqa: F401

# Shortest length density folding may reach (RDKit's minSize).
_MIN_FOLD_BITS = 64
# Longest fingerprint FpConfig accepts, 512 times the default: hashing
# allocates one byte per bit, and the hex is nbits / 4 characters.
_MAX_NBITS = 2**20

# 0-d uint64 arrays: in-place array arithmetic with them wraps mod 2**64
# silently, and skips converting a Python int on every call.
_FNV_PRIME = np.array(0x100000001B3, dtype=np.uint64)
_GOLDEN_GAMMA = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)
_MIX1 = np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)
_MIX2 = np.array(0x94D049BB133111EB, dtype=np.uint64)


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
        if not 0 < self.nbits <= _MAX_NBITS or self.nbits % 8:
            raise ValueError(f"nbits must be a positive multiple of 8 up to {_MAX_NBITS}, got {self.nbits}")
        if not 1 <= self.min_path <= self.max_path:
            raise ValueError(
                f"need 1 <= min_path <= max_path, got {self.min_path} and {self.max_path}"
            )
        if not 1 <= self.bits_per_hash <= self.nbits:  # a key cannot set more bits than there are
            raise ValueError(
                f"need 1 <= bits_per_hash <= nbits, got {self.bits_per_hash} and {self.nbits}"
            )
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

    @cached_property
    def _folds(self) -> dict[int, int]:
        """The word folded to each shorter length a comparison has asked for."""
        return {}

    def _folded(self, n: int) -> int:
        """The word folded to n bits, folded once per n; a LengthMismatch stores nothing."""
        word = self._folds.get(n)
        if word is None:
            word = self._folds[n] = _fold_word(self.word, self.nbits, n)
        return word


# Byte b with its bit order reversed, so that bit 0 becomes the high bit.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _end_masks(mol: MolGraph) -> list[tuple[int, int]]:
    """Per bond slot, bit masks over bond slots (bit s is slot s) of the bonds at its two atoms."""
    at_atom = [0] * mol.n_atoms
    for slot, (i, j, _) in enumerate(mol.bonds):
        at_atom[i] |= 1 << slot
        at_atom[j] |= 1 << slot
    return [(at_atom[i], at_atom[j]) for i, j, _ in mol.bonds]


def enumerate_subgraphs(mol: MolGraph, min_len: int, max_len: int) -> list[int]:
    """All connected bond subgraphs of min_len..max_len bonds, each once, as
    bit masks over bond slots (bit s is slot s).

    ESU (Wernicke 2006) on the bond line graph grows each subgraph once, from
    its lowest slot, only by the slots of its extension, all above that root.
    Adding the extension's lowest slot passes on its other slots plus the
    added slot's neighbours that nothing in the subgraph touched.
    """
    touching = [a | b for a, b in _end_masks(mol)]  # slot -> it and the slots sharing an atom
    found = [1 << root for root in range(len(touching))] if min_len <= 1 <= max_len else []
    for root, near in enumerate(touching):
        above = -(2 << root)  # every slot above the root
        # (subgraph, it and its neighbour slots, slots it may grow by, its size once grown)
        stack = [(1 << root, near, near & above, 2)] if max_len > 1 else []
        while stack:
            sub, seen, ext, size = stack.pop()
            while ext:
                low = ext & -ext
                ext ^= low
                grown = sub | low
                if size >= min_len:
                    found.append(grown)
                if size < max_len:
                    reach = touching[low.bit_length() - 1]
                    stack.append((grown, seen | reach, ext | (reach & ~seen & above), size + 1))
    return found


class KeyTable(NamedTuple):
    """One molecule's bond descriptors, for every in-subgraph degree of the bond's ends."""

    # bond slot -> bit masks over bond slots (bit s is slot s) of the bonds at its two atoms
    end_masks: list[tuple[int, int]]
    # bond slot -> [in-subgraph degree of end 0, less 1][degree of end 1, less 1] -> descriptor
    descs: list[list[list[str]]]


def key_table(mol: MolGraph) -> KeyTable:
    """Descriptors such as "C1-c2" for every bond and every pair of end degrees.

    An atom is its element (lower-case if it carries an aromatic bond)
    followed by its degree inside the subgraph; a descriptor is the
    lexicographically smaller of the two atom orders around the bond
    character, so it does not depend on atom numbering.
    """
    aromatic = aromatic_atoms(mol)
    sym = [a.element.lower() if k in aromatic else a.element for k, a in enumerate(mol.atoms)]
    end_masks, descs = _end_masks(mol), []
    for (i, j, t), (a, b) in zip(mol.bonds, end_masks):
        ch = BOND_CHAR[t]
        descs.append([
            [
                min(f"{sym[i]}{di}{ch}{sym[j]}{dj}", f"{sym[j]}{dj}{ch}{sym[i]}{di}")
                for dj in range(1, b.bit_count() + 1)
            ]
            for di in range(1, a.bit_count() + 1)
        ])
    return KeyTable(end_masks, descs)


def canonical_subgraph_key(table: KeyTable, subgraph: int) -> str:
    """Sorted bond descriptors of `subgraph`, a bit mask over bond slots
    (bit s is slot s), joined by "|"."""
    end_masks, descs = table
    found, rest = [], subgraph
    while rest:
        slot = rest.bit_length() - 1
        rest ^= 1 << slot
        a, b = end_masks[slot]
        found.append(descs[slot][(subgraph & a).bit_count() - 1][(subgraph & b).bit_count() - 1])
    return "|".join(sorted(found))


def fnv1a64_array(keys: Sequence[str]) -> np.ndarray:
    """FNV-1a 64-bit hash of each ASCII key, in key order, as a uint64 array.

    The keys are hashed together one byte column at a time, longest first,
    so column c touches only the leading rows: the keys longer than c.
    """
    lengths = list(map(len, keys))
    order = sorted(range(len(keys)), key=lengths.__getitem__, reverse=True)
    pad = max(lengths, default=0) or 1
    # Row r holds the r-th longest key, padded with zero bytes; column c is its byte c.
    rows = np.array([keys[k] for k in order], dtype=f"S{pad}").view(np.uint8)
    columns = np.ascontiguousarray(rows.reshape(len(keys), pad).T, dtype=np.uint64)
    h = np.full(len(keys), 0xCBF29CE484222325, dtype=np.uint64)
    start, live = 0, len(keys)
    for end, count in sorted(Counter(lengths).items()):
        head = h[:live]  # the keys at least `end` bytes long
        for column in columns[start:end, :live]:
            head ^= column
            head *= _FNV_PRIME
        start, live = end, live - count
    out = np.empty_like(h)
    out[order] = h
    return out


def splitmix64_array(states: np.ndarray, rounds: int) -> np.ndarray:
    """The first `rounds` splitmix64 outputs from each uint64 state, shape (rounds, n)."""
    # Round k's state is states + k*gamma, all rounds at once: uint64 wraps as k additions do.
    state = states + np.arange(1, rounds + 1, dtype=np.uint64)[:, None] * _GOLDEN_GAMMA
    z = state >> 30
    z ^= state
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def hash_keys(keys: Sequence[str], bits_per_hash: int, nbits: int) -> int:
    """Word with bits_per_hash bits set for each key, in one pass over all keys.

    A key's bits are the first bits_per_hash splitmix64 outputs seeded with
    its FNV-1a hash, each taken mod nbits. No keys give word 0.
    """
    if not keys:
        return 0
    on = np.zeros(nbits, dtype=np.uint8)
    on[splitmix64_array(fnv1a64_array(keys), bits_per_hash) % nbits] = 1
    return int.from_bytes(np.packbits(on, bitorder="little").tobytes(), "little")


def path_fingerprint(mol: MolGraph, cfg: FpConfig = FpConfig()) -> Fingerprint:
    """Branched-subgraph fingerprint, folded towards `cfg.target_density`.

    `enumerate_subgraphs` gives every connected bond subgraph of
    min_path..max_path bonds once, as a bit mask over bond slots (bit s is
    slot s); `canonical_subgraph_key` keys each mask, and `hash_keys` sets
    bits_per_hash of nbits bits for each distinct key.
    """
    table = key_table(mol)
    keys = {
        canonical_subgraph_key(table, subgraph)
        for subgraph in enumerate_subgraphs(mol, cfg.min_path, cfg.max_path)
    }
    word = hash_keys(list(keys), cfg.bits_per_hash, cfg.nbits)
    return fold_to_density(Fingerprint.from_word(word, cfg.nbits), cfg.target_density)


def _fold_word(word: int, nbits: int, n: int) -> int:
    """`word` of nbits bits with bit b moved to b mod n, by ORing halves together.

    Raises LengthMismatch unless nbits is a power-of-two multiple of n.
    """
    ratio, rest = divmod(nbits, n)
    if rest or ratio & (ratio - 1):
        raise LengthMismatch(f"fingerprint lengths {nbits} vs {n}")
    while nbits > n:
        nbits //= 2
        word = (word >> nbits) | (word & ((1 << nbits) - 1))
    return word


def fold_to_density(f: Fingerprint, target: float) -> Fingerprint:
    """Fold in halves while density < target and the result keeps >= 64 bits."""
    word, nbits = f.word, f.nbits
    while word.bit_count() / nbits < target and nbits % 2 == 0 and nbits // 2 >= _MIN_FOLD_BITS:
        word, nbits = _fold_word(word, nbits, nbits // 2), nbits // 2
    return f if nbits == f.nbits else Fingerprint.from_word(word, nbits)


def _counts(a: Fingerprint, b: Fingerprint) -> tuple[int, int, int, float | None]:
    """Common/own on-bit counts, after folding the longer fingerprint down, and
    every metric's score when a fingerprint is empty: 1.0 when both are (they
    are identical), 0.0 when one is (they share nothing), None when neither is."""
    x, y = a.word, b.word
    if a.nbits > b.nbits:
        x = a._folded(b.nbits)
    elif b.nbits > a.nbits:
        y = b._folded(a.nbits)
    na, nb = x.bit_count(), y.bit_count()
    empty = None if na and nb else 1.0 if na == nb else 0.0
    return (x & y).bit_count(), na, nb, empty


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    c, na, nb, empty = _counts(a, b)
    return c / (na + nb - c) if empty is None else empty


def dice(a: Fingerprint, b: Fingerprint) -> float:
    c, na, nb, empty = _counts(a, b)
    return 2.0 * c / (na + nb) if empty is None else empty


def cosine(a: Fingerprint, b: Fingerprint) -> float:
    c, na, nb, empty = _counts(a, b)
    return c / sqrt(na * nb) if empty is None else empty
