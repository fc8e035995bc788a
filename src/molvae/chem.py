"""Molecular graph data model: atoms, typed bonds, valence rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

ELEMENTS = ("H", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")
ELEMENT_INDEX = {sym: i for i, sym in enumerate(ELEMENTS)}

# Allowed total valence (bond order sum + implicit hydrogens) per element at
# zero formal charge.
DEFAULT_VALENCES: dict[str, tuple[int, ...]] = {
    "H": (1,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "F": (1,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}


class ChemError(ValueError):
    """Base class for molecular graph construction errors."""


class BondType(IntEnum):
    SINGLE = 0
    DOUBLE = 1
    TRIPLE = 2
    AROMATIC = 3


_BOND_WEIGHTS = (1.0, 2.0, 3.0, 1.5)  # indexed by BondType

# SMILES bond symbols; fingerprint keys spell bonds with the same characters.
BOND_CHAR = {
    BondType.SINGLE: "-",
    BondType.DOUBLE: "=",
    BondType.TRIPLE: "#",
    BondType.AROMATIC: ":",
}

N_BOND_TYPES = len(BondType)


class Atom(NamedTuple):
    """An atom, equal to its (element, formal charge, implicit H) label."""

    element: str
    formal_charge: int = 0
    implicit_h: int = 0


@dataclass(frozen=True)
class MolGraph:
    """Undirected molecular graph; node order is fixed at construction."""

    atoms: tuple[Atom, ...]
    bonds: tuple[tuple[int, int, BondType], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def neighbors(self, i: int) -> list[tuple[int, BondType]]:
        return adjacency(self)[i]

    def degree(self, i: int) -> int:
        return len(adjacency(self)[i])


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    offending: tuple[int, ...]


def allowed_valences(element: str, formal_charge: int) -> tuple[int, ...]:
    """Allowed total valences; charge adjustment applies to N and O only."""
    base = DEFAULT_VALENCES.get(element)
    if base is None:
        return ()
    if formal_charge == 0:
        return base
    if element in ("N", "O") and -2 <= formal_charge <= 2:
        return tuple(v + formal_charge for v in base if v + formal_charge > 0)
    return ()


def fill_implicit_h(element: str, charge: int, bond_order: float) -> int | None:
    """Smallest H count (0-4) that reaches an allowed valence; None if none does."""
    rounded = math.ceil(bond_order - 1e-9)
    for v in allowed_valences(element, charge):  # ascending
        if 0 <= v - rounded <= 4:
            return v - rounded
    return None


def adjacency(mol: MolGraph) -> list[list[tuple[int, BondType]]]:
    """Per atom, its (neighbour, bond type) pairs in ascending neighbour order."""
    adj: list[list[tuple[int, BondType]]] = [[] for _ in range(mol.n_atoms)]
    for i, j, t in mol.bonds:
        adj[i].append((j, t))
        adj[j].append((i, t))
    for lst in adj:
        lst.sort()
    return adj


def bond_order_sums(n: int, bonds: Iterable[tuple[int, int, BondType]]) -> list[float]:
    """Per atom of n, the summed bond orders (Single 1, Double 2, Triple 3,
    Aromatic 1.5) of its bonds, added in the order the bonds are listed."""
    out = [0.0] * n
    weights = _BOND_WEIGHTS
    for i, j, t in bonds:
        w = weights[t]
        out[i] += w
        out[j] += w
    return out


def aromatic_atoms(mol: MolGraph) -> set[int]:
    """Indices of the atoms that carry at least one aromatic bond."""
    out = set()
    for i, j, t in mol.bonds:
        if t == BondType.AROMATIC:
            out.update((i, j))
    return out


def build(atoms: Sequence[Atom], bonds: Iterable[tuple[int, int, BondType]]) -> MolGraph:
    """Validate and canonicalize a molecular graph."""
    for element, charge, h in atoms:
        if element not in ELEMENT_INDEX:
            raise ChemError(f"unknown element symbol {element!r}")
        if not -2 <= charge <= 2:
            raise ChemError(f"formal charge {charge} outside [-2, +2]")
        if not 0 <= h <= 4:
            raise ChemError(f"implicit hydrogen count {h} outside [0, 4]")
    n = len(atoms)
    seen: set[tuple[int, int]] = set()
    ordered: list[tuple[int, int, BondType]] = []
    for i, j, t in bonds:
        if not (0 <= i < n and 0 <= j < n):
            raise ChemError(f"bond ({i}, {j}) references a missing atom")
        if i == j:
            raise ChemError(f"self-bond on atom {i}")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise ChemError(f"duplicate bond between atoms {i} and {j}")
        seen.add((i, j))
        ordered.append((i, j, t if isinstance(t, BondType) else BondType(t)))
    # The pairs are distinct, so the sort never compares two bond types.
    ordered.sort()
    return MolGraph(atoms=tuple(atoms), bonds=tuple(ordered))


def adjacency_tensor(mol: MolGraph) -> np.ndarray:
    """One-hot symmetric N x N x 4 bond tensor with a zero diagonal."""
    n = mol.n_atoms
    a = np.zeros((n, n, N_BOND_TYPES))
    for i, j, t in mol.bonds:
        a[i, j, t] = 1.0
        a[j, i, t] = 1.0
    return a


def check_valence(mol: MolGraph) -> ValidityReport:
    """Report atoms whose bond order sum plus implicit H is not an allowed valence.

    Aromatic bonds count 1.5; a half-integral total is rounded up before the
    comparison.
    """
    offending = []
    orders = bond_order_sums(mol.n_atoms, mol.bonds)
    for i, atom in enumerate(mol.atoms):
        total = orders[i] + atom.implicit_h
        rounded = math.ceil(total - 1e-9)
        if rounded not in allowed_valences(atom.element, atom.formal_charge):
            offending.append(i)
    return ValidityReport(valid=not offending, offending=tuple(offending))


def is_isomorphic(a: MolGraph, b: MolGraph) -> bool:
    """Label-preserving graph isomorphism via backtracking with pruning."""
    if a.n_atoms != b.n_atoms or len(a.bonds) != len(b.bonds):
        return False
    # Per atom, neighbour -> bond type.
    nb_a = [dict(pairs) for pairs in adjacency(a)]
    nb_b = [dict(pairs) for pairs in adjacency(b)]
    # Each atom's kind, its label (the atom itself) and degree: a match maps atoms of one kind.
    kind_a = [(x, len(nb)) for x, nb in zip(a.atoms, nb_a)]
    kind_b = [(x, len(nb)) for x, nb in zip(b.atoms, nb_b)]
    if sorted(kind_a) != sorted(kind_b):
        return False
    n = a.n_atoms
    if n == 0:  # two empty graphs
        return True
    # Candidate nodes of b per node of a, ascending: those of its kind.
    of_kind: dict[tuple, list[int]] = {}
    for j, kind in enumerate(kind_b):
        of_kind.setdefault(kind, []).append(j)
    cands = [of_kind[kind] for kind in kind_a]

    # Match nodes in order of fewest candidates first.
    order = sorted(range(n), key=lambda i: len(cands[i]))
    mapping = [-1] * n
    used = [False] * n

    def remaining(i: int):
        """cands[i], ascending; once a neighbour of i is mapped, only those
        next to its image, the only ones the edge check can pass."""
        for k in nb_a[i]:
            if mapping[k] >= 0:
                return (j for j in nb_b[mapping[k]] if kind_b[j] == kind_a[i])
        return iter(cands[i])

    # trying[pos] iterates the candidates left for order[pos]: an explicit
    # stack, not recursion, so the depth may reach any atom count.
    trying = [remaining(order[0])]
    while trying:
        i = order[len(trying) - 1]
        if mapping[i] >= 0:  # back here: release the previous candidate
            used[mapping[i]] = False
            mapping[i] = -1
        for j in trying[-1]:
            if used[j]:
                continue
            if any(mapping[k] >= 0 and nb_b[j].get(mapping[k]) != t for k, t in nb_a[i].items()):
                continue
            # Mapped b-neighbors of j must all be matched edges too.
            deg_mapped = sum(1 for k in nb_a[i] if mapping[k] >= 0)
            deg_mapped_b = sum(1 for m in nb_b[j] if used[m])
            if deg_mapped != deg_mapped_b:
                continue
            mapping[i] = j
            used[j] = True
            break
        else:
            trying.pop()
            continue
        if len(trying) == n:
            return True
        trying.append(remaining(order[len(trying)]))
    return False
