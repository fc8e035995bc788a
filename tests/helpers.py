"""Shared test helpers."""

from typing import Sequence

from molvae.chem import MolGraph, build


def permute(mol: MolGraph, perm: Sequence[int]) -> MolGraph:
    """Relabel nodes: new index perm[i] holds old atom i."""
    n = mol.n_atoms
    atoms = [None] * n
    for i, a in enumerate(mol.atoms):
        atoms[perm[i]] = a
    bonds = [(perm[i], perm[j], t) for i, j, t in mol.bonds]
    return build(atoms, bonds)


def enumerate_paths(mol: MolGraph, min_len: int = 1, max_len: int = 7) -> set[tuple]:
    """All simple bond paths of min_len..max_len bonds, deduplicated under reversal.

    Bonds may not repeat within a path; atoms may (rings). Each path is a
    tuple of alternating atom indices and bond-slot indices.
    """
    bond_list = list(mol.bonds)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(mol.n_atoms)]
    for slot, (i, j, _) in enumerate(bond_list):
        adj[i].append((j, slot))
        adj[j].append((i, slot))

    found: set[tuple] = set()

    def canonical(path: list[int]) -> tuple:
        fwd = tuple(path)
        rev = tuple(reversed(path))
        return min(fwd, rev)

    def extend(path: list[int], used: set[int], nbonds: int) -> None:
        if nbonds >= min_len:
            found.add(canonical(path))
        if nbonds == max_len:
            return
        tail = path[-1]
        for nxt, slot in adj[tail]:
            if slot in used:
                continue
            path.append(slot)
            path.append(nxt)
            used.add(slot)
            extend(path, used, nbonds + 1)
            used.discard(slot)
            path.pop()
            path.pop()

    for start in range(mol.n_atoms):
        extend([start], set(), 0)
    return found
