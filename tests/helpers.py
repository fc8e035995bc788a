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
