"""Random valid small-molecule generation for the bundled corpus and tests."""

from __future__ import annotations

import numpy as np

from .chem import DEFAULT_VALENCES, Atom, BondType, MolGraph, bond_order_sums, build, fill_implicit_h
from .smiles import parse_smiles, write_smiles

# The element draw pool; a drawn atom's capacity is its element's first valence.
_POOL = ("C", "C", "C", "C", "C", "N", "O", "O", "F", "S", "Cl")

# The five reference drugs used in the similarity experiment.
DRUG_SMILES = {
    "aspirin": "CC(=O)Oc1ccccc1C(=O)O",
    "amphetamine": "CC(N)Cc1ccccc1",
    "mdma": "CNC(C)Cc1ccc2c(c1)OCO2",
    "nicotine": "CN1CCCC1c1cccnc1",
    # Kekulized: the aromatic form's carbonyl ring carbons would exceed the
    # 1.5-per-aromatic-bond valence model.
    "caffeine": "CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
}


def random_molecule(rng: np.random.Generator, n_atoms: int) -> MolGraph:
    """Grow a random connected, valence-valid molecule of at most n_atoms
    heavy atoms: it stops short when no atom has an open valence left, so
    `random_molecule(np.random.default_rng(13), 13)` has 2 atoms."""
    elements = []
    capacity = []
    for k in range(n_atoms):
        # The first atoms must be able to carry the growing tree.
        while True:
            sym = _POOL[int(rng.integers(len(_POOL)))]
            val = DEFAULT_VALENCES[sym][0]
            if k >= n_atoms - 1 or val >= 2 or rng.random() < 0.3:
                break
        elements.append(sym)
        capacity.append(val)
    bonds: list[tuple[int, int, BondType]] = []
    for k in range(1, n_atoms):
        hosts = [i for i in range(k) if capacity[i] >= 1]
        if not hosts:
            # No open valence left: terminate the molecule early.
            elements = elements[:k]
            capacity = capacity[:k]
            break
        i = int(hosts[rng.integers(len(hosts))])
        order = 1
        if capacity[i] >= 2 and capacity[k] >= 2 and rng.random() < 0.15:
            order = 2
        t = BondType.SINGLE if order == 1 else BondType.DOUBLE
        bonds.append((i, k, t))
        capacity[i] -= order
        capacity[k] -= order

    n = len(elements)
    # Optionally close one ring.
    if n >= 3 and rng.random() < 0.35:
        bonded = {(min(i, j), max(i, j)) for i, j, _ in bonds}
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if capacity[i] >= 1 and capacity[j] >= 1 and (i, j) not in bonded
        ]
        if pairs:
            i, j = pairs[int(rng.integers(len(pairs)))]
            bonds.append((i, j, BondType.SINGLE))
            capacity[i] -= 1
            capacity[j] -= 1

    order_sum = bond_order_sums(n, bonds)
    atoms = [
        Atom(elements[i], 0, fill_implicit_h(elements[i], 0, order_sum[i]) or 0)
        for i in range(n)
    ]
    return build(atoms, bonds)


# The bundled corpus: CORPUS_SIZE random molecules with 2..CORPUS_MAX_ATOMS
# heavy atoms, drawn uniformly; 9 matches the heavy-atom ceiling of the QM9
# small-molecule collection.
CORPUS_SIZE = 500
CORPUS_SEED = 20240817
CORPUS_MAX_ATOMS = 9


def generate_corpus():
    """Corpus rows (smiles, heavy_atoms): the random molecules plus the five drugs."""
    rng = np.random.default_rng(CORPUS_SEED)
    rows = []
    for _ in range(CORPUS_SIZE):
        mol = random_molecule(rng, int(rng.integers(2, CORPUS_MAX_ATOMS + 1)))
        rows.append((write_smiles(mol), mol.n_atoms))
    for smi in DRUG_SMILES.values():
        rows.append((smi, parse_smiles(smi).n_atoms))
    return rows
