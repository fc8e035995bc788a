"""Tests for the molecular graph data model and valence rules."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from molvae.chem import (
    Atom,
    BondType,
    ChemError,
    ELEMENTS,
    MolGraph,
    adjacency,
    adjacency_tensor,
    allowed_valences,
    bond_order_sums,
    build,
    check_valence,
    fill_implicit_h,
    is_isomorphic,
)

from molvae.corpus import DRUG_SMILES, random_molecule
from molvae.encoder import FEATURE_DIM
from molvae.smiles import parse_smiles
from molvae.vaemodel import MolTensors, init_model_params, reconstruct, reconstruct_from_probs

from helpers import oracle_bond_order_sum, oracle_degree, oracle_fill_implicit_h, oracle_neighbors, permute


def ethanol():
    # C-C-O with filled hydrogens.
    return build(
        [Atom("C", 0, 3), Atom("C", 0, 2), Atom("O", 0, 1)],
        [(0, 1, BondType.SINGLE), (1, 2, BondType.SINGLE)],
    )


def benzene():
    atoms = [Atom("C", 0, 1)] * 6
    bonds = [(i, (i + 1) % 6, BondType.AROMATIC) for i in range(6)]
    return build(atoms, bonds)


# -- construction --------------------------------------------------------


def test_build_canonicalizes_bond_order():
    m = build(
        [Atom("C", 0, 3), Atom("N", 0, 2)],
        [(1, 0, BondType.SINGLE)],
    )
    assert m.bonds == ((0, 1, BondType.SINGLE),)


def test_build_sorts_bonds():
    m = build(
        [Atom("C"), Atom("C"), Atom("C")],
        [(2, 1, BondType.SINGLE), (1, 0, BondType.SINGLE)],
    )
    assert [b[:2] for b in m.bonds] == [(0, 1), (1, 2)]


def test_build_converts_bond_type_values_and_keeps_members():
    atoms = [Atom("C"), Atom("C"), Atom("O")]
    typed = build(atoms, [(0, 1, BondType.AROMATIC), (1, 2, BondType.DOUBLE)])
    plain = build(atoms, [(0, 1, 3), (1, 2, 1)])
    assert plain == typed
    assert [type(t) for _, _, t in plain.bonds] == [BondType, BondType]
    # Flipped pairs of mixed types come out sorted, every type a member.
    mixed = build(atoms + atoms[:2], [(4, 3, 1), (1, 0, BondType.TRIPLE), (3, 0, np.int64(3)), (2, 1, 0)])
    assert mixed.bonds == (
        (0, 1, BondType.TRIPLE),
        (0, 3, BondType.AROMATIC),
        (1, 2, BondType.SINGLE),
        (3, 4, BondType.DOUBLE),
    )
    assert [type(t) for _, _, t in mixed.bonds] == [BondType] * 4
    with pytest.raises(ValueError):
        build(atoms, [(0, 1, 4)])


def test_atom_is_its_label():
    """An atom equals and hashes as its (element, charge, H) tuple, keeps its
    field names, defaults and repr, and cannot be changed."""
    a = Atom("N", 1, 4)
    assert a == ("N", 1, 4) and hash(a) == hash(("N", 1, 4))
    assert (a.element, a.formal_charge, a.implicit_h) == ("N", 1, 4)
    assert Atom("C") == Atom("C", 0, 0)
    assert repr(a) == "Atom(element='N', formal_charge=1, implicit_h=4)"
    with pytest.raises(AttributeError):
        a.implicit_h = 3


def test_unknown_element_rejected():
    with pytest.raises(ChemError, match="^unknown element symbol 'Xx'$"):
        build([Atom("Xx")], [])


def test_self_loop_rejected():
    with pytest.raises(ChemError, match="^self-bond on atom 1$"):
        build([Atom("C"), Atom("C")], [(1, 1, BondType.SINGLE)])


def test_duplicate_bond_rejected_even_when_flipped():
    with pytest.raises(ChemError, match="^duplicate bond between atoms 0 and 1$"):
        build(
            [Atom("C"), Atom("C")],
            [(0, 1, BondType.SINGLE), (1, 0, BondType.DOUBLE)],
        )


def test_bond_index_out_of_range():
    with pytest.raises(ChemError, match=r"^bond \(0, 1\) references a missing atom$"):
        build([Atom("C")], [(0, 1, BondType.SINGLE)])


def test_build_checks_each_bond_in_order_and_names_it():
    # Per bond: the range check, then the self-loop check, then the duplicate
    # check; the first bond that fails names the error.
    atoms = [Atom("C"), Atom("C"), Atom("C")]
    cases = [
        ([(3, 3, 0)], "bond (3, 3) references a missing atom"),
        ([(-1, 0, 0)], "bond (-1, 0) references a missing atom"),
        ([(1, 1, 0), (1, 1, 0)], "self-bond on atom 1"),
        ([(0, 1, 0), (1, 1, 0), (0, 5, 0)], "self-bond on atom 1"),
        ([(0, 1, 0), (0, 1, 0), (2, 2, 0)], "duplicate bond between atoms 0 and 1"),
        ([(2, 1, 0), (1, 2, 1)], "duplicate bond between atoms 1 and 2"),
        ([(0, 2, 0), (2, 0, 3), (0, 9, 0)], "duplicate bond between atoms 0 and 2"),
    ]
    for bonds, message in cases:
        with pytest.raises(ChemError) as info:
            build(atoms, bonds)
        assert str(info.value) == message


def test_charge_and_h_bounds():
    with pytest.raises(ChemError):
        build([Atom("N", 3, 0)], [])
    with pytest.raises(ChemError):
        build([Atom("C", 0, 5)], [])


def test_neighbors_and_degree():
    m = ethanol()
    assert m.degree(1) == 2
    assert sorted(j for j, _ in m.neighbors(1)) == [0, 2]
    assert bond_order_sums(m.n_atoms, m.bonds)[1] == 2.0


def assert_structure_matches_bond_scans(mol):
    adj = adjacency(mol)
    sums = bond_order_sums(mol.n_atoms, mol.bonds)
    assert len(adj) == len(sums) == mol.n_atoms
    for i in range(mol.n_atoms):
        assert adj[i] == sorted(oracle_neighbors(mol, i)) == mol.neighbors(i)
        assert len(adj[i]) == oracle_degree(mol, i) == mol.degree(i)
        assert sums[i] == oracle_bond_order_sum(mol, i)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20))
def test_structure_matches_bond_scans_on_random_molecules(seed, n_atoms):
    assert_structure_matches_bond_scans(random_molecule(np.random.default_rng(seed), n_atoms))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.2, 0.5, 0.8]))
def test_structure_matches_bond_scans_on_dense_reconstructions(seed, threshold):
    # Random edge probabilities keep about 1 - threshold of all atom pairs,
    # with the input's typed bonds among them.
    rng = np.random.default_rng(seed)
    mol = random_molecule(rng, int(rng.integers(12, 21)))
    probs = rng.random((mol.n_atoms, mol.n_atoms))
    out, _ = reconstruct_from_probs(mol, (probs + probs.T) / 2, threshold)
    assert_structure_matches_bond_scans(out)


def test_structure_matches_bond_scans_on_aromatic_and_edgeless_molecules():
    for smi in DRUG_SMILES.values():
        assert_structure_matches_bond_scans(parse_smiles(smi))
    assert bond_order_sums(6, benzene().bonds) == [3.0] * 6
    assert_structure_matches_bond_scans(build([Atom("C", 0, 4)] * 3, []))


def test_adjacency_sorts_neighbours_of_a_graph_not_made_by_build():
    mol = MolGraph(
        atoms=(Atom("C", 0, 3), Atom("C", 0, 2), Atom("O", 0, 0)),
        bonds=((1, 2, BondType.SINGLE), (0, 2, BondType.DOUBLE)),
    )
    assert adjacency(mol)[2] == [(0, BondType.DOUBLE), (1, BondType.SINGLE)]


@pytest.mark.parametrize("threshold", [-0.1, 0.3, 0.5, 0.9, 1.1])
def test_reconstruct_report_is_check_valence_of_its_output(threshold):
    store = init_model_params(seed=0)
    rng = np.random.default_rng(11)
    for _ in range(25):
        mol = random_molecule(rng, int(rng.integers(2, 16)))
        out, report = reconstruct(mol, store, threshold)
        assert report == check_valence(out)


# -- adjacency tensor ----------------------------------------------------


def test_adjacency_tensor_symmetric_one_hot():
    m = build(
        [Atom("C", 0, 2), Atom("C", 0, 2)],
        [(0, 1, BondType.DOUBLE)],
    )
    a = adjacency_tensor(m)
    assert a.shape == (2, 2, 4)
    assert a[0, 1, BondType.DOUBLE] == 1.0
    assert a[1, 0, BondType.DOUBLE] == 1.0
    assert a.sum() == 2.0
    assert np.all(a[np.arange(2), np.arange(2)] == 0.0)


def test_adjacency_tensor_zero_diagonal_and_slice_symmetry():
    m = benzene()
    a = adjacency_tensor(m)
    for r in range(4):
        assert np.array_equal(a[:, :, r], a[:, :, r].T)
    assert np.trace(a.sum(axis=2)) == 0.0


# -- node features -------------------------------------------------------


def test_node_features_layout():
    m = ethanol()
    h = MolTensors.from_mol(m).features
    assert h.shape == (3, FEATURE_DIM)
    # Atom 2 is oxygen: element one-hot index 3, neutral, one H, degree 1.
    row = h[2]
    assert row[ELEMENTS.index("O")] == 1.0
    assert row[10 + 1] == 1.0  # charge 0 slot
    assert row[13 + 1] == 1.0  # one implicit H
    assert row[18 + 1] == 1.0  # heavy degree 1
    assert row[23:].sum() == 0.0  # zero pad
    assert row.sum() == 4.0


def test_node_features_degree_clamped():
    # Central carbon of neopentane has degree 4; SF6's sulfur has 6, clamped to 4.
    for smi in ("CC(C)(C)C", "S(F)(F)(F)(F)(F)F"):
        mol = parse_smiles(smi)
        center = next(i for i in range(mol.n_atoms) if mol.degree(i) >= 4)
        assert MolTensors.from_mol(mol).features[center, 18 + 4] == 1.0


def test_node_features_charge_clamped():
    m = build([Atom("N", 2, 0)], [])
    h = MolTensors.from_mol(m).features
    assert h[0, 10 + 2] == 1.0  # +2 clamps to the +1 slot


def test_node_features_row_sums_are_four():
    m = benzene()
    h = MolTensors.from_mol(m).features
    assert np.all(h.sum(axis=1) == 4.0)


# -- valence -------------------------------------------------------------


def test_allowed_valences_neutral():
    assert allowed_valences("C", 0) == (4,)
    assert allowed_valences("S", 0) == (2, 4, 6)
    assert allowed_valences("Xx", 0) == ()


def test_allowed_valences_charge_shift_n_and_o_only():
    assert allowed_valences("N", 1) == (4,)
    assert allowed_valences("O", -1) == (1,)
    assert allowed_valences("C", 1) == ()
    assert allowed_valences("N", 3) == ()


def test_fill_implicit_h_agrees_with_trying_each_count():
    """Every element and an unknown one, charges -2..2, bond orders 0..12 in halves."""
    for element in (*ELEMENTS, "Xx"):
        for charge in range(-2, 3):
            for k in range(25):
                got = fill_implicit_h(element, charge, k / 2)
                assert got == oracle_fill_implicit_h(element, charge, k / 2), (element, charge, k / 2)


def test_check_valence_accepts_ethanol_and_benzene():
    assert check_valence(ethanol()).valid
    assert check_valence(benzene()).valid


def test_check_valence_flags_hypervalent_carbon():
    m = build(
        [Atom("C", 0, 2)] + [Atom("F")] * 3,
        [(0, k, BondType.SINGLE) for k in (1, 2, 3)],
    )
    report = check_valence(m)
    assert not report.valid
    assert report.offending == (0,)


def test_check_valence_aromatic_rounds_up():
    # One aromatic bond (1.5) on a bare carbon rounds up to 2: not 4, invalid.
    m = build([Atom("C"), Atom("C")], [(0, 1, BondType.AROMATIC)])
    assert not check_valence(m).valid
    # With two implicit H it totals ceil(3.5) = 4: valid.
    m2 = build([Atom("C", 0, 2), Atom("C", 0, 2)], [(0, 1, BondType.AROMATIC)])
    assert check_valence(m2).valid


def test_bond_weights():
    for t, order in [(BondType.SINGLE, 1.0), (BondType.DOUBLE, 2.0), (BondType.TRIPLE, 3.0), (BondType.AROMATIC, 1.5)]:
        assert bond_order_sums(3, [(0, 1, t)]) == [order, order, 0.0]
    mixed = [(0, 1, BondType.DOUBLE), (1, 2, BondType.AROMATIC), (2, 3, BondType.TRIPLE), (1, 3, BondType.SINGLE)]
    assert bond_order_sums(4, mixed) == [2.0, 4.5, 4.5, 4.0]


# -- isomorphism ---------------------------------------------------------


def test_isomorphic_to_self():
    m = benzene()
    assert is_isomorphic(m, m)


def test_isomorphism_detects_relabeling():
    m = ethanol()
    p = permute(m, [2, 0, 1])
    assert is_isomorphic(m, p)


def test_isomorphism_respects_bond_types():
    a = build(
        [Atom("C", 0, 2), Atom("C", 0, 2), Atom("O")],
        [(0, 1, BondType.SINGLE), (1, 2, BondType.DOUBLE)],
    )
    b = build(
        [Atom("C", 0, 2), Atom("C", 0, 2), Atom("O")],
        [(0, 1, BondType.DOUBLE), (1, 2, BondType.SINGLE)],
    )
    # Same multiset of labels and degrees, different typed structure around C0.
    assert not is_isomorphic(a, b)


def test_isomorphism_respects_atom_labels():
    a = build([Atom("C", 0, 3), Atom("N", 0, 2)], [(0, 1, BondType.SINGLE)])
    b = build([Atom("C", 0, 3), Atom("O", 0, 1)], [(0, 1, BondType.SINGLE)])
    assert not is_isomorphic(a, b)


def test_isomorphism_distinguishes_path_from_star():
    # Four carbons: path vs star have the same label multiset but different
    # degree sequences.
    path = build(
        [Atom("C")] * 4,
        [(0, 1, BondType.SINGLE), (1, 2, BondType.SINGLE), (2, 3, BondType.SINGLE)],
    )
    star = build(
        [Atom("C")] * 4,
        [(0, 1, BondType.SINGLE), (0, 2, BondType.SINGLE), (0, 3, BondType.SINGLE)],
    )
    assert not is_isomorphic(path, star)


def test_isomorphism_hard_case_same_degree_sequence():
    # Two 6-cycles vs two triangles... both 2-regular on 6 carbons, but the
    # writer only makes connected graphs; use one ring of 6 vs ring of 5 + spur.
    ring6 = build(
        [Atom("C", 0, 2)] * 6,
        [(i, (i + 1) % 6, BondType.SINGLE) for i in range(6)],
    )
    ring5_spur = build(
        [Atom("C", 0, 2)] * 5 + [Atom("C", 0, 2)],
        [(i, (i + 1) % 5, BondType.SINGLE) for i in range(5)]
        + [(4, 5, BondType.SINGLE)],
    )
    assert not is_isomorphic(ring6, ring5_spur)


def test_isomorphism_of_empty_graphs():
    empty = build([], [])
    assert is_isomorphic(empty, build([], []))
    assert not is_isomorphic(empty, build([Atom("C", 0, 4)], []))
    assert not is_isomorphic(build([Atom("C", 0, 4)], []), empty)


def test_isomorphism_pairs_each_label_with_its_degree():
    # Both have labels {C, C, O} and degrees {1, 1, 2}, but the oxygen ends
    # the chain O-C-C and sits in the middle of C-O-C.
    a = build([Atom("O"), Atom("C"), Atom("C")], [(0, 1, BondType.SINGLE), (1, 2, BondType.SINGLE)])
    b = build([Atom("C"), Atom("O"), Atom("C")], [(0, 1, BondType.SINGLE), (1, 2, BondType.SINGLE)])
    assert not is_isomorphic(a, b)
    assert not is_isomorphic(b, a)


@given(st.data())
def test_isomorphism_invariant_under_random_permutation(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    mol = random_molecule(rng, int(rng.integers(2, 10)))
    perm = list(rng.permutation(mol.n_atoms))
    assert is_isomorphic(mol, permute(mol, perm))


def test_isomorphism_of_a_3000_atom_chain():
    # Deeper than Python's recursion limit: matching runs on an explicit stack.
    chain = parse_smiles("C" * 3000)
    moved = permute(chain, list(np.random.default_rng(0).permutation(chain.n_atoms)))
    assert is_isomorphic(chain, chain)
    assert is_isomorphic(chain, moved)
    bonds = list(moved.bonds)
    i, j, _ = bonds[1500]
    bonds[1500] = (i, j, BondType.DOUBLE)
    assert not is_isomorphic(chain, build(moved.atoms, bonds))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_isomorphism_agrees_with_trying_every_relabeling(seed):
    # b is a relabeled copy of a, perhaps with one bond retyped or two atoms
    # swapped; symmetry may keep it isomorphic to a.
    rng = np.random.default_rng(seed)
    a = random_molecule(rng, int(rng.integers(2, 7)))
    atoms, bonds = list(a.atoms), list(a.bonds)
    change = rng.random()
    if change < 0.35:
        k = int(rng.integers(len(bonds)))
        i, j, t = bonds[k]
        bonds[k] = (i, j, BondType.DOUBLE if t == BondType.SINGLE else BondType.SINGLE)
    elif change < 0.7:
        i, j = rng.choice(len(atoms), size=2, replace=False)
        atoms[i], atoms[j] = atoms[j], atoms[i]
    b = permute(build(atoms, bonds), list(rng.permutation(a.n_atoms)))
    want = any(permute(a, p) == b for p in itertools.permutations(range(a.n_atoms)))
    assert is_isomorphic(a, b) == want
