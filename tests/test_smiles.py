"""Tests for SMILES parsing, implicit-hydrogen filling, and the writer."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from molvae.chem import Atom, BondType, build, check_valence, is_isomorphic
from molvae.smiles import Disconnected, SmilesError, parse_smiles, parse_smiles_ex, write_smiles

from helpers import oracle_parse_smiles, permute


# -- basic parsing -------------------------------------------------------


def test_single_atom():
    m = parse_smiles("C")
    assert m.n_atoms == 1
    assert m.atoms[0] == Atom("C", 0, 4)


def test_chain_with_implicit_h():
    m = parse_smiles("CCO")
    assert [a.element for a in m.atoms] == ["C", "C", "O"]
    assert [a.implicit_h for a in m.atoms] == [3, 2, 1]
    assert m.bonds == (
        (0, 1, BondType.SINGLE),
        (1, 2, BondType.SINGLE),
    )


def test_explicit_bond_orders():
    m = parse_smiles("C=C")
    assert m.bonds[0][2] == BondType.DOUBLE
    assert m.atoms[0].implicit_h == 2
    m = parse_smiles("C#N")
    assert m.bonds[0][2] == BondType.TRIPLE
    assert m.atoms[1].implicit_h == 0


def test_branching():
    m = parse_smiles("CC(C)C")  # isobutane
    assert m.degree(1) == 3
    assert m.atoms[1].implicit_h == 1


def test_nested_branches():
    m = parse_smiles("CC(C(C)C)O")
    assert m.n_atoms == 6
    assert check_valence(m).valid


def test_two_character_elements():
    m = parse_smiles("ClCBr")
    assert [a.element for a in m.atoms] == ["Cl", "C", "Br"]


def test_ring_closure():
    m = parse_smiles("C1CCCCC1")  # cyclohexane
    assert m.n_atoms == 6
    assert len(m.bonds) == 6
    assert all(a.implicit_h == 2 for a in m.atoms)


def test_percent_ring_closure():
    a = parse_smiles("C%12CCCCC%12")
    b = parse_smiles("C1CCCCC1")
    assert is_isomorphic(a, b)


def test_ring_bond_order_on_either_side():
    a = parse_smiles("C=1CCCCC1")
    b = parse_smiles("C1CCCCC=1")
    c = parse_smiles("C=1CCCCC=1")
    assert a.bonds == b.bonds == c.bonds


def test_conflicting_ring_bond_orders():
    with pytest.raises(SmilesError):
        parse_smiles("C=1CCCCC#1")


def test_aromatic_ring():
    m = parse_smiles("c1ccccc1")  # benzene
    assert all(t == BondType.AROMATIC for _, _, t in m.bonds)
    assert all(a.implicit_h == 1 for a in m.atoms)
    assert check_valence(m).valid


def test_aromatic_nitrogen_gets_no_h():
    m = parse_smiles("c1ccncc1")  # pyridine
    n_atom = next(a for a in m.atoms if a.element == "N")
    assert n_atom.implicit_h == 0


def test_bracket_atom_charge_and_h():
    m = parse_smiles("[NH4+]")
    assert m.atoms[0] == Atom("N", 1, 4)
    m = parse_smiles("[O-]C")
    assert m.atoms[0] == Atom("O", -1, 0)


def test_bracket_charge_forms():
    assert parse_smiles("[N+2]").atoms[0].formal_charge == 2
    assert parse_smiles("[N++]").atoms[0].formal_charge == 2
    with pytest.raises(SmilesError):
        parse_smiles("[N+3]")


def test_bracket_explicit_h_is_binding():
    # [CH2] keeps its stated two hydrogens even though valence 2 is not
    # allowed for carbon.
    m = parse_smiles("[CH2]")
    assert m.atoms[0].implicit_h == 2
    assert not check_valence(m).valid


def test_isotope_and_stereo_stripped_and_counted():
    res = parse_smiles_ex("[13CH4]")
    assert res.mol.atoms[0] == Atom("C", 0, 4)
    assert res.stripped == 2  # two isotope digits
    res = parse_smiles_ex("N[C@H](C)O")
    assert res.stripped == 1
    res = parse_smiles_ex("F/C=C/F")
    assert res.stripped == 2


# -- parse errors --------------------------------------------------------


PARSE_ERRORS = [
    ("", "empty SMILES input"),
    ("   ", "empty SMILES input"),
    ("C.C", "dot-disconnected (multi-fragment) input (at position 1)"),
    ("C(", "unclosed '(' (at position 2)"),
    ("C)", "unmatched ')' (at position 1)"),
    ("(CC)", "branch opens before any atom (at position 0)"),
    ("C1CC", "ring closure 1 never closed (at position 1)"),
    ("C11", "ring bond closes onto its own atom (at position 2)"),
    ("C12CC12", "duplicate bond between the same atoms (at position 6)"),
    ("CC==C", "two consecutive bond symbols (at position 3)"),
    ("C=", "dangling bond symbol at end of input (at position 2)"),
    ("Zz", "unexpected character 'Z' (at position 0)"),
    ("[Xx]", "unknown bracket atom 'Xx' (at position 0)"),
    ("[C", "unterminated bracket atom (at position 0)"),
    ("1CC", "ring closure digit before any atom (at position 0)"),
    ("C%1C", "'%' ring closure needs two digits (at position 1)"),
]


# Each id is the text and the class every parse error has.
@pytest.mark.parametrize("text, message", PARSE_ERRORS, ids=[f"{text}-SmilesError" for text, _ in PARSE_ERRORS])
def test_parse_errors(text, message):
    with pytest.raises(SmilesError, match=f"^{re.escape(message)}$"):
        parse_smiles(text)


def test_errors_report_position():
    with pytest.raises(SmilesError, match="^unexpected character 'Z'") as ei:
        parse_smiles("CCZz")
    assert ei.value.position == 2


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("C11", "closes onto its own atom", 2),
        ("C12CC12", "duplicate bond", 6),
        ("C1C1", "duplicate bond", 3),
        ("C(C1)1", "duplicate bond", 5),  # the ring bond is (1, 0), the chain bond (0, 1)
    ],
)
def test_ring_closure_errors_report_position(text, message, position):
    with pytest.raises(SmilesError, match=message) as ei:
        parse_smiles(text)
    assert ei.value.position == position


# -- writer --------------------------------------------------------------


@pytest.mark.parametrize(
    "smi",
    [
        "C",
        "CCO",
        "CC(C)C",
        "C1CCCCC1",
        "c1ccccc1",
        "c1ccncc1",
        "CC(=O)Oc1ccccc1C(=O)O",  # aspirin
        "CN1C=NC2=C1C(=O)N(C(=O)N2C)C",  # caffeine, kekulized
        "CN1CCCC1c1cccnc1",  # nicotine
        "[NH4+]",
        "[O-]S(=O)(=O)[O-]",
        "C#N",
        "OCC(O)CO",
    ],
)
def test_round_trip_isomorphic(smi):
    m = parse_smiles(smi)
    out = write_smiles(m)
    assert is_isomorphic(parse_smiles(out), m)


def test_writer_rejects_disconnected():
    m = build([Atom("C", 0, 4), Atom("C", 0, 4)], [])
    with pytest.raises(Disconnected):
        write_smiles(m)


def test_writer_emits_brackets_only_when_needed():
    assert write_smiles(parse_smiles("CCO")) == "CCO"
    assert "[" in write_smiles(parse_smiles("[NH4+]"))


def test_writer_single_bond_between_aromatic_atoms_kept_explicit():
    # Biphenyl's bridge must not collapse into an aromatic default bond.
    m = parse_smiles("c1ccccc1-c1ccccc1")
    again = parse_smiles(write_smiles(m))
    assert is_isomorphic(again, m)
    n_arom = sum(1 for _, _, t in again.bonds if t == BondType.AROMATIC)
    assert n_arom == 12


def complete_graph(n):
    atoms = [Atom("C", 0, 0) for _ in range(n)]
    return build(atoms, [(i, j, BondType.SINGLE) for i in range(n) for j in range(i + 1, n)])


def test_writer_reuses_ring_labels():
    # 105 ring closures: without reuse the writer would need labels past %99.
    mol = complete_graph(16)
    assert is_isomorphic(parse_smiles(write_smiles(mol)), mol)
    # A closed label is taken again by the next ring bond.
    assert write_smiles(parse_smiles("C1CC1CC1CC1")) == "C1CC1CC1CC1"


def test_writer_output_with_two_digit_ring_labels_is_fixed():
    # A complete graph on 7 atoms with a double bond and a bracket atom, and
    # one on 8: labels %10 to %17 are opened, closed and taken again.
    atoms = [Atom("C")] * 5 + [Atom("N", 1, 0), Atom("O")]
    bonds = [(i, j, BondType.SINGLE) for i in range(7) for j in range(i + 1, 7)]
    bonds[0] = (0, 1, BondType.DOUBLE)
    assert write_smiles(build(atoms, bonds)) == "C12345=C6789C1%10%11%12C261%13C37%102[N+]48%111O59%12%132"
    eight = complete_graph(8)
    assert write_smiles(eight) == (
        "C123456C789%10%11C1%12%13%14%15C271%16%17C38%1227C49%1313C5%10%14%162C6%11%15%1773"
    )
    assert is_isomorphic(parse_smiles(write_smiles(eight)), eight)


def test_writer_round_trips_a_3000_atom_chain():
    # Deeper than Python's recursion limit: a plain chain, and one with a branch at every atom.
    chain = "C" * 3000
    assert write_smiles(parse_smiles(chain)) == chain
    comb = "C(C)" * 1500 + "C"
    assert write_smiles(parse_smiles(comb)) == comb


def test_writer_rejects_more_than_99_open_ring_labels():
    with pytest.raises(SmilesError, match="99"):
        write_smiles(complete_graph(22))


@pytest.mark.parametrize(
    "smi, written",
    [
        ("c1ccccc1", "c1ccccc1"),
        ("OC(=O)c1ccccc1OC(C)=O", "OC(=O)c1ccccc1OC(C)=O"),
        ("C1CC(N)CC1Cl", "C1CC(N)CC1Cl"),
        ("CC(C)(C)C1=CC(=O)N1", "CC(C)(C)C1=CC(=O)N1"),
        ("C1CC(N)(O)C1F", "C1CC(N)(O)C1F"),  # branches in child order
    ],
)
def test_writer_output_with_one_ring_closure_is_fixed(smi, written):
    assert write_smiles(parse_smiles(smi)) == written


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_round_trip_random_molecules(seed, n_atoms):
    import numpy as np

    from molvae.corpus import random_molecule

    rng = np.random.default_rng(seed)
    mol = random_molecule(rng, n_atoms)
    assert is_isomorphic(parse_smiles(write_smiles(mol)), mol)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_write_invariant_under_relabeling_up_to_isomorphism(seed, n_atoms):
    import numpy as np

    from molvae.corpus import random_molecule

    rng = np.random.default_rng(seed)
    mol = random_molecule(rng, n_atoms)
    perm = list(rng.permutation(mol.n_atoms))
    relabeled = permute(mol, perm)
    assert is_isomorphic(parse_smiles(write_smiles(relabeled)), mol)


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=0, max_size=40))
def test_fuzz_never_crashes(text):
    try:
        parse_smiles(text)
    except SmilesError:
        pass


# -- the token grammar against the character-by-character oracle ---------

# Pieces of SMILES and of near-SMILES: every token kind, two-letter symbols
# split apart, bracket and ring-label fragments, whitespace, and non-ASCII
# digits ("²" and U+0663 ARABIC-INDIC DIGIT THREE, which `\d` would match).
PIECES = (
    "C c N n O o S s P p F I B H l r Cl Br [nH] [C@@H] [13C] [N++] [NH4+] [O-] "
    "[ ] ( ) - = # : / \\ 0 1 2 9 % %1 %12 %05 . @ + ++ -- +3 H2 H5 13 x \u00b2 \u0663"
).split() + [" ", "\n", "\t", "\u3000"]

BRACKET_ATOMS = st.builds(
    lambda *parts: "[" + "".join(parts) + "]",
    st.sampled_from(["", "2", "13", "\u0663", "\u00b2"]),
    st.sampled_from(["", "C", "c", "N", "n", "o", "Cl", "Br", "H", "B", "X"]),
    st.sampled_from(["", "@", "@@"]),
    st.sampled_from(["", "H", "H0", "H2", "H5", "H\u0663"]),
    st.sampled_from(["", "+", "++", "+++", "-", "--", "+2", "-3", "+-", "-+", "+\u0663"]),
    st.sampled_from(["", "x", "@", "]", " "]),
)


# Chains of atoms, bonds, ring labels and branches, which mostly parse: an
# explicit single bond between aromatic atoms ("c-c") must stay single, and
# U+0663 is no ring label.
CHAINS = st.lists(
    st.tuples(
        st.sampled_from(["", "", "-", "=", "#", ":", "/"]),
        st.sampled_from(["C", "c", "N", "n", "o", "s", "Cl", "Br", "[nH]", "[C@@H]", "[13C]", "[N++]", "[O-]"]),
        st.sampled_from(["", "", "1", "%12", "(C)", "(-c)", "\u0663", "%1\u0663"]),
    ),
    min_size=1,
    max_size=10,
).map(lambda links: "".join(map("".join, links)))


@st.composite
def mutated_writer_output(draw):
    import numpy as np

    from molvae.corpus import random_molecule

    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    s = write_smiles(random_molecule(rng, draw(st.integers(1, 20))))
    i = draw(st.integers(0, len(s) - 1))
    return draw(st.sampled_from([s, s[:i] + s[i + 1 :], s[:i] + s[i] + s[i:]]))


def parse_outcome(parse, text):
    """The error's class, message and position, or the graph and stripped count."""
    try:
        res = parse(text)
    except SmilesError as exc:
        return type(exc), str(exc), exc.position
    return res.mol, res.stripped


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(st.sampled_from(PIECES), BRACKET_ATOMS), max_size=24).map("".join),
        CHAINS,
        mutated_writer_output(),
        st.text(max_size=30),
    )
)
def test_token_parser_agrees_with_the_character_loop_oracle(text):
    assert parse_outcome(parse_smiles_ex, text) == parse_outcome(oracle_parse_smiles, text)
