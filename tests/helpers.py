"""Shared test helpers, and straightforward oracles for the SMILES parser, the
fingerprint module, molecule tensors, the decoder's pair products and
reconstruction."""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from molvae.chem import (
    BOND_CHAR,
    ELEMENT_INDEX,
    N_BOND_TYPES,
    Atom,
    BondType,
    ChemError,
    MolGraph,
    ValidityReport,
    aromatic_atoms,
    bond_order_sums,
    build,
)
from molvae.encoder import FEATURE_DIM
from molvae.fingerprint import FpConfig
from molvae.numkernel import Edges, PairLayout
from molvae.smiles import ParseResult, SmilesError
from molvae.vaemodel import MolTensors


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


# -- tensor oracle: one molecule at a time, then concatenated ----------------


def _oracle_features(mol: MolGraph) -> np.ndarray:
    """One feature row per atom, filled one atom at a time; an atom's degree
    counts the bonds that list it."""
    degree = Counter(end for i, j, _ in mol.bonds for end in (i, j))
    h = np.zeros((mol.n_atoms, FEATURE_DIM))
    for i, atom in enumerate(mol.atoms):
        h[i, ELEMENT_INDEX[atom.element]] = 1.0
        charge = max(-1, min(1, atom.formal_charge))
        h[i, 10 + charge + 1] = 1.0
        h[i, 13 + min(atom.implicit_h, 4)] = 1.0
        h[i, 18 + min(degree[i], 4)] = 1.0
    return h


def stack_edges(lists: Sequence[Edges], n: int) -> Edges:
    """The edge lists `lists`, each over n rows, as one list into a stack of
    len(lists) slots of n rows: list k's edges land in slot k."""
    return Edges(
        np.concatenate([np.zeros(0, np.int64), *(e.dst + k * n for k, e in enumerate(lists))]),
        np.concatenate([np.zeros(0, np.int64), *(e.src for e in lists)]),
        np.concatenate([np.zeros(0), *(e.w for e in lists)]),
    )


def oracle_mol_tensors(mols: Sequence[MolGraph]) -> MolTensors:
    """`MolTensors.from_mols`, bond by bond: each bond type's directed edges,
    molecule after molecule with atom indices shifted past the atoms before,
    the bond types present filling slots 0, 1, ... of one stacked list."""
    n = sum(mol.n_atoms for mol in mols)
    by_type = [[] for _ in range(N_BOND_TYPES)]  # (dst, src) of each directed edge
    off = 0
    for mol in mols:
        for i, j, t in mol.bonds:
            by_type[t] += [(i + off, j + off), (j + off, i + off)]
        off += mol.n_atoms
    types = tuple(r for r in range(N_BOND_TYPES) if by_type[r])
    dst, src, w = [], [], []
    for k, r in enumerate(types):
        degree = Counter(d for d, _ in by_type[r])
        for d, s in by_type[r]:
            dst.append(d + k * n)
            src.append(s)
            w.append(1.0 / degree[d])
    return MolTensors(
        features=np.concatenate([np.zeros((0, FEATURE_DIM)), *(_oracle_features(mol) for mol in mols)]),
        types=types,
        edges=Edges(np.array(dst, dtype=np.int64), np.array(src, dtype=np.int64), np.array(w, dtype=np.float64)),
        layout=PairLayout([mol.n_atoms for mol in mols]),
    )


def oracle_pair_target(mols: Sequence[MolGraph]) -> np.ndarray:
    """`MolTensors.pair_target`: the strict upper triangle of each molecule's
    dense adjacency, row by row, molecule after molecule."""
    parts = [np.zeros(0)]
    for mol in mols:
        bonded = np.zeros((mol.n_atoms, mol.n_atoms))
        for i, j, _ in mol.bonds:
            bonded[i, j] = bonded[j, i] = 1.0
        parts.append(bonded[np.triu_indices(mol.n_atoms, k=1)])
    return np.concatenate(parts)


def assert_same_tensors(got: MolTensors, want: MolTensors, target: np.ndarray) -> None:
    """Array for array equal, dtypes and edge order included, and `got`'s pair
    targets equal to `target`."""
    pairs = [(got.features, want.features), (got.pair_target, target)]
    pairs += [(got.sizes, want.sizes), (got.layout.counts, want.layout.counts)]
    assert got.types == want.types
    pairs += [(got.edges.dst, want.edges.dst), (got.edges.src, want.edges.src), (got.edges.w, want.edges.w)]
    for g, w in pairs:
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert np.array_equal(g, w)


# -- pair-product oracle: one gather per listed pair ----------------------


def union_pairs(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each molecule's own atom pairs i < j, row by row, as rows of the union
    that lays molecules of `sizes` atoms end to end."""
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for start, n in zip(np.cumsum(sizes) - sizes, sizes):
        i, j = np.triu_indices(n, k=1)
        rows.append(i + start)
        cols.append(j + start)
    return np.concatenate(rows), np.concatenate(cols)


def oracle_pair_dot(z: np.ndarray, i: np.ndarray, j: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner products z[i[k]] . z[j[k]], and the gradient of sum_k g[k] * (z[i[k]] . z[j[k]])
    with respect to z: row i[k] gains g[k] * z[j[k]] and row j[k] gains g[k] * z[i[k]]."""
    grad = np.zeros_like(z)
    np.add.at(grad, i, g[:, None] * z[j])
    np.add.at(grad, j, g[:, None] * z[i])
    return np.einsum("kd,kd->k", z[i], z[j]), grad


# -- structure oracles: one scan over every bond per atom --------------------


def oracle_neighbors(mol: MolGraph, i: int) -> list[tuple[int, BondType]]:
    out = []
    for a, b, t in mol.bonds:
        if a == i:
            out.append((b, t))
        elif b == i:
            out.append((a, t))
    return out


def oracle_degree(mol: MolGraph, i: int) -> int:
    return sum(1 for a, b, _ in mol.bonds if i in (a, b))


# Each bond type's order, written out here rather than read from chem.
BOND_ORDER = {BondType.SINGLE: 1.0, BondType.DOUBLE: 2.0, BondType.TRIPLE: 3.0, BondType.AROMATIC: 1.5}


def oracle_bond_order_sum(mol: MolGraph, i: int) -> float:
    return sum(BOND_ORDER[t] for a, b, t in mol.bonds if i in (a, b))


# Each element's allowed total valences at zero charge, written out here
# rather than read from chem. A charge shifts N's and O's, and leaves no
# valence for any other element.
VALENCES = {
    "H": (1,), "C": (4,), "N": (3,), "O": (2,), "F": (1,),
    "P": (3, 5), "S": (2, 4, 6), "Cl": (1,), "Br": (1,), "I": (1,),
}


def oracle_fill_implicit_h(element: str, charge: int, bond_order: float) -> int | None:
    """The fewest hydrogens, 0 to 4, that bring the bond order (rounded up)
    to an allowed valence, trying each count in turn; None if none does."""
    if charge == 0:
        allowed = VALENCES.get(element, ())
    elif element in ("N", "O") and -2 <= charge <= 2:
        allowed = tuple(v + charge for v in VALENCES[element] if v + charge > 0)
    else:
        allowed = ()
    for h in range(5):
        if math.ceil(bond_order - 1e-9) + h in allowed:
            return h
    return None


def oracle_reconstruct_from_probs(
    mol: MolGraph, probs: np.ndarray, threshold: float
) -> tuple[MolGraph, ValidityReport]:
    """`vaemodel.reconstruct_from_probs`, one atom pair at a time: each pair
    i < j, row by row, is bonded when its entry exceeds the threshold, with
    the input's type of that pair or Single; each atom takes the fewest
    hydrogens that reach an allowed valence, or none and is offending."""
    n = mol.n_atoms
    input_types = {frozenset((i, j)): t for i, j, t in mol.bonds}  # a bond may be listed as (j, i)
    bonds = [
        (i, j, input_types.get(frozenset((i, j)), BondType.SINGLE))
        for i in range(n)
        for j in range(n)
        if i < j and probs[i, j] > threshold
    ]
    atoms, offending = [], []
    for i, atom in enumerate(mol.atoms):
        order = sum(BOND_ORDER[t] for a, b, t in bonds if i in (a, b))
        h = oracle_fill_implicit_h(atom.element, atom.formal_charge, order)
        if h is None:
            offending.append(i)
        atoms.append(Atom(atom.element, atom.formal_charge, h or 0))
    return MolGraph(tuple(atoms), tuple(bonds)), ValidityReport(not offending, tuple(offending))


# -- fingerprint oracles: positions as sets, keys rebuilt from the molecule ---


def connected(mol: MolGraph, slots: Sequence[int]) -> bool:
    """Whether the bonds in `slots` form one connected subgraph."""
    atoms_of = [set(mol.bonds[s][:2]) for s in slots]
    seen, frontier = {0}, [0]
    while frontier:
        k = frontier.pop()
        for other in range(len(slots)):
            if other not in seen and atoms_of[other] & atoms_of[k]:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(slots)


def brute_subgraphs(mol: MolGraph, min_len: int, max_len: int) -> set[frozenset[int]]:
    """Every connected bond subgraph of min_len..max_len bonds, by trying every slot set."""
    return {
        frozenset(slots)
        for k in range(min_len, max_len + 1)
        for slots in itertools.combinations(range(len(mol.bonds)), k)
        if connected(mol, slots)
    }


def slot_sets(masks: Iterable[int]) -> set[frozenset[int]]:
    """Bit masks over bond slots (bit s is slot s) as sets of slots."""
    return {frozenset(s for s in range(m.bit_length()) if m >> s & 1) for m in masks}


def oracle_subgraph_key(mol: MolGraph, subgraph: frozenset[int]) -> str:
    """Sorted bond descriptors such as "C1-c2" of a bond subgraph, joined by "|"."""
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
    """FNV-1a 64-bit hash of `data`, one byte at a time."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def splitmix64(state: int):
    """splitmix64 outputs from `state`, as Python ints."""
    mask = 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def oracle_hash_word(keys: Sequence[str], bits_per_hash: int, nbits: int) -> int:
    """`hash_keys` key by key: each key's splitmix64(fnv1a64(key)) outputs mod nbits."""
    word = 0
    for key in keys:
        gen = splitmix64(fnv1a64(key.encode("ascii")))
        for _ in range(bits_per_hash):
            word |= 1 << (next(gen) % nbits)
    return word


def oracle_fold(bits: frozenset[int], nbits: int, n: int) -> frozenset[int]:
    """Bit b -> b mod n, for nbits a power-of-two multiple of n."""
    ratio, rest = divmod(nbits, n)
    if rest or ratio & (ratio - 1):
        raise ValueError(f"fingerprint lengths {nbits} vs {n}")
    return frozenset(b % n for b in bits)


def oracle_hex(bits: frozenset[int], nbits: int) -> str:
    """nbits/4 hex digits; bit 0 is the high bit of the first digit."""
    buf = bytearray(nbits // 8)
    for b in bits:
        buf[b // 8] |= 0x80 >> (b % 8)
    return buf.hex()


def oracle_fingerprint(mol: MolGraph, cfg: FpConfig = FpConfig()) -> tuple[frozenset[int], int]:
    """On-bit positions and length of `path_fingerprint(mol, cfg)`, from brute-force subgraphs."""
    bits: set[int] = set()
    for subgraph in brute_subgraphs(mol, cfg.min_path, cfg.max_path):
        gen = splitmix64(fnv1a64(oracle_subgraph_key(mol, subgraph).encode("ascii")))
        for _ in range(cfg.bits_per_hash):
            bits.add(next(gen) % cfg.nbits)
    out, nbits = frozenset(bits), cfg.nbits
    while len(out) / nbits < cfg.target_density and nbits % 2 == 0 and nbits // 2 >= 64:
        out, nbits = oracle_fold(out, nbits, nbits // 2), nbits // 2
    return out, nbits


def oracle_similarities(
    a: tuple[frozenset[int], int], b: tuple[frozenset[int], int]
) -> dict[str, float]:
    """Tanimoto, Dice and cosine of two (positions, nbits) fingerprints, as set formulas."""
    n = min(a[1], b[1])
    sa, sb = oracle_fold(a[0], a[1], n), oracle_fold(b[0], b[1], n)
    c, na, nb = len(sa & sb), len(sa), len(sb)
    if na == 0 and nb == 0:
        return {"tanimoto": 1.0, "dice": 1.0, "cosine": 1.0}
    if na == 0 or nb == 0:
        return {"tanimoto": 0.0, "dice": 0.0, "cosine": 0.0}
    return {"tanimoto": c / (na + nb - c), "dice": 2.0 * c / (na + nb), "cosine": c / np.sqrt(na * nb)}


# -- SMILES oracle: the grammar spelled out one character at a time -----------

_ORGANIC = ("Cl", "Br", "C", "N", "O", "F", "P", "S", "I")
_AROMATIC = {"c": "C", "n": "N", "o": "O", "s": "S", "p": "P"}
_BRACKET = ("Cl", "Br", "H", "C", "N", "O", "F", "P", "S", "I")
_BOND_CHARS = {ch: t for t, ch in BOND_CHAR.items()}


def _ascii_digit(c: str) -> bool:
    return "0" <= c <= "9"


@dataclass
class _Pending:
    element: str
    aromatic: bool
    charge: int = 0
    explicit_h: int | None = None


def oracle_parse_smiles(text: str) -> ParseResult:
    """`parse_smiles_ex` as a character-by-character dispatch loop."""
    if text is None or text.strip() == "":
        raise SmilesError("empty SMILES input")
    s = text.strip()
    atoms: list[_Pending] = []
    bonds: list[tuple[int, int, BondType]] = []
    bonded: set[frozenset[int]] = set()  # the two atoms of every bond
    stack: list[int] = []
    prev: int | None = None
    pending_bond: BondType | None = None
    # ring number -> (atom index, explicit bond or None, open position)
    open_rings: dict[int, tuple[int, BondType | None, int]] = {}
    stripped = 0

    def add_atom(pa: _Pending, pos: int) -> None:
        nonlocal prev, pending_bond
        atoms.append(pa)
        idx = len(atoms) - 1
        if prev is not None:
            t = pending_bond
            if t is None:
                t = (
                    BondType.AROMATIC
                    if atoms[prev].aromatic and pa.aromatic
                    else BondType.SINGLE
                )
            _add_bond(prev, idx, t)
        prev = idx
        pending_bond = None

    def _add_bond(i: int, j: int, t: BondType) -> None:
        bonds.append((i, j, t))
        bonded.add(frozenset((i, j)))

    def close_ring(num: int, pos: int) -> None:
        nonlocal pending_bond
        if prev is None:
            raise SmilesError("ring closure digit before any atom", pos)
        if num in open_rings:
            other, t_open, _ = open_rings.pop(num)
            t_here = pending_bond
            pending_bond = None
            if t_open is not None and t_here is not None and t_open != t_here:
                raise SmilesError(f"conflicting bond orders on ring closure {num}", pos)
            t = t_open if t_open is not None else t_here
            if t is None:
                t = (
                    BondType.AROMATIC
                    if atoms[other].aromatic and atoms[prev].aromatic
                    else BondType.SINGLE
                )
            # Only a ring closure can bond an atom to itself or repeat a bond.
            if other == prev:
                raise SmilesError("ring bond closes onto its own atom", pos)
            if frozenset((other, prev)) in bonded:
                raise SmilesError("duplicate bond between the same atoms", pos)
            _add_bond(other, prev, t)
        else:
            open_rings[num] = (prev, pending_bond, pos)
            pending_bond = None

    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c == ".":
            raise SmilesError("dot-disconnected (multi-fragment) input", i)
        if c == "(":
            if prev is None:
                raise SmilesError("branch opens before any atom", i)
            stack.append(prev)
            i += 1
            continue
        if c == ")":
            if not stack:
                raise SmilesError("unmatched ')'", i)
            prev = stack.pop()
            i += 1
            continue
        if c in _BOND_CHARS:
            if pending_bond is not None:
                raise SmilesError("two consecutive bond symbols", i)
            pending_bond = _BOND_CHARS[c]
            i += 1
            continue
        if c in "/\\":
            stripped += 1  # stereo bond marker: treated as an unspecified bond
            i += 1
            continue
        if _ascii_digit(c):
            close_ring(int(c), i)
            i += 1
            continue
        if c == "%":
            if i + 2 >= n or not (_ascii_digit(s[i + 1]) and _ascii_digit(s[i + 2])):
                raise SmilesError("'%' ring closure needs two digits", i)
            close_ring(int(s[i + 1 : i + 3]), i)
            i += 3
            continue
        if c == "[":
            pa, consumed, strip = _oracle_parse_bracket(s, i)
            stripped += strip
            add_atom(pa, i)
            i += consumed
            continue
        matched = False
        for sym in _ORGANIC:
            if s.startswith(sym, i):
                add_atom(_Pending(element=sym, aromatic=False), i)
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if c in _AROMATIC:
            add_atom(_Pending(element=_AROMATIC[c], aromatic=True), i)
            i += 1
            continue
        raise SmilesError(f"unexpected character {c!r}", i)

    if not atoms:
        raise SmilesError("no atoms in input")
    if stack:
        raise SmilesError("unclosed '('", len(s))
    if open_rings:
        num, (_, _, pos) = next(iter(open_rings.items()))
        raise SmilesError(f"ring closure {num} never closed", pos)
    if pending_bond is not None:
        raise SmilesError("dangling bond symbol at end of input", len(s))

    order = bond_order_sums(len(atoms), bonds)
    final_atoms = []
    for idx, pa in enumerate(atoms):
        if pa.explicit_h is not None:
            h = pa.explicit_h
        else:
            h = oracle_fill_implicit_h(pa.element, pa.charge, order[idx]) or 0
        final_atoms.append(
            Atom(element=pa.element, formal_charge=pa.charge, implicit_h=h)
        )
    try:
        mol = build(final_atoms, bonds)
    except ChemError as exc:
        raise SmilesError(f"graph construction failed: {exc}") from exc
    return ParseResult(mol=mol, stripped=stripped)


def _oracle_parse_bracket(s: str, start: int) -> tuple[_Pending, int, int]:
    """Parse a bracket atom at s[start] == '['; returns (atom, chars consumed, stripped)."""
    end = s.find("]", start)
    if end < 0:
        raise SmilesError("unterminated bracket atom", start)
    body = s[start + 1 : end]
    i = 0
    stripped = 0
    while i < len(body) and _ascii_digit(body[i]):  # isotope, discarded
        i += 1
        stripped += 1
    elem = None
    aromatic = False
    for sym in _BRACKET:
        if body.startswith(sym, i):
            elem = sym
            i += len(sym)
            break
    if elem is None and i < len(body) and body[i] in _AROMATIC:
        elem = _AROMATIC[body[i]]
        aromatic = True
        i += 1
    if elem is None:
        raise SmilesError(f"unknown bracket atom {body!r}", start)
    while i < len(body) and body[i] == "@":  # chirality, discarded
        i += 1
        stripped += 1
    explicit_h = 0
    if i < len(body) and body[i] == "H":
        i += 1
        explicit_h = 1
        if i < len(body) and _ascii_digit(body[i]):
            explicit_h = int(body[i])
            i += 1
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        i += 1
        if i < len(body) and _ascii_digit(body[i]):
            charge = sign * int(body[i])
            i += 1
        else:
            charge = sign
            while i < len(body) and body[i] in "+-" and body[i] == ("+" if sign > 0 else "-"):
                charge += sign
                i += 1
    if i != len(body):
        raise SmilesError(f"trailing characters in bracket atom {body!r}", start)
    if not -2 <= charge <= 2:
        raise SmilesError(f"formal charge {charge:+d} outside supported range", start)
    if explicit_h > 4:
        raise SmilesError(f"H count {explicit_h} outside supported range", start)
    return (
        _Pending(element=elem, aromatic=aromatic, charge=charge, explicit_h=explicit_h),
        end - start + 1,
        stripped,
    )

