"""SMILES subset parser and a deterministic (non-canonical) writer."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .chem import (
    BOND_CHAR,
    Atom,
    BondType,
    ChemError,
    MolGraph,
    adjacency,
    aromatic_atoms,
    bond_order_sums,
    build,
    fill_implicit_h,
)

ORGANIC_SUBSET = ("Cl", "Br", "C", "N", "O", "F", "P", "S", "I")
AROMATIC_SYMBOLS = {"c": "C", "n": "N", "o": "O", "s": "S", "p": "P"}
BRACKET_SYMBOLS = ("Cl", "Br", "H", "C", "N", "O", "F", "P", "S", "I")

_BOND_CHARS = {ch: t for t, ch in BOND_CHAR.items()}


def _is_ascii_digit(c: str) -> bool:
    # str.isdigit() accepts Unicode digits (e.g. superscripts) that are not
    # valid SMILES and that int() may reject.
    return "0" <= c <= "9"


class SmilesError(ValueError):
    """Base class for SMILES parse and write failures."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EmptyInput(SmilesError):
    pass


class UnknownSymbol(SmilesError):
    pass


class UnbalancedParenthesis(SmilesError):
    pass


class UnclosedRing(SmilesError):
    pass


class DisconnectedInput(SmilesError):
    pass


class Disconnected(SmilesError):
    """Raised by the writer for multi-fragment graphs."""


@dataclass
class _PendingAtom:
    element: str
    aromatic: bool
    charge: int = 0
    explicit_h: int | None = None


@dataclass
class ParseResult:
    mol: MolGraph
    stripped: int = 0  # stereo / isotope annotations discarded


def parse_smiles_ex(text: str) -> ParseResult:
    """Parse a SMILES string, also reporting how many annotations were stripped."""
    if text is None or text.strip() == "":
        raise EmptyInput("empty SMILES input")
    s = text.strip()
    atoms: list[_PendingAtom] = []
    bonds: list[tuple[int, int, BondType]] = []
    bonded: set[tuple[int, int]] = set()  # (earlier atom, later atom) of every bond
    stack: list[int] = []
    prev: int | None = None
    pending_bond: BondType | None = None
    # ring number -> (atom index, explicit bond or None, open position)
    open_rings: dict[int, tuple[int, BondType | None, int]] = {}
    stripped = 0

    def add_atom(pa: _PendingAtom, pos: int) -> None:
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
        bonded.add((i, j))

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
            if (other, prev) in bonded:
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
            raise DisconnectedInput("dot-disconnected (multi-fragment) input", i)
        if c == "(":
            if prev is None:
                raise UnbalancedParenthesis("branch opens before any atom", i)
            stack.append(prev)
            i += 1
            continue
        if c == ")":
            if not stack:
                raise UnbalancedParenthesis("unmatched ')'", i)
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
        if _is_ascii_digit(c):
            close_ring(int(c), i)
            i += 1
            continue
        if c == "%":
            if i + 2 >= n or not (_is_ascii_digit(s[i + 1]) and _is_ascii_digit(s[i + 2])):
                raise SmilesError("'%' ring closure needs two digits", i)
            close_ring(int(s[i + 1 : i + 3]), i)
            i += 3
            continue
        if c == "[":
            pa, consumed, strip = _parse_bracket(s, i)
            stripped += strip
            add_atom(pa, i)
            i += consumed
            continue
        matched = False
        for sym in ORGANIC_SUBSET:
            if s.startswith(sym, i):
                add_atom(_PendingAtom(element=sym, aromatic=False), i)
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if c in AROMATIC_SYMBOLS:
            add_atom(_PendingAtom(element=AROMATIC_SYMBOLS[c], aromatic=True), i)
            i += 1
            continue
        raise UnknownSymbol(f"unexpected character {c!r}", i)

    if not atoms:
        raise EmptyInput("no atoms in input")
    if stack:
        raise UnbalancedParenthesis("unclosed '('", len(s))
    if open_rings:
        num, (_, _, pos) = next(iter(open_rings.items()))
        raise UnclosedRing(f"ring closure {num} never closed", pos)
    if pending_bond is not None:
        raise SmilesError("dangling bond symbol at end of input", len(s))

    order = bond_order_sums(len(atoms), bonds)
    final_atoms = []
    for idx, pa in enumerate(atoms):
        if pa.explicit_h is not None:
            h = pa.explicit_h
        else:
            h = fill_implicit_h(pa.element, pa.charge, order[idx]) or 0
        final_atoms.append(
            Atom(element=pa.element, formal_charge=pa.charge, implicit_h=h)
        )
    try:
        mol = build(final_atoms, bonds)
    except ChemError as exc:
        raise SmilesError(f"graph construction failed: {exc}") from exc
    return ParseResult(mol=mol, stripped=stripped)


def _parse_bracket(s: str, start: int) -> tuple[_PendingAtom, int, int]:
    """Parse a bracket atom at s[start] == '['; returns (atom, chars consumed, stripped)."""
    end = s.find("]", start)
    if end < 0:
        raise SmilesError("unterminated bracket atom", start)
    body = s[start + 1 : end]
    i = 0
    stripped = 0
    while i < len(body) and _is_ascii_digit(body[i]):  # isotope, discarded
        i += 1
        stripped += 1
    elem = None
    aromatic = False
    for sym in BRACKET_SYMBOLS:
        if body.startswith(sym, i):
            elem = sym
            i += len(sym)
            break
    if elem is None and i < len(body) and body[i] in AROMATIC_SYMBOLS:
        elem = AROMATIC_SYMBOLS[body[i]]
        aromatic = True
        i += 1
    if elem is None:
        raise UnknownSymbol(f"unknown bracket atom {body!r}", start)
    while i < len(body) and body[i] == "@":  # chirality, discarded
        i += 1
        stripped += 1
    explicit_h = 0
    if i < len(body) and body[i] == "H":
        i += 1
        explicit_h = 1
        if i < len(body) and _is_ascii_digit(body[i]):
            explicit_h = int(body[i])
            i += 1
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        i += 1
        if i < len(body) and _is_ascii_digit(body[i]):
            charge = sign * int(body[i])
            i += 1
        else:
            charge = sign
            while i < len(body) and body[i] in "+-" and body[i] == ("+" if sign > 0 else "-"):
                charge += sign
                i += 1
    if i != len(body):
        raise UnknownSymbol(f"trailing characters in bracket atom {body!r}", start)
    if not -2 <= charge <= 2:
        raise SmilesError(f"formal charge {charge:+d} outside supported range", start)
    if explicit_h > 4:
        raise SmilesError(f"H count {explicit_h} outside supported range", start)
    return (
        _PendingAtom(element=elem, aromatic=aromatic, charge=charge, explicit_h=explicit_h),
        end - start + 1,
        stripped,
    )


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string into a molecular graph."""
    return parse_smiles_ex(text).mol


def _atom_token(atom: Atom, is_arom: bool, bond_order: float) -> str:
    sym = atom.element
    if is_arom:
        sym = sym.lower()
    default_h = fill_implicit_h(atom.element, 0, bond_order) or 0
    plain_ok = (
        atom.formal_charge == 0
        and atom.element != "H"
        and atom.implicit_h == default_h
        and (not is_arom or atom.element in ("C", "N", "O", "S", "P"))
    )
    if plain_ok:
        return sym
    h = atom.implicit_h
    h_part = "" if h == 0 else ("H" if h == 1 else f"H{h}")
    q = atom.formal_charge
    if q == 0:
        q_part = ""
    elif abs(q) == 1:
        q_part = "+" if q > 0 else "-"
    else:
        q_part = f"+{q}" if q > 0 else str(q)
    return f"[{sym}{h_part}{q_part}]"


def _bond_token(t: BondType, i: int, j: int, aromatic: set[int]) -> str:
    both_arom = i in aromatic and j in aromatic
    if t == BondType.SINGLE:
        return "-" if both_arom else ""
    if t == BondType.AROMATIC:
        return "" if both_arom else ":"
    return BOND_CHAR[t]


def write_smiles(mol: MolGraph) -> str:
    """Emit SMILES by depth-first traversal from node 0.

    Deterministic but not canonical: isomorphic graphs with different node
    numberings may produce different strings. Output re-parses to an
    isomorphic graph.
    """
    n = mol.n_atoms
    if n == 0:
        raise Disconnected("empty graph")
    adj = adjacency(mol)

    visited = [False] * n
    tree_children: list[list[tuple[int, BondType]]] = [[] for _ in range(n)]
    # Per atom, its ring bonds in discovery order: (partner, type, closes here).
    # The DFS finds a ring bond at its later atom in output order, which
    # closes it and carries the bond character.
    ring_at: list[list[tuple[int, BondType, bool]]] = [[] for _ in range(n)]
    ring_seen: set[tuple[int, int]] = set()

    # Iterative DFS building the spanning tree and finding ring-closure edges.
    visited[0] = True
    stack = [(0, iter(adj[0]))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for v, t in it:
            key = (min(u, v), max(u, v))
            if not visited[v]:
                visited[v] = True
                tree_children[u].append((v, t))
                ring_seen.add(key)
                stack.append((v, iter(adj[v])))
                advanced = True
                break
            if key not in ring_seen:
                ring_seen.add(key)
                ring_at[u].append((v, t, True))
                ring_at[v].append((u, t, False))
        if not advanced:
            stack.pop()

    if not all(visited):
        raise Disconnected("graph has more than one connected component")

    aromatic = aromatic_atoms(mol)
    orders = bond_order_sums(n, mol.bonds)

    def ring_digit(num: int) -> str:
        return str(num) if num <= 9 else f"%{num:02d}"

    out: list[str] = []
    # Labels are assigned as they are written: a new ring bond takes the
    # lowest free label, and a closed label is free again after its atom.
    open_labels: dict[tuple[int, int], int] = {}  # (opening, closing atom) -> label
    free_labels: list[int] = []  # a min-heap of released labels below next_label
    next_label = 1

    # Preorder walk of the spanning tree. The stack holds atoms still to
    # write, each with its parent and bond, and the branch parentheses
    # between them.
    todo: list[tuple[int, int, BondType | None] | str] = [(0, -1, None)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        u, parent, bond_from_parent = item
        if bond_from_parent is not None:
            out.append(_bond_token(bond_from_parent, parent, u, aromatic))
        out.append(_atom_token(mol.atoms[u], u in aromatic, orders[u]))
        closed = []
        for partner, t, closes_here in ring_at[u]:
            if closes_here:
                num = open_labels.pop((partner, u))
                closed.append(num)
                out.append(_bond_token(t, u, partner, aromatic))
            else:
                if free_labels:
                    num = heapq.heappop(free_labels)
                else:
                    num = next_label
                    next_label += 1
                if num > 99:
                    raise SmilesError("needs more than 99 ring-closure labels at once")
                open_labels[(u, partner)] = num
            out.append(ring_digit(num))
        for num in closed:
            heapq.heappush(free_labels, num)
        # Pushed in reverse: every child but the last is a parenthesised branch.
        kids = [(v, u, t) for v, t in tree_children[u]]
        todo += kids[-1:]
        for kid in reversed(kids[:-1]):
            todo += [")", kid, "("]
    return "".join(out)
