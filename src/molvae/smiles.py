"""SMILES subset parser and a deterministic (non-canonical) writer."""

from __future__ import annotations

import heapq
import re
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

_BOND_CHARS = {ch: t for t, ch in BOND_CHAR.items()}

# The written form of ring-bond labels 1-99; index 0 is never used.
_RING_LABELS = tuple(str(num) if num <= 9 else f"%{num:02d}" for num in range(100))

# One SMILES token per match; `other` takes any single character no other
# group does, and is an error. Digits are ASCII: `\d` would also take other
# scripts' digits, which SMILES does not allow.
_TOKEN = re.compile(
    r"(?P<organic>Cl|Br|[CNOFPSI])|(?P<aromatic>[cnops])|(?P<bracket>\[[^\]]*\])"
    r"|(?P<bond>[-=#:])|(?P<stereo>[/\\])|(?P<ring>[0-9]|%[0-9]{2})"
    r"|(?P<open>\()|(?P<close>\))|(?P<other>.)",
    re.DOTALL,
)

# A bracket atom's body. It matches every string; a non-empty `rest` is an error.
_BRACKET = re.compile(
    r"(?P<isotope>[0-9]*)(?P<element>Cl|Br|[HCNOFPSI]|[cnops])?(?P<chirality>@*)"
    r"(?P<h>H[0-9]?)?(?P<charge>[+-][0-9]|\++|-+)?(?P<rest>.*)",
    re.DOTALL,
)


class SmilesError(ValueError):
    """Base class for SMILES parse and write failures."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Disconnected(SmilesError):
    """Raised by the writer for multi-fragment graphs."""


@dataclass
class ParseResult:
    mol: MolGraph
    stripped: int = 0  # stereo / isotope annotations discarded


def parse_smiles_ex(text: str) -> ParseResult:
    """Parse a SMILES string, also reporting how many annotations were stripped."""
    s = "" if text is None else text.strip()
    if not s:
        raise SmilesError("empty SMILES input")
    # Per atom, in parallel: element, aromatic flag, charge, and H count (None: implicit).
    elements, aromatic, charges, explicit_h = [], [], [], []
    bonds: list[tuple[int, int, BondType]] = []
    bonded: set[tuple[int, int]] = set()  # (earlier atom, later atom) of every bond
    stack: list[int] = []
    prev: int | None = None
    pending_bond: BondType | None = None
    # ring number -> (atom index, explicit bond or None, open position)
    open_rings: dict[int, tuple[int, BondType | None, int]] = {}
    stripped = 0

    for m in _TOKEN.finditer(s):
        kind, tok = m.lastgroup, m.group()
        if kind == "organic" or kind == "aromatic" or kind == "bracket":
            if kind == "organic":
                element, arom, charge, h = tok, False, 0, None
            elif kind == "aromatic":
                element, arom, charge, h = tok.upper(), True, 0, None
            else:
                element, arom, charge, h, n = _parse_bracket(tok[1:-1], m.start())
                stripped += n
            k = len(elements)
            elements.append(element)
            aromatic.append(arom)
            charges.append(charge)
            explicit_h.append(h)
            if prev is not None:
                t = pending_bond
                # Compared with None: BondType.SINGLE is 0, so `t or ...` would make c-c aromatic.
                if t is None:
                    t = BondType.AROMATIC if arom and aromatic[prev] else BondType.SINGLE
                bonds.append((prev, k, t))
                bonded.add((prev, k))
            prev = k
            pending_bond = None
        elif kind == "bond":
            if pending_bond is not None:
                raise SmilesError("two consecutive bond symbols", m.start())
            pending_bond = _BOND_CHARS[tok]
        elif kind == "stereo":
            stripped += 1  # stereo bond marker: treated as an unspecified bond
        elif kind == "ring":
            num = int(tok.lstrip("%"))
            if prev is None:
                raise SmilesError("ring closure digit before any atom", m.start())
            if num not in open_rings:
                open_rings[num] = (prev, pending_bond, m.start())
            else:
                other, t, _ = open_rings.pop(num)
                if t is None:
                    t = pending_bond
                elif pending_bond is not None and t != pending_bond:
                    raise SmilesError(f"conflicting bond orders on ring closure {num}", m.start())
                # Only a ring closure can bond an atom to itself or repeat a bond.
                if other == prev:
                    raise SmilesError("ring bond closes onto its own atom", m.start())
                pair = (other, prev) if other < prev else (prev, other)
                if pair in bonded:
                    raise SmilesError("duplicate bond between the same atoms", m.start())
                if t is None:
                    t = BondType.AROMATIC if aromatic[other] and aromatic[prev] else BondType.SINGLE
                bonds.append((other, prev, t))
                bonded.add(pair)
            pending_bond = None
        elif kind == "open":
            if prev is None:
                raise SmilesError("branch opens before any atom", m.start())
            stack.append(prev)
        elif kind == "close":
            if not stack:
                raise SmilesError("unmatched ')'", m.start())
            prev = stack.pop()
        elif tok == ".":
            raise SmilesError("dot-disconnected (multi-fragment) input", m.start())
        elif tok == "[":
            raise SmilesError("unterminated bracket atom", m.start())
        elif tok == "%":
            raise SmilesError("'%' ring closure needs two digits", m.start())
        else:
            raise SmilesError(f"unexpected character {tok!r}", m.start())

    if not elements:
        raise SmilesError("no atoms in input")
    if stack:
        raise SmilesError("unclosed '('", len(s))
    if open_rings:
        num, (_, _, pos) = next(iter(open_rings.items()))
        raise SmilesError(f"ring closure {num} never closed", pos)
    if pending_bond is not None:
        raise SmilesError("dangling bond symbol at end of input", len(s))

    order = bond_order_sums(len(elements), bonds)
    atoms = [
        Atom(e, q, h if h is not None else fill_implicit_h(e, q, o) or 0)
        for e, q, h, o in zip(elements, charges, explicit_h, order)
    ]
    # The checks above leave `build` nothing to reject in a parsed input, but
    # it stays the one validator of a graph, so its error still ends here.
    try:
        mol = build(atoms, bonds)
    except ChemError as exc:
        raise SmilesError(f"graph construction failed: {exc}") from exc
    return ParseResult(mol=mol, stripped=stripped)


def _parse_bracket(body: str, pos: int) -> tuple[str, bool, int, int, int]:
    """`[body]` at `pos` as element, aromatic flag, charge, H count and characters stripped."""
    m = _BRACKET.match(body)
    element = m["element"]
    if element is None:
        raise SmilesError(f"unknown bracket atom {body!r}", pos)
    if m["rest"]:
        raise SmilesError(f"trailing characters in bracket atom {body!r}", pos)
    q = m["charge"] or ""  # "", "+", "--", "+2", ...
    charge = int(q) if q[1:].isdecimal() else q.count("+") - q.count("-")
    if not -2 <= charge <= 2:
        raise SmilesError(f"formal charge {charge:+d} outside supported range", pos)
    h = m["h"]
    explicit_h = int(h[1:] or 1) if h else 0
    if explicit_h > 4:
        raise SmilesError(f"H count {explicit_h} outside supported range", pos)
    stripped = len(m["isotope"]) + len(m["chirality"])
    return element.capitalize(), element.islower(), charge, explicit_h, stripped


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
            key = (u, v) if u < v else (v, u)
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
            out.append(_RING_LABELS[num])
        for num in closed:
            heapq.heappush(free_labels, num)
        # Pushed in reverse: every child but the last is a parenthesised branch.
        kids = [(v, u, t) for v, t in tree_children[u]]
        todo += kids[-1:]
        for kid in reversed(kids[:-1]):
            todo += [")", kid, "("]
    return "".join(out)
