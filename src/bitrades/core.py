"""Latin bitrades: validation, permutations, surface metrics.

A bitrade is a pair of disjoint triple sets (star, delta) over row,
column and symbol labels, satisfying the exchange axioms R1-R3: the two
sets are disjoint, and for every triple of one set and every pair of
coordinates there is exactly one triple of the other set agreeing in
that pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

ROW, COL, SYM = 0, 1, 2
ROLE_NAMES = ("row", "col", "sym")
PAIRS = ((0, 1), (0, 2), (1, 2))


class BitradeError(Exception):
    pass


class EmptyInput(BitradeError):
    pass


class InternalCheckFailed(BitradeError, AssertionError):
    """A run-time self-check failed: a proven property of a result did not hold.

    An AssertionError in kind, but raised explicitly, so it survives
    ``python -O``.
    """


class AxiomViolation(BitradeError):
    """One of R1-R3 failed; carries the witness triple and coordinate pair."""

    def __init__(self, axiom, triple, pair=None, detail=""):
        self.axiom = axiom
        self.triple = triple
        self.pair = pair
        msg = f"axiom {axiom} violated at {triple}"
        if pair is not None:
            msg += f" in coordinates {pair}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class Label(NamedTuple):
    role: int  # ROW, COL or SYM
    index: int
    name: str

    def __repr__(self):
        return f"{ROLE_NAMES[self.role]}({self.name})"


class Triple(tuple):
    """The labels (row, col, sym) of one cell; it hashes, orders and indexes as a tuple."""

    __slots__ = ()

    def __new__(cls, row, col, sym):
        if (row.role, col.role, sym.role) != (ROW, COL, SYM):
            raise ValueError(f"label roles do not match triple positions: {(row, col, sym)}")
        return tuple.__new__(cls, (row, col, sym))

    def __getnewargs__(self):  # copy and pickle call __new__ with the three labels
        return tuple(self)

    row = property(itemgetter(ROW))
    col = property(itemgetter(COL))
    sym = property(itemgetter(SYM))

    def names(self):
        return (self.row.name, self.col.name, self.sym.name)

    def __repr__(self):
        return "({},{},{})".format(*self.names())


class Bitrade:
    """A validated latin bitrade with pair-lookup indexes.

    Immutable after construction; use :func:`build_bitrade`.  Two derived
    values are kept on it, each computed on first use: the verified Smith
    form of its relation matrix (by ``groups``), and each solved pivot's
    checked answer to Eq(T, a) (by ``solver.solve_pointed``), held as plain
    values that do not refer back to the bitrade.
    """

    def __init__(self, star, delta, universes, star_pair, delta_pair):
        self.star = star  # tuple, canonical (row, col) order
        self.delta = delta
        self.universes = universes  # (rows, cols, syms), tuples of Label
        self._star_pair = star_pair  # {pair: {(value, value): Triple}}
        self._delta_pair = delta_pair
        self._star_set = frozenset(star)
        self._delta_set = frozenset(delta)
        self._relation_smith = None  # (labels, SmithForm of B), set by groups
        self._solutions = {}  # pivot -> values or (rank, nullity, status), set by solver

    @property
    def size(self):
        return len(self.star)

    @property
    def spherical(self):
        """m == size + 2: a separated bitrade with this count lies on a sphere."""
        return sum(map(len, self.universes)) == len(self.star) + 2

    def universe(self, role):
        return self.universes[role]

    @property
    def rows(self):
        return self.universes[ROW]

    @property
    def cols(self):
        return self.universes[COL]

    @property
    def syms(self):
        return self.universes[SYM]

    def in_star(self, t):
        return t in self._star_set

    def in_delta(self, t):
        return t in self._delta_set

    def star_partner(self, triple, pair):
        """The unique star triple agreeing with `triple` in both coordinates of `pair`."""
        return self._star_pair[pair][(triple[pair[0]], triple[pair[1]])]

    def delta_partner(self, triple, pair):
        return self._delta_pair[pair][(triple[pair[0]], triple[pair[1]])]

    def delta_pair_key(self, pair, key):
        return self._delta_pair[pair].get(key)

    def __repr__(self):
        return f"Bitrade(size={self.size}, shape={tuple(len(u) for u in self.universes)})"


def build_bitrade(star, delta):
    """Validate R1-R3 and build an indexed Bitrade.

    Raises EmptyInput, ValueError (duplicates, label inconsistencies) or
    AxiomViolation with the first violated axiom, witness triple and
    coordinate pair.
    """
    star = sorted(star)
    delta = sorted(delta)
    if not star or not delta:
        raise EmptyInput("star and delta must both be non-empty")
    if len(set(star)) != len(star):
        raise ValueError("duplicate triple in star")
    if len(set(delta)) != len(delta):
        raise ValueError("duplicate triple in delta")

    star_set = set(star)
    for q in delta:
        if q in star_set:
            raise AxiomViolation("R1", q, detail="triple occurs in both star and delta")

    def raw_index(triples):
        idx = {pair: {} for pair in PAIRS}
        for t in triples:
            for pair in PAIRS:
                idx[pair].setdefault((t[pair[0]], t[pair[1]]), []).append(t)
        return idx

    star_raw = raw_index(star)
    delta_raw = raw_index(delta)

    for p in star:
        for pair in PAIRS:
            hits = delta_raw[pair].get((p[pair[0]], p[pair[1]]), [])
            if len(hits) != 1:
                raise AxiomViolation(
                    "R2", p, pair,
                    f"{len(hits)} delta triples agree in this coordinate pair (need exactly 1)",
                )
    for q in delta:
        for pair in PAIRS:
            hits = star_raw[pair].get((q[pair[0]], q[pair[1]]), [])
            if len(hits) != 1:
                raise AxiomViolation(
                    "R3", q, pair,
                    f"{len(hits)} star triples agree in this coordinate pair (need exactly 1)",
                )

    universes = []
    for role in (ROW, COL, SYM):
        in_star = {t[role] for t in star}
        labels = sorted(in_star | {t[role] for t in delta})
        if len({lab.index for lab in labels}) != len(labels):
            raise ValueError(f"duplicate {ROLE_NAMES[role]} label index")
        if len({lab.name for lab in labels}) != len(labels):
            raise ValueError(f"duplicate {ROLE_NAMES[role]} label name")
        if len(labels) != len(in_star):
            raise ValueError(f"{ROLE_NAMES[role]} label missing from star")
        universes.append(tuple(labels))

    star_pair = {pair: {k: v[0] for k, v in star_raw[pair].items()} for pair in PAIRS}
    delta_pair = {pair: {k: v[0] for k, v in delta_raw[pair].items()} for pair in PAIRS}
    return Bitrade(tuple(star), tuple(delta), tuple(universes), star_pair, delta_pair)


def mu(T, r, s, c):
    """The permutation mu_{r,s} of delta (coordinates are 0-based).

    First find the star triple d agreeing with c everywhere except at s,
    then the delta triple agreeing with d everywhere except at r.
    Satisfies mu(s, r, mu(r, s, c)) == c.
    """
    if r == s:
        raise ValueError("mu needs two distinct coordinates")
    t = 3 - r - s
    d = T.star_partner(c, (min(t, r), max(t, r)))
    return T.delta_partner(d, (min(t, s), max(t, s)))


def nu(T, r, s, a):
    """The dual permutation nu_{r,s} of star (0-based coordinates)."""
    if r == s:
        raise ValueError("nu needs two distinct coordinates")
    t = 3 - r - s
    b = T.delta_partner(a, (min(t, r), max(t, r)))
    return T.star_partner(b, (min(t, s), max(t, s)))


def tau(T, j, a):
    """tau_j = nu_{j+1, j-1}; its cycle through a fixes coordinate j."""
    return nu(T, (j + 1) % 3, (j + 2) % 3, a)


def tau_cycle(T, j, a):
    """The full cycle of tau_j through a, starting at a."""
    cycle = [a]
    cur = tau(T, j, a)
    while cur != a:
        cycle.append(cur)
        cur = tau(T, j, cur)
    return cycle


def is_indecomposable(T):
    """True iff the two-coordinate-agreement graph on star + delta is connected."""
    start = T.star[0]
    seen_star = {start}
    seen_delta = set()
    frontier = [("star", start)]
    while frontier:
        kind, t = frontier.pop()
        for pair in PAIRS:
            if kind == "star":
                q = T.delta_partner(t, pair)
                if q not in seen_delta:
                    seen_delta.add(q)
                    frontier.append(("delta", q))
            else:
                p = T.star_partner(t, pair)
                if p not in seen_star:
                    seen_star.add(p)
                    frontier.append(("star", p))
    return len(seen_star) == T.size and len(seen_delta) == T.size


def is_separated_bitrade(T):
    """True iff every label's star triples form a single tau cycle.

    tau_j fixes coordinate j, so the tau_j cycle through any star triple
    of a label stays among that label's star triples; they form one
    cycle iff that cycle is as long as the label has star triples.  One
    tau pass over the star per role, building no per-label sets.
    """
    for role in (ROW, COL, SYM):
        count = Counter(p[role] for p in T.star)
        start = {p[role]: p for p in T.star}
        if any(len(tau_cycle(T, role, p)) != count[lab] for lab, p in start.items()):
            return False
    return True


def first_collision(T, image):
    """(role, label, label): the first two labels of one role, in canonical
    order, that ``image`` maps alike; None if it is injective within each role."""
    for role, universe in enumerate(T.universes):
        seen = {}
        for lab in universe:
            first = seen.setdefault(image[lab], lab)
            if first != lab:
                return role, first, lab
    return None


@dataclass(frozen=True)
class Metrics:
    size: int
    o1: int
    o2: int
    o3: int
    m: int
    euler_characteristic: int
    separated: bool
    spherical: bool
    genus: int | None  # None = non-surface

    def as_dict(self):
        return {
            "size": self.size,
            "rows": self.o1,
            "cols": self.o2,
            "syms": self.o3,
            "m": self.m,
            "euler_characteristic": self.euler_characteristic,
            "separated": self.separated,
            "spherical": self.spherical,
            "genus": self.genus,
        }


def metrics(T):
    s = T.size
    o1, o2, o3 = (len(T.universe(r)) for r in (ROW, COL, SYM))
    m = o1 + o2 + o3
    chi = m - s
    if m > s + 2 and is_indecomposable(T):
        raise BitradeError(
            f"m = {m} > size + 2 = {s + 2} on an indecomposable input; "
            "this cannot happen for a latin bitrade"
        )
    separated = is_separated_bitrade(T)
    genus = (2 - chi) // 2 if separated and chi % 2 == 0 else None
    return Metrics(s, o1, o2, o3, m, chi, separated, T.spherical, genus)
