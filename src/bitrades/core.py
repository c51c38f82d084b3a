"""Latin bitrades: validation, permutations, surface metrics.

A bitrade is a pair of disjoint triple sets (star, delta) over row,
column and symbol labels, satisfying the exchange axioms R1-R3: the two
sets are disjoint, and for every triple of one set and every pair of
coordinates there is exactly one triple of the other set agreeing in
that pair.  That triple is the partner of the triple at the third, free
coordinate j, the one coordinate where the two may differ; the paper's
permutations mu, nu and tau_j step from partner to partner.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

ROW, COL, SYM = 0, 1, 2
ROLE_NAMES = ("row", "col", "sym")
PAIRS = ((0, 1), (0, 2), (1, 2))  # the coordinate pairs that AxiomViolation names
_OFF = (itemgetter(1, 2), itemgetter(0, 2), itemgetter(0, 1))  # _OFF[j](t): t's key off j


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
    """A validated latin bitrade with partner indexes keyed by the free coordinate.

    ``star_partner(t, j)`` and ``delta_partner(t, j)`` are the only readers
    of the indexes.  Immutable after construction; use
    :func:`build_bitrade`.  Three derived values are kept on it, each
    computed on first use: whether it is indecomposable; and, by
    ``solver``, the certified Smith form of its relation matrix, the one
    factorisation of B that every pointed solve, G(T), H(T) and every
    deleted-column minor read, and each solved pivot's checked answer to
    Eq(T, a), held as plain values that do not refer back to the bitrade.
    """

    def __init__(self, star, delta, universes, star_index, delta_index, star_set, delta_set):
        self.star = star  # tuple, canonical (row, col) order
        self.delta = delta
        self.universes = universes  # (rows, cols, syms), tuples of Label
        self._star_index = star_index  # [j] -> {_OFF[j](t): t}
        self._delta_index = delta_index
        self._star_set = star_set  # frozensets of star and delta
        self._delta_set = delta_set
        self._relation_smith = None  # (labels, SmithForm of B), set by solver
        self._solutions = {}  # pivot -> values or (rank, nullity, status), set by solver

    @property
    def size(self):
        return len(self.star)

    @cached_property
    def indecomposable(self):
        """``is_indecomposable``, searched on first use only."""
        return is_indecomposable(self)

    @property
    def spherical(self):
        """m == size + 2 and indecomposable: a separated such bitrade lies on a sphere.

        A sphere is connected, so a decomposable bitrade is never spherical,
        even where its m is size + 2 (a torus beside a sphere).  The count
        is tested first, so the partner search runs only where it decides.
        """
        return sum(map(len, self.universes)) == len(self.star) + 2 and self.indecomposable

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

    def star_partner(self, t, j):
        """The star triple agreeing with `t` off coordinate j, or None."""
        return self._star_index[j].get(_OFF[j](t))

    def delta_partner(self, t, j):
        """The delta triple agreeing with `t` off coordinate j, or None."""
        return self._delta_index[j].get(_OFF[j](t))

    def __repr__(self):
        return f"Bitrade(size={self.size}, shape={tuple(len(u) for u in self.universes)})"


def build_bitrade(star, delta):
    """Validate R1-R3 and build an indexed Bitrade.

    R2 and R3 hold iff, for each free coordinate j, neither side repeats
    a key _OFF[j](t), t's two coordinates other than j, and both sides
    have the same keys: a key that one side repeats gives some triple two
    partners or none, and a key of one side only gives its triple none.
    The key dicts, one per j and side, are kept as the partner indexes.
    R3 pairs each delta triple with a star triple in (row, col) and in
    (row, sym), so every delta label is a star label, and the universes
    are the star's labels.

    Raises EmptyInput, ValueError (duplicates, label inconsistencies) or
    AxiomViolation with the first violated axiom, witness triple and
    coordinate pair: R2 over the star, then R3 over the delta, each in
    canonical order.
    """
    star = sorted(star)
    delta = sorted(delta)
    if not star or not delta:
        raise EmptyInput("star and delta must both be non-empty")
    star_set = frozenset(star)
    delta_set = frozenset(delta)
    if len(star_set) != len(star):
        raise ValueError("duplicate triple in star")
    if len(delta_set) != len(delta):
        raise ValueError("duplicate triple in delta")
    if not star_set.isdisjoint(delta_set):
        q = next(q for q in delta if q in star_set)
        raise AxiomViolation("R1", q, detail="triple occurs in both star and delta")

    star_index, delta_index = [], []
    for off in _OFF:
        si = dict(zip(map(off, star), star))
        di = dict(zip(map(off, delta), delta))
        if len(si) != len(star) or len(di) != len(delta) or si.keys() != di.keys():
            raise _first_violation(star, delta)
        star_index.append(si)
        delta_index.append(di)

    universes = []
    for role, column in enumerate(zip(*star)):
        # no delta label is missing here: R3 put each one in the star
        labels = sorted(set(column))
        if len({lab.index for lab in labels}) != len(labels):
            raise ValueError(f"duplicate {ROLE_NAMES[role]} label index")
        if len({lab.name for lab in labels}) != len(labels):
            raise ValueError(f"duplicate {ROLE_NAMES[role]} label name")
        universes.append(tuple(labels))
    return Bitrade(tuple(star), tuple(delta), tuple(universes), star_index, delta_index,
                   star_set, delta_set)


def _first_violation(star, delta):
    """The AxiomViolation of the first star triple (R2), else delta triple (R3),
    with a coordinate pair in which the other side has no or several partners."""
    counts = {pair: [Counter((t[pair[0]], t[pair[1]]) for t in side) for side in (star, delta)]
              for pair in PAIRS}
    for axiom, side, other, name in (("R2", star, 1, "delta"), ("R3", delta, 0, "star")):
        for t in side:
            for pair in PAIRS:
                hits = counts[pair][other][t[pair[0]], t[pair[1]]]
                if hits != 1:
                    return AxiomViolation(
                        axiom, t, pair,
                        f"{hits} {name} triples agree in this coordinate pair (need exactly 1)",
                    )
    raise InternalCheckFailed("pair keys differ but every triple has exactly one partner")


def mu(T, r, s, c):
    """The permutation mu_{r,s} of delta (coordinates are 0-based).

    First find the star triple d agreeing with c everywhere except at s,
    then the delta triple agreeing with d everywhere except at r.
    Satisfies mu(s, r, mu(r, s, c)) == c.
    """
    if r == s:
        raise ValueError("mu needs two distinct coordinates")
    return T.delta_partner(T.star_partner(c, s), r)


def nu(T, r, s, a):
    """The dual permutation nu_{r,s} of star (0-based coordinates)."""
    if r == s:
        raise ValueError("nu needs two distinct coordinates")
    return T.star_partner(T.delta_partner(a, s), r)


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
        for j in range(3):
            if kind == "star":
                q = T.delta_partner(t, j)
                if q not in seen_delta:
                    seen_delta.add(q)
                    frontier.append(("delta", q))
            else:
                p = T.star_partner(t, j)
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
    genus: int | None  # None = not one surface: not separated, or decomposable

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
    if m > s + 2 and T.indecomposable:
        raise InternalCheckFailed(
            f"m = {m} > size + 2 = {s + 2} on an indecomposable input; "
            "this cannot happen for a latin bitrade"
        )
    separated = is_separated_bitrade(T)
    # chi = 2 - 2 genus holds on one connected surface, not on a union of several
    genus = (2 - chi) // 2 if separated and chi % 2 == 0 and T.indecomposable else None
    return Metrics(s, o1, o2, o3, m, chi, separated, T.spherical, genus)
