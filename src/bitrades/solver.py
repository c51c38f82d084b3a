"""Exact rational solving of the pointed linear system of a bitrade.

For a bitrade T with a pivot star triple a, the system Eq(T, a) fixes
the pivot's row and column values at 0 and its symbol value at 1, drops
the pivot's own equation, and asks for row + col = sym on every other
star triple.  A spherical bitrade has a unique solution; the solution
values induce integer homotopies into cyclic groups.

Eq(T, a) is B x = -e_a, B the relation matrix (one row row + col - sym
per star triple), with x = 0 at the pivot's row and column labels.  As
ker B always holds the trivial homotopies k1 (1 on rows and symbols)
and k2 (1 on columns and symbols), a solution x of B x = -e_a gives the
solution x - x[a.row] k1 - x[a.col] k2 of Eq(T, a), which has rank
rank(B) - 1 and nullity nullity(B) - 2.  So ``eliminate_pivots``
eliminates B once for many pivots; ``solve_pointed`` reads each one, and
``groups.check_det_invariance`` reads the deleted-column minors off the
same elimination.

``solve_pointed`` keeps each pivot's checked answer on its bitrade (the
values, or the rank, nullity and status of a singular system), so a
(T, a) solved again, as by the separations that share one pivot, is
not eliminated again.  Only plain values are kept, never a ``Solution``:
it refers back to the bitrade, and that cycle would leave the bitrade
for the cyclic garbage collector to free instead of reference counting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Bitrade, BitradeError, InternalCheckFailed, Triple, first_collision
from .exact import eliminate


class SingularSystem(BitradeError):
    """The pointed system has no unique solution."""

    def __init__(self, rank, nullity, status):
        self.rank = rank
        self.nullity = nullity
        self.status = status
        detail = (f"solution space dimension {nullity}" if status == "non_unique"
                  else "inconsistent equations")
        super().__init__(f"pointed system is singular (rank {rank}, {detail})")


@dataclass(frozen=True)
class PointedBitrade:
    bitrade: Bitrade
    pivot: Triple

    def __post_init__(self):
        if not self.bitrade.in_star(self.pivot):
            raise ValueError(f"pivot {self.pivot} is not a star triple")


def relation_matrix(T):
    """B: one row per star triple, columns in universe order (rows, cols, syms)."""
    labels = [lab for universe in T.universes for lab in universe]
    col_of = {lab: j for j, lab in enumerate(labels)}
    B = []
    for p in T.star:
        row = [0] * len(labels)
        row[col_of[p.row]] = 1
        row[col_of[p.col]] = 1
        row[col_of[p.sym]] = -1
        B.append(row)
    return B, labels


@dataclass(frozen=True)
class Solution:
    """Exact rational values, one per label, for a pointed bitrade."""

    pointed: PointedBitrade
    values: dict  # Label -> Fraction

    @property
    def bitrade(self):
        return self.pointed.bitrade

    @property
    def pivot(self):
        return self.pointed.pivot

    @functools.cached_property
    def scaled(self):
        """(n, {label: n * value}): the values as integers over their lcm denominator n."""
        # pairwise: math.lcm(*many) leaks memory on CPython 3.11 and 3.12
        n = functools.reduce(math.lcm, {v.denominator for v in self.values.values()}, 1)
        return n, {lab: v.numerator * (n // v.denominator) for lab, v in self.values.items()}

    def width(self):
        """Least common multiple of the value denominators (always >= 2)."""
        n = self.scaled[0]
        if n < 2:
            raise InternalCheckFailed(f"solution width {n} is below 2")
        return n


@dataclass(frozen=True)
class PivotElimination:
    """[B | -e_a, one column per pivot a] after one elimination of B."""

    bitrade: Bitrade
    labels: list  # the columns of B
    rows: list  # the reduced rows
    pivot_cols: list
    d: int  # the last pivot: every reduced row is d times a rational row
    column: dict  # pivot -> its right-hand side's column


def eliminate_pivots(T, pivots):
    """Eliminate B once, carrying one -e_a column for every pivot a."""
    B, labels = relation_matrix(T)
    column = {a: k for k, a in enumerate(dict.fromkeys(pivots), len(labels))}
    if not all(map(T.in_star, column)):
        raise ValueError("a pivot is not a star triple")
    M = [row + [0] * len(column) for row in B]
    for row, p in zip(M, T.star):
        if p in column:
            row[column[p]] = -1
    pivot_cols, d = eliminate(M, len(labels))
    return PivotElimination(T, labels, M, pivot_cols, d, column)


def solve_pointed(pointed, elimination=None):
    """Solve Eq(T, a) exactly; raises SingularSystem if not unique.

    Reads ``elimination`` (``eliminate_pivots(T, pivots)``, a in pivots) or eliminates
    for a alone.  Checks every equation of Eq(T, a), the pivot's symbol value 1 and,
    on a spherical T, the range [0, 1]; a failure raises InternalCheckFailed.  The
    checked answer is kept on T, so each (T, a) is eliminated at most once.
    """
    T, a = pointed.bitrade, pointed.pivot
    if elimination is not None and (elimination.bitrade is not T
                                    or a not in elimination.column):
        raise ValueError(f"pivot {a} of this bitrade was not eliminated")
    known = T._solutions.get(a)
    if known is None:
        known = T._solutions[a] = _solve(T, a, elimination or eliminate_pivots(T, [a]))
    if type(known) is tuple:
        raise SingularSystem(*known)
    return Solution(pointed, dict(known))


def _solve(T, a, E):
    """Eq(T, a)'s checked values read off E, or (rank, nullity, status) if singular."""
    k, d, labels = E.column[a], E.d, E.labels
    m, r = len(labels), len(E.pivot_cols)
    inconsistent = any(row[k] for row in E.rows[r:])
    if inconsistent or m - r > 2:
        return r - 1, m - r - 2, "no_solution" if inconsistent else "non_unique"
    x = dict.fromkeys(labels, 0)
    x.update((labels[c], row[k]) for row, c in zip(E.rows, E.pivot_cols))
    shift = (x[a.row], x[a.col], x[a.row] + x[a.col])  # x[a.row] k1 + x[a.col] k2 by role
    y = {lab: v - shift[lab.role] for lab, v in x.items()}  # d times the solution
    for p in T.star:
        if p != a and y[p.row] + y[p.col] != y[p.sym]:
            raise InternalCheckFailed(f"solution breaks the equation of {p}")
    # y is 0 at the pivot's row and column by construction; y[a.sym] = d is
    # row a of B x = -e_a, the one equation not checked above
    if y[a.sym] != d:
        raise InternalCheckFailed(f"solution does not fix the pivot {a}'s symbol at 1")
    if T.spherical and not all(0 <= v * d <= d * d for v in y.values()):
        raise InternalCheckFailed("spherical solution has a value outside [0, 1]")
    return {lab: Fraction(v, d) for lab, v in y.items()}


def is_separated_solution(sol):
    """Do the values distinguish every pair of labels within each role?

    Returns (True, None) or (False, (role, label, label)) with the first
    colliding pair in canonical order.
    """
    witness = first_collision(sol.bitrade, sol.scaled[1])
    return witness is None, witness


@dataclass(frozen=True)
class Homotopy:
    """Role-preserving map from labels into Z_modulus.

    Satisfies maps[row] + maps[col] == maps[sym] (mod modulus) on every
    star triple of its bitrade.
    """

    modulus: int
    maps: dict  # Label -> int

    @classmethod
    def checked(cls, T, modulus, maps):
        """Construct and verify the homotopy law; the only constructor used."""
        for p in T.star:
            if (maps[p.row] + maps[p.col] - maps[p.sym]) % modulus != 0:
                raise InternalCheckFailed(f"homotopy law fails at {p} (mod {modulus})")
        return cls(modulus, dict(maps))

    def __call__(self, lab):
        return self.maps[lab]

    def separates(self, x, y):
        return self.maps[x] % self.modulus != self.maps[y] % self.modulus


def induced_homotopy(sol):
    """Scale the solution by its width and reduce mod the width."""
    n, scaled = near_values(sol)
    return Homotopy.checked(sol.bitrade, n, {lab: v % n for lab, v in scaled.items()})


def near_values(sol):
    """Unreduced scaled values: n * value, so the pivot symbol maps to n.

    The width n is the lcm of the values' denominators, so every n * value
    is an integer.
    """
    return sol.width(), dict(sol.scaled[1])
