"""Exact integer solving of the pointed linear system of a bitrade.

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
rank(B) - 1 and nullity nullity(B) - 2.  B's certified Smith form
U B V = D, computed once per bitrade and kept on it
(``_relation_smith``), is the one factorisation of B: ``solve_pointed``
reads every pivot's system off it, and ``groups`` reads G(T), H(T) and
the deleted-column minors off it.

A solution is solved and checked in integers: d times the values, d
from the Smith diagonal, reduced once to (n, n * values) over the width
n, the lcm of the values' denominators.  ``Solution`` holds that pair
as ``scaled``, which every reader in the library uses, and builds the
``Fraction`` values only when ``values`` is read.

``solve_pointed`` keeps each pivot's checked answer on its bitrade (the
pair (n, n * values), or the rank, nullity and status of a singular
system), so a (T, a) solved again, as by the separations that share one
pivot, is not solved again.  Only plain integers are kept, never a
``Solution``: it refers back to the bitrade, and that cycle would leave
the bitrade for the cyclic garbage collector to free instead of
reference counting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Bitrade, BitradeError, InternalCheckFailed, Triple, first_collision
from .exact import smith_normal_form


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


class Solution:
    """Exact values, one per label, for a pointed bitrade.

    ``scaled`` is (n, {label: n * value}): the values as integers over their
    width n, the lcm of their denominators.  ``values`` is {label: Fraction}.
    ``solve_pointed`` gives ``scaled``, and ``values`` is built from it on
    first read; ``Solution(pointed, values)`` derives ``scaled`` from the
    Fractions instead.
    """

    def __init__(self, pointed, values):
        self.pointed = pointed
        self.values = values  # fills the cached property of that name

    @classmethod
    def _over_width(cls, pointed, n, scaled):
        sol = cls.__new__(cls)
        sol.pointed = pointed
        sol.scaled = n, scaled
        return sol

    @property
    def bitrade(self):
        return self.pointed.bitrade

    @property
    def pivot(self):
        return self.pointed.pivot

    @functools.cached_property
    def values(self):
        n, scaled = self.scaled
        return {lab: Fraction(v, n) for lab, v in scaled.items()}

    @functools.cached_property
    def scaled(self):
        """(n, {label: n * value}): the values as integers over their lcm denominator n."""
        n, (scaled,) = _to_width([self.values.values()])
        return n, dict(zip(self.values, scaled))

    def width(self):
        """Least common multiple of the value denominators (always >= 2)."""
        n = self.scaled[0]
        if n < 2:
            raise InternalCheckFailed(f"solution width {n} is below 2")
        return n


def _to_width(rows):
    """(n, [tuple of n * x for each row]): rational rows over n, the lcm of their denominators."""
    # pairwise: math.lcm(*many) leaks memory on CPython 3.11 and 3.12
    n = functools.reduce(math.lcm, {x.denominator for row in rows for x in row}, 1)
    return n, [tuple(x.numerator * (n // x.denominator) for x in row) for row in rows]


def _relation_smith(T):
    """(labels, Smith form U B V = D of B), computed once per bitrade.

    The form is certified before it is kept on T, and its readers never
    modify it.
    """
    if T._relation_smith is None:
        B, labels = relation_matrix(T)
        T._relation_smith = labels, smith_normal_form(B)
    return T._relation_smith


def solve_pointed(pointed):
    """Solve Eq(T, a) exactly; raises SingularSystem if not unique.

    Reads B's Smith form; checks every equation of Eq(T, a), the pivot's symbol
    value 1 and, on a spherical T, the range [0, 1]; a failure raises
    InternalCheckFailed.  The checked answer is kept on T, so each (T, a) is solved
    at most once.
    """
    T, a = pointed.bitrade, pointed.pivot
    known = T._solutions.get(a)
    if known is None:
        known = T._solutions[a] = _solve(T, a)
    if len(known) == 3:  # (rank, nullity, status), not (n, scaled)
        raise SingularSystem(*known)
    n, scaled = known
    return Solution._over_width(pointed, n, dict(scaled))


def _solve(T, a):
    """Eq(T, a)'s checked (n, {label: n * value}), or (rank, nullity, status) if singular.

    With r = rank B and x = V z, B x = -e_a is D z = -U e_a.  It is inconsistent iff
    U[k][i] != 0 for some k >= r, i the pivot's row of B: row k of U is then a y with
    y B = 0 (row k of U B V = D is 0, and V is invertible over Z) and y e_a != 0.
    Otherwise, with d = d_r > 0, the largest nonzero d_k, which every d_k divides,
    z_k = -U[k][i] d / d_k (k < r) gives x = V z, d times a solution; only the k
    with U[k][i] != 0 contribute.  The checks run on these integers, and dividing
    them and d by their gcd g gives the values over their width d / g.
    """
    labels, snf = _relation_smith(T)
    i = T.star.index(a)
    m, r = len(labels), snf.rank
    inconsistent = any(row[i] for row in snf.U[r:])
    if inconsistent or m - r > 2:
        return r - 1, m - r - 2, "no_solution" if inconsistent else "non_unique"
    d = snf.diagonal[r - 1]
    x = [0] * m
    for k, (row, dk) in enumerate(zip(snf.U, snf.diagonal[:r])):
        if row[i]:
            zk = -row[i] * (d // dk)
            x = [xj + Vj[k] * zk for xj, Vj in zip(x, snf.V)]
    x = dict(zip(labels, x))
    shift = (x[a.row], x[a.col], x[a.row] + x[a.col])  # x[a.row] k1 + x[a.col] k2 by role
    y = {lab: v - shift[lab.role] for lab, v in x.items()}  # d times the solution
    for p in T.star:
        if p != a and y[p.row] + y[p.col] != y[p.sym]:
            raise InternalCheckFailed(f"solution breaks the equation of {p}")
    # y is 0 at the pivot's row and column by construction; y[a.sym] = d is
    # row a of B x = -e_a, the one equation not checked above
    if y[a.sym] != d:
        raise InternalCheckFailed(f"solution does not fix the pivot {a}'s symbol at 1")
    if not all(0 <= v <= d for v in y.values()) and T.spherical:
        raise InternalCheckFailed("spherical solution has a value outside [0, 1]")
    g = math.gcd(d, *y.values())
    return d // g, {lab: v // g for lab, v in y.items()}


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
