"""Exact rational solving of the pointed linear system of a bitrade.

For a bitrade T with a pivot star triple a, the system fixes the pivot's
row and column values at 0 and its symbol value at 1, drops the pivot's
own equation, and asks for row + col = sym on every other star triple.
A spherical bitrade has a unique solution; the solution values induce
integer homotopies into cyclic groups.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    COL,
    ROW,
    SYM,
    Bitrade,
    BitradeError,
    InternalCheckFailed,
    Label,
    Triple,
    metrics,
)
from .exact import gauss_solve


class SingularSystem(BitradeError):
    """The pointed system has no unique solution."""

    def __init__(self, rank, nullity, status):
        self.rank = rank
        self.nullity = nullity
        self.status = status
        if status == "no_solution":
            detail = "inconsistent equations"
        else:
            detail = f"solution space dimension {nullity}"
        super().__init__(f"pointed system is singular (rank {rank}, {detail})")


@dataclass(frozen=True)
class PointedBitrade:
    bitrade: Bitrade
    pivot: Triple

    def __post_init__(self):
        if not self.bitrade.in_star(self.pivot):
            raise ValueError(f"pivot {self.pivot} is not a star triple")


def all_labels(T):
    return [lab for role in (ROW, COL, SYM) for lab in T.universe(role)]


def build_system(T, pivot):
    """Coefficient matrix and right-hand side of the pointed system.

    Columns are the non-pivot labels in universe order (rows, cols,
    syms); one equation per non-pivot star triple.
    """
    fixed = {pivot.row: Fraction(0), pivot.col: Fraction(0), pivot.sym: Fraction(1)}
    columns = [lab for lab in all_labels(T) if lab not in fixed]
    col_of = {lab: j for j, lab in enumerate(columns)}
    A, b = [], []
    for p in T.star:
        if p == pivot:
            continue
        row = [0] * len(columns)
        rhs = Fraction(0)
        for lab, coeff in ((p.row, 1), (p.col, 1), (p.sym, -1)):
            if lab in fixed:
                rhs -= coeff * fixed[lab]
            else:
                row[col_of[lab]] += coeff
        A.append(row)
        b.append(rhs)
    return A, b, columns, fixed


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

    def width(self):
        """Least common multiple of the value denominators (always >= 2)."""
        # pairwise: math.lcm(*many) leaks memory on CPython 3.11 and 3.12
        n = functools.reduce(math.lcm, (v.denominator for v in self.values.values()), 1)
        if n < 2:
            raise InternalCheckFailed(f"solution width {n} is below 2")
        return n


def solve_pointed(pointed):
    """Solve the pointed system exactly; raises SingularSystem if not unique."""
    T, pivot = pointed.bitrade, pointed.pivot
    A, b, columns, fixed = build_system(T, pivot)
    res = gauss_solve(A, b)
    if res.status != "unique":
        raise SingularSystem(res.rank, len(columns) - res.rank, res.status)
    values = dict(fixed)
    values.update(zip(columns, res.solution))
    for p in T.star:
        if p != pivot and values[p.row] + values[p.col] != values[p.sym]:
            raise InternalCheckFailed(f"solution breaks the equation of {p}")
    if metrics(T).spherical and not all(0 <= v <= 1 for v in values.values()):
        raise InternalCheckFailed("spherical solution has a value outside [0, 1]")
    return Solution(pointed, values)


def is_separated_solution(sol):
    """Do the values distinguish every pair of labels within each role?

    Returns (True, None) or (False, (role, label, label)) with the first
    colliding pair in canonical order.
    """
    T = sol.bitrade
    for role in (ROW, COL, SYM):
        seen = {}
        for lab in T.universe(role):
            v = sol.values[lab]
            if v in seen:
                return False, (role, seen[v], lab)
            seen[v] = lab
    return True, None


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
                raise AssertionError(f"homotopy law fails at {p} (mod {modulus})")
        return cls(modulus, dict(maps))

    def __call__(self, lab):
        return self.maps[lab]

    def separates(self, x, y):
        return self.maps[x] % self.modulus != self.maps[y] % self.modulus


def induced_homotopy(sol):
    """Scale the solution by its width and reduce mod the width."""
    n = sol.width()
    maps = {lab: int(n * v) % n for lab, v in sol.values.items()}
    return Homotopy.checked(sol.bitrade, n, maps)


def near_values(sol):
    """Unreduced scaled values: n * value, so the pivot symbol maps to n."""
    n = sol.width()
    out = {}
    for lab, v in sol.values.items():
        scaled = n * v
        if scaled.denominator != 1:
            raise InternalCheckFailed(f"{lab} scaled by the width {n} is not an integer")
        out[lab] = int(scaled)
    return n, out


def normalize_homotopy(hom, T, base):
    """Shift each role's map so the base triple's labels go to 0."""
    shift = {ROW: hom.maps[base.row], COL: hom.maps[base.col], SYM: hom.maps[base.sym]}
    maps = {lab: (val - shift[lab.role]) % hom.modulus for lab, val in hom.maps.items()}
    return Homotopy.checked(T, hom.modulus, maps)
