"""Slow rational reference paths, kept as oracles for the integer-only library.

``gauss_solve`` is plain Gauss-Jordan over ``Fraction``; ``mat_mul`` and
``transpose`` are the dense products the tests check results with.
``subgroup_H`` computes H(T) the long way: one generator per star triple
and role, a basis of L + N from an explicitly inverted V, and the
coordinates of every relation row found by a rational solve in that
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from bitrades.core import COL, ROW
from bitrades.exact import smith_normal_form
from bitrades.groups import AbelianGroupStructure
from bitrades.solver import relation_matrix


def _row_times(v, B):
    """The row vector v @ B, skipping zero entries of v."""
    out = [0] * (len(B[0]) if B else 0)
    for a, Bt in zip(v, B):
        if a:
            out = [x + a * y for x, y in zip(out, Bt)]
    return out


def mat_mul(A, B):
    return [_row_times(Ai, B) for Ai in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


@dataclass
class GaussResult:
    """Outcome of rational Gauss-Jordan elimination on A x = b."""

    status: str  # "unique" | "no_solution" | "non_unique"
    solution: list | None
    rank: int


def gauss_solve(A, b):
    """Solve A x = b exactly with Fraction Gauss-Jordan elimination."""
    n = len(A)
    m = len(A[0]) if n else 0
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = []  # (row, col)
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    rank = len(pivots)
    for i in range(rank, n):
        if M[i][m] != 0:
            return GaussResult("no_solution", None, rank)
    if rank < m:
        return GaussResult("non_unique", None, rank)
    x = [Fraction(0)] * m
    for i, c in pivots:
        x[c] = M[i][m]
    return GaussResult("unique", x, rank)


def invert_unimodular(U):
    """Inverse of a unimodular integer matrix, one rational solve per column."""
    n = len(U)
    out = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        res = gauss_solve(U, e)
        if res.status != "unique":
            raise ValueError("matrix is singular")
        col = []
        for x in res.solution:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            col.append(int(x))
        out.append(col)
    return transpose(out)


def lattice_basis(generators):
    """Basis rows of the lattice spanned by integer generator rows."""
    snf = smith_normal_form(generators)
    vinv = invert_unimodular(snf.V)
    return [[d * x for x in vinv[k]] for k, d in enumerate(snf.diagonal) if d != 0]


def in_basis(basis, row):
    """Integer coordinates of row in the given lattice basis."""
    res = gauss_solve([list(col) for col in zip(*basis)], row)
    if res.status != "unique" or any(x.denominator != 1 for x in res.solution):
        raise AssertionError("row is not in the lattice")
    return [int(x) for x in res.solution]


def subgroup_H(T):
    """H(T) = (L + N) / N through an explicit lattice basis of L + N."""
    B, labels = relation_matrix(T)
    m = len(labels)
    col_of = {lab: j for j, lab in enumerate(labels)}
    base = T.star[0]
    gens = [row[:] for row in B]
    for p in T.star:
        for i in (ROW, COL):
            if p[i] != base[i]:
                row = [0] * m
                row[col_of[p[i]]] = 1
                row[col_of[base[i]]] -= 1
                gens.append(row)
    L = lattice_basis(gens)
    C = [in_basis(L, row) for row in B]
    snf = smith_normal_form(C)
    return AbelianGroupStructure(len(L) - snf.rank, tuple(snf.invariant_factors))
