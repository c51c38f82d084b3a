"""Exact integer and rational dense linear algebra, with integer arithmetic only.

Everything here works on plain lists of lists.  Determinants use
Bareiss fraction-free elimination.  ``gauss_solve`` scales each
equation to integers and runs fraction-free Gauss-Jordan, whose
divisions by the previous pivot are exact; ``Fraction`` appears only in
its answer, one reduced value per unknown.  ``smith_normal_form``
carries the inverses of its transforms alongside them and proves U and
V unimodular by checking U U_inv = I and V V_inv = I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    return [_row_times(Ai, B) for Ai in A]


def _row_times(v, B):
    """The row vector v @ B, skipping zero entries of v."""
    out = [0] * (len(B[0]) if B else 0)
    for a, Bt in zip(v, B):
        if a:
            out = [x + a * y for x, y in zip(out, Bt)]
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def _integer_row(row):
    """(scale * row, scale) with scale the lcm of the entries' denominators."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    scale = 1
    # pairwise: math.lcm(*many) leaks memory on CPython 3.11 and 3.12
    for x in row:
        if x.denominator != 1:
            scale = math.lcm(scale, x.denominator)
    return [int(x * scale) for x in row], scale


@dataclass
class GaussResult:
    """Outcome of exact Gaussian elimination on A x = b."""

    status: str  # "unique" | "no_solution" | "non_unique"
    solution: list | None
    rank: int


def gauss_solve(A, b):
    """Solve A x = b exactly over the rationals.

    A is a (possibly rectangular) matrix, b a column given as a list;
    entries may be integers or Fractions.  Each equation is scaled to
    integers by the lcm of its denominators, then eliminated with
    fraction-free (Bareiss) Gauss-Jordan: every entry stays a minor of
    the scaled system, so each division by the previous pivot is exact,
    rows without an entry in the pivot column included.  Returns a GaussResult classifying solvability; the
    solution, when unique, is one reduced Fraction per unknown and
    satisfies A x = b exactly.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    M = [_integer_row([*row, rhs])[0] for row, rhs in zip(A, b)]
    pivots = []  # (row, col)
    prev = 1
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        top = M[r]
        pv = top[c]
        tail = top[c + 1:]
        for i in range(n):
            if i == r:
                continue
            row = M[i]
            f = row[c]
            if f:
                row[c + 1:] = [(pv * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
                row[c] = 0
            elif pv != prev:
                row[c + 1:] = [pv * x // prev for x in row[c + 1:]]
        prev = pv
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
    # Gauss-Jordan leaves every pivot row with the last pivot on its diagonal
    x = [None] * m
    for i, c in pivots:
        x[c] = Fraction(M[i][m], prev)
    return GaussResult("unique", x, rank)


def rank(A):
    n = len(A)
    if n == 0:
        return 0
    return gauss_solve(A, [0] * n).rank


def determinant(A):
    """Exact determinant of a square matrix (integer or rational entries).

    Rational rows are scaled to integers first; the Bareiss determinant
    of the scaled matrix is then divided by the product of the scales.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    if all(isinstance(x, int) for row in A for x in row):
        return _bareiss(A)
    rows, scales = zip(*map(_integer_row, A))
    return Fraction(_bareiss(list(rows)), math.prod(scales))


def _bareiss(A):
    """Bareiss fraction-free determinant; all divisions are exact."""
    M = [row[:] for row in A]
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pr is None:
                return 0
            M[k], M[pr] = M[pr], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


@dataclass
class SmithForm:
    """U @ M @ V = D with U, V unimodular and D = diag(d_1 | d_2 | ...).

    U_inv and V_inv are the integer inverses of U and V.
    """

    diagonal: list  # length min(rows, cols), d_k >= 0, d_k | d_{k+1}
    U: list
    V: list
    U_inv: list
    V_inv: list

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def invariant_factors(self):
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(M):
    """Smith normal form of an integer matrix, with transforms and their inverses.

    Every elementary row operation applied to U is undone on the columns
    of U_inv, and every column operation applied to V on the rows of
    V_inv, so the inverses cost no elimination.  The returned form is
    re-verified on every call: U M V is recomputed and compared against
    the diagonal, the divisibility chain is checked, and U U_inv = I and
    V V_inv = I are confirmed.  An integer matrix with an integer inverse
    has determinant +-1, so this proves both transforms unimodular.
    """
    n = len(M)
    m = len(M[0]) if n else 0
    A = [[int(x) for x in row] for row in M]
    U, U_inv = identity(n), identity(n)
    V, V_inv = identity(m), identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in U_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        V_inv[i], V_inv[j] = V_inv[j], V_inv[i]

    def add_row(dst, src, q):
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]
        for row in U_inv:
            row[src] -= q * row[dst]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]
        V_inv[src] = [x - q * y for x, y in zip(V_inv[src], V_inv[dst])]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for row in U_inv:
            row[i] = -row[i]

    t = 0
    while t < min(n, m):
        # move the smallest nonzero entry of the trailing block to (t, t)
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # force the divisibility chain: pull in any non-divisible entry
            culprit = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if A[i][j] % A[t][t] != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    diagonal = [A[k][k] for k in range(min(n, m))]
    _verify_smith(M, diagonal, U, V, U_inv, V_inv)
    return SmithForm(diagonal, U, V, U_inv, V_inv)


def _verify_smith(M, diagonal, U, V, U_inv, V_inv):
    """Check U M V = D, the divisibility chain, U U_inv = I and V V_inv = I.

    Every product is formed one row at a time, so no n x n product or
    identity matrix is built.
    """
    m = len(M[0]) if M else 0
    for i, Ui in enumerate(U):
        want = [0] * m
        if i < len(diagonal):
            want[i] = diagonal[i]
        if _row_times(_row_times(Ui, M), V) != want:
            raise AssertionError("smith normal form verification failed: U M V != D")
    for a, b in zip(diagonal, diagonal[1:]):
        if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise AssertionError("smith normal form divisibility chain broken")
    for P, P_inv in ((U, U_inv), (V, V_inv)):
        for i, Pi in enumerate(P):
            row = _row_times(Pi, P_inv)
            if row[i] != 1 or any(row[:i]) or any(row[i + 1:]):
                raise AssertionError("smith normal form transforms are not unimodular")
