"""Exact integer and rational dense linear algebra, with integer arithmetic only.

Everything here works on plain lists of lists.  One routine,
``eliminate``, does all elimination: fraction-free Gauss-Jordan, whose
divisions by the previous pivot are exact.  ``gauss_solve`` scales each
equation to integers first, and ``Fraction`` appears only in its answer;
the pointed solver and the deleted-column minors read the reduced rows.
``smith_normal_form`` carries the inverses of its transforms alongside
them, proves U and V unimodular by checking U U_inv = I and
V V_inv = I, and then checks U M V = D as M V = U_inv D.  ``groups``
computes the Smith form of a bitrade's relation matrix once and reads
G(T), H(T), the canonical images and the rank of B from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import InternalCheckFailed


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
    scale = 1
    # pairwise: math.lcm(*many) leaks memory on CPython 3.11 and 3.12
    for x in row:
        scale = math.lcm(scale, x.denominator)
    return [int(x * scale) for x in row], scale


@dataclass
class GaussResult:
    """Outcome of exact Gaussian elimination on A x = b."""

    status: str  # "unique" | "no_solution" | "non_unique"
    solution: list | None
    rank: int


def eliminate(M, width):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in place.

    Pivots are sought in the first ``width`` columns; later columns
    (right-hand sides) are carried along.  Every step updates whole
    rows, so every entry stays a minor of M and each division by the
    previous pivot is exact.  Returns (P, d), the pivot columns and the
    last pivot (1 if none).  Row k < len(P) is then d (M_P)^-1 M, with
    M_P the pivot rows' block on the columns P and |d| = |det M_P|; the
    other rows are 0 in the first ``width`` columns.
    """
    n = len(M)
    pivots = []
    prev = 1
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, n) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        top = M[r]
        pv = top[c]
        for i in range(n):
            if i == r:
                continue
            f = M[i][c]
            if f:
                M[i] = [(pv * x - f * y) // prev for x, y in zip(M[i], top)]
            elif pv != prev:
                M[i] = [pv * x // prev for x in M[i]]
        prev = pv
        pivots.append(c)
    return pivots, prev


def gauss_solve(A, b):
    """Solve A x = b exactly over the rationals.

    A is a (possibly rectangular) matrix of integers or Fractions, b a
    list.  Each equation is scaled to integers by the lcm of its
    denominators before ``eliminate``.  The GaussResult's solution, when
    unique, is one reduced Fraction per unknown.
    """
    m = len(A[0]) if A else 0
    M = [_integer_row([*row, rhs])[0] for row, rhs in zip(A, b)]
    pivots, d = eliminate(M, m)
    r = len(pivots)
    if any(row[m] for row in M[r:]):
        return GaussResult("no_solution", None, r)
    if r < m:
        return GaussResult("non_unique", None, r)
    return GaussResult("unique", [Fraction(row[m], d) for row in M[:r]], r)


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
    V_inv, so the inverses cost no elimination.  The pivot is the first
    entry of least absolute value; a unit pivot ends the scan and needs
    no divisibility pass.  The returned form is re-verified on every
    call: U U_inv = I and V V_inv = I are confirmed, U M V = D is checked
    as M V = U_inv D, and so is the divisibility chain.  An integer
    matrix with an integer inverse has determinant +-1, so this proves
    both transforms unimodular.
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
        # move the first smallest nonzero entry of the trailing block to
        # (t, t); no entry is smaller than a unit, so the scan stops there
        best = None
        for entry in ((abs(x), i, j) for i in range(t, n)
                      for j, x in enumerate(A[i][t:], t) if x):
            if best is None or entry < best:  # later (i, j) only win on size
                best = entry
                if entry[0] == 1:
                    break
        if best is None:
            break
        _, i, j = best
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
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
            if abs(A[t][t]) == 1:
                break  # a unit divides every entry
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
    """Check U U_inv = I, V V_inv = I, U M V = D and the divisibility chain.

    Once U_inv is proven to be U's inverse, U M V = D is checked as the
    equivalent M V = U_inv D, one sparse row of M times V per row.
    Every product is formed one row at a time, so no n x n product or
    identity matrix is built.
    """
    for P, P_inv in ((U, U_inv), (V, V_inv)):
        for i, Pi in enumerate(P):
            row = _row_times(Pi, P_inv)
            if row[i] != 1 or any(row[:i]) or any(row[i + 1:]):
                raise InternalCheckFailed("smith normal form transforms are not unimodular")
    padding = [0] * (len(V) - len(diagonal))
    for Mi, Ui_inv in zip(M, U_inv):
        if _row_times(Mi, V) != [u * d for u, d in zip(Ui_inv, diagonal)] + padding:
            raise InternalCheckFailed("smith normal form verification failed: U M V != D")
    for a, b in zip(diagonal, diagonal[1:]):
        if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InternalCheckFailed("smith normal form divisibility chain broken")
