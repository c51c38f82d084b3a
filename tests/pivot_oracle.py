"""Per-pivot reference paths, kept as oracles for the reads of B's Smith form.

``build_system`` writes out the pointed system Eq(T, a) for one pivot
and ``solve_pointed`` solves it with the rational Gauss-Jordan of
``rational_oracle``, one elimination per pivot.  ``determinant`` is the
Bareiss determinant, and ``check_det_invariance`` takes one of them per
admissible deleted column pair.  ``eliminate`` is the fraction-free
Gauss-Jordan elimination that solved every pivot and gave every minor
before both were read off B's Smith form; ``rank`` counts the pivots of
one such elimination, the rank of B before it, too, was read off the
Smith form.
``width`` and ``near_values`` compute a solution's width and scaled
values directly from its ``Fraction`` values.  ``normalize_homotopy``
shifts a homotopy so that a base triple's labels map to 0.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import rational_oracle
from bitrades.core import COL, ROW, SYM
from bitrades.groups import DetInvarianceReport
from bitrades.solver import Homotopy, relation_matrix


def _integer_row(row):
    """(scale * row, scale) with scale the lcm of the entries' denominators."""
    scale = 1
    # pairwise: math.lcm(*many) leaks memory on CPython 3.11 and 3.12
    for x in row:
        scale = math.lcm(scale, x.denominator)
    return [int(x * scale) for x in row], scale


def build_system(T, pivot):
    """Coefficient matrix and right-hand side of the pointed system.

    Columns are the non-pivot labels in universe order (rows, cols,
    syms); one equation per non-pivot star triple.
    """
    fixed = {pivot.row: Fraction(0), pivot.col: Fraction(0), pivot.sym: Fraction(1)}
    columns = [lab for lab in relation_matrix(T)[1] if lab not in fixed]
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


def solve_pointed(T, pivot):
    """(status, rank, nullity, values) of Eq(T, pivot); values is None unless unique."""
    A, b, columns, fixed = build_system(T, pivot)
    res = rational_oracle.gauss_solve(A, b)
    values = None
    if res.status == "unique":
        values = dict(fixed)
        values.update(zip(columns, res.solution))
    return res.status, res.rank, len(columns) - res.rank, values


def eliminate(M, width):
    """Bareiss (fraction-free) Gauss-Jordan elimination of integer rows, in place.

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


def rank(A):
    """Rank of an integer matrix: the pivot count of one elimination."""
    return len(eliminate([list(row) for row in A], len(A[0]) if A else 0)[0])


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


def check_det_invariance(T):
    """The deleted-column report from one Bareiss determinant per admissible pair."""
    B, labels = relation_matrix(T)
    m = len(labels)
    o1, o2 = len(T.rows), len(T.cols)
    pairs = [(i, j) for i in range(o1) for j in range(o1, m)]
    pairs += [(i, j) for i in range(o1, o1 + o2) for j in range(o1 + o2, m)]
    values = set()
    for i, j in pairs:
        Bij = [[x for k, x in enumerate(row) if k not in (i, j)] for row in B]
        values.add(abs(determinant(Bij)))
    common = values.pop() if len(values) == 1 else None
    return DetInvarianceReport(
        common_value=common,
        pairs_checked=len(pairs),
        all_equal=common is not None,
        nonzero=bool(common),
    )


def width(values):
    """The lcm of the denominators of values, {label: Fraction}."""
    return functools.reduce(math.lcm, (v.denominator for v in values.values()), 1)


def near_values(values):
    """(n, {label: int(n * value)}), n the width of values, {label: Fraction}."""
    n = width(values)
    return n, {lab: int(n * v) for lab, v in values.items()}


def normalize_homotopy(hom, T, base):
    """Shift each role's map so the base triple's labels go to 0."""
    shift = {ROW: hom.maps[base.row], COL: hom.maps[base.col], SYM: hom.maps[base.sym]}
    maps = {lab: (val - shift[lab.role]) % hom.modulus for lab, val in hom.maps.items()}
    return Homotopy.checked(T, hom.modulus, maps)
