"""Exact dense linear algebra over the integers, with integer arithmetic only.

Everything here works on plain lists of lists of ints.  One routine,
``eliminate``, does all elimination: fraction-free Gauss-Jordan, whose
divisions by the previous pivot are exact; the pointed solver and the
deleted-column minors read its reduced rows.  ``smith_normal_form``
carries V's inverse alongside V and certifies, on every call, that M
and its diagonal D have isomorphic cokernels through x -> x V:
V V_inv = I, U (M V) = D, every column of M V is a multiple of its
d_k, and the divisibility chain holds.  ``groups`` computes the Smith
form of a bitrade's relation matrix once and reads G(T), H(T), the
canonical images and the rank of B from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalCheckFailed


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row_times(v, B):
    """The row vector v @ B, skipping zero entries of v."""
    out = [0] * (len(B[0]) if B else 0)
    for a, Bt in zip(v, B):
        if a:
            out = [x + a * y for x, y in zip(out, Bt)]
    return out


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


@dataclass
class SmithForm:
    """U @ M @ V = D with D = diag(d_1 | d_2 | ...), certified for cokernels.

    What ``smith_normal_form`` proves on every call: V V_inv = I, so V
    is unimodular and V_inv is its inverse; U M V = D; every column k of
    M V is a multiple of d_k, and 0 where d_k = 0 or k >= len(diagonal);
    and d_k | d_{k+1}.  Hence rowlattice(M V) = rowlattice(D), and
    x -> x V maps Z^m / rowlattice(M) onto Z^m / rowlattice(D).  U is
    unimodular by construction, a product of elementary row operations,
    but that is not re-proven at run time.
    """

    diagonal: list  # length min(rows, cols), d_k >= 0, d_k | d_{k+1}
    U: list
    V: list
    V_inv: list

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def invariant_factors(self):
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(M):
    """Smith normal form of an integer matrix, with its transforms and V's inverse.

    Every elementary column operation applied to V is undone on the rows
    of V_inv, so the inverse costs no elimination.  The pivot is the
    first entry of least absolute value; a unit pivot ends the scan and
    needs no divisibility pass.  Every returned form has passed
    ``_verify_smith``; the SmithForm docstring says what that proves.
    """
    n = len(M)
    m = len(M[0]) if n else 0
    A = [[int(x) for x in row] for row in M]
    U = identity(n)
    V, V_inv = identity(m), identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        V_inv[i], V_inv[j] = V_inv[j], V_inv[i]

    def add_row(dst, src, q):
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]
        V_inv[src] = [x - q * y for x, y in zip(V_inv[src], V_inv[dst])]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

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
    _verify_smith(M, diagonal, U, V, V_inv)
    return SmithForm(diagonal, U, V, V_inv)


def _verify_smith(M, diagonal, U, V, V_inv):
    """Certify rowlattice(M V) = rowlattice(D), V unimodular, and the chain.

    V V_inv = I proves V unimodular.  U (M V) = D, row by row, puts each
    row of D in rowlattice(M V); every column k of M V divisible by d_k
    (0 where d_k = 0 or past the diagonal) puts each row of M V in
    rowlattice(D).  Every product is formed one sparse row at a time,
    so no identity matrix is built.
    """
    for i, Vi in enumerate(V):
        row = _row_times(Vi, V_inv)
        if row[i] != 1 or any(row[:i]) or any(row[i + 1:]):
            raise InternalCheckFailed("smith normal form transform V is not unimodular")
    diag = diagonal + [0] * (len(V) - len(diagonal))
    MV = [_row_times(Mi, V) for Mi in M]
    for i, Ui in enumerate(U):
        want = [0] * len(diag)
        if i < len(diagonal):
            want[i] = diagonal[i]
        if _row_times(Ui, MV) != want:
            raise InternalCheckFailed("smith normal form verification failed: U M V != D")
    for row in MV:
        if any(x % d if d else x for x, d in zip(row, diag)):
            raise InternalCheckFailed(
                "smith normal form verification failed: M V is not in the row lattice of D")
    for a, b in zip(diagonal, diagonal[1:]):
        if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InternalCheckFailed("smith normal form divisibility chain broken")
