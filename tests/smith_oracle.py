"""The dense-only Smith normal form, kept as an oracle for the two-phase one.

``smith_normal_form`` here is the library's form before the sparse
unit-pivot phase: it treats M as dense, rescanning the trailing block
for every pivot and updating dense rows of U, V and V_inv.  Its result
passes the library's ``_verify_smith`` certificate.  The Smith form's
diagonal is unique, so the library's must equal this one's.
"""

from __future__ import annotations

from bitrades.exact import SmithForm, _verify_smith, identity


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
