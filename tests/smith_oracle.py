"""The dense-only Smith normal form, and H(T) by two more Smith forms, kept as oracles.

``smith_normal_form`` here is the library's form before the sparse
unit-pivot phase: it treats M as dense, rescanning the trailing block
for every pivot and updating dense rows of U, V and V_inv.  Its result
passes the library's ``_verify_smith`` certificate.  The Smith form's
diagonal is unique, so the library's must equal this one's.

``subgroup_H`` is the library's H(T) before it was read off G(T) =
H(T) + Z^2: it presents H in G's Smith coordinates through the Smith
forms of its generators (``gens``) and of its relations (``C``), here
the dense ones, and checks the lattice division on the way.
"""

from __future__ import annotations

from bitrades.core import COL, ROW, InternalCheckFailed
from bitrades.exact import SmithForm, _verify_smith, identity
from bitrades.groups import AbelianGroupStructure, canonical_images, presentation


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


def subgroup_H(T):
    """Structure of H(T), the within-role difference subgroup of G(T).

    H = (L + N) / N where N is the row lattice of B and L is generated
    by the differences e_b - e_a of the row labels, and of the column
    labels, against those of a fixed base star triple a.  In the Smith
    coordinates of ``canonical_images``, G = Z^K / D_K and H is
    (A + D_K) / D_K, with A spanned by the differences of the labels'
    images (reducing an image mod d_k keeps it in its class, so A + D_K
    is the same).  With U' gens V' = D' the Smith form of the generators
    of A + D_K, the rows d'_j (V'^-1)_j with d'_j != 0 are a basis of
    A + D_K, and a relation row d_k e_k has coordinates d_k V'_kj / d'_j
    in it.  So H is presented by the rows d_k V'_k (d_k != 0) on the
    columns with d'_j != 0, each divided exactly by its d'_j; a nonzero
    remainder, or a nonzero entry where d'_j = 0, means the row is not
    in the lattice and raises InternalCheckFailed.  (Z^K / (A + D_K) is
    G / H.  It is generated by the classes of one row and one column
    label, and rows -> (1, 0), columns -> (0, 1), symbols -> (1, 1) maps
    it onto Z^2, so it is free and every nonzero d'_j is 1; the division
    stays as a check.)
    """
    ci = canonical_images(T)
    width = len(ci.moduli)
    relations = [(k, d) for k, d in enumerate(ci.moduli) if d]
    gens = [[d if j == k else 0 for j in range(width)] for k, d in relations]
    base = T.star[0]
    for i in (ROW, COL):
        origin = ci.images[base[i]]
        for lab in dict.fromkeys(p[i] for p in T.star):
            if lab != base[i]:
                gens.append([x - y for x, y in zip(ci.images[lab], origin)])

    snf = smith_normal_form(gens)
    diag = snf.diagonal + [0] * (width - len(snf.diagonal))
    C = []
    for k, d in relations:
        rV = [d * v for v in snf.V[k]]
        if any(v % e if e else v for v, e in zip(rV, diag)):
            raise InternalCheckFailed("relation row is not in the lattice A + D_K")
        C.append([v // e for v, e in zip(rV, diag) if e])
    H_snf = smith_normal_form(C)
    H = AbelianGroupStructure(snf.rank - H_snf.rank, tuple(H_snf.invariant_factors))
    if T.spherical:
        G = presentation(T)
        if H.free_rank != 0:
            raise InternalCheckFailed("H must be finite for a spherical bitrade")
        if H.invariant_factors != G.invariant_factors:
            raise InternalCheckFailed("H must equal the torsion of G for a spherical bitrade")
        if G.free_rank != 2:
            raise InternalCheckFailed("G must have free rank 2 for a spherical bitrade")
    return H
