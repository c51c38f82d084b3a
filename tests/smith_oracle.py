"""The dense-only Smith normal form, its dense certificate, and H(T) by two more Smith forms.

``smith_normal_form`` here is the library's form before the sparse
unit-pivot phase: it treats M as dense, rescanning the trailing block
for every pivot and updating dense rows of U and V.  Its result passes
``_verify_smith``, the dense certificate of any (M, diagonal, U, V).
The Smith form's diagonal is unique, so the library's must equal this
one's.  ``determinantal_divisors`` gives it from its definition instead:
d_1 ... d_k is the gcd D_k of the k x k minors, each a Bareiss
determinant, with no elimination of the matrix itself.

``subgroup_H`` is the library's H(T) before it was read off G(T) =
H(T) + Z^2: it presents H in G's Smith coordinates through the Smith
forms of its generators (``gens``) and of its relations (``C``), here
the dense ones, and checks the lattice division on the way.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

from bitrades.core import COL, ROW, InternalCheckFailed
from bitrades.exact import SmithForm, identity
from bitrades.groups import AbelianGroupStructure, canonical_images, presentation
from pivot_oracle import determinant
from rational_oracle import invert_unimodular, mat_mul


def _verify_smith(M, diagonal, U, V):
    """Certify rowlattice(M V) = rowlattice(D), V unimodular, and the chain, densely.

    The library proves V unimodular from its shape in the pivot order of
    its own elimination; here any V is, by an exact rational inverse that
    must be integral.  U (M V) = D puts each row of D in rowlattice(M V);
    every column k of M V divisible by d_k (0 where d_k = 0 or past the
    diagonal) puts each row of M V in rowlattice(D).  Each failure raises
    the library's message.  U may stop after its rank rows, as the
    library's does, but must not stop before them.
    """
    try:
        invert_unimodular(V)
    except ValueError:
        raise InternalCheckFailed("smith normal form transform V is not unimodular") from None
    MV = mat_mul(M, V)
    D = [[d if k == i else 0 for k in range(len(V))] for i, d in enumerate(diagonal)]
    D += [[0] * len(V) for _ in range(len(U) - len(diagonal))]
    if len(U) < sum(1 for d in diagonal if d) or mat_mul(U, MV) != D[:len(U)]:
        raise InternalCheckFailed("smith normal form verification failed: U M V != D")
    diag = diagonal + [0] * (len(V) - len(diagonal))
    if any(x % d if d else x for row in MV for x, d in zip(row, diag)):
        raise InternalCheckFailed(
            "smith normal form verification failed: M V is not in the row lattice of D")
    for a, b in zip(diagonal, diagonal[1:]):
        if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InternalCheckFailed("smith normal form divisibility chain broken")


def determinantal_divisors(M):
    """[D_1, ..., D_r], r = min(rows, cols), D_k the gcd of M's k x k minors (0 if all are).

    The Smith diagonal's prefix products are these: d_1 ... d_k = D_k.
    """
    n = len(M)
    m = len(M[0]) if n else 0
    return [functools.reduce(math.gcd, (determinant([[M[i][j] for j in cols] for i in rows])
                                        for rows in combinations(range(n), k)
                                        for cols in combinations(range(m), k)), 0)
            for k in range(1, min(n, m) + 1)]


def smith_normal_form(M):
    """Smith normal form of an integer matrix, with its transforms U and V.

    The pivot is the first entry of least absolute value; a unit pivot
    ends the scan and needs no divisibility pass.  Every returned form
    has passed ``_verify_smith``; the SmithForm docstring says what that
    proves.
    """
    n = len(M)
    m = len(M[0]) if n else 0
    A = [[int(x) for x in row] for row in M]
    U = identity(n)
    V = identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

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
    _verify_smith(M, diagonal, U, V)
    return SmithForm(diagonal, U, V)


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
