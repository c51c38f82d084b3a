"""Canonical abelian groups attached to a bitrade.

The relation matrix B has one row per star triple (row + col - sym = 0)
over the m label generators.  G(T) is the free abelian group on the
labels modulo the row lattice of B; H(T) is the subgroup generated by
within-role differences of label classes.  Both are reported by free
rank and invariant factors via Smith normal form.

B's Smith form U B V = D is computed once per bitrade and kept on it by
``solver._relation_smith``: G(T), the canonical images, the rank of B,
H(T), which is computed in G's Smith coordinates, and the
deleted-column minors all read it, as does every pointed solve.

ker B always holds the trivial homotopies k1 (1 on rows and symbols)
and k2 (1 on columns and symbols), so nullity B >= 2, with equality iff
every integer homotopy is trivial; each pointed system Eq(T, a) has rank
rank B - 1 and nullity nullity B - 2 (see ``solver``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import COL, ROW, InternalCheckFailed, first_collision
from .exact import smith_normal_form
from .solver import _relation_smith


@dataclass(frozen=True)
class AbelianGroupStructure:
    free_rank: int
    invariant_factors: tuple  # each > 1, divisibility chain

    @property
    def is_finite(self):
        return self.free_rank == 0

    @property
    def order(self):
        if not self.is_finite:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def presentation(T):
    """Structure of G(T) = Z^m / rowlattice(B)."""
    labels, snf = _relation_smith(T)
    return AbelianGroupStructure(len(labels) - snf.rank, tuple(snf.invariant_factors))


@dataclass(frozen=True)
class CanonicalImages:
    """Coordinates of each label's class in the SNF basis of G(T).

    Each image is a tuple: torsion coordinates (mod their invariant
    factor) followed by free coordinates.
    """

    structure: AbelianGroupStructure
    images: dict  # Label -> tuple of ints
    moduli: tuple  # invariant factor per torsion coordinate, then 0 per free one


def canonical_images(T):
    """Each label's class in G(T) = Z^K / D_K, read off U B V = D.

    x -> x V maps Z^m onto itself and the row lattice of B onto that of
    D, so G(T) is Z^K / D_K, K the coordinates k with d_k != 1 (d_k = 0
    past the rank) and D_K their diagonal; label i's class is row i of
    V on K, reduced mod d_k where d_k > 1.
    """
    labels, snf = _relation_smith(T)
    m = len(labels)
    diag = list(snf.diagonal) + [0] * (m - len(snf.diagonal))
    keep = [k for k in range(m) if diag[k] != 1]
    moduli = tuple(diag[k] for k in keep)

    def reduce_vec(vec):
        return tuple(
            vec[k] % diag[k] if diag[k] > 1 else vec[k] for k in keep
        )

    images = {lab: reduce_vec(snf.V[i]) for i, lab in enumerate(labels)}
    for p in T.star:
        combined = tuple(
            (x + y - z) % mod if mod > 1 else x + y - z
            for x, y, z, mod in zip(
                images[p.row], images[p.col], images[p.sym], moduli
            )
        )
        if any(combined):
            raise InternalCheckFailed(f"additive law fails at {p}")
    return CanonicalImages(presentation(T), images, moduli)


def is_abelian_embeddable(T):
    """(verdict, witness): images injective within each role, or a colliding pair."""
    witness = first_collision(T, canonical_images(T).images)
    if witness is None:
        return True, None
    return False, witness[1:]


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


@dataclass(frozen=True)
class DetInvarianceReport:
    common_value: int
    pairs_checked: int
    all_equal: bool
    nonzero: bool


def check_det_invariance(T):
    """|det B_ij| over all admissible deleted column pairs (i, j) of a spherical T.

    Admissible: i indexes a row label and j a later-block label, or i a
    column label and j a symbol label.  For a spherical bitrade all
    these determinants agree and are nonzero; each is computed exactly,
    not assumed, from B's Smith form U B V = D (B is s x (s + 2)):

        |det B without columns n1, n2|
            = (d_1 ... d_s) |V[n1][s] V[n2][s+1] - V[n1][s+1] V[n2][s]|.

    If rank B < s, some d_k is 0, and every minor is 0.

    Proof: the certificate gives B V = [W | 0], W of size s x s, with
    rowlattice(W) = rowlattice(diag(d)), so |det W| = d_1 ... d_s; and it
    gives V V_inv = I, so |det V| = 1.  Then B = W V_inv[:s], and deleting
    columns n1, n2 of B deletes them from V_inv[:s].  By Jacobi's
    complementary-minor identity, that s x s minor of V_inv is, up to
    sign, det V_inv times the 2 x 2 minor of V on the complementary rows
    n1, n2 and columns s, s + 1.
    """
    if not T.spherical:
        raise ValueError("deleted-column minors are square only for a spherical bitrade")
    labels, snf = _relation_smith(T)
    m, s = len(labels), T.size
    o1, o2 = len(T.rows), len(T.cols)
    pairs = [(i, j) for i in range(o1) for j in range(o1, m)]
    pairs += [(i, j) for i in range(o1, o1 + o2) for j in range(o1 + o2, m)]
    det_W = math.prod(snf.diagonal)
    V = snf.V
    values = {det_W * abs(V[n1][s] * V[n2][s + 1] - V[n1][s + 1] * V[n2][s])
              for n1, n2 in pairs}
    common = values.pop() if len(values) == 1 else None
    return DetInvarianceReport(
        common_value=common,
        pairs_checked=len(pairs),
        all_equal=common is not None,
        nonzero=bool(common),
    )


def integer_homotopy_rank(T):
    """(rank B, nullity, trivial_only): integer homotopies are trivial iff nullity is 2."""
    labels, snf = _relation_smith(T)
    nullity = len(labels) - snf.rank
    return snf.rank, nullity, nullity == 2
