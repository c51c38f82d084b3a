"""Canonical abelian groups attached to a bitrade.

The relation matrix B has one row per star triple (row + col - sym = 0)
over the m label generators.  G(T) is the free abelian group on the
labels modulo the row lattice of B; H(T) is the subgroup generated by
within-role differences of label classes.  Both are reported by free
rank and invariant factors.  G(T) = H(T) + Z^2 on every bitrade (see
``subgroup_H``), so H(T) is read off G's structure with no form of its
own.

B's Smith form U B V = D is computed once per bitrade and kept on it by
``solver._relation_smith``, and every pointed solve reads it.  Here two
functions read it: ``presentation`` its diagonal and ``canonical_images``
its V.  ``presentation`` checks the one premise of the spherical case,
that G has free rank 2, so H is G's torsion; every other reader of G
goes through it.  H(T) and the rank of B come from G, and every
deleted-column minor of a spherical B is |H(T)| (``check_det_invariance``).

ker B always holds the trivial homotopies k1 (1 on rows and symbols)
and k2 (1 on columns and symbols), so nullity B >= 2, with equality iff
every integer homotopy is trivial; each pointed system Eq(T, a) has rank
rank B - 1 and nullity nullity B - 2 (see ``solver``).
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .core import InternalCheckFailed, first_collision
# not called here (B's one Smith form is made in solver): the benchmark's
# tracer tests wrap and unwrap the function through this binding
from .exact import smith_normal_form
from .solver import _relation_smith


class AbelianGroupStructure(NamedTuple):
    free_rank: int
    invariant_factors: tuple  # each > 1, divisibility chain

    @property
    def is_finite(self):
        return self.free_rank == 0

    @property
    def order(self):
        return prod(self.invariant_factors) if self.is_finite else None

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def presentation(T):
    """Structure of G(T) = Z^m / rowlattice(B).

    On a spherical bitrade G must have free rank 2, so that H(T) is
    exactly G's torsion (``subgroup_H``) and every deleted-column minor
    of B is |H(T)| (``check_det_invariance``).  That is checked here, with
    an explicit raise, so it holds under ``python -O``.
    """
    labels, snf = _relation_smith(T)
    free_rank = len(labels) - snf.rank
    if free_rank != 2 and T.spherical:
        raise InternalCheckFailed(
            "G must have free rank 2 for a spherical bitrade, so that H is its torsion")
    return AbelianGroupStructure(free_rank, tuple(snf.invariant_factors))


class CanonicalImages(NamedTuple):
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
    structure = presentation(T)
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
    return CanonicalImages(structure, images, moduli)


def is_abelian_embeddable(T):
    """(verdict, witness): images injective within each role, or a colliding pair."""
    witness = first_collision(T, canonical_images(T).images)
    if witness is None:
        return True, None
    return False, witness[1:]


def subgroup_H(T):
    """Structure of H(T), the within-role difference subgroup of G(T).

    G(T) = H(T) + Z^2 on every bitrade, so H is read off G's structure:
    its invariant factors are G's and its free rank is G's minus 2.

    Proof: rows -> (1, 0), columns -> (0, 1), symbols -> (1, 1) sends
    every relation row + col - sym to 0, so it maps G onto Z^2, and it
    is 0 on H, which is generated by differences within a role.  G / H
    is generated by the classes of one row label and one column label,
    since every symbol's class is that of a row plus a column.  So
    e_1 -> [row], e_2 -> [column] maps Z^2 onto G / H, and followed by
    the map to Z^2 it is the identity: G / H = Z^2.  That quotient is
    free, so G = H + Z^2, and H is the torsion of G plus a free part of
    rank free_rank(G) - 2 (never negative, by the map onto Z^2).  On a
    spherical bitrade ``presentation`` checks that G has free rank 2, so
    H is exactly the torsion of G.
    """
    G = presentation(T)
    return AbelianGroupStructure(G.free_rank - 2, G.invariant_factors)


class DetInvarianceReport(NamedTuple):
    common_value: int
    pairs_checked: int


def check_det_invariance(T):
    """|det B_ij| over all admissible deleted column pairs (i, j) of a spherical T.

    Admissible: i indexes a row label and j a later-block label, or i a
    column label and j a symbol label.  The proof below makes each one
    |H(T)|, so ``pairs_checked`` counts the pairs it covers.  From B's
    Smith form U B V = D (B is s x (s + 2)):

        |det B without columns n1, n2|
            = (d_1 ... d_s) |V[n1][s] V[n2][s+1] - V[n1][s+1] V[n2][s]|.

    Proof: the certificate gives B V = [W | 0], W of size s x s, with
    rowlattice(W) = rowlattice(diag(d)), so |det W| = d_1 ... d_s; and it
    proves V invertible over Z, so |det V| = 1.  Then B = W V^-1[:s], and
    deleting columns n1, n2 of B deletes them from V^-1[:s].  By Jacobi's
    complementary-minor identity, that s x s minor of V^-1 is, up to
    sign, det V^-1 times the 2 x 2 minor of V on the complementary rows
    n1, n2 and columns s, s + 1.

    When rank B = s, that is when G has free rank 2, V's last two
    columns are a basis of ker B, which has rank 2 and is Z k1 + Z k2:
    k1 and k2 lie in it, and a rational combination a k1 + b k2 is
    integral only if a and b are, as (k1, k2) is (1, 0) on a row label
    and (0, 1) on a column label.  So those columns are (k1, k2) times a
    matrix of determinant +-1, and the 2 x 2 minor of V on rows n1, n2
    is +-det [[k1[n1], k2[n1]], [k1[n2], k2[n2]]]: 1 for a row label and
    a column or symbol label, -1 for a column label and a symbol label.
    Every admissible minor is therefore d_1 ... d_s, the product of G's
    invariant factors, the order of its torsion, which is H.  Reading G
    checks the premise: ``presentation`` raises unless G has free rank 2
    on a spherical T.
    """
    if not T.spherical:
        raise ValueError("deleted-column minors are square only for a spherical bitrade")
    o1, o2, o3 = map(len, T.universes)
    return DetInvarianceReport(common_value=prod(presentation(T).invariant_factors),
                               pairs_checked=o1 * (o2 + o3) + o2 * o3)


def integer_homotopy_rank(T):
    """(rank B, nullity, trivial_only): integer homotopies are trivial iff nullity is 2.

    nullity B is the free rank of G = Z^m / rowlattice(B).
    """
    nullity = presentation(T).free_rank
    return sum(map(len, T.universes)) - nullity, nullity, nullity == 2
