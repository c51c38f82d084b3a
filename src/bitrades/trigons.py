"""Trigons: detection, inner/outer splitting, homotopy recombination,
and the separation recursion down to a finite abelian embedding.

A trigon is a triple c outside the star whose three "corner" delta
triples exist.  Splitting along its inner circumference produces two
strictly smaller bitrades; homotopies of the outer part recombine with
the exact solution of the inner part into homotopies of the whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    COL,
    ROW,
    SYM,
    Bitrade,
    BitradeError,
    InternalCheckFailed,
    Triple,
    build_bitrade,
    first_collision,
    mu,
)
from .solver import Homotopy, PointedBitrade, induced_homotopy, solve_pointed


class SpliceIdentityFailure(InternalCheckFailed):
    pass


class SplitInvalid(InternalCheckFailed):
    pass


class NotInShrinkSituation(BitradeError):
    pass


class LemmaViolation(InternalCheckFailed):
    """The trigon-location dichotomy or uniqueness failed (diagnostic)."""


class ArgumentError(BitradeError):
    pass


class NotSpherical(BitradeError):
    """The pointed solution does not separate the pair, and the bitrade is not
    spherical, so no trigon split is proven to separate it."""


@dataclass(frozen=True)
class Trigon:
    triple: Triple  # c, not in star
    corners: tuple  # delta triples, corners[j] differs from c exactly at j
    alphas: tuple  # star triples, alphas[j] differs from c exactly at j
    arc_lengths: tuple  # k_j with tau_j^{k_j}(alpha_{j-1}) = alpha_{j+1}


def trigon_at(T, c):
    """The Trigon at triple c, or None if c is not a trigon."""
    if T.in_star(c):
        return None
    corners = []
    for j in range(3):
        q = T.delta_partner(c, j)
        if q is None or q[j] == c[j]:
            return None
        corners.append(q)
    alphas = [T.star_partner(corners[j], j) for j in range(3)]
    ks = []
    for j in range(3):
        cycle, start = T.tau_cycle_at(j, alphas[j - 1])
        target_cycle, end = T.tau_cycle_at(j, alphas[(j + 1) % 3])
        if target_cycle is not cycle:  # one tuple per cycle
            return None
        k = (end - start) % len(cycle)
        if k < 2:
            raise InternalCheckFailed(f"trigon arc bounds violated at {c}")
        ks.append(k)
    return Trigon(c, tuple(corners), tuple(alphas), tuple(ks))


def find_trigons(T):
    """All trigons, in canonical order.

    A trigon's corner at coordinate 2 is a delta triple with its row and
    column, so the candidates are each delta triple's row and column with
    every symbol; trigon_at runs where the other two corners exist.
    """
    out = []
    for q in T.delta:
        for s in T.syms:
            c = Triple(q.row, q.col, s)
            if T.delta_partner(c, 0) is not None and T.delta_partner(c, 1) is not None:
                tg = trigon_at(T, c)
                if tg is not None:
                    out.append(tg)
    return out


def _path_steps(T, tg):
    """The closed path P around the trigon, as directed tau steps.

    Returns (vertices, steps) where steps[i] = (vertices[i], j) means
    vertices[i+1] = tau_j(vertices[i]).  Arc order: alpha_2 --tau_0-->
    alpha_1 --tau_2--> alpha_0 --tau_1--> alpha_2, the tau_j arc being the
    k_j triples of alpha_{j-1}'s tau_j cycle from alpha_{j-1} on.
    """
    vertices, steps = [], []
    for j in (0, 2, 1):
        cycle, start = T.tau_cycle_at(j, tg.alphas[j - 1])
        arc = (cycle[start:] + cycle[:start])[:tg.arc_lengths[j]]
        vertices += arc
        steps += [(x, j) for x in arc]
    if len(set(vertices)) != len(vertices):
        raise SpliceIdentityFailure("path around the trigon is not simple")
    return vertices, steps


def _edge_id(T, x, j):
    """Identity of the semidual edge (x, tau_j(x)).

    The edge lies between the cyclic face of label x[j] and the
    triangular face of the delta triple adjacent to both endpoints.
    """
    return (j, T.delta_partner(x, (j + 2) % 3))


def _flood_inner(T, tg):
    """(triangular faces, star triples) inside the trigon boundary.

    A flood fill finds the faces: face nodes are cyclic faces (labels)
    and triangular faces (delta triples); each semidual edge joins one of
    each.  The fill starts at the three corner faces and never crosses an
    edge of the path P.  On a sphere a role-j label's face is one tau_j
    cycle, and its triples' delta partners off j + 1 are the label's delta
    triples.  The star triples are the vertices of those faces, less the
    alphas: they lie on or inside the boundary.
    """
    _, steps = _path_steps(T, tg)
    blocked = {_edge_id(T, x, j) for x, j in steps}

    seen_tri = set(tg.corners)
    seen_cyc = {}  # label -> its tau cycle
    frontier = list(tg.corners)
    while frontier:
        q = frontier.pop()
        for j in range(3):
            if (j, q) not in blocked and q[j] not in seen_cyc:
                j1 = (j + 1) % 3
                cycle = seen_cyc[q[j]] = T.tau_cycle_at(j, T.star_partner(q, j1))[0]
                for p in cycle:
                    q2 = T.delta_partner(p, j1)
                    if (j, q2) not in blocked and q2 not in seen_tri:
                        seen_tri.add(q2)
                        frontier.append(q2)

    inner_points = {T.star_partner(q, j) for q in seen_tri for j in range(3)}
    inner_points.update(*seen_cyc.values())
    return seen_tri, inner_points - set(tg.alphas)


@dataclass(frozen=True)
class Split:
    trigon: Trigon
    inner: Bitrade  # S1: trigon triple joins its star
    outer: Bitrade  # S0: trigon triple joins its delta


def split(T, tg, flood=None):
    """Cut T along the trigon boundary into inner and outer parts; flood: _flood_inner(T, tg).

    The star sizes of the pieces must add up to size + 1.  So must their
    delta sizes, with no check of their own: every Bitrade that
    ``build_bitrade`` returns has as many delta as star triples, since
    for each free coordinate neither side repeats a pair key and both
    sides have the same keys.
    """
    inner_tri, inner_points = flood or _flood_inner(T, tg)
    c = tg.triple  # joins the inner star and the outer delta
    try:
        inner = build_bitrade([*inner_points, c], inner_tri)
        outer = build_bitrade([p for p in T.star if p not in inner_points],
                              [*(set(T.delta) - inner_tri), c])
    except BitradeError as e:
        raise SplitInvalid(f"split pieces are not bitrades: {e}") from e

    if inner.size + outer.size != T.size + 1:
        raise InternalCheckFailed("split star sizes do not add up to size + 1")
    if T.spherical:
        if not (inner.spherical and outer.spherical):
            raise InternalCheckFailed("split of a spherical bitrade is not spherical")
        inner._source = outer._source = T  # the pieces' solutions are read off T's
    return Split(tg, inner, outer)


def recombine(T, sp, phi):
    """Lift a homotopy of the outer bitrade to all of T (mod m*n).

    phi is a homotopy of sp.outer mod m; n is the width of the trigon
    triple's system in sp.inner.  Outer labels are embedded via i -> n*i;
    labels living only inside get offset near-homotopy values.
    """
    c = sp.trigon.triple
    m = phi.modulus
    sol1 = solve_pointed(PointedBitrade(sp.inner, c))
    n, psi_bar = sol1.width(), sol1.scaled[1]
    mn = m * n

    h = {ROW: n * phi(c.row) % mn, COL: n * phi(c.col) % mn}
    h[SYM] = (h[ROW] + h[COL]) % mn
    k = (phi(c.sym) - phi(c.row) - phi(c.col)) % m

    outer_labels = {lab for role in (ROW, COL, SYM) for lab in sp.outer.universe(role)}
    maps = {}
    for role in (ROW, COL, SYM):
        for lab in T.universe(role):
            outer_val = n * phi(lab) % mn if lab in outer_labels else None
            inner_val = (
                (h[role] + psi_bar[lab] * k) % mn if lab in psi_bar else None
            )
            if None not in (outer_val, inner_val) and outer_val != inner_val:
                raise InternalCheckFailed(f"recombination conflict at {lab}")
            val = outer_val if outer_val is not None else inner_val
            if val is None:
                raise InternalCheckFailed(f"label {lab} lost in the split")
            maps[lab] = val
    return Homotopy.checked(T, mn, maps)


def locate_trigon(sol, b, j):
    """(trigon, _flood_inner of the trigon): the trigon that blocks separating b
    from sol's pivot at coordinate j.

    Preconditions: the solution assigns equal values to the pivot's and
    b's labels at coordinate j although the labels differ.  Walks the mu
    cycle through the pivot's delta neighbours, keeps the non-degenerate
    triples, and returns the unique gap trigon having b outside (b not
    among the star triples that its flood fill reaches).
    """
    T, a = sol.bitrade, sol.pivot
    y = sol.scaled[1]
    if b[j] == a[j] or y[b[j]] != y[a[j]]:
        raise NotInShrinkSituation(
            f"labels at coordinate {j} are equal or already separated"
        )

    eta = [T.delta_partner(a, t) for t in range(3)]
    r_coord, s_coord = (j + 2) % 3, (j + 1) % 3  # mu_{j-1,j+1} in 0-based form
    cycle = [eta[r_coord]]
    x = mu(T, r_coord, s_coord, cycle[0])
    while x != cycle[0]:
        cycle.append(x)
        x = mu(T, r_coord, s_coord, x)
    if cycle[-1] != eta[s_coord]:
        raise LemmaViolation("mu walk did not end at the opposite corner triple")

    indices = [i for i, q in enumerate(cycle) if y[q.row] + y[q.col] != y[q.sym]]
    gammas = [cycle[i] for i in indices]  # the non-degenerate triples
    if not gammas or gammas[0] != cycle[0] or gammas[-1] != cycle[-1]:
        raise LemmaViolation("corner triples of the pivot degenerate")

    hits = []
    for r in range(len(gammas) - 1):
        coords = [None, None, None]
        coords[j] = a[j]
        coords[(j + 2) % 3] = gammas[r][(j + 2) % 3]
        coords[(j + 1) % 3] = gammas[r + 1][(j + 1) % 3]
        beta = Triple(*coords)
        consecutive = indices[r + 1] == indices[r] + 1
        if consecutive:
            if not T.in_star(beta):
                raise LemmaViolation(f"{beta} expected in star (consecutive case)")
            continue
        tg = trigon_at(T, beta)
        if tg is None:
            raise LemmaViolation(f"{beta} expected to be a trigon (gap case)")
        flood = _flood_inner(T, tg)
        if b not in flood[1]:
            hits.append((tg, flood))
    if len(hits) != 1:
        raise LemmaViolation(
            f"expected exactly one trigon with {b} outside, found {len(hits)}"
        )
    return hits[0]


def _separate(T, a, b, i, depth):
    sol = solve_pointed(PointedBitrade(T, a))
    hom = induced_homotopy(sol)
    if hom.separates(a[i], b[i]):
        return hom, depth
    if not T.spherical:  # the trigon lemmas, and so split, hold on a sphere only
        raise NotSpherical(
            f"the solution does not separate {a[i]} from {b[i]}, "
            "and trigon splits need a spherical bitrade"
        )
    sp = split(T, *locate_trigon(sol, b, i))
    outer = sp.outer
    if len(outer.delta) >= len(T.delta):
        raise InternalCheckFailed("the outer bitrade of a split is not smaller")
    a2 = next(p for p in outer.star if p[i] == a[i])
    phi, depth = _separate(outer, a2, b, i, depth + 1)  # b is outside the trigon
    lifted = recombine(T, sp, phi)
    if not lifted.separates(a[i], b[i]):
        raise InternalCheckFailed(f"lifted homotopy does not separate {a[i]} from {b[i]}")
    return lifted, depth


def separate(T, a, b, i):
    """A homotopy into some Z_n (n >= 2) distinguishing a[i] from b[i]."""
    return separate_trace(T, a, b, i)[0]


def separate_trace(T, a, b, i):
    """Like separate, but also returns the recursion depth used."""
    if a[i] == b[i]:
        raise ArgumentError(f"triples agree at coordinate {i}")
    return _separate(T, a, b, i, 0)


@dataclass(frozen=True)
class ProductEmbedding:
    factors: tuple  # (role, (label, label), Homotopy) per needed separation
    images: dict  # Label -> tuple of residues, one per factor

    @property
    def moduli(self):
        return tuple(f[2].modulus for f in self.factors)


def embed_product(T):
    """Embed the star labels into a product of cyclic groups.

    Greedy: for each role and label pair not yet distinguished by the
    factors collected so far, run one separation.  The combined map is
    verified to be injective within each role.
    """
    factors = []
    for role in (ROW, COL, SYM):
        labs = T.universe(role)
        for u in range(len(labs)):
            for v in range(u + 1, len(labs)):
                x, y = labs[u], labs[v]
                if any(h.separates(x, y) for _, _, h in factors):
                    continue
                a = next(p for p in T.star if p[role] == x)
                b = next(p for p in T.star if p[role] == y)
                factors.append((role, (x, y), separate(T, a, b, role)))
    images = {lab: tuple(h.maps[lab] % h.modulus for _, _, h in factors)
              for universe in T.universes for lab in universe}
    collision = first_collision(T, images)
    if collision:
        raise InternalCheckFailed(f"product map collides at {collision[2]}")
    return ProductEmbedding(tuple(factors), images)
