"""The trigon's arcs, path and flood fill by stepping tau, kept as oracles for the table readers.

``trigons.trigon_at``, ``_path_steps`` and ``_flood_inner`` read the tau
cycles through ``Bitrade.tau_cycle_at``.  Here ``arc_lengths`` walks the
tau_j cycle from alpha_{j-1} and searches it for alpha_{j+1};
``path_steps`` steps tau_j from each arc's start until it meets the
arc's end; and ``flood_inner`` indexes every delta triple by its labels
and walks a label's tau cycle with ``tau_cycle`` from the first of its
star triples in canonical order.
"""

from __future__ import annotations

from bitrades.core import tau, tau_cycle
from bitrades.trigons import SpliceIdentityFailure


def arc_lengths(T, c):
    """The arc lengths k_j of the trigon at c, or None if c is not a trigon."""
    if T.in_star(c):
        return None
    corners = [T.delta_partner(c, j) for j in range(3)]
    if any(q is None or q[j] == c[j] for j, q in enumerate(corners)):
        return None
    alphas = [T.star_partner(q, j) for j, q in enumerate(corners)]
    ks = []
    for j in range(3):
        cycle = tau_cycle(T, j, alphas[(j - 1) % 3])
        if alphas[(j + 1) % 3] not in cycle:
            return None
        ks.append(cycle.index(alphas[(j + 1) % 3]))
    return tuple(ks)


def path_steps(T, tg):
    """(vertices, steps) of the closed path P, with steps[i] = (vertices[i], j)
    and vertices[i+1] = tau_j(vertices[i]); arcs alpha_2 --tau_0--> alpha_1
    --tau_2--> alpha_0 --tau_1--> alpha_2."""
    vertices, steps = [], []
    for j, start, end in (
        (0, tg.alphas[2], tg.alphas[1]),
        (2, tg.alphas[1], tg.alphas[0]),
        (1, tg.alphas[0], tg.alphas[2]),
    ):
        x = start
        while True:
            vertices.append(x)
            steps.append((x, j))
            x = tau(T, j, x)
            if x == end:
                break
    if len(set(vertices)) != len(vertices):
        raise SpliceIdentityFailure("path around the trigon is not simple")
    return vertices, steps


def flood_inner(T, tg):
    """(triangular faces, star triples) inside the trigon boundary: the faces
    a flood fill from the corners reaches without crossing an edge of P, and
    their star vertices less the alphas."""
    _, steps = path_steps(T, tg)
    # the semidual edge (x, tau_j(x)) lies between label x[j]'s face and this delta triple's
    blocked = {(j, T.delta_partner(x, (j + 2) % 3)) for x, j in steps}

    by_label = {}
    for q in T.delta:
        for j in range(3):
            by_label.setdefault(q[j], []).append((j, q))

    seen_tri = set(tg.corners)
    seen_cyc = set()
    frontier = list(tg.corners)
    while frontier:
        q = frontier.pop()
        for j in range(3):
            if (j, q) not in blocked and q[j] not in seen_cyc:
                seen_cyc.add(q[j])
                for j2, q2 in by_label[q[j]]:
                    if (j2, q2) not in blocked and q2 not in seen_tri:
                        seen_tri.add(q2)
                        frontier.append(q2)

    inner_points = {T.star_partner(q, j) for q in seen_tri for j in range(3)}
    for lab in seen_cyc:
        start = next(p for p in T.star if p[lab.role] == lab)
        inner_points.update(tau_cycle(T, lab.role, start))
    return seen_tri, inner_points - set(tg.alphas)
