"""The trigon's inner circumference by splicing, kept as an oracle for the flood fill.

``inner_circumference`` walks the closed path P around a trigon and
splices the three detour arcs Q_j in place of the alphas, the paper's
construction of the inner circumference, on the path that
``walk_oracle.path_steps`` steps with tau.  ``trigons.split`` reads the
inner star triples off ``trigons._flood_inner`` instead, so every star
triple of the circumference must lie among the flood's inner points.
"""

from __future__ import annotations

from dataclasses import dataclass

from bitrades.core import InternalCheckFailed, tau, tau_cycle
from bitrades.trigons import SpliceIdentityFailure
from walk_oracle import path_steps


@dataclass(frozen=True)
class TrigonCircumference:
    path: tuple  # P, closed star-triple sequence
    betas: tuple  # predecessors of the alphas on P
    arcs: tuple  # the three detour walks Q_j
    circumference: tuple  # closed inner circumference


def inner_circumference(T, tg):
    """Splice the detour arcs into P, yielding the inner circumference."""
    vertices, _ = path_steps(T, tg)
    betas, arcs = [], []
    for j in range(3):
        idx = vertices.index(tg.alphas[j])
        beta = vertices[idx - 1]
        succ = vertices[(idx + 1) % len(vertices)]
        if tau(T, j, succ) != beta:
            raise SpliceIdentityFailure(
                f"splice identity fails at corner {tg.alphas[j]}"
            )
        q = tau_cycle(T, j, beta)
        if q[-1] != succ:
            raise InternalCheckFailed(f"detour arc from {beta} does not close at {succ}")
        betas.append(beta)
        arcs.append(tuple(q))
    circ = list(vertices)
    for j in range(3):
        idx = circ.index(tg.alphas[j])
        circ[idx:idx + 1] = list(arcs[j][1:-1])
    return TrigonCircumference(tuple(vertices), tuple(betas), tuple(arcs), tuple(circ))
