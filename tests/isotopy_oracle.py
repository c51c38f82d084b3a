"""Isotopy and semidual reference paths, kept as test oracles.

The library does not call them.  ``is_isotopic`` searches for role-wise
label bijections carrying one bitrade onto another, and
``apply_isotopy`` rebuilds a bitrade under such bijections; the tests
use them to compare a split's parts or a dissection's extracted bitrade
with a known one.  ``semidual_faces`` lists the faces of the semidual
surface, and ``tau_inverse`` inverts tau_j.
"""

from __future__ import annotations

from dataclasses import dataclass

from bitrades.core import (
    COL, ROW, SYM, BitradeError, Triple, build_bitrade, is_separated_bitrade, nu,
    tau_cycle,
)


class NotSeparated(BitradeError):
    pass


def tau_inverse(T, j, a):
    return nu(T, (j + 2) % 3, (j + 1) % 3, a)


@dataclass(frozen=True)
class SemidualFaces:
    """Faces of the semidual surface: vertices are star triples."""

    cyclic: dict  # Label -> tuple of star triples (tau cycle order)
    triangular: dict  # delta Triple -> tuple of 3 star triples

    @property
    def face_count(self):
        return len(self.cyclic) + len(self.triangular)


def semidual_faces(T):
    if not is_separated_bitrade(T):
        raise NotSeparated("semidual faces are only defined for separated bitrades")
    cyclic = {}
    for role in (ROW, COL, SYM):
        for lab in T.universe(role):
            start = next(p for p in T.star if p[role] == lab)
            cyclic[lab] = tuple(tau_cycle(T, role, start))
    triangular = {}
    for c in T.delta:
        triangular[c] = tuple(T.star_partner(c, j) for j in range(3))
    return SemidualFaces(cyclic, triangular)


def is_isotopic(T, S):
    """Search for role-wise label bijections carrying T onto S.

    Returns a tuple of three dicts (rows, cols, syms mapping) or None.
    The search propagates forced assignments along R2/R3 partners, with
    backtracking only across connected components.
    """
    if T.size != S.size:
        return None
    if any(len(T.universe(r)) != len(S.universe(r)) for r in (ROW, COL, SYM)):
        return None

    def propagate(p0, q0, mapping, star_map, delta_map):
        queue = [("star", p0, q0)]
        while queue:
            kind, p, q = queue.pop()
            current = star_map if kind == "star" else delta_map
            if p in current:
                if current[p] != q:
                    return False
                continue
            for pl, ql in zip(p, q):
                if mapping.get(pl, ql) != ql:
                    return False
                mapping[pl] = ql
            current[p] = q
            for j in range(3):
                if kind == "star":
                    queue.append(("delta", T.delta_partner(p, j), S.delta_partner(q, j)))
                else:
                    queue.append(("star", T.star_partner(p, j), S.star_partner(q, j)))
        return True

    def extend(mapping, star_map, delta_map):
        remaining = [p for p in T.star if p not in star_map]
        if not remaining:
            # full verification: the maps must reproduce S exactly
            if len(set(mapping.values())) != len(mapping):
                return None
            for p in T.star:
                if not S.in_star(_apply(mapping, p)):
                    return None
            for p in T.delta:
                if not S.in_delta(_apply(mapping, p)):
                    return None
            return mapping
        p0 = remaining[0]
        used = set(star_map.values())
        for q0 in S.star:
            if q0 in used:
                continue
            m2, sm2, dm2 = dict(mapping), dict(star_map), dict(delta_map)
            if propagate(p0, q0, m2, sm2, dm2):
                result = extend(m2, sm2, dm2)
                if result is not None:
                    return result
        return None

    mapping = extend({}, {}, {})
    if mapping is None:
        return None
    return tuple(
        {lab: mapping[lab] for lab in T.universe(role)} for role in (ROW, COL, SYM)
    )


def _apply(mapping, t):
    return Triple(mapping[t.row], mapping[t.col], mapping[t.sym])


def apply_isotopy(maps, T):
    """Apply role-wise bijections to a bitrade, rebuilding it."""
    merged = {}
    for d in maps:
        merged.update(d)
    star = [_apply(merged, t) for t in T.star]
    delta = [_apply(merged, t) for t in T.delta]
    return build_bitrade(star, delta)
