"""Triangle dissections attached to solved bitrades.

Each delta triple of a solved pointed bitrade yields a triangle bounded
by the lines y = row value, x = col value, x + y = sym value.  For a
spherical bitrade with a separated solution these triangles dissect the
outer triangle of the pivot.  The reverse direction recovers a pointed
bitrade from a dissection.

The tiling verifier works on the three line values (h, v, d) alone.  An
upright triangle (d > h + v) is the open set y > h, x > v, x + y < d; an
inverted one (d < h + v) is y < h, x < v, x + y > d.  Eliminating x and
y from the six strict half-planes of two such triangles (Fourier-Motzkin)
leaves one test per orientation pair: two upright triangles overlap iff
max(h) + max(v) < min(d); two inverted ones iff min(h) + min(v) > max(d);
an upright u and an inverted w iff u.h < w.h, u.v < w.v and w.d < u.d.
A triangle lies in the outer one iff its three corners satisfy the outer
triangle's three closed half-planes, since both are convex.  Every test
is a strict or non-strict comparison of sums of Fractions, so the
verdicts are exact, touching edges and shared vertices included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    COL,
    ROW,
    SYM,
    BitradeError,
    InternalCheckFailed,
    Label,
    Triple,
    build_bitrade,
)
from .solver import PointedBitrade, is_separated_solution


class NotSeparatedSolution(BitradeError):
    """The solution values collide within a role, so no dissection exists."""

    def __init__(self, witness):
        self.witness = witness
        role, a, b = witness
        super().__init__(f"solution does not separate {a} and {b}")


class ValenceSix(BitradeError):
    """A dissection vertex lies on six triangle corners; extraction is ambiguous."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"vertex {point} has six incident triangle corners")


@dataclass(frozen=True)
class TriangleGeom:
    """A triangle cut out by a horizontal, a vertical and a diagonal line."""

    source: object  # Triple, or None for free-standing triangles
    lines: tuple  # (horizontal y, vertical x, diagonal x + y), Fractions

    @property
    def corners(self):
        c1, c2, c3 = self.lines
        return ((c2, c1), (c2, c3 - c2), (c3 - c1, c1))

    @property
    def degenerate(self):
        c1, c2, c3 = self.lines
        return c1 + c2 == c3

    @property
    def upright(self):
        c1, c2, c3 = self.lines
        return c3 > c1 + c2

    @property
    def leg(self):
        c1, c2, c3 = self.lines
        return abs(c3 - c1 - c2)

    @property
    def area(self):
        return self.leg * self.leg / 2


def triangles(sol):
    """One triangle per delta triple, from the solution values."""
    v = sol.values
    return [
        TriangleGeom(q, (v[q.row], v[q.col], v[q.sym])) for q in sol.bitrade.delta
    ]


def outer_triangle(sol):
    v = sol.values
    a = sol.pivot
    return TriangleGeom(a, (v[a.row], v[a.col], v[a.sym]))


@dataclass(frozen=True)
class DissectionReport:
    contained: bool
    non_degenerate: bool
    pairwise_disjoint: bool
    area_total: Fraction
    area_outer: Fraction
    contiguous_sides: bool
    valence_six_points: tuple
    is_dissection: bool
    is_separated_dissection: bool


def _side_intervals(tri):
    """((kind, line value), (lo, hi)) for the three sides of a triangle."""
    c1, c2, c3 = tri.lines
    xs = sorted((c2, c3 - c1))
    ys = sorted((c1, c3 - c2))
    return [
        (("h", c1), tuple(xs)),
        (("v", c2), tuple(ys)),
        (("d", c3), tuple(xs)),
    ]


def _contiguous(intervals):
    intervals = sorted(intervals)
    hi = intervals[0][1]
    for lo, up in intervals[1:]:
        if lo > hi:
            return False
        hi = max(hi, up)
    return True


def _contains(outer, tri):
    """Do all corners of tri lie in the closed outer triangle?

    A degenerate outer triangle is a single point.
    """
    h, v, d = outer.lines
    if d < h + v:
        return all(y <= h and x <= v and x + y >= d for x, y in tri.corners)
    return all(y >= h and x >= v and x + y <= d for x, y in tri.corners)


def _overlap(t1, t2):
    """Do the interiors of two non-degenerate triangles meet?"""
    (h1, v1, d1), (h2, v2, d2) = t1.lines, t2.lines
    up1, up2 = d1 > h1 + v1, d2 > h2 + v2
    if up1 and up2:
        return max(h1, h2) + max(v1, v2) < min(d1, d2)
    if not (up1 or up2):
        return min(h1, h2) + min(v1, v2) > max(d1, d2)
    if up2:
        (h1, v1, d1), (h2, v2, d2) = (h2, v2, d2), (h1, v1, d1)
    return h1 < h2 and v1 < v2 and d2 < d1


def verify_dissection(sol, tris=None):
    """Check that the triangles of a solution dissect the outer triangle."""
    if tris is None:
        tris = triangles(sol)
    sigma = outer_triangle(sol)
    solid = [t for t in tris if not t.degenerate]
    non_degenerate = len(solid) == len(tris)
    contained = all(_contains(sigma, t) for t in solid)
    pairwise_disjoint = not any(
        _overlap(t1, t2) for i, t1 in enumerate(solid) for t2 in solid[i + 1:]
    )

    area_total = sum((t.area for t in tris), Fraction(0))

    by_line = {}
    for t in solid:
        for key, iv in _side_intervals(t):
            by_line.setdefault(key, []).append(iv)
    contiguous = all(_contiguous(ivs) for ivs in by_line.values())

    corner_count = {}
    for t in solid:
        for p in t.corners:
            corner_count[p] = corner_count.get(p, 0) + 1
    valence_six = tuple(sorted(p for p, k in corner_count.items() if k == 6))

    is_dissection = (
        non_degenerate and contained and pairwise_disjoint and area_total == sigma.area
    )
    return DissectionReport(
        contained=contained,
        non_degenerate=non_degenerate,
        pairwise_disjoint=pairwise_disjoint,
        area_total=area_total,
        area_outer=sigma.area,
        contiguous_sides=contiguous,
        valence_six_points=valence_six,
        is_dissection=is_dissection,
        is_separated_dissection=is_dissection and contiguous and not valence_six,
    )


def dissect(sol):
    """Triangles plus verification; raises if the solution is not separated."""
    ok, witness = is_separated_solution(sol)
    if not ok:
        raise NotSeparatedSolution(witness)
    tris = triangles(sol)
    report = verify_dissection(sol, tris)
    if not report.is_dissection:
        raise InternalCheckFailed(
            "separated solution did not produce a dissection; "
            f"report: {report}"
        )
    return tris, report


def extract_bitrade(line_triples):
    """Recover a pointed bitrade from a dissection given as line triples.

    Each input is (horizontal, vertical, diagonal) line values of one
    triangle.  The triangles become the delta; interior vertices and the
    outer triple become the star.  The pivot is the outer triple.
    """
    tris = [TriangleGeom(None, tuple(Fraction(v) for v in t)) for t in line_triples]
    if any(t.degenerate for t in tris):
        raise BitradeError("degenerate triangle in dissection input")

    def universe(role, values):
        prefix = "rcs"[role]
        return {v: Label(role, i, f"{prefix}{i}") for i, v in enumerate(sorted(values))}

    rows = universe(ROW, {t.lines[0] for t in tris})
    cols = universe(COL, {t.lines[1] for t in tris})
    syms = universe(SYM, {t.lines[2] for t in tris})

    delta = [Triple(rows[t.lines[0]], cols[t.lines[1]], syms[t.lines[2]]) for t in tris]

    outer = Triple(rows[min(rows)], cols[min(cols)], syms[max(syms)])
    sigma_corners = set(
        TriangleGeom(None, (min(rows), min(cols), max(syms))).corners
    )
    corner_count = {}
    for t in tris:
        for p in t.corners:
            corner_count[p] = corner_count.get(p, 0) + 1

    star = [outer]
    for (x, y), k in sorted(corner_count.items()):
        if (x, y) in sigma_corners:
            continue
        if k == 6:
            raise ValenceSix((x, y))
        if y not in rows or x not in cols or x + y not in syms:
            raise BitradeError(f"vertex {(x, y)} does not lie on three dissection lines")
        star.append(Triple(rows[y], cols[x], syms[x + y]))

    return PointedBitrade(build_bitrade(star, delta), outer)


def _fmt(v):
    return f"{float(v):.9g}"


SVG_SIDE = 600  # side of the outer triangle, in SVG user units


def to_svg(sol, labels=False):
    """Render the dissection as an SVG string, mapped to an equilateral outline.

    The affine map sends (x, y) to (x + y/2, sqrt(3) y / 2); SVG's
    downward y axis is flipped so the outer triangle sits point-up.
    """
    tris = triangles(sol)
    sigma = outer_triangle(sol)
    height = math.sqrt(3) / 2
    margin = SVG_SIDE * 0.02

    def project(p):  # formatted SVG coordinates
        x, y = float(p[0]), float(p[1])
        ex, ey = x + y / 2, height * y
        return _fmt(SVG_SIDE * ex + margin), _fmt(SVG_SIDE * (height - ey) + margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(SVG_SIDE * 1.04)}" height="{_fmt(SVG_SIDE * height + SVG_SIDE * 0.04)}" '
        f'viewBox="0 0 {_fmt(SVG_SIDE * 1.04)} {_fmt(SVG_SIDE * height + SVG_SIDE * 0.04)}">'
    ]

    def pts(tri):
        return " ".join(",".join(project(p)) for p in tri.corners)

    parts.append(
        f'<polygon points="{pts(sigma)}" fill="none" stroke="black" stroke-width="2"/>'
    )
    for tri in sorted(tris, key=lambda t: t.source):
        fill = "#cfe8ff" if tri.upright else "#ffe3c2"
        parts.append(
            f'<polygon points="{pts(tri)}" fill="{fill}" stroke="black" stroke-width="1"/>'
        )
        if labels:
            cx = sum(p[0] for p in tri.corners) / 3
            cy = sum(p[1] for p in tri.corners) / 3
            px, py = project((cx, cy))
            name = ",".join(tri.source.names())
            parts.append(
                f'<text x="{px}" y="{py}" font-size="10" '
                f'text-anchor="middle">{name}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
