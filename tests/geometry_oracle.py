"""Slow reference paths for the integer geometry of ``bitrades.geometry``.

``TriangleGeom`` is a triangle of ``Fraction`` line values, and
``triangles`` and ``outer_triangle`` read a solution's delta triples and
pivot as such.  ``verify_dissection``, ``extract_bitrade`` and
``to_svg`` are the ``Fraction`` versions that the integer kernels
replaced: the same interval algebra, extraction and drawing, on the
rational line values themselves.  ``clip_polygon`` is Sutherland-Hodgman clipping of a
polygon by a convex polygon in exact arithmetic.  Two triangles overlap
when their clipped intersection has nonzero area; a triangle is
contained in another when clipping it to the other leaves its whole
area.  ``clip_verify_dissection`` builds the whole ``DissectionReport``
that way, over all pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from xml.sax.saxutils import escape

from bitrades.core import COL, ROW, SYM, BitradeError, Label, Triple, build_bitrade
from bitrades.geometry import (
    SVG_SIDE,
    DissectionReport,
    ValenceSix,
    _contiguous,
    _corners,
)
from bitrades.solver import PointedBitrade


@dataclass(frozen=True)
class TriangleGeom:
    """A triangle cut out by a horizontal, a vertical and a diagonal line."""

    source: object  # Triple, or None for free-standing triangles
    lines: tuple  # (horizontal y, vertical x, diagonal x + y), Fractions

    @property
    def corners(self):
        return _corners(*self.lines)

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


def polygon_area(points):
    """Signed shoelace area (positive = counterclockwise)."""
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        total += x1 * y2 - x2 * y1
    return total / 2


def clip_polygon(subject, clipper):
    """Intersection of a polygon with a convex polygon (exact arithmetic)."""
    if polygon_area(clipper) < 0:
        clipper = clipper[::-1]
    output = list(subject)
    for (ax, ay), (bx, by) in zip(clipper, clipper[1:] + clipper[:1]):
        if not output:
            break
        def side(p):
            return (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
        result = []
        for p, q in zip(output, output[1:] + output[:1]):
            sp, sq = side(p), side(q)
            if sp >= 0:
                result.append(p)
            if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
                t = sp / (sp - sq)
                result.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        output = result
    return output


def interiors_overlap(t1, t2):
    clipped = clip_polygon(list(t1.corners), list(t2.corners))
    return len(clipped) >= 3 and polygon_area(clipped) != 0


def contained(outer, tri):
    """Does clipping tri to the outer triangle keep all of its area?"""
    return abs(polygon_area(clip_polygon(list(tri.corners), list(outer.corners)))) == tri.area


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


def interval_contains(outer, tri):
    """Do all corners of tri lie in the closed outer triangle?

    A degenerate outer triangle is a single point.
    """
    h, v, d = outer.lines
    if d < h + v:
        return all(y <= h and x <= v and x + y >= d for x, y in tri.corners)
    return all(y >= h and x >= v and x + y <= d for x, y in tri.corners)


def interval_overlap(t1, t2):
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


def verify_dissection(sol, tris=None, overlap=interval_overlap, contains=interval_contains):
    """The report of ``bitrades.geometry.verify_dissection``, on Fractions.

    overlap and contains decide the pairwise and the containment tests.
    """
    if tris is None:
        tris = triangles(sol)
    sigma = outer_triangle(sol)
    solid = [t for t in tris if not t.degenerate]
    non_degenerate = len(solid) == len(tris)
    is_contained = all(contains(sigma, t) for t in solid)
    pairwise_disjoint = not any(
        overlap(t1, t2) for i, t1 in enumerate(solid) for t2 in solid[i + 1:]
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
        non_degenerate and is_contained and pairwise_disjoint and area_total == sigma.area
    )
    return DissectionReport(
        contained=is_contained,
        non_degenerate=non_degenerate,
        pairwise_disjoint=pairwise_disjoint,
        area_total=area_total,
        area_outer=sigma.area,
        contiguous_sides=contiguous,
        valence_six_points=valence_six,
        is_dissection=is_dissection,
        is_separated_dissection=is_dissection and contiguous and not valence_six,
    )


clip_verify_dissection = functools.partial(
    verify_dissection, overlap=interiors_overlap, contains=contained
)


def extract_bitrade(line_triples):
    """``bitrades.geometry.extract_bitrade`` on Fraction corners."""
    tris = [TriangleGeom(None, tuple(Fraction(v) for v in t)) for t in line_triples]
    if any(t.degenerate for t in tris):
        raise BitradeError("degenerate triangle in dissection input")
    if len({t.lines for t in tris}) != len(tris):
        raise BitradeError("repeated triangle in dissection input")

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


def to_svg(sol, labels=False):
    """``bitrades.geometry.to_svg`` on Fraction corners."""
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
                f'text-anchor="middle">{escape(name)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
