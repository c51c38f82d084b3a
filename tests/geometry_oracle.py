"""Slow polygon-clipping reference paths, kept as oracles for the line-value verifier.

``clip_polygon`` is Sutherland-Hodgman clipping of a polygon by a convex
polygon in exact arithmetic.  Two triangles overlap when their clipped
intersection has nonzero area; a triangle is contained in another when
clipping it to the other leaves its whole area.  ``verify_dissection``
builds the whole ``DissectionReport`` that way, over all pairs.
"""

from __future__ import annotations

from fractions import Fraction

from bitrades.geometry import (
    DissectionReport,
    _contiguous,
    _side_intervals,
    outer_triangle,
    triangles,
)


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


def verify_dissection(sol, tris=None):
    """The report of ``bitrades.geometry.verify_dissection``, by clipping."""
    if tris is None:
        tris = triangles(sol)
    sigma = outer_triangle(sol)
    solid = [t for t in tris if not t.degenerate]
    non_degenerate = len(solid) == len(tris)
    is_contained = all(contained(sigma, t) for t in solid)
    pairwise_disjoint = not any(
        interiors_overlap(t1, t2) for i, t1 in enumerate(solid) for t2 in solid[i + 1:]
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
