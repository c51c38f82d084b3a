"""Triangle dissections attached to solved bitrades.

Each delta triple of a solved pointed bitrade yields a triangle bounded
by the lines y = row value, x = col value, x + y = sym value.  For a
spherical bitrade with a separated solution these triangles dissect the
outer triangle of the pivot.  The reverse direction recovers a pointed
bitrade from a dissection.

A triangle is its integer line triple (h, v, d): its three line values
times one common denominator n.  ``dissect``, the verifier and the
renderer read the solution's values over its width, and the extractor
scales its input once.  ``Fraction`` appears only in the report's areas
and six-corner points and in the points that the extractor's errors
name.  The verifier works on the three line values alone.  An upright
triangle (d > h + v) is the open set y > h, x > v, x + y < d; an
inverted one (d < h + v) is y < h, x < v, x + y > d.  Eliminating x
and y from the six strict half-planes of two such triangles
(Fourier-Motzkin) leaves one test per orientation pair: two
upright triangles overlap iff max(h) + max(v) < min(d); two inverted
ones iff min(h) + min(v) > max(d); an upright u and an inverted w iff
u.h < w.h, u.v < w.v and w.d < u.d.  A triangle lies in the outer one
iff its corners satisfy the outer triangle's three closed half-planes,
since both are convex; areas compare as Σ leg² against the outer leg².
Every test compares integer sums, so the verdicts are exact, touching
edges and shared vertices included.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    COL,
    ROW,
    SYM,
    BitradeError,
    EmptyInput,
    InternalCheckFailed,
    Label,
    Triple,
    build_bitrade,
)
from .solver import PointedBitrade, _to_width, is_separated_solution


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


def _corners(h, v, d):
    """The (x, y) corners of the triangle with line values (h, v, d)."""
    return (v, h), (v, d - v), (d - h, h)


def _lines(sol):
    """(n, outer, lines): the pivot's and each delta triple's (h, v, d) times the width n."""
    n, value = sol.scaled
    outer, *lines = [(value[t.row], value[t.col], value[t.sym])
                     for t in (sol.pivot, *sol.bitrade.delta)]
    return n, outer, lines


def _contiguous(intervals):
    intervals = sorted(intervals)
    hi = intervals[0][1]
    for lo, up in intervals[1:]:
        if lo > hi:
            return False
        hi = max(hi, up)
    return True


def _overlap(up, down):
    """Do the interiors of two of the upright and inverted triangles meet?"""
    return (any(max(h1, h2) + max(v1, v2) < min(d1, d2)
                for i, (h1, v1, d1) in enumerate(up) for h2, v2, d2 in up[i + 1:])
            or any(min(h1, h2) + min(v1, v2) > max(d1, d2)
                   for i, (h1, v1, d1) in enumerate(down) for h2, v2, d2 in down[i + 1:])
            or any(h1 < h2 and v1 < v2 and d2 < d1
                   for h1, v1, d1 in up for h2, v2, d2 in down))


def _report(n, outer, lines):
    """The DissectionReport of integer line triples over the denominator n."""
    up = [t for t in lines if t[2] > t[0] + t[1]]
    down = [t for t in lines if t[2] < t[0] + t[1]]
    solid = up + down
    corners = [p for t in solid for p in _corners(*t)]
    H, V, D = outer
    if D < H + V:  # an inverted outer triangle
        contained = all(y <= H and x <= V and x + y >= D for x, y in corners)
    else:  # upright, or degenerate to the point (V, H)
        contained = all(y >= H and x >= V and x + y <= D for x, y in corners)
    leg2 = sum((d - h - v) ** 2 for h, v, d in lines)

    sides = {}  # (role, line value) -> the intervals that the triangles' sides cover
    for h, v, d in solid:
        xs, ys = sorted((v, d - h)), sorted((h, d - v))
        for key, interval in (((ROW, h), xs), ((COL, v), ys), ((SYM, d), xs)):
            sides.setdefault(key, []).append(interval)
    contiguous = all(_contiguous(intervals) for intervals in sides.values())
    valence_six = tuple(sorted(
        (Fraction(x, n), Fraction(y, n)) for (x, y), k in Counter(corners).items() if k == 6
    ))

    non_degenerate = len(solid) == len(lines)
    pairwise_disjoint = not _overlap(up, down)
    is_dissection = (non_degenerate and contained and pairwise_disjoint
                     and leg2 == (D - H - V) ** 2)
    return DissectionReport(
        contained=contained,
        non_degenerate=non_degenerate,
        pairwise_disjoint=pairwise_disjoint,
        area_total=Fraction(leg2, 2 * n * n),
        area_outer=Fraction((D - H - V) ** 2, 2 * n * n),
        contiguous_sides=contiguous,
        valence_six_points=valence_six,
        is_dissection=is_dissection,
        is_separated_dissection=is_dissection and contiguous and not valence_six,
    )


def verify_dissection(sol):
    """Check that the triangles of a solution dissect the outer triangle."""
    return _report(*_lines(sol))


def dissect(sol):
    """(lines, report): the triangles and their verification.

    ``lines`` holds each delta triple's integer (h, v, d) over the width
    ``sol.scaled[0]``, in delta order.  ``extract_bitrade(lines)`` accepts
    them, since extraction does not change under scaling.  Raises
    NotSeparatedSolution if the solution is not separated.
    """
    ok, witness = is_separated_solution(sol)
    if not ok:
        raise NotSeparatedSolution(witness)
    n, outer, lines = _lines(sol)
    report = _report(n, outer, lines)
    if not report.is_dissection:
        raise InternalCheckFailed(
            "separated solution did not produce a dissection; "
            f"report: {report}"
        )
    return lines, report


def extract_bitrade(line_triples):
    """Recover a pointed bitrade from a dissection given as line triples.

    Each input is (horizontal, vertical, diagonal) line values of one
    triangle, as anything ``Fraction`` accepts.  The triangles become the
    delta; interior vertices and the outer triple become the star.  The
    pivot is the outer triple.
    """
    n, lines = _to_width([[x if type(x) in (int, Fraction) else Fraction(x) for x in t]
                          for t in line_triples])
    if not lines:
        raise EmptyInput("no triangles in dissection input")
    if any(h + v == d for h, v, d in lines):
        raise BitradeError("degenerate triangle in dissection input")
    if len(set(lines)) != len(lines):
        raise BitradeError("repeated triangle in dissection input")

    def universe(role):
        prefix = "rcs"[role]
        values = sorted({t[role] for t in lines})
        return {x: Label(role, i, f"{prefix}{i}") for i, x in enumerate(values)}

    rows, cols, syms = universe(ROW), universe(COL), universe(SYM)
    delta = [Triple(rows[h], cols[v], syms[d]) for h, v, d in lines]

    outer = Triple(rows[min(rows)], cols[min(cols)], syms[max(syms)])
    sigma_corners = set(_corners(min(rows), min(cols), max(syms)))
    corner_count = Counter(p for t in lines for p in _corners(*t))

    star = [outer]
    for (x, y), k in sorted(corner_count.items()):
        if (x, y) in sigma_corners:
            continue
        if k == 6:
            raise ValenceSix((Fraction(x, n), Fraction(y, n)))
        if y not in rows or x not in cols or x + y not in syms:
            point = (Fraction(x, n), Fraction(y, n))
            raise BitradeError(f"vertex {point} does not lie on three dissection lines")
        star.append(Triple(rows[y], cols[x], syms[x + y]))

    return PointedBitrade(build_bitrade(star, delta), outer)


def _fmt(v):
    return f"{v:.9g}"


SVG_SIDE = 600  # side of the outer triangle, in SVG user units


def to_svg(sol, labels=False):
    """Render the dissection as an SVG string, mapped to an equilateral outline.

    The affine map sends (x, y) to (x + y/2, sqrt(3) y / 2); SVG's
    downward y axis is flipped so the outer triangle sits point-up.
    """
    n, outer, lines = _lines(sol)
    height = math.sqrt(3) / 2
    margin = SVG_SIDE * 0.02

    def project(x, y, m=n):  # formatted SVG coordinates of the point (x / m, y / m)
        x, y = x / m, y / m  # int / int rounds once, as float(Fraction(x, m)) does
        ex, ey = x + y / 2, height * y
        return _fmt(SVG_SIDE * ex + margin), _fmt(SVG_SIDE * (height - ey) + margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(SVG_SIDE * 1.04)}" height="{_fmt(SVG_SIDE * height + SVG_SIDE * 0.04)}" '
        f'viewBox="0 0 {_fmt(SVG_SIDE * 1.04)} {_fmt(SVG_SIDE * height + SVG_SIDE * 0.04)}">'
    ]

    def pts(corners):
        return " ".join(",".join(project(x, y)) for x, y in corners)

    if labels:  # imported here: xml.sax.saxutils imports urllib.request and ssl
        from xml.sax.saxutils import escape
    parts.append(f'<polygon points="{pts(_corners(*outer))}" '
                 'fill="none" stroke="black" stroke-width="2"/>')
    for q, (h, v, d) in zip(sol.bitrade.delta, lines):
        corners = _corners(h, v, d)
        fill = "#cfe8ff" if d > h + v else "#ffe3c2"
        parts.append(
            f'<polygon points="{pts(corners)}" fill="{fill}" stroke="black" stroke-width="1"/>'
        )
        if labels:
            px, py = project(sum(x for x, _ in corners), sum(y for _, y in corners), 3 * n)
            name = ",".join(q.names())
            parts.append(
                f'<text x="{px}" y="{py}" font-size="10" '
                f'text-anchor="middle">{escape(name)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
