import functools
import json
import math
import random
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_oracle
import pivot_oracle
from bitrades import jsonio, solver
from bitrades.core import BitradeError, InternalCheckFailed, build_bitrade
from bitrades.geometry import (
    NotSeparatedSolution,
    TriangleGeom,
    ValenceSix,
    _report,
    _scale,
    dissect,
    extract_bitrade,
    outer_triangle,
    to_svg,
    triangles,
    verify_dissection,
)
from bitrades.solver import PointedBitrade, relation_matrix, solve_pointed
from conftest import GRID16_LINES, spherical_dissection, triple_by_names
from geometry_oracle import (
    clip_polygon,
    interiors_overlap,
    interval_contains,
    interval_overlap,
    polygon_area,
)
from isotopy_oracle import is_isotopic

H = Fraction(1, 2)


def solve(T, r, c, s):
    return solve_pointed(PointedBitrade(T, triple_by_names(T, r, c, s)))


class TestTriangleGeom:
    def test_upright(self):
        t = TriangleGeom(None, (Fraction(0), Fraction(0), Fraction(1)))
        assert t.upright and not t.degenerate
        assert t.leg == 1 and t.area == H
        assert set(t.corners) == {(0, 0), (0, 1), (1, 0)}

    def test_inverted(self):
        t = TriangleGeom(None, (H, H, H))
        assert not t.upright and not t.degenerate
        assert t.leg == H and t.area == Fraction(1, 8)
        assert set(t.corners) == {(H, H), (H, 0), (0, H)}

    def test_degenerate(self):
        t = TriangleGeom(None, (H, H, Fraction(1)))
        assert t.degenerate and t.area == 0


class TestPolygonOps:
    def test_area(self):
        assert polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1
        assert polygon_area([(0, 0), (0, 1), (1, 1), (1, 0)]) == -1

    def test_clip_disjoint(self):
        a = [(0, 0), (1, 0), (0, 1)]
        b = [(5, 5), (6, 5), (5, 6)]
        clipped = clip_polygon(a, b)
        assert clipped == [] or polygon_area(clipped) == 0

    def test_clip_contained(self):
        outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
        inner = [(1, 1), (2, 1), (1, 2)]
        clipped = clip_polygon(inner, outer)
        assert abs(polygon_area(clipped)) == H

    def test_overlap_detection(self):
        t1 = TriangleGeom(None, (Fraction(0), Fraction(0), Fraction(1)))
        t2 = TriangleGeom(None, (Fraction(0), Fraction(0), H))
        t3 = TriangleGeom(None, (H, H, Fraction(3, 2)))
        assert interiors_overlap(t1, t2)
        assert not interiors_overlap(t2, t3)

    def test_touching_is_not_overlap(self):
        # share only an edge
        t1 = TriangleGeom(None, (Fraction(0), Fraction(0), H))
        t2 = TriangleGeom(None, (H, H, H))
        assert not interiors_overlap(t1, t2)


class TestDissect:
    def test_intercalate_triangles(self, intercalate):
        sol = solve(intercalate, "r0", "c0", "s0")
        tris, report = dissect(sol)
        assert len(tris) == 4
        legs = sorted(t.leg for t in tris)
        assert legs == [H, H, H, H]
        assert sum(t.area for t in tris) == H
        assert sum(1 for t in tris if not t.upright) == 1
        assert report.is_dissection and report.is_separated_dissection

    def test_outer_triangle(self, intercalate):
        sol = solve(intercalate, "r0", "c0", "s0")
        sigma = outer_triangle(sol)
        assert sigma.lines == (0, 0, 1) and sigma.area == H

    def test_ex45_dissection(self, ex45):
        sol = solve(ex45, "r0", "c0", "s4")
        tris, report = dissect(sol)
        assert len(tris) == 12
        assert report.area_total == H

    def test_collision_raises(self, nested):
        sol = solve(nested.bitrade, "r1", "c1", "s0")
        with pytest.raises(NotSeparatedSolution) as e:
            dissect(sol)
        assert {lab.name for lab in e.value.witness[1:]} == {"r0", "r2"}

    def test_report_on_collision_solution(self, nested):
        # verification itself still runs and reports the failure
        sol = solve(nested.bitrade, "r1", "c1", "s0")
        report = verify_dissection(sol)
        assert not report.is_dissection

    def test_verify_builds_no_fraction(self, ex45, monkeypatch):
        # the verifier reads the solution's integers over its width, not its Fractions
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(solver, "Fraction", counting)
        sol = solve(build_bitrade(ex45.star, ex45.delta), "r0", "c0", "s4")
        assert verify_dissection(sol).is_separated_dissection
        assert built == []


class TestExtract:
    def test_round_trip_all_separated_pivots(self, spherical_corpus, connected_sums):
        # a connected sum is glued without geometry; from each pivot whose solution
        # and dissection are separated, its triangles extract back to the sum
        from bitrades.solver import is_separated_solution

        sums = [T for T, _ in connected_sums]
        round_trips = 0
        for T in [*spherical_corpus.values(), *sums]:
            for pivot in T.star:
                sol = solve_pointed(PointedBitrade(T, pivot))
                if not is_separated_solution(sol)[0]:
                    continue
                tris, report = dissect(sol)
                if not report.is_separated_dissection:
                    continue
                back = extract_bitrade([t.lines for t in tris])
                assert is_isotopic(back.bitrade, T) is not None
                round_trips += T in sums
        assert round_trips

    def test_nested_fixture(self, nested):
        T = nested.bitrade
        assert T.size == 7
        assert nested.pivot == T.star[0]

    def test_valence_six(self):
        with pytest.raises(ValenceSix) as e:
            extract_bitrade(GRID16_LINES)
        assert e.value.point[0].denominator == 4

    def test_degenerate_input(self):
        with pytest.raises(BitradeError, match="degenerate"):
            extract_bitrade([(0, 0, 0)])


class TestSvg:
    def test_deterministic(self, ex45):
        sol = solve(ex45, "r0", "c0", "s4")
        assert to_svg(sol) == to_svg(sol)

    def test_structure(self, intercalate):
        sol = solve(intercalate, "r0", "c0", "s0")
        svg = to_svg(sol, labels=True)
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 5  # outline + 4 triangles
        assert svg.count("<text") == 4

    def test_label_names_are_escaped(self, intercalate):
        # names come from the input file, so they may hold XML's special characters
        names = {"r0": "r<0", "c0": "c&0", "s0": 's"0', "s1": "s>1"}
        text = jsonio.dumps(intercalate)
        for old, new in names.items():
            text = text.replace(json.dumps(old), json.dumps(new))
        T = jsonio.loads(text)
        sol = solve(T, "r<0", "c&0", 's"0')
        svg = to_svg(sol, labels=True)
        assert svg == geometry_oracle.to_svg(sol, labels=True)
        root = ElementTree.fromstring(svg)
        texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == [",".join(q.names()) for q in sorted(T.delta)]
        assert {"r<0,c&0,s>1", 'r<0,c1,s"0'} <= set(texts)

    def test_significant_digits(self, ex45):
        sol = solve(ex45, "r0", "c0", "s4")
        svg = to_svg(sol).replace('"', " ").replace(",", " ")
        for token in svg.split():
            if token.count(".") == 1:
                digits = token.replace(".", "").replace("-", "").lstrip("0")
                assert len(digits) <= 9


Q = Fraction(1, 4)


def tri(h, v, d):
    return TriangleGeom(None, (Fraction(h), Fraction(v), Fraction(d)))


class TestNegativeVerdicts:
    """Hand-built triangle lists inside the outer triangle (0, 0, 1)."""

    @pytest.fixture
    def sol(self, intercalate):
        return solve(intercalate, "r0", "c0", "s0")

    def check(self, sol, tris):
        report = integer_report(outer_triangle(sol), tris)
        assert report == geometry_oracle.verify_dissection(sol, tris)
        assert report == geometry_oracle.clip_verify_dissection(sol, tris)
        return report

    def test_duplicated_triangle(self, sol):
        tris = triangles(sol)
        report = self.check(sol, tris + [tris[0]])
        assert not report.pairwise_disjoint and report.contained
        assert not report.is_dissection

    def test_upright_inverted_overlap(self, sol):
        report = self.check(sol, [tri(0, 0, H), tri(Q, Q, Q)])
        assert not report.pairwise_disjoint and report.contained

    def test_poking_outside(self, sol):
        report = self.check(sol, [tri(0, 0, Fraction(5, 4))])
        assert not report.contained and report.pairwise_disjoint
        report = self.check(sol, [tri(-Q, Q, H)])
        assert not report.contained

    def test_edge_sharing_is_disjoint(self, sol):
        assert self.check(sol, [tri(0, 0, H), tri(H, H, H)]).pairwise_disjoint

    @pytest.mark.parametrize("pair", [
        (tri(0, 0, H), tri(0, H, 1)),  # two upright, meeting at (1/2, 0)
        (tri(H, H, H), tri(H, 1, 1)),  # two inverted, meeting at (1/2, 1/2)
        (tri(0, 0, H), tri(0, 1, H)),  # upright and inverted, meeting at (1/2, 0)
    ])
    def test_vertex_touching_is_disjoint(self, sol, pair):
        assert self.check(sol, list(pair)).pairwise_disjoint


def translated_copies(rng, tris):
    """One copy of each triangle, shifted by multiples of half its leg, either way up."""
    out = []
    for t in tris:
        h, v, d = t.lines
        dx, dy = (t.leg * rng.randint(-3, 3) / 2 for _ in range(2))
        out.append(tri(h + dy, v + dx, h + dy + v + dx + rng.choice((1, -1)) * t.leg))
    return out


def integer_report(outer, tris):
    """The integer kernel's report on free-standing triangles in any outer one."""
    n, (outer, *lines) = _scale([outer.lines, *(t.lines for t in tris)])
    return _report(n, outer, lines)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([4, 7, 10, 13]))
def test_verdicts_match_clipping_oracle(seed, n):
    rng = random.Random(seed)
    sol = solve_pointed(extract_bitrade(spherical_dissection(rng, n)))
    sigma = outer_triangle(sol)
    tris = triangles(sol)
    copies = translated_copies(rng, tris)
    everything = tris + copies
    for t1 in everything:
        for t2 in everything:
            overlap = interiors_overlap(t1, t2)
            assert interval_overlap(t1, t2) == overlap
            assert integer_report(sigma, [t1, t2]).pairwise_disjoint != overlap
    for outer in [sigma] + rng.sample(everything, 3):  # upright and inverted outers
        for t in everything:
            contained = geometry_oracle.contained(outer, t)
            assert interval_contains(outer, t) == contained
            assert integer_report(outer, [t]).contained == contained
    i = rng.randrange(n)
    assert verify_dissection(sol).is_separated_dissection
    for subset in (tris, everything, tris[:i] + [copies[i]] + tris[i + 1:]):
        report = integer_report(sigma, subset)
        assert report == geometry_oracle.verify_dissection(sol, subset)
        assert report == geometry_oracle.clip_verify_dissection(sol, subset)


class TestAgainstFractionOracle:
    """The integer kernels equal the Fraction paths of geometry_oracle."""

    def test_reports_from_every_pivot(self, seeded_dissections):
        for lines in seeded_dissections:
            T = extract_bitrade(lines).bitrade
            for pivot in T.star:
                sol = solve_pointed(PointedBitrade(T, pivot))
                report = verify_dissection(sol)
                assert report == geometry_oracle.verify_dissection(sol)
                assert all(type(c) is Fraction for p in report.valence_six_points for c in p)

    def test_translated_copies(self, seeded_dissections):
        rng = random.Random(5)
        for lines in seeded_dissections:
            sol = solve_pointed(extract_bitrade(lines))
            tris = triangles(sol)
            copies = translated_copies(rng, tris)
            i = rng.randrange(len(tris))
            for subset in (copies, tris + copies, tris[:i] + [copies[i]] + tris[i + 1:]):
                report = integer_report(outer_triangle(sol), subset)
                assert report == geometry_oracle.verify_dissection(sol, subset)
                assert type(report.area_total) is type(report.area_outer) is Fraction

    def test_negative_last_pivot(self, seeded_dissections):
        """Solutions of a bitrade whose Bareiss elimination of B ends on a
        negative pivot d, so that raw integers y = d * value read off it would
        have the order of the values reversed; B's Smith form has d > 0."""
        pointed = extract_bitrade(seeded_dissections[2])
        T = pointed.bitrade
        B, labels = relation_matrix(T)
        assert pivot_oracle.eliminate(B, len(labels))[1] == -8
        for pivot in T.star:
            sol = solve_pointed(PointedBitrade(T, pivot))
            n, scaled = sol.scaled
            assert n > 0 and all(scaled[lab] == n * v for lab, v in sol.values.items())
            assert verify_dissection(sol) == geometry_oracle.verify_dissection(sol)
            if pivot == pointed.pivot:
                assert verify_dissection(sol).is_separated_dissection
                assert to_svg(sol, labels=True) == geometry_oracle.to_svg(sol, labels=True)

    @pytest.mark.parametrize("form", [Fraction, str, "int"])
    def test_extract(self, seeded_dissections, form):
        for lines in seeded_dissections:
            if form == "int":  # the dissection scaled by its width
                n = functools.reduce(math.lcm, {x.denominator for t in lines for x in t})
                given = [tuple(int(x * n) for x in t) for t in lines]
            else:
                given = [tuple(map(form, t)) for t in lines]
            got, want = extract_bitrade(given), geometry_oracle.extract_bitrade(given)
            assert got.pivot == want.pivot
            assert got.bitrade.star == want.bitrade.star
            assert got.bitrade.delta == want.bitrade.delta
            assert got.bitrade.star == extract_bitrade(lines).bitrade.star  # names included

    def test_extract_errors(self):
        with pytest.raises(ValenceSix) as got:
            extract_bitrade(GRID16_LINES)
        with pytest.raises(ValenceSix) as want:
            geometry_oracle.extract_bitrade(GRID16_LINES)
        assert got.value.point == want.value.point
        assert all(type(c) is Fraction for c in got.value.point)
        # a corner off the row lines: (0, 1/2) lies on no row line
        loose = [(0, 0, H), (0, H, 1)]
        with pytest.raises(BitradeError) as got:
            extract_bitrade(loose)
        with pytest.raises(BitradeError) as want:
            geometry_oracle.extract_bitrade(loose)
        assert str(got.value) == str(want.value)
        assert "Fraction(1, 2)" in str(got.value)

    @pytest.mark.parametrize("labels", [False, True])
    def test_svg_bytes(self, ex45, intercalate, labels):
        sols = [solve(ex45, "r0", "c0", "s4"), solve(intercalate, "r0", "c0", "s0")]
        for seed in range(20):
            lines = spherical_dissection(random.Random(100 + seed), (4, 7, 10, 13, 16)[seed % 5])
            sols.append(solve_pointed(extract_bitrade(lines)))
        for sol in sols:
            assert to_svg(sol, labels=labels) == geometry_oracle.to_svg(sol, labels=labels)
