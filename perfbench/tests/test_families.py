"""The input generators are deterministic per seed and produce valid inputs."""

import itertools
import random
from fractions import Fraction

import pytest

import families
import workloads
from bitrades import core, geometry, jsonio


@pytest.mark.parametrize("n", [4, 7, 13, 19])
def test_spherical_dissection_is_deterministic_and_valid(n):
    a = families.spherical_dissection(random.Random(5), n)
    b = families.spherical_dissection(random.Random(5), n)
    assert a == b
    assert len(a.lines) == n
    assert sum((abs(d - h - v) ** 2 / 2 for h, v, d in a.lines), Fraction(0)) == Fraction(1, 2)
    pointed = geometry.extract_bitrade(a.lines)
    assert core.metrics(pointed.bitrade).spherical
    assert len(pointed.bitrade.star) == len(families.vertex_triples(a.lines))


def test_spherical_dissection_depends_on_the_seed():
    shapes = {families.spherical_dissection(random.Random(s), 16).lines for s in range(5)}
    assert len(shapes) > 1


def test_spherical_dissection_rejects_bad_counts():
    with pytest.raises(ValueError):
        families.spherical_dissection(random.Random(0), 6)


def test_split4_halves_the_leg_and_keeps_the_area():
    for lines in families.INTERCALATE_LINES:
        parts = families.split4(lines)
        legs = {abs(d - h - v) for h, v, d in parts}
        assert legs == {abs(lines[2] - lines[0] - lines[1]) / 2}


def test_report_pool_is_deterministic_and_spherical(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pool = workloads.ReportSweep.cycle
    first = list(itertools.islice(workloads.ReportSweep().inputs(3, tmp_path / "a"), pool))
    second = list(itertools.islice(workloads.ReportSweep().inputs(3, tmp_path / "b"), pool))
    assert [i.triangles for i in first] == [i.triangles for i in second]
    expected = workloads.ReportSweep.sizes * workloads.ReportSweep.per_size
    assert sorted(i.triangles for i in first) == sorted(expected)
    for a, b in zip(first, second):
        text = (a.directory / "input.json").read_text()
        assert text == (b.directory / "input.json").read_text()
        T = jsonio.loads(text)
        assert core.metrics(T).spherical
        assert T.size == a.triangles
        assert a.outer_pivot in {",".join(t.names()) for t in T.star}


def test_dissect_items_are_deterministic_and_distinct():
    first = list(itertools.islice(workloads.PointedDissect().inputs(8, None), 12))
    second = list(itertools.islice(workloads.PointedDissect().inputs(8, None), 12))
    assert first == second
    assert len({item.lines for item in first}) == len(first)
    assert {len(item.lines) for item in first} == set(workloads.PointedDissect.sizes)


def test_group_items_are_deterministic_and_valid():
    first = list(itertools.islice(workloads.GroupInvariants().inputs(4, None), 20))
    second = list(itertools.islice(workloads.GroupInvariants().inputs(4, None), 20))
    assert first == second
    assert {item.base for item in first} == set(families.NON_SPHERICAL_BASES)
    for item in first:
        T = jsonio.loads(item.text)
        met = core.metrics(T)
        assert not met.spherical
        assert (met.size, met.m) == (item.want.size, item.want.m)
        assert item.pivot in {t.names() for t in T.star}


def test_isotopy_renames_and_reindexes():
    star, delta, _ = families.NON_SPHERICAL_BASES["toroidal"](random.Random(0))
    text, renames = families.isotopic_json(random.Random(1), star, delta)
    T = jsonio.loads(text)
    assert {t.names() for t in T.star} == {families.rename_triple(renames, t) for t in star}
    assert {t.names() for t in T.delta} == {families.rename_triple(renames, t) for t in delta}
    assert not set(renames[0]) & set(renames[0].values())


def test_cayley_genus_rule_matches_the_program():
    for n in (4, 6):
        for k in range(1, n):
            star, delta = families.cayley_triples(n, k)
            names = [sorted({t[r] for t in star}) for r in range(3)]
            met = core.metrics(jsonio.loads(families.bitrade_json(*names, star, delta)))
            rng = random.Random()
            rng.randrange = lambda lo, hi, k=k: k  # force the shift
            assert families.NON_SPHERICAL_BASES[f"cayley{n}"](rng)[2].genus == met.genus
