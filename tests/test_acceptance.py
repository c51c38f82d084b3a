"""End-to-end acceptance checks over the bundled corpus.

Every comparison is exact; runtime budgets are asserted where the
operation is meant to be interactive-speed.
"""

import time
from fractions import Fraction

import pytest

from bitrades.core import COL, ROW, SYM, metrics
from bitrades.exact import smith_normal_form
from bitrades.geometry import dissect, extract_bitrade
from bitrades.groups import (
    check_det_invariance,
    integer_homotopy_rank,
    is_abelian_embeddable,
    presentation,
    subgroup_H,
)
from bitrades.solver import (
    Homotopy,
    PointedBitrade,
    induced_homotopy,
    is_separated_solution,
    relation_matrix,
    solve_pointed,
)
from bitrades.trigons import (
    embed_product,
    find_trigons,
    recombine,
    separate,
    split,
)
from conftest import triple_by_names
from rational_oracle import mat_mul
from isotopy_oracle import is_isotopic
from scan_oracle import scan_trigons_bruteforce
from test_exact import cofactor_det


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def assert_law(T, hom):
    for p in T.star:
        assert (hom.maps[p.row] + hom.maps[p.col]
                - hom.maps[p.sym]) % hom.modulus == 0


def test_1_known_solution_exact(ex45):
    pivot = triple_by_names(ex45, "r0", "c0", "s4")
    sol, elapsed = timed(solve_pointed, PointedBitrade(ex45, pivot))
    by_name = {lab.name: v for lab, v in sol.values.items()}
    F = Fraction
    assert [by_name[f"r{i}"] for i in range(4)] == [0, F(2, 7), F(5, 14), F(4, 7)]
    assert [by_name[f"c{i}"] for i in range(5)] == [
        0, F(3, 14), F(5, 14), F(3, 7), F(5, 7)
    ]
    assert [by_name[f"s{i}"] for i in range(5)] == [
        F(5, 14), F(4, 7), F(5, 7), F(11, 14), 1
    ]
    assert elapsed < 0.1


def test_2_tiling_verifier_all_separated_pivots(spherical_corpus):
    for name, T in spherical_corpus.items():
        start = time.perf_counter()
        checked = 0
        for pivot in T.star:
            sol = solve_pointed(PointedBitrade(T, pivot))
            if not is_separated_solution(sol)[0]:
                continue
            _, report = dissect(sol)
            assert report.contained
            assert report.pairwise_disjoint
            assert report.area_total == Fraction(1, 2)
            assert report.is_dissection
            assert report.is_separated_dissection
            checked += 1
        assert checked > 0
        assert time.perf_counter() - start < 1.0, name


def test_3_dissection_round_trip(spherical_corpus):
    for T in spherical_corpus.values():
        for pivot in T.star:
            sol = solve_pointed(PointedBitrade(T, pivot))
            if not is_separated_solution(sol)[0]:
                continue
            lines, _ = dissect(sol)
            back = extract_bitrade(lines)
            assert is_isotopic(back.bitrade, T) is not None


def test_4_toroidal_invariants(toroidal, toroidal_swapped):
    H, elapsed_h = timed(subgroup_H, toroidal_swapped)
    assert H.free_rank == 0
    assert H.invariant_factors == (10,)
    (ok, witness), elapsed_e = timed(is_abelian_embeddable, toroidal)
    assert not ok
    assert witness is not None
    assert witness[0].role == witness[1].role and witness[0] != witness[1]
    assert elapsed_h + elapsed_e < 0.5


def test_5_finite_abelian_embedding_suite(spherical_corpus):
    for T in spherical_corpus.values():
        pe = embed_product(T)
        assert pe.moduli and all(n >= 2 for n in pe.moduli)
        for role in (ROW, COL, SYM):
            images = [pe.images[lab] for lab in T.universe(role)]
            assert len(set(images)) == len(images)
        G, H = presentation(T), subgroup_H(T)
        assert H.free_rank == 0
        assert H.invariant_factors == G.invariant_factors
        assert is_abelian_embeddable(T) == (True, None)


def test_6_relation_matrix_checks(spherical_corpus, intercalate):
    for T in spherical_corpus.values():
        rep = check_det_invariance(T)
        assert rep.all_equal and rep.nonzero
        r, nullity, trivial_only = integer_homotopy_rank(T)
        assert nullity == 2 and trivial_only
        for pivot in T.star:
            solve_pointed(PointedBitrade(T, pivot))  # must not raise
    B, _ = relation_matrix(intercalate)
    Bij = [[x for k, x in enumerate(row) if k not in (0, 5)] for row in B]
    assert abs(cofactor_det(Bij)) == 2
    assert check_det_invariance(intercalate).common_value == 2


def test_7_trigon_split_and_lift(nested, intercalate):
    T = nested.bitrade
    tgs = find_trigons(T)
    assert len(tgs) == 1
    sp = split(T, tgs[0])
    assert sp.inner.size == 4 and sp.outer.size == 4
    assert sp.inner.size + sp.outer.size == T.size + 1
    assert is_isotopic(sp.inner, intercalate) is not None
    assert is_isotopic(sp.outer, intercalate) is not None
    phi = induced_homotopy(
        solve_pointed(PointedBitrade(sp.outer, sp.outer.star[0]))
    )
    lifted = recombine(T, sp, phi)
    assert lifted.modulus == 4
    assert_law(T, lifted)


def test_8_homotopy_law_everywhere(spherical_corpus):
    produced = []
    for T in spherical_corpus.values():
        sol = solve_pointed(PointedBitrade(T, T.star[0]))
        produced.append((T, induced_homotopy(sol)))
        for a in T.star[:2]:
            for b in T.star:
                for i in range(3):
                    if a[i] != b[i]:
                        produced.append((T, separate(T, a, b, i)))
        pe = embed_product(T)
        produced.extend((T, hom) for _, _, hom in pe.factors)
    assert produced
    for T, hom in produced:
        assert_law(T, hom)
    # the constructor itself must reject a tampered map
    T, hom = produced[0]
    bad = dict(hom.maps)
    lab = next(iter(bad))
    bad[lab] = (bad[lab] + 1) % hom.modulus
    with pytest.raises(AssertionError):
        Homotopy.checked(T, hom.modulus, bad)


def test_9_bruteforce_equivalences(spherical_corpus, toroidal, toroidal_swapped):
    instances = list(spherical_corpus.values()) + [toroidal, toroidal_swapped]
    for T in instances:
        assert T.size <= 20
        fast = sorted(t.triple for t in find_trigons(T))
        slow = sorted(t.triple for t in scan_trigons_bruteforce(T))
        assert fast == slow
    # normal form transforms re-verified by explicit multiplication
    B, _ = relation_matrix(toroidal)
    snf = smith_normal_form(B)
    D = mat_mul(mat_mul(snf.U, B), snf.V)
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            assert x == (snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0)
