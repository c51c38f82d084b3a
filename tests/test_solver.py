import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import bitrades
import pivot_oracle
from bitrades import exact, solver
from bitrades.core import COL, ROW, SYM, InternalCheckFailed
from bitrades.solver import (
    Homotopy,
    PointedBitrade,
    SingularSystem,
    eliminate_pivots,
    induced_homotopy,
    is_separated_solution,
    near_values,
    normalize_homotopy,
    solve_pointed,
)
from conftest import triple_by_names
from pivot_oracle import build_system
from test_groups import renamed_cayley

EX45_VALUES = {
    "r0": Fraction(0), "r1": Fraction(2, 7), "r2": Fraction(5, 14), "r3": Fraction(4, 7),
    "c0": Fraction(0), "c1": Fraction(3, 14), "c2": Fraction(5, 14),
    "c3": Fraction(3, 7), "c4": Fraction(5, 7),
    "s0": Fraction(5, 14), "s1": Fraction(4, 7), "s2": Fraction(5, 7),
    "s3": Fraction(11, 14), "s4": Fraction(1),
}

EX45_HOMOTOPY = {
    "r0": 0, "r1": 4, "r2": 5, "r3": 8,
    "c0": 0, "c1": 3, "c2": 5, "c3": 6, "c4": 10,
    "s0": 5, "s1": 8, "s2": 10, "s3": 11, "s4": 0,
}


def solve(T, r, c, s):
    return solve_pointed(PointedBitrade(T, triple_by_names(T, r, c, s)))


class TestSolvePointed:
    def test_ex45_solution(self, ex45):
        sol = solve(ex45, "r0", "c0", "s4")
        assert {lab.name: v for lab, v in sol.values.items()} == EX45_VALUES
        assert sol.width() == 14

    def test_intercalate_all_half(self, intercalate):
        sol = solve(intercalate, "r0", "c0", "s0")
        fixed = {"r0": Fraction(0), "c0": Fraction(0), "s0": Fraction(1)}
        for lab, v in sol.values.items():
            assert v == fixed.get(lab.name, Fraction(1, 2))
        assert sol.width() == 2

    def test_system_shape(self, ex45):
        pivot = triple_by_names(ex45, "r0", "c0", "s4")
        A, b, columns, fixed = build_system(ex45, pivot)
        assert len(A) == ex45.size - 1
        assert len(columns) == 14 - 3
        assert len(fixed) == 3

    def test_every_spherical_pivot_solvable(self, spherical_corpus):
        for T in spherical_corpus.values():
            for pivot in T.star:
                sol = solve_pointed(PointedBitrade(T, pivot))
                assert all(0 <= v <= 1 for v in sol.values.values())

    def test_toroidal_singular(self, toroidal):
        with pytest.raises(SingularSystem) as e:
            solve_pointed(PointedBitrade(toroidal, toroidal.star[0]))
        assert e.value.rank > 0

    def test_pivot_must_be_in_star(self, intercalate):
        with pytest.raises(ValueError):
            PointedBitrade(intercalate, intercalate.delta[0])


def solve_all(T, pivots):
    """One Solution or SingularSystem per pivot, all from one elimination of B."""
    eliminated = eliminate_pivots(T, pivots)
    results = []
    for pivot in pivots:
        try:
            results.append(solve_pointed(PointedBitrade(T, pivot), eliminated))
        except SingularSystem as e:
            results.append(e)
    return results


def outcome(T, result):
    """(status, rank, nullity, values) of one entry of solve_all."""
    if isinstance(result, SingularSystem):
        return result.status, result.rank, result.nullity, None
    m = sum(len(T.universe(role)) for role in (ROW, COL, SYM))
    return "unique", m - 3, 0, result.values


def assert_pivots_match_oracle(T):
    results = solve_all(T, T.star)
    assert len(results) == T.size
    for pivot, result in zip(T.star, results):
        assert outcome(T, result) == pivot_oracle.solve_pointed(T, pivot)
        if not isinstance(result, SingularSystem):
            assert result.pivot == pivot and result.bitrade is T
            assert all(type(v) is Fraction for v in result.values.values())
    return results


class TestSharedElimination:
    """One elimination of B gives every pivot what its own system gives."""

    def test_seeded_spherical(self, seeded_spherical):
        for T in seeded_spherical:
            results = assert_pivots_match_oracle(T)
            assert not any(isinstance(res, SingularSystem) for res in results)

    def test_corpus(self, spherical_corpus, toroidal):
        for T in [*spherical_corpus.values(), toroidal]:
            assert_pivots_match_oracle(T)

    @given(renamed_cayley())
    @settings(max_examples=25, deadline=None)
    def test_cayley_tables_under_renaming(self, case):
        assert_pivots_match_oracle(case[1])

    def test_toroidal_swapped_three_solvable(self, toroidal_swapped):
        results = assert_pivots_match_oracle(toroidal_swapped)
        assert sum(not isinstance(res, SingularSystem) for res in results) == 3

    def test_two_intercalates_non_unique(self, two_intercalates):
        for result in assert_pivots_match_oracle(two_intercalates):
            assert (result.status, result.rank, result.nullity) == ("non_unique", 7, 2)

    def test_pinched_intercalates_non_unique(self, pinched_intercalates):
        for result in assert_pivots_match_oracle(pinched_intercalates):
            assert (result.status, result.rank, result.nullity) == ("non_unique", 7, 1)

    def test_subset_of_pivots(self, ex45):
        pivots = [ex45.star[5], ex45.star[0]]
        for pivot, result in zip(pivots, solve_all(ex45, pivots)):
            assert result.values == solve_pointed(PointedBitrade(ex45, pivot)).values

    def test_pivot_must_be_in_star(self, intercalate):
        with pytest.raises(ValueError, match="not a star triple"):
            eliminate_pivots(intercalate, [intercalate.star[0], intercalate.delta[0]])

    def test_pivot_must_have_been_eliminated(self, ex45, nested):
        eliminated = eliminate_pivots(ex45, [ex45.star[0]])
        with pytest.raises(ValueError, match="was not eliminated"):
            solve_pointed(PointedBitrade(ex45, ex45.star[1]), eliminated)
        # a star triple of both, eliminated with the other bitrade
        shared = triple_by_names(ex45, "r2", "c0", "s0")
        eliminated = eliminate_pivots(nested.bitrade, [shared])
        with pytest.raises(ValueError, match="was not eliminated"):
            solve_pointed(PointedBitrade(ex45, shared), eliminated)

    def test_pivot_values_are_checked(self, ex45, monkeypatch):
        # zeroed right-hand sides give x = 0, which keeps every equation
        # of Eq(T, a) but leaves the pivot's symbol at 0
        def zeroed(M, width):
            pivots, d = exact.eliminate(M, width)
            for row in M:
                row[width:] = [0] * (len(row) - width)
            return pivots, d

        monkeypatch.setattr(solver, "eliminate", zeroed)
        with pytest.raises(InternalCheckFailed, match="does not fix the pivot"):
            solve_pointed(PointedBitrade(ex45, ex45.star[0]))


class TestSeparatedSolution:
    def test_ex45_separated(self, ex45):
        sol = solve(ex45, "r0", "c0", "s4")
        assert is_separated_solution(sol) == (True, None)

    def test_nested_collision(self, nested):
        sol = solve(nested.bitrade, "r1", "c1", "s0")
        ok, witness = is_separated_solution(sol)
        assert not ok
        role, x, y = witness
        assert role == ROW and {x.name, y.name} == {"r0", "r2"}


class TestHomotopy:
    def test_induced_ex45(self, ex45):
        hom = induced_homotopy(solve(ex45, "r0", "c0", "s4"))
        assert hom.modulus == 14
        assert {lab.name: v for lab, v in hom.maps.items()} == EX45_HOMOTOPY

    def test_law_checked(self, intercalate):
        sol = solve(intercalate, "r0", "c0", "s0")
        hom = induced_homotopy(sol)
        bad = dict(hom.maps)
        lab = next(iter(bad))
        bad[lab] += 1
        with pytest.raises(AssertionError):
            Homotopy.checked(intercalate, hom.modulus, bad)

    def test_law_failure_is_an_internal_check(self, intercalate):
        hom = induced_homotopy(solve(intercalate, "r0", "c0", "s0"))
        bad = dict(hom.maps)
        bad[next(iter(bad))] += 1
        with pytest.raises(InternalCheckFailed, match="homotopy law fails"):
            Homotopy.checked(intercalate, hom.modulus, bad)

    def test_near_values(self, intercalate):
        sol = solve(intercalate, "r0", "c0", "s0")
        n, near = near_values(sol)
        assert n == 2
        pivot = sol.pivot
        assert near[pivot.sym] == n
        assert near[pivot.row] == 0 and near[pivot.col] == 0
        for p in intercalate.star:
            if p != pivot:
                assert near[p.row] + near[p.col] == near[p.sym]

    def test_normalize(self, ex45):
        hom = induced_homotopy(solve(ex45, "r0", "c0", "s4"))
        base = triple_by_names(ex45, "r2", "c2", "s2")
        shifted = normalize_homotopy(hom, ex45, base)
        for lab in (base.row, base.col, base.sym):
            assert shifted.maps[lab] == 0
        assert shifted.modulus == hom.modulus

    def test_separates(self, ex45):
        hom = induced_homotopy(solve(ex45, "r0", "c0", "s4"))
        rows = ex45.universe(ROW)
        assert hom.separates(rows[0], rows[2])
        assert not hom.separates(rows[0], rows[0])


class TestScaledView:
    """Solution.scaled against the width and the scaled values computed
    from the Fraction values (pivot_oracle)."""

    def solutions(self, spherical_corpus, seeded_spherical, toroidal_swapped):
        for T in [*spherical_corpus.values(), *seeded_spherical]:
            for pivot in T.star:
                yield solve_pointed(PointedBitrade(T, pivot))
        for names in (("e", "d", "1"), ("y", "d", "5"), ("y", "f", "1")):
            yield solve(toroidal_swapped, *names)

    def test_width_and_near_values(self, spherical_corpus, seeded_spherical, toroidal_swapped):
        count = 0
        for sol in self.solutions(spherical_corpus, seeded_spherical, toroidal_swapped):
            n, near = pivot_oracle.near_values(sol)
            assert sol.width() == pivot_oracle.width(sol) == n
            assert near_values(sol) == (n, near) == sol.scaled
            assert induced_homotopy(sol).maps == {lab: v % n for lab, v in near.items()}
            count += 1
        assert count == 4 + 12 + 7 + sum(T.size for T in seeded_spherical) + 3

    def test_two_argument_solution(self, ex45):
        sol = solve(ex45, "r0", "c0", "s4")
        values = dict(sol.values)
        lab = next(lab for lab, v in values.items() if 0 < v < 1)
        values[lab] += Fraction(1, 1024)
        edited = solver.Solution(sol.pointed, values)
        assert edited.scaled == pivot_oracle.near_values(edited)
        assert edited.width() == 14 * 512
        assert sol.scaled == pivot_oracle.near_values(sol)  # the original's view is its own


def test_internal_check_survives_optimize_flag():
    # under python -O a bare assert vanishes; the equation check must not
    script = textwrap.dedent("""
        from bitrades import corpus, exact, solver
        assert False, "asserts are on"
        def wrong(M, width):
            pivots, d = exact.eliminate(M, width)
            M[0][-1] += d  # one solution value off by 1
            return pivots, d
        solver.eliminate = wrong
        T = corpus.example_4x5()
        try:
            solver.solve_pointed(solver.PointedBitrade(T, T.star[0]))
        except solver.InternalCheckFailed as exc:
            print("raised:", exc)
        else:
            print("no error")
    """)
    src = str(Path(bitrades.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: solution breaks the equation of")
