import contextlib
import dataclasses
import gc
import io
import operator
import os
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import bitrades
import pivot_oracle
import smith_oracle
from bitrades import cli, corpus, solver
from bitrades.core import COL, ROW, SYM, InternalCheckFailed, build_bitrade
from bitrades.exact import smith_normal_form
from bitrades.groups import presentation
from bitrades.solver import (
    Homotopy,
    PointedBitrade,
    SingularSystem,
    Solution,
    induced_homotopy,
    is_separated_solution,
    relation_matrix,
    solve_pointed,
)
from conftest import triple_by_names
from pivot_oracle import build_system, normalize_homotopy
from bitrades.trigons import separate_trace
from test_groups import cayley_bitrade, renamed_cayley

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

    def test_every_spherical_pivot_solvable(self, spherical_corpus, connected_sums):
        # the connected sums are spherical bitrades that no dissection produced
        for T in [*spherical_corpus.values(), *(T for T, _ in connected_sums)]:
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
    """One Solution or SingularSystem per pivot, all read off one Smith form of B."""
    results = []
    for pivot in pivots:
        try:
            results.append(solve_pointed(PointedBitrade(T, pivot)))
        except SingularSystem as e:
            results.append(e)
    return results


def outcome(T, result):
    """(status, rank, nullity, values) of one entry of solve_all."""
    if isinstance(result, SingularSystem):
        return result.status, result.rank, result.nullity, None
    m = sum(len(T.universe(role)) for role in (ROW, COL, SYM))
    return "unique", m - 3, 0, result.values


def fresh(T):
    """A new Bitrade object equal to T, with nothing solved on it yet."""
    return build_bitrade(T.star, T.delta)


def assert_verdicts_certified(S, singular):
    """Each singular verdict, a SingularSystem per pivot, is witnessed apart from the library.

    no_solution: some row y of the dense oracle form's U past the rank has y B = 0
    and y e_a != 0, so B x = -e_a has no solution.  non_unique: m - rank B > 2 on
    the library's certified rank.
    """
    B, labels = relation_matrix(S)
    oracle = smith_oracle.smith_normal_form(B)
    kernel = oracle.U[oracle.rank:]
    assert not any(sum(map(operator.mul, y, column)) for y in kernel for column in zip(*B))
    for pivot, result in singular.items():
        a = S.star.index(pivot)
        if result.status == "no_solution":
            assert any(y[a] for y in kernel)
        else:
            assert len(labels) - S._relation_smith[1].rank > 2


def assert_pivots_match_oracle(T):
    # on a fresh bitrade, so that every answer comes from its one Smith form
    # and none from a solve of T kept by an earlier test
    S = fresh(T)
    results = solve_all(S, S.star)
    assert len(results) == S.size
    singular = {}
    for pivot, result in zip(S.star, results):
        assert outcome(S, result) == pivot_oracle.solve_pointed(S, pivot)
        if isinstance(result, SingularSystem):
            singular[pivot] = result
        else:
            assert result.pivot == pivot and result.bitrade is S
            assert all(type(v) is Fraction for v in result.values.values())
    if singular:
        assert_verdicts_certified(S, singular)
    return results


class TestSharedElimination:
    """B's one Smith form gives every pivot what its own system gives."""

    def test_seeded_spherical(self, seeded_spherical):
        for T in seeded_spherical:
            results = assert_pivots_match_oracle(T)
            assert not any(isinstance(res, SingularSystem) for res in results)

    def test_corpus(self, spherical_corpus, toroidal, products):
        for T in [*spherical_corpus.values(), toroidal, *(T for T, _, _ in products.values())]:
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
        # each side on its own fresh bitrade, so neither reads the other's solve
        pivots = [ex45.star[5], ex45.star[0]]
        for pivot, result in zip(pivots, solve_all(fresh(ex45), pivots)):
            own = solve_pointed(PointedBitrade(fresh(ex45), pivot))
            assert result.values == own.values

    def test_pivot_values_are_checked(self, monkeypatch):
        # a zero U reads every system as consistent with x = 0, which keeps
        # every equation of Eq(T, a) but leaves the pivot's symbol at 0; a
        # fresh bitrade, as the session's ex45 may already keep its form
        ex45 = corpus.example_4x5()
        def zeroed(M):
            form = smith_normal_form(M)
            form.U = [[0] * len(row) for row in form.U]
            return form

        monkeypatch.setattr(solver, "smith_normal_form", zeroed)
        with pytest.raises(InternalCheckFailed, match="does not fix the pivot"):
            solve_pointed(PointedBitrade(ex45, ex45.star[0]))


def answer(T, pivot):
    """outcome() of one solve_pointed call; a SingularSystem is caught here."""
    try:
        return outcome(T, solve_pointed(PointedBitrade(T, pivot)))
    except SingularSystem as e:
        return outcome(T, e)


def other_triples(T, a):
    """For each role i, a star triple whose label at i differs from a's."""
    return [next(p for p in T.star if p[i] != a[i]) for i in range(3)]


def count_solves(monkeypatch, T, forms, solves):
    """Count the Smith forms of T's B in forms, and per pivot a the solves of T's Eq(T, a)."""
    B, _ = relation_matrix(T)
    smith, solve = solver.smith_normal_form, solver._own_form

    def counting_smith(M):
        forms.append(M == B)
        return smith(M)

    def counting_solve(S, a):
        if S is T:
            solves[a] = solves.get(a, 0) + 1
        return solve(S, a)

    monkeypatch.setattr(solver, "smith_normal_form", counting_smith)
    monkeypatch.setattr(solver, "_own_form", counting_solve)


class TestSolutionMemo:
    """solve_pointed keeps each pivot's checked answer on its bitrade."""

    @pytest.fixture
    def instances(self, spherical_corpus, seeded_spherical, toroidal, toroidal_swapped,
                  connected_sums):
        cayley = [cayley_bitrade(n, k, [[f"{x}{i}" for i in range(n)] for x in "rcs"],
                                 [range(n)] * 3)
                  for n in range(2, 6) for k in range(1, n)]
        return [*spherical_corpus.values(), *seeded_spherical, toroidal, toroidal_swapped,
                *cayley, *(T for T, _ in connected_sums)]

    def test_memoised_answers_match_oracle_and_fresh_bitrade(self, instances):
        singular = 0
        for T in instances:
            for pivot in T.star:
                first = answer(T, pivot)
                assert first == answer(T, pivot) == pivot_oracle.solve_pointed(T, pivot)
                assert first == answer(fresh(T), pivot)
                singular += first[0] != "unique"
        assert singular  # the toroidal and some Cayley systems are singular

    def test_shared_elimination_reads_and_fills_the_memo(self, instances):
        # the Smith form of B that G(T) made serves every solve, which fills the memo
        for T in instances:
            S = fresh(T)
            presentation(S)
            form = S._relation_smith
            assert [answer(S, p) for p in S.star] == [answer(T, p) for p in T.star]
            assert S._relation_smith is form and len(S._solutions) == S.size
            assert [answer(S, p) for p in S.star] == [answer(T, p) for p in T.star]

    def test_three_separations_eliminate_their_pivot_once(self, nested, seeded_spherical,
                                                          monkeypatch):
        # the outer solve and the separations from every pivot read one Smith
        # form of T's B, and solve each Eq(T, a) once
        for source in [nested.bitrade, *seeded_spherical]:
            T = fresh(source)
            forms, solves = [], {}
            count_solves(monkeypatch, T, forms, solves)
            for a in T.star:
                solve_pointed(PointedBitrade(T, a))
                for i, b in enumerate(other_triples(T, a)):
                    separate_trace(T, a, b, i)
            assert forms.count(True) == 1
            assert solves == dict.fromkeys(T.star, 1)

    def test_singular_system_raised_afresh(self, toroidal):
        T = fresh(toroidal)
        raised = []
        for _ in range(2):
            with pytest.raises(SingularSystem) as e:
                solve_pointed(PointedBitrade(T, T.star[0]))
            raised.append(e.value)
        first, second = raised
        assert first is not second
        assert (first.rank, first.nullity, first.status) == (
            second.rank, second.nullity, second.status)
        assert str(first) == str(second)

    def test_failed_check_is_not_memoised(self, ex45, monkeypatch):
        def misread(S):
            # the kept form with 1 added to U's row 0: every solution read off it is wrong
            calls.append(S)
            labels, form = relation_smith(S)
            return labels, dataclasses.replace(
                form, U=[[u + 1 for u in form.U[0]], *form.U[1:]])

        relation_smith = solver._relation_smith
        T = fresh(ex45)
        for pivot in T.star:
            calls = []
            monkeypatch.setattr(solver, "_relation_smith", misread)
            for _ in range(2):
                with pytest.raises(InternalCheckFailed):
                    solve_pointed(PointedBitrade(T, pivot))
            # the failure was not kept: each call solved afresh
            assert len(calls) == 2 and pivot not in T._solutions
            monkeypatch.undo()
            assert answer(T, pivot) == pivot_oracle.solve_pointed(T, pivot)

    def test_returned_values_are_copies(self, ex45, toroidal_swapped):
        for source in (ex45, toroidal_swapped):
            T = fresh(source)
            for pivot in T.star:
                expected = pivot_oracle.solve_pointed(T, pivot)[3]
                if expected is None:
                    continue
                for _ in range(3):
                    sol = solve_pointed(PointedBitrade(T, pivot))
                    assert sol.values == expected
                    sol.values[pivot.sym] += 1
                    sol.values.pop(pivot.row)
                    sol.scaled[1][pivot.sym] += 1
                    sol.scaled[1].pop(pivot.col)

    def test_solved_bitrade_freed_without_the_cycle_collector(
            self, spherical_corpus, seeded_spherical, toroidal, toroidal_swapped):
        def solve_everything(T):
            for a in T.star:
                if answer(T, a)[0] == "unique" and T.spherical:
                    for i, b in enumerate(other_triples(T, a)):
                        separate_trace(T, a, b, i)
            for a in T.star:
                answer(T, a)

        enabled = gc.isenabled()
        gc.disable()
        try:
            for source in [*spherical_corpus.values(), seeded_spherical[-1], toroidal,
                           toroidal_swapped]:
                T = fresh(source)
                solve_everything(T)
                assert len(T._solutions) == T.size and T._relation_smith is not None
                freed = weakref.ref(T)
                del T
                assert freed() is None
        finally:
            if enabled:
                gc.enable()


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
        n, near = sol.width(), sol.scaled[1]
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
    """Solution.scaled, and the values built from it, against the Fraction
    values of the rational oracle (pivot_oracle.solve_pointed)."""

    def pivots(self, spherical_corpus, seeded_spherical, toroidal_swapped, connected_sums):
        for T in [*spherical_corpus.values(), *seeded_spherical,
                  *(T for T, _ in connected_sums)]:
            for pivot in T.star:
                yield T, pivot
        for names in (("e", "d", "1"), ("y", "d", "5"), ("y", "f", "1")):
            yield toroidal_swapped, triple_by_names(toroidal_swapped, *names)

    def test_width_and_near_values(self, spherical_corpus, seeded_spherical, toroidal_swapped,
                                   connected_sums):
        count = 0
        for T, pivot in self.pivots(spherical_corpus, seeded_spherical, toroidal_swapped,
                                    connected_sums):
            expected = pivot_oracle.solve_pointed(T, pivot)[3]
            n, near = pivot_oracle.near_values(expected)
            sol = solve_pointed(PointedBitrade(T, pivot))
            assert sol.width() == pivot_oracle.width(expected) == n
            assert (sol.width(), sol.scaled[1]) == (n, near) == sol.scaled
            assert induced_homotopy(sol).maps == {lab: v % n for lab, v in near.items()}
            assert sol.values == expected
            assert sol.values is sol.values  # built once, on the first read
            count += 1
        assert count == (4 + 12 + 7 + sum(T.size for T in seeded_spherical)
                         + sum(T.size for T, _ in connected_sums) + 3)

    def test_width_below_2_raises(self, ex45):
        # every value an integer: width 1, which no pointed solution has
        pointed = PointedBitrade(ex45, ex45.star[0])
        sol = Solution(pointed, {lab: Fraction(0) for u in ex45.universes for lab in u})
        with pytest.raises(InternalCheckFailed, match="solution width 1 is below 2"):
            sol.width()

    def test_two_argument_solution(self, ex45):
        sol = solve(ex45, "r0", "c0", "s4")
        values = dict(sol.values)
        lab = next(lab for lab, v in values.items() if 0 < v < 1)
        values[lab] += Fraction(1, 1024)
        edited = solver.Solution(sol.pointed, values)
        assert edited.values is values
        assert edited.scaled == pivot_oracle.near_values(values)
        assert edited.width() == 14 * 512
        expected = pivot_oracle.solve_pointed(ex45, sol.pivot)[3]
        assert sol.scaled == pivot_oracle.near_values(expected)  # the original's view is its own

    def test_report_builds_no_fraction(self, corpus_dir, ex45, monkeypatch):
        # report reads each pivot's width and scaled values, never its Fractions
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(solver, "Fraction", counting)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["report", str(corpus_dir)]) == 0
        assert ",ok," in out.getvalue() and built == []
        sol = solve(fresh(ex45), "r0", "c0", "s4")
        assert built == []
        assert sol.values[sol.pivot.sym] == 1 and len(built) == len(sol.scaled[1])


def test_internal_check_survives_optimize_flag():
    # under python -O a bare assert vanishes; the equation check must not
    script = textwrap.dedent("""
        from bitrades import corpus, exact, solver
        assert False, "asserts are on"
        def wrong(M):
            form = exact.smith_normal_form(M)
            form.U[0] = [u + 1 for u in form.U[0]]  # every solution read off it is wrong
            return form
        solver.smith_normal_form = wrong
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
