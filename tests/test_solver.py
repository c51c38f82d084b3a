import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import bitrades
from bitrades.core import COL, ROW, SYM
from bitrades.solver import (
    Homotopy,
    PointedBitrade,
    SingularSystem,
    build_system,
    induced_homotopy,
    is_separated_solution,
    near_values,
    normalize_homotopy,
    solve_pointed,
)
from conftest import triple_by_names

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


def test_internal_check_survives_optimize_flag():
    # under python -O a bare assert vanishes; the equation check must not
    script = textwrap.dedent("""
        from bitrades import corpus, exact, solver
        assert False, "asserts are on"
        def wrong(A, b):
            res = exact.gauss_solve(A, b)
            return exact.GaussResult("unique", [x + 1 for x in res.solution], res.rank)
        solver.gauss_solve = wrong
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
