"""The pieces of a trigon split read their pointed solutions off their parent's.

Every piece solution is compared with ``pivot_oracle.own_form``, the
piece's own Smith form: each outer piece at every pivot and each inner
piece at its trigon triple, over every separation of the corpus, the
seeded dissections and the connected sums (recursion depths 1 to 4).
Fault-injection tests make each check of the split path fire, also under
``python -O``.
"""

import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import bitrades
from bitrades import corpus, solver, trigons
from bitrades.core import InternalCheckFailed, build_bitrade
from bitrades.solver import Homotopy, PointedBitrade, Solution, induced_homotopy, solve_pointed
from bitrades.trigons import Split, SplitInvalid, find_trigons, separate_trace, split
from conftest import connected_sum, triple_by_names
from pivot_oracle import own_form


def fresh(T):
    """A new Bitrade object equal to T, with nothing solved on it yet."""
    return build_bitrade(T.star, T.delta)


def root_of(S):
    while S._source is not None:
        S = S._source
    return S


def leg(T, alpha, a):
    """y[a.sym] - y[a.row] - y[a.col] for T's solution y at alpha, scaled by its width."""
    _, y = solve_pointed(PointedBitrade(T, alpha)).scaled
    return y[a.sym] - y[a.row] - y[a.col]


def separations(T):
    """(a, b, i) for each pivot a, role i and label of role i other than a's."""
    for a in T.star:
        for i in range(3):
            for y in T.universe(i):
                if y != a[i]:
                    yield a, next(p for p in T.star if p[i] == y), i


@pytest.fixture
def recorded_splits(monkeypatch):
    """The Split of every trigons.split call, in call order."""
    splits = []
    real = trigons.split

    def recording(*args):
        splits.append(real(*args))
        return splits[-1]

    monkeypatch.setattr(trigons, "split", recording)
    return splits


@pytest.fixture(scope="module")
def nested_trigon(nested):
    (tg,) = find_trigons(nested.bitrade)
    return tg


def recursing_case():
    """A fresh nested instance and a separation on it that splits once."""
    T = corpus.nested_intercalate().bitrade
    a = triple_by_names(T, "r2", "c1", "s1")
    b = next(t for t in T.star if t.row.name == "r0")
    return T, a, b, 0


class TestPiecesMatchTheirOwnForm:
    def test_every_separation(self, nested, seeded_spherical, connected_sums, recorded_splits):
        """Each piece equals its own Smith form's solve and took no form of its own."""
        depths, checked = set(), set()
        for T in [nested.bitrade, *seeded_spherical, *(T for T, _ in connected_sums)]:
            for a, b, i in separations(T):
                recorded_splits.clear()
                depths.add(separate_trace(T, a, b, i)[1])
                for sp in recorded_splits:
                    parent = sp.inner._source
                    key = parent.star, sp.trigon.triple
                    if key in checked:  # the same split of an equal parent
                        continue
                    checked.add(key)
                    assert parent is sp.outer._source and parent.spherical
                    c = sp.trigon.triple
                    assert solve_pointed(PointedBitrade(sp.inner, c)).scaled == own_form(
                        sp.inner, c)
                    for p in sp.outer.star:
                        assert solve_pointed(PointedBitrade(sp.outer, p)).scaled == own_form(
                            sp.outer, p)
                    assert sp.inner._relation_smith is sp.outer._relation_smith is None
        assert depths == {0, 1, 2, 3, 4}
        assert len(checked) > 100

    def test_outer_piece_is_the_root_restricted(self, nested, seeded_spherical, connected_sums,
                                                recorded_splits):
        """At each depth the outer piece's solution at a pivot is the root's at that
        pivot, restricted; so the deepest level's pivot separates the pair on the root."""
        recursed = 0
        for T in [nested.bitrade, *seeded_spherical, *(T for T, _ in connected_sums)]:
            for a, b, i in separations(T):
                recorded_splits.clear()
                _, depth = separate_trace(T, a, b, i)
                if not depth:
                    continue
                recursed += 1
                assert len(recorded_splits) == depth
                for sp in recorded_splits:
                    outer = sp.outer
                    assert root_of(outer) is T
                    for p in outer.star:
                        n, scaled = own_form(outer, p)
                        root = solve_pointed(PointedBitrade(T, p)).values
                        assert {lab: Fraction(v, n) for lab, v in scaled.items()} == {
                            lab: root[lab] for lab in scaled}
                deepest = next(p for p in recorded_splits[-1].outer.star if p[i] == a[i])
                hom = induced_homotopy(solve_pointed(PointedBitrade(T, deepest)))
                assert hom.separates(a[i], b[i])
        assert recursed > 100

    def test_retry_after_a2(self, intercalate, nested, monkeypatch, recorded_splits):
        """A connected sum on which the inner piece's first candidate, the outer
        pivot a2, has leg 0: the inner piece reads a later pivot of the parent."""
        q = next(t for t in nested.bitrade.delta if t.names() == ("r2", "c0", "s2"))
        S = connected_sum(intercalate, triple_by_names(intercalate, "r0", "c1", "s1"),
                          nested.bitrade, q)
        a = triple_by_names(S, "r0", "c1+4", "s1+4")
        b = triple_by_names(S, "r1", "c0", "s1")
        read = []
        real = solver._answer

        def logging(T, pivot):
            if T is S:
                read.append(pivot)
            return real(T, pivot)

        monkeypatch.setattr(solver, "_answer", logging)
        hom, depth = separate_trace(S, a, b, 0)
        monkeypatch.undo()
        assert depth == 1 and hom.separates(a.row, b.row)
        (sp,) = recorded_splits
        c = sp.trigon.triple
        a2 = next(p for p in sp.outer.star if p.row == a.row)
        # S's own solve at a, then the outer solve reads S at a2, then the inner
        # solve tries a2 again first
        assert read[:3] == [a, a2, a2] and leg(S, a2, c) == 0
        assert len(read) > 3 and leg(S, read[-1], c) != 0
        assert all(leg(S, alpha, c) == 0 for alpha in read[3:-1])
        assert not any(sp.inner.in_star(alpha) for alpha in read[1:])
        assert solve_pointed(PointedBitrade(sp.inner, c)).scaled == own_form(sp.inner, c)
        assert sp.inner._relation_smith is None

    def test_inner_piece_off_its_trigon_takes_its_own_form(self, nested_trigon, nested):
        """c's equation is not the parent's, so at any other pivot p the inner piece
        takes its own form, and reads no parent solution: the parent's at p breaks
        c's equation, and at any other pivot its leg is 0, as p's equation holds."""
        T = fresh(nested.bitrade)
        sp = split(T, nested_trigon)
        for p in sp.inner.star:
            if p != nested_trigon.triple:
                assert solve_pointed(PointedBitrade(sp.inner, p)).scaled == own_form(sp.inner, p)
        assert sp.inner._relation_smith is not None and T._solutions == {}

    @staticmethod
    def no_parent_pivot(piece, a):
        """Solving the piece at a raises the no-pivot check, and keeps and forms nothing."""
        message = re.escape(f"no pivot of the spherical parent gives the piece's system at {a}")
        with pytest.raises(InternalCheckFailed, match=message):
            solve_pointed(PointedBitrade(piece, a))
        assert a not in piece._solutions and piece._relation_smith is None

    def test_inner_piece_raises_when_every_leg_is_0(self, nested_trigon, nested):
        """The parent's kept solution at every pivot outside the inner points is
        changed at c's symbol so that its leg is 0: the module docstring proves
        that a consistent parent has some pivot with leg != 0, so this raises."""
        T = fresh(nested.bitrade)
        sp = split(T, nested_trigon)
        c = nested_trigon.triple
        for p in sp.outer.star:
            n, y = solve_pointed(PointedBitrade(T, p)).scaled
            T._solutions[p] = n, {**y, c.sym: y[c.row] + y[c.col]}
        self.no_parent_pivot(sp.inner, c)

    def test_inner_piece_raises_on_singular_parent_answers(self, nested_trigon, nested):
        """A spherical parent has no singular pivot, so a kept (rank, nullity,
        status) answer counts as leg 0, and with one at every candidate pivot the
        inner piece at c raises."""
        T = fresh(nested.bitrade)
        sp = split(T, nested_trigon)
        for p in sp.outer.star:
            T._solutions[p] = T.size - 1, 0, "no_solution"
        self.no_parent_pivot(sp.inner, nested_trigon.triple)

    def test_outer_piece_raises_on_a_zero_leg(self, nested_trigon, nested):
        """An outer piece reads the parent at its own pivot a only, whose leg is the
        width n >= 2; a kept parent answer at a with leg 0 raises."""
        T = fresh(nested.bitrade)
        sp = split(T, nested_trigon)
        a = sp.outer.star[0]
        n, y = solve_pointed(PointedBitrade(T, a)).scaled
        T._solutions[a] = n, {**y, a.sym: 0}
        self.no_parent_pivot(sp.outer, a)

    def test_no_parent_for_a_piece_of_a_non_spherical_bitrade(self, nested_trigon, nested):
        T = fresh(nested.bitrade)
        T.__dict__["indecomposable"] = False  # reads as not spherical
        sp = split(T, nested_trigon)
        assert sp.inner._source is sp.outer._source is None


class TestSplitChecks:
    """Each check of the split path fires on the one fact it guards."""

    def test_pieces_not_bitrades(self, nested, nested_trigon):
        inner_tri, inner_points = trigons._flood_inner(nested.bitrade, nested_trigon)
        flood = set(inner_tri) - {nested_trigon.corners[0]}, inner_points
        with pytest.raises(SplitInvalid, match="split pieces are not bitrades"):
            split(nested.bitrade, nested_trigon, flood)

    def corrupt_piece(self, monkeypatch, which, corrupt):
        """Make split's build_bitrade call number `which` (0 inner, 1 outer) corrupt its piece."""
        built = []
        real = trigons.build_bitrade

        def building(star, delta):
            piece = real(star, delta)
            if len(built) == which:
                piece = corrupt(piece)
            built.append(piece)
            return piece

        monkeypatch.setattr(trigons, "build_bitrade", building)

    def test_star_sizes(self, nested, nested_trigon, monkeypatch):
        self.corrupt_piece(monkeypatch, 0, lambda piece: corpus.example_4x5())
        with pytest.raises(InternalCheckFailed, match="split star sizes do not add up"):
            split(nested.bitrade, nested_trigon)

    def test_sphericity(self, nested, nested_trigon, monkeypatch):
        def decomposable(piece):
            piece.__dict__["indecomposable"] = False
            return piece

        self.corrupt_piece(monkeypatch, 0, decomposable)
        with pytest.raises(InternalCheckFailed, match="split of a spherical bitrade is not"):
            split(nested.bitrade, nested_trigon)

    def test_label_lost(self, nested, nested_trigon, monkeypatch):
        T = nested.bitrade
        sp = split(T, nested_trigon)
        outer_labels = {lab for universe in sp.outer.universes for lab in universe}
        lost = next(lab for universe in T.universes for lab in universe
                    if lab not in outer_labels)
        phi = induced_homotopy(solve_pointed(PointedBitrade(sp.outer, sp.outer.star[0])))

        def dropping(pointed):  # recombine's solve of the inner piece, without `lost`
            n, values = solve_pointed(pointed).scaled
            del values[lost]
            return Solution._over_width(pointed, n, values)

        monkeypatch.setattr(trigons, "solve_pointed", dropping)
        message = re.escape(f"label {lost!r} lost in the split")
        with pytest.raises(InternalCheckFailed, match=message):
            trigons.recombine(T, sp, phi)

    def test_outer_not_smaller(self, monkeypatch):
        T, a, b, i = recursing_case()
        real = trigons.split

        def outer_is_the_whole(S, *args):
            sp = real(S, *args)
            return Split(sp.trigon, sp.inner, S)

        monkeypatch.setattr(trigons, "split", outer_is_the_whole)
        with pytest.raises(InternalCheckFailed, match="outer bitrade of a split is not smaller"):
            separate_trace(T, a, b, i)

    def test_lifted_homotopy_does_not_separate(self, monkeypatch):
        T, a, b, i = recursing_case()
        real = trigons.recombine

        def zero(S, sp, phi):
            lifted = real(S, sp, phi)
            return Homotopy.checked(S, lifted.modulus, dict.fromkeys(lifted.maps, 0))

        monkeypatch.setattr(trigons, "recombine", zero)
        with pytest.raises(InternalCheckFailed, match="lifted homotopy does not separate"):
            separate_trace(T, a, b, i)


class TestPieceSolveChecks:
    """The piece's checks run on what it reads off a corrupted parent solution.

    The piece's system has one solution, and y - y[a.row] k1 - y[a.col] k2 over
    its leg is 0 at the pivot's row and column and 1 at its symbol; so a corrupted
    parent solution read through the leg can only break an equation.  The
    pivot's symbol and the [0, 1] range are checked on a parent solution
    corrupted after that read, as ``_checked`` receives it.
    """

    @staticmethod
    def corrupted(T, pivots, label):
        """Solve T at each pivot, then add 1 to `label`'s value in each kept solution."""
        for p in pivots:
            solve_pointed(PointedBitrade(T, p))
            n, y = T._solutions[p]
            T._solutions[p] = n, {**y, label: y[label] + 1}

    def test_outer_piece_breaks_an_equation(self, nested, nested_trigon):
        T = fresh(nested.bitrade)
        sp = split(T, nested_trigon)
        a = sp.outer.star[0]
        self.corrupted(T, [a], next(lab for lab in sp.outer.rows if lab != a.row))
        with pytest.raises(InternalCheckFailed, match="solution breaks the equation of"):
            solve_pointed(PointedBitrade(sp.outer, a))
        assert a not in sp.outer._solutions

    def test_inner_piece_breaks_an_equation(self, nested, nested_trigon):
        T = fresh(nested.bitrade)
        sp = split(T, nested_trigon)
        c = nested_trigon.triple
        self.corrupted(T, sp.outer.star, next(lab for lab in sp.inner.rows if lab != c.row))
        with pytest.raises(InternalCheckFailed, match="solution breaks the equation of"):
            solve_pointed(PointedBitrade(sp.inner, c))

    @staticmethod
    def parent_read(nested, nested_trigon):
        """(outer piece, pivot, d, y): the scaled values it reads off its parent."""
        T = fresh(nested.bitrade)
        sp = split(T, nested_trigon)
        a = sp.outer.star[0]
        n, y = solve_pointed(PointedBitrade(T, a)).scaled
        return sp.outer, a, n, {lab: y[lab] for universe in sp.outer.universes
                                for lab in universe}

    def test_pivot_symbol(self, nested, nested_trigon):
        S, a, d, y = self.parent_read(nested, nested_trigon)
        assert solver._checked(S, a, d, y) == solve_pointed(PointedBitrade(S, a)).scaled
        doubled = {lab: 2 * v for lab, v in y.items()}  # every equation still holds
        with pytest.raises(InternalCheckFailed, match="does not fix the pivot"):
            solver._checked(S, a, d, doubled)

    def test_range(self, nested, nested_trigon):
        S, a, d, y = self.parent_read(nested, nested_trigon)
        # plus d (k1 - k2): rows up by d, columns down by d, every equation and the
        # pivot's symbol kept
        shifted = {lab: v + d * (lab.role == 0) - d * (lab.role == 1) for lab, v in y.items()}
        with pytest.raises(InternalCheckFailed,
                           match=re.escape("spherical solution has a value outside [0, 1]")):
            solver._checked(S, a, d, shifted)


def test_split_checks_survive_optimize_flag():
    # under python -O a bare assert vanishes; these checks must not
    script = textwrap.dedent("""
        from bitrades import corpus, trigons
        from bitrades.solver import Homotopy, PointedBitrade, solve_pointed
        assert False, "asserts are on"

        def fires(run):
            T = corpus.nested_intercalate().bitrade
            try:
                run(T)
            except trigons.InternalCheckFailed as exc:
                print("raised:", exc)
            else:
                print("no error")

        def separate(T):
            a = next(t for t in T.star if t.names() == ("r2", "c1", "s1"))
            b = next(t for t in T.star if t.row.name == "r0")
            trigons.separate_trace(T, a, b, 0)

        split, recombine = trigons.split, trigons.recombine

        def not_smaller(S, *args):
            return trigons.Split(split(S, *args).trigon, split(S, *args).inner, S)

        def zero(S, sp, phi):
            lifted = recombine(S, sp, phi)
            return Homotopy.checked(S, lifted.modulus, dict.fromkeys(lifted.maps, 0))

        def corrupted_parent(T):
            (tg,) = trigons.find_trigons(T)
            sp = split(T, tg)
            p = sp.outer.star[0]
            n, y = solve_pointed(PointedBitrade(T, p)).scaled
            lab = next(lab for lab in sp.outer.rows if lab != p.row)
            T._solutions[p] = n, {**y, lab: y[lab] + 1}
            solve_pointed(PointedBitrade(sp.outer, p))

        def zero_legs(T):
            (tg,) = trigons.find_trigons(T)
            sp = split(T, tg)
            c = tg.triple
            for p in sp.outer.star:
                n, y = solve_pointed(PointedBitrade(T, p)).scaled
                T._solutions[p] = n, {**y, c.sym: y[c.row] + y[c.col]}
            solve_pointed(PointedBitrade(sp.inner, c))

        trigons.split = not_smaller
        fires(separate)
        trigons.split, trigons.recombine = split, zero
        fires(separate)
        trigons.recombine = recombine
        fires(corrupted_parent)
        fires(zero_legs)
    """)
    src = str(Path(bitrades.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4, done.stdout
    for line, message in zip(lines, ["the outer bitrade of a split is not smaller",
                                     "lifted homotopy does not separate row(r2) from row(r0)",
                                     "solution breaks the equation of",
                                     "no pivot of the spherical parent gives the piece's system"]):
        assert line.startswith("raised: " + message), line


def test_pieces_have_as_many_delta_as_star_triples(seeded_spherical):
    # split checks only the star sizes of its pieces: their delta sizes follow
    # from this, which build_bitrade gives every Bitrade (see split)
    pieces = 0
    todo = list(seeded_spherical)
    while todo:
        T = todo.pop()
        assert len(T.delta) == T.size
        for tg in find_trigons(T):
            sp = split(T, tg)
            todo += [sp.inner, sp.outer]
            pieces += 2
    assert pieces
