import itertools
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bitrades
from bitrades import trigons
from bitrades.core import (
    COL,
    ROW,
    SYM,
    InternalCheckFailed,
    Triple,
    build_bitrade,
    metrics,
    tau,
    tau_cycle,
)
from bitrades.groups import canonical_images
from bitrades.solver import Homotopy, PointedBitrade, Solution, induced_homotopy, solve_pointed
from bitrades.trigons import (
    ArgumentError,
    LemmaViolation,
    NotInShrinkSituation,
    SpliceIdentityFailure,
    embed_product,
    find_trigons,
    locate_trigon,
    recombine,
    separate,
    separate_trace,
    split,
    trigon_at,
)
from circumference_oracle import inner_circumference
from conftest import triple_by_names
from isotopy_oracle import is_isotopic
from scan_oracle import scan_trigons_bruteforce
from test_groups import run_optimized
from walk_oracle import arc_lengths, flood_inner, path_steps


@pytest.fixture(scope="module")
def nested_trigon(nested):
    tgs = find_trigons(nested.bitrade)
    assert len(tgs) == 1
    return tgs[0]


def shrink_cases(T):
    """All (pivot, b, coord) with colliding values at the pivot's label."""
    out = []
    for a in T.star:
        sol = solve_pointed(PointedBitrade(T, a))
        for i in range(3):
            for b in T.star:
                if b[i] != a[i] and sol.values[b[i]] == sol.values[a[i]]:
                    out.append((a, b, i, sol))
    return out


class TestFindTrigons:
    def test_intercalate_none(self, intercalate):
        assert find_trigons(intercalate) == []

    def test_ex45_none(self, ex45):
        assert find_trigons(ex45) == []

    def test_nested_exactly_one(self, nested, nested_trigon):
        c = nested_trigon.triple
        assert c.names() == ("r2", "c2", "s0")
        for j in range(3):
            corner = nested_trigon.corners[j]
            assert corner[j] != c[j]
            assert all(corner[t] == c[t] for t in range(3) if t != j)
            alpha = nested_trigon.alphas[j]
            assert alpha[j] != c[j]
            assert all(alpha[t] == c[t] for t in range(3) if t != j)

    def test_arc_bounds(self, nested, nested_trigon):
        alphas = nested_trigon.alphas
        for j, k in enumerate(nested_trigon.arc_lengths):
            assert 2 <= k < len(tau_cycle(nested.bitrade, j, alphas[(j - 1) % 3]))

    def test_agrees_with_bruteforce(self, spherical_corpus, seeded_spherical, connected_sums,
                                    toroidal, toroidal_swapped):
        # as lists, so the order is checked too
        for T in [*spherical_corpus.values(), *seeded_spherical,
                  *(T for T, _ in connected_sums), toroidal, toroidal_swapped]:
            assert find_trigons(T) == scan_trigons_bruteforce(T)

    def test_star_triple_is_not_trigon(self, nested):
        assert trigon_at(nested.bitrade, nested.bitrade.star[0]) is None

    def test_delta_triple_is_not_trigon(self, nested):
        assert trigon_at(nested.bitrade, nested.bitrade.delta[0]) is None


class TestCircumference:
    def test_nested(self, nested, nested_trigon):
        T = nested.bitrade
        circ = inner_circumference(T, nested_trigon)
        assert len(circ.path) == sum(nested_trigon.arc_lengths)
        # the three interior star points of the subdivided region
        assert {p.names() for p in circ.circumference} == {
            ("r2", "c1", "s1"), ("r1", "c1", "s0"), ("r1", "c2", "s1"),
        }

    def test_splice_identity(self, nested, nested_trigon):
        T = nested.bitrade
        circ = inner_circumference(T, nested_trigon)
        for j in range(3):
            idx = circ.path.index(nested_trigon.alphas[j])
            succ = circ.path[(idx + 1) % len(circ.path)]
            assert tau(T, j, succ) == circ.betas[j]
            assert circ.arcs[j][0] == circ.betas[j]
            assert circ.arcs[j][-1] == succ
            assert len(circ.arcs[j]) >= 2

    def test_alphas_not_on_circumference(self, nested, nested_trigon):
        circ = inner_circumference(nested.bitrade, nested_trigon)
        assert not set(nested_trigon.alphas) & set(circ.circumference)

    def test_circumference_inside_the_flood(self, nested, seeded_spherical):
        """split's inner points, from the flood fill, hold every star triple of
        the spliced inner circumference."""
        count = 0
        for T in [nested.bitrade, *seeded_spherical]:
            for tg in find_trigons(T):
                circ = inner_circumference(T, tg)
                assert set(circ.circumference) <= trigons._flood_inner(T, tg)[1]
                count += 1
        assert count == 29  # 1 trigon on nested, 28 on the seeded dissections


class TestWalksAgainstOracle:
    """trigon_at, the path and the flood fill, which read ``Bitrade.tau_cycle_at``,
    equal the walks that step tau and search each cycle or label."""

    def test_arc_lengths(self, spherical_corpus, seeded_spherical, connected_sums, toroidal,
                         toroidal_swapped, two_intercalates, pinched_intercalates, products):
        """trigon_at on every cell of the label cube, also where a label's star
        triples lie on several tau cycles (the products)."""
        for T in [*spherical_corpus.values(), *seeded_spherical,
                  *(T for T, _ in connected_sums), toroidal, toroidal_swapped,
                  two_intercalates, pinched_intercalates, *(T for T, _, _ in products.values())]:
            for c in itertools.starmap(Triple, itertools.product(*T.universes)):
                tg = trigon_at(T, c)
                assert (tg and tg.arc_lengths) == arc_lengths(T, c)

    @staticmethod
    def assert_agree(T, tg, flood=trigons._flood_inner):
        assert trigons._path_steps(T, tg) == path_steps(T, tg)
        found = flood(T, tg)
        assert found == flood_inner(T, tg)
        return found

    def test_every_trigon(self, spherical_corpus, seeded_spherical, connected_sums):
        count = 0
        for T in [*spherical_corpus.values(), *seeded_spherical,
                  *(T for T, _ in connected_sums)]:
            for tg in find_trigons(T):
                self.assert_agree(T, tg)
                count += 1
        assert count == 90  # 29 on nested and the seeded dissections, 61 on the sums

    def test_every_separation(self, nested, seeded_spherical, connected_sums, monkeypatch):
        """Every flood of every separation, on the outer parts down to the deepest level."""
        flood = trigons._flood_inner
        monkeypatch.setattr(trigons, "_flood_inner",
                            lambda T, tg: self.assert_agree(T, tg, flood))
        depths = set()
        for T in [nested.bitrade, *seeded_spherical, *(T for T, _ in connected_sums)]:
            for a in T.star:
                for i in range(3):
                    for y in T.universe(i):
                        if y != a[i]:
                            b = next(p for p in T.star if p[i] == y)
                            depths.add(separate_trace(T, a, b, i)[1])
        assert depths == {0, 1, 2, 3, 4}


class TestSplit:
    def test_sizes_and_isotopy(self, nested, nested_trigon, intercalate):
        T = nested.bitrade
        sp = split(T, nested_trigon)
        assert sp.inner.size + sp.outer.size == T.size + 1
        assert len(sp.inner.delta) + len(sp.outer.delta) == T.size + 1
        assert is_isotopic(sp.inner, intercalate) is not None
        assert is_isotopic(sp.outer, intercalate) is not None

    def test_membership(self, nested, nested_trigon):
        sp = split(nested.bitrade, nested_trigon)
        c = nested_trigon.triple
        assert sp.inner.in_star(c)
        assert sp.outer.in_delta(c)
        for corner in nested_trigon.corners:
            assert sp.inner.in_delta(corner)
        for alpha in nested_trigon.alphas:
            assert sp.outer.in_star(alpha)

    def test_both_halves_spherical(self, nested, nested_trigon):
        sp = split(nested.bitrade, nested_trigon)
        assert metrics(sp.inner).spherical
        assert metrics(sp.outer).spherical


class TestRecombine:
    def test_nested_mod_4(self, nested, nested_trigon):
        T = nested.bitrade
        sp = split(T, nested_trigon)
        phi = induced_homotopy(solve_pointed(PointedBitrade(sp.outer, sp.outer.star[0])))
        assert phi.modulus == 2
        lifted = recombine(T, sp, phi)
        assert lifted.modulus == 4
        for p in T.star:
            assert (lifted.maps[p.row] + lifted.maps[p.col]
                    - lifted.maps[p.sym]) % 4 == 0

    def test_every_outer_pivot(self, nested, nested_trigon):
        T = nested.bitrade
        sp = split(T, nested_trigon)
        for pivot in sp.outer.star:
            phi = induced_homotopy(solve_pointed(PointedBitrade(sp.outer, pivot)))
            lifted = recombine(T, sp, phi)
            assert lifted.modulus == phi.modulus * 2


class TestLocateTrigon:
    def test_shrink_cases_find_the_trigon(self, nested, nested_trigon):
        T = nested.bitrade
        cases = shrink_cases(T)
        assert cases  # the size-7 instance has colliding pivots
        for a, b, i, sol in cases:
            tg, flood = locate_trigon(sol, b, i)
            assert tg.triple == nested_trigon.triple
            assert flood == trigons._flood_inner(T, tg)
            assert tg.triple[i] == a[i]

    def test_not_in_shrink_situation(self, ex45):
        a = ex45.star[0]
        sol = solve_pointed(PointedBitrade(ex45, a))
        for b in ex45.star:
            for i in range(3):
                if b[i] != a[i]:
                    with pytest.raises(NotInShrinkSituation):
                        locate_trigon(sol, b, i)


class TestTrigonChecks:
    """Each run-time check of the trigon lemmas fires on the one fact it guards."""

    @staticmethod
    def shrink_case(nested):
        """(pivot's solution, b, j): separating r2,c1,s1 from r0 at the row on nested."""
        T = nested.bitrade
        sol = solve_pointed(PointedBitrade(T, triple_by_names(T, "r2", "c1", "s1")))
        return sol, next(t for t in T.star if t.row.name == "r0"), ROW

    @staticmethod
    def locating(sol, b, j):
        return trigons.locate_trigon(sol, b, j)

    def test_mu_walk_end(self, nested, monkeypatch):
        # a mu that fixes every triple closes the walk at its first triple,
        # eta_{j-1}, which is not the opposite corner eta_{j+1}
        monkeypatch.setattr(trigons, "mu", lambda T, r, s, c: c)
        with pytest.raises(LemmaViolation,
                           match="^mu walk did not end at the opposite corner triple$"):
            self.locating(*self.shrink_case(nested))

    def test_corner_degenerate(self, nested):
        # move one symbol value so that the first corner triple, the delta
        # partner of the pivot off the symbol, is degenerate; the pivot's and
        # b's rows keep their equal values
        sol, b, j = self.shrink_case(nested)
        q = sol.bitrade.delta_partner(sol.pivot, SYM)
        values = {**sol.values, q.sym: sol.values[q.row] + sol.values[q.col]}
        with pytest.raises(LemmaViolation, match="^corner triples of the pivot degenerate$"):
            self.locating(Solution(sol.pointed, values), b, j)

    def test_consecutive_case(self, seeded_spherical):
        # on this 10-triangle bitrade the mu walk's non-degenerate triples are
        # at positions 0, 2 and 3, so the pair (2, 3) is consecutive and its
        # beta must be a star triple; hide every star triple from in_star
        S = build_bitrade(seeded_spherical[2].star, seeded_spherical[2].delta)
        a, b = triple_by_names(S, "r0", "c2", "s1"), triple_by_names(S, "r3", "c0", "s2")
        sol = solve_pointed(PointedBitrade(S, a))
        S.in_star = lambda t: False
        with pytest.raises(LemmaViolation,
                           match=r"^\(r0,\S+,\S+\) expected in star \(consecutive case\)$"):
            self.locating(sol, b, ROW)

    def test_gap_case(self, nested, monkeypatch):
        monkeypatch.setattr(trigons, "trigon_at", lambda T, c: None)
        with pytest.raises(LemmaViolation,
                           match=r"^\(r2,\S+,\S+\) expected to be a trigon \(gap case\)$"):
            self.locating(*self.shrink_case(nested))

    def test_exactly_one_trigon_with_b_outside(self, nested, monkeypatch):
        sol, b, j = self.shrink_case(nested)
        flood_inner = trigons._flood_inner

        def b_inside(T, tg):
            inner_tri, inner_points = flood_inner(T, tg)
            return inner_tri, inner_points | {b}

        monkeypatch.setattr(trigons, "_flood_inner", b_inside)
        message = re.escape(f"expected exactly one trigon with {b} outside, found 0")
        with pytest.raises(LemmaViolation, match=f"^{message}$"):
            self.locating(sol, b, j)

    def test_arc_bounds(self, nested, nested_trigon):
        # every alpha read at position 0 of its tau cycle: each arc has length 0
        S = build_bitrade(nested.bitrade.star, nested.bitrade.delta)
        tau_cycle_at = S.tau_cycle_at
        S.tau_cycle_at = lambda j, p: (tau_cycle_at(j, p)[0], 0)
        c = nested_trigon.triple
        with pytest.raises(InternalCheckFailed,
                           match=f"^{re.escape(f'trigon arc bounds violated at {c}')}$"):
            trigon_at(S, c)

    def test_path_not_simple(self, nested, nested_trigon):
        # one step past each arc's end reaches the next arc's first triple
        overrun = nested_trigon._replace(
            arc_lengths=tuple(k + 1 for k in nested_trigon.arc_lengths))
        with pytest.raises(SpliceIdentityFailure,
                           match="^path around the trigon is not simple$"):
            trigons._path_steps(nested.bitrade, overrun)

    def test_product_map_collides(self, ex45, monkeypatch):
        # a separation that returns the constant homotopy separates nothing
        def constant(T, a, b, i):
            return Homotopy.checked(T, 2, {lab: 0 for u in T.universes for lab in u})

        monkeypatch.setattr(trigons, "separate", constant)
        with pytest.raises(InternalCheckFailed, match=r"^product map collides at row\(r1\)$"):
            embed_product(ex45)


def test_trigon_checks_survive_optimize_flag():
    # under python -O a bare assert vanishes; a lemma check, the simple-path
    # check and the product collision check must not
    out = run_optimized("""
        from bitrades import corpus, trigons
        from bitrades.solver import Homotopy, PointedBitrade, solve_pointed
        assert False, "asserts are on"

        def fires(run, *args):
            try:
                run(*args)
            except trigons.InternalCheckFailed as exc:
                print("raised:", exc)
            else:
                print("no error")

        T = corpus.nested_intercalate().bitrade
        a = next(t for t in T.star if t.names() == ("r2", "c1", "s1"))
        b = next(t for t in T.star if t.row.name == "r0")
        sol = solve_pointed(PointedBitrade(T, a))
        mu, trigons.mu = trigons.mu, lambda T, r, s, c: c
        fires(trigons.locate_trigon, sol, b, 0)
        trigons.mu = mu
        (tg,) = trigons.find_trigons(T)
        fires(trigons._path_steps, T, tg._replace(arc_lengths=tuple(k + 1 for k in tg.arc_lengths)))
        trigons.separate = lambda T, a, b, i: Homotopy.checked(
            T, 2, {lab: 0 for u in T.universes for lab in u})
        fires(trigons.embed_product, corpus.example_4x5())
    """)
    lines = out.splitlines()
    assert len(lines) == 3, out
    for line, message in zip(lines, ["mu walk did not end at the opposite corner triple",
                                     "path around the trigon is not simple",
                                     "product map collides at"]):
        assert line.startswith("raised: " + message), line


class TestSeparate:
    def test_ex45_direct(self, ex45):
        a = next(t for t in ex45.star if t.names() == ("r0", "c0", "s4"))
        b = next(t for t in ex45.star if t.names() == ("r2", "c2", "s2"))
        hom, depth = separate_trace(ex45, a, b, 0)
        assert depth == 0 and hom.modulus == 14
        assert (hom.maps[a.row], hom.maps[b.row]) == (0, 5)

    def test_intercalate_all_pairs(self, intercalate):
        for a in intercalate.star:
            for b in intercalate.star:
                for i in range(3):
                    if a[i] != b[i]:
                        hom = separate(intercalate, a, b, i)
                        assert hom.modulus == 2
                        assert hom.separates(a[i], b[i])

    def test_nested_recursion(self, nested):
        T = nested.bitrade
        depths = set()
        for a, b, i, _ in shrink_cases(T):
            hom, depth = separate_trace(T, a, b, i)
            assert hom.separates(a[i], b[i])
            assert hom.modulus == 4
            depths.add(depth)
        assert depths == {1}

    def test_one_split_per_level(self, nested, seeded_spherical, connected_sums, monkeypatch):
        """Every separation splits once per recursion level, locating the
        trigon builds no bitrade, and each split leaves a strictly smaller
        outer part of at least 4 star triples, so depth <= size - 4."""
        calls = {"split": 0, "build_bitrade": 0}

        def counted(name):
            wrapped = getattr(trigons, name)

            def counting(*args):
                calls[name] += 1
                return wrapped(*args)

            monkeypatch.setattr(trigons, name, counting)

        counted("split")
        counted("build_bitrade")
        locate = trigons.locate_trigon

        def locate_building_nothing(*args):
            built = calls["build_bitrade"]
            hit = locate(*args)
            assert calls["build_bitrade"] == built
            return hit

        monkeypatch.setattr(trigons, "locate_trigon", locate_building_nothing)
        depths = []
        for T in [nested.bitrade, *seeded_spherical, *(T for T, _ in connected_sums)]:
            for a in T.star:
                for i in range(3):
                    for y in T.universe(i):
                        if y != a[i]:
                            b = next(p for p in T.star if p[i] == y)
                            calls["split"] = 0
                            hom, depth = separate_trace(T, a, b, i)
                            assert hom.separates(a[i], y)
                            assert calls["split"] == depth <= T.size - 4
                            depths.append(depth)
        assert max(depths) >= 1  # some of these separations recurse

    def test_one_flood_per_gap_candidate(self, nested, seeded_spherical, monkeypatch):
        """Locating the trigon floods each gap candidate once; split reuses the
        hit's flood and floods nothing itself."""
        calls = {"_flood_inner": 0, "trigon_at": 0}
        where = []  # the function now running: "locate" or "split"

        def counted(name):
            wrapped = getattr(trigons, name)

            def counting(*args):
                calls[name] += 1
                if name == "_flood_inner":
                    assert where == ["locate"]
                return wrapped(*args)

            monkeypatch.setattr(trigons, name, counting)

        def inside(name, key):
            wrapped = getattr(trigons, name)

            def marked(*args):
                where.append(key)
                try:
                    return wrapped(*args)
                finally:
                    where.pop()

            monkeypatch.setattr(trigons, name, marked)

        counted("_flood_inner")
        counted("trigon_at")
        inside("locate_trigon", "locate")
        inside("split", "split")
        recursed = 0
        for T in [nested.bitrade, *seeded_spherical]:
            for a in T.star:
                for i in range(3):
                    for y in T.universe(i):
                        if y != a[i]:
                            b = next(p for p in T.star if p[i] == y)
                            calls.update(_flood_inner=0, trigon_at=0)
                            _, depth = separate_trace(T, a, b, i)
                            # trigon_at runs only for gap candidates, and only in locate
                            assert calls["_flood_inner"] == calls["trigon_at"] >= depth
                            recursed += depth > 0
        assert recursed

    def test_equal_labels_rejected(self, ex45):
        a = ex45.star[0]
        b = next(t for t in ex45.star if t.row == a.row and t != a)
        with pytest.raises(ArgumentError):
            separate(ex45, a, b, 0)


class TestEmbedProduct:
    def test_single_factor_when_separated(self, intercalate, ex45):
        assert embed_product(intercalate).moduli == (2,)
        assert embed_product(ex45).moduli == (14,)

    def test_injective_per_role(self, spherical_corpus):
        for T in spherical_corpus.values():
            pe = embed_product(T)
            for role in (ROW, COL, SYM):
                images = [pe.images[lab] for lab in T.universe(role)]
                assert len(set(images)) == len(images)

    def test_factors_all_pass_law(self, spherical_corpus):
        for T in spherical_corpus.values():
            for _, _, hom in embed_product(T).factors:
                for p in T.star:
                    assert (hom.maps[p.row] + hom.maps[p.col]
                            - hom.maps[p.sym]) % hom.modulus == 0

    def test_two_maps_into_finite_groups(self, spherical_corpus, seeded_spherical):
        """The embedding theorem, twice: T* maps into the table of a finite
        abelian group by embed_product and by the canonical images, whose
        two free coordinates are reduced mod an N above their spread."""
        for T in [*spherical_corpus.values(), *seeded_spherical]:
            pe = embed_product(T)
            ci = canonical_images(T)
            free = [k for k, mod in enumerate(ci.moduli) if mod == 0]
            assert len(free) == 2
            values = [img[k] for img in ci.images.values() for k in free]
            n = max(values) - min(values) + 1
            moduli = tuple(mod or n for mod in ci.moduli)
            finite = {lab: tuple(x % mod for x, mod in zip(img, moduli))
                      for lab, img in ci.images.items()}
            for images, mods in ((pe.images, pe.moduli), (finite, moduli)):
                for p in T.star:
                    row, col, sym = (images[lab] for lab in p)
                    assert all((x + y - z) % mod == 0
                               for x, y, z, mod in zip(row, col, sym, mods))
                for role in (ROW, COL, SYM):
                    role_images = [images[lab] for lab in T.universe(role)]
                    assert len(set(role_images)) == len(role_images)


def test_recombination_check_survives_optimize_flag():
    # under python -O a bare assert vanishes; the recombination check must not
    script = textwrap.dedent("""
        from bitrades import corpus, trigons
        from bitrades.solver import Solution
        assert False, "asserts are on"
        recombine, solve_pointed = trigons.recombine, trigons.solve_pointed
        def shifted(pointed):
            n, values = solve_pointed(pointed).scaled
            return Solution._over_width(pointed, n, {lab: v + 1 for lab, v in values.items()})
        def recombine_shifted(*args):
            # the inner piece's values are shifted in recombine only, not in the outer solve
            trigons.solve_pointed = shifted
            try:
                return recombine(*args)
            finally:
                trigons.solve_pointed = solve_pointed
        trigons.recombine = recombine_shifted
        T = corpus.nested_intercalate().bitrade
        a = next(t for t in T.star if t.names() == ("r2", "c1", "s1"))
        b = next(t for t in T.star if t.row.name == "r0")
        try:
            trigons.separate_trace(T, a, b, 0)
        except trigons.InternalCheckFailed as exc:
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
    assert done.stdout.startswith("raised: recombination conflict at")
