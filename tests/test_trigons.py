import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bitrades
from bitrades import trigons
from bitrades.core import COL, ROW, SYM, Triple, metrics, tau
from bitrades.groups import canonical_images
from bitrades.solver import PointedBitrade, induced_homotopy, solve_pointed
from bitrades.trigons import (
    ArgumentError,
    LemmaViolation,
    NotInShrinkSituation,
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
from isotopy_oracle import is_isotopic
from scan_oracle import scan_trigons_bruteforce


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

    def test_arc_bounds(self, nested_trigon):
        for k, l in zip(nested_trigon.arc_lengths, nested_trigon.cycle_lengths):
            assert 2 <= k < l

    def test_agrees_with_bruteforce(self, spherical_corpus, toroidal):
        for T in list(spherical_corpus.values()) + [toroidal]:
            fast = [t.triple for t in find_trigons(T)]
            slow = [t.triple for t in scan_trigons_bruteforce(T)]
            assert sorted(fast) == sorted(slow)

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
            tg = locate_trigon(PointedBitrade(T, a), sol, b, i)
            assert tg.triple == nested_trigon.triple
            assert tg.triple[i] == a[i]

    def test_not_in_shrink_situation(self, ex45):
        a = ex45.star[0]
        sol = solve_pointed(PointedBitrade(ex45, a))
        for b in ex45.star:
            for i in range(3):
                if b[i] != a[i]:
                    with pytest.raises(NotInShrinkSituation):
                        locate_trigon(PointedBitrade(ex45, a), sol, b, i)


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
        locate = trigons._locate_trigon

        def locate_building_nothing(*args):
            built = calls["build_bitrade"]
            hit = locate(*args)
            assert calls["build_bitrade"] == built
            return hit

        monkeypatch.setattr(trigons, "_locate_trigon", locate_building_nothing)
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
        inside("_locate_trigon", "locate")
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
        assert False, "asserts are on"
        near_values = trigons.near_values
        def shifted(sol):
            n, values = near_values(sol)
            return n, {lab: v + 1 for lab, v in values.items()}
        trigons.near_values = shifted
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
