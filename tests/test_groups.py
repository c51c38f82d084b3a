import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitrades
import pivot_oracle
import rational_oracle
import smith_oracle
from bitrades import corpus, groups, solver
from bitrades.core import (
    COL,
    ROW,
    SYM,
    InternalCheckFailed,
    Label,
    Triple,
    build_bitrade,
    metrics,
)
from bitrades.exact import SmithForm, smith_normal_form
from bitrades.groups import (
    canonical_images,
    check_det_invariance,
    integer_homotopy_rank,
    is_abelian_embeddable,
    presentation,
    subgroup_H,
)
from bitrades.solver import relation_matrix
from test_exact import cofactor_det


class TestRelationMatrix:
    def test_intercalate_rows(self, intercalate):
        B, labels = relation_matrix(intercalate)
        assert len(B) == 4 and len(labels) == 6
        names = [lab.name for lab in labels]
        assert names == ["r0", "r1", "c0", "c1", "s0", "s1"]
        for row, p in zip(B, intercalate.star):
            assert sorted(row) == [-1, 0, 0, 0, 1, 1]

    def test_column_blocks(self, ex45):
        B, labels = relation_matrix(ex45)
        met = metrics(ex45)
        assert [lab.role for lab in labels] == (
            [ROW] * met.o1 + [COL] * met.o2 + [SYM] * met.o3
        )


class TestPresentation:
    def test_intercalate(self, intercalate):
        G = presentation(intercalate)
        assert G.free_rank == 2
        assert G.invariant_factors == (2,)
        assert str(G) == "Z + Z + Z2"

    def test_ex45(self, ex45):
        G = presentation(ex45)
        assert G.free_rank == 2
        assert G.invariant_factors == (14,)

    def test_nested(self, nested):
        G = presentation(nested.bitrade)
        assert G.free_rank == 2
        assert G.invariant_factors == (4,)

    @pytest.mark.parametrize("read", [
        presentation, subgroup_H, canonical_images, is_abelian_embeddable,
        check_det_invariance, integer_homotopy_rank,
    ], ids=lambda read: read.__name__)
    def test_every_reader_of_G_checks_its_free_rank(self, ex45, read):
        # presentation is the one place that checks the spherical premise, and
        # every other reader of G reads G through it before anything else
        S = keep_form_one_rank_short(ex45)
        with pytest.raises(InternalCheckFailed,
                           match="^G must have free rank 2 for a spherical bitrade"):
            read(S)


def keep_form_one_rank_short(T):
    """A fresh copy of spherical T whose kept Smith form of B has its last d_k set to 0.

    Its G has free rank 3, which no spherical bitrade's G has.
    """
    S = build_bitrade(T.star, T.delta)
    labels, form = solver._relation_smith(S)
    assert form.diagonal[-1] != 0
    S._relation_smith = labels, SmithForm([*form.diagonal[:-1], 0], form.U, form.V)
    return S


class TestSubgroupH:
    def test_intercalate(self, intercalate):
        H = subgroup_H(intercalate)
        assert H.free_rank == 0 and H.invariant_factors == (2,)
        assert H.order == 2

    def test_ex45(self, ex45):
        assert subgroup_H(ex45).invariant_factors == (14,)

    def test_toroidal_delta_side(self, toroidal_swapped):
        H = subgroup_H(toroidal_swapped)
        assert H.free_rank == 0
        assert H.invariant_factors == (10,)

    def test_spherical_H_is_torsion_of_G(self, spherical_corpus, connected_sums):
        for T in [*spherical_corpus.values(), *(T for T, _ in connected_sums)]:
            G, H = presentation(T), subgroup_H(T)
            assert H.free_rank == 0
            assert H.invariant_factors == G.invariant_factors
            assert G.free_rank == 2


def cayley_bitrade(n, k, names, order):
    """Z_n Cayley table, star (i, j, i+j) and delta (i, j, i+j+k), relabelled.

    names[role][i] and order[role][i] give label i of each role a fresh
    name and a fresh position in its universe.
    """
    labels = [
        [Label(role, order[role][i], names[role][i]) for i in range(n)]
        for role in (ROW, COL, SYM)
    ]

    def table(shift):
        return [
            Triple(labels[ROW][i], labels[COL][j], labels[SYM][(i + j + shift) % n])
            for i in range(n)
            for j in range(n)
        ]

    return build_bitrade(table(0), table(k))


@st.composite
def renamed_cayley(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    names = [
        draw(st.lists(st.text("abcxyz0123", min_size=1, max_size=3),
                      min_size=n, max_size=n, unique=True))
        for _ in range(3)
    ]
    order = [draw(st.permutations(range(n))) for _ in range(3)]
    return n, cayley_bitrade(n, k, names, order)


class TestSubgroupHAgainstRationalOracle:
    """H read off G = H + Z^2 equals H from an explicit lattice basis and rational
    solves, and H from the two further Smith forms of ``smith_oracle``."""

    @staticmethod
    def assert_matches_oracles(T):
        H = subgroup_H(T)
        assert H == rational_oracle.subgroup_H(T)
        assert H == smith_oracle.subgroup_H(T)
        return H

    def test_corpus(self, spherical_corpus, toroidal, toroidal_swapped, seeded_spherical,
                    two_intercalates, pinched_intercalates, connected_sums):
        for T in [*spherical_corpus.values(), toroidal, toroidal_swapped, *seeded_spherical,
                  two_intercalates, pinched_intercalates, *(T for T, _ in connected_sums)]:
            self.assert_matches_oracles(T)

    @given(renamed_cayley())
    @settings(max_examples=25, deadline=None)
    def test_cayley_tables_under_renaming(self, case):
        n, T = case
        H = self.assert_matches_oracles(T)
        assert H.free_rank == 0 and H.order == n

    def test_products_with_cyclic_groups(self, products):
        for T, G, H in products.values():
            assert presentation(T) == groups.AbelianGroupStructure(*G)
            assert self.assert_matches_oracles(T) == groups.AbelianGroupStructure(*H)

    def test_free_rank_of_G_above_2(self, two_intercalates, pinched_intercalates,
                                    sphere_and_torus):
        # H keeps G's free rank minus 2: nullity B is 4, 3 and 4 here (test_corpus
        # compares the first two with the oracles)
        for T, free in ((two_intercalates, 2), (pinched_intercalates, 1)):
            assert subgroup_H(T).free_rank == free
        # m = s + 2, but decomposable, so not spherical, and G = Z^4 + Z2 is allowed
        assert subgroup_H(sphere_and_torus) == groups.AbelianGroupStructure(2, (2,))


def test_one_smith_form_of_B_per_bitrade(monkeypatch):
    # G, the images, H, the rank, the minors and every pointed solve all
    # read one verified Smith form of B, and no other form is made
    shapes = []

    def counted(M):
        shapes.append((len(M), len(M[0]) if M else 0))
        return smith_normal_form(M)

    monkeypatch.setattr(groups, "smith_normal_form", counted)
    monkeypatch.setattr(solver, "smith_normal_form", counted)
    T = corpus.example_4x5()
    B, labels = relation_matrix(T)
    for _ in range(2):
        presentation(T)
        canonical_images(T)
        is_abelian_embeddable(T)
        subgroup_H(T)
        integer_homotopy_rank(T)
        check_det_invariance(T)
        for a in T.star:
            solver.solve_pointed(solver.PointedBitrade(T, a))
    assert shapes == [(len(B), len(labels))]


def run_optimized(script):
    """The standard output of `script` run by a child python -O, which must exit 0."""
    src = str(Path(bitrades.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_spherical_H_check_survives_optimize_flag():
    # under python -O a bare assert vanishes; the check that G has free rank 2
    # on a spherical input, so that H is its torsion, must not
    out = run_optimized("""
        from bitrades import corpus, groups, solver
        from bitrades.exact import SmithForm
        assert False, "asserts are on"
        T = corpus.example_4x5()
        labels, form = solver._relation_smith(T)
        T._relation_smith = labels, SmithForm([*form.diagonal[:-1], 0], form.U, form.V)
        try:
            groups.subgroup_H(T)
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("no error")
    """)
    assert out.startswith("raised: G must have free rank 2 for a spherical bitrade")


def test_additive_law_check_survives_optimize_flag():
    out = run_optimized("""
        from bitrades import corpus, groups, solver
        assert False, "asserts are on"
        T = corpus.example_4x5()
        solver._relation_smith(T)[1].V[0][-1] += 1
        try:
            groups.canonical_images(T)
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("no error")
    """)
    assert out.startswith("raised: additive law fails at")


class TestCanonicalImages:
    def test_additive_law_fails_on_a_corrupted_form(self, ex45):
        # V's row 0 changed after the form was certified: label 0's image moves
        # on a free coordinate (d_k = 0, so nothing reduces it), and the first
        # star triple holding label 0 breaks the law
        S = build_bitrade(ex45.star, ex45.delta)
        labels, form = solver._relation_smith(S)
        form.V[0][-1] += 1
        p = next(p for p in S.star if labels[0] in p)
        with pytest.raises(InternalCheckFailed, match=re.escape(f"additive law fails at {p}")):
            canonical_images(S)

    def test_additive_law_is_asserted(self, spherical_corpus, toroidal):
        for T in list(spherical_corpus.values()) + [toroidal]:
            ci = canonical_images(T)
            assert len(ci.images) == metrics(T).m

    def test_intercalate_rows_differ_by_torsion(self, intercalate):
        ci = canonical_images(intercalate)
        r0, r1 = intercalate.universe(ROW)
        a, b = ci.images[r0], ci.images[r1]
        assert a != b
        # in the torsion coordinate (modulus 2) they differ by the generator
        torsion = [k for k, mod in enumerate(ci.moduli) if mod == 2]
        assert len(torsion) == 1


class TestEmbeddability:
    def test_spherical_always_embeddable(self, spherical_corpus, connected_sums):
        for T in [*spherical_corpus.values(), *(T for T, _ in connected_sums)]:
            assert is_abelian_embeddable(T) == (True, None)

    def test_toroidal_star_side_fails(self, toroidal):
        ok, witness = is_abelian_embeddable(toroidal)
        assert not ok
        assert witness[0].role == witness[1].role
        assert witness[0] != witness[1]

    def test_toroidal_delta_side(self, toroidal_swapped):
        # two symbols are identified by every homotopy into an abelian
        # group: their generator difference lies in the relation lattice
        ok, witness = is_abelian_embeddable(toroidal_swapped)
        assert not ok
        assert sorted(w.name for w in witness) == ["4", "7"]


class TestDetInvariance:
    def test_intercalate_value_2(self, intercalate):
        rep = check_det_invariance(intercalate)
        assert pivot_oracle.check_det_invariance(intercalate) == (rep, True, True)
        assert rep.common_value == 2
        # admissible pairs: 2 rows x 4 later + 2 cols x 2 syms
        assert rep.pairs_checked == 12

    def test_intercalate_against_cofactor_oracle(self, intercalate):
        B, _ = relation_matrix(intercalate)
        # delete the first row column and the last symbol column
        Bij = [[x for k, x in enumerate(row) if k not in (0, 5)] for row in B]
        assert abs(cofactor_det(Bij)) == 2

    def test_all_spherical(self, spherical_corpus, connected_sums):
        # all_equal and nonzero are the oracle's verdicts over its computed minors
        for T in [*spherical_corpus.values(), *(T for T, _ in connected_sums)]:
            minors = pivot_oracle.check_det_invariance(T)
            assert minors.all_equal and minors.nonzero
            assert check_det_invariance(T) == minors.report

    def test_det_B_of_a_connected_sum_is_the_parts_product(self, connected_sums):
        # an observed property, not proven: it held on every seeded sum tried,
        # though H itself need not be the direct sum of the parts' H (Z4 and Z2
        # give Z8 in one sum, Z2 + Z4 in another)
        for T, parts in connected_sums:
            product = 1
            for part in parts:
                product *= check_det_invariance(part).common_value
            assert check_det_invariance(T).common_value == product

    def test_against_bareiss_oracle(self, spherical_corpus, seeded_spherical, toroidal,
                                    toroidal_swapped, products, sphere_and_torus):
        cayley = [cayley_bitrade(n, k, [[f"{x}{i}" for i in range(n)] for x in "rcs"],
                                 [range(n)] * 3)
                  for n in range(2, 6) for k in range(1, n)]
        # m = s + 2, so each minor is square, but decomposable, so not spherical;
        # rank B < s, and every minor is 0
        with pytest.raises(ValueError, match="spherical"):
            check_det_invariance(sphere_and_torus)
        minors = pivot_oracle.check_det_invariance(sphere_and_torus)
        assert (minors.report.common_value, minors.all_equal, minors.nonzero) == (0, True, False)
        spherical = 0
        for T in [*spherical_corpus.values(), *seeded_spherical, toroidal, toroidal_swapped,
                  *(T for T, _, _ in products.values()), *cayley]:
            if T.spherical:
                assert check_det_invariance(T) == pivot_oracle.check_det_invariance(T).report
                spherical += 1
            else:  # B has more columns than rows + 2: no deleted-column minor is square
                with pytest.raises(ValueError):
                    check_det_invariance(T)
                with pytest.raises(ValueError, match="non-square"):
                    pivot_oracle.check_det_invariance(T)
        assert spherical == 3 + 8 + 1  # Z_2's Cayley bitrade is the intercalate

    def test_minors_do_not_depend_on_the_kernel_basis(self, spherical_corpus,
                                                      seeded_spherical):
        # V's last two columns are a basis of ker B; times G = [[1, 1], [2, 3]],
        # of determinant 1, the form still certifies.  The report must come out
        # the same as the oracle's, which pins that it reads no kernel column of V
        for T in [*spherical_corpus.values(), *seeded_spherical]:
            S = build_bitrade(T.star, T.delta)
            labels, form = solver._relation_smith(S)
            s = S.size
            V = [row[:s] + [row[s] + 2 * row[s + 1], row[s] + 3 * row[s + 1]]
                 for row in form.V]
            smith_oracle._verify_smith(relation_matrix(S)[0], form.diagonal, form.U, V)
            S._relation_smith = labels, SmithForm(form.diagonal, form.U, V)
            assert check_det_invariance(S) == pivot_oracle.check_det_invariance(T).report

    def test_rank_below_size_raises(self, ex45):
        # every minor is |H| only when rank B = s; a form with a 0 on its
        # diagonal must stop the report, not give the minors a value
        S = keep_form_one_rank_short(ex45)
        with pytest.raises(InternalCheckFailed, match="free rank 2"):
            check_det_invariance(S)

    def test_non_spherical_rejected(self, toroidal):
        with pytest.raises(ValueError, match="spherical"):
            check_det_invariance(toroidal)

    def test_reads_a_shared_elimination(self, spherical_corpus, seeded_spherical):
        # the minors read the Smith form of B that the pointed solves made
        for T in [*spherical_corpus.values(), *seeded_spherical]:
            S = build_bitrade(T.star, T.delta)
            solver.solve_pointed(solver.PointedBitrade(S, S.star[0]))
            form = S._relation_smith
            assert check_det_invariance(S) == check_det_invariance(T)
            assert S._relation_smith is form

    def test_common_value_matches_H_order(self, spherical_corpus, seeded_spherical,
                                          connected_sums):
        # proven in check_det_invariance's docstring: ker B = Z k1 + Z k2 makes
        # every admissible 2 x 2 minor of V +-1, so every minor is d_1 ... d_s = |H|;
        # test_against_bareiss_oracle computes the minors themselves
        for T in [*spherical_corpus.values(), *seeded_spherical,
                  *(T for T, _ in connected_sums)]:
            assert check_det_invariance(T).common_value == subgroup_H(T).order


class TestIntegerHomotopyRank:
    def test_ex45(self, ex45):
        assert integer_homotopy_rank(ex45) == (12, 2, True)

    def test_intercalate(self, intercalate):
        assert integer_homotopy_rank(intercalate) == (4, 2, True)

    def test_toroidal(self, toroidal):
        r, nullity, trivial = integer_homotopy_rank(toroidal)
        assert r + nullity == 18
        assert trivial == (nullity == 2)

    def test_spherical_nullity_2(self, spherical_corpus):
        for T in spherical_corpus.values():
            assert integer_homotopy_rank(T)[1] == 2
