import copy
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import axiom_oracle
import scan_oracle
from bitrades import exact, groups, jsonio, solver, trigons
from bitrades.core import (
    COL,
    PAIRS,
    ROW,
    SYM,
    AxiomViolation,
    BitradeError,
    EmptyInput,
    InternalCheckFailed,
    Label,
    Metrics,
    Triple,
    _first_violation,
    build_bitrade,
    first_collision,
    is_indecomposable,
    is_separated_bitrade,
    metrics,
    mu,
    nu,
    tau,
    tau_cycle,
)
from conftest import triple_by_names
from isotopy_oracle import apply_isotopy, is_isotopic, semidual_faces, tau_inverse
from test_groups import cayley_bitrade
from test_mutated_inputs import LABEL_KEYS, build, recipes


def labels(role, names):
    return [Label(role, i, n) for i, n in enumerate(names)]


def make_triples(rows, cols, syms, cells):
    r = {lab.name: lab for lab in rows}
    c = {lab.name: lab for lab in cols}
    s = {lab.name: lab for lab in syms}
    return [Triple(r[a], c[b], s[d]) for a, b, d in cells]


class TestValidation:
    def test_empty(self):
        with pytest.raises(EmptyInput):
            build_bitrade([], [])

    def test_first_violation_of_a_valid_bitrade_raises(self, ex45):
        # build_bitrade asks for the violation only when the pair keys differ;
        # on a valid bitrade every triple has exactly one partner
        with pytest.raises(InternalCheckFailed, match="pair keys differ"):
            _first_violation(ex45.star, ex45.delta)

    def test_duplicates(self, intercalate):
        star = list(intercalate.star)
        with pytest.raises(ValueError, match="duplicate"):
            build_bitrade(star + [star[0]], list(intercalate.delta))

    def test_r1_shared_triple(self, intercalate):
        star = list(intercalate.star)
        delta = list(intercalate.delta[:-1]) + [star[0]]
        with pytest.raises(AxiomViolation) as e:
            build_bitrade(star, delta)
        assert e.value.axiom == "R1"
        assert e.value.triple == star[0]

    def test_r2_missing_partner(self, intercalate):
        # drop one delta triple: some star triple loses its unique partner
        star = list(intercalate.star)
        delta = list(intercalate.delta)[:-1]
        with pytest.raises(AxiomViolation) as e:
            build_bitrade(star, delta)
        assert e.value.axiom == "R2"
        assert e.value.pair is not None

    def test_r3_missing_partner(self, intercalate):
        star = list(intercalate.star)[:-1]
        delta = list(intercalate.delta)
        with pytest.raises(AxiomViolation) as e:
            build_bitrade(star, delta)
        assert e.value.axiom in ("R2", "R3")

    def test_corpus_instances_valid(self, spherical_corpus, toroidal):
        for T in list(spherical_corpus.values()) + [toroidal]:
            assert T.size == len(T.star) == len(T.delta)

    def test_shared_label_index_with_another_name(self, intercalate):
        r0, r1 = intercalate.rows
        renamed = {r1: Label(ROW, r0.index, r1.name)}

        def rename(triples):
            return [Triple(renamed.get(t.row, t.row), t.col, t.sym) for t in triples]

        with pytest.raises(ValueError, match="duplicate row label index"):
            build_bitrade(rename(intercalate.star), rename(intercalate.delta))


def outcome(validate, star, delta):
    """What validate(star, delta) gives: the kept values, or the exception's
    type, message, axiom, witness triple and coordinate pair."""
    try:
        return validate(star, delta)
    except (BitradeError, ValueError) as e:
        return (type(e), str(e), getattr(e, "axiom", None), getattr(e, "triple", None),
                getattr(e, "pair", None))


def kept(star, delta):
    T = build_bitrade(star, delta)
    assert (T._star_set, T._delta_set) == (frozenset(T.star), frozenset(T.delta))
    # the partner index at free coordinate j is the oracle's at the pair without j
    return (T.star, T.delta, T.universes,
            *({PAIRS[2 - j]: index for j, index in enumerate(side)}
              for side in (T._star_index, T._delta_index)))


def assert_agrees_with_axiom_oracle(star, delta):
    assert outcome(kept, star, delta) == outcome(axiom_oracle.validate, star, delta)


def document_triples(doc):
    """The star and delta triples of an input document, on its label lists."""
    tables = [{name: Label(role, i, name) for i, name in enumerate(doc[key])}
              for role, key in enumerate(LABEL_KEYS)]
    return [[Triple(*(table[name] for table, name in zip(tables, t))) for t in doc[side]]
            for side in ("star", "delta")]


CUBE = [labels(role, [f"{x}{i}" for i in range(3)]) for role, x in enumerate("rcs")]
cube_triples = st.lists(st.tuples(*[st.sampled_from(u) for u in CUBE]).map(lambda t: Triple(*t)),
                        max_size=8)
CUBE_CORNER = Triple(*(u[0] for u in CUBE))


class TestAgainstAxiomOracle:
    """build_bitrade checks R2 and R3 as equal partner-key sets and searches for a
    witness only on failure; the per-triple oracle must agree on every input."""

    @given(recipes)
    @settings(max_examples=150, deadline=None)
    @example((["seeded13", "Z5_shift2"], []))
    @example((["nested"], [("swap a star and a delta triple", 3, 4)]))
    def test_mutated_documents(self, recipe):
        assert_agrees_with_axiom_oracle(*document_triples(build(recipe)))

    @given(cube_triples, cube_triples)
    @settings(max_examples=300, deadline=None)
    @example([CUBE_CORNER] * 2, [CUBE_CORNER])  # a duplicate star triple
    @example([CUBE_CORNER], [CUBE_CORNER])  # R1
    def test_triples_of_a_small_cube(self, star, delta):
        assert_agrees_with_axiom_oracle(star, delta)

    @pytest.mark.parametrize("recipe, axiom", [
        ((["ex45"], []), None),
        ((["intercalate"], [("merge two labels", 0, 0)]), "R1"),
        ((["intercalate"], [("drop a triple", 1, 0)]), "R2"),
        ((["intercalate"], [("drop a triple", 0, 0)]), "R3"),
    ])
    def test_each_axiom_is_reached(self, recipe, axiom):
        star, delta = document_triples(build(recipe))
        assert_agrees_with_axiom_oracle(star, delta)
        if axiom is None:
            build_bitrade(star, delta)
        else:
            with pytest.raises(AxiomViolation) as e:
                build_bitrade(star, delta)
            assert e.value.axiom == axiom


class TestValues:
    """Labels and triples are tuples of their fields."""

    def test_role_mismatch(self, intercalate):
        r, c, s = intercalate.star[0]
        for args in ((c, r, s), (r, s, c), (r, c, r)):
            with pytest.raises(ValueError, match="roles do not match"):
                Triple(*args)

    def test_loaded_triples_are_triples(self, ex45):
        # loads builds its triples from per-role name tables, without Triple's role
        # check; Triple(...) runs it again on each
        T = jsonio.loads(jsonio.dumps(ex45))
        assert T.star + T.delta
        for got, want in zip(T.star + T.delta, ex45.star + ex45.delta):
            assert type(got) is Triple and got == Triple(*got) == want
            assert (got.row.role, got.col.role, got.sym.role) == (ROW, COL, SYM)

    def test_plain_tuples(self, ex45):
        t = ex45.star[0]
        for value in (t, t.row):
            assert type(value).__bases__ == (tuple,)
            assert not hasattr(value, "__dict__")
        for cls in (Label, Triple):
            assert not {"__hash__", "__eq__", "__lt__", "__getitem__"} & set(vars(cls))
        assert tuple(t) == (t.row, t.col, t.sym) == (t[0], t[1], t[2])
        assert tuple(t.row) == (t.row.role, t.row.index, t.row.name)

    def test_hash_equality_and_order_of_the_fields(self, ex45):
        labels = [lab for u in ex45.universes for lab in u]
        for values in (labels, list(ex45.star + ex45.delta)):
            plain = [tuple(v) for v in values]
            assert [hash(v) for v in values] == [hash(p) for p in plain]
            assert all(v == p for v, p in zip(values, plain))
            key = {v: i for i, v in enumerate(values)}
            assert [key[p] for p in plain] == list(range(len(values)))
            order = sorted(range(len(values)), key=lambda i: values[i])
            assert order == sorted(range(len(values)), key=lambda i: plain[i])
        # the name takes part in equality
        lab = ex45.rows[0]
        assert Label(lab.role, lab.index, lab.name + "'") != lab

    def test_copy_and_pickle(self, ex45):
        t = ex45.star[0]
        for again in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(again) is Triple and again == t and repr(again) == repr(t)


class TestPermutations:
    def test_tau_on_intercalate(self, intercalate):
        a = triple_by_names(intercalate, "r0", "c0", "s0")
        b = tau(intercalate, 0, a)  # moves along the row r0
        assert b.names() == ("r0", "c1", "s1")
        assert tau(intercalate, 0, b) == a

    def test_mu_nu_inverses(self, spherical_corpus, toroidal):
        for T in list(spherical_corpus.values()) + [toroidal]:
            for q in T.delta:
                for r in range(3):
                    for s in range(3):
                        if r != s:
                            assert mu(T, s, r, mu(T, r, s, q)) == q
            for p in T.star:
                for j in range(3):
                    assert tau_inverse(T, j, tau(T, j, p)) == p

    def test_tau_fixes_coordinate(self, ex45):
        for p in ex45.star:
            for j in range(3):
                assert tau(ex45, j, p)[j] == p[j]

    def test_tau_composition_is_identity(self, ex45):
        # tau_1 tau_2 tau_3 = id, in any cyclic order
        for p in ex45.star:
            assert tau(ex45, 0, tau(ex45, 1, tau(ex45, 2, p))) == p

    def test_tau_cycle_partitions_label(self, spherical_corpus):
        for T in spherical_corpus.values():
            for role in (ROW, COL, SYM):
                for lab in T.universe(role):
                    carrying = [p for p in T.star if p[role] == lab]
                    cycle = tau_cycle(T, role, carrying[0])
                    assert set(cycle) == set(carrying)
                    assert len(cycle) >= 2

    def test_nu_rejects_equal_coordinates(self, intercalate):
        with pytest.raises(ValueError):
            nu(intercalate, 1, 1, intercalate.star[0])


class TestPartnersAgainstScan:
    """The partner lookups, mu and nu equal the definition: a scan of the other
    side for the triple agreeing off the free coordinate."""

    @pytest.fixture(scope="class")
    def bitrades(self, spherical_corpus, seeded_spherical, connected_sums, toroidal,
                 toroidal_swapped):
        return [*spherical_corpus.values(), *seeded_spherical,
                *(T for T, _ in connected_sums), toroidal, toroidal_swapped]

    def test_partners(self, bitrades):
        for T in bitrades:
            for side, other, partner in ((T.star, T.delta, T.delta_partner),
                                         (T.delta, T.star, T.star_partner)):
                for t in side:
                    for j in range(3):
                        found = partner(t, j)
                        assert found is not None and found == scan_oracle.scan_partner(other, t, j)

    def test_misses(self, bitrades):
        # the cells that find_trigons probes: a delta triple's row and column, any symbol
        for T in bitrades:
            for q in T.delta:
                for s in T.syms:
                    c = Triple(q.row, q.col, s)
                    for j in range(3):
                        assert T.delta_partner(c, j) == scan_oracle.scan_partner(T.delta, c, j)
                        assert T.star_partner(c, j) == scan_oracle.scan_partner(T.star, c, j)

    def test_mu_nu(self, bitrades):
        for T in bitrades:
            for r in range(3):
                for s in range(3):
                    if r != s:
                        for c in T.delta:
                            assert mu(T, r, s, c) == scan_oracle.scan_mu(T, r, s, c)
                        for a in T.star:
                            assert nu(T, r, s, a) == scan_oracle.scan_nu(T, r, s, a)


class TestMetrics:
    def test_intercalate(self, intercalate):
        met = metrics(intercalate)
        assert (met.size, met.m, met.euler_characteristic) == (4, 6, 2)
        assert met.spherical and met.separated and met.genus == 0

    def test_ex45(self, ex45):
        met = metrics(ex45)
        assert (met.size, met.o1, met.o2, met.o3) == (12, 4, 5, 5)
        assert met.spherical and met.genus == 0

    def test_toroidal(self, toroidal):
        met = metrics(toroidal)
        assert met.size == 18 and not met.spherical
        assert met.genus == 1

    def test_decomposable_has_no_genus(self, two_intercalates, sphere_and_torus):
        # chi is 4 and 2, but neither is one surface: two spheres, a sphere and a torus
        for T, chi in ((two_intercalates, 4), (sphere_and_torus, 2)):
            met = metrics(T)
            assert (met.euler_characteristic, met.separated) == (chi, True)
            assert (met.spherical, met.genus, T.indecomposable) == (False, None, False)

    def test_indecomposable(self, spherical_corpus, toroidal):
        for T in list(spherical_corpus.values()) + [toroidal]:
            assert is_indecomposable(T)

    def test_separated(self, spherical_corpus, toroidal):
        for T in list(spherical_corpus.values()) + [toroidal]:
            assert is_separated_bitrade(T)

    def test_separated_cayley_tables(self):
        # Z_n with delta shift k is separated exactly when gcd(n, k) = 1
        for n in range(2, 7):
            names = [[f"{prefix}{i}" for i in range(n)] for prefix in "rcs"]
            for k in range(1, n):
                T = cayley_bitrade(n, k, names, [range(n)] * 3)
                assert is_separated_bitrade(T) == (math.gcd(n, k) == 1)

    def test_separated_matches_per_label_oracle(self, tau_instances):
        instances = list(tau_instances)
        for n in range(2, 7):
            names = [[f"{prefix}{i}" for i in range(n)] for prefix in "rcs"]
            instances += [cayley_bitrade(n, k, names, [range(n)] * 3) for k in range(1, n)]
        verdicts = [is_separated_bitrade(T) for T in instances]
        assert verdicts == [scan_oracle.is_separated_bitrade(T) for T in instances]
        assert True in verdicts and False in verdicts


@pytest.fixture(scope="module")
def tau_instances(spherical_corpus, seeded_spherical, connected_sums, toroidal,
                  toroidal_swapped, sphere_and_torus, two_intercalates,
                  pinched_intercalates, products):
    return [*spherical_corpus.values(), *seeded_spherical, *(T for T, _ in connected_sums),
            toroidal, toroidal_swapped, sphere_and_torus, two_intercalates,
            pinched_intercalates, *(T for T, _, _ in products.values())]


def assert_table_is_tau_cycles(T):
    """Each star triple's ``T.tau_cycle_at`` cycle, rotated to start at it, is
    its ``tau_cycle``, and the triples of one cycle share one tuple."""
    for j in range(3):
        for p in T.star:
            cycle, i = T.tau_cycle_at(j, p)
            assert cycle[i] == p
            assert list(cycle[i:] + cycle[:i]) == tau_cycle(T, j, p)
            assert all(T.tau_cycle_at(j, x)[0] is cycle for x in cycle)


class TestTauCycles:
    """The tau cycles that trigons and is_separated_bitrade read off the
    bitrade equal the definition, tau_cycle, from every star triple and role."""

    def test_instances(self, tau_instances):
        for T in tau_instances:
            assert_table_is_tau_cycles(T)

    @given(recipes)
    @settings(max_examples=150, deadline=None)
    @example((["toroidal_swapped", "seeded10"], [("swap star and delta", 0, 0)]))
    @example((["Z4_shift2", "nested"], []))
    def test_mutated_documents(self, recipe):
        try:
            T = build_bitrade(*document_triples(build(recipe)))
        except (BitradeError, ValueError):
            return
        assert_table_is_tau_cycles(T)
        assert is_separated_bitrade(T) == scan_oracle.is_separated_bitrade(T)


class TestSemidual:
    def test_face_counts(self, spherical_corpus, toroidal):
        for T in list(spherical_corpus.values()) + [toroidal]:
            met = metrics(T)
            faces = semidual_faces(T)
            assert len(faces.cyclic) == met.m
            assert len(faces.triangular) == met.size
            # V - E + F with E = 3s and V = s
            edge_count = 3 * met.size
            euler = met.size - edge_count + faces.face_count
            assert euler == met.euler_characteristic

    def test_triangular_faces_are_partners(self, ex45):
        faces = semidual_faces(ex45)
        for q, verts in faces.triangular.items():
            assert len(set(verts)) == 3
            for v in verts:
                assert sum(v[j] == q[j] for j in range(3)) == 2


class TestFirstCollision:
    def test_first_pair_in_canonical_order(self, ex45):
        rows, cols, syms = ex45.universes
        image = {lab: lab.index for lab in (*rows, *cols, *syms)}
        assert first_collision(ex45, image) is None
        image[cols[3]] = image[syms[4]] = image[syms[2]] = image[cols[1]] = -1
        assert first_collision(ex45, image) == (COL, cols[1], cols[3])
        image.update({cols[3]: 3})
        assert first_collision(ex45, image) == (SYM, syms[2], syms[4])


class TestIsotopy:
    def test_identity(self, ex45):
        maps = is_isotopic(ex45, ex45)
        assert maps is not None

    def test_relabelled(self, ex45):
        # reverse every universe, then demand an isotopy back
        perm = tuple(
            {lab: rev for lab, rev in zip(ex45.universe(role),
                                          reversed(ex45.universe(role)))}
            for role in (ROW, COL, SYM)
        )
        S = apply_isotopy(perm, ex45)
        maps = is_isotopic(ex45, S)
        assert maps is not None
        assert apply_isotopy(maps, ex45).star == S.star

    def test_different_sizes(self, intercalate, ex45):
        assert is_isotopic(intercalate, ex45) is None

    def test_same_size_non_isotopic(self, intercalate):
        # swapping star and delta of the intercalate stays isotopic,
        # so build a genuinely different instance by shape mismatch
        from bitrades import corpus

        nested = corpus.nested_intercalate().bitrade
        assert is_isotopic(nested, corpus.example_4x5()) is None


def test_result_records_are_named_tuples(ex45):
    # field names and order are API: callers build the records positionally
    records = {
        Metrics: "size o1 o2 o3 m euler_characteristic separated spherical genus",
        exact.SmithForm: "diagonal U V",
        solver.PointedBitrade: "bitrade pivot",
        solver.Homotopy: "modulus maps",
        groups.AbelianGroupStructure: "free_rank invariant_factors",
        groups.CanonicalImages: "structure images moduli",
        groups.DetInvarianceReport: "common_value pairs_checked",
        trigons.Trigon: "triple corners alphas arc_lengths",
        trigons.Split: "trigon inner outer",
        trigons.ProductEmbedding: "factors images",
    }
    for cls, fields in records.items():
        assert issubclass(cls, tuple) and cls._fields == tuple(fields.split())
    G = groups.presentation(ex45)
    assert repr(G) == "AbelianGroupStructure(free_rank=2, invariant_factors=(14,))"
    free_rank, factors = G
    assert (free_rank, factors) == G == (2, (14,))
