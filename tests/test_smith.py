"""The two-phase Smith form (sparse unit pivots, then a dense block) against two oracles.

The Smith form's diagonal is unique, so it must equal the dense-only
oracle's on B and H's matrices, and the determinantal divisors' on
random dense matrices; every form must pass the certificate.  The
transforms' entries must not grow past the dense oracle's on B and H's
matrices, and must stay within a fixed bound on dense random matrices,
where the oracle's grow to thousands of bits.
"""

import random
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smith_oracle
from bitrades import corpus, groups
from bitrades.exact import _sparse, _unit_reduce, smith_normal_form
from bitrades.solver import relation_matrix
from test_groups import cayley_bitrade


def max_bits(snf):
    """Largest bit length of any entry of U or V: the transforms' coefficient growth."""
    return max((abs(x).bit_length() for A in (snf.U, snf.V) for row in A for x in row),
               default=0)


def assert_matches_oracle(M):
    got = smith_normal_form(M)
    want = smith_oracle.smith_normal_form(M)
    assert got.diagonal == want.diagonal
    smith_oracle._verify_smith(M, got.diagonal, got.U, got.V)
    return got, want


def seeded_cayley(n, seed):
    """The Z_n Cayley-table bitrade, shift and label order drawn from the seed."""
    rng = random.Random(seed)
    names = [[f"{'rcs'[role]}{i}" for i in range(n)] for role in range(3)]
    order = [rng.sample(range(n), n) for _ in range(3)]
    return cayley_bitrade(n, rng.randrange(1, n), names, order)


@pytest.fixture(scope="module")
def bitrades_under_test(products, seeded_spherical, two_intercalates, pinched_intercalates):
    named = {
        "intercalate": corpus.intercalate(),
        "ex45": corpus.example_4x5(),
        "toroidal": corpus.toroidal(),
        "toroidal_swapped": corpus.toroidal_swapped(),
        "nested": corpus.nested_intercalate().bitrade,
        "two_intercalates": two_intercalates,
        "pinched_intercalates": pinched_intercalates,
    }
    named.update((name, T) for name, (T, _, _) in products.items())
    named.update((f"seeded{i}", T) for i, T in enumerate(seeded_spherical))
    named.update((f"Z{n}_seed{seed}", seeded_cayley(n, seed))
                 for n in range(3, 9) for seed in range(2))
    return named


def smith_inputs(T, monkeypatch):
    """B, then the matrices of the oracle H's two Smith forms: its generators' and its
    relations' C, small matrices with few or no unit entries."""
    B, _ = relation_matrix(T)
    seen = []
    dense = smith_oracle.smith_normal_form

    def recorded(M):
        seen.append([row[:] for row in M])
        return dense(M)

    with monkeypatch.context() as patch:
        patch.setattr(smith_oracle, "smith_normal_form", recorded)
        smith_oracle.subgroup_H(T)
    gens, C = seen
    return {"B": B, "gens": gens, "C": C}


def test_relation_and_subgroup_matrices_match_oracle(bitrades_under_test, monkeypatch):
    # growth is compared as the benchmark's snf_max_bits is taken: the largest
    # entry over all the forms of one kind, not form by form
    bits = {kind: [0, 0] for kind in ("B", "gens", "C")}
    for T in bitrades_under_test.values():
        for kind, M in smith_inputs(T, monkeypatch).items():
            got, want = assert_matches_oracle(M)
            bits[kind] = [max(bits[kind][0], max_bits(got)), max(bits[kind][1], max_bits(want))]
    for kind, (got, want) in bits.items():
        assert got <= want, (kind, got, want)


@pytest.mark.parametrize("seed", range(2))
def test_shuffled_relation_matrices_match_oracle(bitrades_under_test, seed):
    # row order picks the unit pivots, so every order of B's rows and columns
    # must still give the one diagonal and a form the dense certificate accepts
    rng = random.Random(seed)
    for T in bitrades_under_test.values():
        B, labels = relation_matrix(T)
        cols = rng.sample(range(len(labels)), len(labels))
        assert_matches_oracle([[row[j] for j in cols] for row in rng.sample(B, len(B))])


def test_pivots_follow_row_order():
    # row 0 holds no unit.  Row 1's units lie in columns of 2, 3 and 2 nonzeros,
    # so its pivot is (1, 0), the lower of the two shortest.  That turns row 0
    # into [0, 0, 1, -2], which is pivoted next, before rows 2 and 3
    M = [[2, 0, 3, 0],
         [1, 0, 1, 1],
         [0, 1, 1, 0],
         [0, 1, 0, 1]]
    pivots, rows, cols, block, _, _ = _unit_reduce(_sparse(M), len(M[0]))
    assert pivots == [(1, 0, 1), (0, 2, 1), (2, 1, 1), (3, 3, -1)]
    assert rows == cols == block == []
    # least Markowitz cost (r - 1)(c - 1) would pivot first in row 2 or 3, at cost 1
    cost = {(i, j): (sum(map(bool, row)) - 1) * (sum(1 for r in M if r[j]) - 1)
            for i, row in enumerate(M) for j, x in enumerate(row) if abs(x) == 1}
    assert min(cost.values()) == 1 and cost[1, 0] == 2
    assert_matches_oracle(M)


def test_phase_one_leaves_no_unit_in_the_block(bitrades_under_test):
    # each unit pivot puts a 1 on the diagonal, so there are at most rank B of them
    for name, T in bitrades_under_test.items():
        B, labels = relation_matrix(T)
        pivots, rows, cols, block, U, V_cols = _unit_reduce(_sparse(B), len(labels))
        rank = groups.integer_homotopy_rank(T)[0]
        assert len(pivots) + len(rows) == len(B) and len(pivots) + len(cols) == len(labels)
        assert len(cols) >= len(labels) - rank, name
        assert not any(abs(x) == 1 for row in block for x in row), name
        # the operations made on U and V reduce B: U B V is s e_j on each pivot's
        # row i and the block on the rows left, which are 0 on every pivot column
        BV = [[sum(row[l] * x for l, x in col.items()) for col in V_cols] for row in B]
        UBV = [[sum(u * BV[k][c] for k, u in Ui.items()) for c in range(len(labels))]
               for Ui in U]
        for i, j, s in pivots:
            assert UBV[i] == [s if c == j else 0 for c in range(len(labels))], name
        for r, block_row in zip(rows, block):
            assert [UBV[r][c] for c in cols] == block_row, name
            assert not any(UBV[r][j] for _, j, _ in pivots), name


def unit_heavy_matrices():
    entry = st.sampled_from([-1, -1, 0, 0, 0, 1, 1, 1, 2, -2, 3])
    return st.integers(1, 6).flatmap(lambda n: st.integers(1, 6).flatmap(
        lambda m: st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)))


@given(unit_heavy_matrices(), st.data())
@settings(max_examples=300, deadline=None)
@example([[1]], None)
@example([[-1]], None)
@example([[1, 1], [1, 1]], None)
@example([[1, -1, 1], [-1, 1, 1], [1, 1, -1]], None)
@example([[0, 0], [0, 0], [0, 0]], None)
@example([[2, 4], [6, 8]], None)
def test_unit_heavy_matrices_match_oracle(M, data):
    # zero rows, zero columns and repeated rows, where the draw asks for them
    if data is not None:
        n, m = len(M), len(M[0])
        M = [row[:] for row in M]
        shape = data.draw(st.sampled_from(["as drawn", "zero row", "zero column", "repeat"]))
        if shape == "zero row":
            M[data.draw(st.integers(0, n - 1))] = [0] * m
        elif shape == "zero column":
            j = data.draw(st.integers(0, m - 1))
            for row in M:
                row[j] = 0
        elif shape == "repeat":
            M.append(M[data.draw(st.integers(0, n - 1))][:])
    assert_matches_oracle(M)


def test_matrix_without_units_goes_to_the_dense_block():
    M = [[2, 4, 0], [6, -8, 2], [0, 2, 4]]
    pivots, rows, cols, block, U, V_cols = _unit_reduce(_sparse(M), len(M[0]))
    assert (pivots, rows, cols, block) == ([], [0, 1, 2], [0, 1, 2], M)
    assert U == V_cols == [{0: 1}, {1: 1}, {2: 1}]
    assert_matches_oracle(M)


def test_units_come_first_on_the_diagonal():
    # one unit pivot, then the block [[2, 0], [0, 3]] whose form is diag(1, 6)
    M = [[1, 1, 1], [0, 2, 0], [0, 0, 3]]
    snf = smith_normal_form(M)
    assert snf.diagonal == [1, 1, 6]
    pivots, rows, cols, block, _, _ = _unit_reduce(_sparse(M), len(M[0]))
    assert len(pivots) == 1 and block == [[2, 0], [0, 3]]


def random_dense(rng, n, m):
    return [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]


def assert_matches_divisors(M):
    snf = smith_normal_form(M)
    assert list(accumulate(snf.diagonal, mul)) == smith_oracle.determinantal_divisors(M), M
    smith_oracle._verify_smith(M, snf.diagonal, snf.U, snf.V)
    return snf


@pytest.mark.parametrize("seed", range(3))
def test_dense_matrices_match_determinantal_divisors(seed):
    # a repeated row or a zero column, where drawn, makes the rank fall short
    rng = random.Random(seed)
    for _ in range(100):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = random_dense(rng, n, m)
        shape = rng.choice(["as drawn", "as drawn", "repeat", "zero column"])
        if shape == "repeat" and n > 1:
            M[-1] = M[0][:]
        elif shape == "zero column":
            j = rng.randrange(m)
            for row in M:
                row[j] = 0
        assert_matches_divisors(M)


def test_dense_block_without_transform_blow_up():
    # one unit pivot, then a 4 x 5 dense block with entries up to 90; reducing on one
    # pivot until it divided everything, with mid-pass swaps, took U and V to 142 bits
    M = [[8, -9, 0, 3, -6, 9],
         [-9, -9, -3, -4, 6, 8],
         [9, -1, 8, 7, -5, 9],
         [-3, 4, -6, -5, -4, 7],
         [7, -6, -9, -6, -7, -4]]
    snf = assert_matches_divisors(M)
    assert snf.diagonal == [1, 1, 1, 1, 2]
    assert max_bits(snf) <= 64


@pytest.mark.parametrize("shape", [(6, 6), (6, 8), (8, 6), (8, 8)])
def test_transforms_stay_small_on_dense_matrices(shape):
    rng = random.Random(0)
    for _ in range(30):
        M = random_dense(rng, *shape)
        snf = smith_normal_form(M)  # certified on the way out
        assert max_bits(snf) <= 256, M
