from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rational_oracle
from bitrades import corpus, exact
from bitrades.core import InternalCheckFailed
from bitrades.exact import identity, smith_normal_form
from bitrades.solver import relation_matrix
from pivot_oracle import _integer_row, determinant, eliminate, rank
from rational_oracle import invert_unimodular, mat_mul, transpose
from smith_oracle import _verify_smith, determinantal_divisors


def cofactor_det(A):
    """Independent determinant oracle by first-row expansion."""
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        total += (-1) ** j * A[0][j] * cofactor_det(minor)
    return total


def square_matrices(n, lo=-6, hi=6):
    entry = st.integers(lo, hi)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    )


def matrices(n, m, entry):
    return st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)


small_ints = st.integers(-5, 5)
small_rationals = st.one_of(
    small_ints, st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


def gauss_solve(A, b):
    """(status, rank, solution) of A x = b from one elimination of [A | b].

    Rational rows are scaled to integers; row k < rank then holds d x_k
    in the last column, and a later row with a nonzero there is 0 = c.
    """
    m = len(A[0]) if A else 0
    M = [_integer_row([*row, rhs])[0] for row, rhs in zip(A, b)]
    pivots, d = eliminate(M, m)
    r = len(pivots)
    if any(row[m] for row in M[r:]):
        return "no_solution", r, None
    if r < m:
        return "non_unique", r, None
    return "unique", r, [Fraction(row[m], d) for row in M[:r]]


def assert_same_as_oracle(A, b):
    want = rational_oracle.gauss_solve(A, b)
    got = gauss_solve(A, b)
    assert got == (want.status, want.rank, want.solution)
    assert all(type(x) is Fraction for x in got[2] or [])


class TestGaussSolve:
    def test_unique(self):
        status, _, solution = gauss_solve([[2, 1], [1, 3]], [5, 10])
        assert status == "unique"
        assert solution == [Fraction(1), Fraction(3)]

    def test_no_solution(self):
        assert gauss_solve([[1, 1], [2, 2]], [1, 3])[:2] == ("no_solution", 1)

    def test_non_unique(self):
        status, _, _ = gauss_solve([[1, 1], [2, 2]], [1, 2])
        assert status == "non_unique"

    def test_rectangular(self):
        # 3 equations, 2 unknowns, consistent
        status, _, solution = gauss_solve([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
        assert status == "unique"
        assert solution == [2, 3]

    @given(square_matrices(3), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_solution_satisfies_system(self, A, x):
        b = [sum(a * xi for a, xi in zip(row, x)) for row in A]
        status, _, solution = gauss_solve(A, b)
        assert status in ("unique", "non_unique")
        if status == "unique":
            for row, bi in zip(A, b):
                assert sum(a * xi for a, xi in zip(row, solution)) == bi


class TestGaussSolveAgainstRationalOracle:
    """The fraction-free solve gives the rational solve's status, rank and solution."""

    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_rectangular(self, n, m, rational, data):
        entry = small_rationals if rational else small_ints
        A = data.draw(matrices(n, m, entry))
        b = data.draw(st.lists(entry, min_size=n, max_size=n))
        assert_same_as_oracle(A, b)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.booleans(),
           st.sampled_from(["consistent", "perturbed", "zero"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rank_deficient(self, n, m, k, rational, rhs, data):
        # A = C R has rank at most k; b = A x is consistent, b + e usually not
        entry = small_rationals if rational else small_ints
        k = min(k, n, m)
        C = data.draw(matrices(n, k, small_ints))
        R = data.draw(matrices(k, m, entry))
        A = [[sum((c * r[j] for c, r in zip(Ci, R)), Fraction(0)) for j in range(m)]
             for Ci in C]
        if not rational:
            A = [[int(x) for x in row] for row in A]
        x = data.draw(st.lists(entry, min_size=m, max_size=m))
        b = [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in A]
        if rhs == "perturbed":
            b[data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([-1, 1]))
        elif rhs == "zero":
            b = [0] * n
        assert_same_as_oracle(A, b)

    def test_degenerate_shapes(self):
        assert_same_as_oracle([], [])
        assert_same_as_oracle([[]], [1])
        assert_same_as_oracle([[0, 0], [0, 0]], [0, 0])
        assert_same_as_oracle([[0, 0], [0, 0]], [0, Fraction(1, 3)])


class TestEliminate:
    """Every column, left of later pivots too, ends as d times the reduced form."""

    @given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_reduced_rows(self, n, m, k, data):
        # A = C R has rank at most k, so some columns are not pivots
        C = data.draw(matrices(n, min(k, n, m), small_ints))
        R = data.draw(matrices(min(k, n, m), m, small_ints))
        A = [[sum(c * r[j] for c, r in zip(Ci, R)) for j in range(m)] for Ci in C]
        M = [row[:] for row in A]
        pivots, d = eliminate(M, m)
        r = len(pivots)
        assert r == rational_oracle.gauss_solve(A, [0] * n).rank
        assert all(not any(row) for row in M[r:])
        A_P = [[row[c] for c in pivots] for row in A]
        for j in range(m):
            # column j of A is A_P x for one x, and row k of M holds d x[k]
            x = rational_oracle.gauss_solve(A_P, [row[j] for row in A]).solution
            assert [row[j] for row in M[:r]] == [d * xk for xk in x]
        if r == n:
            assert abs(d) == abs(determinant(A_P))


class TestDeterminant:
    def test_not_square(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_known_values(self):
        assert determinant([[2]]) == 2
        assert determinant([[1, 2], [3, 4]]) == -2
        assert determinant([[0, 1], [1, 0]]) == -1

    def test_fraction_entries(self):
        A = [[Fraction(1, 2), 1], [1, Fraction(3, 2)]]
        assert determinant(A) == Fraction(-1, 4)

    @given(square_matrices(4))
    @settings(max_examples=60, deadline=None)
    def test_matches_cofactor_oracle(self, A):
        assert determinant(A) == cofactor_det(A)

    @given(square_matrices(3))
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariant(self, A):
        assert determinant(A) == determinant(transpose(A))

    @given(square_matrices(3), square_matrices(3))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative(self, A, B):
        assert determinant(mat_mul(A, B)) == determinant(A) * determinant(B)


class TestSmithNormalForm:
    def test_diagonal_example(self):
        snf = smith_normal_form([[2, 0], [0, 3]])
        assert snf.diagonal == [1, 6]

    def test_known_form(self):
        # d1 = gcd of entries, d1*d2 = gcd of 2x2 minors, product = |det|
        snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf.diagonal == [2, 2, 156]
        assert snf.invariant_factors == [2, 2, 156]

    def test_rectangular(self):
        snf = smith_normal_form([[1, 2, 3], [4, 5, 6]])
        assert snf.diagonal == [1, 3]
        assert snf.rank == 2

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diagonal == [0, 0]
        assert snf.rank == 0

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_postconditions_on_random_matrices(self, n, m, data):
        M = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
        # smith_normal_form re-verifies U M V = D, the divisibility
        # chain and unimodularity internally on every call
        snf = smith_normal_form(M)
        assert all(d >= 0 for d in snf.diagonal)
        assert snf.rank == rank(M)

    def test_transforms_are_invertible(self):
        # invert_unimodular raises unless the inverse is an integer matrix
        snf = smith_normal_form([[6, 10], [15, 4]])
        for M in (snf.U, snf.V):
            assert mat_mul(M, invert_unimodular(M)) == identity(len(M))

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_transforms_are_unimodular(self, n, m, data):
        M = data.draw(matrices(n, m, st.integers(-9, 9)))
        snf = smith_normal_form(M)
        # U keeps its rank rows, which extend to a unimodular matrix iff the gcd
        # of their maximal minors is 1
        assert len(snf.U) == snf.rank
        assert not snf.U or determinantal_divisors(snf.U)[-1] == 1
        _verify_smith(M, snf.diagonal, snf.U, snf.V)  # V by its rational inverse

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(-3, 3).filter(bool), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rejects_corrupted_transform(self, n, m, delta, data):
        # a change of U_ij adds delta (M V)_j to row i of U M V, and
        # (M V)_j = 0 exactly when row j of M is 0
        M = data.draw(matrices(n, m, st.integers(-9, 9)))
        snf = smith_normal_form(M)
        U = [row[:] for row in snf.U]
        j = data.draw(st.integers(0, n - 1))
        assume(any(M[j]))
        i = data.draw(st.integers(0, len(U) - 1))  # U has a row, as M is not 0
        U[i][j] += delta
        with pytest.raises(InternalCheckFailed, match="verification failed: U M V != D"):
            _verify_smith(M, snf.diagonal, U, snf.V)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rejects_scaled_diagonal_entry(self, n, m, c, data):
        # c U_k (M V) = c d_k e_k keeps U M V = D and the chain, but column
        # k of M V = U^-1 D is d_k times a column of the unimodular U^-1,
        # whose entries have no common factor c
        M = data.draw(matrices(n, m, st.integers(-9, 9)))
        snf = smith_normal_form(M)
        assume(snf.rank)
        k = snf.rank - 1
        U = [row[:] for row in snf.U]
        U[k] = [c * x for x in U[k]]
        diagonal = snf.diagonal[:]
        diagonal[k] *= c
        with pytest.raises(InternalCheckFailed, match="not in the row lattice of D"):
            _verify_smith(M, diagonal, U, snf.V)

    def test_failure_is_an_internal_check(self):
        M = [[2, 4], [6, 8]]
        snf = smith_normal_form(M)
        with pytest.raises(InternalCheckFailed, match="verification failed: U M V != D"):
            _verify_smith(M, [2 * d for d in snf.diagonal], snf.U, snf.V)
        with pytest.raises(InternalCheckFailed, match="not unimodular"):
            _verify_smith(M, snf.diagonal, snf.U, [[2 * x for x in row] for row in snf.V])


def _swapped(rows, a, b):
    rows = list(rows)
    rows[a], rows[b] = rows[b], rows[a]
    return rows


# the dense-block faults take _dense_smith's (diagonal, V_inv) and the rows of U
# and columns of V that it was handed and made its operations on, in place


def _double_block_column(diagonal, V_inv, U, V):
    # V' with its first column doubled, of determinant 2 det V', beside the
    # inverse carried for the old V'
    V[0] = {i: 2 * x for i, x in V[0].items()}
    return diagonal, V_inv


def _double_diagonal(diagonal, V_inv, U, V):
    return [2 * d for d in diagonal], V_inv


def _scale_last_nonzero(diagonal, V_inv, U, V):
    # as in test_rejects_scaled_diagonal_entry: U M V = D and the chain hold
    k = max(k for k, d in enumerate(diagonal) if d)
    U[k] = {i: 3 * x for i, x in U[k].items()}
    return [3 * d if i == k else d for i, d in enumerate(diagonal)], V_inv


def _swap_first_and_last(diagonal, V_inv, U, V):
    # P D P for the swap P, with U -> P U, V -> V P and V_inv -> P V_inv: still
    # U M V = D with V unimodular, but the diagonal is out of its chain order
    k = len(diagonal) - 1
    U[0], U[k] = U[k], U[0]
    V[0], V[k] = V[k], V[0]
    return _swapped(diagonal, 0, k), _swapped(V_inv, 0, k)


def _add_to_an_earlier_pivot(pivots, V_cols):
    # column j_1 += column j_p: V is still unimodular, but not of the shape
    # [[T, X], [0, V']] that proves it
    exact._add_to(V_cols[pivots[0][1]], V_cols[pivots[-1][1]], 1)


def _double_a_pivot_column(pivots, V_cols):
    # column j_p doubled: T gets a 2 on its diagonal, and det V = +-2
    j = pivots[-1][1]
    V_cols[j] = {i: 2 * x for i, x in V_cols[j].items()}


class TestLibraryCertificate:
    """Faults injected into smith_normal_form's own phases trip its certificate.

    Each check is an explicit raise, so these hold under ``python -O``.
    """

    # each B has 3 to 15 unit pivots; the toroidal ones and the unit-free
    # matrix leave a dense block whose diagonal has a nonzero entry and
    # different first and last entries
    Bs = [relation_matrix(T)[0] for T in (corpus.toroidal(), corpus.toroidal_swapped(),
                                           corpus.example_4x5(), corpus.intercalate())]
    with_blocks = [[[2, 4, 4], [-6, 6, 12], [10, 4, 16]], *Bs[:2]]

    @pytest.mark.parametrize("fault, message", [
        (_double_block_column, "transform V is not unimodular"),
        (_double_diagonal, "U M V != D"),
        (_scale_last_nonzero, "not in the row lattice of D"),
        (_swap_first_and_last, "divisibility chain broken"),
    ])
    def test_rejects_faulty_dense_block(self, monkeypatch, fault, message):
        dense_smith = exact._dense_smith
        monkeypatch.setattr(exact, "_dense_smith",
                            lambda M, m, U, V: fault(*dense_smith(M, m, U, V), U, V))
        for M in self.with_blocks:
            with pytest.raises(InternalCheckFailed, match=message):
                smith_normal_form(M)

    def test_rejects_a_missing_rank_row(self, monkeypatch):
        # every row U keeps still gives its row of D, but the last nonzero d_k
        # has none, so rowlattice(D) would not be shown inside rowlattice(M V)
        certify = exact._certify
        monkeypatch.setattr(exact, "_certify", lambda M, diagonal, U, *rest:
                            certify(M, diagonal, U[:-1], *rest))
        for M in [*self.with_blocks, *self.Bs]:
            with pytest.raises(InternalCheckFailed, match="verification failed: U M V != D"):
                smith_normal_form(M)

    @pytest.mark.parametrize("fault", [_add_to_an_earlier_pivot, _double_a_pivot_column])
    def test_rejects_broken_pivot_order_shape(self, monkeypatch, fault):
        unit_reduce = exact._unit_reduce

        def faulty(M, m):
            pivots, rows, cols, block, U, V_cols = unit_reduce(M, m)
            fault(pivots, V_cols)
            return pivots, rows, cols, block, U, V_cols

        monkeypatch.setattr(exact, "_unit_reduce", faulty)
        for B in self.Bs:
            with pytest.raises(InternalCheckFailed, match="transform V is not unimodular"):
                smith_normal_form(B)

    @pytest.mark.parametrize("M, diagonal, V, order, V_inv", [
        # V's one row left out of the pivot order
        ([[2]], [4], [[2]], [], []),
        # T = V, with 1s on its diagonal, not upper triangular
        ([[-1, 3], [1, -1]], [2, 2], [[1, 3], [1, 1]], [0, 1], []),
        # a -1 left of V' = [2]; with it read as V's column -1, V_inv[-1]
        # would wrap round and make V' V_inv look like I
        ([[1, 0], [1, 1]], [1, 2], [[1, 0], [-1, 2]], [0, 1], [[1]]),
    ], ids=["row_not_in_order", "T_not_triangular", "nonzero_left_of_block"])
    def test_rejects_a_false_shape(self, M, diagonal, V, order, V_inv):
        # |det V| = 2 and M V = D, so with U = I every other check passes, on
        # diagonals that are not M's Smith forms
        assert mat_mul(M, V) == [[d if i == k else 0 for k in range(len(V))]
                                 for i, d in enumerate(diagonal)]
        sparse = exact._sparse
        with pytest.raises(InternalCheckFailed, match="transform V is not unimodular"):
            exact._certify(sparse(M), diagonal, sparse(identity(len(M))), sparse(V), order,
                           sparse(V_inv))


class TestInvertUnimodular:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            invert_unimodular([[2, 0], [0, 1]])

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            invert_unimodular([[1, 1], [1, 1]])


class TestRank:
    def test_values(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[0, 0]]) == 0
