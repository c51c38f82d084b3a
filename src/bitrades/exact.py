"""Exact linear algebra over the integers, with integer arithmetic only.

Matrices come in and go out as plain lists of lists of ints.  One
routine, ``smith_normal_form``, does all elimination, and the library
calls it on one matrix only: it factors a bitrade's relation matrix B
once, and every pointed solve, G(T), H(T) and every deleted-column
minor is read off that one certified form.

``smith_normal_form`` works in two phases.  ``_unit_reduce`` eliminates
the unit pivots sparsely, on rows held as dicts of their nonzeros, in
row order: the first row that holds a +-1, on its +-1 in the column of
fewest nonzeros.  Every row of a bitrade's relation matrix is e_row +
e_col - e_sym, so every entry starts as a unit and no search for a
cheap pivot pays for itself; this is the Tietze reduction of the presentation
of G(T).  ``_dense_smith``, the dense loop, then runs only on the block
of rows and columns left over, on its rows that hold a nonzero, as no
unit is left in it; every pass of it re-picks the block's least nonzero
entry as the pivot, which keeps the transforms' entries small.  The
units come first on the diagonal.  Each row and column operation of
either phase is applied to U and V where it is made.  U keeps only its
rank rows, the rows of the nonzero d_k: the rows past the rank, a basis
of M's left kernel, have no reader.  The certificate proves on every
call that M and its diagonal D have isomorphic cokernels through
x -> x V: the divisibility chain, V unimodular, by its block-triangular
shape in pivot order, U (M V) = D on U's rows, and every column of M V
a multiple of its d_k.  It forms its products over the nonzeros of each
row.  ``solver`` computes the Smith form of a bitrade's relation matrix
once and keeps it on the bitrade; the pointed solves, G(T), H(T), the
canonical images, the rank of B and the deleted-column minors are read
from it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from typing import NamedTuple

from .core import InternalCheckFailed


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class SmithForm(NamedTuple):
    """U @ M @ V = D_r with D = diag(d_1 | d_2 | ...), certified for cokernels.

    U holds only the first r = rank rows of the row transform, one per
    nonzero d_k, and D_r is D's first r rows.  What ``smith_normal_form``
    proves on every call: d_k | d_{k+1}, so the nonzero d_k come first;
    V is unimodular; U M V = D_r; every column k of M V is a multiple of
    d_k, and 0 where d_k = 0 or k >= len(diagonal).  Hence
    rowlattice(M V) = rowlattice(D), and x -> x V maps Z^m /
    rowlattice(M) onto Z^m / rowlattice(D).  U's rows are rows of a
    unimodular matrix by construction, a product of elementary row
    operations, but that is not re-proven at run time.
    """

    diagonal: list  # length min(rows, cols), d_k >= 0, d_k | d_{k+1}
    U: list  # rank rows, each as wide as M is tall
    V: list

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def invariant_factors(self):
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(M):
    """Smith normal form of an integer matrix, with U's rank rows and V.

    Two phases.  ``_unit_reduce`` first eliminates the unit pivots
    sparsely, in row order; each becomes a 1 on the diagonal.
    ``_dense_smith`` then reduces the block of rows and columns left
    over, which holds no unit, on its rows that hold a nonzero: a zero
    row adds nothing to D and only a row of U past the rank.  Each phase
    applies its row and column operations to U and V where it makes
    them; the units come first on the diagonal, so the divisibility
    chain holds.  Every returned form has passed ``_certify`` on the
    sparse rows that the dense matrices returned are written out from;
    the SmithForm docstring says what that proves.
    """
    n = len(M)
    m = len(M[0]) if n else 0
    M = _sparse(M)
    pivots, rows, cols, block, U, V_cols = _unit_reduce(M, m)
    live = [k for k, row in enumerate(block) if any(row)]
    U_kept = [U[rows[k]] for k in live]
    V_kept = [V_cols[j] for j in cols]
    block_diagonal, V_inv = _dense_smith([block[k] for k in live], len(cols), U_kept, V_kept)
    block_rank = sum(1 for d in block_diagonal if d)
    # U' P U on the rank rows and V Q V', with P and Q putting the pivots first
    U = [{k: s * x for k, x in U[i].items()} for i, _, s in pivots] + U_kept[:block_rank]
    order = [j for _, j, _ in pivots] + cols
    V_cols = [V_cols[j] for _, j, _ in pivots] + V_kept
    V = [{} for _ in range(m)]
    for k, col in enumerate(V_cols):
        for i, x in col.items():
            V[i][k] = x
    diagonal = [1] * len(pivots) + block_diagonal
    diagonal += [0] * (min(n, m) - len(diagonal))
    _certify(M, diagonal, U, V, order, _sparse(V_inv))
    return SmithForm(diagonal, _dense(U, n), _dense(V, m))


def _add_to(dst, src, q):
    """dst += q src, in place, for sparse rows {index: nonzero value}."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _row_times(v, B):
    """The sparse row v @ B, for v and the rows of B as {index: nonzero value}."""
    out = {}
    get = out.get
    for k, a in v.items():
        for j, x in B[k].items():  # _add_to(out, B[k], a), inlined: the hottest loop
            y = get(j, 0) + a * x
            if y:
                out[j] = y
            else:
                del out[j]
    return out


def _sparse(A):
    return [dict(compress(enumerate(row), row)) for row in A]


def _dense(rows, width):
    out = []
    for row in rows:
        dense = [0] * width
        for k, x in row.items():
            dense[k] = x
        out.append(dense)
    return out


def _unit_reduce(M, m):
    """Phase 1 of ``smith_normal_form``: clear the unit pivots, sparsely.

    M is given by its rows as {column: nonzero value}, m columns wide,
    and is not modified.  Each step takes the first row i not yet
    pivoted, in row order, that holds a +-1, and pivots on the +-1 (i, j)
    of that row whose column j has the fewest nonzeros among the rows not
    yet pivoted, the lowest j on a tie.  It clears column j by adding
    multiples of row i to the other rows, then row i by adding multiples
    of column j to the other columns; those column operations change no
    entry but (i, l), as column j is 0 elsewhere.  Each row operation is
    applied to U's rows and each column operation to V's columns as it
    is made.  Returns (pivots, rows, cols, block, U, V_cols):

    - pivots, in order, as (i, j, s): s = M'[i][j] is the unit;
    - rows and cols, the indices never pivoted, in increasing order;
    - block, the dense entries of those rows on those columns, which
      hold no unit;
    - U by its rows and V by its columns, as {index: nonzero value},
      the products of the operations made: U M V is M' after them.

    After the operations, row i of a pivot is s e_j, and the rows left
    are 0 on every pivot column.
    """
    A = [dict(row) for row in M]
    U = [{i: 1} for i in range(len(A))]
    V_cols = [{j: 1} for j in range(m)]  # V by columns, which the column operations add
    holders = [set() for _ in range(m)]  # column -> the unpivoted rows nonzero there
    for i, row in enumerate(A):
        for j in row:
            holders[j].add(i)
    pivots = []
    pivoted = set()
    queue = list(range(len(A)))  # a heap of the unpivoted rows that may hold a unit
    queued = [True] * len(A)  # each row is on the heap at most once
    while queue:
        i = heappop(queue)
        queued[i] = False
        pivot_row = A[i]
        units = [(len(holders[j]), j) for j, x in pivot_row.items() if x == 1 or x == -1]
        if not units:
            continue  # until a row operation changes row i and queues it again
        j = min(units)[1]
        s = pivot_row[j]
        rest = [(l, x) for l, x in pivot_row.items() if l != j]
        for k in holders[j]:  # in any order: each operation changes row k alone
            if k == i:
                continue
            row = A[k]
            q = -s * row.pop(j)  # row k += q row i: entry (k, j) becomes 0
            _add_to(U[k], U[i], q)
            for l, x in rest:
                old = row.get(l)
                if old is None:
                    row[l] = q * x
                    holders[l].add(k)
                elif y := old + q * x:
                    row[l] = y
                else:
                    del row[l]
                    holders[l].discard(k)
            if not queued[k]:
                queued[k] = True
                heappush(queue, k)
        holders[j].clear()
        for l, x in rest:
            holders[l].discard(i)
            _add_to(V_cols[l], V_cols[j], -s * x)
        pivots.append((i, j, s))
        pivoted.add(i)
    pivot_cols = {j for _, j, _ in pivots}
    rows = [i for i in range(len(A)) if i not in pivoted]
    cols = [j for j in range(m) if j not in pivot_cols]
    block = [[A[i].get(j, 0) for j in cols] for i in rows]
    return pivots, rows, cols, block, U, V_cols


def _dense_smith(A, m, U, V):
    """(diagonal, V_inv) of the dense n x m block A's Smith form, unverified.

    A is reduced in place.  Each operation on A is also made, in place,
    on U, the sparse rows of the whole U that A's rows came from, and on
    V, the sparse columns of the whole V that A's columns came from.
    Every column operation is undone on the rows of V_inv, the block's
    inverse, so the inverse that ``_certify`` reads costs no elimination.

    One rule makes every pass: the first least nonzero entry of the
    trailing block becomes the pivot p at (t, t), and column t and row t
    are reduced by floor quotients.  A remainder, below |p|, is left to
    the next pass; else a row holding an entry that p (not a unit) does
    not divide is added to row t; else row t is negated if p < 0 and t
    steps.  |p| only falls until t steps, and small pivots keep U's and
    V's entries small.
    """
    n = len(A)
    V_inv = identity(m)

    def add_row(dst, src, q):
        if q:  # a no-op, which _add_to cannot take: it would delete keys dst lacks
            A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
            _add_to(U[dst], U[src], q)

    def add_col(dst, src, q):
        if q:
            for row in A:
                row[dst] += q * row[src]
            _add_to(V[dst], V[src], q)
            V_inv[src] = [x - q * y for x, y in zip(V_inv[src], V_inv[dst])]

    t = 0
    while t < min(n, m):
        # the first nonzero entry of least absolute value in the trailing block
        least = min((abs(x) for row in A[t:] for x in row[t:] if x), default=0)
        if not least:
            break
        i, j = next((i, j) for i in range(t, n)
                    for j, x in enumerate(A[i][t:], t) if abs(x) == least)
        A[t], A[i] = A[i], A[t]
        U[t], U[i] = U[i], U[t]
        if j != t:
            for row in A:
                row[t], row[j] = row[j], row[t]
            V[t], V[j] = V[j], V[t]
            V_inv[t], V_inv[j] = V_inv[j], V_inv[t]
        p = A[t][t]
        for i in range(t + 1, n):
            add_row(i, t, -(A[i][t] // p))
        for j in range(t + 1, m):
            add_col(j, t, -(A[t][j] // p))
        if any(A[i][t] for i in range(t + 1, n)) or any(A[t][t + 1:]):
            continue  # each remainder is below |p|, so the next pivot is smaller
        if abs(p) != 1:  # a unit divides every entry
            culprit = next((i for i in range(t + 1, n) if any(x % p for x in A[i][t + 1:])), None)
            if culprit is not None:
                add_row(t, culprit, 1)  # reducing row t then leaves a remainder
                continue
        if p < 0:
            A[t] = [-x for x in A[t]]
            U[t] = {k: -x for k, x in U[t].items()}
        t += 1

    diagonal = [A[k][k] for k in range(min(n, m))]
    return diagonal, V_inv


def _certify(M, diagonal, U, V, order, V_inv):
    """Certify rowlattice(M V) = rowlattice(D), V unimodular, and the chain.

    Rows are given as {index: nonzero value}, so zeros cost nothing.
    order lists V's rows in pivot order, the p unit pivots' columns and
    then the columns left over; V_inv is ``_dense_smith``'s inverse of
    its block, p = len(V) - len(V_inv).  In that order V must be
    [[T, X], [0, V']] with T unit upper triangular, as phase 1 only adds
    a pivot column to columns not yet pivoted; then V' V_inv = I, both
    integral, proves |det V| = |det V'| = 1.  The chain, checked first, puts
    the nonzero d_k first, and U holds one row per nonzero d_k: U (M V) =
    D on those rows, row by row, puts each nonzero row of D in
    rowlattice(M V), and D has no other; every column k of M V divisible
    by d_k (0 where d_k = 0 or past the diagonal) puts each row of M V in
    rowlattice(D).
    """
    for a, b in zip(diagonal, diagonal[1:]):
        if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InternalCheckFailed("smith normal form divisibility chain broken")
    p = len(V) - len(V_inv)
    if (sorted(order) != list(range(len(V)))
            or any(V[r].get(k) != 1 or min(V[r]) < k for k, r in enumerate(order[:p]))
            or any(min(V[r], default=p) < p
                   or _row_times({l - p: x for l, x in V[r].items()}, V_inv) != {k: 1}
                   for k, r in enumerate(order[p:]))):
        raise InternalCheckFailed("smith normal form transform V is not unimodular")
    MV = [_row_times(Mi, V) for Mi in M]
    if (len(U) != sum(1 for d in diagonal if d)
            or any(_row_times(Ui, MV) != {i: d} for i, (Ui, d) in enumerate(zip(U, diagonal)))):
        raise InternalCheckFailed("smith normal form verification failed: U M V != D")
    diag = diagonal + [0] * (len(V) - len(diagonal))
    for row in MV:
        if any(x % diag[k] if diag[k] else x for k, x in row.items()):
            raise InternalCheckFailed(
                "smith normal form verification failed: M V is not in the row lattice of D")
