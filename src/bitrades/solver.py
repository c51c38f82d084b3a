"""Exact integer solving of the pointed linear system of a bitrade.

For a bitrade T with a pivot star triple a, the system Eq(T, a) fixes
the pivot's row and column values at 0 and its symbol value at 1, drops
the pivot's own equation, and asks for row + col = sym on every other
star triple.  A spherical bitrade has a unique solution; the solution
values induce integer homotopies into cyclic groups.

Eq(T, a) is B x = -e_a, B the relation matrix (one row row + col - sym
per star triple), with x = 0 at the pivot's row and column labels.  As
ker B always holds the trivial homotopies k1 (1 on rows and symbols)
and k2 (1 on columns and symbols), a solution x of B x = -e_a gives the
solution x - x[a.row] k1 - x[a.col] k2 of Eq(T, a), which has rank
rank(B) - 1 and nullity nullity(B) - 2.  B's certified Smith form
U B V = D, computed once per bitrade and kept on it
(``_relation_smith``), is the one factorisation of B: ``solve_pointed``
reads every pivot's system off it, and ``groups`` reads G(T), H(T) and
the deleted-column minors off it.

The form keeps only U's first r = rank B rows, and one candidate decides
whether Eq(T, a) is consistent.  With d = d_r, the largest nonzero d_k,
which every d_k divides, and i the pivot's row of B, the candidate is
x = V z with z_k = -U[k][i] d / d_k for k < r and 0 past r.  B x = -e_a
has a rational solution iff B x = -d e_a, x / d then being one:

- The certificate proves U_r B V = D_r on U's r rows, V unimodular, and
  B V = 0 past column r.
- Let y solve B y = -e_a, and write y = V w.  Then D_r w_{<r} =
  U_r B V w = -U_r e_a, so w_k = z_k / d for k < r.  As B V is 0 past
  column r, B y = B V w = B V z / d = B x / d, so B x = -d e_a.

So when r < size(T), a candidate that breaks an equation of B x = -d e_a
(the equation of each star triple but a, of Eq(T, a), or a's symbol at d)
proves the system inconsistent.  When r = size(T), B has full row rank,
every such system is consistent, and a broken equation is a fault that
raises InternalCheckFailed.

A solution is solved and checked in integers: d times the values, d
from the Smith diagonal, reduced once to (n, n * values) over the width
n, the lcm of the values' denominators.  ``Solution`` holds that pair
as ``scaled``, which every reader in the library uses, and builds the
``Fraction`` values only when ``values`` is read.

``solve_pointed`` keeps each pivot's checked answer on its bitrade (the
pair (n, n * values), or the rank, nullity and status of a singular
system), so a (T, a) solved again, as by the separations that share one
pivot, is not solved again.  Only plain integers are kept, never a
``Solution``: it refers back to the bitrade, and that cycle would leave
the bitrade for the cyclic garbage collector to free instead of
reference counting.

A piece of a trigon split takes no Smith form of its own at its outer
pivots or its trigon triple.  ``split`` of a spherical T sets each piece's
``_source`` to T, and the piece's solutions are read off T's:

- Both pieces are built from T's triples, plus the trigon triple c, so
  every equation of a piece but c's is an equation of T.  Let S be a
  piece with pivot a whose other star triples all lie in T's star, and
  α a star triple of T that is not one of them (α = a when a is in T's
  star).  T's solution y at α then satisfies every equation of Eq(S, a)
  but the normalisation at a.  The outer piece's star is part of T's,
  so this holds at each of its pivots with α = a.  The inner piece's
  star is the inner points and c, so it holds at c for every α outside
  the inner points.
- S is spherical, so Eq(S, a) has one solution, and without the
  normalisation its equations have rank size(S) - 1 over size(S) + 2
  unknowns.  Their solutions are therefore spanned by S's solution at a
  and the trivial homotopies k1 and k2.
- With leg = y[a.sym] - y[a.row] - y[a.col], the vector
  y - y[a.row] k1 - y[a.col] k2 is 0 at a's row and column and leg at
  a's symbol.  When leg != 0 it is leg times S's solution at a, on S's
  labels.  At α = a, leg is 1, and this is the plain restriction.
- An outer piece's solve at a reads T's at a, so by induction every
  outer piece at every depth reads the root's one Smith form, and an
  inner piece at c reads it through its parent.

Some α has leg != 0, so where none has, T's kept answers are corrupt
and the piece raises InternalCheckFailed.  With y_α T's solution at α
over its width n:

- Outer piece: α = a, and leg = y_a[a.sym] - y_a[a.row] - y_a[a.col] = n.
- Inner piece S at c, P the inner points (star(S) = P ∪ {c}, so |P| =
  size(S) - 1): were the leg 0 at every α outside P, each such y_α on
  S's labels would satisfy all of S's equations and so lie in ker B_S =
  span(k1, k2), S being spherical.  But T has full row rank (the premise
  that ``groups.presentation`` checks) and B y_α = -n e_α, so {y_α} ∪
  {k1, k2} spans Q^{m_T}, and on S's labels, all labels of T, it spans
  Q^{m_S}.  It would span at most span(k1, k2) and the |P| vectors y_α
  with α in P: size(S) + 1 < m_S = size(S) + 2 dimensions.

The inner piece tries first the pivots that T has already solved, most
recent first (in a separation, the pivot a2 at which the outer piece was
just solved), then T's other star triples in star order.  Only the inner
piece at a pivot other than c takes its own Smith form, as c's equation,
which is not T's, is then in its system; no caller in the library solves
it.  Both paths run the same checks on S.  A piece refers to T, but T
never to a piece, so no reference cycle forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Bitrade, BitradeError, InternalCheckFailed, Triple, first_collision
from .exact import smith_normal_form


class SingularSystem(BitradeError):
    """The pointed system has no unique solution."""

    def __init__(self, rank, nullity, status):
        self.rank = rank
        self.nullity = nullity
        self.status = status
        detail = (f"solution space dimension {nullity}" if status == "non_unique"
                  else "inconsistent equations")
        super().__init__(f"pointed system is singular (rank {rank}, {detail})")


@dataclass(frozen=True)
class PointedBitrade:
    bitrade: Bitrade
    pivot: Triple

    def __post_init__(self):
        if not self.bitrade.in_star(self.pivot):
            raise ValueError(f"pivot {self.pivot} is not a star triple")


def relation_matrix(T):
    """B: one row per star triple, columns in universe order (rows, cols, syms)."""
    labels = [lab for universe in T.universes for lab in universe]
    col_of = {lab: j for j, lab in enumerate(labels)}
    B = []
    for p in T.star:
        row = [0] * len(labels)
        row[col_of[p.row]] = 1
        row[col_of[p.col]] = 1
        row[col_of[p.sym]] = -1
        B.append(row)
    return B, labels


class Solution:
    """Exact values, one per label, for a pointed bitrade.

    ``scaled`` is (n, {label: n * value}): the values as integers over their
    width n, the lcm of their denominators.  ``values`` is {label: Fraction}.
    ``solve_pointed`` gives ``scaled``, and ``values`` is built from it on
    first read; ``Solution(pointed, values)`` derives ``scaled`` from the
    Fractions instead.
    """

    def __init__(self, pointed, values):
        self.pointed = pointed
        self.values = values  # fills the cached property of that name

    @classmethod
    def _over_width(cls, pointed, n, scaled):
        sol = cls.__new__(cls)
        sol.pointed = pointed
        sol.scaled = n, scaled
        return sol

    @property
    def bitrade(self):
        return self.pointed.bitrade

    @property
    def pivot(self):
        return self.pointed.pivot

    @functools.cached_property
    def values(self):
        n, scaled = self.scaled
        return {lab: Fraction(v, n) for lab, v in scaled.items()}

    @functools.cached_property
    def scaled(self):
        """(n, {label: n * value}): the values as integers over their lcm denominator n."""
        n, (scaled,) = _to_width([self.values.values()])
        return n, dict(zip(self.values, scaled))

    def width(self):
        """Least common multiple of the value denominators (always >= 2)."""
        n = self.scaled[0]
        if n < 2:
            raise InternalCheckFailed(f"solution width {n} is below 2")
        return n


def _to_width(rows):
    """(n, [tuple of n * x for each row]): rational rows over n, the lcm of their denominators."""
    # pairwise: math.lcm(*many) leaks memory on CPython 3.11 and 3.12
    n = functools.reduce(math.lcm, {x.denominator for row in rows for x in row}, 1)
    return n, [tuple(x.numerator * (n // x.denominator) for x in row) for row in rows]


def _relation_smith(T):
    """(labels, Smith form U B V = D of B), computed once per bitrade.

    The form is certified before it is kept on T, and its readers never
    modify it.
    """
    if T._relation_smith is None:
        B, labels = relation_matrix(T)
        T._relation_smith = labels, smith_normal_form(B)
    return T._relation_smith


def solve_pointed(pointed):
    """Solve Eq(T, a) exactly; raises SingularSystem if not unique.

    Reads B's Smith form; checks every equation of Eq(T, a), the pivot's symbol
    value 1 and, on a spherical T, the range [0, 1]; a failure raises
    InternalCheckFailed.  The checked answer is kept on T, so each (T, a) is solved
    at most once.
    """
    known = _answer(pointed.bitrade, pointed.pivot)
    if len(known) == 3:  # (rank, nullity, status), not (n, scaled)
        raise SingularSystem(*known)
    n, scaled = known
    return Solution._over_width(pointed, n, dict(scaled))


def _answer(T, a):
    """T's kept answer at a, solved on the first read (off its parent's where
    ``_from_source`` gives it, else off T's own form): Eq(T, a)'s checked
    (n, {label: n * value}), or (rank, nullity, status) if it is singular."""
    known = T._solutions.get(a)
    if known is None:  # _from_source gives None or a nonempty tuple
        known = (T._source is not None and _from_source(T, a)) or _own_form(T, a)
        T._solutions[a] = known
    return known


def _from_source(T, a):
    """Eq(T, a)'s checked answer off the first of its parent's kept answers with
    leg != 0 (a singular one counts as 0), or None at an inner piece's pivot other
    than its trigon triple.  The module docstring proves that a consistent parent
    has one, so where none has leg != 0, InternalCheckFailed is raised."""
    parent = T._source
    outside = [p for p in T.star if not parent.in_star(p)]
    if not outside:  # an outer piece: its solution at a is the parent's, restricted
        alphas = [a]
    elif outside == [a]:  # the inner piece at the trigon triple
        solved = parent._solutions
        alphas = [p for p in reversed(solved) if not T.in_star(p)]
        alphas += [p for p in parent.star if p not in solved and not T.in_star(p)]
    else:
        return None
    for alpha in alphas:
        known = _answer(parent, alpha)
        if len(known) == 3:  # singular: no solution y to read
            continue
        _, y = known
        leg = y[a.sym] - y[a.row] - y[a.col]
        if leg:
            sign = 1 if leg > 0 else -1
            shift = (y[a.row], y[a.col], y[a.row] + y[a.col])  # by role, as in _own_form
            return _checked(T, a, abs(leg), {lab: sign * (y[lab] - shift[lab.role])
                                             for universe in T.universes for lab in universe})
    raise InternalCheckFailed(f"no pivot of the spherical parent gives the piece's system at {a}")


def _own_form(T, a):
    """Eq(T, a)'s answer off T's own Smith form, through the candidate x = V z.

    The module docstring proves that x decides consistency.  Only the k with
    U[k][i] != 0 contribute to x.  When the system is consistent, x shifted by
    x[a.row] k1 + x[a.col] k2 is d times a solution of Eq(T, a).
    """
    labels, snf = _relation_smith(T)
    i = T.star.index(a)
    m, r = len(labels), snf.rank
    d = snf.diagonal[r - 1]
    x = [0] * m
    for k, (row, dk) in enumerate(zip(snf.U, snf.diagonal)):
        if row[i]:
            zk = -row[i] * (d // dk)
            x = [xj + Vj[k] * zk for xj, Vj in zip(x, snf.V)]
    x = dict(zip(labels, x))
    shift = (x[a.row], x[a.col], x[a.row] + x[a.col])  # x[a.row] k1 + x[a.col] k2 by role
    y = {lab: v - shift[lab.role] for lab, v in x.items()}
    if r < T.size and _broken(T, a, d, y):
        return r - 1, m - r - 2, "no_solution"
    if m - r > 2:
        return r - 1, m - r - 2, "non_unique"
    return _checked(T, a, d, y)


def _broken(T, a, d, y):
    """The message of the first equation of Eq(T, a) that y breaks as d times a
    solution, or None: each other star triple's, then the pivot's symbol at d."""
    for p in T.star:
        if p != a and y[p.row] + y[p.col] != y[p.sym]:
            return f"solution breaks the equation of {p}"
    if y[a.sym] != d:
        return f"solution does not fix the pivot {a}'s symbol at 1"
    return None


def _checked(T, a, d, y):
    """(d / g, y / g), g = gcd(d, *y), once y is checked to be d times Eq(T, a)'s solution.

    y is 0 at the pivot's row and column by construction.  The checks are every
    equation of Eq(T, a), the pivot's symbol at d (row a of B x = -e_a, the one
    equation not checked with the others; a parent's solution, divided by its
    leg, meets it by construction) and, on a spherical T, every value in [0, d].
    The values over their width are y and d divided by g.
    """
    broken = _broken(T, a, d, y)
    if broken:
        raise InternalCheckFailed(broken)
    if not all(0 <= v <= d for v in y.values()) and T.spherical:
        raise InternalCheckFailed("spherical solution has a value outside [0, 1]")
    g = math.gcd(d, *y.values())
    return d // g, {lab: v // g for lab, v in y.items()}


def is_separated_solution(sol):
    """Do the values distinguish every pair of labels within each role?

    Returns (True, None) or (False, (role, label, label)) with the first
    colliding pair in canonical order.
    """
    witness = first_collision(sol.bitrade, sol.scaled[1])
    return witness is None, witness


@dataclass(frozen=True)
class Homotopy:
    """Role-preserving map from labels into Z_modulus.

    Satisfies maps[row] + maps[col] == maps[sym] (mod modulus) on every
    star triple of its bitrade.
    """

    modulus: int
    maps: dict  # Label -> int

    @classmethod
    def checked(cls, T, modulus, maps):
        """Construct and verify the homotopy law; the only constructor used."""
        for p in T.star:
            if (maps[p.row] + maps[p.col] - maps[p.sym]) % modulus != 0:
                raise InternalCheckFailed(f"homotopy law fails at {p} (mod {modulus})")
        return cls(modulus, dict(maps))

    def __call__(self, lab):
        return self.maps[lab]

    def separates(self, x, y):
        return self.maps[x] % self.modulus != self.maps[y] % self.modulus


def induced_homotopy(sol):
    """Scale the solution by its width and reduce mod the width."""
    n = sol.width()
    return Homotopy.checked(sol.bitrade, n, {lab: v % n for lab, v in sol.scaled[1].items()})
