"""Seeded input families for the benchmark.

Every generator takes a ``random.Random`` and is deterministic for a given
state.  The program under test only ever receives what these functions
produce: JSON text of a bitrade, or the line triples of a dissection.

Spherical family: start from the four-triangle dissection of the
intercalate and repeatedly replace a random triangle by its four
half-size midpoint triangles.  A split is kept only when
``geometry.extract_bitrade`` accepts the result (no six-corner vertex,
axioms R1-R3) and ``core.metrics`` calls it spherical; refused splits are
counted.

Non-spherical family: Cayley-table bitrades of Z_n, the corpus toroidal
pair, and direct products of the corpus intercalate and 4x5 instances
with Z_k Cayley tables, each presented under a random isotopy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from bitrades import core, corpus, geometry

HALF = Fraction(1, 2)

# The intercalate's dissection of the outer triangle y >= 0, x >= 0,
# x + y <= 1.  Lines are (horizontal y, vertical x, diagonal x + y).
INTERCALATE_LINES = (
    (Fraction(0), Fraction(0), HALF),
    (Fraction(0), HALF, Fraction(1)),
    (HALF, Fraction(0), Fraction(1)),
    (HALF, HALF, HALF),
)

OUTER_CORNERS = frozenset({(0, 0), (1, 0), (0, 1)})  # (x, y)

MAX_CONSECUTIVE_REJECTIONS = 1000


def split4(lines):
    """The four half-size triangles of a midpoint subdivision.

    The same formula serves upright and inverted triangles: m is half the
    signed leg d - h - v.
    """
    h, v, d = lines
    m = (d - h - v) / 2
    return [(h, v, d - m), (h, v + m, d), (h + m, v, d), (h + m, v + m, d - m)]


def corners(lines):
    """Corners (x, y) of the triangle cut out by the three lines."""
    h, v, d = lines
    return ((v, h), (v, d - v), (d - h, h))


def vertex_triples(lines_list):
    """Line values (y, x, x + y) of every star triple of the dissection.

    The star of the extracted bitrade is the outer triple (0, 0, 1) plus
    one triple per interior triangle corner.
    """
    points = {p for t in lines_list for p in corners(t)} - OUTER_CORNERS
    return {(Fraction(0), Fraction(0), Fraction(1))} | {(y, x, x + y) for x, y in points}


def width_of(lines_list):
    """lcm of the line-value denominators: the outer pivot's width."""
    return math.lcm(*(v.denominator for t in lines_list for v in t))


@dataclass(frozen=True)
class Dissection:
    lines: tuple  # one (h, v, d) Fraction triple per triangle
    rejected: int  # splits refused on the way


def spherical_dissection(rng, n_triangles):
    """A random spherical dissection with n_triangles = 4 + 3k triangles."""
    if n_triangles < 4 or (n_triangles - 4) % 3:
        raise ValueError("triangle count must be 4 + 3k")
    tris = list(INTERCALATE_LINES)
    rejected = streak = 0
    while len(tris) < n_triangles:
        i = rng.randrange(len(tris))
        candidate = tris[:i] + split4(tris[i]) + tris[i + 1:]
        try:
            ok = core.metrics(geometry.extract_bitrade(candidate).bitrade).spherical
        except core.BitradeError:
            ok = False
        if ok:
            tris, streak = candidate, 0
        else:
            rejected += 1
            streak += 1
            if streak > MAX_CONSECUTIVE_REJECTIONS:
                raise RuntimeError("no acceptable split found")
    return Dissection(tuple(tris), rejected)


def bitrade_json(rows, cols, syms, star, delta):
    """Input-format JSON of name lists and [row, col, sym] name triples."""
    return json.dumps({
        "rows": list(rows), "cols": list(cols), "syms": list(syms),
        "star": [list(t) for t in star], "delta": [list(t) for t in delta],
    })


def pointed_json(pointed):
    """JSON text of an extracted bitrade, and the names of its pivot."""
    T = pointed.bitrade
    names = [[lab.name for lab in T.universe(role)] for role in (core.ROW, core.COL, core.SYM)]
    star = [t.names() for t in T.star]
    delta = [t.names() for t in T.delta]
    return bitrade_json(*names, star, delta), pointed.pivot.names()


# --- non-spherical family -------------------------------------------------


def cayley_triples(n, k):
    """Star (i, j, i+j) and delta (i, j, i+j+k) over Z_n, as name triples."""
    def table(shift):
        return [(f"r{i}", f"c{j}", f"s{(i + j + shift) % n}")
                for i in range(n) for j in range(n)]
    return table(0), table(k)


def corpus_triples(T):
    return [t.names() for t in T.star], [t.names() for t in T.delta]


def product_triples(star, delta, k):
    """Direct product with the Cayley table of Z_k: ((r,i), (c,j), (s,i+j))."""
    def lift(triples):
        return [(f"{r}.{i}", f"{c}.{j}", f"{s}.{(i + j) % k}")
                for r, c, s in triples for i in range(k) for j in range(k)]
    return lift(star), lift(delta)


@dataclass(frozen=True)
class Invariants:
    """Isotopy-invariant answers pinned per base instance.

    G and H are (free rank, invariant factors); nullity is that of the
    relation matrix.  The pointed system is inconsistent at every pivot
    except the base star triples (name triples) listed in solvable.
    """

    size: int
    m: int
    genus: int | None
    G: tuple
    H: tuple
    embeddable: bool
    nullity: int
    solvable: frozenset = frozenset()  # pivots whose pointed system has a unique solution


def _cayley(n):
    """Z_n with a random delta shift k.

    G(T) = Z^2 + Z_n and H(T) = Z_n come from the star alone; the surface
    is separated, of genus (n-1)(n-2)/2, exactly when gcd(n, k) = 1.
    """
    def build(rng):
        k = rng.randrange(1, n)
        genus = (n - 1) * (n - 2) // 2 if math.gcd(n, k) == 1 else None
        return (*cayley_triples(n, k),
                Invariants(n * n, 3 * n, genus, (2, (n,)), (0, (n,)), True, 2))
    return build


def _fixed(star_delta, invariants):
    def build(rng):
        return (*star_delta(), invariants)
    return build


def _product(base, k, invariants):
    """A product with Z_k adds a Z_k factor to the group of the base star."""
    return _fixed(lambda: product_triples(*corpus_triples(base()), k), invariants)


def _corpus(base, invariants):
    return _fixed(lambda: corpus_triples(base()), invariants)


# Each entry takes the request's random stream and returns star, delta
# and the pinned answers.  The toroidal pair's H values are the ones the
# test suite pins; only three pivots of the swapped instance give a
# consistent pointed system, although its surface is not a sphere.
NON_SPHERICAL_BASES = {
    "cayley3": _cayley(3),
    "cayley4": _cayley(4),
    "cayley5": _cayley(5),
    "cayley6": _cayley(6),
    "toroidal": _corpus(
        corpus.toroidal, Invariants(18, 18, 1, (2, ()), (0, ()), False, 2)),
    "toroidal_swapped": _corpus(
        corpus.toroidal_swapped,
        Invariants(18, 18, 1, (2, (10,)), (0, (10,)), False, 2,
                   frozenset({("e", "d", "1"), ("y", "d", "5"), ("y", "f", "1")}))),
    "intercalate_x2": _product(
        corpus.intercalate, 2, Invariants(16, 12, None, (2, (2, 2)), (0, (2, 2)), True, 2)),
    "intercalate_x3": _product(
        corpus.intercalate, 3, Invariants(36, 18, None, (2, (6,)), (0, (6,)), True, 2)),
    "intercalate_x4": _product(
        corpus.intercalate, 4, Invariants(64, 24, None, (2, (2, 4)), (0, (2, 4)), True, 2)),
    "ex45_x2": _product(
        corpus.example_4x5, 2, Invariants(48, 28, None, (2, (2, 14)), (0, (2, 14)), True, 2)),
}


def isotopic_json(rng, star, delta):
    """JSON of the bitrade under a random isotopy, and the renaming used.

    Labels get fresh random names, each role's label list is shuffled
    (which re-indexes the labels) and the triple lists are shuffled.  The
    renaming is one {old name: new name} dict per role.
    """
    renames = []
    for role, prefix in enumerate("RCS"):
        names = sorted({t[role] for t in star})
        fresh = rng.sample(range(16 ** 6), len(names))
        renames.append({old: f"{prefix}{x:06x}" for old, x in zip(names, fresh)})

    def rename(triples):
        out = [rename_triple(renames, t) for t in triples]
        rng.shuffle(out)
        return out

    universes = []
    for mapping in renames:
        names = list(mapping.values())
        rng.shuffle(names)
        universes.append(names)
    return bitrade_json(*universes, rename(star), rename(delta)), renames


def rename_triple(renames, t):
    return tuple(renames[role][t[role]] for role in range(3))
