import random
from fractions import Fraction

import pytest

from bitrades import corpus
from bitrades.core import COL, ROW, SYM, BitradeError, Label, Triple, build_bitrade, metrics
from bitrades.geometry import extract_bitrade

# regular subdivision of the outer triangle into 16 cells; interior grid
# vertices such as (1/4, 1/4) lie on six triangle corners
GRID16_LINES = [
    (Fraction(i, 4), Fraction(j, 4), Fraction(i + j + 1, 4))
    for i in range(4)
    for j in range(4)
    if i + j <= 3
] + [
    (Fraction(i, 4), Fraction(j, 4), Fraction(i + j - 1, 4))
    for i in range(1, 4)
    for j in range(1, 4)
    if i + j <= 4
]

HALF = Fraction(1, 2)

# the intercalate's four triangles in the outer triangle (0, 0, 1)
INTERCALATE_LINES = [
    (Fraction(0), Fraction(0), HALF),
    (Fraction(0), HALF, Fraction(1)),
    (HALF, Fraction(0), Fraction(1)),
    (HALF, HALF, HALF),
]


def split4(lines):
    """The four half-size midpoint triangles; m is half the signed leg."""
    h, v, d = lines
    m = (d - h - v) / 2
    return [(h, v, d - m), (h, v + m, d), (h + m, v, d), (h + m, v + m, d - m)]


def spherical_dissection(rng, n_triangles):
    """Line triples of a random spherical dissection with 4 + 3k triangles.

    Starting from the intercalate, split a random triangle into its four
    midpoint triangles, keeping a split only when the result extracts to
    a spherical bitrade (no six-corner vertex).
    """
    tris = list(INTERCALATE_LINES)
    for _ in range(1000):
        if len(tris) >= n_triangles:
            return tris
        i = rng.randrange(len(tris))
        candidate = tris[:i] + split4(tris[i]) + tris[i + 1:]
        try:
            if metrics(extract_bitrade(candidate).bitrade).spherical:
                tris = candidate
        except BitradeError:
            pass
    raise RuntimeError("no acceptable split found")


@pytest.fixture(scope="session")
def intercalate():
    return corpus.intercalate()


@pytest.fixture(scope="session")
def ex45():
    return corpus.example_4x5()


@pytest.fixture(scope="session")
def toroidal():
    return corpus.toroidal()


@pytest.fixture(scope="session")
def toroidal_swapped():
    return corpus.toroidal_swapped()


@pytest.fixture(scope="session")
def nested():
    return corpus.nested_intercalate()


@pytest.fixture(scope="session")
def spherical_corpus(intercalate, ex45, nested):
    return {
        "intercalate": intercalate,
        "ex45": ex45,
        "nested": nested.bitrade,
    }


@pytest.fixture(scope="session")
def seeded_dissections():
    """Line triples of seeded random spherical dissections of 4 to 25 triangles."""
    return [spherical_dissection(random.Random(seed), n)
            for seed, n in enumerate((4, 7, 10, 13, 16, 19, 22, 25))]


@pytest.fixture(scope="session")
def seeded_spherical(seeded_dissections):
    """The bitrades of the seeded dissections."""
    return [extract_bitrade(lines).bitrade for lines in seeded_dissections]


def intercalate_pair(second_row):
    """Two intercalates on disjoint columns and symbols; the second one's
    rows start at second_row, so 2 makes them disjoint and 1 shares a row."""
    labels = [[Label(role, i, "rcs"[role] + str(i)) for i in range(4)]
              for role in (ROW, COL, SYM)]

    def table(shift):
        return [Triple(labels[ROW][o * second_row // 2 + i], labels[COL][o + j],
                       labels[SYM][o + (i + j + shift) % 2])
                for o in (0, 2) for i in range(2) for j in range(2)]

    return build_bitrade(table(0), table(1))


@pytest.fixture(scope="session")
def two_intercalates():
    """The disjoint union of two intercalates: nullity(B) = 4."""
    return intercalate_pair(2)


@pytest.fixture(scope="session")
def pinched_intercalates():
    """Two intercalates sharing one row label: nullity(B) = 3."""
    return intercalate_pair(1)


@pytest.fixture(scope="session")
def sphere_and_torus(intercalate, toroidal):
    """The intercalate beside the toroidal bitrade, on disjoint labels.

    m = s + 2, yet it is not spherical: it is decomposable, a sphere beside
    a torus.  nullity(B) = 4, so rank B < s and G = Z^4 + Z2.
    """
    shift = [len(universe) for universe in intercalate.universes]

    def moved(p):
        return Triple(*(Label(lab.role, lab.index + shift[lab.role], lab.name + "'")
                        for lab in p))

    return build_bitrade([*intercalate.star, *map(moved, toroidal.star)],
                         [*intercalate.delta, *map(moved, toroidal.delta)])


def product_bitrade(T, k):
    """T times the Cayley table of Z_k: star ((r, i), (c, j), (s, i + j)).

    The product adds a Z_k factor to G and to H.
    """
    lifted = []
    for role, universe in enumerate(T.universes):
        keys = [(lab, i) for lab in universe for i in range(k)]
        lifted.append({key: Label(role, index, f"{key[0].name}.{key[1]}")
                       for index, key in enumerate(keys)})

    def lift(triples):
        return [Triple(lifted[ROW][p.row, i], lifted[COL][p.col, j],
                       lifted[SYM][p.sym, (i + j) % k])
                for p in triples for i in range(k) for j in range(k)]

    return build_bitrade(lift(T.star), lift(T.delta))


@pytest.fixture(scope="session")
def products(intercalate, ex45):
    """Products with cyclic groups, keyed by name, with their G and H."""
    return {
        "intercalate_x2": (product_bitrade(intercalate, 2), (2, (2, 2)), (0, (2, 2))),
        "intercalate_x3": (product_bitrade(intercalate, 3), (2, (6,)), (0, (6,))),
        "intercalate_x4": (product_bitrade(intercalate, 4), (2, (2, 4)), (0, (2, 4))),
        "ex45_x2": (product_bitrade(ex45, 2), (2, (2, 14)), (0, (2, 14))),
    }


def connected_sum(T1, p, T2, q):
    """T1 and T2 glued at the star triple p of T1 and the delta triple q of T2.

    T2's labels are made disjoint from T1's, except that q's three labels
    become p's; p then leaves the star and q the delta.  On the planar
    Eulerian triangulations of spherical bitrades this glues two spheres
    along a face (Cavenagh & Lisonek, "Planar Eulerian triangulations are
    equivalent to spherical Latin bitrades", JCTA 115 (2008)), so the sum
    of two spherical bitrades is spherical, of size s1 + s2 - 1.
    """
    tag = f"+{len(T1.star)}"
    shift = [1 + max(lab.index for lab in universe) for universe in T1.universes]
    moved = {}
    for role, universe in enumerate(T2.universes):
        for lab in universe:
            moved[lab] = (p[role] if lab == q[role] else
                          Label(role, lab.index + shift[role], lab.name + tag))

    def image(t):
        return Triple(*(moved[lab] for lab in t))

    star = [t for t in T1.star if t != p] + [image(t) for t in T2.star]
    delta = list(T1.delta) + [image(t) for t in T2.delta if t != q]
    return build_bitrade(star, delta)


@pytest.fixture(scope="session")
def connected_sums(spherical_corpus, seeded_spherical):
    """(sum, parts) for 20 seeded connected sums of two or three spherical bitrades.

    Each part is glued at a seeded star triple of the sum so far and a
    seeded delta triple of the part, so the sums come from no geometry.
    The parts have 4 to 12 triples and the sums 7 to 25, as the rational
    H oracle is slow.
    """
    parts = [*spherical_corpus.values(), *seeded_spherical[:3]]
    sums = []
    for seed in range(20):
        rng = random.Random(seed)
        glued = [rng.choice(parts)]
        T = glued[0]
        for _ in range(rng.randint(1, 2)):
            glued.append(rng.choice(parts))
            T = connected_sum(T, rng.choice(T.star), glued[-1], rng.choice(glued[-1].delta))
        sums.append((T, glued))
    return sums


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory, intercalate, ex45, toroidal, toroidal_swapped, nested):
    from bitrades import jsonio

    d = tmp_path_factory.mktemp("corpus")
    jsonio.dump(intercalate, d / "intercalate.json")
    jsonio.dump(ex45, d / "ex45.json")
    jsonio.dump(toroidal, d / "toroidal.json")
    jsonio.dump(toroidal_swapped, d / "toroidal_swapped.json")
    jsonio.dump(nested.bitrade, d / "nested.json")
    return d


def triple_by_names(T, r, c, s):
    return next(t for t in T.star if t.names() == (r, c, s))
