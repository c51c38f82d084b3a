from fractions import Fraction

import pytest

from bitrades import corpus
from bitrades.core import BitradeError, metrics
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
