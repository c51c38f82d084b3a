"""The three benchmark workloads: inputs, one request, and its answer check.

A workload has ``inputs(seed, workdir)``, an endless iterator of request
items that depends only on the seed and repeats its mix of input kinds
every ``cycle`` items; ``run(item)``, the request, timed by the caller;
and ``check(item, answer)``, which returns a list of problems (empty when
the answer is right).  Checks compare against what the
generator knows, not against another call into the layer under test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bitrades import cli, core, geometry, groups, jsonio, solver, trigons

import families


def request_rng(seed, index):
    """The random stream of one generated item; same seed, same item."""
    return random.Random(seed * 1_000_003 + index)


def shuffled_cycle(seed, choices):
    """Endless round-robin over choices, each round in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(choices)
        rng.shuffle(order)
        yield from order


def h_order(text):
    """Order of a finite abelian group printed as 'Z2 + Z6' (or '0'); None if infinite."""
    if text == "0":
        return 1
    order = 1
    for part in text.split(" + "):
        if part == "Z":
            return None
        order *= int(part[1:])
    return order


# --- report_sweep ---------------------------------------------------------


@dataclass(frozen=True)
class ReportItem:
    directory: Path  # holds exactly one input file
    triangles: int
    outer_pivot: str  # "r,c,s" names of the generator's outer triple
    outer_width: int


class ReportSweep:
    """Spherical bitrades of 4-16 triangles through ``bitrades report``."""

    name = "report_sweep"
    sizes = (4, 7, 10, 13, 16)
    per_size = 8  # the pool repeats, so work reusable across calls recurs
    cycle = len(sizes) * per_size

    def __init__(self):
        self.rejected = 0

    def inputs(self, seed, workdir):
        pool = []
        for index, n in enumerate(s for s in self.sizes for _ in range(self.per_size)):
            d = families.spherical_dissection(request_rng(seed, index), n)
            self.rejected += d.rejected
            text, pivot = families.pointed_json(geometry.extract_bitrade(d.lines))
            directory = Path(workdir) / f"report{index:03d}"
            directory.mkdir()
            (directory / "input.json").write_text(text, encoding="utf-8")
            pool.append(ReportItem(directory, n, ",".join(pivot), families.width_of(d.lines)))
        random.Random(seed).shuffle(pool)
        return itertools.cycle(pool)

    @staticmethod
    def run(item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", str(item.directory), "--jobs", "1"])
        return code, out.getvalue()

    @staticmethod
    def check(item, answer):
        code, text = answer
        if code != 0:
            return [f"exit code {code}"]
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = []
        if len(rows) != item.triangles:
            problems.append(f"{len(rows)} rows for {item.triangles} pivots")
        outer_seen = False
        for row in rows:
            if row.get("status") != "ok":
                problems.append(f"pivot {row.get('pivot')}: status {row.get('status')}")
                continue
            width = int(row["width"])
            if width < 2:
                problems.append(f"pivot {row['pivot']}: width {width}")
            if row["det_B"] == "" or int(row["det_B"]) != h_order(row["H"]):
                problems.append(f"pivot {row['pivot']}: det_B {row['det_B']} vs H {row['H']}")
            if row["pivot"] == item.outer_pivot:
                outer_seen = True
                if width != item.outer_width:
                    problems.append(f"outer width {width}, expected {item.outer_width}")
        if not outer_seen:
            problems.append("no row for the outer pivot")
        return problems


# --- pointed_dissect ------------------------------------------------------


@dataclass(frozen=True)
class DissectItem:
    lines: tuple
    pivot_pick: int  # index among the non-outer star triples
    label_picks: tuple  # per role, index among the labels other than the pivot's


@dataclass
class DissectAnswer:
    pointed: solver.PointedBitrade
    solution: solver.Solution
    triangles: list
    report: geometry.DissectionReport
    svg: str
    separations: list  # (role, x, y, homotopy, depth)


class PointedDissect:
    """Spherical dissections of 13-25 triangles: extract, solve, dissect, separate."""

    name = "pointed_dissect"
    # an odd number of sizes puts the median and the 90th percentile
    # inside one size's latencies rather than in a gap between two sizes
    sizes = (13, 16, 19, 22, 25)
    cycle = len(sizes)

    def __init__(self):
        self.rejected = 0

    def inputs(self, seed, workdir):
        for index, n in enumerate(shuffled_cycle(seed, self.sizes)):
            rng = request_rng(seed, index)
            d = families.spherical_dissection(rng, n)
            self.rejected += d.rejected
            picks = tuple(rng.randrange(1 << 30) for _ in range(3))
            yield DissectItem(d.lines, rng.randrange(1 << 30), picks)

    @staticmethod
    def run(item):
        pointed = geometry.extract_bitrade(item.lines)
        sol = solver.solve_pointed(pointed)
        tris, report = geometry.dissect(sol)
        svg = geometry.to_svg(sol)
        T = pointed.bitrade
        others = [p for p in T.star if p != pointed.pivot]
        a = others[item.pivot_pick % len(others)]
        separations = []
        for role in (core.ROW, core.COL, core.SYM):
            labels = [lab for lab in T.universe(role) if lab != a[role]]
            y = labels[item.label_picks[role] % len(labels)]
            b = next(p for p in T.star if p[role] == y)
            hom, depth = trigons.separate_trace(T, a, b, role)
            separations.append((role, a[role], y, hom, depth))
        return DissectAnswer(pointed, sol, tris, report, svg, separations)

    @staticmethod
    def check(item, answer):
        problems = []
        T = answer.pointed.bitrade
        v = answer.solution.values
        pivot = answer.pointed.pivot
        if (v[pivot.row], v[pivot.col], v[pivot.sym]) != (0, 0, 1):
            problems.append("outer pivot values are not (0, 0, 1)")
        got = sorted((v[q.row], v[q.col], v[q.sym]) for q in T.delta)
        if got != sorted(item.lines):
            problems.append("solution lines differ from the generator's lines")
        star_values = [(v[p.row], v[p.col], v[p.sym]) for p in T.star]
        if sorted(star_values) != sorted(families.vertex_triples(item.lines)):
            problems.append("star triples differ from the dissection's vertices")
        if not answer.report.is_dissection:
            problems.append("not a dissection")
        if answer.report.area_total != Fraction(1, 2):
            problems.append(f"total area {answer.report.area_total}")
        if len(answer.triangles) != len(item.lines):
            problems.append(f"{len(answer.triangles)} triangles for {len(item.lines)}")
        polygons = answer.svg.count("<polygon")
        if polygons != len(item.lines) + 1:
            problems.append(f"{polygons} SVG polygons for {len(item.lines)} triangles")
        for role, x, y, hom, _ in answer.separations:
            n = hom.modulus
            if n < 2:
                problems.append(f"modulus {n}")
                continue
            if any((hom.maps[p.row] + hom.maps[p.col] - hom.maps[p.sym]) % n for p in T.star):
                problems.append(f"homotopy mod {n} breaks the additive law")
            if (hom.maps[x] - hom.maps[y]) % n == 0:
                problems.append(f"homotopy mod {n} does not separate {x} and {y}")
        return problems


# --- group_invariants -----------------------------------------------------


@dataclass(frozen=True)
class GroupItem:
    base: str
    text: str  # JSON of the base instance under a random isotopy
    pivot: tuple  # names of the pivot star triple in the JSON
    base_pivot: tuple  # the same triple before renaming
    star: tuple  # star name triples of the JSON
    want: families.Invariants


@dataclass(frozen=True)
class GroupAnswer:
    size: int
    m: int
    spherical: bool
    genus: int | None
    G: tuple
    H: tuple
    embeddable: bool
    nullity: int
    singular: str | None  # status of SingularSystem, None if the system solved
    values: dict | None  # (role, name) -> Fraction when it solved


class GroupInvariants:
    """Non-spherical bitrades under random isotopies: G, H, embeddability, rank."""

    name = "group_invariants"
    cycle = len(families.NON_SPHERICAL_BASES)

    def __init__(self):
        self.rejected = 0

    def inputs(self, seed, workdir):
        bases = sorted(families.NON_SPHERICAL_BASES)
        for index, base in enumerate(shuffled_cycle(seed, bases)):
            rng = request_rng(seed, index)
            star, delta, want = families.NON_SPHERICAL_BASES[base](rng)
            base_pivot = rng.choice(star)
            text, renames = families.isotopic_json(rng, star, delta)
            yield GroupItem(
                base, text, families.rename_triple(renames, base_pivot), base_pivot,
                tuple(families.rename_triple(renames, t) for t in star), want,
            )

    @staticmethod
    def run(item):
        T = jsonio.loads(item.text)
        met = core.metrics(T)
        G = groups.presentation(T)
        H = groups.subgroup_H(T)
        embeddable, _ = groups.is_abelian_embeddable(T)
        _, nullity, _ = groups.integer_homotopy_rank(T)
        pivot = next(t for t in T.star if t.names() == item.pivot)
        singular = values = None
        try:
            sol = solver.solve_pointed(solver.PointedBitrade(T, pivot))
        except solver.SingularSystem as e:
            singular = e.status
        else:
            values = {(lab.role, lab.name): v for lab, v in sol.values.items()}
        return GroupAnswer(
            met.size, met.m, met.spherical, met.genus,
            (G.free_rank, G.invariant_factors), (H.free_rank, H.invariant_factors),
            embeddable, nullity, singular, values,
        )

    @staticmethod
    def check(item, answer):
        want = item.want
        problems = []
        if answer.spherical:
            problems.append("reported spherical")
        for field in ("size", "m", "genus", "G", "H", "embeddable", "nullity"):
            got, expected = getattr(answer, field), getattr(want, field)
            if got != expected:
                problems.append(f"{item.base}: {field} {got!r}, expected {expected!r}")
        if item.base_pivot not in want.solvable:
            if answer.singular != "no_solution":
                problems.append(f"{item.base}: pointed system {answer.singular or 'solved'}, "
                                "expected no_solution")
        elif answer.values is None:
            problems.append(f"{item.base}: pointed system {answer.singular}, expected a solution")
        else:
            v = answer.values
            r, c, s = item.pivot
            if (v[0, r], v[1, c], v[2, s]) != (0, 0, 1):
                problems.append("pivot values are not (0, 0, 1)")
            if any(v[0, r] + v[1, c] != v[2, s] for r, c, s in item.star if (r, c, s) != item.pivot):
                problems.append("solution breaks an equation of the pointed system")
        return problems


WORKLOADS = {w.name: w for w in (ReportSweep, PointedDissect, GroupInvariants)}
