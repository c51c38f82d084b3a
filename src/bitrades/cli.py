"""Command-line front end for batch bitrade analysis.

Exit codes: 0 success, 2 axiom violation, 3 parse/usage error (argparse's
own usage errors, a bad input or output path, a bad option value too),
4 singular pointed system, 5 solution not separated (also ``separate`` on
a bitrade that is not spherical, where no trigon split is proven), 6
internal check failed (a run-time self-check of a proven property did
not hold: an ``InternalCheckFailed``).  ``report`` analyses its files in turn in the
calling thread (``--jobs`` has no effect); a ``BitradeError`` or
``AssertionError`` raised after a file loads becomes that file's status.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
# not called here: the benchmark's tracer tests check this binding
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from . import core, geometry, groups, jsonio, solver, trigons

EXIT_OK = 0
EXIT_AXIOM = 2
EXIT_PARSE = 3
EXIT_SINGULAR = 4
EXIT_NOT_SEPARATED = 5
EXIT_INTERNAL = 6


def _pick_pivot(T, spec):
    """Default pivot: first star triple in canonical order."""
    if spec is None:
        return T.star[0]
    names = tuple(spec.split(","))
    if len(names) != 3:
        raise jsonio.ParseError(f"pivot must be row,col,sym: {spec!r}")
    for t in T.star:
        if t.names() == names:
            return t
    raise jsonio.ParseError(f"pivot {spec!r} is not a star triple")


def cmd_validate(args):
    T = jsonio.load(args.file)
    met = core.metrics(T)
    info = met.as_dict()
    info["indecomposable"] = T.indecomposable
    if met.separated:
        info["trigons"] = len(trigons.find_trigons(T))
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"valid bitrade: size {met.size}, m {met.m} "
              f"({met.o1} rows, {met.o2} cols, {met.o3} syms)")
        print(f"indecomposable: {info['indecomposable']}")
        print(f"separated: {met.separated}")
        kind = "spherical" if met.spherical else "non-spherical"
        genus = f", genus {met.genus}" if met.genus is not None else ""
        print(f"{kind} (euler characteristic {met.euler_characteristic}{genus})")
        if "trigons" in info:
            print(f"trigons: {info['trigons']}")
    return EXIT_OK


def cmd_solve(args):
    T = jsonio.load(args.file)
    pivot = _pick_pivot(T, args.pivot)
    sol = solver.solve_pointed(solver.PointedBitrade(T, pivot))
    separated, witness = solver.is_separated_solution(sol)
    width = sol.width()
    if args.json:
        doc = {
            "pivot": list(pivot.names()),
            "values": {lab.name: str(v) for lab, v in sorted(sol.values.items())},
            "width": width,
            "separated": separated,
        }
        if witness:
            doc["collision"] = [witness[1].name, witness[2].name]
        print(json.dumps(doc, indent=2))
    else:
        print(f"pivot: {pivot}")
        for role in (core.ROW, core.COL, core.SYM):
            vals = " ".join(
                f"{lab.name}={sol.values[lab]}" for lab in T.universe(role)
            )
            print(f"  {vals}")
        print(f"width: {width}")
        if separated:
            print("separated: yes")
        else:
            print(f"separated: no (collision {witness[1]} = {witness[2]})")
    return EXIT_OK


def cmd_dissect(args):
    T = jsonio.load(args.file)
    pivot = _pick_pivot(T, args.pivot)
    sol = solver.solve_pointed(solver.PointedBitrade(T, pivot))
    tris, report = geometry.dissect(sol)
    print(f"{len(tris)} triangles, total area {report.area_total}")
    print(f"dissection: {report.is_dissection}, "
          f"separated dissection: {report.is_separated_dissection}")
    if args.svg:
        svg = geometry.to_svg(sol, labels=args.labels)
        Path(args.svg).write_text(svg, encoding="utf-8")
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_embed(args):
    T = jsonio.load(args.file)
    G = groups.presentation(T)
    H = groups.subgroup_H(T)
    embeddable, witness = groups.is_abelian_embeddable(T)
    r, nullity, trivial_only = groups.integer_homotopy_rank(T)
    det = groups.check_det_invariance(T) if T.spherical else None
    if args.json:
        doc = {
            "G": {"free_rank": G.free_rank, "invariant_factors": list(G.invariant_factors)},
            "H": {"free_rank": H.free_rank, "invariant_factors": list(H.invariant_factors)},
            "embeddable": embeddable,
            "witness": [w.name for w in witness] if witness else None,
            "rank": r,
            "nullity": nullity,
            "trivial_integer_homotopies_only": trivial_only,
        }
        if det:
            doc["det_invariance"] = {
                "common_value": det.common_value,
                "pairs_checked": det.pairs_checked,
            }
        print(json.dumps(doc, indent=2))
    else:
        print(f"G = {G}")
        print(f"H = {H}")
        if embeddable:
            print("abelian-embeddable: yes")
        else:
            print(f"abelian-embeddable: no (witness {witness[0]} = {witness[1]})")
        print(f"relation matrix: rank {r}, nullity {nullity}, "
              f"trivial integer homotopies only: {trivial_only}")
        if det:
            print(f"deleted-column determinants: common value {det.common_value} "
                  f"over {det.pairs_checked} pairs")
    return EXIT_OK


def cmd_separate(args):
    T = jsonio.load(args.file)
    i = args.coord - 1
    if i not in (0, 1, 2):
        raise jsonio.ParseError("--coord must be 1, 2 or 3")
    x_name, y_name = args.pair
    universe = T.universe(i)
    by_name = {lab.name: lab for lab in universe}
    try:
        x, y = by_name[x_name], by_name[y_name]
    except KeyError as e:
        raise jsonio.ParseError(f"unknown label {e.args[0]!r} for coordinate {args.coord}")
    if args.pivot:
        a = _pick_pivot(T, args.pivot)
        if a[i] == y:
            x, y = y, x
        elif a[i] != x:
            raise jsonio.ParseError("pivot carries neither label of the pair")
    else:
        a = next(t for t in T.star if t[i] == x)
    b = next(t for t in T.star if t[i] == y)
    hom, depth = trigons.separate_trace(T, a, b, i)
    print(f"modulus: {hom.modulus}")
    for role in (core.ROW, core.COL, core.SYM):
        vals = " ".join(f"{lab.name}={hom.maps[lab]}" for lab in T.universe(role))
        print(f"  {vals}")
    print(f"separates {x} = {hom.maps[x]} from {y} = {hom.maps[y]}")
    print(f"recursion depth: {depth}")
    return EXIT_OK


def cmd_trigons(args):
    T = jsonio.load(args.file)
    found = trigons.find_trigons(T)
    if not found:
        print("none")
    for tg in found:
        corners = ", ".join(repr(q) for q in tg.corners)
        print(f"{tg.triple} corners: {corners} arcs: {tg.arc_lengths}")
    return EXIT_OK


REPORT_FIELDS = [
    "path", "pivot", "size", "m", "genus", "status",
    "separated_solution", "width", "trigons", "H", "det_B",
]


def _report_file(path):
    """All report rows for one input file; errors become status values."""
    try:
        T = jsonio.load(path)
    except core.AxiomViolation as e:
        return [{"path": path.name, "status": f"axiom {e.axiom}"}]
    except (jsonio.ParseError, core.BitradeError, OSError):
        return [{"path": path.name, "status": "parse error"}]
    try:
        return _report_rows(path, T)
    except (core.BitradeError, AssertionError) as e:
        return [{"path": path.name, "status": f"error {type(e).__name__}"}]


def _report_rows(path, T):
    met = core.metrics(T)
    trigon_count = len(trigons.find_trigons(T)) if met.separated else ""
    H = groups.subgroup_H(T)
    det = groups.check_det_invariance(T) if T.spherical else None
    base = {
        "path": path.name,
        "size": met.size,
        "m": met.m,
        "genus": met.genus if met.genus is not None else "",
        "trigons": trigon_count,
        "H": str(H),
        "det_B": det.common_value if det else "",
    }
    rows = []
    for pivot in T.star:
        row = dict(base, pivot="{},{},{}".format(*pivot.names()))
        try:
            sol = solver.solve_pointed(solver.PointedBitrade(T, pivot))
        except solver.SingularSystem:
            row.update(status="singular", separated_solution="", width="")
        else:
            separated, _ = solver.is_separated_solution(sol)
            row.update(
                status="ok",
                separated_solution=str(separated).lower(),
                width=sol.width(),
            )
        rows.append(row)
    return rows


def cmd_report(args):
    directory = Path(args.dir)
    if not directory.is_dir():
        raise jsonio.ParseError(f"{args.dir} is not a directory")
    if args.jobs < 1:
        raise jsonio.ParseError(f"--jobs must be at least 1, not {args.jobs}")
    # opened before any file is analysed, so a bad output path fails at once
    sink = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with sink as out:
        writer = csv.DictWriter(out, fieldnames=REPORT_FIELDS, restval="")
        writer.writeheader()
        for path in sorted(directory.glob("*.json")):
            writer.writerows(_report_file(path))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ParseError on a usage error, so it exits 3 like every other one."""

    def error(self, message):
        raise jsonio.ParseError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="bitrades", description="latin bitrade analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check axioms and report metrics")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the pointed linear system exactly")
    p.add_argument("file")
    p.add_argument("--pivot")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dissect", help="build and verify the triangle dissection")
    p.add_argument("file")
    p.add_argument("--pivot")
    p.add_argument("--svg", help="write the dissection as SVG to this path")
    p.add_argument("--labels", action="store_true", help="label triangles in the SVG")
    p.set_defaults(func=cmd_dissect)

    p = sub.add_parser("embed", help="group invariants and embeddability")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("separate", help="homotopy distinguishing two labels")
    p.add_argument("file")
    p.add_argument("--pair", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--coord", type=int, required=True,
                   help="1 = rows, 2 = columns, 3 = symbols")
    p.add_argument("--pivot")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("trigons", help="list all trigons")
    p.add_argument("file")
    p.set_defaults(func=cmd_trigons)

    p = sub.add_parser("report", help="CSV summary over a directory of inputs")
    p.add_argument("dir")
    p.add_argument("-o", "--output")
    p.add_argument("--jobs", type=int, default=1, help="must be at least 1; no effect, "
                   "files are analysed in turn since the work holds the GIL")
    p.set_defaults(func=cmd_report)

    return parser


# built on the first call of main and reused: building it costs about
# 1.4 ms, a quarter of a small report
_parser = functools.cache(build_parser)


# the first row whose exception types match decides the exit code
EXIT_CODES = (
    ((jsonio.ParseError, trigons.ArgumentError, OSError), EXIT_PARSE, ""),
    ((core.AxiomViolation, core.EmptyInput), EXIT_AXIOM, ""),
    (solver.SingularSystem, EXIT_SINGULAR, ""),
    ((geometry.NotSeparatedSolution, trigons.NotSpherical), EXIT_NOT_SEPARATED, ""),
    (core.InternalCheckFailed, EXIT_INTERNAL, "internal check failed: "),
)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except Exception as e:
        for kinds, code, prefix in EXIT_CODES:
            if isinstance(e, kinds):
                print(f"error: {prefix}{e}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
