"""Each answer check accepts a right answer and fires on a corrupted one."""

import csv
import dataclasses
import io
from fractions import Fraction

import pytest

import run
import workloads
from bitrades import solver


# --- report_sweep ---------------------------------------------------------


@pytest.fixture(scope="module")
def report_case(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pool")
    item = next(i for i in workloads.ReportSweep().inputs(1, workdir) if i.triangles == 7)
    code, text = workloads.ReportSweep.run(item)
    return item, code, text


def corrupt_row(text, pivot, **changes):
    """The CSV text with fields of the row for `pivot` replaced."""
    reader = csv.DictReader(io.StringIO(text))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=reader.fieldnames)
    writer.writeheader()
    for row in reader:
        if row["pivot"] == pivot:
            row.update(changes)
        writer.writerow(row)
    return out.getvalue()


def test_report_check_accepts_the_real_answer(report_case):
    item, code, text = report_case
    assert code == 0
    assert workloads.ReportSweep.check(item, (code, text)) == []


@pytest.mark.parametrize("changes", [
    {"width": "1"},  # width below 2
    {"status": "singular"},
    {"det_B": "3"},  # det_B no longer the order of H
    {"H": "Z"},  # infinite H
])
def test_report_check_fires_on_a_corrupted_row(report_case, changes):
    item, code, text = report_case
    bad = corrupt_row(text, item.outer_pivot, **changes)
    assert bad != text
    assert workloads.ReportSweep.check(item, (code, bad))


def test_report_check_fires_on_a_perturbed_outer_width(report_case):
    item, code, text = report_case
    bad = corrupt_row(text, item.outer_pivot, width=str(item.outer_width * 2))
    assert workloads.ReportSweep.check(item, (code, bad))


def test_report_check_fires_on_a_missing_row_or_exit_code(report_case):
    item, code, text = report_case
    assert workloads.ReportSweep.check(item, (code, "\n".join(text.splitlines()[:-1]) + "\n"))
    assert workloads.ReportSweep.check(item, (4, text))


def test_a_check_that_raises_on_a_malformed_row_fails_the_request(report_case):
    item, code, text = report_case
    bad = corrupt_row(text, item.outer_pivot, width="wide")
    with pytest.raises(ValueError):
        workloads.ReportSweep.check(item, (code, bad))
    problems = run.judge(workloads.ReportSweep, item, (code, bad))
    assert len(problems) == 1 and problems[0].startswith("check raised ValueError")
    assert run.judge(workloads.ReportSweep, item, (code, text)) == []
    assert run.judge(workloads.ReportSweep, item, None, KeyError("x")) == ["KeyError: 'x'"]


def test_h_order():
    assert workloads.h_order("Z2 + Z6") == 12
    assert workloads.h_order("0") == 1
    assert workloads.h_order("Z + Z4") is None


# --- pointed_dissect ------------------------------------------------------


@pytest.fixture(scope="module")
def dissect_case():
    item = next(workloads.PointedDissect().inputs(2, None))
    return item, workloads.PointedDissect.run(item)


def test_dissect_check_accepts_the_real_answer(dissect_case):
    item, answer = dissect_case
    assert workloads.PointedDissect.check(item, answer) == []


def test_dissect_check_fires_on_wrong_solution_values(dissect_case):
    item, answer = dissect_case
    values = dict(answer.solution.values)
    lab = next(lab for lab, v in values.items() if 0 < v < 1)
    values[lab] += Fraction(1, 1024)
    bad = dataclasses.replace(answer, solution=solver.Solution(answer.pointed, values))
    assert workloads.PointedDissect.check(item, bad)


def test_dissect_check_fires_on_a_bad_report_or_svg(dissect_case):
    item, answer = dissect_case
    report = dataclasses.replace(answer.report, is_dissection=False)
    assert workloads.PointedDissect.check(item, dataclasses.replace(answer, report=report))
    report = dataclasses.replace(answer.report, area_total=Fraction(1, 3))
    assert workloads.PointedDissect.check(item, dataclasses.replace(answer, report=report))
    svg = answer.svg.replace("<polygon", "<path", 1)
    assert workloads.PointedDissect.check(item, dataclasses.replace(answer, svg=svg))
    tris = answer.triangles[1:]
    assert workloads.PointedDissect.check(item, dataclasses.replace(answer, triangles=tris))


def test_dissect_check_fires_on_a_bad_homotopy(dissect_case):
    item, answer = dissect_case
    role, x, y, hom, depth = answer.separations[0]
    merged = dict(hom.maps)
    merged[y] = merged[x]  # no longer separates the pair (and breaks the law)
    unseparated = solver.Homotopy(hom.modulus, merged)
    bad = dataclasses.replace(
        answer, separations=[(role, x, y, unseparated, depth)] + answer.separations[1:])
    assert workloads.PointedDissect.check(item, bad)
    wrong_modulus = solver.Homotopy(hom.modulus + 1, hom.maps)
    bad = dataclasses.replace(
        answer, separations=[(role, x, y, wrong_modulus, depth)] + answer.separations[1:])
    assert workloads.PointedDissect.check(item, bad)


# --- group_invariants -----------------------------------------------------


def group_case(base):
    items = workloads.GroupInvariants().inputs(6, None)
    item = next(i for i in items if i.base == base)
    return item, workloads.GroupInvariants.run(item)


@pytest.fixture(scope="module")
def cayley_case():
    return group_case("cayley4")


def test_group_check_accepts_the_real_answer(cayley_case):
    item, answer = cayley_case
    assert answer.singular == "no_solution"
    assert workloads.GroupInvariants.check(item, answer) == []


@pytest.mark.parametrize("changes", [
    {"H": (0, (2,))},  # wrong invariant factor
    {"G": (1, (4,))},
    {"embeddable": False},
    {"nullity": 3},
    {"genus": 0},
    {"spherical": True},
    {"singular": None},
])
def test_group_check_fires_on_a_corrupted_answer(cayley_case, changes):
    item, answer = cayley_case
    assert workloads.GroupInvariants.check(item, dataclasses.replace(answer, **changes))


def test_group_check_verifies_a_solved_pointed_system():
    items = workloads.GroupInvariants().inputs(6, None)
    item = next(i for i in items if i.base_pivot in i.want.solvable)
    answer = workloads.GroupInvariants.run(item)
    assert answer.values is not None
    assert workloads.GroupInvariants.check(item, answer) == []
    values = dict(answer.values)
    key = next(k for k, v in values.items() if v not in (0, 1))
    values[key] += 1
    assert workloads.GroupInvariants.check(item, dataclasses.replace(answer, values=values))
    unsolved = dataclasses.replace(answer, values=None, singular="no_solution")
    assert workloads.GroupInvariants.check(item, unsolved)
