"""Self-time arithmetic and the instrumentation of the package."""

import itertools

import pytest

import bitrades
import bitrades.cli
import tracer
import workloads
from tracer import END, LAYER, PARENT, START


def span(name, layer, parent, start, end):
    return [name, layer, parent, start, end, 0]


# request 0..10: cli 1..9 with two core children 2..4 and 5..8; the
# second core span calls exact 6..7; a harness tail 9..10 is the root's own.
TREE = [
    span("request", "harness", None, 0.0, 10.0),
    span("cli.main", "cli", 0, 1.0, 9.0),
    span("core.metrics", "core", 1, 2.0, 4.0),
    span("core.metrics", "core", 1, 5.0, 8.0),
    span("exact.rank", "exact", 3, 6.0, 7.0),
]


def test_self_times_on_a_synthetic_tree():
    assert tracer.self_times(TREE) == [2.0, 3.0, 2.0, 2.0, 1.0]


def test_layer_self_times_sum_to_the_root_duration():
    totals = tracer.layer_self_times(TREE)
    assert dict(totals) == {"harness": 2.0, "cli": 3.0, "core": 4.0, "exact": 1.0}
    assert sum(totals.values()) == TREE[0][END] - TREE[0][START]


def test_overlapping_children_are_counted_once():
    # two worker threads under one parent overlap during 3..4; a child
    # sticking out of its parent is clipped to the parent's interval
    spans = [
        span("cli.main", "cli", None, 0.0, 10.0),
        span("groups.a", "groups", 0, 2.0, 4.0),
        span("groups.b", "groups", 0, 3.0, 6.0),
        span("core.c", "core", 0, 9.0, 12.0),
    ]
    assert tracer.self_times(spans)[0] == 10.0 - (4.0 + 1.0)


def test_inclusive_time_counts_reentry_once():
    spans = [
        span("request", "harness", None, 0.0, 10.0),
        span("core.x", "core", 0, 1.0, 9.0),
        span("exact.y", "exact", 1, 2.0, 8.0),
        span("core.z", "core", 2, 3.0, 4.0),
    ]
    inclusive = tracer.layer_inclusive_times(spans)
    assert inclusive["core"] == 8.0
    assert inclusive["exact"] == 6.0


def test_recorder_with_a_fake_clock():
    ticks = itertools.count()
    rec = tracer.Recorder(clock=lambda: float(next(ticks)))
    root = rec.enter("request", "harness")
    child = rec.enter("core.metrics", "core")
    rec.exit(child)
    rec.exit(root)
    assert rec.spans[child][PARENT] == root
    assert (rec.spans[root][START], rec.spans[root][END]) == (0.0, 3.0)
    assert tracer.self_times(rec.spans) == [2.0, 1.0]


@pytest.fixture
def instrumented():
    rec = tracer.Recorder()
    undo = tracer.instrument(rec, bitrades)
    try:
        yield rec
    finally:
        undo()


def test_instrument_wraps_cross_module_bindings(instrumented):
    assert hasattr(bitrades.trigons.solve_pointed, "__wrapped__")
    assert hasattr(bitrades.groups.smith_normal_form, "__wrapped__")
    assert hasattr(bitrades.build_bitrade, "__wrapped__")


def test_instrument_is_undone():
    original = bitrades.groups.smith_normal_form
    rec = tracer.Recorder()
    undo = tracer.instrument(rec, bitrades)
    assert bitrades.groups.smith_normal_form is not original
    undo()
    assert bitrades.groups.smith_normal_form is original
    assert not hasattr(bitrades.solver.Solution.width, "__wrapped__")
    assert bitrades.cli.ThreadPoolExecutor.__name__ == "ThreadPoolExecutor"


def test_report_request_spans_reach_the_request_through_the_thread_pool(tmp_path):
    item = next(i for i in workloads.ReportSweep().inputs(1, tmp_path) if i.triangles == 7)
    rec = tracer.Recorder()
    undo = tracer.instrument(rec, bitrades)
    try:
        rec.request = 0
        root = rec.enter("request", "harness")
        code, text = workloads.ReportSweep.run(item)
        rec.exit(root)
    finally:
        undo()
    assert code == 0 and workloads.ReportSweep.check(item, (code, text)) == []
    assert rec.calls["groups.subgroup_H"] == 1
    assert rec.calls["solver.solve_pointed"] == item.triangles
    assert [i for i, s in enumerate(rec.spans) if s[PARENT] is None] == [root]
    layers = {s[LAYER] for s in rec.spans}
    assert {"cli", "jsonio", "core", "exact", "solver", "groups"} <= layers
    totals = tracer.layer_self_times(rec.spans)
    wall = rec.spans[root][END] - rec.spans[root][START]
    assert sum(totals.values()) == pytest.approx(wall)
    assert totals["exact"] > 0 and totals["cli"] > 0


def test_calibrate_gives_small_positive_costs():
    span_cost, count_cost = tracer.calibrate(repeats=2000)
    assert 0 <= count_cost < 1e-3 and 0 <= span_cost < 1e-3


def test_paused_recorder_neither_counts_nor_opens_spans():
    rec = tracer.Recorder()
    undo = tracer.instrument(rec, bitrades)
    try:
        rec.paused = True
        bitrades.corpus.intercalate()
        bitrades.metrics(bitrades.corpus.example_4x5())
        assert not rec.calls and not rec.spans
        rec.paused = False
        bitrades.metrics(bitrades.corpus.example_4x5())
        assert rec.calls["core.metrics"] == 1 and rec.spans
    finally:
        undo()
