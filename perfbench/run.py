"""Run one benchmark workload against the bitrades package in ./src.

    python3 perfbench/run.py --workload report_sweep --seed 1 --seconds 30 --trace 0

One closed-loop client in one process sends requests back to back for
--seconds and checks every answer.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 the layer modules are wrapped by the span recorder and the
last line holds the per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_SAMPLES = 21
# 20 kernel runs, about 10 ms, on each side of the import gauge the speed during it
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import reference
before = reference.seconds(20)
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bitrades, bitrades.cli
t1 = time.perf_counter()
after = reference.seconds(20)
if not bitrades.__file__.startswith(sys.argv[1]):
    sys.exit("bitrades imported from outside " + sys.argv[1])
print(repr(t1 - t0), repr((before + after) / 2))
"""

WARMUP_SEED = 10 ** 12
MIN_REQUESTS = 100  # so that at least 10 samples lie above the 90th percentile

CALLS = (
    "core.build_bitrade", "core.metrics", "exact.gauss_solve", "exact.smith_normal_form",
    "exact.determinant", "solver.solve_pointed", "geometry.dissect", "trigons.split",
    "trigons.recombine",
)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "bitrades" / "__init__.py").is_file():
        fail(f"no bitrades package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bitrades
    import bitrades.cli  # noqa: F401  (the report workload calls it)

    if not Path(bitrades.__file__).resolve().is_relative_to(SRC):
        fail(f"bitrades was imported from {bitrades.__file__}, not from {SRC}")
    return bitrades


def measure_setup():
    """Median time to import the package in a fresh interpreter: (scaled, wall).

    Each interpreter times the reference kernel around the import.  The
    first one writes the bytecode cache and is not counted, so the figure
    is the import of an installed package, whatever PYTHONDONTWRITEBYTECODE
    says in the caller's environment.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    scaled, wall = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, env=env,
        )
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.strip()}")
        if i:
            elapsed, kernel = map(float, done.stdout.split())
            scaled.append(reference.scale(elapsed, kernel))
            wall.append(elapsed)
    return statistics.median(scaled), statistics.median(wall)


class Timed:
    """Iterator wrapper that adds up the time spent producing items."""

    def __init__(self, make_items):
        t0 = time.perf_counter()
        self.items = iter(make_items())
        self.seconds = time.perf_counter() - t0

    def __next__(self):
        t0 = time.perf_counter()
        item = next(self.items)
        self.seconds += time.perf_counter() - t0
        return item


def judge(workload, item, answer, error=None):
    """The problems with one request's outcome; empty when it is right.

    An exception from the request, or from the check on an answer too
    malformed to read, is one problem of a failed request.
    """
    if error is not None:
        return [f"{type(error).__name__}: {error}"]
    try:
        return workload.check(item, answer)
    except Exception as e:
        return [f"check raised {type(e).__name__}: {e}"]


def serve(workload, items, seconds, recorder=None):
    """Closed loop: one request at a time until the time is up.

    Returns the wall latencies, the reference-kernel time around each
    request (the mean of the samples just before and just after it) and
    the failure count.  The loop sends at least MIN_REQUESTS requests and
    ends on a whole number of input cycles, so that every run sends the
    same mix of input kinds whatever the seed.
    """
    latencies = []
    kernel = []
    failed = 0
    before = reference.seconds()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(latencies) < MIN_REQUESTS
           or len(latencies) % workload.cycle):
        item = next(items)
        if recorder is not None:
            recorder.paused = False
            recorder.request = len(latencies)
            root = recorder.enter("request", tracer.HARNESS)
        t0 = time.perf_counter()
        try:
            answer = workload.run(item)
            error = None
        except Exception as e:  # an unexpected exception counts as a failed request
            error = e
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.exit(root)
            recorder.paused = True  # input generation and checks are not traced
        latencies.append(t1 - t0)
        after = reference.seconds()
        kernel.append((before + after) / 2)
        before = after
        problems = judge(workload, item, answer, error)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"request {len(latencies)} failed: {problems[:3]}", file=sys.stderr)
    return latencies, kernel, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def timing_summary(latencies):
    """(throughput per s, p50 ms, p90 ms, samples above p90)."""
    high = statistics.quantiles(latencies, n=10)[8]
    above = sum(1 for x in latencies if x > high)
    return len(latencies) / sum(latencies), statistics.median(latencies) * 1e3, high * 1e3, above


def end_to_end(latencies, kernel, setup):
    scaled = [reference.scale(x, k) for x, k in zip(latencies, kernel)]
    throughput, p50, high, above = timing_summary(scaled)
    raw = timing_summary(latencies)
    print(f"  latency_p90_ms: {above} of {len(latencies)} samples above it; setup_s is the "
          f"median of {SETUP_SAMPLES} fresh imports")
    print(f"  wall clock before rescaling: {raw[0]:.4g}/s, p50 {raw[1]:.4g} ms, "
          f"p90 {raw[2]:.4g} ms, set-up {setup[1]:.4g} s; reference kernel "
          f"{statistics.median(kernel) * 1e3:.4g} ms median (nominal "
          f"{reference.NOMINAL_S * 1e3:.4g} ms)")
    return {
        "throughput_per_s": metric(throughput, "1/s"),
        "latency_p50_ms": metric(p50, "ms"),
        "latency_p90_ms": metric(high, "ms"),
        "setup_s": metric(setup[0], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def hooks(bitrades):
    """Outcome counters read from the results of wrapped calls."""

    def singular(rec, args, kwargs, result, error):
        if isinstance(error, bitrades.solver.SingularSystem):
            rec.outcomes["solver.singular"] += 1

    def separation(rec, args, kwargs, result, error):
        if result is not None:
            rec.outcomes["trigons.separations"] += 1
            rec.outcomes["trigons.recursed"] += result[1] >= 1

    def det_pairs(rec, args, kwargs, result, error):
        if result is not None:
            rec.outcomes["groups.det_pairs"] += result.pairs_checked

    def snf_bits(rec, args, kwargs, result, error):
        if result is not None:
            bits = max((abs(x).bit_length() for M in (result.U, result.V) for row in M
                        for x in row), default=0)
            rec.outcomes["exact.snf_max_bits"] = max(rec.outcomes["exact.snf_max_bits"], bits)

    def json_bytes(rec, args, kwargs, result, error):
        text = args[0] if args else kwargs["text"]
        rec.outcomes["jsonio.bytes"] += len(text.encode("utf-8"))

    return {
        "solver.solve_pointed": singular,
        "trigons.separate_trace": separation,
        "groups.check_det_invariance": det_pairs,
        "exact.smith_normal_form": snf_bits,
        "jsonio.loads": json_bytes,
    }


def per_layer(rec, requests, costs):
    totals = tracer.layer_self_times(rec.spans)
    roots = [s for s in rec.spans if s[tracer.PARENT] is None and s[tracer.LAYER] == tracer.HARNESS]
    wall = sum(s[tracer.END] - s[tracer.START] for s in roots)
    cost_span, cost_count = costs
    opened = sum(rec.calls.values()) - rec.collapsed
    overhead = opened * cost_span + rec.collapsed * cost_count + totals[tracer.TRACING]
    inclusive = tracer.layer_inclusive_times(rec.spans)
    out = {f"{layer}.self_s": metric(totals[layer], "s") for layer in tracer.LAYERS}
    out.update(
        (f"{layer}.incl_s", metric(inclusive[layer], "s")) for layer in tracer.LAYERS)
    out["harness.self_s"] = metric(totals[tracer.HARNESS], "s")
    out["traced_wall_s"] = metric(wall, "s")
    out["tracing_overhead_s"] = metric(overhead, "s")
    out["traced_requests"] = metric(requests, "count")
    for name in CALLS:
        out[f"{name}.calls"] = metric(rec.calls[name] / requests, "count/req")
    seps = rec.outcomes["trigons.separations"]
    out["solver.singular"] = metric(rec.outcomes["solver.singular"] / requests, "count/req")
    out["trigons.separations"] = metric(seps, "count")
    out["trigons.recursed_share"] = metric(
        rec.outcomes["trigons.recursed"] / seps if seps else 0.0, "ratio")
    out["groups.det_pairs"] = metric(rec.outcomes["groups.det_pairs"] / requests, "count/req")
    out["exact.snf_max_bits"] = metric(rec.outcomes["exact.snf_max_bits"], "bits")
    out["jsonio.bytes"] = metric(rec.outcomes["jsonio.bytes"] / requests, "B/req")

    accounted = sum(totals.values())
    print(f"  spans: {len(rec.spans)} opened, {rec.collapsed} calls inside their own layer; "
          f"wrapper cost {cost_span * 1e6:.2f} us/span, {cost_count * 1e6:.2f} us/count")
    print(f"  self times sum to {accounted:.4f} s of {wall:.4f} s traced wall; "
          f"tracing overhead {overhead:.4f} s ({overhead / wall:.1%})")
    print("      layer    self share   inclusive share")
    shares = sorted(((totals[k], k) for k in (*tracer.LAYERS, tracer.HARNESS)), reverse=True)
    for seconds, layer in shares:
        print(f"  {layer:>9} {seconds:9.4f} s {seconds / wall:6.1%}"
              f" {inclusive[layer]:9.4f} s {inclusive[layer] / wall:6.1%}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bitrades = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    setup = None if args.trace else measure_setup()

    WORKDIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        # one untimed request from a stream no seed of the timed run shares
        (rundir / "warm").mkdir()
        warm_inputs = WORKLOADS[args.workload]().inputs(WARMUP_SEED + args.seed, rundir / "warm")
        warm = next(iter(warm_inputs))
        problems = judge(workload, warm, workload.run(warm))
        if problems:
            fail(f"warm-up request failed: {problems}")
        (rundir / "timed").mkdir()
        items = Timed(lambda: workload.inputs(args.seed, rundir / "timed"))
        recorder = None
        if args.trace:
            costs = tracer.calibrate()
            recorder = tracer.Recorder()
            recorder.paused = True
            uninstrument = tracer.instrument(recorder, bitrades, hooks(bitrades))
        try:
            latencies, kernel, failed = serve(workload, items, args.seconds, recorder)
        finally:
            if recorder is not None:
                uninstrument()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(latencies)
    print(f"{args.workload} seed {args.seed}: {attempted} requests, {failed} failed "
          f"(error_rate {failed / attempted:.4f}), one closed-loop client, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"  inputs: {items.seconds:.3f} s generating (not timed), "
          f"{workload.rejected} splits rejected")
    if args.trace:
        metrics = per_layer(recorder, attempted, costs)
        trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        recorder.dump(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(latencies, kernel, setup)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
