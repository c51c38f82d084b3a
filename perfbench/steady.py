"""Check that the benchmark is steady: run seeds, report medians and spreads.

    python3 perfbench/steady.py --seeds 1-10 --out a.json
    python3 perfbench/steady.py --seeds 11-20 --out b.json --compare a.json

Each run is ``perfbench/run.py`` in a fresh process, one after another,
for every workload of BENCHMARK.json and its run_seconds.
For every end-to-end metric the spread is the distance between the first
and third quartile of the runs' values (``statistics.quantiles(n=4)``)
as a share of their median; it should stay below a third of the
metric's bound in BENCHMARK.json, and a spread above the bound is a
failure.  With --compare, the medians are also compared with an earlier
set: worse by more than the bound is a failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} gave wrong answers: {done.stderr}")
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def worse_by(metric, old, new):
    """How much worse new is than old, as a share of old (negative = better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", help="write the raw results here as JSON")
    parser.add_argument("--compare", help="raw results of an earlier set to compare with")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    results = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_one(workload, seed, spec["run_seconds"]) for seed in args.seeds]
        results[workload] = runs
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{sum(r['attempted'] for r in runs)} requests, "
              f"{sum(r['failed'] for r in runs)} failed")
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            line = (f"  {name:>17} median {median:12.5g} {m['unit']:<4} "
                    f"spread {share:6.2%} (bound {m['bound']:.0%})")
            if share > m["bound"]:
                line += "  SPREAD ABOVE BOUND"
                ok = False
            elif share > m["bound"] / 3:
                line += "  spread above a third of the bound"
            if workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                change = worse_by(m, before, median)
                line += f"; vs earlier {change:+.2%}"
                if change > m["bound"]:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
