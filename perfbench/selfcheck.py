#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs each workload several times through perfbench/run.py, each run with
its own seed, and reports for every end-to-end metric the median, the
quartiles and the spread (interquartile distance / median). A metric whose
spread exceeds its bound in BENCHMARK.json is flagged, as is any run whose
answers failed their checks.

With --unseen, a second set of runs on seeds the first set never used must
agree with the first: each median may not differ from the first set's, in
either direction, by more than the metric's bound.

    python3 perfbench/selfcheck.py [--workload W ...] [--runs 10] [--unseen]

Exit code 0 when nothing is flagged, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The (workload, metric) pairs on which two sets of runs of identical code
# disagreed in the benchmark's previous, rejected definition. Its serve_churn
# workload has no successor here, so those two pairs are named but not run.
HISTORICALLY_NOISY = [
    ("serve_churn", "drill_session_s", "+17.7%"),
    ("serve_churn", "warm_session_s", "+13.3%"),
    ("absentee_drill", "setup_s", "-7.0%"),
    ("compas_drill", "recommend_tail_ms", "+3.2%"),
]


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return statistics.median(values), q1, q3, spread


def run_set(workload, seeds, seconds):
    samples = {}
    broken = 0
    for seed in seeds:
        report = run_once(workload, seed, seconds)
        if not report["correct"]:
            broken += 1
            print(f"  seed {seed}: {report['failed']} of {report['attempted']} checks failed")
        for name, metric in report["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        print(f"  seed {seed}: " + " ".join(f"{name}={metric['value']:.4g}"
                                            for name, metric in report["metrics"].items()),
              flush=True)
    return samples, broken


def worse_by(first, second, better):
    """Relative change from `first` to `second`, positive when worse."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed of the first set")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--unseen", action="store_true",
                        help="repeat on unseen seeds and compare the medians")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    flagged = []
    results = {}
    for workload in workloads:
        print(f"{workload}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        first, broken = run_set(workload, range(args.seed, args.seed + args.runs), args.seconds)
        results[workload] = first
        if broken:
            flagged.append(f"{workload}: {broken} runs failed their checks")
        second = None
        if args.unseen:
            base = args.seed + 100000
            second, broken = run_set(workload, range(base, base + args.runs), args.seconds)
            if broken:
                flagged.append(f"{workload}: {broken} unseen-seed runs failed their checks")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}" + ("  unseen-seed change" if second else ""))
        for name, spec_metric in metrics.items():
            values = first.get(name)
            if not values:
                flagged.append(f"{workload}/{name}: not reported")
                continue
            median, q1, q3, spread = summarize(values)
            bound = spec_metric["bound"]
            note = ""
            if spread > bound:
                note = "  SPREAD > BOUND"
                flagged.append(f"{workload}/{name}: spread {spread:.3f} > bound {bound}")
            elif spread > bound / 3:
                note = "  (spread > bound/3)"
            line = (f"  {name:<20} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
                    f"{bound:>6}")
            if second and second.get(name):
                change = worse_by(median, statistics.median(second[name]), spec_metric["better"])
                line += f"  {change:+.3f} worse"
                if abs(change) > bound:
                    note += "  UNSEEN SEEDS DIFFER > BOUND"
                    flagged.append(f"{workload}/{name}: unseen seeds differ by {change:+.3f}")
            print(line + note)
    print("pairs on which the previous, rejected benchmark disagreed with itself:")
    for pair_workload, name, history in HISTORICALLY_NOISY:
        result = "not run: workload not in BENCHMARK.json"
        if pair_workload in results and name in results[pair_workload]:
            _, _, _, spread = summarize(results[pair_workload][name])
            result = f"spread {spread:.3f}, bound {metrics[name]['bound']}"
        elif pair_workload in (w["name"] for w in spec["workloads"]):
            result = "not run: workload not selected"
        print(f"  {pair_workload}/{name} ({history}): {result}")
    if flagged:
        print("FLAGGED:\n  " + "\n  ".join(flagged))
        return 1
    print("all spreads within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
