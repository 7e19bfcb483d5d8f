"""Steadiness self-check: two sets of runs of the same code must agree.

    python3 bench/steady.py

Runs the command in BENCHMARK.json on each of its workloads, two sets of
ten runs each, with its run_seconds, --trace 0, seeds 1, 2, 3, ... (a
fresh one per run) and the workloads interleaved, so that a slow spell of
the host falls on every workload alike. For every workload and end-to-end
metric it prints each set's median and quartiles, the spread (quartile
distance over the median) of each set and of all runs pooled, and whether
the sets agree within the metric's bound:
  - the two sets' medians differ by at most the bound, either way, and
  - each set's spread is within the bound; setup_s is held to its medians
    only, since each run's value is a median of a few spawn times that move
    with the host's slow phases (sets of five have spread by up to 0.31), and
  - the share of failed jobs is the same in both sets, and every run is
    correct.
A pooled spread above a third of the bound is flagged as "wide". The raw
results go to bench/out/steady-<time>.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Runs per set and workload: ten, because quartiles of five values move
# with a single run (a set of five has spread by 0.26 where all ten spread
# by 0.17).
RUNS = 10


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {w: ([], []) for w in names}
    seed = 1
    for s in range(2):
        for _ in range(RUNS):
            for workload in names:
                result = _run(spec["command"], workload, seed, spec["run_seconds"])
                results[workload][s].append({"seed": seed, **result})
                seed += 1
                values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                print(f"set {s + 1} {workload:<9} seed {seed - 1:<4} "
                      f"failed {result['failed']}/{result['attempted']} {values}", flush=True)

    agree = True
    print()
    print(f"{'workload':<9} {'metric':<12} {'set':<4} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for workload, sets in results.items():
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        if shares[0] != shares[1] or not all(r["correct"] for runs in sets for r in runs):
            agree = False
            print(f"{workload}: failed shares {shares}, correct "
                  f"{all(r['correct'] for runs in sets for r in runs)}: DISAGREE")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            for s, values in enumerate(per_set):
                q1, q2, q3 = statistics.quantiles(values, n=4)
                print(f"{workload:<9} {name:<12} {s + 1:<4} {q2:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                      f"{_spread(values):>7.3f} {bound:>6.2f}")
            pooled = _spread(per_set[0] + per_set[1])
            m1, m2 = statistics.median(per_set[0]), statistics.median(per_set[1])
            shift = (m2 - m1) / m1
            ok = abs(shift) <= bound and (name == "setup_s" or all(
                _spread(v) <= bound for v in per_set))
            agree &= ok
            print(f"{workload:<9} {name:<12} all  pooled spread {pooled:.3f}"
                  f"{' (wide)' if pooled > bound / 3 and name != 'setup_s' else ''}, "
                  f"set 2 median moved {shift:+.3f}: {'agree' if ok else 'DISAGREE'}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"\n{'the two sets agree' if agree else 'the two sets DISAGREE'}; raw results in {path}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
