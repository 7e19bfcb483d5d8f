"""Benchmark of the peribond CLI and library, end to end and per layer.

    python3 bench/run.py --workload screen --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; jobs import peribond from ./src.
A pass runs the workload's jobs (workloads.py) one at a time, each in a
fresh interpreter (job.py), then checks every job's outputs (checks.py).
Passes repeat while the next one is expected to end within --seconds;
there is always at least one, and a run is whole passes only.

--trace 0 reports the end-to-end metrics:
  wall_s       median over passes of one pass's time, from spawning the
               first job to reaping the last, after its reports are written
  setup_s      median over every job of the time from spawn to task start
               (interpreter start, import peribond, config resolution)
  peak_rss_mb  largest peak resident set of any job (the child's rusage)
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (medians over traced passes) and the tracing
overhead, the traced minus the untraced wall time. The spans of every
traced job go to bench/out/spans-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A job fails when it crashes, exits with
another code than the paper predicts, or fails its output check; the
outputs are checked whenever the job wrote them, also after a wrong exit
code. Any failed job makes correct false.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, what it sums over a pass's jobs): a layer total
# ("layer", layer, field) or a counter ("count", key) from spans.py; None for
# the metrics _layer_pass forms otherwise.
LAYER_METRICS = {
    "import.s": ("s", None),
    "import.modules": ("count", None),
    "cli.config.s": ("s", None),
    "cli.rows.s": ("s", ("layer", "cli.task", "self_s")),
    "cli.write.s": ("s", ("layer", "cli.write", "s")),
    "cli.report_rows": ("count", None),
    "cli.report_bytes": ("bytes", None),
    "quadrature.build.s": ("s", ("layer", "quadrature.build", "s")),
    "quadrature.build.calls": ("count", ("layer", "quadrature.build", "calls")),
    "potentials.density.s": ("s", ("layer", "potentials.density", "s")),
    "potentials.density.evals": ("count", ("count", "potentials.density.evals")),
    "potentials.bond.s": ("s", ("layer", "potentials.bond", "s")),
    "potentials.bond.calls": ("count", ("layer", "potentials.bond", "calls")),
    "potentials.bond.evals": ("count", ("count", "potentials.bond.evals")),
    "pipeline.blowup.s": ("s", ("layer", "pipeline.blowup", "s")),
    "pipeline.invariances.s": ("s", ("layer", "pipeline.invariances", "s")),
    "pipeline.local_density.s": ("s", ("layer", "pipeline.local_density", "s")),
    "pipeline.local_density.calls": ("count", ("layer", "pipeline.local_density", "calls")),
    "recoverability.roundtrip.s": ("s", ("layer", "recoverability.roundtrip", "s")),
    "recoverability.roundtrip.rows": ("count", ("count", "recoverability.roundtrip.rows")),
    "recoverability.counterexamples.s": ("s", ("layer", "recoverability.counterexamples", "s")),
    "recoverability.cubic_mean.alloc_peak_mb": ("MB", None),
    "convexify.fill.s": ("s", ("layer", "convexify.fill", "s")),
    "convexify.envelope.s": ("s", ("layer", "convexify.envelope", "s")),
    "convexify.random_pass.s": ("s", ("layer", "convexify.random_pass", "s")),
    "convexify.sweeps": ("count", ("count", "convexify.sweeps")),
    "convexify.lattice_points": ("count", ("count", "convexify.lattice_points")),
    "convexify.hull_calls": ("count", ("layer", "convexify.hull", "calls")),
    "convexify.point_updates_per_s": ("1/s", None),
    "horizon.energy.s": ("s", ("layer", "horizon.energy", "s")),
    "horizon.energy.calls": ("count", ("layer", "horizon.energy", "calls")),
    "horizon.stencil.s": ("s", ("layer", "horizon.stencil", "s")),
    "horizon.stencil.offsets": ("count", ("count", "horizon.stencil.offsets")),
    "horizon.stencil.rim_cells": ("count", ("count", "horizon.stencil.rim_cells")),
    "horizon.far.s": ("s", ("layer", "horizon.energy", "self_s")),
    "horizon.near_block.s": ("s", ("layer", "horizon.near_block", "s")),
    "horizon.near_block.centers": ("count", ("count", "horizon.near_block.centers")),
    "horizon.local_reference.s": ("s", ("layer", "horizon.local_reference", "s")),
}


class JobRecord:
    """One job of one pass: what it was, how it ended, what it wrote."""

    def __init__(self, job, directory):
        self.job = job
        self.dir = directory
        self.out = directory / "out"
        self.spec = directory / "spec.json"
        self.result_path = directory / "result.json"
        self.spawn = self.end = None
        self.exit_code = None
        self.rss_kb = 0
        self.result = {}
        self.problems = []
        self.report_rows = self.report_bytes = 0

    @property
    def setup_s(self):
        return self.result["task_start"] - self.spawn

    def prepare(self, pass_id, trace):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        job = self.job
        spec = {"kind": job["kind"], "config": job["config"], "trace": trace,
                "job_id": f"{pass_id}/{job['name']}", "result": str(self.result_path)}
        if job["kind"] == "cli":
            config = self.dir / "config.json"
            config.write_text(json.dumps(job["config"], indent=1))
            spec["argv"] = ["--config", str(config), "--out", str(self.out), "--seed",
                            str(job["seed"]), "--threads", "1", "--no-timestamp"]
        self.spec.write_text(json.dumps(spec))

    def collect(self):
        """Read the result file and check the outputs (after the pass)."""
        job = self.job
        if self.result_path.exists():
            self.result = json.loads(self.result_path.read_text())
        if self.out.is_dir():
            files = [p for p in self.out.iterdir() if p.is_file()]
            self.report_bytes = sum(p.stat().st_size for p in files)
            if (self.out / "detail.csv").is_file():
                self.report_rows = (self.out / "detail.csv").read_bytes().count(b"\n") - 1
        if self.exit_code != job["expect"]:
            err = (self.dir / "stderr.txt").read_text().strip().splitlines()[-1:]
            self.problems.append(f"exit code {self.exit_code}, expected {job['expect']} {err}")
        if "task_start" not in self.result:
            self.problems.append("the job never reached its task")
            return
        if not self.out.is_dir() and "output" not in self.result:
            return  # the job wrote nothing to check
        try:
            self.problems += checks.check(job, self.out, self.result.get("output"))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"output unreadable: {exc!r}")

    @property
    def failed(self):
        return bool(self.problems)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(min(2, os.cpu_count() or 1))  # at most nproc, never above 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_pass(records, pass_id, trace, env):
    """Run every job once, in order; returns the pass's wall time."""
    for rec in records:
        rec.prepare(pass_id, trace)
    start = None
    for rec in records:
        with open(rec.dir / "stdout.txt", "wb") as out, open(rec.dir / "stderr.txt", "wb") as err:
            rec.spawn = time.monotonic()
            start = start if start is not None else rec.spawn
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "job.py"), str(rec.spec)],
                cwd=str(ROOT), env=env, stdout=out, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            rec.end = time.monotonic()
            rec.exit_code = proc.returncode = os.waitstatus_to_exitcode(status)
            rec.rss_kb = usage.ru_maxrss
    wall = records[-1].end - start
    for rec in records:
        rec.collect()
    return wall


def _layer_pass(records):
    """Per-layer values of one traced pass."""
    traces = [r.result.get("trace", {}) for r in records]

    def total(source):
        if source[0] == "layer":
            return sum(t.get("layers", {}).get(source[1], {}).get(source[2], 0) for t in traces)
        return sum(t.get("counts", {}).get(source[1], 0) for t in traces)

    values = {name: total(source) for name, (_, source) in LAYER_METRICS.items() if source}
    ran = [r.result for r in records if "import_s" in r.result]
    configs = [t["layers"]["cli.config"]["s"] for t in traces
               if "cli.config" in t.get("layers", {})]
    envelope_s = values["convexify.envelope.s"]
    values.update({
        "import.s": statistics.median(r["import_s"] for r in ran) if ran else 0.0,
        "import.modules": max((r["import_modules"] for r in ran), default=0),
        "cli.config.s": statistics.median(configs) if configs else 0.0,
        "cli.report_rows": sum(r.report_rows for r in records),
        "cli.report_bytes": sum(r.report_bytes for r in records),
        "recoverability.cubic_mean.alloc_peak_mb": max(
            t.get("counts", {}).get("recoverability.cubic_mean.alloc_peak_mb", 0.0)
            for t in traces),
        "convexify.point_updates_per_s": (
            total(("count", "convexify.point_updates")) / envelope_s if envelope_s else 0.0),
    })
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "peribond" / "__init__.py").is_file():
        print(f"error: no peribond sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # users run compiled modules
    jobs = workloads.jobs(args.workload, args.seed)
    work = OUT / f"work-{os.getpid()}"
    env = _child_env()
    modes = [False, True] if args.trace else [False]
    passes = []  # (traced, wall, records)
    started = time.monotonic()
    try:
        while True:
            for traced in modes:
                pass_id = f"p{len(passes) + 1}"
                records = [JobRecord(job, work / pass_id / job["name"]) for job in jobs]
                wall = run_pass(records, pass_id, traced, env)
                passes.append((traced, wall, records))
            elapsed = time.monotonic() - started
            cycle = elapsed / (len(passes) / len(modes))
            if elapsed + cycle > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_records = [r for _, _, records in passes for r in records]
    attempted = len(all_records)
    failed = sum(r.failed for r in all_records)
    correct = failed == 0
    for r in all_records:
        for problem in r.problems[:3]:
            print(f"FAILED {r.job['name']}: {problem}")
        if len(r.problems) > 3:
            print(f"FAILED {r.job['name']}: {len(r.problems) - 3} more problems")
    ok = [r for r in all_records if not r.failed]

    plain = [(wall, records) for traced, wall, records in passes if not traced]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced pass(es) of "
          f"{len(jobs)} jobs, walls " + " ".join(f"{w:.3f}" for w, _ in plain))
    for i, job in enumerate(jobs):
        times = [records[i].end - records[i].spawn for _, records in plain]
        print(f"  {job['name']:<36} {statistics.median(times):8.3f} s  "
              f"rss {max(records[i].rss_kb for _, records in plain) / 1024:7.1f} MB")

    if not args.trace:
        metrics = {
            "wall_s": statistics.median(w for w, _ in plain),
            "setup_s": statistics.median(r.setup_s for r in ok) if ok else float("nan"),
            "peak_rss_mb": max(r.rss_kb for r in all_records) / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        traced = [(wall, records) for t, wall, records in passes if t]
        per_pass = [_layer_pass(records) for _, records in traced]
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in LAYER_METRICS}
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(w for w, _ in plain))
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        _write_spans(args, traced)
        absent = sorted({a for _, records in traced for r in records
                         for a in r.result.get("trace", {}).get("absent", [])})
        for name in sorted(metrics):
            print(f"  {name:<42} {metrics[name]:>16.6g} {units[name]}")
        if absent:
            print("  absent (reported as 0): " + ", ".join(absent))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _write_spans(args, traced):
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for _, records in traced:
            for rec in records:
                for span in rec.result.get("trace", {}).get("spans", []):
                    fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
