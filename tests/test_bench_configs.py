"""Every CLI job of the benchmark loads: a new load-time rule that refused
one would otherwise show only as a failed benchmark job. The workload module
is executed from its source, so nothing is written next to it."""

import json
import types
from pathlib import Path

import pytest

from peribond.cli import load_config

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    module = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), vars(module))
    return module


@pytest.mark.parametrize("seed", [7, 29])
@pytest.mark.parametrize("workload", ["screen", "compute"])
def test_every_bench_cli_config_loads(tmp_path, workload, seed):
    jobs = [job for job in load_workloads().jobs(workload, seed) if job["kind"] == "cli"]
    assert jobs
    for job in jobs:
        path = tmp_path / f"{job['name']}.json"
        path.write_text(json.dumps(job["config"]))
        cfg = load_config(str(path), overrides={
            "out": str(tmp_path / job["name"]), "seed": job["seed"], "threads": 1,
            "no-timestamp": True,
        })
        assert cfg["run"]["task"] == job["config"]["run"]["task"], job["name"]
