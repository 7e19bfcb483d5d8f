import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peribond import convexify as cvx
from peribond.cli import (
    _TASK_RUNNERS,
    MODELS,
    SCHEMA,
    ConfigError,
    _json_safe,
    build_model,
    list_zoo,
    load_config,
    main,
    run,
)

MR_CONFIG = """\
[run]
task = recoverability
seed = 7

[density]
kind = mooney-rivlin
alpha = 1.0
beta = 1.0
g = well
"""


def config_error(tmp_path, capsys, name, text):
    """Run the CLI on a config that must fail to load: exit 64 and no
    report. Returns the standard error."""
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out)]) == 64
    assert not out.exists()
    return capsys.readouterr().err


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "peribond.cli", *args],
        capture_output=True, text=True,
    )


def test_load_config_defaults_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MR_CONFIG)
    cfg = load_config(str(cfg_path), overrides={"quad-order": 16})
    assert cfg["run"]["task"] == "recoverability"
    assert cfg["run"]["seed"] == 7
    assert cfg["run"]["quad-order"] == 16
    assert cfg["density"]["kind"] == "mooney-rivlin"
    assert cfg["lattice"]["bound"] == 3.0  # untouched default


def test_load_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\ntask = recoverability\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text("[nonsense]\nkey = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(None, overrides={"task": "not-a-task"})
    with pytest.raises(ConfigError):
        load_config(None)  # no task at all


def test_json_config_equivalent(tmp_path):
    blob = {
        "run": {"task": "recoverability", "seed": 7},
        "density": {"kind": "mooney-rivlin", "alpha": 1.0, "beta": 1.0, "g": "well"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(blob))
    cfg = load_config(str(path))
    assert cfg["density"]["g"] == "well"
    assert cfg["run"]["seed"] == 7


def test_quadrature_check_exit_zero(tmp_path):
    out = tmp_path / "q"
    proc = run_cli("--task", "quadrature-check", "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "pass"
    assert summary["worst_second_moment_error"] <= 1e-10
    assert (out / "detail.csv").exists()


def test_recoverability_positive_control_exit_zero(tmp_path):
    out = tmp_path / "r"
    proc = run_cli("--task", "recoverability", "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "consistent"
    assert summary["density"]["kind"] == "frobenius-squared"
    # reports embed the fully resolved config
    assert summary["config"]["run"]["quad-order"] == 32
    assert summary["config"]["lattice"]["bound"] == 3.0


def test_recoverability_mooney_rivlin_exit_two(tmp_path):
    cfg = tmp_path / "mr.ini"
    cfg.write_text(MR_CONFIG)
    out = tmp_path / "mr"
    proc = run_cli("--config", str(cfg), "--out", str(out), "--no-timestamp")
    assert proc.returncode == 2, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "violated"


def test_invalid_config_exit_64(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\ntask = recoverability\nbogus = 1\n")
    proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 64
    assert "bogus" in proc.stderr
    proc = run_cli("--task", "recoverability", "--not-a-flag")
    assert proc.returncode == 64


def test_missing_config_file_exit_64(tmp_path):
    proc = run_cli("--config", str(tmp_path / "absent.ini"))
    assert proc.returncode == 64


def test_reports_byte_identical(tmp_path):
    cfg = tmp_path / "mr.ini"
    cfg.write_text(MR_CONFIG)
    out = tmp_path / "det"
    first = run_cli("--config", str(cfg), "--out", str(out), "--threads", "1",
                    "--no-timestamp")
    assert first.returncode == 2
    summary1 = (out / "summary.json").read_bytes()
    detail1 = (out / "detail.csv").read_bytes()
    second = run_cli("--config", str(cfg), "--out", str(out), "--threads", "1",
                     "--no-timestamp")
    assert second.returncode == 2
    assert (out / "summary.json").read_bytes() == summary1
    assert (out / "detail.csv").read_bytes() == detail1


def test_timestamp_present_by_default(tmp_path):
    out = tmp_path / "ts"
    proc = run_cli("--task", "quadrature-check", "--out", str(out))
    assert proc.returncode == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "timestamp" in summary


def test_list_zoo_contents_and_stability():
    text = list_zoo()
    for name in ("mooney-rivlin", "neo-hookean", "incompressible-mr",
                 "power-bond", "profile-cof"):
        assert name in text
    assert list_zoo() == text
    proc = run_cli("--list-zoo")
    assert proc.returncode == 0
    assert proc.stdout.strip() == text.strip()


def test_incompressible_density_exit_two(tmp_path):
    cfg = tmp_path / "inc.ini"
    cfg.write_text(
        "[run]\ntask = recoverability\n\n[density]\nkind = incompressible-mr\n"
        "alpha = 1.0\nbeta = 1.0\n"
    )
    out = tmp_path / "inc"
    proc = run_cli("--config", str(cfg), "--out", str(out), "--no-timestamp")
    assert proc.returncode == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "infinite-violation"


def test_converge_default_config_runs_2d_study(tmp_path):
    out = tmp_path / "conv"
    proc = run_cli("--task", "converge", "--out", str(out), "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "pass"
    assert summary["config"]["potential"]["dim"] == 2


def test_counterexamples_default_config_values(tmp_path):
    # c = 3^(-3/2) puts the default scan's first stretch (lambda = 1) at
    # diag(1, 1, sqrt(3)), where both branches have closed forms
    out = tmp_path / "cx"
    assert main(["--task", "counterexamples", "--out", str(out), "--no-timestamp"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    cof, growth = summary["stretch_scan_cof_term"], summary["stretch_scan_growth"]
    assert cof["c_value"] == growth["c_value"] == 3.0**-1.5
    assert cof["lambda_star"] == growth["lambda_star"] == 1.0
    assert cof["lhs_at_failure"] == 7.0
    assert cof["rhs_at_failure"] == pytest.approx(25.0 / 3.0, rel=1e-15)
    assert growth["lhs_at_failure"] == pytest.approx((3.0**0.5 - 1.0) ** 2, rel=1e-14)
    assert growth["rhs_at_failure"] == pytest.approx(((5.0 / 3.0) ** 1.5 - 1.0) ** 2, rel=1e-14)


def test_converge_conflicting_potential_dim_exit_64(tmp_path):
    cfg = tmp_path / "conv.ini"
    cfg.write_text("[run]\ntask = converge\n\n[potential]\ndim = 3\n")
    proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 64
    assert "dim = 3" in proc.stderr and "2D" in proc.stderr


def test_convexify_detail_csv_matches_per_point_loop(tmp_path):
    cfg = tmp_path / "cvx.ini"
    cfg.write_text(
        "[run]\ntask = convexify\n\n[density]\nkind = incompressible-mr\n\n"
        "[lattice]\nbound = 1.5\nstep = 0.5\n"
    )
    out = tmp_path / "cvx"
    proc = run_cli("--config", str(cfg), "--out", str(out), "--no-timestamp")
    assert proc.returncode in (0, 2), proc.stderr

    # reference: one row per np.ndindex point, each coordinate formatted anew
    resolved = load_config(str(cfg))
    lat = cvx.MatrixLattice(dim=3, bound=1.5, step=0.5, mode="diagonal")
    result = cvx.rank_one_convexify(build_model("density", resolved["density"]), lat)
    coords, mask = lat.coordinates, result.interior_mask
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["lattice_coordinates", "value", "interior"])
    for idx in np.ndindex(result.values.shape):
        writer.writerow([" ".join(repr(float(coords[i])) for i in idx),
                         _json_safe(float(result.values[idx])), int(mask[idx])])
    assert "inf" in buf.getvalue()
    assert (out / "detail.csv").read_bytes() == buf.getvalue().encode()


def test_list_zoo_is_the_registry():
    listed = {line.split()[0] for line in list_zoo().splitlines() if line.startswith("  ")}
    assert listed == {kind for models in MODELS.values() for kind in models}
    # byte-stable: generated from the registry, never edited by hand
    proc = run_cli("--list-zoo")
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == "0b3b0360a14319399fa566e89654a9a4"


def test_registry_roundtrip(tmp_path):
    # every density kind runs with its default keys, and the resolved config
    # embedded in summary.json rebuilds the density it describes
    for kind in MODELS["density"]:
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(
            f"[run]\ntask = recoverability\nquad-order = 16\n\n[density]\nkind = {kind}\n"
        )
        out = tmp_path / kind
        code = main(["--config", str(cfg), "--out", str(out), "--no-timestamp"])
        assert code in (0, 2), kind
        summary = json.loads((out / "summary.json").read_text())
        rebuilt = build_model("density", summary["config"]["density"])
        assert rebuilt.describe() == summary["density"]


@pytest.mark.parametrize("section, lines, named", [
    ("density", ["kind = bogus"], ["bogus"]),
    ("density", ["g = bogus"], ["bogus"]),
    ("potential", ["kind = bogus"], ["bogus"]),
    ("density", ["kind = incompressible-mr", "dim = 2"], ["incompressible-mr", "dim = 2"]),
    ("density", ["kind = profile-cof", "dim = 2"], ["profile-cof", "dim = 2"]),
    ("density", ["kind = profile-det", "dim = 2"], ["profile-det", "dim = 2"]),
], ids=["density-kind", "profile", "potential-kind", "incompressible-mr-2d",
        "profile-cof-2d", "profile-det-2d"])
def test_invalid_model_value_exit_64(tmp_path, capsys, section, lines, named):
    body = "\n".join(lines)
    err = config_error(tmp_path, capsys, "bad.ini",
                       f"[run]\ntask = quadrature-check\n\n[{section}]\n{body}\n")
    assert all(name in err for name in named), err


@pytest.mark.parametrize("name, text, named", [
    ("bad.ini", "[run]\ntask = converge\n\n[converge]\nbox = 1 x\n", ["[converge] box", "'1 x'"]),
    ("bad.json", '{"run": 5}', ["[run]", "5"]),
    ("bad.json", '{"run": {"task": "recoverability", "seed": 1.7}}', ["[run] seed", "1.7"]),
    ("bad.ini", "[run]\ntask = quadrature-check\n\n[lattice]\nbound = inf\n",
     ["[lattice] bound", "finite"]),
], ids=["floats-not-numbers", "json-section-not-object", "json-fractional-int",
        "infinite-float"])
def test_unparsable_value_exit_64(tmp_path, capsys, name, text, named):
    err = config_error(tmp_path, capsys, name, text)
    assert all(word in err for word in named), err


@pytest.mark.parametrize("task, section, line, named", [
    ("quadrature-check", "run", "quad-order = 1", ["[run] quad-order", "1"]),
    ("recoverability", "density", "dim = 4", ["[density] dim", "4"]),
    ("convexify", "lattice", "mode = bogus", ["[lattice]", "bogus"]),
    ("quadrature-check", "lattice", "step = 0.3", ["[lattice]", "step"]),
    ("quadrature-check", "lattice", "step = 0", ["[lattice]", "step", "positive"]),
    ("quadrature-check", "lattice", "dim = 0", ["[lattice]", "dim", "positive"]),
    ("convexify", "lattice", "bound = 0.5\nstep = 0.5", ["[lattice]", "bound = 0.5", "at least 1"]),
    ("convexify", "lattice", "directions = -5", ["[lattice] directions", "-5"]),
    ("quadrature-check", "lattice", "directions = 5", ["[lattice] directions", "5", "diagonal"]),
    ("convexify", "lattice", "tol = -1", ["[lattice] tol", "-1"]),
    ("convexify", "lattice", "max-sweeps = 0", ["[lattice] max-sweeps", "0"]),
    ("convexify", "lattice", "fixed-point-tol = -1", ["[lattice] fixed-point-tol", "-1"]),
    ("converge", "converge", "deltas =", ["[converge] deltas"]),
    ("converge", "converge", "deltas = 0.2", ["[converge] deltas"]),
    ("converge", "converge", "cells-per-horizon = 0", ["[converge] cells-per-horizon", "0"]),
    ("converge", "converge", "cells-per-horizon = 2", ["[converge] cells-per-horizon", "2"]),
    ("converge", "converge", "box = 1 0", ["[converge] box"]),
    ("counterexamples", "counterexamples", "lambda-count = 0", ["[counterexamples] lambda-count"]),
    ("counterexamples", "counterexamples", "a-value = 0", ["[counterexamples] a-value"]),
    ("counterexamples", "counterexamples", "lambda-max = 0.5",
     ["[counterexamples] lambda-max", "0.5", "at least 1"]),
    ("recoverability", "run", "seed = -1", ["[run] seed", "-1", "at least 0"]),
    ("recoverability", "recoverability", "rel-tol = -1", ["[recoverability] rel-tol", "-1"]),
    ("recoverability", "recoverability", "randoms = -3", ["[recoverability] randoms", "-3"]),
    ("gamma-limit", "recoverability", "trials = 0", ["[recoverability] trials", "0"]),
    ("convexify", "density", "kind = profile-cof\n\n[lattice]\ndim = 2\nmode = full",
     ["profile-cof", "[lattice] dim = 2"]),
    ("quadrature-check", "converge", "matrix = 1 2 3", ["[converge] matrix", "4"]),
], ids=["quad-order-1", "density-dim-4", "lattice-mode", "lattice-step-other-task",
        "lattice-step-0", "lattice-dim-0", "lattice-bound-below-1", "negative-directions",
        "directions-on-diagonal-lattice", "negative-tol", "no-sweeps",
        "negative-fixed-point-tol", "no-deltas", "one-delta", "no-cells-per-horizon",
        "two-cells-per-horizon", "flat-box", "no-stretches", "zero-a-value",
        "lambda-max-below-1", "negative-seed",
        "negative-rel-tol", "negative-randoms", "no-symmetry-trials", "3x3-density-2x2-lattice",
        "matrix-entries-off-box"])
def test_out_of_range_value_exit_64(tmp_path, capsys, task, section, line, named):
    text = f"[run]\ntask = {task}\n" + ("" if section == "run" else f"\n[{section}]\n")
    err = config_error(tmp_path, capsys, "bad.ini", f"{text}{line}\n")
    assert all(word in err for word in named), err


@pytest.mark.parametrize("flag, value, named", [
    ("--threads", "0", ["[run] threads", "0", "at least 1"]),
    ("--quad-order", "1", ["[run] quad-order", "1", "at least 2"]),
    ("--seed", "-1", ["[run] seed", "-1", "at least 0"]),
], ids=["threads-0", "quad-order-1", "seed-minus-1"])
def test_out_of_range_flag_exit_64(tmp_path, capsys, flag, value, named):
    out = tmp_path / "o"
    assert main(["--task", "quadrature-check", "--out", str(out), flag, value]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert all(word in err for word in named), err


@pytest.mark.parametrize("verdict, code", [
    ("pass", 0), ("consistent", 0), ("fixed-point", 0), ("confirmed", 0),
    ("fail", 2), ("violated", 2), ("infinite-violation", 2), ("lowered", 2),
    ("not-confirmed", 2),
])
def test_exit_code_follows_verdict(tmp_path, monkeypatch, verdict, code):
    def stub(cfg):
        return {"task": "stub", "verdict": verdict}, [[1]], ["value"]

    monkeypatch.setitem(_TASK_RUNNERS, "stub", stub)
    cfg = load_config(None, overrides={"task": "quadrature-check", "out": str(tmp_path),
                                       "no-timestamp": True})
    cfg["run"]["task"] = "stub"
    assert run(cfg) == code
    assert json.loads((tmp_path / "summary.json").read_text())["verdict"] == verdict


def test_readme_config_keys_match_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(readme.split("Sections and keys:", 1)[1].split(".", 1)[0].split())
    listed = {section: set(keys.split(", "))
              for section, keys in re.findall(r"`\[([\w-]+)\]` ([^;]+)", paragraph)}
    assert listed == {section: set(keys) for section, keys in SCHEMA.items()}
