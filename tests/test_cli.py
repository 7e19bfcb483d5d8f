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
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond import cli, horizon
from peribond import convexify as cvx
from peribond.cli import (
    _TASK_RUNNERS,
    MODELS,
    SCHEMA,
    TASKS,
    ConfigError,
    _csv_table,
    _json_safe,
    _lattice_lines,
    _write_reports,
    build_model,
    list_zoo,
    load_config,
    main,
    run,
)
from peribond.quadrature import build_rule

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


def test_gamma_limit_reports_blowup_diagnostics_and_rule(tmp_path):
    out = tmp_path / "g"
    assert main(["--task", "gamma-limit", "--out", str(out), "--no-timestamp"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    diag = summary["limit"]["diagnostics"]
    samples = diag["scaled_samples"]
    assert diag["t"] == [2.0**-k for k in range(4, 13)] and len(samples) == 9
    assert diag["extrapolation_residual"] == abs(samples[-1] - samples[-2])
    assert summary["quadrature"] == {"dim": 3, "order": 32, "nodes": len(build_rule(3, 32))}


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


def test_converge_quad_order_drives_both_sphere_integrals(tmp_path):
    # quad-order 16 reaches the near block of each energy as well as the
    # local reference: the rows are the library study's at build_rule(2, 16).
    # On a square box the x and y walls clip equally many cells, and the
    # quadratic bond's near block sums to its exact value under any
    # symmetric face rule; an oblong box shows the rule in the energy
    cfg = tmp_path / "converge.ini"
    cfg.write_text("[run]\ntask = converge\nquad-order = 16\n\n[potential]\ndim = 2\n\n"
                   "[converge]\nbox = 1 1.3\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
    resolved = json.loads((out / "summary.json").read_text())["config"]
    pot, conv = build_model("potential", resolved["potential"]), resolved["converge"]
    field = horizon.DeformationField.affine(np.reshape(conv["matrix"], (2, 2)))

    def study(deltas, **rule):
        return horizon.convergence_study(pot, pot.beta, field, conv["box"], deltas,
                                         cells_per_horizon=conv["cells-per-horizon"], **rule)

    with open(out / "detail.csv", newline="") as fh:
        rows = [list(map(float, row)) for row in list(csv.reader(fh))[1:]]
    want = study(conv["deltas"], rule=build_rule(2, 16)).rows
    np.testing.assert_array_equal(rows, want)  # the first row's slope is nan
    # the energy itself moves with the rule, not only the local reference
    assert rows[0][1] != study(conv["deltas"][:1]).rows[0][1]


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


def test_nan_density_exits_1_without_a_report(tmp_path, capsys):
    # g(det A) = 0 * (det A)^-1 is 0 * inf = NaN where det A = 0, as on the lattice
    cfg = tmp_path / "nan.ini"
    cfg.write_text(
        "[run]\ntask = convexify\n\n"
        "[density]\nkind = profile-det\ng = power\ng-coeff = 0\ng-exponent = -1\n\n"
        "[lattice]\nmode = diagonal\ndim = 3\nbound = 1\nstep = 0.5\n"
    )
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning, match="divide by zero"):  # +inf is legal, NaN is not
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "density 'profile-det' is NaN at A = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], " \
        "[0.0, 0.0, 0.0]]" in err, err
    assert "invalid value encountered" not in err, err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("g", ["well", "indicator"])
@pytest.mark.parametrize("kind", list(MODELS["density"]))
def test_convexify_zoo_verdicts_on_a_small_lattice(tmp_path, kind, g):
    # only the profile densities of |A|^2 and |cof A| are lowered; under the
    # indicator some interior points leave +inf, an infinite change
    cfg = tmp_path / "zoo.ini"
    cfg.write_text(
        f"[run]\ntask = convexify\n\n[density]\nkind = {kind}\ng = {g}\n\n"
        "[lattice]\nmode = diagonal\ndim = 3\nbound = 1\nstep = 0.5\n"
    )
    out = tmp_path / "o"
    proc = run_cli("--config", str(cfg), "--out", str(out), "--no-timestamp")
    lowered = kind in ("profile-frobenius", "profile-cof")
    assert proc.returncode == (2 if lowered else 0), proc.stderr
    assert proc.stderr == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == ("lowered" if lowered else "fixed-point")
    if lowered and g == "indicator":
        assert summary["max_change_on_interior"] == "inf"


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


def csv_writer_bytes(header, rows):
    """What ``csv.writer`` writes for ``header`` and then ``rows``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


LATTICE_HEADER = ["lattice_coordinates", "value", "interior"]


def lattice_rows(coords, values, mask):
    """Reference rows of a lattice report: one per point, labels formatted anew."""
    return [[" ".join(repr(float(coords[i])) for i in idx), float(values[idx]), int(mask[idx])]
            for idx in np.ndindex(values.shape)]


@pytest.mark.parametrize("task", TASKS)
def test_detail_csv_matches_csv_writer(tmp_path, monkeypatch, task):
    # reference rows: what the task hands the formatter of its columns, or
    # of its lattice, transposed or enumerated point by point
    tables = []

    def table(header, columns):
        columns = list(columns)
        tables.append((header, list(zip(*columns))))
        return _csv_table(header, columns)

    def lattice(coords, values, mask):
        tables.append((LATTICE_HEADER, lattice_rows(coords, values, mask)))
        return _lattice_lines(coords, values, mask)

    monkeypatch.setattr(cli, "_csv_table", table)
    monkeypatch.setattr(cli, "_lattice_lines", lattice)
    cfg = load_config(None, overrides={"task": task, "out": str(tmp_path), "no-timestamp": True})
    cfg["lattice"].update(bound=1.5, step=0.5)  # 7^3 points, not 61^3
    assert run(cfg) in (0, 2)
    [(header, rows)] = tables
    assert rows
    assert (tmp_path / "detail.csv").read_bytes() == csv_writer_bytes(header, rows)


LATTICES = [("diagonal", 1), ("diagonal", 2), ("diagonal", 3), ("full", 1), ("full", 2)]


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(LATTICES), bound=st.sampled_from([1.0, 2.0]),
       step=st.sampled_from([0.5, 1.0]), seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.floats(), max_size=4))
def test_lattice_detail_csv_matches_per_point_loop(tmp_path_factory, shape, bound, step,
                                                   seed, specials):
    mode, dim = shape
    lat = cvx.MatrixLattice(dim=dim, bound=bound, step=step, mode=mode)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((lat.points_per_axis,) * lat.axes) * 10.0 ** rng.integers(-3, 4)
    flat = values.reshape(-1)
    flat[0], flat[-1] = np.inf, -np.inf
    flat[rng.integers(0, flat.size, len(specials))] = specials
    mask = rng.random(values.shape) < 0.5
    out = tmp_path_factory.mktemp("lattice")
    _write_reports({"run": {"out": str(out), "no-timestamp": True}}, {},
                   _lattice_lines(lat.coordinates, values, mask))
    rows = lattice_rows(lat.coordinates, values, mask)
    assert (out / "detail.csv").read_bytes() == csv_writer_bytes(LATTICE_HEADER, rows)


def test_lattice_detail_csv_formats_repeated_values_by_their_bits(tmp_path):
    # few distinct values on many points: 0.0 next to -0.0, which compare
    # equal but print apart, and two NaN payloads, which print alike
    lat = cvx.MatrixLattice(dim=2, bound=2.0, step=0.5, mode="full")
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(float)
    pool = np.concatenate([[0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, 5e-324], nans])
    rng = np.random.default_rng(3)
    values = pool[rng.integers(0, len(pool), (lat.points_per_axis,) * lat.axes)]
    values.reshape(-1)[:len(pool)] = pool  # the -0.0 after the 0.0 and every value present
    mask = rng.random(values.shape) < 0.5
    _write_reports({"run": {"out": str(tmp_path), "no-timestamp": True}}, {},
                   _lattice_lines(lat.coordinates, values, mask))
    rows = lattice_rows(lat.coordinates, values, mask)
    written = (tmp_path / "detail.csv").read_bytes()
    assert written == csv_writer_bytes(LATTICE_HEADER, rows)
    cells = [line.split(b",")[1] for line in written.split(b"\r\n")[1:-1]]
    assert {b"0.0", b"-0.0", b"nan"} <= set(cells) and len(cells) == values.size


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [["1", "2"], ["x,y", "3"]]),
    (["a"], [['say "x"']]),
    (["a"], [["line\nbreak"]]),
    (["a"], [["carriage\rreturn"]]),
    (["a,b"], [[1]]),
], ids=["comma", "quote", "newline", "return", "header"])
def test_detail_csv_refuses_cells_csv_would_quote(tmp_path, header, columns):
    with pytest.raises(ValueError, match="holds a comma, a quote or a line break"):
        _write_reports({"run": {"out": str(tmp_path), "no-timestamp": True}}, {},
                       _csv_table(header, columns))


@pytest.mark.parametrize("name, fmt", [
    ("repr", lambda x: repr(x).replace(".", ",")),  # the coordinate labels
    ("str", lambda x: str(x).replace("5", '"5"')),  # the value strings
], ids=["label", "value"])
def test_lattice_detail_csv_refuses_cells_csv_would_quote(tmp_path, monkeypatch, name, fmt):
    # no float formats with a comma or a quote, so the formatters are swapped
    lat = cvx.MatrixLattice(dim=1, bound=1.0, step=0.5)
    values = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    monkeypatch.setattr(cli, name, fmt, raising=False)
    with pytest.raises(ValueError, match="holds a comma, a quote or a line break"):
        _write_reports({"run": {"out": str(tmp_path), "no-timestamp": True}}, {},
                       _lattice_lines(lat.coordinates, values, values > 1.0))


def test_detail_csv_refuses_uneven_blocks(tmp_path):
    cfg = {"run": {"out": str(tmp_path), "no-timestamp": True}}
    with pytest.raises(ValueError):  # a column one row short
        _write_reports(cfg, {}, _csv_table(["a", "b"], [[1, 2], [3]]))
    with pytest.raises(ValueError):  # a column more than the header names
        _write_reports(cfg, {}, _csv_table(["a", "b"], [[1], [2], [3]]))
    with pytest.raises(ValueError):  # a column fewer
        _write_reports(cfg, {}, _csv_table(["a", "b"], [[1]]))


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


@pytest.mark.parametrize("task", ["gamma-limit", "converge"])
def test_summary_describes_the_potential(tmp_path, task):
    cfg = tmp_path / f"{task}.ini"
    cfg.write_text(f"[run]\ntask = {task}\nquad-order = 8\n\n[converge]\ndeltas = 0.2 0.1\n")
    out = tmp_path / task
    assert main(["--config", str(cfg), "--out", str(out), "--no-timestamp"]) in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    described = build_model("potential", summary["config"]["potential"]).describe()
    assert summary["potential"] == described


def test_every_registry_model_describes_itself_in_plain_values():
    defaults = load_config(None, overrides={"task": "quadrature-check"})
    for group, models in MODELS.items():
        section = dict(defaults["potential" if group == "potential" else "density"])
        key = "g" if group == "profile" else "kind"
        for kind in models:
            section[key] = kind
            described = build_model(group, section, key=key).describe()
            assert json.loads(json.dumps(described)) == described, (group, kind)


@pytest.mark.parametrize("kind", MODELS["density"])
def test_every_density_describes_itself_as_its_configured_kind(kind):
    # the kind the config names, with exactly the keys its builder reads
    section = dict(load_config(None, overrides={"task": "quadrature-check"})["density"])
    section["kind"] = kind
    described = build_model("density", section).describe()
    assert described["kind"] == kind
    assert set(described["params"]) == {name for name, _, _ in MODELS["density"][kind].keys}


@pytest.mark.parametrize("kind", ["profile-frobenius", "profile-cof"])
def test_fractional_power_of_a_nonnegative_invariant_loads(tmp_path, kind):
    cfg = tmp_path / "root.ini"
    cfg.write_text(f"[run]\ntask = quadrature-check\n\n"
                   f"[density]\nkind = {kind}\ng = power\ng-exponent = 0.5\n")
    assert load_config(str(cfg))["density"]["g-exponent"] == 0.5


@pytest.mark.parametrize("section, lines, named", [
    ("density", ["kind = bogus"], ["bogus"]),
    ("density", ["g = bogus"], ["bogus"]),
    ("potential", ["kind = bogus"], ["bogus"]),
    ("density", ["kind = incompressible-mr", "dim = 2"], ["incompressible-mr", "dim = 2"]),
    ("density", ["kind = profile-cof", "dim = 2"], ["profile-cof", "dim = 2"]),
    ("density", ["kind = profile-det", "dim = 2"], ["profile-det", "dim = 2"]),
    ("density", ["kind = profile-cof", "", "[lattice]", "dim = 2", "mode = full"],
     ["[lattice] dim = 2", "profile-cof", "3x3 matrices only, not 2x2"]),
    ("density", ["kind = mooney-rivlin", "g = power", "g-exponent = 0.5"],
     ["mooney-rivlin", "exponent 0.5", "det A < 0"]),
    ("density", ["kind = neo-hookean", "g = power", "g-exponent = 0.5"],
     ["neo-hookean", "exponent 0.5", "det A < 0"]),
    ("density", ["kind = profile-det", "g = power", "g-exponent = 0.5"],
     ["profile-det", "exponent 0.5", "det A < 0"]),
], ids=["density-kind", "profile", "potential-kind", "incompressible-mr-2d",
        "profile-cof-2d", "profile-det-2d", "profile-cof-2d-lattice",
        "mooney-rivlin-fractional-det-power", "neo-hookean-fractional-det-power",
        "profile-det-fractional-det-power"])
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
    ("counterexamples", "counterexamples", "a-value = 0.5",
     ["[counterexamples] a-value", "0.5", "at least 1"]),
    ("counterexamples", "counterexamples", "lambda-max = 0.5",
     ["[counterexamples] lambda-max", "0.5", "at least 1"]),
    ("recoverability", "run", "seed = -1", ["[run] seed", "-1", "at least 0"]),
    ("recoverability", "recoverability", "rel-tol = -1", ["[recoverability] rel-tol", "-1"]),
    ("recoverability", "recoverability", "randoms = -3", ["[recoverability] randoms", "-3"]),
    ("gamma-limit", "recoverability", "trials = 0", ["[recoverability] trials", "0"]),
    ("convexify", "density", "kind = profile-cof\n\n[lattice]\ndim = 2\nmode = full",
     ["profile-cof", "[lattice] dim = 2"]),
    ("quadrature-check", "converge", "matrix = 1 2 3", ["[converge] matrix", "4"]),
    ("gamma-limit", "potential", "dim = 4\nc = 1.0", ["[potential] dim", "4"]),
    ("converge", "converge", "deltas = 0.8 0.4", ["[converge]", "delta = 0.8", "half"]),
    ("quadrature-check", "converge", "deltas = 0.8 0.4", ["[converge]", "delta = 0.8", "half"]),
    ("converge", "converge", "deltas = 0.29 0.2\ncells-per-horizon = 3",
     ["[converge]", "delta = 0.29", "fewer than 3"]),
    ("quadrature-check", "converge", "deltas = 0.29 0.2\ncells-per-horizon = 3",
     ["[converge]", "delta = 0.29", "fewer than 3"]),
    ("gamma-limit", "potential", "dim = 2\np = 2\nq = 4",
     ["[potential]", "dim = 2", "q = 4.0", "beta = -2.0", "dim + beta > 0"]),
    ("converge", "potential", "dim = 2\np = 2\nq = 4",
     ["[potential]", "dim = 2", "q = 4.0", "beta = -2.0", "dim + beta > 0"]),
    ("converge", "potential", "dim = 2\np = 2\nq = 5",
     ["[potential]", "dim = 2", "q = 5.0", "beta = -3.0", "dim + beta > 0"]),
    ("gamma-limit", "potential", "c = -1", ["[potential]", "c = -1.0", "positive"]),
], ids=["quad-order-1", "density-dim-4", "lattice-mode", "lattice-step-other-task",
        "lattice-step-0", "lattice-dim-0", "lattice-bound-below-1", "negative-directions",
        "directions-on-diagonal-lattice", "negative-tol", "no-sweeps",
        "negative-fixed-point-tol", "no-deltas", "one-delta", "no-cells-per-horizon",
        "two-cells-per-horizon", "flat-box", "no-stretches", "zero-a-value", "a-value-below-1",
        "lambda-max-below-1", "negative-seed",
        "negative-rel-tol", "negative-randoms", "no-symmetry-trials", "3x3-density-2x2-lattice",
        "matrix-entries-off-box", "potential-dim-4", "horizon-past-half-box",
        "horizon-past-half-box-other-task", "horizon-under-3-cells",
        "horizon-under-3-cells-other-task", "bond-degree-minus-dim",
        "bond-degree-minus-dim-converge", "bond-degree-below-minus-dim", "bond-c-negative"])
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
        return {"task": "stub", "verdict": verdict}, _csv_table(["value"], [[1]])

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
