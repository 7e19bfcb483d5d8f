"""Batch front end: structured config in, deterministic reports out.

Each invocation runs one task and writes ``summary.json`` plus
``detail.csv`` into the output directory. Exit codes encode verdicts so
shell pipelines can assert results directly: 0 pass/consistent, 2
violated/fail, 1 execution error, 64 invalid configuration. Reports embed
the fully resolved configuration (defaults included); with timestamps
suppressed, identical configurations produce byte-identical files.

Configs are flat key = value text with [sections] (INI syntax); a JSON file
with one object per section is accepted interchangeably. Unknown sections
or keys are errors, never ignored.
"""

import argparse
import configparser
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import convexify as cvx
from . import horizon, pipeline, recoverability
from .potentials import (
    ScalarProfile,
    affine_frobenius_squared,
    frobenius_power,
    frobenius_squared,
    make_incompressible_mr,
    make_mooney_rivlin,
    make_power_bond,
    make_profile_energy,
)
from .quadrature import build_circle_rule, build_rule, build_sphere_rule, sphere_measure

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2
EXIT_CONFIG = 64

TASKS = (
    "quadrature-check",
    "gamma-limit",
    "recoverability",
    "convexify",
    "converge",
    "counterexamples",
)

# section -> key -> (parser, default); None default means required-if-used
SCHEMA = {
    "run": {
        "task": (str, None),
        "seed": (int, 0),
        "threads": (int, 1),
        "quad-order": (int, 32),
        "out": (str, "out"),
        "no-timestamp": ("bool", False),
    },
    "density": {
        "kind": (str, "frobenius-squared"),
        "dim": (int, 3),
        "alpha": (float, 1.0),
        "beta": (float, 1.0),
        "p": (float, 4.0),
        "a": (float, 1.0),
        "b": (float, 2.0),
        "g": (str, "well"),
        "g-coeff": (float, 1.0),
        "g-exponent": (float, 2.0),
        "g-a": (float, 0.0),
        "g-b": (float, 1.0),
    },
    "potential": {
        "kind": (str, "power-bond"),
        "dim": (int, 3),
        "c": (float, None),  # default n / sigma_{n-1}
        "p": (float, 2.0),
        "q": (float, 2.0),
    },
    "lattice": {
        "bound": (float, 3.0),
        "step": (float, 0.1),
        "mode": (str, "diagonal"),
        "dim": (int, 3),
        "directions": (int, 0),
        "tol": (float, 1e-6),
        "max-sweeps": (int, 40),
        "fixed-point-tol": (float, 1e-5),
    },
    "converge": {
        "deltas": ("floats", (0.2, 0.1, 0.05, 0.025)),
        "cells-per-horizon": (int, 8),
        "box": ("floats", (1.0, 1.0)),
        "matrix": ("floats", (1.0, 0.0, 0.0, 2.0)),  # row-major affine gradient
        "slope-min": (float, 0.9),
    },
    "counterexamples": {
        "lambda-max": (float, 100.0),
        "lambda-count": (int, 200),
        "a-value": (float, 1.0),
    },
    "recoverability": {
        "rel-tol": (float, recoverability.RESIDUAL_REL_TOL),
        "randoms": (int, 20),
        "trials": (int, 50),
    },
}


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad type, missing requirement."""


def _parse_value(spec, raw):
    if spec == "bool":
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if spec == "floats":
        if isinstance(raw, (list, tuple)):
            return tuple(float(v) for v in raw)
        parts = [p for p in str(raw).replace(",", " ").split() if p]
        return tuple(float(p) for p in parts)
    try:
        return spec(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {raw!r} as {spec.__name__}") from exc


@dataclass
class RunConfig:
    """Fully resolved configuration with every default filled in."""

    sections: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def resolved(self) -> dict:
        out = {}
        for name, keys in self.sections.items():
            out[name] = {
                k: (list(v) if isinstance(v, tuple) else v) for k, v in keys.items()
            }
        return out


def _defaults() -> dict:
    return {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in SCHEMA.items()
    }


def _load_raw_config(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object of sections")
        return {str(k): dict(v) for k, v in data.items()}
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, an optional config file, and CLI overrides.

    Unknown sections or keys raise :class:`ConfigError`; silent typos would
    poison reports that claim to embed the exact configuration.
    """
    sections = _defaults()
    raw = _load_raw_config(Path(path)) if path else {}
    for name, keys in raw.items():
        if name not in SCHEMA:
            raise ConfigError(f"unknown config section [{name}]")
        for key, value in keys.items():
            if key not in SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            sections[name][key] = _parse_value(SCHEMA[name][key][0], value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        sections["run"][key] = _parse_value(SCHEMA["run"][key][0], value)
    task = sections["run"]["task"]
    if task is None:
        raise ConfigError("no task given (flag --task or key task in [run])")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; choose one of {', '.join(TASKS)}")
    if task == "converge" and "dim" not in raw.get("potential", {}):
        # the box fixes the study's dimension; an unset potential dim follows it
        sections["potential"]["dim"] = len(sections["converge"]["box"])
    if sections["run"]["threads"] < 1:
        raise ConfigError("threads must be at least 1")
    return RunConfig(sections)


def _profile_from(density_cfg: dict) -> ScalarProfile:
    name = density_cfg["g"]
    if name == "power":
        return ScalarProfile.power(density_cfg["g-coeff"], density_cfg["g-exponent"])
    if name == "affine-square":
        return ScalarProfile.affine_square(density_cfg["g-a"], density_cfg["g-b"])
    if name == "well":
        return ScalarProfile.well()
    if name == "indicator":
        return ScalarProfile.indicator()
    if name == "zero":
        return ScalarProfile.power(0.0, 0.0)
    raise ConfigError(f"unknown profile {name!r} (power, affine-square, well, indicator, zero)")


def density_from_config(density_cfg: dict):
    kind = density_cfg["kind"]
    if kind == "frobenius-squared":
        return frobenius_squared()
    if kind == "frobenius-power":
        return frobenius_power(density_cfg["p"])
    if kind == "affine-frobenius-squared":
        return affine_frobenius_squared(density_cfg["a"], density_cfg["b"])
    if kind == "mooney-rivlin":
        return make_mooney_rivlin(density_cfg["alpha"], density_cfg["beta"], _profile_from(density_cfg))
    if kind == "neo-hookean":
        return make_mooney_rivlin(density_cfg["alpha"], 0.0, _profile_from(density_cfg))
    if kind == "incompressible-mr":
        return make_incompressible_mr(density_cfg["alpha"], density_cfg["beta"])
    if kind == "profile-frobenius":
        return make_profile_energy("frobenius", _profile_from(density_cfg))
    if kind == "profile-cof":
        return make_profile_energy("cof", _profile_from(density_cfg))
    if kind == "profile-det":
        return make_profile_energy("det", _profile_from(density_cfg))
    raise ConfigError(f"unknown density kind {kind!r}; see --list-zoo")


def potential_from_config(pot_cfg: dict):
    kind = pot_cfg["kind"]
    if kind != "power-bond":
        raise ConfigError(f"unknown potential kind {kind!r}; see --list-zoo")
    dim = pot_cfg["dim"]
    c = pot_cfg["c"]
    if c is None:
        c = dim / sphere_measure(dim)
    return make_power_bond(c, pot_cfg["p"], pot_cfg["q"], dim=dim)


def list_zoo() -> str:
    """Stable text enumeration of the built-in models and their parameters."""
    lines = [
        "densities ([density] section):",
        "  frobenius-squared        |A|^2; no parameters",
        "  frobenius-power          |A|^p; keys: p",
        "  affine-frobenius-squared a + b |A|^2; keys: a, b",
        "  mooney-rivlin            alpha |A|^2 + beta |cof A|^2 + g(det A); keys: alpha, beta, g*",
        "  neo-hookean              mooney-rivlin with beta = 0; keys: alpha, g*",
        "  incompressible-mr        alpha |A|^2 + beta |cof A|^2 on det A = 1, +inf off it; keys: alpha, beta",
        "  profile-frobenius        g(|A|^2); keys: g*",
        "  profile-cof              g(|cof A|), 3x3 only; keys: g*",
        "  profile-det              g(det A), 3x3 only; keys: g*",
        "potentials ([potential] section):",
        "  power-bond               c |y|^p / |x|^q, degree p - q; keys: c, p, q, dim",
        "profiles (g key; parameters g-coeff, g-exponent, g-a, g-b):",
        "  power                    g-coeff * t^g-exponent",
        "  affine-square            g-a + g-b * t^2",
        "  well                     (t - 1)^2",
        "  indicator                0 at t = 1, +inf elsewhere",
        "  zero                     constant 0",
    ]
    return "\n".join(lines)


def _json_safe(value):
    if isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.bool_):
        value = bool(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _write_reports(cfg: RunConfig, summary: dict, rows: list, header: list) -> None:
    out_dir = Path(cfg["run"]["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = dict(summary)
    summary["config"] = cfg.resolved()
    if not cfg["run"]["no-timestamp"]:
        summary["timestamp"] = datetime.now(timezone.utc).isoformat()
    (out_dir / "summary.json").write_text(
        json.dumps(_json_safe(summary), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    with open(out_dir / "detail.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def _task_quadrature_check(cfg: RunConfig) -> tuple[dict, list, list, int]:
    order = cfg["run"]["quad-order"]
    rows = []
    worst_weight = 0.0
    worst_moment = 0.0
    for rule in (build_circle_rule(2 * order), build_sphere_rule(order)):
        sigma = rule.measure
        n = rule.dim
        err_w = abs(float(np.sum(rule.weights)) - sigma)
        worst_weight = max(worst_weight, err_w)
        rows.append([f"S{n - 1}", "weight-sum", _fmt(float(np.sum(rule.weights))), _fmt(sigma), _fmt(err_w)])
        for j in range(n):
            for k in range(n):
                moment = float(np.dot(rule.weights, rule.nodes[:, j] * rule.nodes[:, k]))
                ref = sigma / n if j == k else 0.0
                err = abs(moment - ref)
                worst_moment = max(worst_moment, err)
                rows.append([f"S{n - 1}", f"moment-z{j + 1}z{k + 1}", _fmt(moment), _fmt(ref), _fmt(err)])
    passed = worst_weight <= 1e-12 and worst_moment <= 1e-10
    summary = {
        "task": "quadrature-check",
        "worst_weight_sum_error": worst_weight,
        "worst_second_moment_error": worst_moment,
        "verdict": "pass" if passed else "fail",
    }
    header = ["rule", "moment", "value", "reference", "error"]
    return summary, rows, header, EXIT_PASS if passed else EXIT_VIOLATED


def _task_gamma_limit(cfg: RunConfig) -> tuple[dict, list, list, int]:
    pot = potential_from_config(cfg["potential"])
    dim = cfg["potential"]["dim"]
    rule = build_rule(dim, cfg["run"]["quad-order"])
    beta_est = pipeline.estimate_beta(pot, seed=cfg["run"]["seed"])
    limit = pipeline.compute_blowup(pot)
    mats = recoverability.default_test_matrices(dim, seed=cfg["run"]["seed"], randoms=5)
    rows = []
    for a in mats:
        value = pipeline.local_density(limit, a, rule)
        rows.append([" ".join(repr(float(x)) for x in a.ravel()), _fmt(value)])
    check = pipeline.verify_limit_invariances(
        limit, np.diag(np.arange(1.0, dim + 1.0)), trials=cfg["recoverability"]["trials"],
        seed=cfg["run"]["seed"], rule=rule,
    )
    beta_ok = pot.beta is None or abs(beta_est - pot.beta) <= 1e-6
    passed = check.passed and beta_ok
    summary = {
        "task": "gamma-limit",
        "potential": {"kind": pot.kind, "params": pot.params},
        "beta_declared": pot.beta,
        "beta_estimated": beta_est,
        "symmetry": {
            "max_abs_deviation": check.max_abs_deviation,
            "tolerance": check.tolerance,
            "passed": check.passed,
            "trials": check.trials,
        },
        "verdict": "pass" if passed else "fail",
    }
    return summary, rows, ["matrix_row_major", "local_density"], EXIT_PASS if passed else EXIT_VIOLATED


def _task_recoverability(cfg: RunConfig) -> tuple[dict, list, list, int]:
    density = density_from_config(cfg["density"])
    dim = cfg["density"]["dim"]
    rule = build_rule(dim, cfg["run"]["quad-order"])
    test_set = recoverability.default_test_matrices(
        dim, seed=cfg["run"]["seed"], randoms=cfg["recoverability"]["randoms"]
    )
    report = recoverability.roundtrip_check(
        density, rule, test_set,
        rel_tol=cfg["recoverability"]["rel-tol"],
        workers=cfg["run"]["threads"],
    )
    rows = []
    for i, row in enumerate(report.rows):
        rows.append([
            i,
            " ".join(repr(float(x)) for x in row.matrix.ravel()),
            _fmt(row.lhs), _fmt(row.rhs), _fmt(row.residual),
            row.classification, int(row.within_tol),
        ])
    summary = {"task": "recoverability", **report.to_dict()}
    header = ["index", "matrix_row_major", "lhs", "rhs", "residual", "classification", "within_tol"]
    code = EXIT_PASS if report.verdict == "consistent" else EXIT_VIOLATED
    return summary, rows, header, code


def _task_convexify(cfg: RunConfig) -> tuple[dict, list, list, int]:
    density = density_from_config(cfg["density"])
    lat = cvx.MatrixLattice(
        dim=cfg["lattice"]["dim"],
        bound=cfg["lattice"]["bound"],
        step=cfg["lattice"]["step"],
        mode=cfg["lattice"]["mode"],
    )
    result = cvx.rank_one_convexify(
        density, lat,
        directions=cfg["lattice"]["directions"],
        tol=cfg["lattice"]["tol"],
        max_sweeps=cfg["lattice"]["max-sweeps"],
        seed=cfg["run"]["seed"],
    )
    if not result.converged:
        raise RuntimeError(
            f"envelope sweep did not converge: decrement {result.last_decrement:.3e} "
            f"after {result.sweeps} sweeps"
        )
    change = result.max_change_on_interior()
    fixed = change <= cfg["lattice"]["fixed-point-tol"]
    # C-order lattice points, each coordinate formatted once
    labels = [repr(float(c)) for c in lat.coordinates]
    rows = [
        [" ".join(point), _fmt(value), int(inside)]
        for point, value, inside in zip(
            itertools.product(labels, repeat=result.values.ndim),
            result.values.ravel().tolist(),
            result.interior_mask.ravel().tolist(),
        )
    ]
    summary = {
        "task": "convexify",
        "density": density.describe(),
        "lattice": {"dim": lat.dim, "mode": lat.mode, "bound": lat.bound, "step": lat.step},
        "sweeps": result.sweeps,
        "last_decrement": result.last_decrement,
        "max_change_on_interior": change,
        "note": result.note,
        "verdict": "fixed-point" if fixed else "lowered",
    }
    header = ["lattice_coordinates", "value", "interior"]
    return summary, rows, header, EXIT_PASS if fixed else EXIT_VIOLATED


def _task_converge(cfg: RunConfig) -> tuple[dict, list, list, int]:
    pot = potential_from_config(cfg["potential"])
    sides = cfg["converge"]["box"]
    dim = len(sides)
    if cfg["potential"]["dim"] != dim:
        box = " ".join(_fmt(s) for s in sides)
        raise ConfigError(
            f"[potential] dim = {cfg['potential']['dim']} does not match the "
            f"{dim}D [converge] box = {box}"
        )
    entries = cfg["converge"]["matrix"]
    if len(entries) != dim * dim:
        raise ConfigError(f"affine matrix needs {dim * dim} row-major entries")
    matrix = np.array(entries).reshape(dim, dim)
    study = horizon.convergence_study(
        pot, pot.beta, horizon.DeformationField.affine(matrix), sides,
        cfg["converge"]["deltas"],
        cells_per_horizon=cfg["converge"]["cells-per-horizon"],
        rule=build_rule(dim, cfg["run"]["quad-order"]),
    )
    slope = study.fitted_slope
    passed = not math.isnan(slope) and slope >= cfg["converge"]["slope-min"]
    rows = [
        [_fmt(d), _fmt(e), _fmt(ref), _fmt(gap), _fmt(sl)]
        for (d, e, ref, gap, sl) in study.rows
    ]
    summary = {
        "task": "converge",
        "potential": {"kind": pot.kind, "params": pot.params},
        "matrix": [list(map(float, r)) for r in matrix],
        "fitted_slope": slope,
        "slope_min": cfg["converge"]["slope-min"],
        "verdict": "pass" if passed else "fail",
    }
    header = ["delta", "I_delta", "I_local", "gap", "slope_running"]
    return summary, rows, header, EXIT_PASS if passed else EXIT_VIOLATED


def _task_counterexamples(cfg: RunConfig) -> tuple[dict, list, list, int]:
    rule = build_rule(3, cfg["run"]["quad-order"])
    jensen = recoverability.jensen_counterexample_suite(3, rule)
    lam_max = cfg["counterexamples"]["lambda-max"]
    lams = np.linspace(1.0, lam_max, cfg["counterexamples"]["lambda-count"])
    scan_cof = recoverability.mooney_rivlin_inequality_check(
        1.0, 1.0, ScalarProfile.power(0.0, 0.0), lams,
        a_value=cfg["counterexamples"]["a-value"], rule=rule,
    )
    scan_growth = recoverability.mooney_rivlin_inequality_check(
        1.0, 0.0, ScalarProfile.well(), lams,
        a_value=cfg["counterexamples"]["a-value"], rule=rule,
    )
    confirmed = jensen.all_ok and scan_cof.found and scan_growth.found
    rows = []
    for r in jensen.rows:
        rows.append(["jensen", f"{r.case}:{r.profile}", _fmt(r.margin), r.expected, int(r.ok)])
    for scan in (scan_cof, scan_growth):
        rows.append([
            "stretch-scan", scan.branch,
            _fmt(scan.lambda_star if scan.lambda_star is not None else math.nan),
            "failure-found", int(scan.found),
        ])
    summary = {
        "task": "counterexamples",
        "jensen": jensen.to_dict(),
        "stretch_scan_cof_term": {
            k: v for k, v in scan_cof.to_dict().items() if k != "rows"
        },
        "stretch_scan_growth": {
            k: v for k, v in scan_growth.to_dict().items() if k != "rows"
        },
        "verdict": "confirmed" if confirmed else "not-confirmed",
    }
    header = ["suite", "case", "value", "expected", "ok"]
    return summary, rows, header, EXIT_PASS if confirmed else EXIT_VIOLATED


_TASK_RUNNERS = {
    "quadrature-check": _task_quadrature_check,
    "gamma-limit": _task_gamma_limit,
    "recoverability": _task_recoverability,
    "convexify": _task_convexify,
    "converge": _task_converge,
    "counterexamples": _task_counterexamples,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured task; returns the process exit code."""
    try:
        summary, rows, header, code = _TASK_RUNNERS[cfg["run"]["task"]](cfg)
    except ConfigError:
        raise
    except Exception as exc:  # numerical divergence, bad geometry, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _write_reports(cfg, summary, rows, header)
    print(f"{cfg['run']['task']}: {summary['verdict']}")
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors, not verdicts
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def main(argv=None) -> int:
    parser = _Parser(
        prog="peribond",
        description="Zero-horizon limits and recoverability screening of bond-based energies.",
    )
    parser.add_argument("--config", help="INI or JSON config file")
    parser.add_argument("--task", choices=TASKS, help="task to run")
    parser.add_argument("--out", help="output directory for summary.json / detail.csv")
    parser.add_argument("--seed", type=int, help="seed for every randomized choice")
    parser.add_argument("--threads", type=int, help="worker cap for per-matrix loops")
    parser.add_argument("--quad-order", type=int, help="sphere rule order (circle gets 2x)")
    parser.add_argument("--no-timestamp", action="store_true", default=None,
                        help="omit the timestamp so reports are byte-reproducible")
    parser.add_argument("--list-zoo", action="store_true", help="list built-in models and exit")
    args = parser.parse_args(argv)

    if args.list_zoo:
        print(list_zoo())
        return EXIT_PASS
    try:
        cfg = load_config(
            args.config,
            overrides={
                "task": args.task,
                "out": args.out,
                "seed": args.seed,
                "threads": args.threads,
                "quad-order": args.quad_order,
                "no-timestamp": args.no_timestamp,
            },
        )
        return run(cfg)
    except (ConfigError, OSError, configparser.Error, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
