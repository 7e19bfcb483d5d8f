"""Batch front end: structured config in, deterministic reports out.

Each invocation runs one task and writes ``summary.json`` plus
``detail.csv`` into the output directory. Exit codes encode verdicts so
shell pipelines can assert results directly: 0 for a verdict in
``PASSING_VERDICTS``, 2 for any other, 1 execution error, 64 invalid
configuration. Reports embed
the fully resolved configuration (defaults included); with timestamps
suppressed, identical configurations produce byte-identical files.

Configs are flat key = value text with [sections] (INI syntax); a JSON file
with one object per section is accepted interchangeably. Unknown sections
or keys are errors, never ignored.
"""

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

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
from .quadrature import build_rule, sphere_measure

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2
EXIT_CONFIG = 64

class Model(NamedTuple):
    """Registry entry: how to build one model kind from its config section."""

    build: Callable  # config section -> model
    keys: tuple  # (name, parser, default) of the section keys it reads
    doc: str  # one-line formula for --list-zoo


def _profile(section: dict) -> ScalarProfile:
    return build_model("profile", section, key="g")


def _power_bond(section: dict):
    dim, c = section["dim"], section["c"]
    if c is None:  # default n / sigma_{n-1}
        c = dim / sphere_measure(dim)
    return make_power_bond(c, section["p"], section["q"], dim=dim)


_ALPHA, _BETA = ("alpha", float, 1.0), ("beta", float, 1.0)
_G = ("g", str, "well")  # names a profile; --list-zoo marks it g*

# group -> kind -> Model: the one enumeration of the built-in models. Config
# keys and defaults, load-time validation, construction and --list-zoo are
# all read off it.
MODELS = {
    "density": {
        "frobenius-squared": Model(lambda s: frobenius_squared(), (), "|A|^2"),
        "frobenius-power": Model(
            lambda s: frobenius_power(s["p"]), (("p", float, 4.0),), "|A|^p"
        ),
        "affine-frobenius-squared": Model(
            lambda s: affine_frobenius_squared(s["a"], s["b"]),
            (("a", float, 1.0), ("b", float, 2.0)), "a + b |A|^2",
        ),
        "mooney-rivlin": Model(
            lambda s: make_mooney_rivlin(s["alpha"], s["beta"], _profile(s)),
            (_ALPHA, _BETA, _G), "alpha |A|^2 + beta |cof A|^2 + g(det A)",
        ),
        "neo-hookean": Model(
            lambda s: make_mooney_rivlin(s["alpha"], 0.0, _profile(s)),
            (_ALPHA, _G), "mooney-rivlin with beta = 0",
        ),
        "incompressible-mr": Model(
            lambda s: make_incompressible_mr(s["alpha"], s["beta"]),
            (_ALPHA, _BETA), "alpha |A|^2 + beta |cof A|^2 on det A = 1, +inf off it",
        ),
        "profile-frobenius": Model(
            lambda s: make_profile_energy("frobenius", _profile(s)), (_G,), "g(|A|^2)"
        ),
        "profile-cof": Model(
            lambda s: make_profile_energy("cof", _profile(s)), (_G,), "g(|cof A|), 3x3 only"
        ),
        "profile-det": Model(
            lambda s: make_profile_energy("det", _profile(s)), (_G,), "g(det A), 3x3 only"
        ),
    },
    "potential": {
        "power-bond": Model(
            _power_bond,
            (("c", float, None), ("p", float, 2.0), ("q", float, 2.0), ("dim", int, 3)),
            "c |y|^p / |x|^q, degree p - q",
        ),
    },
    "profile": {  # selected by the g key of [density]
        "power": Model(
            lambda s: ScalarProfile.power(s["g-coeff"], s["g-exponent"]),
            (("g-coeff", float, 1.0), ("g-exponent", float, 2.0)), "g-coeff * t^g-exponent",
        ),
        "affine-square": Model(
            lambda s: ScalarProfile.affine_square(s["g-a"], s["g-b"]),
            (("g-a", float, 0.0), ("g-b", float, 1.0)), "g-a + g-b * t^2",
        ),
        "well": Model(lambda s: ScalarProfile.well(), (), "(t - 1)^2"),
        "indicator": Model(lambda s: ScalarProfile.indicator(), (), "0 at t = 1, +inf elsewhere"),
        "zero": Model(lambda s: ScalarProfile.power(0.0, 0.0), (), "constant 0"),
    },
}


def _model_keys(common: dict, *groups: str) -> dict:
    """Schema of a model section: the keys all kinds share, then each kind's own."""
    keys = dict(common)
    for group in groups:
        for model in MODELS[group].values():
            keys.update((name, (parser, default, None)) for name, parser, default in model.keys)
    return keys


# section -> key -> (parser, default, least): a None default means
# required-if-used, a None least no lower bound
SCHEMA = {
    "run": {
        "task": (str, None, None),
        "seed": (int, 0, 0),
        "threads": (int, 1, 1),
        "quad-order": (int, 32, 2),  # the order of the smallest sphere rule
        "out": (str, "out", None),
        "no-timestamp": ("bool", False, None),
    },
    "density": _model_keys(
        {"kind": (str, "frobenius-squared", None), "dim": (int, 3, None)}, "density", "profile"
    ),
    "potential": _model_keys({"kind": (str, "power-bond", None)}, "potential"),
    "lattice": {
        "bound": (float, 3.0, None),
        "step": (float, 0.1, None),
        "mode": (str, "diagonal", None),
        "dim": (int, 3, None),
        "directions": (int, 0, 0),
        "tol": (float, 1e-6, 0),
        "max-sweeps": (int, 40, 1),
        "fixed-point-tol": (float, 1e-5, 0),
    },
    "converge": {
        "deltas": ("floats", (0.2, 0.1, 0.05, 0.025), None),
        "cells-per-horizon": (int, 8, 3),  # a horizon spans at least 3 cells
        "box": ("floats", (1.0, 1.0), None),
        "matrix": ("floats", (1.0, 0.0, 0.0, 2.0), None),  # row-major affine gradient
        "slope-min": (float, 0.9, None),
    },
    "counterexamples": {
        "lambda-max": (float, 100.0, 1),  # the scan starts at stretch 1
        "lambda-count": (int, 200, 1),
        "a-value": (float, 1.0, None),
    },
    "recoverability": {
        "rel-tol": (float, recoverability.RESIDUAL_REL_TOL, 0),
        "randoms": (int, 20, 0),
        "trials": (int, 50, 1),
    },
}


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad type, missing requirement."""


def _parse_number(kind, raw):
    """``kind(raw)``, refusing a JSON boolean, a fractional value for an int
    key, and an infinite or NaN float: no key has a use for one."""
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"expected {kind.__name__}")
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_value(section: str, key: str, raw):
    """Parse the value of ``[section] key``, text from INI or a flag or a typed
    JSON value, and hold it to the key's least value."""
    spec, _, least = SCHEMA[section][key]
    try:
        if spec == "bool":
            value = raw if isinstance(raw, bool) else _BOOLEANS.get(str(raw).strip().lower())
            if value is None:
                raise ValueError("expected a boolean")
        elif spec == "floats":
            items = raw if isinstance(raw, (list, tuple)) else str(raw).replace(",", " ").split()
            value = tuple(_parse_number(float, item) for item in items)
        elif spec in (int, float):
            value = _parse_number(spec, raw)
        else:
            value = spec(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if least is not None and value < least:
        raise ConfigError(f"[{section}] {key} = {value!r}: need at least {least}")
    return value


def _defaults() -> dict:
    return {
        section: {key: default for key, (_, default, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }


def _load_raw_config(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object of sections")
        for name, keys in data.items():
            if not isinstance(keys, dict):
                raise ConfigError(f"[{name}] must be a JSON object of keys, not {keys!r}")
        return data
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _lattice(section: dict) -> cvx.MatrixLattice:
    return cvx.MatrixLattice(
        dim=section["dim"], bound=section["bound"], step=section["step"], mode=section["mode"]
    )


def _read_rule(name: str, section: dict, keys: tuple, rule: Callable, *args, **kwargs):
    """``rule(*args, **kwargs)``; a ValueError or ArithmeticError it raises (say
    ``bound / step`` overflows) becomes a ConfigError naming ``[name]`` ``keys``."""
    try:
        return rule(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        given = ", ".join(f"{key} = {section[key]!r}" for key in keys)
        raise ConfigError(f"[{name}] {given}: {exc}") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> dict:
    """Merge defaults, an optional config file, and CLI overrides into the
    resolved ``{section: {key: value}}`` configuration.

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
            sections[name][key] = _parse_value(name, key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        sections["run"][key] = _parse_value("run", key, value)
    task = sections["run"]["task"]
    if task is None:
        raise ConfigError("no task given (flag --task or key task in [run])")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; choose one of {', '.join(TASKS)}")
    potential, converge = sections["potential"], sections["converge"]
    deltas, box, matrix = converge["deltas"], converge["box"], converge["matrix"]
    if task == "converge":
        if "dim" not in raw.get("potential", {}):
            # the box fixes the study's dimension; an unset potential dim follows it
            potential["dim"] = len(box)
        elif potential["dim"] != len(box):
            raise ConfigError(
                f"[potential] dim = {potential['dim']} does not match the "
                f"{len(box)}D [converge] box = {' '.join(map(repr, box))}"
            )
    # values fail here, whatever the task, before a task runs or a report names them:
    # the library's rules by calling it, then the format's own deltas and matrix sizes
    density, lattice = sections["density"], sections["lattice"]
    _read_rule("density", density, ("dim",), sphere_measure, density["dim"])
    lat = _read_rule("lattice", lattice, ("dim", "bound", "step", "mode"), _lattice, lattice)
    _read_rule("lattice", lattice, ("directions",),
               cvx.check_directions, lat, lattice["directions"])
    if len(deltas) < 2:
        raise ConfigError(f"[converge] deltas = {deltas!r}: need two horizons to fit a slope")
    _read_rule("converge", converge, ("box", "deltas", "cells-per-horizon"), horizon.study_grids,
               box, deltas, converge["cells-per-horizon"])
    if len(matrix) != len(box) ** 2:
        raise ConfigError(f"[converge] matrix = {matrix!r}: need {len(box) ** 2} row-major entries")
    _read_rule("potential", potential, ("dim",), sphere_measure, potential["dim"])
    counter = sections["counterexamples"]
    _read_rule("counterexamples", counter, ("a-value",),
               recoverability._require_positive, "a_value", counter["a-value"])
    build_model("profile", density, key="g")
    model = build_model("density", density)
    for section in ("density", "lattice"):  # convexify evaluates it on lattice matrices
        dim = sections[section]["dim"]
        if model.dim not in (None, dim):
            raise ConfigError(
                f"[density] kind = {model.kind} takes {model.dim}x{model.dim} "
                f"matrices only, not [{section}] dim = {dim}"
            )
    build_model("potential", potential)
    return sections


def build_model(group: str, section: dict, key: str = "kind"):
    """Build the ``group`` model that ``section[key]`` names, from ``section``."""
    kind = section[key]
    if kind not in MODELS[group]:
        raise ConfigError(
            f"{key} = {kind!r} names no {group}; choose one of {', '.join(MODELS[group])}"
        )
    model = MODELS[group][kind]  # its builder refuses, say, a negative coefficient
    keys = (key, *(name for name, _, _ in model.keys))
    return _read_rule("density" if group == "profile" else group, section, keys,
                      model.build, section)


def list_zoo() -> str:
    """Stable text enumeration of the registry's models and their keys."""
    lines = []
    for group, header in (
        ("density", "densities ([density] section):"),
        ("potential", "potentials ([potential] section):"),
    ):
        lines.append(header)
        for kind, model in MODELS[group].items():
            names = [name + "*" if name == "g" else name for name, _, _ in model.keys]
            keys = "keys: " + ", ".join(names) if names else "no parameters"
            lines.append(f"  {kind:<24} {model.doc}; {keys}")
    # the profiles' keys all live in [density]; the header lists them once
    g_keys = ", ".join(name for model in MODELS["profile"].values() for name, _, _ in model.keys)
    lines.append(f"profiles (g key; parameters {g_keys}):")
    lines += [f"  {kind:<24} {model.doc}" for kind, model in MODELS["profile"].items()]
    return "\n".join(lines)


def _json_safe(value):
    """The one serializer of summary.json values: inf, -inf and nan become
    "inf", "-inf" and "nan", numpy scalars and arrays become Python values.
    detail.csv needs none: its writer formats a number with ``str``, which
    spells the same three strings."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float(value)
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if isinstance(value, np.floating):
        return _json_safe(float(value))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _csv_lines(columns) -> str:
    r"""The CSV records of one block: row i joins cell i of each column with
    ",", ended by csv's "\r\n". Cells are ``str`` of numbers and plain
    strings, what ``csv`` writes for them unquoted.

    A cell that ``csv`` would quote, one holding ",", '"', "\r" or "\n",
    raises ValueError instead. Counting those characters in the whole block
    finds it: each row adds len(columns) - 1 commas and one "\r\n".
    """
    cells = [list(map(str, column)) for column in columns]
    lines = list(map(",".join, zip(*cells, strict=True)))
    rows = len(lines)
    lines.append("")  # the last record's terminator
    text = "\r\n".join(lines)
    if (text.count(",") != rows * (len(cells) - 1) or text.count("\r") != rows
            or text.count("\n") != rows or '"' in text):
        bad = next(cell for column in cells for cell in column
                   if any(char in cell for char in ',"\r\n'))
        raise ValueError(f"detail.csv cell {bad!r} holds a comma, a quote or a line break")
    return text


def _write_reports(cfg: dict, summary: dict, columns, header: list) -> None:
    """Write summary.json, then detail.csv block by block.

    ``columns`` yields the columns of one block after another, len(header)
    columns of equal length per block, so a task can stream its rows slab
    by slab without holding the whole report.
    """
    out_dir = Path(cfg["run"]["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = dict(summary)
    summary["config"] = cfg
    if not cfg["run"]["no-timestamp"]:
        summary["timestamp"] = datetime.now(timezone.utc).isoformat()
    (out_dir / "summary.json").write_text(
        json.dumps(_json_safe(summary), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    columns = iter(columns)
    with open(out_dir / "detail.csv", "w", newline="") as fh:
        fh.write(_csv_lines([name] for name in header))
        for block in zip(*[columns] * len(header), strict=True):
            fh.write(_csv_lines(block))


def _task_quadrature_check(cfg: dict) -> tuple[dict, tuple, list]:
    order = cfg["run"]["quad-order"]
    rows = []
    worst_weight = 0.0
    worst_moment = 0.0
    for n in (2, 3):
        rule = build_rule(n, order)
        sigma = rule.measure
        total = float(np.sum(rule.weights))
        err_w = abs(total - sigma)
        worst_weight = max(worst_weight, err_w)
        rows.append([f"S{n - 1}", "weight-sum", total, sigma, err_w])
        for j in range(n):
            for k in range(n):
                moment = rule.integrate(rule.nodes[:, j] * rule.nodes[:, k])
                ref = sigma / n if j == k else 0.0
                err = abs(moment - ref)
                worst_moment = max(worst_moment, err)
                rows.append([
                    f"S{n - 1}", f"moment-z{j + 1}z{k + 1}",
                    moment, ref, err,
                ])
    passed = worst_weight <= 1e-12 and worst_moment <= 1e-10
    summary = {
        "task": "quadrature-check",
        "worst_weight_sum_error": worst_weight,
        "worst_second_moment_error": worst_moment,
        "verdict": "pass" if passed else "fail",
    }
    header = ["rule", "moment", "value", "reference", "error"]
    return summary, tuple(zip(*rows)), header


def _task_gamma_limit(cfg: dict) -> tuple[dict, tuple, list]:
    pot = build_model("potential", cfg["potential"])
    dim = cfg["potential"]["dim"]
    rule = build_rule(dim, cfg["run"]["quad-order"])
    beta_est = pipeline.estimate_beta(pot, seed=cfg["run"]["seed"])
    limit = pipeline.compute_blowup(pot)
    mats = recoverability.default_test_matrices(dim, seed=cfg["run"]["seed"], randoms=5)
    labels = [" ".join(repr(float(x)) for x in a.ravel()) for a in mats]
    values = [float(pipeline.local_density(limit, a, rule)) for a in mats]
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
    return summary, (labels, values), ["matrix_row_major", "local_density"]


def _task_recoverability(cfg: dict) -> tuple[dict, tuple, list]:
    density = build_model("density", cfg["density"])
    dim = cfg["density"]["dim"]
    rule = build_rule(dim, cfg["run"]["quad-order"])
    test_set = recoverability.default_test_matrices(
        dim, seed=cfg["run"]["seed"], randoms=cfg["recoverability"]["randoms"]
    )
    report = recoverability.roundtrip_check(
        density, rule, test_set,
        rel_tol=cfg["recoverability"]["rel-tol"],
    )
    rows = []
    for i, row in enumerate(report.rows):
        rows.append([
            i,
            " ".join(repr(float(x)) for x in row.matrix.ravel()),
            row.lhs, row.rhs, row.residual,
            row.classification, int(row.within_tol),
        ])
    summary = {"task": "recoverability", **asdict(report)}
    header = ["index", "matrix_row_major", "lhs", "rhs", "residual", "classification", "within_tol"]
    return summary, tuple(zip(*rows)), header


def _lattice_columns(coordinates, values, interior) -> Iterator[list]:
    """The detail.csv columns of lattice ``values`` and their ``interior``
    mask: point labels, values and 0/1 flags, one block per leading-axis
    slab, in C order. Each coordinate is formatted once; a slab's labels
    are its head coordinate followed by those of the trailing axes, which
    are built once. Each distinct value is formatted once too, keyed on its
    bits, which keeps -0.0 apart from 0.0."""
    labels = [repr(float(c)) for c in coordinates]
    tails = [""]
    for _ in range(values.ndim - 1):
        tails = [f"{tail} {label}" for tail in tails for label in labels]
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    cells = np.array(list(map(str, bits.view(float).tolist())), dtype=object)
    flags = np.array(["0", "1"], dtype=object)
    slabs = inverse.reshape(len(values), -1)
    insides = interior.astype(int).reshape(len(values), -1)
    for head, slab, inside in zip(labels, slabs, insides):
        yield list(map(head.__add__, tails))
        yield cells[slab].tolist()
        yield flags[inside].tolist()


def _task_convexify(cfg: dict) -> tuple[dict, Iterator[list], list]:
    density = build_model("density", cfg["density"])
    lat = _lattice(cfg["lattice"])
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
    columns = _lattice_columns(lat.coordinates, result.values, result.interior_mask)
    return summary, columns, header


def _task_converge(cfg: dict) -> tuple[dict, tuple, list]:
    pot = build_model("potential", cfg["potential"])
    sides = cfg["converge"]["box"]
    dim = len(sides)
    matrix = np.array(cfg["converge"]["matrix"]).reshape(dim, dim)
    study = horizon.convergence_study(
        pot, pot.beta, horizon.DeformationField.affine(matrix), sides,
        cfg["converge"]["deltas"],
        cells_per_horizon=cfg["converge"]["cells-per-horizon"],
        rule=build_rule(dim, cfg["run"]["quad-order"]),
    )
    slope = study.fitted_slope
    passed = not math.isnan(slope) and slope >= cfg["converge"]["slope-min"]
    summary = {
        "task": "converge",
        "potential": {"kind": pot.kind, "params": pot.params},
        "matrix": [list(map(float, r)) for r in matrix],
        "fitted_slope": slope,
        "slope_min": cfg["converge"]["slope-min"],
        "verdict": "pass" if passed else "fail",
    }
    header = ["delta", "I_delta", "I_local", "gap", "slope_running"]
    return summary, tuple(zip(*study.rows)), header


def _task_counterexamples(cfg: dict) -> tuple[dict, tuple, list]:
    opts = cfg["counterexamples"]
    jensen = recoverability.jensen_counterexample_suite(3, build_rule(3, cfg["run"]["quad-order"]))
    lams = np.linspace(1.0, opts["lambda-max"], opts["lambda-count"])
    scan_cof = recoverability.mooney_rivlin_inequality_check(
        1.0, ScalarProfile.power(0.0, 0.0), lams, a_value=opts["a-value"]
    )
    scan_growth = recoverability.mooney_rivlin_inequality_check(
        0.0, ScalarProfile.well(), lams, a_value=opts["a-value"]
    )
    confirmed = jensen.all_ok and scan_cof.found and scan_growth.found
    rows = []
    for r in jensen.rows:
        rows.append(
            ["jensen", f"{r.case}:{r.profile}", r.margin, r.expected, int(r.ok)]
        )
    for scan in (scan_cof, scan_growth):
        rows.append([
            "stretch-scan", scan.branch,
            scan.lambda_star if scan.lambda_star is not None else math.nan,
            "failure-found", int(scan.found),
        ])
    summary = {
        "task": "counterexamples",
        "jensen": asdict(jensen),
        "stretch_scan_cof_term": asdict(scan_cof),
        "stretch_scan_growth": asdict(scan_growth),
        "verdict": "confirmed" if confirmed else "not-confirmed",
    }
    header = ["suite", "case", "value", "expected", "ok"]
    return summary, tuple(zip(*rows)), header


_TASK_RUNNERS = {
    "quadrature-check": _task_quadrature_check,
    "gamma-limit": _task_gamma_limit,
    "recoverability": _task_recoverability,
    "convexify": _task_convexify,
    "converge": _task_converge,
    "counterexamples": _task_counterexamples,
}
TASKS = tuple(_TASK_RUNNERS)

# the verdicts that exit EXIT_PASS; every other verdict exits EXIT_VIOLATED
PASSING_VERDICTS = frozenset({"pass", "consistent", "fixed-point", "confirmed"})


def run(cfg: dict) -> int:
    """Execute the configured task; returns the process exit code."""
    try:
        summary, columns, header = _TASK_RUNNERS[cfg["run"]["task"]](cfg)
    except Exception as exc:  # numerical divergence, bad geometry, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _write_reports(cfg, summary, columns, header)
    print(f"{cfg['run']['task']}: {summary['verdict']}")
    return EXIT_PASS if summary["verdict"] in PASSING_VERDICTS else EXIT_VIOLATED


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
    parser.add_argument("--threads", type=int,
                        help="at least 1; echoed in the reports, every task runs serially")
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
