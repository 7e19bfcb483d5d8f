"""Every name the benchmark tracer wraps exists in peribond.

The tracer lists a missing name as absent and records 0 for its layer, so a
rename would pass a traced run silently; this test fails on it instead. The
tracer's module is executed from its source, so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def resolve(module, attr):
    """The callables one TARGETS attribute names: a module function, a
    ``Class.method`` or every value of a ``dict[NAME]``."""
    if attr.startswith("dict["):
        table = getattr(module, attr[5:-1])
        assert isinstance(table, dict) and table, attr
        return list(table.values())
    if "." in attr:
        cls_name, meth = attr.split(".")
        return [getattr(getattr(module, cls_name), meth)]
    return [getattr(module, attr)]


def test_every_span_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for module_name, attr, layer, kind, hook in spans.TARGETS:
        fns = resolve(importlib.import_module(module_name), attr)
        assert all(callable(fn) for fn in fns), (module_name, attr)
        assert kind in ("span", "alloc", "tally", "count"), (attr, kind)
        assert hook is None or callable(getattr(spans.Tracer, hook)), (attr, hook)
