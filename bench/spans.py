"""Spans and counters at peribond's layer boundaries, for traced jobs.

``Tracer.install`` wraps the public functions and private hot spots listed
in ``TARGETS`` by replacing module and class attributes after
``import peribond``. A function imported into several modules
(``from .pipeline import local_density``) is replaced wherever it is bound,
so calls through any module are seen. The program itself is not changed.

Three kinds of wrapper keep the cost low where calls are many:
  span   records name, start, end, parent span and job id (coarse calls);
         "alloc" is a span that also records the tracemalloc peak
  tally  adds calls and seconds to the layer's totals (hot calls)
  count  only counts calls (the 1D hull, called once per lattice chain)

Each layer is a group of wrapped names. A layer's time counts only calls
not nested in another call of the same layer, and its self time is its time
minus the time of wrapped calls nested in it. A name that no longer exists
is listed as absent and its layer reads 0, and so are the counters of a
call whose arguments or result no longer have the expected shape; the run
does not fail.
"""

import sys
import time
import tracemalloc
from math import prod

import numpy as np

# (module, attribute, layer, kind, hook); attribute "Class.method" patches a
# method, "dict[NAME]" wraps every value of a module-level dict.
TARGETS = (
    ("peribond.cli", "load_config", "cli.config", "span", None),
    ("peribond.cli", "dict[_TASK_RUNNERS]", "cli.task", "span", None),
    ("peribond.cli", "_write_reports", "cli.write", "span", None),
    ("peribond.quadrature", "build_rule", "quadrature.build", "span", None),
    ("peribond.quadrature", "build_sphere_rule", "quadrature.build", "span", None),
    ("peribond.quadrature", "build_circle_rule", "quadrature.build", "span", None),
    ("peribond.potentials", "StoredEnergy.__call__", "potentials.density", "tally", "_density_evals"),
    ("peribond.potentials", "PairwisePotential.__call__", "potentials.bond", "tally", "_bond_evals"),
    ("peribond.pipeline", "compute_blowup", "pipeline.blowup", "span", None),
    ("peribond.pipeline", "estimate_beta", "pipeline.blowup", "span", None),
    ("peribond.pipeline", "verify_limit_invariances", "pipeline.invariances", "span", None),
    ("peribond.pipeline", "local_density", "pipeline.local_density", "tally", None),
    ("peribond.recoverability", "roundtrip_check", "recoverability.roundtrip", "span", "_roundtrip_rows"),
    ("peribond.recoverability", "jensen_counterexample_suite", "recoverability.counterexamples", "span", None),
    ("peribond.recoverability", "mooney_rivlin_inequality_check", "recoverability.counterexamples", "span", None),
    ("peribond.recoverability", "cubic_mean_lower_constant", "recoverability.cubic_mean", "alloc", None),
    ("peribond.convexify", "MatrixLattice.fill", "convexify.fill", "span", None),
    ("peribond.convexify", "rank_one_convexify", "convexify.envelope", "span", "_envelope_counts"),
    ("peribond.convexify", "_random_direction_pass", "convexify.random_pass", "span", None),
    ("peribond.convexify", "_hull_envelope_1d", "convexify.hull", "count", None),
    ("peribond.horizon", "nonlocal_energy", "horizon.energy", "span", None),
    ("peribond.horizon", "_offset_stencil", "horizon.stencil", "span", "_stencil_counts"),
    ("peribond.horizon", "_near_block_integral", "horizon.near_block", "span", "_near_centers"),
    ("peribond.horizon", "local_reference", "horizon.local_reference", "span", None),
)


class Tracer:
    """Spans and per-layer totals of one job process."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.layers = {}  # layer -> {"calls", "s", "self_s"}
        self.counts = {}  # counter -> number
        self.absent = []
        self._stack = []  # child seconds of each open call
        self._depth = {}  # layer -> number of its calls now open
        self._span = None  # innermost open span
        self._next_id = 0

    # --- counters computed from a wrapped call's arguments and result ---

    def _add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _density_evals(self, args, kwargs, result):
        self._add("potentials.density.evals", prod(np.shape(args[1])[:-2]))

    def _bond_evals(self, args, kwargs, result):
        x, y = np.shape(args[1])[:-1], np.shape(args[2])[:-1]
        self._add("potentials.bond.evals", prod(x if x == y else np.broadcast_shapes(x, y)))

    def _roundtrip_rows(self, args, kwargs, result):
        self._add("recoverability.roundtrip.rows", len(result.rows))

    def _envelope_counts(self, args, kwargs, result):
        lattice = result.lattice
        dirs = len(lattice.directions())
        extra = kwargs.get("directions", args[2] if len(args) > 2 else 0)
        if lattice.mode == "full" and lattice.dim > 1:
            dirs += extra
        points = int(result.values.size)
        self._add("convexify.sweeps", result.sweeps)
        self._add("convexify.lattice_points", points)
        self._add("convexify.point_updates", points * dirs * result.sweeps)

    def _stencil_counts(self, args, kwargs, result):
        self._add("horizon.stencil.offsets", len(result))
        self._add("horizon.stencil.rim_cells", sum(1 for entry in result if entry[2] < 1.0))

    def _near_centers(self, args, kwargs, result):
        centers = kwargs["centers"] if "centers" in kwargs else args[3]
        self._add("horizon.near_block.centers", len(centers))

    # --- wrapping ---

    def _wrap(self, fn, layer, kind, hook):
        tracer = self
        if kind == "count":
            def counted(*args, **kwargs):
                tracer.layers.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})["calls"] += 1
                return fn(*args, **kwargs)
            return counted
        hook = getattr(self, hook) if hook else None
        alloc = kind == "alloc"  # a span that also records the tracemalloc peak

        def wrapped(*args, **kwargs):
            depth = tracer._depth.get(layer, 0)
            tracer._depth[layer] = depth + 1
            parent = span_id = tracer._span
            if kind != "tally":
                span_id = tracer._span = tracer._next_id
                tracer._next_id += 1
            frame = [0.0]
            tracer._stack.append(frame)
            if alloc:
                tracemalloc.start()
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = "recoverability.cubic_mean.alloc_peak_mb"
                    tracer.counts[key] = max(tracer.counts.get(key, 0.0), peak / 2**20)
                tracer._stack.pop()
                tracer._depth[layer] = depth
                tracer._span = parent
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                self_s = dur - frame[0]
                totals = tracer.layers.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
                totals["self_s"] += self_s
                if depth == 0:
                    totals["calls"] += 1
                    totals["s"] += dur
                if kind != "tally":
                    tracer.spans.append({
                        "id": span_id, "name": layer, "fn": fn.__name__,
                        "start": start, "end": end, "self": self_s,
                        "parent": parent, "job": tracer.job_id,
                    })
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    label = f"counters of {layer} (arguments or result changed shape)"
                    if label not in tracer.absent:
                        tracer.absent.append(label)
            return result
        return wrapped

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "peribond" or name.startswith("peribond."))]
        for module_name, attr, layer, kind, hook in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue  # not imported by this job, so none of its calls can happen
            label = f"{module_name}.{attr}"
            if attr.startswith("dict["):
                table = getattr(module, attr[5:-1], None)
                if not isinstance(table, dict):
                    self.absent.append(label)
                    continue
                for key, fn in table.items():
                    table[key] = self._wrap(fn, layer, kind, hook)
            elif "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.absent.append(label)
                    continue
                setattr(cls, meth, self._wrap(fn, layer, kind, hook))
            else:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(label)
                    continue
                wrapped = self._wrap(fn, layer, kind, hook)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapped)

    def report(self):
        return {"spans": self.spans, "layers": self.layers,
                "counts": self.counts, "absent": self.absent}
