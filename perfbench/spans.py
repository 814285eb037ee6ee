"""In-memory span tracer for the benchmark's traced runs.

``Tracer.install()`` wraps the public functions of geomlab's modules from
outside: every module namespace that binds a wrapped function (for
example ``fundamental_forms`` inside ``umbilic_topology``, or the kernels
in the five modules that import them by name) gets the wrapper, and
methods are wrapped on their class.  ``uninstall()`` puts the originals
back, so untraced passes run the unmodified program.

Each call becomes a span (name, parent, start, end, points).  Per layer
the tracer adds up calls, sample points passed in, and self time: the
span's duration minus the time of its child spans.  Spans stay in memory
until ``write`` saves them as CSV.
"""

import functools
import sys
import time

import numpy as np

from geomlab import chart_tensor, cli, exprgrammar, jets, kernels, line_space
from geomlab import neutral_flow, quadrature, surface_geom, umbilic_topology


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _broadcast(*arrays):
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _rows(pts, dim=3):
    return int(np.asarray(pts).size // dim)


# (layer name, owner, attribute, points(args, kwargs) or None)
LAYERS = [
    ("surface_geom.fundamental_forms", surface_geom, "fundamental_forms",
     lambda a, k: _broadcast(_arg(a, k, 2, "s"), _arg(a, k, 3, "t"))),
    ("umbilic_topology.umbilic_scan", umbilic_topology, "umbilic_scan", None),
    ("umbilic_topology.attach_indices", umbilic_topology, "attach_indices", None),
    ("chart_tensor.matrix", chart_tensor.MetricField, "matrix",
     lambda a, k: _rows(_arg(a, k, 1, "pts"))),
    ("chart_tensor.matrix_and_partials", chart_tensor.MetricField,
     "matrix_and_partials", lambda a, k: _rows(_arg(a, k, 1, "pts"))),
    ("chart_tensor.christoffel", chart_tensor, "christoffel",
     lambda a, k: _rows(_arg(a, k, 1, "point"))),
    ("chart_tensor.l2_metric_distance", chart_tensor, "l2_metric_distance", None),
    ("kernels.shape_operator_batch", kernels, "shape_operator_batch", None),
    ("kernels.tensor_norm_sq_batch", kernels, "tensor_norm_sq_batch", None),
    ("kernels.winding_total", kernels, "winding_total", None),
    ("kernels.sym_eig2_batch", kernels, "sym_eig2_batch", None),
    ("line_space.congruence_eval", line_space.CongruenceMap, "eval",
     lambda a, k: _broadcast(_arg(a, k, 1, "s"), _arg(a, k, 2, "t"))),
    ("line_space.complex_point_scan", line_space, "complex_point_scan",
     lambda a, k: int(np.prod(_arg(a, k, 0, "section").u.shape[:2]))),
    ("line_space.maslov_index", line_space, "maslov_index",
     lambda a, k: int(np.size(_arg(a, k, 1, "loop_s")))),
    ("neutral_flow.flow_step", neutral_flow, "flow_step", None),
    ("neutral_flow.flow_geometry", neutral_flow, "flow_geometry", None),
    ("neutral_flow.metric_and_christoffel", neutral_flow.LineSpaceChart,
     "metric_and_christoffel", lambda a, k: _rows(_arg(a, k, 1, "pts"), 4)),
    ("neutral_flow.angle_penalty_step", neutral_flow, "angle_penalty_step", None),
    ("neutral_flow.dbar_boundary_norm", neutral_flow, "dbar_boundary_norm", None),
    ("jets.variables", jets, "variables",
     lambda a, k: _broadcast(*_arg(a, k, 0, "values"))),
    ("quadrature.tensor_nodes", quadrature, "tensor_nodes", None),
    ("cli.main", cli, "main", None),
]
COMPILED = "exprgrammar.compiled"

# layers whose return value is a list of records
RECORDS = {"umbilic_topology.umbilic_scan", "line_space.complex_point_scan"}

# child layer -> (ancestor layer, counter): the child's points, or one per
# call where the child counts no points, are also credited to the layer of
# the innermost open ancestor span
ROLLUPS = {
    "surface_geom.fundamental_forms": ("umbilic_topology.umbilic_scan", "geometry_points"),
    "neutral_flow.flow_geometry": ("neutral_flow.flow_step", "geometry_calls"),
}


class Tracer:
    def __init__(self):
        self.spans = []      # (name, parent span id or -1, start, end, points)
        self.stack = []      # open frames: [span id, name, start, child seconds]
        self.stats = {}      # name -> {"calls", "points", "self_s", counters...}
        self.active = False
        self._patched = []   # (owner, attribute, original)

    # -- spans -----------------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "points": 0, "self_s": 0.0}
        return st

    def call(self, name, fn, points, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        n_points = points(args, kwargs) if points is not None else 0
        span_id = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append(None)
        frame = [span_id, name, 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[span_id] = (name, parent, start, end, n_points)
            duration = end - start
            st = self._stat(name)
            st["calls"] += 1
            st["points"] += n_points
            st["self_s"] += duration - frame[3]
            if self.stack:
                self.stack[-1][3] += duration
            rollup = ROLLUPS.get(name)
            if rollup is not None and any(f[1] == rollup[0] for f in self.stack):
                ancestor = self._stat(rollup[0])
                amount = n_points if points is not None else 1
                ancestor[rollup[1]] = ancestor.get(rollup[1], 0) + amount
        if name in RECORDS:
            st["records"] = st.get("records", 0) + len(result)
        return result

    def take_stats(self):
        """Per-layer totals since the last call, and reset them."""
        stats, self.stats = self.stats, {}
        return stats

    # -- patching ----------------------------------------------------------------

    def _wrap(self, name, fn, points):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, points, args, kwargs)
        return traced

    def _wrap_compiler(self, compile_expression):
        tracer = self

        @functools.wraps(compile_expression)
        def compile_traced(text, variables):
            return tracer._wrap(COMPILED, compile_expression(text, variables), None)
        return compile_traced

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` in every geomlab module namespace."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "geomlab" or mod_name.startswith("geomlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        for name, owner, attr, points in LAYERS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, points)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)
        self._replace_everywhere(exprgrammar.compile_expression,
                                 self._wrap_compiler(exprgrammar.compile_expression))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,points\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, start, end, points) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f},{points}\n")


def layer_metrics(stats):
    """Flatten one pass's per-layer totals into named metrics."""
    out = {}
    for name, st in stats.items():
        for key, value in st.items():
            out[f"{name}.{key}"] = value
    steps = stats.get("neutral_flow.flow_step", {})
    if steps.get("calls"):
        out["neutral_flow.flow_geometry.per_step"] = (
            steps.get("geometry_calls", 0) / steps["calls"])
    return out
