"""Span tracing of the calls from the benchmark into quanthom's layers.

The package imports layer functions by name (`from .hodge import
d_inverse`), so a span must wrap the attribute at each call site, e.g.
`quanthom.invariants.d_inverse` and `quanthom.harness.build_sphere_mesh`;
a wrapper on the defining module alone would see no calls.  Spans keep
name, start, end and parent in memory and are written out by the runner
when the run ends.  No file of the package is changed.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name): every call site into a layer
CALL_SITES = (
    ("quanthom.cli", "main", "cli"),
    ("quanthom.cli", "lookup", "registry.lookup"),
    ("quanthom.harness", "lookup", "registry.lookup"),
    ("quanthom.cli", "build_sphere_mesh", "geometry.mesh.build"),
    ("quanthom.harness", "build_sphere_mesh", "geometry.mesh.build"),
    ("quanthom.geometry", "build_sphere_mesh", "geometry.mesh.build"),
    ("quanthom.cli", "hardt_riviere", "invariants.hardt_riviere"),
    ("quanthom.harness", "hardt_riviere", "invariants.hardt_riviere"),
    ("quanthom.invariants", "hardt_riviere", "invariants.hardt_riviere"),
    ("quanthom.invariants", "de_rham_project", "geometry.forms.project"),
    ("quanthom.invariants", "integrate_wedge", "geometry.forms.wedge"),
    ("quanthom.invariants", "d_inverse", "hodge.d_inverse"),
    ("quanthom.invariants", "hodge_operator", "hodge.operator"),
    ("quanthom.hodge", "hodge_operator", "hodge.operator"),
    ("quanthom.hodge", "mass_matrix", "hodge.mass_matrix"),
    ("quanthom.harness", "sobolev_seminorm", "seminorms.sobolev"),
    ("quanthom.seminorms", "sobolev_seminorm", "seminorms.sobolev"),
    ("quanthom.harness", "holder_seminorm", "seminorms.holder"),
    ("quanthom.seminorms", "holder_seminorm", "seminorms.holder"),
    ("quanthom.harness", "bmo_seminorm", "seminorms.bmo"),
    ("quanthom.seminorms", "bmo_seminorm", "seminorms.bmo"),
    ("quanthom.harness", "poisson_extension_distance", "seminorms.poisson"),
    ("quanthom.harness", "run_scaling", "harness"),
    ("quanthom.harness", "run_bmo_probe", "harness"),
    ("quanthom.linking", "gauss_linking_oracle", "linking"),
    ("quanthom.linking", "preimage_link", "linking.trace"),
    ("quanthom.linking", "gauss_linking_integral", "linking.gauss"),
)

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "geometry.mesh.build_s": ("s", "lower"),
    "geometry.mesh.builds": ("count", "lower"),
    "geometry.mesh.distinct": ("count", "lower"),
    "hodge.operator_s": ("s", "lower"),
    "hodge.mass_matrix_s": ("s", "lower"),
    "hodge.d_inverse_s": ("s", "lower"),
    "hodge.cg_iterations": ("count", "lower"),
    "hodge.residual_max": ("1", "lower"),
    "hodge.closedness_max": ("1", "lower"),
    "geometry.forms.project_s": ("s", "lower"),
    "geometry.forms.wedge_s": ("s", "lower"),
    "geometry.forms.wedge_calls": ("count", "lower"),
    "invariants.hardt_riviere.self_s": ("s", "lower"),
    "seminorms.sobolev_s": ("s", "lower"),
    "seminorms.holder_s": ("s", "lower"),
    "seminorms.bmo_s": ("s", "lower"),
    "seminorms.poisson_s": ("s", "lower"),
    "seminorms.samples": ("count", "higher"),
    "linking.trace_s": ("s", "lower"),
    "linking.gauss_s": ("s", "lower"),
    "linking.components": ("count", "lower"),
    "harness.self_s": ("s", "lower"),
    "registry.lookup_s": ("s", "lower"),
    "registry.lookup_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}

# metric -> (span name, "total" duration or "self" duration)
_SPAN_TIMES = {
    "geometry.mesh.build_s": ("geometry.mesh.build", "total"),
    "hodge.operator_s": ("hodge.operator", "total"),
    "hodge.mass_matrix_s": ("hodge.mass_matrix", "total"),
    "hodge.d_inverse_s": ("hodge.d_inverse", "self"),
    "geometry.forms.project_s": ("geometry.forms.project", "total"),
    "geometry.forms.wedge_s": ("geometry.forms.wedge", "total"),
    "invariants.hardt_riviere.self_s": ("invariants.hardt_riviere", "self"),
    "seminorms.sobolev_s": ("seminorms.sobolev", "total"),
    "seminorms.holder_s": ("seminorms.holder", "total"),
    "seminorms.bmo_s": ("seminorms.bmo", "total"),
    "seminorms.poisson_s": ("seminorms.poisson", "total"),
    "linking.trace_s": ("linking.trace", "total"),
    "linking.gauss_s": ("linking.gauss", "total"),
    "harness.self_s": ("harness", "self"),
    "registry.lookup_s": ("registry.lookup", "total"),
    "cli.self_s": ("cli", "self"),
}

_SPAN_CALLS = {
    "geometry.forms.wedge_calls": "geometry.forms.wedge",
    "registry.lookup_calls": "registry.lookup",
}


class Tracer:
    """In-memory span recorder with per-operation counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.overhead_s = 0.0
        self.op = 0
        self.counters: dict = {}

    def start_op(self, op: int):
        self.op = op
        self.counters = {"mesh_keys": set(), "cg_iterations": 0,
                         "residual_max": 0.0, "closedness_max": 0.0,
                         "samples": 0, "components": 0}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = {"name": name, "op": self.op, "parent": parent}
            self.spans.append(span)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["start"], span["end"] = start, end
            self._count(name, args, kwargs, result)
            self.overhead_s += (start - t_in) + (time.perf_counter() - end)
            return result
        return traced

    def _count(self, name, args, kwargs, result):
        c = self.counters
        if name == "geometry.mesh.build":
            quad = kwargs.get("quad_order", args[2] if len(args) > 2 else 4)
            c["mesh_keys"].add((args[0], args[1], quad))
        elif name == "invariants.hardt_riviere":
            for stats in result.residuals.values():
                c["cg_iterations"] += stats.get("iterations", 0)
                c["residual_max"] = max(c["residual_max"],
                                        stats.get("residual", 0.0))
                c["closedness_max"] = max(c["closedness_max"],
                                          stats.get("closedness", 0.0))
        elif name.startswith("seminorms.") and name != "seminorms.poisson":
            c["samples"] += result.samples
        elif name == "linking.trace":
            c["components"] += len(result)

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, span in CALL_SITES:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def op_metrics(self, op: int, cpu_s: float, wall_s: float,
                   overhead_s: float) -> tuple:
        """Per-layer metrics and per-span call counts of one operation."""
        mine = [i for i, s in enumerate(self.spans) if s["op"] == op]
        child_time: dict = {}
        for i in mine:
            s = self.spans[i]
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        total: dict = {}
        self_t: dict = {}
        calls: dict = {}
        for i in mine:
            s = self.spans[i]
            d = s["end"] - s["start"]
            total[s["name"]] = total.get(s["name"], 0.0) + d
            self_t[s["name"]] = (self_t.get(s["name"], 0.0) + d
                                 - child_time.get(i, 0.0))
            calls[s["name"]] = calls.get(s["name"], 0) + 1
        out = {}
        for metric, (span, kind) in _SPAN_TIMES.items():
            out[metric] = (total if kind == "total" else self_t).get(span, 0.0)
        for metric, span in _SPAN_CALLS.items():
            out[metric] = calls.get(span, 0)
        c = self.counters
        out["geometry.mesh.builds"] = calls.get("geometry.mesh.build", 0)
        out["geometry.mesh.distinct"] = len(c["mesh_keys"])
        out["hodge.cg_iterations"] = c["cg_iterations"]
        out["hodge.residual_max"] = c["residual_max"]
        out["hodge.closedness_max"] = c["closedness_max"]
        out["seminorms.samples"] = c["samples"]
        out["linking.components"] = c["components"]
        out["proc.cpu_s"] = cpu_s
        out["trace.overhead_frac"] = overhead_s / max(wall_s - overhead_s,
                                                      1e-12)
        return out, calls
