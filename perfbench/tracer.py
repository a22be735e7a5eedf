"""Span tracer that wraps hallcrys functions from outside the package.

Every traced function is replaced at each name its callers look up: every
``hallcrys.*`` module attribute bound to the original function object (so
``hallcrys.linalg.rref_mod`` is wrapped as well as
``hallcrys._kernels.rref_mod``), and the class attribute for methods.
Function-local imports such as ``from .hallalg import multiply`` read the
module attribute at call time and so see the wrapper too.

A span is (name, start, end, parent span).  Spans are kept in flat arrays in
memory and written out by :meth:`Tracer.write_spans` after the traced round.
Self time of a function is its spans' duration minus the duration of the
wrapped calls made inside them; the wrappers' own cost stays in the caller's
self time and in the traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (metric prefix, module, attribute path).  The prefix drops the leading
# underscore of ``_kernels`` because metric names must start with a letter.
TRACED = (
    ("kernels.rref_mod", "hallcrys._kernels", "rref_mod"),
    ("kernels.rank_mod", "hallcrys._kernels", "rank_mod"),
    ("kernels.orbit_fill", "hallcrys._kernels", "orbit_fill"),
    ("linalg.solve_mod", "hallcrys.linalg", "solve_mod"),
    ("linalg.complement_basis", "hallcrys.linalg", "complement_basis"),
    ("linalg.column_space_contains", "hallcrys.linalg", "column_space_contains"),
    ("modules.hom_dim", "hallcrys.modules", "hom_dim"),
    ("modules.ext_dim", "hallcrys.modules", "ext_dim"),
    ("modules.hom_basis", "hallcrys.modules", "hom_basis"),
    ("classtable.hall_number", "hallcrys.classtable", "ClassTable.hall_number"),
    ("classtable.label_module", "hallcrys.classtable", "ClassTable.label_module"),
    ("classtable.hall_number_rp", "hallcrys.classtable", "ClassTable.hall_number_rp"),
    ("classtable.aut_order_orbit", "hallcrys.classtable", "ClassTable.aut_order_orbit"),
    ("hallalg.multiply", "hallcrys.hallalg", "multiply"),
    ("hallalg.serre_defect", "hallcrys.hallalg", "serre_defect"),
    ("generic.hall_polynomial", "hallcrys.generic", "GenericContext.hall_polynomial"),
    ("generic.generic_multiply", "hallcrys.generic", "generic_multiply"),
    ("generic.generic_rprime", "hallcrys.generic", "generic_rprime"),
    ("generic.generic_ringel_pair", "hallcrys.generic", "generic_ringel_pair"),
    ("generic.expr_evaluate_fixed", "hallcrys.generic", "expr_evaluate_fixed"),
    ("scalars.RatFunc", "hallcrys.scalars", "RatFunc.__init__"),
    ("crystal.string_decompose", "hallcrys.crystal", "string_decompose"),
    ("crystal.kernel_basis", "hallcrys.crystal", "kernel_basis"),
    ("crystal.membership_L", "hallcrys.crystal", "membership_L"),
    ("crystal.certify_exceptional", "hallcrys.crystal", "certify_exceptional"),
    ("crystal.etilde", "hallcrys.crystal", "etilde"),
    ("exseq.integral_certificate", "hallcrys.exseq", "CertificateEngine.integral_certificate"),
    ("exseq.verify_tree", "hallcrys.exseq", "CertificateEngine.verify_tree"),
    ("exseq.braid_move_hall", "hallcrys.exseq", "braid_move_hall"),
)

# generators are counted per item yielded, without spans
COUNTED_GENERATORS = (
    ("linalg.subspaces", "hallcrys.linalg", "subspaces"),
)

# the per-layer metrics a traced run reports, in BENCHMARK.json order
LAYER_METRICS = (
    ("kernels.rref_mod.calls", "count"),
    ("kernels.rref_mod.self_s", "s"),
    ("kernels.rank_mod.calls", "count"),
    ("kernels.orbit_fill.calls", "count"),
    ("kernels.orbit_fill.self_s", "s"),
    ("kernels.orbit_fill.points", "count"),
    ("linalg.subspaces.yielded", "count"),
    ("linalg.solve_mod.calls", "count"),
    ("linalg.solve_mod.self_s", "s"),
    ("linalg.complement_basis.calls", "count"),
    ("linalg.complement_basis.self_s", "s"),
    ("linalg.column_space_contains.calls", "count"),
    ("linalg.column_space_contains.self_s", "s"),
    ("modules.hom_dim.calls", "count"),
    ("modules.hom_dim.self_s", "s"),
    ("modules.ext_dim.calls", "count"),
    ("modules.ext_dim.self_s", "s"),
    ("modules.hom_basis.calls", "count"),
    ("modules.hom_basis.self_s", "s"),
    ("classtable.hall_number.calls", "count"),
    ("classtable.hall_number.self_s", "s"),
    ("classtable.label_module.calls", "count"),
    ("classtable.label_module.self_s", "s"),
    ("classtable.hall_number_rp.calls", "count"),
    ("classtable.hall_number_rp.self_s", "s"),
    ("classtable.aut_order_orbit.calls", "count"),
    ("classtable.aut_order_orbit.self_s", "s"),
    ("hallalg.multiply.calls", "count"),
    ("hallalg.multiply.self_s", "s"),
    ("hallalg.serre_defect.calls", "count"),
    ("hallalg.serre_defect.self_s", "s"),
    ("generic.hall_polynomial.calls", "count"),
    ("generic.hall_polynomial.self_s", "s"),
    ("generic.hall_polynomial.primes_per_poly", "primes"),
    ("generic.generic_multiply.calls", "count"),
    ("generic.generic_multiply.self_s", "s"),
    ("generic.generic_rprime.calls", "count"),
    ("generic.generic_rprime.self_s", "s"),
    ("generic.generic_ringel_pair.calls", "count"),
    ("generic.generic_ringel_pair.self_s", "s"),
    ("generic.expr_evaluate_fixed.calls", "count"),
    ("generic.expr_evaluate_fixed.self_s", "s"),
    ("scalars.RatFunc.calls", "count"),
    ("scalars.RatFunc.self_s", "s"),
    ("crystal.string_decompose.calls", "count"),
    ("crystal.string_decompose.self_s", "s"),
    ("crystal.kernel_basis.calls", "count"),
    ("crystal.kernel_basis.self_s", "s"),
    ("crystal.membership_L.calls", "count"),
    ("crystal.membership_L.self_s", "s"),
    ("crystal.certify_exceptional.calls", "count"),
    ("crystal.certify_exceptional.self_s", "s"),
    ("crystal.etilde.accept_ratio", "ratio"),
    ("exseq.integral_certificate.calls", "count"),
    ("exseq.integral_certificate.self_s", "s"),
    ("exseq.verify_tree.calls", "count"),
    ("exseq.verify_tree.self_s", "s"),
    ("exseq.braid_move_hall.calls", "count"),
    ("exseq.braid_move_hall.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps the functions in ``TRACED`` until :meth:`uninstall`."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.yielded = {name: 0 for name, _, _ in COUNTED_GENERATORS}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.orbit_points = 0
        self.poly_primes = {}            # Hall polynomial triple -> primes evaluated
        self._stack = []                 # [span index, time in wrapped children]
        self._patched = []               # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        for nid, (name, module_name, path) in enumerate(TRACED):
            self._replace(module_name, path, self._span_wrapper(nid, name))
        for name, module_name, path in COUNTED_GENERATORS:
            self._replace(module_name, path, self._generator_wrapper(name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _replace(self, module_name, path, make):
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = make(original)
        if "." in path:
            # a method: callers look it up on the class
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hallcrys" and not mod_name.startswith("hallcrys."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, nid, name):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        observe = {"kernels.orbit_fill": self._observe_orbit_fill,
                   "generic.hall_polynomial": self._observe_hall_polynomial}.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(span_start)
                span_name.append(nid)
                span_parent.append(stack[-1][0] if stack else -1)
                span_end.append(0.0)
                frame = [idx, 0.0]
                stack.append(frame)
                start = clock()
                span_start.append(start)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    span_end[idx] = end
                    duration = end - start
                    calls[nid] += 1
                    self_s[nid] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                if observe is not None:
                    observe(result)
                return result
            return wrapper
        return make

    def _generator_wrapper(self, name):
        yielded = self.yielded

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    yielded[name] += 1
                    yield item
            return wrapper
        return make

    def _observe_orbit_fill(self, new_points):
        self.orbit_points += int(new_points)

    def _observe_hall_polynomial(self, poly):
        # interpolation primes plus the held-out validation prime
        self.poly_primes[poly.triple] = len(poly.primes_used) + 1

    # -- results -------------------------------------------------------------

    def layer_metrics(self, vertices_accepted: int) -> dict:
        """Counts and self times of the traced round, by metric name.

        ``vertices_accepted`` is the number of crystal vertices the round
        accepted through Etilde (all vertices but the unit); the accept ratio
        is that over the number of Etilde images tried, 0 without Etilde.
        """
        values = {}
        for nid, name in enumerate(self.names):
            values[f"{name}.calls"] = self.calls[nid]
            values[f"{name}.self_s"] = self.self_s[nid]
        for name, count in self.yielded.items():
            values[f"{name}.yielded"] = count
        values["kernels.orbit_fill.points"] = self.orbit_points
        polys = self.poly_primes
        values["generic.hall_polynomial.primes_per_poly"] = (
            sum(polys.values()) / len(polys) if polys else 0.0)
        images = values["crystal.etilde.calls"]
        values["crystal.etilde.accept_ratio"] = (
            vertices_accepted / images if images else 0.0)
        values["trace.spans"] = len(self.span_start)
        return values

    def write_spans(self, path: str):
        """One JSON header line (names, span count), then the four arrays as
        raw machine values: name id (int32), parent span (int32, -1 for a
        root), start and end (float64, seconds of ``time.perf_counter``)."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:i4", "parent:i4", "start:f8", "end:f8"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
