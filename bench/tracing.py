"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces each listed ``ffode`` function in every ``ffode``
module namespace that holds a reference to it (and the listed methods on
their classes) with a wrapper that records a span: metric name, start, end
and the enclosing span.  A span's self time is its duration minus the time
of its child spans, so summing self times per metric never counts a second
twice.  Counts are taken in the same wrappers.  No file of the program is
changed; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute, layer metric).  ``Class.method`` patches the class.
SPANS = [
    ("linalg", "spectral_norm", "linalg.spectral_norm"),
    ("linalg", "EigenSystem.__init__", "linalg.eigensystem"),
    ("block_encoding", "BlockEncoding.__init__", "block_encoding.construct"),
    ("block_encoding", "exact_dilation", "block_encoding.dilation"),
    ("block_encoding", "lcu_combine", "block_encoding.calculus"),
    ("block_encoding", "multiply", "block_encoding.calculus"),
    ("block_encoding", "invert", "block_encoding.calculus"),
    ("block_encoding", "polynomial_transform", "block_encoding.calculus"),
    ("poly_approx", "_build", "poly_approx.fit"),
    ("reference", "solve_reference", "reference.solve"),
    ("qsvt_solvers", "be_exp_negdef", "qsvt_solvers.exp"),
    ("qsvt_solvers", "be_duhamel_negdef", "qsvt_solvers.duhamel"),
    ("qsvt_solvers", "lcs_combine_and_measure", "qsvt_solvers.lcs"),
    ("eigen_solvers", "be_exp_eigen", "eigen_solvers.encode"),
    ("eigen_solvers", "be_duhamel_eigen", "eigen_solvers.encode"),
    ("eigen_solvers", "solve_eigen_timedep", "eigen_solvers.riemann"),
    ("eigen_solvers", "riemann_plan", "eigen_solvers.riemann"),
    ("eigen_solvers", "quadrature_error_bound", "eigen_solvers.quadrature_bound"),
    ("eigen_solvers", "quadrature_nodes_for", "eigen_solvers.quadrature_bound"),
    ("pde", "dense_operator", "pde.operator"),
    ("pde", "hyperbolic_sqrt_operator", "pde.operator"),
    ("pde", "dft_tensor", "pde.operator"),
    ("pde", "eigensystem_of", "pde.eigensystem"),
    ("pde", "lift_hyperbolic", "pde.eigensystem"),
    ("pde", "fast_inversion", "pde.eigensystem"),
    ("pde", "PdeSpec._sample", "pde.sample"),
] + [("lower_bounds", f, "lower_bounds.witness") for f in (
    "witness_realpart_gap", "witness_nonnormal_homogeneous",
    "witness_realpart_gap_inhomogeneous", "witness_nonnormal_inhomogeneous",
    "witness_imaginary_time", "witness_linear_system",
    "shifting_equivalence_check", "equilibrium_reduction_check")] + [
    ("lower_bounds", "worst_case_oracle_pair", "lower_bounds.amplifier"),
    ("lower_bounds", "amplifier_bound_check", "lower_bounds.amplifier"),
]

#: calls that are counted but get no span of their own
COUNTED = [
    ("poly_approx", "certify_sup_error"),
    ("reference", "SampledSource.__call__"),
    ("pde", "PdeSpec.b_dt_vector"),
]

#: every per-layer metric of a traced run, with its unit
METRICS = {
    "linalg.spectral_norm.self_s": "s",
    "linalg.spectral_norm.calls": "count",
    "linalg.spectral_norm.max_dim": "count",
    "linalg.eigensystem.self_s": "s",
    "block_encoding.construct.self_s": "s",
    "block_encoding.construct.calls": "count",
    "block_encoding.unitary_max_dim": "count",
    "block_encoding.unitary_bytes": "bytes",
    "block_encoding.dilation.self_s": "s",
    "block_encoding.calculus.self_s": "s",
    "poly_approx.fit.self_s": "s",
    "poly_approx.fit.calls": "count",
    "poly_approx.fit.attempts": "count",
    "poly_approx.max_degree": "count",
    "reference.solve.self_s": "s",
    "reference.solve.calls": "count",
    "reference.source_evals": "count",
    "qsvt_solvers.exp.self_s": "s",
    "qsvt_solvers.duhamel.self_s": "s",
    "qsvt_solvers.lcs.self_s": "s",
    "eigen_solvers.encode.self_s": "s",
    "eigen_solvers.riemann.self_s": "s",
    "eigen_solvers.riemann_nodes": "count",
    "eigen_solvers.quadrature_bound.self_s": "s",
    "eigen_solvers.drive_evals": "count",
    "pde.operator.self_s": "s",
    "pde.eigensystem.self_s": "s",
    "pde.sample.self_s": "s",
    "pde.sample.points": "count",
    "lower_bounds.witness.self_s": "s",
    "lower_bounds.amplifier.self_s": "s",
    "lower_bounds.witnesses": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

LAYER_SPANS = sorted({metric for _, _, metric in SPANS})
BOUND = "eigen_solvers.quadrature_bound"


def _first_dim(x) -> int:
    shape = getattr(x, "shape", ())
    return int(max(shape)) if shape else 1


class Tracer:
    """Spans and counts of the calls made while ``recording`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list = []   # [name id, start, end, parent index]
        self.stack: list = []   # open spans: [index, child time]
        self.open = Counter()   # metric -> number of open spans
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self.recording = False
        self._restore = []

    # -- recording ---------------------------------------------------------

    def reset_pass(self) -> None:
        self.self_time.clear()
        self.counts.clear()
        self.maxima.clear()

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def call(self, metric: str, fn, args, kwargs):
        """Run fn inside a span named metric."""
        if not self.recording:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append(None)
        frame = [index, 0.0]
        self.stack.append(frame)
        self.open[metric] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.open[metric] -= 1
            duration = end - start
            self.self_time[metric] += duration - frame[1]
            if self.stack:
                self.stack[-1][1] += duration
            self.spans[index] = (self._id(metric), start, end, parent)

    # -- per-function hooks ------------------------------------------------

    def _after(self, metric: str, attr: str, args, kwargs, result) -> None:
        c, m = self.counts, self.maxima
        if metric == "linalg.spectral_norm":
            c["linalg.spectral_norm.calls"] += 1
            m["linalg.spectral_norm.max_dim"] = max(
                m["linalg.spectral_norm.max_dim"], _first_dim(args[0]))
        elif metric == "block_encoding.construct":
            dim = args[0].unitary.shape[0]
            c["block_encoding.construct.calls"] += 1
            c["block_encoding.unitary_bytes"] += 16 * dim * dim
            m["block_encoding.unitary_max_dim"] = max(
                m["block_encoding.unitary_max_dim"], dim)
        elif metric == "poly_approx.fit":
            c["poly_approx.fit.calls"] += 1
            m["poly_approx.max_degree"] = max(m["poly_approx.max_degree"],
                                              result.degree())
        elif metric == "reference.solve":
            c["reference.solve.calls"] += 1
        elif metric == "lower_bounds.witness":
            c["lower_bounds.witnesses"] += 1
        elif attr == "riemann_plan":
            c["eigen_solvers.riemann_nodes"] += int(
                args[2] if len(args) > 2 else kwargs["M"])
        elif attr == "PdeSpec._sample":
            c["pde.sample.points"] += args[0].N

    def _count(self, name: str) -> None:
        if name == "certify_sup_error":
            self.counts["poly_approx.fit.attempts"] += 1
        elif name == "SampledSource.__call__":
            if self.open["reference.solve"]:
                self.counts["reference.source_evals"] += 1
            if self.open[BOUND]:
                self.counts["eigen_solvers.drive_evals"] += 1
        elif name == "PdeSpec.b_dt_vector" and self.open[BOUND]:
            self.counts["eigen_solvers.drive_evals"] += 1

    def _span_wrapper(self, metric: str, attr: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            result = tracer.call(metric, fn, args, kwargs)
            tracer._after(metric, attr, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, attr: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer._count(attr)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr, metric in SPANS:
            self._patch(module, attr,
                        lambda fn, m=metric, a=attr: self._span_wrapper(m, a, fn))
        for module, attr in COUNTED:
            self._patch(module, attr,
                        lambda fn, a=attr: self._count_wrapper(a, fn))

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(f"ffode.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make(original))
            self._restore.append((cls, method, original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, namespace in list(sys.modules.items()):
            if name != "ffode" and not name.startswith("ffode."):
                continue
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    self._restore.append((namespace, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Layer self times, counts and maxima of the current pass."""
        out = {f"{metric}.self_s": self.self_time.get(metric, 0.0)
               for metric in LAYER_SPANS}
        for name, unit in METRICS.items():
            if unit != "s":
                out[name] = self.counts.get(name, 0) or self.maxima.get(name, 0)
        return out

    def dump(self, path: str, header: dict) -> None:
        """Write every recorded span as JSON: [name id, start, end, parent]."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        body = dict(header, names=self.names, spans=[
            [s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
            for s in self.spans if s is not None])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, separators=(",", ":"))
