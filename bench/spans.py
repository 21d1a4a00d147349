"""Spans around the public functions of each bergmanlab layer.

The tracer replaces a function on the module attribute through which its
callers look it up (``quadrature.log_bundle_weight`` for the quadrature's
weight evaluations, ``density.schur_i00`` for the density path, and so on).
The program itself is not changed.  Each call records a span (name, start,
end, parent) in memory; counts are taken at the same boundaries.  Self time
is a span's duration minus the time its child spans cover.  Only the traced
run installs wrappers; the untraced timed run calls the program directly.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns

SPAN_CAP = 100_000  # spans kept for the trace file; later ones are only aggregated


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.dim_max = 0
        self._stack: list = []  # [span index, ns covered by children]
        self._patched: list = []

    def wrap(self, name: str, fn, on_call=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_call(args)`` records counts taken from the call's arguments.
        """
        stack, spans = self._stack, self.spans
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            if index < SPAN_CAP:
                spans.append(None)
            else:
                index = -1
            frame = [index, 0]
            stack.append(frame)
            if on_call is not None:
                on_call(args)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent)

        return traced

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, cli, cutoff, density, geometry, gram, quadrature) -> None:
        """Wrap every layer's public functions where their callers find them."""
        count = self.counts

        def bundle_eval(args):
            count["quadrature.evals"] += 1

        def oracle_terms(args):
            count["density.oracle_terms"] += args[0] + 1

        def gram_dim(args):
            self.dim_max = max(self.dim_max, args[0].dim)

        self.patch(quadrature, "log_bundle_weight", "geometry.weight", bundle_eval)
        self.patch(quadrature, "log_metric_density", "geometry.weight")
        self.patch(geometry, "curvature_residual", "geometry.residual")
        self.patch(geometry, "polar_ode_residual", "geometry.residual")
        self.patch(cutoff, "psi_hessian_bound_check", "cutoff.hessian")
        get_profile = cutoff.get_profile
        self._patched.append((cutoff, "get_profile", get_profile))
        cutoff.get_profile = lambda name: _TracedProfile(get_profile(name), self)
        self.patch(quadrature, "lambda_inv_sq", "quadrature.moment")
        self.patch(quadrature, "lambda0_tail", "quadrature.tail")
        self.patch(density, "lambda0_tail", "quadrature.tail")
        self.patch(gram, "assemble_truncated_gram", "gram.assemble")
        self.patch(density, "assemble_truncated_gram", "gram.assemble")
        self.patch(gram, "schur_i00", "gram.schur", gram_dim)
        self.patch(density, "schur_i00", "gram.schur", gram_dim)
        self.patch(gram, "inverse00_oracle", "gram.reference_routes")
        self.patch(gram, "orthonormalize_i00", "gram.reference_routes")
        self.patch(density, "density_estimate", "density.estimate")
        self.patch(density, "sweep_to_csv", "density.format")
        self.patch(density, "sweep_to_json", "density.format")
        self.patch(density, "cp1_density", "density.oracle", oracle_terms)
        self.patch(cli, "main", "cli")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer counts and self times, each per timed pass."""
        calls, self_ns = self.calls, self.self_ns

        def per_pass(n):
            return n / passes

        def seconds(name):
            return self_ns[name] / 1e9 / passes

        moments = calls["quadrature.moment"]
        terms = self.counts["density.oracle_terms"]
        return {
            "geometry.weight_calls": per_pass(calls["geometry.weight"]),
            "geometry.weight_s": seconds("geometry.weight"),
            "geometry.residual_calls": per_pass(calls["geometry.residual"]),
            "geometry.residual_s": seconds("geometry.residual"),
            "cutoff.eta_calls": per_pass(calls["cutoff.eta"]),
            "cutoff.eta_s": seconds("cutoff.eta"),
            "cutoff.hessian_calls": per_pass(calls["cutoff.hessian"]),
            "cutoff.hessian_s": seconds("cutoff.hessian"),
            "quadrature.moment_calls": per_pass(moments),
            "quadrature.moment_self_s": seconds("quadrature.moment"),
            "quadrature.evals_per_moment": self.counts["quadrature.evals"] / moments if moments else 0.0,
            "quadrature.tail_calls": per_pass(calls["quadrature.tail"]),
            "quadrature.tail_s": seconds("quadrature.tail"),
            "gram.assemble_calls": per_pass(calls["gram.assemble"]),
            "gram.assemble_s": seconds("gram.assemble"),
            "gram.schur_calls": per_pass(calls["gram.schur"]),
            "gram.schur_s": seconds("gram.schur"),
            "gram.dim_max": float(self.dim_max),
            "gram.reference_routes_s": seconds("gram.reference_routes"),
            "density.estimate_calls": per_pass(calls["density.estimate"]),
            "density.estimate_self_s": seconds("density.estimate"),
            "density.format_s": seconds("density.format"),
            "density.oracle_calls": per_pass(calls["density.oracle"]),
            "density.oracle_terms": per_pass(terms),
            "density.oracle_s": seconds("density.oracle"),
            "density.oracle_ns_per_term": self_ns["density.oracle"] / terms if terms else 0.0,
            "cli.calls": per_pass(calls["cli"]),
            "cli.self_s": seconds("cli"),
        }

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON: names, then [name, start, end, parent] rows."""
        names = sorted({span[0] for span in self.spans if span is not None})
        ids = {name: i for i, name in enumerate(names)}
        rows = [[ids[s[0]], s[1], s[2], s[3]] for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows, "kept": len(rows), "cap": SPAN_CAP}, fh)


class _TracedProfile:
    """A cut-off profile whose eta, eta' and eta'' calls are recorded as spans."""

    def __init__(self, profile, tracer: Tracer):
        self._profile = profile
        self.eta = tracer.wrap("cutoff.eta", profile.eta)
        self.eta_d1 = tracer.wrap("cutoff.eta", profile.eta_d1)
        self.eta_d2 = tracer.wrap("cutoff.eta", profile.eta_d2)

    def __getattr__(self, name):
        return getattr(self._profile, name)
