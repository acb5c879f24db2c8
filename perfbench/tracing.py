"""Traced CLI runs: spans around the public functions of each patil module.

Run as ``python3 perfbench/tracing.py TRACE_FILE <patil CLI arguments>``
with ``src`` on PYTHONPATH.  It wraps functions at the point where the
calling module looks them up (``patil.cli.approximant_boundary``,
``patil.quadrature.integrate_adaptive``, ...), runs ``patil.cli.main``
and, when main returns, writes the spans it kept in memory to
TRACE_FILE.  Nothing under ``src/`` changes.

A span has a name, start, end and parent span.  Calls too frequent to be
spans (one per quadrature panel) are counted instead:

* the integrand passed to ``integrate_adaptive``: panels, points and
  seconds, kept on that integral's span;
* the catalog entries' ``eval_on_I`` and ``strip_pullback`` and the
  kernel ``kernel_k``: calls, points and seconds per name.  When such a
  call is made outside an integrand its seconds are also kept on the
  enclosing span, so that span's self time excludes it.

``layer_metrics`` turns the spans of one round into the per-layer
metrics of the benchmark.
"""

import dataclasses
import json
import math
import sys
import time
from collections import defaultdict

class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, attrs, own index]
        self.spans = []
        self.stack = []
        self.in_integrand = 0
        self.leaves = defaultdict(lambda: [0, 0, 0.0])  # calls, points, seconds

    def span(self, name, fn, kind=None, check=None):
        """Wrap ``fn`` in a span; ``kind(args)`` may refine the name.

        ``check(result)`` may return attributes to keep on the span.
        """
        def wrapper(*args, **kwargs):
            attrs = {}
            rec = [kind(args) if kind else name, 0.0, 0.0,
                   self.stack[-1][5] if self.stack else -1, attrs, len(self.spans)]
            self.spans.append(rec)
            self.stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if check:
                attrs.update(check(result))
            return result
        return wrapper

    def leaf(self, name, fn):
        def wrapper(x, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(x, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tally = self.leaves[name]
                tally[0] += 1
                tally[1] += _size(x)
                tally[2] += dt
                if not self.in_integrand and self.stack:
                    attrs = self.stack[-1][4]
                    attrs["leaf_s"] = attrs.get("leaf_s", 0.0) + dt
        return wrapper

    def integrand(self, f):
        """Count panels, points and seconds of ``f`` on the current span."""
        attrs = self.stack[-1][4]
        attrs.setdefault("panels", 0)
        attrs.setdefault("points", 0)
        attrs.setdefault("integrand_s", 0.0)

        def counted(x):
            self.in_integrand += 1
            t0 = time.perf_counter()
            try:
                return f(x)
            finally:
                attrs["integrand_s"] += time.perf_counter() - t0
                attrs["panels"] += 1
                attrs["points"] += _size(x)
                self.in_integrand -= 1
        return counted

    def document(self):
        return {"spans": [{"name": s[0], "start": s[1], "end": s[2],
                           "parent": s[3], **s[4]} for s in self.spans],
                "leaves": {k: {"calls": v[0], "points": v[1], "seconds": v[2]}
                           for k, v in self.leaves.items()}}


def _size(x):
    shape = getattr(x, "shape", None)
    return int(math.prod(shape)) if shape is not None else 1


def _finite(result):
    value = complex(result)
    return {"nonfinite": not (math.isfinite(value.real) and math.isfinite(value.imag))}


def install(tracer):
    """Wrap the public functions of each module where their callers look them up."""
    import patil.approximant as approximant
    import patil.asymptotics as asymptotics
    import patil.catalog as catalog
    import patil.cli as cli
    import patil.quadrature as quadrature

    span = tracer.span

    # cli: the config stage and the three experiment runners
    cli._load_config = span("cli.config", cli._load_config)
    for fn in ("run_growth_experiment", "run_convergence_experiment",
               "run_contour_check"):
        setattr(cli, fn, span("cli.run", getattr(cli, fn)))

    # catalog: building an entry; its data functions are counted as leaves
    get_entry = catalog.get_entry

    def traced_entry(*args, **kwargs):
        entry = get_entry(*args, **kwargs)
        sig = entry.signal
        sig = dataclasses.replace(
            sig,
            eval_on_I=tracer.leaf("catalog.eval_on_I", sig.eval_on_I),
            strip_pullback=(sig.strip_pullback and
                            tracer.leaf("catalog.strip_pullback", sig.strip_pullback)))
        return dataclasses.replace(entry, signal=sig)
    catalog.get_entry = span("catalog.get_entry", traced_entry)

    # approximant: one g_lambda value per call, by path
    def boundary_kind(args):
        x, interval = args[0], args[2]
        return "approximant.inside" if interval.contains(x) else "approximant.exterior"
    boundary = span("approximant.boundary", approximant.approximant_boundary,
                    kind=boundary_kind, check=_finite)
    cli.approximant_boundary = boundary
    approximant.approximant_boundary = boundary
    approximant.approximant_interior = span(
        "approximant.interior", approximant.approximant_interior, check=_finite)
    cli.sup_error_on_compact = span("approximant.sup_error",
                                    cli.sup_error_on_compact)
    cli.l2_error_on_window = span("approximant.l2_error", cli.l2_error_on_window)

    # quench: the boundary phase, the interior weight, the parameters
    approximant.phase_G = span("quench.phase_G", approximant.phase_G)
    approximant.quench_interior = span("quench.quench_interior",
                                       approximant.quench_interior)
    cli.QuenchParams = span("quench.QuenchParams", cli.QuenchParams)

    # quadrature: one span per integral; the integrand counts panels
    adaptive = quadrature.integrate_adaptive

    def traced_adaptive(f, *args, **kwargs):
        return adaptive(tracer.integrand(f), *args, **kwargs)
    traced_adaptive = span("quadrature.integrate_adaptive", traced_adaptive)
    for module in (quadrature, approximant, asymptotics):
        module.integrate_adaptive = traced_adaptive
    approximant.pv_integrate = span("quadrature.pv_integrate",
                                    approximant.pv_integrate)
    approximant.integrate_real_line = span("quadrature.integrate_real_line",
                                           approximant.integrate_real_line)

    # asymptotics: contour checks, residues, the kernel, the growth fit
    cli.contour_identity_check = span("asymptotics.contour",
                                      cli.contour_identity_check)
    for fn in ("residue_kernel_pole", "residue_merged", "residue_strip_pole"):
        setattr(asymptotics, fn, span("asymptotics.residue", getattr(asymptotics, fn)))
    asymptotics.kernel_k = tracer.leaf("asymptotics.kernel_k", asymptotics.kernel_k)
    cli.fit_growth_exponent = span("asymptotics.fit", cli.fit_growth_exponent)


def _self_times(spans):
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[i] - s.get("leaf_s", 0.0)
            - s.get("integrand_s", 0.0) for i, s in enumerate(spans)]


def layer_metrics(documents):
    """Per-layer (value, unit) of one round from the trace documents of its processes.

    Spans of different processes are never nested, so each document is
    reduced on its own and the sums are added.
    """
    count = defaultdict(int)
    dur = defaultdict(float)
    self_s = defaultdict(float)
    attrs = defaultdict(float)
    leaves = defaultdict(lambda: [0, 0, 0.0])
    for doc in documents:
        spans = doc["spans"]
        for s, own in zip(spans, _self_times(spans)):
            name = s["name"]
            count[name] += 1
            dur[name] += s["end"] - s["start"]
            self_s[name.split(".")[0]] += own
            for key in ("panels", "points", "integrand_s", "nonfinite"):
                attrs[key] += s.get(key, 0)
        for name, tally in doc["leaves"].items():
            for k, key in enumerate(("calls", "points", "seconds")):
                leaves[name][k] += tally[key]

    def mean(name, scale):
        return dur[name] / count[name] * scale if count[name] else 0.0

    integrals = count["quadrature.integrate_adaptive"]
    data = [leaves[n] for n in ("catalog.eval_on_I", "catalog.strip_pullback")]
    kernel = leaves["asymptotics.kernel_k"]
    return {
        "quadrature.integrals": (integrals, "count"),
        "quadrature.pv_calls": (count["quadrature.pv_integrate"], "count"),
        "quadrature.real_line_calls": (count["quadrature.integrate_real_line"], "count"),
        "quadrature.panels": (int(attrs["panels"]), "count"),
        "quadrature.points": (int(attrs["points"]), "count"),
        "quadrature.panels_per_integral":
            (attrs["panels"] / integrals if integrals else 0.0, "count"),
        "quadrature.integrand_s": (attrs["integrand_s"], "s"),
        "quadrature.self_s": (self_s["quadrature"], "s"),
        "approximant.exterior.calls": (count["approximant.exterior"], "count"),
        "approximant.exterior.mean_us": (mean("approximant.exterior", 1e6), "us"),
        "approximant.inside.calls": (count["approximant.inside"], "count"),
        "approximant.inside.mean_us": (mean("approximant.inside", 1e6), "us"),
        "approximant.interior.calls": (count["approximant.interior"], "count"),
        "approximant.interior.mean_us": (mean("approximant.interior", 1e6), "us"),
        "approximant.self_s": (self_s["approximant"], "s"),
        "approximant.nonfinite": (int(attrs["nonfinite"]), "count"),
        "quench.calls": (sum(v for k, v in count.items() if k.startswith("quench.")),
                         "count"),
        "quench.self_s": (self_s["quench"], "s"),
        "catalog.entry_s": (dur["catalog.get_entry"], "s"),
        "catalog.data_calls": (sum(d[0] for d in data), "count"),
        "catalog.data_points": (sum(d[1] for d in data), "count"),
        "catalog.data_s": (sum(d[2] for d in data), "s"),
        "asymptotics.contour.calls": (count["asymptotics.contour"], "count"),
        "asymptotics.contour.mean_ms": (mean("asymptotics.contour", 1e3), "ms"),
        "asymptotics.kernel.calls": (kernel[0], "count"),
        "asymptotics.kernel_s": (kernel[2], "s"),
        "asymptotics.residue_s": (dur["asymptotics.residue"], "s"),
        "asymptotics.fit_s": (dur["asymptotics.fit"], "s"),
        "cli.config_s": (dur["cli.config"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
    }


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import patil.cli
    try:
        return patil.cli.main(cli_args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.document(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
