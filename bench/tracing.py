"""Outside-in tracing of trawlkit's layers, installed from the benchmark only.

``Tracer.install`` replaces each layer's entry points, under every name by
which the package's own modules call them, with wrappers that record a span
(name, start, end, parent, replication id); ``Tracer.restore`` puts the
originals back.  Nothing in the package source changes.

Spans and counters are separate passes.  The hot calls counted in the
counting pass (``TrawlSpec.a``, the seed draws) happen hundreds of thousands
of times inside ``limit_theory``, and wrapping them inflates the self times
of the spans around them several-fold; their counts are therefore taken in a
run whose timings are thrown away.
"""

from __future__ import annotations

import functools
import math
import time

#: Span name -> list of (module, attribute) or (module, class, method) that
#: the wrapper replaces.  Module attributes are patched in every trawlkit
#: module that holds the same function object, so a call through
#: ``mc.simulate_points`` and one through ``simulate.simulate_points`` are
#: both seen.
SPAN_TARGETS = {
    "cli.main": [("cli", "main")],
    "mc.run_experiment": [("mc", "run_experiment")],
    "mc.replication": [("mc", "_one_replication")],
    "mc.write_outputs": [("mc", "McResult", "write_json"), ("mc", "McResult", "write_csv")],
    "mc.true_psi": [("mc", "true_psi")],
    "mc.true_lambda": [("mc", "true_lambda")],
    "limit_theory.limit_cov_psi": [("limit_theory", "AvarKernel", "limit_cov_psi")],
    "limit_theory.limit_cov_lambda": [("limit_theory", "AvarKernel", "limit_cov_lambda")],
    "simulate.simulate_points": [("simulate", "simulate_points")],
    "simulate.simulate_slices": [("simulate", "simulate_slices")],
    "estimators.estimate_trawl": [("estimators", "estimate_trawl")],
    "estimators.functionals": [
        ("estimators", "psi_n"),
        ("estimators", "lambda_n"),
        ("estimators", "lambda_bar_n"),
    ],
    "inference.tau_test": [("inference", "tau_test")],
}

MODULES = ("cli", "mc", "inference", "limit_theory", "estimators", "simulate", "models")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Annotations keep references to small objects only (never a path), and the
# numbers derived from them are computed after the session, so the wrappers
# add next to nothing to the spans around them.


def _annotate_points(args, kwargs, result):
    return {"trawl": _arg(args, kwargs, 0, "trawl"), "seed": _arg(args, kwargs, 1, "seed"), "n": result.n, "delta": result.delta}


def _annotate_slices(args, kwargs, result):
    return {"n": result.n, "delta": result.delta, "provenance": result.provenance}


def _annotate_estimate(args, kwargs, result):
    return {"n": result.n}


#: Span name -> function (args, kwargs, result) -> small dict kept with the
#: span; used only for computed work counts.
ANNOTATE = {
    "simulate.simulate_points": _annotate_points,
    "simulate.simulate_slices": _annotate_slices,
    "estimators.estimate_trawl": _annotate_estimate,
}


class Tracer:
    """Span recorder and call counter for one benchmark session."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, replication id, attrs]
        self.counters = {}  # (counter, enclosing span name) -> [calls, elems]
        self.missing = []
        self.invocation = 0
        self._stack = []
        self._rep = None
        self._counting = set()
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        annotate = ANNOTATE.get(name)
        is_rep = name == "mc.replication"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._rep, None]
            self.spans.append(record)
            self._stack.append(index)
            outer_rep = self._rep
            if is_rep:
                # _one_replication(cfg, n, rep)
                self._rep = f"{self.invocation}/{args[1]}/{args[2]}"
                record[4] = self._rep
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
                self._rep = outer_rep
            if annotate is not None:
                record[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter in self._counting:  # a nested draw is part of the outer one
                return fn(*args, **kwargs)
            self._counting.add(counter)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._counting.discard(counter)
            where = self.spans[self._stack[-1]][0] if self._stack else "-"
            slot = self.counters.setdefault((counter, where), [0, 0])
            slot[0] += 1
            slot[1] += _size(result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package, counting=False):
        """Wrap every span target; with ``counting`` also the hot calls."""
        mods = {m: getattr(package, m) for m in MODULES if hasattr(package, m)}
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                mod = mods.get(target[0])
                if len(target) == 3:
                    cls = getattr(mod, target[1], None)
                    if cls is None or target[2] not in cls.__dict__:
                        self.missing.append(".".join(target))
                        continue
                    self._set(cls, target[2], self._span_wrapper(name, cls.__dict__[target[2]]))
                    continue
                original = getattr(mod, target[1], None) if mod is not None else None
                if original is None:
                    self.missing.append(".".join(target))
                    continue
                wrapped = self._span_wrapper(name, original)
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, attr, wrapped)
        if counting:
            models = mods["models"]
            for cls in _subclasses(models.TrawlSpec):
                if "a" in cls.__dict__:
                    self._set(cls, "a", self._count_wrapper("models.a", cls.__dict__["a"]))
            for cls in _subclasses(models.LevySeedSpec):
                for attr in ("sample", "sample_iid"):
                    if attr in cls.__dict__:
                        self._set(cls, attr, self._count_wrapper("models.seed_draws", cls.__dict__[attr]))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _size(result):
    size = getattr(result, "size", None)
    return int(size) if size is not None else 1


# -- reduction ---------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def span_stats(spans):
    """Per span name: count, self time, inclusive total and p50/p90 durations."""
    selfs = self_times(spans)
    groups = {}
    for span, own in zip(spans, selfs):
        g = groups.setdefault(span[0], {"count": 0, "self_s": 0.0, "total_s": 0.0, "durations": []})
        g["count"] += 1
        g["self_s"] += own
        g["total_s"] += span[2] - span[1]
        g["durations"].append(span[2] - span[1])
    for g in groups.values():
        d = sorted(g.pop("durations"))
        g["p50_ms"] = 1e3 * _quantile(d, 0.5)
        # A p90 from fewer than 100 spans rests on fewer than ten samples
        # beyond it; it is left out.
        g["p90_ms"] = 1e3 * _quantile(d, 0.9) if len(d) >= 100 else None
    return groups


# -- computed work counts -----------------------------------------------------


def slice_draws(n, horizon):
    """Seed draws the slice sampler makes for n steps and horizon J: the J
    row-0 slices and the row-0 residual, n - m - 1 draws on each diagonal
    m <= min(J, n - 1), and n row residuals.  A diagonal of zero area, which
    only a compactly supported trawl has, is counted though not drawn."""
    top = min(horizon, n - 1)
    return min(horizon, n) + 1 + (top + 1) * (n - 1) - top * (top + 1) // 2 + n


def fft_bytes(n):
    """Bytes of the arrays one FFT estimate materialises at transform length
    m = 2^bitlen(2n - 1): two zero-padded inputs and one output of m
    float64, and four half spectra (two transforms, a conjugate and the
    product) of m/2 + 1 complex128."""
    m = 1 << (2 * n - 1).bit_length()
    return 3 * 8 * m + 4 * 16 * (m // 2 + 1)


def _computed(name, attrs):
    if name == "simulate.simulate_points":
        trawl, leb = attrs["trawl"], attrs["trawl"].leb_A
        cell = leb - float(trawl.tail_integral(attrs["delta"]))
        return {"expected_points": attrs["seed"].rate * (leb + attrs["n"] * cell)}
    if name == "simulate.simulate_slices":
        prov = attrs["provenance"]
        if prov.get("simulator") != "slices" or prov.get("horizon") is None:
            return {}
        return {"horizon": prov["horizon"], "slice_draws": slice_draws(attrs["n"], prov["horizon"])}
    if name == "estimators.estimate_trawl":
        return {"fft_bytes": fft_bytes(attrs["n"])}
    return {}


def export_spans(spans):
    """Spans as JSON-ready lists, with annotations turned into computed counts."""
    return [
        [name, start, end, parent, rep, _computed(name, attrs) if attrs else None]
        for name, start, end, parent, rep, attrs in spans
    ]
