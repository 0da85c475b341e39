"""Per-layer spans and work counts for padichg, installed from outside.

Each layer is a package module.  Its public entry points at table, series
and check granularity are replaced by timing wrappers in every padichg
namespace that holds them (``from .hyper import hg_series`` binds a name
of its own), and the product methods of TruncSeries and LaurentPoly are
patched on the classes.  Per-coefficient helpers (embed_rational,
coeff_exact, vp, the Padic operators) stay unwrapped: their time is self
time of the layer that calls them.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("padic", "hyper", "interp", "series", "verify", "cli")

# Wrapped entry points per layer.  Names a later version of padichg no
# longer has are skipped.
ENTRY_POINTS = {
    "padic": ["braced_product", "braced_table", "c_power_frac", "iwasawa_log", "dwork_chain"],
    "hyper": ["hg_coefficients", "b_coefficients", "bhat_coefficients", "b0_constant",
              "hg_series", "hg_series_multi", "log_type_series", "hat_series",
              "dwork_truncation_pair", "compute_h"],
    "interp": ["beta_at", "ratio_identity_check"],
    "series": ["TruncSeries.__mul__", "TruncSeries.mul_poly", "LaurentPoly.__mul__",
               "frobenius_substitute", "log_integral", "laurent_reverse"],
    "verify": None,  # every public check_* and sweep_* function
    "cli": ["main", "run_suite", "emit_table"],
}

# hyper builders whose argument says how many coefficients are requested
_REQUEST_ARGS = ("count", "order")


def _length(poly) -> int:
    """Number of stored coefficients of a TruncSeries or LaurentPoly."""
    coeffs = getattr(poly, "coeffs", None)
    return len(coeffs) if coeffs is not None else len(poly)


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import padichg  # noqa: F401 - loads every submodule

        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "padichg" or key.startswith("padichg.")]
        for layer in LAYERS:
            module = sys.modules[f"padichg.{layer}"]
            names = ENTRY_POINTS[layer]
            if names is None:
                names = sorted(n for n, v in vars(module).items()
                               if n.startswith(("check_", "sweep_"))
                               and getattr(v, "__module__", None) == module.__name__)
            for name in names:
                owner, _, attr = name.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, attr, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original, self._counter(layer, original))
                if owner:
                    setattr(holder, attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)

    def _counter(self, layer: str, fn):
        """A function of the call's arguments giving its work count, or None."""
        if layer == "series" and fn.__name__ in ("__mul__", "mul_poly"):
            key = "series.mul_terms"
            return lambda args, kwargs: (key, _length(args[0]) * _length(args[1]))
        if layer != "hyper":
            return None
        key = "hyper.coeff_terms"
        if fn.__name__ == "b0_constant":
            return lambda args, kwargs: (key, 1)
        params = list(inspect.signature(fn).parameters)
        for arg in _REQUEST_ARGS:
            if arg in params:
                pos = params.index(arg)
                return lambda args, kwargs: (
                    key, args[pos] if len(args) > pos else kwargs.get(arg, 0))
        return None

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls = name.split(".")[0] + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if counter is not None:
                key, amount = counter(args, kwargs)
                counts[key] += amount
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    # -- results ------------------------------------------------------------

    def layers(self) -> dict:
        """Per-layer self time, calls and work counts of the run so far."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name.split(".")[0] + ".self_s"] += end - start - child
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.counts[f"{layer}.calls"]
        out["hyper.coeff_terms"] = self.counts["hyper.coeff_terms"]
        out["series.mul_terms"] = self.counts["series.mul_terms"]
        cache = getattr(sys.modules["padichg.hyper"], "_RATIO_CACHE", None)
        out["hyper.cache_terms"] = sum(map(len, cache.values())) if cache else 0
        out["missing"] = self.missing
        return out

    def write_spans(self, path: str) -> None:
        """Tab-separated name, start, end, parent index; one span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
