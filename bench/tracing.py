"""Per-layer call tracing from outside the library.

The layers are the modules of ``expansion_lab``.  ``Tracer.install``
wraps every public function defined in each module and rebinds the
wrapper under every name that holds the original in any module of the
package, because modules bind names at import (``from .simplex import
min_l1_combination``).  Each call pushes a span (name, start, parent) on
a stack; on return its duration is added to the parent's child time, so
a span's self time excludes its traced children.  A function's time is
counted only at its outermost activation, so recursion is not counted
twice.  Generator functions are not wrapped, since a wrapper would only
time the creation of the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

#: Modules traced, in layer order.
LAYERS = ("exactla", "simplex", "spanning", "expansion", "complexes", "harness", "cli")

#: Cached functions whose ``cache_info()`` is reported, by metric prefix.
CACHES = {
    "exactla.hnf": ("exactla", "hnf"),
    "exactla.snf": ("exactla", "snf"),
    "exactla.integer_kernel_basis": ("exactla", "integer_kernel_basis"),
    "expansion.kernel_info": ("expansion", "_kernel_info"),
    "expansion.modq_system": ("expansion", "_modq_system"),
}

#: Each wrapped function the per-layer metrics rely on, and the workload
#: on which it must record calls.  The traced run fails if one of them
#: is missing or records none, so a moved import cannot zero a layer.
COVERAGE = {
    "cli.main": ("modq", "presentations", "span-scan"),
    "harness.campaign_modq": ("modq",),
    "harness.campaign_presentations": ("presentations",),
    "simplex.min_l1_combination": ("modq", "presentations"),
    "expansion.xi_q_at": ("modq", "presentations"),
    "expansion.xi_z_at": ("modq", "presentations"),
    "expansion.xi_q_global": ("modq", "presentations"),
    "expansion.xi_zq_at": ("modq",),
    "expansion.xi_zq_global": ("modq", "presentations"),
    "exactla.solve_rational": ("modq", "presentations", "span-scan"),
    "exactla.solve_integer": ("modq", "presentations"),
    "exactla.hnf": ("modq", "presentations", "span-scan"),
    "exactla.snf": ("modq", "presentations", "span-scan"),
    "exactla.unimodular_inverse": ("span-scan",),
    "exactla.lattice_member": ("span-scan",),
    "spanning.is_integrally_spanned": ("modq", "presentations", "span-scan"),
    "complexes.presentation_d1": ("presentations",),
    "complexes.graph_d0": ("modq",),
}

#: Worker exit code for a failed coverage check.
COVERAGE_EXIT = 3


class CoverageError(RuntimeError):
    """A traced function recorded no calls on the workload that must reach it."""


#: Spans deeper than LOG_DEPTH, or past the first LOG_LIMIT, are
#: aggregated but not logged one by one.
LOG_DEPTH = 3
LOG_LIMIT = 2000


class Tracer:
    """Span stack plus per-function and per-module aggregates."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                        for name in LAYERS}
        self.stack = []          # open spans: [label, start, child seconds]
        self.stats = {}          # label -> [calls, time_s, self_s]
        self.active = Counter()  # label or module -> open activations
        self.module_time = Counter({name: 0.0 for name in LAYERS})
        self.spans = []          # (label, start, end, parent index), depth <= LOG_DEPTH
        self.open_index = []     # span log index of each open span, or None
        self.rebound = 0
        self.simplex = {"rank1": 0, "repeat": 0, "cols_max": 0, "under_xi_z": 0}
        self.simplex_seen = set()
        self.spanning = {"subsets_checked": 0, "witness_s": 0.0}
        self.modq_calls = Counter()
        self.caches = {prefix: getattr(self.modules[mod], name)
                       for prefix, (mod, name) in CACHES.items()}

    def install(self) -> None:
        targets = {}
        for mod_name, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
                    continue
                label = f"{mod_name}.{name}"
                targets[id(obj)] = (obj, self._wrap(label, mod_name, obj))
        holders = [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(self.package.__path__)
        ]
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(holder, name, hit[1])
                    self.rebound += 1

    def _wrap(self, label, mod_name, fn):
        stack, active, clock = self.stack, self.active, time.perf_counter
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        hook = {
            "simplex.min_l1_combination": self._on_simplex,
            "spanning.is_integrally_spanned": self._on_spanning,
            "expansion.xi_zq_at": functools.partial(self._on_zq, "at"),
            "expansion.xi_zq_global": functools.partial(self._on_zq, "global"),
        }.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(stack) < LOG_DEPTH and len(self.spans) < LOG_LIMIT:
                parent = self.open_index[-1] if self.open_index else None
                self.open_index.append(len(self.spans))
                self.spans.append([label, 0.0, 0.0, parent])
            else:
                self.open_index.append(None)
            active[label] += 1
            active[mod_name] += 1
            frame = [label, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[label] -= 1
                active[mod_name] -= 1
                duration = end - frame[1]
                stat[0] += 1
                stat[2] += duration - frame[2]
                if not active[label]:
                    stat[1] += duration
                if not active[mod_name]:
                    self.module_time[mod_name] += duration
                if stack:
                    stack[-1][2] += duration
                logged = self.open_index.pop()
                if logged is not None:
                    self.spans[logged][1:3] = [frame[1], end]
            if hook is not None:
                started = clock()
                hook(args, result, duration)
                if stack:
                    stack[-1][2] += clock() - started
            return result

        return traced

    def _on_simplex(self, args, result, duration):
        u, directions = args[0], args[1]
        s = self.simplex
        s["cols_max"] = max(s["cols_max"], len(u))
        if len(directions) == 1:
            s["rank1"] += 1
        if self.active["expansion.xi_z_at"]:
            s["under_xi_z"] += 1
        key = (tuple(u), tuple(tuple(d) for d in directions))
        if key in self.simplex_seen:
            s["repeat"] += 1
        else:
            self.simplex_seen.add(key)

    def _on_spanning(self, args, result, duration):
        self.spanning["subsets_checked"] += result.subsets_checked
        if not result.spanned:
            self.spanning["witness_s"] += duration

    def _on_zq(self, kind, args, result, duration):
        # The matrix is kept and the coset sizes computed after the run.
        self.modq_calls[(kind, args[0])] += 1

    def coset_vectors(self) -> int:
        """q^dim ker per xi_zq_at call, (q^rank - 1) q^dim ker per
        xi_zq_global call: the coset vectors the enumeration is sized
        for, computed from the matrices (early exits not subtracted)."""
        system = self.modules["expansion"]._modq_system.__wrapped__
        total = 0
        for (kind, a), calls in self.modq_calls.items():
            _, pivots, kernel, _ = system(a)
            size = a.q ** len(kernel)
            if kind == "global":
                size *= a.q ** len(pivots) - 1
            total += calls * size
        return total

    def metrics(self, workload: str) -> dict:
        """Per-layer metrics; raises CoverageError when coverage fails."""
        missing = [label for label, loads in COVERAGE.items()
                   if workload in loads and self.stats.get(label, [0])[0] == 0]
        if missing:
            raise CoverageError(
                f"trace coverage: no calls recorded on {workload} for "
                + ", ".join(missing))

        def calls(label):
            return self.stats.get(label, [0, 0.0, 0.0])[0]

        def time_s(label):
            return self.stats.get(label, [0, 0.0, 0.0])[1]

        def self_s(label):
            return self.stats.get(label, [0, 0.0, 0.0])[2]

        def share(part, base):
            return part / base if base else 0.0

        def module_self(mod):
            return sum(v[2] for k, v in self.stats.items() if k.startswith(mod + "."))

        lp = calls("simplex.min_l1_combination")
        out = {
            "simplex.calls": lp,
            "simplex.time_s": time_s("simplex.min_l1_combination"),
            "simplex.cols_max": self.simplex["cols_max"],
            "simplex.rank1_share": share(self.simplex["rank1"], lp),
            "simplex.repeat_share": share(self.simplex["repeat"], lp),
            "expansion.lp_per_xi_z": share(self.simplex["under_xi_z"],
                                           calls("expansion.xi_z_at")),
            "expansion.coset_vectors": self.coset_vectors(),
            "spanning.calls": calls("spanning.is_integrally_spanned"),
            "spanning.time_s": time_s("spanning.is_integrally_spanned"),
            "spanning.subsets_checked": self.spanning["subsets_checked"],
            "spanning.witness_s": self.spanning["witness_s"],
            "complexes.time_s": self.module_time["complexes"],
            "harness.self_s": module_self("harness"),
            "cli.self_s": module_self("cli"),
            "exactla.self_s": module_self("exactla"),
            "expansion.self_s": module_self("expansion"),
        }
        for label in ("expansion.xi_q_at", "expansion.xi_z_at", "expansion.xi_q_global",
                      "expansion.xi_zq_at", "expansion.xi_zq_global",
                      "exactla.solve_rational", "exactla.solve_integer",
                      "exactla.hnf", "exactla.snf"):
            out[f"{label}.calls"] = calls(label)
            out[f"{label}.time_s"] = time_s(label)
            out[f"{label}.self_s"] = self_s(label)
        for prefix, cached in self.caches.items():
            info = cached.cache_info()
            lookups = info.hits + info.misses
            out[f"{prefix}.hit_ratio"] = share(info.hits, lookups)
            out[f"{prefix}.cache_lookups"] = lookups
        return out

    def span_log(self) -> list:
        return [list(span) for span in self.spans]


def cache_sizes(package) -> dict:
    """``cache_info().currsize`` of each cached function, by metric prefix."""
    out = {}
    for prefix, (mod, name) in CACHES.items():
        fn = getattr(importlib.import_module(f"{package.__name__}.{mod}"), name)
        out[prefix] = fn.cache_info().currsize
    return out
