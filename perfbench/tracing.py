"""Outside-in tracing of the package's layers for the per-layer metrics.

`Tracer` wraps public functions and methods of `graphon_hawkes` from the
benchmark's side.  It rebinds each wrapped name in every package module
namespace that holds it and restores the originals on exit, so the
program's own code is never edited.  Each call becomes a span with a name,
start, end and parent; self time is a span's duration minus its children's.
Work counts are read only from arguments and return values.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _realization_len(counts, prefix, out):
    counts[f"{prefix}.events"] += len(out)
    counts[f"{prefix}.censored"] += int(out.censored)


def _cluster(counts, args, kwargs, out):
    _realization_len(counts, "cluster_sim", out)
    counts["cluster_sim.immigrants"] += int((out.generations == 0).sum())


def _thinning(counts, args, kwargs, out):
    _realization_len(counts, "thinning_sim", out)
    initial = kwargs.get("initial", args[2] if len(args) > 2 else None)
    if initial is not None:
        counts["thinning_sim.history_events"] += int(initial.times.size)


def _spectral(counts, args, kwargs, out):
    counts["operators.power_iterations"] += out.iterations


def _neumann(counts, args, kwargs, out):
    counts["operators.neumann_terms"] += out.terms_used


def _fixed_point(counts, args, kwargs, out):
    counts["transforms.fixed_point_iterations"] += out[1].iterations


def _pp_distance(counts, args, kwargs, out):
    counts["metrics.events_compared"] += len(args[0]) + len(args[1])


def _to_ndjson(counts, args, kwargs, out):
    counts["events.bytes_written"] += len(out)
    counts["events.events_serialized"] += len(args[0])


def _from_ndjson(counts, args, kwargs, out):
    counts["events.events_serialized"] += len(out)


# (module, attribute, span name, counter).  "Class.method" attributes are
# patched on the class; the rest are module-level functions.
TARGETS = (
    ("cli", "main", "cli", None),
    ("config", "load_model", "config.load_model", None),
    ("model", "validate_model", "model.validate_model", None),
    ("cluster_sim", "simulate_process", "cluster_sim.simulate_process", _cluster),
    ("thinning_sim", "simulate_thinning", "thinning_sim.simulate_thinning", _thinning),
    ("operators", "discretize_kernel", "operators.discretize_kernel", None),
    ("operators", "spectral_radius", "operators.spectral_radius", _spectral),
    ("operators", "cluster_size_bound", "operators.cluster_size_bound", None),
    ("operators", "stationary_rate", "operators.stationary_rate", _neumann),
    ("operators", "stability_report", "operators.stability_report", None),
    ("limits", "flln_experiment", "limits.flln_experiment", None),
    ("limits", "fclt_experiment", "limits.fclt_experiment", None),
    ("transforms", "fixed_point", "transforms.fixed_point", _fixed_point),
    ("transforms", "mc_transform_oracle", "transforms.mc_transform_oracle", None),
    ("prelimit", "simulate_coupled", "prelimit.simulate_coupled", None),
    ("metrics", "pp_distance", "metrics.pp_distance", _pp_distance),
    ("events", "Realization.to_ndjson", "events.to_ndjson", _to_ndjson),
    ("events", "Realization.from_ndjson", "events.from_ndjson", _from_ndjson),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)

# Which per-invocation and end-to-end times each layer's metrics should move.
LAYER_MOVES = {
    "cli": ("wall_s",),
    "config": ("setup_s",),
    "model": ("setup_s",),
    "cluster_sim": ("simulate_s", "flln_s", "fclt_s", "events_per_s"),
    "limits": ("flln_s", "fclt_s"),
    "operators": ("stability_step_s", "stability_smooth_s", "converge_s"),
    "transforms": ("transform_s",),
    "thinning_sim": ("thinning_s", "thinning_hist_s", "events_per_s"),
    "prelimit": ("converge_s",),
    "metrics": ("converge_s",),
    "events": ("simulate_s", "thinning_s", "thinning_hist_s"),
}


class Tracer:
    """Context manager that records spans while the package is wrapped."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return wrapper

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        package = {k: m for k, m in sys.modules.items()
                   if k == "graphon_hawkes" or k.startswith("graphon_hawkes.")}
        for module, attr, name, counter in TARGETS:
            mod = package[f"graphon_hawkes.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._rebind(cls, meth, classmethod(self._wrap(name, raw.__func__, counter)))
                else:
                    self._rebind(cls, meth, self._wrap(name, raw, counter))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, counter)
            for other in package.values():
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._rebind(other, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per span name, plus the derived work counts."""
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        child = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                p = self.spans[parent]
                child[p[0]] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = total[name] - child[name]
        c = self.counts

        def per(num, den, scale):
            return num * scale / den if den else 0.0

        out["cluster_sim.events"] = c["cluster_sim.events"]
        out["cluster_sim.immigrants"] = c["cluster_sim.immigrants"]
        out["cluster_sim.us_per_event"] = per(
            total["cluster_sim.simulate_process"], c["cluster_sim.events"], 1e6)
        out["cluster_sim.censored_frac"] = per(
            c["cluster_sim.censored"], calls["cluster_sim.simulate_process"], 1.0)
        out["operators.power_iterations"] = c["operators.power_iterations"]
        out["operators.neumann_terms"] = c["operators.neumann_terms"]
        out["transforms.fixed_point_iterations"] = c["transforms.fixed_point_iterations"]
        out["transforms.ms_per_sweep"] = per(
            total["transforms.fixed_point"], c["transforms.fixed_point_iterations"], 1e3)
        out["thinning_sim.events"] = c["thinning_sim.events"]
        out["thinning_sim.history_events"] = c["thinning_sim.history_events"]
        out["thinning_sim.us_per_event"] = per(
            total["thinning_sim.simulate_thinning"], c["thinning_sim.events"], 1e6)
        out["metrics.events_compared"] = c["metrics.events_compared"]
        out["events.bytes_written"] = c["events.bytes_written"]
        out["events.ns_per_event"] = per(
            total["events.to_ndjson"] + total["events.from_ndjson"],
            c["events.events_serialized"], 1e9)
        return out
