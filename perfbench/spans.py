"""Span tracer that times calls into qcool's public functions from outside.

The tracer rebinds each traced function at every module attribute of the
``qcool`` package that holds it, which is where callers look it up at call
time (``limits.conditional_state``, ``channel.partial_trace_matrix``,
``cli.fidelity``, ...).  ``DensityMatrix`` is traced by wrapping its
``__init__``, so the span covers construction plus validation.  The
program's own code is not modified; ``uninstall`` restores every binding.

Spans are kept in flat in-memory arrays (label id, parent span index,
start, end) and written out once at the end.  A span's self time is its
duration minus the durations of its direct child spans; calls are
single-threaded and properly nested, so child spans never overlap.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

#: Traced functions, each labelled "<home module>.<attribute>"; the home
#: module is the layer.
TARGETS = (
    "qmat.DensityMatrix",
    "qmat.partial_transpose",
    "qmat.partial_trace_matrix",
    "qmat.fidelity",
    "channel.conditional_state",
    "channel.unconditional_state",
    "channel.tripartite_state",
    "channel.project_b",
    "entanglement.negativity",
    "entanglement.report",
    "limits.evaluate_point",
    "limits.sweep",
    "limits.critical_ps_numeric",
    "photonics.simulate_streams",
    "photonics.poisson_arrivals",
    "photonics.mix_detections",
    "tomography.born_probabilities",
    "tomography.sample_counts",
    "tomography.linear_inversion",
    "tomography.project_to_physical",
    "cli.load_run_config",
    "cli.write_rows",
)

#: State builders counted by `limits.states_per_bisection`.
STATE_BUILDERS = (
    "channel.unconditional_state",
    "channel.tripartite_state",
    "channel.conditional_state",
)

#: Per-round counters fed by the wrappers, besides calls and self time.
COUNTERS = (
    "photonics.simulate_streams.peak_mb",
    "photonics.poisson_arrivals.events",
    "photonics.triples",
    "photonics.discarded",
    "cli.write_rows.bytes",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for label in TARGETS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    units.update({
        "limits.states_per_bisection": "count",
        "photonics.simulate_streams.peak_mb": "MB",
        "photonics.poisson_arrivals.events": "count",
        "photonics.triples": "count",
        "photonics.discarded": "count",
        "photonics.triple_yield": "fraction",
        "cli.write_rows.bytes": "bytes",
        "traced.scaled_throughput": "1/s",
    })
    return units


def _after_poisson(counters, result, args):
    counters["photonics.poisson_arrivals.events"] += int(result.size)


def _after_streams(counters, result, args):
    counters["photonics.triples"] += result.n_triple
    counters["photonics.discarded"] += result.n_discarded


def _after_write(counters, result, args):
    counters["cli.write_rows.bytes"] += os.path.getsize(args[0])


_AFTER = {
    "photonics.poisson_arrivals": _after_poisson,
    "photonics.simulate_streams": _after_streams,
    "cli.write_rows": _after_write,
}


class Tracer:
    """Records spans for the calls in `TARGETS` while installed."""

    def __init__(self):
        self.labels = list(TARGETS)
        self.label_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.round_starts: list[int] = []
        self.round_counters: list[dict[str, float]] = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        label_id = self.labels.index(label)
        after = _AFTER.get(label)
        peak = label == "photonics.simulate_streams"
        label_ids, parents, starts, ends = self.label_ids, self.parents, self.starts, self.ends
        stack, counters = self.stack, self.counters

        def traced(*args, **kwargs):
            idx = len(starts)
            label_ids.append(label_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if peak:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    counters["photonics.simulate_streams.peak_mb"] = max(
                        counters["photonics.simulate_streams.peak_mb"], mb
                    )
            if after is not None:
                after(counters, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target in each loaded qcool module that holds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "qcool" or name.startswith("qcool."))
        ]
        qmat = sys.modules["qcool.qmat"]
        for label in self.labels:
            module_name, attr = label.split(".")
            if label == "qmat.DensityMatrix":
                cls = qmat.DensityMatrix
                self._set(cls, "__init__", self._wrap(label, cls.__init__))
                continue
            original = getattr(sys.modules[f"qcool.{module_name}"], attr)
            wrapper = self._wrap(label, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._set(m, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def begin_round(self) -> None:
        self.round_starts.append(len(self.starts))
        for key in self.counters:
            self.counters[key] = 0.0

    def end_round(self) -> None:
        self.round_counters.append(dict(self.counters))

    def _arrays(self):
        labels = np.array(self.label_ids, dtype=np.intp)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        has_parent = parents >= 0
        children = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return labels, parents, dur - children

    def round_metrics(self) -> list[dict[str, float]]:
        """Calls, self time and counters of each recorded round."""
        labels, parents, self_s = self._arrays()
        n_labels = len(self.labels)
        bisect_id = self.labels.index("limits.critical_ps_numeric")
        builder_ids = [self.labels.index(b) for b in STATE_BUILDERS]
        bounds = self.round_starts + [labels.size]
        out = []
        for k, counters in enumerate(self.round_counters):
            lo, hi = bounds[k], bounds[k + 1]
            lab = labels[lo:hi]
            calls = np.bincount(lab, minlength=n_labels)
            self_t = np.bincount(lab, weights=self_s[lo:hi], minlength=n_labels)
            m = {}
            for i, label in enumerate(self.labels):
                m[f"{label}.calls"] = float(calls[i])
                m[f"{label}.self_s"] = float(self_t[i])
            par = parents[lo:hi]
            in_bisection = np.isin(lab, builder_ids) & (par >= 0)
            in_bisection[in_bisection] = labels[par[in_bisection]] == bisect_id
            n_bisect = calls[bisect_id]
            m["limits.states_per_bisection"] = (
                float(in_bisection.sum()) / n_bisect if n_bisect else 0.0
            )
            m.update(counters)
            attempted = counters["photonics.triples"] + counters["photonics.discarded"]
            m["photonics.triple_yield"] = (
                counters["photonics.triples"] / attempted if attempted else 0.0
            )
            out.append(m)
        return out

    def write(self, path: str) -> None:
        """Write every span with its round, label, parent, start and end."""
        n = len(self.starts)
        rounds = np.searchsorted(self.round_starts, np.arange(n), side="right") - 1
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            labels=np.array(self.labels),
            label=np.array(self.label_ids, dtype=np.uint16),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
            round=rounds,
        )
