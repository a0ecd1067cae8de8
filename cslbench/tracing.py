"""Spans and counters around the calls into cslsim's modules.

The traced run wraps cslsim functions from outside: each wrapper opens a
span (name, start, end, parent) around the call and may add counters to
it.  ``numpy.fft.fft``/``ifft`` are wrapped to count transforms, which
are attributed to the enclosing span.  Spans are kept in memory and
written out once, when the run ends.  Nothing is wrapped outside a
traced pass, so untraced passes pay nothing.

Worker threads of ``run_ensemble`` have no open span of their own; their
spans take as parent the innermost span open on the thread that created
the tracer, which is the ``run_ensemble`` call that started them.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        # Each span is [name id, parent id, start, end]; parent -1 is none.
        self.spans: list = []
        self.counters = defaultdict(float)   # (span id, key) -> value
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._patches: list = []
        self._children_of = (None, -1)   # (children map, spans it covers)

    # ------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main[-1] if self._main else -1

    def begin(self, name: str) -> int:
        parent = self.current()
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            sid = len(self.spans)
            self.spans.append([nid, parent, time.perf_counter(), math.nan])
        self._stack().append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, value: float = 1.0, sid: int = None) -> None:
        sid = self.current() if sid is None else sid
        with self._lock:
            self.counters[(sid, key)] += value

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    # ---------------------------------------------------------- wrapping
    def _wrapper(self, name, func, after, count_only):
        if count_only:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                self.count(name + ".calls")
                return func(*args, **kwargs)
            return counted

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            sid = self.begin(name)
            try:
                out = func(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(self, sid, args, kwargs, out)
            return out
        return spanned

    def patch(self, owner, attr: str, name: str, *, after=None,
              count_only: bool = False) -> None:
        """Wrap ``owner.attr`` and every cslsim module global bound to it.

        A name this version of cslsim does not have is skipped, so the
        benchmark keeps running when internals are renamed.
        """
        func = getattr(owner, attr, None)
        if func is None:
            return
        wrapper = self._wrapper(name, func, after, count_only)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == "cslsim" or mod_name.startswith("cslsim.")):
                continue
            targets += [(mod, k) for k, v in list(vars(mod).items()) if v is func]
        for obj, key in targets:
            setattr(obj, key, wrapper)
            self._patches.append((obj, key, func))

    def patch_fft(self) -> None:
        for attr in ("fft", "ifft"):
            func = getattr(np.fft, attr)

            @functools.wraps(func)
            def counted(a, *args, _func=func, **kwargs):
                out = _func(a, *args, **kwargs)
                axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
                sid = self.current()
                self.count("fft.calls", 1, sid)
                self.count("fft.points", out.size, sid)
                self.count("fft.rows", out.size // out.shape[axis], sid)
                return out
            setattr(np.fft, attr, counted)
            self._patches.append((np.fft, attr, func))

    def unpatch(self) -> None:
        while self._patches:
            obj, key, func = self._patches.pop()
            setattr(obj, key, func)

    # --------------------------------------------------------- summaries
    def _children(self) -> dict:
        if self._children_of[1] != len(self.spans):
            children = defaultdict(list)
            for sid, (_, parent, _, _) in enumerate(self.spans):
                children[parent].append(sid)
            self._children_of = (children, len(self.spans))
        return self._children_of[0]

    def summarize(self, root: int) -> dict:
        """Totals over the subtree of span ``root``.

        Returns {"time": name -> summed duration, "calls": name -> count,
        "self": name -> summed self time, "counts": (name, key) -> value},
        where self time is a span's duration minus the union of its
        children's intervals (children may overlap on worker threads).
        """
        children = self._children()
        subtree, todo = [], [root]
        while todo:
            sid = todo.pop()
            subtree.append(sid)
            todo.extend(children.get(sid, ()))
        inside = set(subtree)
        out = {"time": defaultdict(float), "calls": defaultdict(int),
               "self": defaultdict(float), "counts": defaultdict(float)}
        for sid in subtree:
            nid, _, start, end = self.spans[sid]
            name = self.names[nid]
            out["time"][name] += end - start
            out["calls"][name] += 1
            out["self"][name] += (end - start) - _covered(
                start, end, [self.spans[c][2:] for c in children.get(sid, ())])
        for (sid, key), value in self.counters.items():
            if sid in inside:
                out["counts"][(self.names[self.spans[sid][0]], key)] += value
        return out

    def save(self, path) -> None:
        """Write every span (name, parent, start, end) and counter."""
        spans = np.array(self.spans, dtype=float).reshape(-1, 4)
        counters = sorted(self.counters.items())
        np.savez_compressed(
            path, names=np.array(self.names), name=spans[:, 0].astype(np.int32),
            parent=spans[:, 1].astype(np.int64), start=spans[:, 2], end=spans[:, 3],
            counter_span=np.array([k[0] for k, _ in counters], dtype=np.int64),
            counter_key=np.array([k[1] for k, _ in counters]),
            counter_value=np.array([v for _, v in counters], dtype=float))


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# --------------------------------------------------- what the run wraps

def _after_evolve_batch(tracer, sid, args, kwargs, out):
    tracer.count("traj_steps", out.w.shape[0] * out.w.shape[1], sid)


def _after_run_ensemble(tracer, sid, args, kwargs, stats):
    tracer.count("trajectories", stats.n_requested, sid)
    tracer.count("trajectories_failed", stats.n_failed, sid)
    if stats.mode == "raw":
        tracer.count("raw_trajectories", stats.n_requested, sid)
        tracer.count("raw_ess", stats.effective_sample_size, sid)


def _after_lindblad(tracer, sid, args, kwargs, series):
    if series.rhos is None:
        return
    scenario = args[1]
    first = kwargs.get("steps") or scenario.grid.steps
    refinements = round(math.log2((series.times.size - 1) / first))
    tracer.count("lindblad_refinements", refinements, sid)
    tracer.count("lindblad_steps", first * (2 ** (refinements + 1) - 1), sid)


def _after_grid_once(tracer, sid, args, kwargs, out):
    tracer.count("grid_steps", kwargs.get("steps", args[1] if len(args) > 1 else 0), sid)


def install(tracer: Tracer) -> None:
    """Wrap the cslsim calls behind the per-layer metrics."""
    from cslsim import ensemble, hilbert, ledger, noise, postulate, propagation, scenarios

    for name in ("two_level_collapse", "qubit_dephasing", "random_dense",
                 "free_particle_grid"):
        tracer.patch(scenarios, name, "scenarios." + name)
    tracer.patch(propagation, "make_backend", "propagation.make_backend")
    tracer.patch(propagation, "evolve_batch", "propagation.evolve_batch",
                 after=_after_evolve_batch)
    tracer.patch(propagation, "field_energy_sweep", "propagation.field_energy_sweep")
    tracer.patch(noise, "standard_increments", "noise.standard_increments")
    tracer.patch(ensemble.DensityMatrix, "__post_init__", "ensemble.density_matrix")
    tracer.patch(ensemble, "run_ensemble", "ensemble.run_ensemble",
                 after=_after_run_ensemble)
    tracer.patch(ensemble, "lindblad_propagate", "ensemble.lindblad_propagate",
                 after=_after_lindblad)
    tracer.patch(ensemble, "grid_lindblad_channels", "ensemble.grid_lindblad_channels")
    # Private: the only place the grid integrator's step count is visible.
    tracer.patch(ensemble, "_grid_channels_once", "ensemble.grid_channels_once",
                 after=_after_grid_once)
    tracer.patch(ledger, "build_ledger", "ledger.build_ledger")
    tracer.patch(ledger, "field_energy_quadrature", "ledger.field_energy_quadrature")
    tracer.patch(ledger, "observable_drift", "ledger.observable_drift")
    tracer.patch(hilbert, "interaction_picture", "hilbert.interaction_picture",
                 count_only=True)
    tracer.patch(hilbert, "eigendecompose", "hilbert.eigendecompose", count_only=True)
    tracer.patch(postulate, "collapse_residual", "postulate.collapse_residual")
    tracer.patch(postulate, "tail_fit", "postulate.tail_fit")
    tracer.patch(postulate, "moment_divergence_scan", "postulate.moment_divergence_scan")
    tracer.patch_fft()


# ----------------------------------------------------- per-layer metrics

def _counts(summary, prefix: str, key: str) -> float:
    return sum(v for (name, k), v in summary["counts"].items()
               if k == key and name.startswith(prefix))


def _pass_values(s: dict) -> dict:
    """Per-layer values of one traced pass (or one traced set-up)."""
    t, c = s["time"], s["calls"]
    traj_steps = _counts(s, "propagation.evolve_batch", "traj_steps")
    evolve_s = t["propagation.evolve_batch"]
    raw_n = _counts(s, "ensemble.run_ensemble", "raw_trajectories")
    return {
        "scenarios.build_s": sum(v for k, v in t.items() if k.startswith("scenarios.")),
        "propagation.make_backend_s": t["propagation.make_backend"],
        "ensemble.density_matrix_s": t["ensemble.density_matrix"],
        "noise.standard_increments.calls": c["noise.standard_increments"],
        "noise.standard_increments_s": t["noise.standard_increments"],
        "propagation.evolve_batch_s": evolve_s,
        "propagation.traj_steps": traj_steps,
        "propagation.traj_steps_per_s": traj_steps / evolve_s if evolve_s else 0.0,
        "propagation.field_energy_sweep_s": t["propagation.field_energy_sweep"],
        "propagation.fft_calls": _counts(s, "propagation.", "fft.calls"),
        "propagation.fft_points": _counts(s, "propagation.", "fft.points"),
        "propagation.fft_per_traj_step": (_counts(s, "propagation.", "fft.rows")
                                          / traj_steps if traj_steps else 0.0),
        "ensemble.run_ensemble.self_s": s["self"]["ensemble.run_ensemble"],
        "ensemble.trajectories": _counts(s, "ensemble.run_ensemble", "trajectories"),
        "ensemble.trajectories_failed": _counts(s, "ensemble.run_ensemble",
                                                "trajectories_failed"),
        "ensemble.ess_fraction": (_counts(s, "ensemble.run_ensemble", "raw_ess") / raw_n
                                  if raw_n else 0.0),
        "ensemble.lindblad_propagate_s": t["ensemble.lindblad_propagate"],
        "ensemble.lindblad_steps": _counts(s, "ensemble.lindblad_propagate",
                                           "lindblad_steps"),
        "ensemble.lindblad_refinements": _counts(s, "ensemble.lindblad_propagate",
                                                 "lindblad_refinements"),
        "ensemble.grid_lindblad_channels_s": t["ensemble.grid_lindblad_channels"],
        "ensemble.grid_steps": _counts(s, "ensemble.grid_channels_once", "grid_steps"),
        "ensemble.grid_fft_calls": _counts(s, "ensemble.grid", "fft.calls"),
        "ensemble.grid_fft_points": _counts(s, "ensemble.grid", "fft.points"),
        "ledger.build_ledger.self_s": s["self"]["ledger.build_ledger"],
        "ledger.field_energy_quadrature_s": t["ledger.field_energy_quadrature"],
        "ledger.observable_drift_s": t["ledger.observable_drift"],
        "hilbert.interaction_picture.calls": _counts(s, "", "hilbert.interaction_picture.calls"),
        "hilbert.eigendecompose.calls": _counts(s, "", "hilbert.eigendecompose.calls"),
        "postulate.collapse_residual.calls": c["postulate.collapse_residual"],
        "postulate.collapse_residual_s": t["postulate.collapse_residual"],
        "postulate.tail_fit_s": t["postulate.tail_fit"],
        "postulate.moment_divergence_scan_s": t["postulate.moment_divergence_scan"],
    }


PER_LAYER_UNITS = {
    "scenarios.build_s": "s",
    "propagation.make_backend_s": "s",
    "ensemble.density_matrix_s": "s",
    "noise.standard_increments.calls": "count",
    "noise.standard_increments_s": "s",
    "propagation.evolve_batch_s": "s",
    "propagation.traj_steps": "count",
    "propagation.traj_steps_per_s": "1/s",
    "propagation.field_energy_sweep_s": "s",
    "propagation.fft_calls": "count",
    "propagation.fft_points": "count",
    "propagation.fft_per_traj_step": "ratio",
    "ensemble.run_ensemble.self_s": "s",
    "ensemble.scaling_2t": "ratio",
    "ensemble.trajectories": "count",
    "ensemble.trajectories_failed": "count",
    "ensemble.ess_fraction": "ratio",
    "ensemble.lindblad_propagate_s": "s",
    "ensemble.lindblad_steps": "count",
    "ensemble.lindblad_refinements": "count",
    "ensemble.grid_lindblad_channels_s": "s",
    "ensemble.grid_steps": "count",
    "ensemble.grid_fft_calls": "count",
    "ensemble.grid_fft_points": "count",
    "ledger.build_ledger.self_s": "s",
    "ledger.field_energy_quadrature_s": "s",
    "ledger.observable_drift_s": "s",
    "hilbert.interaction_picture.calls": "count",
    "hilbert.eigendecompose.calls": "count",
    "postulate.collapse_residual.calls": "count",
    "postulate.collapse_residual_s": "s",
    "postulate.tail_fit_s": "s",
    "postulate.moment_divergence_scan_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_metrics(tracer: Tracer, setups: list, passes_1t: list,
                      passes_2t: list, untraced_1t: list) -> dict:
    """Per-layer metrics from the root spans of traced set-ups and passes.

    Each value is the median over set-ups plus the median over 1-thread
    passes; counts are the same in every pass.  ``ensemble.scaling_2t``
    divides the 1-thread by the 2-thread ``run_ensemble`` time, and
    ``trace.overhead_s`` is the traced minus the untraced 1-thread wall.
    """
    def median_of(summaries):
        values = [_pass_values(s) for s in summaries]
        return {k: statistics.median(v[k] for v in values) for k in values[0]}

    summaries = {kind: [tracer.summarize(r) for r in roots] for kind, roots in
                 (("setup", setups), ("1t", passes_1t), ("2t", passes_2t))}
    setup, one = median_of(summaries["setup"]), median_of(summaries["1t"])
    metrics = {k: setup[k] + one[k] for k in one}
    t1, t2 = (statistics.median(s["time"]["ensemble.run_ensemble"] for s in summaries[kind])
              for kind in ("1t", "2t"))
    metrics["ensemble.scaling_2t"] = t1 / t2 if t2 else 0.0
    walls = [tracer.spans[r][3] - tracer.spans[r][2] for r in passes_1t]
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced_1t)
    return {k: (int(metrics[k]) if PER_LAYER_UNITS[k] == "count" else metrics[k])
            for k in PER_LAYER_UNITS}
