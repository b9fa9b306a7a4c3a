"""Spans and counters for the traced run, recorded from outside liporbit.

A traced function is replaced in every liporbit module namespace that
binds it: `solver`, `linking`, `verification` and `cli` import names
with `from .action import ...`, so patching `liporbit.action` alone would
miss their calls.  Each span keeps its name, start, end, parent span and
the id of the solve it belongs to.  Spans stay in memory, in flat arrays,
until `write()` saves them when the run ends.

Counters cover what is too frequent or too small to time: trajectory
constructions, `from_samples` calls, rows passed to the potential's
value and gradient maps, and min-norm subgradients by metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Functions timed as spans, by the liporbit module that defines them.
SPANNED = {
    "potentials": ("certify",),
    "action": ("action_value", "min_norm_subgradient", "project_hull"),
    "linking": ("calibrate_superquadratic", "certify_linking", "calibrate_saddle"),
    "solver": ("init_surface", "deform_step", "ridge_probe", "run_minimax",
               "run_saddle"),
    "verification": ("inclusion_residual", "shooting_oracle"),
    "cli": ("cmd_solve",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.solve = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.solve_id = -1
        self.enabled = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[(self.solve_id, key)] += amount

    def spanned(self, name: str, fn, on_call=None):
        """fn wrapped so that each call records one span named name."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(self.end)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.solve.append(self.solve_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count_points(self, model):
        """The model with value and gradient maps that count rows passed."""
        dim = model.dim

        def counted(fn):
            def wrapper(x):
                self.count("potentials.points_evaluated", max(1, np.size(x) // dim))
                return fn(x)
            return wrapper

        return dataclasses.replace(model,
                                   values=tuple(map(counted, model.values)),
                                   gradients=tuple(map(counted, model.gradients)))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- installation -------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        import liporbit
        from liporbit import (action, cli, linking, potentials, solver,
                              trajectory, verification)

        homes = {"potentials": potentials, "action": action, "linking": linking,
                 "solver": solver, "verification": verification, "cli": cli}
        every = [liporbit, trajectory, *homes.values()]
        try:
            for mod_name, fnames in SPANNED.items():
                for fname in fnames:
                    original = getattr(homes[mod_name], fname)
                    on_call = self._count_metric if fname == "min_norm_subgradient" else None
                    self._replace(every, original,
                                  self.spanned(f"{mod_name}.{fname}", original, on_call))

            from_spec = potentials.from_spec
            self._replace(every, from_spec, lambda spec: self.count_points(from_spec(spec)))

            cls = trajectory.PeriodicTrajectory
            post_init = cls.__post_init__
            from_samples = cls.__dict__["from_samples"]

            def counted_post_init(traj):
                self.count("trajectory.constructions")
                post_init(traj)

            def counted_from_samples(klass, *args, **kwargs):
                self.count("trajectory.from_samples.calls")
                return from_samples.__func__(klass, *args, **kwargs)

            self._set(cls, "__post_init__", counted_post_init)
            self._set(cls, "from_samples", classmethod(counted_from_samples))
            yield self
        finally:
            while self._restore:
                owner, attr, value = self._restore.pop()
                setattr(owner, attr, value)

    def _count_metric(self, args, kwargs) -> None:
        metric = kwargs.get("metric", args[2] if len(args) > 2 else "h1precond")
        self.count(f"action.min_norm_subgradient.calls.{metric}")

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    # -- results ------------------------------------------------------

    def totals(self, scale: dict[int, float] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, seconds, and self seconds (minus children).

        scale maps a solve id to a factor applied to its spans' durations
        (the host-speed correction of that solve)."""
        if not self.end:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int_)
        parent = np.frombuffer(self.parent, dtype=np.int_)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        if scale:
            solves = np.frombuffer(self.solve, dtype=np.int_)
            dur = dur * np.array([scale.get(int(k), 1.0) for k in solves])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {"calls": float(mask.sum()),
                         "s": float(dur[mask].sum()),
                         "self_s": float((dur[mask] - child[mask]).sum())}
        return out

    def counter_totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (_, key), value in self.counts.items():
            out[key] += value
        return dict(out)

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int_),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            solve=np.frombuffer(self.solve, dtype=np.int_),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))
