"""Per-layer spans for the traced run, installed from outside mixtrack.

``Tracer.install`` replaces the public entry points of each mixtrack
module with timing wrappers: methods on the scheme, loss, base-learner
and ``Mixture`` classes, and functions in every mixtrack module namespace
that holds them (``harness`` calls ``dynamic_regret`` through its own
import, so the wrapper must be bound there too).  ``uninstall`` puts the
originals back.

For every span name the tracer keeps calls and busy time; for every
layer (the group a span belongs to) it keeps busy time, counted once
for nested spans of the same layer, and self time, which is busy time
minus the time spent in wrapped callees.  Item counters are filled by
hooks that read the call's arguments or result.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # child time of each open span
        self._open = defaultdict(int)  # open spans per layer
        self._undo = []

    def wrap(self, name: str, layer: str, fn, hook=None):
        stack, opened = self._stack, self._open
        calls, busy, layer_busy, layer_self = self.calls, self.busy, self.layer_busy, self.layer_self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[layer] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                opened[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                busy[name] += dt
                if not opened[layer]:
                    layer_busy[layer] += dt
                layer_self[layer] += dt - frame[0]
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return traced

    def method(self, cls, attr: str, name: str, layer: str, hook=None) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, layer, orig, hook))
        self._undo.append(lambda: setattr(cls, attr, orig))

    def function(self, fn, name: str, layer: str, hook=None) -> None:
        traced = self.wrap(name, layer, fn, hook)
        for modname, mod in list(sys.modules.items()):
            if modname != "mixtrack" and not modname.startswith("mixtrack."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, traced)
                    self._undo.append(lambda mod=mod, attr=attr: setattr(mod, attr, fn))

    def install(self) -> None:
        from mixtrack import base, evaluation, harness, losses, mixture, schemes

        def theta_items(counts, args, out):
            counts["losses.evaluate.items"] += int(np.size(args[1]))

        def rows(counts, args, out):
            counts["base.rows"] += len(args[1])

        def step_rows(counts, args, out):
            counts["mixture.work_rows"] += out.work
            counts["mixture.live_rows"] += out.live

        def written(counts, args, out):
            counts["harness.bytes_written"] += len(args[1].encode())

        for cls in (schemes.LinScheme, schemes.LogScheme, schemes.SubScheme):
            for attr in ("births_at", "resetting_at"):
                self.method(cls, attr, f"schemes.{attr}", "schemes")
        for cls in (losses.SquareLoss, losses.BernoulliLogLoss):
            self.method(cls, "evaluate", "losses.evaluate", "losses", theta_items)
            self.method(cls, "substitute", "losses.substitute", "losses")
        for cls in (base.KTEstimator, base.RunningMean):
            self.method(cls, "predict_rows", "base.predict_rows", "base", rows)
            self.method(cls, "update_rows", "base.update_rows", "base", rows)
        self.function(base.restart_loss, "base.restart_loss", "base")
        self.method(mixture.Mixture, "__init__", "mixture.init", "mixture")
        self.method(mixture.Mixture, "step", "mixture.step", "mixture", step_rows)
        self.method(mixture.Mixture, "run", "mixture.run", "mixture")
        for fn in (
            evaluation.oracle_comparators,
            evaluation.oracle_step_losses,
            evaluation.dynamic_regret,
            evaluation.complexity_audit,
        ):
            self.function(fn, f"evaluation.{fn.__name__}", "evaluation")
        for fn in (harness.sweep, harness.run_experiment, harness.generate_stream, harness.trace_csv):
            self.function(fn, f"harness.{fn.__name__}", "harness")
        self.function(harness._atomic_write, "harness.atomic_write", "harness", written)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def metrics(self) -> dict:
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        c, b = self.counts, self.busy
        work = c["mixture.work_rows"]
        values = {
            "schemes.calls": (self.calls["schemes.births_at"] + self.calls["schemes.resetting_at"], "count"),
            "schemes.busy_s": (self.layer_busy["schemes"], "s"),
            "losses.evaluate.calls": (self.calls["losses.evaluate"], "count"),
            "losses.evaluate.items": (c["losses.evaluate.items"], "count"),
            "losses.evaluate.busy_s": (b["losses.evaluate"], "s"),
            "losses.substitute.calls": (self.calls["losses.substitute"], "count"),
            "losses.substitute.busy_s": (b["losses.substitute"], "s"),
            "base.predict_rows.busy_s": (b["base.predict_rows"], "s"),
            "base.update_rows.busy_s": (b["base.update_rows"], "s"),
            "base.rows": (c["base.rows"], "count"),
            "base.restart_loss.busy_s": (b["base.restart_loss"], "s"),
            "mixture.step.calls": (self.calls["mixture.step"], "count"),
            "mixture.self_s": (self.layer_self["mixture"], "s"),
            "mixture.work_rows": (work, "count"),
            "mixture.live_rows": (c["mixture.live_rows"], "count"),
            "mixture.live_per_work": (c["mixture.live_rows"] / work if work else 0.0, "ratio"),
            "evaluation.busy_s": (self.layer_busy["evaluation"], "s"),
            "harness.generate_stream.busy_s": (b["harness.generate_stream"], "s"),
            "harness.trace_csv.busy_s": (b["harness.trace_csv"], "s"),
            "harness.bytes_written": (c["harness.bytes_written"], "bytes"),
            "harness.self_s": (self.layer_self["harness"], "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
