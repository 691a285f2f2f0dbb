"""Per-layer tracing from the benchmark's side of the program boundary.

Each traced function is replaced by a timing wrapper at every place the
program looks it up: its home module and every holonoise module that
imported it by name (``crosscheck.readout_moments``, ``cli.nrf``, ...).
A layer's self time is its span's duration minus the time its traced
children took.  A function the program no longer has is listed as
absent and its metrics read 0, so a later change that deletes it does
not crash the benchmark.
"""
from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time

LAYERS = (
    "cli.main",
    "crosscheck.run_crosscheck",
    "estimation.u0",
    "estimation.estimator_mixed_derivative",
    "estimation.estimator_mean_and_square",
    "estimation.estimator_mean_curve",
    "holometer.propagate",
    "holometer.readout_moments",
    "holometer.quadrature_readout",
    "gaussian_engine.centered_photon_moments",
    "gaussian_engine.quadrature_mean_cov",
    "observables.closed_form_moments",
    "observables.closed_form_quadrature",
    "observables.nrf",
    "phase_noise.sample_phase_offsets",
    "phase_noise.mc_expectation",
    "phase_noise.variance_expansion",
    "phase_noise.direct_variance",
    "fock_oracle.oracle_moments",
    "moments.compare_moments",
)
READOUT = "holometer.readout_moments"


class Tracer:
    """Context manager that traces LAYERS for the duration of a block."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.readout_orders = {2: 0, 4: 0}
        self.readout_failed = 0
        self.absent: list[str] = []
        self._stack: list[float] = []  # time taken by traced children of each open span
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module, name = layer.split(".")
            try:
                original = getattr(importlib.import_module(f"holonoise.{module}"), name)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            wrappers[id(original)] = (original, self._wrap(layer, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "holonoise" and not mod_name.startswith("holonoise."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patches.append((module, attr, value))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, fn):
        stack, clock = self._stack, time.perf_counter
        order_at = _parameter_index(fn, "max_order") if layer == READOUT else None

        def traced(*args, **kwargs):
            if order_at is not None:
                order = kwargs.get("max_order", args[order_at[0]] if len(args) > order_at[0] else order_at[1])
                if order in self.readout_orders:
                    self.readout_orders[order] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if layer == READOUT:
                    self.readout_failed += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def stats(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "absent": self.absent,
                "order2": self.readout_orders[2], "order4": self.readout_orders[4],
                "readout_failed": self.readout_failed}


def _parameter_index(fn, name: str) -> tuple[int, object] | None:
    params = list(inspect.signature(fn).parameters.values())
    for index, param in enumerate(params):
        if param.name == name:
            return index, param.default
    return None


def layer_metrics(traced: list[dict], untraced_wall_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each the median over the traced passes.  A
    traced pass is a worker record with "wall_s", "items" and the
    tracer's "layers" stats; ``untraced_wall_s`` are the wall times of
    the untraced passes run alongside."""

    def median(key, layer=None):
        return statistics.median(p["layers"][key][layer] if layer else p["layers"][key] for p in traced)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (median("calls", layer), "count")
        out[f"{layer}.self_s"] = (median("self_s", layer), "s")
    out[f"{READOUT}.order2.calls"] = (median("order2"), "count")
    out[f"{READOUT}.order4.calls"] = (median("order4"), "count")
    out["holometer.propagate.per_item"] = (
        statistics.median(p["layers"]["calls"]["holometer.propagate"] / p["items"] for p in traced),
        "count")
    for layer in ("gaussian_engine.centered_photon_moments", "fock_oracle.oracle_moments"):
        calls = median("calls", layer)
        out[f"{layer}.ms_per_call"] = (1e3 * median("self_s", layer) / calls if calls else 0.0, "ms")
    unattributed = [p["wall_s"] - sum(p["layers"]["self_s"].values()) for p in traced]
    out["trace.unattributed_s"] = (statistics.median(unattributed), "s")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_share"] = (traced_wall / statistics.median(untraced_wall_s) - 1.0, "share")
    return out
