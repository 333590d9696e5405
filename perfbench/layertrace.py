"""Per-layer tracing from outside the program.

`Tracer.install()` wraps public functions of metriclab's layers and rebinds
every name in the `metriclab` module namespaces that refers to them, so
calls made between modules, and inside a module through its globals, go
through the wrapper. No file under src/ is touched. Self time is a
wrapper's time minus the time of the wrapped calls nested inside it.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls and self time are recorded
TIMED = (
    ("transport", "wasserstein1"), ("transport", "wasserstein1_dual"),
    ("transport", "wasserstein_inf"), ("transport", "pushforward"),
    ("transport", "prob_net"),
    ("spaces", "validate_metric"),
    ("distances", "intertwining_gap"), ("distances", "fukaya_distance"),
    ("distances", "dq_upper"), ("distances", "gh_distance"),
    ("lipgeom", "nucleus_net"), ("lipgeom", "mcshane_project"),
    ("dynamics", "egh_distance"), ("dynamics", "birkhoff_rate"),
    ("dynamics", "invariant_measures"),
    ("markov", "ldp_experiment"), ("markov", "stationary_measures"),
    ("fields", "rotation_field"), ("fields", "circle_w1_atoms"),
    ("cli", "run"), ("svg", "emit_plot"), ("selfcheck", "run_checks"),
)
# searches whose W1 calls make up distances.w1_per_search
W1_SEARCHES = ("distances.intertwining_gap", "distances.fukaya_distance", "distances.dq_upper")

# the per-layer metrics a traced run reports, with their units
LAYER_METRICS = {
    "transport.wasserstein1.calls": "count",
    "transport.wasserstein1.self_s": "s",
    "transport.wasserstein1_dual.calls": "count",
    "transport.wasserstein1_dual.self_s": "s",
    "transport.wasserstein_inf.calls": "count",
    "transport.wasserstein_inf.self_s": "s",
    "transport.Measure.built": "count",
    "transport.pushforward.calls": "count",
    "transport.prob_net.self_s": "s",
    "spaces.validate_metric.calls": "count",
    "spaces.validate_metric.self_s": "s",
    "distances.intertwining_gap.self_s": "s",
    "distances.fukaya_distance.self_s": "s",
    "distances.dq_upper.self_s": "s",
    "distances.gh_distance.self_s": "s",
    "distances.w1_per_search": "ratio",
    "distances.w1_repeat_ratio": "ratio",
    "lipgeom.nucleus_net.calls": "count",
    "lipgeom.nucleus_net.self_s": "s",
    "lipgeom.nucleus_net.members": "count",
    "lipgeom.nucleus_net.complete": "count",
    "lipgeom.mcshane_project.calls": "count",
    "dynamics.egh_distance.self_s": "s",
    "dynamics.egh_distance.maps": "count",
    "dynamics.birkhoff_rate.self_s": "s",
    "dynamics.invariant_measures.calls": "count",
    "markov.ldp_experiment.self_s": "s",
    "markov.stationary_measures.self_s": "s",
    "rng.SplitMix64.uniform.calls": "count",
    "fields.rotation_field.self_s": "s",
    "fields.circle_w1_atoms.calls": "count",
    "fields.circle_w1_atoms.self_s": "s",
    "cli.run.self_s": "s",
    "svg.emit_plot.self_s": "s",
    "selfcheck.run_checks.self_s": "s",
}


class Tracer:
    """Records calls, self time and layer counters while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack: list[list] = []   # per active call: [key, time of nested calls]
        self._w1_pairs: set = set()
        self._spaces: dict = {}        # keeps keyed spaces alive so their ids stay unique
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"metriclab.{name}")
                   for name in {"transport", "spaces", "distances", "lipgeom", "dynamics",
                                "markov", "fields", "cli", "svg", "selfcheck", "rng"}}
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "metriclab" or name.startswith("metriclab."))]
        for mod_name, fn_name in TIMED:
            original = getattr(modules[mod_name], fn_name)
            wrapped = self._timed(f"{mod_name}.{fn_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, attr, wrapped)
        measure = modules["transport"].Measure
        self._rebind(measure, "__post_init__",
                     self._counted("transport.Measure.built", measure.__post_init__))
        rng_cls = modules["rng"].SplitMix64
        self._rebind(rng_cls, "uniform",
                     self._counted("rng.SplitMix64.uniform.calls", rng_cls.uniform))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counted(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, key, fn):
        def wrapper(*args, **kwargs):
            self._before(key, args)
            self._stack.append([key, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = self._stack.pop()[1]
                self.calls[key] += 1
                self.self_s[key] += elapsed - nested
                if self._stack:
                    self._stack[-1][1] += elapsed
            self._after(key, args, result)
            return result
        return wrapper

    # -- layer counters ---------------------------------------------------

    def _before(self, key, args):
        if key == "transport.wasserstein1":
            mu, nu = args[0], args[1]
            if any(entry[0] in W1_SEARCHES for entry in self._stack):
                self.counters["w1_in_search"] += 1
            # W1 is symmetric, so a solve of (nu, mu) after (mu, nu) is a repeat
            pair = frozenset((mu.weights.tobytes(), nu.weights.tobytes()))
            self._w1_pairs.add((id(mu.space), pair))
            self._spaces[id(mu.space)] = mu.space

    def _after(self, key, args, result):
        if key == "lipgeom.nucleus_net":
            self.counters["nucleus_members"] += len(result)
            self.counters["nucleus_complete"] += int(result.complete)
        elif key == "dynamics.egh_distance" and result.exhaustive:
            # the exhaustive search tries every map in both directions
            n1, n2 = args[0][0].space.size, args[1][0].space.size
            self.counters["egh_exhaustive_maps"] += n2 ** n1 + n1 ** n2

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict:
        c = self.counters
        searches = sum(self.calls[k] for k in W1_SEARCHES)
        w1 = self.calls["transport.wasserstein1"]
        values = {
            "transport.Measure.built": c["transport.Measure.built"],
            "distances.w1_per_search": c["w1_in_search"] / searches if searches else 0.0,
            "distances.w1_repeat_ratio": w1 / len(self._w1_pairs) if self._w1_pairs else 0.0,
            "lipgeom.nucleus_net.members": c["nucleus_members"],
            "lipgeom.nucleus_net.complete": c["nucleus_complete"],
            "dynamics.egh_distance.maps": c["egh_exhaustive_maps"],
            "rng.SplitMix64.uniform.calls": c["rng.SplitMix64.uniform.calls"],
        }
        for name in LAYER_METRICS:
            if name in values:
                continue
            key, _, kind = name.rpartition(".")
            values[name] = self.calls[key] if kind == "calls" else self.self_s[key]
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_METRICS.items()}

    def table(self) -> dict:
        """Every wrapped function's calls and self time, for the trace file."""
        return {key: {"calls": self.calls[key], "self_s": self.self_s[key]}
                for key in sorted(self.calls)}
