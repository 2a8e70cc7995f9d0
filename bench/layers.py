"""Per-layer metrics from the spans of traced invocations.

A span is {"name", "start", "end", "parent", "counts"} as child.py
records it; "parent" indexes the enclosing span of the same invocation.
Self time is a span's duration minus that of its direct children.
Every metric is computed per invocation and reported as the median over
the traced invocations of a run; a layer a workload does not reach
reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                self.child_time[s["parent"]] += s["end"] - s["start"]

    def named(self, name):
        return [(i, s) for i, s in enumerate(self.spans) if s["name"] == name]

    def total(self, name):
        return sum(s["end"] - s["start"] for _, s in self.named(name))

    def self_time(self, name):
        return sum(s["end"] - s["start"] - self.child_time[i]
                   for i, s in self.named(name))

    def calls(self, name):
        return len(self.named(name))

    def count(self, name, key):
        return sum(s["counts"][key] for _, s in self.named(name))

    def mean(self, name):
        n = self.calls(name)
        return self.total(name) / n if n else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


CHECKS = ("montecarlo.check_normalization", "montecarlo.check_optimal_cost",
          "montecarlo.check_martingale_quotient")

# name -> (unit, function of _Spans)
METRICS = {
    "cli.load_config_s": ("s", lambda s: s.total("cli.load_config")),
    "cli.run_self_s": ("s", lambda s: s.self_time("cli.run")),
    "cli.write_bundle_s": ("s", lambda s: s.total("cli.write_bundle")),
    "cli.bytes_written": ("bytes",
                          lambda s: s.count("cli.write_bundle", "bytes")),
    "mfg.sweeps": ("count",
                   lambda s: s.count("mfg.solve_consistency", "sweeps")),
    "mfg.solve_consistency_s": (
        "s", lambda s: s.total("mfg.solve_consistency")),
    "mfg.sweep_s": ("s", lambda s: _ratio(
        s.total("mfg.solve_consistency"),
        s.count("mfg.solve_consistency", "sweeps"))),
    "mfg.self_s": ("s", lambda s: s.self_time("mfg.solve_consistency")),
    "riccati.solve_riccati_calls": (
        "count", lambda s: s.calls("riccati.solve_riccati")),
    "riccati.solve_riccati_s": ("s",
                                lambda s: s.mean("riccati.solve_riccati")),
    "riccati.solve_offset_s": ("s", lambda s: s.mean("riccati.solve_offset")),
    "numerics.integrate_ode_calls": (
        "count", lambda s: s.calls("numerics.integrate_ode")),
    "numerics.rk4_steps_per_s": ("1/s", lambda s: _ratio(
        s.count("numerics.integrate_ode", "steps"),
        s.total("numerics.integrate_ode"))),
    "numerics.state_transition_s": (
        "s", lambda s: s.total("numerics.state_transition")),
    "montecarlo.check_normalization_s": (
        "s", lambda s: s.total("montecarlo.check_normalization")),
    "montecarlo.check_optimal_cost_s": (
        "s", lambda s: s.total("montecarlo.check_optimal_cost")),
    "montecarlo.check_martingale_quotient_s": (
        "s", lambda s: s.total("montecarlo.check_martingale_quotient")),
    "montecarlo.path_steps": ("count", lambda s: sum(
        s.count(c, "path_steps") for c in CHECKS)),
    "montecarlo.path_steps_per_s": ("1/s", lambda s: _ratio(
        sum(s.count(c, "path_steps") for c in CHECKS),
        sum(s.self_time(c) for c in CHECKS))),
    "population.law_runs": ("count", lambda s: s.count(
        "population.simulate_population_laws", "laws")),
    "population.agent_steps": ("count", lambda s: s.count(
        "population.simulate_population_laws", "agent_steps")),
    "population.agent_steps_per_s": ("1/s", lambda s: _ratio(
        s.count("population.simulate_population_laws", "agent_steps"),
        s.total("population.simulate_population_laws"))),
    "population.nash_gap_s": ("s", lambda s: s.total("population.nash_gap")),
    "population.fluctuation_statistics_s": (
        "s", lambda s: s.total("population.fluctuation_statistics")),
}


def metrics(invocations):
    """{name: {"value", "unit"}} medians over the invocations' span lists."""
    parsed = [_Spans(spans) for spans in invocations]
    return {name: {"value": statistics.median(fn(s) for s in parsed)
                   if parsed else 0.0, "unit": unit}
            for name, (unit, fn) in METRICS.items()}
