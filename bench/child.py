"""One CLI invocation, timed from inside its own process.

Usage: python3 child.py <result.json> <trace 0|1> <src dir> <cli args...>

Imports rsmfg from <src dir>, wraps layer functions from outside, runs
rsmfg.cli.main on the remaining arguments and exits with its code.  The
result file gets the spans recorded during the run: without tracing only
cli.load_config and cli.write_bundle are wrapped, which is what the
set-up and wall-clock times need; with tracing every function in TRACED
is.  All times are time.monotonic(), so the parent can subtract its own
spawn time from them.
"""

import functools
import inspect
import json
import os
import sys
import time

STAMPED = ("cli.load_config", "cli.write_bundle")

TRACED = STAMPED + (
    "cli.run",
    "mfg.solve_consistency",
    "riccati.solve_riccati",
    "riccati.solve_offset",
    "numerics.integrate_ode",
    "numerics.state_transition",
    "montecarlo.check_normalization",
    "montecarlo.check_optimal_cost",
    "montecarlo.check_martingale_quotient",
    "population.simulate_population_laws",
    "population.nash_gap",
    "population.fluctuation_statistics",
)

MODULES = ("cli", "mfg", "riccati", "montecarlo", "numerics", "population")


def _bytes_written(args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _sweeps(args, result):
    return {"sweeps": len(result.iterations.errors)}


def _rk4_steps(args, result):
    return {"steps": args["grid"].steps}


def _path_steps(args, result):
    grid = args["grid"] or args["sol"].grid
    return {"path_steps": args["n_paths"] * grid.steps}


def _agent_steps(args, result):
    grid = args["grid"] or args["eq"].grid
    laws = len(args["overrides"])
    return {"laws": laws,
            "agent_steps": laws * args["n_reps"] * (1 + args["N"])
            * grid.steps}


COUNTS = {
    "cli.write_bundle": _bytes_written,
    "mfg.solve_consistency": _sweeps,
    "numerics.integrate_ode": _rk4_steps,
    "montecarlo.check_normalization": _path_steps,
    "montecarlo.check_optimal_cost": _path_steps,
    "montecarlo.check_martingale_quotient": _path_steps,
    "population.simulate_population_laws": _agent_steps,
}


class Tracer:
    """Spans (name, start, end, parent, counts) kept in memory."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._open.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result)
            return result
        return traced


def install(tracer, names):
    """Wrap each named function in every module namespace that binds it.

    `from .x import f` gives each importing module its own reference, so
    the wrapper replaces the original wherever it is found.
    """
    import rsmfg
    modules = [getattr(rsmfg, m) for m in MODULES]
    for qualified in names:
        mod, attr = qualified.split(".")
        original = getattr(getattr(rsmfg, mod), attr)
        wrapped = tracer.wrap(qualified, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def main(argv):
    result_path, trace, src = argv[0], argv[1] == "1", argv[2]
    sys.path.insert(0, src)
    import rsmfg.cli
    here = os.path.realpath(rsmfg.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"rsmfg imported from {here}, not from {src}", file=sys.stderr)
        return 90
    tracer = Tracer()
    install(tracer, TRACED if trace else STAMPED)
    code = rsmfg.cli.main(argv[3:])
    with open(result_path, "w") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
