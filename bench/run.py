"""Benchmark of the rsmfg command line on four workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Each operation is one CLI invocation in a fresh process (child.py) plus
the checks of its outputs.  Operations repeat until --seconds have
passed, and at least MIN_OPS times.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end medians setup_s, wall_s and
peak_rss_mb; with --trace 1, untraced and traced invocations alternate
and the metrics are the per-layer medians of the traced ones plus the
tracing overhead.  Exits 2 without a result when the checkout has no
rsmfg sources.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUNDLED = SRC / "rsmfg" / "configs" / "paper_example.json"
WORK = BENCH / "_work"

MIN_OPS = 3
OP_TIMEOUT_S = 150.0

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import layers  # noqa: E402


def _bundled_model():
    return json.loads(BUNDLED.read_text())["model"]


def _eye(a):
    return [[a, 0.0], [0.0, a]]


def _vector_model():
    """The two-dimensional, two-type game of the tests' vector_game."""
    def minor(a, s):
        return {"A": _eye(-a), "F": _eye(0.2), "G": _eye(0.1),
                "B": [[1.0], [0.0]], "b": [0.0, 0.05],
                "sigma": [[0.2], [0.1]], "Q": _eye(1.0), "S": [[s], [0.0]],
                "R": [[1.0]], "Q_hat": _eye(0.1), "H": _eye(0.3),
                "H_hat": _eye(0.3), "eta": [0.1, 0.0], "delta": 0.5,
                "x0": [0.5, 0.2]}
    return {
        "type": "major_minor", "n": 2, "m": 1, "r": 1, "T": 1.0,
        "pi": [0.6, 0.4],
        "major": {"A": [[-1.0, 0.2], [0.0, -0.8]], "F": _eye(0.3),
                  "B": [[1.0], [0.5]], "b": [0.1, 0.0],
                  "sigma": [[0.3], [0.2]], "Q": _eye(1.0),
                  "S": [[0.0], [0.0]], "R": [[1.0]], "Q_hat": _eye(0.2),
                  "H": _eye(0.5), "eta": [0.0, 0.0], "delta": 0.5,
                  "x0": [1.0, -0.5]},
        "minors": [minor(1.0, 0.1), minor(0.6, 0.0)],
    }


def _single_2d():
    """A 2-d single-agent problem with nonzero S, b, eta, zeta, full sigma."""
    return {"type": "single", "A": [[-0.5, 0.1], [0.0, -0.3]],
            "B": _eye(1.0), "b": [0.05, -0.02],
            "sigma": [[0.3, 0.1], [-0.05, 0.25]], "Q": _eye(0.5),
            "S": [[0.1, 0.0], [0.0, -0.1]], "R": _eye(1.0),
            "eta": [0.1, -0.05], "zeta": [0.02, 0.0], "Q_hat": _eye(0.2),
            "delta": 0.3, "x0": [1.0, -0.5], "T": 1.0}


FIXEDPOINT = {"tol": 1e-10, "max_iter": 50}
N_SCHEDULE = [5, 20, 80]


def config_for(workload, seed):
    """(CLI mode, config document) of a workload; the seed is the only input
    that varies between runs."""
    mc = {"seed": seed}
    if workload == "paper-fixed-point":
        return "reproduce-paper", {
            "model": _bundled_model(), "grid": {"steps": 2000},
            "fixedpoint": FIXEDPOINT, "montecarlo": mc}
    if workload == "verify-2d":
        return "verify-single", {
            "model": _single_2d(), "grid": {"steps": 500},
            "montecarlo": {"n_paths": 5000, "seed": seed}}
    if workload == "paper-nash":
        return "nash-gap", {
            "model": _bundled_model(), "grid": {"steps": 500},
            "fixedpoint": FIXEDPOINT, "montecarlo": mc,
            "population": {"N_schedule": N_SCHEDULE, "n_reps": 250,
                           "agent": "major"}}
    if workload == "vector-nash":
        return "nash-gap", {
            "model": _vector_model(), "grid": {"steps": 200},
            "fixedpoint": FIXEDPOINT, "montecarlo": mc,
            "population": {"N_schedule": N_SCHEDULE, "n_reps": 120,
                           "agent": 0}}
    raise KeyError(workload)


WORKLOADS = ("paper-fixed-point", "verify-2d", "paper-nash", "vector-nash")


def check_outputs(workload, out, config):
    if workload == "paper-fixed-point":
        return checks.fixed_point(out, config)
    if workload == "verify-2d":
        return checks.verify_single(out, config)
    return checks.nash(out, config, checks.limiting_costs(config))


def _digest(out):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0")
        h.update(Path(out, name).read_bytes())
    return h.hexdigest()


def invoke(mode, config_path, out, result_path, trace):
    """One CLI run in its own process; returns its timings or None.

    setup_s runs from just before the spawn to the return of
    load_config, wall_s from there to the return of the last
    write_bundle; peak_rss_mb is this process's own peak, from wait4.
    """
    args = [sys.executable, str(BENCH / "child.py"), str(result_path),
            "1" if trace else "0", str(SRC), mode, "--config",
            str(config_path), "--out", str(out)]
    env = child_env()
    with open(result_path.with_suffix(".log"), "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env)
        deadline = t_spawn + OP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"invocation exited {proc.returncode}:\n"
              + result_path.with_suffix(".log").read_text()[-2000:],
              file=sys.stderr)
        return None
    spans = json.loads(result_path.read_text())["spans"]
    t_config = max(s["end"] for s in spans if s["name"] == "cli.load_config")
    t_done = max(s["end"] for s in spans if s["name"] == "cli.write_bundle")
    return {"setup_s": t_config - t_spawn, "wall_s": t_done - t_config,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "spans": spans,
            "digest": _digest(out)}


def child_env():
    """The environment of every invocation: bytecode is cached under src/
    as in a user's installation, even where PYTHONDONTWRITEBYTECODE is set,
    so setup_s does not include compiling rsmfg."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up():
    """Compile rsmfg's bytecode and page numpy in before anything is timed."""
    subprocess.run([sys.executable, "-c", "import rsmfg.cli"], check=True,
                   env=child_env(), cwd=ROOT)


def measure(workload, seed, seconds, trace, work):
    mode, config = config_for(workload, seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    warm_up()
    ops = []
    first_out = None
    start = time.monotonic()
    while len(ops) < MIN_OPS or time.monotonic() - start < seconds:
        for traced in ([False, True] if trace else [False]):
            tag = f"{len(ops)}{'t' if traced else ''}"
            out = work / f"out{tag}"
            op = invoke(mode, config_path, out, work / f"result{tag}.json",
                        traced)
            if op is not None:
                op["traced"] = traced
                print(f"op {tag}: setup {op['setup_s']:.4f} s, "
                      f"wall {op['wall_s']:.4f} s, "
                      f"peak {op['peak_rss_mb']:.1f} MB", file=sys.stderr)
                if first_out is None:
                    first_out = out
                else:
                    shutil.rmtree(out)
            ops.append(op)

    done = [op for op in ops if op is not None]
    verdicts = {}
    if first_out is not None:
        verdicts = check_outputs(workload, str(first_out), config)
        digests = {op["digest"] for op in done}
        verdicts["outputs.identical"] = (
            len(digests) == 1,
            f"{len(done)} runs with seed {seed} wrote "
            f"{len(digests)} distinct output sets")
    for name, (ok, detail) in verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}",
              file=sys.stderr)
    correct = bool(verdicts) and all(ok for ok, _ in verdicts.values())
    failed = len(ops) - len(done)
    if not correct:
        failed = len(ops)

    if trace:
        plain = [op["wall_s"] for op in done if not op["traced"]]
        traced = [op for op in done if op["traced"]]
        metrics = layers.metrics([op["spans"] for op in traced])
        overhead = (statistics.median(op["wall_s"] for op in traced)
                    - statistics.median(plain)) if traced and plain else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            name: {"value": statistics.median(op[name] for op in done)
                   if done else 0.0, "unit": unit}
            for name, unit in (("setup_s", "s"), ("wall_s", "s"),
                               ("peak_rss_mb", "MB"))}
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "rsmfg" / "cli.py").is_file():
        print(f"no rsmfg sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
