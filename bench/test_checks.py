"""Each benchmark check passes on real output and rejects a corrupted copy.

The outputs come from rsmfg.cli.main on the benchmark's own workload
configs, shrunk (coarser grid, fewer paths and replications) so that the
whole module runs in a few seconds; every check's tolerance is stated
for the shrunk sizes as well.  Run with

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import csv
import json
import shutil

import pytest

import checks
import run
from rsmfg.cli import main

SHRINK = {
    "paper-fixed-point": {"grid": 200},
    "verify-2d": {"grid": 500, "n_paths": 500},
    "paper-nash": {"grid": 100, "n_reps": 100},
    "vector-nash": {"grid": 100, "n_reps": 100},
}


def _config(workload):
    mode, config = run.config_for(workload, seed=3)
    size = SHRINK[workload]
    config["grid"]["steps"] = size["grid"]
    if "n_paths" in size:
        config["montecarlo"]["n_paths"] = size["n_paths"]
    if "n_reps" in size:
        config["population"]["n_reps"] = size["n_reps"]
    return mode, config


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """workload -> (output directory, config, limiting costs or None)."""
    made = {}
    for workload in run.WORKLOADS:
        mode, config = _config(workload)
        base = tmp_path_factory.mktemp(workload)
        path = base / "config.json"
        path.write_text(json.dumps(config))
        assert main([mode, "--config", str(path),
                     "--out", str(base / "out")]) == 0
        limits = checks.limiting_costs(config) if mode == "nash-gap" else None
        made[workload] = (base / "out", config, limits)
    return made


def _verdicts(workload, out, config, limits):
    if workload == "paper-fixed-point":
        return checks.fixed_point(str(out), config)
    if workload == "verify-2d":
        return checks.verify_single(str(out), config)
    return checks.nash(str(out), config, limits)


def _edit(path, edit):
    """Rewrite a CSV file through edit(header, rows)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + edit(rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scale(entity, factor, col=3):
    def edit(rows):
        for r in rows:
            if r[1] == entity:
                r[col] = repr(float(r[col]) * factor)
        return rows
    return edit


def _row_where(first, second, col, fn):
    def edit(rows):
        for r in rows:
            if r[0] == first and (second is None or r[1] == second):
                r[col] = repr(fn(float(r[col])))
        return rows
    return edit


def _swap_errors(rows):
    rows[3][1], rows[4][1] = rows[4][1], rows[3][1]
    return rows


def _reverse_gaps(rows):
    for r in rows:
        if r[1] == "equilibrium":
            r[4] = repr({"5": 0.0, "20": 0.01, "80": 0.05}[r[0]])
    return rows


# (workload, check, file, edit); each edit must make that check fail
CORRUPTIONS = [
    ("paper-fixed-point", "convergence.tolerance", "convergence.csv",
     lambda rows: rows[:-1]),
    ("paper-fixed-point", "convergence.monotone", "convergence.csv",
     _swap_errors),
    ("paper-fixed-point", "laws.riccati", "laws.csv",
     _scale("major_gain", 1.01)),
    ("paper-fixed-point", "laws.riccati", "laws.csv",
     _scale("minor0_gain", 1.001)),
    ("paper-fixed-point", "mean_field.identities", "mean_field.csv",
     _scale("G_bar", 1.0001)),
    ("verify-2d", "checks.z_bound", "checks.csv",
     _row_where("optimal_cost", None, 5, lambda z: 5.5)),
    ("verify-2d", "checks.z_consistent", "checks.csv",
     _row_where("normalization", None, 2, lambda v: v + 1e-3)),
    ("verify-2d", "solution.riccati", "solution.csv",
     _scale("Pi", 1.01)),
    ("verify-2d", "scalars.c_star", "scalars.csv",
     _row_where("C_star", None, 1, lambda c: c + 1e-4)),
    ("paper-nash", "gaps.trend", "gaps.csv", _reverse_gaps),
    ("paper-nash", "gaps.consistent", "gaps.csv",
     _row_where("20", "equilibrium", 4, lambda g: g + 1e-6)),
    ("paper-nash", "slopes.range", "slopes.csv",
     _row_where("slope_sup", None, 1, lambda s: -0.2)),
    ("paper-nash", "slopes.fit", "fluctuations.csv",
     _row_where("80", None, 1, lambda v: v * 1.05)),
    ("paper-nash", "cost.limit", "gaps.csv",
     _row_where("80", "equilibrium", 2, lambda c: c + 0.1)),
    ("vector-nash", "cost.limit", "gaps.csv",
     _row_where("80", "equilibrium", 2, lambda c: c - 0.01)),
    ("vector-nash", "gaps.trend", "gaps.csv", _reverse_gaps),
    ("vector-nash", "slopes.range", "slopes.csv",
     _row_where("slope_terminal", None, 1, lambda s: -0.8)),
]


def test_clean_outputs_pass(outputs):
    for workload, (out, config, limits) in outputs.items():
        verdicts = _verdicts(workload, out, config, limits)
        failed = {k: v for k, v in verdicts.items() if not v[0]}
        assert not failed, (workload, failed)


def test_every_check_has_a_corruption(outputs):
    for workload, (out, config, limits) in outputs.items():
        names = set(_verdicts(workload, out, config, limits))
        covered = {c for w, c, _, _ in CORRUPTIONS if w == workload}
        if workload == "vector-nash":
            continue  # same check functions as paper-nash
        assert names == covered, (workload, names ^ covered)


@pytest.mark.parametrize("workload, check, name, edit", CORRUPTIONS,
                         ids=[f"{w}:{c}:{i}" for i, (w, c, _, _)
                              in enumerate(CORRUPTIONS)])
def test_check_rejects_corruption(outputs, tmp_path, workload, check, name,
                                  edit):
    out, config, limits = outputs[workload]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    _edit(copy / name, edit)
    ok, detail = _verdicts(workload, copy, config, limits)[check]
    assert not ok, detail


def test_digest_sees_one_byte(outputs, tmp_path):
    out = outputs["verify-2d"][0]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    assert run._digest(copy) == run._digest(out)
    data = bytearray((copy / "scalars.csv").read_bytes())
    data[-2] ^= 1
    (copy / "scalars.csv").write_bytes(bytes(data))
    assert run._digest(copy) != run._digest(out)
