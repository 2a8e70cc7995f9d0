"""Output checks of each workload.

Every check compares a CLI output file with a computation made apart
from rsmfg (reference.py) or with a property the method must have; none
compares with a stored copy of earlier output.  A check function takes
the output directory and the config the CLI ran on, and returns
{check name: (passed, detail)}.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict

import numpy as np

import reference

# laws.csv against the scipy solve on the splined mean field, relative:
# the program reads the mean field piecewise linearly between nodes h
# apart, so its laws sit about 0.05 h^2 from the smooth solve (1.3e-8 at
# M=2000, 1.3e-6 at M=200); the bound leaves a factor of ten.
LAW_TOL_PER_H2 = 0.5
# mean_field.csv against laws.csv: exact identities up to rounding
IDENTITY_TOL = 1e-12
# Pi(0), s(0) of an RK4 solve and C* by the trapezoid rule sit about 3e-9
# from the scipy solve at M=500
PI_TOL = 1e-7
C_STAR_TOL = 1e-7
# |z| of a Monte Carlo identity check
Z_BOUND = 5.0
# z = (value - target) / std_error as printed, relative
Z_CONSISTENCY = 1e-9
SLOPE_RANGE = (-0.65, -0.35)
GAP_TREND_SE = 3.0
# the equilibrium log-cost at the largest N against the limiting optimal
# cost: COST_SE standard errors plus COST_BIAS of the limit for the
# finite-N and Euler biases.  At N=80 these measured +4.3e-3 +- 1.4e-3
# (2% of the limit) on the flocking game at M=500 and -1.1e-4 +- 0.6e-4
# (0.7%) for type 0 of the two-type game at M=200.
COST_SE = 4.0
COST_BIAS = 0.04


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_trajectories(path):
    """{entity: array (nodes, *shape)} from a long-format trajectory CSV."""
    cells = defaultdict(dict)
    times = {}
    _, rows = read_table(path)
    for t, entity, comp, value in rows:
        idx = tuple(int(c) for c in comp.split(",")) if comp else ()
        times.setdefault(t, len(times))
        cells[entity][(times[t],) + idx] = float(value)
    out = {}
    for entity, entries in cells.items():
        shape = tuple(max(k[d] for k in entries) + 1
                      for d in range(len(next(iter(entries)))))
        arr = np.full(shape, np.nan)
        for k, v in entries.items():
            arr[k] = v
        out[entity] = arr
    nodes = np.array([float(t) for t in times])
    return nodes, out


def _result(ok, detail):
    return (bool(ok), detail)


def fixed_point(out, config):
    """reproduce-paper: convergence, laws against scipy, identities."""
    res = {}
    _, rows = read_table(os.path.join(out, "convergence.csv"))
    errors = [float(e) for _, e in rows]
    tol = config["fixedpoint"]["tol"]
    res["convergence.tolerance"] = _result(
        errors[-1] < tol, f"last error {errors[-1]:.3e} vs tol {tol:g}")
    tail = errors[1:]
    res["convergence.monotone"] = _result(
        all(b < a for a, b in zip(tail, tail[1:])),
        "errors from sweep 2 on: " + ", ".join(f"{e:.2e}" for e in tail))

    game = reference.Game(config["model"])
    nodes, mf = read_trajectories(os.path.join(out, "mean_field.csv"))
    _, laws = read_trajectories(os.path.join(out, "laws.csv"))
    solver = reference.GameSolver(game)
    dense = solver.sweep(reference.spline_mean_field(
        nodes, mf["A_bar"], mf["G_bar"], mf["m_bar"]))
    values = dense(nodes)
    worst = 0.0
    for i in range(len(nodes)):
        (K0, k0), minors = solver.laws(values[:, i])
        pairs = [(K0, laws["major_gain"][i]), (k0, laws["major_offset"][i])]
        for k, (Kk, kk) in enumerate(minors):
            pairs += [(Kk, laws[f"minor{k}_gain"][i]),
                      (kk, laws[f"minor{k}_offset"][i])]
        for ref_v, got in pairs:
            worst = max(worst, float(np.max(np.abs(ref_v - got))
                                     / (1.0 + np.max(np.abs(ref_v)))))
    tol = LAW_TOL_PER_H2 * (nodes[1] - nodes[0]) ** 2
    res["laws.riccati"] = _result(
        worst <= tol, f"largest relative law error {worst:.2e} "
        f"(<= {tol:.1e}) against scipy on the printed mean field")

    n = game.n
    worst = 0.0
    for k, th in enumerate(game.minors):
        rows_k = slice(n * k, n * (k + 1))
        gain = laws[f"minor{k}_gain"]
        own, major = gain[:, :, :n], gain[:, :, n:2 * n]
        mean = gain[:, :, 2 * n:]
        A_expect = np.concatenate([w * th.F for w in game.pi], axis=1) \
            + th.B @ mean
        A_expect[:, :, rows_k] += th.A + th.B @ own
        G_expect = th.G + th.B @ major
        m_expect = th.b + laws[f"minor{k}_offset"] @ th.B.T
        for expect, got in ((A_expect, mf["A_bar"][:, rows_k]),
                            (G_expect, mf["G_bar"][:, rows_k]),
                            (m_expect, mf["m_bar"][:, rows_k])):
            worst = max(worst, float(np.max(np.abs(expect - got))
                                     / (1.0 + np.max(np.abs(expect)))))
    res["mean_field.identities"] = _result(
        worst <= IDENTITY_TOL,
        f"Abar, Gbar, mbar against the minor laws: {worst:.1e} "
        f"(<= {IDENTITY_TOL:g})")
    return res


def verify_single(out, config):
    """verify-single: z-scores, and Pi(0), s(0), C* against scipy."""
    res = {}
    _, rows = read_table(os.path.join(out, "checks.csv"))
    _, scalars = read_table(os.path.join(out, "scalars.csv"))
    c_star = float(dict(scalars)["C_star"])
    zs = [float(r[5]) for r in rows]
    res["checks.z_bound"] = _result(
        all(abs(z) <= Z_BOUND for z in zs),
        "z = " + ", ".join(f"{z:.2f}" for z in zs) + f" (|z| <= {Z_BOUND:g})")
    consistent = True
    for name, _, value, target, se, z in rows:
        value, target, se, z = map(float, (value, target, se, z))
        consistent &= se > 0.0 and abs(z - (value - target) / se) \
            <= Z_CONSISTENCY * max(1.0, abs(z))
        if name == "normalization":
            consistent &= target == 1.0
        if name == "optimal_cost":
            consistent &= target == c_star
    res["checks.z_consistent"] = _result(
        consistent, "z = (value - target) / std_error, targets 1 and C_star")

    Pi_ref, s_ref, c_ref = reference.single_agent(config["model"])
    _, sol = read_trajectories(os.path.join(out, "solution.csv"))
    x0 = np.asarray(config["model"]["x0"], dtype=float)
    quot = np.array([float(r[3]) for r in rows
                     if r[0] == "martingale_quotient"])
    err = max(float(np.max(np.abs(sol["Pi"][0] - Pi_ref))),
              float(np.max(np.abs(sol["s"][0] - s_ref))),
              float(np.max(np.abs(quot - (Pi_ref @ x0 + s_ref)))))
    res["solution.riccati"] = _result(
        err <= PI_TOL, f"Pi(0), s(0) and quotient targets off by {err:.1e} "
        f"(<= {PI_TOL:g})")
    res["scalars.c_star"] = _result(
        abs(c_star - c_ref) <= C_STAR_TOL,
        f"C_star {c_star:.10f} vs scipy {c_ref:.10f} (<= {C_STAR_TOL:g})")
    return res


def limiting_costs(config):
    """Optimal log-costs of the limit game, (major, [per minor type])."""
    solver, dense = reference.fixed_point(reference.Game(config["model"]))
    costs = solver.log_costs(dense)
    return costs[0], costs[1:]


def nash(out, config, limits):
    """nash-gap: gap trend, fluctuation slopes, cost against the limit."""
    res = {}
    _, rows = read_table(os.path.join(out, "gaps.csv"))
    by_n = defaultdict(dict)
    for N, law, cost, se, gap, gap_se in rows:
        by_n[int(N)][law] = (float(cost), float(se), gap, gap_se)
    schedule = sorted(by_n)
    gaps = [(float(by_n[N]["equilibrium"][2]),
             float(by_n[N]["equilibrium"][3])) for N in schedule]
    res["gaps.trend"] = _result(
        all(hi <= lo + GAP_TREND_SE * math.hypot(lo_se, hi_se)
            for (lo, lo_se), (hi, hi_se) in zip(gaps, gaps[1:])),
        "gaps " + " -> ".join(f"{g:.2e}" for g, _ in gaps)
        + f" rise by at most {GAP_TREND_SE:g} pooled s.e.")
    worst = 0.0
    for N in schedule:
        eq = by_n[N]["equilibrium"]
        best = min(v[0] for law, v in by_n[N].items() if law != "equilibrium")
        worst = max(worst, abs(float(eq[2]) - max(0.0, eq[0] - best)))
    res["gaps.consistent"] = _result(
        worst <= 1e-12, f"gap = max(0, equilibrium - best deviation) "
        f"to {worst:.1e}")

    _, slope_rows = read_table(os.path.join(out, "slopes.csv"))
    slopes = {k: float(v) for k, v in slope_rows}
    lo, hi = SLOPE_RANGE
    res["slopes.range"] = _result(
        all(lo <= s <= hi for s in slopes.values()),
        ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
        + f" in [{lo}, {hi}]")
    _, fl = read_table(os.path.join(out, "fluctuations.csv"))
    logN = np.log([float(r[0]) for r in fl])
    fit = {"slope_sup": np.polyfit(logN, np.log([float(r[1]) for r in fl]),
                                   1)[0],
           "slope_terminal": np.polyfit(logN, np.log([float(r[2])
                                                       for r in fl]), 1)[0]}
    res["slopes.fit"] = _result(
        all(abs(fit[k] - slopes[k]) <= 1e-9 for k in fit),
        "slopes.csv is the log-log fit of fluctuations.csv")

    agent = config["population"]["agent"]
    major, minors = limits
    # minor slots are type-sorted, so slot 0 is of type 0
    limit = major if agent == "major" else minors[0]
    N = schedule[-1]
    cost, se = by_n[N]["equilibrium"][:2]
    bound = COST_SE * se + COST_BIAS * abs(limit)
    res["cost.limit"] = _result(
        abs(cost - limit) <= bound,
        f"log-cost at N={N} {cost:.5f} vs limit {limit:.5f}: "
        f"|diff| {abs(cost - limit):.2e} <= {bound:.2e}")
    return res
