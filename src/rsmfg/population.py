"""Finite-population co-simulation, per-agent costs, and Nash-gap probes.

The 1+N agents share one Euler-Maruyama grid.  Each agent applies the
infinite-population equilibrium law with the mean-field coordinates
replaced by per-type empirical averages, except for an optionally
overridden agent that plays an alternative law.  Per-agent noise comes
from counter-based Philox streams keyed by (master seed, agent slot), so
results are independent of replication batching and a single decoupled
minor reproduces the single-agent simulator path for path.  Within each
type the minors are held in ascending key order, and the empirical
averages are plain sums in that order, so relabeling agents together
with their noise streams leaves them bitwise unchanged.

One pass advances the equilibrium law over all 1+N agents and any
number of deviation laws beside it, on the same noise (common random
numbers), which is how nash_gap compares the equilibrium with its
deviations.  Under a deviation by one agent, the Euler step is affine
in the states and every other agent of a type plays the same law, so
each non-deviating minor of type k sits at its equilibrium state plus a
shift D_k shared by the type, and the major at x0 + D0.  A deviation
law therefore holds only the deviator's own state, stepped in full, the
shifts, which follow a noise-free linear recursion, and the deviator's
cost; its other cost columns are NaN (not computed).

States are held component-major: a type's minors are one array (n,
agent, replication), and every product is numerics._mm with the
coefficient matrix on the left, its inner loop running over all agents
and replications.  Replications are chunked so that the noise arrays
alive at once (the kicks sigma dW of all 1+N agents and the normals
they are made from, scaled in place when n = r = 1) fit in
NOISE_BUDGET_BYTES; a chunk's noise is freed before the next is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteState, OutOfRange
from .mfg import MfgEquilibrium, equilibrium_laws
from .montecarlo import (
    ControlLaw,
    LogMeanExpEstimate,
    as_control_law,
    log_mean_exp,
)
from .model import MajorMinorSpec
from .numerics import (
    BLOWUP_BOUND,
    TimeGrid,
    _dot,
    _mm,
    half_grid_table,
    integrate_ode,
)

# Bound on the noise arrays alive at once (see the module docstring).
NOISE_BUDGET_BYTES = 256_000_000

DEFAULT_CHUNK = 2048

GAIN_FACTORS = (0.8, 0.9, 1.1, 1.2)
OFFSET_SHIFTS = (0.1, -0.1)


def apportion(pi, N: int) -> np.ndarray:
    """Largest-remainder type counts: N_k >= 0 integers summing to N."""
    pi = np.asarray(pi, dtype=float)
    quota = pi * N
    counts = np.floor(quota).astype(int)
    remainder = N - int(counts.sum())
    if remainder:
        # ties broken by lower index for determinism
        order = np.lexsort((np.arange(len(pi)), -(quota - counts)))
        counts[order[:remainder]] += 1
    return counts


def assignment_from_counts(counts) -> np.ndarray:
    """Slot -> type index, type-sorted so type blocks are contiguous."""
    return np.repeat(np.arange(len(counts)), counts)


def type_mismatch(pi, N: int) -> float:
    """tau_N = max_k |N_k/N - pi_k| for the largest-remainder assignment."""
    counts = apportion(pi, N)
    return float(np.max(np.abs(counts / N - np.asarray(pi, dtype=float))))


@dataclass
class FinitePopulationRun:
    """Ensemble outcome of one finite-population co-simulation.

    exponents[:, 0] holds the major agent's delta*Lambda_T per
    replication; column 1+j holds minor slot j.  A deviation run of
    simulate_population_laws computes the deviator's column only and
    holds NaN in the others.  paths and empirical_avg record the first
    replication only.
    """

    spec: MajorMinorSpec
    N: int
    assignment: np.ndarray       # (N,) slot -> type index
    seed: int
    grid: TimeGrid
    exponents: np.ndarray        # (n_reps, 1+N)
    fluct_sup: np.ndarray        # (n_reps,) sup_t |xhat - xbar|_inf
    fluct_T: np.ndarray          # (n_reps,) terminal |xhat - xbar|_inf
    paths: np.ndarray            # (M+1, 1+N, n), replication 0
    empirical_avg: np.ndarray    # (M+1, n), replication 0

    @property
    def n_reps(self) -> int:
        return self.exponents.shape[0]


@dataclass
class NashGapReport:
    """Equilibrium-vs-deviation cost comparison for one agent and one N."""

    agent: object                # "major" or minor slot index
    N: int
    equilibrium: LogMeanExpEstimate
    deviations: list             # [(label, LogMeanExpEstimate)]
    best_label: str
    gap: float                   # max(0, eq log-cost - best deviation's)
    gap_std_error: float         # paired (common-noise) standard error
    equilibrium_run: FinitePopulationRun  # the equilibrium ensemble used


def _qform(r, Q, u):
    """r'Qu for column states, (Q'r)_j u_j summed in component order."""
    return _dot(_mm(Q.T, r), u)


def _quad(r, Q, S, R, u):
    """0.5 r'Qr + r'Su + 0.5 u'Ru for column states r (n, ...), u (m, ...)."""
    return 0.5 * _qform(r, Q, r) + _qform(r, S, u) + 0.5 * _qform(u, R, u)


def _add_quad(acc, w, r, Q, S, R, u, tmp):
    """acc += w * _quad(r, Q, S, R, u); 1x1 weights work in place in tmp."""
    if Q.shape != (1, 1) or R.shape != (1, 1):
        acc += w * _quad(r, Q, S, R, u)
        return
    rr, uu = r[0], u[0]
    for a, b, coef in ((rr, rr, 0.5 * Q[0, 0]), (rr, uu, S[0, 0]),
                       (uu, uu, 0.5 * R[0, 0])):
        if coef != 0.0:
            np.multiply(a, b, out=tmp)
            tmp *= w * coef
            acc += tmp


def _noise_kicks(gens, c, M, sig, sqrt_h):
    """sigma dW increments of one chunk for a block of agents.

    Each generator draws its (c, M, r) standard normals exactly as a
    single-agent run would; the result is laid out (M, n, agents, c), so
    every time step reads one contiguous slab in the column layout.
    """
    r = sig.shape[2]
    block = np.empty((M, r, len(gens), c))
    for idx, gen in enumerate(gens):
        block[:, :, idx] = gen.standard_normal((c, M, r)).transpose(1, 2, 0)
    if sig.shape[1:] == (1, 1):
        kicks = np.multiply(block, sig[:M, :, :, None], out=block)
    else:
        kicks = _mm(sig[:M], block.reshape(M, 1, r, -1))
    kicks *= sqrt_h
    return kicks.reshape(M, -1, len(gens), c)


def simulate_population(spec: MajorMinorSpec, eq: MfgEquilibrium, N: int,
                        override=None, n_reps: int = 1, seed: int = 0,
                        grid: TimeGrid = None, chunk: int = DEFAULT_CHUNK,
                        agent_keys=None) -> FinitePopulationRun:
    """Euler-Maruyama co-simulation of the major agent and N minors.

    override, if given, is (agent, law) with agent either "major" or a
    minor slot index; the law acts on that agent's extended state
    (x0, xhat) or (x, x0, xhat) with xhat the stacked per-type empirical
    averages; the run then computes that agent's cost column only (the
    others are NaN).  agent_keys customizes the per-slot noise stream keys
    (defaults to 0..N-1 for minors; the major always uses key N).
    """
    return simulate_population_laws(spec, eq, N, [override], n_reps=n_reps,
                                    seed=seed, grid=grid, chunk=chunk,
                                    agent_keys=agent_keys)[0]


class _NodeTables(NamedTuple):
    """The equilibrium laws and the dynamics' offsets at the grid nodes.

    Minor gains are split into the own-state block Kx and the block Kr on
    (x0, xhat) shared by every agent of the type.
    """

    K0: np.ndarray        # (M+1, m, n(1+K)) major gain on (x0, xhat)
    k0: np.ndarray        # (M+1, m)
    Kx: list              # per type (M+1, m, n)
    Kr: list              # per type (M+1, m, n(1+K))
    kk: list              # per type (M+1, m)
    b0: np.ndarray        # (M+1, n)
    sig0: np.ndarray      # (M+1, n, r)
    bk: list
    sigk: list
    A_bar: np.ndarray     # mean-field recursion, (M+1, nK, nK)
    G_bar: np.ndarray
    m_bar: np.ndarray


def _node_tables(spec: MajorMinorSpec, eq: MfgEquilibrium,
                 grid: TimeGrid) -> _NodeTables:
    n = spec.n
    (K0, k0), minor_laws = equilibrium_laws(eq)
    nodes = [half_grid_table(c, grid)[::2]
             for c in (spec.major.b, spec.major.sigma)]
    bk = [half_grid_table(th.b, grid)[::2] for th in spec.minors]
    sigk = [half_grid_table(th.sigma, grid)[::2] for th in spec.minors]
    return _NodeTables(
        K0=K0.values, k0=k0.values,
        Kx=[Kk.values[:, :, :n] for Kk, _ in minor_laws],
        Kr=[Kk.values[:, :, n:] for Kk, _ in minor_laws],
        kk=[kk.values for _, kk in minor_laws],
        b0=nodes[0], sig0=nodes[1], bk=bk, sigk=sigk,
        A_bar=eq.A_bar.values, G_bar=eq.G_bar.values, m_bar=eq.m_bar.values,
    )


class _Deviation:
    """The deviation laws of one agent, advanced beside the equilibrium.

    On common noise, every minor of type k that keeps its law sits at
    its equilibrium state plus a shift D_k shared by the type, the major
    (unless it deviates) at x0 + D0 and the mean-field recursion at
    xbar + Dbar.  Subtracting the equilibrium's Euler step leaves a
    noise-free linear recursion for the shifts, driven by the deviator's
    own shift.  The deviator's state y is stepped in full, in the
    equilibrium engine's operation order and on its own kicks, and only
    its cost is accumulated.  Arrays are (component, law, replication);
    the *_f views flatten all but the component.
    """

    def __init__(self, spec, tab, counts, agent, laws, slot, M, h):
        n, K, G = spec.n, spec.K, len(laws)
        self.spec, self.tab, self.counts, self.h = spec, tab, counts, h
        self.index = [l for l, _ in laws]
        # slot is None for the major, else (type, position in key order)
        self.type_index = None if slot is None else slot[0]
        self.pos = None if slot is None else slot[1]
        self.col = 0 if slot is None else 1 + agent
        self.p = spec.major if slot is None else spec.minors[self.type_index]
        # the group's gains (M+1, dim, m, G, 1) and offsets (M+1, m, G, 1);
        # u = sum_j gain[:, j] ext[j] + offset sums as ControlLaw.u does
        self.gain = np.stack([law.K for _, law in laws],
                             axis=-1).transpose(0, 2, 1, 3)[..., None]
        self.offset = np.stack([law.k for _, law in laws], axis=-1)[..., None]
        # the types that keep a non-deviating minor bound the population
        # in the blow-up test
        self.watched = [k for k in range(K)
                        if counts[k] > (k == self.type_index)]
        self.y_rec = np.empty((M + 1, G, n))
        self.shift_rec = np.empty((M + 1, G, n * (1 + K)))
        self.avg_rec = np.empty((M + 1, G, n))

    def start(self, c, n_reps, first):
        n, K, G = self.spec.n, self.spec.K, len(self.index)
        if first:
            self.exponents = np.empty((G, n_reps))
            self.fluct_sup = np.empty((G, n_reps))
            self.fluct_T = np.empty((G, n_reps))
        self.first = first
        self.y = np.broadcast_to(self.p.x0.reshape(n, 1, 1), (n, G, c)).copy()
        self.D0 = np.zeros((n, G, c))
        self.D = np.zeros((n * K, G, c))
        self.Dbar = np.zeros((n * K, G, c))
        self.lam = np.zeros(G * c)
        self.sup = np.zeros((G, c))

    def node(self, i, x0, xhat, xN, xbar, xms, weight, last):
        """Controls, the deviator's cost and the statistics at node i,
        from the equilibrium's states there (xms: each type's minors)."""
        tab, counts, p, y = self.tab, self.counts, self.p, self.y
        n, K, k_dev = self.spec.n, self.spec.K, self.type_index
        Dhat = self.D.copy()
        if k_dev is not None:
            # the deviator's own shift moves its type's average
            own = Dhat[k_dev * n:(k_dev + 1) * n]
            own += (y - xms[k_dev][:, self.pos, None] - own) / counts[k_dev]
        N = counts.sum()
        DxN = sum(counts[k] / N * Dhat[k * n:(k + 1) * n] for k in range(K))
        Dext0 = np.concatenate([self.D0, Dhat])
        ext0 = np.concatenate([x0, xhat])[:, None] + Dext0
        if self.type_index is None:
            ext0[:n] = y
            ext = ext0
        else:
            ext = np.concatenate([y, ext0])
        xN_dev = xN[:, None] + DxN
        gain = self.gain[i]
        u = gain[0] * ext[0]
        for j in range(1, len(ext)):
            u += gain[j] * ext[j]
        u += self.offset[i]
        self.xN_dev, self.DxN, self.u = xN_dev, DxN, u
        Dext0_f = _flat(Dext0)
        if self.type_index is not None:
            self.Du0 = _mm(tab.K0[i], Dext0_f)
        self.Du = [_mm(tab.Kx[k][i], _flat(self.D[k * n:(k + 1) * n]))
                   + _mm(tab.Kr[k][i], Dext0_f) for k in range(K)]

        if self.type_index is None:
            psi = _mm(p.H, _flat(xN_dev)) + p.eta[:, None]
        else:
            psi = (_mm(p.H, _flat(ext0[:n])) + _mm(p.H_hat, _flat(xN_dev))
                   + p.eta[:, None])
        r_f = _flat(y) - psi
        u_f = _flat(u)
        self.lam += weight * _quad(r_f, p.Q, p.S, p.R, u_f)
        if last:
            self.lam += 0.5 * _qform(r_f, p.Q_hat, r_f)

        d = np.max(np.abs((xhat[:, None] + Dhat)
                          - (xbar[:, None] + self.Dbar)), axis=0)
        np.maximum(self.sup, d, out=self.sup)
        if last:
            self.d_T = d
        if self.first:
            self.y_rec[i] = y[:, :, 0].T
            self.shift_rec[i, :, :n] = self.D0[:, :, 0].T
            self.shift_rec[i, :, n:] = self.D[:, :, 0].T
            self.avg_rec[i] = xN_dev[:, :, 0].T

    def step(self, i, x0, kick0, kicks, hi, lo):
        """Advance to node i+1; the extremes for the blow-up test.

        x0 is the equilibrium major state already at node i+1, hi and lo
        each type's per-component extremes over its minors there.
        """
        spec, tab, h = self.spec, self.tab, self.h
        n, maj = spec.n, spec.major
        y, y_f, u_f = self.y, _flat(self.y), _flat(self.u)
        D0_f, DxN_f, xN_f = _flat(self.D0), _flat(self.DxN), _flat(self.xN_dev)
        Dbar_f = _flat(self.Dbar)
        Dbar_f += (_mm(tab.A_bar[i], Dbar_f) + _mm(tab.G_bar[i], D0_f)) * h
        if self.type_index is None:
            drift = (_mm(maj.A, y_f) + _mm(maj.F, xN_f)
                     + tab.b0[i][:, None])
            y_f += (drift + _mm(maj.B, u_f)) * h
            y += kick0[:, None]
            self.D0 = y - x0[:, None]
            extremes = [np.max(y), -np.min(y)]
        else:
            D0_f += (_mm(maj.A, D0_f) + _mm(maj.F, DxN_f)
                     + _mm(maj.B, self.Du0)) * h
            x0_dev = x0[:, None] + self.D0
            th = self.p
            coup = (_mm(th.F, xN_f) + _mm(th.G, _flat(x0_dev))
                    + tab.bk[self.type_index][i][:, None])
            d1 = _mm(th.A, y_f)
            d1 += _mm(th.B, u_f)
            d1 += coup
            d1 *= h
            y_f += d1
            y += kicks[self.type_index][:, self.pos][:, None]
            extremes = [np.max(x0_dev), -np.min(x0_dev), np.max(y),
                        -np.min(y)]
        D0_f = _flat(self.D0)
        for k, th in enumerate(spec.minors):
            Dk = self.D[k * n:(k + 1) * n]
            Dk_f = _flat(Dk)
            Dk_f += ((_mm(th.A, Dk_f) + _mm(th.B, self.Du[k]))
                     + (_mm(th.F, DxN_f) + _mm(th.G, D0_f))) * h
            if k in self.watched:
                extremes += [np.max(hi[k][:, None] + Dk),
                             -np.min(lo[k][:, None] + Dk)]
        return extremes

    def finish(self, start, stop):
        G = len(self.index)
        self.exponents[:, start:stop] = self.p.delta * self.lam.reshape(G, -1)
        self.fluct_sup[:, start:stop] = self.sup
        self.fluct_T[:, start:stop] = self.d_T

    def runs(self, eq_run, slots):
        """One FinitePopulationRun per law: the deviator's cost column,
        NaN elsewhere, and the equilibrium states shifted."""
        n = self.spec.n
        out = []
        for g in range(len(self.index)):
            exponents = np.full_like(eq_run.exponents, np.nan)
            exponents[:, self.col] = self.exponents[g]
            shift = self.shift_rec[:, g]
            paths = eq_run.paths.copy()
            paths[:, 0] += shift[:, :n]
            for k, sk in enumerate(slots):
                paths[:, 1 + sk] += shift[:, None, n * (1 + k):n * (2 + k)]
            paths[:, self.col] = self.y_rec[:, g]
            out.append(FinitePopulationRun(
                spec=eq_run.spec, N=eq_run.N, assignment=eq_run.assignment,
                seed=eq_run.seed, grid=eq_run.grid, exponents=exponents,
                fluct_sup=self.fluct_sup[g], fluct_T=self.fluct_T[g],
                paths=paths, empirical_avg=self.avg_rec[:, g].copy()))
        return out


def _flat(a):
    """(component, ...) -> (component, columns), a view when contiguous."""
    return a.reshape(len(a), -1)


def simulate_population_laws(spec: MajorMinorSpec, eq: MfgEquilibrium,
                             N: int, overrides, n_reps: int = 1,
                             seed: int = 0, grid: TimeGrid = None,
                             chunk: int = DEFAULT_CHUNK,
                             agent_keys=None) -> list:
    """One co-simulation per entry of overrides, all in one pass.

    Each entry is None (every agent plays its equilibrium law) or an
    (agent, law) override as in simulate_population.  The equilibrium
    law is advanced over all 1+N agents on each chunk of noise, drawn
    once; each deviation law rides along on the same draws as a
    _Deviation, so run l equals simulate_population(...,
    override=overrides[l]) with the same seed.  A deviation run computes
    the deviator's cost column only; the other columns are NaN.  Raises
    OutOfRange when apportion(spec.pi, N) gives a minor type no agents,
    since the per-type averages are then undefined.
    """
    if N < 1:
        raise OutOfRange("N must be at least 1")
    if grid is None:
        grid = eq.grid
    elif grid != eq.grid:
        raise OutOfRange("simulation grid must match the equilibrium grid")
    n, m, r, K = spec.n, spec.m, spec.r, spec.K
    M, h = grid.steps, grid.h
    sqrt_h = math.sqrt(h)
    counts = apportion(spec.pi, N)
    if not counts.all():
        raise OutOfRange(f"minor type {int(np.argmin(counts))} has no "
                         f"agents at N={N}")
    assignment = assignment_from_counts(counts)
    if agent_keys is None:
        agent_keys = list(range(N))
    if len(agent_keys) != N:
        raise OutOfRange("agent_keys must have one entry per minor slot")
    # minors of each type are held in ascending key order, so the plain
    # per-type sums do not depend on how the slots are labelled
    keys = np.asarray(agent_keys)
    slots = [sl[np.argsort(keys[sl], kind="stable")]
             for sl in np.split(np.arange(N), np.cumsum(counts)[:-1])]
    position = np.empty(N, dtype=int)
    for sk in slots:
        position[sk] = np.arange(len(sk))

    tab = _node_tables(spec, eq, grid)
    # the deviation laws, grouped by the deviating agent
    groups = {}
    for l, ov in enumerate(overrides):
        if ov is None:
            continue
        agent, law = ov
        if agent == "major":
            dim = n * (1 + K)
        elif 0 <= int(agent) < N:
            agent, dim = int(agent), n * (2 + K)
        else:
            raise OutOfRange(f"agent {agent!r} not in the population")
        groups.setdefault(agent, []).append(
            (l, as_control_law(law, grid, dim, m)))
    devs = [_Deviation(spec, tab, counts, agent, laws,
                       None if agent == "major"
                       else (assignment[agent], position[agent]), M, h)
            for agent, laws in groups.items()]

    maj, minors = spec.major, spec.minors
    # every noise array alive at once: the kicks of all 1+N agents, the
    # normals they are made from (scaled in place when n = r = 1) and one
    # agent's draw
    width = (N + 1) * n + (0 if n == r == 1 else (N + 1) * r) + r
    cap = max(1, NOISE_BUDGET_BYTES // (8 * M * width))
    chunk = max(1, min(chunk, cap, n_reps))
    gens = [[np.random.Generator(np.random.Philox(key=[seed, keys[j]]))
             for j in sk] for sk in slots]
    gen0 = np.random.Generator(np.random.Philox(key=[seed, N]))

    exponents = np.empty((n_reps, 1 + N))
    fluct_sup = np.empty(n_reps)
    fluct_T = np.empty(n_reps)
    paths = np.empty((M + 1, 1 + N, n))
    empirical_avg = np.empty((M + 1, n))

    for start in range(0, n_reps, chunk):
        stop = min(start + chunk, n_reps)
        c = stop - start
        kick0 = _noise_kicks([gen0], c, M, tab.sig0, sqrt_h)[:, :, 0]
        kicks = [_noise_kicks(gens[k], c, M, tab.sigk[k], sqrt_h)
                 for k in range(K)]

        # a type's minors are one array (component, agent in key order,
        # replication); the *_f views flatten all but the component, so
        # each product T x runs over every agent and replication.  ext0
        # stacks the major's state and the per-type averages.
        ext0 = np.empty((n * (1 + K), c))
        ext0[:n] = maj.x0[:, None]
        x0, xhat = ext0[:n], ext0[n:]
        xms = [np.broadcast_to(th.x0.reshape(n, 1, 1), (n, Nk, c)).copy()
               for th, Nk in zip(minors, counts)]
        ums = [np.empty((m, counts[k], c)) for k in range(K)]
        work = [np.empty((n, counts[k], c)) for k in range(K)]
        work2 = [np.empty((n, counts[k] * c)) for k in range(K)]
        xms_f, ums_f, work_f = ([a.reshape(len(a), -1) for a in arrs]
                                for arrs in (xms, ums, work))
        xbar = np.empty((n * K, c))
        xbar[...] = np.concatenate([th.x0 for th in minors])[:, None]
        lam0 = np.zeros(c)
        lams = [np.zeros(counts[k] * c) for k in range(K)]
        sup = np.zeros(c)
        for dev in devs:
            dev.start(c, n_reps, start == 0)

        for i in range(M + 1):
            xN = None
            for k in range(K):
                # per-type sums in key order, whatever the chunk size
                sk = xms[k][:, 0].copy()
                for j in range(1, counts[k]):
                    sk += xms[k][:, j]
                xhat[k * n:(k + 1) * n] = sk / counts[k]
                xN = sk if xN is None else xN + sk
            xN = xN / N

            weight = h if 0 < i < M else 0.5 * h
            for dev in devs:
                dev.node(i, x0, xhat, xN, xbar, xms, weight, i == M)

            u0 = _mm(tab.K0[i], ext0) + tab.k0[i][:, None]
            for k in range(K):
                base = _mm(tab.Kr[k][i], ext0) + tab.kk[k][i][:, None]
                _mm(tab.Kx[k][i], xms_f[k], out=ums_f[k])
                ums[k] += base[:, None]

            r0 = x0 - (_mm(maj.H, xN) + maj.eta[:, None])
            lam0 += weight * _quad(r0, maj.Q, maj.S, maj.R, u0)
            if i == M:
                lam0 += 0.5 * _qform(r0, maj.Q_hat, r0)
            for k in range(K):
                th = minors[k]
                psi = _mm(th.H, x0) + _mm(th.H_hat, xN) + th.eta[:, None]
                np.subtract(xms[k], psi[:, None], out=work[k])
                rr = work_f[k]
                _add_quad(lams[k], weight, rr, th.Q, th.S, th.R,
                          ums_f[k], work2[k][0])
                if i == M:
                    lams[k] += 0.5 * _qform(rr, th.Q_hat, rr)

            d = np.max(np.abs(xhat - xbar), axis=0)
            np.maximum(sup, d, out=sup)
            if i == M:
                diff_T = d
            if start == 0:
                paths[i, 0] = x0[:, 0]
                for k in range(K):
                    paths[i, 1 + slots[k]] = xms[k][..., 0].T
                empirical_avg[i] = xN[:, 0]

            if i < M:
                xbar += (_mm(tab.A_bar[i], xbar) + _mm(tab.G_bar[i], x0)
                         + tab.m_bar[i][:, None]) * h
                drift0 = _mm(maj.A, x0) + _mm(maj.F, xN) + tab.b0[i][:, None]
                x0 += (drift0 + _mm(maj.B, u0)) * h
                x0 += kick0[i]
                extremes = [np.max(x0), -np.min(x0)]
                hi, lo = [], []
                for k in range(K):
                    # ((A x + B u) + (coupling + b)) h, then sigma dW; the
                    # coupling reads the major's state already advanced
                    th = minors[k]
                    coup = (_mm(th.F, xN) + _mm(th.G, x0)
                            + tab.bk[k][i][:, None])
                    d1, d2 = work_f[k], work2[k]
                    _mm(th.A, xms_f[k], out=d1)
                    d1 += _mm(th.B, ums_f[k], out=d2)
                    work[k] += coup[:, None]
                    d1 *= h
                    xms_f[k] += d1
                    xms[k] += kicks[k][i]
                    hi.append(np.max(xms[k], axis=1))
                    lo.append(np.min(xms[k], axis=1))
                    extremes += [np.max(hi[k]), -np.min(lo[k])]
                for dev in devs:
                    extremes += dev.step(i, x0, kick0[i],
                                         [kick[i] for kick in kicks], hi, lo)
                mx = np.max(extremes)
                if not np.isfinite(mx) or mx > BLOWUP_BOUND:
                    raise NonFiniteState(grid.nodes[i + 1])
        # free this chunk's noise before the next one is drawn
        del kick0, kicks

        exponents[start:stop, 0] = maj.delta * lam0
        for k in range(K):
            exponents[start:stop, 1 + slots[k]] = (
                minors[k].delta * lams[k].reshape(counts[k], c)).T
        fluct_sup[start:stop] = sup
        fluct_T[start:stop] = diff_T
        for dev in devs:
            dev.finish(start, stop)

    eq_run = FinitePopulationRun(
        spec=spec, N=N, assignment=assignment, seed=seed, grid=grid,
        exponents=exponents, fluct_sup=fluct_sup, fluct_T=fluct_T,
        paths=paths, empirical_avg=empirical_avg,
    )
    runs = [eq_run] * len(overrides)
    for dev in devs:
        for l, run in zip(dev.index, dev.runs(eq_run, slots)):
            runs[l] = run
    return runs


def deterministic_population_run(spec: MajorMinorSpec, eq: MfgEquilibrium,
                                 N: int, override=None,
                                 grid: TimeGrid = None) -> FinitePopulationRun:
    """Noise-free finite-population run by RK4 quadrature.

    Valid only when every diffusion coefficient vanishes; gives
    4th-order-accurate per-agent cost exponents for oracle comparisons.
    """
    if grid is None:
        grid = eq.grid
    elif grid != eq.grid:
        raise OutOfRange("simulation grid must match the equilibrium grid")
    if any(np.any(half_grid_table(agent.sigma, grid))
           for agent in [spec.major] + spec.minors):
        raise OutOfRange("deterministic run requires zero diffusion")
    n, K = spec.n, spec.K
    counts = apportion(spec.pi, N)
    assignment = assignment_from_counts(counts)
    slices = np.split(np.arange(N), np.cumsum(counts)[:-1])
    maj, minors = spec.major, spec.minors
    # every agent's law, major first, as half-grid tables (K, k) with
    # u = K ext + k
    (K0, k0), minor_laws = equilibrium_laws(eq)
    type_laws = [(Kk.half_values(), kk.half_values()) for Kk, kk in minor_laws]
    laws = [(K0.half_values(), k0.half_values())] + [type_laws[k]
                                                     for k in assignment]
    if override is not None:
        agent, law = override
        if agent != "major" and not 0 <= int(agent) < N:
            raise OutOfRange(f"agent {agent!r} not in the population")
        slot = 0 if agent == "major" else 1 + int(agent)
        dim = n * (1 + K) if slot == 0 else n * (2 + K)
        law = as_control_law(law, grid, dim, spec.m)
        laws[slot] = (half_grid_table(law.K, grid),
                      half_grid_table(law.k, grid))
    b0 = half_grid_table(maj.b, grid)
    bk = [half_grid_table(th.b, grid) for th in minors]

    def field(j, y):
        x0 = y[:n]
        xm = y[n:n * (1 + N)].reshape(N, n)
        xN = xm.mean(axis=0)
        xhat_stack = np.concatenate([xm[sl].mean(axis=0) for sl in slices])
        ext0 = np.concatenate([x0, xhat_stack])
        gain, offset = laws[0]
        u0 = gain[j] @ ext0 + offset[j]
        dy = np.empty_like(y)
        dy[:n] = maj.A @ x0 + maj.F @ xN + maj.B @ u0 + b0[j]
        r0 = x0 - (maj.H @ xN + maj.eta)
        dy[n * (1 + N)] = _quad(r0[:, None], maj.Q, maj.S, maj.R,
                                u0[:, None])[0]
        for a in range(N):
            k = assignment[a]
            th = minors[k]
            ext = np.concatenate([xm[a], x0, xhat_stack])
            gain, offset = laws[1 + a]
            u = gain[j] @ ext + offset[j]
            dy[n * (1 + a):n * (2 + a)] = (th.A @ xm[a] + th.F @ xN
                                           + th.G @ x0 + th.B @ u + bk[k][j])
            r = xm[a] - (th.H @ x0 + th.H_hat @ xN + th.eta)
            dy[n * (1 + N) + 1 + a] = _quad(r[:, None], th.Q, th.S, th.R,
                                            u[:, None])[0]
        return dy

    y0 = np.concatenate([maj.x0]
                        + [minors[assignment[a]].x0 for a in range(N)]
                        + [np.zeros(1 + N)])
    traj = integrate_ode(field, y0, grid, "forward", indexed=True)
    states = traj.values[:, :n * (1 + N)].reshape(grid.steps + 1, 1 + N, n)
    lam = traj.values[-1, n * (1 + N):].copy()
    # terminal tracking costs at t=T
    x0_T, xm_T = states[-1, 0], states[-1, 1:]
    xN_T = xm_T.mean(axis=0)
    r0 = x0_T - (maj.H @ xN_T + maj.eta)
    lam[0] += 0.5 * r0 @ maj.Q_hat @ r0
    for j in range(N):
        th = minors[assignment[j]]
        r = xm_T[j] - (th.H @ x0_T + th.H_hat @ xN_T + th.eta)
        lam[1 + j] += 0.5 * r @ th.Q_hat @ r
    deltas = np.concatenate([[maj.delta],
                             [minors[assignment[j]].delta for j in range(N)]])
    return FinitePopulationRun(
        spec=spec, N=N, assignment=assignment, seed=0, grid=grid,
        exponents=(deltas * lam)[None, :],
        fluct_sup=np.zeros(1), fluct_T=np.zeros(1),
        paths=states, empirical_avg=states[:, 1:].mean(axis=1),
    )


def finite_cost(run: FinitePopulationRun, agent) -> LogMeanExpEstimate:
    """log E[exp(delta*Lambda_T)] for one agent across replications.

    A NaN column (a deviation run's non-deviating agents) was not
    computed and raises OutOfRange.
    """
    col = 0 if agent == "major" else 1 + int(agent)
    if col < 0 or col > run.N:
        raise OutOfRange(f"agent {agent!r} not in run")
    w = run.exponents[:, col]
    if np.isnan(w).any():
        raise OutOfRange(f"no cost computed for agent {agent!r} in this run")
    return log_mean_exp(w)


def paired_log_diff(w1: np.ndarray, w2: np.ndarray):
    """(log mean e^w1 - log mean e^w2, paired delta-method s.e.)."""
    L = float(max(np.max(w1), np.max(w2)))
    a, b = np.exp(w1 - L), np.exp(w2 - L)
    am, bm = float(np.mean(a)), float(np.mean(b))
    diff = math.log(am) - math.log(bm)
    n = a.size
    if n < 2:
        return diff, 0.0
    cov = np.cov(a, b, ddof=1)
    var = cov[0, 0] / am ** 2 + cov[1, 1] / bm ** 2 \
        - 2.0 * cov[0, 1] / (am * bm)
    return diff, math.sqrt(max(var, 0.0) / n)


def default_deviation_family(eq: MfgEquilibrium, agent, type_index: int = 0,
                             gain_factors=GAIN_FACTORS,
                             offset_shifts=OFFSET_SHIFTS):
    """Gain rescalings and offset shifts of an agent's equilibrium law."""
    (K0, k0), minor_laws = equilibrium_laws(eq)
    K, k = (K0, k0) if agent == "major" else minor_laws[type_index]
    base = ControlLaw(K.values, k.values)
    family = [(f"gain x{g:g}", base.scaled(gain_factor=g))
              for g in gain_factors]
    family += [(f"offset {s:+g}", base.scaled(offset_shift=s))
               for s in offset_shifts]
    return family


def nash_gap(spec: MajorMinorSpec, eq: MfgEquilibrium, agent,
             deviation_family=None, N: int = 5, n_reps: int = 1000,
             seed: int = 0, grid: TimeGrid = None,
             equilibrium_run: FinitePopulationRun = None) -> NashGapReport:
    """Best-deviation probe of the agent's equilibrium cost at size N.

    The equilibrium law and every deviation are advanced together by one
    simulate_population_laws call, so all laws see identical draws
    (common random numbers); each law's exponents equal those of a
    separate simulate_population run with the same seed.  The default
    family perturbs the law of the agent's own type at this N.  The gap
    is max(0, equilibrium log-cost minus the best deviation's log-cost)
    with a paired standard error.  A previously simulated equilibrium
    ensemble with matching (N, n_reps, seed, grid) may be passed; it is
    reported as the equilibrium estimate.
    """
    if grid is None:
        grid = eq.grid
    if agent != "major" and not 0 <= int(agent) < N:
        raise OutOfRange(f"agent {agent!r} not in the population")
    if deviation_family is None:
        type_index = 0 if agent == "major" else int(
            assignment_from_counts(apportion(spec.pi, N))[int(agent)])
        deviation_family = default_deviation_family(eq, agent, type_index)
    if equilibrium_run is not None:
        if (equilibrium_run.N != N or equilibrium_run.seed != seed
                or equilibrium_run.n_reps != n_reps):
            raise OutOfRange(
                "equilibrium_run does not match (N, n_reps, seed)")
        if equilibrium_run.grid != grid:
            raise OutOfRange("equilibrium_run was simulated on another grid")
    overrides = [(agent, law) for _, law in deviation_family]
    runs = simulate_population_laws(spec, eq, N, [None] + overrides,
                                    n_reps=n_reps, seed=seed, grid=grid)
    eq_run = runs[0] if equilibrium_run is None else equilibrium_run
    col = 0 if agent == "major" else 1 + int(agent)
    w_eq = eq_run.exponents[:, col]
    results = [(label, run.exponents[:, col])
               for (label, _), run in zip(deviation_family, runs[1:])]
    estimates = [(label, log_mean_exp(w)) for label, w in results]
    best_idx = int(np.argmin([e.log_value for _, e in estimates]))
    best_label, _ = estimates[best_idx]
    diff, se = paired_log_diff(w_eq, results[best_idx][1])
    return NashGapReport(
        agent=agent, N=N, equilibrium=log_mean_exp(w_eq),
        deviations=estimates, best_label=best_label,
        gap=max(0.0, diff), gap_std_error=se, equilibrium_run=eq_run,
    )


@dataclass
class FluctuationStats:
    """Mean-field convergence statistics over an N-schedule."""

    N_schedule: list
    mean_sup: np.ndarray       # E sup_t |xhat_t - xbar_t|_inf per N
    mean_terminal: np.ndarray  # E |xhat_T - xbar_T|_inf per N
    slope_sup: float           # log-log fit slope vs N
    slope_terminal: float


def summarize_fluctuations(runs) -> FluctuationStats:
    """Mean fluctuations of equilibrium runs and their log-log slopes in N.

    runs holds one FinitePopulationRun per entry of the N-schedule.
    """
    N_schedule = [run.N for run in runs]
    mean_sup = np.array([float(np.mean(run.fluct_sup)) for run in runs])
    mean_T = np.array([float(np.mean(run.fluct_T)) for run in runs])
    logN = np.log(np.asarray(N_schedule, dtype=float))
    slope_sup = float(np.polyfit(logN, np.log(mean_sup), 1)[0])
    slope_T = float(np.polyfit(logN, np.log(mean_T), 1)[0])
    return FluctuationStats(
        N_schedule=N_schedule, mean_sup=mean_sup, mean_terminal=mean_T,
        slope_sup=slope_sup, slope_terminal=slope_T,
    )


def fluctuation_statistics(spec: MajorMinorSpec, eq: MfgEquilibrium,
                           N_schedule=(5, 20, 80), n_reps: int = 1000,
                           seed: int = 0,
                           grid: TimeGrid = None) -> FluctuationStats:
    """Empirical-average-to-mean-field gaps and their decay rate in N."""
    return summarize_fluctuations([
        simulate_population(spec, eq, N, n_reps=n_reps, seed=seed, grid=grid)
        for N in N_schedule])
