"""Finite-population co-simulation, per-agent costs, and Nash-gap probes.

The 1+N agents share one Euler-Maruyama grid.  Each agent applies the
infinite-population equilibrium law with the mean-field coordinates
replaced by per-type empirical averages.  Per-agent noise comes from
counter-based Philox streams keyed by (master seed, agent slot), so
results are independent of replication batching and a single decoupled
minor reproduces the single-agent simulator path for path.  Within each
type the minors are held in ascending key order, and the empirical
averages are plain sums in that order at any chunk size (one reduction
over the agent axis, an accumulation for a chunk of one replication,
along whose contiguous agent axis numpy would sum pairwise), so
relabeling agents together with their noise streams leaves them bitwise
unchanged.

One pass advances the equilibrium law over all 1+N agents and any
number of deviation laws beside it, on the same noise (common random
numbers), which is how nash_gap compares the equilibrium with its
deviations.  Under a deviation by one agent, the Euler step is affine
in the states and every other agent of a type plays the same law, so
each non-deviating minor of type k sits at its equilibrium state plus a
shift D_k shared by the type, and the major at x0 + D0.  A deviation
law therefore holds only three things: the deviator's own state,
stepped in full, the major and type shifts its cost reads, which follow
a noise-free linear recursion, and its cost.  Every other field of a
deviation run is NaN (not computed).

exact_cost and exact_nash_gap simulate nothing: the others that keep
the equilibrium law reach the agent only through their type averages,
so mfg.agent_problem at size N carries its exact cost and best response.

States are held component-major: a type's minors are one array (n,
agent, replication), and every product is numerics._mm with the
coefficient matrix on the left, its inner loop running over all agents
and replications.  The stacked node tables (_NodeTables), built once per
call, hold every coefficient that multiplies one state at one point of
the Euler step as one table: [K0; Kr_k] on (x0, xhat), [Kx_k; A_k] on a
type's minors, [H0; Hhat_k; F0; F_k] on xN, [H_k; G_bar; A0] on x0 at
t_i and [G_k] on x0 after the major's step.  A step thus makes one
product per operand, for the equilibrium and for the deviations' shifts
alike; each row is summed as its own product would be, so the stacking
changes no result.  Replications are chunked so that the noise arrays
alive at once (the kicks sigma dW of all 1+N agents and the normals
they are made from, scaled in place when n = r = 1) fit in
NOISE_BUDGET_BYTES; a chunk's noise is freed before the next is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteState, OutOfRange
from .mfg import MfgEquilibrium, agent_problem, equilibrium_laws
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
)
from .riccati import law_cost, solve

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


def _counts(pi, N: int) -> np.ndarray:
    """apportion(pi, N); OutOfRange when a minor type gets no agents,
    since its average is then undefined."""
    counts = apportion(pi, N)
    if not counts.all():
        raise OutOfRange(f"minor type {int(np.argmin(counts))} has no "
                         f"agents at N={N}")
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
    replication; column 1+j holds minor slot j.  paths and empirical_avg
    record the first replication only.  A deviation run of
    simulate_population_laws computes the deviator's exponent and path
    columns only; every other field, the other columns included, is NaN.
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


def _quad(r, QS, R, u):
    """0.5 r'Qr + r'Su + 0.5 u'Ru for column states r (n, ...), u (m, ...).

    QS stacks [Q'; S'], so Q'r and S'r are one product with r.
    """
    p = _mm(QS, r)
    n = len(r)
    return 0.5 * _dot(p[:n], r) + _dot(p[n:], u) + 0.5 * _qform(u, R, u)


def _add_quad(acc, w, r, a, QS, u, tmp):
    """acc += w * _quad(r, QS, a.R, u); 1x1 weights work in place in tmp."""
    if a.Q.shape != (1, 1) or a.R.shape != (1, 1):
        acc += w * _quad(r, QS, a.R, u)
        return
    rr, uu = r[0], u[0]
    for x, y, coef in ((rr, rr, 0.5 * a.Q[0, 0]), (rr, uu, a.S[0, 0]),
                       (uu, uu, 0.5 * a.R[0, 0])):
        if coef != 0.0:
            np.multiply(x, y, out=tmp)
            tmp *= w * coef
            acc += tmp


def _type_sum(x):
    """Sum of x (n, agents, c) over the agents, in index order.

    numpy sums along a contiguous axis pairwise, which the agent axis is
    when c = 1; accumulate adds in index order at any layout.
    """
    if x.shape[2] == 1:
        return np.add.accumulate(x, axis=1)[:, -1]
    return np.add.reduce(x, axis=1)


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
                        n_reps: int = 1, seed: int = 0,
                        grid: TimeGrid = None, chunk: int = DEFAULT_CHUNK,
                        agent_keys=None) -> FinitePopulationRun:
    """The equilibrium run: the major agent and N minors co-simulated by
    Euler-Maruyama, each playing its equilibrium law.

    agent_keys relabels the minors' noise streams as in
    simulate_population_laws; deviations run there.
    """
    return simulate_population_laws(spec, eq, N, [None], n_reps=n_reps,
                                    seed=seed, grid=grid, chunk=chunk,
                                    agent_keys=agent_keys)[0]


class _NodeTables(NamedTuple):
    """The step's coefficients at the grid nodes, stacked by operand.

    Each on_* table stacks every coefficient that multiplies one state at
    one point of the Euler step, so a step makes one _mm per operand; a
    row of a stacked product is summed as the row's own product would be,
    so the results do not depend on the stacking.  Minor gains are split
    into the own-state block Kx and the block Kr on (x0, xhat) shared by
    every agent of the type.  Offsets are columns, which broadcast over
    the agents and replications.
    """

    on_ext0: np.ndarray   # (M+1, m(1+K), n(1+K)) [K0; Kr_1..Kr_K]
    offsets: np.ndarray   # (M+1, m(1+K), 1) [k0; kk_1..kk_K]
    on_own: list          # per type (M+1, m+n, n) [Kx_k; A_k]
    on_xN: np.ndarray     # (n(2+2K), n) [H0; Hhat_1..Hhat_K; F0; F_1..F_K]
    on_x0: np.ndarray     # (M+1, n(1+2K), n) [H_1..H_K; G_bar; A0] at t_i
    on_x0_next: np.ndarray  # (nK, n) [G_1..G_K] on x0 after its step
    QS: list              # [Q'; S'] of the major, then of each type
    eta: list             # (n, 1) of the major, then of each type
    b0: np.ndarray        # (M+1, n, 1)
    sig0: np.ndarray      # (M+1, n, r)
    bk: list              # per type (M+1, n, 1)
    sigk: list
    A_bar: np.ndarray     # mean-field recursion, (M+1, nK, nK)
    m_bar: np.ndarray     # (M+1, nK, 1)


def _node_tables(spec: MajorMinorSpec, eq: MfgEquilibrium,
                 grid: TimeGrid) -> _NodeTables:
    n, maj, minors = spec.n, spec.major, spec.minors
    (K0, k0), minor_laws = equilibrium_laws(eq)
    b0, sig0 = (half_grid_table(c, grid)[::2] for c in (maj.b, maj.sigma))
    bk = [half_grid_table(th.b, grid)[::2, :, None] for th in minors]
    sigk = [half_grid_table(th.sigma, grid)[::2] for th in minors]
    G_bar = eq.G_bar.values
    steps = len(G_bar)
    return _NodeTables(
        on_ext0=np.concatenate([K0.values] + [Kk.values[:, :, n:]
                                              for Kk, _ in minor_laws],
                               axis=1),
        offsets=np.concatenate([k0.values] + [kk.values
                                              for _, kk in minor_laws],
                               axis=1)[:, :, None],
        on_own=[np.concatenate([Kk.values[:, :, :n],
                                np.broadcast_to(th.A, (steps,) + th.A.shape)],
                               axis=1)
                for (Kk, _), th in zip(minor_laws, minors)],
        on_xN=np.vstack([maj.H] + [th.H_hat for th in minors] + [maj.F]
                        + [th.F for th in minors]),
        on_x0=np.concatenate(
            [np.broadcast_to(np.vstack([th.H for th in minors]),
                             (steps, n * spec.K, n)), G_bar,
             np.broadcast_to(maj.A, (steps, n, n))], axis=1),
        on_x0_next=np.vstack([th.G for th in minors]),
        QS=[np.vstack([a.Q.T, a.S.T]) for a in [maj] + minors],
        eta=[a.eta[:, None] for a in [maj] + minors],
        b0=b0[:, :, None], sig0=sig0, bk=bk, sigk=sigk,
        A_bar=eq.A_bar.values, m_bar=eq.m_bar.values[:, :, None],
    )


class _Deviation:
    """The deviation laws of one agent, advanced beside the equilibrium.

    On common noise, every minor of type k that keeps its law sits at
    its equilibrium state plus a shift D_k shared by the type, and the
    major (unless it deviates) at x0 + D0.  Subtracting the equilibrium's
    Euler step leaves a noise-free linear recursion for the shifts,
    driven by the deviator's own shift.  The deviator's state y is
    stepped in full, in the equilibrium engine's operation order and on
    its own kicks; besides y and the shifts, only its cost is
    accumulated, and replication 0 of y recorded.  Arrays are
    (component, law, replication), allocated per chunk with their *_f
    views flattening all but the component; the shifts are one array
    [D0; D_1..D_K], whose products use the equilibrium's stacked tables.
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
        self.QS = tab.QS[0 if slot is None else 1 + self.type_index]
        self.eta = tab.eta[0 if slot is None else 1 + self.type_index]
        # each type's weight N_k/N in the population average
        self.type_weights = [counts[k] / counts.sum() for k in range(K)]
        # the deviator's coefficients on its average xN_dev: its tracking
        # target's and its drift's
        self.on_xN = np.vstack([self.p.H if slot is None else self.p.H_hat,
                                self.p.F])
        # the group's gains (M+1, dim, m, G, 1) and offsets (M+1, m, G, 1);
        # u = sum_j gain[:, j] ext[j] + offset sums as ControlLaw.u does
        self.gain = np.stack([law.K for _, law in laws],
                             axis=-1).transpose(0, 2, 1, 3)[..., None]
        self.offset = np.stack([law.k for _, law in laws], axis=-1)[..., None]
        # the rows of [x0; each type] whose shifted extremes bound the
        # population in the blow-up test: the major's unless it deviates,
        # and each type that keeps a non-deviating minor
        rows = [] if slot is None else list(range(n))
        for k in range(K):
            if counts[k] > (k == self.type_index):
                rows += range(n * (1 + k), n * (2 + k))
        self.rows = (slice(rows[0], rows[-1] + 1)
                     if rows == list(range(rows[0], rows[-1] + 1))
                     else np.array(rows))
        self.y_rec = np.empty((M + 1, G, n))

    def start(self, c, n_reps, first):
        n, K, G = self.spec.n, self.spec.K, len(self.index)
        if first:
            self.exponents = np.empty((G, n_reps))
        self.first = first
        # what the law reads: y, then (x0 + D0 unless the major deviates)
        # and the type averages xhat + Dhat
        self.ext = np.empty((self.gain.shape[1], G, c))
        self.y = self.ext[:n]
        self.y[...] = self.p.x0.reshape(n, 1, 1)
        self.shifts = np.zeros((n * (1 + K), G, c))
        self.D0, self.D = self.shifts[:n], self.shifts[n:]
        # the shifts with the deviator's own one moved into its type's
        # average, as the law and the average read them
        self.Dext0 = np.empty_like(self.shifts)
        self.y_f, self.D0_f, self.Dext0_f = (
            _flat(a) for a in (self.y, self.D0, self.Dext0))
        self.D_f = [_flat(self.D[k * n:(k + 1) * n]) for k in range(K)]
        self.x0_dev_f = (None if self.type_index is None
                         else _flat(self.ext[n:2 * n]))
        self.lam = np.zeros(G * c)

    def node(self, i, ext0, xN, xms, weight, last):
        """Controls and the deviator's cost at node i, from the
        equilibrium's states there (ext0: the major's state and the type
        averages; xms: each type's minors)."""
        tab, counts, p, y = self.tab, self.counts, self.p, self.y
        n, m, K, k_dev = self.spec.n, self.spec.m, self.spec.K, self.type_index
        Dext0 = self.Dext0
        np.copyto(Dext0, self.shifts)
        Dhat = Dext0[n:]
        if k_dev is not None:
            # the deviator's own shift moves its type's average
            own = Dhat[k_dev * n:(k_dev + 1) * n]
            own += (y - xms[k_dev][:, self.pos, None] - own) / counts[k_dev]
        DxN = sum(w * Dhat[k * n:(k + 1) * n]
                  for k, w in enumerate(self.type_weights))
        # the major's state is y itself when it deviates
        r0 = n if k_dev is None else 0
        np.add(ext0[r0:, None], Dext0[r0:], out=self.ext[n:])
        xN_dev = xN[:, None] + DxN
        u = _dot(self.gain[i], self.ext)
        u += self.offset[i]
        self.DxN, self.u = DxN, u
        # [K0; Kr_k] on the shifts of (x0, xhat), [Kx_k; A_k] on each
        # type's own shift
        on_ext0 = _mm(tab.on_ext0[i], self.Dext0_f)
        on_own = [_mm(tab.on_own[k][i], self.D_f[k]) for k in range(K)]
        self.Du0 = on_ext0[:m]
        self.Du = [on_own[k][:m] + on_ext0[m * (1 + k):m * (2 + k)]
                   for k in range(K)]
        self.AD = [on_own[k][m:] for k in range(K)]
        self.on_xN_dev = _mm(self.on_xN, _flat(xN_dev))

        if k_dev is None:
            psi = self.on_xN_dev[:n] + self.eta
        else:
            psi = _mm(p.H, self.x0_dev_f) + self.on_xN_dev[:n] + self.eta
        r_f = self.y_f - psi
        self.lam += weight * _quad(r_f, self.QS, p.R, _flat(u))
        if last:
            self.lam += 0.5 * _qform(r_f, p.Q_hat, r_f)
        if self.first:
            self.y_rec[i] = y[:, :, 0].T

    def step(self, i, x0, kick0, kicks, hi, lo):
        """Advance to node i+1; the extremes for the blow-up test.

        x0 is the equilibrium major state already at node i+1; hi and lo
        stack x0 and each type's per-component extremes over its minors
        there.
        """
        spec, tab, h = self.spec, self.tab, self.h
        n, K, maj = spec.n, spec.K, spec.major
        y, y_f, u_f, D0_f = self.y, self.y_f, _flat(self.u), self.D0_f
        # [F0; F_1..F_K] on DxN (a deviating major reads neither A0 D0
        # nor F0 DxN)
        on_DxN = _mm(tab.on_xN[n * (1 + K):], _flat(self.DxN))
        if self.type_index is None:
            drift = _mm(maj.A, y_f) + self.on_xN_dev[n:] + tab.b0[i]
            y_f += (drift + _mm(maj.B, u_f)) * h
            y += kick0[:, None]
            np.subtract(y, x0[:, None], out=self.D0)
        else:
            D0_f += (_mm(maj.A, D0_f) + on_DxN[:n]
                     + _mm(maj.B, self.Du0)) * h
            # the next node's x0 + D0, which the law reads there
            np.add(x0[:, None], self.D0, out=self.ext[n:2 * n])
            th = self.p
            coup = (self.on_xN_dev[n:] + _mm(th.G, self.x0_dev_f)
                    + tab.bk[self.type_index][i])
            d1 = _mm(th.A, y_f)
            d1 += _mm(th.B, u_f)
            d1 += coup
            d1 *= h
            y_f += d1
            y += kicks[self.type_index][:, self.pos][:, None]
        # [G_1..G_K] on D0 after its step
        on_D0 = _mm(tab.on_x0_next, D0_f)
        for k, th in enumerate(spec.minors):
            self.D_f[k] += ((self.AD[k] + _mm(th.B, self.Du[k]))
                            + (on_DxN[n * (1 + k):n * (2 + k)]
                               + on_D0[n * k:n * (k + 1)])) * h
        rows, shifts = self.rows, self.shifts[self.rows]
        return [y.max(), -y.min(), (hi[rows][:, None] + shifts).max(),
                -(lo[rows][:, None] + shifts).min()]

    def finish(self, start, stop):
        G = len(self.index)
        self.exponents[:, start:stop] = self.p.delta * self.lam.reshape(G, -1)

    def runs(self, eq_run):
        """One FinitePopulationRun per law: the deviator's exponent and
        path columns, NaN in every other field."""
        out = []
        for g in range(len(self.index)):
            run = replace(eq_run, **{
                f: np.full_like(getattr(eq_run, f), np.nan)
                for f in ("exponents", "fluct_sup", "fluct_T", "paths",
                          "empirical_avg")})
            run.exponents[:, self.col] = self.exponents[g]
            run.paths[:, self.col] = self.y_rec[:, g]
            out.append(run)
        return out


def _flat(a):
    """(component, ...) -> (component, columns), a view when contiguous."""
    return a.reshape(len(a), -1)


def _column(agent, N: int) -> int:
    """The agent's exponent column: 0 for "major", 1 + j for minor slot j.

    j must be an integer (not a bool) in [0, N); anything else raises
    OutOfRange.
    """
    if agent == "major":
        return 0
    if (isinstance(agent, (int, np.integer)) and not isinstance(agent, bool)
            and 0 <= agent < N):
        return 1 + int(agent)
    raise OutOfRange(f"agent {agent!r} not in the population")


def simulate_population_laws(spec: MajorMinorSpec, eq: MfgEquilibrium,
                             N: int, overrides, n_reps: int = 1,
                             seed: int = 0, grid: TimeGrid = None,
                             chunk: int = DEFAULT_CHUNK,
                             agent_keys=None) -> list:
    """One co-simulation per entry of overrides, all in one pass.

    Each entry is None (every agent plays its equilibrium law) or an
    (agent, law) override: agent is "major" or a minor slot index, and
    the law acts on that agent's extended state (x0, xhat) or
    (x, x0, xhat), with xhat the stacked per-type empirical averages.
    The equilibrium law is advanced over all 1+N agents on each chunk of
    noise, drawn once; each deviation law rides along on the same draws
    as a _Deviation, so run l equals a call with overrides[l] alone and
    the same seed.  A deviation run computes the deviator's exponent and
    path columns only; every other field is NaN.  Minor slot j draws
    from the noise stream keyed agent_keys[j], a permutation of 0..N-1
    (the identity by default); the major draws from key N.  Raises
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
    counts = _counts(spec.pi, N)
    assignment = assignment_from_counts(counts)
    if agent_keys is None:
        agent_keys = list(range(N))
    if sorted(agent_keys) != list(range(N)):
        raise OutOfRange("agent_keys must be a permutation of 0..N-1")
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
        if _column(agent, N):
            agent, dim = int(agent), n * (2 + K)
        else:
            dim = n * (1 + K)
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
        # stacks the major's state and the per-type averages; hi and lo
        # stack the major's state and each type's extremes over its minors.
        ext0 = np.empty((n * (1 + K), c))
        ext0[:n] = maj.x0[:, None]
        x0, xhat = ext0[:n], ext0[n:]
        xms = [np.broadcast_to(th.x0.reshape(n, 1, 1), (n, Nk, c)).copy()
               for th, Nk in zip(minors, counts)]
        xms_f = [_flat(a) for a in xms]
        # [Kx_k; A_k] x: the minors' controls, then the A x of their drift
        own = [np.empty((m + n, counts[k] * c)) for k in range(K)]
        ums_f = [a[:m] for a in own]
        ums = [a.reshape(m, counts[k], c) for k, a in enumerate(ums_f)]
        work_f = [a[m:] for a in own]
        work = [a.reshape(n, counts[k], c) for k, a in enumerate(work_f)]
        # resid: the tracking residuals, then B u in the step; tmp: one
        # term of a 1x1 cost
        resid = [np.empty((n, counts[k] * c)) for k in range(K)]
        tmp = [np.empty(counts[k] * c) for k in range(K)]
        xbar = np.empty((n * K, c))
        xbar[...] = np.concatenate([th.x0 for th in minors])[:, None]
        hi, lo = np.empty((2, n * (1 + K), c))
        lam0 = np.zeros(c)
        lams = [np.zeros(counts[k] * c) for k in range(K)]
        sup = np.zeros((n * K, c))
        for dev in devs:
            dev.start(c, n_reps, start == 0)

        for i in range(M + 1):
            xN = None
            for k in range(K):
                sk = _type_sum(xms[k])
                xhat[k * n:(k + 1) * n] = sk / counts[k]
                xN = sk if xN is None else xN + sk
            xN = xN / N

            weight = h if 0 < i < M else 0.5 * h
            for dev in devs:
                dev.node(i, ext0, xN, xms, weight, i == M)

            # [k0; kk_k] + [K0; Kr_k] ext0: u0 and each type's shared term
            on_ext0 = _mm(tab.on_ext0[i], ext0)
            on_ext0 += tab.offsets[i]
            u0 = on_ext0[:m]
            for k in range(K):
                _mm(tab.on_own[k][i], xms_f[k], out=own[k])
                ums[k] += on_ext0[m * (1 + k):m * (2 + k), None]
            # [H0; Hhat_k; F0; F_k] xN and [H_k; G_bar; A0] x0
            on_xN = _mm(tab.on_xN, xN)
            on_x0 = _mm(tab.on_x0[i], x0)

            r0 = x0 - (on_xN[:n] + tab.eta[0])
            lam0 += weight * _quad(r0, tab.QS[0], maj.R, u0)
            if i == M:
                lam0 += 0.5 * _qform(r0, maj.Q_hat, r0)
            for k in range(K):
                th = minors[k]
                psi = (on_x0[n * k:n * (k + 1)]
                       + on_xN[n * (1 + k):n * (2 + k)] + tab.eta[1 + k])
                rr = resid[k]
                np.subtract(xms[k], psi[:, None],
                            out=rr.reshape(n, counts[k], c))
                _add_quad(lams[k], weight, rr, th, tab.QS[1 + k],
                          ums_f[k], tmp[k])
                if i == M:
                    lams[k] += 0.5 * _qform(rr, th.Q_hat, rr)

            # sup_t |xhat - xbar| per component and replication; its max
            # over components is taken at the end of the chunk
            diff = np.abs(xhat - xbar)
            np.maximum(sup, diff, out=sup)
            if i == M:
                diff_T = diff.max(axis=0)
            if start == 0:
                paths[i, 0] = x0[:, 0]
                for k in range(K):
                    paths[i, 1 + slots[k]] = xms[k][..., 0].T
                empirical_avg[i] = xN[:, 0]

            if i < M:
                xbar += (_mm(tab.A_bar[i], xbar) + on_x0[n * K:2 * n * K]
                         + tab.m_bar[i]) * h
                drift0 = (on_x0[2 * n * K:] + on_xN[n * (1 + K):n * (2 + K)]
                          + tab.b0[i])
                x0 += (drift0 + _mm(maj.B, u0)) * h
                x0 += kick0[i]
                hi[:n] = x0
                lo[:n] = x0
                # [G_k] on the major's state already advanced
                on_x0_next = _mm(tab.on_x0_next, x0)
                for k in range(K):
                    # ((A x + B u) + (coupling + b)) h, then sigma dW
                    th = minors[k]
                    coup = (on_xN[n * (2 + K + k):n * (3 + K + k)]
                            + on_x0_next[n * k:n * (k + 1)] + tab.bk[k][i])
                    d1 = work_f[k]
                    d1 += _mm(th.B, ums_f[k], out=resid[k])
                    work[k] += coup[:, None]
                    d1 *= h
                    xms_f[k] += d1
                    xms[k] += kicks[k][i]
                    rows = slice(n * (1 + k), n * (2 + k))
                    xms[k].max(axis=1, out=hi[rows])
                    xms[k].min(axis=1, out=lo[rows])
                extremes = [hi.max(), -lo.min()]
                for dev in devs:
                    extremes += dev.step(i, x0, kick0[i],
                                         [kick[i] for kick in kicks], hi, lo)
                # a NaN fails the comparison as well
                if not all(e <= BLOWUP_BOUND for e in extremes):
                    raise NonFiniteState(grid.nodes[i + 1])
        # free this chunk's noise before the next one is drawn
        del kick0, kicks

        exponents[start:stop, 0] = maj.delta * lam0
        for k in range(K):
            exponents[start:stop, 1 + slots[k]] = (
                minors[k].delta * lams[k].reshape(counts[k], c)).T
        fluct_sup[start:stop] = sup.max(axis=0)
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
        for l, run in zip(dev.index, dev.runs(eq_run)):
            runs[l] = run
    return runs


def _reduced(spec: MajorMinorSpec, eq: MfgEquilibrium, agent, N: int):
    """(p, E, law, constant) of the agent in the population of size N.

    p and E are mfg.agent_problem's against the equilibrium laws, law is
    the agent's own equilibrium law, on E z, and constant is delta/2 (T
    eta'Q eta + eta'Q_hat eta), the part of the tracking cost that p
    leaves out.
    """
    col = _column(agent, N)
    counts = _counts(spec.pi, N)
    k = None if col == 0 else int(assignment_from_counts(counts)[col - 1])
    laws = equilibrium_laws(eq)
    p, E = agent_problem(spec, eq.grid, k, counts, laws)
    a = spec.major if k is None else spec.minors[k]
    constant = 0.5 * a.delta * (spec.T * a.eta @ a.Q @ a.eta
                                + a.eta @ a.Q_hat @ a.eta)
    return p, E, laws[0] if k is None else laws[1][k], constant


def exact_cost(spec: MajorMinorSpec, eq: MfgEquilibrium, agent, N: int,
               law=None) -> float:
    """log E exp(delta Lambda_T) of the agent in the population of size N.

    Exact up to the RK4 scan at any diffusion: the others that keep the
    equilibrium law enter through their type averages, so
    riccati.law_cost runs on the agent's state, x0 and one average per
    type, whatever N.  law, on the agent's extended state as in
    simulate_population_laws, replaces the agent's equilibrium law.
    Raises OutOfRange for an agent outside the population or an N that
    leaves a minor type without agents.
    """
    p, E, eq_law, constant = _reduced(spec, eq, agent, N)
    law = as_control_law(eq_law if law is None else law, eq.grid, len(E),
                         spec.m)
    return law_cost(p, law.K @ E, law.k, eq.grid) + constant


def exact_nash_gap(spec: MajorMinorSpec, eq: MfgEquilibrium, agent,
                   N: int) -> float:
    """epsilon_N: the agent's equilibrium log-cost minus its best
    response's, the others keeping their equilibrium laws, exact up to the
    RK4 scan; the best response is the optimal law of the agent's problem
    at size N, and the constant of its cost cancels."""
    p, E, (K, k), _ = _reduced(spec, eq, agent, N)
    return law_cost(p, K.values @ E, k, eq.grid) - solve(p, eq.grid).C_star


def finite_cost(run: FinitePopulationRun, agent) -> LogMeanExpEstimate:
    """log E[exp(delta*Lambda_T)] for one agent across replications.

    An agent outside the run, or a NaN column (a deviation run's
    non-deviating agents), which was not computed, raises OutOfRange.
    """
    col = _column(agent, run.N)
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
             seed: int = 0, grid: TimeGrid = None) -> NashGapReport:
    """Best-deviation probe of the agent's equilibrium cost at size N.

    The equilibrium law and every deviation are advanced together by one
    simulate_population_laws call, so all laws see identical draws
    (common random numbers); each law's exponents equal those of a call
    with that law alone and the same seed.  The default
    family perturbs the law of the agent's own type at this N.  The gap
    is max(0, equilibrium log-cost minus the best deviation's log-cost)
    with a paired standard error.
    """
    if grid is None:
        grid = eq.grid
    col = _column(agent, N)
    if deviation_family is None:
        type_index = 0 if agent == "major" else int(
            assignment_from_counts(apportion(spec.pi, N))[int(agent)])
        deviation_family = default_deviation_family(eq, agent, type_index)
    overrides = [(agent, law) for _, law in deviation_family]
    runs = simulate_population_laws(spec, eq, N, [None] + overrides,
                                    n_reps=n_reps, seed=seed, grid=grid)
    w_eq = runs[0].exponents[:, col]
    results = [(label, run.exponents[:, col])
               for (label, _), run in zip(deviation_family, runs[1:])]
    estimates = [(label, log_mean_exp(w)) for label, w in results]
    best_idx = int(np.argmin([e.log_value for _, e in estimates]))
    best_label, _ = estimates[best_idx]
    diff, se = paired_log_diff(w_eq, results[best_idx][1])
    return NashGapReport(
        agent=agent, N=N, equilibrium=log_mean_exp(w_eq),
        deviations=estimates, best_label=best_label,
        gap=max(0.0, diff), gap_std_error=se, equilibrium_run=runs[0],
    )


@dataclass
class FluctuationStats:
    """Mean-field convergence statistics over an N-schedule."""

    N_schedule: list
    mean_sup: np.ndarray       # E sup_t |xhat_t - xbar_t|_inf per N
    mean_terminal: np.ndarray  # E |xhat_T - xbar_T|_inf per N
    slope_sup: float | None    # log-log fit slope vs N; None: no fit
    slope_terminal: float | None


def _log_log_slope(N_schedule, means):
    """Slope of the least-squares fit of log(mean) on log N, or None when
    there are fewer than two distinct N, or when a mean is not positive
    (as in a noise-free population), since its log is then undefined."""
    if len(set(N_schedule)) < 2 or not np.all(means > 0.0):
        return None
    logN = np.log(np.asarray(N_schedule, dtype=float))
    return float(np.polyfit(logN, np.log(means), 1)[0])


def summarize_fluctuations(runs) -> FluctuationStats:
    """Mean fluctuations of equilibrium runs and their log-log slopes in N.

    runs holds one FinitePopulationRun per entry of the N-schedule.
    """
    N_schedule = [run.N for run in runs]
    mean_sup = np.array([float(np.mean(run.fluct_sup)) for run in runs])
    mean_T = np.array([float(np.mean(run.fluct_T)) for run in runs])
    return FluctuationStats(
        N_schedule=N_schedule, mean_sup=mean_sup, mean_terminal=mean_T,
        slope_sup=_log_log_slope(N_schedule, mean_sup),
        slope_terminal=_log_log_slope(N_schedule, mean_T),
    )


def fluctuation_statistics(spec: MajorMinorSpec, eq: MfgEquilibrium,
                           N_schedule=(5, 20, 80), n_reps: int = 1000,
                           seed: int = 0,
                           grid: TimeGrid = None) -> FluctuationStats:
    """Empirical-average-to-mean-field gaps and their decay rate in N."""
    return summarize_fluctuations([
        simulate_population(spec, eq, N, n_reps=n_reps, seed=seed, grid=grid)
        for N in N_schedule])
