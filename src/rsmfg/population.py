"""Finite-population co-simulation, per-agent costs, and Nash-gap probes.

The 1+N agents share one Euler-Maruyama grid.  Each agent applies the
infinite-population equilibrium law with the mean-field coordinates
replaced by per-type empirical averages, except for an optionally
overridden agent that plays an alternative law.  Per-agent noise comes
from counter-based Philox streams keyed by (master seed, agent slot), so
results are independent of replication batching and a single decoupled
minor reproduces the single-agent simulator path for path.  Several
laws can be advanced together: each chunk of noise is drawn once and
drives every law's population, which is how nash_gap compares the
equilibrium with its deviations on common random numbers.  Within each
type the minors are held in ascending key order, and the empirical
averages are plain sums in that order, so relabeling agents together
with their noise streams leaves them bitwise unchanged.

States are held component-major: a type's minors are one array (n,
law, agent, replication), and every product is numerics._mm with the
coefficient matrix on the left, its inner loop running over all laws,
agents and replications.  Replications are chunked so that the noise
arrays alive at once (the kicks sigma dW of all 1+N agents and the
normals they are made from, scaled in place when n = r = 1) fit in
NOISE_BUDGET_BYTES; a chunk's noise is freed before the next is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    replication; column 1+j holds minor slot j.  paths and empirical_avg
    record the first replication only.
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
    averages.  agent_keys customizes the per-slot noise stream keys
    (defaults to 0..N-1 for minors; the major always uses key N).
    """
    return simulate_population_laws(spec, eq, N, [override], n_reps=n_reps,
                                    seed=seed, grid=grid, chunk=chunk,
                                    agent_keys=agent_keys)[0]


def simulate_population_laws(spec: MajorMinorSpec, eq: MfgEquilibrium,
                             N: int, overrides, n_reps: int = 1,
                             seed: int = 0, grid: TimeGrid = None,
                             chunk: int = DEFAULT_CHUNK,
                             agent_keys=None) -> list:
    """One co-simulation per entry of overrides, all on one noise draw.

    Each entry is None (every agent plays its equilibrium law) or an
    (agent, law) override as in simulate_population.  Each chunk of noise
    is drawn once and drives every law's population, so run l equals
    simulate_population(..., override=overrides[l]) with the same seed.
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
    L = len(overrides)

    (K0, k0), minor_laws = equilibrium_laws(eq)
    major_devs = []
    minor_devs = [[] for _ in range(K)]
    for l, ov in enumerate(overrides):
        if ov is None:
            continue
        agent, law = ov
        if agent == "major":
            major_devs.append((l, as_control_law(law, grid, n * (1 + K), m)))
        elif 0 <= int(agent) < N:
            j = int(agent)
            minor_devs[assignment[j]].append(
                (l, position[j], as_control_law(law, grid, n * (2 + K), m)))
        else:
            raise OutOfRange(f"agent {agent!r} not in the population")

    maj, minors = spec.major, spec.minors
    # drift offsets and diffusions at the nodes; minor gains are split
    # into the own-state block and the (major, mean-field) block shared by
    # every agent of the type
    b0, sig0 = (half_grid_table(c, grid)[::2] for c in (maj.b, maj.sigma))
    bk = [half_grid_table(th.b, grid)[::2] for th in minors]
    sigk = [half_grid_table(th.sigma, grid)[::2] for th in minors]
    K0, k0 = K0.values, k0.values
    Kx = [Kk.values[:, :, :n] for Kk, _ in minor_laws]
    Kr = [Kk.values[:, :, n:] for Kk, _ in minor_laws]
    kks = [kk.values for _, kk in minor_laws]
    A_bar, G_bar, m_bar = eq.A_bar.values, eq.G_bar.values, eq.m_bar.values

    # every noise array alive at once: the kicks of all 1+N agents, the
    # normals they are made from (scaled in place when n = r = 1) and one
    # agent's draw
    width = (N + 1) * n + (0 if n == r == 1 else (N + 1) * r) + r
    cap = max(1, NOISE_BUDGET_BYTES // (8 * M * width))
    chunk = max(1, min(chunk, cap, n_reps))
    gens = [[np.random.Generator(np.random.Philox(key=[seed, keys[j]]))
             for j in sk] for sk in slots]
    gen0 = np.random.Generator(np.random.Philox(key=[seed, N]))

    exponents = np.empty((L, n_reps, 1 + N))
    fluct_sup = np.empty((L, n_reps))
    fluct_T = np.empty((L, n_reps))
    paths = np.empty((L, M + 1, 1 + N, n))
    empirical_avg = np.empty((L, M + 1, n))

    for start in range(0, n_reps, chunk):
        stop = min(start + chunk, n_reps)
        c = stop - start
        kick0 = _noise_kicks([gen0], c, M, sig0, sqrt_h)[:, :, 0]
        kicks = [_noise_kicks(gens[k], c, M, sigk[k], sqrt_h)
                 for k in range(K)]

        # agent arrays are (component, law, agent in key order,
        # replication); the *_f views flatten all but the component, so
        # each product T x runs over every law, agent and replication.
        # ext0 stacks the major's state and the per-type averages.
        ext0 = np.empty((n * (1 + K), L, c))
        ext0[:n] = maj.x0[:, None, None]
        x0, xhat, ext0_f = ext0[:n], ext0[n:], ext0.reshape(len(ext0), -1)
        x0_f = ext0_f[:n]
        xms = [np.broadcast_to(th.x0.reshape(n, 1, 1, 1), (n, L, Nk, c)).copy()
               for th, Nk in zip(minors, counts)]
        ums = [np.empty((m, L, counts[k], c)) for k in range(K)]
        work = [np.empty((n, L, counts[k], c)) for k in range(K)]
        work2 = [np.empty((n, L * counts[k] * c)) for k in range(K)]
        xms_f, ums_f, work_f = ([a.reshape(len(a), -1) for a in arrs]
                                for arrs in (xms, ums, work))
        xbar = np.empty((n * K, L, c))
        xbar[...] = np.concatenate([th.x0 for th in minors])[:, None, None]
        xbar_f = xbar.reshape(n * K, L * c)
        lam0 = np.zeros(L * c)
        lams = [np.zeros(L * counts[k] * c) for k in range(K)]
        sup = np.zeros((L, c))

        for i in range(M + 1):
            xN = None
            for k in range(K):
                # per-type sums in key order, whatever the chunk size
                sk = xms[k][:, :, 0].copy()
                for j in range(1, counts[k]):
                    sk += xms[k][:, :, j]
                xhat[k * n:(k + 1) * n] = sk / counts[k]
                xN = sk if xN is None else xN + sk
            xN = xN / N
            xN_f = xN.reshape(n, L * c)

            u0 = _mm(K0[i], ext0_f) + k0[i][:, None]
            u0_l = u0.reshape(m, L, c)
            for l, law in major_devs:
                u0_l[:, l] = law.u(i, ext0[:, l])
            for k in range(K):
                base = _mm(Kr[k][i], ext0_f) + kks[k][i][:, None]
                _mm(Kx[k][i], xms_f[k], out=ums_f[k])
                ums[k] += base.reshape(m, L, 1, c)
                for l, idx, law in minor_devs[k]:
                    ext_j = np.concatenate([xms[k][:, l, idx], ext0[:, l]])
                    ums[k][:, l, idx] = law.u(i, ext_j)

            weight = h if 0 < i < M else 0.5 * h
            r0 = x0_f - (_mm(maj.H, xN_f) + maj.eta[:, None])
            lam0 += weight * _quad(r0, maj.Q, maj.S, maj.R, u0)
            if i == M:
                lam0 += 0.5 * _qform(r0, maj.Q_hat, r0)
            for k in range(K):
                th = minors[k]
                psi = (_mm(th.H, x0_f) + _mm(th.H_hat, xN_f)
                       + th.eta[:, None])
                np.subtract(xms[k], psi.reshape(n, L, 1, c), out=work[k])
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
                paths[:, i, 0] = x0[:, :, 0].T
                for k in range(K):
                    paths[:, i, 1 + slots[k]] = xms[k][..., 0].transpose(
                        1, 2, 0)
                empirical_avg[:, i] = xN[:, :, 0].T

            if i < M:
                xbar_f += (_mm(A_bar[i], xbar_f) + _mm(G_bar[i], x0_f)
                           + m_bar[i][:, None]) * h
                drift0 = (_mm(maj.A, x0_f) + _mm(maj.F, xN_f)
                          + b0[i][:, None])
                x0_f += (drift0 + _mm(maj.B, u0)) * h
                x0 += kick0[i][:, None]
                extremes = [np.max(x0), -np.min(x0)]
                for k in range(K):
                    # ((A x + B u) + (coupling + b)) h, then sigma dW; the
                    # coupling reads the major's state already advanced
                    th = minors[k]
                    coup = (_mm(th.F, xN_f) + _mm(th.G, x0_f)
                            + bk[k][i][:, None])
                    d1, d2 = work_f[k], work2[k]
                    _mm(th.A, xms_f[k], out=d1)
                    d1 += _mm(th.B, ums_f[k], out=d2)
                    work[k] += coup.reshape(n, L, 1, c)
                    d1 *= h
                    xms_f[k] += d1
                    xms[k] += kicks[k][i][:, None]
                    extremes += [np.max(xms[k]), -np.min(xms[k])]
                mx = np.max(extremes)
                if not np.isfinite(mx) or mx > BLOWUP_BOUND:
                    raise NonFiniteState(grid.nodes[i + 1])
        # free this chunk's noise before the next one is drawn
        del kick0, kicks

        exponents[:, start:stop, 0] = maj.delta * lam0.reshape(L, c)
        for k in range(K):
            exponents[:, start:stop, 1 + slots[k]] = np.swapaxes(
                minors[k].delta * lams[k].reshape(L, counts[k], c), 1, 2)
        fluct_sup[:, start:stop] = sup
        fluct_T[:, start:stop] = diff_T

    return [FinitePopulationRun(
        spec=spec, N=N, assignment=assignment, seed=seed, grid=grid,
        exponents=exponents[l], fluct_sup=fluct_sup[l], fluct_T=fluct_T[l],
        paths=paths[l], empirical_avg=empirical_avg[l],
    ) for l in range(L)]


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
    for t in (grid.t_start, grid.t_end):
        if np.any(spec.major.sigma(t) != 0.0) or any(
                np.any(th.sigma(t) != 0.0) for th in spec.minors):
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
        laws[slot] = as_control_law(law, grid, dim, spec.m).on_half_grid(
            grid, dim)
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
    """log E[exp(delta*Lambda_T)] for one agent across replications."""
    col = 0 if agent == "major" else 1 + int(agent)
    if col < 0 or col > run.N:
        raise OutOfRange(f"agent {agent!r} not in run")
    return log_mean_exp(run.exponents[:, col])


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
    simulate_population_laws call, so each chunk of noise is drawn once
    and all laws see identical draws (common random numbers); each law's
    exponents equal those of a separate simulate_population run with the
    same seed.  The gap is max(0, equilibrium log-cost minus the best
    deviation's log-cost) with a paired standard error.  A previously
    simulated equilibrium ensemble with matching (N, n_reps, seed) can be
    passed to avoid re-simulating it.
    """
    if deviation_family is None:
        deviation_family = default_deviation_family(eq, agent)
    overrides = [(agent, law) for _, law in deviation_family]
    if equilibrium_run is not None:
        if (equilibrium_run.N != N or equilibrium_run.seed != seed
                or equilibrium_run.n_reps != n_reps):
            raise OutOfRange(
                "equilibrium_run does not match (N, n_reps, seed)")
        runs = [equilibrium_run] + simulate_population_laws(
            spec, eq, N, overrides, n_reps=n_reps, seed=seed, grid=grid)
    else:
        runs = simulate_population_laws(spec, eq, N, [None] + overrides,
                                        n_reps=n_reps, seed=seed, grid=grid)
    col = 0 if agent == "major" else 1 + int(agent)
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
        gap=max(0.0, diff), gap_std_error=se,
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
