"""Monte Carlo simulation and verification of the exponential-cost identities.

Paths follow Euler-Maruyama on the master grid; the accumulated quadratic
cost uses trapezoidal quadrature.  All expectations of exponentials are
computed as max-shifted log-mean-exp with delta-method standard errors, so
nothing is exponentiated before shifting.

The path engine (_run_paths) simulates a range of path indices and
returns per-path arrays in path order.  It splits the range into
path_blocks: ceil(count / DEFAULT_BLOCK) contiguous blocks of equal size,
the first ones one path larger where the count does not divide.  It holds
a block's states as columns and reads per-node tables built once per
call: the law's gains, the drift and diffusion coefficients, the running
cost under the law as a quadratic in the state (riccati.running_cost),
and the integrands of the quotient and derivative estimators
(gradient_integrand).  A step forms the control and otherwise only
multiplies state rows by table entries.  Every per-path product is the
fixed-order multiply-add numerics._mm, and path j's noise is the Philox
stream keyed by (master seed, j), so a path's arrays do not depend on the
block or range it was simulated in.  The drift is A x + B u + b, not the
closed loop (A + B K) x + (B k + b), so that it rounds like the
population engine, whose decoupled minor retraces a single-agent path bit
for bit.

Each identity check is a sampling part and an estimator: the *_report
functions are pure functions of the per-path arrays of all paths in path
order.  Any split of [0, n_paths) into ranges, simulated in any order or
process and concatenated in path order, therefore gives the check's
report bit for bit; cli runs the checks' blocks in worker processes so.
The optimal-cost and quotient estimators both read log_weights, so one
ensemble on one seed can feed the two.

Coefficients are tabulated once on the half-grid, and riccati._closed_loop
turns an affine law into tables of its gains and of the closed-loop drift.
Noise-free problems degenerate to a single deterministic path.  The
quotient check then integrates that path by RK4 on those tables and
reports a zero standard error.  The normalization and optimal-cost checks
raise OutOfRange: without noise both compare riccati.law_cost of the
optimal law with C_star, which is that same number, so they cannot fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, OutOfRange
from .model import LqgProblem
from .numerics import (
    BLOWUP_BOUND,
    MatrixTrajectory,
    TimeGrid,
    _dot,
    _mm,
    half_grid_table,
    propagate_linear,
    state_transition,
)
from .riccati import RiccatiSolution, _closed_loop, running_cost

DEFAULT_BLOCK = 4096

# When a standard error is exactly zero (deterministic run), a deviation
# within this tolerance counts as z=0, anything larger as z=inf.
DETERMINISTIC_TOL = 1e-6


@dataclass
class ControlLaw:
    """Affine law u(t,x) = K(t)x + k(t) sampled on the grid nodes.

    An open-loop control has K = 0.
    """

    K: np.ndarray  # (M+1, m, n)
    k: np.ndarray  # (M+1, m)

    def u(self, i, x):
        """The control at node i for states held as columns, x (n, paths)."""
        return _mm(self.K[i], x) + self.k[i][:, None]

    def scaled(self, gain_factor=1.0, offset_shift=0.0):
        return ControlLaw(K=gain_factor * self.K, k=self.k + offset_shift)


def as_control_law(law, grid: TimeGrid, n: int, m: int) -> ControlLaw:
    """Normalize a law given as RiccatiSolution, (K, k) pair, or open-loop
    control trajectory of shape (M+1, m); raises ValueError unless K is
    (M+1, m, n) and k is (M+1, m)."""
    if isinstance(law, RiccatiSolution):
        law = ControlLaw(law.K_gain.values, law.k_offset.values)
    elif isinstance(law, tuple) and len(law) == 2:
        K, k = law
        K = K.values if isinstance(K, MatrixTrajectory) else np.asarray(K, float)
        k = k.values if isinstance(k, MatrixTrajectory) else np.asarray(k, float)
        law = ControlLaw(K, k)
    elif not isinstance(law, ControlLaw):
        u = np.asarray(law, dtype=float)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        law = ControlLaw(K=np.zeros(u.shape + (n,)), k=u)
    shape = (grid.steps + 1, m)
    if np.shape(law.K) != shape + (n,) or np.shape(law.k) != shape:
        raise ValueError(f"law needs K of shape {shape + (n,)} and k of "
                         f"shape {shape} on this grid")
    return law


def gradient_integrand(p: LqgProblem, K, k, ups):
    """Ups'(Q x + S u - eta) under u = K x + k, as G x + g.

    Returns G = Ups'(Q + S K) and g = Ups'(S k - eta); ups, K and k
    share the leading time axis.
    """
    ups_T = np.swapaxes(ups, -1, -2)
    g = (ups_T @ (k @ p.S.T - p.eta)[..., None])[..., 0]
    return ups_T @ (p.Q + p.S @ K), g


@dataclass
class PathEnsemble:
    """Seeded collection of simulated paths and their cost exponents."""

    grid: TimeGrid
    n_paths: int
    seed: int
    log_weights: np.ndarray       # (n_paths,) values of delta*Lambda_T
    x_T: np.ndarray               # (n_paths, n)
    states: np.ndarray = None     # (n_paths, M+1, n) if stored
    controls: np.ndarray = None   # (n_paths, M+1, m) if stored


@dataclass
class LogMeanExpEstimate:
    """log of a mean of exponentials, with a delta-method standard error."""

    log_value: float
    std_error: float
    n: int


@dataclass
class ZScoreReport:
    """Outcome of one identity check; floats to its z-score."""

    z: float
    value: float
    target: float
    std_error: float

    def __float__(self):
        return float(self.z)


@dataclass
class QuotientReport:
    """Componentwise self-normalized quotient check at t=0."""

    z: np.ndarray
    quotient: np.ndarray
    target: np.ndarray
    std_error: np.ndarray


@dataclass
class ConvexityReport:
    """One sampled convexity comparison with common random numbers."""

    lam: float
    margin: float       # lam*J1 + (1-lam)*J2 - J_lam, shifted linear domain
    std_error: float
    z: float            # margin / std_error; convexity holds when z > -3


def _zscore(value, target, std_error):
    diff = value - target
    if std_error == 0.0:
        z = 0.0 if abs(diff) <= DETERMINISTIC_TOL else math.inf * np.sign(diff)
        return float(z)
    return float(diff / std_error)


def log_mean_exp(log_values: np.ndarray) -> LogMeanExpEstimate:
    """Stable log(mean(exp(w))) with delta-method standard error."""
    w = np.asarray(log_values, dtype=float)
    n = w.size
    L = float(np.max(w))
    y = np.exp(w - L)
    mean = float(np.mean(y))
    if n > 1:
        se = float(np.std(y, ddof=1)) / (mean * math.sqrt(n))
    else:
        se = 0.0
    return LogMeanExpEstimate(L + math.log(mean), se, n)


def is_deterministic(p: LqgProblem, grid: TimeGrid) -> bool:
    return not np.any(half_grid_table(p.sigma, grid)[::2])


def _require_noise(p: LqgProblem, grid: TimeGrid, check: str):
    if is_deterministic(p, grid):
        raise OutOfRange(f"the {check} check needs nonzero diffusion: "
                         "without noise it compares C_star with itself")


def _noise_block(seed, first_path, count, steps, r):
    """Standard normals of paths first_path, ..., first_path+count-1.

    Row j holds the draws of Generator(Philox(key=[seed, first_path+j])).
    One bit generator serves the block: before each path its state is
    reset to that key, counter 0 and an empty buffer, which is the state
    of a fresh generator (Salmon et al. 2011, "Parallel random numbers:
    as easy as 1, 2, 3") without building one per path.
    """
    bit_gen = np.random.Philox(key=[seed, first_path])
    gen = np.random.Generator(bit_gen)
    fresh = bit_gen.state
    noise = np.empty((count, steps, r))
    for j in range(count):
        fresh["state"]["key"] = np.array([seed, first_path + j],
                                         dtype=np.uint64)
        bit_gen.state = fresh
        gen.standard_normal(out=noise[j])
    return noise


def path_blocks(paths: range, block=DEFAULT_BLOCK) -> list:
    """paths as ceil(len(paths) / block) contiguous ranges of equal size.

    Where the count does not divide, the first len(paths) mod count
    ranges hold one path more.  No range is longer than block.
    """
    count = -(-len(paths) // block)
    size, extra = divmod(len(paths), max(count, 1))
    blocks, start = [], paths.start
    for j in range(count):
        stop = start + size + (j < extra)
        blocks.append(range(start, stop))
        start = stop
    return blocks


def _run_paths(p: LqgProblem, law: ControlLaw, paths: range, seed: int,
               grid: TimeGrid, store_paths=False, ups_values=None,
               omega=None, v=None, block=DEFAULT_BLOCK):
    """Core Euler-Maruyama engine with streaming accumulators.

    Simulates the paths whose indices lie in the range paths, path j on
    the Philox stream keyed by (seed, j), and returns per-path arrays
    whose row i belongs to path paths.start + i.

    Always accumulates the trapezoidal cost integral.  When ups_values is
    given, also streams G(t) = int_0^t Ups(s)^T (Q x_s + S u_s - eta) ds
    per path; when (omega, v) are given, additionally streams the two
    perturbation integrals needed for the derivative estimator.

    A block's states are held as columns, x of shape (n, paths), so each
    product with a node table is a few multiply-adds of whole rows.
    """
    n_paths = len(paths)
    M = grid.steps
    h = grid.h
    sqrt_h = math.sqrt(h)
    n, m, r = p.n, p.m, p.r
    A_tab, b_tab, sig_tab = (half_grid_table(c, grid)[::2]
                             for c in (p.A, p.b, p.sigma))
    b_col = b_tab[:, :, None]
    noisy = bool(np.any(sig_tab))
    K, k = law.K, law.k
    # running cost x'(W x / 2 + w) + c
    W, w, c = running_cost(p, K, k)
    W_half, w_col = 0.5 * W, w[:, :, None]

    out = {
        "log_weights": np.empty(n_paths),
        "x_T": np.empty((n_paths, n)),
    }
    stream_G = ups_values is not None
    if stream_G:
        out["G_T"] = np.empty((n_paths, n))
        G_x, g = gradient_integrand(p, K, k, ups_values)
        g_col = g[:, :, None]
    stream_omega = omega is not None
    if stream_omega:
        out["qmid"] = np.empty(n_paths)
        out["cross"] = np.empty(n_paths)
        # (R u + S'x - zeta).omega = q_x x + q_c, one row q_x per node
        omega_R = omega @ p.R
        q_x = (omega @ p.S.T)[:, None, :] + omega_R[:, None, :] @ K
        q_c = np.sum(omega_R * k, axis=1) - omega @ p.zeta
        v_row = v[:, None, :]
    if store_paths:
        out["states"] = np.empty((n_paths, M + 1, n))
        out["controls"] = np.empty((n_paths, M + 1, m))

    for rows in path_blocks(paths, block):
        start, stop = rows.start - paths.start, rows.stop - paths.start
        nb = len(rows)
        noise = _noise_block(seed, rows.start, nb, M, r) if noisy else None
        x = np.repeat(p.x0[:, None], nb, axis=1)
        lam = np.zeros(nb)
        if stream_G:
            G = np.zeros((n, nb))
            gu_prev = None
        if stream_omega:
            qmid = np.zeros(nb)
            cross = np.zeros(nb)

        for i in range(M + 1):
            u = law.u(i, x)
            if store_paths:
                out["states"][start:stop, i] = x.T
                out["controls"][start:stop, i] = u.T
            weight = h if 0 < i < M else 0.5 * h
            lam += weight * (_dot(x, _mm(W_half[i], x) + w_col[i]) + c[i])
            if stream_G:
                # Ups(t_i)^T (Q x + S u - eta), trapezoided
                gu = _mm(G_x[i], x) + g_col[i]
                if i > 0:
                    G += (0.5 * h) * (gu_prev + gu)
                gu_prev = gu
            if stream_omega:
                qmid += weight * (_mm(q_x[i], x)[0] + q_c[i])
                cross += weight * _mm(v_row[i], G)[0]
            if i < M:
                drift = _mm(A_tab[i], x) + _mm(p.B, u) + b_col[i]
                x = x + drift * h
                if noisy:
                    x = x + _mm(sig_tab[i], noise[:, i].T) * sqrt_h
                mx = np.max(np.abs(x))
                if not np.isfinite(mx) or mx > BLOWUP_BOUND:
                    raise NonFiniteState(grid.nodes[i + 1])

        lam += 0.5 * _dot(x, _mm(p.Q_hat, x)) + p.q_hat @ x
        out["log_weights"][start:stop] = p.delta * lam
        out["x_T"][start:stop] = x.T
        if stream_G:
            out["G_T"][start:stop] = G.T
        if stream_omega:
            out["qmid"][start:stop] = qmid
            out["cross"][start:stop] = cross
    return out


def simulate(p: LqgProblem, law, n_paths: int, seed: int,
             grid: TimeGrid = None, store_paths=False,
             block=DEFAULT_BLOCK) -> PathEnsemble:
    """Euler-Maruyama ensemble under the given control law."""
    if grid is None:
        grid = TimeGrid(t_end=p.T, steps=2000)
    cl = as_control_law(law, grid, p.n, p.m)
    res = _run_paths(p, cl, range(n_paths), seed, grid,
                     store_paths=store_paths, block=block)
    return PathEnsemble(grid=grid, n_paths=n_paths, seed=seed,
                        log_weights=res["log_weights"], x_T=res["x_T"],
                        states=res.get("states"),
                        controls=res.get("controls"))


def estimate_cost(ens: PathEnsemble) -> LogMeanExpEstimate:
    """log J(u) = log E[exp(delta*Lambda_T)] with standard error."""
    return log_mean_exp(ens.log_weights)


def _optimal_paths(p: LqgProblem, sol: RiccatiSolution, n_paths: int,
                   seed: int, grid: TimeGrid, ups_values=None):
    """Per-path arrays of paths 0, ..., n_paths-1 under the law of sol."""
    return _run_paths(p, as_control_law(sol, grid, p.n, p.m),
                      range(n_paths), seed, grid, ups_values=ups_values)


def normalization_report(sol: RiccatiSolution, samples) -> ZScoreReport:
    """The normalization check on the log_weights of samples."""
    w = samples["log_weights"] - sol.C_star
    L = float(np.max(w))
    y = np.exp(w - L)
    mean = float(np.mean(y))
    est = math.exp(L) * mean
    se = math.exp(L) * float(np.std(y, ddof=1)) / math.sqrt(w.size)
    return ZScoreReport(_zscore(est, 1.0, se), est, 1.0, se)


def check_normalization(p: LqgProblem, sol: RiccatiSolution, n_paths: int,
                        seed: int, grid: TimeGrid = None) -> ZScoreReport:
    """Verify E[exp(delta*Lambda_T(u*) - C_star)] = 1."""
    if grid is None:
        grid = sol.grid
    _require_noise(p, grid, "normalization")
    return normalization_report(
        sol, _optimal_paths(p, sol, n_paths, seed, grid))


def optimal_cost_report(sol: RiccatiSolution, samples) -> ZScoreReport:
    """The optimal-cost check on the log_weights of samples."""
    est = log_mean_exp(samples["log_weights"])
    return ZScoreReport(_zscore(est.log_value, sol.C_star, est.std_error),
                        est.log_value, sol.C_star, est.std_error)


def check_optimal_cost(p: LqgProblem, sol: RiccatiSolution, n_paths: int,
                       seed: int, grid: TimeGrid = None) -> ZScoreReport:
    """Verify log J(u*) = C_star."""
    if grid is None:
        grid = sol.grid
    _require_noise(p, grid, "optimal-cost")
    return optimal_cost_report(
        sol, _optimal_paths(p, sol, n_paths, seed, grid))


def estimate_gateaux(p: LqgProblem, law, omega: np.ndarray, n_paths: int,
                     seed: int, grid: TimeGrid = None, block=DEFAULT_BLOCK):
    """Directional derivative of J at the law's control process.

    omega is a deterministic perturbation sampled on the grid, shape
    (M+1, m).  Returns (estimate, std_error).  The path-dependent inner
    time integral is rewritten through the state-transition matrices so
    everything streams in one pass without storing paths.
    """
    if grid is None:
        grid = TimeGrid(t_end=p.T, steps=2000)
    cl = as_control_law(law, grid, p.n, p.m)
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 1:
        omega = omega.reshape(-1, 1)
    ups, ups_inv = state_transition(p.A, grid)
    # v(t) = Ups^{-1}(t) B omega(t); W1 = int_0^T v dt (deterministic)
    v = np.einsum("tij,tj->ti", ups_inv.values, omega @ p.B.T)
    W1 = np.trapezoid(v, grid.nodes, axis=0)
    res = _run_paths(p, cl, range(n_paths), seed, grid,
                     ups_values=ups.values, omega=omega, v=v, block=block)
    x_T = res["x_T"]
    # terminal term: <Ups(T) W1, Q_hat x_T + q_hat>
    w_tilde = ups.values[-1] @ W1
    q = (x_T @ p.Q_hat.T + p.q_hat) @ w_tilde + res["qmid"] \
        + res["G_T"] @ W1 - res["cross"]
    w = res["log_weights"]
    L = float(np.max(w))
    y = np.exp(w - L) * q
    est = p.delta * math.exp(L) * float(np.mean(y))
    if n_paths > 1 and not is_deterministic(p, grid):
        se = p.delta * math.exp(L) * float(np.std(y, ddof=1)) \
            / math.sqrt(n_paths)
    else:
        se = 0.0
    return est, se


def _quotient_report(p: LqgProblem, sol: RiccatiSolution, quotient, se):
    target = sol.Pi.values[0] @ p.x0 + sol.s.values[0]
    z = np.array([_zscore(quotient[j], target[j], se[j])
                  for j in range(p.n)])
    return QuotientReport(z=z, quotient=quotient, target=target,
                          std_error=se)


def quotient_report(p: LqgProblem, sol: RiccatiSolution,
                    ups: MatrixTrajectory, samples) -> QuotientReport:
    """The quotient check on the log_weights, x_T and G_T of samples.

    ups is the state transition of p.A on the grid of the paths, the
    one whose values streamed G_T.
    """
    V = ((samples["x_T"] @ p.Q_hat.T + p.q_hat) @ ups.values[-1]
         + samples["G_T"])
    w = samples["log_weights"]
    L = float(np.max(w))
    a = np.exp(w - L)
    a_mean = float(np.mean(a))
    quotient = (a @ V) / (a.size * a_mean)
    if a.size < 2:
        se = np.zeros(p.n)
    else:
        # ratio-estimator (delta method) variance of sum(a V)/sum(a)
        resid = a[:, None] * (V - quotient)
        se = np.std(resid, axis=0, ddof=1) / (a_mean * math.sqrt(a.size))
    return _quotient_report(p, sol, quotient, se)


def check_martingale_quotient(p: LqgProblem, sol: RiccatiSolution,
                              n_paths: int, seed: int,
                              grid: TimeGrid = None) -> QuotientReport:
    """Verify Pi(0)x0 + s(0) equals the weighted quotient at t=0.

    The quotient is E[e^{dL}(Ups(T)^T (Q_hat x_T + q_hat) + int_0^T Ups(s)^T
    (Q x_s + S u*_s - eta) ds)] / E[e^{dL}] under u*, estimated by
    self-normalized importance weighting.
    """
    if grid is None:
        grid = sol.grid
    ups, _ = state_transition(p.A, grid)
    if is_deterministic(p, grid):
        # single path; x and G = int Ups^T (Q x + S u - eta) ds solve one
        # linear ODE, integrated by RK4 for quadrature accuracy instead of
        # the Euler scheme's first-order error
        n = p.n
        K, k, F, f = _closed_loop(p, sol.K_gain, sol.k_offset, grid)
        G_x, g = gradient_integrand(p, K, k, ups.half_values())
        F_xG = np.zeros((len(F), 2 * n, 2 * n))
        F_xG[:, :n, :n] = F
        F_xG[:, n:, :n] = G_x
        f_xG = np.concatenate([f, g], axis=1)
        traj = propagate_linear(F_xG, f_xG,
                                np.concatenate([p.x0, np.zeros(n)]), grid)
        x_T, G_T = traj.values[-1][:n], traj.values[-1][n:]
        quotient = ups.values[-1].T @ (p.Q_hat @ x_T + p.q_hat) + G_T
        return _quotient_report(p, sol, quotient, np.zeros(n))
    return quotient_report(p, sol, ups, _optimal_paths(
        p, sol, n_paths, seed, grid, ups_values=ups.values))


def sampled_convexity(p: LqgProblem, u1: np.ndarray, u2: np.ndarray,
                      lam: float, n_paths: int, seed: int,
                      grid: TimeGrid = None) -> ConvexityReport:
    """Check J(lam u1 + (1-lam) u2) <= lam J(u1) + (1-lam) J(u2).

    u1 and u2 are open-loop control trajectories; the three ensembles
    share the same per-path noise streams (common random numbers), and
    the comparison happens after one common max-shift.
    """
    if grid is None:
        grid = TimeGrid(t_end=p.T, steps=2000)
    u1 = np.asarray(u1, float).reshape(grid.steps + 1, p.m)
    u2 = np.asarray(u2, float).reshape(grid.steps + 1, p.m)
    u_mix = lam * u1 + (1.0 - lam) * u2
    w1 = simulate(p, u1, n_paths, seed, grid).log_weights
    w2 = simulate(p, u2, n_paths, seed, grid).log_weights
    wm = simulate(p, u_mix, n_paths, seed, grid).log_weights
    L = float(max(np.max(w1), np.max(w2), np.max(wm)))
    d = lam * np.exp(w1 - L) + (1.0 - lam) * np.exp(w2 - L) - np.exp(wm - L)
    margin = float(np.mean(d))
    if n_paths > 1:
        se = float(np.std(d, ddof=1)) / math.sqrt(n_paths)
    else:
        se = 0.0
    return ConvexityReport(lam=lam, margin=margin, std_error=se,
                           z=_zscore(margin, 0.0, se))


def mean_closed_loop(p: LqgProblem, law, grid: TimeGrid) -> MatrixTrajectory:
    """RK4 solution of the noise-free closed-loop mean dynamics."""
    law = as_control_law(law, grid, p.n, p.m)
    _, _, F, f = _closed_loop(p, law.K, law.k, grid)
    return propagate_linear(F, f, p.x0, grid)


def check_weak_error(p: LqgProblem, law, n_paths: int, seed: int,
                     grid: TimeGrid = None) -> np.ndarray:
    """Componentwise z-scores of E[x_T] against the mean ODE solution."""
    if grid is None:
        grid = TimeGrid(t_end=p.T, steps=2000)
    ens = simulate(p, law, n_paths, seed, grid)
    target = mean_closed_loop(p, law, grid).values[-1]
    mean = ens.x_T.mean(axis=0)
    se = ens.x_T.std(axis=0, ddof=1) / math.sqrt(n_paths)
    return np.array([_zscore(mean[j], target[j], se[j]) for j in range(p.n)])
