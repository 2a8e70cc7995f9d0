"""Risk-sensitive Riccati/offset solves and the optimal feedback law.

The backward matrix Riccati equation carries an extra delta*Pi*sigma*
sigma^T*Pi term relative to the classical LQR equation; for large risk
loading it can escape to infinity in finite time, which is reported as
FiniteEscape rather than propagated as garbage.  Pi at each node is a
Moebius map of Pi at the start of its block of steps through the
product of the block's RK4 step maps of the linear Hamiltonian system
(numerics._scan); an escape shows, at any scale, as a singular X.  The
scan's one batched fill of every node takes Y X^-1 = Y adj X / det X
from cofactors when n <= 3, and numpy's stacked det and solve for
larger n and for the block starts, one matrix at a time.  The
linear offset equation goes through the linear propagator, unless its
data are exactly zero, when s is too.  log_cost evaluates the log
exponential cost of any linear closed loop with the same scan, on the
state augmented by a constant 1; C_star is law_cost at the optimal law.
Every coefficient, Pi and the laws are read at the RK4 midpoints by
numerics.half_grid_table's cubic stencil, so each solve is fourth order
in the step.  A sigma table's sigma sigma^T on the half-grid is kept on
the table, so the sweeps of a fixed point, whose problems keep their
template's sigma, form it once; A's table is kept on the problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FiniteEscape, NonFiniteState
from .model import LqgProblem
from .numerics import (
    MatrixTrajectory,
    TimeGrid,
    _max_row_sum,
    _scan,
    _step_maps,
    half_grid_table,
    propagate_linear,
)


@dataclass
class RiccatiSolution:
    """Solved feedback data: Pi, s, affine law, and the cost constant."""

    problem: LqgProblem
    grid: TimeGrid
    Pi: MatrixTrajectory       # (n,n) symmetric
    s: MatrixTrajectory        # (n,)
    K_gain: MatrixTrajectory   # (m,n)
    k_offset: MatrixTrajectory  # (m,)
    C_star: float


def _symmetrize(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


# the largest n whose batched Moebius fill takes _det_adj's closed form
CLOSED_FORM_MAX_N = 3


def _det_adj(X):
    """(det X, adj X) of a stack of n x n matrices, n <= 3, by cofactors.

    X^-1 = adj X / det X.  For matrices this small numpy's stacked det
    and solve spend their time in one LAPACK call per matrix; the
    cofactors are a few products over the whole stack.  Entry (i, j)'s
    cofactor is X[i+1, j+1] X[i+2, j+2] - X[i+1, j+2] X[i+2, j+1] for n
    = 3, indices mod 3, and +-X[1-i, 1-j] for n = 2.
    """
    n = X.shape[-1]
    if n == 1:
        C = np.ones_like(X)
    elif n == 2:
        C = X[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    else:
        r1, r2 = np.array([1, 2, 0]), np.array([2, 0, 1])
        C = (X[..., r1[:, None], r1] * X[..., r2[:, None], r2]
             - X[..., r1[:, None], r2] * X[..., r2[:, None], r1])
    return (X[..., 0, :] * C[..., 0, :]).sum(axis=-1), np.swapaxes(C, -1, -2)


def _diffusion_table(p: LqgProblem, grid: TimeGrid) -> np.ndarray:
    """sigma sigma^T on grid.half_nodes."""
    sig = half_grid_table(p.sigma, grid)
    return sig @ np.swapaxes(sig, 1, 2)


def _noise_table(p: LqgProblem, grid: TimeGrid) -> np.ndarray:
    """sigma sigma^T on grid.half_nodes, formed once per sigma.

    A constant sigma's is one product, repeated as a read-only view.  A
    table's is _diffusion_table, kept on the MatrixTrajectory with the
    grid it came from, so the problems of a fixed-point sweep, which keep
    their template's sigma, share it; another grid or a replaced sigma
    forms it afresh.
    """
    sig = p.sigma
    if not isinstance(sig, MatrixTrajectory):
        return np.broadcast_to(sig @ sig.T, (2 * grid.steps + 1, p.n, p.n))
    cached = getattr(sig, "_noise_table_cache", None)
    if cached is None or cached[0] != grid:
        cached = sig._noise_table_cache = (grid, _diffusion_table(p, grid))
    return cached[1]


def _drift_table(p: LqgProblem, grid: TimeGrid) -> np.ndarray:
    """A on grid.half_nodes, formed once per problem.

    solve_riccati, solve_offset and law_cost all read it, so it is kept on
    the problem with the grid and the A it came from; another grid or a
    replaced A forms it afresh.
    """
    cached = getattr(p, "_drift_table_cache", None)
    if cached is None or cached[0] != grid or cached[1] is not p.A:
        cached = (grid, p.A, half_grid_table(p.A, grid))
        p._drift_table_cache = cached
    return cached[2]


def solve_riccati(p: LqgProblem, grid: TimeGrid) -> MatrixTrajectory:
    """Backward solve of the risk-sensitive Riccati equation, Pi(T)=Q_hat:
    _backward_riccati with A_s = A - B R^-1 S^T, W = delta sigma sigma^T
    - B R^-1 B^T and Q_s = Q - S R^-1 S^T."""
    Rinv = np.linalg.inv(p.R)
    B, S = p.B, p.S
    A_s = _drift_table(p, grid) - B @ Rinv @ S.T
    W = p.delta * _noise_table(p, grid) - B @ Rinv @ B.T
    return _backward_riccati(A_s, W, p.Q - S @ Rinv @ S.T, p.Q_hat, grid)


def _backward_riccati(A_s, W, Q_s, Q_hat, grid: TimeGrid) -> MatrixTrajectory:
    """Node values of -Pi' = Pi A_s + A_s^T Pi + Pi W Pi + Q_s, Pi(T)=Q_hat.

    A_s and W are (2M+1, n, n) tables on grid.half_nodes, Q_s one too or
    a constant (n, n).  The equation has Pi = Y X^-1 for [X; Y]' =
    H [X; Y], H = [[A_s, W], [-Q_s, -A_s^T]].  A product P of H's RK4 step
    maps carries a node's Pi to [X; Y] = P [I; Pi] at a later node in the
    backward sweep, and Pi there is sym(Y X^-1); numerics._scan applies
    this to every node, with rho = max|A_s| + sqrt(max|W| max|Q_s|) in the
    infinity norm, which the scaling of the weights by c and of delta by
    1/c leaves unchanged.  det X is the product of the per-step
    determinants, so the first node with det X <= 0 or a non-finite Pi is
    the per-step recurrence's first singular step; it raises
    FiniteEscape(t).
    """
    n = A_s.shape[-1]
    H = np.empty((len(A_s), 2 * n, 2 * n))
    H[:, :n, :n], H[:, :n, n:] = A_s, W
    H[:, n:, :n], H[:, n:, n:] = -Q_s, -np.swapaxes(A_s, 1, 2)
    rho = _max_row_sum(A_s) + np.sqrt(_max_row_sum(W) * _max_row_sum(Q_s))
    Phi, _ = _step_maps(H, grid, "backward")

    def node(P, Pi):
        XY = P[..., :n] + P[..., n:] @ Pi
        if P.ndim > 2 and n <= CLOSED_FORM_MAX_N:
            # the batched fill: Y X^-1 = Y adj X / det X, garbage where
            # det X <= 0, which is not ok
            det, adj = _det_adj(XY[..., :n, :])
            ok = det > 0.0
            Pi = _symmetrize(XY[..., n:, :] @ adj) / det[..., None, None]
        else:
            # Y X^-1 = (X^-T Y^T)^T, and sym ignores the transpose
            Xt = np.swapaxes(XY[..., :n, :], -1, -2)
            ok = np.linalg.det(Xt) > 0.0
            if not ok.all():
                # a dropped node solves against I, so solve never sees
                # singular X
                Xt = np.where(ok[..., None, None], Xt, np.eye(n))
            Pi = _symmetrize(np.linalg.solve(
                Xt, np.swapaxes(XY[..., n:, :], -1, -2)))
        return Pi, ok & np.isfinite(Pi).all(axis=(-2, -1))

    values, bad = _scan(Phi, _symmetrize(Q_hat), node, rho, grid,
                        "backward")
    if bad is not None:
        raise FiniteEscape(grid.nodes[bad])
    return MatrixTrajectory(grid, values)


def solve_offset(p: LqgProblem, Pi: MatrixTrajectory,
                 grid: TimeGrid) -> MatrixTrajectory:
    """Backward solve of the linear offset equation, s(T)=q_hat.

    The field is -(M s + Pi g + c) with M = A^T - Pi B R^-1 B^T - S R^-1
    B^T + delta Pi sigma sigma^T, g = b + B R^-1 zeta and c = S R^-1 zeta
    - eta, formed for the whole half-grid and handed to the linear
    propagator.  Pi at the midpoints is half_grid_table's cubic reading
    of its nodes, so that s keeps the fourth order of Pi.  When g, c and
    q_hat are all exactly zero, s is zero whatever Pi is, and the zero
    trajectory is returned without a solve.
    """
    Rinv = np.linalg.inv(p.R)
    B, S = p.B, p.S
    BRinv = B @ Rinv
    SRinv = S @ Rinv
    g = half_grid_table(p.b, grid) + BRinv @ p.zeta
    if not (g.any() or (SRinv @ p.zeta - p.eta).any() or p.q_hat.any()):
        return MatrixTrajectory(grid, np.zeros((grid.steps + 1, p.n)))
    Pi_h = half_grid_table(Pi, grid)
    sig2 = _noise_table(p, grid)
    M = (np.swapaxes(_drift_table(p, grid), 1, 2)
         - Pi_h @ (BRinv @ B.T) - SRinv @ B.T
         + p.delta * Pi_h @ sig2)
    forcing = np.einsum("tij,tj->ti", Pi_h, g) + SRinv @ p.zeta - p.eta
    try:
        return propagate_linear(-M, -forcing, p.q_hat, grid, "backward")
    except NonFiniteState as e:
        raise FiniteEscape(e.t) from e


def feedback_law(p: LqgProblem, Pi: MatrixTrajectory, s: MatrixTrajectory):
    """Affine optimal law u(t,x) = K_gain(t) x + k_offset(t)."""
    Rinv = np.linalg.inv(p.R)
    gains = np.einsum("ij,tjk->tik", -Rinv,
                      p.S.T[None, :, :] + np.einsum(
                          "ij,tjk->tik", p.B.T, Pi.values))
    offsets = (s.values @ p.B @ (-Rinv).T) + p.zeta @ Rinv.T
    return (MatrixTrajectory(Pi.grid, gains),
            MatrixTrajectory(s.grid, offsets))


def running_cost(p: LqgProblem, K, k):
    """The running cost under u = K x + k as 0.5 x'W x + w'x + c.

    W = Q + S K + K'S' + K'R K, w = S k + K'(R k - zeta) - eta and
    c = 0.5 k'R k - zeta'k, with R's symmetric part in w.  K and k may
    carry a leading time axis.
    """
    SK = p.S @ K
    KT = np.swapaxes(K, -1, -2)
    W = p.Q + SK + np.swapaxes(SK, -1, -2) + KT @ p.R @ K
    Rk = k @ (0.5 * (p.R + p.R.T))
    w = k @ p.S.T + ((Rk - p.zeta)[..., None, :] @ K)[..., 0, :] - p.eta
    c = 0.5 * np.sum(Rk * k, axis=-1) - k @ p.zeta
    return W, w, c


def _closed_loop(p: LqgProblem, K, k, grid: TimeGrid):
    """(K, k, F, f) on grid.half_nodes for u = K x + k given at the nodes.

    K and k are MatrixTrajectory's on grid or arrays of their node values.
    dx/dt = F x + f is the closed-loop drift: F = A + B K, f = B k + b.
    """
    K, k = (half_grid_table(v if isinstance(v, MatrixTrajectory)
                            else MatrixTrajectory(grid, v), grid)
            for v in (K, k))
    return (K, k, _drift_table(p, grid) + p.B @ K,
            k @ p.B.T + half_grid_table(p.b, grid))


def log_cost(F, f, running, terminal, x0, grid: TimeGrid, delta: float,
             sig2) -> float:
    """log E exp(delta Lambda_T) of dx = (F x + f) dt + sigma dw from x0.

    F, f and sig2 = sigma sigma^T are tables on grid.half_nodes.  On z =
    (x, 1), Lambda_T is the integral of 0.5 z'running z plus 0.5 z'terminal
    z at T, running and terminal holding [[W, w], [w', 2c]].  The
    cost-to-go is 0.5 z'P z plus 0.5 int tr(sigma sigma^T P_xx) dt
    (Jacobson 1973), with P from _backward_riccati on z, A_s = [[F, f],
    [0, 0]] and W = delta diag(sigma sigma^T, 0), and the trace integral
    by the trapezoid rule over the nodes.  An infinite cost raises
    FiniteEscape.
    """
    n = len(x0)
    A_s = np.pad(np.concatenate([F, f[:, :, None]], axis=2),
                 ((0, 0), (0, 1), (0, 0)))
    W = np.pad(delta * sig2, ((0, 0), (0, 1), (0, 1)))
    P = _backward_riccati(A_s, W, _symmetrize(running), terminal,
                          grid).values
    z0 = np.append(x0, 1.0)
    trace = np.einsum("tij,tji->t", sig2[::2], P[:, :n, :n])
    return delta * (0.5 * float(z0 @ P[0] @ z0)
                    + 0.5 * float(np.trapezoid(trace, grid.nodes)))


def law_cost(p: LqgProblem, K, k, grid: TimeGrid) -> float:
    """log J(u) of the affine law u = K x + k; K and k are node arrays or
    MatrixTrajectory's on grid."""
    K, k, F, f = _closed_loop(p, K, k, grid)
    W, w, c = running_cost(p, K, k)
    running = np.block([[W, w[:, :, None]],
                        [w[:, None], 2.0 * c[:, None, None]]])
    terminal = np.block([[p.Q_hat, p.q_hat[:, None]], [p.q_hat, 0.0]])
    return log_cost(F, f, running, terminal, p.x0, grid, p.delta,
                    _noise_table(p, grid))


def solve(p: LqgProblem, grid: TimeGrid) -> RiccatiSolution:
    """Full solve: Riccati, offset, feedback law, and C_star."""
    Pi = solve_riccati(p, grid)
    s = solve_offset(p, Pi, grid)
    K_gain, k_offset = feedback_law(p, Pi, s)
    return RiccatiSolution(problem=p, grid=grid, Pi=Pi, s=s,
                           K_gain=K_gain, k_offset=k_offset,
                           C_star=law_cost(p, K_gain, k_offset, grid))
