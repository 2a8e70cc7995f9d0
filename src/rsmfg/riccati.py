"""Risk-sensitive Riccati/offset solves and the optimal feedback law.

The backward matrix Riccati equation carries an extra delta*Pi*sigma*
sigma^T*Pi term relative to the classical LQR equation; for large risk
loading it can escape to infinity in finite time, which is reported as
FiniteEscape rather than propagated as garbage.  Pi at each node is a
Moebius map of Pi at the start of its block of steps through the
product of the block's RK4 step maps of the linear Hamiltonian system
(numerics._scan); an escape shows, at any scale, as a singular X.  The
linear offset equation goes through the linear propagator.  C_star is
the log of the optimal exponential cost.
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


def _diffusion_table(p: LqgProblem, grid: TimeGrid) -> np.ndarray:
    """sigma sigma^T on grid.half_nodes."""
    sig = half_grid_table(p.sigma, grid)
    return sig @ np.swapaxes(sig, 1, 2)


def _half_tables(p: LqgProblem, grid: TimeGrid):
    """(A, sigma sigma^T) on grid.half_nodes, formed once per problem.

    solve_riccati and solve_offset both read them, so the pair is kept on
    the problem with the grid and the coefficient objects it came from;
    another grid or a replaced A or sigma forms it afresh.
    """
    cached = getattr(p, "_half_tables_cache", None)
    if (cached is None or cached[0] != grid or cached[1] is not p.A
            or cached[2] is not p.sigma):
        cached = (grid, p.A, p.sigma, half_grid_table(p.A, grid),
                  _diffusion_table(p, grid))
        p._half_tables_cache = cached
    return cached[3:]


def solve_riccati(p: LqgProblem, grid: TimeGrid) -> MatrixTrajectory:
    """Backward solve of the risk-sensitive Riccati equation, Pi(T)=Q_hat.

    -Pi' = Pi A_s + A_s^T Pi + Pi W Pi + Q_s, with A_s = A - B R^-1 S^T,
    W = delta sigma sigma^T - B R^-1 B^T and Q_s = Q - S R^-1 S^T, has
    Pi = Y X^-1 for [X; Y]' = H [X; Y], H = [[A_s, W], [-Q_s, -A_s^T]].
    A product P of H's RK4 step maps carries a node's Pi to [X; Y] = P
    [I; Pi] at a later node in the backward sweep, and Pi there is
    sym(Y X^-1); numerics._scan applies this to every node, with rho =
    max|A_s| + sqrt(max|W| max|Q_s|) in the infinity norm, which the
    scaling of the weights by c and of delta by 1/c leaves unchanged.
    det X is the product of the per-step determinants, so the first node
    with det X <= 0 or a non-finite Pi is the per-step recurrence's
    first singular step; it raises FiniteEscape(t).
    """
    Rinv = np.linalg.inv(p.R)
    B, S, n = p.B, p.S, p.n
    A_half, sig2 = _half_tables(p, grid)
    A_s = A_half - B @ Rinv @ S.T
    W = p.delta * sig2 - B @ Rinv @ B.T
    Q_s = np.broadcast_to(p.Q - S @ Rinv @ S.T, A_s.shape)
    H = np.block([[A_s, W], [-Q_s, -np.swapaxes(A_s, 1, 2)]])
    rho = _max_row_sum(A_s) + np.sqrt(_max_row_sum(W) * _max_row_sum(Q_s))
    Phi, _ = _step_maps(H, grid, "backward")

    def node(P, Pi):
        XY = P[..., :n] + P[..., n:] @ Pi
        # Y X^-1 = (X^-T Y^T)^T, and sym ignores the transpose
        Xt = np.swapaxes(XY[..., :n, :], -1, -2)
        ok = np.linalg.det(Xt) > 0.0
        # a dropped node solves against I, so solve never sees singular X
        Xt = np.where(ok[..., None, None], Xt, np.eye(n))
        Pi = _symmetrize(np.linalg.solve(
            Xt, np.swapaxes(XY[..., n:, :], -1, -2)))
        return Pi, ok & np.isfinite(Pi).all(axis=(-2, -1))

    values, bad = _scan(Phi, _symmetrize(p.Q_hat), node, rho, grid,
                        "backward")
    if bad is not None:
        raise FiniteEscape(grid.nodes[bad])
    return MatrixTrajectory(grid, values)


def solve_offset(p: LqgProblem, Pi: MatrixTrajectory,
                 grid: TimeGrid) -> MatrixTrajectory:
    """Backward solve of the linear offset equation, s(T)=0.

    The field is -(M s + f) with M = A^T - Pi B R^-1 B^T - S R^-1 B^T
    + delta Pi sigma sigma^T and f = Pi (b + B R^-1 zeta) + S R^-1 zeta
    - eta, both formed for the whole half-grid and handed to the linear
    propagator.
    """
    Rinv = np.linalg.inv(p.R)
    B, S = p.B, p.S
    BRinv = B @ Rinv
    SRinv = S @ Rinv
    Pi_h = Pi.half_values()
    A_half, sig2 = _half_tables(p, grid)
    M = (np.swapaxes(A_half, 1, 2)
         - Pi_h @ (BRinv @ B.T) - SRinv @ B.T
         + p.delta * Pi_h @ sig2)
    forcing = (np.einsum("tij,tj->ti", Pi_h,
                         half_grid_table(p.b, grid) + BRinv @ p.zeta)
               + SRinv @ p.zeta - p.eta)
    try:
        return propagate_linear(-M, -forcing, np.zeros(p.n), grid,
                                "backward")
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


def c_star(p: LqgProblem, Pi: MatrixTrajectory, s: MatrixTrajectory,
           grid: TimeGrid) -> float:
    """Log of the optimal exponential cost, by trapezoidal quadrature."""
    Rinv = np.linalg.inv(p.R)
    s_t, Pi_t = s.values, Pi.values
    sig = half_grid_table(p.sigma, grid)[::2]
    v = s_t @ p.B - p.zeta
    sig_s = np.einsum("tij,ti->tj", sig, s_t)
    integrand = (0.5 * p.delta) * (
        2.0 * np.einsum("ti,ti->t", s_t, half_grid_table(p.b, grid)[::2])
        - np.einsum("ti,ij,tj->t", v, Rinv, v)
        + np.einsum("tij,tjk,tik->t", Pi_t, sig, sig)
    ) + (0.5 * p.delta ** 2) * np.einsum("tj,tj->t", sig_s, sig_s)
    integral = float(np.trapezoid(integrand, grid.nodes))
    x0 = p.x0
    return integral + 0.5 * p.delta * float(x0 @ Pi_t[0] @ x0) \
        + p.delta * float(s_t[0] @ x0)


def solve(p: LqgProblem, grid: TimeGrid) -> RiccatiSolution:
    """Full solve: Riccati, offset, feedback law, and C_star."""
    Pi = solve_riccati(p, grid)
    s = solve_offset(p, Pi, grid)
    K_gain, k_offset = feedback_law(p, Pi, s)
    C = c_star(p, Pi, s, grid)
    return RiccatiSolution(problem=p, grid=grid, Pi=Pi, s=s,
                           K_gain=K_gain, k_offset=k_offset, C_star=C)
