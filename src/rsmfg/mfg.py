"""Major-minor mean-field equilibrium via the consistency fixed point.

The infinite-population game reduces to two families of single-agent
risk-sensitive problems on extended states: the major agent sees
(x0, xbar), a representative minor agent of type k sees (x, x0, xbar).
The mean-field drift coefficients Abar(t), Gbar(t), mbar(t) both feed
those extended problems and are recomputed from their solutions, so the
equilibrium is the fixed point of a sweep: solve the major's Riccati and
offset, then each minor type's, then refresh the coefficients.  The
sweep reads its drifts from the assembled systems, with the iterate in
the major's mean-field rows and the major's closed loop in each minor's,
and the refresh is the averaging identity [Gbar | Abar] = [G~ | A~] +
B_breve Xi, mbar = b_breve + B_breve varsigma, with (Xi, varsigma) the
minor laws averaged within each type.  Each inner solve delegates to the
single-agent riccati module with the extended matrices substituted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotConverged
from .model import ExtendedSystem, LqgProblem, MajorMinorSpec
from .numerics import (
    MatrixTrajectory,
    TimeGrid,
    half_grid_table,
    propagate_linear,
)
from .riccati import feedback_law, solve_offset, solve_riccati


def _pi_blocks(M: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """[pi_1 M, ..., pi_K M] as one wide matrix."""
    return np.concatenate([w * M for w in pi], axis=1)


def assemble_mean_field(minors, pi):
    """Structural mean-field matrices (A_breve, G_breve, B_breve).

    Row block k of A_breve is A_k e_k + [pi_1 F_k, ..., pi_K F_k]; G_breve
    stacks the G_k; B_breve is block-diagonal in the B_k.
    """
    K = len(minors)
    n = minors[0].A.shape[0]
    m = minors[0].B.shape[1]
    pi = np.asarray(pi, dtype=float)
    if len(pi) != K:
        raise DimensionMismatch("pi length must equal the number of types")
    A_breve = np.zeros((n * K, n * K))
    G_breve = np.zeros((n * K, n))
    B_breve = np.zeros((n * K, m * K))
    for k, th in enumerate(minors):
        rows = slice(n * k, n * (k + 1))
        A_breve[rows] = _pi_blocks(th.F, pi)
        A_breve[rows, n * k:n * (k + 1)] += th.A
        G_breve[rows] = th.G
        B_breve[rows, m * k:m * (k + 1)] = th.B
    return A_breve, G_breve, B_breve


def assemble_major(spec: MajorMinorSpec) -> ExtendedSystem:
    """Extended system of the major agent on the state (x0, xbar)."""
    n, K = spec.n, spec.K
    maj = spec.major
    A_breve, G_breve, B_breve = assemble_mean_field(spec.minors, spec.pi)
    F0_pi = _pi_blocks(maj.F, spec.pi)
    dim = n * (1 + K)
    A_tilde = np.block([[maj.A, F0_pi], [G_breve, A_breve]])
    B_own = np.vstack([maj.B, np.zeros((n * K, spec.m))])
    B_mean = np.vstack([np.zeros((n, B_breve.shape[1])), B_breve])

    T0 = np.concatenate([np.eye(n), -_pi_blocks(maj.H, spec.pi)], axis=1)
    Q_bb = T0.T @ maj.Q @ T0
    G_bb = T0.T @ maj.Q_hat @ T0
    S_bb = T0.T @ maj.S
    eta_bar = T0.T @ (maj.Q @ maj.eta)
    n_bar = maj.S.T @ maj.eta

    x0 = np.concatenate([maj.x0] + [th.x0 for th in spec.minors])
    return ExtendedSystem(dim=dim, A_tilde=A_tilde, B_own=B_own,
                          B_major=None, B_mean=B_mean,
                          Q_bb=Q_bb, S_bb=S_bb, G_bb=G_bb,
                          eta_bar=eta_bar, n_bar=n_bar, R=maj.R,
                          delta=maj.delta, x0=x0)


def assemble_minor(spec: MajorMinorSpec, k: int,
                   eta_hat_sign: float = -1.0) -> ExtendedSystem:
    """Extended system of a type-k minor agent on the state (x, x0, xbar).

    eta_hat_sign sets the sign of the mean-field tracking block in the
    linear cost term eta_bar; -1 matches the congruence transform used for
    every quadratic block, +1 is exposed as a configuration switch.
    """
    n, K = spec.n, spec.K
    th = spec.minors[k]
    major_ext = assemble_major(spec)
    dim = n * (2 + K)
    F_pi = _pi_blocks(th.F, spec.pi)
    top = np.concatenate([th.A, th.G, F_pi], axis=1)
    A_tilde = np.vstack([
        top,
        np.concatenate([np.zeros((major_ext.dim, n)), major_ext.A_tilde],
                       axis=1),
    ])
    B_own = np.vstack([th.B, np.zeros((major_ext.dim, spec.m))])
    B_major = np.vstack([np.zeros((n, spec.m)), major_ext.B_own])
    B_mean = np.vstack([np.zeros((n, major_ext.B_mean.shape[1])),
                        major_ext.B_mean])

    H_hat_pi = _pi_blocks(th.H_hat, spec.pi)
    Tk = np.concatenate([np.eye(n), -th.H, -H_hat_pi], axis=1)
    Tk_eta = np.concatenate([np.eye(n), -th.H, eta_hat_sign * H_hat_pi],
                            axis=1)
    Q_bb = Tk.T @ th.Q @ Tk
    G_bb = Tk.T @ th.Q_hat @ Tk
    S_bb = Tk.T @ th.S
    eta_bar = Tk_eta.T @ (th.Q @ th.eta)
    n_bar = th.S.T @ th.eta

    x0 = np.concatenate([th.x0, major_ext.x0])
    return ExtendedSystem(dim=dim, A_tilde=A_tilde, B_own=B_own,
                          B_major=B_major, B_mean=B_mean,
                          Q_bb=Q_bb, S_bb=S_bb, G_bb=G_bb,
                          eta_bar=eta_bar, n_bar=n_bar, R=th.R,
                          delta=th.delta, x0=x0)


@dataclass
class IterationLog:
    """Per-sweep sup-norm errors of the coefficient update."""

    errors: list
    tolerance: float
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.errors)


@dataclass
class MfgEquilibrium:
    """Converged consistency solution and derived equilibrium laws."""

    spec: MajorMinorSpec
    grid: TimeGrid
    Pi0: MatrixTrajectory
    s0: MatrixTrajectory
    Pik: list
    sk: list
    A_bar: MatrixTrajectory   # (nK, nK)
    G_bar: MatrixTrajectory   # (nK, n)
    m_bar: MatrixTrajectory   # (nK,)
    major_problem: LqgProblem   # extended problem the major solution obeys
    minor_problems: list
    major_ext: ExtendedSystem
    minor_exts: list
    iterations: IterationLog
    _laws: tuple   # the final sweep's laws, read by equilibrium_laws


def _extended_problem(sys: ExtendedSystem, A_nodes, M_nodes, sigma,
                      grid, T):
    """Wrap a time-varying extended system as a single-agent problem.

    A and b are the sweep's drift arrays on the grid nodes; A is copied,
    since the sweep overwrites its drift arrays in place.  sigma, the
    extended diffusion as a MatrixTrajectory, is the same in every sweep.
    """
    return LqgProblem(
        A=MatrixTrajectory(grid, A_nodes.copy()),
        B=sys.B_own,
        b=MatrixTrajectory(grid, M_nodes),
        sigma=sigma,
        Q=sys.Q_bb, S=sys.S_bb, R=sys.R,
        eta=sys.eta_bar, zeta=sys.n_bar, Q_hat=sys.G_bb,
        delta=sys.delta, x0=sys.x0, T=T,
    )


def _average_laws(minor_laws, n: int):
    """(Xi, varsigma) of ubar = Xi (x0, xbar) + varsigma from the minor laws.

    Averaging type k's law over its agents replaces the own state by the
    type's mean-field coordinate, so the gain's own-state columns move
    onto that coordinate; the gains act on (own state, major, mean field).
    """
    Xi = np.concatenate([Kk.values[:, :, n:] for Kk, _ in minor_laws], axis=1)
    for k, (Kk, _) in enumerate(minor_laws):
        own = Kk.values[:, :, :n]
        rows = slice(own.shape[1] * k, own.shape[1] * (k + 1))
        Xi[:, rows, n * (1 + k):n * (2 + k)] += own
    vs = np.concatenate([kk.values for _, kk in minor_laws], axis=1)
    return Xi, vs


def solve_consistency(spec: MajorMinorSpec, grid: TimeGrid = None,
                      tol: float = 1e-10, max_iter: int = 50,
                      relaxation: float = 0.0, eta_hat_sign: float = -1.0,
                      callback=None) -> MfgEquilibrium:
    """Fixed-point sweep over (A_bar, G_bar, m_bar).

    Each sweep solves the major extended Riccati/offset first (the minor
    systems consume its closed-loop coefficients), then every minor type,
    then refreshes the mean-field coefficients by the averaging identity.
    The error is the sum of the sup-norms of the A_bar and G_bar changes
    over the grid.  The optional callback(j, A_bar, G_bar, m_bar, error)
    observes each sweep.
    """
    if grid is None:
        grid = TimeGrid(t_end=spec.T, steps=2000)
    n, r, K = spec.n, spec.r, spec.K
    M = grid.steps
    major_ext = assemble_major(spec)
    minor_exts = [assemble_minor(spec, k, eta_hat_sign) for k in range(K)]
    d0 = major_ext.dim
    # the mean-field rows n: of the major system: structural drift
    # [G_tilde | A_tilde] and control input B_breve
    GA_tilde, B_breve = major_ext.A_tilde[n:], major_ext.B_mean[n:]

    # extended node diffusions: the major's noise drives x0, a minor's own x
    sig0_nodes = np.zeros((M + 1, d0, r))
    sig0_nodes[:, :n] = half_grid_table(spec.major.sigma, grid)[::2]
    sigk_nodes = [np.zeros((M + 1, me.dim, 2 * r)) for me in minor_exts]
    for th, sig in zip(spec.minors, sigk_nodes):
        sig[:, :n, :r] = half_grid_table(th.sigma, grid)[::2]
        sig[:, n:, r:] = sig0_nodes
    sig0 = MatrixTrajectory(grid, sig0_nodes)
    sigk = [MatrixTrajectory(grid, sig) for sig in sigk_nodes]
    b0_nodes = half_grid_table(spec.major.b, grid)[::2]
    b_breve = np.concatenate([half_grid_table(th.b, grid)[::2]
                              for th in spec.minors], axis=1)
    # extended drifts on the nodes; each sweep writes the iterate into the
    # major's mean-field rows and the major's closed loop into each minor's
    A0_nodes = np.repeat(major_ext.A_tilde[None], M + 1, axis=0)
    Ak_nodes = [np.repeat(me.A_tilde[None], M + 1, axis=0)
                for me in minor_exts]

    # iterates on the grid: [G_bar | A_bar] and m_bar
    GA_bar = np.zeros((M + 1, n * K, d0))
    m_bar = b_breve + B_breve @ np.concatenate(
        [np.linalg.inv(me.R) @ me.n_bar for me in minor_exts])

    errors = []
    for sweep in range(1, max_iter + 1):
        # (1) major extended solve with the current mean-field coefficients
        A0_nodes[:, n:] = GA_bar
        M0_nodes = np.concatenate([b0_nodes, m_bar], axis=1)
        p0 = _extended_problem(major_ext, A0_nodes, M0_nodes, sig0, grid,
                               spec.T)
        Pi0 = solve_riccati(p0, grid)
        s0 = solve_offset(p0, Pi0, grid)

        # closed-loop major coefficients (A + B K, M + B k) consumed by
        # every minor system
        B0 = major_ext.B_own
        K0, k0 = feedback_law(p0, Pi0, s0)
        closed_A0 = A0_nodes + np.einsum("ij,tjk->tik", B0, K0.values)
        closed_M0 = M0_nodes + k0.values @ B0.T

        # (2) minor extended solves
        Piks, sks, pks = [], [], []
        for k, me in enumerate(minor_exts):
            Ak_nodes[k][:, n:, n:] = closed_A0
            Mk_nodes = np.concatenate([b_breve[:, n * k:n * (k + 1)],
                                       closed_M0], axis=1)
            pk = _extended_problem(me, Ak_nodes[k], Mk_nodes, sigk[k], grid,
                                   spec.T)
            Pik = solve_riccati(pk, grid)
            sk = solve_offset(pk, Pik, grid)
            Piks.append(Pik)
            sks.append(sk)
            pks.append(pk)

        # (3) refresh the mean field from the averaged minor laws
        minor_laws = [feedback_law(pk, Pik, sk)
                      for pk, Pik, sk in zip(pks, Piks, sks)]
        Xi, vs = _average_laws(minor_laws, n)
        GA_new = GA_tilde + B_breve @ Xi
        m_new = b_breve + vs @ B_breve.T

        if relaxation:
            GA_new = (1.0 - relaxation) * GA_new + relaxation * GA_bar
            m_new = (1.0 - relaxation) * m_new + relaxation * m_bar

        change = np.abs(GA_new - GA_bar)
        error = float(np.max(change[:, :, n:]) + np.max(change[:, :, :n]))
        errors.append(error)
        GA_bar, m_bar = GA_new, m_new
        if callback is not None:
            callback(sweep, GA_bar[:, :, n:], GA_bar[:, :, :n], m_bar, error)
        if error < tol:
            break
    else:
        raise NotConverged(len(errors), errors[-1])

    log = IterationLog(errors=errors, tolerance=tol, converged=True)
    return MfgEquilibrium(
        spec=spec, grid=grid, Pi0=Pi0, s0=s0, Pik=Piks, sk=sks,
        A_bar=MatrixTrajectory(grid, GA_bar[:, :, n:]),
        G_bar=MatrixTrajectory(grid, GA_bar[:, :, :n]),
        m_bar=MatrixTrajectory(grid, m_bar),
        major_problem=p0, minor_problems=pks,
        major_ext=major_ext, minor_exts=minor_exts,
        iterations=log, _laws=((K0, k0), minor_laws),
    )


def equilibrium_laws(eq: MfgEquilibrium):
    """Affine equilibrium laws on the extended states.

    Returns (major (K_gain, k_offset), [per-type minor (K_gain, k_offset)])
    where the major gain acts on (x0, xbar) and minor gains on
    (x, x0, xbar): the final sweep's feedback_law of each extended problem.
    """
    return eq._laws


def control_mean_field_coefficients(eq: MfgEquilibrium):
    """The affine map (Xi, varsigma) with ubar = Xi (x0, xbar) + varsigma."""
    _, minor_laws = equilibrium_laws(eq)
    return _average_laws(minor_laws, eq.spec.n)


def mean_field_trajectory(eq: MfgEquilibrium, x0_path) -> MatrixTrajectory:
    """Forward solve of dxbar = (A_bar xbar + G_bar x0 + m_bar) dt.

    x0_path is the major state trajectory (or its mean) as an array of
    node samples or a MatrixTrajectory; xbar(0) stacks the minor initial
    states.
    """
    grid = eq.grid
    if isinstance(x0_path, MatrixTrajectory):
        x0_path = x0_path.values
    x0_path = np.asarray(x0_path, dtype=float).reshape(grid.steps + 1, -1)
    forcing = (np.einsum("tij,tj->ti", eq.G_bar.half_values(),
                         half_grid_table(x0_path, grid))
               + eq.m_bar.half_values())
    xbar0 = np.concatenate([th.x0 for th in eq.spec.minors])
    return propagate_linear(eq.A_bar.half_values(), forcing, xbar0, grid)
