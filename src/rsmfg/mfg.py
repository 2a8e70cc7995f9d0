"""Major-minor mean-field equilibrium via the consistency fixed point.

The infinite-population game reduces to two families of single-agent
risk-sensitive problems on extended states: the major agent sees
(x0, xbar), a representative minor agent of type k sees (x, x0, xbar).
The mean-field drift coefficients Abar(t), Gbar(t), mbar(t) both feed
those extended problems and are recomputed from their solutions, so the
equilibrium is the fixed point of a sweep: solve the major's Riccati and
offset, then each minor type's, then refresh the coefficients.
agent_problem builds each agent's problem as an LqgProblem, on its own
state, x0 and the type averages, with the others playing given laws, for
the limit or for a finite population; its cost is one congruence of the
agent's tracking cost.  The sweep starts from the limit problems with the
others uncontrolled, writes the iterate into the major's mean-field rows
of A and b and the major's closed loop into each minor's, and solves them
with the single-agent riccati module, which reads these node tables at
the RK4 midpoints by cubics, so the fixed point is fourth order in the
step; the sweep's problems keep the templates' sigma, so riccati forms
sigma sigma^T once per fixed point, not once per sweep.  The refresh is
the averaging identity [Gbar | Abar] = [G~ | A~] + B_breve Xi, mbar =
b_breve + B_breve varsigma, with (Xi, varsigma) the minor laws averaged
within each type.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, NotConverged
from .model import LqgProblem, MajorMinorSpec
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


def agent_problem(spec: MajorMinorSpec, grid: TimeGrid, k: int = None,
                  counts=None, laws=None):
    """(p, E): the major's (k None) or a type-k minor's problem, the others
    playing laws.

    p is an LqgProblem on z = (x0, xbar_1..xbar_K) for the major and z =
    (x, x0, xbar_1..xbar_K) for a minor, xbar_l the average of the other
    type-l minors; with counts None (the mean-field limit) it covers all of
    them, weighted by pi, without noise, else counts[l] - [l == k] of them,
    with noise sigma_l / sqrt of that count.  laws is equilibrium_laws'
    pair; None leaves the others uncontrolled, the structural drift.  The
    costs are the congruence Tz'(.)Tz of the agent's tracking cost, Tz z
    its residual before eta, so the weights are symmetric PSD by
    construction.  E maps z to the extended state (x0, xhat) or (x, x0,
    xhat) that the agent's own laws read, xhat the per-type averages.
    """
    n, K, r, maj = spec.n, spec.K, spec.r, spec.major
    minor = k is not None
    a = spec.minors[k] if minor else maj
    o = n if minor else 0   # x0's first row in z
    I = np.eye(o + n * (1 + K))
    rows = [slice(o + n * j, o + n * (1 + j)) for j in range(1 + K)]
    x0, xbar = I[rows[0]], [I[s] for s in rows[1:]]
    xhat = list(xbar)
    if counts is None:
        xN = sum(w * xb for w, xb in zip(spec.pi, xbar))
        others = [0] * K   # no noise on the averages
    else:
        others = np.asarray(counts) - (np.arange(K) == k)
        xN = sum(c * xb for c, xb in zip(others, xbar)) / sum(counts)
        if minor:
            xN = xN + I[:n] / sum(counts)
            xhat[k] = (others[k] * xbar[k] + I[:n]) / counts[k]
    ext0 = np.vstack([x0] + xhat)
    law0, minor_laws = (None, [None] * K) if laws is None else laws
    # (parameters, rows in z, law, the state it reads as a map of z, and
    # the number of agents its rows average, 0 for no noise)
    blocks = [(a, slice(0, n), None, None, 1)]
    if minor:
        blocks.append((maj, rows[0], law0, ext0, 1))
    blocks += [(th, s, law, np.vstack([I[s], ext0]), c) for th, s, law, c
               in zip(spec.minors, rows[1:], minor_laws, others)]
    A = np.empty((grid.steps + 1,) + I.shape)
    b = np.empty(A.shape[:2])
    for p, s, law, ext, _ in blocks:
        A[:, s] = p.A @ I[s] + p.F @ xN + (p.G @ x0 if p is not maj else 0.0)
        b[:, s] = half_grid_table(p.b, grid)[::2]
        if law is not None:
            A[:, s] += p.B @ (law[0].values @ ext)
            b[:, s] += law[1].values @ p.B.T
    noisy = [(s, p.sigma, c) for p, s, _, _, c in blocks if c]
    sigma = np.zeros(A.shape[:2] + (r * len(noisy),))
    for j, (s, sig, c) in enumerate(noisy):
        sigma[:, s, r * j:r * (j + 1)] = (half_grid_table(sig, grid)[::2]
                                          / np.sqrt(c))
    Tz = I[:n] - (a.H @ x0 + a.H_hat @ xN if minor else a.H @ xN)
    return LqgProblem(
        A=MatrixTrajectory(grid, A),
        B=np.vstack([a.B, np.zeros((len(I) - n, spec.m))]),
        b=MatrixTrajectory(grid, b), sigma=MatrixTrajectory(grid, sigma),
        Q=Tz.T @ a.Q @ Tz, S=Tz.T @ a.S, R=a.R,
        eta=Tz.T @ (a.Q @ a.eta), zeta=a.S.T @ a.eta,
        Q_hat=Tz.T @ a.Q_hat @ Tz, q_hat=-Tz.T @ (a.Q_hat @ a.eta),
        delta=a.delta, T=spec.T,
        x0=np.concatenate([p.x0 for p, *_ in blocks]),
    ), (np.vstack([I[:n], ext0]) if minor else ext0)


@dataclass
class IterationLog:
    """Per-sweep sup-norm errors of the coefficient update."""

    errors: list

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
    iterations: IterationLog
    _laws: tuple   # the final sweep's laws, read by equilibrium_laws


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
                      relaxation: float = 0.0, callback=None) -> MfgEquilibrium:
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
    n, K = spec.n, spec.K
    M = grid.steps
    major, _ = agent_problem(spec, grid)
    minors = [agent_problem(spec, grid, k)[0] for k in range(K)]
    d0 = major.n
    # the mean-field rows n: of the major's structural drift, [G~ | A~],
    # copied before the sweeps overwrite them, and of its mean-field
    # control input, B_breve
    GA_struct = major.A.values[0, n:].copy()
    B_breve = assemble_mean_field(spec.minors, spec.pi)[2]
    b0_nodes, b_breve = major.b.values[:, :n], major.b.values[:, n:]
    # the templates' drift tables: each sweep writes the iterate into the
    # major's mean-field rows and the major's closed loop into each
    # minor's.  A sweep's problems copy A, since the next sweep overwrites
    # it, and keep the templates' sigma.
    A0_nodes = major.A.values
    Ak_nodes = [p.A.values for p in minors]

    # iterates on the grid: [G_bar | A_bar] and m_bar
    GA_bar = np.zeros((M + 1, n * K, d0))
    m_bar = b_breve + B_breve @ np.concatenate(
        [np.linalg.inv(p.R) @ p.zeta for p in minors])

    errors = []
    for sweep in range(1, max_iter + 1):
        # (1) major extended solve with the current mean-field coefficients
        A0_nodes[:, n:] = GA_bar
        M0_nodes = np.concatenate([b0_nodes, m_bar], axis=1)
        p0 = replace(major, A=MatrixTrajectory(grid, A0_nodes.copy()),
                     b=MatrixTrajectory(grid, M0_nodes))
        Pi0 = solve_riccati(p0, grid)
        s0 = solve_offset(p0, Pi0, grid)

        # closed-loop major coefficients (A + B K, M + B k) consumed by
        # every minor system
        K0, k0 = feedback_law(p0, Pi0, s0)
        closed_A0 = A0_nodes + np.einsum("ij,tjk->tik", major.B, K0.values)
        closed_M0 = M0_nodes + k0.values @ major.B.T

        # (2) minor extended solves
        Piks, sks, pks = [], [], []
        for k, p in enumerate(minors):
            Ak_nodes[k][:, n:, n:] = closed_A0
            Mk_nodes = np.concatenate([b_breve[:, n * k:n * (k + 1)],
                                       closed_M0], axis=1)
            pk = replace(p, A=MatrixTrajectory(grid, Ak_nodes[k].copy()),
                         b=MatrixTrajectory(grid, Mk_nodes))
            Pik = solve_riccati(pk, grid)
            sk = solve_offset(pk, Pik, grid)
            Piks.append(Pik)
            sks.append(sk)
            pks.append(pk)

        # (3) refresh the mean field from the averaged minor laws
        minor_laws = [feedback_law(pk, Pik, sk)
                      for pk, Pik, sk in zip(pks, Piks, sks)]
        Xi, vs = _average_laws(minor_laws, n)
        GA_new = GA_struct + B_breve @ Xi
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

    return MfgEquilibrium(
        spec=spec, grid=grid, Pi0=Pi0, s0=s0, Pik=Piks, sk=sks,
        A_bar=MatrixTrajectory(grid, GA_bar[:, :, n:]),
        G_bar=MatrixTrajectory(grid, GA_bar[:, :, :n]),
        m_bar=MatrixTrajectory(grid, m_bar),
        major_problem=p0, minor_problems=pks,
        iterations=IterationLog(errors), _laws=((K0, k0), minor_laws),
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
    node samples or a MatrixTrajectory of states on eq.grid, read like
    every other table; xbar(0) stacks the minor initial states.
    """
    grid = eq.grid
    if not isinstance(x0_path, MatrixTrajectory):
        x0_path = MatrixTrajectory(
            grid, np.reshape(x0_path, (grid.steps + 1, -1)))
    forcing = (np.einsum("tij,tj->ti", eq.G_bar.half_values(),
                         half_grid_table(x0_path, grid))
               + eq.m_bar.half_values())
    xbar0 = np.concatenate([th.x0 for th in eq.spec.minors])
    return propagate_linear(eq.A_bar.half_values(), forcing, xbar0, grid)
