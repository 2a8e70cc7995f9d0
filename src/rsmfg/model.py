"""Parameter containers and standing-assumption validation.

Single-agent problems and major/minor game specifications are plain
dataclasses.  Time-dependent coefficients (drift matrix, drift offset,
diffusion) may be given as constant arrays, which the constructors wrap
as numerics.ConstantFunction, or as callables of time, such as a
numerics.MatrixTrajectory of node values, which they keep as given.
Validation checks the positivity conditions required for the feedback
solution to exist and raises AssumptionViolated naming the failed
condition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch
from .numerics import ConstantFunction

# Symmetric-part eigenvalues down to this level still count as PSD:
# congruence transforms in floating point shed tiny negative eigenvalues.
PSD_TOL = -1e-10

RISK_NEUTRAL_DELTA = 1e-8


def _as_matrix(value, rows, cols, name):
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.shape != (rows, cols):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected {(rows, cols)}")
    return a


def _as_vector(value, n, name):
    a = np.asarray(value, dtype=float).reshape(-1)
    if a.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected ({n},)")
    return a


def as_time_function(value, shape, name):
    """Normalize a constant array or callable to a callable of time.

    A callable is kept as it was given once its value at t = 0 has the
    shape, so a MatrixTrajectory's table stays readable; a constant
    becomes a ConstantFunction, a module-level class, so a problem built
    from picklable coefficients pickles.
    """
    if callable(value):
        probe = np.asarray(value(0.0), dtype=float)
        if probe.shape != shape:
            raise DimensionMismatch(
                f"{name}(t) has shape {probe.shape}, expected {shape}")
        return value
    a = np.asarray(value, dtype=float)
    if a.ndim == 0 and shape == (1, 1):
        a = a.reshape(1, 1)
    elif a.ndim == 0 and shape == (1,):
        a = a.reshape(1)
    elif a.ndim == 1 and len(shape) == 2 and shape[1] == 1:
        a = a.reshape(-1, 1)
    if a.shape != shape:
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected {shape}")
    return ConstantFunction(a)


def min_symmetric_eigenvalue(M):
    sym = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(sym)[0])


def check_psd(M, name):
    if min_symmetric_eigenvalue(M) < PSD_TOL:
        raise AssumptionViolated(f"{name} positive semidefinite")


def check_pd(M, name):
    if min_symmetric_eigenvalue(M) <= 0.0:
        raise AssumptionViolated(f"{name} positive definite")


@dataclass
class LqgProblem:
    """One agent's full parameter set.

    Dynamics dx = (A(t)x + Bu + b(t))dt + sigma(t)dw on [0, T], cost
    J(u) = E[exp(delta * Lambda_T)] with the quadratic accumulated cost
    Lambda_T built from Q, S, R, eta, zeta and terminal weight Q_hat.
    """

    A: object            # time -> (n,n), constant array allowed
    B: np.ndarray        # (n,m)
    b: object            # time -> (n,), constant allowed
    sigma: object        # time -> (n,r), constant allowed
    Q: np.ndarray        # (n,n)
    S: np.ndarray        # (n,m)
    R: np.ndarray        # (m,m)
    eta: np.ndarray      # (n,)
    zeta: np.ndarray     # (m,)
    Q_hat: np.ndarray    # (n,n)
    delta: float
    x0: np.ndarray       # (n,)
    T: float
    n: int = field(init=False)
    m: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        n = self.x0.shape[0]
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 0:
            B = B.reshape(1, 1)
        elif B.ndim == 1:
            B = B.reshape(n, -1)
        m = B.shape[1]
        self.B = _as_matrix(B, n, m, "B")
        # infer noise dimension from sigma
        sig_probe = self.sigma(0.0) if callable(self.sigma) else np.asarray(
            self.sigma, dtype=float)
        sig_probe = np.atleast_2d(np.asarray(sig_probe, dtype=float))
        if sig_probe.shape[0] != n:
            sig_probe = sig_probe.reshape(n, -1)
        r = sig_probe.shape[1]
        self.n, self.m, self.r = n, m, r
        self.A = as_time_function(self.A, (n, n), "A")
        self.b = as_time_function(self.b, (n,), "b")
        self.sigma = as_time_function(self.sigma, (n, r), "sigma")
        self.Q = _as_matrix(self.Q, n, n, "Q")
        self.S = _as_matrix(self.S, n, m, "S")
        self.R = _as_matrix(self.R, m, m, "R")
        self.eta = _as_vector(self.eta, n, "eta")
        self.zeta = _as_vector(self.zeta, m, "zeta")
        self.Q_hat = _as_matrix(self.Q_hat, n, n, "Q_hat")
        self.delta = float(self.delta)
        self.T = float(self.T)


def validate_single(p: LqgProblem) -> LqgProblem:
    """Check the single-agent standing assumptions; raise on failure."""
    if not (0.0 < p.delta < np.inf):
        raise AssumptionViolated("delta in (0,∞)")
    if not p.T > 0.0:
        raise AssumptionViolated("T positive")
    check_pd(p.R, "R")
    check_psd(p.Q_hat, "Q_hat")
    Rinv = np.linalg.inv(p.R)
    check_psd(p.Q - p.S @ Rinv @ p.S.T, "Q - S R^-1 S^T")
    for t in (0.0, 0.5 * p.T, p.T):
        for name, fn in (("A", p.A), ("b", p.b), ("sigma", p.sigma)):
            if not np.all(np.isfinite(fn(t))):
                raise AssumptionViolated(f"{name}(t) finite on [0,T]")
    return p


def risk_neutral_counterpart(p: LqgProblem,
                             epsilon: float = RISK_NEUTRAL_DELTA) -> LqgProblem:
    """Same problem with the risk loading replaced by a small epsilon."""
    if p.delta == epsilon:
        return p
    return dataclasses.replace(p, delta=epsilon)


def _normalized(agent, suffix: str, n: int, m: int, r: int):
    """Shape-check a major or minor agent's parameters in place.

    Error messages name each field with the suffix, as in Q_0 or Q_k.
    """
    shapes = dict(A=(n, n), F=(n, n), G=(n, n), B=(n, m), Q=(n, n),
                  S=(n, m), R=(m, m), Q_hat=(n, n), H=(n, n), H_hat=(n, n))
    for name, (rows, cols) in shapes.items():
        if hasattr(agent, name):
            setattr(agent, name, _as_matrix(getattr(agent, name), rows, cols,
                                            f"{name}_{suffix}"))
    agent.b = as_time_function(agent.b, (n,), f"b_{suffix}")
    agent.sigma = as_time_function(agent.sigma, (n, r), f"sigma_{suffix}")
    agent.eta = _as_vector(agent.eta, n, f"eta_{suffix}")
    agent.delta = float(agent.delta)
    agent.x0 = _as_vector(agent.x0, n, f"x0_{suffix}")
    return agent


@dataclass
class MinorTypeParams:
    """Parameters of one minor-agent subpopulation."""

    A: np.ndarray
    F: np.ndarray
    G: np.ndarray
    B: np.ndarray
    b: object
    sigma: object
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    Q_hat: np.ndarray
    H: np.ndarray
    H_hat: np.ndarray
    eta: np.ndarray
    delta: float
    x0: np.ndarray  # representative initial state for simulation

    def normalized(self, n, m, r):
        return _normalized(self, "k", n, m, r)


@dataclass
class MajorParams:
    """Parameters of the major agent."""

    A: np.ndarray
    F: np.ndarray
    B: np.ndarray
    b: object
    sigma: object
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    Q_hat: np.ndarray
    H: np.ndarray
    eta: np.ndarray
    delta: float
    x0: np.ndarray

    def normalized(self, n, m, r):
        return _normalized(self, "0", n, m, r)


@dataclass
class MajorMinorSpec:
    """Major agent plus K minor subpopulations with weight vector pi."""

    major: MajorParams
    minors: list
    pi: np.ndarray
    T: float
    n: int
    m: int
    r: int

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float).reshape(-1)
        self.T = float(self.T)
        self.major.normalized(self.n, self.m, self.r)
        for th in self.minors:
            th.normalized(self.n, self.m, self.r)

    @property
    def K(self) -> int:
        return len(self.minors)


def validate_game(g: MajorMinorSpec) -> MajorMinorSpec:
    """Check major/minor assumptions and the weight simplex."""
    if len(g.pi) != g.K:
        raise AssumptionViolated("pi length equals K")
    if np.any(g.pi < 0.0):
        raise AssumptionViolated("pi nonnegative")
    if abs(float(np.sum(g.pi)) - 1.0) > 1e-12:
        raise AssumptionViolated("pi sums to 1")
    if not g.T > 0.0:
        raise AssumptionViolated("T positive")

    maj = g.major
    if not (0.0 < maj.delta < np.inf):
        raise AssumptionViolated("delta_0 in (0,∞)")
    check_pd(maj.R, "R_0")
    check_psd(maj.Q_hat, "Q_hat_0")
    check_psd(maj.Q - maj.S @ np.linalg.inv(maj.R) @ maj.S.T,
              "Q_0 - S_0 R_0^-1 S_0^T")

    for k, th in enumerate(g.minors):
        if not (0.0 < th.delta < np.inf):
            raise AssumptionViolated("delta in (0,∞)")
        check_pd(th.R, f"R_{k + 1}")
        check_psd(th.Q_hat, f"Q_hat_{k + 1}")
        check_psd(th.Q - th.S @ np.linalg.inv(th.R) @ th.S.T,
                  f"Q_{k + 1} - S R^-1 S^T")
    return g


@dataclass
class ExtendedSystem:
    """Stacked (agent + major + mean field) system for one player.

    For the major agent the extended state is (x0, xbar) with dimension
    n(1+K); for a minor agent it is (x, x0, xbar) with dimension n(2+K).
    The quadratic cost blocks are congruence transforms of the original
    tracking costs and therefore symmetric PSD by construction.
    """

    dim: int
    A_tilde: np.ndarray        # structural drift; the sweep copies it to
                               # the nodes, then writes in the iterate
                               # (major) or the major's loop (minor)
    B_own: np.ndarray          # own control input, (dim, m)
    B_major: np.ndarray        # major's control input (minor only) or None
    B_mean: np.ndarray         # mean-field control input; its mean-
                               # field rows are the refresh's B_breve
    Q_bb: np.ndarray           # running state weight
    S_bb: np.ndarray           # running cross weight, (dim, m)
    G_bb: np.ndarray           # terminal state weight
    eta_bar: np.ndarray        # running linear state term
    n_bar: np.ndarray          # running linear control term
    R: np.ndarray
    delta: float
    x0: np.ndarray


def scalar_problem(A=0.0, B=1.0, b=0.0, sigma=1.0, Q=1.0, S=0.0, R=1.0,
                   eta=0.0, zeta=0.0, Q_hat=0.0, delta=0.5, x0=1.0, T=1.0):
    """Convenience constructor for one-dimensional problems."""
    return LqgProblem(
        A=np.array([[A]]) if not callable(A) else A,
        B=np.array([[B]]),
        b=np.array([b]) if not callable(b) else b,
        sigma=np.array([[sigma]]) if not callable(sigma) else sigma,
        Q=np.array([[Q]]), S=np.array([[S]]), R=np.array([[R]]),
        eta=np.array([eta]), zeta=np.array([zeta]),
        Q_hat=np.array([[Q_hat]]), delta=delta,
        x0=np.array([x0]), T=T,
    )
