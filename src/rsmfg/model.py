"""Parameter containers and standing-assumption validation.

Single-agent problems and major/minor game specifications are plain
dataclasses.  A time-dependent coefficient (drift matrix, drift offset,
diffusion) is a constant array or a numerics.MatrixTrajectory of node
values, which numerics.half_grid_table reads at the RK4 midpoints by
cubics; anything else, a callable among them, raises DimensionMismatch
naming the field.
A game's single-agent problems are LqgProblems as well, built by
mfg.agent_problem.
Validation checks the positivity conditions required for the feedback
solution to exist and raises AssumptionViolated naming the failed
condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch
from .numerics import MatrixTrajectory

# Symmetric-part eigenvalues down to this level still count as PSD:
# congruence transforms in floating point shed tiny negative eigenvalues.
PSD_TOL = -1e-10


def _array(value, name):
    """value as a float array; anything else, a callable among them,
    raises DimensionMismatch naming the field."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{name} must be an array of numbers, not "
                                f"{type(value).__name__}") from None


def _as_matrix(value, rows, cols, name):
    a = _array(value, name)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.shape != (rows, cols):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected {(rows, cols)}")
    return a


def _as_vector(value, n, name):
    a = _array(value, name).reshape(-1)
    if a.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected ({n},)")
    return a


def _as_coefficient(value, shape, name):
    """A time-dependent coefficient: a MatrixTrajectory of node values
    whose entries have the shape, kept as given, or else a constant array,
    normalized as _as_matrix or _as_vector do."""
    if not isinstance(value, MatrixTrajectory):
        return (_as_matrix(value, *shape, name) if len(shape) == 2
                else _as_vector(value, *shape, name))
    if value.shape != shape:
        raise DimensionMismatch(f"{name} has entries of shape {value.shape}, "
                                f"expected {shape}")
    return value


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
    Lambda_T built from Q, S, R, eta, zeta and the terminal cost
    0.5 x'Q_hat x + q_hat'x; a scalar q_hat fills every component.
    """

    A: object            # (n,n), constant or MatrixTrajectory
    B: np.ndarray        # (n,m)
    b: object            # (n,), constant or MatrixTrajectory
    sigma: object        # (n,r), constant or MatrixTrajectory
    Q: np.ndarray        # (n,n)
    S: np.ndarray        # (n,m)
    R: np.ndarray        # (m,m)
    eta: np.ndarray      # (n,)
    zeta: np.ndarray     # (m,)
    Q_hat: np.ndarray    # (n,n)
    delta: float
    x0: np.ndarray       # (n,)
    T: float
    q_hat: object = 0.0  # (n,)
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
        # the noise dimension is sigma's trailing one
        sig = (self.sigma if isinstance(self.sigma, MatrixTrajectory)
               else _array(self.sigma, "sigma"))
        r = sig.shape[-1] if len(sig.shape) == 2 else 1
        self.n, self.m, self.r = n, m, r
        self.A = _as_coefficient(self.A, (n, n), "A")
        self.b = _as_coefficient(self.b, (n,), "b")
        self.sigma = _as_coefficient(self.sigma, (n, r), "sigma")
        self.Q = _as_matrix(self.Q, n, n, "Q")
        self.S = _as_matrix(self.S, n, m, "S")
        self.R = _as_matrix(self.R, m, m, "R")
        self.eta = _as_vector(self.eta, n, "eta")
        self.zeta = _as_vector(self.zeta, m, "zeta")
        self.Q_hat = _as_matrix(self.Q_hat, n, n, "Q_hat")
        q_hat = np.asarray(self.q_hat, dtype=float)
        self.q_hat = _as_vector(np.full(n, float(q_hat)) if q_hat.ndim == 0
                                else q_hat, n, "q_hat")
        self.delta = float(self.delta)
        self.T = float(self.T)


def _check_agent(a, suffix: str = ""):
    """delta in (0,∞), R > 0, Q_hat >= 0 and Q - S R^-1 S^T >= 0.

    Messages name each weight with the suffix, as in R_0 or delta_1.
    """
    if not (0.0 < a.delta < np.inf):
        raise AssumptionViolated(f"delta{suffix} in (0,∞)")
    check_pd(a.R, f"R{suffix}")
    check_psd(a.Q_hat, f"Q_hat{suffix}")
    check_psd(a.Q - a.S @ np.linalg.inv(a.R) @ a.S.T,
              f"Q{suffix} - S{suffix} R{suffix}^-1 S{suffix}^T")


def validate_single(p: LqgProblem) -> LqgProblem:
    """Check the single-agent standing assumptions; raise on failure."""
    _check_agent(p)
    if not p.T > 0.0:
        raise AssumptionViolated("T positive")
    # a MatrixTrajectory is finite by construction
    for name in ("A", "b", "sigma"):
        value = getattr(p, name)
        if not (isinstance(value, MatrixTrajectory)
                or np.all(np.isfinite(value))):
            raise AssumptionViolated(f"{name}(t) finite on [0,T]")
    return p


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
    agent.b = _as_coefficient(agent.b, (n,), f"b_{suffix}")
    agent.sigma = _as_coefficient(agent.sigma, (n, r), f"sigma_{suffix}")
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
        _normalized(self.major, "0", self.n, self.m, self.r)
        for th in self.minors:
            _normalized(th, "k", self.n, self.m, self.r)

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
    _check_agent(g.major, "_0")
    for k, th in enumerate(g.minors):
        _check_agent(th, f"_{k + 1}")
    return g


def scalar_problem(A=0.0, B=1.0, b=0.0, sigma=1.0, Q=1.0, S=0.0, R=1.0,
                   eta=0.0, zeta=0.0, Q_hat=0.0, delta=0.5, x0=1.0, T=1.0):
    """Convenience constructor for one-dimensional problems."""
    return LqgProblem(A=A, B=B, b=b, sigma=sigma, Q=Q, S=S, R=R, eta=eta,
                      zeta=zeta, Q_hat=Q_hat, delta=delta, x0=x0, T=T)
