"""Fixed-step matrix ODE integration and grid utilities.

Everything here is deterministic, allocation-light, and operates on a
uniform time grid.  The classical 4th-order Runge-Kutta scheme evaluates
vector fields only at grid nodes and midpoints, so every coefficient, a
constant array or a MatrixTrajectory of node values, is tabulated once
on the half-grid by half_grid_table: node values are its even entries,
and a table's midpoints come from cubics through the nearest nodes, so
the reading keeps RK4's fourth order.  _step_maps builds the affine RK4
step maps of a linear ODE for all steps at once, and _scan applies them
in blocks of steps: batched products within every block, a sequential
pass over the block starts only, and one batched fill of every node; it
reads the maps and writes the nodes through slices in sweep order.
propagate_linear and the Riccati solve both go through _scan;
integrate_ode, RK4 on a general vector field, serves only as the tests'
reference for them.  The path and population engines read coefficients
at the nodes only, hold states as columns and multiply through _mm,
coefficient matrix on the left, whose rounding does not depend on how
many columns are stacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import NonFiniteState

# Entries past this are a linear propagation's or a path's finite escape.
BLOWUP_BOUND = 1e8


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with `steps` intervals."""

    t_end: float
    steps: int
    t_start: float = 0.0

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("grid needs at least 2 steps")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps + 1)

    @property
    def half_nodes(self) -> np.ndarray:
        """All RK4 evaluation times: nodes plus interval midpoints."""
        return np.linspace(self.t_start, self.t_end, 2 * self.steps + 1)


@dataclass
class MatrixTrajectory:
    """Node-sampled matrix- or vector-valued function of time.

    Read at the RK4 midpoints by half_grid_table's cubic stencil.
    """

    grid: TimeGrid
    values: np.ndarray  # shape (steps+1, ...) one entry per node

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.steps + 1:
            raise ValueError("values length must equal steps+1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trajectory contains non-finite entries")

    @property
    def shape(self) -> tuple:
        return self.values.shape[1:]

    def half_values(self) -> np.ndarray:
        """Values on the half-grid, by half_grid_table."""
        return half_grid_table(self, self.grid)


def half_grid_table(coef, grid: TimeGrid) -> np.ndarray:
    """Values of a coefficient on grid.half_nodes, every RK4 evaluation time.

    A MatrixTrajectory on the same grid keeps its nodes, and each midpoint
    takes the cubic through its four nearest nodes, (9 (v_i + v_i+1) -
    v_i-1 - v_i+2) / 16, the end midpoints the one-sided (5 v_0 + 15 v_1 -
    5 v_2 + v_3) / 16; on two steps, the quadratic through the three
    nodes.  The error is O(h^4), as for the RK4 solve that reads it.  A
    MatrixTrajectory on another grid raises ValueError.  Anything else is
    a constant, repeated into a fresh array.
    """
    if not isinstance(coef, MatrixTrajectory):
        value = np.asarray(coef, dtype=float)
        return np.repeat(value[None], 2 * grid.steps + 1, axis=0)
    if coef.grid != grid:
        raise ValueError("trajectory is sampled on another grid")
    v = coef.values
    out = np.empty((2 * len(v) - 1,) + v.shape[1:])
    out[0::2] = v
    if len(v) == 3:
        out[1] = (3.0 * v[0] + 6.0 * v[1] - v[2]) / 8.0
        out[3] = (3.0 * v[2] + 6.0 * v[1] - v[0]) / 8.0
        return out
    out[3:-3:2] = (9.0 * (v[1:-2] + v[2:-1]) - v[:-3] - v[3:]) / 16.0
    out[1] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
    out[-2] = (5.0 * v[-1] + 15.0 * v[-2] - 5.0 * v[-3] + v[-4]) / 16.0
    return out


def _mm(a, b, out=None):
    """a @ b over the last two axes, as elementwise multiply-adds.

    The engines pass a small coefficient matrix a and column states b of
    shape (dim, columns), so numpy's inner loop runs over all columns;
    leading axes of a and b broadcast.  Each entry is summed in the same
    order whatever the number of columns, unlike a BLAS product, so path
    and population runs do not depend on the block or chunk size or on
    how many laws are advanced together.
    """
    prod = np.multiply(a[..., :1], b[..., 0, :], out=out)
    for i in range(1, b.shape[-2]):
        prod += a[..., i:i + 1] * b[..., i, :]
    return prod


def _dot(x, y):
    """Sum of x[j] * y[j] over the first axis, in index order."""
    total = x[0] * y[0]
    for j in range(1, len(x)):
        total += x[j] * y[j]
    return total


def _check_state(y: np.ndarray, t: float) -> None:
    # a NaN fails the comparison as well
    if not np.abs(y).max() <= BLOWUP_BOUND:
        raise NonFiniteState(t)


def _sweep(grid: TimeGrid, direction: str):
    """(signed step, boundary node, step order, landing offset).

    Step i joins nodes i and i+1: forward it lands on node i+1, backward
    on node i.
    """
    M = grid.steps
    if direction == "forward":
        return grid.h, 0, range(M), 1
    if direction == "backward":
        return -grid.h, M, range(M - 1, -1, -1), 0
    raise ValueError("direction must be 'forward' or 'backward'")


def _as_slice(steps: range, offset: int = 0) -> slice:
    """The slice that indexes the same entries as steps shifted by offset."""
    stop = steps.stop + offset
    return slice(steps.start + offset, stop if stop >= 0 else None,
                 steps.step)


def integrate_ode(vector_field, boundary_value, grid: TimeGrid,
                  direction: str = "forward",
                  indexed: bool = False) -> MatrixTrajectory:
    """Classical RK4 over the grid.

    `direction="forward"` places the boundary value at t=t_start;
    `"backward"` places it at t=t_end and integrates by time reversal.
    With `indexed=True` the field is called with the index j of the
    evaluation time in grid.half_nodes instead of the time itself, so it
    can read coefficients tabulated by half_grid_table directly.
    Raises NonFiniteState on blow-up.
    """
    h, first, order, lands = _sweep(grid, direction)
    y = np.asarray(boundary_value, dtype=float)
    nodes = grid.nodes
    values = np.empty((grid.steps + 1,) + y.shape)
    values[first] = y
    _check_state(y, nodes[first])
    for i in order:
        start = i + 1 - lands
        if indexed:
            t, t_mid, t_next = 2 * start, 2 * i + 1, 2 * (i + lands)
        else:
            t = nodes[start]
            t_mid, t_next = t + h / 2.0, t + h
        k1 = vector_field(t, y)
        k2 = vector_field(t_mid, y + (h / 2.0) * k1)
        k3 = vector_field(t_mid, y + (h / 2.0) * k2)
        k4 = vector_field(t_next, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_state(y, nodes[i + lands])
        values[i + lands] = y
    return MatrixTrajectory(grid, values)


def _step_maps(F, grid: TimeGrid, direction: str, f=None):
    """RK4 step maps (Phi, phi) of y' = F(t) y + f(t) for all M steps.

    F (2M+1, d, d) and f (2M+1, d, c) or None are tabulated on the
    half-grid; step i, numbered as in _sweep, maps y to Phi[i] y + phi[i].
    """
    h, _, _, lands = _sweep(grid, direction)
    # coefficients where each step starts, at its midpoint, where it lands
    a, c, b = ((slice(0, -1, 2), slice(1, None, 2), slice(2, None, 2))
               if lands else
               (slice(2, None, 2), slice(1, None, 2), slice(0, -1, 2)))
    # RK4 on the augmented [F | f], f as columns, gives [Phi - I | phi]
    F = np.asarray(F, dtype=float)
    G = F if f is None else np.concatenate([F, f], axis=2)
    # the sums are written in place, in the order of (h / 6) (G[a] + 2 k2
    # + 2 k3 + k4) with k2 = G[c] + (h / 2) F[c] G[a], and so on
    k2 = F[c] @ G[a]
    k2 *= h / 2.0
    k2 += G[c]
    k3 = F[c] @ k2
    k3 *= h / 2.0
    k3 += G[c]
    k4 = F[b] @ k3
    k4 *= h
    k4 += G[b]
    incr = k2
    incr *= 2.0
    incr += G[a]
    k3 *= 2.0
    incr += k3
    incr += k4
    incr *= h / 6.0
    d = F.shape[1]
    return np.eye(d) + incr[:, :, :d], incr[:, :, d:]


def _max_row_sum(a) -> float:
    """Largest infinity norm over a stack of matrices."""
    return float(np.abs(a).sum(axis=-1).max())


def _block_length(M: int, h: float, rho: float) -> int:
    """Steps b per block of _scan: b <= sqrt(M) and h*rho*b <= 1.

    rho bounds the growth rate of the linear system, so the maps across
    one block grow by at most e, which bounds the rounding their products
    lose (Davison & Maki 1973).  A stiff system gets b = 1.
    """
    b = isqrt(M)
    if h * rho * b > 1.0:
        b = max(1, int(1.0 / (h * rho)))
    return b


def _scan(Phi, boundary, node, rho, grid: TimeGrid, direction: str):
    """Node values of a recurrence over step maps, in blocks of steps.

    Phi (M, D, D) holds _step_maps' maps, numbered as in _sweep.  node(P,
    v) gives (value, ok) at the node that the product P of consecutive
    step maps reaches from a node of value v; both are stacked over any
    leading axes.  The steps are split, in sweep order, into blocks of
    _block_length(M, h, rho) steps.  Batched products give each block's
    maps up to every step, a loop over the blocks gives the value at each
    block start, stopping at the first block end that is not ok, and one
    batched node call fills every node up to there.

    Returns the values on all nodes, the boundary value at the boundary
    node, and the first node in sweep order that is not ok (None if all
    are), by the batched call or else the block end where the loop
    stopped; nodes past that one hold no meaningful value.
    """
    h, first, order, lands = _sweep(grid, direction)
    M, D = Phi.shape[0], Phi.shape[-1]
    b = _block_length(M, abs(h), rho)
    blocks = -(-M // b)
    # P[j, k] starts as the k-th step map of block j; identities pad the
    # last block
    P = np.empty((blocks * b, D, D))
    P[:M] = Phi[_as_slice(order)]
    P[M:] = np.eye(D)
    P = P.reshape(blocks, b, D, D)
    with np.errstate(all="ignore"):
        for k in range(1, b):
            P[:, k] = P[:, k] @ P[:, k - 1]
        starts = [boundary]
        stopped = False
        for j in range(blocks - 1):
            v, ok = node(P[j, -1], starts[-1])
            if not ok:
                stopped = True
                break
            starts.append(v)
        v, ok = node(P[:len(starts)], np.stack(starts)[:, None])
    filled = order[:min(M, len(starts) * b)]
    values = np.empty((M + 1,) + np.shape(boundary))
    values[first] = boundary
    values[_as_slice(filled, lands)] = v.reshape((-1,) + v.shape[2:])[
        :len(filled)]
    bad = np.flatnonzero(~ok.reshape(-1)[:len(filled)])
    if stopped:
        # the block end where the pass stopped is the last filled node; it
        # is not ok even if the batched call, rounding otherwise, finds it so
        bad = np.append(bad, len(filled) - 1)
    return values, (filled[bad[0]] + lands if bad.size else None)


def propagate_linear(F, f, boundary_value, grid: TimeGrid,
                     direction: str = "forward") -> MatrixTrajectory:
    """Classical RK4 for y' = F(t) y + f(t), applying _step_maps' maps.

    F (2M+1, d, d) and f (2M+1,) + y.shape are tabulated on the half-grid;
    y is a vector (d,) or a matrix (d, c).  The affine maps y -> Phi y +
    phi, written as [[Phi, phi], [0, I]] on [y; I], go through _scan with
    rho = max_t |F(t)|_inf.  Directions and blow-up are integrate_ode's:
    NonFiniteState at the first node past BLOWUP_BOUND.
    """
    y = np.asarray(boundary_value, dtype=float)
    _check_state(y, grid.nodes[_sweep(grid, direction)[1]])
    Y = y.reshape(len(y), -1)
    d, c = Y.shape
    Phi, phi = _step_maps(F, grid, direction,
                          np.reshape(f, np.shape(F)[:2] + (c,)))
    maps = np.zeros((grid.steps, d + c, d + c))
    maps[:, :d, :d], maps[:, :d, d:] = Phi, phi
    maps[:, d:, d:] = np.eye(c)

    def node(P, v):
        v = P[..., :d, :d] @ v + P[..., :d, d:]
        # a NaN fails the comparison as well
        return v, np.abs(v).max(axis=(-2, -1)) <= BLOWUP_BOUND

    values, bad = _scan(maps, Y, node, _max_row_sum(F), grid, direction)
    if bad is not None:
        raise NonFiniteState(grid.nodes[bad])
    return MatrixTrajectory(grid, values.reshape((-1,) + y.shape))


def state_transition(A, grid: TimeGrid):
    """Fundamental matrix and its inverse for dY = A(t) Y dt.

    A is a constant array or a MatrixTrajectory on grid.  Returns
    (Upsilon, Upsilon_inv) with Upsilon(0)=I, solving d/dt Upsilon = A
    Upsilon and d/dt Upsilon^{-1} = -Upsilon^{-1} A; the latter is
    propagated as its transpose, whose field is -A^T.
    """
    A_h = half_grid_table(A, grid)
    eye, zero = np.eye(A_h.shape[1]), np.zeros_like(A_h)
    ups = propagate_linear(A_h, zero, eye, grid)
    inv_T = propagate_linear(-np.swapaxes(A_h, 1, 2), zero, eye, grid)
    return ups, MatrixTrajectory(grid, np.swapaxes(inv_T.values, 1, 2))
