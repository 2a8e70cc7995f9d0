"""Tests for the fixed-step ODE integrators and grid utilities."""

import math
import warnings

import numpy as np
import pytest
from conftest import on_grid

from rsmfg import numerics
from rsmfg.errors import NonFiniteState
from rsmfg.numerics import (
    MatrixTrajectory,
    TimeGrid,
    _block_length,
    half_grid_table,
    integrate_ode,
    propagate_linear,
    state_transition,
)


class TestTimeGrid:
    def test_nodes_span_interval(self):
        g = TimeGrid(t_end=2.0, steps=4)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.0
        assert np.allclose(np.diff(g.nodes), g.h)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, steps=1)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=0.0, steps=10)


class TestIntegrate:
    def test_zero_field_constant(self):
        g = TimeGrid(t_end=1.0, steps=50)
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        traj = integrate_ode(lambda t, y: np.zeros_like(y), C, g)
        assert np.array_equal(traj.values[0], C)
        assert np.all(traj.values == C)

    def test_scalar_exponential(self):
        g = TimeGrid(t_end=1.0, steps=1000)
        traj = integrate_ode(lambda t, y: y, np.array([1.0]), g)
        assert abs(traj.values[-1][0] - math.e) < 1e-9

    def test_backward_tanh(self):
        # pi' = pi^2 - 1 backward from pi(1)=0 has solution tanh(1-t)
        g = TimeGrid(t_end=1.0, steps=1000)
        traj = integrate_ode(lambda t, y: y * y - 1.0, np.array([0.0]), g,
                             direction="backward")
        assert abs(traj.values[0][0] - math.tanh(1.0)) < 1e-8
        assert traj.values[-1][0] == 0.0

    def test_boundary_exact(self):
        g = TimeGrid(t_end=1.0, steps=10)
        b = np.array([2.5])
        fwd = integrate_ode(lambda t, y: -y, b, g, "forward")
        bwd = integrate_ode(lambda t, y: -y, b, g, "backward")
        assert fwd.values[0][0] == 2.5
        assert bwd.values[-1][0] == 2.5

    def test_rk4_order(self):
        # halving h should shrink the max error by a factor >= 12
        def field(t, y):
            return np.cos(t) * y

        exact = np.exp(np.sin(1.0))
        errs = []
        for M in (20, 40):
            g = TimeGrid(t_end=1.0, steps=M)
            traj = integrate_ode(field, np.array([1.0]), g)
            errs.append(abs(traj.values[-1][0] - exact))
        assert errs[0] / errs[1] >= 12.0

    def test_backward_then_forward_roundtrip(self):
        g = TimeGrid(t_end=1.0, steps=200)

        def field(t, y):
            return np.sin(t) - 0.5 * y

        bwd = integrate_ode(field, np.array([1.0]), g, "backward")
        fwd = integrate_ode(field, bwd.values[0], g, "forward")
        assert abs(fwd.values[-1][0] - 1.0) < 10.0 * g.h ** 4

    def test_blowup_detected(self):
        g = TimeGrid(t_end=5.0, steps=100)
        with pytest.raises(NonFiniteState) as exc:
            integrate_ode(lambda t, y: y * y, np.array([2.0]), g)
        assert 0.0 < exc.value.t <= 5.0

    def test_indexed_field_matches_timed_field(self):
        # a field reading a half-grid table by index integrates exactly
        # as the same field evaluated at the times themselves
        g = TimeGrid(t_end=1.0, steps=50)
        coef = np.cos(3.0 * g.half_nodes)
        for direction in ("forward", "backward"):
            timed = integrate_ode(lambda t, y: -np.cos(3.0 * t) * y,
                                  np.array([1.0]), g, direction)
            indexed = integrate_ode(lambda j, y: -coef[j] * y,
                                    np.array([1.0]), g, direction,
                                    indexed=True)
            assert np.max(np.abs(timed.values - indexed.values)) < 1e-14


class TestPropagateLinear:
    """The affine-map RK4 for y' = F y + f against the general stepper."""

    @staticmethod
    def _field(d):
        """F(t) and f(t), for a time t or an array of times, such as the
        half-nodes, where they give propagate_linear's tables."""
        rng = np.random.default_rng(3)
        A0, A1 = 0.5 * rng.standard_normal((2, d, d))

        def F(t):
            return A0 + np.sin(3.0 * t)[..., None, None] * A1

        def f(t):
            return np.cos(2.0 * t)[..., None] * np.arange(1.0, d + 1.0)

        return F, f

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("columns", [None, 2])
    def test_matches_integrate_ode(self, direction, columns):
        g = TimeGrid(t_end=1.0, steps=200)
        d = 3
        F, f = self._field(d)
        if columns is None:
            y0 = np.array([1.0, -0.5, 0.2])
            forcing = f
        else:
            y0 = np.arange(d * columns, dtype=float).reshape(d, columns)
            weights = np.arange(1.0, columns + 1.0)

            def forcing(t):
                return f(t)[..., None] * weights

        prop = propagate_linear(F(g.half_nodes), forcing(g.half_nodes), y0,
                                g, direction)
        ref = integrate_ode(lambda t, y: F(t) @ y + forcing(t), y0, g,
                            direction)
        assert prop.values.shape == ref.values.shape
        assert np.max(np.abs(prop.values - ref.values)) <= 1e-13

    @pytest.mark.parametrize("direction,rate", [("forward", 30.0),
                                                ("backward", -30.0)])
    def test_blowup_at_same_node_as_integrate_ode(self, direction, rate):
        g = TimeGrid(t_end=1.0, steps=200)

        def F(t):
            return np.reshape(rate * (1.0 + t), np.shape(t) + (1, 1))

        with pytest.raises(NonFiniteState) as prop:
            propagate_linear(F(g.half_nodes),
                             np.zeros((2 * g.steps + 1, 1)), np.ones(1), g,
                             direction)
        with pytest.raises(NonFiniteState) as ref:
            integrate_ode(lambda t, y: F(t) @ y, np.ones(1), g, direction)
        assert prop.value.t == ref.value.t
        assert 0.0 < prop.value.t < 1.0

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("rate", [18.5, 23.0, 31.0, 41.0])
    def test_blowup_node_anywhere_in_the_blocks(self, direction, rate):
        # blocks of 44 steps, the last one of 21; at rate 18.5 the blow-up
        # lands in that partial block, at the others in full ones
        g = TimeGrid(t_end=1.0, steps=2001)
        assert _block_length(g.steps, g.h, rate) == 44
        sign = 1.0 if direction == "forward" else -1.0
        F = np.full((2 * g.steps + 1, 1, 1), sign * rate)
        with pytest.raises(NonFiniteState) as prop:
            propagate_linear(F, np.zeros((2 * g.steps + 1, 1)), np.ones(1),
                             g, direction)
        with pytest.raises(NonFiniteState) as ref:
            integrate_ode(lambda j, y: F[j] @ y, np.ones(1), g, direction,
                          indexed=True)
        assert prop.value.t == ref.value.t

    @pytest.mark.parametrize("M,block", [(7, 1), (9, 2), (2001, 44)])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("columns", [None, 2])
    def test_blocks_match_integrate_ode(self, M, block, direction, columns):
        # blocks of `block` steps; in each case the last block is partial
        g = TimeGrid(t_end=1.0, steps=M)
        F, f = self._field(3)
        F_h, f_h = F(g.half_nodes), f(g.half_nodes)
        assert _block_length(M, g.h, np.abs(F_h).sum(axis=-1).max()) == block
        y0 = np.array([1.0, -0.5, 0.2])
        if columns is not None:
            weights = np.arange(1.0, columns + 1.0)
            y0, f_h = np.outer(y0, weights), f_h[:, :, None] * weights
        prop = propagate_linear(F_h, f_h, y0, g, direction)
        ref = integrate_ode(lambda j, y: F_h[j] @ y + f_h[j], y0, g,
                            direction, indexed=True)
        assert np.max(np.abs(prop.values - ref.values)) <= 1e-13

    @pytest.mark.parametrize("direction,rate", [("forward", 30.0),
                                                ("backward", -30.0)])
    def test_blowup_raises_without_warnings(self, direction, rate):
        g = TimeGrid(t_end=1.0, steps=200)
        F = np.full((2 * g.steps + 1, 1, 1), rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState):
                propagate_linear(F, np.zeros((2 * g.steps + 1, 1)),
                                 np.ones(1), g, direction)

    def test_rk4_order(self):
        # y' = cos(t) y + cos(t) has y = 2 exp(sin t) - 1 from y(0) = 1;
        # halving h should shrink the error by a factor >= 12
        exact = 2.0 * np.exp(np.sin(1.0)) - 1.0
        errs = []
        for M in (20, 40):
            g = TimeGrid(t_end=1.0, steps=M)
            c = np.cos(g.half_nodes)
            traj = propagate_linear(c.reshape(-1, 1, 1), c.reshape(-1, 1),
                                    np.array([1.0]), g)
            errs.append(abs(traj.values[-1][0] - exact))
        assert errs[0] / errs[1] >= 12.0


class TestScan:
    @pytest.mark.parametrize("direction,node", [("forward", 30),
                                                ("backward", 70)])
    def test_stop_of_the_pass_is_reported(self, direction, node):
        # blocks of 10 steps; the pass over the block starts finds the end
        # of the third block not ok, the batched fill finds every node ok,
        # as when the two calls round a det near zero differently
        g = TimeGrid(t_end=1.0, steps=100)
        calls = []

        def check(P, v):
            if P.ndim == 2:
                calls.append(v)
                return P @ v, len(calls) < 3
            return P @ v, np.ones(P.shape[:2], dtype=bool)

        Phi = np.ones((g.steps, 1, 1))
        values, bad = numerics._scan(Phi, np.ones((1, 1)), check, 0.0, g,
                                     direction)
        assert len(calls) == 3
        assert bad == node
        nodes = slice(0, node + 1) if direction == "forward" else slice(node,
                                                                        None)
        assert np.array_equal(values[nodes], np.ones((30 + 1, 1, 1)))


class TestStateTransition:
    def test_identity_flow(self):
        g = TimeGrid(t_end=1.0, steps=100)
        ups, ups_inv = state_transition(np.zeros((3, 3)), g)
        assert np.allclose(ups.values, np.eye(3))
        assert np.allclose(ups_inv.values, np.eye(3))

    def test_scalar_exponential(self):
        g = TimeGrid(t_end=1.0, steps=1000)
        ups, _ = state_transition(np.array([[0.5]]), g)
        assert abs(ups.values[-1][0, 0] - math.exp(0.5)) < 1e-9

    def test_product_identity(self):
        rng = np.random.default_rng(7)
        A_const = rng.standard_normal((3, 3))
        g = TimeGrid(t_end=1.0, steps=2000)
        ups, ups_inv = state_transition(
            on_grid(lambda t: A_const * (1 + 0.3 * t), g), g)
        prods = np.einsum("tij,tjk->tik", ups.values, ups_inv.values)
        err = np.max(np.abs(prods - np.eye(3)))
        assert err < 1e-7


class TestHalfGrid:
    def test_sampler_hits_nodes_and_midpoints(self):
        # a trajectory's table keeps the nodes, and each midpoint is read
        # from the cubic through the four nearest nodes, one-sided at the
        # ends: a jump overshoots by 1/16 of its size at the neighbouring
        # midpoints
        g = TimeGrid(t_end=1.0, steps=7)
        traj = MatrixTrajectory(g, np.repeat([0.0, 1.0], 4)[:, None])
        table = half_grid_table(traj, g)
        assert table.shape == (15, 1)
        assert np.array_equal(table[0::2], traj.values)
        assert np.array_equal(table[1::2, 0],
                              [0.0, 0.0, -1 / 16, 0.5, 17 / 16, 1.0, 1.0])

    @pytest.mark.parametrize("steps, degree", [(2, 2), (3, 3), (8, 3)])
    def test_midpoints_exact_on_polynomials(self, steps, degree):
        # the end and interior stencils reproduce the polynomials of the
        # degree they are built on
        poly = np.polynomial.Polynomial([1.0, 2.0, -3.0, 0.7][:degree + 1])
        g = TimeGrid(t_end=1.0, steps=steps)
        table = half_grid_table(MatrixTrajectory(g, poly(g.nodes)), g)
        assert np.max(np.abs(table - poly(g.half_nodes))) < 1e-14

    def test_sampler_out_of_range(self):
        g = TimeGrid(t_end=1.0, steps=4)
        traj = MatrixTrajectory(g, np.zeros((5, 1)))
        for other in (TimeGrid(t_end=1.0, steps=8),
                      TimeGrid(t_end=2.0, steps=4)):
            with pytest.raises(ValueError):
                half_grid_table(traj, other)

    def test_constant_repeated_into_writable_copy(self):
        g = TimeGrid(t_end=1.0, steps=4)
        value = np.array([[1.5, -2.0], [0.25, 3.0]])
        table = half_grid_table(value, g)
        assert table.shape == (9, 2, 2)
        assert np.array_equal(table, np.broadcast_to(value, (9, 2, 2)))
        table[0, 0, 0] = 7.0
        assert value[0, 0] == 1.5

    def test_trajectory_half_values(self):
        g = TimeGrid(t_end=1.0, steps=4)
        traj = MatrixTrajectory(g, g.nodes.reshape(-1, 1).copy())
        assert np.allclose(traj.half_values()[:, 0], g.half_nodes)


class TestMatrixTrajectory:
    def test_length_mismatch(self):
        g = TimeGrid(t_end=1.0, steps=4)
        with pytest.raises(ValueError):
            MatrixTrajectory(g, np.zeros((4, 2)))

    def test_nonfinite_rejected(self):
        g = TimeGrid(t_end=1.0, steps=4)
        vals = np.zeros((5, 2))
        vals[2, 1] = np.nan
        with pytest.raises(ValueError):
            MatrixTrajectory(g, vals)
