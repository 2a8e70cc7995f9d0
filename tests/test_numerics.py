"""Tests for the fixed-step ODE integrators and grid utilities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsmfg import numerics
from rsmfg.errors import NonFiniteState, OutOfRange
from rsmfg.numerics import (
    ConstantFunction,
    MatrixTrajectory,
    TimeGrid,
    _block_length,
    half_grid_table,
    integrate_ode,
    interpolate,
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

    def test_node_index(self):
        g = TimeGrid(t_end=1.0, steps=10)
        assert g.node_index(0.3) == 3
        with pytest.raises(ValueError):
            g.node_index(0.35)


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
        rng = np.random.default_rng(3)
        A0, A1 = 0.5 * rng.standard_normal((2, d, d))

        def F(t):
            return A0 + np.sin(3.0 * t) * A1

        def f(t):
            return np.cos(2.0 * t) * np.arange(1.0, d + 1.0)

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
                return np.outer(f(t), weights)

        prop = propagate_linear(half_grid_table(F, g),
                                half_grid_table(forcing, g), y0, g, direction)
        ref = integrate_ode(lambda t, y: F(t) @ y + forcing(t), y0, g,
                            direction)
        assert prop.values.shape == ref.values.shape
        assert np.max(np.abs(prop.values - ref.values)) <= 1e-13

    @pytest.mark.parametrize("direction,rate", [("forward", 30.0),
                                                ("backward", -30.0)])
    def test_blowup_at_same_node_as_integrate_ode(self, direction, rate):
        g = TimeGrid(t_end=1.0, steps=200)

        def F(t):
            return np.array([[rate * (1.0 + t)]])

        with pytest.raises(NonFiniteState) as prop:
            propagate_linear(half_grid_table(F, g),
                             np.zeros((2 * g.steps + 1, 1)), np.ones(1), g,
                             direction)
        with pytest.raises(NonFiniteState) as ref:
            integrate_ode(lambda t, y: F(t) @ y, np.ones(1), g, direction)
        assert prop.value.t == ref.value.t
        assert 0.0 < prop.value.t < 1.0

    @pytest.mark.parametrize("M,block", [(7, 1), (9, 2), (2001, 44)])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("columns", [None, 2])
    def test_blocks_match_integrate_ode(self, M, block, direction, columns):
        # blocks of `block` steps; in each case the last block is partial
        g = TimeGrid(t_end=1.0, steps=M)
        F, f = self._field(3)
        F_h, f_h = half_grid_table(F, g), half_grid_table(f, g)
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


class TestStateTransition:
    def test_identity_flow(self):
        g = TimeGrid(t_end=1.0, steps=100)
        ups, ups_inv = state_transition(lambda t: np.zeros((3, 3)), g)
        assert np.allclose(ups.values, np.eye(3))
        assert np.allclose(ups_inv.values, np.eye(3))

    def test_scalar_exponential(self):
        g = TimeGrid(t_end=1.0, steps=1000)
        ups, _ = state_transition(lambda t: np.array([[0.5]]), g)
        assert abs(ups.values[-1][0, 0] - math.exp(0.5)) < 1e-9

    def test_product_identity(self):
        rng = np.random.default_rng(7)
        A_const = rng.standard_normal((3, 3))
        g = TimeGrid(t_end=1.0, steps=2000)
        ups, ups_inv = state_transition(lambda t: A_const * (1 + 0.3 * t), g)
        prods = np.einsum("tij,tjk->tik", ups.values, ups_inv.values)
        err = np.max(np.abs(prods - np.eye(3)))
        assert err < 1e-7


class TestInterpolate:
    def _traj(self):
        g = TimeGrid(t_end=1.0, steps=10)
        vals = np.stack([np.full((2, 2), i) for i in range(11)]).astype(float)
        return MatrixTrajectory(g, vals)

    def test_node_hit(self):
        traj = self._traj()
        for i, t in enumerate(traj.grid.nodes):
            assert np.array_equal(interpolate(traj, t), traj.values[i])

    def test_constant(self):
        g = TimeGrid(t_end=1.0, steps=5)
        traj = MatrixTrajectory(g, np.full((6, 1), 3.14))
        for t in (0.0, 0.33, 0.5, 0.99, 1.0):
            assert np.allclose(interpolate(traj, t), 3.14)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_linear_trajectory_reproduced(self, t):
        g = TimeGrid(t_end=1.0, steps=10)
        traj = MatrixTrajectory(g, (2.0 * g.nodes - 1.0).reshape(-1, 1))
        assert abs(interpolate(traj, t)[0] - (2.0 * t - 1.0)) < 1e-12

    def test_out_of_range(self):
        traj = self._traj()
        with pytest.raises(OutOfRange):
            interpolate(traj, -0.1)
        with pytest.raises(OutOfRange):
            interpolate(traj, 1.1)

    def test_callable_form(self):
        traj = self._traj()
        assert np.array_equal(traj(0.5), interpolate(traj, 0.5))


class TestHalfGrid:
    def test_sampler_hits_nodes_and_midpoints(self):
        # a trajectory's table keeps the nodes and is linear between them
        g = TimeGrid(t_end=1.0, steps=4)
        traj = MatrixTrajectory(g, (g.nodes ** 2).reshape(-1, 1, 1))
        table = half_grid_table(traj, g)
        assert table.shape == (9, 1, 1)
        assert np.array_equal(table[0::2], traj.values)
        assert np.array_equal(table[1::2],
                              0.5 * (traj.values[:-1] + traj.values[1:]))
        assert np.array_equal(table, half_grid_table(traj.values, g))

    def test_sampler_out_of_range(self):
        g = TimeGrid(t_end=1.0, steps=4)
        traj = MatrixTrajectory(g, np.zeros((5, 1)))
        with pytest.raises(OutOfRange):
            traj(1.5)
        for other in (TimeGrid(t_end=1.0, steps=8),
                      TimeGrid(t_end=2.0, steps=4)):
            with pytest.raises(ValueError):
                half_grid_table(traj, other)

    def test_table_reads_sampler_directly(self, monkeypatch):
        g = TimeGrid(t_end=1.0, steps=4)
        traj = MatrixTrajectory(g, g.nodes.reshape(-1, 1).copy())

        def no_call(traj, t):
            raise AssertionError("interpolate called")

        monkeypatch.setattr(numerics, "interpolate", no_call)
        assert np.array_equal(half_grid_table(traj, g)[:, 0], g.half_nodes)
        table = half_grid_table(lambda t: np.array([t, 2.0 * t]), g)
        assert np.array_equal(table[:, 1], 2.0 * g.half_nodes)

    def test_constant_repeated_into_writable_copy(self):
        g = TimeGrid(t_end=1.0, steps=4)
        value = np.array([[1.5, -2.0], [0.25, 3.0]])
        table = half_grid_table(ConstantFunction(value), g)
        looped = half_grid_table(lambda t: value, g)
        assert table.shape == looped.shape == (9, 2, 2)
        assert np.array_equal(table, looped)
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
