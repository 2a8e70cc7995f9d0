"""Tests for the path simulator and the exponential-cost identity checks."""

import math

import numpy as np
import pytest

from rsmfg.errors import OutOfRange
from rsmfg.model import LqgProblem, scalar_problem
from rsmfg.montecarlo import (
    ControlLaw,
    _run_paths,
    as_control_law,
    check_martingale_quotient,
    check_normalization,
    check_optimal_cost,
    check_weak_error,
    estimate_cost,
    _noise_block,
    estimate_gateaux,
    log_mean_exp,
    path_blocks,
    sampled_convexity,
    simulate,
)
from rsmfg.numerics import TimeGrid, integrate_ode, state_transition
from rsmfg.riccati import _closed_loop, law_cost, running_cost, solve

GRID = TimeGrid(t_end=1.0, steps=500)


def tanh_problem(sigma=1.0, delta=0.5):
    return scalar_problem(A=0.0, B=1.0, Q=1.0, R=1.0, S=0.0, Q_hat=0.0,
                          sigma=sigma, delta=delta, x0=1.0, T=1.0)


def mild_2d(delta=0.3, sigma_scale=0.3):
    return LqgProblem(
        A=np.array([[-0.5, 0.1], [0.0, -0.3]]),
        B=np.eye(2),
        b=np.array([0.05, -0.02]),
        sigma=sigma_scale * np.eye(2),
        Q=0.5 * np.eye(2),
        S=np.array([[0.1, 0.0], [0.0, -0.1]]),
        R=np.eye(2),
        eta=np.array([0.1, -0.05]),
        zeta=np.array([0.02, 0.0]),
        Q_hat=0.2 * np.eye(2),
        delta=delta,
        x0=np.array([1.0, -0.5]),
        T=1.0,
    )


def mild_2d_q_hat(delta=0.3, sigma_scale=0.3):
    """mild_2d with a terminal linear weight."""
    p = mild_2d(delta, sigma_scale)
    p.q_hat = np.array([0.1, -0.2])
    return p


def rk4_log_cost(p, law, grid):
    """delta*Lambda_T of the single noise-free path, by RK4 quadrature.

    The closed-loop state and the running cost integral are integrated
    jointly as one nonlinear ODE, forward on numerics.integrate_ode: the
    reference for riccati.law_cost, which takes the same cost from a
    backward Riccati scan.
    """
    n = p.n
    law = as_control_law(law, grid, p.n, p.m)
    K, k, F, f = _closed_loop(p, law.K, law.k, grid)
    W, w, c = running_cost(p, K, k)

    def field(j, y):
        x = y[:n]
        dl = x @ (0.5 * W[j] @ x + w[j]) + c[j]
        return np.concatenate([F[j] @ x + f[j], [dl]])

    y0 = np.concatenate([p.x0, [0.0]])
    traj = integrate_ode(field, y0, grid, "forward", indexed=True)
    x_T = traj.values[-1][:n]
    lam = traj.values[-1][n] + 0.5 * x_T @ p.Q_hat @ x_T + p.q_hat @ x_T
    return p.delta * lam


def assert_path_ranges_match(p, grid, n_paths, splits, seed=5):
    """Consecutive path ranges of each split, run apart and concatenated
    in order, give every per-path array of one run over all paths."""
    law = as_control_law(solve(p, grid), grid, p.n, p.m)
    ups, ups_inv = state_transition(p.A, grid)
    t = grid.nodes
    omega = np.stack([np.sin(2 * np.pi * t), 0.5 - t], axis=1)[:, :p.m]
    v = np.einsum("tij,tj->ti", ups_inv.values, omega @ p.B.T)
    streams = dict(ups_values=ups.values, omega=omega, v=v)
    whole = _run_paths(p, law, range(n_paths), seed, grid, **streams)
    assert sorted(whole) == ["G_T", "cross", "log_weights", "qmid", "x_T"]
    for sizes in splits:
        stops = np.cumsum(sizes)
        assert stops[-1] == n_paths
        parts = [_run_paths(p, law, range(stop - size, stop), seed, grid,
                            **streams) for size, stop in zip(sizes, stops)]
        for key, value in whole.items():
            joined = np.concatenate([part[key] for part in parts])
            assert np.array_equal(joined, value), (sizes, key)


class TestSimulate:
    def test_frozen_paths(self):
        p = scalar_problem(A=0.0, b=0.0, sigma=0.0, delta=0.5)
        zero_law = np.zeros((GRID.steps + 1, 1))
        ens = simulate(p, zero_law, 4, seed=1, grid=GRID, store_paths=True)
        assert np.all(ens.x_T == 1.0)
        assert np.all(ens.states == 1.0)
        assert np.all(ens.controls == 0.0)

    def test_deterministic_cost_quadrature(self):
        # A=0 with a constant control keeps the Euler path exact, so the
        # trapezoidal cost should match the RK4 quadrature oracle tightly
        p = scalar_problem(A=0.0, b=0.1, sigma=0.0, Q=1.0, R=1.0,
                           eta=0.2, zeta=0.1, Q_hat=0.5, delta=0.5)
        u = np.full((GRID.steps + 1, 1), 0.3)
        ens = simulate(p, u, 1, seed=0, grid=GRID)
        oracle = rk4_log_cost(p, u, GRID)
        assert abs(ens.log_weights[0] - oracle) < 1e-6

    def test_euler_first_order_convergence(self):
        # with feedback the Euler path error is O(h); check it shrinks
        p = tanh_problem(sigma=0.0)
        sol = solve(p, TimeGrid(t_end=1.0, steps=4000))
        errs = []
        for M in (250, 2500):
            g = TimeGrid(t_end=1.0, steps=M)
            s = solve(p, g)
            ens = simulate(p, s, 1, seed=0, grid=g)
            errs.append(abs(ens.log_weights[0]
                            - rk4_log_cost(p, s, g)))
        assert errs[1] < errs[0] / 5.0

    def test_brownian_variance(self):
        p = scalar_problem(A=0.0, B=0.0, b=0.0, sigma=1.0, Q=0.0,
                           Q_hat=0.0, delta=0.5, x0=0.0)
        ens = simulate(p, np.zeros((GRID.steps + 1, 1)), 100_000, seed=3,
                       grid=GRID)
        var = float(np.var(ens.x_T))
        assert abs(var - 1.0) < 0.05

    def test_seed_determinism(self):
        p = tanh_problem()
        sol = solve(p, GRID)
        e1 = simulate(p, sol, 500, seed=11, grid=GRID)
        e2 = simulate(p, sol, 500, seed=11, grid=GRID)
        assert np.array_equal(e1.log_weights, e2.log_weights)
        e3 = simulate(p, sol, 500, seed=12, grid=GRID)
        assert not np.array_equal(e1.log_weights, e3.log_weights)

    def test_block_size_independence(self):
        p = tanh_problem()
        sol = solve(p, GRID)
        e1 = simulate(p, sol, 300, seed=5, grid=GRID, block=37)
        e2 = simulate(p, sol, 300, seed=5, grid=GRID, block=4096)
        assert np.array_equal(e1.log_weights, e2.log_weights)
        assert np.array_equal(e1.x_T, e2.x_T)
        grid = TimeGrid(t_end=1.0, steps=20)
        assert_path_ranges_match(p, grid, 7, [(3, 4), (1, 5, 1)])
        assert_path_ranges_match(p, grid, 5000, [(2500, 2500), (4096, 904)])

    def test_block_size_independence_2d(self):
        # every per-path product is a fixed-order multiply-add, so a
        # matrix-valued problem gives the same bits for any block size
        p = mild_2d()
        grid = TimeGrid(t_end=1.0, steps=200)
        sol = solve(p, grid)
        t = grid.nodes
        omega = np.stack([np.sin(2 * np.pi * t), 0.5 - t], axis=1)
        blocks = (1, 3, 37, 4096)
        ens = [simulate(p, sol, 100, seed=8, grid=grid, store_paths=True,
                        block=b) for b in blocks]
        grads = [estimate_gateaux(p, sol, omega, 100, seed=9, grid=grid,
                                  block=b) for b in blocks]
        for e, g in zip(ens[1:], grads[1:]):
            assert np.array_equal(e.log_weights, ens[0].log_weights)
            assert np.array_equal(e.x_T, ens[0].x_T)
            assert np.array_equal(e.states, ens[0].states)
            assert np.array_equal(e.controls, ens[0].controls)
            assert g == grads[0]
        short = TimeGrid(t_end=1.0, steps=20)
        assert_path_ranges_match(p, short, 7, [(3, 4), (1, 5, 1)])
        assert_path_ranges_match(p, short, 5000, [(2500, 2500), (4096, 904)])

    def test_path_blocks_are_equal_ranges(self):
        # ceil(n / block) ranges, the first n mod count one path longer
        assert path_blocks(range(5000)) == [range(0, 2500),
                                            range(2500, 5000)]
        assert path_blocks(range(10, 17), 3) == [range(10, 13),
                                                 range(13, 15),
                                                 range(15, 17)]
        assert path_blocks(range(8192)) == [range(0, 4096),
                                            range(4096, 8192)]
        assert [len(b) for b in path_blocks(range(8194))] == [2732, 2731,
                                                              2731]
        assert path_blocks(range(0)) == []

    def test_noise_rows_are_path_keyed_streams(self):
        # row j is the stream of a fresh Philox keyed (seed, first + j);
        # no generator state carries over between paths or calls
        steps, r = 40, 2
        first = _noise_block(17, 5, 3, steps, r)
        second = _noise_block(17, 8, 2, steps, r)
        for rows, start in ((first, 5), (second, 8)):
            for j, row in enumerate(rows):
                gen = np.random.Generator(
                    np.random.Philox(key=[17, start + j]))
                assert np.array_equal(row, gen.standard_normal((steps, r)))

    @pytest.mark.parametrize("law", ["riccati", "open-loop"])
    def test_cost_table_matches_direct_form(self, law):
        # delta * Lambda_T recomputed from the stored paths with the
        # running cost written in x and u
        p = mild_2d()
        grid = TimeGrid(t_end=1.0, steps=200)
        if law == "riccati":
            law = solve(p, grid)
        else:
            t = grid.nodes
            law = np.stack([0.3 - 0.2 * t, np.cos(3.0 * t)], axis=1)
        ens = simulate(p, law, 50, seed=4, grid=grid, store_paths=True)
        x, u = ens.states, ens.controls
        running = (0.5 * np.einsum("pti,ij,ptj->pt", x, p.Q, x)
                   + np.einsum("pti,ij,ptj->pt", x, p.S, u)
                   + 0.5 * np.einsum("pti,ij,ptj->pt", u, p.R, u)
                   - x @ p.eta - u @ p.zeta)
        x_T = x[:, -1]
        direct = p.delta * (
            np.trapezoid(running, grid.nodes, axis=1)
            + 0.5 * np.einsum("pi,ij,pj->p", x_T, p.Q_hat, x_T))
        scale = np.max(np.abs(ens.log_weights))
        assert np.max(np.abs(direct - ens.log_weights)) <= 1e-12 * scale


class TestLogMeanExp:
    def test_constant_weights(self):
        est = log_mean_exp(np.full(10, 2.5))
        assert est.log_value == 2.5
        assert est.std_error == 0.0

    def test_two_atoms(self):
        est = log_mean_exp(np.array([0.0, math.log(3.0)]))
        assert abs(est.log_value - math.log(2.0)) < 1e-14

    def test_huge_weights_no_overflow(self):
        est = log_mean_exp(np.array([1000.0, 1000.0 + math.log(3.0)]))
        assert abs(est.log_value - (1000.0 + math.log(2.0))) < 1e-12
        assert np.isfinite(est.std_error)

    def test_single_atom(self):
        p = tanh_problem(sigma=0.0)
        sol = solve(p, GRID)
        ens = simulate(p, sol, 1, seed=0, grid=GRID)
        est = estimate_cost(ens)
        assert est.log_value == ens.log_weights[0]
        assert est.std_error == 0.0


class TestNormalization:
    def test_deterministic(self):
        # without noise the check would compare C_star with itself
        p = tanh_problem(sigma=0.0)
        sol = solve(p, TimeGrid(t_end=1.0, steps=200))
        with pytest.raises(OutOfRange, match="nonzero diffusion"):
            check_normalization(p, sol, 2, seed=0)

    def test_scalar_tanh(self):
        p = tanh_problem(delta=0.5)
        sol = solve(p, GRID)
        rep = check_normalization(p, sol, 20_000, seed=21)
        assert abs(rep.z) <= 3.0

    def test_random_2d(self):
        p = mild_2d()
        sol = solve(p, GRID)
        rep = check_normalization(p, sol, 20_000, seed=22)
        assert abs(rep.z) <= 3.0


class TestOptimalCost:
    def test_deterministic(self):
        p = tanh_problem(sigma=0.0)
        sol = solve(p, TimeGrid(t_end=1.0, steps=200))
        with pytest.raises(OutOfRange, match="nonzero diffusion"):
            check_optimal_cost(p, sol, 2, seed=0)

    def test_scalar_tanh(self):
        p = tanh_problem(delta=0.5)
        sol = solve(p, GRID)
        rep = check_optimal_cost(p, sol, 20_000, seed=31)
        assert abs(rep.z) <= 3.0

    def test_perturbed_law_costs_more(self):
        # paired comparison on common noise: the 1.2-scaled gain must be
        # strictly costlier than the optimal law (whose log-cost is C_star)
        p = tanh_problem(delta=0.5)
        sol = solve(p, GRID)
        worse = ControlLaw(1.2 * sol.K_gain.values, sol.k_offset.values)
        w1 = simulate(p, worse, 20_000, seed=32, grid=GRID).log_weights
        w2 = simulate(p, sol, 20_000, seed=32, grid=GRID).log_weights
        L = max(w1.max(), w2.max())
        d = np.exp(w1 - L) - np.exp(w2 - L)
        se = d.std(ddof=1) / math.sqrt(d.size)
        assert d.mean() > 3.0 * se


class TestLawCost:
    @pytest.mark.parametrize("problem", [tanh_problem, mild_2d, mild_2d_q_hat],
                             ids=["tanh", "2d", "2d-q_hat"])
    @pytest.mark.parametrize("gain", [1.0, 1.2])
    def test_matches_forward_rk4_without_noise(self, problem, gain):
        # with sigma = 0 the cost is the single path's, which the forward
        # RK4 reference integrates directly
        p = problem(sigma=0.0) if problem is tanh_problem \
            else problem(sigma_scale=0.0)
        sol = solve(p, GRID)
        K, k = gain * sol.K_gain.values, sol.k_offset.values
        assert abs(law_cost(p, K, k, GRID)
                   - rk4_log_cost(p, ControlLaw(K, k), GRID)) < 1e-10

    @pytest.mark.parametrize("problem", [tanh_problem, mild_2d, mild_2d_q_hat],
                             ids=["tanh", "2d", "2d-q_hat"])
    def test_optimal_law_minimizes_quadratically(self, problem):
        # every perturbation of the paper's feedback law costs more than
        # C_star, by an excess that grows as the square of its size
        p = problem()
        sol = solve(p, GRID)
        K, k = sol.K_gain.values, sol.k_offset.values

        def excess(gain=1.0, shift=0.0):
            return law_cost(p, gain * K, k + shift, GRID) - sol.C_star

        pairs = [(excess(gain=1.0 + 10 * e), excess(gain=1.0 + e))
                 for e in (-0.01, 0.01)]
        pairs += [(excess(shift=10 * e), excess(shift=e))
                  for e in (-0.01, 0.01)]
        for big, small in pairs:
            assert big > 0.0 and small > 0.0
            assert 90.0 <= big / small <= 110.0


class TestGateaux:
    def test_zero_direction(self):
        p = tanh_problem()
        sol = solve(p, GRID)
        omega = np.zeros((GRID.steps + 1, 1))
        est, se = estimate_gateaux(p, sol, omega, 200, seed=41, grid=GRID)
        assert est == 0.0

    def test_optimality(self):
        p = tanh_problem(delta=0.5)
        sol = solve(p, GRID)
        t = GRID.nodes
        rng = np.random.default_rng(9)
        for _ in range(3):
            a, b_, c = rng.uniform(-1, 1, 3)
            omega = (a + b_ * t + c * np.sin(2 * np.pi * t)).reshape(-1, 1)
            est, se = estimate_gateaux(p, sol, omega, 20_000, seed=42,
                                       grid=GRID)
            assert abs(est) <= 3.0 * se

    def test_deterministic_finite_difference(self):
        assert self._relative_fd_error(q_hat=0.0) < 1e-4

    def test_terminal_linear_weight_finite_difference(self):
        assert self._relative_fd_error(q_hat=-0.3) < 1e-4

    @staticmethod
    def _relative_fd_error(q_hat):
        p = scalar_problem(A=-0.3, b=0.05, sigma=0.0, Q=1.0, R=1.0,
                           S=0.2, eta=0.1, zeta=0.05, Q_hat=0.4,
                           delta=0.5, x0=1.0)
        p.q_hat = np.array([q_hat])
        grid = TimeGrid(t_end=1.0, steps=20_000)
        t = grid.nodes
        u = (0.3 - 0.2 * t).reshape(-1, 1)
        omega = (0.3 + np.sin(2 * np.pi * t)).reshape(-1, 1)
        est, _ = estimate_gateaux(p, u, omega, 1, seed=0, grid=grid)
        eps = 1e-4
        j_plus = math.exp(simulate(p, u + eps * omega, 1, 0, grid)
                          .log_weights[0])
        j_minus = math.exp(simulate(p, u - eps * omega, 1, 0, grid)
                           .log_weights[0])
        fd = (j_plus - j_minus) / (2.0 * eps)
        return abs(est - fd) / abs(fd)


class TestMartingaleQuotient:
    def test_deterministic(self):
        p = scalar_problem(A=-0.3, b=0.05, sigma=0.0, Q=1.0, R=1.0,
                           S=0.2, eta=0.1, zeta=0.05, Q_hat=0.4,
                           delta=0.5, x0=1.0)
        sol = solve(p, TimeGrid(t_end=1.0, steps=2000))
        rep = check_martingale_quotient(p, sol, 1, seed=0)
        assert np.max(np.abs(rep.quotient - rep.target)) < 1e-5

    def test_scalar_tanh(self):
        p = tanh_problem(delta=0.5)
        sol = solve(p, GRID)
        rep = check_martingale_quotient(p, sol, 20_000, seed=51)
        assert np.all(np.abs(rep.z) <= 3.0)

    def test_terminal_linear_weight(self):
        # q_hat enters the paths' terminal cost, which both checks weight
        # by, the quotient, and its target through s(T); noisy and not
        p = mild_2d_q_hat()
        sol = solve(p, GRID)
        rep = check_martingale_quotient(p, sol, 20_000, seed=53)
        assert np.all(np.abs(rep.z) <= 3.0)
        assert abs(check_normalization(p, sol, 20_000, seed=54).z) <= 3.0
        p = mild_2d_q_hat(sigma_scale=0.0)
        rep = check_martingale_quotient(p, solve(p, GRID), 1, seed=0)
        assert np.max(np.abs(rep.quotient - rep.target)) < 1e-5

    def test_all_zero_cost(self):
        p = tanh_problem()
        p.Q = np.zeros((1, 1))
        p.Q_hat = np.zeros((1, 1))
        sol = solve(p, GRID)
        rep = check_martingale_quotient(p, sol, 500, seed=52)
        assert np.max(np.abs(rep.quotient)) < 1e-12
        assert np.max(np.abs(rep.target)) < 1e-12


class TestConvexity:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_sampled_convexity(self, lam):
        p = tanh_problem(delta=0.5)
        t = GRID.nodes
        u1 = np.full((GRID.steps + 1, 1), 0.2)
        u2 = (-0.5 + 0.3 * t).reshape(-1, 1)
        rep = sampled_convexity(p, u1, u2, lam, 10_000, seed=61, grid=GRID)
        assert rep.z > -3.0


class TestWeakError:
    def test_closed_loop_mean(self):
        p = tanh_problem(delta=0.5)
        sol = solve(p, GRID)
        z = check_weak_error(p, sol, 20_000, seed=71, grid=GRID)
        assert np.all(np.abs(z) <= 3.0)


class TestControlLaw:
    def test_as_control_law_forms(self):
        p = tanh_problem()
        sol = solve(p, GRID)
        c1 = as_control_law(sol, GRID, 1, 1)
        c2 = as_control_law((sol.K_gain, sol.k_offset), GRID, 1, 1)
        assert np.array_equal(c1.K, c2.K)
        assert np.array_equal(c1.k, c2.k)
        c3 = as_control_law(np.zeros(GRID.steps + 1), GRID, 3, 1)
        assert c3.K.shape == (GRID.steps + 1, 1, 3)
        assert not np.any(c3.K)

    def test_law_on_another_grid_raises(self):
        p = tanh_problem()
        sol = solve(p, GRID)
        other = TimeGrid(t_end=1.0, steps=GRID.steps // 2)
        for law in (sol, ControlLaw(sol.K_gain.values, sol.k_offset.values),
                    np.zeros(GRID.steps + 1)):
            with pytest.raises(ValueError):
                as_control_law(law, other, 1, 1)
        with pytest.raises(ValueError):
            as_control_law(sol, GRID, 2, 1)
        with pytest.raises(ValueError):
            simulate(p, sol, 10, seed=1, grid=other)

    def test_scaled(self):
        law = ControlLaw(np.ones((3, 1, 1)), np.zeros((3, 1)))
        s = law.scaled(gain_factor=1.2, offset_shift=0.1)
        assert np.all(s.K == 1.2)
        assert np.all(s.k == 0.1)
