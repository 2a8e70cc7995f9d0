"""Tests for the risk-sensitive Riccati/offset solver and feedback law."""

import math
import warnings

import numpy as np
import pytest
from conftest import flocking_game, on_grid
from scipy.integrate import solve_ivp

from rsmfg import riccati
from rsmfg.errors import FiniteEscape
from rsmfg.mfg import agent_problem
from rsmfg.model import LqgProblem, scalar_problem
from rsmfg.numerics import TimeGrid, _block_length, _step_maps, half_grid_table
from rsmfg.riccati import (
    feedback_law,
    solve,
    solve_offset,
    solve_riccati,
)

GRID = TimeGrid(t_end=1.0, steps=2000)


def random_instance(seed, n=3, m=2, delta=0.3):
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((n, n))
    Q = L @ L.T + 0.5 * np.eye(n)
    Lh = rng.standard_normal((n, n)) * 0.3
    return LqgProblem(
        A=rng.standard_normal((n, n)) * 0.5,
        B=rng.standard_normal((n, m)),
        b=rng.standard_normal(n) * 0.2,
        sigma=rng.standard_normal((n, n)) * 0.3,
        Q=Q, S=np.zeros((n, m)),
        R=np.eye(m) + 0.1 * np.diag(rng.random(m)),
        eta=rng.standard_normal(n) * 0.1,
        zeta=rng.standard_normal(m) * 0.1,
        Q_hat=Lh @ Lh.T, delta=delta,
        x0=rng.standard_normal(n), T=1.0,
    )


def per_step_riccati(p, grid):
    """The Moebius recurrence one step at a time, the scan's reference."""
    Rinv = np.linalg.inv(p.R)
    B, S, n = p.B, p.S, p.n
    A_s = half_grid_table(p.A, grid) - B @ Rinv @ S.T
    sig = half_grid_table(p.sigma, grid)
    W = p.delta * sig @ np.swapaxes(sig, 1, 2) - B @ Rinv @ B.T
    Q_s = np.broadcast_to(p.Q - S @ Rinv @ S.T, A_s.shape)
    H = np.block([[A_s, W], [-Q_s, -np.swapaxes(A_s, 1, 2)]])
    Phi, _ = _step_maps(H, grid, "backward")
    values = np.empty((grid.steps + 1, n, n))
    Pi = values[-1] = 0.5 * (p.Q_hat + p.Q_hat.T)
    for i in range(grid.steps - 1, -1, -1):
        XY = Phi[i, :, :n] + Phi[i, :, n:] @ Pi
        X, Y = XY[:n], XY[n:]
        if not np.linalg.det(X) > 0.0:
            raise FiniteEscape(grid.nodes[i])
        Pi = np.linalg.solve(X.T, Y.T)
        Pi = values[i] = 0.5 * (Pi + Pi.T)
        if not np.isfinite(Pi).all():
            raise FiniteEscape(grid.nodes[i])
    return values


def lqr_riccati_oracle(p, t_eval):
    """Classical LQR Riccati (no risk term) via an independent integrator."""
    n = p.n
    Rinv = np.linalg.inv(p.R)

    def rhs(t, y):
        Pi = y.reshape(n, n)
        A = p.A
        PBpS = Pi @ p.B + p.S
        d = -(Pi @ A + A.T @ Pi - PBpS @ Rinv @ PBpS.T + p.Q)
        return d.reshape(-1)

    sol = solve_ivp(rhs, (p.T, 0.0), p.Q_hat.reshape(-1),
                    t_eval=t_eval[::-1], rtol=1e-10, atol=1e-12)
    return sol.y[:, ::-1].T.reshape(len(t_eval), n, n)


def risk_riccati_oracle(p, t_eval, drift):
    """Risk-sensitive Riccati via an adaptive 8th-order integrator, with
    the drift matrix drift(t) and p's constant sigma."""
    n = p.n
    Rinv = np.linalg.inv(p.R)

    def rhs(t, y):
        Pi = y.reshape(n, n)
        A, sig = drift(t), p.sigma
        PBpS = Pi @ p.B + p.S
        d = -(Pi @ A + A.T @ Pi - PBpS @ Rinv @ PBpS.T
              + p.delta * Pi @ sig @ sig.T @ Pi + p.Q)
        return d.reshape(-1)

    sol = solve_ivp(rhs, (p.T, 0.0), p.Q_hat.reshape(-1), method="DOP853",
                    t_eval=t_eval[::-1], rtol=1e-13, atol=1e-13)
    return sol.y[:, ::-1].T.reshape(len(t_eval), n, n)


class TestSolveRiccati:
    def test_zero_data_zero_solution(self):
        p = scalar_problem(Q=0.0, S=0.0, Q_hat=0.0, delta=0.5)
        Pi = solve_riccati(p, GRID)
        assert np.all(Pi.values == 0.0)

    def test_tanh_risk_free(self):
        p = scalar_problem(A=0.0, B=1.0, Q=1.0, R=1.0, S=0.0, Q_hat=0.0,
                           sigma=1.0, delta=1e-300)
        p.delta = 0.0  # exact closed form tanh(T - t)
        Pi = solve_riccati(p, GRID)
        assert abs(Pi.values[0][0, 0] - math.tanh(1.0)) < 1e-6

    def test_tanh_risk_half(self):
        p = scalar_problem(delta=0.5)
        Pi = solve_riccati(p, GRID)
        expected = math.tanh(math.sqrt(0.5)) / math.sqrt(0.5)
        assert abs(Pi.values[0][0, 0] - expected) < 1e-6

    def test_terminal_condition_exact(self):
        p = random_instance(1)
        Pi = solve_riccati(p, GRID)
        assert np.array_equal(Pi.values[-1], 0.5 * (p.Q_hat + p.Q_hat.T))

    def test_symmetry(self):
        p = random_instance(2)
        Pi = solve_riccati(p, GRID)
        asym = np.max(np.abs(Pi.values - np.transpose(Pi.values, (0, 2, 1))))
        assert asym < 1e-10

    def test_monotone_in_risk(self):
        vals = []
        for delta in (1e-12, 0.25, 0.5, 0.75):
            p = scalar_problem(delta=delta)
            Pi = solve_riccati(p, GRID)
            vals.append(Pi.values[0][0, 0])
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_risk_neutral_limit_scalar(self):
        p = scalar_problem(delta=1e-8)
        Pi = solve_riccati(p, GRID)
        assert abs(Pi.values[0][0, 0] - math.tanh(1.0)) < 1e-6

    def test_risk_neutral_limit_matrix(self):
        p = random_instance(3, delta=1e-8)
        grid = TimeGrid(t_end=1.0, steps=500)
        Pi = solve_riccati(p, grid)
        oracle = lqr_riccati_oracle(p, grid.nodes)
        assert np.max(np.abs(Pi.values - oracle)) < 1e-6

    def test_risk_sensitive_matrix_against_dop853(self):
        # full 3x3 instance, delta=0.3, full sigma, time-varying drift
        # given as a node table on each grid: fourth-order convergence to
        # an independent adaptive solve
        p = random_instance(6)
        A0, A1 = p.A, np.random.default_rng(7).standard_normal((3, 3))

        def drift(t):
            return A0 + 0.5 * np.sin(3.0 * t) * A1

        fine = TimeGrid(t_end=1.0, steps=2000)
        oracle = risk_riccati_oracle(p, fine.nodes, drift)
        errs = {}
        for M in (250, 500, 2000):
            grid = TimeGrid(t_end=1.0, steps=M)
            p.A = on_grid(drift, grid)
            Pi = solve_riccati(p, grid)
            errs[M] = np.max(np.abs(Pi.values - oracle[::2000 // M]))
        assert errs[250] / errs[500] >= 12.0
        assert errs[2000] < 1e-10

    def test_grid_convergence(self):
        p = scalar_problem(delta=0.5)
        Pi1 = solve_riccati(p, TimeGrid(t_end=1.0, steps=2000))
        Pi2 = solve_riccati(p, TimeGrid(t_end=1.0, steps=4000))
        assert abs(Pi1.values[0][0, 0] - Pi2.values[0][0, 0]) < 1e-8

    def test_finite_escape(self):
        # B=0 removes stabilizing feedback; large risk*noise*terminal
        # weight makes the backward flow blow up before t=0
        p = scalar_problem(A=0.0, B=0.0, Q=1.0, R=1.0, S=0.0,
                           Q_hat=10.0, sigma=5.0, delta=4.0)
        with pytest.raises(FiniteEscape) as exc:
            solve_riccati(p, GRID)
        assert 0.0 <= exc.value.t < 1.0

    def test_finite_escape_scale_free(self):
        # scaling the weights by c and delta by 1/c scales Pi by c, so the
        # escape must be found at the same node at any scale
        times = set()
        for c in (1e-9, 1.0, 1e9):
            p = scalar_problem(A=0.0, B=0.0, Q=c, R=c, S=0.0,
                               Q_hat=10.0 * c, sigma=5.0, delta=4.0 / c)
            with pytest.raises(FiniteEscape) as exc:
                solve_riccati(p, GRID)
            times.add(exc.value.t)
        assert len(times) == 1


class TestBlockedScan:
    @pytest.mark.parametrize("M", [7, 200, 2001])
    def test_matches_per_step_recurrence(self, M):
        # 1-, 14- and 44-step blocks; 200 and 2001 end in a partial block
        grid = TimeGrid(t_end=1.0, steps=M)
        p = random_instance(2)
        ref = per_step_riccati(p, grid)
        Pi = solve_riccati(p, grid).values
        assert np.max(np.abs(Pi - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stiff_problem_steps_singly(self):
        # rho >= |A_s| = 300 leaves one step per block at h = 1/200
        grid = TimeGrid(t_end=1.0, steps=200)
        assert _block_length(grid.steps, grid.h, 300.0) == 1
        p = scalar_problem(A=-300.0, delta=0.5)
        ref = per_step_riccati(p, grid)
        Pi = solve_riccati(p, grid).values
        assert np.max(np.abs(Pi - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", [200, 2000])
    def test_escape_node_matches_per_step(self, M):
        grid = TimeGrid(t_end=1.0, steps=M)
        for q in np.linspace(1.0, 12.0, 23):
            p = random_instance(2, delta=3.0)
            p.Q_hat = q * np.eye(3)
            with pytest.raises(FiniteEscape) as ref:
                per_step_riccati(p, grid)
            with pytest.raises(FiniteEscape) as got:
                solve_riccati(p, grid)
            assert got.value.t == ref.value.t

    @pytest.mark.parametrize("M", [200, 2000])
    def test_stiff_escape_node_matches_per_step(self, M):
        # rho = 300 leaves blocks of 1 step at M = 200 and of 6 steps,
        # the last one partial, at M = 2000; the three terminal weights
        # put the escape near t = 0.8, 0.6 and 0.4
        grid = TimeGrid(t_end=1.0, steps=M)
        assert _block_length(M, grid.h, 300.0) == (1 if M == 200 else 6)
        for q in (1e-50, 1e-100, 1e-150):
            p = scalar_problem(A=300.0, B=0.0, Q=0.0, Q_hat=q, sigma=1.0,
                               delta=0.5)
            with pytest.raises(FiniteEscape) as ref:
                per_step_riccati(p, grid)
            with pytest.raises(FiniteEscape) as got:
                solve_riccati(p, grid)
            assert got.value.t == ref.value.t
            assert 0.0 < got.value.t < 1.0

    def test_escape_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (1e-9, 1.0, 1e9):
                p = scalar_problem(A=0.0, B=0.0, Q=c, R=c, S=0.0,
                                   Q_hat=10.0 * c, sigma=5.0, delta=4.0 / c)
                with pytest.raises(FiniteEscape):
                    solve_riccati(p, GRID)


class TestClosedFormFill:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_det_adj_against_lapack(self, n):
        rng = np.random.default_rng(40 + n)
        X = rng.standard_normal((300, n, n))
        # nearly singular (det X about 1e-9, of either sign) and singular
        near = X[:100].copy()
        near[:, -1] = near[:, :-1].sum(axis=1) + 1e-9 * rng.standard_normal(
            (100, n))
        zero = X[:20].copy()
        zero[:, -1] = 0.0
        X = np.concatenate([X, -X[:100], near, zero])
        det, adj = riccati._det_adj(X)
        ref = np.linalg.det(X)
        assert (ref <= 0.0).sum() > 100 and (ref > 0.0).sum() > 100
        assert np.array_equal(det > 0.0, ref > 0.0)
        scale = np.abs(X).max(axis=(1, 2)) ** n
        assert np.all(np.abs(det - ref) <= 1e-14 * scale)
        # adj X is X^-1 det X, and X adj X = det X I at any conditioning
        well = np.abs(ref) > 1e-3 * scale
        assert np.allclose(adj[well] / det[well, None, None],
                           np.linalg.inv(X[well]), rtol=1e-10, atol=1e-12)
        assert np.all(np.abs(X @ adj - det[:, None, None] * np.eye(n))
                      <= 1e-14 * scale[:, None, None])

    @pytest.mark.parametrize("which", ["random", "major", "minor"])
    def test_solve_matches_lapack_fill(self, monkeypatch, which):
        # random_instance and the flocking game's extended problems, n = 3,
        # 2 and 3: the closed-form fill against numpy's det and solve
        if which == "random":
            p = random_instance(5)
        else:
            p = agent_problem(flocking_game(), GRID,
                              None if which == "major" else 0)[0]
        calls = []
        det_adj = riccati._det_adj
        monkeypatch.setattr(riccati, "_det_adj",
                            lambda X: calls.append(X.shape) or det_adj(X))
        closed = solve_riccati(p, GRID).values
        assert len(calls) == 1 and calls[0][-1] == p.n
        monkeypatch.setattr(riccati, "CLOSED_FORM_MAX_N", 0)
        lapack = solve_riccati(p, GRID).values
        assert len(calls) == 1
        assert np.max(np.abs(closed - lapack)) \
            <= 1e-12 * np.max(np.abs(lapack))


class TestHalfTables:
    def test_formed_afresh_for_new_grid_or_sigma(self):
        p = random_instance(7)
        coarse = TimeGrid(t_end=1.0, steps=200)
        fresh = random_instance(7)
        solve(p, GRID)
        assert np.array_equal(solve_riccati(p, coarse).values,
                              solve_riccati(fresh, coarse).values)
        # a sigma table keeps its sigma sigma^T; a replaced one is not read
        p.sigma = on_grid(lambda t: (1.0 + t) * np.eye(3), coarse)
        solve_riccati(p, coarse)
        p.sigma, fresh.sigma = (on_grid(lambda t: 0.5 * np.eye(3), coarse)
                                for _ in range(2))
        Pi = solve_riccati(p, coarse)
        assert np.array_equal(Pi.values, solve_riccati(fresh, coarse).values)
        assert np.array_equal(solve_offset(p, Pi, coarse).values,
                              solve_offset(fresh, Pi, coarse).values)


class TestSolveOffset:
    def test_zero_forcing(self):
        p = scalar_problem(eta=0.0, zeta=0.0, b=0.0, delta=0.5)
        Pi = solve_riccati(p, GRID)
        s = solve_offset(p, Pi, GRID)
        assert np.all(s.values == 0.0)

    def test_terminal_zero(self):
        p = scalar_problem(eta=0.3, zeta=0.1, b=0.2, delta=0.5)
        Pi = solve_riccati(p, GRID)
        s = solve_offset(p, Pi, GRID)
        assert np.all(s.values[-1] == 0.0)

    def test_fine_grid_reference(self):
        p = scalar_problem(A=-0.5, eta=0.3, zeta=0.1, b=0.2, delta=0.5)
        coarse = TimeGrid(t_end=1.0, steps=2000)
        fine = TimeGrid(t_end=1.0, steps=20000)
        s_c = solve_offset(p, solve_riccati(p, coarse), coarse)
        s_f = solve_offset(p, solve_riccati(p, fine), fine)
        assert abs(s_c.values[0][0] - s_f.values[0][0]) < 1e-8

    def test_fourth_order_in_h(self):
        # Pi is read at the RK4 midpoints by cubics, so s keeps Pi's
        # order: the differences of s(0) between successive grids shrink
        # about 16x per halving (4x with linear midpoints)
        p = scalar_problem(A=-0.5, eta=0.3, zeta=0.1, b=0.2, delta=0.5)
        s0 = []
        for M in (50, 100, 200, 400):
            g = TimeGrid(t_end=1.0, steps=M)
            s0.append(solve_offset(p, solve_riccati(p, g), g).values[0][0])
        diffs = np.abs(np.diff(s0))
        assert np.all(diffs[:-1] / diffs[1:] >= 12.0)

    @pytest.mark.parametrize("term", ["eta", "q_hat"])
    def test_tiny_affine_term_is_propagated(self, monkeypatch, term):
        # the zero route needs b + B R^-1 zeta, S R^-1 zeta - eta and
        # q_hat all exactly zero; one term of 1e-12 takes the solve
        p = scalar_problem(eta=0.0, zeta=0.0, b=0.0, delta=0.5)
        setattr(p, term, np.array([1e-12]))
        Pi = solve_riccati(p, GRID)
        calls = []
        original = riccati.propagate_linear

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(riccati, "propagate_linear", counted)
        s = solve_offset(p, Pi, GRID)
        assert len(calls) == 1
        assert np.all(s.values[:-1] != 0.0)

    def test_superposition_in_eta(self):
        eta1, eta2 = 0.4, -0.7
        p12 = scalar_problem(eta=eta1 + eta2, zeta=0.0, b=0.0, delta=0.5)
        Pi = solve_riccati(p12, GRID)
        s12 = solve_offset(p12, Pi, GRID)
        s1 = solve_offset(scalar_problem(eta=eta1, delta=0.5), Pi, GRID)
        s2 = solve_offset(scalar_problem(eta=eta2, delta=0.5), Pi, GRID)
        assert np.max(np.abs(s12.values - s1.values - s2.values)) < 1e-9


class TestFeedbackLaw:
    def test_zero_law(self):
        p = scalar_problem(Q=0.0, S=0.0, Q_hat=0.0, eta=0.0, zeta=0.0,
                           b=0.0, delta=0.5)
        Pi = solve_riccati(p, GRID)
        s = solve_offset(p, Pi, GRID)
        K, k = feedback_law(p, Pi, s)
        assert np.all(K.values == 0.0)
        assert np.all(k.values == 0.0)

    def test_tanh_gain(self):
        p = scalar_problem(delta=1e-14)
        Pi = solve_riccati(p, GRID)
        s = solve_offset(p, Pi, GRID)
        K, _ = feedback_law(p, Pi, s)
        assert abs(K.values[0][0, 0] + math.tanh(1.0)) < 1e-6

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0, 1e-9, 1e-6, 1e9])
    def test_scaling_invariance(self, c):
        p = scalar_problem(A=-0.2, Q=1.0, S=0.3, R=1.0, eta=0.2, zeta=0.1,
                           Q_hat=0.5, b=0.1, delta=0.4)
        q = scalar_problem(A=-0.2, Q=1.0 / c, S=0.3 / c, R=1.0 / c,
                           eta=0.2 / c, zeta=0.1 / c, Q_hat=0.5 / c,
                           b=0.1, delta=0.4 * c)
        Kp, kp = feedback_law(p, solve_riccati(p, GRID),
                              solve_offset(p, solve_riccati(p, GRID), GRID))
        Kq, kq = feedback_law(q, solve_riccati(q, GRID),
                              solve_offset(q, solve_riccati(q, GRID), GRID))
        assert np.max(np.abs(Kp.values - Kq.values)) < 1e-8
        assert np.max(np.abs(kp.values - kq.values)) < 1e-8


class TestCStar:
    def test_all_zero(self):
        p = scalar_problem(Q=0.0, S=0.0, Q_hat=0.0, eta=0.0, zeta=0.0,
                           b=0.0, sigma=0.0, delta=0.5, x0=1.0)
        sol = solve(p, GRID)
        assert sol.C_star == 0.0

    def test_initial_state_term_only(self):
        p = scalar_problem(sigma=0.0, b=0.0, zeta=0.0, eta=0.0,
                           delta=0.5, x0=2.0)
        sol = solve(p, GRID)
        expected = 0.5 * 0.5 * sol.Pi.values[0][0, 0] * 4.0
        assert abs(sol.C_star - expected) < 1e-12

    def test_full_solution_fields(self):
        p = random_instance(4)
        sol = solve(p, GRID)
        assert sol.Pi.values.shape == (2001, 3, 3)
        assert sol.s.values.shape == (2001, 3)
        assert sol.K_gain.values.shape == (2001, 2, 3)
        assert sol.k_offset.values.shape == (2001, 2)
        assert np.isfinite(sol.C_star)

    def test_control_matches_formula(self):
        p = random_instance(5)
        sol = solve(p, GRID)
        Rinv = np.linalg.inv(p.R)
        x = np.array([0.3, -1.2, 0.7])
        i = 700
        u = sol.K_gain.values[i] @ x + sol.k_offset.values[i]
        expected = -Rinv @ (p.S.T @ x - p.zeta
                            + p.B.T @ (sol.Pi.values[i] @ x + sol.s.values[i]))
        assert np.max(np.abs(u - expected)) < 1e-12
