"""Tests for the extended-system assembly and the consistency fixed point."""

import numpy as np
import pytest
from conftest import decoupled_game, flocking_game, toy_game, vector_game
from scipy.integrate import solve_ivp

from rsmfg import riccati
from rsmfg.errors import NotConverged
from rsmfg.mfg import (
    assemble_major,
    assemble_mean_field,
    assemble_minor,
    control_mean_field_coefficients,
    equilibrium_laws,
    mean_field_trajectory,
    solve_consistency,
)
from rsmfg.model import LqgProblem, MajorMinorSpec, MinorTypeParams
from rsmfg.numerics import MatrixTrajectory, TimeGrid, half_grid_table
from rsmfg.riccati import solve

GRID = TimeGrid(t_end=1.0, steps=400)


class TestAssembly:
    def test_toy_major_matrices(self):
        es = assemble_major(toy_game())
        assert np.array_equal(es.A_tilde, [[1.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(es.Q_bb, [[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(es.B_own, [[1.0], [0.0]])
        assert np.array_equal(es.B_mean, [[0.0], [1.0]])
        assert np.array_equal(es.G_bb, np.zeros((2, 2)))
        assert np.array_equal(es.x0, [1.0, 1.0])
        # the extended diffusion and drift offset are tabulated at solve
        p0 = solve_consistency(toy_game(), GRID).major_problem
        assert np.array_equal(p0.sigma(0.0), [[0.3], [0.0]])
        assert np.array_equal(p0.b(0.5), [0.0, 0.0])

    def test_toy_minor_matrices(self):
        es = assemble_minor(toy_game(), 0)
        assert np.array_equal(es.Q_bb, [[1.0, -1.0, -1.0],
                                        [-1.0, 1.0, 1.0],
                                        [-1.0, 1.0, 1.0]])
        assert np.array_equal(es.A_tilde, [[1.0, 1.0, 1.0],
                                           [0.0, 1.0, 1.0],
                                           [0.0, 1.0, 2.0]])
        assert np.array_equal(es.B_own, [[1.0], [0.0], [0.0]])
        assert np.array_equal(es.B_major, [[0.0], [1.0], [0.0]])
        assert np.array_equal(es.x0, [1.0, 1.0, 1.0])
        pk = solve_consistency(toy_game(), GRID).minor_problems[0]
        assert np.array_equal(pk.sigma(0.0), [[0.3, 0.0],
                                              [0.0, 0.3],
                                              [0.0, 0.0]])

    def test_two_type_mean_field(self):
        g = toy_game()
        other = MinorTypeParams(
            A=2.0, F=3.0, G=4.0, B=1.0, b=0.5, sigma=0.3,
            Q=1.0, S=0.0, R=1.0, Q_hat=0.0, H=1.0, H_hat=1.0, eta=0.0,
            delta=1.0, x0=1.0,
        )
        g2 = MajorMinorSpec(major=g.major, minors=[g.minors[0], other],
                            pi=[0.3, 0.7], T=1.0, n=1, m=1, r=1)
        A_breve, G_breve, B_breve = assemble_mean_field(g2.minors, g2.pi)
        assert np.allclose(A_breve, [[1.0 + 0.3, 0.7],
                                     [0.3 * 3.0, 2.0 + 0.7 * 3.0]])
        assert np.array_equal(G_breve, [[1.0], [4.0]])
        assert np.array_equal(B_breve, np.eye(2))
        # each type's extended drift offset leads with its own b_k
        pks = solve_consistency(g2, GRID).minor_problems
        assert [pk.b(0.0)[0] for pk in pks] == [0.0, 0.5]

    def test_eta_hat_sign_switch(self):
        g = toy_game()
        g.minors[0].eta = np.array([0.4])
        minus = assemble_minor(g, 0, eta_hat_sign=-1.0)
        plus = assemble_minor(g, 0, eta_hat_sign=+1.0)
        # only the mean-field rows of the linear term flip sign
        assert np.array_equal(minus.eta_bar[:2], plus.eta_bar[:2])
        assert np.array_equal(minus.eta_bar[2:], -plus.eta_bar[2:])
        assert minus.eta_bar[2] == -0.4


class TestConsistency:
    def test_toy_reduced_coefficients(self):
        eq = solve_consistency(toy_game(), GRID)
        P = eq.Pik[0].values
        # one-type reduction: dxbar = ((2 - P11 - P13) xbar + (1 - P12) x0) dt
        a = eq.A_bar.values[:, 0, 0]
        g = eq.G_bar.values[:, 0, 0]
        assert np.max(np.abs(a - (2.0 - P[:, 0, 0] - P[:, 0, 2]))) < 1e-13
        assert np.max(np.abs(g - (1.0 - P[:, 0, 1]))) < 1e-13
        assert np.all(eq.m_bar.values == 0.0)

    def test_toy_averaging_identity(self):
        eq = solve_consistency(toy_game(), GRID)
        P = eq.Pik[0].values
        Xi, vs = control_mean_field_coefficients(eq)
        assert np.max(np.abs(Xi[:, 0, 0] + P[:, 0, 1])) < 1e-13
        assert np.max(np.abs(Xi[:, 0, 1] + P[:, 0, 0] + P[:, 0, 2])) < 1e-13
        assert np.all(vs == 0.0)

    def test_refresh_matches_per_type_blocks(self):
        # the mean field written type by type: row block k of A_bar is
        # [pi_1 F_k, ..., pi_K F_k] + B_k K_mf plus A_k + B_k K_own on the
        # diagonal, of G_bar G_k + B_k K_x0, of m_bar b_k + B_k k_k
        spec = vector_game()
        grid = TimeGrid(1.0, 200)
        eq = solve_consistency(spec, grid)
        _, minor_laws = equilibrium_laws(eq)
        n = spec.n
        for k, (th, (Kk, kk)) in enumerate(zip(spec.minors, minor_laws)):
            BK = np.einsum("ij,tjk->tik", th.B, Kk.values)
            rows = slice(n * k, n * (k + 1))
            block = (np.concatenate([w * th.F for w in spec.pi], axis=1)
                     + BK[:, :, 2 * n:])
            block[:, :, n * k:n * (k + 1)] += th.A + BK[:, :, :n]
            G_k = th.G + BK[:, :, n:2 * n]
            m_k = half_grid_table(th.b, grid)[::2] + kk.values @ th.B.T
            assert np.max(np.abs(eq.A_bar.values[:, rows] - block)) < 1e-12
            assert np.max(np.abs(eq.G_bar.values[:, rows] - G_k)) < 1e-12
            assert np.max(np.abs(eq.m_bar.values[:, rows] - m_k)) < 1e-12

    def test_offset_averaging_identity(self):
        eq = solve_consistency(decoupled_game(), GRID)
        _, vs = control_mean_field_coefficients(eq)
        assert np.max(np.abs(vs[:, 0] + eq.sk[0].values[:, 0])) < 1e-13

    def test_flocking_convergence(self):
        eq = solve_consistency(flocking_game(), TimeGrid(1.0, 500))
        log = eq.iterations
        assert log.converged
        assert log.errors[-1] < 1e-10
        # strictly decreasing from the second sweep on
        tail = log.errors[1:]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_decoupled_matches_single_agent(self):
        g = decoupled_game()
        eq = solve_consistency(g, GRID)
        # without interaction the own-state block must reproduce the
        # standalone solve, and the sweep must settle immediately
        assert eq.iterations.iterations == 2
        # the tracking target enters the linear term through the state
        # weight: eta_single = Q * eta_target
        p = LqgProblem(A=-0.6, B=1.0, b=-0.05, sigma=0.3, Q=2.0, S=0.0,
                       R=1.0, eta=2.0 * -0.1, zeta=0.0, Q_hat=0.3, delta=0.5,
                       x0=0.5, T=1.0)
        sol = solve(p, GRID)
        assert np.max(np.abs(eq.Pik[0].values[:, 0, 0]
                             - sol.Pi.values[:, 0, 0])) < 1e-10
        assert np.max(np.abs(eq.sk[0].values[:, 0]
                             - sol.s.values[:, 0])) < 1e-10
        off_diag = eq.Pik[0].values[:, 0, 1:]
        assert np.max(np.abs(off_diag)) < 1e-12

    def test_terminal_conditions(self):
        g = decoupled_game()
        eq = solve_consistency(g, GRID)
        assert np.array_equal(eq.Pi0.values[-1], eq.major_ext.G_bb)
        assert np.array_equal(eq.Pik[0].values[-1], eq.minor_exts[0].G_bb)
        assert np.all(eq.s0.values[-1] == 0.0)
        assert np.all(eq.sk[0].values[-1] == 0.0)

    def test_not_converged(self):
        with pytest.raises(NotConverged) as exc:
            solve_consistency(flocking_game(), GRID, max_iter=1)
        assert exc.value.iterations == 1

    def test_callback_sees_every_sweep(self):
        seen = []
        solve_consistency(toy_game(), GRID,
                          callback=lambda j, A, G, m, e: seen.append((j, e)))
        assert [j for j, _ in seen] == list(range(1, len(seen) + 1))
        assert seen[-1][1] < 1e-10

    def test_relaxation_same_fixed_point(self):
        eq0 = solve_consistency(toy_game(), GRID)
        eq1 = solve_consistency(toy_game(), GRID, relaxation=0.3)
        assert np.max(np.abs(eq0.A_bar.values - eq1.A_bar.values)) < 1e-9


    def test_minors_see_major_closed_loop(self):
        # a major with S0 != 0 and eta0 != 0 has the linear control term
        # S0' eta0 in its offset k0, so the major drift the minors see
        # must be the full closed loop (A + B0 K0, M + B0 k0)
        spec = toy_game()
        spec.major.S = np.array([[0.3]])
        spec.major.eta = np.array([0.2])
        eq = solve_consistency(spec, GRID)
        (K0, k0), _ = equilibrium_laws(eq)
        B0, n = eq.major_ext.B_own, spec.n
        pk = eq.minor_problems[0]
        for i in (0, GRID.steps // 2, GRID.steps):
            t = GRID.nodes[i]
            A_cl = eq.major_problem.A(t) + B0 @ K0.values[i]
            M_cl = eq.major_problem.b(t) + B0 @ k0.values[i]
            assert np.max(np.abs(pk.A(t)[n:, n:] - A_cl)) < 1e-12
            assert np.max(np.abs(pk.b(t)[n:] - M_cl)) < 1e-12


class TestEquilibriumLaws:
    def test_final_sweep_laws_equal_feedback_law(self):
        eq = solve_consistency(vector_game(), GRID)
        major, minors = equilibrium_laws(eq)
        pairs = [(major, riccati.feedback_law(eq.major_problem, eq.Pi0,
                                              eq.s0))]
        pairs += [(law, riccati.feedback_law(pk, Pik, sk))
                  for law, pk, Pik, sk in zip(minors, eq.minor_problems,
                                              eq.Pik, eq.sk)]
        assert len(pairs) == 1 + eq.spec.K
        for (K, k), (K_ref, k_ref) in pairs:
            assert np.array_equal(K.values, K_ref.values)
            assert np.array_equal(k.values, k_ref.values)

    def test_shapes_and_gains(self):
        eq = solve_consistency(toy_game(), GRID)
        (K0, k0), [(K1, k1)] = equilibrium_laws(eq)
        assert K0.values.shape == (GRID.steps + 1, 1, 2)
        assert k0.values.shape == (GRID.steps + 1, 1)
        assert K1.values.shape == (GRID.steps + 1, 1, 3)
        # scalar toy: u = -(Pi x + s) with B = R = 1 and no cross weight
        assert np.allclose(K1.values[:, 0, :], -eq.Pik[0].values[:, 0, :],
                           atol=1e-13)
        assert np.allclose(K0.values[:, 0, :], -eq.Pi0.values[:, 0, :],
                           atol=1e-13)


def test_extended_coefficients_are_node_tables():
    eq = solve_consistency(vector_game(), GRID)
    for p in [eq.major_problem] + eq.minor_problems:
        for name in ("A", "b", "sigma"):
            value = getattr(p, name)
            assert isinstance(value, MatrixTrajectory), name
            assert value.grid == eq.grid, name


class TestMeanFieldTrajectory:
    def test_against_reference_integrator(self):
        eq = solve_consistency(decoupled_game(), GRID)
        x0_path = np.zeros((GRID.steps + 1, 1))
        xbar = mean_field_trajectory(eq, x0_path)
        t = GRID.nodes
        a = eq.A_bar.values[:, 0, 0]
        m = eq.m_bar.values[:, 0]

        def rhs(s, y):
            return np.interp(s, t, a) * y + np.interp(s, t, m)

        ref = solve_ivp(rhs, (0.0, 1.0), [0.5], t_eval=t,
                        rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(xbar.values[:, 0] - ref.y[0])) < 1e-7

    def test_accepts_trajectory_input(self):
        eq = solve_consistency(toy_game(), GRID)
        x0_path = np.zeros((GRID.steps + 1, 1))
        x1 = mean_field_trajectory(eq, x0_path)
        x2 = mean_field_trajectory(
            eq, type(eq.A_bar)(GRID, x0_path))
        assert np.array_equal(x1.values, x2.values)


def test_diffusion_tabulated_once_per_problem(monkeypatch):
    # solve_riccati and solve_offset share sigma sigma^T: one table for
    # each extended problem, the major's and every minor type's per sweep
    tabulated = []
    original = riccati._diffusion_table

    def counted(p, grid):
        tabulated.append(p)
        return original(p, grid)

    monkeypatch.setattr(riccati, "_diffusion_table", counted)
    game = vector_game()
    eq = solve_consistency(game, TimeGrid(t_end=1.0, steps=50))
    assert len(tabulated) == (1 + game.K) * eq.iterations.iterations
    assert len({id(p) for p in tabulated}) == len(tabulated)
