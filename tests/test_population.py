"""Tests for finite-population simulation, costs, and Nash-gap probes."""

import math

import numpy as np
import pytest
from conftest import decoupled_game, flocking_game, vector_game
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmfg import population, riccati
from rsmfg.errors import NonFiniteState, OutOfRange
from rsmfg.mfg import (
    agent_problem,
    equilibrium_laws,
    mean_field_trajectory,
    solve_consistency,
)
from rsmfg.model import LqgProblem, MajorMinorSpec, MajorParams, MinorTypeParams
from rsmfg.montecarlo import ControlLaw, simulate
from rsmfg.numerics import MatrixTrajectory, TimeGrid, half_grid_table
from rsmfg.population import (
    apportion,
    assignment_from_counts,
    default_deviation_family,
    exact_cost,
    exact_nash_gap,
    finite_cost,
    fluctuation_statistics,
    nash_gap,
    paired_log_diff,
    simulate_population,
    simulate_population_laws,
    type_mismatch,
)
from rsmfg.riccati import solve

GRID = TimeGrid(t_end=1.0, steps=200)


@pytest.fixture(scope="module")
def flocking_eq():
    spec = flocking_game()
    return spec, solve_consistency(spec, GRID)


@pytest.fixture(scope="module")
def decoupled_eq():
    spec = decoupled_game()
    return spec, solve_consistency(spec, TimeGrid(1.0, 500))


def noiseless_game():
    # initial states differ so the tracking residuals are nonzero
    g = flocking_game()
    g.major.sigma = np.array([[0.0]])
    g.minors[0].sigma = np.array([[0.0]])
    g.minors[0].x0 = np.array([0.2])
    return MajorMinorSpec(major=g.major, minors=g.minors, pi=g.pi,
                          T=g.T, n=1, m=1, r=1)


def assert_deviator_column(run, col):
    # a deviation run holds the deviator's cost and path only; NaN means
    # not computed
    assert np.all(np.isfinite(run.exponents[:, col]))
    assert np.all(np.isfinite(run.paths[:, col]))
    assert np.all(np.isnan(np.delete(run.exponents, col, axis=1)))
    assert np.all(np.isnan(np.delete(run.paths, col, axis=1)))
    for field in (run.fluct_sup, run.fluct_T, run.empirical_avg):
        assert np.all(np.isnan(field))


def euler_reference(spec, eq, N, override, n_reps, seed):
    """Every agent of the population stepped in full, one replication
    axis, plain matrix products.

    Same step order and coupling timing as the engine: controls and costs
    at node i, then xbar and the major step from node i, then the minors
    with a coupling that reads the major's advanced state.  Minor slot j
    draws from the stream (seed, j), the major from (seed, N).  Returns
    (exponents, paths of replication 0, fluct_sup, empirical_avg of
    replication 0).
    """
    grid = eq.grid
    M, h = grid.steps, grid.h
    n, K = spec.n, spec.K
    maj, minors = spec.major, spec.minors
    types = assignment_from_counts(apportion(spec.pi, N))
    agents = [maj] + [minors[k] for k in types]
    (K0, k0), minor_laws = equilibrium_laws(eq)
    laws = [(K0.values, k0.values)] + [
        (minor_laws[k][0].values, minor_laws[k][1].values) for k in types]
    if override is not None:
        agent, law = override
        laws[0 if agent == "major" else 1 + agent] = (law.K, law.k)
    z = [np.random.Generator(np.random.Philox(key=[seed, key]))
         .standard_normal((n_reps, M, spec.r))
         for key in [N] + list(range(N))]
    b, sigma = ([half_grid_table(getattr(p, name), grid)[::2] for p in agents]
                for name in ("b", "sigma"))
    x = np.empty((n_reps, 1 + N, n))
    for a, p in enumerate(agents):
        x[:, a] = p.x0
    xbar = np.tile(np.concatenate([th.x0 for th in minors]), (n_reps, 1))
    lam = np.zeros((n_reps, 1 + N))
    sup = np.zeros(n_reps)
    paths = np.empty((M + 1, 1 + N, n))
    avg = np.empty((M + 1, n))
    for i in range(M + 1):
        xhat = np.concatenate([x[:, 1:][:, types == k].mean(axis=1)
                               for k in range(K)], axis=1)
        xN = x[:, 1:].mean(axis=1)
        ext0 = np.concatenate([x[:, 0], xhat], axis=1)
        w = h if 0 < i < M else 0.5 * h
        us = []
        for a, p in enumerate(agents):
            if a == 0:
                ext = ext0
                r = x[:, 0] - (xN @ p.H.T + p.eta)
            else:
                ext = np.concatenate([x[:, a], ext0], axis=1)
                r = x[:, a] - (x[:, 0] @ p.H.T + xN @ p.H_hat.T + p.eta)
            gain, offset = laws[a]
            u = ext @ gain[i].T + offset[i]
            us.append(u)
            lam[:, a] += w * (0.5 * np.einsum("pi,ij,pj->p", r, p.Q, r)
                              + np.einsum("pi,ij,pj->p", r, p.S, u)
                              + 0.5 * np.einsum("pi,ij,pj->p", u, p.R, u))
            if i == M:
                lam[:, a] += 0.5 * np.einsum("pi,ij,pj->p", r, p.Q_hat, r)
        sup = np.maximum(sup, np.max(np.abs(xhat - xbar), axis=1))
        paths[i] = x[0]
        avg[i] = xN[0]
        if i == M:
            break
        xbar = xbar + (xbar @ eq.A_bar.values[i].T
                       + x[:, 0] @ eq.G_bar.values[i].T
                       + eq.m_bar.values[i]) * h
        new = x.copy()
        for a, p in enumerate(agents):
            coupling = xN @ p.F.T + (0.0 if a == 0 else new[:, 0] @ p.G.T)
            new[:, a] += (x[:, a] @ p.A.T + us[a] @ p.B.T + coupling
                          + b[a][i]) * h
            new[:, a] += z[a][:, i] @ sigma[a][i].T * math.sqrt(h)
        x = new
    deltas = np.array([p.delta for p in agents])
    return deltas * lam, paths, sup, avg


class TestApportionment:
    def test_exact_split(self):
        assert np.array_equal(apportion([0.5, 0.5], 4), [2, 2])
        assert np.array_equal(apportion([0.6, 0.4], 5), [3, 2])

    def test_largest_remainder(self):
        assert np.array_equal(apportion([0.55, 0.45], 2), [1, 1])
        assert np.array_equal(apportion([0.7, 0.2, 0.1], 10), [7, 2, 1])

    def test_assignment_layout(self):
        a = assignment_from_counts(np.array([2, 0, 3]))
        assert np.array_equal(a, [0, 0, 2, 2, 2])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200),
           st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    def test_mismatch_bound(self, N, raw):
        pi = np.array(raw) / np.sum(raw)
        counts = apportion(pi, N)
        assert counts.sum() == N
        assert np.all(counts >= 0)
        assert type_mismatch(pi, N) <= len(pi) / N + 1e-12


class TestSimulatePopulation:
    def test_decoupled_single_minor_bitwise(self, decoupled_eq):
        # one decoupled minor driven by stream [seed, 0] must retrace the
        # single-agent simulator's path 0 exactly
        spec, eq = decoupled_eq
        grid = eq.grid
        p = LqgProblem(A=-0.6, B=1.0, b=-0.05, sigma=0.3, Q=2.0, S=0.0,
                       R=1.0, eta=2.0 * -0.1, zeta=0.0, Q_hat=0.3,
                       delta=0.5, x0=0.5, T=1.0)
        sol = solve(p, grid)
        M = grid.steps
        K_pad = np.zeros((M + 1, 1, 3))
        K_pad[:, :, :1] = sol.K_gain.values
        law = ControlLaw(K_pad, sol.k_offset.values)
        ens = simulate(p, sol, 1, seed=7, grid=grid, store_paths=True)
        run = simulate_population_laws(spec, eq, 1, [(0, law)], n_reps=1,
                                       seed=7)[0]
        assert np.array_equal(run.paths[:, 1, :], ens.states[0])

    def test_decoupled_2d_minor_bitwise(self):
        # the matrix branches: n = m = r = 2 with a full sigma and no
        # coupling, so the one minor retraces the single-agent path 0
        minor = dict(A=[[-0.6, 0.2], [0.1, -0.4]], B=[[1.0, 0.0], [0.2, 1.0]],
                     b=[-0.05, 0.1], sigma=[[0.3, 0.1], [-0.05, 0.2]],
                     Q=[[2.0, 0.1], [0.1, 1.0]], S=[[0.1, 0.0], [0.0, 0.05]],
                     R=[[1.0, 0.1], [0.1, 1.5]], Q_hat=0.3 * np.eye(2),
                     delta=0.5, x0=[0.5, -0.3])
        zero = np.zeros((2, 2))
        major = MajorParams(
            A=-0.4 * np.eye(2), F=zero, B=np.eye(2), b=[0.1, 0.0],
            sigma=0.4 * np.eye(2), Q=np.eye(2), S=zero, R=np.eye(2),
            Q_hat=zero, H=zero, eta=[0.2, 0.0], delta=0.5, x0=[1.0, 0.0])
        spec = MajorMinorSpec(
            major=major,
            minors=[MinorTypeParams(F=zero, G=zero, H=zero, H_hat=zero,
                                    eta=[-0.1, 0.2], **minor)],
            pi=[1.0], T=1.0, n=2, m=2, r=2)
        grid = TimeGrid(1.0, 200)
        eq = solve_consistency(spec, grid)
        p = LqgProblem(eta=np.asarray(minor["Q"]) @ [-0.1, 0.2],
                       zeta=[0.0, 0.0], T=1.0, **minor)
        sol = solve(p, grid)
        K_pad = np.zeros((grid.steps + 1, 2, 6))
        K_pad[:, :, :2] = sol.K_gain.values
        law = ControlLaw(K_pad, sol.k_offset.values)
        ens = simulate(p, sol, 1, seed=7, grid=grid, store_paths=True)
        run = simulate_population_laws(spec, eq, 1, [(0, law)], n_reps=1,
                                       seed=7)[0]
        assert np.array_equal(run.paths[:, 1, :], ens.states[0])

    def test_budget_chunks(self, monkeypatch):
        # a noise budget of one or three replications forces chunks of
        # that size; the results must not see it
        spec = vector_game()
        eq = solve_consistency(spec, TimeGrid(1.0, 50))
        laws = [None, (1, default_deviation_family(eq, 1)[0][1])]
        whole = simulate_population_laws(spec, eq, 5, laws, n_reps=7, seed=2)
        # bytes per replication: the 2M kicks and M normals of each of the
        # 1+N agents and one agent's M normals
        per_rep = 8 * 50 * (6 * 2 + 6 * 1 + 1)
        sizes = []
        draw = population._noise_kicks

        def recording(gens, c, *args):
            sizes.append(c)
            return draw(gens, c, *args)

        monkeypatch.setattr(population, "_noise_kicks", recording)
        for cap in (1, 3):
            sizes.clear()
            monkeypatch.setattr(population, "NOISE_BUDGET_BYTES",
                                cap * per_rep)
            runs = simulate_population_laws(spec, eq, 5, laws, n_reps=7,
                                            seed=2)
            # one draw for the major and one per type in every chunk
            assert sizes[::3] == [min(cap, 7 - s) for s in range(0, 7, cap)]
            for run, ref in zip(runs, whole):
                assert np.array_equal(run.exponents, ref.exponents,
                                      equal_nan=True)
                assert np.array_equal(run.fluct_sup, ref.fluct_sup,
                                      equal_nan=True)
                assert np.array_equal(run.paths, ref.paths, equal_nan=True)
        # the deviation run computes the deviator's cost and path only
        assert_deviator_column(whole[1], 2)

    def test_chunk_independence(self, flocking_eq):
        spec, eq = flocking_eq
        r1 = simulate_population(spec, eq, N=4, n_reps=25, seed=3, chunk=7)
        r2 = simulate_population(spec, eq, N=4, n_reps=25, seed=3, chunk=512)
        assert np.array_equal(r1.exponents, r2.exponents)
        assert np.array_equal(r1.fluct_sup, r2.fluct_sup)

    def test_type_sums_in_key_order_at_chunk_one(self):
        # with one replication per chunk the agent axis is contiguous,
        # along which numpy sums pairwise from 8 terms on; types of 12 and
        # 8 minors must still be summed in key order, as at other sizes
        spec = vector_game()
        eq = solve_consistency(spec, TimeGrid(1.0, 40))
        assert list(apportion(spec.pi, 20)) == [12, 8]
        laws = [None, (0, default_deviation_family(eq, 0)[0][1])]
        one, seven = (simulate_population_laws(spec, eq, 20, laws, n_reps=7,
                                               seed=4, chunk=c)
                      for c in (1, 7))
        for a, b in zip(one, seven):
            assert np.array_equal(a.exponents, b.exponents, equal_nan=True)
            assert np.array_equal(a.fluct_sup, b.fluct_sup, equal_nan=True)
            assert np.array_equal(a.paths, b.paths, equal_nan=True)

    def test_exchangeability(self, flocking_eq):
        # relabeling same-type agents together with their noise streams
        # leaves the empirical average and the major path bitwise intact
        spec, eq = flocking_eq
        r1 = simulate_population(spec, eq, N=4, n_reps=2, seed=11)
        r2 = simulate_population(spec, eq, N=4, n_reps=2, seed=11,
                                 agent_keys=[2, 0, 3, 1])
        assert np.array_equal(r1.empirical_avg, r2.empirical_avg)
        assert np.array_equal(r1.paths[:, 0], r2.paths[:, 0])
        assert np.array_equal(np.sort(r1.exponents[:, 1:], axis=1),
                              np.sort(r2.exponents[:, 1:], axis=1))

    @pytest.mark.parametrize("keys", [[0, 0, 1, 2], [0, 1, 2, 4]],
                             ids=["repeated", "key-N"])
    def test_agent_keys_must_relabel(self, flocking_eq, keys):
        # a repeated key, or the major's key N, would give two agents one
        # noise stream
        spec, eq = flocking_eq
        with pytest.raises(OutOfRange, match="agent_keys"):
            simulate_population(spec, eq, N=4, n_reps=2, seed=11,
                                agent_keys=keys)

    def test_vector_game_law_axis(self):
        # matrix-valued coefficients, two types, r != n: one call with a
        # law axis equals separate runs, at any chunk size, and relabeling
        # within types permutes the minors' exponents only
        spec = vector_game()
        eq = solve_consistency(spec, TimeGrid(1.0, 100))
        overrides = [None,
                     ("major", default_deviation_family(eq, "major")[0][1]),
                     (3, default_deviation_family(eq, 3, type_index=1)[1][1])]
        runs = simulate_population_laws(spec, eq, 5, overrides, n_reps=9,
                                        seed=3, chunk=4)
        for ov, run in zip(overrides, runs):
            alone = simulate_population_laws(spec, eq, 5, [ov], n_reps=9,
                                             seed=3)[0]
            assert np.array_equal(run.exponents, alone.exponents,
                                  equal_nan=True)
            assert np.array_equal(run.paths, alone.paths, equal_nan=True)
            assert np.array_equal(run.fluct_sup, alone.fluct_sup,
                                  equal_nan=True)
        assert not np.array_equal(runs[0].exponents, runs[1].exponents)
        assert_deviator_column(runs[1], 0)
        assert_deviator_column(runs[2], 4)
        swapped = simulate_population(spec, eq, 5, n_reps=9, seed=3,
                                      agent_keys=[1, 2, 0, 4, 3])
        assert np.array_equal(swapped.empirical_avg, runs[0].empirical_avg)
        assert np.array_equal(swapped.exponents[:, [0, 3, 1, 2, 5, 4]],
                              runs[0].exponents)

    @pytest.mark.parametrize("game", ["vector", "flocking"])
    def test_reduced_engine_matches_full_population(self, game):
        # the deviation laws' type-shared shifts against every agent
        # stepped in full, through the deviator's cost and path; a chunk
        # smaller than n_reps, and the deviators are the major, a type-0
        # and (vector game) a type-1 slot
        spec = vector_game() if game == "vector" else flocking_game()
        eq = solve_consistency(spec, TimeGrid(1.0, 50))
        N, types = 7, assignment_from_counts(apportion(spec.pi, 7))
        deviators = ["major", 1] + ([5] if game == "vector" else [])
        overrides = [None] + [
            (a, default_deviation_family(
                eq, a, 0 if a == "major" else types[a])[j][1])
            for a in deviators for j in (0, 5)]
        runs = simulate_population_laws(spec, eq, N, overrides, n_reps=5,
                                        seed=4, chunk=2)

        def close(a, b):
            return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

        for ov, run in zip(overrides, runs):
            w, paths, sup, avg = euler_reference(spec, eq, N, ov, 5, 4)
            if ov is None:
                assert close(run.exponents, w)
                assert close(run.paths, paths)
                assert close(run.fluct_sup, sup)
                assert close(run.empirical_avg, avg)
                continue
            col = 0 if ov[0] == "major" else 1 + ov[0]
            assert close(run.exponents[:, col], w[:, col]), ov
            assert close(run.paths[:, col], paths[:, col]), ov
            assert_deviator_column(run, col)

    @pytest.mark.parametrize("agent", ["major", 1])
    def test_deviation_blowup_raises(self, flocking_eq, agent):
        # a gain x1e5 law drives the deviation's population past the
        # blow-up bound within a few steps
        spec, eq = flocking_eq
        family = default_deviation_family(eq, agent, gain_factors=(1e5,),
                                          offset_shifts=())
        with pytest.raises(NonFiniteState):
            simulate_population_laws(spec, eq, 3, [None, (agent,
                                                          family[0][1])],
                                     n_reps=4, seed=1)
        with pytest.raises(NonFiniteState):
            nash_gap(spec, eq, agent, family, N=3, n_reps=4, seed=1)

    def test_noiseless_matches_mean_field(self):
        spec = noiseless_game()
        eq = solve_consistency(spec, GRID)
        run = simulate_population(spec, eq, N=10, n_reps=1, seed=0)
        xbar = mean_field_trajectory(eq, run.paths[:, 0, :])
        err = np.max(np.abs(run.empirical_avg[:, 0] - xbar.values[:, 0]))
        assert err < 1e-4

    def test_grid_mismatch_rejected(self, flocking_eq):
        spec, eq = flocking_eq
        with pytest.raises(OutOfRange):
            simulate_population(spec, eq, N=2, grid=TimeGrid(1.0, 100))

    def test_type_without_agents_rejected(self):
        # apportion([0.6, 0.4], 1) = [1, 0]
        spec = vector_game()
        eq = solve_consistency(spec, TimeGrid(1.0, 50))
        with pytest.raises(OutOfRange, match="N=1"):
            simulate_population(spec, eq, N=1, n_reps=2)

    def test_seed_determinism(self, flocking_eq):
        spec, eq = flocking_eq
        r1 = simulate_population(spec, eq, N=3, n_reps=10, seed=5)
        r2 = simulate_population(spec, eq, N=3, n_reps=10, seed=5)
        r3 = simulate_population(spec, eq, N=3, n_reps=10, seed=6)
        assert np.array_equal(r1.exponents, r2.exponents)
        assert not np.array_equal(r1.exponents, r3.exponents)


class TestFiniteCost:
    def test_zero_cost_matrices(self):
        major = MajorParams(A=-1.0, F=0.5, B=1.0, b=0.0, sigma=0.3,
                            Q=0.0, S=0.0, R=1.0, Q_hat=0.0, H=1.0,
                            eta=0.0, delta=1.0, x0=1.0)
        minor = MinorTypeParams(A=-1.0, F=0.5, G=0.5, B=1.0, b=0.0,
                                sigma=0.3, Q=0.0, S=0.0, R=1.0, Q_hat=0.0,
                                H=1.0, H_hat=1.0, eta=0.0, delta=1.0, x0=1.0)
        spec = MajorMinorSpec(major=major, minors=[minor], pi=[1.0],
                              T=1.0, n=1, m=1, r=1)
        eq = solve_consistency(spec, GRID)
        run = simulate_population(spec, eq, N=3, n_reps=5, seed=1)
        assert finite_cost(run, "major").log_value == 0.0
        assert finite_cost(run, 0).log_value == 0.0

    def test_deterministic_oracle(self):
        # zero diffusion and no coupling: the minor's noise-free population
        # cost must match the single-agent forward RK4 reference
        from test_montecarlo import rk4_log_cost

        g = decoupled_game()
        g.major.sigma = np.array([[0.0]])
        g.minors[0].sigma = np.array([[0.0]])
        g.minors[0].eta = np.array([0.0])
        g.major.eta = np.array([0.0])
        spec = MajorMinorSpec(major=g.major, minors=g.minors, pi=g.pi,
                              T=1.0, n=1, m=1, r=1)
        grid = TimeGrid(1.0, 500)
        eq = solve_consistency(spec, grid)
        p = LqgProblem(A=-0.6, B=1.0, b=-0.05, sigma=0.0, Q=2.0, S=0.0,
                       R=1.0, eta=0.0, zeta=0.0, Q_hat=0.3, delta=0.5,
                       x0=0.5, T=1.0)
        sol = solve(p, grid)
        oracle = rk4_log_cost(p, sol, grid)
        assert abs(exact_cost(spec, eq, 0, 1) - oracle) < 1e-6

    @pytest.mark.parametrize("agent", [None, "major", 0],
                             ids=["equilibrium", "major", "minor"])
    def test_euler_converges_to_rk4(self, agent):
        # the noise-free cost is the continuous-time limit of the Euler
        # engine; under a gain x0.9 deviation the deviator's is compared
        spec = noiseless_game()
        errs = []
        for steps in (200, 2000):
            grid = TimeGrid(1.0, steps)
            eq = solve_consistency(spec, grid)
            override = None if agent is None else (
                agent, default_deviation_family(eq, agent, gain_factors=(0.9,),
                                                offset_shifts=())[0][1])
            em = simulate_population_laws(spec, eq, 3, [override], n_reps=1,
                                          seed=0)[0]
            col = 0 if agent is None else agent
            exact = exact_cost(spec, eq, col, 3,
                                    None if override is None else override[1])
            errs.append(abs(finite_cost(em, col).log_value - exact))
        assert errs[1] < errs[0] / 5.0

    def test_exact_cost_shared_by_a_type(self):
        # every slot of a type has the same cost; the values are those of
        # scipy's DOP853 (rtol 1e-13) run over all 1+N agents in full, node
        # interval by node interval, with the laws read by the piecewise
        # cubic whose midpoint values are half_grid_table's
        g = vector_game()
        g.major.sigma = np.zeros((2, 1))
        for th in g.minors:
            th.sigma = np.zeros((2, 1))
        spec = MajorMinorSpec(major=g.major, minors=g.minors, pi=g.pi,
                              T=1.0, n=2, m=1, r=1)
        eq = solve_consistency(spec, GRID)
        costs = [exact_cost(spec, eq, j, 7) for j in range(7)]
        assert costs[:4] == [costs[0]] * 4
        assert costs[4:] == [costs[4]] * 3
        assert abs(costs[0] - 0.011356583777871338) < 1e-12
        assert abs(costs[4] - 0.014211311011119197) < 1e-12
        assert abs(exact_cost(spec, eq, "major", 7)
                   - 0.11116246781931056) < 1e-11
        with pytest.raises(OutOfRange, match="no agents"):
            exact_cost(spec, eq, 0, 1)
        with pytest.raises(OutOfRange, match="not in the population"):
            exact_cost(spec, eq, 7, 7)

    def test_exact_cost_is_extended_law_cost(self):
        # without noise every minor of a type follows the mean field, so
        # an agent's population cost is its extended problem's law_cost
        # plus the constant delta/2 (T eta'Q eta + eta'Q_hat eta), which
        # the extended problem leaves out; S, eta, Q_hat and H_hat are
        # nonzero for the major and both types
        g = vector_game()
        g.major.sigma = np.zeros((2, 1))
        g.major.S = np.array([[0.2], [0.1]])
        g.major.eta = np.array([0.3, -0.2])
        for th, s in zip(g.minors, (0.1, 0.15)):
            th.sigma = np.zeros((2, 1))
            th.S = np.array([[s], [0.05]])
            th.eta = np.array([0.1, -0.25])
        spec = MajorMinorSpec(major=g.major, minors=g.minors, pi=[0.6, 0.4],
                              T=1.0, n=2, m=1, r=1)
        grid = TimeGrid(1.0, 500)
        eq = solve_consistency(spec, grid)
        (K0, k0), minor_laws = equilibrium_laws(eq)
        types = assignment_from_counts(apportion(spec.pi, 10))
        cases = [("major", spec.major, eq.major_problem, (K0, k0))] + [
            (int(np.flatnonzero(types == k)[0]), th, pk, law)
            for k, (th, pk, law) in enumerate(
                zip(spec.minors, eq.minor_problems, minor_laws))]
        for agent, a, p, law in cases:
            constant = 0.5 * a.delta * (spec.T * a.eta @ a.Q @ a.eta
                                        + a.eta @ a.Q_hat @ a.eta)
            expected = riccati.law_cost(p, *law, grid) + constant
            assert abs(exact_cost(spec, eq, agent, 10)
                       - expected) < 1e-11

    @pytest.mark.parametrize("game", [flocking_game, vector_game])
    def test_exact_cost_approaches_the_limit_as_one_over_n(self, game):
        # the limit is the law_cost of the limit problem against the same
        # laws, plus the constant of the tracking cost; N (cost - limit)
        # settles, measured 0.2129 for the flocking major and 8.53e-4 for
        # the vector game's
        spec = game()
        eq = solve_consistency(spec, GRID)
        laws = equilibrium_laws(eq)
        for k, agent, a, law in [(None, "major", spec.major, laws[0]),
                                 (0, 0, spec.minors[0], laws[1][0])]:
            constant = 0.5 * a.delta * (spec.T * a.eta @ a.Q @ a.eta
                                        + a.eta @ a.Q_hat @ a.eta)
            limit = riccati.law_cost(agent_problem(spec, GRID, k, None,
                                                   laws)[0], *law, GRID)
            scaled = [N * (exact_cost(spec, eq, agent, N) - limit - constant)
                      for N in (10 ** 4, 10 ** 6)]
            assert scaled[1] == pytest.approx(scaled[0], rel=1e-2)

    def test_major_cost_near_infinite_population(self, flocking_eq):
        spec, eq = flocking_eq
        from rsmfg.montecarlo import estimate_cost

        run = simulate_population(spec, eq, N=80, n_reps=2000, seed=9)
        est_N = finite_cost(run, "major")
        (K0, k0), _ = equilibrium_laws(eq)
        ens = simulate(eq.major_problem, ControlLaw(K0.values, k0.values),
                       2000, seed=10, grid=eq.grid)
        est_inf = estimate_cost(ens)
        pooled = math.hypot(est_N.std_error, est_inf.std_error)
        assert abs(est_N.log_value - est_inf.log_value) <= 3.0 * pooled

    def test_unknown_agent(self, flocking_eq):
        spec, eq = flocking_eq
        run = simulate_population(spec, eq, N=2, n_reps=2, seed=0)
        with pytest.raises(OutOfRange):
            finite_cost(run, 5)


@pytest.mark.parametrize("agent", [2.5, "minor", True, -1, 3])
@pytest.mark.parametrize("entry", ["simulate_population_laws", "nash_gap",
                                   "exact_cost", "finite_cost"])
def test_agent_outside_population_rejected(entry, agent):
    # "major" or an integral, non-bool slot in [0, N) at N = 3, nothing else
    spec = noiseless_game()
    eq = solve_consistency(spec, TimeGrid(1.0, 20))
    _, minor_laws = equilibrium_laws(eq)
    calls = {
        "simulate_population_laws": lambda: simulate_population_laws(
            spec, eq, 3, [(agent, minor_laws[0])], n_reps=2),
        "nash_gap": lambda: nash_gap(spec, eq, agent, N=3, n_reps=2),
        "exact_cost": lambda: exact_cost(spec, eq, agent, 3),
        "finite_cost": lambda: finite_cost(
            simulate_population(spec, eq, N=3, n_reps=2), agent),
    }
    with pytest.raises(OutOfRange, match="not in the population"):
        calls[entry]()


@pytest.fixture(scope="module")
def fine_eqs():
    grid = TimeGrid(1.0, 2000)
    return {game.__name__: (game(), solve_consistency(game(), grid))
            for game in (flocking_game, vector_game, decoupled_game)}


class TestExactNashGap:
    # epsilon_N at M = 2000; the paper's limiting Nash claim is epsilon -> 0,
    # Huang 2010 bounds it by O(1/sqrt N), and the exact LQ gap falls as N^-2

    @pytest.mark.parametrize("agent, gaps", [
        ("major", (8.49e-7, 4.50e-8, 2.69e-9)),
        (0, (1.04e-4, 7.25e-6, 4.65e-7))], ids=["major", "minor"])
    def test_flocking_values(self, fine_eqs, agent, gaps):
        spec, eq = fine_eqs["flocking_game"]
        assert [exact_nash_gap(spec, eq, agent, N) for N in (5, 20, 80)] \
            == pytest.approx(gaps, rel=5e-3)

    @pytest.mark.parametrize("game, agent", [
        ("flocking_game", "major"), ("flocking_game", 0),
        ("vector_game", 0), ("vector_game", -1)])
    def test_decay_and_limit(self, fine_eqs, game, agent):
        spec, eq = fine_eqs[game]
        Ns = (5, 20, 80)
        gaps = [exact_nash_gap(spec, eq, N - 1 if agent == -1 else agent, N)
                for N in Ns]
        assert min(gaps) >= -1e-12
        slope = np.polyfit(np.log(Ns), np.log(gaps), 1)[0]
        assert -2.3 <= slope <= -1.7
        last = 10 ** 6 - 1 if agent == -1 else agent
        assert abs(exact_nash_gap(spec, eq, last, 10 ** 6)) < 1e-12

    @pytest.mark.parametrize("game, agent", [
        ("flocking_game", "major"), ("flocking_game", 0),
        ("vector_game", 0), ("vector_game", -1)])
    def test_coarse_grid_within_five_percent(self, fine_eqs, game, agent):
        # epsilon_N is already resolved at M = 200; the vector major sits
        # at the rounding floor and is left out
        spec, eq = fine_eqs[game]
        coarse = solve_consistency(spec, GRID)
        for N in (5, 20, 80):
            slot = N - 1 if agent == -1 else agent
            assert exact_nash_gap(spec, coarse, slot, N) == pytest.approx(
                exact_nash_gap(spec, eq, slot, N), rel=0.05)

    def test_vector_major_at_the_rounding_floor(self, fine_eqs):
        spec, eq = fine_eqs["vector_game"]
        for N in (5, 20, 80, 10 ** 6):
            assert abs(exact_nash_gap(spec, eq, "major", N)) < 1e-10

    def test_decoupled_game_has_no_gap(self, fine_eqs):
        spec, eq = fine_eqs["decoupled_game"]
        for agent in ("major", 0):
            assert [exact_nash_gap(spec, eq, agent, N)
                    for N in (5, 20, 10 ** 6)] == [0.0] * 3


class TestNashGap:
    def test_equilibrium_family_zero_gap(self, flocking_eq):
        spec, eq = flocking_eq
        (K0, k0), _ = equilibrium_laws(eq)
        family = [("equilibrium", ControlLaw(K0.values, k0.values))]
        rep = nash_gap(spec, eq, "major", family, N=3, n_reps=50, seed=2)
        assert rep.gap <= 1e-12
        assert rep.gap_std_error >= 0.0

    def test_gap_nonnegative_and_paired(self, flocking_eq):
        spec, eq = flocking_eq
        rep = nash_gap(spec, eq, "major", N=5, n_reps=2000, seed=4)
        assert rep.gap >= 0.0
        assert len(rep.deviations) == 6
        assert rep.best_label in [label for label, _ in rep.deviations]

    def test_gap_shrinks_with_population(self, flocking_eq):
        spec, eq = flocking_eq
        reps = [nash_gap(spec, eq, "major", N=N, n_reps=4000, seed=8)
                for N in (5, 20)]
        pooled = math.hypot(reps[0].gap_std_error, reps[1].gap_std_error)
        assert reps[1].gap <= reps[0].gap + 3.0 * pooled

    def test_shared_noise_matches_separate_runs(self, flocking_eq):
        # advancing every law on one noise draw must not change what each
        # law's own run gives: estimates agree bitwise with separate runs
        spec, eq = flocking_eq
        for agent in ("major", 1):
            family = default_deviation_family(eq, agent)
            rep = nash_gap(spec, eq, agent, family, N=4, n_reps=30, seed=21)
            base = simulate_population(spec, eq, N=4, n_reps=30, seed=21)
            assert rep.equilibrium == finite_cost(base, agent)
            for (label, law), (rep_label, est) in zip(family,
                                                      rep.deviations):
                run = simulate_population_laws(spec, eq, 4, [(agent, law)],
                                               n_reps=30, seed=21)[0]
                assert rep_label == label
                assert est == finite_cost(run, agent)

    def test_default_family_follows_slot_type(self):
        # slot 3 is a type-1 minor at N=5, so its default deviations
        # perturb type 1's law
        spec = vector_game()
        eq = solve_consistency(spec, TimeGrid(1.0, 50))
        rep = nash_gap(spec, eq, 3, N=5, n_reps=20, seed=1)
        ref = nash_gap(spec, eq, 3, default_deviation_family(eq, 3, 1),
                       N=5, n_reps=20, seed=1)
        assert rep.deviations == ref.deviations

    def test_infinite_population_sanity(self, flocking_eq):
        # on the limiting extended problem no deviation from the family
        # may beat the equilibrium law beyond noise
        spec, eq = flocking_eq
        p0 = eq.major_problem
        family = default_deviation_family(eq, "major")
        (K0, k0), _ = equilibrium_laws(eq)
        base = ControlLaw(K0.values, k0.values)
        w_eq = simulate(p0, base, 4000, seed=13, grid=eq.grid).log_weights
        for label, law in family:
            w_dev = simulate(p0, law, 4000, seed=13, grid=eq.grid).log_weights
            diff, se = paired_log_diff(w_eq, w_dev)
            assert diff <= 3.0 * se, label


class TestFluctuations:
    def test_slope_near_clt_rate(self, flocking_eq):
        spec, eq = flocking_eq
        stats = fluctuation_statistics(spec, eq, (5, 20, 80),
                                       n_reps=400, seed=17)
        assert -0.65 <= stats.slope_terminal <= -0.35
        assert -0.65 <= stats.slope_sup <= -0.35
        assert np.all(np.diff(stats.mean_terminal) < 0.0)

    def test_single_N_has_no_slope(self, flocking_eq):
        # one N leaves nothing to fit a decay rate to
        spec, eq = flocking_eq
        stats = fluctuation_statistics(spec, eq, (5,), n_reps=20, seed=17)
        assert stats.mean_sup[0] > 0.0 and stats.mean_terminal[0] > 0.0
        assert stats.slope_sup is None and stats.slope_terminal is None
