"""Tests for parameter containers and assumption validation."""

import pickle

import numpy as np
import pytest

from conftest import on_grid, vector_game
from rsmfg.cli import bundled_config, parse_config
from rsmfg.errors import AssumptionViolated, DimensionMismatch
from rsmfg.model import (
    LqgProblem,
    MajorMinorSpec,
    MajorParams,
    MinorTypeParams,
    scalar_problem,
    validate_game,
    validate_single,
)
from rsmfg.numerics import MatrixTrajectory, TimeGrid, half_grid_table


def toy_game():
    """All-ones coefficients, one minor type, unit weight."""
    major = MajorParams(
        A=1.0, F=1.0, B=1.0, b=0.0, sigma=0.3,
        Q=1.0, S=0.0, R=1.0, Q_hat=0.0, H=1.0, eta=0.0,
        delta=1.0, x0=1.0,
    )
    minor = MinorTypeParams(
        A=1.0, F=1.0, G=1.0, B=1.0, b=0.0, sigma=0.3,
        Q=1.0, S=0.0, R=1.0, Q_hat=0.0, H=1.0, H_hat=1.0, eta=0.0,
        delta=1.0, x0=1.0,
    )
    return MajorMinorSpec(major=major, minors=[minor], pi=[1.0],
                          T=1.0, n=1, m=1, r=1)


class TestValidateSingle:
    def test_basic_valid(self):
        p = scalar_problem(Q=1.0, S=0.0, R=1.0, Q_hat=0.0)
        assert validate_single(p) is p

    def test_r_not_pd(self):
        p = scalar_problem(R=1.0)
        p.R = np.array([[0.0]])
        with pytest.raises(AssumptionViolated, match="R positive definite"):
            validate_single(p)

    def test_cost_coupling_condition(self):
        # Q=1, S=1, R=0.5 gives Q - S R^-1 S^T = -1
        p = scalar_problem(Q=1.0, S=1.0, R=0.5)
        with pytest.raises(AssumptionViolated, match="S R"):
            validate_single(p)

    def test_delta_open_interval(self):
        p = scalar_problem()
        p.delta = 0.0
        with pytest.raises(AssumptionViolated, match="delta"):
            validate_single(p)

    def test_q_hat_psd(self):
        p = scalar_problem(Q_hat=-1.0)
        with pytest.raises(AssumptionViolated, match="Q_hat"):
            validate_single(p)

    def test_matrix_instance(self):
        rng = np.random.default_rng(0)
        n, m = 3, 2
        L = rng.standard_normal((n, n))
        Q = L @ L.T
        p = LqgProblem(
            A=rng.standard_normal((n, n)), B=rng.standard_normal((n, m)),
            b=np.zeros(n), sigma=np.eye(n), Q=Q, S=np.zeros((n, m)),
            R=np.eye(m), eta=np.zeros(n), zeta=np.zeros(m),
            Q_hat=np.zeros((n, n)), delta=0.3, x0=np.ones(n), T=1.0,
        )
        assert validate_single(p) is p
        assert (p.n, p.m, p.r) == (3, 2, 3)


class TestLqgProblem:
    def test_time_functions_normalized(self):
        p = scalar_problem(A=2.0, b=0.5, sigma=0.1)
        assert p.A.shape == (1, 1)
        assert p.A[0, 0] == 2.0
        assert p.b[0] == 0.5
        assert p.sigma[0, 0] == 0.1

    @pytest.mark.parametrize("field, shape", [("A", (1, 1)), ("b", (1,)),
                                              ("sigma", (1, 1))],
                             ids=["A", "b", "sigma"])
    def test_callable_or_misshapen_coefficient_rejected(self, field, shape):
        # a callable, or a table whose entries have the wrong shape, raises
        # DimensionMismatch naming the field, in a game's agents as well
        wrong = on_grid(lambda t: np.zeros((2,) + shape),
                        TimeGrid(t_end=1.0, steps=4))
        for value in (lambda t: np.zeros(shape), wrong):
            with pytest.raises(DimensionMismatch, match=f"^{field} "):
                scalar_problem(**{field: value})
            if field == "A":
                continue
            for k, suffix in ((None, "0"), (0, "k")):
                g = toy_game()
                setattr(g.major if k is None else g.minors[k], field, value)
                with pytest.raises(DimensionMismatch,
                                   match=f"^{field}_{suffix} "):
                    MajorMinorSpec(major=g.major, minors=g.minors, pi=[1.0],
                                   T=1.0, n=1, m=1, r=1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LqgProblem(
                A=np.zeros((2, 2)), B=np.zeros((3, 1)), b=np.zeros(3),
                sigma=np.eye(3), Q=np.eye(3), S=np.zeros((3, 1)),
                R=np.eye(1), eta=np.zeros(3), zeta=np.zeros(1),
                Q_hat=np.zeros((3, 3)), delta=1.0, x0=np.zeros(3), T=1.0,
            )


class TestValidateGame:
    def test_toy_model_valid(self):
        g = toy_game()
        assert validate_game(g) is g

    def test_pi_simplex(self):
        g = toy_game()
        g.pi = np.array([0.6, 0.5])
        g.minors.append(g.minors[0])
        with pytest.raises(AssumptionViolated, match="pi sums to 1"):
            validate_game(g)

    def test_pi_nonnegative(self):
        g = toy_game()
        g.pi = np.array([1.5, -0.5])
        g.minors.append(g.minors[0])
        with pytest.raises(AssumptionViolated, match="pi nonnegative"):
            validate_game(g)

    def test_minor_delta_zero(self):
        g = toy_game()
        g.minors[0].delta = 0.0
        with pytest.raises(AssumptionViolated, match="delta_1 in"):
            validate_game(g)

    def test_major_r(self):
        g = toy_game()
        g.major.R = np.array([[-1.0]])
        with pytest.raises(AssumptionViolated, match="R_0"):
            validate_game(g)


def _agents(spec):
    return [spec] if isinstance(spec, LqgProblem) \
        else [spec.major] + spec.minors


def _nodes_game():
    """The bundled game with a major drift offset given at the nodes."""
    doc = bundled_config("paper_example.json")
    doc["grid"] = {"steps": 20}
    doc["model"]["major"]["b"] = {"nodes": [[0.05 * i] for i in range(21)]}
    return parse_config(doc, "solve-mfg").model


@pytest.mark.parametrize("make", [
    lambda: parse_config(bundled_config("paper_example.json"),
                         "solve-mfg").model,
    vector_game,
    _nodes_game,
    lambda: scalar_problem(A=-0.5, b=0.1, sigma=0.3),
], ids=["paper_example", "vector_game", "nodes", "single"])
def test_spec_pickle_round_trip(make):
    # specs travel between processes inside population results
    spec = make()
    back = pickle.loads(pickle.dumps(spec))
    grid = TimeGrid(t_end=spec.T, steps=20)
    for agent, copy in zip(_agents(spec), _agents(back)):
        for name, value in vars(agent).items():
            if isinstance(value, MatrixTrajectory):
                assert np.array_equal(half_grid_table(value, grid),
                                      half_grid_table(getattr(copy, name),
                                                      grid)), name
            else:
                assert np.array_equal(value, getattr(copy, name)), name
