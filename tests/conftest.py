"""Shared game fixtures used across the test modules."""

import multiprocessing

import numpy as np
import pytest

from rsmfg.model import MajorMinorSpec, MajorParams, MinorTypeParams
from rsmfg.numerics import MatrixTrajectory


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of this one running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running: {left}"


def toy_game(sigma=0.3):
    """All-ones coefficients, one minor type, unit weight."""
    major = MajorParams(
        A=1.0, F=1.0, B=1.0, b=0.0, sigma=sigma,
        Q=1.0, S=0.0, R=1.0, Q_hat=0.0, H=1.0, eta=0.0,
        delta=1.0, x0=1.0,
    )
    minor = MinorTypeParams(
        A=1.0, F=1.0, G=1.0, B=1.0, b=0.0, sigma=sigma,
        Q=1.0, S=0.0, R=1.0, Q_hat=0.0, H=1.0, H_hat=1.0, eta=0.0,
        delta=1.0, x0=1.0,
    )
    return MajorMinorSpec(major=major, minors=[minor], pi=[1.0],
                          T=1.0, n=1, m=1, r=1)


def flocking_game(T=1.0):
    """Scalar one-type flocking benchmark with strong mean reversion."""
    major = MajorParams(
        A=-2.5, F=2.5, B=1.0, b=0.0, sigma=0.5,
        Q=10.0, S=0.0, R=1.0, Q_hat=0.0, H=1.0, eta=0.0,
        delta=2.0, x0=1.0,
    )
    minor = MinorTypeParams(
        A=-5.0, F=2.5, G=2.5, B=1.0, b=0.0, sigma=0.5,
        Q=7.0, S=0.0, R=1.0, Q_hat=0.0, H=0.5, H_hat=0.5, eta=0.0,
        delta=2.0, x0=1.0,
    )
    return MajorMinorSpec(major=major, minors=[minor], pi=[1.0],
                          T=T, n=1, m=1, r=1)


def decoupled_game():
    """No interaction terms: each agent faces a standalone problem."""
    major = MajorParams(
        A=-0.4, F=0.0, B=1.0, b=0.1, sigma=0.4,
        Q=1.0, S=0.0, R=1.0, Q_hat=0.5, H=0.0, eta=0.2,
        delta=0.5, x0=1.0,
    )
    minor = MinorTypeParams(
        A=-0.6, F=0.0, G=0.0, B=1.0, b=-0.05, sigma=0.3,
        Q=2.0, S=0.0, R=1.0, Q_hat=0.3, H=0.0, H_hat=0.0, eta=-0.1,
        delta=0.5, x0=0.5,
    )
    return MajorMinorSpec(major=major, minors=[minor], pi=[1.0],
                          T=1.0, n=1, m=1, r=1)


def vector_game():
    """Two-dimensional states, two minor types, a nonzero cross weight."""
    eye = np.eye(2)
    major = MajorParams(
        A=[[-1.0, 0.2], [0.0, -0.8]], F=0.3 * eye, B=[[1.0], [0.5]],
        b=[0.1, 0.0], sigma=[[0.3], [0.2]],
        Q=eye, S=[[0.0], [0.0]], R=1.0, Q_hat=0.2 * eye, H=0.5 * eye,
        eta=[0.0, 0.0], delta=0.5, x0=[1.0, -0.5],
    )
    minors = [
        MinorTypeParams(
            A=-a * eye, F=0.2 * eye, G=0.1 * eye, B=[[1.0], [0.0]],
            b=[0.0, 0.05], sigma=[[0.2], [0.1]],
            Q=eye, S=[[s], [0.0]], R=1.0, Q_hat=0.1 * eye, H=0.3 * eye,
            H_hat=0.3 * eye, eta=[0.1, 0.0], delta=0.5, x0=[0.5, 0.2],
        )
        for a, s in ((1.0, 0.1), (0.6, 0.0))
    ]
    return MajorMinorSpec(major=major, minors=minors, pi=[0.6, 0.4],
                          T=1.0, n=2, m=1, r=1)


def on_grid(f, grid):
    """The MatrixTrajectory of f(t) at the grid's nodes."""
    return MatrixTrajectory(grid, np.stack([np.asarray(f(t), dtype=float)
                                            for t in grid.nodes]))
