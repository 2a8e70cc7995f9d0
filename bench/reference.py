"""Reference solutions computed apart from rsmfg, with scipy.

Everything here is derived from the model as the README states it: an
agent minimises E[exp(delta * Lambda_T)] for dynamics
dx = (A x + B u + b) dt + sigma dW, where Lambda_T integrates
0.5 x'Qx + x'Su + 0.5 u'Ru - q'x - zeta'u + c and adds the terminal
0.5 x'Qhat x - qhat'x + chat.  The value function is
V = 0.5 x'Pi x + s'x + phi, and the optimal log-cost is
delta * V(0, x0).  Pi, s and phi are integrated backward together by an
adaptive DOP853 solve, and the game's consistency fixed point is a
Picard iteration over such solves.  No rsmfg code is imported.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

RTOL = 1e-11
ATOL = 1e-12
RAW_EXPONENT_DELTA = 2.0   # raw_exponent: the weights are the exponent


def _mat(value, rows, cols):
    return np.asarray(value, dtype=float).reshape(rows, cols)


class Agent:
    """Cost and noise data of one player of the game, as numpy arrays."""

    def __init__(self, doc, n, m, r, raw_exponent, minor):
        self.A = _mat(doc["A"], n, n)
        self.F = _mat(doc["F"], n, n)
        self.G = _mat(doc["G"], n, n) if minor else None
        self.B = _mat(doc["B"], n, m)
        self.b = np.asarray(doc.get("b", np.zeros(n)), dtype=float)
        self.sigma = _mat(doc["sigma"], n, r)
        self.Q = _mat(doc["Q"], n, n)
        self.S = _mat(doc.get("S", np.zeros((n, m))), n, m)
        self.R = _mat(doc["R"], m, m)
        self.Q_hat = _mat(doc.get("Q_hat", np.zeros((n, n))), n, n)
        self.H = _mat(doc.get("H", np.zeros((n, n))), n, n)
        self.H_hat = _mat(doc.get("H_hat", np.zeros((n, n))), n, n)
        self.eta = np.asarray(doc.get("eta", np.zeros(n)), dtype=float)
        self.delta = (RAW_EXPONENT_DELTA if raw_exponent
                      else float(doc["delta"]))
        self.x0 = np.asarray(doc["x0"], dtype=float).reshape(n)


class Game:
    """A major_minor model document of an rsmfg config."""

    def __init__(self, model):
        self.n, self.m, self.r = model["n"], model["m"], model["r"]
        self.T = float(model["T"])
        self.pi = np.asarray(model["pi"], dtype=float)
        raw = bool(model.get("raw_exponent", False))
        args = (self.n, self.m, self.r, raw)
        self.major = Agent(model["major"], *args, minor=False)
        self.minors = [Agent(d, *args, minor=True) for d in model["minors"]]
        self.K = len(self.minors)


class Cost:
    """Exponent weights of one agent in the form of the module docstring."""

    def __init__(self, Q, S, R, q, zeta, c, Q_hat, q_hat, c_hat, delta):
        self.Q, self.S, self.R, self.q, self.zeta, self.c = Q, S, R, q, zeta, c
        self.Q_hat, self.q_hat, self.c_hat = Q_hat, q_hat, c_hat
        self.delta = delta
        self.Rinv = np.linalg.inv(R)

    @classmethod
    def tracking(cls, agent, T):
        """Cost of tracking T z - eta, with every cross and constant term.

        Running 0.5 (Tz - eta)'Q(Tz - eta) + (Tz - eta)'S u + 0.5 u'Ru,
        terminal 0.5 (Tz - eta)'Qhat(Tz - eta).
        """
        Q, S, Qh, eta = agent.Q, agent.S, agent.Q_hat, agent.eta
        return cls(Q=T.T @ Q @ T, S=T.T @ S, R=agent.R, q=T.T @ Q @ eta,
                   zeta=S.T @ eta, c=0.5 * eta @ Q @ eta,
                   Q_hat=T.T @ Qh @ T, q_hat=T.T @ Qh @ eta,
                   c_hat=0.5 * eta @ Qh @ eta, delta=agent.delta)

    def law(self, B, Pi, s):
        """Optimal gain and offset for the value 0.5 x'Pi x + s'x."""
        K = -self.Rinv @ (self.S.T + B.T @ Pi)
        k = -self.Rinv @ (B.T @ s - self.zeta)
        return K, k

    def field(self, A, B, b, sig, Pi, s):
        """(dPi/dt, ds/dt, dphi/dt) of the risk-sensitive value function."""
        Rinv, delta = self.Rinv, self.delta
        SB = self.S + Pi @ B
        ssT = sig @ sig.T
        dPi = -(Pi @ A + A.T @ Pi + self.Q - SB @ Rinv @ SB.T
                + delta * Pi @ ssT @ Pi)
        ds = -((A.T - SB @ Rinv @ B.T + delta * Pi @ ssT) @ s
               + Pi @ b + SB @ Rinv @ self.zeta - self.q)
        v = B.T @ s - self.zeta
        sig_s = sig.T @ s
        dphi = -(self.c + s @ b - 0.5 * v @ Rinv @ v
                 + 0.5 * np.trace(ssT @ Pi) + 0.5 * delta * sig_s @ sig_s)
        return dPi, ds, dphi

    def terminal(self):
        return self.Q_hat, -self.q_hat, self.c_hat


def _major_cost(game):
    maj = game.major
    T = np.concatenate([np.eye(game.n)]
                       + [-w * maj.H for w in game.pi], axis=1)
    return Cost.tracking(maj, T)


def _minor_cost(game, k):
    th = game.minors[k]
    T = np.concatenate([np.eye(game.n), -th.H]
                       + [-w * th.H_hat for w in game.pi], axis=1)
    return Cost.tracking(th, T)


class _Layout:
    """Slices of the stacked backward state [Pi0, s0, phi0, Pik, sk, phik]."""

    def __init__(self, dims):
        self.parts = []
        pos = 0
        for d in dims:
            self.parts.append((slice(pos, pos + d * d),
                               slice(pos + d * d, pos + d * d + d),
                               pos + d * d + d, d))
            pos += d * d + d + 1
        self.size = pos

    def unpack(self, y, i):
        sP, ss, ip, d = self.parts[i]
        return y[sP].reshape(d, d), y[ss], y[ip]

    def pack(self, out, i, Pi, s, phi):
        sP, ss, ip, _ = self.parts[i]
        out[sP] = Pi.reshape(-1)
        out[ss] = s
        out[ip] = phi


class GameSolver:
    """Backward value-function solves of the major and minor problems.

    One call of sweep(mean_field) integrates the major's extended problem
    on (x0, xbar) and every minor type's on (x, x0, xbar), given the
    mean-field drift xbar' = Abar xbar + Gbar x0 + mbar as functions of
    time; the minors see the major's closed loop under its optimal law.
    """

    def __init__(self, game):
        self.game = game
        n, K = game.n, game.K
        self.d0 = n * (1 + K)
        self.dk = n * (2 + K)
        self.cost0 = _major_cost(game)
        self.costk = [_minor_cost(game, k) for k in range(K)]
        self.layout = _Layout([self.d0] + [self.dk] * K)
        maj = game.major
        self.B0 = np.vstack([maj.B, np.zeros((n * K, game.m))])
        self.sig0 = np.vstack([maj.sigma, np.zeros((n * K, game.r))])
        self.F0pi = np.concatenate([w * maj.F for w in game.pi], axis=1)
        self.Bk, self.sigk, self.topk = [], [], []
        for th in game.minors:
            self.Bk.append(np.vstack([th.B, np.zeros((self.d0, game.m))]))
            sig = np.zeros((self.dk, 2 * game.r))
            sig[:n, :game.r] = th.sigma
            sig[n:, game.r:] = self.sig0
            self.sigk.append(sig)
            self.topk.append(np.concatenate(
                [th.A, th.G] + [w * th.F for w in game.pi], axis=1))

    def major_system(self, A_bar, G_bar, m_bar):
        maj = self.game.major
        A = np.block([[maj.A, self.F0pi], [G_bar, A_bar]])
        b = np.concatenate([maj.b, m_bar])
        return A, b

    def minor_system(self, k, A_cl0, b_cl0):
        n = self.game.n
        th = self.game.minors[k]
        A = np.vstack([self.topk[k],
                       np.concatenate([np.zeros((self.d0, n)), A_cl0],
                                      axis=1)])
        b = np.concatenate([th.b, b_cl0])
        return A, b

    def rhs(self, mean_field):
        """Backward field of all value functions for one sweep."""
        lay = self.layout

        def f(t, y):
            A_bar, G_bar, m_bar = mean_field(t)
            out = np.empty_like(y)
            Pi0, s0, _ = lay.unpack(y, 0)
            A0, b0 = self.major_system(A_bar, G_bar, m_bar)
            lay.pack(out, 0, *self.cost0.field(A0, self.B0, b0, self.sig0,
                                                Pi0, s0))
            K0, k0 = self.cost0.law(self.B0, Pi0, s0)
            A_cl0 = A0 + self.B0 @ K0
            b_cl0 = b0 + self.B0 @ k0
            for k, cost in enumerate(self.costk):
                Pik, sk, _ = lay.unpack(y, 1 + k)
                Ak, bk = self.minor_system(k, A_cl0, b_cl0)
                lay.pack(out, 1 + k, *cost.field(Ak, self.Bk[k], bk,
                                                 self.sigk[k], Pik, sk))
            return out
        return f

    def sweep(self, mean_field):
        """Dense backward solution of one sweep, valid on [0, T]."""
        lay = self.layout
        yT = np.empty(lay.size)
        lay.pack(yT, 0, *self.cost0.terminal())
        for k, cost in enumerate(self.costk):
            lay.pack(yT, 1 + k, *cost.terminal())
        sol = solve_ivp(self.rhs(mean_field), (self.game.T, 0.0), yT,
                        method="DOP853", rtol=RTOL, atol=ATOL,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")
        return sol.sol

    def laws(self, y):
        """Major and minor (gain, offset) from a sweep's state vector."""
        lay = self.layout
        Pi0, s0, _ = lay.unpack(y, 0)
        major = self.cost0.law(self.B0, Pi0, s0)
        minors = []
        for k, cost in enumerate(self.costk):
            Pik, sk, _ = lay.unpack(y, 1 + k)
            minors.append(cost.law(self.Bk[k], Pik, sk))
        return major, minors

    def induced_mean_field(self, dense):
        """Mean-field coefficients implied by a sweep's minor laws."""
        g = self.game
        n, K = g.n, g.K

        def mf(t):
            _, minors = self.laws(dense(t))
            A_bar = np.zeros((n * K, n * K))
            G_bar = np.zeros((n * K, n))
            m_bar = np.zeros(n * K)
            for k, (th, (Kk, kk)) in enumerate(zip(g.minors, minors)):
                rows = slice(n * k, n * (k + 1))
                A_bar[rows] = np.concatenate(
                    [w * th.F for w in g.pi], axis=1) + th.B @ Kk[:, 2 * n:]
                A_bar[rows, rows] += th.A + th.B @ Kk[:, :n]
                G_bar[rows] = th.G + th.B @ Kk[:, n:2 * n]
                m_bar[rows] = th.b + th.B @ kk
            return A_bar, G_bar, m_bar
        return mf

    def log_costs(self, dense):
        """Optimal log-costs delta * V(0, z0) of the major and each type."""
        g = self.game
        lay = self.layout
        v0 = dense(0.0)
        xbar0 = np.concatenate([th.x0 for th in g.minors])
        z0 = np.concatenate([g.major.x0, xbar0])
        Pi, s, phi = lay.unpack(v0, 0)
        out = [self.cost0.delta * (0.5 * z0 @ Pi @ z0 + s @ z0 + phi)]
        for k, cost in enumerate(self.costk):
            zk = np.concatenate([g.minors[k].x0, z0])
            Pi, s, phi = lay.unpack(v0, 1 + k)
            out.append(cost.delta * (0.5 * zk @ Pi @ zk + s @ zk + phi))
        return out


def spline_mean_field(nodes, A_bar, G_bar, m_bar):
    """Mean-field functions interpolating node samples by cubic splines."""
    splines = [CubicSpline(nodes, v, axis=0) for v in (A_bar, G_bar, m_bar)]
    return lambda t: tuple(s(t) for s in splines)


def fixed_point(game, tol=1e-10, max_iter=60, n_probe=401):
    """Picard iteration of the consistency map to its fixed point.

    The error of a sweep is the largest change of Abar and Gbar over
    n_probe evenly spaced times.  Returns (solver, dense solution).
    """
    solver = GameSolver(game)
    n, K = game.n, game.K
    b_bar = np.concatenate([th.b for th in game.minors])
    start = (np.zeros((n * K, n * K)), np.zeros((n * K, n)), b_bar)

    def mf(t):
        return start
    probe = np.linspace(0.0, game.T, n_probe)
    prev = None
    for _ in range(max_iter):
        dense = solver.sweep(mf)
        mf = solver.induced_mean_field(dense)
        cur = [mf(t) for t in probe]
        if prev is not None:
            err = max(np.max(np.abs(a[0] - b[0])) + np.max(np.abs(a[1] - b[1]))
                      for a, b in zip(cur, prev))
            if err < tol:
                return solver, dense
        prev = cur
    raise RuntimeError("reference fixed point did not converge")


def single_agent(doc):
    """Pi(0), s(0) and C* of a 'single' model document.

    The single-agent cost has the linear terms -eta'x - zeta'u and no
    constant, as the model states it.
    """
    x0 = np.asarray(doc["x0"], dtype=float).reshape(-1)
    n = x0.size
    B = np.asarray(doc["B"], dtype=float).reshape(n, -1)
    m = B.shape[1]
    A = _mat(doc["A"], n, n)
    b = np.asarray(doc.get("b", np.zeros(n)), dtype=float)
    sig = np.asarray(doc["sigma"], dtype=float).reshape(n, -1)
    Q, R = _mat(doc["Q"], n, n), _mat(doc["R"], m, m)
    S = _mat(doc.get("S", np.zeros((n, m))), n, m)
    Q_hat = _mat(doc["Q_hat"], n, n)
    delta = RAW_EXPONENT_DELTA if doc.get("raw_exponent") \
        else float(doc["delta"])
    cost = Cost(Q=Q, S=S, R=R,
                q=np.asarray(doc.get("eta", np.zeros(n)), float),
                zeta=np.asarray(doc.get("zeta", np.zeros(m)), float), c=0.0,
                Q_hat=Q_hat, q_hat=np.zeros(n), c_hat=0.0, delta=delta)
    lay = _Layout([n])

    def f(t, y):
        out = np.empty_like(y)
        Pi, s, _ = lay.unpack(y, 0)
        lay.pack(out, 0, *cost.field(A, B, b, sig, Pi, s))
        return out

    yT = np.empty(lay.size)
    lay.pack(yT, 0, *cost.terminal())
    sol = solve_ivp(f, (float(doc["T"]), 0.0), yT, method="DOP853",
                    rtol=RTOL, atol=ATOL)
    Pi, s, phi = lay.unpack(sol.y[:, -1], 0)
    C = cost.delta * (0.5 * x0 @ Pi @ x0 + s @ x0 + phi)
    return Pi, s, float(C)
