"""Finite-horizon Riccati solvers, forward rollout, and a brute-force oracle.

The backward pass produces value matrices P[0..T-1] and gains K[0..T-2] for
a time-varying schedule. ``affine_terms`` is the one affine recursion for
known additive disturbances: it gives the exact feedforward of a batch of
plans, each on its own pass and knowing its own prefix of disturbances.
A stacked quadratic-program oracle solves small instances by normal
equations and is used only for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_are as _scipy_dare

from .costs import CostSchedule
from .systems import LinearSystem, _freeze


class DareConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach the requested tolerance."""


class OracleSizeError(ValueError):
    """Instance exceeds the brute-force oracle's size cap."""


class TrajectoryOverflowError(FloatingPointError):
    """A simulated state became non-finite."""

    def __init__(self, time_index: int, message: str | None = None):
        self.time_index = time_index
        super().__init__(
            message or f"non-finite state at time index {time_index}"
        )


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-pass value matrices and gains, plus the schedule they solve.

    ``P`` stacks the T value matrices as a (T, n, n) array and ``K`` the
    T-1 gains as (T-1, m, n), so ``P[i]`` and ``K[i]`` index per time step.
    """

    P: np.ndarray
    K: np.ndarray
    schedule: CostSchedule

    def __post_init__(self):
        object.__setattr__(self, "P", _freeze(self.P))
        object.__setattr__(self, "K", _freeze(self.K))


@dataclass(frozen=True)
class Trajectory:
    """Realized states, controls, and total cost of one closed-loop run."""

    x: np.ndarray
    u: np.ndarray
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "x", _freeze(np.atleast_2d(self.x)))
        object.__setattr__(self, "u", _freeze(np.atleast_2d(self.u)))
        object.__setattr__(self, "cost", float(self.cost))


def schedule_cost(x, u, schedule) -> float:
    """Total quadratic cost of a state/control pair under a schedule."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    T = len(schedule.Q)
    if x.shape[0] != T:
        raise ValueError(f"expected {T} states, got {x.shape[0]}")
    if u.shape[0] != T - 1:
        raise ValueError(f"expected {T - 1} controls, got {u.shape[0]}")
    total = 0.0
    for t in range(T - 1):
        total += float(x[t] @ schedule.Q[t] @ x[t])
        total += float(u[t] @ schedule.R[t] @ u[t])
    total += float(x[T - 1] @ schedule.Q[T - 1] @ x[T - 1])
    return total


def riccati_step(P, A, B, Q, R):
    """One backward Riccati step from the next value matrix P.

    Returns (P_prev, K) with K = -(R + B' P B)^-1 B' P A and
    P_prev = A' P A + Q + A' P B K, re-symmetrized to suppress drift.
    P, Q and R may carry any matching leading batch axes.
    """
    AT, BT = A.T.copy(), B.T.copy()
    PA = P @ A
    PB = P @ B
    G = R + BT @ PB
    if B.shape[1] == 1:
        K = (BT @ PA) / -G
    else:
        K = -np.linalg.solve(G, BT @ PA)
    P_prev = AT @ PA + Q + (AT @ PB) @ K
    return 0.5 * (P_prev + P_prev.swapaxes(-1, -2)), K


def backward_riccati(sys: LinearSystem, schedule: CostSchedule) -> RiccatiSolution:
    """Backward pass for the finite-horizon time-varying problem.

    P[T-1] is the terminal state cost; each earlier step is one
    ``riccati_step`` with the stage costs Q[i] and R[i].
    """
    if schedule.n != sys.n or schedule.m != sys.m:
        raise ValueError("schedule dimensions do not match the system")
    T = schedule.horizon
    P = np.empty((T, sys.n, sys.n))
    K = np.empty((T - 1, sys.m, sys.n))
    P[T - 1] = schedule.Q[T - 1]
    for i in range(T - 2, -1, -1):
        P[i], K[i] = riccati_step(P[i + 1], sys.A, sys.B, schedule.Q[i], schedule.R[i])
    return RiccatiSolution(P, K, schedule)


def frozen_backward_sweep(sys: LinearSystem, schedule: CostSchedule):
    """Backward passes for every frozen schedule in one batched recursion.

    The pass for freeze index s in 0..T-1 uses entry i of the schedule when
    i <= s and repeats entry s afterwards, so pass T-1 is the true pass.
    Returns (P_all, K_all) with shapes (T, T, n, n) and (T, T-1, m, n),
    indexed by freeze index first.
    """
    A, B = sys.A, sys.B
    T = schedule.horizon
    n, m = sys.n, sys.m
    Qs, Rs = schedule.Q, schedule.R
    s_all = np.arange(T)
    P_all = np.empty((T, T, n, n))
    K_all = np.empty((T, T - 1, m, n))
    P = Qs
    P_all[:, T - 1] = P
    scalar_control = m == 1
    for i in range(T - 2, -1, -1):
        # At step i pass s reads entry min(i, s).
        clamp = np.minimum(s_all, i)
        Qi = Qs[clamp]
        Ri = Rs[clamp]
        # Flattened products keep each step at a few large BLAS calls.
        PA = (P.reshape(T * n, n) @ A).reshape(T, n, n)
        PB = (P.reshape(T * n, n) @ B).reshape(T, n, m)
        ATPA = np.tensordot(A, PA, axes=(0, 1)).transpose(1, 0, 2)
        ATPB = np.tensordot(A, PB, axes=(0, 1)).transpose(1, 0, 2)
        BPA = np.tensordot(B, PA, axes=(0, 1)).transpose(1, 0, 2)
        G = Ri + np.tensordot(B, PB, axes=(0, 1)).transpose(1, 0, 2)
        if scalar_control:
            K = BPA / (-G)
        else:
            K = -np.linalg.solve(G, BPA)
        P = ATPA + Qi + ATPB @ K
        P = 0.5 * (P + P.transpose(0, 2, 1))
        P_all[:, i] = P
        K_all[:, i] = K
    return P_all, K_all


def affine_terms(sys: LinearSystem, P, K, R, w, s, last):
    """Feedforward controls of a batch of plans that know some disturbances.

    Plan j runs on pass ``s[j]`` of the stacks ``P`` (S, T, n, n) and ``K``
    (S, T-1, m, n) with control costs ``R`` (T-1, m, m), and knows w[i]
    for i <= last[j]; ``last`` is ascending, and s[j] >= last[j] so that
    every step run reads a true R[i]. Returns the feedforward k of shape
    (T-1, len(s), m). Per plan the recursion is q = 0 above last,
    k[i] = -(R[i] + B' P[i+1] B)^-1 B' (P[i+1] w[i] + q[i+1]),
    q[i] = (A + B K[i])' (q[i+1] + P[i+1] w[i]).
    """
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    T = P.shape[1]
    if w.shape != (T - 1, n):
        raise ValueError(f"w must have shape {(T - 1, n)}, got {w.shape}")
    # At step i the plans j >= first[i] are active; a plan joins the batch
    # at its own last index with q = 0.
    first = np.searchsorted(last, np.arange(T - 1))
    q = np.zeros((len(s), n))
    k = np.zeros((T - 1, len(s), m))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(min(int(last[-1]), T - 2), -1, -1):
            j = first[i]
            Pn = P[s[j:], i + 1]
            v = q[j:] + (Pn.reshape(-1, n) @ w[i]).reshape(-1, n)
            Bv = v @ B
            G = R[i] + np.einsum("ni,jnk,kl->jil", B, Pn, B)
            if m == 1:
                k[i, j:] = -Bv / G[:, 0]
            else:
                k[i, j:] = -np.linalg.solve(G, Bv[..., None])[..., 0]
            q[j:] = v @ A + np.einsum("jmn,jm->jn", K[s[j:], i], Bv)
    return k


def solve_dare(
    A,
    B,
    Q,
    R,
    tol: float = 1e-10,
    max_iter: int = 100000,
    init=None,
) -> np.ndarray:
    """Fixed point of the Riccati map P -> Q + A'PA - A'PB(R + B'PB)^-1 B'PA.

    Iterates until the step size drops below tol * max(1, ||P||). Unless
    ``init`` is given, scipy's direct solver seeds the iteration, which then
    converges in a handful of steps; if that solver fails the iteration
    starts at Q.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if A.ndim == 0 or A.ndim == 1:
        A = A.reshape(1, 1)
    if B.ndim < 2:
        B = B.reshape(A.shape[0], -1)
    if Q.ndim < 2:
        Q = Q.reshape(1, 1)
    if R.ndim < 2:
        R = R.reshape(1, 1)
    P = None
    if init is not None:
        P = 0.5 * (np.asarray(init, dtype=float) + np.asarray(init, dtype=float).T)
    else:
        try:
            cand = _scipy_dare(A, B, Q, R)
            if np.all(np.isfinite(cand)):
                P = 0.5 * (cand + cand.T)
        except Exception:
            P = None
    if P is None:
        P = Q.copy()
    for _ in range(max_iter):
        PA = P @ A
        PB = P @ B
        G = R + B.T @ PB
        Pn = Q + A.T @ PA - (A.T @ PB) @ np.linalg.solve(G, B.T @ PA)
        Pn = 0.5 * (Pn + Pn.T)
        step = np.linalg.norm(Pn - P, 2)
        if step <= tol * max(1.0, np.linalg.norm(Pn, 2)):
            return Pn
        P = Pn
    raise DareConvergenceError(
        f"no fixed point within {max_iter} iterations at tolerance {tol}"
    )


def simulate(sys: LinearSystem, schedule, control, x0, w=None) -> Trajectory:
    """Run the closed loop u[t] = control(t, x[t]) and fill in the cost.

    The state advances as x[t+1] = A x[t] + B u[t] + w[t], and the cost is
    evaluated under ``schedule``. Raises TrajectoryOverflowError with the
    failing time index if a state or the cost becomes non-finite.
    """
    A, B = sys.A, sys.B
    T = schedule.horizon
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.n:
        raise ValueError(f"x0 must have length {sys.n}")
    w_arr = np.zeros((T - 1, sys.n)) if w is None else np.asarray(w, dtype=float)
    if w_arr.shape != (T - 1, sys.n):
        raise ValueError(f"w must have shape {(T - 1, sys.n)}")
    x = np.zeros((T, sys.n))
    u = np.zeros((T - 1, sys.m))
    x[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 1):
            ut = control(t, x[t])
            xn = A @ x[t] + B @ ut + w_arr[t]
            if not np.all(np.isfinite(xn)):
                raise TrajectoryOverflowError(t + 1)
            u[t] = ut
            x[t + 1] = xn
        cost = schedule_cost(x, u, schedule)
    if not np.isfinite(cost):
        raise TrajectoryOverflowError(T - 1, "non-finite cost")
    return Trajectory(x, u, cost)


def rollout(sys: LinearSystem, sol: RiccatiSolution, x0, w=None) -> Trajectory:
    """Forward-simulate the closed loop u = K x under the solution's schedule."""
    K = sol.K
    return simulate(sys, sol.schedule, lambda t, x: K[t] @ x, x0, w)


def brute_force_lqr_oracle(
    sys: LinearSystem, schedule: CostSchedule, w=None
) -> Trajectory:
    """Exact minimizer of a small instance via stacked normal equations.

    States are expressed affinely in the stacked control vector, and the
    strictly convex quadratic is minimized directly. Only intended as an
    independent cross-check; refuses instances with T * m > 64.
    """
    T = schedule.horizon
    n, m = sys.n, sys.m
    if T * m > 64:
        raise OracleSizeError(
            f"oracle limited to T * m <= 64, got {T} * {m} = {T * m}"
        )
    A, B = sys.A, sys.B
    w_arr = np.zeros((T - 1, n)) if w is None else np.asarray(w, dtype=float)
    if w_arr.shape != (T - 1, n):
        raise ValueError(f"w must have shape {(T - 1, n)}")
    nu = (T - 1) * m
    # c holds the uncontrolled trajectory, F the control-to-state map:
    # x[t] = c[t] + F[t] @ u_stacked.
    c = np.zeros((T, n))
    c[0] = sys.x0
    F = np.zeros((T, n, nu))
    for t in range(1, T):
        c[t] = A @ c[t - 1] + w_arr[t - 1]
        F[t] = A @ F[t - 1]
        F[t][:, (t - 1) * m : t * m] += B
    H = np.zeros((nu, nu))
    g = np.zeros(nu)
    for t in range(T):
        QF = schedule.Q[t] @ F[t]
        H += F[t].T @ QF
        g += QF.T @ c[t]
    for j in range(T - 1):
        H[j * m : (j + 1) * m, j * m : (j + 1) * m] += schedule.R[j]
    u_stacked = np.linalg.solve(H, -g)
    u = u_stacked.reshape(T - 1, m)
    x = np.zeros((T, n))
    x[0] = sys.x0
    for t in range(T - 1):
        x[t + 1] = A @ x[t] + B @ u[t] + w_arr[t]
    return Trajectory(x, u, schedule_cost(x, u, schedule))
