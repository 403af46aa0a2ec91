"""Finite-horizon Riccati solvers, forward rollout, and a brute-force oracle.

The backward pass produces value matrices P[0..T-1] and gains K[0..T-2] for
a time-varying schedule. ``riccati_step`` is the one backward step: the
backward pass, the frozen sweep over every freeze index, the fixed-point
iteration and the receding-horizon baseline all run it, so the sweep's
pass s is the backward pass on the schedule frozen at s, bit for bit.
``affine_terms`` is the one affine recursion for known additive
disturbances: it gives the exact feedforward of a batch of plans, each on
its own pass and knowing its own prefix of disturbances.
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
    return float(
        np.einsum("ti,tij,tj->", x, schedule.Q, x)
        + np.einsum("ti,tij,tj->", u, schedule.R, u)
    )


def riccati_step(P, A, B, Q, R):
    """One backward Riccati step from the next value matrix P.

    Returns (P_prev, K) with K = -(R + B' P B)^-1 B' P A and
    P_prev = A' P A + Q + A' P B K, re-symmetrized to suppress drift.
    P, Q and R may carry any matching leading batch axes.
    """
    n, m = B.shape
    AT, BT = A.T.copy(), B.T.copy()
    # The right products run flattened over the batch, one BLAS call each.
    PA = (P.reshape(-1, n) @ A).reshape(P.shape)
    PB = (P.reshape(-1, n) @ B).reshape(P.shape[:-1] + (m,))
    G = R + BT @ PB
    if m == 1:
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
    Each step is one ``riccati_step`` batched over s, so pass s equals
    ``backward_riccati`` on ``frozen_schedule(schedule, s, 0)`` bit for bit.
    Returns (P_all, K_all) with shapes (T, T, n, n) and (T, T-1, m, n),
    indexed by freeze index first.
    """
    T = schedule.horizon
    Qs, Rs = schedule.Q, schedule.R
    s_all = np.arange(T)
    P_all = np.empty((T, T, sys.n, sys.n))
    K_all = np.empty((T, T - 1, sys.m, sys.n))
    P = P_all[:, T - 1] = Qs
    for i in range(T - 2, -1, -1):
        # At step i pass s reads entry min(i, s).
        clamp = np.minimum(s_all, i)
        P, K_all[:, i] = riccati_step(P, sys.A, sys.B, Qs[clamp], Rs[clamp])
        P_all[:, i] = P
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

    A ``w`` of shape (N, T-1, n) runs N disturbance trials through the same
    plans and returns k of shape (T-1, N, len(s), m). Each trial's products
    are stacked matmuls with the operand shapes of a (T-1, n) call, so a
    trial keeps the bits of its own call.
    """
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    T = P.shape[1]
    if w.shape[-2:] != (T - 1, n) or w.ndim not in (2, 3):
        raise ValueError(f"w must have shape {(T - 1, n)} or (N, {T - 1}, {n}), got {w.shape}")
    lead = w.shape[:-2]
    # At step i the plans j >= first[i] are active; a plan joins the batch
    # at its own last index with q = 0.
    first = np.searchsorted(last, np.arange(T - 1))
    q = np.zeros(lead + (len(s), n))
    k = np.zeros((T - 1,) + lead + (len(s), m))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(min(int(last[-1]), T - 2), -1, -1):
            j = first[i]
            Pn = P[s[j:], i + 1]
            v = q[..., j:, :] + (Pn.reshape(-1, n) @ w[..., i, :, None]).reshape(lead + (-1, n))
            Bv = v @ B
            G = R[i] + np.einsum("ni,jnk,kl->jil", B, Pn, B)
            if m == 1:
                k[i, ..., j:, :] = -Bv / G[:, 0]
            else:
                k[i, ..., j:, :] = -np.linalg.solve(G, Bv[..., None])[..., 0]
            q[..., j:, :] = v @ A + np.einsum("jmn,...jm->...jn", K[s[j:], i], Bv)
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
    A, Q, R = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, Q, R))
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    if init is not None:
        P = np.asarray(init, dtype=float)
        P = 0.5 * (P + P.T)
    else:
        try:
            P = _scipy_dare(A, B, Q, R)
            P = 0.5 * (P + P.T) if np.all(np.isfinite(P)) else Q
        except Exception:
            P = Q
    for _ in range(max_iter):
        Pn, _ = riccati_step(P, A, B, Q, R)
        step = np.linalg.norm(Pn - P, 2)
        if step <= tol * max(1.0, np.linalg.norm(Pn, 2)):
            return Pn
        P = Pn
    raise DareConvergenceError(
        f"no fixed point within {max_iter} iterations at tolerance {tol}"
    )


def simulate(sys: LinearSystem, schedule, L, x0, w=None, r=None, l=None) -> list:
    """Closed loops u[t] = L[t] (x[t] - r[t]) + l[t], x[t+1] = (A x[t] + B u[t]) + w[t].

    ``L`` is one (m, n) gain or a (..., T-1, m, n) stack; ``r`` (..., T-1, n),
    ``l`` (..., T-1, m) and ``w`` (..., T-1, n) are skipped when None, and
    batch axes broadcast. Returns per trajectory, in C order, a Trajectory
    costed under ``schedule`` or a TrajectoryOverflowError dated to its first
    non-finite state (T-1 for a non-finite cost). The loop stops early once
    every state is non-finite.

    A trajectory keeps the bits of its own unbatched loop: stacked matmul makes
    per entry the BLAS call of an unbatched product of the same shapes, so with
    states as (n, 1) columns L[t] x is a dot (m = 1) or a gemv, as A x is.
    einsum or one flattened gemm would reorder sums. An absent r or l is
    skipped, as adding 0 turns -0.0 into +0.0; r = +0.0 and l = -0.0 are exact.
    """
    A, B = sys.A, sys.B
    n, m, T = sys.n, sys.m, schedule.horizon
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != n:
        raise ValueError(f"x0 must have length {n}")
    L, stacks = np.asarray(L, dtype=float), {}
    for name, a, tail in (("L", L, (m, n)), ("r", r, (n,)), ("l", l, (m,)), ("w", w, (n,))):
        if a is not None and not (name == "L" and L.shape == tail):
            a, tail = np.asarray(a, dtype=float), (T - 1,) + tail
            if a.shape[a.ndim - len(tail) :] != tail:
                raise ValueError(f"{name} must end in shape {tail}, got {a.shape}")
            stacks[name] = a if name == "L" else a[..., None]
    batch = np.broadcast_shapes(*(a.shape[:-3] for a in stacks.values()))
    for name, a in stacks.items():
        # Time-major, (T-1, batch or 1, rows, columns).
        a = np.broadcast_to(a, (batch if a.ndim > 3 else ()) + a.shape[-3:]).reshape((-1,) + a.shape[-3:])
        stacks[name] = np.ascontiguousarray(np.moveaxis(a, 0, 1))
    L, r, l, w = stacks.get("L", L), stacks.get("r"), stacks.get("l"), stacks.get("w")
    nb = int(np.prod(batch))
    X, U = np.empty((T, nb, n, 1)), np.empty((T - 1, nb, m, 1))
    X[0] = x0[:, None]
    v, Bu, zero = np.empty((nb, n, 1)), np.empty((nb, n, 1)), np.zeros((n, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 1):
            x, xn, u = X[t], X[t + 1], U[t]
            np.matmul(L if L.ndim == 2 else L[t], x if r is None else np.subtract(x, r[t], v), u)
            if l is not None:
                np.add(u, l[t], u)
            np.matmul(A, x, xn)
            np.add(xn, np.matmul(B, u, Bu), xn)
            np.add(xn, zero if w is None else w[t], xn)
            if (t + 1) % 8 == 0 and not np.isfinite(xn).all(axis=(1, 2)).any():
                break  # every trajectory has overflowed
        finite = np.isfinite(X[1 : t + 2]).all(axis=(2, 3))
        results = []
        for b in range(nb):
            x, u = np.ascontiguousarray(X[:, b, :, 0]), np.ascontiguousarray(U[:, b, :, 0])
            if not finite[:, b].all():
                results.append(TrajectoryOverflowError(int(finite[:, b].argmin()) + 1))
            elif np.isfinite(cost := schedule_cost(x, u, schedule)):
                results.append(Trajectory(x, u, cost))
            else:
                results.append(TrajectoryOverflowError(T - 1, "non-finite cost"))
    return results


def _only(results):
    """The result of a batch of one, raised when it is an error."""
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def rollout(sys: LinearSystem, sol: RiccatiSolution, x0, w=None) -> Trajectory:
    """Forward-simulate the closed loop u = K x under the solution's schedule."""
    return _only(simulate(sys, sol.schedule, sol.K, x0, w))


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
