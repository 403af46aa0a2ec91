"""The benchmark's own reference computations, independent of the program.

Each run builds small instances from its seed and checks the program
against textbook code written here:

- a backward Riccati recursion, whose x0' P0 x0 is the optimal cost
  (checks ``clairvoyant_policy`` without disturbances);
- the affine recursion for known disturbances, whose value at x0 is the
  disturbed optimum (checks ``clairvoyant_policy`` with disturbances);
- ``scipy.linalg.solve_discrete_are`` for the baseline's terminal matrix,
  plus a receding-horizon loop built on it (checks ``solve_dare`` and the
  gains of ``mpc_baseline_policy``);
- a stacked least-squares solve on a stable two-input system at small T
  (checks ``clairvoyant_policy`` on the general-input path);
- the tracking policy at the longest legal preview W = T - 2, whose regret
  against the textbook optimum must vanish.

Nothing here is compared with a stored copy of the program's output.
"""

from __future__ import annotations

import hashlib

import numpy as np

import preview_lqr as pl

# Relative tolerance for every comparison; the acceptance criteria use the
# same 1e-8 for oracle and full-preview agreement.
RTOL = 1e-8

# The pendulum benchmark's a priori cost bounds (criterion 08 and 10 inputs).
Q_LO, Q_HI = 8e3, 3.2e4
R_LO, R_HI = 2e3, 9.8e4
PENDULUM_POLES = (1e-3, 6e-3, 4e-3, 3e-3)


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit seed derived from the workload seed and labels."""
    text = "|".join([str(int(seed))] + [str(label) for label in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(1.0, float(np.abs(b).max())))


# -- textbook recursions --------------------------------------------------


def riccati(A, B, Q, R, terminal=None):
    """Backward recursion over lists Q[0..T-1], R[0..T-2]; returns (P, K)."""
    T = len(Q)
    P = [None] * T
    K = [None] * (T - 1)
    P[T - 1] = np.array(Q[T - 1] if terminal is None else terminal, dtype=float)
    for t in range(T - 2, -1, -1):
        Pn = P[t + 1]
        G = R[t] + B.T @ Pn @ B
        K[t] = -np.linalg.solve(G, B.T @ Pn @ A)
        P[t] = Q[t] + A.T @ Pn @ A + A.T @ Pn @ B @ K[t]
    return P, K


def disturbed_optimum(A, B, Q, R, x0, w) -> float:
    """Optimal cost with known disturbances w[0..T-2].

    The value function is x' P x + 2 s' x + c; the stage minimisation gives
    s_t = (A + B K_t)' (P w + s) and c_t = c + w' P w + 2 s' w - h' G^-1 h
    with h = B' (P w + s), all evaluated at step t + 1.
    """
    T = len(Q)
    P = np.array(Q[T - 1], dtype=float)
    s = np.zeros(A.shape[0])
    c = 0.0
    for t in range(T - 2, -1, -1):
        G = R[t] + B.T @ P @ B
        K = -np.linalg.solve(G, B.T @ P @ A)
        Pw_s = P @ w[t] + s
        h = B.T @ Pw_s
        c = c + w[t] @ P @ w[t] + 2.0 * s @ w[t] - h @ np.linalg.solve(G, h)
        s = (A + B @ K).T @ Pw_s
        P = Q[t] + A.T @ P @ A + A.T @ P @ B @ K
    return float(x0 @ P @ x0 + 2.0 * s @ x0 + c)


def least_squares_optimum(A, B, Q, R, x0):
    """Minimise sum x'Qx + u'Ru as one stacked least-squares problem.

    With x_t = c_t + F_t u, the cost is || [Q^1/2 (c + F u); R^1/2 u] ||^2.
    Returns (u, cost) with u of shape (T-1, m).
    """
    T = len(Q)
    n, m = B.shape
    nu = (T - 1) * m
    c = np.zeros((T, n))
    F = np.zeros((T, n, nu))
    c[0] = x0
    for t in range(1, T):
        c[t] = A @ c[t - 1]
        F[t] = A @ F[t - 1]
        F[t][:, (t - 1) * m : t * m] += B
    rows, rhs = [], []
    for t in range(T):
        L = np.linalg.cholesky(Q[t]).T
        rows.append(L @ F[t])
        rhs.append(-L @ c[t])
    for t in range(T - 1):
        L = np.linalg.cholesky(R[t]).T
        block = np.zeros((m, nu))
        block[:, t * m : (t + 1) * m] = L
        rows.append(block)
        rhs.append(np.zeros(m))
    M = np.vstack(rows)
    y = np.concatenate(rhs)
    u, *_ = np.linalg.lstsq(M, y, rcond=None)
    cost = float(np.sum((M @ u - y) ** 2))
    return u.reshape(T - 1, m), cost


def receding_horizon(A, B, Q, R, P_term, W, x0, w):
    """The baseline: at each t solve W + 1 stages capped by P_term.

    Near the end the window stops at the true final state cost. Returns
    the realised states and controls.
    """
    T = len(Q)
    x = np.zeros((T, A.shape[0]))
    u = np.zeros((T - 1, B.shape[1]))
    x[0] = x0
    for t in range(T - 1):
        last = t + W
        if last + 1 > T - 1:
            last, P = T - 2, np.array(Q[T - 1], dtype=float)
        else:
            P = P_term
        for k in range(last, t - 1, -1):
            G = R[k] + B.T @ P @ B
            K = -np.linalg.solve(G, B.T @ P @ A)
            P = Q[k] + A.T @ P @ A + A.T @ P @ B @ K
        u[t] = K @ x[t]
        x[t + 1] = A @ x[t] + B @ u[t] + w[t]
    return x, u


# -- instances ------------------------------------------------------------


def pendulum_schedule(rng, T):
    """Uniform blends between the pendulum bounds, one scalar per entry."""
    Q = [(Q_LO + (Q_HI - Q_LO) * rng.random()) * np.eye(4) for _ in range(T)]
    R = [np.array([[R_LO + (R_HI - R_LO) * rng.random()]]) for _ in range(T - 1)]
    return Q, R


def _random_pd(rng, n, floor):
    M = rng.standard_normal((n, n))
    return M @ M.T / n + floor * np.eye(n)


def stable_system(rng, n, m):
    """Random (A, B) with A scaled to spectral radius 0.9."""
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(np.abs(np.linalg.eigvals(A)))
    return A, rng.standard_normal((n, m))


# -- checks ---------------------------------------------------------------


def check_program(seed: int) -> list:
    """Run every reference check; returns a list of failure messages."""
    # Imported here, not at module level: the workloads take derive_seed
    # from this module, and set-up should load only what the program loads.
    from scipy.linalg import solve_discrete_are

    rng = np.random.default_rng(derive_seed(seed, "reference"))
    problems = []

    def expect(name, err):
        if not err <= RTOL:
            problems.append(f"{name}: relative error {err:.3e} > {RTOL:.0e}")

    pend = pl.inverted_pendulum()
    A, B, x0 = np.array(pend.A), np.array(pend.B), np.array(pend.x0)

    # Optimal cost without disturbances.
    T = 40
    Q, R = pendulum_schedule(rng, T)
    schedule = pl.CostSchedule(tuple(Q), tuple(R))
    P, _ = riccati(A, B, Q, R)
    optimum = float(x0 @ P[0] @ x0)
    expect("clairvoyant cost vs x0'P0x0", rel_err(pl.clairvoyant_policy(pend, schedule).cost, optimum))

    # Optimal cost with known disturbances.
    w = 5.0 * rng.standard_normal((T - 1, 4))
    expect(
        "clairvoyant disturbed cost vs affine recursion",
        rel_err(pl.clairvoyant_policy(pend, schedule, w).cost, disturbed_optimum(A, B, Q, R, x0, w)),
    )

    # Baseline terminal matrix and receding-horizon gains.
    Q_max, R_max = Q_HI * np.eye(4), np.array([[R_HI]])
    P_scipy = solve_discrete_are(A, B, Q_max, R_max)
    expect("solve_dare vs scipy", rel_err(pl.solve_dare(A, B, Q_max, R_max), P_scipy))
    bounds = pl.CostBounds(Q_LO * np.eye(4), Q_max, np.array([[R_LO]]), R_max)
    W = 4
    base = pl.mpc_baseline_policy(pend, schedule, bounds, W, w)
    x_ref, u_ref = receding_horizon(A, B, Q, R, P_scipy, W, x0, w)
    expect("baseline controls vs receding-horizon reference", rel_err(base.u, u_ref))
    expect("baseline states vs receding-horizon reference", rel_err(base.x, x_ref))

    # Stacked least squares on a stable two-input system.
    n, m, T_ls = 3, 2, 12
    A_s, B_s = stable_system(rng, n, m)
    Q_s = [_random_pd(rng, n, 0.2) for _ in range(T_ls)]
    R_s = [_random_pd(rng, m, 0.5) for _ in range(T_ls - 1)]
    x0_s = rng.standard_normal(n)
    sys_s = pl.LinearSystem(A_s, B_s, x0_s)
    traj = pl.clairvoyant_policy(sys_s, pl.CostSchedule(tuple(Q_s), tuple(R_s)))
    u_ls, cost_ls = least_squares_optimum(A_s, B_s, Q_s, R_s, x0_s)
    expect("clairvoyant controls vs least squares", rel_err(traj.u, u_ls))
    expect("clairvoyant cost vs least squares", rel_err(traj.cost, cost_ls))

    # Tracking at the longest legal preview has zero regret.
    T_full = 50
    Q_f, R_f = pendulum_schedule(rng, T_full)
    sched_f = pl.CostSchedule(tuple(Q_f), tuple(R_f))
    P_f, _ = riccati(A, B, Q_f, R_f)
    K_track = pl.place_poles_single_input(pend, PENDULUM_POLES)
    ours = pl.prediction_tracking_policy(pend, sched_f, pl.PolicyConfig(T_full - 2, K_track))
    expect("tracking regret at W = T - 2", rel_err(ours.cost, float(x0 @ P_f[0] @ x0)))
    return problems
