"""Control policies: clairvoyant optimum, prediction tracking, and a
receding-horizon baseline.

The prediction-tracking policy plans a full-horizon trajectory from the
initial state under the schedule frozen at the preview boundary, then
steers toward the planned state with a fixed stabilizing gain. The
baseline re-solves a short window from the current state at every step,
capping the tail with the fixed-point value matrix of the upper cost
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostBounds, CostSchedule, frozen_schedule
from .riccati import (
    RiccatiSolution,
    Trajectory,
    TrajectoryOverflowError,
    affine_terms,
    backward_riccati,
    frozen_backward_sweep,
    riccati_step,
    rollout,
    simulate,
    solve_dare,
)
from .systems import LinearSystem, _freeze, spectral_radius

DEFAULT_TRACKING_POLES_4 = (1e-3, 6e-3, 4e-3, 3e-3)


@dataclass(frozen=True)
class PolicyConfig:
    """Preview length W and the fixed tracking gain K_track."""

    W: int
    K_track: np.ndarray

    def __post_init__(self):
        if int(self.W) != self.W or self.W < 0:
            raise ValueError("W must be a nonnegative integer")
        object.__setattr__(self, "W", int(self.W))
        K = np.atleast_2d(np.asarray(self.K_track, dtype=float))
        object.__setattr__(self, "K_track", _freeze(K))


def default_tracking_poles(n: int):
    """Small real pole set used for the benchmark tracking gains."""
    if n == 4:
        return DEFAULT_TRACKING_POLES_4
    return tuple(1e-3 * (i + 1) for i in range(n))


def validate_policy_config(cfg: PolicyConfig, sys: LinearSystem, T: int):
    """Check W against the horizon and that the tracking loop is stable."""
    if not 0 <= cfg.W <= T - 2:
        raise ValueError(f"W must satisfy 0 <= W <= T - 2 = {T - 2}, got {cfg.W}")
    if cfg.K_track.shape != (sys.m, sys.n):
        raise ValueError(
            f"K_track must have shape {(sys.m, sys.n)}, got {cfg.K_track.shape}"
        )
    rho = spectral_radius(sys.A + sys.B @ cfg.K_track)
    if not rho < 1.0:
        raise ValueError(
            f"tracking gain does not stabilize the system: rho(A + B K) = {rho}"
        )


class FrozenPlanner:
    """Every frozen backward pass and nominal plan of one instance.

    The plan under a schedule frozen at index s depends on s alone in the
    disturbance-free case, so all time steps and preview lengths share the
    T passes. ``prepare()`` solves them once, as read-only stacks indexed
    by freeze index: value matrices ``P`` (T, T, n, n), gains ``K``
    (T, T-1, m, n), and the nominal plans' states ``X`` (T, T, n) and
    controls ``U`` (T, T-1, m). Known disturbances only add affine terms
    on top of these passes.

    ``plan(t, W, known_w)`` is the single-time API: the full-horizon plan
    made at time t. ``plan_points(W, w)`` returns only the entries the
    tracking policy reads, entry t of the plan made at time t, for every t
    at once; with disturbances it runs one backward and one forward sweep
    batched over t, O(T) array steps instead of a replan per step.
    """

    def __init__(self, sys: LinearSystem, schedule: CostSchedule):
        self.sys = sys
        self.schedule = schedule
        self.T = schedule.horizon
        self.P = self.K = self.X = self.U = None

    def prepare(self):
        """Solve every frozen pass and roll out its nominal plan, once."""
        if self.P is not None:
            return
        P, K = frozen_backward_sweep(self.sys, self.schedule)
        T, n, m = self.T, self.sys.n, self.sys.m
        AT = self.sys.A.T.copy()
        BT = self.sys.B.T.copy()
        X = np.empty((T, T, n))
        U = np.empty((T, T - 1, m))
        X[:, 0] = self.sys.x0
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(T - 1):
                U[:, i] = (K[:, i] @ X[:, i, :, None])[..., 0]
                X[:, i + 1] = X[:, i] @ AT + U[:, i] @ BT
        if not np.all(np.isfinite(X)):
            bad = int(np.argwhere(~np.isfinite(X).all(axis=(0, 2)))[0, 0])
            raise TrajectoryOverflowError(bad, "non-finite planned state")
        for stack in (P, K, X, U):
            stack.setflags(write=False)
        self.P, self.K, self.X, self.U = P, K, X, U

    def solution(self, s: int) -> RiccatiSolution:
        """Backward pass for the schedule frozen at index s."""
        self.prepare()
        s = min(int(s), self.T - 1)
        return RiccatiSolution(self.P[s], self.K[s], frozen_schedule(self.schedule, s, 0))

    def nominal_plan(self, s: int):
        """Disturbance-free plan (states, controls) from the initial state."""
        self.prepare()
        s = min(int(s), self.T - 1)
        return self.X[s], self.U[s]

    def plan(self, t: int, W: int, known_w=None):
        """Full-horizon plan at time t with preview W.

        ``known_w`` may be the full disturbance array or any prefix of it;
        entries at indices 0..t enter the planning dynamics and later ones
        are treated as zero.
        """
        if not 0 <= t <= self.T - 2:
            raise ValueError(f"t must satisfy 0 <= t <= T - 2 = {self.T - 2}, got {t}")
        if W < 0:
            raise ValueError("W must be nonnegative")
        s = min(t + W, self.T - 1)
        if known_w is None:
            return self.nominal_plan(s)
        w = np.atleast_2d(np.asarray(known_w, dtype=float))
        if w.shape[1] != self.sys.n:
            raise ValueError(f"known_w rows must have length {self.sys.n}")
        upto = min(t + 1, self.T - 1, w.shape[0])
        if not np.any(w[:upto]):
            return self.nominal_plan(s)
        sol = self.solution(s)
        w_plan = np.zeros((self.T - 1, self.sys.n))
        w_plan[:upto] = w[:upto]
        k = affine_terms(self.sys, self.P, self.K, self.schedule.R, w_plan, [s], [t])[:, 0]
        K = sol.K
        traj = simulate(
            self.sys, sol.schedule, lambda i, x: K[i] @ x + k[i], self.sys.x0, w_plan
        )
        return traj.x, traj.u

    def plan_points(self, W: int, w=None):
        """Entry t of the plan made at time t, for every t in 0..T-2.

        Returns (states, controls) of shapes (T-1, n) and (T-1, m); row t
        equals ``plan(t, W, w)[0][t]`` and ``plan(t, W, w)[1][t]``. Without
        disturbances (``w`` None or all zero) the rows are the cached
        nominal plans, bit for bit. Otherwise they come from one
        ``affine_terms`` recursion batched over every t, then one forward
        rollout in which plan t stops at index t.
        Plan t reads only its own frozen pass and w[0..t], as ``plan`` does.
        """
        T, n, m = self.T, self.sys.n, self.sys.m
        t_all = np.arange(T - 1)
        s_of = np.minimum(t_all + W, T - 1)
        self.prepare()
        if w is not None:
            w = np.asarray(w, dtype=float)
            if w.shape != (T - 1, n):
                raise ValueError(f"w must have shape {(T - 1, n)}, got {w.shape}")
        if w is None or not np.any(w):
            return self.X[s_of, t_all], self.U[s_of, t_all]
        # Plan t sits at position t of the batch and knows w[0..t].
        k = affine_terms(self.sys, self.P, self.K, self.schedule.R, w, s_of, t_all)
        X = np.empty((T - 1, n))
        U = np.empty((T - 1, m))
        AT, BT = self.sys.A.T.copy(), self.sys.B.T.copy()
        # Forward: plan t rolls out from x0 and stops at index t.
        x = np.tile(self.sys.x0, (T - 1, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(T - 1):
                K = self.K[s_of[i:], i]
                u = np.einsum("jmn,jn->jm", K, x[i:]) + k[i, i:]
                X[i] = x[i]
                U[i] = u[0]
                x[i:] = x[i:] @ AT + u @ BT + w[i]
        return X, U


def clairvoyant_policy(sys: LinearSystem, schedule: CostSchedule, w=None) -> Trajectory:
    """Full-information optimal trajectory used as the regret comparator.

    With disturbances present, the comparator knows the whole sequence and
    applies the exact affine minimizer u[t] = K[t] x[t] + k[t]: the gains of
    the true backward pass plus the feedforward of ``affine_terms`` for one
    plan that knows every w.
    """
    sol = backward_riccati(sys, schedule)
    if w is None or not np.any(w):
        return rollout(sys, sol, sys.x0)
    w = np.asarray(w, dtype=float)
    K = sol.K
    last = schedule.horizon - 2
    k = affine_terms(sys, sol.P[None], K[None], schedule.R, w, [0], [last])[:, 0]
    return simulate(sys, schedule, lambda t, x: K[t] @ x + k[t], sys.x0, w)


def prediction_tracking_policy(
    sys: LinearSystem,
    schedule: CostSchedule,
    cfg: PolicyConfig,
    w=None,
    planner: FrozenPlanner | None = None,
) -> Trajectory:
    """Run the prediction-tracking policy over the whole horizon.

    At each step the policy re-plans under the currently revealed costs and
    disturbances and applies u = K_track (x - x_planned) + u_planned; the
    realized state then advances with the true disturbance. Only entry t of
    the plan made at time t is applied, so all of them come from one
    ``FrozenPlanner.plan_points`` call: O(T) batched array steps, with or
    without disturbances.
    """
    validate_policy_config(cfg, sys, schedule.horizon)
    if planner is None:
        planner = FrozenPlanner(sys, schedule)
    xs_plan, us_plan = planner.plan_points(cfg.W, w)
    K = cfg.K_track
    return simulate(
        sys, schedule, lambda t, x: K @ (x - xs_plan[t]) + us_plan[t], sys.x0, w
    )


def mpc_baseline_policy(
    sys: LinearSystem,
    schedule: CostSchedule,
    bounds: CostBounds,
    W: int,
    w=None,
    P_max=None,
) -> Trajectory:
    """Receding-horizon baseline with a fixed worst-case terminal value.

    At each step it solves the W+1 stage problem from the current state with
    the revealed costs and terminal weight P_max, the fixed point computed
    from the upper cost bounds, then applies the first control. Near the end
    of the horizon (terminal index past T-1) the window truncates and the
    true final state cost is used instead.
    """
    T = schedule.horizon
    if not 0 <= W <= T - 2:
        raise ValueError(f"W must satisfy 0 <= W <= T - 2 = {T - 2}, got {W}")
    A, B = sys.A, sys.B
    if P_max is None:
        P_max = solve_dare(A, B, bounds.Q_max, bounds.R_max)
    # The window plan is a pure quadratic from the current state, so the
    # applied control is state feedback with a precomputable gain. The
    # full windows t <= T-2-W run as one batch, W+1 steps from P_max.
    full = T - 1 - W
    P = np.asarray(P_max, dtype=float)
    for j in range(W, -1, -1):
        P, K = riccati_step(P, A, B, schedule.Q[j : j + full], schedule.R[j : j + full])
    gains = np.empty((T - 1, sys.m, sys.n))
    gains[:full] = K
    # A truncated window t > T-2-W ends at T-1, so its gain is step t of
    # one backward pass from Q[T-1].
    if W > 0:
        tail = CostSchedule(schedule.Q[full:], schedule.R[full:], validate=False)
        gains[full:] = backward_riccati(sys, tail).K
    return simulate(sys, schedule, lambda t, x: gains[t] @ x, sys.x0, w)
