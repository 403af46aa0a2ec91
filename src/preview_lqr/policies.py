"""Control policies: clairvoyant optimum, prediction tracking, and a
receding-horizon baseline.

The prediction-tracking policy plans a full-horizon trajectory from the
initial state under the schedule frozen at the preview boundary, then
steers toward the planned state with a fixed stabilizing gain. The
baseline re-solves a short window from the current state at every step,
capping the tail with the fixed-point value matrix of the upper cost
bounds. Each policy's closed-loop law, the (L, r, l) stacks that
``simulate`` runs, is built once, by ``tracking_law``, ``baseline_law`` or
``clairvoyant_law``; single runs and the batched evaluators stack them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostBounds, CostSchedule, frozen_schedule
from .riccati import (
    RiccatiSolution,
    Trajectory,
    TrajectoryOverflowError,
    _only,
    affine_terms,
    backward_riccati,
    frozen_backward_sweep,
    riccati_step,
    simulate,
    solve_dare,
)
from .systems import LinearSystem, _freeze, spectral_radius

# The pendulum benchmark's tracking-gain poles.
DEFAULT_POLES = (1e-3, 6e-3, 4e-3, 3e-3)


class PreviewLengthError(ValueError):
    """A preview length W that is not an integer in 0..T-2."""


class UnstableTrackingError(ValueError):
    """The tracking gain does not stabilize the system: rho(A + B K_track) >= 1."""


@dataclass(frozen=True)
class PolicyConfig:
    """Preview length W and the fixed tracking gain K_track."""

    W: int
    K_track: np.ndarray

    def __post_init__(self):
        if int(self.W) != self.W or self.W < 0:
            raise PreviewLengthError("W must be a nonnegative integer")
        object.__setattr__(self, "W", int(self.W))
        K = np.atleast_2d(np.asarray(self.K_track, dtype=float))
        object.__setattr__(self, "K_track", _freeze(K))


def default_tracking_poles(n: int):
    """Small real pole set used for the benchmark tracking gains."""
    if n == len(DEFAULT_POLES):
        return DEFAULT_POLES
    return tuple(1e-3 * (i + 1) for i in range(n))


def validate_policy_config(cfg: PolicyConfig, sys: LinearSystem, T: int):
    """Check W against the horizon and that the tracking loop is stable."""
    if not 0 <= cfg.W <= T - 2:
        raise PreviewLengthError(f"W must satisfy 0 <= W <= T - 2 = {T - 2}, got {cfg.W}")
    if cfg.K_track.shape != (sys.m, sys.n):
        raise ValueError(
            f"K_track must have shape {(sys.m, sys.n)}, got {cfg.K_track.shape}"
        )
    rho = spectral_radius(sys.A + sys.B @ cfg.K_track)
    if not rho < 1.0:
        raise UnstableTrackingError(
            f"tracking gain does not stabilize the system: rho(A + B K) = {rho}"
        )


class FrozenPlanner:
    """Every frozen backward pass and nominal plan of one instance.

    The plan under a schedule frozen at index s depends on s alone in the
    disturbance-free case, so all time steps and preview lengths share the
    T passes. ``prepare()`` runs ``frozen_backward_sweep`` once and keeps
    read-only stacks indexed by freeze index: gains ``K`` (T, T-1, m, n),
    the alpha screen's per-pass maxima ``apa_max`` (T,), and the nominal
    plans' states ``X`` (T, T, n) and controls ``U`` (T, T-1, m), each
    plan only to its freeze index s, the last entry the tracker reads
    (zero above it; ``nominal_plan(s)`` continues the later rows). Of the
    value matrices it keeps the true pass, ``P_true`` (T, n, n).

    Every pass's value matrices ``P`` (T, T, n, n), which known
    disturbances add their affine terms on, are read only by disturbance
    plans, ``solution(s)`` for s < T-1 and the verify suites. A planner
    keeps them only when built with ``keep_P``, which callers that will
    read them ask for, so that it sweeps once; reading ``P`` otherwise
    sweeps again, with the same bits.

    ``plan(t, W, known_w)`` is the single-time API: the full-horizon plan
    made at time t. ``plan_points(W, w)`` returns only the entries the
    tracking policy reads, entry t of the plan made at time t, for every t
    at once; with disturbances it runs one backward and one forward sweep
    batched over t, O(T) array steps instead of a replan per step.
    """

    def __init__(self, sys: LinearSystem, schedule: CostSchedule, keep_P: bool = False):
        self.sys = sys
        self.schedule = schedule
        self.T = schedule.horizon
        self.keep_P = keep_P
        self.K = self.apa_max = self.P_true = self.X = self.U = self._P = None

    def prepare(self):
        """Solve every frozen pass and roll out each nominal plan to its freeze index, once."""
        if self.K is not None:
            return
        K, apa_max, P_true, P = frozen_backward_sweep(self.sys, self.schedule, self.keep_P)
        T, n, m = self.T, self.sys.n, self.sys.m
        AT, BT = self.sys.A.T.copy(), self.sys.B.T.copy()
        X, U = np.zeros((T, T, n)), np.zeros((T, T - 1, m))
        X[:, 0] = self.sys.x0
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(T - 1):
                # Plans i..T-1 advance. Plan i's next state is computed and
                # dropped, so the product keeps two rows or more: one row
                # goes to gemv, which rounds unlike gemm.
                U[i:, i] = (K[i:, i] @ X[i:, i, :, None])[..., 0]
                X[i + 1 :, i + 1] = (X[i:, i] @ AT + U[i:, i] @ BT)[1:]
                if not np.isfinite(X[i + 1 :, i + 1]).all():
                    raise TrajectoryOverflowError(i + 1, "non-finite planned state")
        for stack in (K, apa_max, P_true, X, U) + (() if P is None else (P,)):
            stack.setflags(write=False)
        self.K, self.apa_max, self.P_true, self.X, self.U, self._P = K, apa_max, P_true, X, U, P

    @property
    def P(self) -> np.ndarray:
        """Every pass's value matrices (T, T, n, n), read-only.

        On a planner prepared without ``keep_P`` this reruns the whole
        sweep, gains and alpha screen included, and keeps only P: a slow
        path for callers that did not ask for P before the first sweep.
        """
        if self._P is None:
            self.keep_P = True
            if self.K is None:
                self.prepare()
            else:
                self._P = frozen_backward_sweep(self.sys, self.schedule, True)[3]
                self._P.setflags(write=False)
        return self._P

    def solution(self, s: int) -> RiccatiSolution:
        """Backward pass for the schedule frozen at index s."""
        self.prepare()
        s = min(int(s), self.T - 1)
        P = self.P_true if s == self.T - 1 else self.P[s]
        return RiccatiSolution(P, self.K[s], frozen_schedule(self.schedule, s, 0))

    def nominal_plan(self, s: int):
        """Disturbance-free plan (states, controls) from the initial state.

        Rows 0..s are stored. Later rows continue row s with the gains of
        pass s, by ``prepare``'s expressions on two copies of the row, so
        they are the full-horizon rollout's, bit for bit.
        """
        self.prepare()
        T, s = self.T, min(int(s), self.T - 1)
        X, U, K = self.X[s].copy(), self.U[s].copy(), self.K[s]
        AT, BT = self.sys.A.T.copy(), self.sys.B.T.copy()
        x = np.stack([X[s], X[s]])
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(s, T - 1):
                u = (K[i] @ x[:, :, None])[..., 0]
                x = x @ AT + u @ BT
                U[i], X[i + 1] = u[0], x[0]
                if not np.isfinite(x[0]).all():
                    raise TrajectoryOverflowError(i + 1, "non-finite planned state")
        X.setflags(write=False)
        U.setflags(write=False)
        return X, U

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
        traj = _only(simulate(self.sys, sol.schedule, sol.K, self.sys.x0, w_plan, l=k))
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
        A ``w`` of shape (N, T-1, n) gives the rows of N disturbance trials,
        (N, T-1, n) and (N, T-1, m), each as its own (T-1, n) call gives them.
        """
        T, n, m = self.T, self.sys.n, self.sys.m
        t_all = np.arange(T - 1)
        s_of = np.minimum(t_all + W, T - 1)
        self.prepare()
        X, U = self.X[s_of, t_all], self.U[s_of, t_all]
        if w is None:
            return X, U
        w = np.asarray(w, dtype=float)
        if w.ndim not in (2, 3) or w.shape[-2:] != (T - 1, n):
            raise ValueError(f"w must have shape {(T - 1, n)} or (N, {T - 1}, {n}), got {w.shape}")
        lead = w.shape[:-2]
        # A trial with an all-zero w keeps the cached rows.
        zero = ~np.any(w, axis=(-2, -1))
        if zero.all():
            return tuple(np.broadcast_to(a, lead + a.shape).copy() for a in (X, U))
        # Plan t sits at position t of the batch and knows w[0..t].
        k = affine_terms(self.sys, self.P, self.K, self.schedule.R, w, s_of, t_all)
        Xw, Uw = np.empty(w.shape), np.empty(lead + (T - 1, m))
        AT, BT = self.sys.A.T.copy(), self.sys.B.T.copy()
        # Forward: plan t rolls out from x0 and stops at index t.
        x = np.broadcast_to(self.sys.x0, w.shape).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(T - 1):
                K = self.K[s_of[i:], i]
                u = np.einsum("jmn,...jn->...jm", K, x[..., i:, :]) + k[i, ..., i:, :]
                Xw[..., i, :], Uw[..., i, :] = x[..., i, :], u[..., 0, :]
                x[..., i:, :] = x[..., i:, :] @ AT + u @ BT + w[..., i, None, :]
        Xw[zero], Uw[zero] = X, U
        return Xw, Uw


def clairvoyant_law(sys: LinearSystem, sol: RiccatiSolution, w):
    """The comparator's (L, r, l): u = K x + k, with r = +0.0, which is exact.

    K is the true pass ``sol`` and k the ``affine_terms`` feedforward of one
    plan on it that knows every w. A ``w`` of shape (N, T-1, n) gives the
    stacks of N disturbance trials, each as its own (T-1, n) call gives them.
    """
    w = np.asarray(w, dtype=float)
    k = affine_terms(sys, sol.P[None], sol.K[None], sol.schedule.R, w, [0], [len(sol.P) - 2])
    l = np.moveaxis(k[..., 0, :], 0, -2)
    return np.broadcast_to(sol.K, l.shape[:-1] + sol.K.shape[-2:]), np.zeros(w.shape), l


def clairvoyant_policy(sys: LinearSystem, schedule: CostSchedule, w=None, solution=None) -> Trajectory:
    """Full-information optimal trajectory used as the regret comparator.

    It knows every disturbance and runs ``clairvoyant_law``. With ``w`` None
    it runs the true pass's gains alone, which is the law on an all-zero w
    bit for bit, since that law's r = +0.0 and l = -0.0 are exact.
    ``solution``, when given, is the true pass (``backward_riccati`` on the
    schedule, or ``FrozenPlanner.solution(T-1)``), so callers that hold it
    do not solve it again.
    """
    sol = solution if solution is not None else backward_riccati(sys, schedule)
    if w is None:
        return _only(simulate(sys, schedule, sol.K, sys.x0))
    L, r, l = clairvoyant_law(sys, sol, w)
    return _only(simulate(sys, schedule, L, sys.x0, w, r, l))


def tracking_law(planner: FrozenPlanner, cfg: PolicyConfig, w=None):
    """The tracker's (L, r, l): u = K_track (x - X) + U, with (X, U) from
    ``planner.plan_points``, so a ``w`` of shape (N, T-1, n) gives N trials' stacks."""
    validate_policy_config(cfg, planner.sys, planner.T)
    X, U = planner.plan_points(cfg.W, w)
    return np.broadcast_to(cfg.K_track, U.shape[:-1] + cfg.K_track.shape), X, U


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
    if planner is None:
        planner = FrozenPlanner(sys, schedule, keep_P=w is not None)
    L, r, l = tracking_law(planner, cfg, w)
    return _only(simulate(sys, schedule, L, sys.x0, w, r, l))


def baseline_law(sys: LinearSystem, schedule: CostSchedule, W: int, P_max):
    """The baseline's (L, r, l): u = K x, whose window plans are pure quadratics.

    The full windows t <= T-2-W run as one batch of W+1 steps from P_max; the
    truncated ones end at T-1, so their gains come from one backward pass.
    r = +0.0 and l = -0.0 change no bits of the loop.
    """
    T = schedule.horizon
    if not 0 <= W <= T - 2:
        raise PreviewLengthError(f"W must satisfy 0 <= W <= T - 2 = {T - 2}, got {W}")
    full = T - 1 - W
    P = np.asarray(P_max, dtype=float)
    Q, R = (np.moveaxis(M, 0, -1) for M in (schedule.Q, schedule.R))
    for j in range(W, -1, -1):
        P, K = riccati_step(P, sys.A, sys.B, Q[..., j : j + full], R[..., j : j + full])
    gains = np.empty((T - 1, sys.m, sys.n))
    gains[:full] = K.transpose(2, 0, 1)
    if W > 0:
        tail = CostSchedule(schedule.Q[full:], schedule.R[full:], validate=False)
        gains[full:] = backward_riccati(sys, tail).K
    return gains, np.zeros((T - 1, sys.n)), np.full((T - 1, sys.m), -0.0)


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
    if P_max is None:
        P_max = solve_dare(sys.A, sys.B, bounds.Q_max, bounds.R_max)
    L, r, l = baseline_law(sys, schedule, W, P_max)
    return _only(simulate(sys, schedule, L, sys.x0, w, r, l))
