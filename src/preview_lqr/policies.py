"""Control policies: clairvoyant optimum, prediction tracking, and a
receding-horizon baseline.

The prediction-tracking policy plans a full-horizon trajectory from the
initial state under the schedule frozen at the preview boundary, then
steers toward the planned state with a fixed stabilizing gain. The
baseline re-solves a short window from the current state at every step,
capping it with the fixed-point value matrix of the upper cost bounds;
one recursion over window lengths gives every preview length's gains.
Each policy's closed-loop law, the (L, r, l) stacks that ``simulate``
runs, is built once, by ``tracking_law``, ``baseline_law`` or
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
    check_disturbances,
    frozen_backward_sweep,
    riccati_step,
    simulate,
    solve_dare,
)
from .systems import LinearSystem, _freeze, spectral_radius

# The pendulum benchmark's tracking-gain poles.
DEFAULT_POLES = (1e-3, 6e-3, 4e-3, 3e-3)


class PreviewLengthError(ValueError):
    """A preview length W that is not an integer >= 0, or above T-2 where a policy runs."""


def check_preview_length(W, T: int | None = None) -> int:
    """W as an int, or a PreviewLengthError unless W is an integer >= 0 and,
    given the horizon T of a policy run, at most T - 2."""
    if not float(W).is_integer() or (T is None and W < 0):
        raise PreviewLengthError("W must be a nonnegative integer")
    if T is not None and not 0 <= W <= T - 2:
        raise PreviewLengthError(f"W must satisfy 0 <= W <= T - 2 = {T - 2}, got {W}")
    return int(W)


class UnstableTrackingError(ValueError):
    """The tracking gain does not stabilize the system: rho(A + B K_track) >= 1."""


@dataclass(frozen=True)
class PolicyConfig:
    """Preview length W and the fixed tracking gain K_track."""

    W: int
    K_track: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", check_preview_length(self.W))
        K = np.atleast_2d(np.asarray(self.K_track, dtype=float))
        object.__setattr__(self, "K_track", _freeze(K))


def default_tracking_poles(n: int):
    """Small real pole set used for the benchmark tracking gains."""
    if n == len(DEFAULT_POLES):
        return DEFAULT_POLES
    return tuple(1e-3 * (i + 1) for i in range(n))


def validate_policy_config(cfg: PolicyConfig, sys: LinearSystem, T: int):
    """Check W against the horizon and that the tracking loop is stable."""
    check_preview_length(cfg.W, T)
    if cfg.K_track.shape != (sys.m, sys.n):
        raise ValueError(
            f"K_track must have shape {(sys.m, sys.n)}, got {cfg.K_track.shape}"
        )
    rho = spectral_radius(sys.A + sys.B @ cfg.K_track)
    if not rho < 1.0:
        raise UnstableTrackingError(
            f"tracking gain does not stabilize the system: rho(A + B K) = {rho}"
        )


def _nominal_step(sys: LinearSystem, K, x, i: int):
    """(u, A x + B u) with u = K x for the plans along the last axis of x (n,
    N >= 2), K (m, n, N) or (m, n, 1). The sums over K and B are elementwise,
    as gemv would take B @ u at n = 1, and A @ x is a gemm, which rounds
    every column alike, so a plan's bits do not depend on its batch. A
    non-finite next state but the first raises, dated i + 1: the first
    column only makes up two for gemm, or copies the second. Callers
    silence overflow around their loops."""
    u = np.add.reduce(K * x, axis=1)
    x = sys.A @ x + np.add.reduce(sys.B[..., None] * u, axis=1)
    if not np.isfinite(x[:, 1:]).all():
        raise TrajectoryOverflowError(i + 1, "non-finite planned state")
    return u, x


class FrozenPlanner:
    """Every frozen backward pass and nominal plan of one instance, and the
    plans its tracker makes with known disturbances.

    The plan under a schedule frozen at index s depends on s alone in the
    disturbance-free case, so all time steps and preview lengths share the
    T passes. ``prepare()`` runs ``frozen_backward_sweep`` once and keeps
    read-only stacks indexed by freeze index: gains ``K`` (T, T-1, m, n),
    the alpha screen's suffix maxima ``apa_max`` (T,), entry s over passes
    s..T-1, the true pass's value matrices ``P_true`` (T, n, n), which
    ``solution()`` wraps, and the nominal plans' states ``X`` (T, T, n) and
    controls ``U`` (T, T-1, m), each plan to its freeze index s (zero above
    it; ``nominal_plan(s)`` continues the later rows), rolled out only from
    where its gains leave the true pass's. ``K``, ``X`` and ``U`` are views
    of step-major stacks, plans along the last axis. A freeze index above
    T-1 reads pass T-1; a negative or non-integer one raises. With
    disturbances ``w``, (T-1, n) or a stack (N, T-1, n) of N trials, the
    sweep also streams the feedforward ``k`` of the plans at each preview
    length of ``Ws``. ``plan_points(W)`` gives, for every t at once, the
    entry of the plan made at t that the tracker reads; ``plan(t, W,
    known_w)`` is its reference.
    """

    def __init__(self, sys: LinearSystem, schedule: CostSchedule, w=None, Ws=()):
        self.sys = sys
        self.schedule = schedule
        self.T = schedule.horizon
        self.w = None if w is None else _freeze(check_disturbances(w, self.T, sys.n))
        self.Ws = tuple(check_preview_length(W) for W in Ws)
        self.K = self.apa_max = self.P_true = self.X = self.U = self.k = None

    def prepare(self):
        """Sweep every frozen pass with the plans asked for, and roll out each nominal plan, once."""
        if self.K is not None:
            return
        # A trial whose w is all zero reads the nominal plans.
        Ws = self.Ws if self.w is not None and self.w.any() else ()
        K, apa_max, P_true, k, merged = frozen_backward_sweep(self.sys, self.schedule, self.w, Ws)
        T, n, m, K_sm = self.T, self.sys.n, self.sys.m, np.moveaxis(K, 0, -1)
        # Step-major, plans along the last axis: X[t, :, s] is state t of plan s.
        X, U = np.zeros((T, n, T)), np.zeros((T - 1, m, T))
        X[0] = self.sys.x0[:, None]
        # Plan s is the true plan, T-1, bit for bit to state merged[s]. Plans
        # i..j-1 advance at step i: j-1 is the first with merged > i, or T-1,
        # and stands in for the true plan, which the later ones copy; plan
        # i's next state is dropped, so A @ x keeps two columns or more.
        stop = np.searchsorted(merged[: T - 1], np.arange(T - 1), side="right") + 1
        with np.errstate(over="ignore", invalid="ignore"):
            for i, j in enumerate(stop.tolist()):
                U[i, :, i:j], x = _nominal_step(self.sys, K_sm[i][..., i:j], X[i, :, i:j], i)
                X[i + 1, :, i + 1 : j] = x[:, 1:]
                U[i, :, j:], X[i + 1, :, j:] = U[i, :, j - 1 : j], X[i + 1, :, j - 1 : j]
        X, U = X.transpose(2, 0, 1), U.transpose(2, 0, 1)
        for stack in (K, apa_max, P_true, X, U, *k):
            stack.setflags(write=False)
        self.K, self.apa_max, self.P_true, self.X, self.U = K, apa_max, P_true, X, U
        self.k = dict(zip(Ws, k))

    def solution(self) -> RiccatiSolution:
        """The true pass, pass T-1: the backward pass on the whole schedule."""
        self.prepare()
        return RiccatiSolution(self.P_true, self.K[self.T - 1], self.schedule)

    def nominal_plan(self, s: int):
        """Disturbance-free plan (states, controls) from the initial state.

        Rows 0..s are stored. Later rows continue row s with the gains of
        pass s, by ``prepare``'s ``_nominal_step`` on two copies of the row,
        so they are the full-horizon rollout's, bit for bit.
        """
        if s < 0 or not float(s).is_integer():
            raise ValueError(f"freeze index s must be a nonnegative integer, got {s}")
        self.prepare()
        T, s = self.T, min(int(s), self.T - 1)
        X, U, K = self.X[s].copy(), self.U[s].copy(), self.K[s]
        x = np.stack([X[s], X[s]], axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(s, T - 1):
                u, x = _nominal_step(self.sys, K[i][..., None], x, i)
                U[i], X[i + 1] = u[:, 0], x[:, 0]
        X.setflags(write=False)
        U.setflags(write=False)
        return X, U

    def plan(self, t: int, W: int, known_w=None):
        """Full-horizon plan at time t with preview W.

        ``known_w`` may be the full disturbance array or any prefix of it;
        entries at indices 0..t enter the planning dynamics and later ones
        are treated as zero. With disturbances it solves its frozen pass
        again, uncut, by ``backward_riccati``.
        """
        if not (0 <= t <= self.T - 2 and float(t).is_integer()):
            raise ValueError(f"t must be an integer with 0 <= t <= T - 2 = {self.T - 2}, got {t}")
        t = int(t)
        s = min(t + check_preview_length(W), self.T - 1)
        if known_w is None:
            return self.nominal_plan(s)
        w = np.atleast_2d(np.asarray(known_w, dtype=float))
        if w.shape[1] != self.sys.n:
            raise ValueError(f"known_w rows must have length {self.sys.n}")
        upto = min(t + 1, self.T - 1, w.shape[0])
        if not np.any(w[:upto]):
            return self.nominal_plan(s)
        sol = backward_riccati(self.sys, frozen_schedule(self.schedule, s, 0))
        w_plan = np.zeros((self.T - 1, self.sys.n))
        w_plan[:upto] = w[:upto]
        k = affine_terms(self.sys, sol, w_plan, t)
        traj = _only(simulate(self.sys, sol.schedule, sol.K, self.sys.x0, w_plan, l=k))
        return traj.x, traj.u

    def plan_points(self, W: int):
        """Entry t of the plan made at time t, for every t in 0..T-2.

        Returns (states, controls) of shapes (T-1, n) and (T-1, m); row t
        equals ``plan(t, W, w)[0][t]`` and ``plan(t, W, w)[1][t]`` with the
        planner's ``w``, whose trials give (N, T-1, n) and (N, T-1, m), each
        as a planner of its own gives them. A trial with no disturbance gets
        the cached nominal rows, bit for bit; the others roll out one forward
        sweep on the streamed feedforward at W, one of ``Ws``, in which plan t
        stops at index t and reads only its frozen pass and w[0..t].
        """
        T, m = self.T, self.sys.m
        W = check_preview_length(W)
        t_all = np.arange(T - 1)
        s_of = np.minimum(t_all + W, T - 1)
        self.prepare()
        X, U, w = self.X[s_of, t_all], self.U[s_of, t_all], self.w
        if w is None:
            return X, U
        lead = w.shape[:-2]
        # A trial with an all-zero w keeps the cached rows.
        zero = ~np.any(w, axis=(-2, -1))
        if zero.all():
            return tuple(np.broadcast_to(a, lead + a.shape).copy() for a in (X, U))
        if W not in self.k:
            raise ValueError(f"the planner was built without W = {W} among its Ws")
        k = self.k[W]
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
    l = np.moveaxis(affine_terms(sys, sol, w), 0, -2)
    return np.broadcast_to(sol.K, l.shape[:-1] + sol.K.shape[-2:]), np.zeros(w.shape), l


def clairvoyant_policy(sys: LinearSystem, schedule: CostSchedule, w=None, solution=None) -> Trajectory:
    """Full-information optimal trajectory used as the regret comparator.

    It knows every disturbance and runs ``clairvoyant_law``. With ``w`` None
    it runs the true pass's gains alone, which is the law on an all-zero w
    bit for bit, since that law's r = +0.0 and l = -0.0 are exact.
    ``solution``, when given, is the true pass (``backward_riccati`` on the
    schedule, or ``FrozenPlanner.solution()``), so callers that hold it
    do not solve it again.
    """
    sol = solution if solution is not None else backward_riccati(sys, schedule)
    if w is None:
        return _only(simulate(sys, schedule, sol.K, sys.x0))
    L, r, l = clairvoyant_law(sys, sol, w)
    return _only(simulate(sys, schedule, L, sys.x0, w, r, l))


def tracking_law(planner: FrozenPlanner, cfg: PolicyConfig):
    """The tracker's (L, r, l): u = K_track (x - X) + U, with (X, U) from
    ``planner.plan_points``, so a planner of N trials gives N trials' stacks."""
    validate_policy_config(cfg, planner.sys, planner.T)
    X, U = planner.plan_points(cfg.W)
    return np.broadcast_to(cfg.K_track, U.shape[:-1] + cfg.K_track.shape), X, U


def prediction_tracking_policy(
    sys: LinearSystem, schedule: CostSchedule, cfg: PolicyConfig, w=None, planner: FrozenPlanner | None = None,
) -> Trajectory:
    """Run the prediction-tracking policy over the whole horizon.

    At each step the policy re-plans under the currently revealed costs and
    disturbances and applies u = K_track (x - x_planned) + u_planned; the
    realized state then advances with the true disturbance. Only entry t of
    the plan made at time t is applied, so all of them come from one
    ``FrozenPlanner.plan_points`` call: O(T) batched array steps, with or
    without disturbances. Without a ``planner`` it builds one for ``w`` and
    ``cfg.W``; a planner carries its own disturbances, so ``w`` is then None.
    """
    if planner is None:
        planner = FrozenPlanner(sys, schedule, w, [cfg.W])
    elif w is not None:
        raise ValueError("a planner carries its own disturbances; build it with w instead")
    L, r, l = tracking_law(planner, cfg)
    return _only(simulate(sys, schedule, L, sys.x0, planner.w, r, l))


def baseline_law(sys: LinearSystem, schedule: CostSchedule, Ws, P_max) -> list:
    """The baseline's (L, r, l) per W of ``Ws``: u = K x, from one level recursion.

    Level -1 is P_max at every t; level k is ``riccati_step`` of level k-1 at
    t+1 with (Q[t], R[t]) at t <= T-2 and Q[T-1] at T-1, which ends the
    truncated windows. W's gains are level W's: max(Ws)+1 batched steps on
    one (n, n, T) stack. r = +0.0 and l = -0.0 change no bits of the loop.
    """
    T = schedule.horizon
    Ws = [check_preview_length(W, T) for W in Ws]
    Q, R = (np.moveaxis(M, 0, -1) for M in (schedule.Q, schedule.R))
    P = np.repeat(np.asarray(P_max, dtype=float)[..., None], T, axis=2)
    gains = {}
    for k in range(max(Ws, default=-1) + 1):
        P[..., :-1], K = riccati_step(P[..., 1:], sys.A, sys.B, Q[..., :-1], R)
        P[..., -1] = Q[..., -1]
        if k in Ws:
            gains[k] = np.ascontiguousarray(K.transpose(2, 0, 1))
    r, l = np.zeros((T - 1, sys.n)), np.full((T - 1, sys.m), -0.0)
    return [(gains[W], r, l) for W in Ws]


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
    ((L, r, l),) = baseline_law(sys, schedule, [W], P_max)
    return _only(simulate(sys, schedule, L, sys.x0, w, r, l))
