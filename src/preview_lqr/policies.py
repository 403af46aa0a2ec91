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

from .costs import (
    CostBounds,
    CostExtrema,
    CostSchedule,
    IncomparableScheduleError,
    frozen_schedule,
    sequence_extrema,
)
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

# Freeze indices per eigvalsh batch of ``FrozenPlanner.alpha_top``: at
# T = 1000 and n = 4 a block of screen products is about 4 MB.
ALPHA_BLOCK = 32
# Relative slack of the Frobenius screen in ``FrozenPlanner.alpha_top``: a
# computed top eigenvalue exceeds the bound on ||M||_F by O(n^2 eps) at most.
ALPHA_SCREEN_MARGIN = 1e-8
# Below this candidate eigenvalue the squares in the screen's bound can
# underflow, so the screen keeps every matrix of the pass.
ALPHA_SCREEN_FLOOR = 1e-140


def _symmetrized_apa(A, P):
    """The symmetrized (A'P)A of every matrix in the stack P, as ``eigvalsh`` sees it."""
    APA = A.T @ P @ A
    return 0.5 * (APA + np.swapaxes(APA, -1, -2))


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
    if n == len(DEFAULT_POLES):
        return DEFAULT_POLES
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
    controls ``U`` (T, T-1, m), each plan only to its freeze index s, the
    last entry the tracker reads (zero above it; ``nominal_plan(s)``
    continues the later rows). Known disturbances only add affine terms
    on top of these passes.

    ``plan(t, W, known_w)`` is the single-time API: the full-horizon plan
    made at time t. ``plan_points(W, w)`` returns only the entries the
    tracking policy reads, entry t of the plan made at time t, for every t
    at once; with disturbances it runs one backward and one forward sweep
    batched over t, O(T) array steps instead of a replan per step.

    The preview-independent parts of the bound constants are cached here
    too, each built on first use, so paths that never evaluate the bound
    pay nothing: ``alpha_top()``, the per-pass maxima that alpha takes a
    suffix maximum of, and ``extrema()``, the schedule's Loewner extrema
    and the fixed point of their upper costs.
    """

    def __init__(self, sys: LinearSystem, schedule: CostSchedule):
        self.sys = sys
        self.schedule = schedule
        self.T = schedule.horizon
        self.P = self.K = self.X = self.U = None
        self._alpha_top = self._extrema = None

    def prepare(self):
        """Solve every frozen pass and roll out each nominal plan to its freeze index, once."""
        if self.P is not None:
            return
        P, K = frozen_backward_sweep(self.sys, self.schedule)
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
        for stack in (P, K, X, U):
            stack.setflags(write=False)
        self.P, self.K, self.X, self.U = P, K, X, U

    def alpha_top(self) -> np.ndarray:
        """Per freeze index s, the top eigenvalue of A' P[s, i] A over the interior.

        Entry s is the largest eigenvalue of the symmetrized A' P[s, i] A
        over i = 1..T-2 (i = 1 when T = 2), so alpha at preview W is the
        maximum of entries min(W, T-1)..T-1. Built once, ``ALPHA_BLOCK``
        freeze indices per batch; read-only.

        A screen forms A'PA and runs ``eigvalsh`` only where a pass's
        maximum can be, and the result is bit for bit that of ``eigvalsh``
        on every matrix. One flattened gemm gives q = vec(P)' (S kron S)
        vec(P) = ||A'PA||_F^2, S = AA'. By Higham's dot-product bounds
        (*Accuracy and Stability of Numerical Algorithms*, ch. 3), rounding
        moves q by at most e1 ||P||_F^2, e1 = gamma_(2n^2+2n+2) || |A||A|'
        ||_2^2, and the formed (A'P)A, C, lies within e2 ||P||_F of A'PA,
        e2 = gamma_2n || |A| ||_2^2. So ub = sqrt(max(q, 0) + e1 ||P||_F^2)
        + e2 ||P||_F >= ||C||_F, and C symmetrized, the M that ``eigvalsh``
        sees, has lambda_max(M) <= ||M||_F <= ||C||_F (1 + u). Per pass the
        matrix of largest ub (NaN counting as largest) gives a candidate
        low_s = lambda_max, and a matrix is skipped only when
        ub (1 + ALPHA_SCREEN_MARGIN) < low_s, which covers ``eigvalsh``'s
        backward error, so the maximizer is never skipped. Formed matrices
        are formed as without the screen and ``eigvalsh`` treats each one
        alone, so they give the same values. A NaN or infinite ub, or a NaN
        candidate, keeps the matrix; a pass whose candidate is below
        ``ALPHA_SCREEN_FLOOR``, where q could underflow, is kept whole. An
        infinite candidate is its pass's maximum, and the matrices it skips
        have finite ub, so none could have made that maximum NaN.
        """
        if self._alpha_top is None:
            self.prepare()
            A, T, n = self.sys.A, self.T, self.sys.n
            hi = T - 1 if T <= 2 else T - 2
            # gamma_k = k u / (1 - k u) <= 1.01 k u for the k here.
            u, absA = 1.01 * np.finfo(float).epsneg, np.abs(A)
            e1 = (2 * n * n + 2 * n + 2) * u * np.linalg.norm(absA @ absA.T, 2) ** 2
            e2 = 2 * n * u * np.linalg.norm(absA, 2) ** 2
            G = np.kron(A @ A.T, A @ A.T)
            top = np.empty(T)
            for s in range(0, T, ALPHA_BLOCK):
                P = self.P[s : s + ALPHA_BLOCK, 1 : hi + 1]
                rows = np.arange(len(P))[:, None]
                flat = P.reshape(P.shape[:2] + (n * n,))
                with np.errstate(over="ignore", invalid="ignore"):
                    sq = np.einsum("...k,...k->...", flat, flat)
                    q = np.einsum("...k,...k->...", flat @ G, flat)
                    ub = np.sqrt(np.maximum(q, 0.0) + e1 * sq) + e2 * np.sqrt(sq)
                    cand = ub.argmax(axis=-1)[:, None]
                    low = np.linalg.eigvalsh(_symmetrized_apa(A, P[rows, cand]))[..., -1]
                    keep = ~(ub * (1.0 + ALPHA_SCREEN_MARGIN) < low)
                keep |= low < ALPHA_SCREEN_FLOOR
                keep[rows, cand] = False
                eig = np.full(keep.shape, -np.inf)
                eig[rows, cand] = low
                eig[keep] = np.linalg.eigvalsh(_symmetrized_apa(A, P[keep]))[:, -1]
                top[s : s + ALPHA_BLOCK] = eig.max(axis=-1)
            top.setflags(write=False)
            self._alpha_top = top
        return self._alpha_top

    def extrema(self) -> tuple[CostExtrema, np.ndarray]:
        """The schedule's Loewner extrema and the fixed point of their upper costs.

        Returns ``sequence_extrema(schedule)`` and, read-only, ``solve_dare``
        on its Qbar_max and Rbar_max, both computed once. Raises
        IncomparableScheduleError on every call when the schedule's
        matrices have no Loewner extrema.
        """
        if self._extrema is None:
            try:
                ext = sequence_extrema(self.schedule)
            except IncomparableScheduleError as err:
                self._extrema = str(err)
            else:
                P = solve_dare(self.sys.A, self.sys.B, ext.Qbar_max, ext.Rbar_max)
                self._extrema = (ext, _freeze(P))
        if isinstance(self._extrema, str):
            raise IncomparableScheduleError(self._extrema)
        return self._extrema

    def solution(self, s: int) -> RiccatiSolution:
        """Backward pass for the schedule frozen at index s."""
        self.prepare()
        s = min(int(s), self.T - 1)
        return RiccatiSolution(self.P[s], self.K[s], frozen_schedule(self.schedule, s, 0))

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

    It knows every disturbance (zero when ``w`` is None) and runs
    ``clairvoyant_law``. ``solution``, when given, is the true pass
    (``backward_riccati`` on the schedule, or ``FrozenPlanner.solution(T-1)``),
    so callers that hold it do not solve it again.
    """
    sol = solution if solution is not None else backward_riccati(sys, schedule)
    w = np.zeros((schedule.horizon - 1, sys.n)) if w is None else w
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
        planner = FrozenPlanner(sys, schedule)
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
        raise ValueError(f"W must satisfy 0 <= W <= T - 2 = {T - 2}, got {W}")
    full = T - 1 - W
    P = np.asarray(P_max, dtype=float)
    for j in range(W, -1, -1):
        P, K = riccati_step(P, sys.A, sys.B, schedule.Q[j : j + full], schedule.R[j : j + full])
    gains = np.empty((T - 1, sys.m, sys.n))
    gains[:full] = K
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
