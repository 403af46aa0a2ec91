"""Numerical evaluation of the regret upper bound and its constants.

The bound for the prediction-tracking policy is a closed-form expression in
a set of instance constants: the fixed-point value matrix of the extremal
costs, contraction rates of the Riccati recursion, deviation maxima of the
realized gains, and a transient-growth constant of the tracking loop. This
module computes those constants for a concrete instance, evaluates the
bound, checks the sufficient condition under which it beats the baseline's
bound, and certifies the expected-regret growth rate under disturbances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostBounds,
    IncomparableScheduleError,
    max_eigenvalue,
    min_eigenvalue,
    random_uniform_schedule,
    sequence_extrema,
)
from .policies import FrozenPlanner, PolicyConfig, PreviewLengthError, UnstableTrackingError
from .policies import check_preview_length, default_tracking_poles
from .regret import expected_regret_mc
from .riccati import _only, solve_dare
from .seeding import generator, substream_entropy
from .systems import DisturbanceModel, LinearSystem, _freeze, place_poles_single_input, spectral_radius

# The scaling certificate holds when max r(T) / min r(T) is at most this.
CERTIFICATE_RATIO = 10.0
# Powers of the tracking loop that C_f's supremum may take.
C_F_MAX_POWERS = 200000


class DegenerateConstantsError(ArithmeticError):
    """A denominator of the bound is at or near a pole."""


@dataclass(frozen=True)
class BoundConstants:
    """Every scalar and matrix constant entering the regret upper bound."""

    Pbar_max: np.ndarray
    D: float
    C_K: float
    C: float
    eta: float
    alpha: float
    beta: float
    gamma: float
    alpha1: float
    alpha2: float
    C_f: float
    q: float
    epsilon: float
    Qbar_min: np.ndarray
    Qbar_max: np.ndarray
    Rbar_min: np.ndarray
    Rbar_max: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """Bound value against the realized regret on one instance."""

    constants: BoundConstants
    bound_value: float
    realized_regret: float
    margin: float
    sufficient_condition_holds: bool


def geometric_sum(z: float, T: int) -> float:
    """Sum of z^t for t = 0..T-1, in closed form away from z = 1.

    For 0 < z < 1 the numerator 1 - z^T is formed as
    -expm1(T log1p(z - 1)), which keeps its relative accuracy when z^T is
    close to 1.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    z = float(z)
    if abs(1.0 - z) <= 1e-12:
        return float(T)
    if 0.0 < z < 1.0:
        return -math.expm1(T * math.log1p(z - 1.0)) / (1.0 - z)
    return (1.0 - z**T) / (1.0 - z)


def _spectral_norm(M) -> float:
    return float(np.linalg.norm(np.atleast_2d(M), 2))


def _batch_spectral_norm(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a (batch, m, n) stack of matrices."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def compute_bound_constants(
    planner: FrozenPlanner, K_track, Ws, cost_bounds: CostBounds | None = None
) -> list:
    """Evaluate the bound constants of the planner's instance for every preview length in Ws.

    The extremal cost matrices are the schedule's own Loewner extrema; when
    the schedule has none (its matrices are not ordered), the a priori
    ``cost_bounds`` stand in. The contraction constant alpha at preview W
    is maximized over the value matrices of the true pass and of every
    frozen pass the policy reads, the entry at min(W, T-1) of the
    planner's suffix maxima ``apa_max``, which its sweep screened.

    Only alpha, gamma and alpha1 depend on W. Everything else is computed
    once, and a failure there raises. Per Ws[j] the list holds that W's
    BoundConstants, or the PreviewLengthError, DegenerateConstantsError or
    LinAlgError met in its own part. A W above T-2 keeps the planner's
    clamped meaning. Every W's constants share one read-only ``Pbar_max``.
    """
    sys, schedule, T = planner.sys, planner.schedule, planner.T
    A, B = sys.A, sys.B
    K_track = np.atleast_2d(np.asarray(K_track, dtype=float))
    try:
        ext = sequence_extrema(schedule)
        Qb_min, Qb_max, Rb_min, Rb_max = ext.Qbar_min, ext.Qbar_max, ext.Rbar_min, ext.Rbar_max
    except IncomparableScheduleError:
        if cost_bounds is None:
            raise
        b = cost_bounds
        Qb_min, Qb_max, Rb_min, Rb_max = b.Q_min, b.Q_max, b.R_min, b.R_max
    Pbar = _freeze(solve_dare(A, B, Qb_max, Rb_max))

    lam_P = max_eigenvalue(Pbar)
    lam_Qmin = min_eigenvalue(Qb_min)
    D = _spectral_norm(Rb_max + B.T @ Pbar @ B)
    C_K = (
        _spectral_norm(np.linalg.inv(Rb_min + B.T @ Qb_min @ B)) ** 2
        * _spectral_norm(Rb_max @ B.T)
        * lam_P**2
        / lam_Qmin
    )
    C = lam_P / lam_Qmin
    eta = float(np.sqrt(max(0.0, 1.0 - lam_Qmin / lam_P)))

    # alpha maximizes the top eigenvalue of A' P A over interior value
    # matrices of the true pass and of every frozen pass used at preview W,
    # the passes s = min(W, T-1)..T-1.
    planner.prepare()
    top = planner.apa_max
    beta = float(np.linalg.eigvalsh(schedule.Q[: T - 1])[:, 0].min())
    alpha2 = float(2.0 * (_batch_spectral_norm(planner.K[T - 1] - K_track).max() ** 2))

    rho = spectral_radius(A + B @ K_track)
    if not rho < 1.0:
        raise UnstableTrackingError(f"tracking gain must stabilize the loop, rho = {rho}")
    epsilon = 0.5 * (1.0 - rho)
    q = rho + epsilon
    closed = A + B @ K_track
    denom = q + epsilon
    # C_f = sup_k r_k, r_k = ||closed^k|| / denom^k. As r_(a+b) <= r_a r_b,
    # no power after the first with r_k <= 1 can raise it.
    C_f = 1.0
    M = np.eye(sys.n)
    for power in range(1, C_F_MAX_POWERS + 1):
        M = closed @ M
        norm = _spectral_norm(M)
        if norm <= denom**power:
            break
        C_f = max(C_f, norm / denom**power)
    else:
        raise DegenerateConstantsError(f"C_f not certified within {C_F_MAX_POWERS} powers")

    t_all = np.arange(T - 1)
    out = []
    for W in Ws:
        try:
            W = check_preview_length(W)
            alpha = float(top[min(W, T - 1)])
            gamma = alpha / (alpha + beta)
            realized = planner.K[np.minimum(t_all + W, T - 1), t_all]
            alpha1 = float(_batch_spectral_norm(realized - K_track).max() ** 2)
            if not (0.0 < eta < 1.0 and 0.0 < gamma < 1.0 and 0.0 < q < 1.0):
                raise DegenerateConstantsError(
                    f"constants out of range: eta={eta}, gamma={gamma}, q={q}"
                )
        except (PreviewLengthError, DegenerateConstantsError, np.linalg.LinAlgError) as err:
            out.append(err)
            continue
        out.append(
            BoundConstants(
                Pbar_max=Pbar, D=D, C_K=C_K, C=C, eta=eta, alpha=alpha, beta=beta,
                gamma=gamma, alpha1=alpha1, alpha2=alpha2, C_f=C_f, q=q,
                epsilon=epsilon, Qbar_min=Qb_min, Qbar_max=Qb_max, Rbar_min=Rb_min,
                Rbar_max=Rb_max,
            )
        )
    return out


def regret_upper_bound(constants: BoundConstants, T: int, W: int, x0) -> float:
    """Closed-form regret upper bound for horizon T and preview W.

    Grouping: the (alpha1 + alpha2) factor and the squared prefactor
    multiply both the tracking-error series and the transient block driven
    by C_f; the final gain-deviation series is additive. The only W
    dependence is the leading gamma^(2W) factor. W must be an integer >= 0.

    gamma sits within about 1e-6 of 1 on the benchmark instances, so the
    evaluation avoids every difference of nearly equal terms: 1 - gamma
    comes from alpha and beta, the prefactor's 1 / (1 - gamma)^2 is folded
    into the tracking-error series sum_t eta^(2t) (1 - gamma^(t+1))^2,
    which becomes sum_t eta^(2t) G_t^2 with G_t = sum_{k<=t} gamma^k, and
    the first transient coefficient
    eta gamma / (q (q - eta gamma)) - eta / (q (q - eta)) is
    -eta (1 - gamma) / ((q - eta gamma) (q - eta)).
    """
    c, W = constants, check_preview_length(W)
    g, e, q = c.gamma, c.eta, c.q
    if abs(q - e * g) < 1e-12 or abs(q - e) < 1e-12:
        raise DegenerateConstantsError(
            "bound has a pole at q = eta * gamma or q = eta; perturb epsilon"
        )
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    x0_sq = float(x0 @ x0)
    S = geometric_sum
    one_minus_g = c.beta / (c.alpha + c.beta)
    t = np.arange(T)
    G = np.cumsum(g**t)
    main = float(np.sum(e ** (2 * t) * G**2))
    transient = (e / ((q - e * g) * (q - e))) ** 2 * S(q**2, T) + (
        (e * g) ** 2 * S(e**2 * g**2, T) / (q**2 * (q - e * g) ** 2)
        + e**2 * S(e**2, T) / (q**2 * (q - e) ** 2)
    ) / one_minus_g**2
    inner = (c.alpha1 + c.alpha2) * (c.C**2 * c.C_K * g) ** 2 * (
        main + (10.0 / 3.0) * c.C_f**2 * transient
    ) + (c.C_K * c.C**2) ** 2 * S(e**2, T)
    return (10.0 * c.D * g ** (2 * W) * x0_sq / 3.0) * inner


def sufficient_condition_check(
    constants: BoundConstants, bounds: CostBounds, sys: LinearSystem
) -> bool:
    """Condition under which this bound beats the baseline's bound.

    Compares the tenth power of the top eigenvalue of the a priori upper
    state cost against a constant built from the instance constants.
    """
    rhs = _sufficient_condition_rhs(constants, sys)
    return bool(max_eigenvalue(bounds.Q_max) ** 10 >= rhs)


def _sufficient_condition_rhs(c: BoundConstants, sys: LinearSystem) -> float:
    """The constant that the sufficient condition compares lambda_max(Q_max)^10 with.

    Evaluated, like the bound, without differences of nearly equal terms:
    1 - gamma is beta / (alpha + beta), 1 - eta^2 is (1 - eta)(1 + eta),
    1 - eta^2 gamma^2 is ((1 - eta) + eta (1 - gamma))(1 + eta gamma), and
    1 - q^2 is (1 - q)(1 + q).
    """
    g, e, q = c.gamma, c.eta, c.q
    if abs(q - e * g) < 1e-12 or abs(q - e) < 1e-12:
        raise DegenerateConstantsError(
            "condition has a pole at q = eta * gamma or q = eta"
        )
    one_minus_g = c.beta / (c.alpha + c.beta)
    one_minus_e2 = (1.0 - e) * (1.0 + e)
    one_minus_e2g2 = ((1.0 - e) + e * one_minus_g) * (1.0 + e * g)
    bracket = (1.0 + (c.alpha1 + c.alpha2) / one_minus_g**2) / one_minus_e2
    bracket += (10.0 * c.C_f**2) / (
        q**2
        * (q - e * g) ** 2
        * (q - e) ** 2
        * one_minus_e2
        * one_minus_e2g2
        * ((1.0 - q) * (1.0 + q))
    )
    inv_factor = 1.0 / (
        c.C_K**2
        * min_eigenvalue(c.Rbar_min) ** 2
        * min_eigenvalue(c.Qbar_min) ** 4
    )
    Rmin_inv = np.linalg.inv(c.Rbar_min)
    denom = (
        inv_factor
        * 6.0
        * _spectral_norm(sys.A) ** 2
        * _spectral_norm(sys.B) ** 2
        * _spectral_norm(sys.B @ Rmin_inv @ sys.B.T) ** 2
    )
    return 5.0 * bracket / denom


@dataclass(frozen=True)
class ScalingReport:
    """Expected regret per horizon, normalized by T * gamma^(2W)."""

    Ts: tuple
    expected_regrets: tuple
    stderrs: tuple
    gammas: tuple
    rates: tuple
    ratio: float
    certified: bool
    excluded: tuple
    trials: int


def scaling_certificate(
    sys: LinearSystem,
    schedule_spec: CostBounds,
    dist: DisturbanceModel,
    Ts,
    W: int,
    trials: int,
    master_seed: int,
    poles=None,
) -> ScalingReport:
    """Empirical check that expected regret grows like T * gamma^(2W).

    For each horizon T a schedule is drawn from the cost bounds
    ``schedule_spec`` on its own substream of ``master_seed``, the expected
    regret of the tracking policy is estimated by Monte Carlo, and the
    normalized rate r(T) = regret / (T * gamma^(2W)) is formed with that
    instance's own gamma. The certificate holds when max r / min r is at
    most ``CERTIFICATE_RATIO``.
    """
    Ts = tuple(int(T) for T in Ts)
    if not Ts:
        raise ValueError("Ts must name at least one horizon")
    for T in Ts:
        if T < W + 2:
            raise ValueError(f"every horizon must satisfy T >= W + 2, got T={T}")
    K_track = place_poles_single_input(
        sys, poles if poles is not None else default_tracking_poles(sys.n)
    )
    cfg = PolicyConfig(W, K_track)
    means, errs, gammas, rates, excluded = [], [], [], [], []
    for T in Ts:
        schedule = random_uniform_schedule(schedule_spec, T, generator(master_seed, "scaling", "schedule", T))
        report, planner = expected_regret_mc(sys, schedule, cfg, dist, trials, generator_seed(master_seed, T))
        constants = _only(compute_bound_constants(planner, K_track, [W]))
        means.append(report.regret)
        errs.append(report.stderr or 0.0)
        gammas.append(constants.gamma)
        rates.append(report.regret / (T * constants.gamma ** (2 * W)))
        excluded.append(report.excluded_trials)
    # Disturbance-free or constant-schedule runs give rates at round-off
    # scale; treat those as trivially certified.
    scale = max(1.0, max(abs(m) for m in means))
    if max(abs(r) for r in rates) <= 1e-9 * scale:
        ratio = 1.0
    else:
        ratio = float("inf") if min(rates) <= 0.0 else max(rates) / min(rates)
    return ScalingReport(
        Ts=Ts,
        expected_regrets=tuple(means),
        stderrs=tuple(errs),
        gammas=tuple(gammas),
        rates=tuple(rates),
        ratio=float(ratio),
        certified=ratio <= CERTIFICATE_RATIO,
        excluded=tuple(excluded),
        trials=trials,
    )


def generator_seed(master_seed: int, T: int) -> int:
    """Per-horizon Monte-Carlo seed for the scaling certificate."""
    return substream_entropy(master_seed, "scaling", "mc", T) % (2**63)


def make_bound_report(
    planner: FrozenPlanner, K_track, W: int, realized_regret: float, cost_bounds: CostBounds
) -> BoundReport:
    """Bundle constants, bound value, margin, and the sufficient condition."""
    constants = _only(compute_bound_constants(planner, K_track, [W], cost_bounds))
    sys = planner.sys
    bound = regret_upper_bound(constants, planner.T, W, sys.x0)
    return BoundReport(
        constants=constants,
        bound_value=bound,
        realized_regret=float(realized_regret),
        margin=bound - float(realized_regret),
        sufficient_condition_holds=sufficient_condition_check(
            constants, cost_bounds, sys
        ),
    )
