"""Time-varying quadratic cost schedules and Loewner-order utilities.

A schedule holds T state-cost matrices Q[0..T-1] and T-1 control-cost
matrices R[0..T-2]. The preview machinery works with "frozen" schedules
that repeat the last revealed matrices over the unrevealed tail.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .systems import _freeze


class IncomparableScheduleError(ValueError):
    """The schedule has no Loewner-comparable extremum."""


EIG_TOL = 1e-9


def min_eigenvalue(M) -> float:
    M = np.asarray(M, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def max_eigenvalue(M) -> float:
    M = np.asarray(M, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def is_psd(M, tol: float = EIG_TOL):
    """Positive semidefinite up to a relative eigenvalue tolerance, per matrix of a stack."""
    eigs = np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))
    return np.all(eigs[..., :1] >= -tol * np.fmax(1.0, np.abs(eigs).max(axis=-1, initial=0.0))[..., None], axis=-1)


def loewner_leq(F, G, tol: float = EIG_TOL) -> bool:
    """True when F is below G in the Loewner order (G - F is PSD)."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    return bool(is_psd(G - F, tol))


def _asymmetric(M):
    """Per matrix of a stack, whether it is off symmetric by over 1e-9 relative."""
    scale = np.fmax(1.0, np.abs(M).max(axis=(-2, -1)))
    return np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1)) > 1e-9 * scale


@dataclass(frozen=True)
class CostSchedule:
    """State costs Q (T, n, n) and control costs R (T-1, m, m), stacked.

    Accepts any sequence of equally shaped matrices and stores both as
    read-only arrays, so ``Q[i]`` is the state cost at step i. Every Q must
    be symmetric PSD and every R symmetric positive definite. Pass
    ``validate=False`` to skip the eigenvalue checks when the entries are
    known to be valid by construction.
    """

    Q: np.ndarray
    R: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if len(self.Q) < 2:
            raise ValueError("a schedule needs at least two state costs")
        if len(self.R) != len(self.Q) - 1:
            raise ValueError(
                f"need len(R) = len(Q) - 1, got {len(self.R)} and {len(self.Q)}"
            )
        Q = np.asarray(self.Q, dtype=float)
        R = np.asarray(self.R, dtype=float)
        for name, M in (("Q", Q), ("R", R)):
            if M.ndim != 3 or M.shape[1] != M.shape[2]:
                raise ValueError(f"{name} must stack square matrices, got shape {M.shape}")
        if validate:
            # One stacked eigvalsh per stack; the error names the first bad entry.
            R_low = np.linalg.eigvalsh(0.5 * (R + np.swapaxes(R, 1, 2)))[:, 0] <= 0.0
            for name, M, low, kind in (("Q", Q, ~is_psd(Q), "semidefinite"), ("R", R, R_low, "definite")):
                asym = _asymmetric(M)
                bad = np.flatnonzero(asym | low)
                if bad.size:
                    problem = "must be symmetric" if asym[bad[0]] else f"is not positive {kind}"
                    raise ValueError(f"{name}[{bad[0]}] {problem}")
        object.__setattr__(self, "Q", _freeze(Q))
        object.__setattr__(self, "R", _freeze(R))

    @property
    def horizon(self) -> int:
        return self.Q.shape[0]

    @property
    def n(self) -> int:
        return self.Q.shape[1]

    @property
    def m(self) -> int:
        return self.R.shape[1]


@dataclass(frozen=True)
class CostBounds:
    """A priori lower and upper matrices bracketing every schedule entry."""

    Q_min: np.ndarray
    Q_max: np.ndarray
    R_min: np.ndarray
    R_max: np.ndarray

    def __post_init__(self):
        for name in ("Q_min", "Q_max", "R_min", "R_max"):
            M = np.asarray(getattr(self, name), dtype=float)
            if _asymmetric(M):
                raise ValueError(f"{name} must be symmetric")
            if min_eigenvalue(M) <= 0.0:
                raise ValueError(f"{name} must be positive definite")
            object.__setattr__(self, name, _freeze(M))
        if not loewner_leq(self.Q_min, self.Q_max):
            raise ValueError("Q_min must be below Q_max in the Loewner order")
        if not loewner_leq(self.R_min, self.R_max):
            raise ValueError("R_min must be below R_max in the Loewner order")


@dataclass(frozen=True)
class CostExtrema:
    """Loewner-order extrema of a schedule's Q and R sequences."""

    Qbar_min: np.ndarray
    Qbar_max: np.ndarray
    Rbar_min: np.ndarray
    Rbar_max: np.ndarray

    def __post_init__(self):
        for name in ("Qbar_min", "Qbar_max", "Rbar_min", "Rbar_max"):
            M = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, _freeze(M))


def verify_bounds(schedule: CostSchedule, bounds: CostBounds) -> bool:
    """True when every schedule entry sits between the configured bounds."""
    Q, R = schedule.Q, schedule.R
    pairs = (bounds.Q_min, Q), (Q, bounds.Q_max), (bounds.R_min, R), (R, bounds.R_max)
    return all(is_psd(G - F).all() for F, G in pairs)


def random_uniform_schedule(
    bounds: CostBounds, T: int, rng: np.random.Generator
) -> CostSchedule:
    """Schedule with entries drawn uniformly on the segment between the bounds.

    Each matrix uses a single scalar blend U ~ Uniform(0, 1), so the whole
    sequence lies on one Loewner chain and extrema always exist.
    """
    if T < 2:
        raise ValueError("T must be at least 2")
    uq = np.asarray(rng.random(T), dtype=float)
    ur = np.asarray(rng.random(T - 1), dtype=float)
    dQ = bounds.Q_max - bounds.Q_min
    dR = bounds.R_max - bounds.R_min
    Q = bounds.Q_min + uq[:, None, None] * dQ
    R = bounds.R_min + ur[:, None, None] * dR
    return CostSchedule(Q, R, validate=False)


def frozen_schedule(schedule: CostSchedule, t: int, W: int) -> CostSchedule:
    """Schedule revealed up to index t + W, with the tail held at that entry.

    Entries at indices <= t + W are kept; later ones repeat the entry at
    t + W. When t + W already reaches the final index the input schedule is
    returned unchanged.
    """
    if t < 0 or W < 0:
        raise ValueError("t and W must be nonnegative")
    T = schedule.horizon
    if t + W >= T - 1:
        return schedule
    idx = np.minimum(np.arange(T), t + W)
    return CostSchedule(schedule.Q[idx], schedule.R[idx[:-1]], validate=False)


def _loewner_extremum(mats, want_max: bool):
    # A Loewner maximum must maximize the trace, and max-trace candidates
    # coincide when a maximum exists, so checking one candidate decides.
    stack = np.asarray(mats, dtype=float)
    traces = np.trace(stack, axis1=1, axis2=2)
    idx = int(np.argmax(traces)) if want_max else int(np.argmin(traces))
    cand = stack[idx]
    diffs = (cand - stack) if want_max else (stack - cand)
    diffs = 0.5 * (diffs + np.transpose(diffs, (0, 2, 1)))
    eigs = np.linalg.eigvalsh(diffs)
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))
    if not np.all(eigs[:, 0] >= -EIG_TOL * scale):
        kind = "maximum" if want_max else "minimum"
        raise IncomparableScheduleError(
            f"no Loewner {kind} exists; fall back to a priori cost bounds"
        )
    return mats[idx]


def sequence_extrema(schedule: CostSchedule) -> CostExtrema:
    """Loewner extrema of the Q and R sequences.

    Raises IncomparableScheduleError when some sequence has no element
    dominating (or dominated by) all others; callers should then fall back
    to the a priori cost bounds.
    """
    return CostExtrema(
        Qbar_min=_loewner_extremum(schedule.Q, want_max=False),
        Qbar_max=_loewner_extremum(schedule.Q, want_max=True),
        Rbar_min=_loewner_extremum(schedule.R, want_max=False),
        Rbar_max=_loewner_extremum(schedule.R, want_max=True),
    )
