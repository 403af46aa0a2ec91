"""Discrete-time linear system models and control-design utilities.

Provides the system container used throughout the package, spectral and
controllability tests, single-input pole placement, and the two benchmark
system generators (a linearized inverted pendulum and random controllable
systems with uniform entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GenerationBudgetError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


# Singular values below this fraction of the largest one count as zero.
RANK_RTOL = 1e-9


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    return M


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LinearSystem:
    """Discrete-time LTI system x[t+1] = A x[t] + B u[t] + w[t].

    ``x0`` is the initial state. Construction verifies dimensions and, by
    default, that (A, B) is controllable; pass ``check_controllable=False``
    to build a system for analysis of uncontrollable pairs.
    """

    A: np.ndarray
    B: np.ndarray
    x0: np.ndarray
    check_controllable: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B must have {A.shape[0]} rows to match A, got shape {B.shape}"
            )
        if B.shape[1] < 1:
            raise ValueError("B must have at least one column")
        if x0.shape[0] != A.shape[0]:
            raise ValueError(
                f"x0 must have length {A.shape[0]}, got {x0.shape[0]}"
            )
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "x0", _freeze(x0))
        if self.check_controllable:
            rank = controllability_rank(self)
            if rank < self.n:
                raise ValueError(
                    f"(A, B) is not controllable: controllability rank "
                    f"{rank} < state dimension {self.n}"
                )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class DisturbanceModel:
    """Zero-mean Gaussian process noise with a fixed covariance."""

    covariance: np.ndarray

    def __post_init__(self):
        W = _as_matrix(self.covariance, "covariance")
        if W.shape[0] != W.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(W, W.T, rtol=1e-9, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (W + W.T))
        scale = max(1.0, float(np.abs(eigs).max())) if eigs.size else 1.0
        if eigs.size and eigs[0] < -1e-9 * scale:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "covariance", _freeze(0.5 * (W + W.T)))
        # Symmetric square root; clipping removes tiny negative eigenvalues.
        vals, vecs = np.linalg.eigh(self.covariance)
        root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        object.__setattr__(self, "_root", _freeze(root))

    @property
    def n(self) -> int:
        return self.covariance.shape[0]

    def sample(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """Draw ``steps`` i.i.d. disturbance vectors, one per row."""
        z = rng.standard_normal((steps, self.n))
        return z @ self._root.T


def spectral_radius(M) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError("spectral radius requires a square matrix")
    return float(np.abs(np.linalg.eigvals(M)).max())


def controllability_matrix(A, B) -> np.ndarray:
    """Horizontal stack [B, AB, ..., A^(n-1) B]."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def controllability_rank(sys: LinearSystem) -> int:
    """Numerical rank of the controllability matrix."""
    C = controllability_matrix(sys.A, sys.B)
    sv = np.linalg.svd(C, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def place_poles_single_input(sys: LinearSystem, poles) -> np.ndarray:
    """Gain K such that A + B K has the requested eigenvalues.

    Single-input Ackermann construction. ``poles`` must contain n values and
    be closed under complex conjugation.
    """
    if sys.m != 1:
        raise NotImplementedError(
            "pole placement is implemented for single-input systems only"
        )
    poles = np.atleast_1d(np.asarray(poles, dtype=complex)).reshape(-1)
    if poles.shape[0] != sys.n:
        raise ValueError(f"expected {sys.n} poles, got {poles.shape[0]}")
    sorted_p = np.sort_complex(poles)
    sorted_c = np.sort_complex(np.conj(poles))
    if not np.allclose(sorted_p, sorted_c, rtol=1e-12, atol=1e-12):
        raise ValueError("complex poles must come in conjugate pairs")
    if controllability_rank(sys) < sys.n:
        raise ValueError("cannot place poles: (A, B) is not controllable")

    coeffs = np.poly(poles)
    if np.abs(coeffs.imag).max() > 1e-9 * max(1.0, np.abs(coeffs.real).max()):
        raise ValueError("pole set does not yield a real characteristic polynomial")
    coeffs = coeffs.real
    # Horner evaluation of the desired characteristic polynomial at A.
    phi = np.zeros_like(sys.A)
    for c in coeffs:
        phi = phi @ sys.A + c * np.eye(sys.n)
    e_last = np.zeros(sys.n)
    e_last[-1] = 1.0
    last_row = np.linalg.solve(controllability_matrix(sys.A, sys.B).T, e_last)
    K = -(last_row @ phi).reshape(1, sys.n)
    return K


def random_controllable_system(
    n: int,
    m: int,
    lo: float,
    hi: float,
    rng: np.random.Generator,
    x0=None,
    budget: int = 1000,
) -> LinearSystem:
    """Random (A, B) with i.i.d. Uniform(lo, hi) entries, resampled until
    controllable.

    ``x0`` defaults to the all-ones vector. Raises GenerationBudgetError if
    no controllable pair appears within ``budget`` draws.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if not lo < hi:
        raise ValueError("lo must be strictly less than hi")
    if x0 is None:
        x0 = np.ones(n)
    for _ in range(budget):
        A = rng.uniform(lo, hi, size=(n, n))
        B = rng.uniform(lo, hi, size=(n, m))
        candidate = LinearSystem(A, B, x0, check_controllable=False)
        if controllability_rank(candidate) == n:
            return candidate
    raise GenerationBudgetError(
        f"no controllable (A, B) found in {budget} draws from "
        f"Uniform({lo}, {hi})"
    )


def inverted_pendulum(x0=None) -> LinearSystem:
    """The 4-state single-input linearized inverted pendulum benchmark.

    ``x0`` defaults to the all-ones vector.
    """
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, -0.1818, 2.6727, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -18.1818, 31.1818, 0.0],
        ]
    )
    B = np.array([[0.0], [1.8182], [0.0], [4.5455]])
    if x0 is None:
        x0 = np.ones(4)
    return LinearSystem(A, B, x0)
