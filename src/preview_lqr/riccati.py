"""Finite-horizon Riccati solvers, forward rollout, and a brute-force oracle.

The backward pass produces value matrices P[0..T-1] and gains K[0..T-2] for
a time-varying schedule. ``riccati_step`` is the one backward step: the
backward pass, the frozen sweep over every freeze index, the fixed-point
iteration and the receding-horizon baseline all run it, so the sweep's
pass s is the backward pass on the schedule frozen at s, bit for bit.
The sweep also streams the regret bound's alpha screen through its steps,
so it need not keep every pass's value matrices.
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
    The batch axis is last: P, Q (n, n, S) and R (m, m, S) give (n, n, S)
    and (m, n, S); 2-D operands broadcast, and all 2-D give 2-D results.
    With W = [A | B], W'P is one gemm over the batch and (W'P) W one stacked
    matmul over its n+m rows; the rest is elementwise along the batch, with
    a solve per entry when m >= 2. A batch of one runs as two equal columns,
    as gemv rounds unlike gemm, so no entry's bits depend on its batch.
    """
    n, m = B.shape
    widths = P.shape[2:] + Q.shape[2:] + R.shape[2:]
    S = max(widths + (2,))
    WT = np.concatenate([A, B], axis=1).T
    if P.shape[2:] != (S,):
        P = np.repeat(P.reshape(n, n, -1), S, axis=2)
    M = WT @ (WT @ P.reshape(n, n * S)).reshape(n + m, n, S)
    APA, APB, BPA, BPB = M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]
    G = R.reshape(m, m, -1) + BPB
    if m == 1:
        K = BPA / -G
        APBK = APB * K
    else:
        K = -np.linalg.solve(G.transpose(2, 0, 1), BPA.transpose(2, 0, 1)).transpose(1, 2, 0)
        APBK = (APB[:, :, None] * K).sum(axis=1)
    P_prev = APA + Q.reshape(n, n, -1) + APBK
    P_prev = 0.5 * (P_prev + P_prev.swapaxes(0, 1))
    # Contiguous results: matmul rounds a strided operand outside BLAS.
    keep = np.s_[..., : max(widths)] if widths else np.s_[..., 0]
    return np.ascontiguousarray(P_prev[keep]), np.ascontiguousarray(K[keep])


def backward_riccati(sys: LinearSystem, schedule: CostSchedule) -> RiccatiSolution:
    """Backward pass for the finite-horizon time-varying problem.

    P[T-1] is the terminal state cost; each earlier step is one 2-D
    ``riccati_step`` with the stage costs Q[i] and R[i], run as two columns.
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


# Steps per block of the alpha screen that ``frozen_backward_sweep`` streams:
# at T = 1000 and n = 4 a ring of one block of value matrices is about 4 MB.
ALPHA_BLOCK = 32
# Relative slack of the screen's Frobenius bound: a computed top eigenvalue
# exceeds the bound on ||M||_F by O(n^2 eps) at most.
ALPHA_SCREEN_MARGIN = 1e-8
# Relative slack of the screen's second-order bound, in units of n^2 u:
# it covers the O(n u) rounding of the quantities the bound is built from
# and the O(n^2 u) error of ``eigvalsh``, 1.1e-13 for n = 4.
ALPHA_SCREEN_SLACK = 64
# Below this running maximum the squares in the screen's bounds can
# underflow, so the screen keeps every matrix of the pass's block.
ALPHA_SCREEN_FLOOR = 1e-140


def _symmetrized_apa(A, P):
    """The symmetrized (A'P)A of every matrix in the stack P, as ``eigvalsh`` sees it."""
    APA = A.T @ P @ A
    return 0.5 * (APA + np.swapaxes(APA, -1, -2))


class _AlphaScreen:
    """Per pass, the top eigenvalue of the symmetrized A'PA over the matrices screened.

    ``screen`` takes a block of steps of every pass, an (S, k, n, n)
    stack, and raises ``top``, the S running maxima. The result is bit for
    bit the maximum of ``eigvalsh`` over every matrix screened, NaN when
    one of them gives NaN, while ``eigvalsh`` sees few of them.

    Let M be the matrix ``eigvalsh`` sees, ``_symmetrized_apa``. One gemm
    per pass forms Ms, the symmetric part of A'PA, otherwise, with
    Frobenius norm F. By Higham's dot-product bounds (*Accuracy and
    Stability of Numerical Algorithms*, ch. 3), M and Ms lie within
    d = e ||P||_F + 2u F of each other, e = gamma_(n^2+2n+2) || |A| ||_2^2,
    so lambda_max(M) <= ||M||_F <= F + d, and ub = (F + d)(1 +
    ALPHA_SCREEN_MARGIN) covers ``eigvalsh``'s backward error as well.

    That bound is loose where a pass's tail settles to round-off, on
    matrices that agree to 1e-11 or closer, and a backward sweep meets the
    tails before the heads. There a second-order bound takes over. With x the
    pass's eigenvector estimate, two power steps per block on its matrix of
    largest ub, rho = x'Ms x / x'x and r = Ms x - rho x: lambda_2(Ms) <= mu
    = sqrt(F^2 - rho^2), since lambda_1^2 + lambda_2^2 <= F^2, and where
    rho > mu Kato and Temple give lambda_max(Ms) <= rho + ||r||^2 /
    (x'x (rho - mu)) (Parlett, *The Symmetric Eigenvalue Problem*,
    ch. 10). ||r||^2 x'x is taken as y'y - rho^2 x'x, y = Ms x, plus
    (4n+8) u y'y for that cancellation. Widened by s = ALPHA_SCREEN_SLACK
    n^2 u (F + d) in rho, ||r|| and mu and once more for ``eigvalsh``'s
    error, and by d from Ms to M, it too bounds what ``eigvalsh`` returns.

    Per pass and block, the matrix of largest ub (NaN counting as largest)
    goes to ``eigvalsh`` unless its ub is below the pass's running
    maximum; that maximum is raised, and every other matrix of the block
    whose ub is not below it goes too, unless that is more than one batch
    of S matrices and its second-order bound is below it. Any
    value ``eigvalsh`` gave for a pass is at most its maximum, so the
    maximizer is never skipped. Formed matrices are formed as without the
    screen and ``eigvalsh`` treats each one alone, so they give the same
    values. A NaN or infinite bound, or a NaN running maximum, keeps the
    matrix; a running maximum below ``ALPHA_SCREEN_FLOOR``, where squares
    could underflow, keeps the block whole. An infinite maximum is its
    pass's maximum, and the matrices it skips have finite bounds, so none
    could have made that maximum NaN.

    Ties closer than the slack cannot be screened: on a system whose tails
    settle to within about 1e-13, ``eigvalsh`` sees most tail matrices.
    """

    def __init__(self, A, S: int):
        n = A.shape[0]
        # gamma_k = k u / (1 - k u) <= 1.01 k u for the k here.
        self.u = 1.01 * np.finfo(float).epsneg
        self.e = (n * n + 2 * n + 2) * self.u * np.linalg.norm(np.abs(A), 2) ** 2
        self.c2 = (4 * n + 8) * self.u
        self.slack = ALPHA_SCREEN_SLACK * n * n * self.u
        # vec(P) @ Ksym is vec of the symmetric part of A'PA, row-major.
        AkA = np.kron(A, A)
        self.A, self.Ksym = A, 0.5 * (AkA + AkA[:, np.arange(n * n).reshape(n, n).T.ravel()])
        self.top = np.full(S, -np.inf)
        self.x0 = np.linspace(1.0, 2.0, n)
        self.x0 /= np.linalg.norm(self.x0)
        self.x = np.tile(self.x0, (S, 1))

    def _kato_temple(self, Ms, F, d, cand, x):
        """Second-order bounds of the flattened symmetric matrices Ms (S', k, n^2).

        F and d are their Frobenius norms and formation bounds. Row s's
        vector x[s] takes two power steps on its matrix ``cand[s]`` first.
        """
        S, k = F.shape
        n = x.shape[-1]
        Mc, v = Ms[np.arange(S), cand].reshape(S, n, n), x
        for _ in range(2):
            v = np.einsum("sij,sj->si", Mc, v)
            v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        x[:] = v = np.where(np.isfinite(v).all(axis=-1, keepdims=True), v, self.x0)
        y = (Ms.reshape(S, k * n, n) @ v[:, :, None]).reshape(S, k, n)
        vv = np.einsum("si,si->s", v, v)[:, None]
        yy = np.einsum("ski,ski->sk", y, y)
        rho = np.einsum("ski,si->sk", y, v) / vv
        # ||r||^2 x'x = y'y - rho^2 x'x, up to c2 y'y for its cancellation.
        res = np.sqrt((np.maximum(yy - rho * rho * vv, 0.0) + self.c2 * yy) / vv)
        slack = self.slack * (F + d)
        lo = rho - slack
        # mu^2 <= (F + slack)^2 - lo^2, factored so that its rounding, like
        # that of mu, stays within one more slack.
        gap = lo - np.sqrt(np.maximum((F + 2 * slack - lo) * (F + slack + lo), 0.0)) - slack
        kt = rho + (res + slack) ** 2 / gap + d + 2 * slack
        return np.where((lo >= 0.0) & (gap > 0.0), kt, np.inf)

    def screen(self, P):
        """Raise the running maxima by P (S, k, n, n), k steps of every pass."""
        S, k, n = P.shape[:3]
        top, x = self.top, self.x
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            flat = P.reshape(S, k, n * n)
            Ms = flat @ self.Ksym
            F = np.sqrt(np.einsum("...q,...q->...", Ms, Ms))
            d = self.e * np.sqrt(np.einsum("...q,...q->...", flat, flat)) + 2 * self.u * F
            bound = (F + d) * (1.0 + ALPHA_SCREEN_MARGIN)
            passes, cand = np.arange(S), bound.argmax(axis=1)
            at = passes, cand
            run = ~((bound[at] < top) & (top >= ALPHA_SCREEN_FLOOR))
            self._raise(top, P, passes[run], cand[run])
            whole = ~(top >= ALPHA_SCREEN_FLOOR)[:, None]
            keep = ~(bound < top[:, None]) | whole
            keep[at] = False
            # Beyond one eigvalsh batch, the second-order bound screens the
            # passes up to the last one that keeps a matrix, as those whose
            # tails settle lead.
            if np.count_nonzero(keep) > S:
                m = np.flatnonzero(keep.any(axis=1))[-1] + 1
                kt = self._kato_temple(Ms[:m], F[:m], d[:m], cand[:m], x[:m])
                keep[:m] &= ~(kt < top[:m, None]) | whole[:m]
            self._raise(top, P, *np.nonzero(keep))

    def _raise(self, top, P, s, j):
        """Raise top[s] by ``eigvalsh`` of P[s, j], up to len(top) matrices per call."""
        S = len(top)
        for c in range(0, len(s), S):
            M = _symmetrized_apa(self.A, P[s[c : c + S], j[c : c + S]])
            np.maximum.at(top, s[c : c + S], np.linalg.eigvalsh(M)[:, -1])


def frozen_backward_sweep(sys: LinearSystem, schedule: CostSchedule, keep_P: bool = False):
    """Backward passes for every frozen schedule in one batched recursion.

    The pass for freeze index s in 0..T-1 uses entry i of the schedule when
    i <= s and repeats entry s afterwards, so pass T-1 is the true pass.
    Each step is one ``riccati_step`` on batch-last stacks, pass s in column
    s, so pass s equals ``backward_riccati`` on ``frozen_schedule(schedule,
    s, 0)`` bit for bit; only what is stored below is transposed pass-major.

    Returns (K_all, apa_max, P_true, P_all). ``K_all`` (T, T-1, m, n) holds
    every pass's gains, indexed by freeze index first. ``apa_max`` (T,)
    holds per pass s the top eigenvalue of the symmetrized A' P_s[i] A over
    the interior i = 1..T-2 (i = 1 when T = 2), so alpha at preview W is
    the maximum of entries min(W, T-1)..T-1; an ``_AlphaScreen`` streams
    through the sweep for it, one block of ``ALPHA_BLOCK`` steps at a time.
    ``P_true`` (T, n, n) is the true pass's value matrices. Only with
    ``keep_P`` is every pass's value matrices stored, as ``P_all``
    (T, T, n, n), and the screen reads its blocks there; otherwise
    ``P_all`` is None, and a ring holds one block.
    """
    T, n = schedule.horizon, sys.n
    Qs, Rs = schedule.Q, schedule.R
    # Pass s's stage costs, batch-last; at step i pass s reads entry
    # min(i, s), so each step sets the columns of passes i..T-1.
    Qc, Rc = (np.moveaxis(M, 0, -1).copy() for M in (Qs, np.concatenate([Rs, Rs[-1:]])))
    K_all = np.empty((T, T - 1, sys.m, n))
    P_true = np.empty((T, n, n))
    P_all = np.empty((T, T, n, n)) if keep_P else None
    ring = None if keep_P else np.empty((T, ALPHA_BLOCK, n, n))
    screen = _AlphaScreen(sys.A, T)
    hi = max(T - 2, 1)
    P = np.moveaxis(Qs, 0, -1)
    for i in range(T - 1, -1, -1):
        if i < T - 1:
            Qc[..., i:], Rc[..., i:] = Qs[i, ..., None], Rs[i, ..., None]
            P, K = riccati_step(P, sys.A, sys.B, Qc, Rc)
            K_all[:, i] = K.transpose(2, 0, 1)
        P_true[i] = P[..., T - 1]
        if keep_P:
            P_all[:, i] = P.transpose(2, 0, 1)
        if 1 <= i <= hi:
            # The interior steps hi..1 go in blocks of ALPHA_BLOCK, screened
            # in ascending order from P_all or the ring, where step i is k.
            k = ALPHA_BLOCK - 1 - (hi - i) % ALPHA_BLOCK
            if not keep_P:
                ring[:, k] = P.transpose(2, 0, 1)
            if k == 0 or i == 1:
                screen.screen(P_all[:, i : i + ALPHA_BLOCK - k] if keep_P else ring[:, k:])
    return K_all, screen.top, P_true, P_all


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

    Iterates until the step size drops below tol * max(1, ||P||), or stops
    shrinking once below sqrt(tol) * max(1, ||P||): there the step is the
    map's own round-off, which on ill-conditioned systems exceeds tol, and
    more steps only redraw it. Unless ``init`` is given, scipy's direct
    solver seeds the iteration, which then converges in a handful of steps;
    if that solver fails the iteration starts at Q.
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
    last = np.inf
    for _ in range(max_iter):
        Pn, _ = riccati_step(P, A, B, Q, R)
        step, scale = np.linalg.norm(Pn - P, 2), max(1.0, np.linalg.norm(Pn, 2))
        if step <= tol * scale or (step >= last and step <= np.sqrt(tol) * scale):
            return Pn
        P, last = Pn, step
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
