"""Finite-horizon Riccati solvers, forward rollout, and a brute-force oracle.

The backward pass produces value matrices P[0..T-1] and gains K[0..T-2] for
a time-varying schedule. ``riccati_step`` is the one backward step: the
backward pass, the frozen sweep over every freeze index and the
receding-horizon baseline all run it, so the sweep's pass s is the
backward pass on the schedule frozen at s, bit for bit.
The sweep also streams the regret bound's alpha screen and the
disturbance plans' affine terms through its steps, so it keeps no pass's
value matrices but the true pass's. ``_affine_step`` is the one step of
the affine recursion for known additive disturbances: the sweep runs it
on every pass, and ``affine_terms`` on given passes, such as the true one.
A stacked quadratic-program oracle solves small instances by normal
equations and is used only for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostSchedule
from .systems import LinearSystem, _freeze


class DareConvergenceError(RuntimeError):
    """The Riccati equation's doubling did not converge."""


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

    P[T-1] is the terminal state cost; each earlier step is one
    ``riccati_step`` with the stage costs Q[i] and R[i], on the two equal
    columns a 2-D call builds, kept across the pass and sliced once.
    """
    if schedule.n != sys.n or schedule.m != sys.m:
        raise ValueError("schedule dimensions do not match the system")
    T = schedule.horizon
    P = np.empty((T, sys.n, sys.n, 2))
    K = np.empty((T - 1, sys.m, sys.n, 2))
    P[T - 1] = schedule.Q[T - 1, ..., None]
    for i in range(T - 2, -1, -1):
        P[i], K[i] = riccati_step(P[i + 1], sys.A, sys.B, schedule.Q[i], schedule.R[i])
    return RiccatiSolution(P[..., 0], K[..., 0], schedule)


# Steps per block of the alpha screen that ``frozen_backward_sweep`` streams:
# at T = 1000 and n = 4 a ring of one block of value matrices is about 4 MB.
ALPHA_BLOCK = 32
# Relative slack of the screen's Frobenius bound: a computed top eigenvalue
# exceeds the bound on ||M||_F by O(n^2 eps) at most.
ALPHA_SCREEN_MARGIN = 1e-8
# Below this running maximum the squares in the screen's bound can
# underflow, so the screen keeps every matrix of the pass's block.
ALPHA_SCREEN_FLOOR = 1e-140


def _symmetrized_apa(A, P):
    """The symmetrized (A'P)A of every matrix in the stack P, as ``eigvalsh`` sees it."""
    APA = A.T @ P @ A
    return 0.5 * (APA + np.swapaxes(APA, -1, -2))


class _AlphaScreen:
    """Suffix maxima over passes of the top eigenvalue of the symmetrized A'PA.

    ``screen`` takes a block of steps of every pass, step-major as the sweep
    stores them, a (k, n, n, S) stack, and raises ``top``, S running maxima
    whose suffix maxima ``suffix()`` (entry s over the passes s..S-1) are bit
    for bit those of ``eigvalsh`` over every matrix screened, NaN when one
    of them gives NaN, while ``eigvalsh`` sees few of them. A matrix of pass
    s can raise no suffix maximum unless it reaches the one at s, its bar,
    so ``top`` itself is not each pass's maximum.

    Let M be the matrix ``eigvalsh`` sees, ``_symmetrized_apa``. One gemm
    per step forms Ms, the symmetric part of A'PA, otherwise, with
    Frobenius norm F. By Higham's dot-product bounds (*Accuracy and
    Stability of Numerical Algorithms*, ch. 3), M and Ms lie within
    d = e ||P||_F + 2u F of each other, e = gamma_(n^2+2n+2) || |A| ||_2^2,
    so lambda_max(M) <= ||M||_F <= F + d, and ub = (F + d)(1 +
    ALPHA_SCREEN_MARGIN) covers ``eigvalsh``'s backward error as well.

    Per pass and block, the matrix of largest ub (NaN counting as largest)
    goes to ``eigvalsh`` unless its ub is below the bar; the bars are
    raised, and every other matrix whose ub is not below its bar goes too,
    so tails that settle to round-off and tie with their bar, as on a
    constant schedule, all go. Formed matrices are formed as without the
    screen and ``eigvalsh`` treats each one alone, so they give the same
    values. A NaN or infinite bound, or a NaN bar, keeps the matrix; a bar
    below ``ALPHA_SCREEN_FLOOR``, where squares could underflow, keeps the
    pass's block. An infinite bar is reached, and the matrices it skips have
    finite bounds, so none could have made it NaN.
    """

    def __init__(self, A, S: int):
        n = A.shape[0]
        # gamma_k = k u / (1 - k u) <= 1.01 k u for the k here.
        self.u = 1.01 * np.finfo(float).epsneg
        self.e = (n * n + 2 * n + 2) * self.u * np.linalg.norm(np.abs(A), 2) ** 2
        # Ksym @ vec(P) is vec of the symmetric part of A'PA, row-major.
        AkA = np.kron(A, A).T
        self.A, self.Ksym = A, 0.5 * (AkA + AkA[np.arange(n * n).reshape(n, n).T.ravel()])
        # One buffer holds the sweep's ring of steps and every block's Ms:
        # block-sized arrays freed per block, or two freed at the end, left
        # a heap that raised the peak RSS of callers.
        ring, self.Ms = np.empty((2, ALPHA_BLOCK, n * n, S))
        self.top, self.ring = np.full(S, -np.inf), ring.reshape(ALPHA_BLOCK, n, n, S)

    def suffix(self):
        """Entry s is the maximum of ``top`` over s..S-1, NaN if one of them is."""
        return np.maximum.accumulate(self.top[::-1])[::-1]

    def screen(self, block):
        """Raise the running maxima by block (k, n, n, S), k steps of every pass."""
        k, n, _, S = block.shape
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            flat = block.reshape(k, n * n, S)
            Ms = np.matmul(self.Ksym, flat, out=self.Ms[:k])
            F = np.sqrt(np.einsum("kqs,kqs->ks", Ms, Ms))
            d = self.e * np.sqrt(np.einsum("kqs,kqs->ks", flat, flat)) + 2 * self.u * F
            bound = (F + d) * (1.0 + ALPHA_SCREEN_MARGIN)
            passes, cand = np.arange(S), bound.argmax(axis=0)
            at = cand, passes
            bar = self.suffix()
            run = ~((bound[at] < bar) & (bar >= ALPHA_SCREEN_FLOOR))
            self._raise(block, cand[run], passes[run])
            bar = self.suffix()
            keep = ~((bound < bar) & (bar >= ALPHA_SCREEN_FLOOR))
            keep[at] = False
            self._raise(block, *np.nonzero(keep))

    def _raise(self, block, j, s):
        """Raise top[s] by ``eigvalsh`` of block[j, ..., s], up to len(top) matrices per call."""
        top = self.top
        S = len(top)
        for c in range(0, len(s), S):
            M = _symmetrized_apa(self.A, block[j[c : c + S], :, :, s[c : c + S]])
            np.maximum.at(top, s[c : c + S], np.linalg.eigvalsh(M)[:, -1])


def frozen_steps(sys: LinearSystem, schedule: CostSchedule):
    """Every frozen pass's steps: pass s in 0..T-1 uses entry i of the
    schedule when i <= s and entry s afterwards. Yields (i, P, K) for i =
    T-1 down to 0, P_s[i] (n, n, T) and K_s[i] (m, n, T) of every pass s in
    column s (K None at i = T-1), from one ``riccati_step`` per i, so pass s
    is ``backward_riccati`` on ``frozen_schedule(schedule, s, 0)`` bit for bit."""
    T = schedule.horizon
    Qs, Rs = schedule.Q, schedule.R
    # Pass s's stage costs, batch-last; at step i pass s reads entry
    # min(i, s), so each step sets the columns of passes i..T-1.
    Qc, Rc = (np.moveaxis(M, 0, -1).copy() for M in (Qs, np.concatenate([Rs, Rs[-1:]])))
    P = np.moveaxis(Qs, 0, -1)
    yield T - 1, P, None
    for i in range(T - 2, -1, -1):
        Qc[..., i:], Rc[..., i:] = Qs[i, ..., None], Rs[i, ..., None]
        P, K = riccati_step(P, sys.A, sys.B, Qc, Rc)
        yield i, P, K


def check_disturbances(w, T: int, n: int) -> np.ndarray:
    """w as floats, of shape (T-1, n) or a stack (N, T-1, n) of N trials; else a ValueError."""
    w = np.asarray(w, dtype=float)
    if w.ndim not in (2, 3) or w.shape[-2:] != (T - 1, n):
        raise ValueError(f"w must have shape {(T - 1, n)} or (N, {T - 1}, {n}), got {w.shape}")
    return w


def frozen_backward_sweep(sys: LinearSystem, schedule: CostSchedule, w=None, Ws=()):
    """Backward passes for every frozen schedule, and the plans that know w.

    Consumes ``frozen_steps`` and returns (K_all, apa_max, P_true, k): every
    pass's gains (T, T-1, m, n), freeze index first, a view of the
    step-major (T-1, m, n, T) stack that holds each step as it returns; the
    suffix maxima (T,) over passes s.. of the top eigenvalue of the
    symmetrized A' P_s[i] A, i = 1..T-2 (i = 1 when T = 2), so alpha at
    preview W is entry min(W, T-1), which an ``_AlphaScreen`` streams over
    a step-major ring of ``ALPHA_BLOCK`` steps; the true pass's value
    matrices (T, n, n); and per W of ``Ws`` the feedforward (T-1, [N,] T-1,
    m) of the plans t that know ``w`` (T-1, n) or (N, T-1, n) to w[t], on
    pass min(t + W, T-1). After step i, ``_affine_step`` advances plans
    t >= i on the columns P_s[i+1] and K_s[i] at hand.
    """
    T, n = schedule.horizon, sys.n
    K_all = np.empty((T - 1, sys.m, n, T))
    P_true = np.empty((T, n, n))
    screen = _AlphaScreen(sys.A, T)
    ring = screen.ring
    hi = max(T - 2, 1)
    # Plan t runs on pass min(t + W, T - 1) and joins the batch at step t.
    s_of = [np.minimum(np.arange(T - 1) + W, T - 1) for W in Ws]
    if Ws:
        w = check_disturbances(w, T, n)
    q = [np.zeros(w.shape[:-2] + (T - 1, n)) for _ in Ws]
    k = [np.zeros((T - 1,) + w.shape[:-2] + (T - 1, sys.m)) for _ in Ws]
    for i, P, K in frozen_steps(sys, schedule):
        if K is not None:
            K_all[i] = K
            for s, q_W, k_W in zip(s_of, q, k):
                Pn, Ks = P_next.transpose(2, 0, 1)[s[i:]], K.transpose(2, 0, 1)[s[i:]]
                k_W[i, ..., i:, :], q_W[..., i:, :] = _affine_step(
                    sys, Pn, Ks, schedule.R[i], w[..., i, :], q_W[..., i:, :]
                )
        P_next = P  # frees P_s[i+1] before the screen allocates
        P_true[i] = P[..., T - 1]
        if 1 <= i <= hi:
            # The interior steps hi..1 go in blocks of ALPHA_BLOCK, screened
            # in ascending order from the ring, where step i is slot j.
            j = ALPHA_BLOCK - 1 - (hi - i) % ALPHA_BLOCK
            ring[j] = P
            if j == 0 or i == 1:
                screen.screen(ring[j:])
    return K_all.transpose(3, 0, 1, 2), screen.suffix(), P_true, k


def _affine_step(sys: LinearSystem, Pn, K, R, w, q):
    """Step i of the affine recursion: (k[i], q[i]) of plans j with P[i+1] =
    Pn[j] (J, n, n), K[i] = K[j], R[i] = R, w[i] = w, (n,) or (N, n), and
    q[i+1] = q (..., J, n). k[i] = -(R + B' Pn B)^-1 B' (Pn w + q) and
    q[i] = (A + B K)' (q + Pn w), each trial by the products of its own call."""
    Pn, K = np.ascontiguousarray(Pn), np.ascontiguousarray(K)
    with np.errstate(over="ignore", invalid="ignore"):
        v = q + (Pn.reshape(-1, sys.n) @ w[..., :, None]).reshape(q.shape)
        Bv = v @ sys.B
        G = R + np.einsum("ni,jnk,kl->jil", sys.B, Pn, sys.B)
        k = -Bv / G[:, 0] if sys.m == 1 else -np.linalg.solve(G, Bv[..., None])[..., 0]
        return k, v @ sys.A + np.einsum("jmn,...jm->...jn", K, Bv)


def affine_terms(sys: LinearSystem, sol: RiccatiSolution, w, last=None):
    """Feedforward controls of the plan on the pass ``sol`` that knows w[0..last].

    ``last`` defaults to T-2, every w; q = 0 above it, and each step is the
    frozen sweep's ``_affine_step``. Returns k (T-1, m), or (T-1, N, m) for
    a ``w`` of shape (N, T-1, n), each trial with the bits of its own call.
    The comparator runs it on the true pass, ``FrozenPlanner.plan`` on a
    frozen one.
    """
    P, K, R = sol.P, sol.K, sol.schedule.R
    w = check_disturbances(w, len(P), sys.n)
    q = np.zeros(w.shape[:-2] + (1, sys.n))
    k = np.zeros((len(P) - 1,) + w.shape[:-2] + (1, sys.m))
    for i in range(len(P) - 2 if last is None else last, -1, -1):
        k[i], q = _affine_step(sys, P[i + 1 : i + 2], K[i : i + 1], R[i], w[..., i, :], q)
    return k[..., 0, :]


# Doublings ``solve_dare`` may take; each squares the closed loop's decay.
DARE_MAX_DOUBLINGS = 64


def _doubling(A, G, H, tol: float):
    """Doublings (A, G, H) -> (A W^-1 A, G + A W^-1 G A', H + A' H W^-1 A),
    W = I + G H, G and H re-symmetrized, until H's largest entry moves by at
    most tol relative and A's entries, powers of the closed loop, are below
    1. A non-finite iterate or ``DARE_MAX_DOUBLINGS`` doublings without the
    stop raise a ``DareConvergenceError``."""
    n = len(A)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(DARE_MAX_DOUBLINGS):
            X = np.linalg.solve(np.eye(n) + G @ H, np.concatenate([A, G], axis=1))
            H_next, G = H + A.T @ H @ X[:, :n], G + A @ X[:, n:] @ A.T
            A, H_next, G = A @ X[:, :n], 0.5 * (H_next + H_next.T), 0.5 * (G + G.T)
            if not all(np.isfinite(M).all() for M in (A, G, H_next)):
                raise DareConvergenceError(f"non-finite iterate after {k + 1} doublings")
            if np.abs(H_next - H).max() <= tol * np.abs(H_next).max() and np.abs(A).max() < 1.0:
                return H_next
            H = H_next
    raise DareConvergenceError(f"no fixed point within {DARE_MAX_DOUBLINGS} doublings at tolerance {tol}")


def solve_dare(A, B, Q, R, tol: float = 1e-10) -> np.ndarray:
    """Stabilizing fixed point of the Riccati map P -> Q + A'PA - A'PB(R + B'PB)^-1 B'PA.

    Structure-preserving doubling (Chu, Fan, Lin and Wang, *Int. J. Control*
    2004), ``_doubling`` from (A, B R^-1 B', Q), converges to it when (A, B)
    is stabilizable and (A, Q) detectable, as for Q > 0; an unstable mode
    that Q does not see grows A until it overflows. One Newton step
    removes its round-off: with K the gain of P and C = A + B K, the residual
    Q + K'RK + C'PC - P, in long double, is the map's up to K's error
    squared, and ``_doubling`` from (C, 0, residual) solves the correction's
    Stein equation."""
    A, Q, R = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, Q, R))
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    G = B @ np.linalg.solve(R, B.T)
    P = _doubling(A, 0.5 * (G + G.T), Q, tol)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    Al, Bl, Ql, Rl, Pl, Kl = (np.asarray(M, dtype=np.longdouble) for M in (A, B, Q, R, P, K))
    C = Al + Bl @ Kl
    residual = Ql + Kl.T @ Rl @ Kl + C.T @ Pl @ C - Pl
    return P + _doubling(C.astype(float), np.zeros_like(G), (0.5 * (residual + residual.T)).astype(float), tol)


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


def brute_force_lqr_oracle(sys: LinearSystem, schedule: CostSchedule, w=None) -> Trajectory:
    """Exact minimizer of a small instance via stacked normal equations.

    States are expressed affinely in the stacked control vector, and the
    strictly convex quadratic is minimized directly. Only intended as an
    independent cross-check; refuses instances with T * m > 64.
    """
    T = schedule.horizon
    n, m = sys.n, sys.m
    if T * m > 64:
        raise OracleSizeError(f"oracle limited to T * m <= 64, got {T} * {m} = {T * m}")
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
