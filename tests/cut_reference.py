"""Dense references for the cut frozen sweep, shared by the test modules.

``cut_reference`` steps every pass at every step, in the style of
``frozen_steps``, and then applies the cut's holds and merges by
overwriting columns, so it is the sweep's meaning without its window.
``dense_sweep`` is the sweep as it was before the cut, every pass to the
end, the meaning of the sweep wherever no certificate holds.
"""

import numpy as np

from preview_lqr import riccati
from preview_lqr.riccati import _affine_step, frozen_steps, riccati_step


def _stage_costs(sched):
    """Each pass's stage costs batch-last, as ``frozen_steps`` keeps them."""
    Qs, Rs = sched.Q, sched.R
    return (np.moveaxis(M, 0, -1).copy() for M in (Qs, np.concatenate([Rs, Rs[-1:]])))


def _affine(sys_, sched, w, Ws, P_all, K_all):
    """The feedforward of the plans at each W, on the given passes, in the
    batches the sweep streams them: after step i, plans t >= i."""
    T, n, m = sched.horizon, sys_.n, sys_.m
    if not Ws:
        return []
    w = np.asarray(w, dtype=float)
    out = []
    for W in Ws:
        s = np.minimum(np.arange(T - 1) + W, T - 1)
        q = np.zeros(w.shape[:-2] + (T - 1, n))
        k = np.zeros((T - 1,) + w.shape[:-2] + (T - 1, m))
        for i in range(T - 2, -1, -1):
            Pn, Ks = P_all[i + 1].transpose(2, 0, 1)[s[i:]], K_all[i].transpose(2, 0, 1)[s[i:]]
            k[i, ..., i:, :], q[..., i:, :] = _affine_step(sys_, Pn, Ks, sched.R[i], w[..., i, :], q[..., i:, :])
        out.append(k)
    return out


def _alpha(A, P_all):
    """Suffix maxima over passes of eigvalsh on every interior A'PA, unscreened."""
    T = P_all.shape[0]
    hi = T - 1 if T <= 2 else T - 2
    # Contiguous matrices, pass-major, as the screen hands them to matmul.
    P = np.ascontiguousarray(np.moveaxis(P_all[1 : hi + 1], -1, 0))
    APA = A.T @ P @ A
    top = np.linalg.eigvalsh(0.5 * (APA + np.swapaxes(APA, -1, -2)))[..., -1].max(axis=1)
    return np.maximum.accumulate(top[::-1])[::-1]


def _rollout(sys_, K_all, T):
    """Every plan over the whole horizon in one batch, then each kept to its
    freeze index, zero above it, as ``FrozenPlanner`` stores them."""
    n, m = sys_.n, sys_.m
    X, U = np.empty((T, n, T)), np.empty((T - 1, m, T))
    X[0] = sys_.x0[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(T - 1):
            U[i] = (K_all[i] * X[i]).sum(axis=1)
            X[i + 1] = sys_.A @ X[i] + (sys_.B[..., None] * U[i]).sum(axis=1)
    X, U = X.transpose(2, 0, 1).copy(), U.transpose(2, 0, 1).copy()
    t = np.arange(T)
    X[t[:, None] < t[None, :]] = 0.0
    U[t[:, None] < t[None, : T - 1]] = 0.0
    return X, U


def stacks(sys_, sched, passes, w=None, Ws=()):
    """What a planner reads, from every pass's (P, K) as the references return
    them: gains, alpha's suffix maxima, the true pass, the stored nominal
    plans and the streamed feedforward per W."""
    P_all, K_all = passes[:2]
    T = sched.horizon
    return {
        "K": K_all.transpose(3, 0, 1, 2),
        "apa_max": _alpha(sys_.A, P_all),
        "P_true": np.ascontiguousarray(P_all[..., T - 1]),
        "X_U": _rollout(sys_, K_all, T),
        "k": _affine(sys_, sched, w, Ws, P_all, K_all),
    }


def dense_sweep(sys_, sched):
    """Every pass stepped to the end by ``frozen_steps``, with no cut: the
    sweep before the cut. Returns (P, K), step-major and batch-last, (T, n,
    n, T) and (T-1, m, n, T)."""
    T, n, m = sched.horizon, sys_.n, sys_.m
    P_all, K_all = np.empty((T, n, n, T)), np.empty((T - 1, m, n, T))
    for i, P, K in frozen_steps(sys_, sched):
        P_all[i] = P
        if K is not None:
            K_all[i] = K
    return P_all, K_all


def cut_reference(sys_, sched):
    """Every pass stepped densely, then cut by overwriting columns.

    Below the hold step h, columns s <= i take the tail's P and K of step h.
    Each unmerged head s > i carries its difference to the true pass from
    the float difference at h, or at step s when it enters, with the
    sweep's certificates, and the top run of heads within the tolerance
    takes the true pass's P at that step. Merged passes then step from the
    true pass's bits, so they repeat its P and K with no overwrite. Returns
    (P, K) as ``dense_sweep`` does, and the cut: (hold, tol, merge step per
    pass).
    """
    T, n, m = sched.horizon, sys_.n, sys_.m
    hold, tol = riccati._certificates(sys_, sched)
    Qc, Rc = _stage_costs(sched)
    P_all, K_all = np.empty((T, n, n, T)), np.empty((T - 1, m, n, T))
    P_all[T - 1] = np.moveaxis(sched.Q, 0, -1)
    merged, top = np.zeros(T, dtype=int), T - 2
    for i in range(T - 2, -1, -1):
        Qc[..., i:], Rc[..., i:] = sched.Q[i, ..., None], sched.R[i, ..., None]
        P, K = riccati_step(P_all[i + 1], sys_.A, sys_.B, Qc, Rc)
        if hold is not None and i < hold:
            P[..., : i + 1], K[..., : i + 1] = P_all[hold][..., : i + 1], K_all[hold][..., : i + 1]
            if tol is not None:
                # The differences, transposed and batch-last, as the sweep carries them.
                D[..., i + 1] = P_all[i + 1][..., i + 1] - P_all[i + 1][..., T - 1]
                Kw = np.concatenate([K[..., i + 1 : top + 1], K[..., T - 1 :]], axis=-1)
                d, norm = riccati._carry_difference(sys_, D[..., i + 1 : top + 1], Kw)
                D[..., i + 1 : top + 1] = d
                new_top = top
                while new_top > i and norm[new_top - i - 1] <= tol:
                    new_top -= 1
                P[..., new_top + 1 : top + 1] = P[..., T - 1 :]
                merged[new_top + 1 : top + 1], top = i, new_top
        elif i == hold:
            D = P - P[..., T - 1 :]
        P_all[i], K_all[i] = P, K
    return P_all, K_all, (hold, tol, merged)
