# src/minent/sdp.py
"""Dense semidefinite programming for Hermitian problems.

Standard form handled here:

    minimize / maximize   tr(C X)
    subject to            tr(A_i X) = b_i,   X >= 0,

with C, A_i Hermitian. The solver is a primal-dual path-following
interior point method with Nesterov-Todd scaling, run on the real
symmetric embedding  M -> [[Re M, -Im M], [Im M, Re M]].

The variable may carry block-diagonal structure (`blocks`); data outside
the diagonal blocks is ignored by the solver, which keeps iterates
block diagonal. The one entry point, `solve_stack`, checks its input and
solves a stack of problems in one sweep, because the Monte Carlo layers
above solve thousands of small SDPs; a single SDP is a stack of one. The
instances share their constraint matrices, except on diagonal blocks
whose constraint data is given per instance (`instance_blocks`).

Each matrix is factored once per iteration. The Cholesky factors Lx,
Ls of the primal and dual iterates feed one SVD, G = Ls^T Lx = U Sig V^T,
as in Todd, Toh and Tutuncu, "On the Nesterov-Todd direction in
semidefinite programming" (SIAM J. Optim. 1998). That SVD gives the NT
scaling point W, S^-1 and the whitening factors Px, Ps for the step
lengths, so no iterate factor is ever inverted. The Schur complement gets
one Cholesky factor per instance, inverted once and applied by matmuls in
the predictor, the corrector and their refinement steps.

A stack is factored in one call to numpy's batched Cholesky gufunc, which
writes NaN for exactly the instances whose own factorization fails.
Every fallback (eigenvalue clamp, Schur ridge) is per instance, so no
instance's path depends on the rest of its stack; an instance whose
iterate turns non-finite, or whose Schur factor fails at the largest
ridge, ends with status "numerical-error".
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .linalg import TOL

__all__ = ["SdpFailure", "embed_matrix", "solve_stack"]


class SdpFailure(RuntimeError):
    """Raised when a solve that must certify optimality fails to."""


_STATUS = ("optimal", "infeasible", "max-iterations", "numerical-error")

MAX_ITER = 500
MAX_DIM = 64  # complex variable dim; the real embedding doubles it
STEP_FRACTION = 0.98
DIVERGENCE = 1e10
SCHUR_RIDGES = (1e-15, 1e-12, 1e-9, 1e-6)  # times the mean Schur diagonal
SCHUR_CHUNK = 1 << 18  # entries in one Schur-assembly temporary


def embed_matrix(m: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re, -Im], [Im, Re]] of a Hermitian matrix.

    Eigenvalues are doubled in multiplicity; inner products double:
    tr(E(A) E(B)) = 2 tr(AB).
    """
    m = np.asarray(m, dtype=complex)
    top = np.concatenate([m.real, -m.imag], axis=-1)
    bot = np.concatenate([m.imag, m.real], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _unembed(m: np.ndarray) -> np.ndarray:
    n = m.shape[-1] // 2
    re = (m[..., :n, :n] + m[..., n:, n:]) / 2
    im = (m[..., n:, :n] - m[..., :n, n:]) / 2
    return re + 1j * im


def _block_slices(blocks):
    out, k = [], 0
    for nb in blocks:
        out.append(slice(k, k + nb))
        k += nb
    return out


# ---------------------------------------------------------------------------
# batched real symmetric core


def _sym(m):
    return (m + m.swapaxes(-1, -2)) / 2


def _chol_each(m):
    """Cholesky factor of each instance, all NaN where that instance's own
    factorization fails or is not finite.

    This is numpy's batched Cholesky gufunc itself: it factors each
    instance on its own and writes NaN for the ones that fail, where
    np.linalg.cholesky would raise for the whole stack.
    """
    with np.errstate(invalid="ignore"):
        lf = _umath_linalg.cholesky_lo(m, signature="d->d")
    lf[~np.isfinite(lf).all(axis=(-1, -2))] = np.nan
    return lf


def _chol_psd(m):
    """Batched Cholesky with an eigenvalue-clamp fallback for stray
    indefiniteness from roundoff.

    The fallback is per instance, so no instance's trajectory depends on
    the rest of its stack. An instance is clamped when its own
    factorization fails or when a squared pivot, which bounds its
    smallest eigenvalue from above, shows an eigenvalue below the clamp
    floor: a near-singular slack that still factors would otherwise
    blow the primal iterate up (replacer-channel scans do this).
    """
    m = _sym(m)
    lf = _chol_each(m)
    piv = np.diagonal(lf, axis1=-2, axis2=-1).min(axis=-1) ** 2
    # the largest diagonal entry is a lower bound on the largest eigenvalue
    scale = np.maximum(np.diagonal(m, axis1=-2, axis2=-1).max(axis=-1), 1.0)
    bad = ~(piv >= 1e-14 * scale)  # NaN factors count as failed
    if bad.any():
        w, q = np.linalg.eigh(m[bad])
        w = np.maximum(w, 1e-14 * np.maximum(w[..., -1:], 1.0))
        lf[bad] = np.linalg.cholesky(_sym((q * w[..., None, :])
                                          @ q.swapaxes(-1, -2)))
    return lf


def _nt_scaling(lx, ls):
    """NT scaling of X = Lx Lx^T and S = Ls Ls^T from one SVD.

    With G = Ls^T Lx = U Sig V^T, returns (W, S^-1, Px, Ps):
      W    = Lx V Sig^-1 V^T Lx^T, the NT point with W S W = X;
      S^-1 = Lx V Sig^-2 V^T Lx^T, since Ls^-T = Lx V Sig^-1 U^T;
      Px   = Sig^-1 U^T Ls^T, with Px X Px^T = I;
      Ps   = Sig^-1 V^T Lx^T, with Ps S Ps^T = I.
    Px and Ps whiten X and S for `_max_step`, so neither factor is
    inverted.
    """
    u, sig, vt = np.linalg.svd(ls.swapaxes(-1, -2) @ lx)
    sig = np.maximum(sig, 1e-150)[..., None]
    vlx = vt @ lx.swapaxes(-1, -2)
    ps = vlx / sig
    px = (u.swapaxes(-1, -2) @ ls.swapaxes(-1, -2)) / sig
    w = _sym(vlx.swapaxes(-1, -2) @ ps)
    s_inv = _sym(ps.swapaxes(-1, -2) @ ps)
    return w, s_inv, px, ps


def _tri_inv(lf):
    """Inverse of each triangular factor, from one batched solve against I."""
    return np.linalg.solve(lf, np.broadcast_to(np.eye(lf.shape[-1]), lf.shape))


def _max_step(p, d):
    """Largest alpha with X + alpha D >= 0, from any factors P with
    P X P^T = I (the Px or Ps of `_nt_scaling`): it is
    1 / lambda_max(-P D P^T), the same for every such P. NaN for an
    instance whose direction is not finite."""
    steps = None
    for pb, db in zip(p, d):
        g = -_sym(pb @ db @ pb.swapaxes(-1, -2))
        finite = np.isfinite(g).all(axis=(-1, -2))
        g[~finite] = 0.0
        lam = np.linalg.eigvalsh(g)[..., -1]
        s = np.where(lam > 1e-13, 1.0 / np.where(lam > 1e-13, lam, 1.0), np.inf)
        s[~finite] = np.nan
        steps = s if steps is None else np.minimum(steps, s)
    return steps


def _schur_matrix(w_nt, a_blocks):
    """Schur complement M_ij = sum over blocks of tr(W A_i W A_j).

    With T_i = W A_i, M_ij = sum_kl T_i[k, l] T_j[l, k]. T is formed for a
    chunk of instances at a time, so the temporaries stay small whatever
    the stack size. A block's constraints are shared (m, nb, nb) or per
    instance (B, m, nb, nb).
    """
    count, m = w_nt[0].shape[0], a_blocks[0].shape[-3]
    schur = np.zeros((count, m, m))
    for w, a in zip(w_nt, a_blocks):
        step = max(1, SCHUR_CHUNK // (m * a.shape[-1] ** 2))
        for lo in range(0, count, step):
            t = w[lo:lo + step, None] @ (a[lo:lo + step] if a.ndim == 4
                                         else a[None])
            k = t.shape[0]
            schur[lo:lo + k] += t.reshape(k, m, -1) @ \
                t.swapaxes(-1, -2).reshape(k, m, -1).swapaxes(-1, -2)
    return _sym(schur)


def _inv_chol(m):
    """Inverse Cholesky factor of each instance, and a mask of the
    instances whose factor or inverse is not finite (their rows NaN)."""
    lf = _chol_each(m)
    bad = ~np.isfinite(lf).all(axis=(-1, -2))
    lf[bad] = np.eye(m.shape[-1])
    li = _tri_inv(lf)
    bad |= ~np.isfinite(li).all(axis=(-1, -2))
    li[bad] = np.nan
    return li, bad


def _schur_inv_factor(schur, dscale):
    """L^-1 of each Schur matrix, so that M^-1 = L^-T L^-1.

    An instance whose own factor fails is retried with the ridges
    SCHUR_RIDGES times its `dscale`; the accepted ridge is written into
    that instance's rows of `schur`, so refinement residuals are taken
    against the matrix that was factored. Rows stay NaN for an instance
    that fails at the largest ridge.
    """
    li, bad = _inv_chol(schur)
    idx = np.arange(schur.shape[-1])
    for ridge in SCHUR_RIDGES:
        sel = np.nonzero(bad)[0]
        if not sel.size:
            break
        trial = schur[sel]
        trial[:, idx, idx] += ridge * dscale[sel, None]
        lt, still = _inv_chol(trial)
        fixed = sel[~still]
        schur[fixed] = trial[~still]
        li[fixed] = lt[~still]
        bad[fixed] = False
    return li


def _inner(a, b):
    return sum(np.sum(x * y, axis=(-1, -2)) for x, y in zip(a, b))


def _ipm(a_blocks, c_blocks, b, keep_trace=False):
    """Batched NT path-following IPM on real symmetric blocks.

    a_blocks: per block (m, nb, nb), shared across instances, or
    (B, m, nb, nb), one set of constraint matrices per instance.
    c_blocks: per block (B, nb, nb).
    b: (B, m).

    Finished instances are compacted out of the working set, so a few
    slowly converging stragglers do not drag the whole stack along.
    """
    nblk = len(a_blocks)
    m = a_blocks[0].shape[-3]
    bsz = b.shape[0]
    dims = [a.shape[-1] for a in a_blocks]
    ntot = sum(dims)
    def flat(blks):
        return [a.reshape(a.shape[:-2] + (-1,)) for a in blks]

    a_flat = flat(a_blocks)

    def op_a(xb):
        cnt = xb[0].shape[0]
        return sum(xb[i].reshape(cnt, 1, -1) @ a_flat[i].swapaxes(-1, -2)
                   for i in range(nblk)).reshape(cnt, m)

    def op_at(yv):
        return [np.einsum("bm,bmij->bij" if a.ndim == 4 else "bm,mij->bij",
                          yv, a) for a in a_blocks]

    # initial point: tau from least-squares fit of the equality constraints
    tr_a = sum(np.trace(a, axis1=-2, axis2=-1) for a in a_blocks)
    if tr_a.ndim == 1:
        denom = float(tr_a @ tr_a)
        tau_p = np.abs(b @ tr_a) / denom if denom > 0 else np.ones(bsz)
    else:  # per-instance constraints: one fit per instance
        denom = np.einsum("bm,bm->b", tr_a, tr_a)
        tau_p = np.where(denom > 0, np.abs(np.einsum("bm,bm->b", b, tr_a))
                         / np.where(denom > 0, denom, 1.0), 1.0)
    tau_p = np.clip(tau_p, 1.0, 1e4)
    c_scale = np.sqrt(sum(np.sum(c * c, axis=(-1, -2)) for c in c_blocks) / ntot)
    tau_d = np.clip(c_scale, 1.0, 1e6)

    x = [np.eye(nb) * tau_p[:, None, None] for nb in dims]
    s = [np.eye(nb) * tau_d[:, None, None] for nb in dims]
    y = np.zeros((bsz, m))

    b_norm = 1.0 + np.linalg.norm(b, axis=1)
    c_norm = 1.0 + np.sqrt(sum(np.sum(c * c, axis=(-1, -2)) for c in c_blocks))

    status = np.full(bsz, -1, dtype=int)
    out = {
        "pobj": np.zeros(bsz), "dobj": np.zeros(bsz), "gap": np.full(bsz, np.inf),
        "pres": np.full(bsz, np.inf), "dres": np.full(bsz, np.inf),
        "iters": np.zeros(bsz, dtype=int),
        "x": [np.zeros((bsz, nb, nb)) for nb in dims], "y": np.zeros((bsz, m)),
    }
    trace = []
    cur = np.arange(bsz)  # global index of each working instance
    stall = np.zeros(bsz, dtype=int)
    mu_prev = np.full(bsz, np.inf)

    def record(mask, code, pobj, dobj, pres, dres, it):
        gidx = cur[mask]
        status[gidx] = code
        out["pobj"][gidx] = pobj[mask]
        out["dobj"][gidx] = dobj[mask]
        out["gap"][gidx] = np.abs(pobj - dobj)[mask]
        out["pres"][gidx] = pres[mask]
        out["dres"][gidx] = dres[mask]
        out["iters"][gidx] = it
        for i in range(nblk):
            out["x"][i][gidx] = x[i][mask]
        out["y"][gidx] = y[mask]

    def keep_only(keep):
        # compact the working set down to the instances in `keep`
        nonlocal cur, x, s, y, b, c_blocks, a_blocks, a_flat, b_norm, c_norm
        nonlocal stall, mu_prev
        cur = cur[keep]
        a_blocks = [a[keep] if a.ndim == 4 else a for a in a_blocks]
        a_flat = flat(a_blocks)
        x = [xb[keep] for xb in x]
        s = [sb[keep] for sb in s]
        y, b = y[keep], b[keep]
        c_blocks = [cb[keep] for cb in c_blocks]
        b_norm, c_norm = b_norm[keep], c_norm[keep]
        stall, mu_prev = stall[keep], mu_prev[keep]

    def drop_nonfinite(it):
        # an iterate that overflowed (or a failed Schur factor, whose NaN
        # direction lands here) ends that instance, and only that one
        finite = np.isfinite(y).all(axis=1)
        for xb, sb in zip(x, s):
            finite &= np.isfinite(xb).all(axis=(-1, -2))
            finite &= np.isfinite(sb).all(axis=(-1, -2))
        if not finite.all():
            nan = np.full(cur.size, np.nan)
            record(~finite, 3, nan, nan, nan, nan, it)
            keep_only(np.nonzero(finite)[0])

    def residuals():
        rp = b - op_a(x)
        aty = op_at(y)
        rd = [c_blocks[i] - s[i] - aty[i] for i in range(nblk)]
        pobj = _inner(c_blocks, x)
        dobj = np.einsum("bm,bm->b", y, b)
        pres = np.linalg.norm(rp, axis=1)
        dres = np.sqrt(sum(np.sum(r * r, axis=(-1, -2)) for r in rd))
        return rp, rd, pobj, dobj, pres, dres

    for it in range(1, MAX_ITER + 1):
        drop_nonfinite(it - 1)
        if not cur.size:
            break
        rp, rd, pobj, dobj, pres, dres = residuals()
        mu = _inner(x, s) / ntot
        gap = np.abs(pobj - dobj)

        # classification happens at the complex scale, where embedded
        # residuals and gaps are twice as large
        strict = (pres / b_norm < 1e-10) & (dres / c_norm < 1e-10) & \
                 (gap / (1.0 + np.abs(pobj) + np.abs(dobj)) < 1e-9)
        loose = (pres < 1.8 * TOL.sdp_feas) & (gap < 1.8 * TOL.sdp_gap) & \
                (dres / c_norm < 1e-7)
        stall = np.where(mu > 0.9 * mu_prev, stall + 1, 0)
        mu_prev = mu.copy()

        done = strict | (loose & ((stall >= 8) | (mu < 1e-13)))
        if done.any():
            record(done, 0, pobj, dobj, pres, dres, it - 1)
        diverged = ~done & (np.abs(dobj) > DIVERGENCE * b_norm)
        if diverged.any():
            record(diverged, 1, pobj, dobj, pres, dres, it - 1)
        active = ~(done | diverged)

        if keep_trace and cur.size and cur[0] == 0:
            trace.append((float(pobj[0]), float(dobj[0]),
                          float(pres[0]), float(dres[0])))
        if not active.any():
            cur = cur[:0]
            break

        if not active.all():
            keep = np.nonzero(active)[0]
            keep_only(keep)
            rp = rp[keep]
            rd = [r[keep] for r in rd]
            pres, mu = pres[keep], mu[keep]

        # one factorization per matrix: the SVD of Ls^T Lx gives the NT
        # scaling point, S^-1 and the whitening factors for the step lengths
        w_nt, s_inv, px, ps = zip(*(_nt_scaling(_chol_psd(xb), _chol_psd(sb))
                                    for xb, sb in zip(x, s)))

        schur = _schur_matrix(w_nt, a_blocks)
        dscale = np.maximum(np.einsum("bii->b", schur) / m, 1.0)
        idx = np.arange(m)
        schur[:, idx, idx] += 1e-12  # absolute jitter; scale-free on purpose
        schur_inv = _schur_inv_factor(schur, dscale)
        schur_inv_t = schur_inv.swapaxes(-1, -2)

        a_wrw = op_a([_sym(w_nt[i] @ rd[i] @ w_nt[i]) for i in range(nblk)])
        a_sinv = op_a(s_inv)

        def solve_schur(rhs):
            # factored solve plus iterative refinement; the Schur matrix
            # gets very ill-conditioned near degenerate optima
            def apply(r):
                return (schur_inv_t @ (schur_inv @ r[..., None]))[..., 0]

            dy = apply(rhs)
            for _ in range(2):
                dy = dy + apply(rhs - np.einsum("bmn,bn->bm", schur, dy))
            return dy

        def newton(sigma_mu, corr=None):
            rhs = b - sigma_mu[:, None] * a_sinv + a_wrw
            if corr is not None:
                rhs = rhs + op_a(corr)
            dy = solve_schur(rhs)
            at_dy = op_at(dy)
            ds = [rd[i] - at_dy[i] for i in range(nblk)]
            dx = [_sym(sigma_mu[:, None, None] * s_inv[i] - x[i]
                       - (corr[i] if corr is not None else 0.0)
                       - w_nt[i] @ ds[i] @ w_nt[i]) for i in range(nblk)]
            return dy, dx, ds

        # predictor (affine scaling) step fixes the centering parameter
        _, dxa, dsa = newton(np.zeros(cur.size))
        ap = np.minimum(_max_step(px, dxa), 1.0)
        ad = np.minimum(_max_step(ps, dsa), 1.0)
        mu_aff = (_inner(x, s) + ap * _inner(dxa, s) + ad * _inner(x, dsa)
                  + ap * ad * _inner(dxa, dsa)) / ntot
        ratio = np.minimum(np.maximum(mu_aff, 0.0) / np.maximum(mu, 1e-300), 2.0)
        sigma = np.clip(ratio ** 3, 1e-3, 0.99)

        # Mehrotra second-order term, symmetrized HKM style
        corr = [_sym(dxa[i] @ dsa[i] @ s_inv[i]) for i in range(nblk)]
        dy, dx, ds = newton(sigma * mu, corr)
        ap = np.minimum(STEP_FRACTION * _max_step(px, dx), 1.0)
        ad = np.minimum(STEP_FRACTION * _max_step(ps, ds), 1.0)

        # guard against inaccurate directions: shrink any step that makes
        # the attached residual grow beyond its linear model
        for _ in range(6):
            x_try = [_sym(x[i] + ap[:, None, None] * dx[i]) for i in range(nblk)]
            pres_try = np.linalg.norm(b - op_a(x_try), axis=1)
            bad_p = pres_try > (1 - 0.5 * ap) * pres + 1e-12 * b_norm
            if not bad_p.any():
                break
            ap = np.where(bad_p, 0.5 * ap, ap)
        x = x_try
        s = [_sym(s[i] + ad[:, None, None] * ds[i]) for i in range(nblk)]
        y = y + ad[:, None] * dy

    drop_nonfinite(MAX_ITER)
    if cur.size:
        _, _, pobj, dobj, pres, dres = residuals()
        ok = (pres < 1.8 * TOL.sdp_feas) & \
             (np.abs(pobj - dobj) < 1.8 * TOL.sdp_gap)
        record(ok, 0, pobj, dobj, pres, dres, MAX_ITER)
        record(~ok, 2, pobj, dobj, pres, dres, MAX_ITER)

    out["status"] = status
    out["trace"] = trace
    return out


# ---------------------------------------------------------------------------
# public entry points


def _check_stack(c, a, b, sense, blocks, inst):
    """Raise ValueError unless (c, a, b, sense, blocks) with the
    per-instance blocks `inst` is a stack that `solve_stack` can solve as
    given."""
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if c.ndim not in (2, 3) or c.shape[-1] != c.shape[-2]:
        raise ValueError("objective must be (n, n) or (B, n, n)")
    n = c.shape[-1]
    if n > MAX_DIM:
        raise ValueError(f"variable dim {n} exceeds {MAX_DIM}")
    if a.ndim != 3 or a.shape[1:] != (n, n):
        raise ValueError("constraints must be (m, n, n), n the objective's")
    if b.ndim not in (1, 2) or b.shape[-1] != a.shape[0]:
        raise ValueError("rhs must be (m,) or (B, m), one per constraint")
    if blocks and (sum(blocks) != n or min(blocks) < 1):
        raise ValueError("block dims must be positive and sum to the "
                         "variable dim")
    dims = tuple(blocks) if blocks else (n,)
    for j, blk in inst.items():
        if not isinstance(j, (int, np.integer)) or not 0 <= j < len(dims):
            raise ValueError(f"instance block index {j!r} is not a block")
        if blk.ndim != 4 or blk.shape[1:] != (a.shape[0], dims[j], dims[j]):
            raise ValueError(f"instance block {j} must be (B, m, nb, nb), "
                             "nb its block dim")
    sizes = {c.shape[0] if c.ndim == 3 else 1, b.shape[0] if b.ndim == 2 else 1}
    sizes.update(blk.shape[0] for blk in inst.values())
    if len(sizes - {1}) > 1:
        raise ValueError("objective, rhs and instance block batch sizes "
                         "must be 1 or equal")
    checks = [("objective", c), ("constraint", a)]
    checks += [(f"instance block {j}", blk) for j, blk in inst.items()]
    for name, m in checks:
        dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
        if not dev <= TOL.herm:  # NaN fails too
            raise ValueError(f"{name} matrices must be finite and Hermitian")


def solve_stack(objective, constraints, rhs, sense="min", blocks=None,
                keep_trace=False, *, instance_blocks=None):
    """Solve a stack of Hermitian SDPs that share their constraint
    matrices, except on the diagonal blocks given per instance; the
    solver's one entry point (a single SDP is a stack of one).

    objective: (n, n) or (B, n, n) complex Hermitian, n <= MAX_DIM.
    constraints: (m, n, n) complex Hermitian, shared by all instances.
    rhs: (m,) or (B, m) real.
    sense: "min" or "max"; blocks: diagonal block sizes, default (n,).
    instance_blocks: {j: (B, m, nb_j, nb_j)} complex Hermitian, the
    constraint matrices of diagonal block j for each instance; they
    replace that block of `constraints`.
    Batch sizes of 1 broadcast against the others. Raises ValueError on
    input of any other form. Returns a dict of
    per-instance arrays: primal_value, dual_value, gap, pres, dres, iters,
    y, x_complex (the primal blocks), status (index into _STATUS),
    status_str and ok (status is optimal); with keep_trace, trace holds
    (primal_obj, dual_obj, primal_res, dual_res) of instance 0 per iterate.
    """
    c = np.asarray(objective, dtype=complex)
    a = np.asarray(constraints, dtype=complex)
    b = np.asarray(rhs, dtype=float)
    inst = {j: np.asarray(blk, dtype=complex)
            for j, blk in (instance_blocks or {}).items()}
    _check_stack(c, a, b, sense, blocks, inst)
    if c.ndim == 2:
        c = c[None]
    if b.ndim == 1:
        b = b[None]
    bsz = max(c.shape[0], b.shape[0], *(blk.shape[0] for blk in inst.values()))
    if c.shape[0] == 1 and bsz > 1:
        c = np.broadcast_to(c, (bsz,) + c.shape[1:])
    if b.shape[0] == 1 and bsz > 1:
        b = np.broadcast_to(b, (bsz, b.shape[1]))
    n = c.shape[-1]
    blocks = tuple(blocks) if blocks else (n,)
    sgn = 1.0 if sense == "min" else -1.0

    slc = _block_slices(blocks)
    a_blocks = [embed_matrix(np.broadcast_to(inst[j], (bsz,) + inst[j].shape[1:])
                             if j in inst else a[:, s_, s_])
                for j, s_ in enumerate(slc)]
    c_blocks = [embed_matrix(sgn * c[:, s_, s_]) for s_ in slc]
    res = _ipm(a_blocks, c_blocks, np.ascontiguousarray(2.0 * b),
               keep_trace=keep_trace)

    # undo embedding (values double) and sense flip
    res["primal_value"] = sgn * res.pop("pobj") / 2.0
    res["dual_value"] = sgn * res.pop("dobj") / 2.0
    res["gap"] = res["gap"] / 2.0
    res["pres"] = res["pres"] / 2.0
    # J-invariance of the iterates makes the unembedding exact
    res["x_complex"] = [_unembed(xb) for xb in res.pop("x")]
    res["status_str"] = [_STATUS[k] for k in res["status"]]
    res["ok"] = res["status"] == 0
    if keep_trace:
        res["trace"] = [(sgn * p / 2, sgn * d / 2, pr / 2, dr)
                        for p, d, pr, dr in res["trace"]]
    return res
