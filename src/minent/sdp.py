# src/minent/sdp.py
"""Dense semidefinite programming for Hermitian problems.

Standard form handled here:

    minimize / maximize   tr(C X)
    subject to            tr(A_i X) = b_i,   X >= 0,

with C, A_i Hermitian. The solver is a primal-dual path-following
interior point method with Nesterov-Todd scaling, run on the complex
Hermitian blocks themselves, as SDPT3 (Toh, Todd and Tutuncu, Optim.
Methods Softw. 1999) runs on complex data. The dual multipliers y and the
Schur complement M_ij = tr(W A_i W A_j) are real, since the trace of a
product of two Hermitian matrices is real; every such trace is taken as
the dot product of the real float64 views of the two matrices.

The variable is block diagonal, and every matrix of a problem is given
as one array per diagonal block, as SDPT3 takes its data; a block's size
is read off its arrays. The one entry point, `solve_stack`, checks its
input and solves a stack of problems that share their constraint
matrices in one sweep, because the Monte Carlo layers above solve
thousands of small SDPs; a single SDP is a stack of one. `check_size`
states which programs the solver takes. What a solve returns is its final
certificate, the primal blocks X and the multipliers y, from which a
caller can recompute the dual slack; no iterate is kept.

Each matrix is factored once per iteration. The Cholesky factors Lx,
Ls of the primal and dual iterates feed one SVD, G = Ls^H Lx = U Sig V^H,
as in Todd, Toh and Tutuncu, "On the Nesterov-Todd direction in
semidefinite programming" (SIAM J. Optim. 1998). That SVD gives the NT
scaling point W, S^-1 and the whitening factors Px, Ps for the step
lengths, so no iterate factor is ever inverted. The blocks of one size
share each of these batched LAPACK calls, as SDPT3 keeps its small blocks
of one kind together: per iteration and block size, one Cholesky call
factors every X and S, one SVD scales them, and one eigvalsh call in each
of the predictor and the corrector takes the primal and the dual step
lengths. The Schur complement gets one Cholesky factor per instance,
inverted once and applied by matmuls in the predictor, the corrector and
their refinement steps.

An instance ends "optimal" once it meets the strict certificate, or once
it meets the loose one (residual below 0.9 `sdp_feas`, gap below 0.9
`sdp_gap`) and mu has fallen by less than 10% in each of its last two
iterations, so a certified instance does not run on through a tail of
shrinking steps; after MAX_ITER iterations the loose certificate alone
decides. Each corrector step is the fraction
gamma = 0.9 + 0.09 min(alpha_p, alpha_d) of the longest step that stays
in the cone, where alpha_p and alpha_d are the predictor's step lengths,
each at most 1, as in SDPT3: an iterate whose affine step was short keeps
further from the boundary, and one whose affine step was full goes 0.99
of the way to it. The primal step is halved while it grows the primal
residual beyond its linear model; a residual that stays below 0.05
`sdp_feas`, well inside the certificate, never trips that guard. The
centering parameter is Mehrotra's (mu_aff / mu)^e with the exponent
e = max(1, 3 min(alpha_p, alpha_d)^2) of the previous iteration's step
lengths, after SDPT3: after short steps it centres more, so an iterate
whose primal and dual affine steps are far apart recovers instead of
jamming at the cone boundary.

Every batched LAPACK call is one of numpy's `_umath_linalg` gufuncs,
called directly: `cholesky_lo` for the iterate and Schur factors,
`svd_f` for the NT scaling, `eigvalsh_lo` for the step lengths, `solve`
for the leaves of the triangular inverse, and `eigh_lo` and
`cholesky_lo` for the eigenvalue clamp. A gufunc treats each matrix on
its own and writes NaN for exactly the matrices whose own factorization
or decomposition fails, where the np.linalg wrappers would raise for the
whole stack; the solve runs with invalid-value warnings off, since such
a NaN ends its instance and no other. Every fallback (eigenvalue clamp,
Schur ridge) is per matrix or per instance, and sums over blocks run
block by block in block order, so no instance's path depends on the
rest of its stack or on how its blocks are grouped; an instance whose
iterate turns non-finite (a failed SVD, a NaN step length, or a Schur
factor that fails at the largest ridge leads there) ends with status
"numerical-error". Inside the loop the reductions are the ufuncs'
`reduce` and einsum is numpy's C `c_einsum`, the very calls that the
ndarray methods and np.einsum make, so a small program pays little
Python dispatch per iteration.

Each pass of the loop classifies every working instance in one step,
which decides all four endings; the MAX_ITER ending is one more pass,
which classifies by the loose certificate alone. The instances that
ended are recorded and leave the working set in one compaction of every
per-instance array (iterates, data, norms and step history), so the
rest run on exactly as they would alone.
"""

from __future__ import annotations

import numpy as np
from numpy._core.multiarray import c_einsum
from numpy.linalg import _umath_linalg

from .linalg import TOL, hermitian_part

__all__ = ["SdpFailure", "check_size", "solve_stack"]


class SdpFailure(RuntimeError):
    """Raised when a solve that must certify optimality fails to."""


_STATUS = ("optimal", "infeasible", "max-iterations", "numerical-error")

MAX_ITER = 500
MAX_DIM = 64  # largest complex block dim
MAX_DATA = MAX_DIM ** 4  # complex entries of the constraint data, m sum n_b^2
DIVERGENCE = 1e10
SCHUR_RIDGES = (1e-15, 1e-12, 1e-9, 1e-6)  # times the mean Schur diagonal
SCHUR_CHUNK = 1 << 18  # float64s in one Schur-assembly temporary


# ---------------------------------------------------------------------------
# batched Hermitian core


@np.errstate(invalid="ignore")
def _chol_each(m):
    """Cholesky factor of each matrix of a stack, all NaN where that
    matrix's own factorization fails or is not finite.

    This is numpy's batched Cholesky gufunc itself, its complex loop for
    the iterates and its real loop for the Schur matrix: it factors each
    matrix on its own and writes NaN for the ones that fail, where
    np.linalg.cholesky would raise for the whole stack.
    """
    lf = _umath_linalg.cholesky_lo(m)
    finite = np.isfinite(lf)
    if not np.logical_and.reduce(finite, axis=None):
        lf[~np.logical_and.reduce(finite, axis=(-1, -2))] = np.nan
    return lf


def _chol_psd(m):
    """Batched Cholesky with an eigenvalue-clamp fallback for stray
    indefiniteness from roundoff.

    The fallback is per matrix, so no instance's trajectory depends on
    the rest of its stack. A matrix is clamped when its own
    factorization fails or when a squared pivot, which bounds its
    smallest eigenvalue from above, shows an eigenvalue below the clamp
    floor: a near-singular slack that still factors would otherwise
    blow the primal iterate up (replacer-channel scans do this). Each
    matrix of `m` must be exactly Hermitian, as the iterates are.
    """
    lf = _chol_each(m)
    piv = np.minimum.reduce(lf.diagonal(axis1=-2, axis2=-1).real, axis=-1) ** 2
    # the largest diagonal entry is a lower bound on the largest eigenvalue
    scale = np.maximum(
        np.maximum.reduce(m.diagonal(axis1=-2, axis2=-1).real, axis=-1), 1.0)
    bad = ~(piv >= 1e-14 * scale)  # NaN factors count as failed
    if np.logical_or.reduce(bad, axis=None):
        w, q = _umath_linalg.eigh_lo(m[bad])
        w = np.maximum(w, 1e-14 * np.maximum(w[..., -1:], 1.0))
        lf[bad] = _umath_linalg.cholesky_lo(
            hermitian_part((q * w[..., None, :]) @ q.conj().mT))
    return lf


def _nt_scaling(lx, ls):
    """NT scaling of X = Lx Lx^H and S = Ls Ls^H from one SVD.

    With G = Ls^H Lx = U Sig V^H, returns (W, S^-1, P):
      W    = Lx V Sig^-1 V^H Lx^H, the NT point with W S W = X;
      S^-1 = Lx V Sig^-2 V^H Lx^H, since Ls^-H = Lx V Sig^-1 U^H;
      P    = (Px, Ps), stacked on a new first axis, with
      Px   = Sig^-1 U^H Ls^H, so that Px X Px^H = I, and
      Ps   = Sig^-1 V^H Lx^H, so that Ps S Ps^H = I.
    Px and Ps whiten X and S for `_max_step`, so neither factor is
    inverted. A matrix whose SVD fails comes out all NaN.
    """
    ls_h = ls.conj().mT
    u, sig, vh = _umath_linalg.svd_f(ls_h @ lx)
    sig = np.maximum(sig, 1e-150)[..., None]
    vlx = vh @ lx.conj().mT
    p = np.empty((2,) + vlx.shape, dtype=vlx.dtype)
    np.divide(u.conj().mT @ ls_h, sig, out=p[0])
    ps = np.divide(vlx, sig, out=p[1])
    w = hermitian_part(vlx.conj().mT @ ps)
    s_inv = hermitian_part(ps.conj().mT @ ps)
    return w, s_inv, p


def _tri_inv(lf):
    """Inverse of each lower triangular factor, by halving:
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], with one
    batched solve against I on each leaf of at most 16 rows."""
    n = lf.shape[-1]
    if n <= 16:
        return _umath_linalg.solve(lf, np.eye(n))
    h = n // 2
    ai, di = _tri_inv(lf[..., :h, :h]), _tri_inv(lf[..., h:, h:])
    out = np.zeros(lf.shape, dtype=lf.dtype)
    out[..., :h, :h] = ai
    out[..., h:, h:] = di
    out[..., h:, :h] = -di @ (lf[..., h:, :h] @ ai)
    return out


def _max_step(p, d):
    """Largest alpha with X + alpha D >= 0, from any factors P with
    P X P^H = I (the Px or Ps of `_nt_scaling`): it is
    1 / lambda_max(-P D P^H), the same for every such P.

    p, d: one array per block size, (..., k, n, n) for the k blocks of
    that size, so each size takes one eigvalsh call. Returns, for each
    leading index, the least step over every block; NaN for a leading
    index whose direction is not finite in some block, or whose
    eigenvalue computation failed.
    """
    steps = None
    for pb, db in zip(p, d):
        g = -hermitian_part(pb @ db @ pb.conj().mT)
        finite = np.isfinite(g)
        spoiled = not np.logical_and.reduce(finite, axis=None)
        if spoiled:
            finite = np.logical_and.reduce(finite, axis=(-1, -2))
            g[~finite] = 0.0
        lam = _umath_linalg.eigvalsh_lo(g)[..., -1]
        # a NaN eigenvalue fails both tests and gives a NaN step
        s = np.where(lam <= 1e-13, np.inf, 1.0 / np.maximum(lam, 1e-13))
        if spoiled:
            s[~finite] = np.nan
        s = np.minimum.reduce(s, axis=-1)
        steps = s if steps is None else np.minimum(steps, s)
    return steps


def _schur_matrix(w_nt, a_blocks):
    """Schur complement M_ij = sum over blocks of tr(W A_i W A_j).

    With T_i = W A_i, M_ij = tr(T_i T_j) is the dot product of the real
    views of T_i and T_j^H = A_i W; all the A_i W of an instance come from
    one product of the stacked A_i with W. T is formed for a chunk of
    instances at a time, so the temporaries stay small whatever the stack
    size.
    """
    count, m = w_nt[0].shape[0], a_blocks[0].shape[0]
    schur = np.zeros((count, m, m))
    for w, a in zip(w_nt, a_blocks):
        nb = a.shape[-1]
        step = max(1, SCHUR_CHUNK // (2 * a.size))
        t = np.empty((min(step, count),) + a.shape, dtype=complex)
        a_rows = a.reshape(1, m * nb, nb)
        for lo in range(0, count, step):
            t_h = (a_rows @ w[lo:lo + step]).reshape(-1, m, nb, nb)
            k = t_h.shape[0]
            np.conjugate(t_h.mT, out=t[:k])
            schur[lo:lo + k] += t[:k].view(np.float64).reshape(k, m, -1) @ \
                t_h.view(np.float64).reshape(k, m, -1).mT
    return hermitian_part(schur)


def _inv_chol(m):
    """Inverse Cholesky factor of each instance, and a mask of the
    instances whose factor or inverse is not finite (their rows NaN)."""
    lf = _chol_each(m)
    bad = np.isnan(lf[..., 0, 0])  # a failed factor is NaN throughout
    if np.logical_or.reduce(bad):
        lf[bad] = np.eye(m.shape[-1])
    li = _tri_inv(lf)
    bad |= ~np.logical_and.reduce(np.isfinite(li), axis=(-1, -2))
    if np.logical_or.reduce(bad):
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
    for ridge in SCHUR_RIDGES:
        if not np.logical_or.reduce(bad):
            break
        sel = bad.nonzero()[0]
        idx = np.arange(schur.shape[-1])
        trial = schur[sel]
        trial[:, idx, idx] += ridge * dscale[sel, None]
        lt, still = _inv_chol(trial)
        fixed = sel[~still]
        schur[fixed] = trial[~still]
        li[fixed] = lt[~still]
        bad[fixed] = False
    return li


def _take(keep, arrays):
    """Each per-instance array, or list of such arrays, at the instances
    `keep`."""
    return [[a[keep] for a in v] if isinstance(v, list) else v[keep]
            for v in arrays]


@np.errstate(invalid="ignore")
def _ipm(a_blocks, c_blocks, b):
    """Batched NT path-following IPM on complex Hermitian blocks.

    a_blocks: per block (m, nb, nb), shared across instances.
    c_blocks: per block (nb, nb) or (B, nb, nb).
    b: (B, m) real.

    The blocks of one size are held together: the iterates of the k
    blocks of size n are one (2, B, k, n, n) array, X before S, and every
    other per-block quantity one (B, k, n, n) array, so each batched
    LAPACK kernel runs once per block size and phase: one Cholesky call
    factors every X and S of that size, one SVD gives their NT scaling,
    and one eigvalsh call in each of the predictor and the corrector takes
    the primal and the dual step lengths. Sums over blocks (op_a, the
    inner products, the Schur matrix) run on per-block views in block
    order, so no result depends on how the blocks are grouped.

    Each pass of the loop first classifies every working instance, and
    the one classification decides every ending: "numerical-error" for a
    non-finite iterate, "optimal" by the certificates, "infeasible" for a
    diverging dual objective, and after MAX_ITER steps the loose
    certificate alone gives "optimal" or "max-iterations". The instances
    that ended are recorded and compacted out of the working set in one
    call, so a few slowly converging stragglers do not drag the whole
    stack along.
    """
    m = a_blocks[0].shape[0]
    bsz = b.shape[0]
    dims = [a.shape[-1] for a in a_blocks]
    ntot = sum(dims)
    sizes = list(dict.fromkeys(dims))  # distinct block sizes, first seen first
    groups = [[i for i, nb in enumerate(dims) if nb == n] for n in sizes]
    # (size, place within it) of each block, in block order
    slot = [(sizes.index(nb), dims[:i].count(nb)) for i, nb in enumerate(dims)]
    a_flat = [a.view(np.float64).reshape(m, -1) for a in a_blocks]
    a_size = [np.array([a_flat[i] for i in g]) for g in groups]
    a_slot = list(zip(slot, [af.T for af in a_flat]))
    diag = np.arange(m)

    def each(v):
        # per-block views, in block order, of per-size (B, k, n, n) arrays
        return [v[g][:, j] for g, j in slot]

    def op_a(v):
        cnt = v[0].shape[0]
        rows = [vs.view(np.float64).reshape(cnt, vs.shape[1], 1, -1)
                for vs in v]
        acc = 0
        for (g, j), af_t in a_slot:
            acc = acc + rows[g][:, j] @ af_t
        return acc[:, 0]

    def op_at(yv):
        # one (1, m) @ (m, 2 nb^2) product per instance and block, so an
        # instance's rounding does not depend on its stack
        cnt = yv.shape[0]
        return [(yv[:, None, None] @ af).view(complex).reshape(cnt, -1, n, n)
                for af, n in zip(a_size, sizes)]

    def inner(u, v):
        # sum over blocks, in block order, of tr(U V) for Hermitian blocks,
        # from the real views of per-size (..., k, n, n) arrays
        tr = [np.add.reduce(us * vs, axis=(-1, -2)) for us, vs in zip(u, v)]
        acc = 0
        for g, j in slot:
            acc = acc + tr[g][..., j]
        return acc

    def real(v):
        # the float64 views that `inner` takes, of per-size complex arrays
        return [vs.view(np.float64) for vs in v]

    # initial point: tau from least-squares fit of the equality constraints
    tr_a = sum(a.trace(axis1=-2, axis2=-1).real for a in a_blocks)
    denom = float(tr_a @ tr_a)
    tau_p = np.abs(b @ tr_a) / denom if denom > 0 else np.ones(bsz)
    tau_p = np.minimum(np.maximum(tau_p, 1.0), 1e4)
    c = [np.empty((bsz, len(g), n, n), dtype=complex)
         for n, g in zip(sizes, groups)]
    for i, (g, j) in enumerate(slot):
        c[g][:, j] = c_blocks[i]
    c_re = real(c)
    c_sq = inner(c_re, c_re)
    tau_d = np.minimum(np.maximum(np.sqrt(c_sq / ntot), 1.0), 1e6)

    tau = np.array([tau_p, tau_d])[:, :, None, None, None]
    z = [np.empty((2, bsz, len(g), n, n), dtype=complex)
         for n, g in zip(sizes, groups)]
    for zs in z:
        zs[...] = np.eye(zs.shape[-1]) * tau
    x, s = zip(*z)
    y = np.zeros((bsz, m))

    b_norm = 1.0 + np.sqrt(np.add.reduce(b * b, axis=1))
    c_norm = 1.0 + np.sqrt(c_sq)
    res = b - op_a(x)
    pres = np.sqrt(np.add.reduce(res * res, axis=1))

    # every instance is recorded once, when it ends; a numerical error
    # keeps NaN values
    out = {key: np.full(bsz, np.nan)
           for key in ("pobj", "dobj", "gap", "pres", "dres")}
    out.update(status=np.zeros(bsz, dtype=int), iters=np.zeros(bsz, dtype=int),
               x_complex=[np.zeros((bsz, nb, nb), dtype=complex) for nb in dims],
               y=np.zeros((bsz, m)))
    cur = np.arange(bsz)  # global index of each working instance
    stall = np.zeros(bsz, dtype=int)
    mu_prev = np.full(bsz, np.inf)
    step_prev = np.ones(bsz)  # min(primal, dual) step of the last iteration

    for it in range(MAX_ITER + 1):
        # an iterate that overflowed (or a failed kernel, whose NaN lands
        # here) ends that instance, and only that one; its residuals are
        # NaN and go unrecorded
        finite = np.logical_and.reduce(np.isfinite(y), axis=1)
        for zs in z:
            finite &= np.logical_and.reduce(np.isfinite(zs), axis=(0, 2, 3, 4))
        z_re = real(z)
        x_re, s_re = zip(*z_re)
        rd = [cs - ss - ats for cs, ss, ats in zip(c, s, op_at(y))]
        rd_re = real(rd)
        pobj = inner(c_re, x_re)
        dobj = c_einsum("bm,bm->b", y, b)
        gap = np.abs(pobj - dobj)
        dres = np.sqrt(inner(rd_re, rd_re))
        tr_xs = inner(x_re, s_re)  # kept for the predictor's mu_aff
        mu = tr_xs / ntot

        dres_rel, dobj_abs = dres / c_norm, np.abs(dobj)
        strict = (pres / b_norm < 1e-10) & (dres_rel < 1e-10) & \
                 (gap / (1.0 + np.abs(pobj) + dobj_abs) < 1e-9)
        loose = (pres < 0.9 * TOL.sdp_feas) & (gap < 0.9 * TOL.sdp_gap) & \
                (dres_rel < 1e-7)
        stall = (stall + 1) * (mu > 0.9 * mu_prev)
        mu_prev = mu

        # a certified instance ends once mu stalls (two iterations in a row
        # each cut it by less than 10%) or is at roundoff; after MAX_ITER
        # steps the loose certificate alone decides, and every instance ends
        last = it == MAX_ITER
        done = loose if last else strict | (loose & ((stall >= 2) | (mu < 1e-13)))
        ended = ~finite | done | last | (dobj_abs > DIVERGENCE * b_norm)
        if np.logical_or.reduce(ended):
            code = np.where(finite, np.where(done, 0, 2 if last else 1), 3)
            gidx, fin = cur[ended], ended & finite
            out["status"][gidx] = code[ended]
            out["iters"][gidx] = it
            for key, v in (("pobj", pobj), ("dobj", dobj), ("gap", gap),
                           ("pres", pres), ("dres", dres)):
                out[key][cur[fin]] = v[fin]
            for xc, xb in zip(out["x_complex"], each(x)):
                xc[gidx] = xb[ended]
            out["y"][gidx] = y[ended]
            if np.logical_and.reduce(ended):
                break
            keep = np.nonzero(~ended)[0]
            z = [zs[:, keep] for zs in z]
            x, s = zip(*z)
            z_re = real(z)
            (cur, y, b, c, b_norm, c_norm, stall, mu_prev, step_prev, rd, pres,
             mu, tr_xs) = _take(keep, (cur, y, b, c, b_norm, c_norm, stall,
                                       mu_prev, step_prev, rd, pres, mu, tr_xs))
            c_re = real(c)

        # one Cholesky call factors every X and S of one size, and the SVD
        # of Ls^H Lx gives the NT scaling point, S^-1 and the whitening
        # factors for the step lengths
        w_nt, s_inv, p = zip(*[_nt_scaling(*_chol_psd(zs)) for zs in z])

        schur = _schur_matrix(each(w_nt), a_blocks)
        dscale = np.maximum(c_einsum("bii->b", schur) / m, 0.5)
        schur[:, diag, diag] += 0.5e-12  # absolute jitter; scale-free on purpose
        schur_inv = _schur_inv_factor(schur, dscale)
        schur_inv_t = schur_inv.mT

        a_wrw = op_a([hermitian_part(w @ r @ w) for w, r in zip(w_nt, rd)])
        a_sinv = op_a(s_inv)

        def solve_schur(rhs):
            # factored solve plus two steps of iterative refinement; the
            # Schur matrix gets very ill-conditioned near degenerate optima
            dy = (schur_inv_t @ (schur_inv @ rhs[..., None]))[..., 0]
            for _ in range(2):
                r = rhs - c_einsum("bmn,bn->bm", schur, dy)
                dy = dy + (schur_inv_t @ (schur_inv @ r[..., None]))[..., 0]
            return dy

        def newton(sigma_mu, corr=None):
            # dy, and per size the directions (dX, dS) laid out as the iterate
            rhs = b - sigma_mu[:, None] * a_sinv + a_wrw
            if corr is not None:
                rhs = rhs + op_a(corr)
            dy = solve_schur(rhs)
            d = [np.empty(zs.shape, dtype=complex) for zs in z]
            for g, at_dy in enumerate(op_at(dy)):
                ds = np.subtract(rd[g], at_dy, out=d[g][1])
                dx = sigma_mu[:, None, None, None] * s_inv[g] - x[g]
                if corr is not None:
                    dx = dx - corr[g]
                d[g][0] = hermitian_part(dx - w_nt[g] @ ds @ w_nt[g])
            return dy, d

        # predictor (affine scaling) step fixes the centering parameter
        _, da = newton(np.zeros(cur.size))
        ap, ad = np.minimum(_max_step(p, da), 1.0)
        dxa, dsa = zip(*da)
        # tr(dX S) and tr(X dS) in one product of (dX, dS) with (S, X)
        da_re = real(da)
        cross = inner(da_re, [zr[::-1] for zr in z_re])
        dxa_re, dsa_re = zip(*da_re)
        mu_aff = (tr_xs + ap * cross[0] + ad * cross[1]
                  + ap * ad * inner(dxa_re, dsa_re)) / ntot
        ratio = np.minimum(np.maximum(mu_aff, 0.0) / np.maximum(mu, 1e-300), 2.0)
        # Mehrotra's cube after long steps, down to the plain ratio after
        # short ones: an iterate whose primal and dual affine steps are far
        # apart is recentred instead of sigma collapsing to its floor and
        # the steps shrinking further
        expon = np.maximum(1.0, 3.0 * step_prev ** 2)
        sigma = np.minimum(np.maximum(ratio ** expon, 1e-3), 0.99)

        # Mehrotra second-order term, symmetrized HKM style
        corr = [hermitian_part(dx @ ds @ si) for dx, ds, si in zip(dxa, dsa, s_inv)]
        # SDPT3's step fraction from the predictor's step lengths: 0.9 after
        # a short affine step, up to 0.99 after a full one
        gamma = 0.9 + 0.09 * np.minimum(ap, ad)
        dy, d = newton(sigma * mu, corr)
        ap, ad = np.minimum(gamma * _max_step(p, d), 1.0)

        # guard against inaccurate directions: shrink any step that makes
        # the attached residual grow beyond its linear model, unless it
        # stays below 0.05 sdp_feas; after six halvings the step is taken
        # as it is (x and dx are exactly Hermitian, and so is each x_try).
        # The last residual is the next pass's pres
        z = [np.empty(zs.shape, dtype=complex) for zs in z]
        for _ in range(6):
            x_try = [np.add(xs, ap[:, None, None, None] * dv[0], out=zs[0])
                     for xs, dv, zs in zip(x, d, z)]
            res = b - op_a(x_try)
            pres_try = np.sqrt(np.add.reduce(res * res, axis=1))
            bad_p = pres_try > np.maximum((1 - 0.5 * ap) * pres,
                                           0.05 * TOL.sdp_feas)
            if not np.logical_or.reduce(bad_p):
                break
            ap = np.where(bad_p, 0.5 * ap, ap)
        pres = pres_try
        for zs, ss, dv in zip(z, s, d):
            zs[1] = hermitian_part(ss + ad[:, None, None, None] * dv[1])
        x, s = zip(*z)
        y = y + ad[:, None] * dy
        step_prev = np.minimum(ap, ad)

    return out


# ---------------------------------------------------------------------------
# public entry points


def check_size(dims, m):
    """Raise ValueError unless the solver takes a program with diagonal
    blocks of the sizes `dims` and `m` constraints.

    Each block is at most MAX_DIM, and the constraint data, m sum n_b^2
    complex entries, at most MAX_DATA. Independent constraints number at
    most sum n_b^2, so every such program whose blocks sum to at most
    MAX_DIM meets the second cap; one MAX_DIM block with MAX_DIM^2
    constraints meets it exactly. Callers that build large data call
    this first.
    """
    if max(dims) > MAX_DIM:
        raise ValueError(f"block dim {max(dims)} exceeds {MAX_DIM}")
    size = m * sum(nb * nb for nb in dims)
    if size > MAX_DATA:
        raise ValueError(f"constraint data of {size} entries (m sum n_b^2) "
                         f"exceeds {MAX_DATA}")


def _check_stack(c, a, b, sense):
    """Batch size of (c, a, b, sense), or ValueError unless that is a
    stack that `solve_stack` can solve as given: every shape and size is
    checked before the data."""
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if not c or len(c) != len(a):
        raise ValueError("objective and constraints need one array per block")
    for cb, ab in zip(c, a):
        if cb.ndim not in (2, 3) or cb.shape[-1] != cb.shape[-2] \
                or not cb.shape[-1]:
            raise ValueError("objective blocks must be (n_b, n_b) or "
                             "(B, n_b, n_b), n_b >= 1")
        if ab.ndim != 3 or ab.shape[1:] != cb.shape[-2:]:
            raise ValueError("constraints must be (m, n_b, n_b) per block, "
                             "n_b the objective block's")
    m = a[0].shape[0]
    if any(ab.shape[0] != m for ab in a):
        raise ValueError("constraint blocks must share their count m")
    if b.ndim not in (1, 2) or b.shape[-1] != m:
        raise ValueError("rhs must be (m,) or (B, m), one per constraint")
    sizes = {x.shape[0] for x in c if x.ndim == 3} | {len(b) if b.ndim == 2 else 1}
    if len(sizes - {1}) > 1:
        raise ValueError("objective and rhs batch sizes must be 1 or equal")
    check_size([ab.shape[-1] for ab in a], m)
    for name, blocks in (("objective", c), ("constraint", a)):
        for x in blocks:
            dev = np.abs(x - x.conj().swapaxes(-1, -2)).max(initial=0.0)
            if not dev <= TOL.herm:  # NaN fails too
                raise ValueError(f"{name} matrices must be finite and "
                                 "Hermitian")
    return max(sizes)


def solve_stack(objective, constraints, rhs, sense="min"):
    """Solve a stack of Hermitian SDPs that share their constraint
    matrices; the solver's one entry point (a single SDP is a stack of
    one).

    objective: one complex Hermitian array per diagonal block, (n_b, n_b)
    or (B, n_b, n_b).
    constraints: one complex Hermitian array per block, (m, n_b, n_b),
    shared by all instances; `check_size` bounds n_b and m.
    rhs: (m,) or (B, m) real.
    sense: "min" or "max".
    Batch sizes of 1 broadcast against the others. Raises ValueError on
    input of any other form. Returns a dict of per-instance arrays:
    primal_value, dual_value, gap, pres, dres, iters, y, x_complex (the
    primal blocks), status (index into _STATUS), status_str and ok
    (status is optimal). y is the multiplier of the minimization of
    sgn C, with sgn = 1 for "min" and -1 for "max": the dual slack is
    S = sgn C - sum_i y_i A_i, and dual_value = sgn b.y.
    """
    c = [np.asarray(cb, dtype=complex) for cb in objective]
    a = [np.ascontiguousarray(ab, dtype=complex) for ab in constraints]
    b = np.asarray(rhs, dtype=float)
    bsz = _check_stack(c, a, b, sense)
    sgn = 1.0 if sense == "min" else -1.0
    b_stack = np.empty((bsz, b.shape[-1]))
    b_stack[...] = b
    res = _ipm(a, [sgn * cb for cb in c], b_stack)

    # undo the sense flip
    res["primal_value"] = sgn * res.pop("pobj")
    res["dual_value"] = sgn * res.pop("dobj")
    res["status_str"] = [_STATUS[k] for k in res["status"]]
    res["ok"] = res["status"] == 0
    return res
