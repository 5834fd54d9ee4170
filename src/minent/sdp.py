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
block diagonal. A vectorized multi-instance path (`solve_stack`) solves
many problems that share constraint structure in one sweep; it exists
because the Monte Carlo layers above solve thousands of small SDPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import TOL, HermitianOperator

__all__ = ["SdpProblem", "SdpSolution", "SdpFailure", "embed_matrix",
           "embed_hermitian", "solve", "solve_stack"]


class SdpFailure(RuntimeError):
    """Raised when a solve that must certify optimality fails to."""


_STATUS = ("optimal", "infeasible", "max-iterations")

MAX_ITER = 500
STEP_FRACTION = 0.98
DIVERGENCE = 1e10


@dataclass(frozen=True)
class SdpProblem:
    """Hermitian SDP in standard equality form."""

    objective: np.ndarray
    constraints: tuple
    sense: str = "min"
    blocks: tuple[int, ...] | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("objective must be a square matrix")
        if np.abs(c - c.conj().T).max() > 1e-10:
            raise ValueError("objective must be Hermitian")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        n = c.shape[0]
        cons = []
        for a, bi in self.constraints:
            a = np.asarray(a, dtype=complex)
            if a.shape != c.shape:
                raise ValueError("constraint matrix shape mismatch")
            if np.abs(a - a.conj().T).max() > 1e-10:
                raise ValueError("constraint matrices must be Hermitian")
            cons.append((a, float(bi)))
        blocks = self.blocks or (n,)
        if sum(blocks) != n:
            raise ValueError("block dims must sum to the variable dim")
        if 2 * n > 128:
            raise ValueError("variable dim exceeds 128 after real embedding")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraints", tuple(cons))
        object.__setattr__(self, "blocks", tuple(int(x) for x in blocks))

    @property
    def dim(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class SdpSolution:
    primal_value: float
    dual_value: float
    primal_matrix: HermitianOperator
    dual_vector: np.ndarray
    status: str
    duality_gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    # (primal_obj, dual_obj, primal_res, dual_res) per iterate, for audits
    iterate_trace: tuple = field(default=(), repr=False)


def embed_matrix(m: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re, -Im], [Im, Re]] of a Hermitian matrix.

    Eigenvalues are doubled in multiplicity; inner products double:
    tr(E(A) E(B)) = 2 tr(AB).
    """
    m = np.asarray(m, dtype=complex)
    top = np.concatenate([m.real, -m.imag], axis=-1)
    bot = np.concatenate([m.imag, m.real], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def embed_hermitian(p: SdpProblem) -> SdpProblem:
    """Map a Hermitian problem to an equivalent real symmetric one.

    Right-hand sides are doubled to match the doubled inner products, so
    the embedded optimal value is exactly twice the Hermitian one. Each
    variable block embeds separately, keeping the block structure intact.
    """
    slices = _block_slices(p.blocks)

    def emb(mat):
        n2 = 2 * p.dim
        out = np.zeros((n2, n2))
        pos = 0
        for s_ in slices:
            nb = s_.stop - s_.start
            out[pos:pos + 2 * nb, pos:pos + 2 * nb] = embed_matrix(mat[s_, s_])
            pos += 2 * nb
        return out

    cons = tuple((emb(a), 2.0 * b) for a, b in p.constraints)
    return SdpProblem(emb(p.objective), cons, p.sense,
                      tuple(2 * nb for nb in p.blocks))


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
    """Cholesky factor of each instance, NaN where that instance's own
    factorization fails; a failing stack is bisected to find it."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if len(m) == 1:
            return np.full_like(m, np.nan)
        half = len(m) // 2
        return np.concatenate([_chol_each(m[:half]), _chol_each(m[half:])])


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
    """NT scaling point W with W S W = X from Cholesky factors.

    With G = Ls^T Lx = U diag(sig) V^T, W = Lx V diag(1/sig) V^T Lx^T.
    """
    g = ls.swapaxes(-1, -2) @ lx
    _, sig, vt = np.linalg.svd(g)
    sig = np.maximum(sig, 1e-150)
    v = vt.swapaxes(-1, -2)
    core = (v / sig[..., None, :]) @ vt
    return _sym(lx @ core @ lx.swapaxes(-1, -2))


def _max_step(l_factors, d):
    """Largest alpha with X + alpha D >= 0, from Cholesky factors of X."""
    steps = None
    for lf, db in zip(l_factors, d):
        g1 = np.linalg.solve(lf, db)
        g = _sym(np.linalg.solve(lf, g1.swapaxes(-1, -2)))
        lam = np.linalg.eigvalsh(-g)[..., -1]
        s = np.where(lam > 1e-13, 1.0 / np.where(lam > 1e-13, lam, 1.0), np.inf)
        steps = s if steps is None else np.minimum(steps, s)
    return steps


def _inner(a, b):
    return sum(np.sum(x * y, axis=(-1, -2)) for x, y in zip(a, b))


def _ipm(a_blocks, c_blocks, b, keep_trace=False):
    """Batched NT path-following IPM on real symmetric blocks.

    a_blocks: per block (m, nb, nb), shared across instances.
    c_blocks: per block (B, nb, nb).
    b: (B, m).

    Finished instances are compacted out of the working set, so a few
    slowly converging stragglers do not drag the whole stack along.
    """
    nblk = len(a_blocks)
    m = a_blocks[0].shape[0]
    bsz = b.shape[0]
    dims = [a.shape[-1] for a in a_blocks]
    ntot = sum(dims)
    a_flat = [a.reshape(m, -1) for a in a_blocks]

    def eye_stack(count):
        return [np.broadcast_to(np.eye(nb), (count, nb, nb)).copy()
                for nb in dims]

    def op_a(xb):
        cnt = xb[0].shape[0]
        return sum(xb[i].reshape(cnt, 1, -1) @ a_flat[i].T
                   for i in range(nblk)).reshape(cnt, m)

    def op_at(yv):
        return [np.einsum("bm,mij->bij", yv, a_blocks[i]) for i in range(nblk)]

    # initial point: tau from least-squares fit of the equality constraints
    tr_a = np.array([[np.trace(a_blocks[i][j]) for j in range(m)]
                     for i in range(nblk)]).sum(axis=0)
    denom = float(tr_a @ tr_a)
    tau_p = np.abs(b @ tr_a) / denom if denom > 0 else np.ones(bsz)
    tau_p = np.clip(tau_p, 1.0, 1e4)
    c_scale = np.sqrt(sum(np.sum(c * c, axis=(-1, -2)) for c in c_blocks) / ntot)
    tau_d = np.clip(c_scale, 1.0, 1e6)

    eyes = eye_stack(bsz)
    x = [eyes[i] * tau_p[:, None, None] for i in range(nblk)]
    s = [eyes[i] * tau_d[:, None, None] for i in range(nblk)]
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

    stall = np.zeros(bsz, dtype=int)
    mu_prev = np.full(bsz, np.inf)

    for it in range(1, MAX_ITER + 1):
        ax = op_a(x)
        rp = b - ax
        aty = op_at(y)
        rd = [c_blocks[i] - s[i] - aty[i] for i in range(nblk)]

        pobj = _inner(c_blocks, x)
        dobj = np.einsum("bm,bm->b", y, b)
        mu = _inner(x, s) / ntot
        pres = np.linalg.norm(rp, axis=1)
        dres = np.sqrt(sum(np.sum(r * r, axis=(-1, -2)) for r in rd))
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
            # compact the working set down to the unfinished instances
            keep = np.nonzero(active)[0]
            cur = cur[keep]
            x = [x[i][keep] for i in range(nblk)]
            s = [s[i][keep] for i in range(nblk)]
            y = y[keep]
            b = b[keep]
            c_blocks = [c_blocks[i][keep] for i in range(nblk)]
            b_norm, c_norm = b_norm[keep], c_norm[keep]
            stall, mu_prev = stall[keep], mu_prev[keep]
            rp = rp[keep]
            rd = [rd[i][keep] for i in range(nblk)]
            pres, mu = pres[keep], mu[keep]
            eyes = eye_stack(len(keep))

        lx = [_chol_psd(x[i]) for i in range(nblk)]
        ls = [_chol_psd(s[i]) for i in range(nblk)]
        s_inv = []
        for i in range(nblk):
            g = np.linalg.solve(ls[i], eyes[i])
            s_inv.append(_sym(g.swapaxes(-1, -2) @ g))
        w_nt = [_nt_scaling(lx[i], ls[i]) for i in range(nblk)]

        # Schur complement M_ij = sum_blocks <A_i, W A_j W>
        count = len(cur)
        schur = np.zeros((count, m, m))
        wrw = []
        for i in range(nblk):
            t = w_nt[i][:, None] @ a_blocks[i][None] @ w_nt[i][:, None]
            schur += t.reshape(count, m, -1) @ a_flat[i].T
            wrw.append(_sym(w_nt[i] @ rd[i] @ w_nt[i]))
        schur = (schur + schur.swapaxes(-1, -2)) / 2
        dscale = np.maximum(np.einsum("bii->b", schur) / m, 1.0)
        idx = np.arange(m)
        schur[:, idx, idx] += 1e-12  # absolute jitter; scale-free on purpose

        a_wrw = op_a(wrw)
        a_sinv = op_a(s_inv)

        def solve_schur(rhs):
            # direct solve plus iterative refinement; the Schur matrix gets
            # very ill-conditioned near degenerate optima
            ridge_extra = 0.0
            for attempt in range(4):
                try:
                    mm = schur if ridge_extra == 0.0 else (
                        schur + ridge_extra * dscale[:, None, None]
                        * np.eye(m))
                    dy = np.linalg.solve(mm, rhs[..., None])[..., 0]
                    for _ in range(2):
                        resid = rhs - np.einsum("bmn,bn->bm", mm, dy)
                        dy = dy + np.linalg.solve(mm, resid[..., None])[..., 0]
                    if np.all(np.isfinite(dy)):
                        return dy
                except np.linalg.LinAlgError:
                    pass
                ridge_extra = 10.0 ** (-12 + 3 * attempt)
            return np.nan_to_num(dy)

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
        count = len(cur)
        _, dxa, dsa = newton(np.zeros(count))
        ap = np.minimum(_max_step(lx, dxa), 1.0)
        ad = np.minimum(_max_step(ls, dsa), 1.0)
        mu_aff = (_inner(x, s) + ap * _inner(dxa, s) + ad * _inner(x, dsa)
                  + ap * ad * _inner(dxa, dsa)) / ntot
        ratio = np.minimum(np.maximum(mu_aff, 0.0) / np.maximum(mu, 1e-300), 2.0)
        sigma = np.clip(ratio ** 3, 1e-3, 0.99)

        # Mehrotra second-order term, symmetrized HKM style
        corr = [_sym(dxa[i] @ dsa[i] @ s_inv[i]) for i in range(nblk)]
        dy, dx, ds = newton(sigma * mu, corr)
        ap = np.minimum(STEP_FRACTION * _max_step(lx, dx), 1.0)
        ad = np.minimum(STEP_FRACTION * _max_step(ls, ds), 1.0)

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

    if cur.size:
        ax = op_a(x)
        rp = b - ax
        aty = op_at(y)
        rd = [c_blocks[i] - s[i] - aty[i] for i in range(nblk)]
        pobj = _inner(c_blocks, x)
        dobj = np.einsum("bm,bm->b", y, b)
        pres = np.linalg.norm(rp, axis=1)
        dres = np.sqrt(sum(np.sum(r * r, axis=(-1, -2)) for r in rd))
        gap = np.abs(pobj - dobj)
        ok = (pres < 1.8 * TOL.sdp_feas) & (gap < 1.8 * TOL.sdp_gap)
        if ok.any():
            record(ok, 0, pobj, dobj, pres, dres, MAX_ITER)
            cur_mask = ~ok
            cur = cur[cur_mask]
            if cur.size:
                x = [x[i][cur_mask] for i in range(nblk)]
                y = y[cur_mask]
                pobj, dobj = pobj[cur_mask], dobj[cur_mask]
                pres, dres = pres[cur_mask], dres[cur_mask]
        if cur.size:
            record(np.ones(cur.size, dtype=bool), 2, pobj, dobj, pres, dres,
                   MAX_ITER)

    out["status"] = status
    out["trace"] = trace
    return out


# ---------------------------------------------------------------------------
# public entry points


def solve_stack(objective, constraints, rhs, sense="min", blocks=None,
                keep_trace=False):
    """Solve a stack of structurally identical Hermitian SDPs.

    objective: (n, n) or (B, n, n) complex Hermitian.
    constraints: (m, n, n) complex Hermitian, shared by all instances.
    rhs: (m,) or (B, m) real.
    Returns a dict with per-instance arrays (values, statuses, gaps,
    primal blocks in the complex picture, ...).
    """
    c = np.asarray(objective, dtype=complex)
    a = np.asarray(constraints, dtype=complex)
    b = np.asarray(rhs, dtype=float)
    single_c = c.ndim == 2
    if single_c:
        c = c[None]
    if b.ndim == 1:
        b = b[None]
    bsz = max(c.shape[0], b.shape[0])
    if c.shape[0] == 1 and bsz > 1:
        c = np.broadcast_to(c, (bsz,) + c.shape[1:])
    if b.shape[0] == 1 and bsz > 1:
        b = np.broadcast_to(b, (bsz, b.shape[1]))
    n = c.shape[-1]
    blocks = tuple(blocks) if blocks else (n,)
    sgn = 1.0 if sense == "min" else -1.0

    slc = _block_slices(blocks)
    a_blocks = [embed_matrix(a[:, s_, s_]) for s_ in slc]
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
    if keep_trace:
        res["trace"] = [(sgn * p / 2, sgn * d / 2, pr / 2, dr)
                        for p, d, pr, dr in res["trace"]]
    return res


def solve(problem: SdpProblem, keep_trace: bool = True) -> SdpSolution:
    """Solve one Hermitian SDP and return primal/dual certificates."""
    a = np.stack([ai for ai, _ in problem.constraints]) if problem.constraints \
        else np.zeros((0, problem.dim, problem.dim), dtype=complex)
    b = np.array([bi for _, bi in problem.constraints], dtype=float)
    res = solve_stack(problem.objective, a, b, problem.sense, problem.blocks,
                      keep_trace=keep_trace)
    xfull = np.zeros((problem.dim, problem.dim), dtype=complex)
    for s_, xb in zip(_block_slices(problem.blocks), res["x_complex"]):
        xfull[s_, s_] = xb[0]
    # clip tiny asymmetry before wrapping
    xfull = (xfull + xfull.conj().T) / 2
    return SdpSolution(
        primal_value=float(res["primal_value"][0]),
        dual_value=float(res["dual_value"][0]),
        primal_matrix=HermitianOperator(xfull),
        dual_vector=res["y"][0].copy() / 1.0,
        status=res["status_str"][0],
        duality_gap=float(res["gap"][0]),
        primal_residual=float(res["pres"][0]),
        dual_residual=float(res["dres"][0]),
        iterations=int(res["iters"][0]),
        iterate_trace=tuple(res.get("trace", ())),
    )
