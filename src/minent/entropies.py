# src/minent/entropies.py
"""One-shot entropic quantities of states, in bits (log base 2).

Relative entropy families (max, Petz-Renyi, sandwiched Renyi, hypothesis
testing), the conditional min-entropies they induce, and certified
one-sided bounds for their smoothed versions. Anything defined through
an optimization is computed by the interior-point solver in `sdp`;
closed forms are used where the optimization collapses (and serve as
independent cross-checks of the solver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import (TOL, DensityOperator, HermitianOperator, fidelity_many,
                     hermitian_basis, hermitian_part, partial_trace,
                     psd_inv_sqrt, psd_sqrt, support_projector)

__all__ = [
    "RenyiOrder",
    "d_max",
    "d_max_sdp",
    "petz_renyi",
    "sandwiched_renyi",
    "d_hypothesis",
    "cond_min_entropy_up",
    "cond_min_entropy_up_many",
    "cond_min_entropy_down",
    "cond_min_entropy_down_many",
    "cond_min_entropy_down_sdp",
    "cond_hypothesis_entropy",
    "cond_hypothesis_entropy_many",
    "smooth_min_entropy_lower_bound",
    "smooth_min_entropy_lower_bound_many",
    "max_fidelity_uniform",
]

# mixing weights tried by the smoothing line search; a fixed grid keeps
# the certified bound monotone in the smoothing parameter
SMOOTH_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 0.01, 0.02, 0.04, 0.08,
               0.12, 0.2, 0.3, 0.45, 0.6, 0.8, 0.95)

# weight of rho outside the support of sigma above which D_max is +inf
SUPPORT_LEAK = 1e-10

# states per sub-stack of the smoothing-ball check and of the eps > 0
# hypothesis SDPs: their temporaries (the fidelities' eigen-decompositions,
# the solver's per-instance Schur matrices and Schur-assembly chunks) grow
# with the stack, and past a few states the extra peak memory buys little
# speed
SUBSTACK = 8


@dataclass(frozen=True)
class RenyiOrder:
    """Renyi order with the limits 1 and infinity as distinguished points."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0):
            raise ValueError("alpha must be nonnegative")

    @classmethod
    def of(cls, alpha) -> "RenyiOrder":
        return alpha if isinstance(alpha, cls) else cls(float(alpha))


def _support_violation(rho_m: np.ndarray, sigma_m: np.ndarray) -> bool:
    proj = support_projector(sigma_m)
    comp = np.eye(sigma_m.shape[0]) - proj
    return float(np.trace(comp @ rho_m @ comp).real) > SUPPORT_LEAK


# ---------------------------------------------------------------------------
# relative entropies


def d_max(rho: DensityOperator, sigma: HermitianOperator) -> float:
    """Max-relative entropy logformed from the smallest lambda with
    lambda*sigma >= rho; +inf when rho leaves the support of sigma."""
    sig = sigma.matrix if isinstance(sigma, (HermitianOperator, DensityOperator)) \
        else np.asarray(sigma, dtype=complex)
    if rho.dim != sig.shape[0]:
        raise ValueError("dimension mismatch")
    if _support_violation(rho.matrix, sig):
        return math.inf
    isq = psd_inv_sqrt(sig)
    lam = float(np.linalg.eigvalsh(isq @ rho.matrix @ isq).max())
    return math.log2(max(lam, 1e-300))


def d_max_sdp(rho: DensityOperator, sigma: HermitianOperator) -> float:
    """Max-relative entropy by SDP: min lambda s.t. lambda*sigma >= rho.

    Independent code path from d_max, used for dual-path agreement
    audits. Returns +inf on infeasibility.
    """
    sig = sigma.matrix
    d = rho.dim
    n = 1 + d
    basis = hermitian_basis(d)
    m = d * d
    a = np.zeros((m, n, n), dtype=complex)
    b = np.zeros(m)
    for k, ek in enumerate(basis):
        a[k, 0, 0] = -np.trace(ek @ sig)
        a[k, 1:, 1:] = ek
        b[k] = -np.real(np.trace(ek @ rho.matrix))
    c = np.zeros((n, n), dtype=complex)
    c[0, 0] = 1.0
    res = sdp.solve_stack(c, a, b, "min", (1, d))
    status = res["status_str"][0]
    if status == "infeasible":
        return math.inf
    if not res["ok"][0]:
        raise sdp.SdpFailure(f"d_max SDP ended with status {status}")
    return math.log2(max(float(res["primal_value"][0]), 1e-300))


def _matrix_power_psd(m: np.ndarray, power: float) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    if power < 0:
        vals = np.where(w > TOL.support, w, 1.0) ** power * (w > TOL.support)
    else:
        vals = w ** power
    return (v * vals) @ v.conj().T


def petz_renyi(alpha, rho: DensityOperator, sigma: HermitianOperator) -> float:
    """Petz-Renyi relative entropy (1/(alpha-1)) log tr(rho^a sigma^(1-a))."""
    a = RenyiOrder.of(alpha).alpha
    if not 0 <= a <= 2:
        raise ValueError("Petz order restricted to [0, 2] for monotone use")
    rm, sm = rho.matrix, sigma.matrix
    if a == 0:
        val = float(np.trace(support_projector(rm) @ sm).real)
        return -math.log2(max(val, 1e-300))
    if a == 1:
        return _umegaki(rm, sm)
    if a > 1 and _support_violation(rm, sm):
        return math.inf
    t = float(np.trace(_matrix_power_psd(rm, a) @ _matrix_power_psd(sm, 1 - a)).real)
    if t <= 0:
        return math.inf
    return math.log2(t) / (a - 1)


def sandwiched_renyi(alpha, rho: DensityOperator, sigma: HermitianOperator) -> float:
    """Sandwiched Renyi relative entropy; alpha=inf gives d_max and
    alpha=1/2 gives -log F."""
    a = RenyiOrder.of(alpha).alpha
    if math.isinf(a):
        return d_max(rho, sigma)
    if not a >= 0.5:
        raise ValueError("sandwiched order restricted to [1/2, inf]")
    rm, sm = rho.matrix, sigma.matrix
    if a == 1:
        return _umegaki(rm, sm)
    if a > 1 and _support_violation(rm, sm):
        return math.inf
    half = _matrix_power_psd(sm, (1 - a) / (2 * a))
    w = np.clip(np.linalg.eigvalsh(half @ rm @ half), 0.0, None)
    t = float((w ** a).sum())
    if t <= 0:
        return math.inf
    return math.log2(t) / (a - 1)


def _umegaki(rm: np.ndarray, sm: np.ndarray) -> float:
    if _support_violation(rm, sm):
        return math.inf
    wr, vr = np.linalg.eigh((rm + rm.conj().T) / 2)
    ws, vs = np.linalg.eigh((sm + sm.conj().T) / 2)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    log_r = (vr * np.log2(np.where(wr > TOL.support, wr, 1.0))) @ vr.conj().T
    log_s = (vs * np.log2(np.where(ws > TOL.support, ws, 1.0))) @ vs.conj().T
    return float(np.trace(rm @ (log_r - log_s)).real)


def d_hypothesis(eps: float, rho: DensityOperator, sigma: HermitianOperator) -> float:
    """Hypothesis-testing relative entropy at type-I error eps.

    SDP over tests 0 <= L <= 1 with tr(rho L) >= 1 - eps; at eps = 0 the
    projector closed form -log tr(Pi_rho sigma) applies.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if eps == 0:
        return petz_renyi(0, rho, sigma)
    d = rho.dim
    basis = hermitian_basis(d)
    n = 2 * d + 1
    m = d * d + 1
    a = np.zeros((m, n, n), dtype=complex)
    b = np.zeros(m)
    for k, ek in enumerate(basis):
        a[k, :d, :d] = ek
        a[k, d:2 * d, d:2 * d] = ek
        b[k] = np.real(np.trace(ek))
    a[m - 1, :d, :d] = rho.matrix
    a[m - 1, 2 * d:, 2 * d:] = -1.0
    b[m - 1] = 1.0 - eps
    c = np.zeros((n, n), dtype=complex)
    c[:d, :d] = sigma.matrix
    res = sdp.solve_stack(c, a, b, "min", (d, d, 1))
    if not res["ok"][0]:
        raise sdp.SdpFailure(
            f"hypothesis-testing SDP status {res['status_str'][0]}")
    val = max(float(res["primal_value"][0]), 0.0)
    if val < 1e-300:
        return math.inf
    return -math.log2(val)


# ---------------------------------------------------------------------------
# conditional entropies (A conditioned on B, state ordered A (x) B)


def _split_dims(rho: DensityOperator):
    if len(rho.dims) != 2:
        raise ValueError("conditional entropies need bipartite dims (dA, dB)")
    return rho.dims


def _cond_min_up_data(da: int, db: int):
    """SDP data for min tr(sigma_B) s.t. 1_A (x) sigma_B >= rho_AB.

    Blocks (sigma_B, Y) with Y = 1 (x) sigma - rho; rho enters only the
    right-hand side, so stacks of states share all constraint matrices.
    """
    dab = da * db
    basis = hermitian_basis(dab)
    n = db + dab
    m = dab * dab
    a = np.zeros((m, n, n), dtype=complex)
    for k, ek in enumerate(basis):
        a[k, :db, :db] = -np.einsum("ikil->kl", ek.reshape(da, db, da, db))
        a[k, db:, db:] = ek
    c = np.zeros((n, n), dtype=complex)
    c[:db, :db] = np.eye(db)
    return a, c, basis, (db, dab)


def cond_min_entropy_up_many(mats: np.ndarray, da: int, db: int):
    """S_min(A|B) for a stack of states (B, dab, dab).

    Returns (values, ok) where ok flags instances whose SDP certified
    optimality; values are -log2 of the optimal trace.
    """
    a, c, basis, blocks = _cond_min_up_data(da, db)
    b = -np.einsum("kij,bji->bk", basis, mats).real
    res = sdp.solve_stack(c, a, b, "min", blocks)
    vals = -np.log2(np.clip(res["primal_value"], 1e-300, None))
    return vals, res["ok"]


def cond_min_entropy_up(rho: DensityOperator) -> float:
    """Conditional min-entropy S_min(A|B) = -log2 min tr(sigma) with
    1 (x) sigma >= rho, the SDP form of -inf_sigma D_max."""
    da, db = _split_dims(rho)
    vals, ok = cond_min_entropy_up_many(rho.matrix[None], da, db)
    if not ok[0]:
        raise sdp.SdpFailure("conditional min-entropy SDP did not certify")
    return float(vals[0])


def cond_min_entropy_down_many(mats: np.ndarray, da: int, db: int) -> np.ndarray:
    """S_min-down(A|B) = -D_max(rho_AB || 1_A (x) rho_B) for a stack of
    states (B, dab, dab), in closed form.

    -log2 lambda_max of (1 (x) rho_B^-1/2) rho (1 (x) rho_B^-1/2), with the
    inverse root taken on the support of rho_B; -inf where rho leaves the
    support of 1_A (x) rho_B (D_max = +inf, as in `d_max`).
    """
    m5 = mats.reshape(-1, da, db, da, db)
    w, v = np.linalg.eigh(hermitian_part(np.einsum("nakal->nkl", m5)))
    keep = w > TOL.support
    isq = hermitian_part(
        (v * np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)[:, None])
        @ v.conj().swapaxes(-1, -2))
    sand = np.einsum("nkl,nalbm,nmp->nakbp", isq, m5, isq).reshape(mats.shape)
    vals = -np.log2(np.clip(np.linalg.eigvalsh(sand)[:, -1], 1e-300, None))
    # tr((1 (x) Q) rho (1 (x) Q)) = tr(Q rho_B), Q the projector off supp rho_B
    vals[np.where(keep, 0.0, w).sum(axis=1) > SUPPORT_LEAK] = -np.inf
    return vals


def cond_min_entropy_down(rho: DensityOperator) -> float:
    """Down-variant -D_max(rho_AB || 1_A (x) rho_B), closed form."""
    da, db = _split_dims(rho)
    return float(cond_min_entropy_down_many(rho.matrix[None], da, db)[0])


def cond_min_entropy_down_sdp(rho: DensityOperator) -> float:
    """Down-variant via the D_max SDP; independent of the eigen route."""
    da, db = _split_dims(rho)
    rho_b = partial_trace(rho.op, [1])
    sig = HermitianOperator(np.kron(np.eye(da), rho_b.matrix), rho.dims)
    return -d_max_sdp(rho, sig)


def cond_hypothesis_entropy_many(eps: float, mats: np.ndarray, da: int,
                                 db: int):
    """Hypothesis-testing conditional entropy S_H(A|B) at error eps for a
    stack of states (N, dab, dab).

    Returns (values, ok) where ok flags the instances that certified.
    eps = 0 is the closed form log2 lambda_max(tr_A Pi_rho), Pi_rho the
    projector onto the support of rho, and every instance is ok. For
    eps > 0 the inner test minimization is dualized, leaving one joint
    maximization over (sigma, mu, Z):  max mu(1-eps) - tr Z  with
    mu rho <= 1 (x) sigma + Z; the entropy is log2 of the optimum. rho
    enters the constraint matrices only in the 1x1 mu block, which is
    passed per instance, so the states are solved as SDP stacks of up to
    SUBSTACK on data built once.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    mats = hermitian_part(np.asarray(mats, dtype=complex))
    if eps == 0:
        w, v = np.linalg.eigh(mats)
        proj = hermitian_part((v * (w > TOL.support)[:, None])
                              @ v.conj().swapaxes(-1, -2))
        red = np.einsum("nakal->nkl", proj.reshape(-1, da, db, da, db))
        vals = np.log2(np.clip(np.linalg.eigvalsh(red)[:, -1], 1e-300, None))
        return vals, np.ones(len(mats), dtype=bool)
    dab = da * db
    basis = hermitian_basis(dab)
    # blocks: sigma (db), mu (1), Z (dab), Y = 1 (x) sigma + Z - mu rho (dab)
    n = db + 1 + 2 * dab
    m = dab * dab + 1
    a = np.zeros((m, n, n), dtype=complex)
    b = np.zeros(m)
    z0 = db + 1
    y0 = db + 1 + dab
    for k, ek in enumerate(basis):
        a[k, :db, :db] = -np.einsum("ikil->kl", ek.reshape(da, db, da, db))
        a[k, z0:y0, z0:y0] = -ek
        a[k, y0:, y0:] = ek
    a[m - 1, :db, :db] = np.eye(db)
    b[m - 1] = 1.0
    c = np.zeros((n, n), dtype=complex)
    c[db, db] = 1.0 - eps
    c[z0:y0, z0:y0] = -np.eye(dab)
    # the mu block of constraint k is tr(E_k rho)
    mu_col = np.zeros((len(mats), m, 1, 1), dtype=complex)
    mu_col[:, :m - 1, 0, 0] = np.einsum("kij,nji->nk", basis, mats).real
    vals, ok = [], []
    for lo in range(0, len(mats), SUBSTACK):
        res = sdp.solve_stack(c, a, b, "max", (db, 1, dab, dab),
                              instance_blocks={1: mu_col[lo:lo + SUBSTACK]})
        vals.extend(math.log2(max(float(v), 1e-300))
                    for v in res["primal_value"])
        ok.append(res["ok"])
    return np.array(vals), np.concatenate(ok)


def cond_hypothesis_entropy(eps: float, rho: DensityOperator) -> float:
    """S_H(A|B) of one state, the one-instance
    `cond_hypothesis_entropy_many`; raises SdpFailure unless it certified."""
    vals, ok = cond_hypothesis_entropy_many(eps, rho.matrix[None],
                                            *_split_dims(rho))
    if not ok[0]:
        raise sdp.SdpFailure("conditional hypothesis SDP did not certify")
    return float(vals[0])


# ---------------------------------------------------------------------------
# smoothing (certified one-sided bounds)


def _in_ball(centers: np.ndarray, cands: np.ndarray, eps: float) -> np.ndarray:
    """Membership mask of candidates (N, K, d, d) in the eps-balls around
    centers (N, d, d): PSD within TOL.psd, trace at most 1 + TOL.trace,
    and within purified distance eps (generalized fidelity) of the
    center."""
    inside = (np.linalg.eigvalsh(cands)[..., 0] >= -TOL.psd) \
        & (np.trace(cands, axis1=-2, axis2=-1).real <= 1 + TOL.trace)
    # rejected candidates may be non-PSD: score zero matrices in their place
    scored = np.where(inside[..., None, None], cands, 0)
    fid = fidelity_many(centers[:, None], scored, generalized=True)
    return inside & (np.sqrt(np.maximum(1.0 - fid, 0.0)) <= eps + 1e-12)


def _smooth_candidates(mats: np.ndarray, da: int, db: int, eps: float):
    """Smoothing candidates of a stack of Hermitian states (N, d, d).

    Returns (stack, mask): the stack is (N, 1 + 3 * len(SMOOTH_GRID), d, d)
    with each state in column 0 and its subnormalized candidates after
    it, and the mask keeps each center and the candidates inside its
    eps-ball. At eps = 0 the stack holds the centers alone, (N, 1, d, d).
    """
    if eps == 0:
        return mats[:, None], np.ones((len(mats), 1), dtype=bool)
    rho_b = hermitian_part(np.einsum("nakal->nkl",
                                     mats.reshape(-1, da, db, da, db)))
    w, v = np.linalg.eigh(mats)
    top = v[:, :, -1, None] * v[:, None, :, -1].conj()
    # per state: pure trace scaling, mixing towards pi_A (x) rho_B, and
    # trimming the top eigenvector
    directions = np.stack([
        np.zeros_like(mats),
        np.einsum("ij,nkl->nikjl", np.eye(da) / da, rho_b).reshape(mats.shape),
        mats - w[:, -1, None, None] * top,
    ], axis=1)
    t = np.asarray(SMOOTH_GRID)[:, None, None, None]
    cands = hermitian_part((1 - t) * mats[:, None, None] + t * directions[:, None]) \
        .reshape(len(mats), -1, da * db, da * db)
    # the ball check takes several times its input's memory in temporaries:
    # check a few states at a time
    inside = np.concatenate([_in_ball(mats[i:i + SUBSTACK],
                                      cands[i:i + SUBSTACK], eps)
                             for i in range(0, len(mats), SUBSTACK)])
    stack = np.concatenate([mats[:, None], cands], axis=1)
    mask = np.concatenate([np.ones((len(mats), 1), dtype=bool), inside], axis=1)
    return stack, mask


def smooth_min_entropy_lower_bound_many(eps: float, mats: np.ndarray, da: int,
                                        db: int, variant: str = "up") -> np.ndarray:
    """Certified lower bounds on the eps-smoothed conditional min-entropy
    of a stack of states (N, dab, dab).

    Every candidate evaluated lies inside its state's smoothing ball
    (checked with the generalized fidelity), so the maximum over a
    state's candidates never exceeds its true smoothed value; at eps = 0
    the only candidate is the state and the bound is the unsmoothed
    value. The down variant smooths the conditioning marginal along with
    the state and is closed form. The up variant solves all candidates of
    all states in one SDP stack: each state itself must certify (else
    SdpFailure), other candidates that do not are skipped.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if variant not in ("up", "down"):
        raise ValueError("variant must be 'up' or 'down'")
    mats = hermitian_part(np.asarray(mats, dtype=complex))
    stack, mask = _smooth_candidates(mats, da, db, eps)
    best = np.full(mask.shape, -np.inf)
    if variant == "down":
        best[mask] = cond_min_entropy_down_many(stack[mask], da, db)
        return best.max(axis=1)
    vals, ok = cond_min_entropy_up_many(stack[mask], da, db)
    certified = np.zeros_like(mask)
    certified[mask] = ok
    if not certified[:, 0].all():
        raise sdp.SdpFailure("conditional min-entropy SDP did not certify")
    best[certified] = vals[ok]
    return best.max(axis=1)


def smooth_min_entropy_lower_bound(eps: float, rho: DensityOperator,
                                   variant: str = "up") -> float:
    """Certified lower bound on the eps-smoothed conditional min-entropy
    of one state, the one-instance `smooth_min_entropy_lower_bound_many`."""
    return float(smooth_min_entropy_lower_bound_many(
        eps, rho.matrix[None], *_split_dims(rho), variant)[0])


# ---------------------------------------------------------------------------
# fidelity maximization against uniform-conditioned products


def _fidelity_to_uniform(sqrt_rho: np.ndarray, sigma: np.ndarray,
                         da: int) -> float:
    half = np.kron(np.eye(da), psd_sqrt(sigma))
    sv = np.linalg.svd(sqrt_rho @ half, compute_uv=False)
    return float(sv.sum()) ** 2


def max_fidelity_uniform(rho: DensityOperator) -> float:
    """sup over states sigma_B of F(rho_AB, 1_A (x) sigma_B).

    Equals 2^(S_1/2-up(A|B)); the workhorse behind the duality checks
    and the environment-decoupling dual. Pure states admit the closed
    form lambda_max(tr_A rho). Mixed states go through the fidelity SDP
    (Watrous) restricted to the support of rho = K K^dag:

        sqrt F = max Re tr X  s.t.  [[1, X], [X^dag, K^dag (1 (x) sigma) K]] >= 0,
                                    sigma >= 0,  tr sigma = 1.

    The returned value is the closed-form fidelity at the SDP's sigma
    (clipped to PSD and normalized), so it is attained and can never
    exceed the true supremum. Raises SdpFailure unless the SDP is optimal.
    """
    da, db = _split_dims(rho)
    w, v = np.linalg.eigh(rho.matrix)
    if w[-1] > rho.trace() - 1e-12:  # pure: F(psi, 1 (x) s) = <psi|1 (x) s|psi>
        red = np.einsum("ikil->kl", rho.matrix.reshape(da, db, da, db))
        return float(np.linalg.eigvalsh(red).max())
    keep = w > TOL.support
    r = int(keep.sum())
    k3 = (v[:, keep] * np.sqrt(w[keep])).reshape(da, db, r)
    basis = hermitian_basis(r)
    # blocks: sigma (db), Z = [[P, X], [X^dag, Q]] (2r); P = 1 and
    # Q = K^dag (1 (x) sigma) K, i.e. tr(E Q) = tr(tr_A(K E K^dag) sigma)
    n = db + 2 * r
    p_, q_ = slice(db, db + r), slice(db + r, n)
    a = np.zeros((2 * r * r + 1, n, n), dtype=complex)
    b = np.zeros(2 * r * r + 1)
    a[:r * r, p_, p_] = basis
    b[:r * r] = np.einsum("kii->k", basis).real
    a[r * r:-1, q_, q_] = basis
    a[r * r:-1, :db, :db] = -np.einsum("aei,kij,afj->kef", k3, basis, k3.conj())
    a[-1, :db, :db] = np.eye(db)
    b[-1] = 1.0
    c = np.zeros((n, n), dtype=complex)
    c[p_, q_] = c[q_, p_] = np.eye(r) / 2
    res = sdp.solve_stack(c, a, b, "max", (db, 2 * r))
    if not res["ok"][0]:
        raise sdp.SdpFailure(f"fidelity SDP status {res['status_str'][0]}")
    ws, vs = np.linalg.eigh(hermitian_part(res["x_complex"][0][0]))
    ws = np.clip(ws, 0.0, None)
    sigma = (vs * (ws / ws.sum())) @ vs.conj().T
    return _fidelity_to_uniform(psd_sqrt(rho.matrix), sigma, da)
