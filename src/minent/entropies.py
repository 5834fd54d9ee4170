# src/minent/entropies.py
"""One-shot entropic quantities of states, in bits (log base 2).

Relative entropy families (max, Petz-Renyi, sandwiched Renyi, hypothesis
testing), the conditional min-entropies they induce, and certified
one-sided bounds for their smoothed versions. Anything defined through
an optimization is computed by the interior-point solver in `sdp`,
but for the hypothesis-testing relative entropy, whose dual has one
variable; closed forms are used where the optimization collapses (and
serve as independent cross-checks of the solver).
"""

from __future__ import annotations

import math

import numpy as np

from . import sdp
from .linalg import (TOL, DensityOperator, HermitianOperator, _eig_apply,
                     fidelity_many, hermitian_basis, hermitian_part,
                     partial_trace, psd_inv_sqrt, support_projector)

__all__ = [
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
    "cond_hypothesis_entropy_sup",
    "smooth_min_entropy_lower_bound",
]

# mixing weights tried by the smoothing line search; a fixed grid keeps
# the certified bound monotone in the smoothing parameter
SMOOTH_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 0.01, 0.02, 0.04, 0.08,
               0.12, 0.2, 0.3, 0.45, 0.6, 0.8, 0.95)

# weight of rho outside the support of sigma above which D_max is +inf
SUPPORT_LEAK = 1e-10


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
    """Max-relative entropy by SDP, an independent code path from d_max
    used for dual-path agreement audits.

    The dual form of min lambda s.t. lambda*sigma >= rho (Koenig, Renner
    and Schaffner, IEEE Trans. Inf. Theory 2009), with one constraint:

        max tr(rho X)  s.t.  tr(sigma X) = 1,  X >= 0.

    Reads the lambda (dual) side, which bounds D_max from above. Returns
    +inf when rho leaves the support of sigma, checked before solving as
    in d_max; raises SdpFailure, naming the status, unless the SDP
    certified.
    """
    sig = sigma.matrix
    if _support_violation(rho.matrix, sig):
        return math.inf
    res = sdp.solve_stack([rho.matrix], [sig[None]], [1.0], "max")
    if not res["ok"][0]:
        raise sdp.SdpFailure(f"d_max SDP ended with status {res['status_str'][0]}")
    return math.log2(max(float(res["dual_value"][0]), 1e-300))


def _matrix_power_psd(m: np.ndarray, power: float) -> np.ndarray:
    def f(w):
        w = np.clip(w, 0.0, None)
        if power < 0:
            return np.where(w > TOL.support, w, 1.0) ** power * (w > TOL.support)
        return w ** power

    return _eig_apply(m, f)


def petz_renyi(alpha, rho: DensityOperator, sigma: HermitianOperator) -> float:
    """Petz-Renyi relative entropy (1/(alpha-1)) log tr(rho^a sigma^(1-a))."""
    a = float(alpha)
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
    a = float(alpha)
    if a == math.inf:  # -inf falls through to the window check below
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

    def log2(w):  # on the support only
        return np.log2(np.where(w > TOL.support, w, 1.0))

    return float(np.trace(rm @ (_eig_apply(rm, log2) - _eig_apply(sm, log2))).real)


def d_hypothesis(eps: float, rho: DensityOperator, sigma: HermitianOperator) -> float:
    """Hypothesis-testing relative entropy -log2 beta at type-I error eps,
    with beta = min tr(sigma L) over tests 0 <= L <= 1, tr(rho L) >= 1 - eps.

    At eps = 0 the projector closed form -log tr(Pi_rho sigma) applies.
    For eps > 0, beta is the maximum over lambda >= 0 of the concave dual
    g(lambda) = lambda (1 - eps) - tr(lambda rho - sigma)_+, whose slope
    (1 - eps) - tr(rho Pi), Pi the projector onto the positive part of
    lambda rho - sigma, falls as lambda grows. As g(0) = 0 and, for
    tr rho = 1, g(lambda) <= tr sigma - lambda eps, the maximizer lies in
    [0, tr sigma / eps]; bisection on the sign of the slope, one eigh a
    step, narrows that to [lo, hi]. g(lo) bounds beta from below. The
    quantum Neyman-Pearson test at hi (Helstrom, Quantum Detection and
    Estimation Theory, 1976) fills the eigenvectors of hi rho - sigma in
    decreasing order until tr(rho L) = 1 - eps, and its tr(sigma L)
    bounds beta from above. Returns -log2 of that upper bound, and raises
    SdpFailure unless the two bounds agree to 1e-9 relative. Returns +inf
    when a test on the kernel of sigma alone meets the error (beta = 0),
    the kernel taken as in `support_projector`.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if eps == 0:
        return petz_renyi(0, rho, sigma)
    rm, sm = pair = np.stack([rho.matrix, sigma.matrix])
    if float(np.trace(rm @ (np.eye(rho.dim) - support_projector(sm))).real) >= 1 - eps:
        return math.inf

    def split(lam):
        # eigenvalues of lam rho - sigma in decreasing order, and the
        # weights of rho and of sigma on their eigenvectors
        w, v = np.linalg.eigh(lam * rm - sm)
        return w[::-1], np.einsum("ji,njk,ki->ni", v.conj(), pair, v).real[:, ::-1]

    lo, hi = 0.0, float(np.trace(sm).real) / eps
    while lo < (mid := (lo + hi) / 2) < hi:
        w, (r, _) = split(mid)
        lo, hi = (mid, hi) if r[w > 0].sum() < 1 - eps else (lo, mid)
    low = lo * (1 - eps) - np.maximum(split(lo)[0], 0).sum()
    _, (r, s) = split(hi)
    filled = np.cumsum(r)
    k = min(int(np.searchsorted(filled, 1 - eps)), rho.dim - 1)
    up = s[:k].sum() + (1 - eps - filled[k] + r[k]) / r[k] * s[k]
    if not abs(up - low) < 1e-9 * up:
        raise sdp.SdpFailure(f"hypothesis-testing bounds {low} and {up} disagree")
    return -math.log2(up)


# ---------------------------------------------------------------------------
# conditional entropies (A conditioned on B, state ordered A (x) B)


def _split_dims(rho: DensityOperator):
    if len(rho.dims) != 2:
        raise ValueError("conditional entropies need bipartite dims (dA, dB)")
    return rho.dims


def _cond_min_up_sides(mats: np.ndarray, da: int, db: int):
    """(low, high, ok) for a stack of states (N, dab, dab): bounds on
    S_min-up(A|B) from below and from above where ok (the SDP certified).

    Each state is one instance of the dual form of min tr(sigma_B) s.t.
    1_A (x) sigma_B >= rho_AB (Koenig, Renner and Schaffner, IEEE Trans.
    Inf. Theory 2009):

        max tr(rho X)  s.t.  tr_A X = 1_B,  X >= 0,

    with one constraint tr((1_A (x) E_k) X) = tr E_k per element E_k of
    the Hermitian basis of B. rho enters only the objective, so the stack
    shares its constraints. The X (primal) value is at most 2^-S_min, so
    high, -log2 of it, bounds S_min from above; the sigma (dual) value
    tr(sigma) is at least 2^-S_min, so low bounds it from below.
    """
    basis = hermitian_basis(db)
    res = sdp.solve_stack([hermitian_part(mats)],
                          [np.kron(np.eye(da)[None], basis)],
                          np.einsum("kii->k", basis).real, "max")
    low, high = (-np.log2(np.clip(res[k], 1e-300, None))
                 for k in ("dual_value", "primal_value"))
    return low, high, res["ok"]


def cond_min_entropy_up_many(mats: np.ndarray, da: int, db: int):
    """S_min(A|B) for a stack of states (B, dab, dab).

    Returns (values, ok) where ok flags instances whose SDP certified
    optimality; values are read on the X (primal) side of
    `_cond_min_up_sides`, which bounds S_min(A|B) from above, so a minimum
    over inputs never undercuts S_min.
    """
    _, high, ok = _cond_min_up_sides(mats, da, db)
    return high, ok


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


def _hypothesis_dual(eps: float, da: int, db: int, r: int, input_block):
    """SDP data (c, a, b) of the dual hypothesis test behind S_H(A|B) at
    error eps, with an input block P of size r:

        max (1 - eps) tr P - tr Z  s.t.  L(P) <= 1_A (x) sigma_B + Z,
                                          tr sigma = 1,  P, Z, sigma >= 0.

    Blocks sigma (db), P (r), Z (dab), Y = 1 (x) sigma + Z - L(P) (dab),
    one equality per element E_k of the orthonormal Hermitian basis of
    (A, B) and one for tr sigma. input_block(basis) gives the P block of
    those equalities, L^dag(E_k), as (dab^2, r, r): tr(E_k rho) for a
    state rho (r = 1, L(mu) = mu rho), V^dag E_k V for an isometry V
    (r = d_in, L(P) = V P V^dag). Raises ValueError, before building
    anything, when the program is larger than the solver takes.
    """
    dab = da * db
    sdp.check_size((db, r, dab, dab), dab * dab + 1)
    basis = hermitian_basis(dab)
    zero = np.zeros((1, dab, dab))
    a = [np.concatenate([-np.einsum("nikil->nkl",
                                    basis.reshape(-1, da, db, da, db)),
                         np.eye(db)[None]]),
         np.concatenate([input_block(basis), np.zeros((1, r, r))]),
         np.concatenate([-basis, zero]),
         np.concatenate([basis, zero])]
    b = np.zeros(dab * dab + 1)
    b[-1] = 1.0
    c = [np.zeros((db, db)), (1.0 - eps) * np.eye(r), -np.eye(dab),
         np.zeros((dab, dab))]
    return c, a, b


def cond_hypothesis_entropy_sup(eps: float, v: np.ndarray, da: int, db: int):
    """sup over input states rho of S_H(A|B) at error eps of V rho V^dag,
    for an isometry V (dab, d_in), as one SDP.

    The dual in `cond_hypothesis_entropy` sees the state only through
    mu rho (Wang and Renner, PRL 108, 200501 (2012)). With
    rho = V rho_in V^dag, P = mu rho_in ranges over every PSD matrix as mu
    and rho_in vary, so the supremum over inputs and the inner maximum
    merge into

        max (1 - eps) tr P - tr Z  s.t.  V P V^dag <= 1_A (x) sigma_B + Z,
                                          tr sigma = 1,  P, Z, sigma >= 0.

    Returns (bits, rho_star, ok): log2 of the optimum, the optimal input
    rho_star = P / tr P, and whether the SDP certified optimality. Raises
    ValueError when the program is larger than the solver takes.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] != da * db:
        raise ValueError("isometry must be (da * db, d_in)")
    c, a, b = _hypothesis_dual(
        eps, da, db, v.shape[1],
        lambda basis: hermitian_part(v.conj().T @ basis @ v))
    res = sdp.solve_stack(c, a, b, "max")
    p = hermitian_part(res["x_complex"][1][0])
    bits = math.log2(max(float(res["primal_value"][0]), 1e-300))
    return bits, p / max(np.trace(p).real, 1e-300), bool(res["ok"][0])


def cond_hypothesis_entropy(eps: float, rho: DensityOperator) -> float:
    """Hypothesis-testing conditional entropy S_H(A|B) of one state at
    error eps.

    eps = 0 is the closed form log2 lambda_max(tr_A Pi_rho), Pi_rho the
    projector onto the support of rho. For eps > 0 the inner test
    minimization is dualized, leaving one joint maximization over
    (sigma, mu, Z):  max mu(1-eps) - tr Z  with  mu rho <= 1 (x) sigma + Z
    (`_hypothesis_dual` with r = 1); the entropy is log2 of the optimum.
    Raises SdpFailure unless that SDP certified.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    da, db = _split_dims(rho)
    if eps == 0:
        proj = support_projector(rho.matrix)
        red = np.einsum("akal->kl", proj.reshape(da, db, da, db))
        return float(np.log2(max(np.linalg.eigvalsh(red)[-1], 1e-300)))
    c, a, b = _hypothesis_dual(
        eps, da, db, 1,
        lambda basis: np.einsum("kij,ji->k", basis, rho.matrix).real[:, None, None])
    res = sdp.solve_stack(c, a, b, "max")
    if not res["ok"][0]:
        raise sdp.SdpFailure("conditional hypothesis SDP did not certify")
    return math.log2(max(float(res["primal_value"][0]), 1e-300))


# ---------------------------------------------------------------------------
# smoothing (certified one-sided bounds)


def _in_ball(center: np.ndarray, cands: np.ndarray, eps: float) -> np.ndarray:
    """Membership mask of candidates (K, d, d) in the smoothing ball of
    radius eps around center (d, d): PSD within TOL.psd, trace at most
    1 + TOL.trace, and within purified distance eps of the center by the
    generalized fidelity, which `fidelity_many` computes for the
    candidates that pass the first two tests."""
    inside = (np.linalg.eigvalsh(cands)[:, 0] >= -TOL.psd) \
        & (np.trace(cands, axis1=-2, axis2=-1).real <= 1 + TOL.trace)
    fid = fidelity_many(center, cands[inside], generalized=True)
    inside[inside] = np.sqrt(np.maximum(1.0 - fid, 0.0)) <= eps + 1e-12
    return inside


def _smooth_candidates(m: np.ndarray, da: int, db: int, eps: float) -> np.ndarray:
    """Smoothing candidates of a Hermitian state m (d, d): a (K, d, d)
    stack holding m and then its subnormalized candidates inside its
    eps-ball (`_in_ball`), for each t of SMOOTH_GRID in turn the trace
    scaling (1 - t) m, the mixing towards pi_A (x) m_B and the trimming
    of the top eigenvector. At eps = 0 the stack is m alone."""
    if eps == 0:
        return m[None]
    rho_b = hermitian_part(np.einsum("akal->kl", m.reshape(da, db, da, db)))
    w, v = np.linalg.eigh(m)
    directions = np.stack([np.zeros_like(m), np.kron(np.eye(da) / da, rho_b),
                           m - w[-1] * np.outer(v[:, -1], v[:, -1].conj())])
    t = np.asarray(SMOOTH_GRID)[:, None, None, None]
    cands = hermitian_part((1 - t) * m + t * directions).reshape(-1, *m.shape)
    return np.concatenate([m[None], cands[_in_ball(m, cands, eps)]])


def smooth_min_entropy_lower_bound(eps: float, rho: DensityOperator,
                                   variant: str = "up") -> float:
    """Certified lower bound on the eps-smoothed conditional min-entropy
    of one state.

    Every candidate evaluated lies inside the state's smoothing ball
    (checked with the generalized fidelity), so the maximum over the
    candidates never exceeds the true smoothed value; at eps = 0 the only
    candidate is the state and the bound is the unsmoothed value. The
    down variant smooths the conditioning marginal along with the state
    and is closed form. The up variant solves all candidates in one SDP
    stack and reads each on its sigma (dual) side, the low side of
    `_cond_min_up_sides`: the state itself must certify (else
    SdpFailure), other candidates that do not are skipped.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if variant not in ("up", "down"):
        raise ValueError("variant must be 'up' or 'down'")
    da, db = _split_dims(rho)
    stack = _smooth_candidates(hermitian_part(rho.matrix), da, db, eps)
    if variant == "down":
        return float(cond_min_entropy_down_many(stack, da, db).max())
    # the sigma side, which bounds each candidate's S_min-up from below
    vals, _, ok = _cond_min_up_sides(stack, da, db)
    if not ok[0]:
        raise sdp.SdpFailure("conditional min-entropy SDP did not certify")
    return float(vals[ok].max())
