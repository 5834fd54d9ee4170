# src/minent/dynamical.py
"""Min-entropy of a quantum channel and its dual characterizations.

The closed form comes from the Choi spectrum; independent routes
(conditional-entropy SDP on the Choi state, infimum scans over inputs,
singlet-fidelity and environment-decoupling duals) exist so that every
number can be cross-checked. Scans return certified relations only:
sampled infima upper-bound the true infimum, sampled suprema
lower-bound the true supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import entropies, _sampling
from .channels import (QuantumChannel, apply_many, choi_matrix, compose,
                       diamond_distance, stinespring_isometry)
from .linalg import DensityOperator, permute_systems

__all__ = [
    "ChannelEntropyReport",
    "channel_min_entropy",
    "channel_min_entropy_sdp",
    "channel_min_entropy_scan",
    "singlet_fidelity_dual",
    "env_decoupling_dual",
    "smooth_channel_min_entropy_lower_bound",
    "continuity_check",
    "unitary_covariance_check",
]

# mixing weights toward the uniformizing channel tried when smoothing;
# shared with the state-level smoother so the channel bound can be
# cross-checked against the state-level bound candidate by candidate
SMOOTH_GRID = entropies.SMOOTH_GRID


@dataclass(frozen=True)
class ChannelEntropyReport:
    s_min: float
    sdp_value: float
    inf_scan_value: float
    n_scan_samples: int
    gap_flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if abs(self.s_min - self.sdp_value) > 1e-6:
            raise ValueError("closed form and SDP value disagree beyond 1e-6")
        if self.inf_scan_value < self.s_min - 1e-6:
            raise ValueError("scan value undercuts the certified minimum")


def channel_min_entropy(n: QuantumChannel) -> float:
    """S_min of a channel: -log2(in_dim * lambda_max(Choi state))."""
    lam = float(np.linalg.eigvalsh(choi_matrix(n).matrix).max())
    return -math.log2(n.in_dim * lam)


def channel_min_entropy_sdp(n: QuantumChannel) -> float:
    """Same quantity via the D_max SDP on the Choi state (A conditioned
    on the reference R), an independent code path."""
    choi = choi_matrix(n)  # dims (R, A)
    rho = DensityOperator(permute_systems(choi, (1, 0)).matrix,
                          (n.out_dim, n.in_dim))
    return entropies.cond_min_entropy_down_sdp(rho)


def _structured_inputs(n: QuantumChannel) -> np.ndarray:
    """Deterministic scan candidates: maximally entangled, computational
    products, and Choi-eigenvector-derived inputs when shapes allow."""
    dr = n.in_dim
    vecs = []
    phi = np.zeros(dr * dr, dtype=complex)
    phi[:: dr + 1] = 1.0 / math.sqrt(dr)
    vecs.append(phi)
    for i in range(dr):
        for j in range(dr):
            v = np.zeros(dr * dr, dtype=complex)
            v[i * dr + j] = 1.0
            vecs.append(v)
    if n.out_dim == n.in_dim:
        w, u = np.linalg.eigh(choi_matrix(n).matrix)
        for k in range(u.shape[1]):
            if w[k] > 1e-12:
                vecs.append(u[:, k] / np.linalg.norm(u[:, k]))
    return np.stack(vecs)


def _pure_outputs(n: QuantumChannel, vecs: np.ndarray) -> np.ndarray:
    """N(psi) for a batch of pure inputs psi_RA', reordered (R, A) -> (A, R)
    so that the conditioning system comes second."""
    dr, da = n.in_dim, n.out_dim
    outs = apply_many(n, vecs, left=dr)
    return outs.reshape(-1, dr, da, dr, da).transpose(0, 2, 1, 4, 3) \
               .reshape(-1, dr * da, dr * da)


def _scan_entropies(n: QuantumChannel, vecs: np.ndarray):
    """S_min-up(A|R) of N(psi) for a batch of pure inputs psi_RA'."""
    return entropies.cond_min_entropy_up_many(_pure_outputs(n, vecs),
                                              n.out_dim, n.in_dim)


def _refine_minimum(n: QuantumChannel, start: np.ndarray, budget: int = 120):
    """Derivative-free polish of the scan minimizer (simplex over the
    real parametrization of the pure input)."""
    dr = n.in_dim
    dim = dr * dr

    def objective(theta):
        v = theta[:dim] + 1j * theta[dim:]
        nrm = np.linalg.norm(v)
        if nrm < 1e-9:
            return 10.0
        vals, ok = _scan_entropies(n, (v / nrm)[None])
        return float(vals[0]) if ok[0] else 10.0

    theta0 = np.concatenate([start.real, start.imag])
    res = minimize(objective, theta0, method="Nelder-Mead",
                   options={"maxiter": budget, "fatol": 1e-10, "xatol": 1e-8})
    return float(res.fun)


def channel_min_entropy_scan(n: QuantumChannel, n_samples: int,
                             seed: int) -> ChannelEntropyReport:
    """Infimum scan of S_min-up(A|R) over pure inputs.

    The sampled infimum always sits above the closed form (minus solver
    slack); the report carries both plus the SDP cross-check.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    gen = _sampling.stream(seed, 0xD15C)
    structured = _structured_inputs(n)
    haar = _sampling.random_pure_vectors(gen, n.in_dim ** 2, n_samples)
    vecs = np.concatenate([structured, haar])
    vals, ok = _scan_entropies(n, vecs)
    skipped = int((~ok).sum())
    if not ok.any():
        raise RuntimeError("every scan sample failed to certify")
    best_idx = int(np.argmin(np.where(ok, vals, np.inf)))
    scan_min = float(vals[best_idx])
    closed = channel_min_entropy(n)
    if scan_min - closed > 1e-9:  # polish only when the scan has slack
        refined = _refine_minimum(n, vecs[best_idx])
        if refined < scan_min and refined >= closed - 1e-6:
            scan_min = refined
    sdp_value = channel_min_entropy_sdp(n)
    return ChannelEntropyReport(
        s_min=closed,
        sdp_value=sdp_value,
        inf_scan_value=scan_min,
        n_scan_samples=int(vecs.shape[0]),
        gap_flags={"skipped_samples": skipped,
                   "scan_gap": scan_min - closed},
    )


def singlet_fidelity_dual(n: QuantumChannel, n_samples: int, seed: int) -> float:
    """log2 of the best sampled |A| F(M (x) N(psi), Phi).

    Per input the inner supremum over recovery channels M equals
    2^(-S_min-up(A|R)), so the estimate is the negated sampled infimum;
    it can only fall below -S_min[N]."""
    gen = _sampling.stream(seed, 0x51D9)
    vecs = np.concatenate([_structured_inputs(n),
                           _sampling.random_pure_vectors(gen, n.in_dim ** 2,
                                                         n_samples)])
    vals, ok = _scan_entropies(n, vecs)
    if not ok.any():
        raise RuntimeError("every dual sample failed to certify")
    return float(-np.min(vals[ok]))


def env_decoupling_dual(n: QuantumChannel, n_samples: int, seed: int) -> float:
    """log2 of the best sampled |A| F(V(rho), pi_A (x) sigma_E).

    Pure inputs give the closed form lambda_max(tr_A of the pure
    Stinespring output). Mixed candidates (including the maximally mixed
    input, which is optimal for unitary and covariant channels) go
    through `entropies.max_fidelity_uniform`: a fidelity SDP over
    sigma_E whose value is reported as the fidelity attained at the
    SDP's sigma_E, so every candidate lower-bounds -S_min[N].
    """
    gen = _sampling.stream(seed, 0xE49A)
    iso = stinespring_isometry(n)
    v = iso.isometry
    da, de = iso.out_dim, iso.env_dim

    best = -math.inf
    pure = _sampling.random_pure_vectors(gen, n.in_dim, max(n_samples, 1))
    basis_vecs = np.eye(n.in_dim, dtype=complex)
    pure = np.concatenate([basis_vecs, pure])
    outs = np.einsum("xi,bi->bx", v, pure)
    mats = np.einsum("bx,by->bxy", outs, outs.conj())
    red = np.einsum("baeaf->bef", mats.reshape(-1, da, de, da, de))
    lam = np.linalg.eigvalsh(red)[:, -1]
    best = max(best, float(np.log2(np.clip(lam, 1e-300, None)).max()))

    mixed = [np.eye(n.in_dim) / n.in_dim]
    n_mixed = min(8, max(1, n_samples // 64))
    mixed.extend(_sampling.random_density_matrices(gen, n.in_dim, n_mixed))
    for rho in mixed:
        out = v @ rho @ v.conj().T
        state = DensityOperator(out, (da, de))
        fmax = entropies.max_fidelity_uniform(state)
        best = max(best, math.log2(max(fmax, 1e-300)))
    return best


def smooth_channel_min_entropy_lower_bound(eps: float, n: QuantumChannel) -> float:
    """Certified lower bound on the smoothed channel min-entropy.

    Candidates are mixtures (1-t) N + t R^pi; joint concavity of the
    fidelity puts the mixture within purified channel distance sqrt(t)
    of N, so t <= eps^2 certifies ball membership. With no admissible
    weight (eps < 1e-3, eps = 0 included) the bound is the unsmoothed
    value.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    ts = np.array([t for t in SMOOTH_GRID if math.sqrt(t) <= eps])
    choi = choi_matrix(n).matrix
    uniform = np.eye(choi.shape[0]) / choi.shape[0]
    w = ts[:, None, None]
    lams = np.linalg.eigvalsh((1 - w) * choi + w * uniform).max(axis=1)
    return max([channel_min_entropy(n)]
               + [-math.log2(n.in_dim * float(lam)) for lam in lams])


def continuity_check(n: QuantumChannel, m: QuantumChannel):
    """Lipschitz audit: |S_min[N] - S_min[M]| against the diamond bound."""
    if (n.in_dim, n.out_dim) != (m.in_dim, m.out_dim):
        raise ValueError("channels must share dimensions")
    lhs = abs(channel_min_entropy(n) - channel_min_entropy(m))
    delta = diamond_distance(n, m)
    rhs = (1.0 / math.log(2.0)) * n.out_dim * min(n.out_dim, n.in_dim) * delta
    return lhs, rhs, bool(lhs <= rhs + 1e-9)


def unitary_covariance_check(n: QuantumChannel, u1: QuantumChannel,
                             u2: QuantumChannel) -> bool:
    """S_min is unchanged by unitary pre and post processing."""
    for u in (u1, u2):
        if len(u.kraus) != 1:
            raise ValueError("pre/post processors must be unitary channels")
    combined = compose(u2, compose(n, u1))
    return bool(abs(channel_min_entropy(combined) - channel_min_entropy(n))
                <= 1e-9)
