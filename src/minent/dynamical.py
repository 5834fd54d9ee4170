# src/minent/dynamical.py
"""Min-entropy of a quantum channel and its dual characterizations.

The closed form comes from the Choi spectrum; independent routes
(conditional-entropy SDP on the Choi state, infimum scans over inputs,
singlet-fidelity and environment-decoupling duals) exist so that every
number can be cross-checked. Scans return certified relations only:
sampled infima upper-bound the true infimum, sampled suprema
lower-bound the true supremum. The scans and the singlet dual include
the input psi* that attains the closed form, and the
environment-decoupling dual is evaluated at its explicit maximizer, so
each meets the closed form within solver slack or roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import entropies, _sampling
from .channels import (QuantumChannel, apply_many, choi_matrix,
                       stinespring_isometry)
from .linalg import TOL, DensityOperator, permute_systems, psd_sqrt

__all__ = [
    "ChannelEntropyReport",
    "channel_min_entropy",
    "channel_min_entropy_sdp",
    "channel_min_entropy_scan",
    "singlet_fidelity_dual",
    "env_decoupling_dual",
    "smooth_channel_min_entropy_lower_bound",
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
    """Deterministic scan inputs: the maximally entangled Phi, the input
    psi* that attains S_min, and the computational products.

    psi* = vec(sqrt(rho*)), R first, with rho* = tr_A |v><v| for a top
    eigenvector v of the normalized Choi state J on (R, A). By Sion's
    minimax over input marginals, S_min-up(A|R) of N(psi*) equals the
    closed form -log2(d lambda_max(J)); the transposed purification
    vec(sqrt(rho*)^T) does not in general.
    """
    dr = n.in_dim
    phi = np.zeros(dr * dr, dtype=complex)
    phi[:: dr + 1] = 1.0 / math.sqrt(dr)
    top = np.linalg.eigh(choi_matrix(n).matrix)[1][:, -1].reshape(dr, n.out_dim)
    psi = psd_sqrt(top @ top.conj().T).reshape(-1)
    return np.concatenate([phi[None], psi[None],
                           np.eye(dr * dr, dtype=complex)])


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


def _pruned_scan(n: QuantumChannel, structured: np.ndarray,
                 haar: np.ndarray):
    """S_min-up(A|R) over the pure inputs `structured` and those of the
    pure inputs `haar` that the closed form does not already certify.

    The structured inputs are solved first; m is their smallest
    certified value. A Haar input is pruned, and not solved, when its
    marginal rho_R has full rank (every eigenvalue above TOL.support) and
    its S_min-down is at least m - TOL.sdp_gap: S_min-up >= S_min-down,
    and for full-rank rho_R S_min-down equals the closed form, so the
    input cannot undercut m. Rank-deficient inputs are always solved,
    since S_min-down jumps where rho_R loses rank. With psi* among the
    structured inputs m is the closed form and every full-rank input is
    pruned; when no structured input certifies, every input is solved.
    Returns (values, ok) of the solved inputs only.
    """
    da, dr = n.out_dim, n.in_dim
    vals, ok = _scan_entropies(n, structured)
    m = float(vals[ok].min()) if ok.any() else math.inf
    outs = _pure_outputs(n, haar)
    mats = haar.reshape(-1, dr, dr)
    full = np.linalg.eigvalsh(mats @ mats.conj().swapaxes(-1, -2))[:, 0] \
        > TOL.support
    down = entropies.cond_min_entropy_down_many(outs, da, dr)
    solve = ~(full & (down >= m - TOL.sdp_gap))
    if solve.any():
        more_vals, more_ok = entropies.cond_min_entropy_up_many(outs[solve],
                                                                da, dr)
        vals = np.concatenate([vals, more_vals])
        ok = np.concatenate([ok, more_ok])
    return vals, ok


def channel_min_entropy_scan(n: QuantumChannel, n_samples: int,
                             seed: int) -> ChannelEntropyReport:
    """Infimum scan of S_min-up(A|R) over pure inputs: the structured
    inputs (psi*, which attains the closed form, among them) and
    n_samples Haar inputs, of which only those the closed form does not
    certify are solved (`_pruned_scan`).

    The sampled infimum always sits above the closed form (minus solver
    slack); the report carries both plus the SDP cross-check.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    gen = _sampling.stream(seed, 0xD15C)
    structured = _structured_inputs(n)
    haar = _sampling.random_pure_vectors(gen, n.in_dim ** 2, n_samples)
    vals, ok = _pruned_scan(n, structured, haar)
    if not ok.any():
        raise RuntimeError("every scan sample failed to certify")
    scan_min = float(vals[ok].min())
    closed = channel_min_entropy(n)
    return ChannelEntropyReport(
        s_min=closed,
        sdp_value=channel_min_entropy_sdp(n),
        inf_scan_value=scan_min,
        n_scan_samples=len(structured) + n_samples,
        gap_flags={"skipped_samples": int((~ok).sum()),
                   "scan_gap": scan_min - closed},
    )


def singlet_fidelity_dual(n: QuantumChannel, n_samples: int, seed: int) -> float:
    """log2 of the best sampled |A| F(M (x) N(psi), Phi).

    Per input the inner supremum over recovery channels M equals
    2^(-S_min-up(A|R)), so the estimate is the negated sampled infimum
    over the inputs of `_pruned_scan`; it can only fall below -S_min[N],
    and psi* reaches it."""
    gen = _sampling.stream(seed, 0x51D9)
    vals, ok = _pruned_scan(
        n, _structured_inputs(n),
        _sampling.random_pure_vectors(gen, n.in_dim ** 2, n_samples))
    if not ok.any():
        raise RuntimeError("every dual sample failed to certify")
    return float(-np.min(vals[ok]))


def env_decoupling_dual(n: QuantumChannel, n_samples: int, seed: int) -> float:
    """log2 of the best |A| F(V(rho), pi_A (x) sigma_E), which is -S_min[N].

    Pure inputs psi (the computational basis and n_samples Haar vectors)
    give the closed form lambda_max(tr_A V|psi><psi|V^dag). The supremum
    over mixed inputs is attained at sigma* = |s><s| for a top eigenvector
    s of M = tr_A VV^dag and P* = V^dag (1 (x) sigma*) V / tr(.): since
    F(VPV^dag, X) = F(P, V^dag X V) and F(P, cP) = c for a normalized P,
    the fidelity there is the Rayleigh quotient <s|M|s> = lambda_max(M) =
    2^(-S_min) (the min/max-entropy duality of Koenig, Renner and
    Schaffner, IEEE Trans. Inf. Theory 2009, with its optimizer written
    out). Every candidate is attained, so none exceeds -S_min[N].
    """
    gen = _sampling.stream(seed, 0xE49A)
    iso = stinespring_isometry(n)
    v = iso.isometry.reshape(iso.out_dim, iso.env_dim, n.in_dim)
    pure = np.concatenate([
        np.eye(n.in_dim, dtype=complex),
        _sampling.random_pure_vectors(gen, n.in_dim, max(n_samples, 1))])
    outs = np.einsum("aei,bi->bae", v, pure)
    lam = np.linalg.eigvalsh(np.einsum("bae,baf->bef", outs, outs.conj()))
    m = np.einsum("aei,afi->ef", v, v.conj())
    s = np.linalg.eigh(m)[1][:, -1]
    attained = float((s.conj() @ m @ s).real)
    return math.log2(max(float(lam.max()), attained))


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
