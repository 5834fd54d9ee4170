# src/minent/dynamical.py
"""Min-entropy of a quantum channel and its dual characterizations.

The closed form comes from the Choi spectrum; independent routes
(conditional-entropy SDP on the Choi state, infimum scans over inputs,
singlet-fidelity and environment-decoupling duals) exist so that every
number can be cross-checked. Scans return certified relations only:
sampled infima upper-bound the true infimum, sampled suprema
lower-bound the true supremum. The scan takes the value of the input
psi*, which attains the closed form, from the singlet dual's checked
pair, so it meets the closed form to roundoff. The two
duals solve no SDP and draw no sample: each is evaluated at its explicit
optimizers and meets the closed form to roundoff, and the singlet dual
checks its primal and dual certificates before it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import entropies, linalg, _sampling
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
    return -math.log2(n.in_dim * lam) + 0.0  # + 0.0 turns -0.0 into 0.0


def channel_min_entropy_sdp(n: QuantumChannel) -> float:
    """Same quantity via the D_max SDP on the Choi state (A conditioned
    on the reference R), an independent code path."""
    choi = choi_matrix(n)  # dims (R, A)
    rho = DensityOperator(permute_systems(choi, (1, 0)).matrix,
                          (n.out_dim, n.in_dim))
    return entropies.cond_min_entropy_down_sdp(rho)


def _structured_inputs(n: QuantumChannel) -> np.ndarray:
    """Deterministic scan inputs: the maximally entangled Phi and the
    computational products."""
    dr = n.in_dim
    phi = np.zeros(dr * dr, dtype=complex)
    phi[:: dr + 1] = 1.0 / math.sqrt(dr)
    return np.concatenate([phi[None], np.eye(dr * dr, dtype=complex)])


def _pure_outputs(n: QuantumChannel, vecs: np.ndarray) -> np.ndarray:
    """N(psi) for a batch of pure inputs psi_RA', reordered (R, A) -> (A, R)
    so that the conditioning system comes second."""
    dr, da = n.in_dim, n.out_dim
    outs = apply_many(n, vecs, left=dr)
    return outs.reshape(-1, dr, da, dr, da).transpose(0, 2, 1, 4, 3) \
               .reshape(-1, dr * da, dr * da)


def _pruned_scan(n: QuantumChannel, m: float, vecs: np.ndarray):
    """S_min-up(A|R) of N(psi) for the pure inputs psi_RA' in `vecs` that
    the closed form does not certify to lie at or above m.

    An input is pruned, and not solved, when its marginal rho_R has full
    rank (every eigenvalue above TOL.support) and its S_min-down is at
    least m - TOL.sdp_gap: S_min-up >= S_min-down, and for full-rank
    rho_R S_min-down equals the closed form, so the input cannot undercut
    m. Rank-deficient inputs are always solved, since S_min-down jumps
    where rho_R loses rank. The inputs not pruned are solved in one
    stack. Returns (values, ok) of the solved inputs only.
    """
    da, dr = n.out_dim, n.in_dim
    outs = _pure_outputs(n, vecs)
    mats = vecs.reshape(-1, dr, dr)
    full = np.linalg.eigvalsh(mats @ mats.conj().swapaxes(-1, -2))[:, 0] \
        > TOL.support
    down = entropies.cond_min_entropy_down_many(outs, da, dr)
    solve = ~(full & (down >= m - TOL.sdp_gap))
    if not solve.any():
        return np.zeros(0), np.zeros(0, dtype=bool)
    return entropies.cond_min_entropy_up_many(outs[solve], da, dr)


def channel_min_entropy_scan(n: QuantumChannel, n_samples: int,
                             seed: int) -> ChannelEntropyReport:
    """Infimum scan of S_min-up(A|R) over pure inputs: psi*, which attains
    the closed form and is read from the checked pair of
    `singlet_fidelity_dual`, then Phi, the computational products and
    n_samples Haar inputs, of which only those the closed form does not
    certify are solved (`_pruned_scan`).

    The scan value is the smallest of psi*'s value and the certified
    solved values, so it sits at or above the closed form (minus
    roundoff); the report carries both plus the SDP cross-check.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    m = -singlet_fidelity_dual(n) + 0.0  # + 0.0 turns -0.0 into 0.0
    gen = _sampling.stream(seed, 0xD15C)
    haar = _sampling.random_pure_vectors(gen, n.in_dim ** 2, n_samples)
    vecs = np.concatenate([_structured_inputs(n), haar])
    vals, ok = _pruned_scan(n, m, vecs)
    scan_min = float(min([m, *vals[ok]]))
    closed = channel_min_entropy(n)
    return ChannelEntropyReport(
        s_min=closed,
        sdp_value=channel_min_entropy_sdp(n),
        inf_scan_value=scan_min,
        n_scan_samples=len(vecs) + 1,  # psi* counts too
        gap_flags={"skipped_samples": int((~ok).sum()),
                   "scan_gap": scan_min - closed},
    )


def singlet_fidelity_dual(n: QuantumChannel) -> float:
    """log2 |A| F(M (x) N(psi*), Phi) at its explicit optimizers, which is
    -S_min[N] (the min/max-entropy duality of Koenig, Renner and
    Schaffner, IEEE Trans. Inf. Theory 2009, with its optimizers written
    out).

    For a top eigenpair (lambda, v) of the normalized Choi state J on
    (R, A) and rho* = tr_A |v><v|, the input psi* = vec(sqrt(rho*)), R
    first, gives omega = N(psi*) = d (sqrt(rho*) (x) 1) J (sqrt(rho*) (x) 1),
    whose S_min-up(A|R) is the closed form (the transposed purification
    vec(sqrt(rho*)^T) does not attain it in general). The
    recovery Choi operator X* = (rho*^-1/2 (x) 1)|v><v|(rho*^-1/2 (x) 1)
    + (1 - P_rho*) (x) 1_A / d_A is PSD with tr_A X* = 1_R and gives
    tr(omega X*) = d lambda; sigma* = d lambda rho* has
    sigma* (x) 1_A >= omega and tr sigma* = d lambda, so no recovery does
    better. Both certificates are checked; RuntimeError if one fails.
    """
    dr, da = n.in_dim, n.out_dim
    w, vecs = np.linalg.eigh(choi_matrix(n).matrix)
    top = vecs[:, -1].reshape(dr, da)
    rho = top @ top.conj().T
    omega = apply_many(n, psd_sqrt(rho).reshape(1, -1), left=dr)[0]
    v = (linalg.psd_inv_sqrt(rho) @ top).reshape(-1)
    x = np.outer(v, v.conj()) + np.kron(
        np.eye(dr) - linalg.support_projector(rho), np.eye(da) / da)
    sigma = np.kron(dr * w[-1] * rho, np.eye(da))  # sigma* (x) 1_A
    value = float(np.vdot(x, omega).real)
    ptr = np.einsum("iaja->ij", x.reshape(dr, da, dr, da))  # tr_A X*
    low = np.linalg.eigvalsh(np.stack([x, sigma - omega]))[:, 0].min()
    if (np.abs(ptr - np.eye(dr)).max() > TOL.trace or low < -TOL.psd
            or abs(value - np.trace(sigma).real / da) > TOL.trace):
        raise RuntimeError("singlet-fidelity certificate failed")
    return math.log2(value)


def env_decoupling_dual(n: QuantumChannel, n_samples: int, seed: int) -> float:
    """log2 of the best |A| F(V(rho), pi_A (x) sigma_E), which is -S_min[N].

    The supremum over inputs is attained at sigma* = |s><s| for a top
    eigenvector s of M = tr_A VV^dag and P* = V^dag (1 (x) sigma*) V /
    tr(.): since F(VPV^dag, X) = F(P, V^dag X V) and F(P, cP) = c for a
    normalized P, the fidelity there is the Rayleigh quotient <s|M|s> =
    lambda_max(M) = 2^(-S_min) (the min/max-entropy duality of Koenig,
    Renner and Schaffner, IEEE Trans. Inf. Theory 2009, with its
    optimizer written out). n_samples and seed are accepted and unused.
    """
    iso = stinespring_isometry(n)
    v = iso.isometry.reshape(iso.out_dim, iso.env_dim, n.in_dim)
    m = np.einsum("aei,afi->ef", v, v.conj())
    s = np.linalg.eigh(m)[1][:, -1]
    return math.log2(float((s.conj() @ m @ s).real))


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
