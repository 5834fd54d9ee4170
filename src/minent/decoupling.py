# src/minent/decoupling.py
"""Haar-random decoupling experiments.

Monte Carlo verification of the decoupling inequality for states and
for processes, plus the decoupled-subsystem search that powers the
thermodynamic erasure protocol. All bounds are instantiated with exact
(epsilon = 0) entropies by default; a positive smoothing parameter only
loosens the right-hand side, so reported inequalities stay valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sampling, dynamical, entropies
from .channels import (KrausMap, QuantumChannel, _diamond_batch, apply_many,
                       choi_matrix)
from .linalg import (DensityOperator, HermitianOperator, partial_trace,
                     permute_systems)
from .thermo import WorkCost

__all__ = [
    "HaarSampler",
    "DecouplingReport",
    "SubsystemSearchResult",
    "ErasureProtocolReport",
    "decouple_states_mc",
    "decouple_channel_mc",
    "find_decoupled_subsystem",
    "erasure_protocol_work",
]


@dataclass
class HaarSampler:
    """Haar-measure unitary source backed by a counter-based PRNG."""

    dim: int
    seed: int = 42
    stream_id: int = 0

    def __post_init__(self):
        self._gen = _sampling.stream(self.seed, self.stream_id)

    def unitaries(self, count: int) -> np.ndarray:
        return _sampling.haar_unitaries(self._gen, self.dim, count)


@dataclass(frozen=True)
class DecouplingReport:
    n_samples: int
    mean_lhs: float
    std_err: float
    bound_rhs: float
    epsilon_used: float
    passed: bool
    skipped: int = 0

    def __post_init__(self):
        if self.mean_lhs < -1e-12 or self.bound_rhs < -1e-12:
            raise ValueError("decoupling report sides must be nonnegative")

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "mean_lhs": self.mean_lhs,
            "std_err": self.std_err,
            "bound_rhs": self.bound_rhs,
            "epsilon": self.epsilon_used,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SubsystemSearchResult:
    a1_dim: int
    trace_distance_to_product: float
    delta_prime: float
    guaranteed_dim: int
    # certified lower bound on the smoothed S_min(A|R) behind guaranteed_dim
    s_min_ar: float

    def __post_init__(self):
        if self.trace_distance_to_product > self.delta_prime + 1e-12:
            raise ValueError("reported split misses the target distance")


# ---------------------------------------------------------------------------
# shared bound machinery


def _cp_choi_checked(t_map: KrausMap) -> DensityOperator:
    """Scaled Choi of the post-processing map; enforces tr Gamma <= |A|."""
    gamma = choi_matrix(t_map, normalized=False)
    if gamma.trace() > t_map.in_dim * (1 + 1e-9):
        raise ValueError("post-processing map must satisfy tr(Choi) <= |A|")
    return DensityOperator(gamma.matrix / t_map.in_dim,
                           (t_map.in_dim, t_map.out_dim), subnormalized=True)


def _state_bound_terms(eps: float, phi: DensityOperator,
                       t_map: KrausMap) -> tuple[float, float]:
    dr, da = phi.dims
    phi_ar = DensityOperator(permute_systems(phi.op, (1, 0)).matrix, (da, dr))
    s_input = entropies.smooth_min_entropy_lower_bound(eps, phi_ar)
    s_map = entropies.smooth_min_entropy_lower_bound(eps, _cp_choi_checked(t_map))
    return s_input, s_map


def _rotate(us: np.ndarray, mat: np.ndarray, left: int, right: int = 1) -> np.ndarray:
    """(1 (x) U_b (x) 1) M (1 (x) U_b (x) 1)^dag for each unitary U_b of a
    stack, with identities of dims `left` and `right` around U_b."""
    d = us.shape[-1]
    m = mat.reshape(left, d, right, left, d, right)
    half = np.einsum("bak,lkrmjs->blarmjs", us, m)
    out = np.einsum("blarmjs,bcj->blarmcs", half, us.conj())
    return out.reshape(len(us), *mat.shape)


def _mc_stats(values: np.ndarray):
    mean = float(values.mean())
    if values.size > 1:
        err = float(values.std(ddof=1) / math.sqrt(values.size))
    else:
        err = 0.0
    return mean, err


def decouple_states_mc(phi: DensityOperator, t_map: KrausMap, n: int,
                       eps: float, sampler: HaarSampler) -> DecouplingReport:
    """Monte Carlo check of the state decoupling inequality.

    Averages ||T(U phi U†) - phi_R (x) Choi_B(T)||_1 over Haar unitaries
    on A and compares with 2^(-(S(A|R) + S(A|B))/2) + 12 eps.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if n < 1:
        raise ValueError("need at least one sample")
    if len(phi.dims) != 2:
        raise ValueError("state must carry dims (R, A)")
    dr, da = phi.dims
    if t_map.in_dim != da:
        raise ValueError("post-processing input must match subsystem A")
    s_input, s_map = _state_bound_terms(eps, phi, t_map)
    bound = 2.0 ** (-0.5 * (s_input + s_map)) + 12.0 * eps

    choi_t = _cp_choi_checked(t_map)
    target_b = partial_trace(choi_t.op, [1]).matrix
    phi_r = partial_trace(phi.op, [0]).matrix
    target = np.kron(phi_r, target_b)

    rotated = _rotate(sampler.unitaries(n), phi.matrix, dr)
    outs = apply_many(t_map, rotated, left=dr)
    diffs = outs - target
    lhs = np.abs(np.linalg.eigvalsh(diffs)).sum(axis=1)
    mean, err = _mc_stats(lhs)
    return DecouplingReport(
        n_samples=n, mean_lhs=mean, std_err=err, bound_rhs=float(bound),
        epsilon_used=eps, passed=bool(mean <= bound + 3 * err + 1e-9))


def decouple_channel_mc(channel: QuantumChannel, t_map: KrausMap, n: int,
                        eps: float, sampler: HaarSampler) -> DecouplingReport:
    """Monte Carlo check of the process decoupling inequality.

    Per sample the full diamond norm ||T o U o N - T o R_pi||_diamond is
    computed by SDP on the Choi of the difference; failed solves are
    skipped and counted.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if n < 1:
        raise ValueError("need at least one sample")
    da = channel.out_dim
    if t_map.in_dim != da:
        raise ValueError("post-processing input must match the channel output")
    s_channel = dynamical.smooth_channel_min_entropy_lower_bound(eps, channel)
    s_map = entropies.smooth_min_entropy_lower_bound(eps, _cp_choi_checked(t_map))
    bound = 2.0 ** (-0.5 * (s_channel + s_map)) + 12.0 * eps

    dr = channel.in_dim
    gamma_n = choi_matrix(channel, normalized=False).matrix
    # T o R_pi has Choi 1_R (x) T(pi_A)
    t_pi = apply_many(t_map, np.eye(da, dtype=complex)[None] / da)[0]
    gamma_target = np.kron(np.eye(dr), t_pi)

    rotated = _rotate(sampler.unitaries(n), gamma_n, dr)
    pushed = apply_many(t_map, rotated, left=dr)
    diffs = [pushed[i] - gamma_target for i in range(n)]
    halves, ok = _diamond_batch(diffs, dr, t_map.out_dim)
    kept = halves[ok]
    skipped = int(n - kept.size)
    if kept.size == 0:
        raise RuntimeError("every diamond-norm solve failed")
    lhs = 2.0 * kept
    mean, err = _mc_stats(lhs)
    return DecouplingReport(
        n_samples=int(kept.size), mean_lhs=mean, std_err=err,
        bound_rhs=float(bound), epsilon_used=eps,
        passed=bool(mean <= bound + 3 * err + 1e-9), skipped=skipped)


# ---------------------------------------------------------------------------
# decoupled-subsystem search and the erasure protocol


def _divisors_desc(d: int):
    return sorted((k for k in range(1, d + 1) if d % k == 0), reverse=True)


def find_decoupled_subsystem(phi: DensityOperator, delta_prime: float,
                             eps: float, sampler: HaarSampler,
                             max_tries: int = 32) -> SubsystemSearchResult:
    """Search Haar rotations on A for a split A = A1 (x) A2 with A1
    delta'-decoupled from the reference R of a pure state on (R, A, E).

    The achieved split is reported; the guaranteed dimension from the
    entropic bound, and the smoothed S_min(A|R) bound it rests on, are
    carried along for callers that want to compare.
    """
    if len(phi.dims) != 3:
        raise ValueError("state must carry dims (R, A, E)")
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if 2 * delta_prime - 12 * eps <= 0:
        raise ValueError("need delta' > 6*eps for a meaningful target")
    dr, da, de = phi.dims
    if da < 2:
        raise ValueError("subsystem A must have dimension at least 2")
    if np.linalg.eigvalsh(phi.matrix).max() < phi.trace() - 1e-9:
        raise ValueError("state must be pure")

    rho_ra = DensityOperator(partial_trace(phi.op, [0, 1]).matrix, (dr, da))
    rho_ar = DensityOperator(permute_systems(rho_ra.op, (1, 0)).matrix, (da, dr))
    s_ar = entropies.smooth_min_entropy_lower_bound(eps, rho_ar)
    guaranteed_log = 0.5 * (math.log2(da) + s_ar) \
        + math.log2(2 * delta_prime - 12 * eps)
    guaranteed = 1
    for k in _divisors_desc(da):
        if math.log2(k) <= guaranteed_log + 1e-9:
            guaranteed = k
            break

    phi_r = partial_trace(phi.op, [0]).matrix
    for d1 in _divisors_desc(da):
        if d1 == 1:
            break
        d2 = da // d1
        target = np.kron(phi_r, np.eye(d1) / d1)
        for u in sampler.unitaries(max_tries):
            big = HermitianOperator(_rotate(u[None], phi.matrix, dr, de)[0],
                                    (dr, d1, d2, de))
            red = partial_trace(big, [0, 1]).matrix
            dist = 0.5 * float(np.abs(np.linalg.eigvalsh(red - target)).sum())
            if dist <= delta_prime:
                return SubsystemSearchResult(
                    a1_dim=d1, trace_distance_to_product=dist,
                    delta_prime=delta_prime, guaranteed_dim=guaranteed,
                    s_min_ar=s_ar)
    return SubsystemSearchResult(
        a1_dim=1, trace_distance_to_product=0.0, delta_prime=delta_prime,
        guaranteed_dim=guaranteed, s_min_ar=s_ar)


@dataclass(frozen=True)
class ErasureProtocolReport:
    work: WorkCost
    entropy_bound: WorkCost
    a1_dim: int
    guaranteed_dim: int


def erasure_protocol_work(phi: DensityOperator, delta_prime: float, eps: float,
                          t_kelvin: float,
                          sampler: HaarSampler) -> ErasureProtocolReport:
    """Work ledger of the subsystem-decoupling erasure protocol.

    The protocol pays log|A| - 2 log|A1| bits after decoupling A1; the
    entropic form of the bound, log|A| - 2 gl with gl the unrounded
    guaranteed log-dimension, is reported alongside. The two are not
    ordered even when the search reaches guaranteed_dim: that dimension
    rounds 2^gl down to a divisor of |A|, so the work can exceed the
    entropic form.
    """
    _, da, _ = phi.dims
    # raises ValueError where the bound is undefined, delta' <= 6 eps
    found = find_decoupled_subsystem(phi, delta_prime, eps, sampler)
    work_bits = math.log2(da) - 2 * math.log2(found.a1_dim)
    bound_bits = -found.s_min_ar - 2 * math.log2(2 * delta_prime - 12 * eps)
    return ErasureProtocolReport(
        work=WorkCost(work_bits, t_kelvin, certification="sampled"),
        entropy_bound=WorkCost(bound_bits, t_kelvin,
                               certification="certified-upper"),
        a1_dim=found.a1_dim, guaranteed_dim=found.guaranteed_dim)
