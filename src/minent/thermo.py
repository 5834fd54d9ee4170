# src/minent/thermo.py
"""Thermodynamic and resource-theoretic erasure/preparation costs.

Costs are tracked in bits of work (multiples of k_B T ln 2) and convert
to joules only at the edge. Channel-level costs are suprema over inputs.
The preparation cost is read from the smoothed channel min-entropy:
-S_min of the channel at mu = 0, which the maximally entangled input
attains, and at mu > 0 the certified ceiling -S_min[N_t] of the channel
mixed with the uniformizing one, which no input exceeds. The
zero-error erasure cost is the closed form at the maximally mixed input
alone: every full-rank input gives the Stinespring output the same
support, hence the same S_H^0(A|E), and no rank-deficient input exceeds
it. At mu > 0 the erasure supremum is one SDP over all inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamical, entropies, sdp
from .channels import QuantumChannel, stinespring_isometry
from .linalg import DensityOperator

__all__ = [
    "K_B",
    "WorkCost",
    "CostReport",
    "SumBoundReport",
    "AdversarialBound",
    "resource_prep_cost_state",
    "resource_eras_cost_state",
    "sum_bound_check",
    "channel_costs",
    "adversarial_erasure_bound",
    "work_extraction_ledger",
]

K_B = 1.380649e-23  # J/K
LN2 = math.log(2.0)


@dataclass(frozen=True)
class WorkCost:
    """Work in bits at a bath temperature; negative means extractable."""

    bits: float
    temperature_kelvin: float
    certification: str = "exact"

    def __post_init__(self):
        if not 0 < self.temperature_kelvin < math.inf:  # NaN fails too
            raise ValueError("temperature must be finite and positive")

    @property
    def joules(self) -> float:
        return self.bits * K_B * self.temperature_kelvin * LN2

    def extractable(self) -> bool:
        return self.bits < 0


@dataclass(frozen=True)
class CostReport:
    prep_cost: WorkCost
    eras_cost: WorkCost
    mu: float
    s_min_channel: float
    attained_inputs: dict = field(default_factory=dict)
    certification: str = "exact"

    def __post_init__(self):
        if self.mu == 0 and self.zero_error_gap > 1e-6:
            raise ValueError("zero-error costs must equal -S_min "
                             f"(gap {self.zero_error_gap:.3e})")

    @property
    def zero_error_gap(self) -> float:
        """Largest distance of either cost from -S_min of the channel;
        both costs meet -S_min at mu = 0."""
        return max(abs(self.prep_cost.bits + self.s_min_channel),
                   abs(self.eras_cost.bits + self.s_min_channel))

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "temperature_kelvin": self.prep_cost.temperature_kelvin,
            "prep_bits": self.prep_cost.bits,
            "eras_bits": self.eras_cost.bits,
            "prep_joules": self.prep_cost.joules,
            "eras_joules": self.eras_cost.joules,
            "s_min_channel": self.s_min_channel,
            "certification": self.certification,
        }


@dataclass(frozen=True)
class SumBoundReport:
    sum_bits: float
    lower_bound_bits: float
    passed: bool
    vacuous: bool = False


@dataclass(frozen=True)
class AdversarialBound:
    bound: WorkCost
    probability: float
    valid: bool


# ---------------------------------------------------------------------------
# state-level costs


def resource_prep_cost_state(rho: DensityOperator, mu: float,
                             t_kelvin: float) -> WorkCost:
    """Preparation cost -S_min-down(A|B) in bits; exact at mu = 0 and a
    certified upper bound (from one-sided smoothing) for mu > 0."""
    if not 0 <= mu < 1:
        raise ValueError("mu must lie in [0, 1)")
    bound = entropies.smooth_min_entropy_lower_bound(mu, rho, "down")
    return WorkCost(-bound, t_kelvin,
                    certification="exact" if mu == 0 else "certified-upper")


def resource_eras_cost_state(rho: DensityOperator, mu: float,
                             t_kelvin: float) -> WorkCost:
    """Erasure cost S_H(A|B) in bits (closed form at mu = 0, SDP else)."""
    if not 0 <= mu < 1:
        raise ValueError("mu must lie in [0, 1)")
    return WorkCost(entropies.cond_hypothesis_entropy(mu, rho), t_kelvin)


def sum_bound_check(rho: DensityOperator, mu: float) -> SumBoundReport:
    """Lower bound on preparation + erasure cost of one state.

    Zero at mu = 0; for mu > 0 the bound log2(1 - mu/(1-mu^2)) - 2 is
    vacuous once the argument turns nonpositive (mu at or above the
    golden-ratio conjugate).
    """
    if not 0 <= mu < 1:
        raise ValueError("mu must lie in [0, 1)")
    total = resource_prep_cost_state(rho, mu, 300.0).bits \
        + resource_eras_cost_state(rho, mu, 300.0).bits
    if mu == 0:
        return SumBoundReport(total, 0.0, bool(total >= -1e-9))
    arg = 1.0 - mu / (1.0 - mu * mu)
    if arg <= 0:
        return SumBoundReport(total, -math.inf, True, vacuous=True)
    lb = math.log2(arg) - 2.0
    return SumBoundReport(total, lb, bool(total >= lb - 1e-9))


# ---------------------------------------------------------------------------
# channel-level costs


def channel_costs(channel: QuantumChannel, mu: float, t_kelvin: float,
                  n_samples: int = 64, seed: int = 42) -> CostReport:
    """Preparation and adversarial erasure costs of one channel use.

    Preparation is -S^mu_min of the channel as the smoothed bound
    `dynamical.smooth_channel_min_entropy_lower_bound` computes it. At
    mu = 0 that is -S_min exactly, attained by the maximally entangled
    input. At mu > 0 it is `certified-upper`, and the report's
    certification carries that label: mix N with the uniformizing
    channel at weight t, sqrt(t) <= mu. Then for every pure psi_RA'
      S^mu_down(A|R) of N(psi) >= S_down(A|R) of N_t(psi), since N_t(psi)
        lies in the mu-ball of N(psi);
      S_down(A|R) of N_t(psi) >= S_min[N_t], since conjugating by
        rho_R^(-1/2) compresses d J_t, and a compression cannot raise
        lambda_max.
    So no input's preparation cost exceeds -S_min[N_t] at any admissible
    t, and the bound takes the best of them.

    Erasure is the supremum of S_H(A|E) over inputs to the isometric
    extension: at mu = 0 the closed form at the maximally mixed input,
    which attains it, where both sides meet -S_min exactly; at mu > 0
    one SDP over all inputs (`entropies.cond_hypothesis_entropy_sup`),
    exact within its gap, which raises SdpFailure unless it is optimal.
    attained_inputs names what attains each side, and eras_state holds
    the erasure input's density matrix.

    n_samples and seed are accepted and unused: nothing is drawn. Two
    benchmark callers still pass them, `s_costs` in perfbench/workloads.py
    (as keywords here) and `q_costs` (as `costs --seed`).
    """
    if not 0 <= mu < 1:
        raise ValueError("mu must lie in [0, 1)")
    dr, da = channel.in_dim, channel.out_dim
    s_min = dynamical.channel_min_entropy(channel)
    iso = stinespring_isometry(channel)
    v = iso.isometry
    de = iso.env_dim
    # erasure: sup over mixed rho_A' of S_H(A|E) on the Stinespring output
    if mu > 0:
        eras_bits, eras_state, ok = entropies.cond_hypothesis_entropy_sup(
            mu, v, da, de)
        if not ok:
            raise sdp.SdpFailure("erasure-cost SDP did not certify")
        eras_label = "SDP-optimal input"
    else:
        # every full-rank input gives V rho V^dag the support range(V), so
        # they all share S_H^0(A|E), and no rank-deficient input exceeds it
        eras_state = np.eye(dr, dtype=complex) / dr
        eras_bits = entropies.cond_hypothesis_entropy(
            0.0, DensityOperator(v @ eras_state @ v.conj().T, (da, de)))
        eras_label = "maximally-mixed input"
    eras_ceiling = -s_min + math.log2(1 - mu)
    if eras_bits > eras_ceiling + 1e-6:
        raise RuntimeError("erasure cost exceeded its certified ceiling")

    # preparation: sup over pure psi_RA' of -S^mu_down(A|R), bounded above
    # by the smoothed channel ceiling (+ 0.0 turns -0.0 into 0.0)
    prep_bits = -dynamical.smooth_channel_min_entropy_lower_bound(mu, channel) + 0.0
    if mu == 0:
        prep_cert, prep_label = "exact", "maximally-entangled reference input"
    else:
        prep_cert, prep_label = "certified-upper", "smoothed-channel ceiling"

    return CostReport(
        prep_cost=WorkCost(prep_bits, t_kelvin, certification=prep_cert),
        eras_cost=WorkCost(eras_bits, t_kelvin),
        mu=mu,
        s_min_channel=s_min,
        attained_inputs={
            "prep": prep_label,
            "eras": eras_label,
            "eras_state": eras_state,
            # each solve certifies or raises, so nothing is skipped;
            # perfbench/workloads.py reads this count
            "skipped_samples": 0,
        },
        certification=prep_cert,
    )


def adversarial_erasure_bound(channel: QuantumChannel, eps: float, delta: float,
                              t_kelvin: float) -> AdversarialBound:
    """Arithmetic of the high-probability erasure-cost bound.

    bound = (-S^eps_min + Delta) k_B T ln2 holding with probability
    1 - sqrt(2^(-Delta/2) + 12 eps); the probability is clamped to [0,1]
    and flagged invalid when the raw expression is negative.
    """
    if not (eps >= 0 and 0 < delta < math.inf):
        raise ValueError("need eps >= 0 and a finite delta > 0")
    smin_eps = dynamical.smooth_channel_min_entropy_lower_bound(eps, channel)
    bits = -smin_eps + delta
    raw = 1.0 - math.sqrt(2.0 ** (-delta / 2.0) + 12.0 * eps)
    return AdversarialBound(
        bound=WorkCost(bits, t_kelvin, certification="certified-upper"),
        probability=float(min(max(raw, 0.0), 1.0)),
        valid=bool(raw >= 0.0))


def work_extraction_ledger(d_qubits: int, t_kelvin: float) -> WorkCost:
    """Work extractable from turning d pure qubits maximally mixed:
    d k_B T ln2, so -d bits (erasure pays the same back)."""
    if d_qubits < 0:
        raise ValueError("d_qubits must be nonnegative")
    return WorkCost(-float(d_qubits), t_kelvin)
