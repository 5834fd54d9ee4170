import json
import math

import numpy as np
import pytest

from minent import _sampling
from minent.channels import (dephasing1, dephasing2, depolarizing,
                             identity_channel, make_named_channel, povm_channel,
                             replacer, stinespring_isometry, unitary_channel)
from minent.dynamical import channel_min_entropy
from minent.entropies import (cond_hypothesis_entropy,
                              cond_hypothesis_entropy_sup)
from minent.linalg import (DensityOperator, maximally_entangled,
                           maximally_mixed, pauli)
from minent.thermo import (K_B, AdversarialBound, CostReport, WorkCost,
                           adversarial_erasure_bound, channel_costs,
                           resource_eras_cost_state, resource_prep_cost_state,
                           sum_bound_check, work_extraction_ledger)

from conftest import basis_state, random_channel, random_two_qubit_states

PI = maximally_mixed(2)
PHI = maximally_entangled(2)


def product(a, b):
    return DensityOperator(np.kron(a.matrix, b.matrix), (a.dim, b.dim))


KET00 = product(basis_state(2, 0), basis_state(2, 0))


class TestWorkCost:
    def test_joule_conversion_exact(self):
        w = WorkCost(2.5, 310.0)
        assert w.joules == 2.5 * K_B * 310.0 * math.log(2)

    def test_room_temperature_bit(self):
        w = work_extraction_ledger(1, 300.0)
        assert abs(w.joules) == pytest.approx(2.871e-21, rel=1e-3)
        assert w.extractable()

    def test_ledger_shapes(self):
        assert work_extraction_ledger(0, 300.0).bits == 0.0
        assert work_extraction_ledger(2, 300.0).bits == pytest.approx(
            2 * work_extraction_ledger(1, 300.0).bits)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            WorkCost(1.0, 0.0)
        with pytest.raises(ValueError):
            work_extraction_ledger(-1, 300.0)


class TestStateCosts:
    def test_pure_product_free(self):
        assert resource_prep_cost_state(KET00, 0, 300).bits \
            == pytest.approx(0.0, abs=1e-9)
        assert resource_eras_cost_state(KET00, 0, 300).bits \
            == pytest.approx(0.0, abs=1e-12)

    def test_entangled_costs(self):
        assert resource_prep_cost_state(PHI, 0, 300).bits == pytest.approx(1.0)
        assert resource_eras_cost_state(PHI, 0, 300).bits == pytest.approx(-1.0)

    def test_free_state_extracts(self):
        sig = DensityOperator(np.array([[0.65, 0.1], [0.1, 0.35]]))
        rho = product(PI, sig)
        assert resource_prep_cost_state(rho, 0, 300).bits == pytest.approx(-1.0)
        assert resource_eras_cost_state(rho, 0, 300).bits == pytest.approx(1.0)

    def test_mu_flags(self):
        w = resource_prep_cost_state(PHI, 0.1, 300)
        assert w.certification == "certified-upper"
        assert w.bits <= 1.0 + 1e-9  # smoothing can only cheapen preparation
        with pytest.raises(ValueError):
            resource_prep_cost_state(PHI, 1.0, 300)


class TestSumBound:
    def test_entangled_zero_sum(self):
        rep = sum_bound_check(PHI, 0.0)
        assert rep.passed
        assert rep.sum_bits == pytest.approx(0.0, abs=1e-9)

    def test_pure_product(self):
        rep = sum_bound_check(KET00, 0.0)
        assert rep.passed and rep.sum_bits == pytest.approx(0.0, abs=1e-9)

    def test_random_audit(self):
        for rho in random_two_qubit_states(91, 40):
            assert sum_bound_check(rho, 0.0).passed

    def test_positive_mu(self):
        rep = sum_bound_check(PHI, 0.25)
        assert rep.lower_bound_bits == pytest.approx(
            math.log2(1 - 0.25 / (1 - 0.0625)) - 2)
        assert rep.passed and not rep.vacuous

    def test_vacuous_regime(self):
        golden = (math.sqrt(5) - 1) / 2
        rep = sum_bound_check(PHI, golden + 0.01)
        assert rep.vacuous and rep.passed


class TestChannelCosts:
    def test_identity(self):
        rep = channel_costs(identity_channel(2), 0.0, 300.0, 24, 5)
        assert rep.prep_cost.bits == pytest.approx(1.0, abs=1e-9)
        assert rep.eras_cost.bits == pytest.approx(1.0, abs=1e-9)

    def test_uniform_replacer(self):
        rep = channel_costs(replacer(PI), 0.0, 300.0, 24, 5)
        assert rep.prep_cost.bits == pytest.approx(-1.0, abs=1e-9)
        assert rep.eras_cost.bits == pytest.approx(-1.0, abs=1e-9)

    def test_unitary_matches_identity(self):
        rep = channel_costs(unitary_channel(pauli("y")), 0.0, 300.0, 24, 5)
        assert rep.prep_cost.bits == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p,expect", [(0.5, 0.0), (0.75, -1.0),
                                          (0.1, math.log2(1.8))])
    def test_depolarizing_closed_form(self, p, expect):
        rep = channel_costs(depolarizing(p), 0.0, 300.0, 32, 5)
        assert rep.prep_cost.bits == pytest.approx(expect, abs=1e-7)
        assert rep.eras_cost.bits == pytest.approx(expect, abs=1e-7)

    def test_zero_error_identity_never_exceeded(self):
        for fam in ("depolarizing", "dephasing1", "dephasing2"):
            ch = make_named_channel(fam, p=0.35)
            rep = channel_costs(ch, 0.0, 300.0, 48, 5)
            target = -channel_min_entropy(ch)
            assert rep.prep_cost.bits <= target + 1e-6
            assert rep.eras_cost.bits <= target + 1e-6

    def test_positive_mu_certified(self):
        rep = channel_costs(depolarizing(0.3), 0.08, 300.0, 12, 5)
        assert rep.certification == "certified-upper"
        # the certified cost ceilings are asserted inside channel_costs
        assert rep.eras_cost.bits <= -rep.s_min_channel + math.log2(0.92) + 1e-6

    def test_uncertified_erasure_sdp_raises(self, monkeypatch):
        # the mu > 0 erasure side is one SDP with no sampled fallback
        from minent import sdp

        real = sdp.solve_stack

        def stalled(*args, **kwargs):
            res = real(*args, **kwargs)
            res["ok"][:] = False
            return res

        monkeypatch.setattr(sdp, "solve_stack", stalled)
        with pytest.raises(sdp.SdpFailure, match="erasure"):
            channel_costs(depolarizing(0.3), 0.08, 300.0, 12, 5)

    def test_oversize_erasure_refused_before_preparation(self, monkeypatch):
        # the mu > 0 erasure SDP, and with it its size check, comes before
        # the preparation scan, so an oversized channel never reaches it
        from minent import entropies

        def unreachable(*args, **kwargs):
            raise AssertionError("preparation scan ran")

        monkeypatch.setattr(entropies, "smooth_min_entropy_lower_bound_many",
                            unreachable)
        ch = make_named_channel("replacer", dims=6)
        with pytest.raises(ValueError, match="exceeds 64"):
            channel_costs(ch, 0.1, 300.0, 64, 42)

    def test_positive_mu_names_first_optimal_input(self):
        # the maximally entangled input attains the preparation optimum
        # within 1e-9 at mu > 0 as at mu = 0, and comes first; the erasure
        # SDP's optimal input is the maximally mixed one
        rep = channel_costs(depolarizing(0.5), 0.06, 300.0, 64, 42)
        assert rep.attained_inputs["prep"] == "maximally-entangled reference input"
        assert rep.attained_inputs["eras"] == "SDP-optimal input"
        assert np.abs(rep.attained_inputs["eras_state"] - np.eye(2) / 2).max() < 1e-6
        assert rep.attained_inputs["skipped_samples"] == 0

    def test_zero_mu_names_sampled_input(self):
        rep = channel_costs(depolarizing(0.5), 0.0, 300.0, 8, 5)
        assert rep.attained_inputs["eras"] == "maximally-mixed input"
        assert np.array_equal(rep.attained_inputs["eras_state"], np.eye(2) / 2)

    def test_json_schema(self):
        rep = channel_costs(identity_channel(2), 0.0, 300.0, 8, 5)
        payload = rep.to_json()
        assert set(payload) == {"mu", "temperature_kelvin", "prep_bits",
                                "eras_bits", "prep_joules", "eras_joules",
                                "s_min_channel", "certification"}
        json.dumps(payload)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            CostReport(WorkCost(0.3, 300.0), WorkCost(-0.3, 300.0),
                       mu=0.0, s_min_channel=0.0)
        rep = CostReport(WorkCost(0.3, 300.0), WorkCost(-0.2, 300.0),
                         mu=0.1, s_min_channel=0.0)
        assert rep.zero_error_gap == 0.3


def sampled_erasure_inputs(channel, n, seed):
    """The mixed inputs a sampled erasure scan of `channel_costs` draws:
    the maximally mixed state, the basis states and n // 2 random states,
    drawn after the preparation side's n pure states."""
    gen = _sampling.stream(seed, 0xC057)
    dr = channel.in_dim
    _sampling.random_pure_vectors(gen, dr * dr, n)
    eye = np.eye(dr, dtype=complex)
    return np.concatenate([eye[None] / dr, np.einsum("ki,kj->kij", eye, eye),
                           _sampling.random_density_matrices(gen, dr, n // 2)])


def trine():
    kets = [np.array([math.cos(t), math.sin(t)])
            for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return povm_channel([2 / 3 * np.outer(k, k) for k in kets])


# (channel, mu): named channels, and random ones of shapes 2->2, 2->3, 3->2
JOINT_CASES = {
    "depolarizing": (depolarizing(0.5), 0.06),
    "dephasing2": (dephasing2(0.4), 0.1),
    "replacer": (replacer(PI), 0.3),
    "trine": (trine(), 0.1),
    "random-2-2": (random_channel(1, 2, 2, 2), 0.1),
    "random-2-3": (random_channel(2, 2, 3, 2), 0.06),
    "random-3-2": (random_channel(3, 3, 2, 3), 0.3),
}


class TestJointErasureSdp:
    @pytest.mark.parametrize("name", sorted(JOINT_CASES))
    def test_between_sampled_and_ceiling(self, name):
        ch, mu = JOINT_CASES[name]
        iso = stinespring_isometry(ch)
        v, da, de = iso.isometry, ch.out_dim, iso.env_dim
        bits, rho, ok = cond_hypothesis_entropy_sup(mu, v, da, de)
        assert ok
        # at least every sampled input's value, at most the certified ceiling
        vals = [cond_hypothesis_entropy(
            mu, DensityOperator(v @ m @ v.conj().T, (da, de)))
            for m in sampled_erasure_inputs(ch, 8, 5)]
        assert bits >= max(vals) - 1e-7
        assert bits <= -channel_min_entropy(ch) + math.log2(1 - mu) + 1e-7
        # the optimal input is a state that attains the value
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-9
        again = cond_hypothesis_entropy(
            mu, DensityOperator(v @ rho @ v.conj().T, (da, de)))
        assert abs(again - bits) <= 1e-6

    def test_qutrit_replacer_beyond_sum_cap(self):
        # blocks (9, 3, 27, 27) sum to 66, but each is within the solver's
        # per-block cap; the value lies between the one-input SDP at the
        # maximally mixed input, blocks (9, 1, 27, 27), and the certified
        # ceiling, which agree here (-1.7369656 bits)
        ch = make_named_channel("replacer", dims=3)
        v = stinespring_isometry(ch).isometry
        bits, _, ok = cond_hypothesis_entropy_sup(0.1, v, 3, 9)
        assert ok
        one = cond_hypothesis_entropy(
            0.1, DensityOperator(v @ v.conj().T / 3, (3, 9)))
        ceiling = -channel_min_entropy(ch) + math.log2(0.9)
        assert bits >= one - 1e-6 and bits <= ceiling + 1e-6
        assert abs(bits - one) <= 1e-6 and abs(bits - ceiling) <= 1e-6

    def test_validation(self, monkeypatch):
        v = stinespring_isometry(depolarizing(0.5)).isometry
        with pytest.raises(ValueError, match="eps"):
            cond_hypothesis_entropy_sup(0.0, v, 2, 4)
        with pytest.raises(ValueError, match="isometry"):
            cond_hypothesis_entropy_sup(0.1, v, 2, 2)
        # refused before any data is built
        from minent import entropies

        def unreachable(d):
            raise AssertionError("SDP data built")

        monkeypatch.setattr(entropies, "hermitian_basis", unreachable)
        # blocks (36, 6, 216, 216): 216 is over the per-block cap
        v6 = stinespring_isometry(make_named_channel("replacer", dims=6)).isometry
        with pytest.raises(ValueError, match="exceeds 64"):
            cond_hypothesis_entropy_sup(0.1, v6, 6, 36)
        # blocks (16, 4, 64, 64) each fit, but 4097 constraints of
        # 16^2 + 4^2 + 2 * 64^2 entries are over the constraint-data cap
        v4 = stinespring_isometry(make_named_channel("replacer", dims=4)).isometry
        with pytest.raises(ValueError, match="exceeds"):
            cond_hypothesis_entropy_sup(0.1, v4, 4, 16)


class TestAdversarialBound:
    def test_identity_arithmetic(self):
        rep = adversarial_erasure_bound(identity_channel(2), 0.0, 4.0, 300.0)
        assert rep.bound.bits == pytest.approx(5.0)
        assert rep.probability == pytest.approx(0.5)
        assert rep.valid

    def test_replacer(self):
        rep = adversarial_erasure_bound(replacer(PI), 0.0, 4.0, 300.0)
        assert rep.bound.bits == pytest.approx(3.0)

    def test_large_delta_limit(self):
        eps = 0.001
        rep = adversarial_erasure_bound(identity_channel(2), eps, 60.0, 300.0)
        assert rep.probability == pytest.approx(1 - math.sqrt(12 * eps), abs=1e-4)

    def test_invalid_probability_flagged(self):
        rep = adversarial_erasure_bound(identity_channel(2), 0.5, 0.1, 300.0)
        assert not rep.valid
        assert rep.probability == 0.0

    def test_reconciliation_with_resource_cost(self):
        # thermodynamic bound >= resource-theoretic zero-error cost + margin
        for fam, p in (("depolarizing", 0.3), ("dephasing2", 0.6)):
            ch = make_named_channel(fam, p=p)
            eras = channel_costs(ch, 0.0, 300.0, 16, 5).eras_cost.bits
            adv = adversarial_erasure_bound(ch, 0.01, 2.0, 300.0)
            assert adv.bound.bits >= eras - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            adversarial_erasure_bound(identity_channel(2), -0.1, 1.0, 300.0)
        with pytest.raises(ValueError):
            adversarial_erasure_bound(identity_channel(2), 0.1, 0.0, 300.0)
