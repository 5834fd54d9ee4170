import json
import math

import numpy as np
import pytest

from minent import _sampling, entropies
from minent.channels import (depolarizing, identity_channel,
                             partial_trace_channel, replacer,
                             stinespring_isometry, tensor_channels)
from minent.decoupling import (DecouplingReport, HaarSampler, _rotate,
                               SubsystemSearchResult, decouple_channel_mc,
                               decouple_states_mc, erasure_protocol_work,
                               find_decoupled_subsystem)
from minent.linalg import (DensityOperator, maximally_entangled,
                           maximally_mixed, pure_state, trace_norm)

PI = maximally_mixed(2)
PHI = maximally_entangled(2)
IDC = identity_channel(2)


class TestHaar:
    def test_dim_one_is_phase(self):
        u = HaarSampler(1, seed=3).unitaries(1)[0]
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_unitarity_bulk(self):
        us = HaarSampler(4, seed=3).unitaries(500)
        resid = np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(4)).max()
        assert resid < 1e-10

    def test_left_invariance_statistics(self):
        # the twirl of any state lands on the maximally mixed state
        us = HaarSampler(2, seed=4).unitaries(4000)
        rho = np.array([[0.85, 0.3], [0.3, 0.15]])
        avg = np.einsum("bij,jk,blk->il", us, rho, us.conj()) / len(us)
        assert 0.5 * trace_norm(avg - np.eye(2) / 2) < 0.05

    def test_seed_determinism(self):
        a = HaarSampler(3, seed=11).unitaries(5)
        b = HaarSampler(3, seed=11).unitaries(5)
        assert np.array_equal(a, b)

    def test_random_channels_kraus_split(self):
        # the Kraus split is a reshape of the loop that collects fixed-e rows
        isos = _sampling._haar_isometries(_sampling.stream(5, 1), 6, 2, 4)
        got = _sampling.random_channels_kraus(_sampling.stream(5, 1), 2, 2, 3, 4)
        for v, kraus in zip(isos, got):
            ref = [np.stack([v[a * 3 + e] for a in range(2)]) for e in range(3)]
            assert np.array_equal(np.stack(ref), kraus)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HaarSampler(0, seed=1).unitaries(1)
        with pytest.raises(ValueError):
            _sampling.haar_unitaries(_sampling.stream(1), 0, 1)


class TestRotate:
    def test_matches_kron_padded_unitaries(self):
        gen = _sampling.stream(7, 7)
        us = _sampling.haar_unitaries(gen, 3, 4)
        mat = _sampling.random_density_matrices(gen, 12, 1)[0]
        for u, out in zip(us, _rotate(us, mat, 2, 2)):
            pad = np.kron(np.kron(np.eye(2), u), np.eye(2))
            assert np.abs(out - pad @ mat @ pad.conj().T).max() < 1e-14


class TestStatesMc:
    def test_fixed_point_product(self):
        rho = DensityOperator(np.eye(4) / 4, (2, 2))
        rep = decouple_states_mc(rho, IDC, 16, 0.0, HaarSampler(2, 1))
        assert rep.passed
        assert rep.mean_lhs == pytest.approx(0.0, abs=1e-12)

    def test_entangled_exact_case(self):
        rep = decouple_states_mc(PHI, IDC, 40, 0.0, HaarSampler(2, 1))
        assert rep.mean_lhs == pytest.approx(1.5, abs=1e-12)
        assert rep.std_err < 1e-9
        assert rep.bound_rhs == pytest.approx(2.0, abs=1e-6)
        assert rep.passed

    def test_random_states_partial_trace(self):
        gen = _sampling.stream(42, 9)
        tmap = partial_trace_channel((2, 2), [0])
        for k in range(10):
            phi = pure_state(_sampling.random_pure_vectors(gen, 8, 1)[0], (2, 4))
            rep = decouple_states_mc(phi, tmap, 20, 0.0,
                                     HaarSampler(4, 1, stream_id=k))
            assert rep.passed

    def test_reproducible_across_master_seeds(self):
        gen = _sampling.stream(43, 0)
        phi = pure_state(_sampling.random_pure_vectors(gen, 8, 1)[0], (2, 4))
        tmap = partial_trace_channel((2, 2), [1])
        reps = [decouple_states_mc(phi, tmap, 400, 0.0, HaarSampler(4, seed))
                for seed in (101, 707)]
        spread = abs(reps[0].mean_lhs - reps[1].mean_lhs)
        sigma = math.hypot(reps[0].std_err, reps[1].std_err)
        assert spread <= 3 * sigma + 1e-12

    def test_epsilon_loosens_bound(self):
        tight = decouple_states_mc(PHI, IDC, 8, 0.0, HaarSampler(2, 1))
        loose = decouple_states_mc(PHI, IDC, 8, 0.05, HaarSampler(2, 1))
        assert loose.bound_rhs >= tight.bound_rhs
        assert loose.passed

    def test_normalization_precondition(self):
        from minent.channels import KrausMap
        bad = KrausMap([np.eye(2) * 1.4])  # trace increasing
        with pytest.raises(ValueError):
            decouple_states_mc(PHI, bad, 4, 0.0, HaarSampler(2, 1))

    def test_json_fields(self):
        rep = decouple_states_mc(PHI, IDC, 4, 0.0, HaarSampler(2, 1))
        assert set(rep.to_json()) == {"n_samples", "mean_lhs", "std_err",
                                      "bound_rhs", "epsilon", "pass"}
        json.dumps(rep.to_json())

    def test_report_validation(self):
        with pytest.raises(ValueError):
            DecouplingReport(4, -0.5, 0.0, 1.0, 0.0, True)


class TestChannelMc:
    def test_replacer_gives_zero(self):
        rep = decouple_channel_mc(replacer(PI), IDC, 6, 0.0, HaarSampler(2, 2))
        assert rep.mean_lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.passed

    def test_identity_unitary_invariance(self):
        rep = decouple_channel_mc(IDC, IDC, 8, 0.0, HaarSampler(2, 2))
        assert rep.mean_lhs == pytest.approx(1.5, abs=1e-7)
        assert rep.std_err < 1e-8
        assert rep.bound_rhs == pytest.approx(2.0, abs=1e-6)
        assert rep.passed

    def test_depolarizing_pair_with_trace(self):
        nn = tensor_channels(depolarizing(0.5), depolarizing(0.5))
        tmap = partial_trace_channel((2, 2), [0])
        rep = decouple_channel_mc(nn, tmap, 12, 0.0, HaarSampler(4, 3))
        assert rep.passed
        assert rep.skipped == 0

    def test_positive_epsilon_only_loosens(self):
        tight = decouple_channel_mc(depolarizing(0.4), IDC, 6, 0.0,
                                    HaarSampler(2, 2))
        loose = decouple_channel_mc(depolarizing(0.4), IDC, 6, 0.02,
                                    HaarSampler(2, 2))
        assert loose.bound_rhs >= tight.bound_rhs
        assert tight.passed and loose.passed


def _stinespring_state(channel, d):
    iso = stinespring_isometry(channel)
    lift = np.kron(np.eye(d), iso.isometry)
    big = lift @ maximally_entangled(d).matrix @ lift.conj().T
    return DensityOperator(big, (d, iso.out_dim, iso.env_dim))


class TestSubsystemSearch:
    def test_already_decoupled_takes_everything(self):
        va = np.zeros(16)
        va[0::5] = 0.5  # A maximally entangled with E, R product
        phi = pure_state(np.kron([1.0, 0.0], va), (2, 4, 4))
        res = find_decoupled_subsystem(phi, 0.01, 0.0, HaarSampler(4, 4), 8)
        assert res.a1_dim == 4
        assert res.trace_distance_to_product <= 0.01

    def test_entangled_reference_forces_trivial(self):
        # R(4) maximally entangled with A(4); E trivial of dim 1
        vec = np.array([1.0 if i % 5 == 0 else 0.0 for i in range(16)])
        big = pure_state(vec, (4, 4, 1))
        res = find_decoupled_subsystem(big, 0.2, 0.0, HaarSampler(4, 5), 8)
        assert res.a1_dim == 1
        assert res.guaranteed_dim == 1

    def test_noisy_channel_dilation(self):
        nn = tensor_channels(depolarizing(0.9), depolarizing(0.9))
        phi = _stinespring_state(nn, 4)
        res = find_decoupled_subsystem(phi, 0.2, 0.0, HaarSampler(4, 6), 16)
        assert res.a1_dim >= 2
        assert res.trace_distance_to_product <= 0.2

    def test_qubit_output_whole_subsystem(self):
        # Stinespring output of a strongly depolarizing qubit channel: the
        # full output qubit is already nearly uniform and decoupled
        phi = _stinespring_state(depolarizing(0.9), 2)
        res = find_decoupled_subsystem(phi, 0.2, 0.0, HaarSampler(2, 1), 8)
        assert res.a1_dim == 2
        assert res.trace_distance_to_product <= 0.2

    def test_result_invariant(self):
        with pytest.raises(ValueError):
            SubsystemSearchResult(2, 0.5, 0.1, 1, 0.0)


def protocol_sampler(phi):
    """A Haar sampler on the A of a state on (R, A, E)."""
    return HaarSampler(phi.dims[1], seed=2024, stream_id=0xE7A5)


class TestErasureProtocol:
    def test_fully_decoupled_extracts(self):
        va = np.zeros(16)
        va[0::5] = 0.5
        phi = pure_state(np.kron([1.0, 0.0], va), (2, 4, 4))
        rep = erasure_protocol_work(phi, 0.01, 0.0, 300.0, protocol_sampler(phi))
        assert rep.work.bits == pytest.approx(-2.0)
        assert rep.work.extractable()
        assert rep.a1_dim >= rep.guaranteed_dim
        assert rep.work.bits == math.log2(4) - 2 * math.log2(rep.a1_dim)

    @pytest.mark.parametrize("channel, delta_prime", [
        (depolarizing(0.5), 0.9), (identity_channel(2), 0.6)])
    def test_reaching_guarantee_can_exceed_entropic_form(self, channel,
                                                         delta_prime):
        # guaranteed_dim rounds 2^gl down to a divisor of |A|, so meeting it
        # does not put the work under log|A| - 2 gl
        phi = _stinespring_state(channel, 2)
        rep = erasure_protocol_work(phi, delta_prime, 0.0, 300.0,
                                    protocol_sampler(phi))
        assert rep.a1_dim == rep.guaranteed_dim
        assert rep.work.bits > rep.entropy_bound.bits + 0.2

    def test_entropy_solved_once(self, monkeypatch):
        # the search carries S_min(A|R) to the ledger; nothing solves it again
        calls = []
        bound = entropies.smooth_min_entropy_lower_bound

        def counted(*args):
            calls.append(args)
            return bound(*args)

        monkeypatch.setattr(entropies, "smooth_min_entropy_lower_bound", counted)
        phi = _stinespring_state(depolarizing(0.9), 2)
        rep = erasure_protocol_work(phi, 0.35, 0.0, 300.0, protocol_sampler(phi))
        assert len(calls) == 1
        assert rep.entropy_bound.bits == pytest.approx(
            -bound(0.0, calls[0][1]) - 2 * math.log2(0.7), abs=1e-12)

    def test_entangled_reference_full_cost(self):
        ent = pure_state(np.array([1 if i % 5 == 0 else 0 for i in range(16)]),
                         (4, 4))
        phi = DensityOperator(ent.matrix, (4, 4, 1))
        rep = erasure_protocol_work(phi, 0.2, 0.0, 300.0, protocol_sampler(phi))
        assert rep.a1_dim == 1
        assert rep.work.bits == pytest.approx(2.0)  # log|A| with trivial A1

    def test_invalid_delta_epsilon(self):
        va = np.zeros(16)
        va[0::5] = 0.5
        phi = pure_state(np.kron([1.0, 0.0], va), (2, 4, 4))
        with pytest.raises(ValueError):
            erasure_protocol_work(phi, 0.05, 0.01, 300.0, protocol_sampler(phi))
