import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import _sampling, dynamical, sdp
from minent.channels import (QuantumChannel, channel_from_spec, choi_matrix,
                             compose, dephasing1, dephasing2, depolarizing,
                             diamond_distance, identity_channel, is_ppt,
                             make_named_channel, replacer, unitary_channel)
from minent.dynamical import (ChannelEntropyReport, _pruned_scan,
                              _pure_outputs, _structured_inputs,
                              channel_min_entropy, channel_min_entropy_scan,
                              channel_min_entropy_sdp, env_decoupling_dual,
                              singlet_fidelity_dual,
                              smooth_channel_min_entropy_lower_bound)
from minent.entropies import cond_min_entropy_up_many
from minent.linalg import maximally_mixed, pauli, psd_sqrt

from conftest import basis_state, random_channel, random_qubit_channels

PI = maximally_mixed(2)
IDC = identity_channel(2)
RPI = replacer(PI)


class TestClosedForm:
    def test_identity(self):
        assert channel_min_entropy(IDC) == pytest.approx(-1.0)

    def test_uniform_replacer(self):
        assert channel_min_entropy(RPI) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.75, 1.0])
    def test_depolarizing(self, p):
        expect = -math.log2(2 * max(1 - p, p / 3))
        assert channel_min_entropy(depolarizing(p)) == pytest.approx(expect)

    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_dephasing_first_kind(self, p):
        assert channel_min_entropy(dephasing1(p)) == pytest.approx(
            -math.log2(2 - p))

    def test_pure_replacer_is_zero(self):
        assert channel_min_entropy(replacer(basis_state(2, 0))) \
            == pytest.approx(0.0, abs=1e-12)

    def test_bounds(self):
        for ch in random_qubit_channels(31, 40, kraus=3):
            v = channel_min_entropy(ch)
            assert -1 - 1e-9 <= v <= 1 + 1e-9

    def test_isometry_iff_minimum(self):
        assert channel_min_entropy(unitary_channel(pauli("x"))) \
            == pytest.approx(-1.0, abs=1e-12)
        for fam in ("depolarizing", "dephasing1", "dephasing2"):
            for p in np.arange(0.1, 0.95, 0.1):
                ch = make_named_channel(fam, p=float(p))
                assert channel_min_entropy(ch) > -1 + 1e-6


class TestSdpCross:
    def test_agreement(self):
        for ch in [IDC, RPI, depolarizing(0.3), dephasing2(0.8)] \
                + random_qubit_channels(32, 10):
            assert channel_min_entropy_sdp(ch) == pytest.approx(
                channel_min_entropy(ch), abs=1e-6)


class TestScan:
    def test_report_fields(self):
        rep = channel_min_entropy_scan(depolarizing(0.5), 64, seed=5)
        assert isinstance(rep, ChannelEntropyReport)
        assert rep.n_scan_samples >= 64
        assert rep.inf_scan_value >= rep.s_min - 1e-6
        assert abs(rep.s_min - rep.sdp_value) <= 1e-6

    def test_identity_attains_at_entangled_input(self):
        rep = channel_min_entropy_scan(IDC, 16, seed=5)
        assert rep.inf_scan_value == pytest.approx(-1.0, abs=1e-6)

    def test_replacer_flat_landscape(self):
        rep = channel_min_entropy_scan(RPI, 16, seed=5)
        assert rep.inf_scan_value == pytest.approx(1.0, abs=1e-6)

    def test_depolarizing_half(self):
        rep = channel_min_entropy_scan(depolarizing(0.5), 200, seed=5)
        assert rep.inf_scan_value >= -1e-6
        assert rep.inf_scan_value <= 0.05

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            channel_min_entropy_scan(IDC, 0, seed=1)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            ChannelEntropyReport(0.0, 0.5, 0.0, 1)
        with pytest.raises(ValueError):
            ChannelEntropyReport(0.0, 0.0, -1.0, 1)


def psi_star(ch):
    """vec(sqrt(rho*)), R first, with rho* = tr_A |v><v| for a top
    eigenvector v of the Choi state on (R, A)."""
    d = ch.in_dim
    top = np.linalg.eigh(choi_matrix(ch).matrix)[1][:, -1].reshape(d, ch.out_dim)
    return psd_sqrt(top @ top.conj().T).reshape(-1)


def sdp_values(ch, vecs):
    """S_min-up(A|R) of N(psi) by SDP for every pure input psi in vecs."""
    return cond_min_entropy_up_many(_pure_outputs(ch, vecs), ch.out_dim,
                                    ch.in_dim)


# seeded random channels of each shape, and a pure replacer, whose rho* is
# rank-deficient
PSI_STAR_CASES = {f"random-{a}-{b}": random_channel(10 * a + b, a, b, 2)
                  for a, b in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))}
PSI_STAR_CASES["replacer-pure"] = replacer(basis_state(2, 0))


class TestPsiStar:
    """psi* = vec(sqrt(rho*)), R first, attains the closed form; the scan
    reads its value from the singlet dual instead of solving it."""

    @pytest.mark.parametrize("name", sorted(PSI_STAR_CASES))
    def test_attains_closed_form(self, name):
        ch = PSI_STAR_CASES[name]
        closed = channel_min_entropy(ch)
        vals, ok = sdp_values(ch, psi_star(ch)[None])
        assert ok[0]
        assert abs(vals[0] - closed) <= 1e-7
        rep = channel_min_entropy_scan(ch, 16, seed=5)
        assert abs(rep.gap_flags["scan_gap"]) <= 1e-12
        assert rep.n_scan_samples == ch.in_dim ** 2 + 2 + 16
        assert singlet_fidelity_dual(ch) == pytest.approx(-closed, abs=1e-9)

    def test_transposed_convention_misses(self):
        misses = []
        for ch in PSI_STAR_CASES.values():
            d = ch.in_dim
            root = psi_star(ch).reshape(d, d)
            vals, ok = sdp_values(ch, root.T.reshape(1, -1))
            assert ok[0]
            misses.append(vals[0] - channel_min_entropy(ch))
        assert max(misses) > 1e-3


QUBIT_CHANNELS = [("depolarizing", 0.3), ("depolarizing", 0.8),
                  ("depolarizing", 0.9), ("dephasing1", 0.5),
                  ("dephasing2", 0.4), ("dephasing2", 0.5),
                  ("replacer", None), ("unitary", None)]


class TestPruning:
    @pytest.mark.parametrize("family, p", QUBIT_CHANNELS)
    def test_pruned_equals_unpruned(self, family, p):
        # the unpruned minimum solves every input, psi* among them
        ch = make_named_channel(family, p=p)
        haar = _sampling.random_pure_vectors(_sampling.stream(33, 0xD15C),
                                             4, 200)
        vecs = np.concatenate([_structured_inputs(ch), haar])
        vals, ok = sdp_values(ch, np.concatenate([psi_star(ch)[None], vecs]))
        unpruned = vals[ok].min()
        rep = channel_min_entropy_scan(ch, 200, seed=33)
        # every solve reads the upper side of its S_min-up, so none ends
        # below the closed form, which bounds every input from below, and
        # the pruned and unpruned minima agree within 1e-9
        assert unpruned >= rep.s_min - 1e-10
        assert rep.inf_scan_value >= unpruned - 1e-9
        assert rep.inf_scan_value <= unpruned + 1e-9
        # Phi and every Haar input are full-rank and certified by the
        # closed form; only the d^2 products are solved
        m = -singlet_fidelity_dual(ch) + 0.0
        pruned_vals, _ = _pruned_scan(ch, m, vecs)
        assert len(pruned_vals) == ch.in_dim ** 2

    def test_solve_reads_upper_side(self):
        # input 1691 of the seed-33 scan stream: an optimal solve whose
        # sigma side read 2.4e-7 bits below the closed form
        ch = depolarizing(0.8)
        haar = _sampling.random_pure_vectors(_sampling.stream(33, 0xD15C),
                                             4, 2000)
        vals, ok = sdp_values(ch, haar[1691:1692])
        assert ok[0]
        assert vals[0] >= channel_min_entropy(ch) - 1e-10

    def test_rank_deficient_inputs_are_solved(self):
        ch = depolarizing(0.3)
        m = -singlet_fidelity_dual(ch) + 0.0
        product = np.eye(4, dtype=complex)[:1]
        vals, ok = _pruned_scan(
            ch, m, np.concatenate([_structured_inputs(ch), product]))
        assert len(vals) == ch.in_dim ** 2 + 1 and ok.all()

    @staticmethod
    def scan_stacks(monkeypatch, ch):
        """Instance counts of the S_min-up stacks that a scan solves."""
        stacks = []
        real = sdp.solve_stack

        def spy(objective, constraints, rhs, sense="min"):
            if len(rhs) > 1:  # the D_max cross-check has one constraint
                stacks.append(len(objective[0]))
            return real(objective, constraints, rhs, sense)

        monkeypatch.setattr(sdp, "solve_stack", spy)
        channel_min_entropy_scan(ch, 64, 5)
        return stacks

    @pytest.mark.parametrize("family, p", QUBIT_CHANNELS)
    def test_scan_solves_one_stack_of_products(self, family, p, monkeypatch):
        # psi* comes from the singlet dual and Phi and the Haar inputs are
        # pruned, so the scan's one S_min-up stack holds the 4 products
        ch = make_named_channel(family, p=p)
        assert self.scan_stacks(monkeypatch, ch) == [4]

    def test_one_dim_input_solves_no_stack(self, monkeypatch):
        # every input of a 1-dim input space has a full-rank marginal
        ch = channel_from_spec({"family": "povm", "dims": 1})
        assert self.scan_stacks(monkeypatch, ch) == []
        rep = channel_min_entropy_scan(ch, 4, 5)
        assert rep.inf_scan_value == rep.s_min == 0.0


class TestDuals:
    def test_singlet_identity(self):
        assert singlet_fidelity_dual(IDC) == pytest.approx(1.0, abs=1e-9)

    def test_singlet_replacer(self):
        assert singlet_fidelity_dual(RPI) == pytest.approx(-1.0, abs=1e-9)

    def test_singlet_below_negentropy(self):
        for ch in random_qubit_channels(33, 6):
            val = singlet_fidelity_dual(ch)
            assert val <= -channel_min_entropy(ch) + 1e-9

    def test_env_identity(self):
        assert env_decoupling_dual(IDC, 64, 7) == pytest.approx(1.0, abs=1e-9)

    def test_env_replacer(self):
        assert env_decoupling_dual(RPI, 64, 7) == pytest.approx(-1.0, abs=1e-9)

    def test_env_below_negentropy(self):
        for ch in random_qubit_channels(33, 6):
            val = env_decoupling_dual(ch, 64, 7)
            assert val <= -channel_min_entropy(ch) + 1e-9

    def test_env_dual_exact_on_depolarizing(self):
        for p in (0.2, 0.6):
            ch = depolarizing(p)
            assert env_decoupling_dual(ch, 64, 7) == pytest.approx(
                -channel_min_entropy(ch), abs=1e-9)

    def test_duals_reach_on_named_families(self):
        for fam, p in (("depolarizing", 0.3), ("dephasing1", 0.5),
                       ("dephasing2", 0.7)):
            ch = make_named_channel(fam, p=p)
            target = -channel_min_entropy(ch)
            assert singlet_fidelity_dual(ch) == pytest.approx(target,
                                                              abs=1e-9)
            assert env_decoupling_dual(ch, 500, 7) == pytest.approx(
                target, abs=1e-9)


NAMED_SPECS = st.one_of(
    st.fixed_dictionaries({
        "family": st.sampled_from(["depolarizing", "dephasing1", "dephasing2"]),
        "p": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries({
        "family": st.sampled_from(["replacer", "unitary", "povm"]),
        "dims": st.integers(1, 3)}))


@st.composite
def drawn_channels(draw):
    """A random channel of in/out dims 1-3 with 1-4 Kraus operators, at
    least the in_dim / out_dim that an isometry in -> out (x) env needs."""
    d_in, d_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kraus = draw(st.integers(-(-d_in // d_out), 4))
    gen = _sampling.stream(draw(st.integers(0, 2 ** 16)), 0xE7A5)
    return QuantumChannel(_sampling.random_channels_kraus(gen, d_in, d_out,
                                                          kraus, 1)[0])


class TestEnvDualExact:
    """The environment-decoupling dual is evaluated at its explicit
    maximizer, so it meets -S_min to roundoff at any sample count and seed,
    which it accepts and does not use."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=NAMED_SPECS, n=st.integers(0, 16), seed=st.integers(0, 99))
    def test_named_families(self, spec, n, seed):
        ch = channel_from_spec(spec)
        assert abs(env_decoupling_dual(ch, n, seed)
                   + channel_min_entropy(ch)) <= 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ch=drawn_channels(), n=st.integers(0, 16), seed=st.integers(0, 99))
    def test_drawn_channels(self, ch, n, seed):
        assert abs(env_decoupling_dual(ch, n, seed)
                   + channel_min_entropy(ch)) <= 1e-9


class TestSingletDualExact:
    """The singlet-fidelity dual is evaluated at its explicit optimizer
    X*, sigma*, so it meets -S_min to roundoff."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=NAMED_SPECS)
    def test_named_families(self, spec):
        ch = channel_from_spec(spec)
        assert abs(singlet_fidelity_dual(ch) + channel_min_entropy(ch)) <= 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ch=drawn_channels())
    def test_drawn_channels(self, ch):
        assert abs(singlet_fidelity_dual(ch) + channel_min_entropy(ch)) <= 1e-9

    def test_no_sdp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dual solved an SDP")

        monkeypatch.setattr(sdp, "solve_stack", refuse)
        ch = depolarizing(0.3)
        target = -channel_min_entropy(ch)
        assert singlet_fidelity_dual(ch) == pytest.approx(target, abs=1e-9)
        assert env_decoupling_dual(ch, 64, 7) == pytest.approx(target,
                                                               abs=1e-9)

    def test_singlet_certificate_failure_raises(self, monkeypatch):
        # an output 1% too heavy breaks sigma* (x) 1_A >= omega and
        # tr(omega X*) = tr sigma*
        original = dynamical.apply_many
        monkeypatch.setattr(dynamical, "apply_many",
                            lambda *args, **kw: 1.01 * original(*args, **kw))
        with pytest.raises(RuntimeError, match="certificate"):
            singlet_fidelity_dual(depolarizing(0.3))


class TestSmoothing:
    def test_zero_eps_exact(self):
        assert smooth_channel_min_entropy_lower_bound(0.0, IDC) \
            == pytest.approx(-1.0)

    def test_center_feasible(self):
        assert smooth_channel_min_entropy_lower_bound(0.1, IDC) >= -1.0 - 1e-12

    def test_monotone(self):
        ch = depolarizing(0.3)
        vals = [smooth_channel_min_entropy_lower_bound(e, ch)
                for e in (0.0, 0.05, 0.2)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_channel_vs_state_smoothing_cross_check(self):
        # channel bound <= state-level smoothed bound at any sampled input
        from minent.channels import apply_many
        from minent.entropies import smooth_min_entropy_lower_bound
        from minent.linalg import DensityOperator, permute_systems, HermitianOperator

        eps = 0.05
        ch = depolarizing(0.3)
        bound = smooth_channel_min_entropy_lower_bound(eps, ch)
        gen = _sampling.stream(77, 0)
        vecs = _sampling.random_pure_vectors(gen, 4, 6)
        outs = apply_many(ch, vecs, left=2)
        for out in outs:
            state = DensityOperator(
                permute_systems(HermitianOperator(out, (2, 2)), (1, 0)).matrix,
                (2, 2))
            state_bound = smooth_min_entropy_lower_bound(eps, state, "up")
            assert bound <= state_bound + 1e-6


def lipschitz_sides(n, m):
    """|S_min[N] - S_min[M]| and its bound (1/ln 2) |A| min(|A|, |A'|) delta,
    delta the diamond distance."""
    lhs = abs(channel_min_entropy(n) - channel_min_entropy(m))
    rhs = n.out_dim * min(n.out_dim, n.in_dim) * diamond_distance(n, m) \
        / math.log(2)
    return lhs, rhs


class TestContinuity:
    def test_equal_channels(self):
        lhs, rhs = lipschitz_sides(IDC, IDC)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-7)

    def test_identity_vs_light_dephasing(self):
        lhs, rhs = lipschitz_sides(IDC, dephasing2(0.1))
        assert lhs == pytest.approx(abs(-1 + math.log2(1.8)), abs=1e-9)
        assert rhs >= lhs

    def test_random_audit(self):
        pool = random_qubit_channels(34, 40)
        for a, b in zip(pool[:20], pool[20:]):
            lhs, rhs = lipschitz_sides(a, b)
            assert lhs <= rhs + 1e-9


def framed_shift(n, u1, u2) -> float:
    """|S_min[U2 o N o U1] - S_min[N]|."""
    return abs(channel_min_entropy(compose(u2, compose(n, u1)))
               - channel_min_entropy(n))


class TestCovariance:
    def test_identity_frames(self):
        assert framed_shift(depolarizing(0.3), IDC, IDC) <= 1e-9

    def test_random_unitaries(self):
        gen = _sampling.stream(35, 0)
        for u1, u2 in zip(_sampling.haar_unitaries(gen, 2, 4),
                          _sampling.haar_unitaries(gen, 2, 4)):
            assert framed_shift(depolarizing(0.3), unitary_channel(u1),
                                unitary_channel(u2)) <= 1e-9

    def test_pauli_frames_on_dephasing(self):
        x = unitary_channel(pauli("x"))
        assert framed_shift(dephasing2(0.4), x, x) <= 1e-9

    def test_non_unitary_frame_breaks_invariance(self):
        # a depolarizing pre-processor is no change of frame: S_min rises
        assert framed_shift(IDC, depolarizing(0.5), IDC) > 0.5


def test_ppt_channels_nonnegative():
    count = 0
    for ch in random_qubit_channels(36, 60, kraus=3):
        if is_ppt(ch):
            count += 1
            assert channel_min_entropy(ch) >= -1e-9
    assert count > 0
