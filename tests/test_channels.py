import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import _sampling, sdp
from minent.channels import (KrausMap, QuantumChannel, _diamond_batch, apply,
                             apply_many, channel_from_spec, choi_matrix,
                             compose, dephasing1, dephasing2, depolarizing,
                             diamond_distance, identity_channel, is_ppt,
                             make_named_channel, partial_trace_channel,
                             povm_channel, replacer, replacer_swap_dilation,
                             stinespring_isometry, tensor_channels,
                             unitary_channel)
from minent.linalg import (DensityOperator, maximally_entangled,
                           maximally_mixed, partial_trace, pauli, pure_state,
                           trace_norm)

from conftest import basis_state, random_qubit_channels, stinespring_output

PI = maximally_mixed(2)
PHI = maximally_entangled(2)


def random_state(gen, d, dims=None):
    return DensityOperator(_sampling.random_density_matrices(gen, d, 1)[0], dims)


class TestConstruction:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            QuantumChannel([0.5 * np.eye(2)])

    def test_depolarizing_p_zero_is_identity(self):
        ch = depolarizing(0.0)
        assert len(ch.kraus) == 1
        assert np.allclose(ch.kraus[0], np.eye(2))

    def test_depolarizing_validates_p(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                depolarizing(bad)

    def test_depolarizing_three_quarters_uniformizes(self, rng):
        ch = depolarizing(0.75)
        for _ in range(4):
            rho = random_state(rng, 2)
            out = apply(ch, rho)
            assert np.abs(out.matrix - PI.matrix).max() < 1e-12

    def test_dephasing_kinds_related(self, rng):
        p = 0.62
        rho = random_state(rng, 2)
        out1 = apply(dephasing1(p), rho).matrix
        out2 = apply(dephasing2(p / 2), rho).matrix
        assert np.abs(out1 - out2).max() < 1e-13
        diag = (1 - p) * rho.matrix + p * np.diag(np.diag(rho.matrix))
        assert np.abs(out1 - diag).max() < 1e-13

    def test_povm_channel(self):
        ch = povm_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        out = apply(ch, pure_state([1, 1]))
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
        with pytest.raises(ValueError):
            povm_channel([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])

    def test_replacer_outputs_fixed_state(self, rng):
        omega = random_state(rng, 2)
        ch = replacer(omega)
        for _ in range(3):
            out = apply(ch, random_state(rng, 2))
            assert np.abs(out.matrix - omega.matrix).max() < 1e-12

    def test_swap_dilation_matches_replacer(self, rng):
        omega = random_state(rng, 2)
        direct = replacer(omega)
        via_swap, swap = replacer_swap_dilation(omega)
        assert np.allclose(swap @ swap.conj().T, np.eye(4))
        u, v = _sampling.random_pure_vectors(rng, 2, 2)
        assert np.allclose(swap @ np.kron(u, v), np.kron(v, u))
        rho = random_state(rng, 2)
        assert np.abs(apply(direct, rho).matrix
                      - apply(via_swap, rho).matrix).max() < 1e-12

    def test_named_dispatch(self):
        assert make_named_channel("unitary", unitary=pauli("x")).out_dim == 2
        with pytest.raises(ValueError):
            make_named_channel("squeezer")
        with pytest.raises(ValueError):
            make_named_channel("depolarizing")  # missing p
        with pytest.raises(ValueError, match="does not use 'p'"):
            make_named_channel("replacer", p=0.3)
        with pytest.raises(ValueError, match="does not use 'dims'"):
            make_named_channel("unitary", unitary=pauli("x"), dims=2)
        assert make_named_channel("unitary", dims=3).out_dim == 3


class TestChoi:
    def test_identity_choi_is_bell(self):
        cs = choi_matrix(identity_channel(2))
        assert np.abs(cs.matrix - PHI.matrix).max() < 1e-12

    def test_replacer_choi_is_product(self):
        cs = choi_matrix(replacer(PI))
        assert np.abs(cs.matrix - np.eye(4) / 4).max() < 1e-12

    def test_depolarizing_choi_spectrum(self):
        for p in (0.15, 0.6, 0.95):
            ev = np.sort(np.linalg.eigvalsh(
                choi_matrix(depolarizing(p)).matrix))[::-1]
            expect = np.sort([1 - p, p / 3, p / 3, p / 3])[::-1]
            assert np.allclose(ev, expect, atol=1e-12)

    def test_marginal_validated(self, rng):
        for ch in random_qubit_channels(77, 5, kraus=3):
            marg = partial_trace(choi_matrix(ch), [0]).matrix
            assert np.abs(marg - np.eye(2) / 2).max() < 1e-10


class TestApply:
    def test_identity_fixes_input(self, rng):
        rho = random_state(rng, 2)
        assert np.abs(apply(identity_channel(2), rho).matrix - rho.matrix).max() \
            < 1e-14

    def test_replacer_on_subsystem(self):
        out = apply_many(replacer(PI), PHI.matrix[None], left=2)[0]
        assert np.allclose(out, np.eye(4) / 4, atol=1e-12)

    def test_reference_marginal_unchanged(self, rng):
        for ch in random_qubit_channels(78, 4):
            psi = pure_state(_sampling.random_pure_vectors(rng, 4, 1)[0], (2, 2))
            out = DensityOperator(apply_many(ch, psi.matrix[None], left=2)[0],
                                  (2, 2))
            assert np.abs(partial_trace(out.op, [0]).matrix
                          - partial_trace(psi.op, [0]).matrix).max() < 1e-12

    def test_full_depolarizing_on_ground_state(self):
        out = apply(depolarizing(1.0), basis_state(2, 0))
        assert np.allclose(np.diag(out.matrix).real, [1 / 3, 2 / 3], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity_channel(3), PI)


def kron_reference(kraus, ops, left, right):
    """sum_k (1 (x) K_k (x) 1) X (1 (x) K_k (x) 1)^dag, Kraus padded by kron."""
    out = 0
    for k in kraus:
        big = np.kron(np.kron(np.eye(left), k), np.eye(right))
        out = out + big @ ops @ big.conj().T
    return out


class TestApplyMany:
    DIMS = (2, 3, 2)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_kron_reference_on_each_subsystem(self, k):
        gen = _sampling.stream(81, k)
        din = self.DIMS[k]
        kraus = _sampling.random_channels_kraus(gen, din, 2, 3, 1)[0]
        ch = QuantumChannel(kraus)
        left, right = math.prod(self.DIMS[:k]), math.prod(self.DIMS[k + 1:])
        stack = _sampling.random_density_matrices(gen, 12, 4)
        got = apply_many(ch, stack, left, right)
        for rho, out in zip(stack, got):
            assert np.abs(out - kron_reference(kraus, rho, left, right)).max() < 1e-14

    def test_non_trace_preserving_map(self):
        gen = _sampling.stream(82, 0)
        kraus = 0.7 * _sampling.random_channels_kraus(gen, 2, 3, 2, 1)[0]
        t_map = KrausMap(kraus)
        stack = _sampling.random_density_matrices(gen, 4, 3)
        got = apply_many(t_map, stack, left=2)
        for rho, out in zip(stack, got):
            assert np.abs(out - kron_reference(kraus, rho, 2, 1)).max() < 1e-14
            assert np.trace(out).real == pytest.approx(0.49, abs=1e-12)
        assert apply(t_map, PI).subnormalized

    def test_pure_state_stack(self):
        gen = _sampling.stream(83, 0)
        kraus = _sampling.random_channels_kraus(gen, 2, 2, 4, 1)[0]
        vecs = _sampling.random_pure_vectors(gen, 4, 16)
        got = apply_many(QuantumChannel(kraus), vecs, left=2)
        for v, out in zip(vecs, got):
            ref = kron_reference(kraus, np.outer(v, v.conj()), 2, 1)
            assert np.abs(out - ref).max() < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_many(identity_channel(2), np.eye(6)[None], left=2)


class TestStinespring:
    def test_unitary_channel_has_trivial_env(self):
        iso = stinespring_isometry(unitary_channel(pauli("x")))
        assert iso.env_dim == 1
        assert np.allclose(iso.isometry, pauli("x"))

    def test_isometry_property(self):
        for p in (0.1, 0.75):
            iso = stinespring_isometry(depolarizing(p))
            v = iso.isometry
            assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12

    def test_reproduces_channel_action(self, rng):
        for ch in random_qubit_channels(79, 6, kraus=3):
            rho = random_state(rng, 2)
            big = stinespring_output(ch, rho)
            out = partial_trace(big.op, [0]).matrix
            assert np.abs(out - apply(ch, rho).matrix).max() < 1e-10

    def test_depolarizing_env_dim(self, rng):
        iso = stinespring_isometry(depolarizing(0.75))
        assert iso.env_dim == 4
        psi = pure_state(_sampling.random_pure_vectors(rng, 2, 1)[0])
        big = stinespring_output(depolarizing(0.75), psi)
        marg = partial_trace(big.op, [0]).matrix
        assert np.abs(marg - np.eye(2) / 2).max() < 1e-12

    def test_measurement_dilation(self):
        ch = povm_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        iso = stinespring_isometry(ch)
        for i in (0, 1):
            vec = np.zeros(2)
            vec[i] = 1.0
            out = iso.isometry @ vec
            nz = np.nonzero(np.abs(out) > 1e-12)[0]
            assert len(nz) == 1  # |i>_X tensor a single env direction


class TestPpt:
    def test_identity_is_npt(self):
        assert not is_ppt(identity_channel(2))

    def test_replacer_is_ppt(self):
        assert is_ppt(replacer(PI))

    def test_depolarizing_threshold(self):
        assert not is_ppt(depolarizing(0.499))
        assert is_ppt(depolarizing(0.5 + 1e-3))


class TestComposition:
    def test_identity_neutral(self, rng):
        ch = depolarizing(0.3)
        combined = compose(identity_channel(2), ch)
        rho = random_state(rng, 2)
        assert np.abs(apply(combined, rho).matrix - apply(ch, rho).matrix).max() \
            < 1e-12

    def test_replacer_absorbs(self, rng):
        combined = compose(replacer(PI), depolarizing(0.3))
        for k in (0, 1):
            out = apply(combined, basis_state(2, k))
            assert np.abs(out.matrix - PI.matrix).max() < 1e-12

    def test_tensor_choi_structure(self):
        n, m = depolarizing(0.2), dephasing2(0.4)
        nm = tensor_channels(n, m)
        choi_nm = choi_matrix(nm).matrix
        a = choi_matrix(n).matrix.reshape(2, 2, 2, 2)
        b = choi_matrix(m).matrix.reshape(2, 2, 2, 2)
        expect = np.einsum("iajb,kcld->ikacjlbd", a, b).reshape(16, 16)
        assert np.abs(choi_nm - expect).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_channel(3), identity_channel(2))


class TestDiamond:
    def test_self_distance_zero(self):
        ch = depolarizing(0.3)
        assert diamond_distance(ch, ch) == pytest.approx(0.0, abs=1e-8)

    def test_identity_vs_replacer(self):
        got = diamond_distance(identity_channel(2), replacer(PI))
        assert got == pytest.approx(0.75, abs=1e-7)

    def test_dephasing_zero_noise(self):
        got = diamond_distance(dephasing2(0.0), identity_channel(2))
        assert got == pytest.approx(0.0, abs=1e-8)

    def test_sampled_lower_bound(self, rng):
        a, b = random_qubit_channels(80, 2, kraus=2)
        dd = diamond_distance(a, b)
        vecs = _sampling.random_pure_vectors(rng, 4, 64)
        diff = apply_many(a, vecs, left=2) - apply_many(b, vecs, left=2)
        best = max(0.5 * trace_norm(d) for d in diff)
        assert best <= dd + 1e-7


class TestDiamondBatch:
    def test_chunking_keeps_values(self):
        chs = random_qubit_channels(84, 5)
        diffs = [choi_matrix(a, normalized=False).matrix
                 - choi_matrix(chs[0], normalized=False).matrix for a in chs]
        whole, ok_whole = _diamond_batch(diffs, 2, 2)
        parts, ok_parts = _diamond_batch(diffs, 2, 2, chunk=2)
        assert ok_whole.all() and ok_parts.all()
        assert np.abs(whole - parts).max() < 1e-7
        assert whole[1] == pytest.approx(diamond_distance(chs[1], chs[0]), abs=1e-7)

    def test_distance_raises_on_nonoptimal(self, monkeypatch):
        solve = sdp.solve_stack

        def failing(*args, **kw):
            res = solve(*args, **kw)
            res["status"] = np.full_like(res["status"], 2)  # max-iterations
            res["ok"] = res["status"] == 0
            return res

        monkeypatch.setattr(sdp, "solve_stack", failing)
        vals, ok = _diamond_batch([np.zeros((4, 4))], 2, 2)
        assert not ok.any()
        with pytest.raises(sdp.SdpFailure):
            diamond_distance(depolarizing(0.2), identity_channel(2))


class TestPartialTraceChannel:
    @pytest.mark.parametrize("dims, keep", [
        ((2, 2), [0]), ((2, 3, 2), [0, 2]), ((2, 3, 2), []), ((2, 3, 2), [0, 1, 2]),
    ], ids=["2x2-keep-0", "2x3x2-keep-0-2", "2x3x2-keep-none", "2x3x2-keep-all"])
    def test_matches_partial_trace(self, rng, dims, keep):
        ch = partial_trace_channel(dims, keep)
        rho = random_state(rng, math.prod(dims), dims)
        out = apply(ch, rho)
        assert np.abs(out.matrix - partial_trace(rho.op, keep).matrix).max() < 1e-12


def _pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


# specs that used to escape as AttributeError, IndexError or TypeError, or
# (dims 0) to build a qubit replacer
MALFORMED_SPECS = [
    {"family": 3},
    {"family": "povm", "povm": []},
    {"family": "depolarizing", "p": [1]},
    {"family": "unitary", "unitary": [[1]]},
    {"family": "replacer", "dims": 0},
    # fields the family does not use
    {"family": "depolarizing", "p": 0.3, "dims": 3},
    {"family": "replacer", "p": 0.3},
    {"family": "dephasing2", "p": 0.3, "omega": "maximally-mixed", "dim": 5},
    {"family": "unitary", "unitary": _pairs(np.eye(2)), "dims": 2},
    {"family": "povm", "povm": [_pairs(np.eye(2))], "dims": 2},
    {"family": "dephasing1", "p": 0.3, "unitary": _pairs(np.eye(2))},
]

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.floats(),
                 st.text(max_size=4), st.lists(st.integers(-1, 2), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
MATRICES = st.one_of(
    JUNK,
    st.sampled_from([_pairs(np.eye(2)), _pairs(pauli("x")), _pairs(np.eye(2) / 2),
                     _pairs(np.diag([0.3, 0.7])), _pairs(np.diag([1.0, 0.0])),
                     _pairs(np.eye(3) / 3), [], [[]], [[1]], [[[1, 0]]],
                     [[[1, 0], [0, 0]]], [[[float("nan"), 0]]]]),
    st.lists(st.lists(st.lists(st.floats(-2, 2), min_size=2, max_size=2),
                      min_size=1, max_size=3), min_size=1, max_size=3))
# dims stays small: the spec format puts no ceiling on a valid dimension
DIMS = st.one_of(st.integers(-2, 4),
                 st.sampled_from([None, True, 0.5, 2.0, "2", "x", [2], {},
                                  float("nan"), float("inf")]))
FAMILIES = st.sampled_from(["depolarizing", "dephasing1", "dephasing2",
                            "replacer", "unitary", "povm", "Depolarizing"])
WELL_FORMED = st.fixed_dictionaries(
    {"family": FAMILIES},
    optional={"p": st.floats(0, 1),
              "dims": st.integers(1, 3),
              "omega": st.sampled_from(["maximally-mixed", _pairs(np.eye(2) / 2),
                                        _pairs(np.diag([0.3, 0.7])),
                                        _pairs(np.eye(3) / 3)]),
              "unitary": st.sampled_from([_pairs(np.eye(2)), _pairs(pauli("y")),
                                          _pairs(np.eye(3))]),
              "povm": st.just([_pairs(np.diag([0.4, 0.1])),
                               _pairs(np.diag([0.6, 0.9]))])})
SPECS = st.fixed_dictionaries(
    {"family": st.one_of(FAMILIES, st.just("bogus"), JUNK)},
    optional={"p": st.one_of(st.floats(-0.5, 1.5), JUNK),
              "dims": DIMS,
              "omega": st.one_of(st.just("maximally-mixed"), MATRICES),
              "unitary": MATRICES,
              "povm": st.one_of(JUNK, st.lists(MATRICES, max_size=3),
                                st.just([_pairs(np.diag([1.0, 0.0])),
                                         _pairs(np.diag([0.0, 1.0]))]))})


class TestWireFormat:
    def test_roundtrip(self):
        spec = {"family": "depolarizing", "p": 0.42}
        ch = channel_from_spec(json.dumps(spec))
        assert math.isclose(
            np.sort(np.linalg.eigvalsh(choi_matrix(ch).matrix))[-1], 0.58)

    def test_omega_keyword(self):
        ch = channel_from_spec({"family": "replacer", "omega": "maximally-mixed"})
        assert apply(ch, basis_state(2, 0)).matrix[0, 0] == pytest.approx(0.5)

    def test_unitary_pairs(self):
        spec = {"family": "unitary",
                "unitary": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
        ch = channel_from_spec(spec)
        assert np.allclose(ch.kraus[0], pauli("x"))

    def test_missing_family(self):
        with pytest.raises(ValueError):
            channel_from_spec({"p": 0.3})

    @pytest.mark.parametrize("spec", MALFORMED_SPECS)
    def test_malformed_spec_is_value_error(self, spec):
        with pytest.raises(ValueError):
            channel_from_spec(spec)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(SPECS, WELL_FORMED, st.one_of(SPECS, WELL_FORMED).map(json.dumps),
                     st.text(max_size=24)))
    def test_fuzzed_spec_builds_channel_or_value_error(self, spec):
        try:
            ch = channel_from_spec(spec)
        except ValueError:  # json.JSONDecodeError included
            return
        assert isinstance(ch, QuantumChannel)
        marg = partial_trace(choi_matrix(ch), [0]).matrix
        assert np.abs(marg - np.eye(ch.in_dim) / ch.in_dim).max() < 1e-10
