import math

import numpy as np
import pytest

from minent import _sampling, sdp
from minent.channels import apply, depolarizing
from minent.entropies import (SUBSTACK, RenyiOrder, _in_ball,
                              cond_hypothesis_entropy,
                              cond_hypothesis_entropy_many,
                              cond_min_entropy_down, cond_min_entropy_down_many,
                              cond_min_entropy_down_sdp, cond_min_entropy_up,
                              d_hypothesis, d_max, d_max_sdp,
                              max_fidelity_uniform, petz_renyi,
                              sandwiched_renyi, smooth_min_entropy_lower_bound)
from minent.linalg import (DensityOperator, HermitianOperator, basis_state,
                           hermitian_basis, maximally_entangled, maximally_mixed,
                           partial_trace, permute_systems, pure_state,
                           support_projector)

from conftest import (random_qubit_channels, random_two_qubit_states,
                      stinespring_output)

PI = maximally_mixed(2)
PHI = maximally_entangled(2)
KET0 = basis_state(2, 0)
IDENT2 = HermitianOperator(np.eye(2))


def product_state(a, b):
    return DensityOperator(np.kron(a.matrix, b.matrix), (a.dim, b.dim))


def fidelity_to_uniform(rho, sigma):
    """F(rho_AB, 1_A (x) sigma_B) = ||sqrt(rho) (1 (x) sqrt(sigma))||_1^2."""
    def sqrtm(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    da = rho.dims[0]
    prod = sqrtm(rho.matrix) @ np.kron(np.eye(da), sqrtm(sigma))
    return float(np.linalg.svd(prod, compute_uv=False).sum()) ** 2


class TestDmax:
    def test_self(self):
        assert d_max(PI, PI.op) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_vs_identity(self):
        assert d_max(PI, IDENT2) == pytest.approx(-1.0)

    def test_pure_vs_mixed(self):
        assert d_max(KET0, PI.op) == pytest.approx(1.0)

    def test_support_violation_is_infinite(self):
        assert d_max(KET0, basis_state(2, 1).op) == math.inf

    def test_sdp_path_agrees(self, rng):
        for _ in range(5):
            rho = DensityOperator(_sampling.random_density_matrices(rng, 3, 1)[0])
            sig = DensityOperator(_sampling.random_density_matrices(rng, 3, 1)[0])
            assert d_max_sdp(rho, sig.op) == pytest.approx(d_max(rho, sig.op),
                                                           abs=1e-6)

    def test_data_processing(self, rng):
        ch = depolarizing(0.35)
        for _ in range(10):
            rho = DensityOperator(_sampling.random_density_matrices(rng, 2, 1)[0])
            sig = DensityOperator(_sampling.random_density_matrices(rng, 2, 1)[0])
            before = d_max(rho, sig.op)
            after = d_max(apply(ch, rho), apply(ch, sig).op)
            assert after <= before + 1e-9


class TestRenyi:
    def test_half_order_is_log_fidelity(self):
        assert sandwiched_renyi(0.5, KET0, PI.op) == pytest.approx(1.0)

    def test_petz_zero_is_projector_overlap(self):
        assert petz_renyi(0, KET0, PI.op) == pytest.approx(1.0)

    def test_self_is_zero(self, rng):
        rho = DensityOperator(_sampling.random_density_matrices(rng, 3, 1)[0])
        for alpha in (0.5, 0.9, 1.0, 1.5, 2.0):
            assert petz_renyi(min(alpha, 2.0), rho, rho.op) == pytest.approx(
                0.0, abs=1e-9)
            if alpha >= 0.5:
                assert sandwiched_renyi(alpha, rho, rho.op) == pytest.approx(
                    0.0, abs=1e-9)

    def test_alpha_monotone(self, rng):
        grid = (0.5, 0.9, 1.1, 2.0, math.inf)
        for _ in range(10):
            rho = DensityOperator(_sampling.random_density_matrices(rng, 3, 1)[0])
            sig = DensityOperator(_sampling.random_density_matrices(rng, 3, 1)[0])
            vals = [sandwiched_renyi(a, rho, sig.op) for a in grid]
            assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))

    def test_infinite_order_is_dmax(self, rng):
        rho = DensityOperator(_sampling.random_density_matrices(rng, 2, 1)[0])
        sig = DensityOperator(_sampling.random_density_matrices(rng, 2, 1)[0])
        assert sandwiched_renyi(math.inf, rho, sig.op) == pytest.approx(
            d_max(rho, sig.op), abs=1e-10)

    def test_validity_windows(self):
        with pytest.raises(ValueError):
            sandwiched_renyi(0.3, PI, PI.op)
        with pytest.raises(ValueError):
            petz_renyi(2.5, PI, PI.op)
        with pytest.raises(ValueError):
            RenyiOrder(-1.0)


class TestHypothesisTesting:
    def test_zero_error_projector_form(self):
        assert d_hypothesis(0, KET0, PI.op) == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
    def test_self_test_closed_form(self, eps, rng):
        rho = DensityOperator(_sampling.random_density_matrices(rng, 3, 1)[0])
        got = d_hypothesis(eps, rho, rho.op)
        assert got == pytest.approx(-math.log2(1 - eps), abs=1e-6)

    def test_sandwich_chain(self, rng):
        eps = 0.25
        for _ in range(8):
            rho = DensityOperator(_sampling.random_density_matrices(rng, 2, 1)[0])
            sig = DensityOperator(_sampling.random_density_matrices(rng, 2, 1)[0])
            dh = d_hypothesis(eps, rho, sig.op)
            low = petz_renyi(0, rho, sig.op) + math.log2(1 / (1 - eps))
            high = d_max(rho, sig.op) + math.log2(1 / (1 - eps))
            assert low - 1e-6 <= dh <= high + 1e-6

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            d_hypothesis(1.0, PI, PI.op)


class TestConditionalEntropies:
    def test_product_with_mixed_a(self, rng):
        sig = DensityOperator(_sampling.random_density_matrices(rng, 2, 1)[0])
        rho = product_state(PI, sig)
        assert cond_min_entropy_up(rho) == pytest.approx(1.0, abs=1e-7)
        assert cond_min_entropy_down(rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_product(self):
        rho = product_state(KET0, KET0)
        assert cond_min_entropy_up(rho) == pytest.approx(0.0, abs=1e-7)
        assert cond_min_entropy_down(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_entangled(self):
        assert cond_min_entropy_up(PHI) == pytest.approx(-1.0, abs=1e-7)
        assert cond_min_entropy_down(PHI) == pytest.approx(-1.0, abs=1e-9)
        assert cond_min_entropy_down_sdp(PHI) == pytest.approx(-1.0, abs=1e-6)

    def test_down_below_up(self):
        for rho in random_two_qubit_states(55, 30):
            assert cond_min_entropy_down(rho) <= cond_min_entropy_up(rho) + 1e-9

    def test_hypothesis_entropy_closed_forms(self):
        assert cond_hypothesis_entropy(0, product_state(KET0, KET0)) \
            == pytest.approx(0.0, abs=1e-12)
        assert cond_hypothesis_entropy(0, PHI) == pytest.approx(-1.0, abs=1e-12)
        assert cond_hypothesis_entropy(0, product_state(PI, PI)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_hypothesis_entropy_eps_behavior(self):
        # relaxing the test constraint can only shrink the optimal value,
        # so the entropy (an erasure cost) is nonincreasing in eps
        vals = [cond_hypothesis_entropy(e, PHI) for e in (0.0, 0.1, 0.3)]
        assert vals[0] >= vals[1] - 1e-7 >= vals[2] - 2e-7
        # and the chain D_0 <= D_H^eps - log(1/(1-eps)) <= D_max pins Phi
        assert vals[1] == pytest.approx(-1 - math.log2(1 / 0.9), abs=1e-6)

    def test_duality_via_fidelity(self, rng):
        # for pure psi_ABC: S_min(A|B) = -log2 sup_sigma F(rho_AC, 1 x sigma)
        for _ in range(4):
            psi = pure_state(_sampling.random_pure_vectors(rng, 8, 1)[0],
                             (2, 2, 2))
            rho_ab = DensityOperator(partial_trace(psi.op, [0, 1]).matrix, (2, 2))
            rho_ac = DensityOperator(partial_trace(psi.op, [0, 2]).matrix, (2, 2))
            lhs = cond_min_entropy_up(rho_ab)
            rhs = -math.log2(max_fidelity_uniform(rho_ac))
            assert lhs == pytest.approx(rhs, abs=1e-6)


def down_reference(m, da, db):
    """-D_max(rho || 1 (x) rho_B) through d_max, one state at a time."""
    rho = DensityOperator(m, (da, db), subnormalized=True)
    marg = partial_trace(rho.op, [1]).matrix
    return -d_max(rho, HermitianOperator(np.kron(np.eye(da), marg)))


def hypothesis_zero_reference(m, da, db):
    """log2 lambda_max(tr_A Pi_rho) through support_projector."""
    red = np.einsum("ikil->kl", support_projector(m).reshape(da, db, da, db))
    return math.log2(np.linalg.eigvalsh(red).max())


def cost_inputs(ch):
    """The rank-deficient states channel_costs evaluates at mu = 0: basis
    products |i>|j> through id (x) N, ordered (A, R), and isometric
    extension outputs of basis states, ordered (A, E)."""
    prep = [permute_systems(apply(ch, basis_state(4, i, (2, 2)), 1).op, (1, 0)).matrix
            for i in range(4)]
    eras = [stinespring_output(ch, basis_state(2, k)).matrix for k in range(2)]
    return np.stack(prep), np.stack(eras)


class TestBatchedClosedForms:
    CHANNELS = [depolarizing(0.3), depolarizing(1.0)] + random_qubit_channels(59, 3)

    def two_qubit_stack(self):
        mats = [rho.matrix for rho in random_two_qubit_states(58, 6)]
        mats += [rho.matrix for rho in random_two_qubit_states(58, 4, rank=1)]
        mats += [m for ch in self.CHANNELS for m in cost_inputs(ch)[0]]
        return np.stack(mats)

    def test_down_many_matches_dmax(self):
        stack = self.two_qubit_stack()
        got = cond_min_entropy_down_many(stack, 2, 2)
        ref = [down_reference(m, 2, 2) for m in stack]
        assert np.abs(got - ref).max() < 1e-12
        assert cond_min_entropy_down(DensityOperator(stack[0], (2, 2))) \
            == pytest.approx(got[0], abs=1e-12)

    def test_down_many_leaves_support_like_dmax(self):
        # rho_B has weight 5e-10 below the support cutoff: D_max = +inf
        m = np.diag([1 - 5e-10, 0.0, 0.0, 5e-10]).astype(complex)
        assert down_reference(m, 2, 2) == -math.inf
        assert cond_min_entropy_down_many(m[None], 2, 2)[0] == -math.inf

    def test_hypothesis_zero_many_matches_projector(self):
        stack = self.two_qubit_stack()
        got, ok = cond_hypothesis_entropy_many(0.0, stack, 2, 2)
        ref = [hypothesis_zero_reference(m, 2, 2) for m in stack]
        assert ok.all()
        assert np.abs(got - ref).max() < 1e-12
        for ch in self.CHANNELS:
            eras = cost_inputs(ch)[1]
            de = eras.shape[1] // 2
            got, ok = cond_hypothesis_entropy_many(0.0, eras, 2, de)
            ref = [hypothesis_zero_reference(m, 2, de) for m in eras]
            assert ok.all()
            assert np.abs(got - ref).max() < 1e-12


def hypothesis_reference(eps, rho):
    """S_H(A|B) at eps > 0 through one SDP built for this state alone,
    constraint by constraint (the scalar construction)."""
    da, db = rho.dims
    dab = da * db
    basis = hermitian_basis(dab)
    n = db + 1 + 2 * dab
    m = dab * dab + 1
    a = np.zeros((m, n, n), dtype=complex)
    b = np.zeros(m)
    z0, y0 = db + 1, db + 1 + dab
    for k, ek in enumerate(basis):
        a[k, :db, :db] = -np.einsum("ikil->kl", ek.reshape(da, db, da, db))
        a[k, db, db] = np.real(np.trace(ek @ rho.matrix))
        a[k, z0:y0, z0:y0] = -ek
        a[k, y0:, y0:] = ek
    a[m - 1, :db, :db] = np.eye(db)
    b[m - 1] = 1.0
    c = np.zeros((n, n), dtype=complex)
    c[db, db] = 1.0 - eps
    c[z0:y0, z0:y0] = -np.eye(dab)
    res = sdp.solve_stack(c, a, b, "max", (db, 1, dab, dab))
    return math.log2(max(float(res["primal_value"][0]), 1e-300)), bool(res["ok"][0])


class TestHypothesisMany:
    STATES = random_two_qubit_states(63, 2) + random_two_qubit_states(64, 1, rank=2) \
        + [stinespring_output(depolarizing(0.3), PI)]

    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_matches_scalar_reference(self, eps):
        for dims in ((2, 2), (2, 4)):
            states = [rho for rho in self.STATES if rho.dims == dims]
            vals, ok = cond_hypothesis_entropy_many(
                eps, np.stack([rho.matrix for rho in states]), *dims)
            ref = [hypothesis_reference(eps, rho) for rho in states]
            assert list(zip(vals.tolist(), ok.tolist())) == ref
            assert cond_hypothesis_entropy(eps, states[-1]) == ref[-1][0]

    def test_substacks_match_scalar_reference(self):
        # more states than two sub-stacks, so the last one is partial
        states = random_two_qubit_states(65, 19)
        assert 2 * SUBSTACK < len(states) < 3 * SUBSTACK
        vals, ok = cond_hypothesis_entropy_many(
            0.05, np.stack([rho.matrix for rho in states]), 2, 2)
        ref = [hypothesis_reference(0.05, rho) for rho in states]
        assert list(zip(vals.tolist(), ok.tolist())) == ref

    def test_failure_masks_only_its_state(self, monkeypatch):
        # instance 3 of the second sub-stack fails: only its entry is not ok
        states = np.stack([rho.matrix for rho in random_two_qubit_states(66, 19)])
        real = sdp.solve_stack
        calls = []

        def patched(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(len(res["ok"]))
            if len(calls) == 2:
                res["ok"][3] = False
            return res

        monkeypatch.setattr(sdp, "solve_stack", patched)
        vals, ok = cond_hypothesis_entropy_many(0.3, states, 2, 2)
        assert calls == [SUBSTACK, SUBSTACK, 19 - 2 * SUBSTACK]
        assert ok.tolist() == [i != SUBSTACK + 3 for i in range(19)]
        assert np.isfinite(vals).all()

    def test_scalar_raises_when_not_certified(self, monkeypatch):
        real = sdp.solve_stack

        def patched(*args, **kwargs):
            res = real(*args, **kwargs)
            res["ok"][0] = False
            return res

        monkeypatch.setattr(sdp, "solve_stack", patched)
        vals, ok = cond_hypothesis_entropy_many(0.1, PHI.matrix[None], 2, 2)
        assert not ok[0]
        with pytest.raises(sdp.SdpFailure):
            cond_hypothesis_entropy(0.1, PHI)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            cond_hypothesis_entropy_many(1.0, PHI.matrix[None], 2, 2)


class TestSmoothing:
    def test_ball_membership(self):
        shrunk = 0.995 * PHI.matrix
        outside = product_state(PI, PI).matrix
        negative = PHI.matrix - 1e-6 * np.eye(4)
        cands = np.stack([PHI.matrix, shrunk, outside, negative])
        assert _in_ball(PHI.matrix[None], cands[None], 0.1).tolist() \
            == [[True, True, False, False]]
        # one mask row per center
        mask = _in_ball(np.stack([PHI.matrix, outside]),
                        np.stack([cands[:2], cands[2:]]), 0.1)
        assert mask.tolist() == [[True, True], [True, False]]

    def test_zero_eps_exact(self):
        got = smooth_min_entropy_lower_bound(0.0, PHI)
        assert got == pytest.approx(cond_min_entropy_up(PHI), abs=1e-9)

    def test_center_feasibility(self):
        assert smooth_min_entropy_lower_bound(0.1, PHI) >= -1.0 - 1e-9

    def test_monotone_in_eps(self):
        for rho in random_two_qubit_states(56, 6):
            b1 = smooth_min_entropy_lower_bound(0.1, rho)
            b2 = smooth_min_entropy_lower_bound(0.2, rho)
            base = smooth_min_entropy_lower_bound(0.0, rho)
            assert base <= b1 + 1e-12 <= b2 + 2e-12

    def test_down_variant(self):
        for rho in random_two_qubit_states(57, 3):
            base = cond_min_entropy_down(rho)
            got = smooth_min_entropy_lower_bound(0.15, rho, variant="down")
            assert got >= base - 1e-9

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            smooth_min_entropy_lower_bound(0.1, PHI, variant="sideways")


class TestMaxFidelityUniform:
    def test_maximally_entangled(self):
        assert max_fidelity_uniform(PHI) == pytest.approx(0.5, abs=1e-9)

    def test_product(self, rng):
        sig = DensityOperator(_sampling.random_density_matrices(rng, 2, 1)[0])
        rho = product_state(PI, sig)
        assert max_fidelity_uniform(rho) == pytest.approx(2.0, abs=1e-7)

    def test_full_rank_dominates_sampled_sigmas(self, rng):
        # rank 4 = d: the support reduction keeps every eigenvector
        for rho in random_two_qubit_states(61, 3):
            assert np.linalg.matrix_rank(rho.matrix) == 4
            best = max_fidelity_uniform(rho)
            for sig in _sampling.random_density_matrices(rng, 2, 6):
                assert best >= fidelity_to_uniform(rho, sig) - 1e-9

    def test_rank_two_stinespring_outputs_dominate_sampled_sigmas(self, rng):
        inputs = _sampling.random_density_matrices(rng, 2, 3)
        for ch, rho_in in zip(random_qubit_channels(62, 3), inputs):
            rho = stinespring_output(ch, DensityOperator(rho_in))
            assert np.linalg.matrix_rank(rho.matrix, tol=1e-9) == 2
            best = max_fidelity_uniform(rho)
            for sig in _sampling.random_density_matrices(rng, rho.dims[1], 6):
                assert best >= fidelity_to_uniform(rho, sig) - 1e-9
