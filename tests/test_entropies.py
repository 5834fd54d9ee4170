import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import _sampling, sdp
from minent.channels import apply, apply_many, depolarizing
from minent.entropies import (_in_ball, cond_hypothesis_entropy,
                              cond_min_entropy_down, cond_min_entropy_down_many,
                              cond_min_entropy_down_sdp, cond_min_entropy_up,
                              d_hypothesis, d_max, d_max_sdp, petz_renyi,
                              sandwiched_renyi, smooth_min_entropy_lower_bound)
from minent.linalg import (TOL, DensityOperator, HermitianOperator,
                           hermitian_basis, maximally_entangled, maximally_mixed,
                           partial_trace, permute_systems, pure_state,
                           support_projector)

from conftest import (basis_state, random_qubit_channels,
                      random_two_qubit_states, stinespring_output)

PI = maximally_mixed(2)
PHI = maximally_entangled(2)
KET0 = basis_state(2, 0)
IDENT2 = HermitianOperator(np.eye(2))


def product_state(a, b):
    return DensityOperator(np.kron(a.matrix, b.matrix), (a.dim, b.dim))


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

    def test_sdp_path_support_violation_is_infinite(self):
        # checked before solving: the one-constraint program is unbounded
        # there, and its iterates would overflow
        assert d_max_sdp(KET0, basis_state(2, 1).op) == math.inf

    def test_sdp_path_badly_scaled_sigma(self):
        # rank-2 rho against a full-rank sigma with
        # lambda_min / lambda_max = 10^U(-6, -3), where the closed form is
        # immediate: the SDP certifies 58 of the first 60 draws of this
        # stream and 29 of the 30 here, and the others must name a status
        gen = np.random.default_rng(2024)
        certified = 0
        for _ in range(30):
            g = gen.normal(size=(4, 2)) + 1j * gen.normal(size=(4, 2))
            h = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
            w, v = np.linalg.eigh(h @ h.conj().T)
            w[0] = w[-1] * 10.0 ** gen.uniform(-6, -3)
            rho = DensityOperator(g @ g.conj().T / np.vdot(g, g).real)
            sig = HermitianOperator((v * w) @ v.conj().T / w.sum())
            try:
                got = d_max_sdp(rho, sig)
            except sdp.SdpFailure as err:
                assert "status max-iterations" in str(err) \
                    or "status numerical-error" in str(err)
                continue
            assert got == pytest.approx(d_max(rho, sig), abs=1e-6)
            certified += 1
        assert certified >= 24

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
        # negative and NaN orders fall outside both windows
        for bad in (-1, math.nan):
            with pytest.raises(ValueError):
                petz_renyi(bad, PI, PI.op)
        for bad in (-math.inf, math.nan):
            with pytest.raises(ValueError):
                sandwiched_renyi(bad, PI, PI.op)


def dh_problem(eps, rho, sigma):
    """min tr(sigma L) s.t. 0 <= L <= 1, tr(rho L) >= 1 - eps, the
    hypothesis test behind `d_hypothesis`, as SDP data (c, a, b) for
    `sdp.solve_stack` with sense "min": blocks L (d), K = 1 - L (d) and
    the slack s of the error constraint (1), one equality L + K = 1 per
    element E_k of the Hermitian basis and tr(rho L) - s = 1 - eps."""
    d = rho.dim
    basis = hermitian_basis(d)
    a = [np.concatenate([basis, rho.matrix[None]]),
         np.concatenate([basis, np.zeros((1, d, d))]),
         np.concatenate([np.zeros((d * d, 1, 1)), -np.ones((1, 1, 1))])]
    b = np.append(np.einsum("kii->k", basis).real, 1.0 - eps)
    return [sigma.matrix, np.zeros((d, d)), np.zeros((1, 1))], a, b


def dh_interval(eps, rho, sigma):
    """An interval that holds the minimum test value beta, from the
    certified solve of `dh_problem`.

    The primal blocks X meet the constraints to pres, below
    TOL.sdp_feas, so with y* the optimal multipliers
    tr(C X) >= beta - |y*| pres, and the returned y stands in for y*. The
    dual value b.y bounds beta from below up to the negative eigenvalues
    of the slack S = C - sum_i y_i A_i: over feasible X, where
    tr L + tr K = d and s <= eps, tr(S X) is at least
    d min(lambda_min(S_L), lambda_min(S_K), 0) + eps min(S_s, 0).
    """
    c, a, b = dh_problem(eps, rho, sigma)
    res = sdp.solve_stack(c, a, b, "min")
    assert res["ok"][0]
    assert res["gap"][0] < TOL.sdp_gap and res["pres"][0] < TOL.sdp_feas
    y = res["y"][0]
    neg = [min(np.linalg.eigvalsh(cb - np.einsum("k,kij->ij", y, ab))[0], 0.0)
           for cb, ab in zip(c, a)]
    return (res["dual_value"][0] + rho.dim * min(neg[:2]) + eps * neg[2],
            res["primal_value"][0] + np.linalg.norm(y) * res["pres"][0])


@st.composite
def dh_cases(draw):
    """(eps, rho, sigma): d in {2, 3, 4}, each state of a drawn rank.

    eps stays in [1e-4, 1 - 1e-4], where the reference certifies: at
    eps = 1e-6 its solve ends max-iterations for a third of drawn pairs.
    """
    d = draw(st.integers(2, 4))
    gen = _sampling.stream(draw(st.integers(0, 2 ** 32)), 0xD4)
    rho, sigma = (DensityOperator(_sampling.random_density_matrices(
        gen, d, 1, rank=draw(st.integers(1, d)))[0]) for _ in range(2))
    return draw(st.floats(1e-4, 1 - 1e-4)), rho, sigma


class TestHypothesisTesting:
    def test_zero_error_projector_form(self):
        assert d_hypothesis(0, KET0, PI.op) == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [1e-6, 0.05, 0.2, 0.5])
    def test_self_test_closed_form(self, eps, rng):
        rho = DensityOperator(_sampling.random_density_matrices(rng, 3, 1)[0])
        got = d_hypothesis(eps, rho, rho.op)
        assert got == pytest.approx(-math.log2(1 - eps), abs=1e-12)

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

    # a test on the kernel of sigma alone reaches tr(rho L) >= 1 - eps,
    # so beta = 0
    @pytest.mark.parametrize("rho, eps", [
        (KET0, 0.1),
        (pure_state(np.sqrt([0.8, 0.2])), 0.3),
    ], ids=["orthogonal", "kernel-weight-0.8"])
    def test_infinite_when_beta_is_zero(self, rho, eps):
        assert d_hypothesis(eps, rho, basis_state(2, 1).op) == math.inf

    def test_kernel_weight_short_of_the_error(self):
        # the best test projects onto the vector u at |<u|v>|^2 = 0.9 on
        # the side of |0>, u = (cos t, sin t) with sin^2 t = 1 / 50
        rho = pure_state(np.sqrt([0.8, 0.2]))
        got = d_hypothesis(0.1, rho, basis_state(2, 1).op)
        assert abs(got - math.log2(50)) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=dh_cases())
    def test_within_reference_sdp(self, case):
        eps, rho, sigma = case
        beta = 2.0 ** -d_hypothesis(eps, rho, sigma.op)
        low, high = dh_interval(eps, rho, sigma)
        assert low <= beta <= high


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
    """Rank-deficient states of the kinds the cost scans see: basis
    products |i>|j> through id (x) N, ordered (A, R), as the preparation
    scan evaluates them at mu = 0, and isometric extension outputs of
    basis states, ordered (A, E)."""
    outs = apply_many(ch, np.eye(4), left=2)
    prep = [permute_systems(HermitianOperator(out, (2, 2)), (1, 0)).matrix
            for out in outs]
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
        got = [cond_hypothesis_entropy(0.0, DensityOperator(m, (2, 2)))
               for m in stack]
        ref = [hypothesis_zero_reference(m, 2, 2) for m in stack]
        assert np.abs(np.subtract(got, ref)).max() < 1e-12
        for ch in self.CHANNELS:
            eras = cost_inputs(ch)[1]
            de = eras.shape[1] // 2
            got = [cond_hypothesis_entropy(0.0, DensityOperator(m, (2, de)))
                   for m in eras]
            ref = [hypothesis_zero_reference(m, 2, de) for m in eras]
            assert np.abs(np.subtract(got, ref)).max() < 1e-12


def hypothesis_reference(eps, rho):
    """S_H(A|B) at eps > 0 through one SDP built for this state alone,
    constraint by constraint (the scalar construction)."""
    da, db = rho.dims
    dab = da * db
    basis = hermitian_basis(dab)
    m = dab * dab + 1
    # blocks sigma, mu, Z, Y
    a = [np.zeros((m, nb, nb), dtype=complex) for nb in (db, 1, dab, dab)]
    b = np.zeros(m)
    for k, ek in enumerate(basis):
        a[0][k] = -np.einsum("ikil->kl", ek.reshape(da, db, da, db))
        a[1][k] = np.real(np.trace(ek @ rho.matrix))
        a[2][k] = -ek
        a[3][k] = ek
    a[0][m - 1] = np.eye(db)
    b[m - 1] = 1.0
    c = [np.zeros((db, db)), np.full((1, 1), 1.0 - eps), -np.eye(dab),
         np.zeros((dab, dab))]
    res = sdp.solve_stack(c, a, b, "max")
    return math.log2(max(float(res["primal_value"][0]), 1e-300)), bool(res["ok"][0])


class TestHypothesisMany:
    STATES = random_two_qubit_states(63, 2) + random_two_qubit_states(64, 1, rank=2) \
        + [stinespring_output(depolarizing(0.3), PI)]

    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_matches_scalar_reference(self, eps):
        for dims in ((2, 2), (2, 4)):
            states = [rho for rho in self.STATES if rho.dims == dims]
            vals = [(cond_hypothesis_entropy(eps, rho), True) for rho in states]
            ref = [hypothesis_reference(eps, rho) for rho in states]
            assert vals == ref

    def test_scalar_raises_when_not_certified(self, monkeypatch):
        real = sdp.solve_stack

        def patched(*args, **kwargs):
            res = real(*args, **kwargs)
            res["ok"][0] = False
            return res

        monkeypatch.setattr(sdp, "solve_stack", patched)
        with pytest.raises(sdp.SdpFailure):
            cond_hypothesis_entropy(0.1, PHI)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            cond_hypothesis_entropy(1.0, PHI)


class TestSmoothing:
    def test_ball_membership(self):
        shrunk = 0.995 * PHI.matrix
        outside = product_state(PI, PI).matrix
        negative = PHI.matrix - 1e-6 * np.eye(4)
        cands = np.stack([PHI.matrix, shrunk, outside, negative])
        assert _in_ball(PHI.matrix, cands, 0.1).tolist() \
            == [True, True, False, False]
        # one call per center
        assert _in_ball(outside, cands[2:], 0.1).tolist() == [True, False]

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
