import math

import numpy as np
import pytest

from minent import _sampling
from minent.entropies import _in_ball
from minent.linalg import (DensityOperator, HermitianOperator, fidelity,
                           herm_eig, hermitian_basis, maximally_entangled,
                           maximally_mixed, partial_trace, partial_transpose,
                           pauli, permute_systems, psd_sqrt, pure_state,
                           tensor, trace_norm)

from conftest import basis_state


def random_hermitian(gen, d):
    m = _sampling.complex_ginibre(gen, (d, d))
    return (m + m.conj().T) / 2


def random_density(gen, d, dims=None):
    return DensityOperator(_sampling.random_density_matrices(gen, d, 1)[0], dims)


class TestTypes:
    def test_hermitian_validation(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            HermitianOperator(np.eye(4), dims=(2, 3))
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[np.nan, 0], [0, 1]]))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.4, 0.4]))
        sub = DensityOperator(np.diag([0.4, 0.4]), subnormalized=True)
        assert sub.trace() == pytest.approx(0.8)

    def test_matrices_frozen(self):
        op = maximally_mixed(2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestHermEig:
    def test_identity(self):
        w, _ = herm_eig(HermitianOperator(np.eye(2)))
        assert np.allclose(w, [1, 1])

    def test_pauli_z(self):
        w, _ = herm_eig(HermitianOperator(pauli("z")))
        assert np.allclose(w, [1, -1])

    def test_reconstruction_random(self, rng):
        for d in (3, 8, 33, 64):
            h = random_hermitian(rng, d)
            w, v = herm_eig(HermitianOperator(h))
            assert np.all(np.diff(w) <= 1e-12)
            assert np.linalg.norm((v * w) @ v.conj().T - h) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0

    def test_density_operator(self, rng):
        assert trace_norm(random_density(rng, 5).matrix) == pytest.approx(1.0)

    def test_bell_vs_product(self):
        diff = maximally_entangled(2).matrix - np.eye(4) / 4
        assert trace_norm(diff) == pytest.approx(1.5, abs=1e-12)

    def test_dominates_trace(self, rng):
        for _ in range(20):
            m = _sampling.complex_ginibre(rng, (4, 4))
            assert trace_norm(m) >= abs(np.trace(m)) - 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            trace_norm(np.zeros((2, 3)))


class TestFidelity:
    def test_self(self, rng):
        rho = random_density(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal(self):
        assert fidelity(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(0.0)

    def test_pure_vs_mixed(self):
        got = fidelity(basis_state(2, 0), maximally_mixed(2))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self, rng):
        a, b = random_density(rng, 3), random_density(rng, 3)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(maximally_mixed(2), maximally_mixed(3))

    def test_fuchs_van_de_graaf(self, rng):
        for _ in range(20):
            a, b = random_density(rng, 4), random_density(rng, 4)
            f = fidelity(a, b)
            t = 0.5 * trace_norm(a.matrix - b.matrix)
            assert 1 - math.sqrt(f) <= t + 1e-9
            assert t <= math.sqrt(1 - f) + 1e-9

    def test_generalized_for_subnormalized(self):
        rho = maximally_mixed(2)
        shrunk = DensityOperator(0.75 * rho.matrix, subnormalized=True)
        # F_gen = (sqrt(0.75) + sqrt(0.25 * 0)) ^ 2 when the other is normalized
        assert fidelity(shrunk, rho) == pytest.approx(0.75, abs=1e-12)


def within(rho, sigma, eps) -> bool:
    """Whether sigma lies within purified distance eps of rho, as the
    smoothing-ball check `entropies._in_ball` decides it for every
    smoothing candidate: with the generalized fidelity."""
    return bool(_in_ball(rho.matrix, sigma.matrix[None], eps)[0])


class TestPurifiedDistance:
    def test_self(self, rng):
        rho = random_density(rng, 3)
        assert within(rho, rho, 1e-6)

    def test_orthogonal(self):
        ket0, ket1 = basis_state(2, 0), basis_state(2, 1)
        assert within(ket0, ket1, 1.0)
        assert not within(ket0, ket1, 1.0 - 1e-9)

    def test_half(self):
        ket0, pi = basis_state(2, 0), maximally_mixed(2)
        assert within(ket0, pi, math.sqrt(0.5))
        assert not within(ket0, pi, math.sqrt(0.5) - 1e-9)


class TestTensorStructure:
    def test_partial_trace_product(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        ab = tensor(a.op, b.op)
        back = partial_trace(ab, keep=[0])
        assert np.allclose(back.matrix, a.matrix, atol=1e-12)

    def test_partial_trace_bell(self):
        marg = partial_trace(maximally_entangled(2).op, keep=[0])
        assert np.allclose(marg.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 4, (2, 2))
        assert partial_trace(rho.op, [1]).trace() == pytest.approx(1.0)

    def test_invalid_subsystem(self):
        with pytest.raises(ValueError):
            partial_trace(maximally_entangled(2).op, [2])

    def test_tensor_dims(self):
        t = tensor(maximally_mixed(2).op, maximally_mixed(3).op)
        assert t.dims == (2, 3)
        assert t.trace() == pytest.approx(1.0)

    def test_pauli_product_squares_to_identity(self):
        xz = tensor(HermitianOperator(pauli("x")), HermitianOperator(pauli("z")))
        assert np.allclose(xz.matrix @ xz.matrix, np.eye(4))

    def test_partial_transpose_bell(self):
        pt = partial_transpose(maximally_entangled(2).op, 1)
        assert np.linalg.eigvalsh(pt.matrix).min() == pytest.approx(-0.5)
        assert pt.trace() == pytest.approx(1.0)

    def test_partial_transpose_involution(self, rng):
        rho = random_density(rng, 4, (2, 2))
        twice = partial_transpose(partial_transpose(rho.op, 0), 0)
        assert np.allclose(twice.matrix, rho.matrix, atol=1e-14)

    def test_partial_transpose_product_stays_psd(self, rng):
        a, b = random_density(rng, 2), random_density(rng, 2)
        pt = partial_transpose(tensor(a.op, b.op), 1)
        assert np.linalg.eigvalsh(pt.matrix).min() >= -1e-12

    def test_permute_systems_swap(self, rng):
        a, b = random_density(rng, 2), random_density(rng, 3)
        ab = tensor(a.op, b.op)
        ba = permute_systems(ab, (1, 0))
        assert ba.dims == (3, 2)
        assert np.allclose(ba.matrix, np.kron(b.matrix, a.matrix), atol=1e-14)


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3)
    assert basis.shape == (9, 3, 3)
    gram = np.einsum("aij,bji->ab", basis, basis)
    assert np.allclose(gram, np.eye(9), atol=1e-12)


def test_psd_sqrt_squares_back(rng):
    m = _sampling.random_density_matrices(rng, 5, 1)[0]
    r = psd_sqrt(m)
    assert np.allclose(r @ r, m, atol=1e-10)
