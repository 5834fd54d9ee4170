import numpy as np
import pytest

from minent import _sampling, sdp
from minent.channels import (_diamond_objective, _diamond_problem_data,
                             choi_matrix)
from minent.linalg import hermitian_basis, maximally_entangled
from minent.sdp import (SdpProblem, embed_hermitian, embed_matrix, solve,
                        solve_stack)

from conftest import random_qubit_channels


def cond_min_problem(rho, da, db, scale=1.0):
    """min tr(sigma) s.t. 1_A (x) sigma >= rho, as a block SDP."""
    dab = da * db
    n = db + dab
    basis = hermitian_basis(dab)
    cons = []
    for ek in basis:
        a = np.zeros((n, n), dtype=complex)
        a[:db, :db] = -np.einsum("ikil->kl", ek.reshape(da, db, da, db))
        a[db:, db:] = ek
        cons.append((a, -np.real(np.trace(ek @ rho))))
    c = np.zeros((n, n), dtype=complex)
    c[:db, :db] = scale * np.eye(db)
    return SdpProblem(c, tuple(cons), "min", (db, dab))


class TestEmbedding:
    def test_pauli_y(self):
        e = embed_matrix(np.array([[0, -1j], [1j, 0]]))
        assert e.shape == (4, 4)
        assert np.allclose(e, e.T)
        assert np.allclose(np.sort(np.linalg.eigvalsh(e)), [-1, -1, 1, 1])

    def test_real_symmetric_duplicates(self):
        m = np.array([[2.0, 1.0], [1.0, 0.0]])
        e = embed_matrix(m)
        assert np.allclose(e[:2, :2], m) and np.allclose(e[2:, 2:], m)
        assert np.allclose(e[:2, 2:], 0)

    def test_identity(self):
        assert np.allclose(embed_matrix(np.eye(3)), np.eye(6))

    def test_problem_embedding_doubles_values(self):
        prob = cond_min_problem(maximally_entangled(2).matrix, 2, 2)
        emb = embed_hermitian(prob)
        assert emb.dim == 2 * prob.dim
        assert emb.constraints[0][1] == pytest.approx(2 * prob.constraints[0][1])
        # the embedded problem is real symmetric, block structure intact,
        # and solves to exactly twice the Hermitian optimum
        assert all(np.abs(a.imag).max() == 0 for a, _ in emb.constraints)
        sol_c = solve(prob)
        sol_r = solve(emb)
        assert sol_r.primal_value == pytest.approx(2 * sol_c.primal_value,
                                                   abs=1e-6)


class TestSolve:
    def test_pure_product(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        sol = solve(cond_min_problem(rho, 2, 2))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

    def test_maximally_entangled(self):
        sol = solve(cond_min_problem(maximally_entangled(2).matrix, 2, 2))
        assert sol.status == "optimal"
        # brute force over sigma (symmetry reduces to c*I) gives 2
        assert sol.primal_value == pytest.approx(2.0, abs=1e-7)
        assert sol.duality_gap <= 1e-7
        assert sol.primal_residual <= 1e-8

    def test_dmax_instance_matches_eigen_formula(self, rng):
        # min tr sigma reproduces 2^{-Smin}; compare against the pure-state
        # closed form (sum of Schmidt coefficients)^2
        v = _sampling.random_pure_vectors(rng, 4, 1)[0]
        rho = np.outer(v, v.conj())
        sol = solve(cond_min_problem(rho, 2, 2))
        sv = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
        assert sol.primal_value == pytest.approx(float(sv.sum() ** 2), abs=1e-7)

    def test_weak_duality_along_iterates(self, rng):
        v = _sampling.random_pure_vectors(rng, 8, 1)[0]
        rho = np.outer(v, v.conj())
        sol = solve(cond_min_problem(rho, 2, 4))
        assert sol.status == "optimal"
        for pobj, dobj, pres, dres in sol.iterate_trace:
            if pres < 1e-7 and dres < 1e-7:
                assert dobj <= pobj + 1e-7

    def test_objective_scaling(self, rng):
        m = _sampling.random_density_matrices(rng, 4, 1)[0]
        base = solve(cond_min_problem(m, 2, 2)).primal_value
        scaled = solve(cond_min_problem(m, 2, 2, scale=3.5)).primal_value
        assert scaled == pytest.approx(3.5 * base, rel=1e-6)

    def test_primal_certificate_consistent(self):
        prob = cond_min_problem(maximally_entangled(2).matrix, 2, 2)
        sol = solve(prob)
        x = sol.primal_matrix.matrix
        assert np.trace(prob.objective @ x).real == pytest.approx(
            sol.primal_value, abs=1e-8)
        worst = max(abs(np.trace(a @ x).real - b) for a, b in prob.constraints)
        assert worst < 1e-8
        assert np.linalg.eigvalsh(x).min() > -1e-9

    def test_infeasible(self):
        prob = SdpProblem(np.eye(2, dtype=complex),
                          ((np.eye(2, dtype=complex), -1.0),), "min")
        assert solve(prob).status == "infeasible"

    def test_deterministic(self):
        prob = cond_min_problem(maximally_entangled(2).matrix, 2, 2)
        a = solve(prob)
        b = solve(prob)
        assert a.primal_value == b.primal_value
        assert a.iterations == b.iterations

    def test_max_sense(self):
        # max tr(rho X) s.t. tr X = 1, X >= 0 equals lambda_max(rho)
        rho = np.diag([0.1, 0.2, 0.7]).astype(complex)
        prob = SdpProblem(rho, ((np.eye(3, dtype=complex), 1.0),), "max")
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(0.7, abs=1e-7)
        assert sol.dual_value >= sol.primal_value - 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            SdpProblem(np.array([[0, 1], [0, 0]]), (), "min")
        with pytest.raises(ValueError):
            SdpProblem(np.eye(2), (), "maximize")
        with pytest.raises(ValueError):
            SdpProblem(np.eye(2), (), "min", (3,))
        with pytest.raises(ValueError):
            SdpProblem(np.eye(80), (), "min")


class TestSolveStack:
    def test_batched_matches_single(self, rng):
        mats = _sampling.random_density_matrices(rng, 4, 12)
        basis = hermitian_basis(4)
        n = 6
        a = np.zeros((16, n, n), dtype=complex)
        for k, ek in enumerate(basis):
            a[k, :2, :2] = -np.einsum("ikil->kl", ek.reshape(2, 2, 2, 2))
            a[k, 2:, 2:] = ek
        c = np.zeros((n, n), dtype=complex)
        c[:2, :2] = np.eye(2)
        bs = -np.einsum("kij,bji->bk", basis, mats).real
        res = solve_stack(c, a, bs, "min", (2, 4))
        assert all(s == "optimal" for s in res["status_str"])
        for i in (0, 5, 11):
            single = solve(cond_min_problem(mats[i], 2, 2))
            assert res["primal_value"][i] == pytest.approx(single.primal_value,
                                                           abs=1e-6)

    def test_cholesky_fallback_leaves_siblings_alone(self, monkeypatch):
        # qubit diamond-norm instances whose iterates lose definiteness to
        # roundoff, so the batched Cholesky raises inside the stack
        chans = random_qubit_channels(2, 12)
        chois = [choi_matrix(ch, normalized=False).matrix for ch in chans]
        cs = np.stack([_diamond_objective(chois[i] - chois[i + 1], 2, 2)
                       for i in range(0, 12, 2)])
        a, b, blocks = _diamond_problem_data(2, 2)
        fired = []
        chol = sdp._chol_psd

        def spy(m):
            try:
                np.linalg.cholesky(sdp._sym(m))
            except np.linalg.LinAlgError:
                fired.append(m.shape[0])
            return chol(m)

        monkeypatch.setattr(sdp, "_chol_psd", spy)
        res = solve_stack(cs, a, b, "max", blocks)
        assert any(size > 1 for size in fired)
        monkeypatch.undo()
        for i, c in enumerate(cs):
            solo = solve_stack(c, a, b, "max", blocks)
            assert res["status_str"][i] == solo["status_str"][0]
            assert res["iters"][i] == solo["iters"][0]
            assert res["primal_value"][i] == pytest.approx(
                solo["primal_value"][0], abs=1e-11)
