import numpy as np
import pytest
import scipy.linalg

from minent import _sampling, sdp
from minent.channels import (_diamond_objective, _diamond_problem_data,
                             choi_matrix)
from minent.linalg import TOL, hermitian_basis, maximally_entangled
from minent.sdp import _block_slices, embed_matrix, solve_stack

from conftest import random_qubit_channels, random_two_qubit_states


def cond_min_problem(rho, da, db, scale=1.0):
    """min tr(sigma) s.t. 1_A (x) sigma >= rho, as block SDP data
    (c, a, b, blocks) for `solve_stack`."""
    dab = da * db
    n = db + dab
    basis = hermitian_basis(dab)
    a = np.zeros((dab * dab, n, n), dtype=complex)
    a[:, :db, :db] = -np.einsum("nikil->nkl", basis.reshape(-1, da, db, da, db))
    a[:, db:, db:] = basis
    b = -np.einsum("kij,ji->k", basis, rho).real
    c = np.zeros((n, n), dtype=complex)
    c[:db, :db] = scale * np.eye(db)
    return c, a, b, (db, dab)


def solve_one(c, a, b, blocks, sense="min", keep_trace=False):
    """Instance 0 of a solve, as {key: value}; x is the block-diagonal
    primal matrix."""
    res = solve_stack(c, a, b, sense, blocks, keep_trace=keep_trace)
    x = np.zeros(c.shape[-2:], dtype=complex)
    for s_, xb in zip(_block_slices(blocks), res["x_complex"]):
        x[s_, s_] = xb[0]
    one = {k: v[0] for k, v in res.items()
           if k not in ("x_complex", "trace")}
    return dict(one, x=x, trace=res["trace"])


def embed_hermitian(c, a, b, blocks):
    """The real symmetric problem equivalent to a Hermitian one: each block
    embedded by `embed_matrix`, right-hand sides doubled to match the
    doubled inner products."""
    n2 = 2 * c.shape[-1]

    def emb(mat):
        out = np.zeros((n2, n2))
        pos = 0
        for s_ in _block_slices(blocks):
            nb = s_.stop - s_.start
            out[pos:pos + 2 * nb, pos:pos + 2 * nb] = embed_matrix(mat[s_, s_])
            pos += 2 * nb
        return out

    return (emb(c), np.stack([emb(ak) for ak in a]), 2.0 * b,
            tuple(2 * nb for nb in blocks))


RHO3 = np.diag([0.1, 0.2, 0.7]).astype(complex)
EYE3 = np.eye(3, dtype=complex)[None]


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
        emb = embed_hermitian(*prob)
        assert emb[0].shape[-1] == 2 * prob[0].shape[-1]
        assert emb[2][0] == pytest.approx(2 * prob[2][0])
        # the embedded problem is real symmetric, block structure intact,
        # and solves to exactly twice the Hermitian optimum
        assert np.abs(emb[1].imag).max() == 0
        sol_c = solve_one(*prob)
        sol_r = solve_one(*emb)
        assert sol_r["primal_value"] == pytest.approx(
            2 * sol_c["primal_value"], abs=1e-6)


class TestSolve:
    def test_pure_product(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        sol = solve_one(*cond_min_problem(rho, 2, 2))
        assert sol["status_str"] == "optimal" and sol["ok"]
        assert sol["primal_value"] == pytest.approx(1.0, abs=1e-7)

    def test_maximally_entangled(self):
        sol = solve_one(*cond_min_problem(maximally_entangled(2).matrix, 2, 2))
        assert sol["status_str"] == "optimal" and sol["ok"]
        # brute force over sigma (symmetry reduces to c*I) gives 2
        assert sol["primal_value"] == pytest.approx(2.0, abs=1e-7)
        assert sol["gap"] <= 1e-7
        assert sol["pres"] <= 1e-8

    def test_dmax_instance_matches_eigen_formula(self, rng):
        # min tr sigma reproduces 2^{-Smin}; compare against the pure-state
        # closed form (sum of Schmidt coefficients)^2
        v = _sampling.random_pure_vectors(rng, 4, 1)[0]
        rho = np.outer(v, v.conj())
        sol = solve_one(*cond_min_problem(rho, 2, 2))
        sv = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
        assert sol["primal_value"] == pytest.approx(float(sv.sum() ** 2),
                                                    abs=1e-7)

    def test_weak_duality_along_iterates(self, rng):
        v = _sampling.random_pure_vectors(rng, 8, 1)[0]
        rho = np.outer(v, v.conj())
        sol = solve_one(*cond_min_problem(rho, 2, 4), keep_trace=True)
        assert sol["status_str"] == "optimal"
        checked = 0
        for pobj, dobj, pres, dres in sol["trace"]:
            if pres < 1e-7 and dres < 1e-7:
                assert dobj <= pobj + 1e-7
                checked += 1
        # an empty trace would pass the loop vacuously
        assert checked >= 1

    def test_objective_scaling(self, rng):
        m = _sampling.random_density_matrices(rng, 4, 1)[0]
        base = solve_one(*cond_min_problem(m, 2, 2))["primal_value"]
        scaled = solve_one(*cond_min_problem(m, 2, 2, scale=3.5))["primal_value"]
        assert scaled == pytest.approx(3.5 * base, rel=1e-6)

    def test_primal_certificate_consistent(self):
        c, a, b, blocks = cond_min_problem(maximally_entangled(2).matrix, 2, 2)
        sol = solve_one(c, a, b, blocks)
        x = sol["x"]
        assert np.trace(c @ x).real == pytest.approx(sol["primal_value"],
                                                     abs=1e-8)
        worst = np.abs(np.einsum("kij,ji->k", a, x).real - b).max()
        assert worst < 1e-8
        assert np.linalg.eigvalsh(x).min() > -1e-9

    def test_infeasible(self):
        sol = solve_one(np.eye(2, dtype=complex), np.eye(2, dtype=complex)[None],
                        np.array([-1.0]), (2,))
        assert sol["status_str"] == "infeasible" and not sol["ok"]

    def test_deterministic(self):
        prob = cond_min_problem(maximally_entangled(2).matrix, 2, 2)
        a = solve_one(*prob)
        b = solve_one(*prob)
        assert a["primal_value"] == b["primal_value"]
        assert a["iters"] == b["iters"]

    def test_max_sense(self):
        # max tr(rho X) s.t. tr X = 1, X >= 0 equals lambda_max(rho)
        sol = solve_one(RHO3, EYE3, np.array([1.0]), (3,), "max")
        assert sol["status_str"] == "optimal" and sol["ok"]
        assert sol["primal_value"] == pytest.approx(0.7, abs=1e-7)
        assert sol["dual_value"] >= sol["primal_value"] - 1e-7

    def test_validation(self):
        none = np.zeros((0, 2, 2))
        with pytest.raises(ValueError, match="Hermitian"):
            solve_stack(np.array([[0, 1], [0, 0]]), none, [], "min")
        with pytest.raises(ValueError, match="sense"):
            solve_stack(np.eye(2), none, [], "maximize")
        with pytest.raises(ValueError, match="block dims"):
            solve_stack(np.eye(2), none, [], "min", (3,))
        with pytest.raises(ValueError, match="exceeds 64"):
            solve_stack(np.eye(80), np.zeros((0, 80, 80)), [], "min")


class TestSolveStackInput:
    # more cases than test_validation's; each used to solve something, or
    # fail inside the solver
    @pytest.mark.parametrize("args, match", [
        ((RHO3, EYE3, [1.0], "MIN"), "sense"),
        ((RHO3, EYE3, [1.0], "max", (2,)), "block dims"),
        ((RHO3 + 1e-11j * np.triu(np.ones((3, 3)), 1), EYE3, [1.0]),
         "Hermitian"),
        ((RHO3, EYE3 + np.triu(np.ones((3, 3)), 1), [1.0]), "Hermitian"),
        ((np.full((3, 3), np.nan), EYE3, [1.0]), "Hermitian"),
        ((np.stack([RHO3] * 3), EYE3, np.ones((5, 1))), "batch"),
        ((RHO3[:, :2], EYE3, [1.0]), "objective"),
        ((RHO3, np.eye(2)[None], [1.0]), "constraints"),
        ((RHO3, EYE3, [1.0, 2.0]), "rhs"),
        ((np.eye(65), np.eye(65)[None], [1.0]), "exceeds 64"),
    ], ids=["sense-upper", "blocks-short", "objective-above-tol",
            "constraint-nonherm", "objective-nan",
            "batch-mismatch", "objective-shape", "constraint-shape",
            "rhs-length", "dim-cap"])
    def test_rejects(self, args, match):
        with pytest.raises(ValueError, match=match):
            solve_stack(*args)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(instance_blocks={1: np.ones((2, 1, 1, 1))}), "instance block 1"),
        (dict(instance_blocks={1: np.eye(2)[None]}), "instance block 1"),
        (dict(instance_blocks={1: np.ones((2, 2, 2, 2))}), "instance block 1"),
        (dict(instance_blocks={1: np.stack([np.eye(2)[None]] * 2)},
              objective=np.stack([RHO3] * 3)), "batch"),
        (dict(instance_blocks={2: np.stack([np.eye(2)[None]] * 2)}),
         "not a block"),
        (dict(instance_blocks={-1: np.stack([np.eye(2)[None]] * 2)}),
         "not a block"),
        (dict(instance_blocks={1: np.stack([np.triu(np.ones((2, 2)))[None]] * 2)}),
         "Hermitian"),
        (dict(instance_blocks={1: np.full((2, 1, 2, 2), np.nan)}), "Hermitian"),
    ], ids=["block-shape", "block-unbatched", "block-constraint-count",
            "block-batch", "block-index-high", "block-index-negative",
            "block-nonherm", "block-nan"])
    def test_rejects_instance_blocks(self, kwargs, match):
        # blocks (1, 2); a per-instance block 1 is (B, 1, 2, 2)
        args = {"objective": RHO3, "constraints": EYE3, "rhs": [1.0],
                "blocks": (1, 2), **kwargs}
        with pytest.raises(ValueError, match=match):
            solve_stack(**args)

    def test_accepts_roundoff_asymmetry(self):
        # deviations at TOL.herm pass: the callers build their data from
        # products whose Hermiticity holds only to roundoff
        c = RHO3 + TOL.herm * 1j * np.triu(np.ones((3, 3)), 1)
        res = solve_stack(c, EYE3, [1.0], "max")
        assert res["ok"][0]
        assert res["primal_value"][0] == pytest.approx(0.7, abs=1e-7)

    def test_ok_mask_is_optimal_status(self):
        # min tr X s.t. tr X = b: optimal at b = 1, infeasible at b = -1
        res = solve_stack(np.eye(2), np.eye(2)[None], [[1.0], [-1.0]])
        assert res["status_str"] == ["optimal", "infeasible"]
        assert res["ok"].tolist() == [s == "optimal" for s in res["status_str"]]
        assert res["ok"].tolist() == (res["status"] == 0).tolist()


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
        assert res["ok"].all()
        for i in (0, 5, 11):
            single = solve_one(*cond_min_problem(mats[i], 2, 2))
            assert res["primal_value"][i] == pytest.approx(
                single["primal_value"], abs=1e-6)

    def test_cholesky_fallback_leaves_siblings_alone(self, monkeypatch):
        # qubit diamond-norm instances whose iterates lose definiteness to
        # roundoff, so their Cholesky factorization fails inside the stack
        cs, a, b, blocks = diamond_stack(39, 12)
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

    def test_schur_ridge_leaves_siblings_alone(self, monkeypatch):
        # near their optima some diamond-norm instances have a Schur
        # complement whose own Cholesky factorization fails; only those
        # get the ridge, so each instance follows its solo path
        cs, a, b, blocks = diamond_stack(3, 12)
        fired = []
        factor = sdp._schur_inv_factor

        def spy(schur, dscale):
            bad = ~np.isfinite(sdp._chol_each(schur.copy())).all(axis=(-1, -2))
            if bad.any() and not bad.all():
                fired.append(len(schur))
            return factor(schur, dscale)

        monkeypatch.setattr(sdp, "_schur_inv_factor", spy)
        res = solve_stack(cs, a, b, "max", blocks)
        assert fired
        monkeypatch.undo()
        assert_matches_solo(res, cs, a, b, blocks)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_iterate_ends_only_its_instance(self, monkeypatch):
        # an overflow in one instance turns its iterate non-finite; that
        # instance ends with "numerical-error", the others run on unchanged
        cs, a, b, blocks = diamond_stack(3, 12)
        victim = 2
        done = []
        nt_scaling = sdp._nt_scaling

        def poisoned(lx, ls):
            # the first call scales the full stack's first block; its Px
            # sets the victim's primal step
            w, s_inv, px, ps = nt_scaling(lx, ls)
            if not done:
                done.append(True)
                px[victim] = np.inf
            return w, s_inv, px, ps

        monkeypatch.setattr(sdp, "_nt_scaling", poisoned)
        res = solve_stack(cs, a, b, "max", blocks)
        monkeypatch.undo()
        assert res["status_str"][victim] == "numerical-error"
        assert res["iters"][victim] == 1
        others = [i for i in range(len(cs)) if i != victim]
        assert_matches_solo(res, cs, a, b, blocks, others)


class TestInstanceBlocks:
    # per-instance mu column of the hypothesis-testing SDP: each instance
    # must follow the path of its own solo solve with shared constraints
    def test_matches_solo(self):
        c, a, b, blocks, col = hypothesis_stack(71, 11)
        res = solve_stack(c, a, b, "max", blocks, instance_blocks={1: col})
        assert res["ok"].all()
        assert_matches_solo_mu(res, c, a, b, blocks, col)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_iterate_ends_only_its_instance(self, monkeypatch):
        c, a, b, blocks, col = hypothesis_stack(72, 7)
        victim = 4
        done = []
        nt_scaling = sdp._nt_scaling

        def poisoned(lx, ls):
            w, s_inv, px, ps = nt_scaling(lx, ls)
            if not done:
                done.append(True)
                px[victim] = np.inf
            return w, s_inv, px, ps

        monkeypatch.setattr(sdp, "_nt_scaling", poisoned)
        res = solve_stack(c, a, b, "max", blocks, instance_blocks={1: col})
        monkeypatch.undo()
        assert res["status_str"][victim] == "numerical-error"
        assert res["iters"][victim] == 1
        others = [i for i in range(len(col)) if i != victim]
        assert_matches_solo_mu(res, c, a, b, blocks, col, others)


def hypothesis_stack(seed, count, eps=0.1):
    """Shared data (c, a, b, blocks) of the eps > 0 hypothesis-testing SDP
    of S_H(A|B) on two qubits, blocks (sigma, mu, Z, Y), with its mu block
    zero, and the per-instance mu block (count, m, 1, 1) of random states:
    tr(E_k rho)."""
    da = db = 2
    dab = da * db
    basis = hermitian_basis(dab)
    n, m = db + 1 + 2 * dab, dab * dab + 1
    z0, y0 = db + 1, db + 1 + dab
    a = np.zeros((m, n, n), dtype=complex)
    a[:-1, :db, :db] = -np.einsum("nikil->nkl",
                                  basis.reshape(-1, da, db, da, db))
    a[:-1, z0:y0, z0:y0] = -basis
    a[:-1, y0:, y0:] = basis
    a[-1, :db, :db] = np.eye(db)
    b = np.zeros(m)
    b[-1] = 1.0
    c = np.zeros((n, n), dtype=complex)
    c[db, db] = 1.0 - eps
    c[z0:y0, z0:y0] = -np.eye(dab)
    rhos = np.stack([r.matrix for r in random_two_qubit_states(seed, count)])
    col = np.zeros((count, m, 1, 1), dtype=complex)
    col[:, :-1, 0, 0] = np.einsum("kij,nji->nk", basis, rhos).real
    return c, a, b, (db, 1, dab, dab), col


def assert_matches_solo_mu(res, c, a, b, blocks, col, which=None):
    db = blocks[0]
    for i in range(len(col)) if which is None else which:
        a_i = a.copy()
        a_i[:, db, db] = col[i, :, 0, 0]
        solo = solve_stack(c, a_i, b, "max", blocks)
        assert res["status_str"][i] == solo["status_str"][0]
        assert res["iters"][i] == solo["iters"][0]
        assert res["primal_value"][i] == pytest.approx(
            solo["primal_value"][0], abs=1e-11)


def diamond_stack(seed, count):
    """Qubit diamond-norm problems for count/2 differences of channels."""
    chans = random_qubit_channels(seed, count)
    chois = [choi_matrix(ch, normalized=False).matrix for ch in chans]
    cs = np.stack([_diamond_objective(chois[i] - chois[i + 1], 2, 2)
                   for i in range(0, count, 2)])
    return (cs,) + _diamond_problem_data(2, 2)


def assert_matches_solo(res, cs, a, b, blocks, which=None):
    for i in range(len(cs)) if which is None else which:
        solo = solve_stack(cs[i], a, b, "max", blocks)
        assert res["status_str"][i] == solo["status_str"][0]
        assert res["iters"][i] == solo["iters"][0]
        assert res["primal_value"][i] == pytest.approx(
            solo["primal_value"][0], abs=1e-11)


class TestMaxStep:
    @staticmethod
    def reference(xs, ds):
        # largest alpha with X + alpha D >= 0 from the generalized
        # eigenproblem -D v = lambda X v, block by block
        out = []
        for k in range(len(xs[0])):
            lam = max(scipy.linalg.eigh(-d[k], x[k], eigvals_only=True)[-1]
                      for x, d in zip(xs, ds))
            out.append(1.0 / lam if lam > 1e-13 else np.inf)
        return np.array(out)

    @staticmethod
    def stack(rng, count, dims, cond):
        # X = S Q diag(w) Q^T S with random Q, w in [0.1, 1] and the
        # grading S = diag(1 .. cond^-1/2): cond(X) is about `cond`, yet the
        # step is determined to near machine precision by the stored X (a
        # randomly rotated X of condition 1e10 fixes it only to ~1e-7, for
        # any method that starts from a Cholesky factor)
        xs, ds = [], []
        for nb in dims:
            q, _ = np.linalg.qr(rng.normal(size=(count, nb, nb)))
            w = rng.uniform(0.1, 1.0, size=(count, 1, nb))
            grade = np.logspace(0, -0.5 * np.log10(cond), nb)
            core = (q * w) @ q.swapaxes(-1, -2)
            xs.append(sdp._sym(grade[:, None] * core * grade[None, :]))
            ds.append(sdp._sym(rng.normal(size=(count, nb, nb))))
        return xs, ds

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e10])
    def test_matches_generalized_eigenvalues(self, rng, cond):
        xs, ds = self.stack(rng, 20, (4, 8), cond)
        assert np.linalg.cond(xs[1]).max() > 0.1 * cond
        l_inv = [sdp._tri_inv(np.linalg.cholesky(x)) for x in xs]
        step = sdp._max_step(l_inv, ds)
        assert np.all(np.isfinite(step))
        np.testing.assert_allclose(step, self.reference(xs, ds), rtol=1e-8)

    def test_psd_direction_is_unbounded(self, rng):
        xs, ds = self.stack(rng, 10, (4, 8), 1e10)
        ds = [d @ d.swapaxes(-1, -2) for d in ds]
        l_inv = [sdp._tri_inv(np.linalg.cholesky(x)) for x in xs]
        assert np.all(self.reference(xs, ds) == np.inf)
        assert np.all(sdp._max_step(l_inv, ds) == np.inf)


class TestNtScaling:
    @staticmethod
    def pair(rng, cond, pairing):
        # graded X and S as in TestMaxStep.stack; "complementary" grades S
        # the other way round, as X and S are near an optimum (XS ~ mu I)
        xs, dxs = TestMaxStep.stack(rng, 20, (4, 8), cond)
        ss, dss = TestMaxStep.stack(rng, 20, (4, 8), cond)
        if pairing == "complementary":
            ss = [s[..., ::-1, ::-1].copy() for s in ss]
        nt = [sdp._nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(s))
              for x, s in zip(xs, ss)]
        return xs, ss, dxs, dss, nt

    @pytest.mark.parametrize("pairing", ["aligned", "complementary"])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e10])
    def test_factors_from_one_svd(self, rng, cond, pairing):
        xs, ss, _, _, nt = self.pair(rng, cond, pairing)
        eps = np.finfo(float).eps
        for x, s, (w, s_inv, px, ps) in zip(xs, ss, nt):
            eye = np.broadcast_to(np.eye(x.shape[-1]), x.shape)
            scale = np.linalg.norm(x, 2, axis=(-1, -2))[:, None, None]
            np.testing.assert_allclose((w @ s @ w - x) / scale, 0, atol=1e-12)
            np.testing.assert_allclose(px @ x @ px.swapaxes(-1, -2), eye,
                                       atol=1e-12)
            np.testing.assert_allclose(ps @ s @ ps.swapaxes(-1, -2), eye,
                                       atol=1e-12)
            # an inverse is only as accurate as the forward error bound
            # 8 n eps cond(S) lets it be
            bound = max(1e-12, 8 * x.shape[-1] * eps * np.linalg.cond(s).max())
            np.testing.assert_allclose(s_inv @ s, eye, atol=bound)

    @pytest.mark.parametrize("pairing", ["aligned", "complementary"])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e10])
    def test_whitened_steps_match_generalized_eigenvalues(self, rng, cond,
                                                          pairing):
        xs, ss, dxs, dss, nt = self.pair(rng, cond, pairing)
        px = [f[2] for f in nt]
        ps = [f[3] for f in nt]
        np.testing.assert_allclose(sdp._max_step(px, dxs),
                                   TestMaxStep.reference(xs, dxs), rtol=1e-8)
        np.testing.assert_allclose(sdp._max_step(ps, dss),
                                   TestMaxStep.reference(ss, dss), rtol=1e-8)


class TestCholEach:
    @staticmethod
    def mixed(rng):
        # PD, indefinite (one eigenvalue -1e-3), PD, NaN, PD
        a = rng.normal(size=(5, 6, 6))
        m = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(6)
        m[1] -= (np.linalg.eigvalsh(m[1])[0] + 1e-3) * np.eye(6)
        m[3] = np.nan
        return m

    @pytest.mark.filterwarnings("error")
    def test_matches_numpy_and_nans_failures(self, rng):
        m = self.mixed(rng)
        lf = sdp._chol_each(m)
        for i in (0, 2, 4):
            assert np.array_equal(lf[i], np.linalg.cholesky(m[i]))
        for i in (1, 3):
            assert np.isnan(lf[i]).all()

    @pytest.mark.filterwarnings("error")
    def test_single_and_all_failing_stacks(self, rng):
        m = self.mixed(rng)
        assert np.array_equal(sdp._chol_each(m[:1]), np.linalg.cholesky(m[:1]))
        assert np.isnan(sdp._chol_each(m[1:2])).all()
        assert np.isnan(sdp._chol_each(m[[1, 3, 1]])).all()


class TestSchurRidge:
    def test_roundoff_indefinite_takes_first_rung(self, rng):
        # a Schur matrix with spectrum 1e-2 .. 1e14 shifted by -eps ||M||
        # is indefinite only at roundoff: the smallest ridge must fix it,
        # and its PD siblings must come back exactly as factored alone
        m = 8
        eps = np.finfo(float).eps
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        lam = np.r_[1e-2, np.logspace(13, 14, m - 1)]
        victim = sdp._sym((q * lam) @ q.T)
        norm = np.linalg.norm(victim, 2)
        victim -= eps * norm * np.eye(m)
        a = rng.normal(size=(2, m, m))
        sibs = a @ a.swapaxes(-1, -2) + np.eye(m)
        schur = np.stack([sibs[0], victim, sibs[1]])
        assert np.isnan(sdp._chol_each(schur)[1]).all()
        dscale = np.maximum(np.einsum("bii->b", schur) / m, 1.0)

        before = schur.copy()
        li = sdp._schur_inv_factor(schur, dscale)
        ridge = sdp.SCHUR_RIDGES[0] * dscale[1]
        assert ridge <= m * eps * norm
        expect = before[1].copy()
        expect[np.arange(m), np.arange(m)] += ridge
        assert np.array_equal(schur[1], expect)
        assert np.isfinite(li[1]).all()
        for i, sib in ((0, sibs[0]), (2, sibs[1])):
            assert np.array_equal(schur[i], before[i])
            assert np.array_equal(li[i],
                                  sdp._schur_inv_factor(sib[None].copy(),
                                                        dscale[i:i + 1])[0])
