import numpy as np
import pytest
import scipy.linalg

from minent import _sampling, cli, sdp
from minent.channels import (KrausMap, QuantumChannel, _diamond_problem_data,
                             choi_matrix, dephasing2, depolarizing,
                             stinespring_isometry)
from minent.decoupling import _cp_choi_checked
from minent.dynamical import _pure_outputs
from minent.entropies import (_cond_min_up_sides, _hypothesis_dual,
                              cond_min_entropy_down_many,
                              cond_min_entropy_up_many)
from minent.linalg import (TOL, hermitian_basis, hermitian_part,
                           maximally_entangled)
from minent.sdp import solve_stack

from conftest import random_qubit_channels


def cond_min_problem(rho, da, db, scale=1.0):
    """min tr(sigma) s.t. 1_A (x) sigma >= rho, as per-block SDP data
    (c, a, b) for `solve_stack`.

    This is the slack form, blocks (sigma, Y) with Y = 1 (x) sigma - rho
    and (d_A d_B)^2 constraints, not the d_B^2-constraint form that
    `entropies` solves: it exercises the solver on two blocks, and
    `TestCrossForm` holds the library's form against it.
    """
    dab = da * db
    basis = hermitian_basis(dab)
    a = [-np.einsum("nikil->nkl", basis.reshape(-1, da, db, da, db)), basis]
    b = -np.einsum("kij,ji->k", basis, rho).real
    return [scale * np.eye(db), np.zeros((dab, dab))], a, b


def solve_one(c, a, b, sense="min"):
    """Instance 0 of a solve, as {key: value}; x is the list of its
    primal blocks."""
    res = solve_stack(c, a, b, sense)
    one = {k: v[0] for k, v in res.items() if k != "x_complex"}
    return dict(one, x=[xb[0] for xb in res["x_complex"]])


RHO3 = np.diag([0.1, 0.2, 0.7]).astype(complex)
EYE3 = np.eye(3, dtype=complex)[None]


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

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_returned_certificate(self, rng, sense):
        # X and the dual slack S = sgn C - sum y_i A_i are PSD, and the dual
        # value bounds the primal one from the side the sense gives it
        v = _sampling.random_pure_vectors(rng, 8, 1)[0]
        if sense == "min":
            c, a, b = cond_min_problem(np.outer(v, v.conj()), 2, 4)
        else:
            c, a, b = [RHO3], [EYE3], np.array([1.0])
        sol = solve_one(c, a, b, sense)
        assert sol["status_str"] == "optimal"
        sgn = 1.0 if sense == "min" else -1.0
        for cb, ab, xb in zip(c, a, sol["x"]):
            slack = sgn * cb - np.tensordot(sol["y"], ab, 1)
            assert np.linalg.eigvalsh(xb)[0] >= -TOL.psd
            assert np.linalg.eigvalsh(slack)[0] >= -TOL.psd
        assert sgn * (sol["dual_value"] - sol["primal_value"]) <= 1e-7
        assert sol["dual_value"] == pytest.approx(sgn * b @ sol["y"], abs=1e-12)

    def test_objective_scaling(self, rng):
        m = _sampling.random_density_matrices(rng, 4, 1)[0]
        base = solve_one(*cond_min_problem(m, 2, 2))["primal_value"]
        scaled = solve_one(*cond_min_problem(m, 2, 2, scale=3.5))["primal_value"]
        assert scaled == pytest.approx(3.5 * base, rel=1e-6)

    def test_primal_certificate_consistent(self):
        c, a, b = cond_min_problem(maximally_entangled(2).matrix, 2, 2)
        sol = solve_one(c, a, b)
        x = sol["x"]
        assert sum(np.trace(cb @ xb).real for cb, xb in zip(c, x)) == \
            pytest.approx(sol["primal_value"], abs=1e-8)
        lhs = sum(np.einsum("kij,ji->k", ab, xb).real for ab, xb in zip(a, x))
        assert np.abs(lhs - b).max() < 1e-8
        assert min(np.linalg.eigvalsh(xb).min() for xb in x) > -1e-9

    def test_infeasible(self):
        sol = solve_one([np.eye(2, dtype=complex)],
                        [np.eye(2, dtype=complex)[None]], np.array([-1.0]))
        assert sol["status_str"] == "infeasible" and not sol["ok"]

    def test_deterministic(self):
        prob = cond_min_problem(maximally_entangled(2).matrix, 2, 2)
        a = solve_one(*prob)
        b = solve_one(*prob)
        assert a["primal_value"] == b["primal_value"]
        assert a["iters"] == b["iters"]

    def test_max_sense(self):
        # max tr(rho X) s.t. tr X = 1, X >= 0 equals lambda_max(rho)
        sol = solve_one([RHO3], [EYE3], np.array([1.0]), "max")
        assert sol["status_str"] == "optimal" and sol["ok"]
        assert sol["primal_value"] == pytest.approx(0.7, abs=1e-7)
        assert sol["dual_value"] >= sol["primal_value"] - 1e-7

    def test_validation(self):
        none = np.zeros((0, 2, 2))
        with pytest.raises(ValueError, match="Hermitian"):
            solve_stack([np.array([[0, 1], [0, 0]])], [none], [], "min")
        with pytest.raises(ValueError, match="sense"):
            solve_stack([np.eye(2)], [none], [], "maximize")
        with pytest.raises(ValueError, match="one array per block"):
            solve_stack([np.eye(2)], [none, none], [], "min")
        with pytest.raises(ValueError, match="exceeds 64"):
            solve_stack([np.eye(80)], [np.zeros((0, 80, 80))], [], "min")


class TestSolveStackInput:
    # more cases than test_validation's; each used to solve something, or
    # fail inside the solver
    @pytest.mark.parametrize("args, match", [
        (([RHO3], [EYE3], [1.0], "MIN"), "sense"),
        (([RHO3, RHO3], [EYE3], [1.0], "max"), "one array per block"),
        (([RHO3, np.eye(2)], [EYE3, EYE3], [1.0], "max"),
         "the objective block's"),
        (([RHO3, np.eye(2)], [EYE3, np.stack([np.eye(2)] * 2)], [1.0]),
         "share their count m"),
        (([RHO3 + 1e-11j * np.triu(np.ones((3, 3)), 1)], [EYE3], [1.0]),
         "Hermitian"),
        (([RHO3], [EYE3 + np.triu(np.ones((3, 3)), 1)], [1.0]), "Hermitian"),
        (([np.full((3, 3), np.nan)], [EYE3], [1.0]), "Hermitian"),
        (([np.stack([RHO3] * 3)], [EYE3], np.ones((5, 1))), "batch"),
        (([RHO3[:, :2]], [EYE3], [1.0]), "objective"),
        (([np.zeros((0, 0))], [np.zeros((1, 0, 0))], [1.0]), "n_b >= 1"),
        (([RHO3], [np.eye(2)[None]], [1.0]), "constraints"),
        (([RHO3], [EYE3], [1.0, 2.0]), "rhs"),
        (([np.eye(65)], [np.eye(65)[None]], [1.0]), "exceeds 64"),
    ], ids=["sense-upper", "block-count", "block-dim-mismatch",
            "block-m-mismatch", "objective-above-tol",
            "constraint-nonherm", "objective-nan",
            "batch-mismatch", "objective-shape", "block-empty",
            "constraint-shape", "rhs-length", "dim-cap"])
    def test_rejects(self, args, match):
        with pytest.raises(ValueError, match=match):
            solve_stack(*args)

    def test_accepts_roundoff_asymmetry(self):
        # deviations at TOL.herm pass: the callers build their data from
        # products whose Hermiticity holds only to roundoff
        c = RHO3 + TOL.herm * 1j * np.triu(np.ones((3, 3)), 1)
        res = solve_stack([c], [EYE3], [1.0], "max")
        assert res["ok"][0]
        assert res["primal_value"][0] == pytest.approx(0.7, abs=1e-7)

    def test_accepts_any_memory_layout(self):
        # an objective stack held transposed in memory (here the conjugate
        # transpose view of a Hermitian stack, the same matrices) solves
        # bit for bit as its C-ordered copy: the solver copies each block
        # into its own per-size arrays, whose real views it sums
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho[0, 1], rho[1, 0] = 0.05j, -0.05j
        stack = np.stack([rho, 0.5 * rho])
        args = ([np.eye(4)[None] / 4], [1.0], "max")
        res = solve_stack([stack.conj().swapaxes(-1, -2)], *args)
        ref = solve_stack([stack], *args)
        assert res["ok"].all()
        for i in range(2):
            assert instance_bytes(res, i) == instance_bytes(ref, i)

    def test_ok_mask_is_optimal_status(self):
        # min tr X s.t. tr X = b: optimal at b = 1, infeasible at b = -1
        res = solve_stack([np.eye(2)], [np.eye(2)[None]], [[1.0], [-1.0]])
        assert res["status_str"] == ["optimal", "infeasible"]
        assert res["ok"].tolist() == [s == "optimal" for s in res["status_str"]]
        assert res["ok"].tolist() == (res["status"] == 0).tolist()

    def test_max_iterations_status_needs_dual_certificate(self, monkeypatch):
        # min 0 s.t. x = 1, stopped at its starting point x = s = 1: primal
        # feasible with zero gap, but its dual residual is 1, so the same
        # certificate that ends an instance early must refuse it here
        monkeypatch.setattr(sdp, "MAX_ITER", 0)
        res = solve_stack([np.zeros((1, 1))], [np.ones((1, 1, 1))], [1.0])
        assert res["status_str"] == ["max-iterations"]
        assert res["gap"][0] == 0.0 and res["pres"][0] == 0.0
        assert res["dres"][0] == pytest.approx(1.0)


class TestSolveStack:
    def test_batched_matches_single(self, rng):
        mats = _sampling.random_density_matrices(rng, 4, 12)
        basis = hermitian_basis(4)
        a = [np.zeros((16, nb, nb), dtype=complex) for nb in (2, 4)]
        for k, ek in enumerate(basis):
            a[0][k] = -np.einsum("ikil->kl", ek.reshape(2, 2, 2, 2))
            a[1][k] = ek
        bs = -np.einsum("kij,bji->bk", basis, mats).real
        res = solve_stack([np.eye(2), np.zeros((4, 4))], a, bs, "min")
        assert all(s == "optimal" for s in res["status_str"])
        assert res["ok"].all()
        for i in (0, 5, 11):
            single = solve_one(*cond_min_problem(mats[i], 2, 2))
            assert res["primal_value"][i] == pytest.approx(
                single["primal_value"], abs=1e-6)

    def test_compaction_is_exact(self):
        # these 60 qubit diamond norms end at iterations 10 to 23, so the
        # working set is compacted again and again: every field of every
        # instance must come out bit for bit as it does alone
        kraus = _sampling.random_channels_kraus(_sampling.stream(7, 0xBEEF),
                                                2, 2, 2, 120)
        chois = [choi_matrix(QuantumChannel(ks), normalized=False).matrix
                 for ks in kraus]
        js = np.stack([chois[i] - chois[i + 1] for i in range(0, 120, 2)])
        a, b = _diamond_problem_data(2, 2)
        res = solve_diamonds(js, a, b)
        assert (res["iters"].min(), res["iters"].max()) == (10, 23)
        for i, j in enumerate(js):
            assert instance_bytes(res, i) == instance_bytes(
                solve_diamonds(j, a, b), 0)

    def test_several_sizes_are_exact_per_instance(self):
        # the joint erasure SDP of dephasing2 p = 0.4, blocks (2, 2, 4, 4),
        # at five errors eps, so that the objective differs per instance:
        # solved as one stack, each instance comes out bit for bit as it
        # does alone
        eps = np.array([0.02, 0.05, 0.1, 0.2, 0.4])
        c, a, b = erasure_program(dephasing2(0.4), eps)
        res = solve_stack(c, a, b, "max")
        assert res["ok"].all()
        assert len(set(res["primal_value"])) == len(eps)
        for i, e in enumerate(eps):
            assert instance_bytes(res, i) == instance_bytes(
                solve_stack(*erasure_program(dephasing2(0.4), e), "max"), 0)

    @pytest.mark.parametrize("program, calls", [
        ("erasure-depol", 3), ("erasure-deph2", 2), ("diamond", 2),
        ("dmax", 1)])
    def test_lapack_calls_per_block_size(self, monkeypatch, program, calls):
        # each iteration factors every X and S of one block size in one
        # Cholesky call and scales them with one SVD, and takes the steps of
        # each size in one eigvalsh call in each of the predictor and the
        # corrector: blocks (4, 2, 8, 8) make 3 / 3 / 6 calls per
        # iteration, (2, 2, 4, 4) and (4, 4, 2) 2 / 2 / 4, one block 1 / 1 / 2.
        # The SVD and eigvalsh calls are counted at the gufuncs the solver
        # calls
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        args = {"erasure-depol": erasure_program(depolarizing(0.5), 0.06),
                "erasure-deph2": erasure_program(dephasing2(0.4), 0.1),
                "diamond": diamond_stack(39, 2),
                "dmax": ([rho], [np.eye(4)[None] / 4], [1.0])}[program]
        counts = {"chol": 0, "svd": 0, "eigvalsh": 0}

        def counted(name, real):
            def spy(m, *rest, **kwargs):
                # only the complex iterate factors, not the real Schur one
                counts[name] += name != "chol" or m.dtype.kind == "c"
                return real(m, *rest, **kwargs)
            return spy

        monkeypatch.setattr(sdp, "_chol_each",
                            counted("chol", sdp._chol_each))
        for name, kernel in (("svd", "svd_f"), ("eigvalsh", "eigvalsh_lo")):
            monkeypatch.setattr(sdp._umath_linalg, kernel,
                                counted(name, getattr(sdp._umath_linalg,
                                                      kernel)))
        res = (solve_diamonds(*args) if program == "diamond"
               else solve_stack(*args, "max"))
        iters = res["iters"][0]
        assert res["ok"].all() and iters > 0
        assert counts == {"chol": calls * iters, "svd": calls * iters,
                          "eigvalsh": 2 * calls * iters}

    def test_large_haar_stack(self, monkeypatch):
        # 2000 S_min-up instances of one stack, as a Haar scan of
        # dephasing2 p = 0.4 at seed 33 would solve them without pruning;
        # every one certifies and sits at or above its closed-form
        # S_min-down, and the iteration tail stays short (p90 10 here, 16
        # in the slack form of `cond_min_problem`; 40 when certified
        # instances ran on until mu stalled for 8 iterations and sigma
        # could collapse after short steps)
        iters = spy_iterations(monkeypatch)
        ch = dephasing2(0.4)
        vecs = _sampling.random_pure_vectors(_sampling.stream(33, 0xD15C),
                                             4, 2000)
        outs = _pure_outputs(ch, vecs)
        up, ok = cond_min_entropy_up_many(outs, 2, 2)
        assert ok.all()
        down = cond_min_entropy_down_many(outs, 2, 2)
        assert (up >= down - 1e-7).all()
        assert np.percentile(iters[0][1], 90) <= 20

    def test_cholesky_fallback_leaves_siblings_alone(self, monkeypatch):
        # the iterate factorizations of chosen qubit diamond-norm instances
        # fail in the first three iterations, as iterates that lose
        # definiteness to roundoff do; only those take the clamp
        js, a, b = diamond_stack(39, 12)
        victims = [1, 4]
        # one factor call per block size (4 and 2) and iteration covers the
        # X and S of every block of that size, so the victims' X and S
        # factors of every block fail in each of the first three iterations
        calls = 3 * 2
        fired = fail_factors(monkeypatch, "_chol_psd", victims, calls)
        res = solve_diamonds(js, a, b)
        assert any(size > 1 for size in fired)
        assert fired == [len(js)] * calls  # no instance left the stack yet
        monkeypatch.undo()
        for i, j in enumerate(js):
            if i in victims:
                fail_factors(monkeypatch, "_chol_psd", [0], calls)
            solo = solve_diamonds(j, a, b)
            monkeypatch.undo()
            assert res["status_str"][i] == solo["status_str"][0]
            assert res["iters"][i] == solo["iters"][0]
            assert res["primal_value"][i] == pytest.approx(
                solo["primal_value"][0], abs=1e-11)

    def test_schur_ridge_leaves_siblings_alone(self, monkeypatch):
        # the Schur factorizations of chosen diamond-norm instances fail in
        # the first three iterations; only those get the ridge, so each
        # instance follows its solo path
        js, a, b = diamond_stack(3, 12)
        victims = [0, 3]
        fired = fail_factors(monkeypatch, "_schur_inv_factor", victims, 3)
        res = solve_diamonds(js, a, b)
        assert fired
        assert fired == [len(js)] * 3
        assert res["ok"].all()
        monkeypatch.undo()
        assert_matches_solo(res, js, a, b,
                            [i for i in range(len(js)) if i not in victims])
        for i in victims:
            fail_factors(monkeypatch, "_schur_inv_factor", [0], 3)
            assert_matches_solo(res, js, a, b, [i])
            monkeypatch.undo()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_iterate_ends_only_its_instance(self, monkeypatch):
        # an overflow in one instance turns its iterate non-finite; that
        # instance ends with "numerical-error", the others run on unchanged
        js, a, b = diamond_stack(3, 12)
        victim = 2
        done = []
        nt_scaling = sdp._nt_scaling

        def poisoned(lx, ls):
            # the first call scales the full stack's blocks of size 4; the
            # Px of the first of them sets the victim's primal step
            w, s_inv, p = nt_scaling(lx, ls)
            if not done:
                done.append(True)
                p[0, victim, 0] = np.inf
            return w, s_inv, p

        monkeypatch.setattr(sdp, "_nt_scaling", poisoned)
        res = solve_diamonds(js, a, b)
        monkeypatch.undo()
        assert res["status_str"][victim] == "numerical-error"
        assert res["iters"][victim] == 1
        others = [i for i in range(len(js)) if i != victim]
        assert_matches_solo(res, js, a, b, others)

    @pytest.mark.parametrize("kernel", ["eigvalsh_lo", "svd_f"])
    def test_failed_kernel_ends_only_its_instance(self, monkeypatch, kernel):
        # a LAPACK gufunc whose decomposition of one matrix fails writes NaN
        # for that matrix and raises the invalid-value flag; here the first
        # step-length eigvalsh (or NT SVD) call fails for one instance. That
        # instance ends "numerical-error", and every other one comes out
        # bit for bit as it does alone
        js, a, b = diamond_stack(3, 12)
        victim = 2
        real = getattr(sdp._umath_linalg, kernel)
        failed = []

        def failing(m, *args, **kwargs):
            out = real(m, *args, **kwargs)
            if not failed:
                failed.append(True)
                # the first call covers the stack's blocks of size 4; the
                # instances are axis 1 of the (primal, dual) step-length
                # input and axis 0 of the SVD's
                at = (slice(None), victim) if kernel == "eigvalsh_lo" else victim
                for part in out if isinstance(out, tuple) else (out,):
                    part[at] = np.nan
                np.multiply(np.inf, 0.0)  # the flag a failed call raises
            return out

        monkeypatch.setattr(sdp._umath_linalg, kernel, failing)
        res = solve_diamonds(js, a, b)
        monkeypatch.undo()
        assert failed
        assert res["status_str"][victim] == "numerical-error"
        assert res["iters"][victim] == 1
        for i, j in enumerate(js):
            if i != victim:
                assert instance_bytes(res, i) == instance_bytes(
                    solve_diamonds(j, a, b), 0)


def bracket_states(da, db):
    """Seeded states on (da, db): two of rank 2 and two pure ones, plus on
    (2, 2) the subnormalized Choi state of a trace-decreasing map."""
    gen = _sampling.stream(da * 10 + db, 0xB0B)
    vecs = _sampling.random_pure_vectors(gen, da * db, 2)
    mats = [*_sampling.random_density_matrices(gen, da * db, 2, rank=2),
            *(vecs[:, :, None] * vecs[:, None, :].conj())]
    if (da, db) == (2, 2):
        t_map = KrausMap([0.9 * k for k in random_qubit_channels(71, 1)[0].kraus])
        mats.append(_cp_choi_checked(t_map).matrix)
    return np.stack(mats)


class TestCrossForm:
    """Each form's low side is at most the other form's high side.

    In value space t* = 2^-S_min, the library's form (max tr(rho X) s.t.
    tr_A X = 1_B) reports p = tr(rho X) and d = tr(sigma), and the slack
    form of `cond_min_problem` reports P = tr(sigma) and D = tr(rho Z)
    with Z = -sum_k y_k E_k. Their residuals bound how far each value may
    sit on the wrong side of t*:
      p <= (1 + pres) t*, since ||tr_A X - 1_B|| <= pres;
      t* <= d + d_B dres, since sigma + dres 1_B is feasible;
      t* <= P + d_B PRES, since sigma + PRES 1_B is feasible;
      D <= (1 + (1 + d_A) DRES) t*, since Z + DRES 1 is PSD with
      tr_A at most that factor times 1_B.
    The slack of each comparison is the product of its two factors.
    """

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 2)],
                             ids=["2x2", "2x4", "4x2"])
    def test_sides_bracket(self, dims, monkeypatch):
        da, db = dims
        mats = bracket_states(da, db)
        new = spy_results(monkeypatch)
        low, high, ok = _cond_min_up_sides(mats, da, db)
        monkeypatch.undo()
        assert ok.all() and len(new) == 1
        new = new[0]
        for i, rho in enumerate(mats):
            old = solve_one(*cond_min_problem(rho, da, db))
            assert old["ok"]
            big_p, big_d = old["primal_value"], old["dual_value"]
            # the slack form's sides are low = -log2 P and high = -log2 D
            assert low[i] <= -np.log2(big_d) + np.log2(
                (1 + (1 + da) * old["dres"])
                * (1 + db * new["dres"][i] / new["dual_value"][i]))
            assert -np.log2(big_p) <= high[i] + np.log2(
                (1 + new["pres"][i]) * (1 + db * old["pres"] / big_p))


class TestIterationTail:
    # a certified instance ends once mu stalls for two iterations, and the
    # centering exponent keeps short steps from jamming an instance; the
    # bounds leave headroom over this solver's counts for other BLAS
    # builds (each test notes its counts, and the counts under the former
    # 8-iteration stall rule and fixed exponent 3 as "before")

    def test_qubit_diamond_stack(self):
        # mean 12.2 and max 22 here; 34.9 and 151 before
        js, a, b = diamond_stack(7, 1000)
        res = solve_diamonds(js, a, b)
        assert len(js) == 500 and res["ok"].all()
        assert res["iters"].mean() <= 18
        assert res["iters"].max() <= 60

    def test_check_hypothesis_sandwich(self, monkeypatch):
        # the hypothesis-testing SDP of `minent check --seed 3` (blocks
        # (2, 2, 1)): 19 iterations here, 124 before
        iters = spy_iterations(monkeypatch)
        assert all(ok for _, ok, _ in cli._invariants(3))
        tails = [it for blocks, it in iters if blocks == (2, 2, 1)]
        assert len(tails) == 1 and tails[0][0] <= 30

    @pytest.mark.parametrize("seed", [1243, 1675, 2983])
    def test_check_seed_certifies(self, seed):
        # `minent check` raised SdpFailure at these seeds: the S_min-up SDP
        # of its random two-qubit state ended at max-iterations
        assert all(ok for _, ok, _ in cli._invariants(seed))


def spy_iterations(monkeypatch):
    """Record (block dims, iters) of every `sdp.solve_stack` call."""
    seen = []
    real = sdp.solve_stack

    def spy(c, a, b, sense="min", **kwargs):
        res = real(c, a, b, sense, **kwargs)
        seen.append((tuple(np.shape(ab)[-1] for ab in a), res["iters"]))
        return res

    monkeypatch.setattr(sdp, "solve_stack", spy)
    return seen


def spy_results(monkeypatch):
    """Record the result of every `sdp.solve_stack` call."""
    seen = []
    real = sdp.solve_stack

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sdp, "solve_stack", spy)
    return seen


def diamond_stack(seed, count):
    """Qubit diamond-norm problems for count/2 differences of channels:
    (js, a, b), js the stack of Choi-matrix differences."""
    chans = random_qubit_channels(seed, count)
    chois = [choi_matrix(ch, normalized=False).matrix for ch in chans]
    js = np.stack([chois[i] - chois[i + 1] for i in range(0, count, 2)])
    return (js,) + _diamond_problem_data(2, 2)


def erasure_program(channel, eps):
    """Data (c, a, b) of the joint erasure SDP that
    `entropies.cond_hypothesis_entropy_sup` solves for `channel`, one
    instance per error in `eps` (a scalar or an array)."""
    iso = stinespring_isometry(channel)
    v = iso.isometry
    eps = np.asarray(eps, dtype=float)
    c, a, b = _hypothesis_dual(
        0.0, iso.out_dim, iso.env_dim, v.shape[1],
        lambda basis: hermitian_part(v.conj().T @ basis @ v))
    c[1] = (1.0 - eps)[..., None, None] * c[1]
    return c, a, b


def solve_diamonds(js, a, b):
    """Solve the diamond-norm SDPs whose objective's W block is js, (4, 4)
    or (B, 4, 4); its other blocks are zero."""
    return solve_stack([js] + [np.zeros(ab.shape[1:]) for ab in a[1:]], a, b,
                       "max")


def fail_factors(monkeypatch, caller, victims, calls):
    """Make the first `_chol_each` call of each of the first `calls` calls
    of `sdp.<caller>` return NaN for the instances `victims`, as a failed
    factorization does; returns the stack size of each such call."""
    fired = []
    real_caller, real_each = getattr(sdp, caller), sdp._chol_each
    state = {"calls": 0, "armed": False}

    def each(m):
        lf = real_each(m)
        if state["armed"]:
            state["armed"] = False
            # instances first: the iterate factors are (2, B, k, n, n)
            by_instance = lf.swapaxes(0, 1) if lf.ndim == 5 else lf
            by_instance[victims] = np.nan
            fired.append(len(by_instance))
        return lf

    def wrapped(*args):
        state["calls"] += 1
        state["armed"] = state["calls"] <= calls
        try:
            return real_caller(*args)
        finally:
            state["armed"] = False

    monkeypatch.setattr(sdp, "_chol_each", each)
    monkeypatch.setattr(sdp, caller, wrapped)
    return fired


def instance_bytes(res, i):
    """Every field of instance i of a solve, as {key: bytes}; x_complex
    as one bytes per block."""
    return {key: [xb[i].tobytes() for xb in value] if key == "x_complex"
            else np.asarray(value[i]).tobytes() for key, value in res.items()}


def assert_matches_solo(res, js, a, b, which=None):
    for i in range(len(js)) if which is None else which:
        solo = solve_diamonds(js[i], a, b)
        assert res["status_str"][i] == solo["status_str"][0]
        assert res["iters"][i] == solo["iters"][0]
        assert res["primal_value"][i] == pytest.approx(
            solo["primal_value"][0], abs=1e-11)


def ginibre(rng, size, field):
    """Standard normal entries; complex ones for field "complex"."""
    z = rng.normal(size=size)
    return z + 1j * rng.normal(size=size) if field == "complex" else z


def dagger(m):
    return m.conj().swapaxes(-1, -2)


class TestMaxStep:
    field = "real"  # the *Complex subclasses rerun each test on Hermitian data

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
    def stack(rng, count, dims, cond, field="real"):
        # X = S Q diag(w) Q^H S with random Q, w in [0.1, 1] and the
        # grading S = diag(1 .. cond^-1/2): cond(X) is about `cond`, yet the
        # step is determined to near machine precision by the stored X (a
        # randomly rotated X of condition 1e10 fixes it only to ~1e-7, for
        # any method that starts from a Cholesky factor)
        xs, ds = [], []
        for nb in dims:
            q, _ = np.linalg.qr(ginibre(rng, (count, nb, nb), field))
            w = rng.uniform(0.1, 1.0, size=(count, 1, nb))
            grade = np.logspace(0, -0.5 * np.log10(cond), nb)
            core = (q * w) @ dagger(q)
            xs.append(hermitian_part(grade[:, None] * core * grade[None, :]))
            ds.append(hermitian_part(ginibre(rng, (count, nb, nb), field)))
        return xs, ds

    @staticmethod
    def by_size(blocks):
        # per-block (count, n, n) arrays as `_max_step` takes them: one
        # (count, k, n, n) array per size, its k blocks in block order
        sizes = dict.fromkeys(x.shape[-1] for x in blocks)
        return [np.stack([x for x in blocks if x.shape[-1] == n], axis=1)
                for n in sizes]

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e10])
    def test_matches_generalized_eigenvalues(self, rng, cond):
        xs, ds = self.stack(rng, 20, (4, 8, 4), cond, self.field)
        assert np.linalg.cond(xs[1]).max() > 0.1 * cond
        l_inv = [sdp._tri_inv(np.linalg.cholesky(x)) for x in xs]
        step = sdp._max_step(self.by_size(l_inv), self.by_size(ds))
        assert np.all(np.isfinite(step))
        np.testing.assert_allclose(step, self.reference(xs, ds), rtol=1e-8)

    def test_psd_direction_is_unbounded(self, rng):
        xs, ds = self.stack(rng, 10, (4, 8, 4), 1e10, self.field)
        ds = [d @ dagger(d) for d in ds]
        l_inv = [sdp._tri_inv(np.linalg.cholesky(x)) for x in xs]
        assert np.all(self.reference(xs, ds) == np.inf)
        assert np.all(sdp._max_step(self.by_size(l_inv),
                                    self.by_size(ds)) == np.inf)

    def test_nonfinite_direction_spoils_only_its_step(self, rng):
        # two pairs (X, D) per instance, laid out as the IPM's primal and
        # dual pairs, (2, count, k, n, n) per size: a NaN in one block of
        # one pair's direction makes that instance's step of that pair
        # NaN, and no other step
        pairs = [self.stack(rng, 6, (4, 8, 4), 1e4, self.field)
                 for _ in range(2)]
        l_inv = [[sdp._tri_inv(np.linalg.cholesky(x)) for x in xs]
                 for xs, _ in pairs]
        p = [np.stack(g) for g in zip(*map(self.by_size, l_inv))]
        d = [np.stack(g) for g in zip(*(self.by_size(ds) for _, ds in pairs))]
        d[0][1, 3, 1, 2, 0] = np.nan  # dual pair, instance 3, third block
        step = sdp._max_step(p, d)
        assert step.shape == (2, 6)
        assert np.isnan(step[1, 3])
        for k, (xs, ds) in enumerate(pairs):
            ref = self.reference(xs, ds)
            rest = np.arange(6) != 3 if k == 1 else slice(None)
            np.testing.assert_allclose(step[k, rest], ref[rest], rtol=1e-8)


class TestMaxStepComplex(TestMaxStep):
    field = "complex"


class TestNtScaling:
    field = "real"

    @staticmethod
    def pair(rng, cond, pairing, field):
        # graded X and S as in TestMaxStep.stack; "complementary" grades S
        # the other way round, as X and S are near an optimum (XS ~ mu I)
        xs, dxs = TestMaxStep.stack(rng, 20, (4, 8), cond, field)
        ss, dss = TestMaxStep.stack(rng, 20, (4, 8), cond, field)
        if pairing == "complementary":
            ss = [s[..., ::-1, ::-1].copy() for s in ss]
        nt = [sdp._nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(s))
              for x, s in zip(xs, ss)]
        return xs, ss, dxs, dss, nt

    @pytest.mark.parametrize("pairing", ["aligned", "complementary"])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e10])
    def test_factors_from_one_svd(self, rng, cond, pairing):
        xs, ss, _, _, nt = self.pair(rng, cond, pairing, self.field)
        eps = np.finfo(float).eps
        for x, s, (w, s_inv, (px, ps)) in zip(xs, ss, nt):
            eye = np.broadcast_to(np.eye(x.shape[-1]), x.shape)
            scale = np.linalg.norm(x, 2, axis=(-1, -2))[:, None, None]
            np.testing.assert_allclose((w @ s @ w - x) / scale, 0, atol=1e-12)
            np.testing.assert_allclose(px @ x @ dagger(px), eye, atol=1e-12)
            np.testing.assert_allclose(ps @ s @ dagger(ps), eye, atol=1e-12)
            # an inverse is only as accurate as the forward error bound
            # 8 n eps cond(S) lets it be
            bound = max(1e-12, 8 * x.shape[-1] * eps * np.linalg.cond(s).max())
            np.testing.assert_allclose(s_inv @ s, eye, atol=bound)

    @pytest.mark.parametrize("pairing", ["aligned", "complementary"])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e10])
    def test_whitened_steps_match_generalized_eigenvalues(self, rng, cond,
                                                          pairing):
        xs, ss, dxs, dss, nt = self.pair(rng, cond, pairing, self.field)
        # the primal and dual pairs in one call, as the IPM takes them: one
        # (2, count, 1, n, n) array per size
        p = [f[2][:, :, None] for f in nt]
        d = [np.stack([dx, ds])[:, :, None] for dx, ds in zip(dxs, dss)]
        step = sdp._max_step(p, d)
        np.testing.assert_allclose(step[0], TestMaxStep.reference(xs, dxs),
                                   rtol=1e-8)
        np.testing.assert_allclose(step[1], TestMaxStep.reference(ss, dss),
                                   rtol=1e-8)


class TestNtScalingComplex(TestNtScaling):
    field = "complex"


class TestCholEach:
    field = "real"

    @staticmethod
    def mixed(rng, field):
        # PD, indefinite (one eigenvalue -1e-3), PD, NaN, PD
        a = ginibre(rng, (5, 6, 6), field)
        m = a @ dagger(a) + 0.1 * np.eye(6)
        m[1] -= (np.linalg.eigvalsh(m[1])[0] + 1e-3) * np.eye(6)
        m[3] = np.nan
        return m

    @pytest.mark.filterwarnings("error")
    def test_matches_numpy_and_nans_failures(self, rng):
        m = self.mixed(rng, self.field)
        lf = sdp._chol_each(m)
        for i in (0, 2, 4):
            assert np.array_equal(lf[i], np.linalg.cholesky(m[i]))
        for i in (1, 3):
            assert np.isnan(lf[i]).all()

    @pytest.mark.filterwarnings("error")
    def test_single_and_all_failing_stacks(self, rng):
        m = self.mixed(rng, self.field)
        assert np.array_equal(sdp._chol_each(m[:1]), np.linalg.cholesky(m[:1]))
        assert np.isnan(sdp._chol_each(m[1:2])).all()
        assert np.isnan(sdp._chol_each(m[[1, 3, 1]])).all()


class TestCholEachComplex(TestCholEach):
    field = "complex"


class TestSchurRidge:
    def test_roundoff_indefinite_takes_first_rung(self, rng):
        # a Schur matrix with spectrum 1e-2 .. 1e14 shifted by -eps ||M||
        # is indefinite only at roundoff: the smallest ridge must fix it,
        # and its PD siblings must come back exactly as factored alone
        m = 8
        eps = np.finfo(float).eps
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        lam = np.r_[1e-2, np.logspace(13, 14, m - 1)]
        victim = hermitian_part((q * lam) @ q.T)
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
