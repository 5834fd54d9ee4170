"""Stacked smoothing against one-candidate-at-a-time references.

The references below are the earlier scalar code paths, kept here
verbatim in behaviour: a generator that wraps each candidate in a
DensityOperator and checks ball membership with a scalar fidelity, a
loop that solves one SDP per candidate, and a per-probe purified
distance check for the channel bound (which the library replaces by the
sqrt(t) <= eps certificate alone). The stacked library code must
reproduce them bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import _sampling, sdp
from minent.channels import (apply_many, choi_matrix, dephasing1, dephasing2,
                             depolarizing, identity_channel, replacer)
from minent.dynamical import (channel_min_entropy,
                              smooth_channel_min_entropy_lower_bound)
from minent.entropies import (SMOOTH_GRID, _cond_min_up_sides, _in_ball,
                              _smooth_candidates, cond_min_entropy_down_many,
                              cond_min_entropy_up,
                              smooth_min_entropy_lower_bound,
                              smooth_min_entropy_lower_bound_many)
from minent.linalg import (TOL, DensityOperator, herm_eig, hermitian_part,
                           maximally_mixed, partial_trace)

from conftest import random_qubit_channels, random_two_qubit_states

STATE_EPS = (0.0, 0.05, 0.1, 0.2, 0.5)
CHANNEL_EPS = (0.0, 0.01, 0.05, 0.1, 0.3, 0.6)


# ---------------------------------------------------------------------------
# scalar references


def ref_psd_sqrt(m):
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.where((w < 0) & (w >= -TOL.clamp), 0.0, w)
    assert w.min() >= 0
    r = (v * np.sqrt(w)) @ v.conj().T
    return (r + r.conj().T) / 2


def ref_purified_distance(rho, sigma):
    root = float(np.linalg.svd(ref_psd_sqrt(rho.matrix) @ ref_psd_sqrt(sigma.matrix),
                               compute_uv=False).sum())
    if rho.subnormalized or sigma.subnormalized:
        root += math.sqrt(max(1 - rho.trace(), 0.0) * max(1 - sigma.trace(), 0.0))
    return math.sqrt(max(1.0 - float(min(root * root, 1.0)), 0.0))


def ref_candidates(rho, eps):
    da, db = rho.dims
    yield rho
    if eps <= 0:
        return
    rho_b = partial_trace(rho.op, [1]).matrix
    uniform = np.kron(np.eye(da) / da, rho_b)
    w, v = herm_eig(rho.op)
    top = np.outer(v[:, 0], v[:, 0].conj())
    for t in SMOOTH_GRID:
        for dirn in (None, uniform, rho.matrix - w[0] * top):
            cand = (1 - t) * rho.matrix if dirn is None \
                else (1 - t) * rho.matrix + t * dirn
            try:
                state = DensityOperator(cand, rho.dims, subnormalized=True)
            except ValueError:
                continue
            if state.trace() <= 1 + TOL.trace \
                    and ref_purified_distance(rho, state) <= eps + 1e-12:
                yield state


def ref_up_low(rho):
    """S_min-up of one state on the sigma (low) side, which the smoothed
    lower bound reads; SdpFailure unless the SDP certifies."""
    low, _, ok = _cond_min_up_sides(rho.matrix[None], *rho.dims)
    if not ok[0]:
        raise sdp.SdpFailure("conditional min-entropy SDP did not certify")
    return float(low[0])


def ref_smooth_bound(eps, rho, variant):
    da, db = rho.dims
    cands = list(ref_candidates(rho, eps))
    if variant == "down":
        mats = np.stack([c.matrix for c in cands])
        return float(cond_min_entropy_down_many(mats, da, db).max())
    best = -math.inf
    for k, cand in enumerate(cands):
        try:
            val = ref_up_low(cand)
        except sdp.SdpFailure:
            if k == 0:
                raise
            continue
        best = max(best, val)
    return best


def ref_channel_bound(eps, n):
    choi = choi_matrix(n).matrix
    uniform = np.eye(choi.shape[0]) / choi.shape[0]
    gen = _sampling.stream(0xC8A11, 1)
    probes = _sampling.random_pure_vectors(gen, n.in_dim ** 2, 16)
    best = channel_min_entropy(n)
    for t in SMOOTH_GRID:
        if math.sqrt(t) > eps:
            continue
        inside = True
        for out in apply_many(n, probes, left=n.in_dim):
            rho = DensityOperator(out, (n.in_dim, n.out_dim))
            marg = partial_trace(rho.op, [0]).matrix \
                / max(np.trace(out).real, 1e-300)
            mixed = (1 - t) * out + t * np.kron(marg, np.eye(n.out_dim) / n.out_dim)
            if ref_purified_distance(rho, DensityOperator(mixed, rho.dims)) \
                    > eps + 1e-9:
                inside = False
                break
        if inside:
            lam = float(np.linalg.eigvalsh((1 - t) * choi + t * uniform).max())
            best = max(best, -math.log2(n.in_dim * lam))
    return best


# ---------------------------------------------------------------------------
# inputs


def seeded_states():
    """Full-rank, rank-1 and rank-2 two-qubit states, two of each."""
    return (random_two_qubit_states(91, 2) + random_two_qubit_states(92, 2, rank=1)
            + random_two_qubit_states(93, 2, rank=2))


def channels():
    named = [identity_channel(2), depolarizing(0.3), depolarizing(0.75),
             dephasing1(0.2), dephasing2(0.4), replacer(maximally_mixed(2))]
    return named + random_qubit_channels(94, 3)


# ---------------------------------------------------------------------------
# bitwise agreement


class TestAgainstScalarReference:
    def test_candidate_stacks(self):
        total = 0
        for rho in seeded_states():
            for eps in STATE_EPS:
                ref = np.stack([c.matrix for c in ref_candidates(rho, eps)])
                stack, mask = _smooth_candidates(rho.matrix[None], 2, 2, eps)
                assert mask[0, 0] and np.array_equal(stack[0, 0], rho.matrix)
                got = stack[mask]
                assert got.shape == ref.shape
                assert np.array_equal(got, ref)
                total += got.shape[0]
        # every eps > 0 keeps more than the center on these states
        assert total > len(seeded_states()) * len(STATE_EPS)

    def test_down_bounds(self):
        for rho in seeded_states():
            for eps in STATE_EPS:
                assert smooth_min_entropy_lower_bound(eps, rho, "down") \
                    == ref_smooth_bound(eps, rho, "down")

    def test_up_bounds(self):
        # one state of each rank keeps the one-SDP-per-candidate loop short
        for rho in seeded_states()[::2]:
            for eps in STATE_EPS:
                assert smooth_min_entropy_lower_bound(eps, rho, "up") \
                    == ref_smooth_bound(eps, rho, "up")

    def test_down_stack(self):
        # more states than the ball check takes at a time
        states = seeded_states() + random_two_qubit_states(95, 13)
        mats = np.stack([rho.matrix for rho in states])
        for eps in STATE_EPS:
            got = smooth_min_entropy_lower_bound_many(eps, mats, 2, 2, "down")
            assert got.tolist() == [ref_smooth_bound(eps, rho, "down")
                                    for rho in states]

    def test_up_stack(self):
        # per-state calls are pinned to the candidate-by-candidate loop above
        mats = np.stack([rho.matrix for rho in seeded_states()])
        for eps in (0.0, 0.05, 0.2):
            got = smooth_min_entropy_lower_bound_many(eps, mats, 2, 2, "up")
            assert got.tolist() == [smooth_min_entropy_lower_bound(eps, rho, "up")
                                    for rho in seeded_states()]

    def test_stack_is_symmetrized(self):
        # off-Hermitian roundoff, as in raw channel outputs, is averaged
        # away on entry, as DensityOperator does for the one-state form
        raw = seeded_states()[0].matrix + np.triu(np.full((4, 4), 1e-14j), 1)
        for variant in ("up", "down"):
            got = smooth_min_entropy_lower_bound_many(0.1, raw[None], 2, 2, variant)
            assert got[0] == smooth_min_entropy_lower_bound(
                0.1, DensityOperator(raw, (2, 2)), variant)

    def test_zero_eps_is_unsmoothed(self):
        # the low side of the unsmoothed value, within the solver's gap
        # below the high side that cond_min_entropy_up reads
        for rho in seeded_states():
            got = smooth_min_entropy_lower_bound(0.0, rho, "up")
            assert got == ref_up_low(rho)
            assert cond_min_entropy_up(rho) - 1e-6 <= got \
                <= cond_min_entropy_up(rho) + 1e-9

    def test_channel_bounds(self):
        for ch in channels():
            for eps in CHANNEL_EPS:
                assert smooth_channel_min_entropy_lower_bound(eps, ch) \
                    == ref_channel_bound(eps, ch)

    def test_no_probes_without_admissible_weight(self, monkeypatch):
        # sqrt(t) <= eps certifies each weight: no channel output is taken,
        # and eps below sqrt(min SMOOTH_GRID) admits no weight at all
        import minent.dynamical as dyn

        def fail(*args, **kwargs):
            raise AssertionError("probe outputs computed")

        ch = depolarizing(0.3)
        expected = {eps: ref_channel_bound(eps, ch) for eps in (0.05, 0.3, 0.6)}
        monkeypatch.setattr(dyn, "apply_many", fail)
        assert smooth_channel_min_entropy_lower_bound(0.0, ch) \
            == channel_min_entropy(ch)
        assert smooth_channel_min_entropy_lower_bound(9e-4, ch) \
            == channel_min_entropy(ch)
        for eps, ref in expected.items():
            assert smooth_channel_min_entropy_lower_bound(eps, ch) == ref
            assert ref > channel_min_entropy(ch)


# ---------------------------------------------------------------------------
# closed-form ball membership


# columns of the trace-scaled and top-trimmed candidates in a candidate
# stack, after the center; the mixing candidates are every third from 2
COMMUTING = 1 + np.flatnonzero(np.arange(3 * len(SMOOTH_GRID)) % 3 != 1)


def scaled_distances(trace: float) -> list:
    """Purified distances from a center of this trace, of any rank, to its
    scaled candidates (1 - t) rho, one per t of the grid: sqrt(t) at trace
    1, and about t sqrt(trace / (4 (1 - trace))) below it."""
    return [math.sqrt(max(1 - (trace * math.sqrt(1 - t) + math.sqrt(
        (1 - trace) * (1 - trace * (1 - t)))) ** 2, 0.0)) for t in SMOOTH_GRID]


class TestClosedFormMembership:
    # eps is drawn at least 1e-6 from the distance of every scaled candidate
    # (at trace 1, from every sqrt(t)). At a tie such as eps = sqrt(t) for a
    # normalized center, roundoff in the sqrt((1 - tr rho)(1 - tr sigma))
    # term decides membership either way, in the closed form and in
    # `_in_ball` alike. Over 3,686,400 comparisons on these dims, at every
    # rank, with eps at each sqrt(t) and at 20 drawn values, the two
    # disagreed 61 times, all at eps = 0.001 = sqrt(1e-6) on normalized
    # centers. Trace 0.8 ties too: its scaled candidate at t = 1e-6 lies at
    # distance 1e-6.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
           seed=st.integers(0, 2 ** 32 - 1), trace=st.floats(0.8, 1.0))
    def test_commuting_candidates_match_in_ball(self, data, dims, seed, trace):
        d = dims[0] * dims[1]
        rank = data.draw(st.integers(1, d), label="rank")
        ties = scaled_distances(trace)
        eps = data.draw(st.floats(1e-6, 0.999).filter(
            lambda e: min(abs(e - tie) for tie in ties) >= 1e-6), label="eps")
        gen = _sampling.stream(seed, 0xBA11)
        mats = hermitian_part(
            trace * _sampling.random_density_matrices(gen, d, 4, rank=rank))
        stack, mask = _smooth_candidates(mats, *dims, eps)
        assert np.array_equal(mask[:, COMMUTING],
                              _in_ball(mats, stack[:, COMMUTING], eps))


# ---------------------------------------------------------------------------
# the certification rule of the up variant


def mark_nonoptimal(monkeypatch, index):
    real = sdp.solve_stack

    def patched(*args, **kwargs):
        res = real(*args, **kwargs)
        res["status"][index] = 2
        res["status_str"][index] = "max-iterations"
        res["ok"][index] = False
        return res

    monkeypatch.setattr(sdp, "solve_stack", patched)


class TestCertificationRule:
    RHO = random_two_qubit_states(91, 1)[0]
    EPS = 0.2

    def test_center_must_certify(self, monkeypatch):
        mark_nonoptimal(monkeypatch, 0)
        with pytest.raises(sdp.SdpFailure):
            smooth_min_entropy_lower_bound(self.EPS, self.RHO, "up")

    def test_zero_eps_center_must_certify(self, monkeypatch):
        mark_nonoptimal(monkeypatch, 0)
        with pytest.raises(sdp.SdpFailure):
            smooth_min_entropy_lower_bound(0.0, self.RHO, "up")

    def test_other_candidates_are_skipped(self, monkeypatch):
        stack, mask = _smooth_candidates(self.RHO.matrix[None], 2, 2, self.EPS)
        cands = stack[mask]
        vals, _, ok = _cond_min_up_sides(cands, 2, 2)
        assert ok.all()
        best = int(np.argmax(vals))
        assert best > 0  # the skip below changes the bound
        mark_nonoptimal(monkeypatch, best)
        got = smooth_min_entropy_lower_bound(self.EPS, self.RHO, "up")
        assert got == np.delete(vals, best).max()
        assert got < vals[best]

    def test_every_center_of_a_stack_must_certify(self, monkeypatch):
        states = seeded_states()[:3]
        mats = np.stack([rho.matrix for rho in states])
        _, mask = _smooth_candidates(mats, 2, 2, self.EPS)
        second = int(mask[0].sum())  # the second state's center in the SDP stack
        mark_nonoptimal(monkeypatch, second)
        with pytest.raises(sdp.SdpFailure):
            smooth_min_entropy_lower_bound_many(self.EPS, mats, 2, 2, "up")
