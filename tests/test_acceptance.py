"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers.

Run with `pytest tests/test_acceptance.py -v -s` to see the ledger.
"""

import math
import time

import numpy as np
import pytest

from minent import _sampling, channels, decoupling, dynamical, entropies, thermo
from minent.channels import (depolarizing, dephasing1, dephasing2,
                             identity_channel, make_named_channel,
                             partial_trace_channel, replacer, tensor_channels)
from minent.decoupling import HaarSampler, decouple_channel_mc, decouple_states_mc
from minent.linalg import (DensityOperator, maximally_entangled,
                           maximally_mixed, pure_state, trace_norm)

from conftest import random_qubit_channels, random_two_qubit_states


def _report(name: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def closed_form(family: str, p: float) -> float:
    if family == "depolarizing":
        return math.log2(2 * max(1 - p, p / 3))
    if family == "dephasing1":
        return math.log2(2 - p)
    if family == "dephasing2":
        return math.log2(2 * max(1 - p, p))
    raise ValueError(family)


def test_criterion_1_fig3_sweep():
    """Sweep of the three qubit families matches the closed forms."""
    t0 = time.time()
    grid = [round(0.05 * k, 10) for k in range(21)]
    worst = 0.0
    for family in ("depolarizing", "dephasing1", "dephasing2"):
        for p in grid:
            got = -dynamical.channel_min_entropy(make_named_channel(family, p=p))
            worst = max(worst, abs(got - closed_form(family, p)))
    endpoints = [
        (-dynamical.channel_min_entropy(depolarizing(0.0)), 1.0),
        (-dynamical.channel_min_entropy(dephasing1(0.0)), 1.0),
        (-dynamical.channel_min_entropy(dephasing2(0.0)), 1.0),
        (-dynamical.channel_min_entropy(depolarizing(0.75)), -1.0),
        (-dynamical.channel_min_entropy(dephasing1(1.0)), 0.0),
        (-dynamical.channel_min_entropy(dephasing2(0.5)), 0.0),
    ]
    end_worst = max(abs(a - b) for a, b in endpoints)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and end_worst <= 1e-9 and elapsed < 5.0
    _report("criterion 1 (Fig. 3 sweep)", ok,
            f"max dev {worst:.2e}, endpoints {end_worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_dual_path_agreement():
    """Closed-form channel entropy equals the Choi-state SDP value."""
    worst = 0.0
    for ch in random_qubit_channels(202, 100):
        a = dynamical.channel_min_entropy(ch)
        b = dynamical.channel_min_entropy_sdp(ch)
        worst = max(worst, abs(a - b))
    _report("criterion 2 (dual-path agreement)", worst <= 1e-6,
            f"max |closed - sdp| = {worst:.2e} over 100 channels")


def test_criterion_3_scan_lower_bound():
    """Sampled infimum of S_min-up(A|R) stays above S_min and hits it."""
    cases = [("depolarizing", p) for p in np.arange(0.1, 0.95, 0.1)]
    cases += [("dephasing1", p) for p in np.arange(0.1, 0.95, 0.1)]
    cases += [("dephasing2", p) for p in np.arange(0.1, 0.95, 0.1)]
    cases += [("replacer", None), ("unitary", None)]
    worst_under, worst_gap = 0.0, 0.0
    for family, p in cases:
        ch = make_named_channel(family, p=None if p is None else float(p))
        rep = dynamical.channel_min_entropy_scan(ch, 2000, seed=33)
        worst_under = max(worst_under, rep.s_min - rep.inf_scan_value)
        worst_gap = max(worst_gap, rep.inf_scan_value - rep.s_min)
    ok = worst_under <= 1e-6 and worst_gap <= 0.05
    _report("criterion 3 (scan lower bound)", ok,
            f"max undershoot {worst_under:.2e}, max gap {worst_gap:.2e} "
            f"over {len(cases)} scans x 2000 inputs")


def test_criterion_4_decoupling_states():
    """State decoupling: exact maximally entangled case plus random audit."""
    phi = maximally_entangled(2)
    rep = decouple_states_mc(phi, identity_channel(2), 64, 0.0,
                             HaarSampler(2, seed=404))
    exact_ok = (abs(rep.mean_lhs - 1.5) < 1e-9 and rep.std_err < 1e-9
                and abs(rep.bound_rhs - 2.0) < 1e-6 and rep.passed)

    gen = _sampling.stream(404, 1)
    tmap = partial_trace_channel((2, 2), [0])
    violations = 0
    for k in range(100):
        vec = _sampling.random_pure_vectors(gen, 8, 1)[0]
        state = pure_state(vec, (2, 4))
        rep_k = decouple_states_mc(state, tmap, 25, 0.0,
                                   HaarSampler(4, seed=404, stream_id=2 + k))
        violations += 0 if rep_k.passed else 1
    ok = exact_ok and violations == 0
    _report("criterion 4 (state decoupling)", ok,
            f"Phi mean {rep.mean_lhs:.12f} (std {rep.std_err:.1e}) vs bound "
            f"{rep.bound_rhs:.6f}; {violations}/100 random violations")


def test_criterion_5_decoupling_processes():
    """Process decoupling for two depolarizing legs with half of A traced."""
    t0 = time.time()
    tmap = partial_trace_channel((2, 2), [0])
    details = []
    all_pass = True
    for i, p in enumerate((0.2, 0.5, 0.8)):
        nn = tensor_channels(depolarizing(p), depolarizing(p))
        rep = decouple_channel_mc(nn, tmap, 200, 0.0,
                                  HaarSampler(4, seed=505, stream_id=i))
        all_pass = all_pass and rep.passed and rep.skipped == 0
        details.append(f"p={p}: mean {rep.mean_lhs:.4f} <= {rep.bound_rhs:.4f}")
    elapsed = time.time() - t0
    ok = all_pass and elapsed < 300.0
    _report("criterion 5 (process decoupling)", ok,
            "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_6_sum_bound():
    """Certified floor on erasure plus preparation cost at mu = 0."""
    violations = 0
    worst = math.inf
    for rho in random_two_qubit_states(606, 200):
        rep = thermo.sum_bound_check(rho, 0.0)
        worst = min(worst, rep.sum_bits)
        violations += 0 if rep.passed else 1
    _report("criterion 6 (cost sum bound)", violations == 0,
            f"min sum {worst:.3e} bits, {violations}/200 violations")


def test_criterion_7_zero_error_costs():
    """Zero-error channel costs equal -S_min."""
    rep_id = thermo.channel_costs(identity_channel(2), 0.0, 300.0)
    rep_rp = thermo.channel_costs(replacer(maximally_mixed(2)), 0.0, 300.0)
    exact_ok = max(abs(rep_id.prep_cost.bits - 1), abs(rep_id.eras_cost.bits - 1),
                   abs(rep_rp.prep_cost.bits + 1),
                   abs(rep_rp.eras_cost.bits + 1)) <= 1e-9
    worst_gap, worst_over = 0.0, 0.0
    for family in ("depolarizing", "dephasing1", "dephasing2"):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            ch = make_named_channel(family, p=p)
            rep = thermo.channel_costs(ch, 0.0, 300.0)
            target = -rep.s_min_channel
            for bits in (rep.prep_cost.bits, rep.eras_cost.bits):
                worst_gap = max(worst_gap, abs(bits - target))
                worst_over = max(worst_over, bits - target)
    ok = exact_ok and worst_gap <= 0.02 and worst_over <= 1e-6
    _report("criterion 7 (zero-error costs)", ok,
            f"identity/replacer exact: {exact_ok}; noisy families gap "
            f"{worst_gap:.2e}, overshoot {worst_over:.2e}")


def test_criterion_8_continuity():
    """Min-entropy differences honor the diamond-distance Lipschitz bound."""
    pool = random_qubit_channels(808, 1000)
    pairs = list(zip(pool[:500], pool[500:]))
    diffs = [channels.choi_matrix(a, normalized=False).matrix
             - channels.choi_matrix(b, normalized=False).matrix
             for a, b in pairs]
    halves, ok_mask = decoupling._diamond_batch(diffs, 2, 2)
    assert ok_mask.all(), "diamond SDP failed on a pair"
    violations = 0
    for (a, b), delta in zip(pairs, halves):
        lhs = abs(dynamical.channel_min_entropy(a)
                  - dynamical.channel_min_entropy(b))
        rhs = (1 / math.log(2)) * 2 * 2 * delta
        violations += 0 if lhs <= rhs + 1e-9 else 1
    _report("criterion 8 (continuity)", violations == 0,
            f"{violations}/500 violations of the Lipschitz bound")


def test_criterion_9_ppt():
    """PPT flip of depolarizing at 1/2 and PPT implies nonnegative entropy."""
    flip_ok = (not channels.is_ppt(depolarizing(0.5 - 1e-3))
               and channels.is_ppt(depolarizing(0.5 + 1e-3)))
    violations = 0
    n_ppt = 0
    for ch in random_qubit_channels(909, 500, kraus=3):
        if channels.is_ppt(ch):
            n_ppt += 1
            if dynamical.channel_min_entropy(ch) < -1e-9:
                violations += 1
    ok = flip_ok and violations == 0
    _report("criterion 9 (PPT consistency)", ok,
            f"flip at 1/2: {flip_ok}; {violations} violations among "
            f"{n_ppt} PPT channels of 500")


def test_criterion_10_haar_sampler():
    """Unitarity and first-moment twirl of the Haar sampler."""
    gen = _sampling.stream(1010, 0)
    us = _sampling.haar_unitaries(gen, 4, 10_000)
    resid = np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(4)).max()

    gen2 = _sampling.stream(1010, 1)
    qs = _sampling.haar_unitaries(gen2, 2, 10_000)
    fixed = np.array([[0.9, 0.2 + 0.1j], [0.2 - 0.1j, 0.1]])
    twirl = np.einsum("bij,jk,blk->il", qs, fixed, qs.conj()) / len(qs)
    tdist = 0.5 * trace_norm(twirl - np.eye(2) / 2)
    ok = resid < 1e-10 and tdist < 0.02
    _report("criterion 10 (Haar sampler)", ok,
            f"unitarity residual {resid:.2e}, twirl distance {tdist:.4f}")
