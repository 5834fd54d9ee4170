"""Iteration counts of the interior-point solver on seven fixed SDP stacks.

    python tools/ipm_iters.py

solves each stack once, from this checkout's sources, and prints for each
the instance-iterations (the sum of every instance's iteration count),
the mean, p90 and max iterations per instance, the count of each status
and the wall time spent in `sdp.solve_stack`, and on a second line a
SHA-256 of every returned field of every instance (values, gap,
residuals, statuses, iterations, y and the primal blocks X):

- diamonds: 500 qubit diamond norms, the differences of 1000 random
  qubit channels of seed 7, in one stack;
- haar: 2000 S_min-up SDPs in one stack, the outputs of dephasing2 at
  p = 0.4 on the Haar-random pure inputs of seed 33;
- decoupling: the 200 diamond norms (blocks 8, 8, 4) of the process
  decoupling check of depolarizing p = 0.5 on two qubits, the first
  qubit traced out, at sampler seed 11;
- erasure-depol: the one-instance joint erasure SDP (blocks 4, 2, 8, 8) of
  `thermo.channel_costs` on depolarizing p = 0.5 at mu = 0.06;
- erasure-deph2: the same SDP (blocks 2, 2, 4, 4) on dephasing2 p = 0.4
  at mu = 0.1;
- dmax: the one-instance 4x4 D_max SDP (`entropies.d_max_sdp`, one
  constraint) of the SDP cross-check of `minent entropy` on dephasing2
  p = 0.4;
- scan: the pruned S_min-up stack of the same command's scan at seed 5:
  those of Phi, the computational products and the 64 Haar inputs that
  the closed form does not certify (`dynamical._pruned_scan`; the scan
  reads psi* from the singlet dual and solves no SDP for it).

The erasure stacks hold several blocks of one size; the last two are
the small programs of the query path. For dmax the tool also prints the
cProfile function calls per iteration of one `sdp.solve_stack` call,
input checks included, and its best-of-20 wall time per iteration, the
two per-iteration costs of a small program. The first two are the
stacks of `tests/test_sdp.py`'s iteration-tail tests. BLAS runs on one
thread unless the environment sets otherwise. Two trees give bit-for-bit
equal results on these stacks exactly when their digest lines agree:

    diff <(python tools/ipm_iters.py | grep sha256) \
         <(python other/tools/ipm_iters.py | grep sha256)
"""

import cProfile
import hashlib
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minent import (_sampling, channels, decoupling, dynamical, sdp,  # noqa: E402
                    thermo)
from minent.entropies import cond_min_entropy_up_many  # noqa: E402


def diamonds():
    kraus = _sampling.random_channels_kraus(_sampling.stream(7, 0xBEEF),
                                            2, 2, 2, 1000)
    chois = [channels.choi_matrix(channels.QuantumChannel(ks),
                                  normalized=False).matrix for ks in kraus]
    js = np.stack([chois[i] - chois[i + 1] for i in range(0, 1000, 2)])
    a, b = channels._diamond_problem_data(2, 2)
    sdp.solve_stack([js] + [np.zeros(ab.shape[1:]) for ab in a[1:]], a, b,
                    "max")


def haar():
    vecs = _sampling.random_pure_vectors(_sampling.stream(33, 0xD15C), 4, 2000)
    outs = dynamical._pure_outputs(channels.dephasing2(0.4), vecs)
    cond_min_entropy_up_many(outs, 2, 2)


def decoupling_diamonds():
    pair = channels.tensor_channels(channels.depolarizing(0.5),
                                    channels.depolarizing(0.5))
    tmap = channels.partial_trace_channel((2, 2), [0])
    decoupling.decouple_channel_mc(pair, tmap, 200, 0.0,
                                   decoupling.HaarSampler(4, seed=11))


def dmax():
    dynamical.channel_min_entropy_sdp(channels.dephasing2(0.4))


def scan():
    ch = channels.dephasing2(0.4)
    haar = _sampling.random_pure_vectors(_sampling.stream(5, 0xD15C), 4, 64)
    m = -dynamical.singlet_fidelity_dual(ch)
    dynamical._pruned_scan(
        ch, m, np.concatenate([dynamical._structured_inputs(ch), haar]))


def erasure(channel, mu):
    """The costs call whose erasure side solves the joint erasure SDP."""
    return lambda: thermo.channel_costs(channel, mu, 300.0)


# name, the block dims of the stack's SDPs, the call that solves them
STACKS = (("diamonds", (4, 4, 2), diamonds),
          ("haar", (4,), haar),
          ("decoupling", (8, 8, 4), decoupling_diamonds),
          ("erasure-depol", (4, 2, 8, 8),
           erasure(channels.depolarizing(0.5), 0.06)),
          ("erasure-deph2", (2, 2, 4, 4),
           erasure(channels.dephasing2(0.4), 0.1)),
          ("dmax", (4,), dmax),
          ("scan", (4,), scan))


def solve(dims, run):
    """Run `run` and return the results, wall time and arguments of its
    `sdp.solve_stack` calls on blocks `dims`."""
    results, wall, calls = [], 0.0, []
    real = sdp.solve_stack

    def spy(c, a, *args, **kwargs):
        nonlocal wall
        t0 = time.perf_counter()
        res = real(c, a, *args, **kwargs)
        if tuple(ab.shape[-1] for ab in a) == dims:
            wall += time.perf_counter() - t0
            results.append(res)
            calls.append((c, a) + args)
        return res

    sdp.solve_stack = spy
    try:
        run()
    finally:
        sdp.solve_stack = real
    return results, wall, calls


def per_iteration(args, iters):
    """cProfile function calls and best-of-20 wall time (us) per
    iteration of `sdp.solve_stack(*args)`, which runs `iters` iterations."""
    prof = cProfile.Profile()
    prof.runcall(sdp.solve_stack, *args)
    ncalls = sum(entry.callcount for entry in prof.getstats())
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        sdp.solve_stack(*args)
        best = min(best, time.perf_counter() - t0)
    return ncalls / iters, 1e6 * best / iters


def digest(results):
    """SHA-256 of every field of every result, fields in sorted order."""
    h = hashlib.sha256()
    for res in results:
        for key in sorted(res):
            for part in res[key] if key == "x_complex" else [res[key]]:
                h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def main():
    for name, dims, run in STACKS:
        results, wall, calls = solve(dims, run)
        iters = np.concatenate([r["iters"] for r in results])
        names, counts = np.unique(np.concatenate([r["status_str"] for r in results]),
                                  return_counts=True)
        status = ", ".join(f"{s} {c}" for s, c in zip(names, counts))
        print(f"{name:13s} {iters.size:5d} instances: instance-iters "
              f"{iters.sum()}, mean {iters.mean():.1f}, "
              f"p90 {np.percentile(iters, 90):g}, max {iters.max()}; "
              f"{status}; {wall:.2f} s")
        print(f"{name:13s} sha256 {digest(results)}")
        if name == "dmax":
            ncalls, us = per_iteration(calls[0], iters.max())
            print(f"{name:13s} per iteration: {ncalls:.0f} calls, "
                  f"{us:.0f} us best of 20")


if __name__ == "__main__":
    main()
