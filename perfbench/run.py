"""minent benchmark: seeded workloads, checked outputs, optional tracing.

One run, whose last stdout line is the JSON result:

    python3 perfbench/run.py --workload query --seed 1 --seconds 40 --trace 0

runs rounds of the workload's jobs in one process, in a closed loop with
one client, until the next round would end past ``--seconds``; at least
one round always runs. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` wraps minent's public functions (see ``tracer.py``) and
reports the per-layer metrics. Either way the run writes a result file
under ``perfbench/results/`` with the seed, the machine, every job with
its inputs, latency, item and instance counts and check outcome, and all
metrics, and a traced run also writes its spans there.

An untraced run also times a fixed numpy kernel every half second while
the jobs run (see ``calibrate.py``) and reports throughput and median
latency in units of that kernel's time as well as in seconds:
``items_per_cal`` and ``job_p50_cal`` are the gated metrics, because on
a shared host wall times move by tens of percent from one minute to the
next while the ratio stays within a few percent.

Other modes:

    --collect OUT.json [--runs N] [--workloads a,b] [--first-seed S]
        run N seeds of each workload as separate processes, print every
        metric by name and unit, and write all runs to OUT.json
    --compare A.json B.json
        medians, quartiles and deltas per workload and metric of two
        collected files; "unresolved" where a spread exceeds its bound
    --baseline
        exact S_min-up iteration tails of the ROADMAP baseline scans and
        the fidelity maximizer's time per call, from traced runs
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # at most nproc; one thread keeps small-matrix timings steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# a fixed string-hash seed takes one per-process layout lottery out of the
# timings: the interpreter restarts itself once with it set
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7
TAIL_QUANTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
EXIT_NO_PROGRAM = 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_minent():
    """Import minent from this checkout's sources, or exit nonzero."""
    if not (SRC / "minent" / "__init__.py").is_file():
        print(f"minent sources not found under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import minent

    if Path(minent.__file__).resolve().parent != SRC / "minent":
        print(f"minent imported from {minent.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def machine_info() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def measure_setup() -> list:
    """Seconds to import minent and warm up each SDP family, per fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            sys.exit(EXIT_NO_PROGRAM)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# one run


def execute(job, workloads, cal) -> dict:
    burst_s = cal.total_s if cal else 0.0
    t0 = time.perf_counter()
    try:
        out = job.run()
        error = ""
    except workloads.CheckFailed as exc:
        out, error = None, f"check failed: {exc}"
    except Exception as exc:  # a raising job is a failed job, never dropped
        out, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    # calibration bursts that ran inside the job are not the job's time
    seconds = t1 - t0 - ((cal.total_s if cal else 0.0) - burst_s)
    rec = {"kind": job.kind, "params": job.params, "seconds": seconds,
           "start": t0, "end": t1,
           "ok": out is not None, "error": error,
           "items": 0, "samples": 0, "skipped": 0, "solved": {}}
    if out is not None:
        rec.update(items=out.items, samples=out.samples, skipped=out.skipped,
                   solved=out.solved)
    return rec


def tail(latencies):
    """Highest listed percentile with at least ten jobs beyond it."""
    import numpy as np

    n = len(latencies)
    for q in TAIL_QUANTILES:
        if n * (1 - q / 100) >= 10:
            return f"p{q:g}", float(np.percentile(latencies, q))
    return None, None


def end_to_end(jobs, setup_samples, calibrated: bool) -> dict:
    lat = [j["seconds"] for j in jobs]
    samples = sum(j["samples"] for j in jobs)
    items = sum(j["items"] for j in jobs)
    m = {
        "items_per_s": (items / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "fail_ratio": (sum(not j["ok"] for j in jobs) / len(jobs), "ratio"),
        "uncertified_ratio": (sum(j["skipped"] for j in jobs) / samples
                              if samples else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    if calibrated:  # the same two, in units of the calibration kernel
        cal = [j["cal"] for j in jobs]
        m["items_per_cal"] = (items / sum(cal), "1/cal")
        m["job_p50_cal"] = (statistics.median(cal), "cal")
    name, value = tail(lat)
    if name is not None:
        m["job_tail_s"] = (value, "s")
        m["job_tail_name"] = (name, "")
    if setup_samples:
        m["setup_s"] = (statistics.median(setup_samples), "s")
    return m


def sdp_busy(summary) -> float:
    return sum(r["layer_busy_s"] for n, r in summary["names"].items()
               if n.startswith("sdp."))


def per_layer(summary, overhead_s) -> dict:
    from tracer import APPLY_KERNELS, FAMILIES, percentile

    names = summary["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    m = {}
    for fam in FAMILIES:
        it, nonopt = summary["families"][fam]
        busy = get(f"sdp.{fam}", "busy_s")
        m[f"sdp.{fam}.calls"] = (get(f"sdp.{fam}", "calls"), "count")
        m[f"sdp.{fam}.instances"] = (int(it.size), "count")
        m[f"sdp.{fam}.busy_s"] = (busy, "s")
        m[f"sdp.{fam}.iters_p50"] = (percentile(it, 50), "count")
        m[f"sdp.{fam}.iters_p99"] = (percentile(it, 99), "count")
        m[f"sdp.{fam}.iters_max"] = (int(it.max()) if it.size else 0, "count")
        m[f"sdp.{fam}.nonoptimal"] = (nonopt, "count")
        m[f"sdp.{fam}.instance_iters_per_s"] = (
            float(it.sum()) / busy if busy else 0.0, "1/s")
    m["sdp.busy_s"] = (sdp_busy(summary), "s")
    for name, keys in (
            ("entropies.max_fidelity_uniform", ("calls", "busy_s")),
            ("entropies.cond_hypothesis_entropy", ("calls", "failed", "busy_s")),
            ("entropies.smooth_min_entropy_lower_bound", ("calls", "self_s")),
            ("entropies.cond_min_entropy_up_many", ("self_s",)),
            ("dynamical.channel_min_entropy_scan", ("self_s",)),
            ("dynamical.env_decoupling_dual", ("self_s",)),
            ("dynamical.smooth_channel_min_entropy_lower_bound", ("busy_s",)),
            ("decoupling.decouple_channel_mc", ("self_s",)),
            ("decoupling.decouple_states_mc", ("busy_s",)),
            ("thermo.channel_costs", ("self_s",)),
            ("channels.diamond_values_from_choi", ("self_s",)),
            ("channels.choi_matrix", ("busy_s",)),
            ("channels.is_ppt", ("busy_s",))):
        for key in keys:
            m[f"{name}.{key}"] = (get(name, key), "s" if key.endswith("_s")
                                  else "count")
    m["kernels.apply.calls"] = (sum(get(n, "calls") for n in APPLY_KERNELS), "count")
    m["kernels.apply.busy_s"] = (sum(get(n, "busy_s") for n in APPLY_KERNELS), "s")
    sampling = [r for n, r in names.items() if n.startswith("sampling.")]
    m["sampling.calls"] = (sum(r["calls"] for r in sampling), "count")
    m["sampling.busy_s"] = (sum(r["layer_busy_s"] for r in sampling), "s")
    m["cli.self_s"] = (sum(r["self_s"] for n, r in names.items()
                           if n.startswith("cli.")), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             result_path: Path | None) -> int:
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import_minent()
    setup_samples = [] if trace else measure_setup()
    from setup_probe import warm_up

    import workloads
    warm_up()
    RESULTS.mkdir(exist_ok=True)
    tracer = cal = None
    if trace:  # a traced run is not calibrated: bursts would land in spans
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        from calibrate import Calibrator
        cal = Calibrator()
        cal.start()

    jobs, marks, n_rounds = [], [], 0
    t_start = time.perf_counter()
    try:
        for round_jobs in workloads.rounds(workload, seed, RESULTS):
            for job in round_jobs:
                first = tracer.mark() if tracer else 0
                jobs.append(execute(job, workloads, cal))
                marks.append((first, tracer.mark() if tracer else 0))
            n_rounds += 1
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / n_rounds > seconds:
                break
    finally:
        if cal:
            cal.stop()
    wall = time.perf_counter() - t_start

    cal_unit_s = cal.unit_s() if cal else 0.0
    if cal:
        for rec in jobs:
            rec["cal"] = rec["seconds"] / cal.unit_s(rec["start"], rec["end"])
    e2e = end_to_end(jobs, setup_samples, cal is not None)
    layers = {}
    if tracer:
        tracer.uninstall()
        for rec, (first, last) in zip(jobs, marks):
            s = tracer.summary(first, last)
            rec["sdp_share"] = sdp_busy(s) / rec["seconds"]
        layers = per_layer(tracer.summary(), tracer.overhead_s)
        tracer.write(RESULTS / f"{workload}-s{seed}-spans.json")

    solved: dict = {}
    for rec in jobs:
        for fam, n in rec["solved"].items():
            solved[fam] = solved.get(fam, 0) + n
    failed = sum(not j["ok"] for j in jobs)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine_info(), "rounds": n_rounds,
        "wall_s": wall, "setup_samples_s": setup_samples,
        "calibration": {"unit_s": cal_unit_s,
                        "bursts": cal.bursts if cal else []},
        "counts": {"jobs": len(jobs), "failed": failed,
                   "items": sum(j["items"] for j in jobs),
                   "samples": sum(j["samples"] for j in jobs),
                   "skipped": sum(j["skipped"] for j in jobs),
                   "instances_solved": solved},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "jobs": jobs,
    }
    path = result_path or RESULTS / f"{workload}-s{seed}-t{int(trace)}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for rec in jobs:
        if not rec["ok"]:
            print(f"FAILED {rec['kind']} {json.dumps(rec['params'])[:120]}: "
                  f"{rec['error']}")
    print(f"{workload} seed {seed}: {len(jobs)} jobs in {n_rounds} rounds, "
          f"{wall:.2f} s, {record['counts']['items']} items, "
          f"calibration unit {cal_unit_s * 1e3:.2f} ms, "
          f"instances {solved}, result {path}")
    shown = layers if trace else e2e
    for k, (v, u) in shown.items():
        print(f"  {k:58s} {v if isinstance(v, str) else f'{v:.6g}'} {u}")
    if trace:
        for kind in dict.fromkeys(rec["kind"] for rec in jobs):
            mine = [rec for rec in jobs if rec["kind"] == kind]
            print(f"  {kind} jobs: {len(mine)}, share of wall in sdp "
                  f"{min(r['sdp_share'] for r in mine):.3f} to "
                  f"{max(r['sdp_share'] for r in mine):.3f}")

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": (layers if trace else e2e)[m["name"]][0],
                           "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# collect, compare, baseline


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def grouped(records) -> dict:
    """{workload: {metric: ([values], unit)}} over numeric metrics."""
    out: dict = {}
    for rec in records:
        table = out.setdefault(rec["workload"], {})
        for section in ("end_to_end", "per_layer"):
            for name, m in rec[section].items():
                if isinstance(m["value"], (int, float)):
                    table.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return out


def collect(out_path: Path, runs: int, names, first_seed: int,
            seconds: float, trace: int) -> int:
    records = []
    for workload in names:
        for seed in range(first_seed, first_seed + runs):
            path = RESULTS / f"collect-{workload}-s{seed}-t{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--result", str(path)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {proc.stdout.strip().splitlines()[-1]}",
                  flush=True)
            with open(path) as fh:
                records.append(json.load(fh))
    with open(out_path, "w") as fh:
        json.dump({"runs": records}, fh)
    print(f"\n{len(records)} runs written to {out_path}")
    for workload, table in grouped(records).items():
        tails = sorted({r["end_to_end"]["job_tail_name"]["value"] for r in records
                        if r["workload"] == workload
                        and "job_tail_name" in r["end_to_end"]})
        jobs = [r["counts"]["jobs"] for r in records if r["workload"] == workload]
        items = [r["counts"]["items"] for r in records if r["workload"] == workload]
        print(f"\n{workload}: jobs per run {jobs}, items per run {items}, "
              f"tail percentile {tails or 'omitted (fewer than 20 jobs)'}")
        print(f"  {'metric':58s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} unit")
        for name, (vals, unit) in table.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:58s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {unit}")
    return 0


def compare(path_a: Path, path_b: Path) -> int:
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    tables = []
    for path in (path_a, path_b):
        with open(path) as fh:
            data = json.load(fh)
        tables.append(grouped(data.get("runs", [data])))
    a, b = tables
    print(f"A = {path_a}\nB = {path_b}")
    for workload in sorted(set(a) & set(b)):
        print(f"\n{workload}")
        print(f"  {'metric':58s} {'A median':>11s} {'A q1-q3':>23s} "
              f"{'B median':>11s} {'B q1-q3':>23s} {'delta':>8s}  verdict")
        for name in [n for n in a[workload] if n in b[workload]]:
            (va, unit), (vb, _) = a[workload][name], b[workload][name]
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = -delta if bounds[name]["better"] == "higher" else delta
                spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                             for q in (qa, qb))
                if spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                elif worse < -bound:
                    verdict = "better"
                else:
                    verdict = "within bound"
            elif sorted(va) == sorted(vb):
                verdict = "identical"
            print(f"  {name:58s} {qa[1]:11.5g} {qa[0]:11.5g}-{qa[2]:<11.5g} "
                  f"{qb[1]:11.5g} {qb[0]:11.5g}-{qb[2]:<11.5g} {delta:+8.2%}  "
                  f"{verdict} [{unit}]")
    return 0


def baseline() -> int:
    """ROADMAP baseline: scan iteration tails at n = 2000, seed 33, and the
    fidelity maximizer over the dual runs of the named-family test."""
    import numpy as np

    import_minent()
    from minent import channels, dynamical
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for fam in ("dephasing2", "depolarizing"):
            first, t0 = tracer.mark(), time.perf_counter()
            dynamical.channel_min_entropy_scan(
                channels.make_named_channel(fam, p=0.4), 2000, 33)
            wall = time.perf_counter() - t0
            it, nonopt = tracer.summary(first)["families"]["smin_up"]
            p50, p90, p99 = np.percentile(it, (50, 90, 99))
            print(f"scan {fam} p=0.4 n=2000 seed=33: {it.size} S_min-up "
                  f"instances, iterations p50/p90/p99/max "
                  f"{p50:g}/{p90:g}/{p99:g}/{it.max()}, {nonopt} non-optimal, "
                  f"{wall:.2f} s")
        first = tracer.mark()
        for fam, p in (("depolarizing", 0.3), ("dephasing1", 0.5),
                       ("dephasing2", 0.7)):
            dynamical.env_decoupling_dual(
                channels.make_named_channel(fam, p=p), 500, 7)
        fid = tracer.summary(first)["names"]["entropies.max_fidelity_uniform"]
        print(f"fidelity maximizer: {fid['calls']} calls, {fid['busy_s']:.2f} s, "
              f"{fid['busy_s'] / fid['calls']:.3f} s per call")
    finally:
        tracer.uninstall()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, help="result file of one run")
    ap.add_argument("--collect", type=Path, metavar="OUT")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated, default all")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.baseline:
        return baseline()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if args.collect:
        RESULTS.mkdir(exist_ok=True)
        names = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
        return collect(args.collect, args.runs, names, args.first_seed,
                       seconds, args.trace)
    if not args.workload:
        ap.error("--workload, --collect, --compare or --baseline is required")
    return run_once(args.workload, args.seed, seconds, bool(args.trace),
                    args.result)


if __name__ == "__main__":
    sys.exit(main())
