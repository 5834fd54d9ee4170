"""Seeded workloads of the minent benchmark and their reference checks.

A workload is a list of rounds; a round is a fixed list of job kinds whose
inputs (channel parameters, states, unitaries, channel pairs and the
seeds handed to minent) are drawn from the workload seed with numpy.
Every job's output is checked against a reference computed here in
numpy from the family definitions, never through the code path under
test. A job fails when it raises, exits nonzero or fails its check.

- query: short CLI calls at their defaults (n = 64), the interactive use.
- audit: acceptance-size batches (scans at n = 2000, process decoupling
  at n = 200, 500 qubit diamond norms) that run the large SDP stacks.
- smoothed: channel costs at mu > 0 and the environment-decoupling dual,
  which solve one hypothesis-testing SDP at a time and run the
  Nelder-Mead fidelity maximizer, bypassing the large stacks.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL_REF = 1e-6
PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
         "z": np.array([[1, 0], [0, -1]], dtype=complex)}
DECOUPLE_FIELDS = {"n_samples", "mean_lhs", "std_err", "bound_rhs",
                   "epsilon", "pass"}
COST_FIELDS = {"mu", "temperature_kelvin", "prep_bits", "eras_bits",
               "prep_joules", "eras_joules", "s_min_channel", "certification"}
ENTROPY_FIELDS = {"s_min", "s_min_certification", "sdp_cross_check",
                  "sdp_certification", "scan_value", "scan_certification",
                  "n_scan_samples", "ppt", "seed"}
WORKLOADS = ("query", "audit", "smoothed")


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Outcome:
    """What a job reports besides its latency."""

    items: int                 # certified items: inputs, samples, instances
    samples: int = 0           # samples the library could have skipped
    skipped: int = 0           # samples the library reports as skipped
    solved: dict = field(default_factory=dict)  # instance counts reported


@dataclass
class Job:
    kind: str
    params: dict
    run: object  # callable () -> Outcome


# ---------------------------------------------------------------------------
# reference channel algebra (independent of minent)


def _random_density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph[None, :]


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def action(spec: dict):
    """rho -> N(rho) for a channel spec, written from the family definitions."""
    fam = spec["family"]
    if fam == "depolarizing":
        p = spec["p"]
        return lambda r: (1 - p) * r + p / 3 * sum(s @ r @ s for s in PAULI.values())
    if fam == "dephasing1":
        p = spec["p"]
        return lambda r: (1 - p) * r + p * np.diag(np.diag(r))
    if fam == "dephasing2":
        p = spec["p"]
        return lambda r: (1 - p) * r + p * PAULI["z"] @ r @ PAULI["z"]
    if fam == "replacer":
        om = np.array([[complex(*z) for z in row] for row in spec["omega"]])
        return lambda r: np.trace(r) * om
    if fam == "unitary":
        u = np.array([[complex(*z) for z in row] for row in spec["unitary"]])
        return lambda r: u @ r @ u.conj().T
    if fam == "povm":
        els = [np.array([[complex(*z) for z in row] for row in el])
               for el in spec["povm"]]
        return lambda r: np.diag([np.trace(el @ r) for el in els])
    raise ValueError(fam)


def kraus_action(kraus):
    return lambda r: sum(k @ r @ k.conj().T for k in kraus)


def choi(act, d_in: int) -> np.ndarray:
    """Unnormalized Choi sum_ij |i><j| (x) N(|i><j|), reference on the left."""
    blocks = []
    for i in range(d_in):
        row = []
        for j in range(d_in):
            e = np.zeros((d_in, d_in), dtype=complex)
            e[i, j] = 1.0
            row.append(act(e))
        blocks.append(row)
    d_out = blocks[0][0].shape[0]
    out = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            out[i * d_out:(i + 1) * d_out, j * d_out:(j + 1) * d_out] = blocks[i][j]
    return out


def closed_form(gamma: np.ndarray) -> float:
    """S_min = -log2(d lambda_max(Choi state)) with the Choi state gamma / d."""
    return -math.log2(float(np.linalg.eigvalsh(gamma).max()))


def ppt_margin(gamma: np.ndarray, d_in: int) -> float:
    d_out = gamma.shape[0] // d_in
    pt = gamma.reshape(d_in, d_out, d_in, d_out).transpose(0, 3, 2, 1) \
        .reshape(gamma.shape)
    return float(np.linalg.eigvalsh(pt).min()) / d_in


def spec_closed_form(spec: dict) -> float:
    return closed_form(choi(action(spec), 2))


# ---------------------------------------------------------------------------
# seeded inputs


def draw_spec(rng, family: str, lo: float = 0.15, hi: float = 0.85) -> dict:
    if family in ("depolarizing", "dephasing1", "dephasing2"):
        return {"family": family, "p": float(rng.uniform(lo, hi))}
    if family == "replacer":
        return {"family": family, "omega": _pairs(_random_density(rng, 2))}
    if family == "unitary":
        return {"family": family, "unitary": _pairs(_random_unitary(rng, 2))}
    if family == "povm":
        w = rng.uniform(0.1, 0.9, size=2)
        u = _random_unitary(rng, 2)
        l0 = (u * w) @ u.conj().T
        return {"family": family, "povm": [_pairs(l0), _pairs(np.eye(2) - l0)]}
    raise ValueError(family)


def random_qubit_kraus(rng, count: int = 2):
    """Kraus operators of a random qubit channel from a Haar isometry."""
    z = rng.normal(size=(2 * count, 2)) + 1j * rng.normal(size=(2 * count, 2))
    q, r = np.linalg.qr(z)
    v = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    return [v[[a * count + e for a in range(2)]] for e in range(count)]


# ---------------------------------------------------------------------------
# query: CLI jobs


def _cli(argv):
    from minent import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    require(code == 0, f"exit code {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def q_entropy(spec: dict, seed: int):
    def run():
        out = json.loads(_cli(["entropy", "--spec", json.dumps(spec),
                               "--seed", str(seed), "--json"]))
        require(ENTROPY_FIELDS <= out.keys(), "entropy JSON fields")
        gamma = choi(action(spec), 2)
        cf = closed_form(gamma)
        require(abs(out["s_min"] - cf) <= TOL_REF, "s_min vs closed form")
        require(abs(out["sdp_cross_check"] - cf) <= TOL_REF, "SDP vs closed form")
        require(out["scan_value"] >= cf - TOL_REF, "scan below closed form")
        margin = ppt_margin(gamma, 2)
        if abs(margin) > TOL_REF:
            require(out["ppt"] == (margin > 0), "PPT flag")
        n = int(out["n_scan_samples"])
        return Outcome(items=n, solved={"smin_up": n})
    return run


def q_costs(spec: dict, seed: int):
    def run():
        out = json.loads(_cli(["costs", "--spec", json.dumps(spec),
                               "--seed", str(seed), "--json"]))
        require(COST_FIELDS <= out.keys(), "cost JSON fields")
        cf = spec_closed_form(spec)
        for key in ("prep_bits", "eras_bits"):
            require(abs(out[key] + cf) <= TOL_REF, f"mu=0 {key} vs -S_min")
        require(abs(out["s_min_channel"] - cf) <= TOL_REF, "s_min_channel")
        # 1 + d^2 + n pure inputs, 1 + d + n/2 mixed inputs at n = 64, d = 2
        return Outcome(items=(1 + 4 + 64) + (1 + 2 + 32))
    return run


def _check_decoupling(out: dict) -> None:
    require(set(out) == DECOUPLE_FIELDS, "decoupling JSON fields")
    require(out["pass"] and out["mean_lhs"] <= out["bound_rhs"],
            "decoupling mean above bound")


def q_decouple(mode: str, spec: dict, seed: int):
    def run():
        out = json.loads(_cli(["decouple", "--mode", mode, "--spec",
                               json.dumps(spec), "--seed", str(seed), "--json"]))
        _check_decoupling(out)
        kept = int(out["n_samples"])
        if mode == "states":  # no per-sample solve, nothing to skip
            return Outcome(items=kept)
        return Outcome(items=kept, samples=64, skipped=64 - kept)
    return run


def q_sweep(families: list, steps: int, out_path: Path):
    def run():
        _cli(["sweep", "--families", ",".join(families), "--p-steps",
              str(steps), "--out", str(out_path)])
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == steps * len(families), "sweep row count")
        for row in rows:
            cf = spec_closed_form({"family": row["family"], "p": float(row["p"])})
            require(abs(float(row["s_min"]) - cf) <= TOL_REF, "sweep value")
        return Outcome(items=0)
    return run


def q_check(seed: int):
    def run():
        text = _cli(["check", "--seed", str(seed)])
        require(text.strip().splitlines()[-1].startswith("all invariants hold"),
                "invariant suite")
        return Outcome(items=0)
    return run


# measurement (povm) channels go to the costs jobs only: their scans run the
# Nelder-Mead polish, 3-9 s a call, which is not an interactive query
QUERY_FAMILIES = ("depolarizing", "dephasing1", "dephasing2", "replacer",
                  "unitary")


def query_round(rng, scratch: Path) -> list:
    jobs = []
    for fam in QUERY_FAMILIES:
        spec = draw_spec(rng, fam)
        jobs.append(Job("entropy", spec, q_entropy(spec, int(rng.integers(1 << 16)))))
    for fam in ("replacer", "povm"):
        spec = draw_spec(rng, fam)
        jobs.append(Job("costs", spec, q_costs(spec, int(rng.integers(1 << 16)))))
    ch = draw_spec(rng, str(rng.choice(QUERY_FAMILIES[:3])))
    spec = {"channel": ch, "post": "identity"}
    jobs.append(Job("decouple-channel", spec,
                    q_decouple("channel", spec, int(rng.integers(1 << 16)))))
    spec = {"state": str(rng.choice(["maximally-entangled", "product-mixed"]))}
    jobs.append(Job("decouple-states", spec,
                    q_decouple("states", spec, int(rng.integers(1 << 16)))))
    fams = sorted(rng.choice(QUERY_FAMILIES[:3], size=2, replace=False).tolist())
    steps = int(rng.integers(11, 32))
    jobs.append(Job("sweep", {"families": fams, "p_steps": steps},
                    q_sweep(fams, steps, scratch / "sweep.csv")))
    seed = int(rng.integers(1 << 16))
    jobs.append(Job("check", {"seed": seed}, q_check(seed)))
    return jobs


# ---------------------------------------------------------------------------
# audit: acceptance-size batches through the library


def a_scan(spec: dict, seed: int, n: int = 2000):
    def run():
        from minent import channels, dynamical

        ch = channels.channel_from_spec(spec)
        rep = dynamical.channel_min_entropy_scan(ch, n, seed)
        cf = spec_closed_form(spec)
        require(abs(rep.s_min - cf) <= TOL_REF, "scan s_min vs closed form")
        require(abs(rep.sdp_value - cf) <= TOL_REF, "SDP cross-check")
        require(rep.inf_scan_value >= cf - TOL_REF, "scan below closed form")
        solved = rep.n_scan_samples
        skipped = int(rep.gap_flags["skipped_samples"])
        return Outcome(items=solved - skipped, samples=solved, skipped=skipped,
                       solved={"smin_up": solved})
    return run


def a_decouple(p: float, seed: int, n: int = 200):
    def run():
        from minent import channels, decoupling

        pair = channels.tensor_channels(channels.depolarizing(p),
                                        channels.depolarizing(p))
        tmap = channels.partial_trace_channel((2, 2), [0])
        rep = decoupling.decouple_channel_mc(
            pair, tmap, n, 0.0, decoupling.HaarSampler(4, seed=seed))
        _check_decoupling(rep.to_json())
        require(rep.n_samples + rep.skipped == n, "sample count")
        return Outcome(items=rep.n_samples, samples=n, skipped=rep.skipped,
                       solved={"diamond": n})
    return run


def a_diamond(pairs):
    def run():
        from minent import decoupling

        diffs = [choi(kraus_action(a), 2) - choi(kraus_action(b), 2)
                 for a, b in pairs]
        # criterion 8's failure-tolerant batch, as one stack of all pairs:
        # an instance the solver leaves non-optimal is reported, not raised
        halves, ok = decoupling._diamond_batch(diffs, 2, 2, chunk=len(diffs))
        require(len(halves) == len(pairs), "diamond count")
        for (a, b), j, half, good in zip(pairs, diffs, halves, ok):
            if not good:
                continue
            sampled = 0.25 * np.abs(np.linalg.eigvalsh(j)).sum()
            require(sampled <= half + TOL_REF and half <= 1 + TOL_REF,
                    "diamond vs maximally entangled input")
            lhs = abs(closed_form(choi(kraus_action(a), 2))
                      - closed_form(choi(kraus_action(b), 2)))
            require(lhs <= 4 / math.log(2) * half + 1e-9, "continuity bound")
        skipped = int(np.count_nonzero(~ok))
        return Outcome(items=len(pairs) - skipped, samples=len(pairs),
                       skipped=skipped, solved={"diamond": len(pairs)})
    return run


def audit_round(rng, scratch: Path) -> list:
    jobs = []
    for fam, lo, hi in (("depolarizing", 0.38, 0.42), ("dephasing2", 0.39, 0.41)):
        spec = draw_spec(rng, fam, lo, hi)
        jobs.append(Job("scan", spec, a_scan(spec, int(rng.integers(1 << 16)))))
    spec = draw_spec(rng, "replacer")
    jobs.append(Job("scan", spec, a_scan(spec, int(rng.integers(1 << 16)))))
    p = float(rng.uniform(0.45, 0.55))
    seed = int(rng.integers(1 << 16))
    jobs.append(Job("decouple-process", {"p": p, "n": 200, "seed": seed},
                    a_decouple(p, seed)))
    pairs = [(random_qubit_kraus(rng), random_qubit_kraus(rng))
             for _ in range(500)]
    jobs.append(Job("diamond-batch", {"pairs": 500}, a_diamond(pairs)))
    return jobs


# ---------------------------------------------------------------------------
# smoothed: one-instance hypothesis SDPs and the fidelity maximizer


def s_costs(spec: dict, mu: float, seed: int, n: int = 64):
    def run():
        from minent import channels, thermo

        ch = channels.channel_from_spec(spec)
        rep = thermo.channel_costs(ch, mu, 300.0, n_samples=n, seed=seed)
        cf = spec_closed_form(spec)
        require(rep.certification == "certified-upper", "certification label")
        require(abs(rep.s_min_channel - cf) <= TOL_REF, "s_min_channel")
        # smoothing can only raise the entropies the costs negate
        require(rep.prep_cost.bits <= -cf + TOL_REF, "prep above -S_min")
        require(rep.eras_cost.bits <= -cf + math.log2(1 - mu) + TOL_REF,
                "erasure above its ceiling")
        attempted = (1 + 4 + n) + (1 + 2 + n // 2)
        skipped = int(rep.attained_inputs["skipped_samples"])
        return Outcome(items=attempted - skipped, samples=attempted,
                       skipped=skipped)
    return run


def s_env_dual(spec: dict, seed: int, n: int = 64):
    def run():
        from minent import channels, dynamical

        ch = channels.channel_from_spec(spec)
        val = dynamical.env_decoupling_dual(ch, n, seed)
        require(val <= -spec_closed_form(spec) + TOL_REF, "env dual above -S_min")
        # basis and Haar pure inputs, maximally mixed and random mixed inputs
        return Outcome(items=2 + n + 1 + min(8, max(1, n // 64)))
    return run


# Which hypothesis SDPs hit max-iterations is chaotic in (p, mu, inputs):
# within p in [0.495, 0.505], mu in [0.058, 0.062] a depolarizing job skips
# 0 to 2 of its 35 erasure SDPs, at about 2 s each. The skipping job is
# therefore pinned where exactly 2 are skipped; the seed draws the rest.
SKIP_CASE = ({"family": "depolarizing", "p": 0.5}, 0.06, 42)


def smoothed_round(rng, scratch: Path) -> list:
    spec, mu, seed = SKIP_CASE
    jobs = [Job("costs-smoothed", dict(spec, mu=mu, seed=seed),
                s_costs(spec, mu, seed))]
    spec = draw_spec(rng, "dephasing2", 0.35, 0.45)
    mu = float(rng.uniform(0.08, 0.12))
    seed = int(rng.integers(1 << 16))
    jobs.append(Job("costs-smoothed", dict(spec, mu=mu, seed=seed),
                    s_costs(spec, mu, seed)))
    # the maximizer's run time follows the random mixed input, so its seed
    # stays that of the dual tests while the seed draws the channel
    spec = draw_spec(rng, "depolarizing", 0.58, 0.62)
    jobs.append(Job("env-dual", dict(spec, seed=7), s_env_dual(spec, 7)))
    return jobs


ROUNDS = {"query": query_round, "audit": audit_round, "smoothed": smoothed_round}


def rounds(workload: str, seed: int, scratch: Path):
    """Endless stream of rounds for a workload, all drawn from one seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    while True:
        yield ROUNDS[workload](rng, scratch)
