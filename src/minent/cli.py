# src/minent/cli.py
"""Command-line front end.

Subcommands: entropy (channel min-entropy queries), sweep (parameter
sweeps of the named qubit families, CSV + optional SVG), decouple
(Monte Carlo decoupling experiments), costs (erasure/preparation cost
reports), check (the full invariant suite). Randomized commands take a
seed and print it; outputs are deterministic given (flags, seed).

Exit codes: 0 success, 1 failed checks, 2 invalid spec/arguments,
3 solver failure, 4 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import channels, decoupling, dynamical, entropies, sdp, thermo
from .linalg import TOL, DensityOperator, maximally_entangled, maximally_mixed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_SPEC = 2
EXIT_SOLVER = 3
EXIT_UNWRITABLE = 4

SWEEP_FAMILIES = ("depolarizing", "dephasing1", "dephasing2")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _channel_from_args(args) -> channels.QuantumChannel:
    if getattr(args, "spec", None):
        text = args.spec
        if os.path.exists(text):
            with open(text) as fh:
                text = fh.read()
        return channels.channel_from_spec(text)
    spec = {"family": args.family}
    if getattr(args, "p", None) is not None:
        spec["p"] = args.p
    if getattr(args, "omega", None):
        spec["omega"] = args.omega if args.omega == "maximally-mixed" \
            else json.loads(args.omega)
    if getattr(args, "dims", None):
        spec["dims"] = args.dims
    return channels.channel_from_spec(spec)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# entropy


def cmd_entropy(args) -> int:
    try:
        channel = _channel_from_args(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid channel spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    try:
        report = dynamical.channel_min_entropy_scan(channel, args.n, args.seed)
    except ValueError as exc:  # a sample count below 1, or an SDP too large
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except (sdp.SdpFailure, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    payload = {
        "s_min": report.s_min,
        "s_min_certification": "exact",
        "sdp_cross_check": report.sdp_value,
        "sdp_certification": "exact",
        "scan_value": report.inf_scan_value,
        "scan_certification": "sampled",
        "n_scan_samples": report.n_scan_samples,
        "ppt": channels.is_ppt(channel),
        "seed": args.seed,
    }
    _emit(payload, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _sweep_value(family: str, p: float) -> float:
    return dynamical.channel_min_entropy(
        channels.make_named_channel(family, p=p))


def cmd_sweep(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    for fam in families:
        if fam not in SWEEP_FAMILIES:
            print(f"unknown sweep family {fam!r}", file=sys.stderr)
            return EXIT_BAD_SPEC
    if args.p_steps < 2:
        print("p-steps must be at least 2", file=sys.stderr)
        return EXIT_BAD_SPEC
    grid = [i / (args.p_steps - 1) for i in range(args.p_steps)]
    rows = []
    for fam in families:
        for p in grid:
            s_min = _sweep_value(fam, p)
            rows.append((fam, p, s_min, -s_min))
    lines = ["family,p,s_min,neg_s_min"]
    lines += [f"{fam},{_fmt(p)},{_fmt(s)},{_fmt(ns)}" for fam, p, s, ns in rows]
    text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    if args.svg:
        try:
            with open(args.svg, "w") as fh:
                fh.write(_sweep_svg(rows, families))
        except OSError as exc:
            print(f"cannot write {args.svg}: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
    print(f"wrote {len(rows)} rows to {args.out} (values exact)")
    return EXIT_OK


def _sweep_svg(rows, families) -> str:
    width, height, margin = 480, 320, 48
    ys = [r[3] for r in rows]
    ymin, ymax = min(ys) - 0.1, max(ys) + 0.1
    colors = {"depolarizing": "#1f77b4", "dephasing1": "#d62728",
              "dephasing2": "#2ca02c"}

    def sx(p):
        return margin + p * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - ymin) / (ymax - ymin) * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
             f' y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}"'
             f' y2="{height - margin}" stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
             f'text-anchor="middle">p</text>',
             f'<text x="14" y="{height // 2}" font-size="12" '
             f'text-anchor="middle" transform="rotate(-90 14 {height // 2})">'
             f'negative min-entropy</text>']
    for k, fam in enumerate(families):
        pts = [(sx(p), sy(ns)) for f, p, _, ns in rows if f == fam]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        color = colors.get(fam, "#444444")
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin - 120}" y="{margin + 16 * k}" '
                     f'font-size="12" fill="{color}">{fam}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# decouple


def cmd_decouple(args) -> int:
    try:
        spec = json.loads(args.spec) if args.spec else {}
    except json.JSONDecodeError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    try:
        if not isinstance(spec, dict):
            raise ValueError("must be a JSON object")
        eps = channels._real(spec.get("epsilon", 0.0), "epsilon")
        if args.mode == "subsystem":
            return _decouple_subsystem_from_spec(spec, eps, args)
        if args.mode == "states":
            source = _state_from_spec(spec)
            da, run_mc = source.dims[1], decoupling.decouple_states_mc
        else:
            source = channels.channel_from_spec(spec["channel"])
            da, run_mc = source.out_dim, decoupling.decouple_channel_mc
        report = run_mc(source, _post_map(spec, da), args.n, eps,
                        decoupling.HaarSampler(da, seed=args.seed))
    except (ValueError, KeyError) as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except (sdp.SdpFailure, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if report.skipped > 0.1 * (report.n_samples + report.skipped):
        print("solver failure rate above 10%", file=sys.stderr)
        return EXIT_SOLVER
    _emit(report.to_json(), args.json)
    return EXIT_OK


def _state_from_spec(spec) -> DensityOperator:
    name = spec.get("state", "maximally-entangled")
    d = channels._positive_int(spec.get("dim", 2), "dim")
    # the bound's S_min SDP has the (d, d) state as one block and d^2
    # constraints: refuse a state it cannot take before building it
    sdp.check_size((d * d,), d * d)
    if name == "maximally-entangled":
        return maximally_entangled(d)
    if name == "product-mixed":
        return DensityOperator(np.eye(d * d) / (d * d), (d, d))
    raise ValueError(f"unknown state {name!r}")


def _post_map(spec, da):
    name = spec.get("post", "identity")
    if name == "identity":
        return channels.identity_channel(da)
    if name == "trace-half":
        if da != 4:
            raise ValueError("trace-half expects a two-qubit A")
        return channels.partial_trace_channel((2, 2), [0])
    raise ValueError(f"unknown post-processing map {name!r}")


def _stinespring_state(channel) -> DensityOperator:
    """The Stinespring isometry applied to Phi on (R, A'): pure on (R, A, E)."""
    iso = channels.stinespring_isometry(channel)
    dr = channel.in_dim
    lift = np.kron(np.eye(dr), iso.isometry)
    big = lift @ maximally_entangled(dr).matrix @ lift.conj().T
    return DensityOperator(big, (dr, iso.out_dim, iso.env_dim))


def _decouple_subsystem_from_spec(spec, eps, args) -> int:
    channel = channels.channel_from_spec(spec["channel"])
    phi = _stinespring_state(channel)
    sampler = decoupling.HaarSampler(phi.dims[1], seed=args.seed)
    found = decoupling.find_decoupled_subsystem(
        phi, channels._real(spec.get("delta_prime", 0.2), "delta_prime"), eps,
        sampler, max_tries=args.n)
    _emit({
        "a1_dim": found.a1_dim,
        "trace_distance_to_product": found.trace_distance_to_product,
        "delta_prime": found.delta_prime,
        "epsilon": eps,
        "guaranteed_dim": found.guaranteed_dim,
        "certification": "sampled",
        "seed": args.seed,
    }, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# costs


def cmd_costs(args) -> int:
    if not 0 <= args.mu < 1:
        print("mu must lie in [0, 1)", file=sys.stderr)
        return EXIT_BAD_SPEC
    if not 0 < args.temperature < math.inf:  # NaN fails too
        print("temperature must be finite and positive", file=sys.stderr)
        return EXIT_BAD_SPEC
    try:
        channel = _channel_from_args(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid channel spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    try:
        report = thermo.channel_costs(channel, args.mu, args.temperature,
                                      n_samples=args.n, seed=args.seed)
    except ValueError as exc:  # e.g. an erasure SDP too large to solve
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except (sdp.SdpFailure, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    payload = report.to_json()
    payload["seed"] = args.seed
    if args.mu == 0:
        payload["zero_error_equality_gap"] = report.zero_error_gap
    _emit(payload, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check: full invariant suite


def _invariants(seed: int):
    """Yield (name, passed, detail) for every module invariant."""
    from . import _sampling
    from .linalg import (HermitianOperator, fidelity, herm_eig, partial_trace,
                         partial_transpose, pure_state, tensor, trace_norm)

    rng = _sampling.stream(seed, 0xC4EC)

    # linalg
    h = _sampling.complex_ginibre(rng, (16, 16))
    h = (h + h.conj().T) / 2
    w, v = herm_eig(HermitianOperator(h))
    recon = np.linalg.norm((v * w) @ v.conj().T - h)
    yield "linalg.herm_eig reconstruction", recon < TOL.recon, f"{recon:.2e}"

    phi = maximally_entangled(2)
    tn = trace_norm(phi.matrix - np.eye(4) / 4)
    yield "linalg.trace_norm Phi - pi x pi", abs(tn - 1.5) < 1e-12, f"{tn}"

    g = _sampling.random_density_matrices(rng, 4, 2)
    r1, r2 = (DensityOperator(m) for m in g)
    f = fidelity(r1, r2)
    td = 0.5 * trace_norm(r1.matrix - r2.matrix)
    fvdg = (1 - math.sqrt(f) <= td + 1e-9) and (td <= math.sqrt(1 - f) + 1e-9)
    yield "linalg.fuchs-van-de-graaf", fvdg, f"F={f:.4f} T={td:.4f}"

    a = DensityOperator(g[0], (2, 2))
    b = DensityOperator(g[1], (2, 2))
    prod = tensor(a.op, b.op)
    back = partial_trace(HermitianOperator(prod.matrix, (4, 4)), [0])
    yield "linalg.partial_trace of tensor", \
        np.abs(back.matrix - a.matrix).max() < 1e-12, ""

    pt2 = partial_transpose(partial_transpose(a.op, 1), 1)
    yield "linalg.partial_transpose involution", \
        np.abs(pt2.matrix - a.matrix).max() < 1e-14, ""

    # sdp: the returned certificate; X and the dual slack S = C - sum y_i A_i
    # are PSD, and the dual value is not above the primal one
    c, a = np.eye(2), np.eye(2)[None]
    res = sdp.solve_stack([c], [a], [1.0], "min")
    slack = c - np.tensordot(res["y"][0], a, 1)
    low = np.linalg.eigvalsh([res["x_complex"][0][0], slack]).min()
    passed = res["ok"][0] and low >= -TOL.psd \
        and res["dual_value"][0] <= res["primal_value"][0] + 1e-7
    yield "sdp.weak_duality", bool(passed), res["status_str"][0]

    base = entropies.cond_min_entropy_up(phi)
    yield "sdp.closed_form_agreement Phi", abs(base + 1.0) < 1e-6, f"{base:.2e}"

    # channels
    for fam, p in (("depolarizing", 0.3), ("dephasing1", 0.6), ("dephasing2", 0.4)):
        ch = channels.make_named_channel(fam, p=p)
        marg = partial_trace(channels.choi_matrix(ch), [0]).matrix
        ok = np.abs(marg - np.eye(2) / 2).max() < 1e-10
        yield f"channels.choi_marginal {fam}", ok, ""

    ch = channels.depolarizing(0.3)
    iso = channels.stinespring_isometry(ch)
    psi = pure_state(_sampling.random_pure_vectors(rng, 2, 1)[0])
    via_kraus = channels.apply(ch, psi).matrix
    big = iso.isometry @ psi.matrix @ iso.isometry.conj().T
    via_iso = partial_trace(HermitianOperator(big, (2, iso.env_dim)), [0]).matrix
    yield "channels.stinespring_agree", np.abs(via_kraus - via_iso).max() < 1e-10, ""

    via_swap, _ = channels.replacer_swap_dilation(r1)
    gap = np.abs(channels.choi_matrix(via_swap).matrix
                 - channels.choi_matrix(channels.replacer(r1)).matrix).max()
    yield "channels.swap_dilation_choi", gap < 1e-12, f"{gap:.2e}"

    idc = channels.identity_channel(2)
    rpi = channels.replacer(maximally_mixed(2))
    dd = channels.diamond_distance(idc, rpi)
    samp = 0.0
    for vec in _sampling.random_pure_vectors(rng, 4, 32):
        st = pure_state(vec, (2, 2))
        out = st.matrix - np.kron(partial_trace(st.op, [0]).matrix, np.eye(2) / 2)
        samp = max(samp, 0.5 * trace_norm(out))
    yield "channels.diamond_sampled_lower_bound", samp <= dd + 1e-7, \
        f"{samp:.4f} <= {dd:.4f}"

    yield "channels.ppt_threshold", \
        (not channels.is_ppt(channels.depolarizing(0.499))) and \
        channels.is_ppt(channels.depolarizing(0.501)), ""

    # entropies
    rho, sig = (DensityOperator(m) for m in _sampling.random_density_matrices(rng, 2, 2))
    pre = entropies.d_max(rho, sig.op)
    out_r = channels.apply(ch, rho)
    out_s = channels.apply(ch, sig)
    post = entropies.d_max(out_r, out_s.op)
    yield "entropies.data_processing_dmax", post <= pre + 1e-9, \
        f"{post:.4f} <= {pre:.4f}"

    vals = [entropies.sandwiched_renyi(alpha, rho, sig.op)
            for alpha in (0.5, 0.9, 1.1, 2.0, math.inf)]
    mono = all(vals[i] <= vals[i + 1] + 1e-9 for i in range(len(vals) - 1))
    yield "entropies.alpha_monotone", mono, " ".join(f"{x:.3f}" for x in vals)

    two = DensityOperator(_sampling.random_density_matrices(rng, 4, 1)[0], (2, 2))
    up = entropies.cond_min_entropy_up(two)
    down = entropies.cond_min_entropy_down(two)
    yield "entropies.up_ge_down", down <= up + 1e-9, f"{down:.4f} <= {up:.4f}"

    e = 0.2
    dh = entropies.d_hypothesis(e, rho, sig.op)
    low = entropies.petz_renyi(0, rho, sig.op) + math.log2(1 / (1 - e))
    high = entropies.d_max(rho, sig.op) + math.log2(1 / (1 - e))
    yield "entropies.hypothesis_sandwich", low - 1e-9 <= dh <= high + 1e-9, \
        f"{low:.4f} <= {dh:.4f} <= {high:.4f}"

    # dynamical
    for fam, p in (("depolarizing", 0.2), ("dephasing2", 0.7)):
        ch2 = channels.make_named_channel(fam, p=p)
        smin = dynamical.channel_min_entropy(ch2)
        in_range = -1 - 1e-9 <= smin <= 1 + 1e-9
        agree = abs(smin - dynamical.channel_min_entropy_sdp(ch2)) < 1e-6
        yield f"dynamical.bounds_and_sdp {fam}", in_range and agree, f"{smin:.4f}"

    dual = dynamical.singlet_fidelity_dual(ch, 24, seed)
    yield "dynamical.singlet_dual_below", \
        dual <= -dynamical.channel_min_entropy(ch) + 1e-6, f"{dual:.4f}"

    u1, u2 = (channels.unitary_channel(u) for u in
              _sampling.haar_unitaries(_sampling.stream(seed, 0xC0DA), 2, 2))
    framed = channels.compose(u2, channels.compose(ch, u1))
    shift = abs(dynamical.channel_min_entropy(framed)
                - dynamical.channel_min_entropy(ch))
    yield "dynamical.unitary_covariance", shift < 1e-9, f"{shift:.2e}"

    # Lipschitz bound (1/ln 2) |A| min(|A|, |A'|) delta on qubits
    change = abs(dynamical.channel_min_entropy(idc)
                 - dynamical.channel_min_entropy(rpi))
    lip = 4 / math.log(2) * dd
    yield "dynamical.continuity_diamond", change <= lip + 1e-9, \
        f"{change:.4f} <= {lip:.4f}"

    kraus_sets = _sampling.random_channels_kraus(rng, 2, 2, 2, 8)
    ppt_ok = True
    for ks in kraus_sets:
        cch = channels.QuantumChannel(ks)
        if channels.is_ppt(cch) and dynamical.channel_min_entropy(cch) < -1e-9:
            ppt_ok = False
    yield "dynamical.ppt_nonnegative", ppt_ok, ""

    # decoupling
    us = _sampling.haar_unitaries(rng, 4, 128)
    unit = max(np.abs(u.conj().T @ u - np.eye(4)).max() for u in us)
    yield "decoupling.haar_unitarity", unit < 1e-10, f"{unit:.2e}"

    qs = _sampling.haar_unitaries(rng, 2, 2048)
    fixed = DensityOperator(np.array([[0.8, 0.1], [0.1, 0.2]]))
    twirl = np.einsum("bij,jk,blk->il", qs, fixed.matrix, qs.conj()) / len(qs)
    tdst = 0.5 * trace_norm(twirl - np.eye(2) / 2)
    yield "decoupling.twirl_first_moment", tdst < 0.05, f"{tdst:.4f}"

    repo = decoupling.decouple_states_mc(
        phi, idc, 16, 0.0, decoupling.HaarSampler(2, seed, 3))
    yield "decoupling.states_phi_exact", \
        repo.passed and abs(repo.mean_lhs - 1.5) < 1e-9 and repo.std_err < 1e-9, \
        f"{repo.mean_lhs:.6f}"

    repo = decoupling.decouple_channel_mc(
        rpi, idc, 4, 0.0, decoupling.HaarSampler(2, seed, 4))
    yield "decoupling.channel_replacer_zero", \
        repo.passed and repo.mean_lhs < 1e-9, f"{repo.mean_lhs:.2e}"

    # the README subsystem example; the ledger pays log|A| - 2 log|A1|
    # with |A| = 2
    sub = decoupling.erasure_protocol_work(
        _stinespring_state(channels.depolarizing(0.9)), 0.35, 0.0, 300.0,
        decoupling.HaarSampler(2, seed, 5))
    ledger = 1.0 - 2 * math.log2(sub.a1_dim)
    yield "decoupling.erasure_protocol_ledger", \
        sub.a1_dim >= sub.guaranteed_dim and abs(sub.work.bits - ledger) < 1e-12, \
        f"a1={sub.a1_dim} g={sub.guaranteed_dim} work={sub.work.bits:g}"

    # thermo
    w = thermo.WorkCost(1.0, 300.0)
    yield "thermo.unit_conversion", \
        abs(w.joules - thermo.K_B * 300.0 * math.log(2)) < 1e-30, f"{w.joules:.3e}"

    ok = True
    for fam, p in (("depolarizing", 0.3), ("dephasing1", 0.5), ("dephasing2", 0.8)):
        ch3 = channels.make_named_channel(fam, p=p)
        rep3 = thermo.channel_costs(ch3, 0.0, 300.0, n_samples=16, seed=seed)
        ok = ok and rep3.zero_error_gap < 1e-6
    yield "thermo.zero_error_identity", ok, ""

    sum_ok = True
    for m in _sampling.random_density_matrices(rng, 4, 24):
        rep4 = thermo.sum_bound_check(DensityOperator(m, (2, 2)), 0.0)
        sum_ok = sum_ok and rep4.passed
    yield "thermo.sum_bound_mu0", sum_ok, ""

    yield "thermo.sign_semantics", \
        thermo.work_extraction_ledger(1, 300.0).extractable(), ""

    # at eps = 0: -S_min + Delta bits with probability 1 - sqrt(2^(-Delta/2))
    adv = thermo.adversarial_erasure_bound(ch, 0.0, 4.0, 300.0)
    adv_ok = adv.valid \
        and abs(adv.bound.bits + dynamical.channel_min_entropy(ch) - 4.0) < 1e-12 \
        and abs(adv.probability - (1 - math.sqrt(2.0 ** -2.0))) < 1e-12
    yield "thermo.adversarial_bound_eps0", adv_ok, \
        f"{adv.bound.bits:.4f} bits w.p. {adv.probability:.4f}"


def cmd_check(args) -> int:
    failures = 0
    for name, passed, detail in _invariants(args.seed):
        tag = "ok  " if passed else "FAIL"
        line = f"{tag} {name}"
        if detail:
            line += f"  [{detail}]"
        print(line)
        failures += 0 if passed else 1
    print(f"{'all invariants hold' if not failures else f'{failures} failures'}"
          f" (seed {args.seed})")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", action="append", default=[],
                           metavar="NAME=VALUE", help="override a tolerance")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=42)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="machine-readable output")
    channel = argparse.ArgumentParser(add_help=False)
    channel.add_argument("--family")
    channel.add_argument("--p", type=float)
    channel.add_argument("--omega", help="maximally-mixed or JSON [re, im] pairs")
    channel.add_argument("--dims", type=int)
    channel.add_argument("--spec", help="JSON channel spec (inline or path)")

    parser = argparse.ArgumentParser(
        prog="minent",
        description="one-shot channel entropies, decoupling experiments, "
                    "and erasure cost reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *shared, **kw):
        """A subcommand taking --tolerance and the shared flags it reads."""
        return sub.add_parser(name, parents=[tolerance, *shared], **kw)

    p = add("entropy", seed, as_json, channel,
            help="min-entropy of a named channel")
    p.add_argument("--n", type=int, default=64, help="scan sample count")
    p.set_defaults(func=cmd_entropy)

    p = add("sweep", help="parameter sweep of the qubit families")
    p.add_argument("--families", default=",".join(SWEEP_FAMILIES))
    p.add_argument("--p-steps", type=int, default=21, dest="p_steps")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_sweep)

    p = add("decouple", seed, as_json, help="Monte Carlo decoupling experiment")
    p.add_argument("--mode", choices=("states", "channel", "subsystem"),
                   required=True)
    p.add_argument("--spec", help="JSON experiment spec")
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(func=cmd_decouple)

    p = add("costs", seed, as_json, channel,
            help="erasure/preparation cost report")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(func=cmd_costs)

    p = add("check", seed, help="run the invariant suite")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {}
    for item in args.tolerance:  # validate every override before applying any
        try:
            name, value = TOL.parse_override(item)
        except ValueError as exc:
            print(f"bad tolerance override {item!r}: {exc}", file=sys.stderr)
            return EXIT_BAD_SPEC
        overrides[name] = value
    with TOL.overridden(overrides):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
