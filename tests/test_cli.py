import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minent import thermo
from minent.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestEntropy:
    def test_named_family_json(self, capsys):
        code, out, _ = run(capsys, "entropy", "--family", "depolarizing",
                           "--p", "0.75", "--n", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["s_min"] == pytest.approx(1.0, abs=1e-9)
        assert payload["ppt"] is True
        assert payload["s_min_certification"] == "exact"
        assert payload["seed"] == 42

    def test_unitary_family(self, capsys):
        code, out, _ = run(capsys, "entropy", "--family", "unitary",
                           "--n", "4", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["s_min"] == pytest.approx(-1.0)
        assert payload["ppt"] is False

    def test_replacer_spec(self, capsys):
        code, out, _ = run(capsys, "entropy", "--family", "replacer",
                           "--omega", "maximally-mixed", "--n", "4", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["s_min"] == pytest.approx(1.0)
        assert payload["ppt"] is True

    def test_replacer_omega_matrix(self, capsys):
        # the replacer onto diag(3/4, 1/4) has S_min = -log2(3/4)
        omega = "[[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]"
        code, out, _ = run(capsys, "entropy", "--family", "replacer",
                           "--omega", omega, "--n", "4", "--json")
        assert code == 0
        assert json.loads(out)["s_min"] == pytest.approx(-np.log2(0.75),
                                                         abs=1e-9)

    @pytest.mark.parametrize("omega", ["[[0.75", "pure", "[[1, 0], [0, 1]]"])
    def test_bad_omega_exit_2(self, capsys, omega):
        code, out, err = run(capsys, "entropy", "--family", "replacer",
                             "--omega", omega, "--json")
        assert code == 2
        assert out == "" and "invalid channel spec" in err

    def test_invalid_spec_exit_code(self, capsys):
        code, _, err = run(capsys, "entropy", "--family", "warp", "--json")
        assert code == 2
        assert "invalid" in err

    @pytest.mark.parametrize("argv, field", [
        (["--family", "depolarizing", "--p", "0.3", "--dims", "3"], "'dims'"),
        (["--family", "replacer", "--p", "0.3"], "'p'"),
        (["--spec", '{"family": "dephasing2", "p": 0.3, '
                    '"omega": "maximally-mixed", "dim": 5}'], "'dim', 'omega'"),
    ])
    def test_unused_field_exit_2(self, capsys, argv, field):
        # each of these used to print the value without the field
        code, out, err = run(capsys, "entropy", *argv, "--json")
        assert code == 2
        assert out == "" and f"does not use {field}" in err

    def test_spec_json_inline(self, capsys):
        code, out, _ = run(capsys, "entropy", "--spec",
                           '{"family": "dephasing2", "p": 0.5}',
                           "--n", "4", "--json")
        assert code == 0
        assert json.loads(out)["s_min"] == pytest.approx(0.0, abs=1e-9)

    # these used to end in a ValueError traceback with exit 1
    @pytest.mark.parametrize("argv, message", [
        (["--family", "depolarizing", "--p", "0.5", "--n", "0"], "at least 1"),
        (["--family", "depolarizing", "--p", "0.5", "--n", "-3"], "at least 1"),
        (["--family", "replacer", "--dims", "9", "--n", "2"], "exceeds 64"),
    ])
    def test_invalid_arguments_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "entropy", *argv, "--json")
        assert code == 2
        assert out == ""
        assert "invalid arguments" in err and message in err


class TestSweep:
    def test_csv_endpoints(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--p-steps", "21",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "family,p,s_min,neg_s_min"
        rows = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[3])
                for r in lines[1:]}
        assert rows[("depolarizing", "0")] == pytest.approx(1.0)
        assert rows[("depolarizing", "0.75")] == pytest.approx(-1.0)
        assert rows[("dephasing1", "1")] == pytest.approx(0.0, abs=1e-12)
        assert rows[("dephasing2", "0.5")] == pytest.approx(0.0, abs=1e-12)

    def test_dephasing2_symmetry(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--families", "dephasing2", "--p-steps", "11",
            "--out", str(out_file))
        rows = [r.split(",") for r in
                out_file.read_text().strip().split("\n")[1:]]
        vals = {float(p): float(ns) for _, p, _, ns in rows}
        for p in (0.0, 0.1, 0.2, 0.3, 0.4):
            assert vals[p] == pytest.approx(vals[1 - p], abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--out", str(f1))
        run(capsys, "sweep", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_svg_emitted(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        svg_file = tmp_path / "sweep.svg"
        code, _, _ = run(capsys, "sweep", "--out", str(out_file),
                         "--svg", str(svg_file))
        assert code == 0
        text = svg_file.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "sweep", "--out", "/nonexistent/dir/x.csv")
        assert code == 4

    def test_bad_family(self, capsys):
        code, _, _ = run(capsys, "sweep", "--families", "amplitude",
                         "--out", "/tmp/x.csv")
        assert code == 2


DECOUPLE_MODES = ("states", "channel", "subsystem")
# leaves of drawn specs; integers stay small, since a valid state of a
# large dim makes an example take seconds (the large dims drawn for "dim"
# are all refused)
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 4),
                        st.floats(), st.text(max_size=4))
# channel specs, most of them valid: the wire format's own fuzzing is in
# test_channels
CHANNEL_SPECS = st.sampled_from([
    {"family": "depolarizing", "p": 0.9}, {"family": "dephasing2", "p": 0.3},
    {"family": "replacer", "omega": "maximally-mixed", "dims": 3},
    {"family": "povm", "dims": 4}, {"family": "unitary"},
    '{"family": "dephasing1", "p": 0.5}', {"family": "bogus"}, {"p": 0.5},
    None, 5, "x", [], {}])
SPEC_FIELDS = {
    "state": st.one_of(st.sampled_from(["maximally-entangled", "product-mixed",
                                        "bogus"]), JSON_LEAVES),
    "dim": st.one_of(JSON_LEAVES, st.sampled_from([9, 10 ** 6, 1e300])),
    "post": st.one_of(st.sampled_from(["identity", "trace-half"]), JSON_LEAVES),
    "epsilon": JSON_LEAVES,
    "delta_prime": JSON_LEAVES,
}
# any JSON value, an object with any of the fields, or one with a channel
DECOUPLE_SPECS = st.one_of(
    st.recursive(JSON_LEAVES, lambda kids: st.lists(kids, max_size=2)
                 | st.dictionaries(st.text(max_size=3), kids, max_size=2),
                 max_leaves=4),
    st.fixed_dictionaries({}, optional={**SPEC_FIELDS, "channel": CHANNEL_SPECS}),
    st.fixed_dictionaries({"channel": CHANNEL_SPECS}, optional=SPEC_FIELDS))
# qubit channels for the costs fuzz, valid at every drawn parameter
QUBIT_SPECS = st.one_of(
    st.fixed_dictionaries({"family": st.sampled_from(["depolarizing", "dephasing1",
                                                      "dephasing2"]),
                           "p": st.floats(0.0, 1.0)}),
    st.sampled_from([{"family": "replacer", "omega": "maximally-mixed"},
                     {"family": "unitary"}, {"family": "povm"}]))


class TestDecouple:
    def test_states_mode(self, capsys):
        code, out, _ = run(capsys, "decouple", "--mode", "states",
                           "--spec", '{"state": "maximally-entangled"}',
                           "--n", "12", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n_samples", "mean_lhs", "std_err",
                                "bound_rhs", "epsilon", "pass"}
        assert payload["pass"] is True
        assert payload["mean_lhs"] == pytest.approx(1.5, abs=1e-9)

    def test_channel_mode_replacer(self, capsys):
        spec = json.dumps({"channel": {"family": "replacer",
                                       "omega": "maximally-mixed"},
                           "post": "identity"})
        code, out, _ = run(capsys, "decouple", "--mode", "channel",
                           "--spec", spec, "--n", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_lhs"] == pytest.approx(0.0, abs=1e-9)
        assert payload["pass"] is True

    def test_subsystem_mode(self, capsys):
        spec = json.dumps({"channel": {"family": "depolarizing", "p": 0.9},
                           "delta_prime": 0.35})
        code, out, _ = run(capsys, "decouple", "--mode", "subsystem",
                           "--spec", spec, "--n", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["a1_dim"] >= 1

    def test_states_mode_positive_epsilon(self, capsys):
        payloads = {}
        for eps in (0.0, 0.05):
            spec = json.dumps({"state": "maximally-entangled", "epsilon": eps})
            code, out, _ = run(capsys, "decouple", "--mode", "states",
                               "--spec", spec, "--n", "12", "--json")
            assert code == 0
            payloads[eps] = json.loads(out)
        smoothed = payloads[0.05]
        assert smoothed["epsilon"] == 0.05
        assert smoothed["pass"] is True
        assert smoothed["bound_rhs"] >= payloads[0.0]["bound_rhs"]

    def test_subsystem_mode_positive_epsilon(self, capsys):
        # this mode's JSON echoes epsilon but has no pass or bound_rhs:
        # epsilon only enters guaranteed_dim, the search itself ignores it
        payloads = {}
        for eps in (0.0, 0.05):
            spec = json.dumps({"channel": {"family": "depolarizing", "p": 0.9},
                               "delta_prime": 0.35, "epsilon": eps})
            code, out, _ = run(capsys, "decouple", "--mode", "subsystem",
                               "--spec", spec, "--n", "8", "--json")
            assert code == 0
            payloads[eps] = json.loads(out)
        smoothed, exact = payloads[0.05], payloads[0.0]
        assert smoothed["epsilon"] == 0.05 and exact["epsilon"] == 0.0
        assert smoothed["guaranteed_dim"] >= 1
        for key in ("a1_dim", "trace_distance_to_product", "delta_prime"):
            assert smoothed[key] == exact[key]

    def test_invalid_spec(self, capsys):
        code, _, _ = run(capsys, "decouple", "--mode", "channel",
                         "--spec", '{"post": "identity"}', "--json")
        assert code == 2

    # JSON that is not an object used to raise AttributeError or TypeError
    # in every mode, a state of dim 0 ZeroDivisionError, and a delta' of
    # NaN or Infinity went into the JSON output, which is then invalid
    @pytest.mark.parametrize("mode, spec", [
        *((mode, spec) for mode in DECOUPLE_MODES for spec in ("[1]", '"x"')),
        ("states", '{"dim": 0}'),
        *(("subsystem", '{"channel": {"family": "depolarizing", "p": 0.9}, '
           f'"delta_prime": {value}}}') for value in ("NaN", "Infinity")),
    ])
    def test_malformed_spec_exits_2(self, capsys, mode, spec):
        code, out, err = run(capsys, "decouple", "--mode", mode,
                             "--spec", spec, "--n", "2", "--json")
        assert code == 2
        assert out == ""
        assert "invalid spec" in err

    @pytest.mark.parametrize("mode", DECOUPLE_MODES)
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(spec=DECOUPLE_SPECS, n=st.integers(-1, 4))
    @example(spec=[1], n=2)
    @example(spec={"dim": 0}, n=2)
    @example(spec={"channel": {"family": "depolarizing", "p": 0.9},
                   "delta_prime": float("nan")}, n=2)
    @example(spec={"channel": {"family": "depolarizing", "p": 0.9},
                   "delta_prime": float("inf")}, n=2)
    def test_fuzzed_spec_exits_cleanly(self, mode, spec, n):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["decouple", "--mode", mode, f"--spec={json.dumps(spec)}",
                         f"--n={n}", "--json"])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        # stdout is strict JSON: NaN and Infinity, which json.loads takes
        # by default, are refused
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert out.getvalue() == ""


class TestCosts:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "costs", "--family", "unitary",
                           "--n", "8", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["prep_bits"] == pytest.approx(1.0, abs=1e-9)
        assert payload["eras_bits"] == pytest.approx(1.0, abs=1e-9)
        assert payload["zero_error_equality_gap"] < 1e-6

    def test_replacer(self, capsys):
        code, out, _ = run(capsys, "costs", "--family", "replacer",
                           "--omega", "maximally-mixed", "--n", "8", "--json")
        payload = json.loads(out)
        assert payload["prep_bits"] == pytest.approx(-1.0, abs=1e-9)

    def test_depolarizing_half(self, capsys):
        code, out, _ = run(capsys, "costs", "--family", "depolarizing",
                           "--p", "0.5", "--n", "8", "--json")
        payload = json.loads(out)
        assert payload["prep_bits"] == pytest.approx(0.0, abs=1e-7)
        assert payload["certification"] == "exact"

    def test_temperature_flag(self, capsys, monkeypatch):
        # --temperature is the one knob: the environment does not move it
        monkeypatch.setenv("KELVIN_DEFAULT", "100.0")
        for argv, kelvin in (([], 300.0), (["--temperature", "77"], 77.0)):
            code, out, _ = run(capsys, "costs", "--family", "unitary",
                               "--n", "4", "--json", *argv)
            assert code == 0
            assert json.loads(out)["temperature_kelvin"] == kelvin

    def test_bad_mu(self, capsys):
        code, _, _ = run(capsys, "costs", "--family", "unitary", "--mu", "1.2")
        assert code == 2

    @pytest.mark.parametrize("kelvin", ["nan", "inf", "0"])
    def test_bad_temperature(self, capsys, monkeypatch, kelvin):
        # NaN and Infinity used to pass into the JSON, which is then
        # invalid, and later to be refused only after the whole cost
        # computation: the temperature is checked before any work
        def no_work(*args, **kwargs):
            raise AssertionError("costs computed for a refused temperature")

        monkeypatch.setattr(thermo, "channel_costs", no_work)
        code, out, err = run(capsys, "costs", "--family", "unitary", "--n", "2",
                             "--temperature", kelvin, "--json")
        assert code == 2
        assert out == ""
        assert "temperature must be finite and positive" in err

    def test_qutrit_replacer_erasure_sdp(self, capsys):
        # the erasure SDP's blocks (9, 3, 27, 27) sum to more than 64, but
        # each is within the solver's per-block cap
        code, out, _ = run(capsys, "costs", "--spec",
                           '{"family": "replacer", "omega": '
                           '"maximally-mixed", "dims": 3}',
                           "--mu", "0.1", "--n", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["eras_bits"] == pytest.approx(
            -payload["s_min_channel"] + np.log2(0.9), abs=1e-6)

    def test_oversize_erasure_sdp(self, capsys):
        # blocks (d_E, d_in, d_A d_E, d_A d_E) = (36, 6, 216, 216): 216 is
        # over the solver's per-block cap, refused before the SDP data is
        # built
        code, out, err = run(capsys, "costs", "--spec",
                             '{"family": "replacer", "omega": '
                             '"maximally-mixed", "dims": 6}',
                             "--mu", "0.1", "--n", "2", "--json")
        assert code == 2
        assert out == ""
        assert "exceeds 64" in err

    def test_uncertified_erasure_sdp(self, capsys, monkeypatch):
        from minent import sdp

        real = sdp.solve_stack

        def stalled(*args, **kwargs):
            res = real(*args, **kwargs)
            res["ok"][:] = False
            return res

        monkeypatch.setattr(sdp, "solve_stack", stalled)
        code, out, err = run(capsys, "costs", "--family", "depolarizing",
                             "--p", "0.5", "--mu", "0.06", "--n", "4", "--json")
        assert code == 3
        assert out == ""
        assert "erasure" in err

    # stdout is strict JSON at mu > 0 too, where the preparation side is a
    # smoothed bound and the erasure side the joint erasure SDP, which
    # fails (exit 3) for some inputs, e.g. depolarizing p = 0.5 at mu 1e-9
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(spec=QUBIT_SPECS, mu=st.floats(1e-9, 0.95))
    def test_fuzzed_smoothed_costs_json_is_strict(self, spec, mu):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["costs", f"--spec={json.dumps(spec)}", f"--mu={mu}",
                         "--n=4", "--json"])
        assert code in (0, 3)
        if code == 0:
            payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert payload["certification"] == "certified-upper"
        else:
            assert out.getvalue() == ""


class TestCheck:
    def test_passes_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "check")
        code2, out2, _ = run(capsys, "check")
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        assert "all invariants hold" in out1
        assert all(line.startswith(("ok", "all"))
                   for line in out1.strip().split("\n"))

    @pytest.mark.parametrize("seed", ["42", "3"])
    def test_paper_construction_lines(self, capsys, seed):
        code, out, _ = run(capsys, "check", "--seed", seed)
        assert code == 0
        lines = out.splitlines()
        for name in ("channels.swap_dilation_choi",
                     "dynamical.unitary_covariance",
                     "dynamical.continuity_diamond",
                     "decoupling.erasure_protocol_ledger",
                     "thermo.adversarial_bound_eps0"):
            assert [line.split()[0] for line in lines
                    if line.split()[1] == name] == ["ok"], name

    def test_detects_injected_fault(self, capsys, monkeypatch):
        import minent.entropies as entropies

        original = entropies.d_max
        monkeypatch.setattr(entropies, "d_max",
                            lambda rho, sigma: -original(rho, sigma))
        code, out, _ = run(capsys, "check")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("fault", ["status", "primal-not-psd",
                                       "slack-not-psd", "dual-above-primal"])
    def test_corrupted_certificate_fails_weak_duality(self, capsys, monkeypatch,
                                                      fault):
        # the line recomputes what the returned certificate claims; each
        # fault is made in the first SDP that check solves, its toy program
        from minent import sdp

        solve_stack = sdp.solve_stack
        calls = []

        def corrupted(*args, **kw):
            res = solve_stack(*args, **kw)
            calls.append(None)
            if len(calls) == 1:
                if fault == "status":
                    res["ok"][0] = False
                elif fault == "primal-not-psd":
                    res["x_complex"][0][0] = np.diag([1.5, -0.5])
                elif fault == "slack-not-psd":
                    res["y"][0] += 1e-6
                else:
                    res["dual_value"][0] = res["primal_value"][0] + 1e-6
            return res

        monkeypatch.setattr(sdp, "solve_stack", corrupted)
        code, out, _ = run(capsys, "check")
        assert code == 1
        assert "FAIL sdp.weak_duality  [optimal]" in out


class TestSharedFlags:
    # each subcommand takes only the shared flags it reads
    @pytest.mark.parametrize("argv", [
        ["sweep", "--seed", "7"],
        ["sweep", "--json"],
        ["check", "--json"],
    ])
    def test_unread_flag_exits_2(self, tmp_path, capsys, argv):
        if argv[0] == "sweep":
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["entropy"], ["sweep", "--out", "x.csv"], ["decouple", "--mode", "states"],
        ["costs"], ["check"],
    ])
    def test_tolerance_everywhere(self, argv):
        from minent.cli import build_parser

        args = build_parser().parse_args(argv + ["--tolerance", "psd=1e-9"])
        assert args.tolerance == ["psd=1e-9"]


class TestBadSpecs:
    # each used to escape as a traceback (exit 1) or build a qubit replacer
    @pytest.mark.parametrize("spec", [
        {"family": 3},
        {"family": "povm", "povm": []},
        {"family": "depolarizing", "p": [1]},
        {"family": "unitary", "unitary": [[1]]},
        {"family": "replacer", "dims": 0},
    ])
    def test_exit_code_2(self, capsys, spec):
        code, _, err = run(capsys, "entropy", "--spec", json.dumps(spec),
                           "--n", "4")
        assert code == 2
        assert "invalid channel spec" in err


class TestToleranceOverride:
    def test_round_trip(self, capsys, monkeypatch):
        from minent import cli
        from minent.linalg import TOL
        before = TOL.psd
        seen = []
        original = cli.cmd_entropy

        def spy(args):
            seen.append(TOL.psd)
            return original(args)

        monkeypatch.setattr(cli, "cmd_entropy", spy)
        code, _, _ = run(capsys, "entropy", "--family", "unitary", "--n", "4",
                         "--tolerance", "psd=1e-9", "--json")
        assert code == 0
        assert seen == [1e-9]
        assert TOL.psd == before

    def test_bad_override_applies_none(self, capsys):
        from minent.linalg import TOL
        before = TOL.psd
        code, _, _ = run(capsys, "entropy", "--family", "unitary", "--n", "4",
                         "--tolerance", "psd=1e-9", "--tolerance", "bogus=1")
        assert code == 2
        assert TOL.psd == before

    def test_restored_when_command_raises(self, capsys, monkeypatch):
        from minent import cli
        from minent.linalg import TOL
        before = TOL.psd

        def boom(args):
            assert TOL.psd == 1e-9
            raise RuntimeError("command failed")

        monkeypatch.setattr(cli, "cmd_entropy", boom)
        with pytest.raises(RuntimeError, match="command failed"):
            run(capsys, "entropy", "--family", "unitary",
                "--tolerance", "psd=1e-9")
        assert TOL.psd == before

    def test_unknown_name(self, capsys):
        code, _, _ = run(capsys, "entropy", "--family", "unitary",
                         "--tolerance", "bogus=1")
        assert code == 2
