"""CLI: dispatch, document shape, determinism, exit codes."""

import contextlib
import importlib.util
import io
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import (HealthCheck, example, given, seed, settings,
                        strategies as st)

from formaldisk import cli
from formaldisk.cli import main
from formaldisk.errors import FormalDiskError
from formaldisk.grammar import parse_vector_field

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(args, tmp_path=None):
    cmd = [sys.executable, "-m", "formaldisk.cli"] + args
    return subprocess.run(cmd, capture_output=True, text=True)


def run_inproc(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestDispatch:
    def test_mode_apply_number_operator(self, capsys):
        code, doc = run_inproc(
            ["mode-apply", "--rank", "1", "--state", "c[1,0]*b[1,-1]",
             "--mode", "0", "--on", "c[1,0]"], capsys)
        assert code == 0
        assert doc["result"]["payload"] == "c[1,0]"

    def test_borcherds(self, capsys):
        code, doc = run_inproc(
            ["borcherds", "--rank", "1", "--a", "b[1,-1]", "--b", "c[1,0]",
             "--c", "vac", "--l", "0", "--m", "-1"], capsys)
        assert code == 0
        assert doc["checks"][0]["ok"]

    def test_msv_check(self, capsys):
        code, doc = run_inproc(
            ["msv-check", "--rank", "2", "--x", "t1*t2 d1",
             "--y", "t1*t2 d2", "--max-weight", "2", "--max-c0", "2"], capsys)
        assert code == 0
        assert doc["result"]["cocycle"] == "-dt1^dt2"
        assert doc["checks"][0]["ok"]

    def test_msv_check_rank_one(self, capsys):
        # every two-form on the 1-disk is zero, and so is the defect
        code, doc = run_inproc(
            ["msv-check", "--rank", "1", "--x", "t1 d1", "--y", "t1^2 d1"],
            capsys)
        assert code == 0
        assert doc["result"]["cocycle"] == "0"
        assert doc["checks"][0] == {
            "name": "defect equals sign * rho_omega2(ch2)", "ok": True,
            "detail": "72/72 states"}

    @pytest.mark.parametrize("x, y, order, max_c0, states", [
        ("t1^5 d1", "t1^5 d2", "10", "2", 30),
        ("t1^4 d1", "t1^4*t2 d2", "8", "1", 15),
        ("t1^5 d1", "t1^5 d1", "6", "0", 5),
    ], ids=["degree-9", "degree-8", "self"])
    def test_msv_check_bracket_within_jet_order(self, capsys, x, y, order,
                                                max_c0, states):
        # the jet order holds [X, Y]; [X, X] = 0 at every order
        code, doc = run_inproc(
            ["msv-check", "--rank", "2", "--x", x, "--y", y, "--jet-order",
             order, "--max-weight", "1", "--max-c0", max_c0], capsys)
        assert code == 0
        assert doc["checks"][0]["detail"] == f"{states}/{states} states"

    def test_ch2_c1_atiyah(self, capsys):
        code, doc = run_inproc(["ch2", "--rank", "2", "--x", "t1*t2 d1",
                                "--y", "t1*t2 d2"], capsys)
        assert code == 0 and doc["result"]["form"] == "-dt1^dt2"
        code, doc = run_inproc(["c1", "--rank", "1", "--x", "t1^2 d1"], capsys)
        assert code == 0 and doc["result"]["form"] == "2*dt1"
        code, doc = run_inproc(["atiyah", "--rank", "1", "--x", "t1^2 d1"],
                               capsys)
        assert code == 0 and doc["result"]["matrix"] == [["-2*dt1"]]

    def test_pw_and_d1(self, capsys):
        code, doc = run_inproc(
            ["pw-check", "--rank", "3", "--jet-order", "4",
             "--f1", "(t1+t2^2, t2, t3)", "--f2", "(t1, t2+t1^2, t3+t1*t2)"],
            capsys)
        assert code == 0 and doc["checks"][0]["ok"]
        code, doc = run_inproc(
            ["gms-d1", "--rank", "2", "--jet-order", "5",
             "--x", "t1*t2 d1", "--y", "t1*t2 d2"], capsys)
        assert code == 0 and doc["checks"][0]["ok"]

    def test_conformal_and_characters(self, capsys):
        code, doc = run_inproc(["conformal-check", "--rank", "1",
                                "--max-weight", "2"], capsys)
        assert code == 0 and all(c["ok"] for c in doc["checks"])
        code, doc = run_inproc(["char-identity", "--rank", "1",
                                "--chern-degree", "3", "--q-order", "4"],
                               capsys)
        assert code == 0 and doc["checks"][0]["ok"]
        code, doc = run_inproc(["witten-exp-check", "--rank", "2",
                                "--chern-degree", "4", "--q-order", "3"],
                               capsys)
        assert code == 0 and all(c["ok"] for c in doc["checks"])

    def test_conformal_check_computes_each_defect_once(self, monkeypatch,
                                                       capsys):
        from formaldisk import conformal
        calls = []
        real = conformal.c1_defect
        monkeypatch.setattr(conformal, "c1_defect",
                            lambda x: calls.append(x) or real(x))
        code, doc = run_inproc(["conformal-check", "--rank", "1",
                                "--max-weight", "1"], capsys)
        assert code == 0
        assert doc["checks"][-1]["detail"] == f"{len(calls)} monomial fields"

    @pytest.mark.parametrize("rank, order, count", [
        (1, 0, 1), (1, 1, 2), (2, 0, 2), (2, 1, 6)])
    def test_conformal_check_counts_only_nonzero_fields(self, rank, order,
                                                        count, capsys):
        # the fields of degree <= 3 that are not zero at the jet order
        code, doc = run_inproc(["conformal-check", "--rank", str(rank),
                                "--max-weight", "1", "--jet-order",
                                str(order)], capsys)
        assert code == 0
        assert doc["checks"][-1]["detail"] == f"{count} monomial fields"

    def test_witten_log_table(self, capsys):
        code, doc = run_inproc(["witten-log", "--rank", "1",
                                "--chern-degree", "4", "--q-order", "2"],
                               capsys)
        assert code == 0
        assert doc["result"]["series"]["q^0"] == {"x1^4": "1/2880"}
        assert doc["result"]["series"]["q^1"] == {"x1^4": "1/12"}

    def test_eisenstein(self, capsys):
        code, doc = run_inproc(["eisenstein", "--weight", "6", "--tau", "0,1",
                                "--cutoff", "200"], capsys)
        assert code == 0 and doc["checks"][0]["ok"]
        assert abs(doc["result"]["lattice"]["re"]) < 1e-6

    def test_feynman_t_limits(self, capsys):
        code, doc = run_inproc(["feynman", "t-limits", "--eps", "1e-7"],
                               capsys)
        assert code == 0
        assert abs(doc["result"]["first"] - 0.5) < 1e-6


class TestFeynmanWheel:
    def test_wheel2_from_profile_file(self, tmp_path, capsys):
        profiles = tmp_path / "profiles.txt"
        profiles.write_text("# F-vertex then G-vertex\n"
                            "F -0.3 0 1.0 0 1.0\n"
                            "G 0.3 0 1.0 0 0.5 0.5\n")
        code, doc = run_inproc(
            ["feynman", "wheel2", "--profiles", str(profiles),
             "--grid", "128", "--eps-schedule", "0.05,0.02,0.01"], capsys)
        assert code == 0
        assert doc["checks"][0]["ok"]
        assert doc["result"]["relative_error"] < 0.05

    def test_bad_profiles_is_usage_error(self, tmp_path, capsys):
        profiles = tmp_path / "profiles.txt"
        profiles.write_text("X 0 0 1 1\n")
        code, _ = run_inproc(["feynman", "wheel2", "--profiles",
                              str(profiles)], capsys)
        assert code == 2

    def test_bad_profile_number_is_usage_error(self, tmp_path, capsys):
        profiles = tmp_path / "profiles.txt"
        profiles.write_text("F 0 x 1 1\nG 0 0 1 1\n")
        assert main(["feynman", "wheel2", "--profiles", str(profiles)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("F 0 x 1 1\n"
                                "^ profile line 1: expected numbers "
                                "after 'F'\n")

    def test_binary_profiles_is_usage_error(self, tmp_path, capsys):
        profiles = tmp_path / "profiles.bin"
        profiles.write_bytes(b"F 0 0 1 \xd0\x01\nG 0 0 1 1\n")
        assert main(["feynman", "wheel2", "--profiles", str(profiles)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "profile line 1: expected numbers after 'F'" in captured.err

    def test_unreadable_profiles_is_usage_error(self, tmp_path):
        missing = tmp_path / "missing.txt"
        r = run_cli(["feynman", "wheel2", "--profiles", str(missing)])
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr == (f"error: cannot read --profiles {missing}: "
                            "No such file or directory\n")


class TestContract:
    def test_determinism_byte_identical(self):
        args = ["mode-apply", "--rank", "2", "--state", "c[1,0]*b[2,-1]",
                "--mode", "-1", "--on", "b[1,-1]"]
        r1, r2 = run_cli(args), run_cli(args)
        assert r1.stdout == r2.stdout and r1.returncode == 0

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        code, _ = run_inproc(["c1", "--rank", "1", "--x", "t1^2 d1",
                              "--out", str(out)], capsys)
        assert code == 0
        # reproduce stdout bytes
        r = run_cli(["c1", "--rank", "1", "--x", "t1^2 d1"])
        assert out.read_text() == r.stdout

    def test_unwritable_out_is_exit_two_with_nothing_printed(self, tmp_path,
                                                             capsys):
        out = tmp_path / "missing" / "doc.json"
        assert main(["c1", "--rank", "2", "--x", "t1 d1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write --out {out}: "
                                "No such file or directory\n")
        assert not out.parent.exists()

    def test_verification_failure_is_exit_one(self, capsys):
        # an equality that genuinely fails: wrong-weight Eisenstein tolerance
        code, doc = run_inproc(["eisenstein", "--weight", "4", "--tau",
                                "0,1", "--cutoff", "3",
                                "--tolerance", "1e-12"], capsys)
        assert code == 1
        assert not doc["checks"][0]["ok"]

    def test_parse_error_is_exit_two(self):
        r = run_cli(["rho-w", "--rank", "1", "--x", "t1 %% d1",
                     "--on", "vac"])
        assert r.returncode == 2
        assert "^" in r.stderr

    @pytest.mark.parametrize("args", [
        ["mode-apply", "--rank", "1", "--state", "1/0", "--mode", "0",
         "--on", "c[1,0]"],
        ["pw-check", "--rank", "2", "--f1", "(t1, t2)",
         "--f2", "(t1, t2+1/0*t1^2)"],
    ])
    def test_zero_denominator_is_exit_two(self, args):
        r = run_cli(args)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        text, caret = r.stderr.splitlines()
        assert text[caret.index("^"):].startswith("1/0")
        assert "zero denominator" in caret

    def test_automorphism_caret_under_typed_argument(self, capsys):
        assert main(["pw-check", "--rank", "2", "--jet-order", "3",
                     "--f1", "(t1, t2)", "--f2", "(t1, t2+1/0*t1^2)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("(t1, t2+1/0*t1^2)\n"
                                "        ^ zero denominator\n")

    @pytest.mark.parametrize("args, code, err", [
        (["ch2", "--rank", "2", "--x", "dt1^30000000 + d1", "--y", "t1 d1"],
         2, "dt1^30000000 + d1\n"
            "                 ^ expected a form, found a vf\n"),
        (["mode-apply", "--rank", "1", "--state", "vac^100000000",
          "--mode", "-1", "--on", "vac"], 0, ""),
        (["c1", "--rank", "1", "--x", "2^3000000000 d1"],
         2, "2^3000000000 d1\n"
            "  ^ power would build a rational of more than 10000 bits\n"),
        (["c1", "--rank", "1", "--x", "2^1000^1000^1000 d1"],
         2, "2^1000^1000^1000 d1\n"
            "       ^ power would build a rational of more than 10000 bits\n"),
        (["mode-apply", "--rank", "1", "--state", "((2*vac)^1000)^1000",
          "--mode", "-1", "--on", "vac"],
         2, "((2*vac)^1000)^1000\n"
            "               ^ power would build a rational of more than "
            "10000 bits\n"),
        # a constant term of 1: the binomial sum stops at t^7 = 0, where
        # squaring would take 2,000 products of 28-term jets
        (["c1", "--rank", "3", "--jet-order", "6",
          "--x", "(1+t1+t2+t3)^" + "9" * 600 + " d1"], 0, ""),
    ])
    def test_huge_exponent_ends_at_once(self, args, code, err):
        # each took k products or built a 2^k numerator: minutes, no output
        r = subprocess.run([sys.executable, "-m", "formaldisk.cli", *args],
                           capture_output=True, text=True, timeout=20)
        assert (r.returncode, r.stderr) == (code, err)

    @pytest.mark.parametrize("args, named", [
        (["--rank", "2", "--x", "t1^2 d1 + t2^2 d2",
          "--on", "c[1,0]*c[2,0] + c[2,0]*c[2,0]", "--max-c0", "2"],
         "((1, 1, 0), (1, 1, 0), (1, 2, 0))"),
        (["--rank", "3", "--x", "2*t1 d2 + 3*t1*t3 d3",
          "--on", "c[2,0]*c[3,0] + c[1,0]", "--max-c0", "2",
          "--max-weight", "3"],
         "((1, 1, 0), (1, 2, 0), (1, 3, 0))"),
        (["--rank", "2", "--x", "2*t1*t2 d2 + 2*t1 d1 + 2*t1*t2^2 d2",
          "--on", "c[1,0] + c[2,0]*c[1,0]*b[2,-2]*c[1,-2]",
          "--max-c0", "3", "--max-weight", "4"],
         "((0, 2, -2), (1, 1, 0), (1, 1, 0), (1, 1, -2), (1, 2, 0), "
         "(1, 2, 0))"),
        (["--rank", "1", "--x", "t1^3 d1 + d1",
          "--on", "c[1,0]^3 + c[1,0]*b[1,-1]*b[1,-2]", "--max-c0", "4",
          "--max-weight", "3"],
         "((1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0))"),
    ])
    def test_c0_overflow_names_a_monomial(self, args, named, capsys):
        # a run stops at a term above the c0 bound and names it; on
        # these inputs the first in print order is the one the product
        # met first.  The flag's named value admits the one product
        assert main(["rho-w", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        head, _, needed = captured.err.rpartition(" ")
        assert head == f"error: mode product exceeds c0 bound: {named}; " \
            "raise --max-c0 to at least"
        assert main(["rho-w", *args, "--max-c0", needed.strip()]) == 0
        capsys.readouterr()

    def test_long_literal_is_a_parse_error(self, capsys):
        x = "9" * 5000 + " d1"
        assert main(["c1", "--rank", "1", "--x", x]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == x + "\n^ number longer than 4300 digits\n"
        on = "b[1,-" + "9" * 4301 + "]"
        assert main(["rho-w", "--rank", "1", "--x", "t1 d1", "--on", on]) == 2
        text, caret = capsys.readouterr().err.splitlines()
        assert caret.index("^") == on.index("9")
        assert main(["c1", "--rank", "1", "--x", "9" * 4300 + " d1"]) == 0

    def test_long_output_coefficient_is_named(self, capsys):
        # 99^2800 has 5,588 digits, each power below the parser's bit bound
        assert main(["mode-apply", "--rank", "1",
                     "--state", "(99*vac)^1400*(99*vac)^1400",
                     "--mode", "-1", "--on", "vac"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: coefficient too long to print: "
                                "more than 4300 digits\n")

    def test_deep_nesting_is_exit_two(self, capsys):
        deep = "(" * 200 + "t1 d1" + ")" * 200
        assert main(["ch2", "--rank", "1", "--x", deep, "--y", "t1 d1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (deep + "\n" + " " * 100
                                + "^ parentheses nested deeper than 100\n")
        ok = "(" * 100 + "t1 d1" + ")" * 100
        assert main(["ch2", "--rank", "1", "--x", ok, "--y", "t1 d1"]) == 0

    def test_unexpected_error_is_exit_two(self, monkeypatch, capsys):
        from formaldisk import gf

        def fault(*args):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(gf, "ch2_gf", fault)
        assert main(["ch2", "--rank", "1", "--x", "t1 d1",
                     "--y", "t1 d1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: unexpected "
                                "RuntimeError('first line\\nsecond line')\n")

    def test_rank_zero_is_exit_two(self, capsys):
        assert main(["mode-apply", "--rank", "0", "--state", "vac",
                     "--mode", "-1", "--on", "vac"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rank must be >= 1\n"

    @pytest.mark.parametrize("args,err", [
        (["msv-check", "--rank", "2", "--jet-order", "6", "--x", "t1^40 d1",
          "--y", "t1*t2 d2", "--max-weight", "1", "--max-c0", "1"],
         "t1^40 d1\n"
         "  ^ product of nonzero factors is zero at jet order 6; "
         "raise --jet-order\n"),
        (["ch2", "--rank", "2", "--jet-order", "6", "--x", "t1*t2 d1",
          "--y", "t1^4*t2^3 d2"],
         "t1^4*t2^3 d2\n"
         "    ^ product of nonzero factors is zero at jet order 6; "
         "raise --jet-order\n"),
        (["ch2", "--rank", "2", "--jet-order", "3", "--x", "t1*t2 d1",
          "--y", "t1^2 (t2^2 d2)"],
         "t1^2 (t2^2 d2)\n"
         "     ^ product of nonzero factors is zero at jet order 3; "
         "raise --jet-order\n"),
        (["ch2", "--rank", "2", "--jet-order", "0", "--x", "d2 + t1 d1",
          "--y", "t2 d2"],
         "d2 + t1 d1\n"
         "     ^ variable t1 is zero at jet order 0; raise --jet-order\n"),
        (["mode-apply", "--rank", "1", "--state", "c[1,0]*t1", "--mode", "0",
          "--on", "c[1,0]"],
         "c[1,0]*t1\n"
         "       ^ variable t1 cannot appear in a state\n"),
    ])
    def test_input_truncated_to_zero_is_exit_two(self, args, err, capsys):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_payload_roundtrip(self, capsys):
        from formaldisk.grammar import parse_state
        from formaldisk.vertex import TruncationPolicy
        code, doc = run_inproc(
            ["rho-w", "--rank", "2", "--x", "t1*t2 d1", "--on",
             "b[2,-1]*c[1,0]"], capsys)
        assert code == 0
        payload = doc["result"]["payload"]
        pol = TruncationPolicy(8, 10)
        assert parse_state(payload, 2, pol) is not None


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldens:
    def test_every_cli_mix_golden_replays_byte_for_byte(self, monkeypatch):
        # the goldens name the profiles file relative to the checkout root
        monkeypatch.chdir(ROOT)
        workloads = _load_workloads()
        goldens = workloads.load_goldens()
        assert len(goldens) == 17
        mismatched = [g["name"] for g in goldens
                      if not workloads.golden_matches(
                          g, workloads.run_cli(g["argv"]))]
        assert mismatched == []

    def test_main_reaches_a_handler_rebound_after_the_first_call(
            self, monkeypatch, capsys):
        argv = ["c1", "--rank", "1", "--x", "t1^2 d1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert cli.build_parser() is cli.build_parser()
        real, calls = cli.cmd_c1, []
        monkeypatch.setattr(cli, "cmd_c1",
                            lambda args: calls.append(args.x) or real(args))
        assert main(argv) == 0
        assert calls == ["t1^2 d1"]
        assert capsys.readouterr().out == first


PROFILES = "F -0.3 0 1.0 0 1.0\nG 0.3 0 1.0 0 0.5 0.5\n"


@pytest.fixture(scope="module")
def profiles(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "profiles.txt"
    path.write_text(PROFILES)
    return str(path)


def run_captured(argv):
    """Exit code, stdout and stderr of one in-process run; argparse's own
    usage errors arrive as ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ch2 has degree 6 here and the bracket degree 4: at jet order 5 only a
# cocycle cut at the fields' order would fail
MSV_ABOVE_ORDER = ["--rank", "3", "--x", "-t1*t2^4 d1",
                   "--y", "-d1 - 3/2*t1*t2^2*t3^2 d1", "--jet-order", "5",
                   "--max-weight", "2", "--max-c0", "0"]


class TestNumericFlags:
    @pytest.mark.parametrize("flags,err", [
        (["--eps-schedule", ""], "error: --eps-schedule expects "),
        (["--eps-schedule", "abc"], "error: --eps-schedule expects "),
        (["--eps-schedule", "0.1,inf"], "error: --eps-schedule expects "),
        (["--eps-schedule", "0.1"],
         "error: eps schedule needs at least two entries"),
        (["--tolerance", "nan"], "error: --tolerance must be positive"),
        (["--tolerance", "-1"], "error: --tolerance must be positive"),
    ])
    def test_wheel2(self, flags, err, profiles):
        code, out, text = run_captured(
            ["feynman", "wheel2", "--profiles", profiles, "--grid", "8"]
            + flags)
        assert (code, out) == (2, "")
        assert text.startswith(err)

    @pytest.mark.parametrize("body", ["F nan 0 1 1\nG 0 0 1 1\n",
                                      "F 0 0 1 1\nG 0 0 inf 1\n"])
    def test_non_finite_profile_number(self, body, tmp_path):
        path = tmp_path / "profiles.txt"
        path.write_text(body)
        code, out, err = run_captured(["feynman", "wheel2", "--profiles",
                                       str(path), "--grid", "8"])
        assert (code, out) == (2, "")
        assert "expected numbers after" in err

    @pytest.mark.parametrize("flags,err", [
        (["--tau", "abc"], "error: --tau expects 2 "),
        (["--tau", "1"], "error: --tau expects 2 "),
        (["--tau", "0,1,2"], "error: --tau expects 2 "),
        (["--tau", "nan,1"], "error: --tau expects 2 "),
        (["--tau", "inf,1"], "error: --tau expects 2 "),
        (["--tau", "0,1e300"], None),
        (["--tau", "0,1e-300"], "error: cutoff 200 over Im tau 1e-300 "),
        (["--tau", "0,1", "--cutoff", "100000"], "error: cutoff 100000 "),
        (["--tau", "0,1", "--tolerance", "nan"],
         "error: --tolerance must be positive"),
    ])
    def test_eisenstein(self, flags, err):
        code, out, text = run_captured(["eisenstein", "--weight", "6"]
                                       + flags)
        if err is None:
            # a huge Im tau leaves one lattice row: the check runs
            assert code == 0 and json.loads(out)["checks"][0]["ok"]
        else:
            assert (code, out) == (2, "")
            assert text.startswith(err)

    @pytest.mark.parametrize("weight", ["4", "6"])
    def test_eisenstein_huge_real_part(self, weight):
        # Z + tau Z is periodic in Re tau: 1e300 + i is the square lattice
        docs = []
        for tau in ("0,1", "1e300,1"):
            code, out, _ = run_captured(["eisenstein", "--weight", weight,
                                         "--tau", tau, "--cutoff", "50"])
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0]["result"] == docs[1]["result"]

    def test_wheel2_overflow_is_usage_error(self, tmp_path):
        path = tmp_path / "profiles.txt"
        path.write_text("F 0 0 1 1e308 1e308\nG 0.3 0 1.0 0 0.5 0.5\n")
        r = run_cli(["feynman", "wheel2", "--profiles", str(path),
                     "--grid", "16"])
        assert (r.returncode, r.stdout) == (2, "")
        # one diagnostic line: no RuntimeWarning from numpy
        assert r.stderr.startswith("error: wheel weight")
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize("eps", ["1e-200", "1e-300",
                                     "2.2250738585072014e-308"])
    def test_t_limits_tiny_eps(self, eps):
        code, out, _ = run_captured(["feynman", "t-limits", "--eps", eps])
        assert code == 0 and json.loads(out)["checks"][0]["ok"]

    @pytest.mark.parametrize("eps", ["1e-310", "5e-324"])
    def test_t_limits_subnormal_eps(self, eps):
        code, out, err = run_captured(["feynman", "t-limits", "--eps", eps])
        assert (code, out) == (2, "")
        assert err.startswith("error: quadrature eps must lie in ")

    @pytest.mark.parametrize("argv", [
        ["char-identity", "--rank", "1", "--chern-degree", "-1"],
        ["char-identity", "--rank", "1", "--q-order", "-1"],
        ["witten-exp-check", "--rank", "1", "--chern-degree", "2",
         "--q-order", "-1"],
        ["witten-log", "--rank", "1", "--chern-degree", "2",
         "--q-order", "-1"],
        ["witten-log", "--rank", "1", "--q-order", "-1"],
    ])
    def test_negative_orders(self, argv):
        code, out, err = run_captured(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "must be >= 0" in err

    @pytest.mark.parametrize("command", ["char-identity", "witten-log",
                                         "witten-exp-check"])
    @pytest.mark.parametrize("flags, named", [
        (["--chern-degree", "-1"], "--chern-degree"),
        (["--q-order", "-2"], "--q-order"),
        (["--chern-degree", "-1", "--q-order", "-1"], "--chern-degree"),
        (["--chern-degree", "0", "--q-order", "-1"], "--q-order"),
    ])
    def test_negative_order_names_flag(self, command, flags, named):
        code, out, err = run_captured([command, "--rank", "1", *flags])
        assert (code, out, err) == (2, "", f"error: {named} must be >= 0\n")

    @pytest.mark.parametrize("argv, named", [
        (["eisenstein", "--weight", "4", "--tau", "0,1", "--q-order", "-1"],
         "--q-order"),
        (["ch2", "--rank", "2", "--x", "t1*t2 d1", "--y", "t2 d2"],
         "--jet-order"),
        (["rho-w", "--rank", "1", "--x", "t1 d1", "--on", "1"],
         "--jet-order"),
        (["msv-check", "--rank", "1", "--x", "t1 d1", "--y", "t1 d1"],
         "--jet-order"),
        (["c1", "--rank", "1", "--x", "t1 d1"], "--jet-order"),
        (["atiyah", "--rank", "1", "--x", "t1 d1"], "--jet-order"),
        (["pw-check", "--rank", "2", "--f1", "(t1,t2)", "--f2", "(t1,t2)"],
         "--jet-order"),
        (["gms-d1", "--rank", "2", "--x", "t1*t2 d1", "--y", "t2 d2"],
         "--jet-order"),
        (["conformal-check", "--rank", "1"], "--jet-order"),
    ])
    def test_negative_jet_or_q_order_names_flag(self, argv, named):
        if named == "--jet-order":
            argv = [*argv, "--jet-order", "-1"]
        code, out, err = run_captured(argv)
        assert (code, out, err) == (2, "", f"error: {named} must be >= 0\n")

    @pytest.mark.parametrize("argv", [
        ["mode-apply", "--rank", "1", "--state", "b[1,-1]", "--mode", "0",
         "--on", "c[1,0]"],
        ["borcherds", "--rank", "1", "--a", "b[1,-1]", "--b", "c[1,0]",
         "--c", "vac", "--l", "0", "--m", "-1"],
        ["rho-w", "--rank", "1", "--x", "t1 d1", "--on", "c[1,0]"],
        ["msv-check", "--rank", "1", "--x", "t1 d1", "--y", "t1 d1"],
        ["conformal-check", "--rank", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flags, named", [
        (["--max-weight", "-1"], "--max-weight"),
        (["--max-c0", "-1"], "--max-c0"),
        (["--max-weight", "-1", "--max-c0", "-2"], "--max-weight"),
    ], ids=["weight", "c0", "both"])
    def test_negative_policy_bound_names_flag(self, argv, flags, named):
        code, out, err = run_captured([*argv, *flags])
        assert (code, out, err) == (2, "", f"error: {named} must be >= 0\n")

    @pytest.mark.parametrize("command", ["char-identity", "witten-exp-check"])
    @pytest.mark.parametrize("rank", ["1", "2"])
    def test_constant_truncation_is_usage_error(self, command, rank):
        # at chern degree 0 and q-order 0 every factor is its normalised 1
        code, out, err = run_captured([command, "--rank", rank,
                                       "--chern-degree", "0", "--q-order", "0"])
        assert (code, out) == (2, "")
        assert err == ("error: --chern-degree 0 with --q-order 0 leaves "
                       "nothing to compare; raise either\n")

    @pytest.mark.parametrize("argv, degree", [
        (["pw-check", "--rank", "2", "--jet-order", "3",
          "--f1", "(t1+t2^2,t2)", "--f2", "(t1,t2+t1^2)"], 3),
        (["pw-check", "--rank", "1", "--jet-order", "4",
          "--f1", "(t1+t1^2)", "--f2", "(t1-t1^3)"], 3),
        (["gms-d1", "--rank", "1", "--x", "t1^2 d1", "--y", "t1^3 d1"], 2),
    ], ids=["pw-rank2", "pw-rank1", "d1-rank1"])
    def test_rank_without_forms_is_usage_error(self, argv, degree):
        # pw-check compares 3-forms and gms-d1 2-forms; below that rank
        # both vanish identically, so the check would pass on nothing
        code, out, err = run_captured(argv)
        assert (code, out) == (2, "")
        assert err == (f"error: --rank {argv[2]} leaves no {degree}-form to "
                       f"compare; this check needs --rank >= {degree}\n")

    @pytest.mark.parametrize("argv, states", [
        *((["--rank", "2", "--x", x, "--y", y, "--jet-order", order,
            "--max-weight", "1", "--max-c0", "0"], 5)
          for x, y, order in (("t1^5 d1", "t1^5 d2", "6"),
                              ("t1^5 d1", "t1^5 d2", "8"),
                              ("t1^4 d1", "t1^4*t2 d2", "6"),
                              ("t1^5 d1", "t1^5 d2", "10"))),
        (MSV_ABOVE_ORDER, 34),
    ], ids=["bracket9-order6", "bracket9-order8", "bracket8-order6",
            "bracket9-order10", "ch2-above-order"])
    def test_msv_above_jet_order_is_computed_whole(self, argv, states):
        # the bracket, and in the last case ch2 alone, has a term above
        # --jet-order; the check lifts the fields to hold every term
        code, out, err = run_captured(["msv-check", *argv])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["checks"][0]["detail"] == f"{states}/{states} states"
        if argv is MSV_ABOVE_ORDER:
            assert doc["result"]["cocycle"] == "-12*t2^5*t3*dt2^dt3"

    def test_msv_cocycle_truncated_at_jet_order_fails(self, monkeypatch):
        # mutation: ch2 cut at --jet-order, as the fields' order left it,
        # loses the cocycle's one term, and the identity must fail
        whole = cli.gf.ch2_gf
        monkeypatch.setattr(cli.gf, "ch2_gf",
                            lambda x, y: whole(x, y).with_order(5))
        code, out, _ = run_captured(["msv-check", *MSV_ABOVE_ORDER])
        assert code == 1
        assert json.loads(out)["result"]["cocycle"] == "0"

    def test_rank_is_refused_after_the_operands_parse(self):
        code, out, err = run_captured(
            ["pw-check", "--rank", "2", "--f1", "(t1, t2)",
             "--f2", "(t1, t2+1/0*t1^2)"])
        assert (code, out) == (2, "")
        assert err.endswith("^ zero denominator\n")


# Values drawn for the numeric flags: well-formed small ones and malformed
# ones (empty, non-numeric, non-finite, negative, out of range).
SMALL_INTS = ["0", "1", "2", "-1", "", "x", "1.5", "nan"]
RANKS = ["1", "2", "0", "-1", "", "two"]
ORDERS = ["0", "1", "2", "3", "-1", "-2", "", "abc", "inf"]
FLOATS = ["0.5", "1e-7", "0", "-1", "", "abc", "nan", "inf", "-inf",
          "1e-300", "1e300"]
LISTS = ["0.1,0.05", "0.1,0.05,0.02", "0.1", "", "abc", "0.1,abc",
         "0.05,0.1", "0.1,nan", "0.1,inf", "0,0", ",", "0.1,,0.05"]
TAUS = ["0,1", "0.5,1", "0,2", "1", "", "abc", "0,0", "0,-1", "nan,1",
        "inf,1", "0,nan", "0,1,2", "1e300,1", "0,1e300", "0,1e-300"]
TOKENS = ["t1", "t2", "d1", "d2", "dt1", "dt2", "b[1,-1]", "c[1,0]",
          "b[2,-2]", "vac", "2/3", "1/0", "3", "*", "+", "-", "^", " ",
          "(", ")", ",", "^2", "%"]
EXPRS = st.one_of(
    st.sampled_from(["t1 d1", "t1*t2 d1", "t2^2 d2 + t1 d1", "d1",
                     "c[1,0]*b[1,-1]", "b[1,-1]", "vac", "2/3*t1^2 d1",
                     "(t1+t2^2, t2)", "(t1, t2+t1^2)", "(t1)"]),
    st.lists(st.sampled_from(TOKENS), max_size=8).map("".join))

SUBCOMMANDS = {
    "mode-apply": dict(rank=RANKS, state=EXPRS, mode=SMALL_INTS, on=EXPRS,
                       max_weight=SMALL_INTS, max_c0=SMALL_INTS),
    "borcherds": dict(rank=RANKS, a=EXPRS, b=EXPRS, c=EXPRS, l=SMALL_INTS,
                      m=SMALL_INTS, max_weight=SMALL_INTS),
    "rho-w": dict(rank=RANKS, x=EXPRS, on=EXPRS, jet_order=ORDERS),
    "msv-check": dict(rank=RANKS, x=EXPRS, y=EXPRS, jet_order=ORDERS,
                      max_weight=SMALL_INTS, max_c0=SMALL_INTS),
    "ch2": dict(rank=RANKS, x=EXPRS, y=EXPRS, jet_order=ORDERS),
    "c1": dict(rank=RANKS, x=EXPRS, jet_order=ORDERS),
    "atiyah": dict(rank=RANKS, x=EXPRS, jet_order=ORDERS),
    "pw-check": dict(rank=RANKS, f1=EXPRS, f2=EXPRS, jet_order=ORDERS),
    "gms-d1": dict(rank=RANKS, x=EXPRS, y=EXPRS, jet_order=ORDERS),
    "conformal-check": dict(rank=RANKS, jet_order=ORDERS,
                            max_weight=SMALL_INTS, max_c0=SMALL_INTS),
    "char-identity": dict(rank=RANKS, chern_degree=ORDERS, q_order=ORDERS),
    "witten-log": dict(rank=RANKS, chern_degree=ORDERS, q_order=ORDERS),
    "witten-exp-check": dict(rank=RANKS, chern_degree=ORDERS,
                             q_order=ORDERS),
    "eisenstein": dict(weight=["4", "6", "2", "3", "-4", "", "x"], tau=TAUS,
                       cutoff=["1", "5", "0", "-1", "", "nan"],
                       q_order=ORDERS, tolerance=FLOATS),
    "feynman wheel2": dict(profiles=["PROFILES", "missing.txt"],
                           eps_schedule=LISTS, grid=["8", "0", "-1", "", "x"],
                           tolerance=FLOATS),
    "feynman t-limits": dict(eps=FLOATS),
}


@st.composite
def cli_calls(draw):
    """A subcommand with a random subset of its flags, each set with
    ``--flag=value`` so that values beginning with '-' reach the program."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = command.split()
    for name, values in SUBCOMMANDS[command].items():
        if draw(st.integers(0, 5)) == 0:
            continue
        value = draw(values if isinstance(values, st.SearchStrategy)
                     else st.sampled_from(values))
        argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_calls())
def test_fuzz_exit_codes_and_output(profiles, argv):
    argv = [a.replace("PROFILES", profiles) for a in argv]
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    else:
        json.loads(out)  # exactly one document: trailing text fails here


# The identity checks: each checks a theorem, so on well-formed input it
# exits 0, and exit 1 would be a fault of the program.  Their inputs are
# drawn as by the random search that found such faults: rank 1-3, fields of
# one to three terms of degree 0-5, automorphisms t_i or 2*t_i plus up to
# two terms of degree <= 3, states of up to two symbols of mode -3..0,
# jet orders 2-7 and policy bounds 0-2.
COEFFS = ["1", "2", "-1", "1/2", "-3/2"]


def _monomial(draw, rank, max_degree):
    """A coefficient times a product of variables, as text."""
    variables = [f"t{draw(st.integers(1, rank))}"
                 for _ in range(draw(st.integers(0, max_degree)))]
    return "*".join([draw(st.sampled_from(COEFFS)), *variables])


def _field(draw, rank):
    return " + ".join(
        f"{_monomial(draw, rank, 5)} d{draw(st.integers(1, rank))}"
        for _ in range(draw(st.integers(1, 3))))


def _automorphism(draw, rank):
    comps = [" + ".join([f"{draw(st.sampled_from(['', '2*']))}t{i}",
                         *(_monomial(draw, rank, 3)
                           for _ in range(draw(st.integers(0, 2))))])
             for i in range(1, rank + 1)]
    return f"({', '.join(comps)})"


def _state(draw, rank):
    symbols = [f"{draw(st.sampled_from('bc'))}[{draw(st.integers(1, rank))},"
               f"{draw(st.integers(-3, 0))}]"
               for _ in range(draw(st.integers(1, 2)))]
    return "*".join(symbols)


@st.composite
def identity_calls(draw):
    command = draw(st.sampled_from(
        ["msv-check", "pw-check", "gms-d1", "borcherds", "conformal-check",
         "char-identity", "witten-exp-check"]))
    rank = draw(st.integers(1, 3))
    argv = [command, "--rank", str(rank)]
    order = str(draw(st.integers(2, 7)))
    if command in ("msv-check", "gms-d1"):
        argv += ["--x", _field(draw, rank), "--y", _field(draw, rank),
                 "--jet-order", order]
    elif command == "pw-check":
        argv += ["--f1", _automorphism(draw, rank),
                 "--f2", _automorphism(draw, rank), "--jet-order", order]
    elif command == "borcherds":
        argv += [f"--{name}={_state(draw, rank)}" for name in "abc"]
        argv += [f"--{name}={draw(st.integers(-2, 2))}" for name in "lm"]
    elif command == "conformal-check":
        argv += ["--jet-order", order]
    else:
        argv += [f"--{name}={draw(st.integers(0, 3))}"
                 for name in ("chern-degree", "q-order")]
    if command in ("msv-check", "borcherds", "conformal-check"):
        # borcherds's states weigh up to 6: wider bounds reach its products
        top = 8 if command == "borcherds" else 2
        argv += [f"--{name}={draw(st.integers(0, top))}"
                 for name in ("max-weight", "max-c0")]
    return argv


@example(["msv-check", *MSV_ABOVE_ORDER])
@example(["msv-check", "--rank", "2", "--x", "t1^5 d1", "--y", "t1^5 d2",
          "--max-weight", "1", "--max-c0", "0", "--jet-order", "10"])
@seed(7)
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(identity_calls())
def test_identity_checks_exit_0_or_2(argv):
    code, out, err = run_captured(argv)
    assert code in (0, 2) and "Traceback" not in err, (argv, code, err)
    assert not err.startswith("error: unexpected"), (argv, err)
    if "exceeds" in err:
        assert "--max-weight" in err or "--max-c0" in err, (argv, err)
    if argv[0] == "msv-check":
        rank, order = int(argv[2]), int(argv[argv.index("--jet-order") + 1])
        try:
            for flag in ("--x", "--y"):
                parse_vector_field(argv[argv.index(flag) + 1], rank, order)
        except FormalDiskError:
            return
        assert code == 0, (argv, err)
