"""CLI: dispatch, document shape, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from formaldisk.cli import main


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
            ["pw-check", "--rank", "2", "--jet-order", "4",
             "--f1", "(t1+t2^2, t2)", "--f2", "(t1, t2+t1^2)"], capsys)
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

    @pytest.mark.parametrize("args", [
        ["msv-check", "--rank", "2", "--x", "t1*t2 d1", "--y", "t1^2*t2 d2",
         "--max-weight", "-1", "--max-c0", "2"],
        ["conformal-check", "--rank", "1", "--max-weight", "-1"],
    ])
    def test_empty_basis_is_exit_two(self, args, capsys):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no basis states" in captured.err

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
