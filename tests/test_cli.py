"""Command-line behavior: outputs, exit codes, machine mode, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellbox
from bellbox import builtin_document, parse_document, serialize_document
from bellbox.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_socks_off(self, capsys):
        code, out, _ = run(capsys, "classify", "socks-off")
        assert code == 0
        assert "classification: NONLOCAL_NOSIGNALING" in out
        assert "max |CHSH| = 4" in out
        assert "no-signaling residual = 0" in out

    def test_socks_on(self, capsys):
        code, out, _ = run(capsys, "classify", "socks-on")
        assert code == 0
        assert "classification: LOCAL" in out
        assert "local decomposition:" in out

    def test_socks_color(self, capsys):
        code, out, _ = run(capsys, "classify", "socks-color")
        assert code == 0
        assert "classification: SIGNALING" in out
        assert "no-signaling residual = 1/2" in out

    def test_singlet_machine(self, capsys):
        code, out, _ = run(capsys, "classify", "singlet", "--output", "machine")
        assert code == 0
        assert "classification = NONLOCAL_NOSIGNALING" in out
        chsh_line = next(l for l in out.splitlines() if l.startswith("chsh_max"))
        assert abs(float(chsh_line.split("=")[1]) - 2 * math.sqrt(2)) < 1e-9


class TestChshCommand:
    def test_socks_on_max_and_arrangement(self, capsys):
        code, out, _ = run(capsys, "chsh", "socks-on")
        assert code == 0
        assert "max |CHSH| = 2  (arrangement +++-)" in out
        assert out.count("->") == 8

    def test_machine_mode(self, capsys):
        code, out, _ = run(capsys, "chsh", "socks-off", "--output", "machine")
        assert code == 0
        assert "value +++- = 4" in out
        assert "max = 4" in out
        assert "arrangement = +++-" in out


class TestExactCommand:
    def test_table_contains_fractions(self, capsys):
        code, out, _ = run(capsys, "exact", "socks-on")
        assert code == 0
        assert "1/2" in out and "1/4" in out
        assert "E(A,B) = 1" in out
        assert "E(A',B') = -1" in out

    def test_decimal_flag(self, capsys):
        code, out, _ = run(capsys, "exact", "socks-on", "--decimal")
        assert code == 0
        assert "0.5" in out and "0.25" in out

    def test_machine_output_reparses_identically(self, capsys):
        for name in ("socks-on", "socks-off", "socks-color", "singlet"):
            code, out, _ = run(capsys, "exact", name, "--output", "machine")
            assert code == 0
            result = parse_document(out)
            assert result.ok, [d.render() for d in result.errors()]
            expected = builtin_document(
                "singlet-optimal" if name == "singlet" else name
            ).to_behavior()
            assert result.document.to_behavior() == expected


class TestNosigCommand:
    def test_socks_off_zero(self, capsys):
        code, out, _ = run(capsys, "nosig", "socks-off")
        assert code == 0
        assert "no-signaling residual = 0" in out

    def test_socks_color_shows_gap(self, capsys):
        code, out, _ = run(capsys, "nosig", "socks-color")
        assert code == 0
        assert "no-signaling residual = 1/2" in out
        assert "(gap 1/2)" in out


class TestMembershipCommand:
    def test_local_with_weights(self, capsys):
        code, out, _ = run(capsys, "membership", "socks-on")
        assert code == 0
        assert out.startswith("LOCAL")
        assert "weight 1/4" in out

    def test_infeasible_with_certificate(self, capsys):
        code, out, _ = run(capsys, "membership", "socks-off")
        assert code == 0
        assert out.startswith("INFEASIBLE")
        assert "local bound" in out

    def test_machine_mode(self, capsys):
        code, out, _ = run(capsys, "membership", "socks-on", "--output", "machine")
        assert code == 0
        assert "status = LOCAL" in out
        assert "weight (" in out


class TestSampleCommand:
    def test_basic_run(self, capsys):
        code, out, _ = run(
            capsys, "sample", "socks-off", "--seed", "5", "--trials", "400"
        )
        assert code == 0
        assert "max deviation vs exact table" in out

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = ("sample", "socks-off", "--seed", "9", "--trials", "1000")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fixed_schedule(self, capsys):
        code, out, _ = run(
            capsys,
            "sample",
            "socks-on",
            "--trials",
            "10",
            "--schedule",
            "fixed:A,B'",
        )
        assert code == 0
        assert "(A,B') [10 trials]" in out
        assert "deviation reported only" in out

    def test_machine_mode_contains_trials(self, capsys):
        code, out, _ = run(
            capsys,
            "sample",
            "socks-off",
            "--trials",
            "12",
            "--output",
            "machine",
        )
        assert code == 0
        assert "[trials]" in out
        assert "trial,alice_setting,bob_setting,cause,a,b" in out
        assert "count(1,1 | A,B)" in out

    def test_sampling_a_behavior_document_fails(self, capsys, tmp_path):
        doc = builtin_document("singlet-optimal")
        path = tmp_path / "quantum.bellbox"
        path.write_text(serialize_document(doc))
        code, _, err = run(capsys, "sample", str(path))
        assert code == 1
        assert "no cause model" in err

    def test_bad_schedule(self, capsys):
        code, _, err = run(capsys, "sample", "socks-on", "--schedule", "spiral")
        assert code == 1
        assert "schedule" in err

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run(capsys, "sample", "socks-on", "--trials", "0")
        assert code == 1
        assert "trials" in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, capsys, seed):
        code, out, err = run(capsys, "sample", "socks-on", "--seed", str(seed))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--seed" in err

    def test_seed_range_ends_accepted(self, capsys):
        for seed in (0, 2**64 - 1):
            argv = ["sample", "socks-on", "--seed", str(seed), "--trials", "8"]
            code, _, _ = run(capsys, *argv)
            assert code == 0


class TestShowCommand:
    def test_prints_canonical_document(self, capsys):
        code, out, _ = run(capsys, "show", "socks-off")
        assert code == 0
        assert out == serialize_document(builtin_document("socks-off"))


class TestModuleEntryPoint:
    def test_python_m_matches_run_cli(self, capsys):
        code, expected, _ = run(capsys, "show", "socks-on")
        assert code == 0
        src = str(Path(bellbox.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-m", "bellbox.cli", "show", "socks-on"],
            env=env,
            capture_output=True,
            timeout=60,
            check=False,
        )
        assert done.returncode == 0
        assert done.stdout == expected.encode("utf-8")


class TestInputHandling:
    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "model.bellbox"
        path.write_text(serialize_document(builtin_document("socks-on")))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "classification: LOCAL" in out

    def test_unknown_input(self, capsys):
        code, _, err = run(capsys, "classify", "no-such-thing")
        assert code == 1
        assert "neither a builtin" in err

    def test_parse_errors_reported_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "broken.bellbox"
        path.write_text("bellbox-format 1\n[scenario]\nalice = A\nbob = B\n[behavior]\nP(1,1 | A,Bad) = 1\n")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert "UNKNOWN_LABEL" in err
        assert ":6:" in err  # line number in the diagnostic

    def test_usage_error_is_input_error(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 1
        assert err

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "classify", "socks-on", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "classification: LOCAL" in target.read_text()

    def test_every_subcommand_fast_on_every_builtin(self, capsys):
        import time

        builtins = ("socks-on", "socks-off", "socks-color", "singlet")
        commands = ("exact", "chsh", "nosig", "membership", "classify", "show")
        for name in builtins:
            for command in commands:
                start = time.perf_counter()
                code, _, _ = run(capsys, command, name)
                assert code == 0, (command, name)
                assert time.perf_counter() - start < 5.0
        for name in ("socks-on", "socks-off", "socks-color"):
            start = time.perf_counter()
            code, _, _ = run(capsys, "sample", name)
            assert code == 0
            assert time.perf_counter() - start < 5.0

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        import bellbox.cli as cli_module

        def explode(args, doc):
            raise RuntimeError("boom")

        monkeypatch.setitem(
            cli_module.__dict__, "_cmd_classify", explode
        )
        code, _, err = run(capsys, "classify", "socks-on")
        assert code == 2
        assert "boom" in err


class TestUnreadableInputAndUnwritableOutput:
    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "x.bellbox"
        path.write_bytes(b"\xff\xfe bad")
        code, out, err = run(capsys, "show", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: ")
        assert "codec can't decode" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("target", ["missing/report.txt", "."], ids=["missing-dir", "a-directory"])
    def test_out_that_cannot_be_written(self, capsys, tmp_path, target):
        out_path = str(tmp_path / target)
        code, out, err = run(capsys, "classify", "socks-on", "--out", out_path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("target", ["missing/report.txt", "."], ids=["missing-dir", "a-directory"])
    def test_out_that_cannot_be_written_python_m(self, tmp_path, target):
        out_path = str(tmp_path / target)
        src = str(Path(bellbox.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-m", "bellbox.cli", "show", "socks-on", "--out", out_path],
            env=env,
            capture_output=True,
            timeout=60,
            check=False,
        )
        assert (done.returncode, done.stdout) == (1, b"")
        err = done.stderr.decode("utf-8")
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert len(err.splitlines()) == 1
