"""CLI integration: subcommands, exit codes, file outputs."""

import contextlib
import hashlib
import io
import json
import math
import os
import socket
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_texts import JSON_TEXTS

from bellbet.bounds import MAX_TRIALS, design_protocol
from bellbet.cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    eval_angle,
    main,
)
from bellbet.config import load_config
from bellbet.core import OPTIMAL_ANGLES
from bellbet.logfile import load_log
from bellbet.net import (
    KIND_CONFIG,
    KIND_LAMBDA,
    KIND_SETTING,
    MAX_TRIAL_TIMEOUT,
    encode_frame,
    recv_frame,
)
from bellbet.quantum import CORRELATION_SENSES
from bellbet.referee import RefereeEngine, build_report, run_experiment, summarize, tally
from bellbet.strategies import LOCAL_STRATEGY_NAMES

BAD_PARAMS = [
    ("constant", {"bit": 2}),
    ("classical-polarizer", {"bogus": 1}),
    ("constant", {"bit": 1.0}),
]

# The sides `run` settles with the whole-run kernel: both quantum senses,
# every honest registry strategy, and the constant strategy's other bit.
KERNEL_SIDES = [
    *({"kind": "quantum", "correlation_sense": sense} for sense in CORRELATION_SENSES),
    *({"kind": "strategy", "strategy": name, "params": {}} for name in LOCAL_STRATEGY_NAMES),
    {"kind": "strategy", "strategy": "constant", "params": {"bit": 0}},
]


def station_against_fake_referee(name, params, frames=(), n=100):
    """Exit status of ``bellbet station`` against a referee thread that sends
    CONFIG for this strategy and ``n``, then ``frames``, then waits for the
    hang-up."""
    doc = {
        "angles": list(OPTIMAL_ANGLES.as_tuple()),
        "side": {"kind": "strategy", "strategy": name, "params": params},
        "n": n,
        "seed": 1,
    }
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def referee():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                recv_frame(conn)  # HELLO
                conn.sendall(encode_frame(KIND_CONFIG, None, None, json.dumps(doc).encode()))
                for frame in frames:
                    conn.sendall(frame)
                conn.recv(1)  # wait for the station to hang up

        thread = threading.Thread(target=referee, daemon=True)
        thread.start()
        host, port = listener.getsockname()[:2]
        args = ["station", "--role", "left", "--endpoint", f"{host}:{port}", "--timeout", "10"]
        status = main(args)
        thread.join(10)
        assert not thread.is_alive()
    return status


def write_config(tmp_path, **overrides):
    doc = {
        "mode": "sequential",
        "angles": list(OPTIMAL_ANGLES.as_tuple()),
        "side": {"kind": "quantum", "correlation_sense": "equal-polarization"},
        "n": 1500,
        "critical_value": "auto",
        "seed": 77,
        "target_error": 1e-6,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def side_id(side):
    if side.get("params"):
        return "{strategy}-bit{bit}".format(bit=side["params"]["bit"], **side)
    return side.get("strategy") or side["correlation_sense"]


def side_config(tmp_path, side, **overrides):
    """A config for ``side`` whose 'auto' critical value exists: the
    opposite-polarization sense needs its right-wing angles turned by pi/2."""
    angles = list(OPTIMAL_ANGLES.as_tuple())
    if side.get("correlation_sense") == "opposite-polarization":
        angles[2:] = [a + math.pi / 2 for a in angles[2:]]
    return write_config(tmp_path, side=side, angles=angles, **overrides)


class TestRun:
    def test_run_writes_log_and_report(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "exp.log"
        status = main(["run", "--config", str(config), "--out", str(out)])
        assert status == EXIT_OK
        assert out.exists()
        text = (tmp_path / "exp.log.report.json").read_text()
        assert json.loads(text)["verdict"]["winner"] == "quantum-claimant"
        # Stdout is the report file's text, to the byte, and a newline.
        assert capsys.readouterr().out == text + "\n"

    def test_out_overrides_the_config_output(self, tmp_path, capsys, monkeypatch):
        # --out replaces the config's "output": the bet is written there
        # alone, and nothing at the config's path.
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, n=100, output="a.log")
        assert main(["run", "--config", str(config), "--out", "b.log"]) == EXIT_OK
        report = (tmp_path / "b.log.report.json").read_text()
        assert capsys.readouterr().out == report + "\n"
        assert load_log(tmp_path / "b.log").complete
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "b.log",
            "b.log.report.json",
            "config.json",
        ]

    def test_print_config(self, capsys):
        assert main(["run", "--print-config"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "sequential"
        assert doc["critical_value"] == "auto"

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, n=0)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("out", ["{dir}", "{file}/x.log"], ids=["directory", "under-a-file"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, monkeypatch, out):
        # Refused before the bet runs, which may take 10**9 trials.
        def no_kernel(config):
            raise AssertionError("run settled a bet with an unwritable output")

        monkeypatch.setattr("bellbet.cli.simulate_result", no_kernel)
        config = write_config(tmp_path, n=100)
        out = out.format(dir=tmp_path, file=config)
        assert main(["run", "--config", str(config), "--out", out]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write outputs: ")

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_unwritable_long_output_path_is_quoted_short(self, tmp_path, capsys, monkeypatch, command):
        # A 100 000-character "output" is a valid path string but no file
        # name: the message quotes it cut short, and serve never listens.
        import socket

        def no_listener(*args, **kwargs):
            raise AssertionError("serve listened with an unwritable output")

        monkeypatch.setattr(socket, "create_server", no_listener)
        config = write_config(
            tmp_path,
            n=100,
            side={"kind": "strategy", "strategy": "independent-coin", "params": {}},
            output=str(tmp_path / ("x" * 100_000)),
        )
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write outputs: File name too long: '")
        assert len(captured.err.encode()) < 300

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_trial_count_above_cap_is_config_error(self, tmp_path, capsys, command):
        # Refused while parsing, before any per-trial buffer is allocated.
        config = write_config(
            tmp_path, side={"kind": "strategy", "strategy": "constant", "params": {}}
        )
        argv = [command, "--config", str(config), "--n", str(MAX_TRIALS + 1)]
        assert main(argv) == EXIT_CONFIG
        assert f"config error: n must be an integer in 1..{MAX_TRIALS}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["run", "--strategy", "constant"], ["serve"]],
        ids=["run-quantum", "run-constant", "serve-constant"],
    )
    def test_design_whose_bound_rounds_to_one_is_config_error(self, tmp_path, capsys, argv):
        # C = 40391 lies below n * mu, about 40391.6, but the quantum side's
        # bound rounds to 1.0: no design, so no config, and nothing runs.
        side = {"kind": "strategy", "strategy": "constant", "params": {}}
        overrides = {"side": side} if argv[0] == "serve" else {}
        config = write_config(tmp_path, n=390_050, critical_value=40_391, **overrides)
        assert main([*argv, "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: no protocol design for n=390050, critical_value=40391")

    def test_unknown_field_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, gremlins=True)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"target_error": 10**400}, "target_error is an integer too large for a float"),
            ({"angles": [10**400, 0.0, 0.0, 0.0]}, "an angle is an integer too large for a float"),
        ],
        ids=["target_error", "angle"],
    )
    def test_integer_too_large_for_a_float_is_config_error(
        self, tmp_path, capsys, overrides, message
    ):
        config = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_batch_mode_is_config_error(self, tmp_path, capsys, command):
        # Settings are revealed one trial at a time; there is no batch mode.
        side = {"kind": "strategy", "strategy": "constant", "params": {}}
        config = write_config(tmp_path, side=side, mode="batch")
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert "config error: mode must be one of" in capsys.readouterr().err
        config = write_config(tmp_path, side=side)
        with pytest.raises(SystemExit) as caught:  # argparse refuses the choice
            main([command, "--config", str(config), "--mode", "batch"])
        assert caught.value.code == EXIT_CONFIG
        assert "invalid choice: 'batch'" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"n": "\xff"}')
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize("name, params", BAD_PARAMS)
    def test_bad_strategy_params_are_config_error(self, tmp_path, capsys, command, name, params):
        side = {"kind": "strategy", "strategy": name, "params": params}
        config = write_config(tmp_path, side=side)
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: bad params for strategy {name!r}")

    def test_range_violator_is_validation_failure(self, tmp_path, capsys, monkeypatch):
        # The one registry side with no whole-run rule runs through the
        # engine and writes the engine's abort.
        calls = []

        def engine(config, **kwargs):
            calls.append(config)
            return run_experiment(config, **kwargs)

        def no_kernel(config):
            raise AssertionError("run took the kernel for range-violator")

        monkeypatch.setattr("bellbet.cli.run_experiment", engine)
        monkeypatch.setattr("bellbet.cli.simulate_result", no_kernel)
        config = write_config(tmp_path, n=100)
        out = tmp_path / "violator.log"
        argv = ["run", "--config", str(config), "--strategy", "range-violator", "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        [config] = calls
        assert config.side.strategy == "range-violator"
        expected = run_experiment(config)
        report = json.loads((tmp_path / "violator.log.report.json").read_text())
        assert report == build_report(expected)
        assert report["abort"]["kind"] == "validation-failure"
        assert out.read_bytes() == expected.log.to_bytes()

    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    @pytest.mark.parametrize("side", KERNEL_SIDES, ids=side_id)
    def test_built_in_side_writes_the_engines_bytes(
        self, tmp_path, capsys, monkeypatch, side, mode
    ):
        # `run` settles a built-in side with the whole-run kernel (the
        # engine call is stubbed out) and writes the engine's exact bytes.
        def no_engine(*args, **kwargs):
            raise AssertionError("run took the engine for a built-in side")

        monkeypatch.setattr("bellbet.cli.run_experiment", no_engine)
        config = side_config(tmp_path, side, mode=mode, n=300, seed=5)
        out = tmp_path / "bet.log"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        expected = RefereeEngine(load_config(config)).run()
        report_text = json.dumps(build_report(expected), indent=2, sort_keys=True)
        assert out.read_bytes() == expected.log.to_bytes()
        assert (tmp_path / "bet.log.report.json").read_text() == report_text
        assert json.loads(capsys.readouterr().out) == json.loads(report_text)

    def test_strategy_override(self, tmp_path, capsys):
        config = write_config(tmp_path, n=400)
        status = main(
            ["run", "--config", str(config), "--strategy", "classical-polarizer"]
        )
        assert status == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["winner"] == "local-realist"


class TestDesign:
    def test_design_from_angles(self, capsys):
        status = main(["design", "--angles", "pi/8,3pi/8,-pi/4,0", "--target-error", "1e-6"])
        assert status == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] <= 25_000
        assert doc["local_realist_error_bound"] <= 1e-6
        assert doc["quantum_claimant_error_bound"] <= 1e-6

    def test_design_from_mu(self, capsys):
        status = main(["design", "--mu", "0.0625", "--target-error", "1e-6"])
        assert status == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] <= 65_000
        assert doc["critical_value"] == round(doc["n"] / 32)

    def test_design_with_both_side_flags(self, capsys):
        argv = ["design", "--mu", "0.0625", "--target-error", "1e-3"]
        argv += ["--quantum-target-error", "1e-9", "--critical-fraction", "0.25"]
        assert main(argv) == EXIT_OK
        expected = design_protocol(0.0625, 1e-3, quantum_target_error=1e-9, critical_fraction=0.25)
        assert json.loads(capsys.readouterr().out) == expected.as_dict()

    def test_critical_fraction_of_one_is_config_error(self, capsys):
        argv = ["design", "--mu", "0.0625", "--critical-fraction", "1.0"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: critical_fraction must be in (0, 1)")

    def test_target_error_one_is_config_error(self, capsys):
        assert main(["design", "--mu", "0.1", "--target-error", "1.0"]) == EXIT_CONFIG

    def test_design_above_trial_cap_is_config_error(self, capsys):
        assert main(["design", "--mu", "1e-4", "--target-error", "1e-6"]) == EXIT_CONFIG
        assert f"up to {MAX_TRIALS} trials" in capsys.readouterr().err

    def test_mu_and_angles_exclusive(self, capsys):
        assert main(["design", "--mu", "0.1", "--angles", "0,0,0,0"]) == EXIT_CONFIG

    def test_angle_expressions(self):
        assert eval_angle("pi/8") == pytest.approx(math.pi / 8)
        assert eval_angle("-3pi/8") == pytest.approx(-3 * math.pi / 8)
        assert eval_angle("0.25") == 0.25
        with pytest.raises(ValueError):
            eval_angle("tau/4")
        for token in ("pi/0", "0pi/0", "-pi/0.0"):
            with pytest.raises(ValueError, match="zero divisor"):
                eval_angle(token)

    @pytest.mark.parametrize("angles", ["pi/0,0,0,0", "0pi/0,0,0,0"])
    def test_zero_divisor_is_config_error(self, capsys, angles):
        assert main(["design", "--angles", angles]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: zero divisor")


class TestAnalyzeValidate:
    @pytest.fixture()
    def finished_run(self, tmp_path):
        config = write_config(tmp_path, n=800)
        out = tmp_path / "exp.log"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        return out

    def test_validate_clean_log(self, finished_run, capsys):
        assert main(["validate", "--log", str(finished_run)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_analyze_idempotent(self, finished_run, capsys):
        assert main(["analyze", "--log", str(finished_run)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["analyze", "--log", str(finished_run)]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["replay_verify"]["ok"] is True
        assert doc["replay_verify"]["checked_against_report"] is True
        assert set(doc["symmetric_slacks"]) == {"N11", "N12", "N21", "N22"}

    def test_analyze_matches_run_report(self, finished_run, capsys):
        report = json.loads(
            finished_run.with_suffix(".log.report.json").read_text()
        )
        main(["analyze", "--log", str(finished_run)])
        analysis = json.loads(capsys.readouterr().out)
        log = load_log(finished_run)
        shared = summarize(log, *tally(log))
        assert len(shared) == 11
        for key in shared:
            assert analysis[key] == report[key] == shared[key], key
        assert analysis["verdict"] == report["verdict"]

    def test_validate_catches_non_bit_outcome(self, finished_run, capsys):
        lines = finished_run.read_text().splitlines()
        doc = json.loads(lines[10])
        doc["x"] = 2.3
        lines[10] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        tampered = finished_run.parent / "tampered.log"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--log", str(tampered)]) == EXIT_VALIDATION
        assert "not a bit" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "trial, field, value, last_valid", [(3, "x", 2.5, 2), (1, "m", True, 0)]
    )
    def test_analyze_names_last_valid_trial_of_bad_value(
        self, finished_run, capsys, trial, field, value, last_valid
    ):
        lines = finished_run.read_text().splitlines()
        doc = json.loads(lines[trial])
        doc[field] = value
        lines[trial] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        tampered = finished_run.parent / "bad-value.log"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--log", str(tampered)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"validation failure: corrupt log (last valid trial {last_valid}): ")

    def test_analyze_refuses_forged_sequence_number(self, tmp_path, capsys):
        # A sequence number that reads like the short-log message is still a
        # corrupt record, with or without the run's report.
        config = write_config(tmp_path, n=20, critical_value=1)
        log = tmp_path / "short.log"
        assert main(["run", "--config", str(config), "--out", str(log)]) == EXIT_OK
        text = log.read_text()
        assert text.count('"m":3,') == 1
        log.write_text(text.replace('"m":3,', '"m":"incomplete experiment",'))
        capsys.readouterr()
        assert main(["validate", "--log", str(log)]) == EXIT_VALIDATION
        capsys.readouterr()
        for report in ([], ["--report", str(log) + ".report.json"]):
            assert main(["analyze", "--log", str(log), *report]) == EXIT_VALIDATION
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("validation failure: corrupt log (last valid trial 2): ")

    def test_non_utf8_log_is_a_validation_failure(self, finished_run, capsys):
        data = bytearray(finished_run.read_bytes())
        data[data.index(b'"x":') + 4] = 0xFF
        broken = finished_run.parent / "binary.log"
        broken.write_bytes(bytes(data))
        assert main(["analyze", "--log", str(broken)]) == EXIT_VALIDATION
        assert "not UTF-8" in capsys.readouterr().err
        assert main(["validate", "--log", str(broken)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert out.startswith("FAIL: ") and "not UTF-8" in out

    @pytest.mark.parametrize("text", ["{", "[1, 2]"])
    def test_malformed_report_is_a_validation_failure(self, finished_run, capsys, text):
        report = finished_run.parent / "bad.report.json"
        report.write_text(text)
        status = main(["analyze", "--log", str(finished_run), "--report", str(report)])
        assert status == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"validation failure: report {report} ")

    @pytest.mark.parametrize(
        "command, file, status",
        [
            ("run --config", "deep.json", EXIT_CONFIG),
            ("serve --config", "deep.json", EXIT_CONFIG),
            ("run --config", "digits.json", EXIT_CONFIG),
            ("analyze --log exp.log --report", "deep.report.json", EXIT_VALIDATION),
            ("analyze --log", "digits.log", EXIT_VALIDATION),
            ("validate --log", "digits.log", EXIT_VALIDATION),
        ],
    )
    def test_json_past_the_decoder_limits_ends_with_its_code(
        self, finished_run, capsys, command, file, status
    ):
        # Nesting 100 000 deep, or an integer of 5 000 digits, fails json.loads
        # with a RecursionError or a plain ValueError.
        folder = finished_run.parent
        deep = "[" * 100_000 + "]" * 100_000
        (folder / "deep.json").write_text(deep)
        (folder / "deep.report.json").write_text(deep)
        (folder / "digits.json").write_text('{"n": ' + "1" * 5000 + "}")
        lines = finished_run.read_text().splitlines(keepends=True)
        lines[5] = lines[5].replace('"m":5,', '"m":' + "1" * 5000 + ",")
        (folder / "digits.log").write_text("".join(lines))
        argv = [arg.replace("exp.log", str(finished_run)) for arg in command.split()]
        assert main([*argv, str(folder / file)]) == status
        captured = capsys.readouterr()
        message = captured.out if command.startswith("validate") else captured.err
        assert message.count("\n") == 1
        assert ("4300 digits" if "digits" in file else "recursion") in message

    def test_validate_catches_missing_trial(self, finished_run, capsys):
        lines = finished_run.read_text().splitlines()
        del lines[17]
        tampered = finished_run.parent / "gap.log"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--log", str(tampered)]) == EXIT_VALIDATION

    def test_analyze_truncated_log_names_last_valid_trial(self, finished_run, capsys):
        lines = finished_run.read_text().splitlines()
        truncated = finished_run.parent / "truncated.log"
        truncated.write_text("\n".join(lines[:301]) + "\n")
        status = main(["analyze", "--log", str(truncated)])
        assert status == EXIT_VALIDATION
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert doc["trials_committed"] == 300
        assert "last valid trial 300" in doc["incomplete"]

    @pytest.mark.parametrize("separator", [",", ", "])
    def test_huge_header_n_is_an_incomplete_log(self, finished_run, capsys, separator):
        # A log read from disk is sized by the records it holds, not by the
        # header's n; both readers (canonical and spaced records) are run.
        lines = finished_run.read_text().splitlines()
        header = json.loads(lines[0])
        header["n"] = 10**12
        records = [line.replace(",", separator) for line in lines[1:4]]
        huge = finished_run.parent / "huge.log"
        huge.write_text(
            "\n".join([json.dumps(header, sort_keys=True, separators=(",", ":")), *records]) + "\n"
        )
        assert main(["analyze", "--log", str(huge)]) == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.err == ""
        doc = json.loads(out.out)
        assert doc["incomplete"] == f"log holds 3 of {10**12} trials; last valid trial 3"
        assert doc["replay_verify"]["ok"] is True
        assert main(["validate", "--log", str(huge)]) == EXIT_VALIDATION
        assert "(incomplete experiment)" in capsys.readouterr().out

    def test_over_long_log_is_a_validation_failure(self, finished_run, capsys):
        over_long = finished_run.parent / "over-long.log"
        extra = '{"i":1,"j":1,"m":801,"x":0,"y":0}\n{"i":2,"j":1,"m":802,"x":1,"y":1}\n'
        over_long.write_text(finished_run.read_text() + extra)
        assert main(["analyze", "--log", str(over_long)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation failure: corrupt log (last valid trial 800)")
        assert main(["validate", "--log", str(over_long)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "allows only 800 (extra trials: 801, 802)" in out
        assert "incomplete" not in out

    @pytest.mark.parametrize("field", ["m", "i", "j"])
    def test_boolean_index_is_a_validation_failure(self, finished_run, field, capsys):
        lines = finished_run.read_text().splitlines()
        doc = json.loads(lines[1])
        doc[field] = True
        lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        tampered = finished_run.parent / "boolean.log"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--log", str(tampered)]) == EXIT_VALIDATION
        assert capsys.readouterr().out.startswith("FAIL: ")
        assert main(["analyze", "--log", str(tampered)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation failure: corrupt log")

    @pytest.mark.parametrize("version", [2, "1", 1.0, [1], None, True])
    def test_header_of_another_version_is_refused(self, finished_run, capsys, version):
        header_line, records = finished_run.read_bytes().split(b"\n", 1)
        header = {**json.loads(header_line), "version": version}
        other = finished_run.parent / "other-version.log"
        header_line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        other.write_bytes(header_line + b"\n" + records)
        message = f"log version {version!r} is not 1"
        assert main(["validate", "--log", str(other)]) == EXIT_VALIDATION
        assert capsys.readouterr().out == f"FAIL: {message}\n"
        assert main(["analyze", "--log", str(other)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation failure: {message}\n"

    def test_analyze_missing_file(self, tmp_path, capsys):
        assert main(["analyze", "--log", str(tmp_path / "nope.log")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--log", "{log}", "--report", "{dir}"],
            ["analyze", "--log", "{dir}"],
            ["validate", "--log", "{dir}"],
        ],
    )
    def test_directory_path_is_config_error(self, finished_run, capsys, argv):
        paths = {"log": str(finished_run), "dir": str(finished_run.parent)}
        assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root reads any file"
    )
    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_unreadable_log_is_config_error(self, finished_run, capsys, command):
        finished_run.chmod(0)
        try:
            assert main([command, "--log", str(finished_run)]) == EXIT_CONFIG
        finally:
            finished_run.chmod(0o644)
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "field, value, failure",
        [
            ("abort", [1], "report abort is not an object"),
            ("design", [1], "report design is not an object"),
            ("abort", {"trial": "1"}, "report abort trial is not an integer"),
        ],
    )
    def test_report_field_of_wrong_type_fails_replay(
        self, finished_run, capsys, field, value, failure
    ):
        report = json.loads(finished_run.with_suffix(".log.report.json").read_text())
        report[field] = value
        bad = finished_run.parent / "bad.json"
        bad.write_text(json.dumps(report))
        status = main(["analyze", "--log", str(finished_run), "--report", str(bad)])
        assert status == EXIT_VALIDATION
        replay = json.loads(capsys.readouterr().out)["replay_verify"]
        assert replay["ok"] is False
        assert replay["failure"] == failure

    def test_analyze_opposite_sense_log(self, tmp_path, capsys):
        # The header cannot carry the correlation sense, so the analyzer's
        # bound recomputation may be infeasible; it must degrade gracefully
        # and the report cross-check must still replay.
        shifted = [a + (math.pi / 2 if idx >= 2 else 0.0) for idx, a in
                   enumerate(OPTIMAL_ANGLES.as_tuple())]
        config = write_config(
            tmp_path,
            angles=shifted,
            side={"kind": "quantum", "correlation_sense": "opposite-polarization"},
            n=600,
        )
        out = tmp_path / "opp.log"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["analyze", "--log", str(out)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["replay_verify"]["ok"] is True
        assert doc["verdict"]["winner"] == "quantum-claimant"

    def test_batch_log_stays_readable(self, tmp_path, capsys):
        # Batch mode revealed every setting before trial 1 and is gone, but
        # the logs it wrote stay readable: the reader never interprets the
        # header's mode, and settings come from the seed alike in every mode.
        # A batch source saw no history, as a cloned-source one sees none, so
        # a batch log is the cloned-source log under the batch config's
        # header. The sha256 pins the bytes that batch mode wrote for this
        # config before it was deleted.
        side = {"kind": "strategy", "strategy": "adaptive-frequency-tracker", "params": {}}
        config = write_config(tmp_path, side=side, mode="cloned-source", n=400)
        out = tmp_path / "cloned.log"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        batch_doc = {**load_config(config).to_dict(), "mode": "batch"}
        canonical = json.dumps(batch_doc, sort_keys=True, separators=(",", ":"))
        header_line, records = out.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header.update(mode="batch", config_hash=hashlib.sha256(canonical.encode()).hexdigest())
        batch_log = tmp_path / "batch.log"
        batch_log.write_bytes(
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + records
        )
        assert hashlib.sha256(batch_log.read_bytes()).hexdigest() == (
            "6065d7e55f0b191f5c2896a36ebeb484dc24df508be0e61e6956dde64e4f117f"
        )
        capsys.readouterr()
        assert main(["validate", "--log", str(batch_log)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert main(["analyze", "--log", str(batch_log)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["replay_verify"]["ok"] is True
        assert (doc["mode"], doc["trials_committed"]) == ("batch", 400)

    def test_analyze_detects_tampered_outcome_against_report(self, finished_run, capsys):
        lines = finished_run.read_text().splitlines()
        doc = json.loads(lines[5])
        doc["x"] = 1 - doc["x"]
        lines[5] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        tampered = finished_run.parent / "flip.log"
        tampered.write_text("\n".join(lines) + "\n")
        report_path = str(finished_run) + ".report.json"
        status = main(["analyze", "--log", str(tampered), "--report", report_path])
        assert status == EXIT_VALIDATION
        doc = json.loads(capsys.readouterr().out)
        assert doc["replay_verify"]["ok"] is False

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_closed_pipe_ends_quietly(self, finished_run, command):
        # The reader closes the pipe before the command prints (`| head`):
        # no traceback, and the command's own exit status.
        proc = subprocess.Popen(
            [sys.executable, "-m", "bellbet", command, "--log", str(finished_run)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_OK
        assert b"Traceback" not in err and b"Error" not in err, err


def quiet_main(argv) -> tuple[int, str]:
    """``main(argv)`` with stdout and stderr captured: the status and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


@pytest.fixture(scope="module")
def bet_200(tmp_path_factory):
    """A finished 200-trial bet: its directory, header, record lines and report."""
    tmp = tmp_path_factory.mktemp("bet200")
    log = tmp / "bet.log"
    status, _ = quiet_main(["run", "--config", str(write_config(tmp, n=200)), "--out", str(log)])
    assert status == EXIT_OK
    header, *records = log.read_text().splitlines(keepends=True)
    report = json.loads((tmp / "bet.log.report.json").read_text())
    return tmp, json.loads(header), records, report


def analyze_edited(bet, header_edits, report_kind, records=None) -> tuple[int, str]:
    """``analyze`` of the bet's log, at ``edited.log``, with ``header_edits``
    applied to its header and only ``records`` kept (default: all), against
    no report, the bet's own report or that report aborted at the trial
    after the log's last."""
    tmp, header, all_records, report = bet
    records = all_records if records is None else records
    log = tmp / "edited.log"
    edited = json.dumps({**header, **header_edits}, sort_keys=True, separators=(",", ":"))
    log.write_text(edited + "\n" + "".join(records))
    argv = ["analyze", "--log", str(log)]
    if report_kind != "none":
        if report_kind == "aborted":
            abort = {"kind": "protocol-abort", "reason": "station gone", "trial": len(records) + 1}
            report = {**report, "abort": {**abort, "side": "left", "value": None}, "verdict": None}
        path = tmp / "report.json"
        path.write_text(json.dumps(report))
        argv += ["--report", str(path)]
    return quiet_main(argv)


# JSON integers of up to a few hundred digits, small ones and powers of ten.
HEADER_INTEGERS = (
    st.integers(-10, 10**6)
    | st.integers(-(10**300), 10**300)
    | st.integers(0, 400).map(lambda k: 10**k)
)


class TestEditedHeaderDesign:
    """A header's seed, n and C are any JSON integers; only a design is adjudicated."""

    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "seed": HEADER_INTEGERS,
                "n": HEADER_INTEGERS,
                "critical_value": HEADER_INTEGERS,
            },
        ),
        st.sampled_from(["none", "matching", "aborted"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_analyze_ends_with_its_code(self, bet_200, edits, report_kind):
        status, _ = analyze_edited(bet_200, edits, report_kind)
        assert status in (EXIT_OK, EXIT_VALIDATION)

    @pytest.mark.parametrize(
        "edits",
        [
            {"seed": -1},  # a config's seed is unsigned, and so is a log header's
            {"stopping": "first-crossing"},  # no key but the v1 header's
            {"mode": [1]},
            {"mode": "parallel"},
            {"config_hash": 5},
            {"config_hash": [1, 2]},
            {"config_hash": "AB" * 32},
            {"config_hash": "ab" * 31},
            {"angles": [True, False, 0.0, 0.0]},
        ],
        ids=[
            "negative-seed",
            "unknown-key",
            "list-mode",
            "unknown-mode",
            "int-hash",
            "list-hash",
            "uppercase-hash",
            "short-hash",
            "bool-angles",
        ],
    )
    def test_malformed_header_fails_analyze_and_validate(self, bet_200, edits):
        assert analyze_edited(bet_200, edits, "none")[0] == EXIT_VALIDATION
        edited = str(bet_200[0] / "edited.log")
        assert quiet_main(["validate", "--log", edited])[0] == EXIT_VALIDATION

    def test_critical_value_too_large_for_a_float_is_no_design(self, bet_200):
        status, out = analyze_edited(bet_200, {"critical_value": 10**400}, "none")
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["design"] is None
        assert doc["verdict"]["winner"] == "local-realist"
        assert quiet_main(["validate", "--log", str(bet_200[0] / "edited.log")])[0] == EXIT_OK

    def test_trial_count_too_large_for_a_float_fails_replay(self, bet_200):
        # The header alone, against a report aborted at trial 1: replay
        # reaches the design, which the header's n cannot have.
        status, out = analyze_edited(bet_200, {"n": 10**400}, "aborted", records=[])
        assert status == EXIT_VALIDATION
        failure = json.loads(out)["replay_verify"]["failure"]
        assert failure == "report design is not a valid protocol design"


def json_paths(doc, prefix=()):
    """The key path of every value in nested JSON objects, outermost first."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from json_paths(value, prefix + (key,))


class TestEditedReport:
    """``analyze --report`` ends with its exit code on any JSON document."""

    @given(st.data(), st.integers(0, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_analyze_ends_with_its_code(self, bet_200, data, edits, whole):
        # The bet's own report with up to three values, nested ones too,
        # replaced or removed, or a whole document in its place.
        tmp, _, _, report = bet_200
        if whole:
            text = data.draw(JSON_TEXTS)
        else:
            report = json.loads(json.dumps(report))
            texts = {}
            for k in range(edits):
                *outer, key = data.draw(st.sampled_from(list(json_paths(report))))
                doc = report
                for name in outer:
                    doc = doc[name]
                if data.draw(st.booleans()):
                    del doc[key]
                else:
                    doc[key] = f"@edit{k}@"
                    texts[f'"@edit{k}@"'] = data.draw(JSON_TEXTS)
                if not report:
                    break
            text = json.dumps(report)
            for placeholder, value in texts.items():
                text = text.replace(placeholder, value)
        path = tmp / "edited-report.json"
        path.write_text(text)
        status, _ = quiet_main(["analyze", "--log", str(tmp / "bet.log"), "--report", str(path)])
        assert status in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION)


class TestNetworkCommandErrors:
    @pytest.mark.parametrize("command", ["serve", "station"])
    def test_out_of_range_port_is_config_error(self, tmp_path, capsys, command):
        config = write_config(
            tmp_path, side={"kind": "strategy", "strategy": "independent-coin", "params": {}}
        )
        args = {
            "serve": ["serve", "--config", str(config)],
            "station": ["station", "--role", "left"],
        }[command]
        assert main(args + ["--endpoint", "127.0.0.1:70000"]) == EXIT_CONFIG
        assert "config error: endpoint port must be 0-65535" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "station"])
    def test_host_the_idna_codec_refuses_is_config_error(
        self, tmp_path, capsys, monkeypatch, command
    ):
        import socket

        def no_resolver(*args, **kwargs):
            raise AssertionError("the endpoint reached the socket layer")

        for name in ("getaddrinfo", "create_connection", "create_server"):
            monkeypatch.setattr(socket, name, no_resolver)
        config = write_config(
            tmp_path, side={"kind": "strategy", "strategy": "independent-coin", "params": {}}
        )
        args = {
            "serve": ["serve", "--config", str(config)],
            "station": ["station", "--role", "left"],
        }[command]
        assert main(args + ["--endpoint", "ä..b:80"]) == EXIT_CONFIG
        assert "config error: endpoint host is not a valid IDNA name" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--transcript", "{dir}"],
            ["--out", "{dir}"],
            ["--out", "{file}/x.log"],
            ["--out", "{dir}/bet.log", "--transcript", "{file}/wire.jsonl"],
        ],
        ids=["transcript-directory", "out-directory", "out-under-a-file", "transcript-under-a-file"],
    )
    def test_unwritable_output_is_refused_before_listening(
        self, tmp_path, capsys, monkeypatch, outputs
    ):
        import socket

        def no_listener(*args, **kwargs):
            raise AssertionError("serve listened with an unwritable output")

        monkeypatch.setattr(socket, "create_server", no_listener)
        config = write_config(
            tmp_path, side={"kind": "strategy", "strategy": "independent-coin", "params": {}}
        )
        argv = ["serve", "--config", str(config)]
        assert main(argv + [arg.format(dir=tmp_path, file=config) for arg in outputs]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "listening on" not in captured.out
        assert captured.err.startswith("config error: cannot write outputs: ")
        assert not (tmp_path / "bet.log").exists()

    def test_output_check_keeps_a_dangling_symlink(self, tmp_path, capsys, monkeypatch):
        # The check opens the link, which creates its target; it removes
        # that target, not the link.
        def no_listener(*args, **kwargs):
            raise OSError("no listener")

        monkeypatch.setattr(socket, "create_server", no_listener)
        target, link = tmp_path / "target.log", tmp_path / "link.log"
        link.symlink_to(target)
        config = write_config(
            tmp_path, side={"kind": "strategy", "strategy": "independent-coin", "params": {}}
        )
        assert main(["serve", "--config", str(config), "--out", str(link)]) == EXIT_ABORT
        assert "protocol abort: no listener" in capsys.readouterr().err
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert not target.exists() and not (tmp_path / "link.log.report.json").exists()

    @pytest.mark.parametrize("out", [".", "/"])
    def test_output_path_with_no_file_name_is_config_error(
        self, tmp_path, capsys, monkeypatch, out
    ):
        # The report's path is the log's with ".report.json" appended, which
        # any path takes; the log's own path is then refused as a directory.
        def no_listener(*args, **kwargs):
            raise AssertionError("serve listened with an unwritable output")

        monkeypatch.setattr(socket, "create_server", no_listener)
        monkeypatch.chdir(tmp_path)
        config = write_config(
            tmp_path,
            side={"kind": "strategy", "strategy": "independent-coin", "params": {}},
            output=out,
        )
        for argv in (["--out", out], []):
            assert main(["serve", "--config", str(config), *argv]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: cannot write outputs: Is a directory")

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf", "1e10", "4294967.297"])
    @pytest.mark.parametrize("command", ["serve", "station"])
    def test_timeout_the_socket_cannot_keep_is_refused(
        self, tmp_path, capsys, monkeypatch, command, timeout
    ):
        # 0 makes a socket non-blocking; -1, nan, inf and 1e10 make
        # settimeout raise; 4294967.297 s wraps around to 1 ms in poll().
        def no_socket(*args, **kwargs):
            raise AssertionError("a refused timeout reached the socket layer")

        for name in ("create_connection", "create_server"):
            monkeypatch.setattr(socket, name, no_socket)
        config = write_config(
            tmp_path, side={"kind": "strategy", "strategy": "independent-coin", "params": {}}
        )
        args = {
            "serve": ["serve", "--config", str(config)],
            "station": ["station", "--role", "left", "--endpoint", "127.0.0.1:1"],
        }[command]
        with pytest.raises(SystemExit) as exited:
            main(args + ["--timeout", timeout])
        assert exited.value.code == EXIT_CONFIG
        refusal = f"must be a number of seconds above 0 and at most {MAX_TRIAL_TIMEOUT}"
        assert f"argument --timeout: {refusal}" in capsys.readouterr().err

    def test_longest_timeout_is_one_the_socket_keeps(self):
        argv = ["station", "--role", "left", "--endpoint", "127.0.0.1:1"]
        args = build_parser("station").parse_args(argv + ["--timeout", str(MAX_TRIAL_TIMEOUT)])
        assert args.timeout == MAX_TRIAL_TIMEOUT
        left, right = socket.socketpair()
        with left, right:
            left.settimeout(MAX_TRIAL_TIMEOUT)
            sender = threading.Timer(0.2, right.sendall, (b"x",))
            sender.start()
            assert left.recv(1) == b"x"  # waited for the byte, did not time out
            sender.join()

    def test_serve_quantum_side_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--print-config"]) == EXIT_OK
        config = tmp_path / "default.json"
        config.write_text(capsys.readouterr().out)
        assert main(["serve", "--config", str(config)]) == EXIT_CONFIG
        assert "config error: networked runs need a strategy side" in capsys.readouterr().err

    @pytest.mark.parametrize("name, params", BAD_PARAMS)
    def test_station_refuses_bad_strategy_params(self, name, params):
        # A referee that announces a config whose strategy cannot be built.
        assert station_against_fake_referee(name, params) == EXIT_CONFIG

    def test_station_refuses_trial_count_above_cap(self):
        assert station_against_fake_referee("constant", {}, n=MAX_TRIALS + 1) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("classical-polarizer", b"ab"),
            ("deterministic-optimal", b""),
            ("deterministic-optimal", bytes([200])),
        ],
    )
    def test_station_exits_3_on_unreadable_payload(self, name, payload):
        frames = [
            encode_frame(KIND_LAMBDA, 1, "left", payload),
            encode_frame(KIND_SETTING, 1, "left", b'{"index": 1, "nonce": "ab"}'),
        ]
        assert station_against_fake_referee(name, {}, frames) == EXIT_ABORT


# Command lines for each way a parse ends: help, a missing required option,
# a value outside its choices or not of its type, an unknown flag, an extra
# positional, and success.
PARSER_ARGV = [
    [],
    ["-h"],
    ["nosuch"],
    ["--log", "x.log"],
    *([command, "-h"] for command in ("run", "design", "analyze", "validate", "serve", "station")),
    ["analyze"],
    ["validate"],
    ["serve"],
    ["station", "--endpoint", "127.0.0.1:1"],
    ["run", "--mode", "batch"],
    ["serve", "--config", "c.json", "--mode", "cloned"],
    ["station", "--role", "up", "--endpoint", "127.0.0.1:1"],
    ["run", "--n", "ten"],
    ["run", "--seed", "1.5"],
    ["design", "--mu", "x"],
    ["serve", "--config", "c.json", "--timeout", "soon"],
    ["serve", "--config", "c.json", "--timeout", "-1"],
    ["station", "--role", "left", "--endpoint", "127.0.0.1:1", "--timeout", "nan"],
    ["run", "--bogus"],
    ["analyze", "--log", "x.log", "--verbose"],
    ["analyze", "--log", "x.log", "extra"],
    ["run", "--print-config", "extra"],
    ["run", "--n", "10", "--mode", "cloned-source", "--out", "x.log"],
    ["design", "--angles", "pi/8,3pi/8,-pi/4,0", "--target-error", "1e-3"],
    ["analyze", "--log", "x.log", "--report", "r.json"],
    ["validate", "--log", "x.log"],
    ["serve", "--config", "c.json", "--endpoint", "127.0.0.1:0", "--transcript", "w.jsonl"],
    ["station", "--role", "right", "--endpoint", "127.0.0.1:1", "--timeout", "2"],
]


def parse_outcome(parser, argv):
    """What ``parser`` makes of ``argv``: the namespace or the exit code,
    and everything written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
    def test_parser_for_the_command_reads_as_the_full_parser(self, argv):
        command = argv[0] if argv else None
        alone = parse_outcome(build_parser(command), argv)
        assert alone == parse_outcome(build_parser(), argv)
        assert alone[1] or alone[2] or alone[0].func.__name__ == f"cmd_{command}"

    def test_errors_name_the_command_argument(self):
        _, _, missing = parse_outcome(build_parser(), [])
        _, _, unknown = parse_outcome(build_parser(), ["nosuch"])
        assert missing.endswith("error: the following arguments are required: command\n")
        assert "error: argument command: invalid choice: 'nosuch'" in unknown

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["bellbet", "run", "--print-config"])
        assert main() == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mode"] == "sequential"
