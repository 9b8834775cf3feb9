"""CLI integration: subcommands, exit codes, file outputs."""

import json
import math
import socket
import threading

import pytest

from bellbet.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VALIDATION,
    eval_angle,
    main,
)
from bellbet.core import OPTIMAL_ANGLES
from bellbet.logfile import load_log
from bellbet.net import KIND_CONFIG, encode_frame, recv_frame
from bellbet.referee import summarize, tally

BAD_PARAMS = [("constant", {"bit": 2}), ("classical-polarizer", {"bogus": 1})]


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


class TestRun:
    def test_run_writes_log_and_report(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "exp.log"
        status = main(["run", "--config", str(config), "--out", str(out)])
        assert status == EXIT_OK
        assert out.exists()
        report = json.loads((tmp_path / "exp.log.report.json").read_text())
        assert report["verdict"]["winner"] == "quantum-claimant"
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_print_config(self, capsys):
        assert main(["run", "--print-config"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "sequential"
        assert doc["critical_value"] == "auto"

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, n=0)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_unknown_field_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, gremlins=True)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

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

    def test_range_violator_is_validation_failure(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            side={"kind": "strategy", "strategy": "range-violator", "params": {}},
            n=100,
        )
        out = tmp_path / "violator.log"
        status = main(["run", "--config", str(config), "--out", str(out)])
        assert status == EXIT_VALIDATION
        report = json.loads((tmp_path / "violator.log.report.json").read_text())
        assert report["abort"]["kind"] == "validation-failure"

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

    def test_target_error_one_is_config_error(self, capsys):
        assert main(["design", "--mu", "0.1", "--target-error", "1.0"]) == EXIT_CONFIG

    def test_mu_and_angles_exclusive(self, capsys):
        assert main(["design", "--mu", "0.1", "--angles", "0,0,0,0"]) == EXIT_CONFIG

    def test_angle_expressions(self):
        assert eval_angle("pi/8") == pytest.approx(math.pi / 8)
        assert eval_angle("-3pi/8") == pytest.approx(-3 * math.pi / 8)
        assert eval_angle("0.25") == 0.25
        with pytest.raises(ValueError):
            eval_angle("tau/4")


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

    def test_analyze_missing_file(self, tmp_path, capsys):
        assert main(["analyze", "--log", str(tmp_path / "nope.log")]) == EXIT_CONFIG

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

    def test_serve_quantum_side_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--print-config"]) == EXIT_OK
        config = tmp_path / "default.json"
        config.write_text(capsys.readouterr().out)
        assert main(["serve", "--config", str(config)]) == EXIT_CONFIG
        assert "config error: networked runs need a strategy side" in capsys.readouterr().err

    @pytest.mark.parametrize("name, params", BAD_PARAMS)
    def test_station_refuses_bad_strategy_params(self, name, params):
        # A referee that announces a config whose strategy cannot be built.
        doc = {
            "angles": list(OPTIMAL_ANGLES.as_tuple()),
            "side": {"kind": "strategy", "strategy": name, "params": params},
            "n": 100,
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
                    conn.recv(1)  # wait for the station to hang up

            thread = threading.Thread(target=referee, daemon=True)
            thread.start()
            host, port = listener.getsockname()[:2]
            args = ["station", "--role", "left", "--endpoint", f"{host}:{port}", "--timeout", "10"]
            assert main(args) == EXIT_CONFIG
            thread.join(10)
