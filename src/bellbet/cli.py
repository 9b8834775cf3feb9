"""Command-line front end.

Subcommands:

  run        execute an experiment in-process; writes the trial log and a
             structured report next to it
  design     compute sample size, critical value and both guaranteed error
             bounds for a target error probability
  analyze    recompute counts, statistic, supremum, symmetric slacks and the
             verdict from a log; cross-check against a report if given
  validate   structural log validation: exact bits, no missing data,
             contiguous sequence numbers
  serve      run the referee over TCP for two station processes
  station    run one station process against a referee

Exit codes: 0 success, 2 configuration error, 3 protocol abort,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bounds import design_for, design_protocol
from .config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    default_config_dict,
)
from .core import AngleConfig, chsh_count_statistic, expected_statistic_per_trial
from .logfile import LogFormatError, TrialLog, read_raw_log, validate_raw_records
from .net import DEFAULT_TRIAL_TIMEOUT, parse_endpoint, referee_serve, station_client
from .referee import (
    ABORT_VALIDATION,
    adjudicate,
    build_report,
    replay_verify,
    run_experiment,
    summarize,
    tally,
    winner_for,
)
from .strategies import build_strategy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_VALIDATION = 4


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_config_with_overrides(args) -> ExperimentConfig:
    if args.config:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    else:
        doc = default_config_dict()
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "n", None) is not None:
        doc["n"] = args.n
    if getattr(args, "mode", None) is not None:
        doc["mode"] = args.mode
    if getattr(args, "strategy", None) is not None:
        doc["side"] = {"kind": "strategy", "strategy": args.strategy, "params": {}}
    if getattr(args, "out", None) is not None:
        doc["output"] = args.out
    return config_from_dict(doc)


def _write_outputs(result, out_path: str | None) -> dict:
    report = build_report(result)
    if out_path:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        result.log.write(path)
        report_path = path.with_suffix(path.suffix + ".report.json")
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    return report


def cmd_run(args) -> int:
    if args.print_config:
        _print_json(default_config_dict())
        return EXIT_OK
    try:
        config = _load_config_with_overrides(args)
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    result = run_experiment(config)
    report = _write_outputs(result, args.out or config.output)
    _print_json(report)
    if result.abort is not None:
        return EXIT_VALIDATION if result.abort.kind == ABORT_VALIDATION else EXIT_ABORT
    return EXIT_OK


def cmd_design(args) -> int:
    try:
        if (args.mu is None) == (args.angles is None):
            raise ConfigError("provide exactly one of --mu or --angles")
        if args.angles is not None:
            angles = _parse_angles(args.angles)
            mu = expected_statistic_per_trial(angles)
        else:
            mu = args.mu
        design = design_protocol(
            mu,
            args.target_error,
            critical_fraction=args.critical_fraction,
            quantum_target_error=args.quantum_target_error,
        )
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _print_json(design.as_dict())
    return EXIT_OK


def _parse_angles(text: str) -> AngleConfig:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 4:
        raise ConfigError(f"--angles needs four comma-separated radians, got {text!r}")
    try:
        values = [float(eval_angle(p)) for p in parts]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return AngleConfig(*values)


def eval_angle(token: str) -> float:
    """Parse a radian value; 'pi'-style fractions like pi/8 or -3pi/8 are
    accepted so canonical configs stay readable."""
    token = token.strip().lower()
    try:
        return float(token)
    except ValueError:
        pass
    sign = 1.0
    if token.startswith("-"):
        sign, token = -1.0, token[1:]
    if "pi" not in token:
        raise ValueError(f"cannot parse angle {token!r}")
    head, _, tail = token.partition("pi")
    factor = float(head) if head else 1.0
    divisor = 1.0
    if tail.startswith("/"):
        divisor = float(tail[1:])
    elif tail:
        raise ValueError(f"cannot parse angle {token!r}")
    return sign * factor * math.pi / divisor


def _read_report(path) -> dict:
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LogFormatError(f"report {path} is not valid JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise LogFormatError(f"report {path} is not a JSON object")
    return report


def _analyze_log(log_path: str, report_path: str | None) -> tuple[dict, int]:
    header, raw_records = read_raw_log(log_path)
    validation = validate_raw_records(header, raw_records)
    structural = [
        v for v in validation.violations if "incomplete experiment" not in v
    ]
    if structural:
        raise LogFormatError(
            f"corrupt log (last valid trial {validation.last_valid}): "
            + "; ".join(structural[:4])
        )
    log = TrialLog.from_raw(header, raw_records)

    default_report = Path(str(log_path) + ".report.json")
    if not report_path and default_report.exists():
        report_path = default_report
    report = _read_report(report_path) if report_path else None

    counts, trace = tally(log)
    analysis = {"log": str(log_path), **summarize(log, counts, trace)}
    status = EXIT_OK
    if log.complete:
        # The header does not pin the correlation sense; bounds are reported
        # under the equal-polarization law (the report cross-check below is
        # what carries the run's own design).
        mu = expected_statistic_per_trial(header.angle_config)
        try:
            design = design_for(header.n, header.critical_value, mu)
        except ValueError:
            design = None
        if design is not None:
            verdict = adjudicate(trace, design)
            analysis["design"] = design.as_dict()
            analysis["verdict"] = verdict.to_dict()
        else:
            analysis["design"] = None
            analysis["verdict"] = {
                "statistic": trace.statistic,
                "critical_value": header.critical_value,
                "winner": winner_for(trace.statistic, header.critical_value),
            }
    else:
        analysis["verdict"] = None
        analysis["incomplete"] = (
            f"log holds {len(log)} of {header.n} trials; last valid trial {len(log)}"
        )
        status = EXIT_VALIDATION
    replay = replay_verify(log, report)
    analysis["replay_verify"] = {
        "ok": replay.ok,
        "failure": replay.failure,
        "trial": replay.trial,
        "checked_against_report": report is not None,
    }
    if not replay.ok:
        status = EXIT_VALIDATION
    assert trace.statistic == chsh_count_statistic(counts)
    return analysis, status


def cmd_analyze(args) -> int:
    try:
        analysis, status = _analyze_log(args.log, args.report)
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LogFormatError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _print_json(analysis)
    return status


def cmd_validate(args) -> int:
    try:
        header, raw_records = read_raw_log(args.log)
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LogFormatError as exc:
        print(f"FAIL: {exc}")
        return EXIT_VALIDATION
    validation = validate_raw_records(header, raw_records)
    if validation.ok:
        print(f"PASS: {len(raw_records)} trials, all outcomes bits, sequence contiguous")
        return EXIT_OK
    print(f"FAIL: {len(validation.violations)} violation(s)")
    for violation in validation.violations:
        print(f"  - {violation}")
    return EXIT_VALIDATION


def cmd_serve(args) -> int:
    try:
        config = _load_config_with_overrides(args)
        parse_endpoint(args.endpoint)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    def announce(addr):
        print(f"listening on {addr[0]}:{addr[1]}", flush=True)

    from .referee import ProtocolAbort

    try:
        result, transcript = referee_serve(
            config,
            args.endpoint,
            trial_timeout=args.timeout,
            transcript_path=args.transcript,
            ready_callback=announce,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProtocolAbort, OSError) as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    report = _write_outputs(result, args.out or config.output)
    _print_json(report)
    if result.abort is not None:
        return EXIT_VALIDATION if result.abort.kind == ABORT_VALIDATION else EXIT_ABORT
    return EXIT_OK


def cmd_station(args) -> int:
    try:
        parse_endpoint(args.endpoint)
        strategy = None if args.strategy is None else build_strategy(args.strategy)
    except Exception as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    status = station_client(
        args.role,
        args.endpoint,
        strategy=strategy,
        seed_override=args.seed,
        timeout=args.timeout,
    )
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbet",
        description="Referee, simulator and guaranteed bounds for wagered sequential CHSH protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment in-process")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--seed", type=int, help="override experiment seed")
    p_run.add_argument("--n", type=int, help="override trial count")
    p_run.add_argument("--mode", choices=("sequential", "cloned-source", "batch"))
    p_run.add_argument("--strategy", help="override side with this strategy (default params)")
    p_run.add_argument("--out", help="trial log output path")
    p_run.add_argument("--print-config", action="store_true", help="print the explicit defaults and exit")
    p_run.set_defaults(func=cmd_run)

    p_design = sub.add_parser("design", help="sample size and critical value for a target error")
    p_design.add_argument("--mu", type=float, help="per-trial quantum mean of the statistic")
    p_design.add_argument("--angles", help="four radians a1,a2,b1,b2 (pi fractions allowed)")
    p_design.add_argument("--target-error", type=float, default=1e-6)
    p_design.add_argument("--quantum-target-error", type=float, default=None)
    p_design.add_argument("--critical-fraction", type=float, default=0.5)
    p_design.set_defaults(func=cmd_design)

    p_analyze = sub.add_parser("analyze", help="recompute everything from a trial log")
    p_analyze.add_argument("--log", required=True)
    p_analyze.add_argument("--report", help="report to cross-check (default: <log>.report.json if present)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_validate = sub.add_parser("validate", help="structural log validation")
    p_validate.add_argument("--log", required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_serve = sub.add_parser("serve", help="run the referee over TCP")
    p_serve.add_argument("--config", required=True)
    p_serve.add_argument("--endpoint", default="127.0.0.1:0", help="host:port (port 0 = pick free)")
    p_serve.add_argument("--seed", type=int)
    p_serve.add_argument("--n", type=int)
    p_serve.add_argument("--mode", choices=("sequential", "cloned-source", "batch"))
    p_serve.add_argument("--out", help="trial log output path")
    p_serve.add_argument("--transcript", help="wire transcript output path")
    p_serve.add_argument("--timeout", type=float, default=DEFAULT_TRIAL_TIMEOUT)
    p_serve.set_defaults(func=cmd_serve)

    p_station = sub.add_parser("station", help="run one station process")
    p_station.add_argument("--role", required=True, choices=("left", "right"))
    p_station.add_argument("--endpoint", required=True)
    p_station.add_argument("--strategy", help="override the config-announced strategy")
    p_station.add_argument("--seed", type=int, help="override this station's stream seed")
    p_station.add_argument("--timeout", type=float, default=DEFAULT_TRIAL_TIMEOUT)
    p_station.set_defaults(func=cmd_station)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
