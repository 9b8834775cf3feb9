"""Command-line front end.

Subcommands:

  run        execute an experiment in-process; writes the trial log and a
             structured report next to it. A built-in side (the quantum
             oracle or an honest registry strategy) is settled by its
             whole-run rule, ``montecarlo.simulate_result``, which writes
             the engine's exact bytes; any other side (``range-violator``)
             runs through the referee engine
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
import os
import sys
from pathlib import Path

from .bounds import design_for, design_protocol
from .config import (
    SIDE_QUANTUM,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    default_config_dict,
    read_config_dict,
)
from .core import MODES, AngleConfig, parse_json, replace_file, shown
from .logfile import LogFormatError, read_log
from .montecarlo import simulate_result
from .net import (
    DEFAULT_TRIAL_TIMEOUT,
    MAX_TRIAL_TIMEOUT,
    checked_timeout,
    parse_endpoint,
    referee_serve,
    station_client,
)
from .quantum import QuantumModel, expected_statistic_per_trial
from .referee import (
    ABORT_VALIDATION,
    ProtocolAbort,
    adjudicate,
    build_report,
    replay_verify,
    run_experiment,
    summarize,
    tally,
    winner_for,
)
from .strategies import LOCAL_STRATEGY_NAMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_VALIDATION = 4


def _print(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``); the command keeps
        # its own exit status. Stdout goes to devnull so that the flush at
        # interpreter shutdown does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_json(doc) -> None:
    _print(json.dumps(doc, indent=2, sort_keys=True))


def _load_config_with_overrides(args) -> ExperimentConfig:
    doc = read_config_dict(args.config) if args.config else default_config_dict()
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


def _report_path(log_path) -> Path:
    """The report's path: the log's path with ".report.json" appended, which
    any path takes, even one with no file name, such as "."."""
    return Path(f"{Path(log_path)}.report.json")


def _bet_outputs(out_path) -> list:
    """The files a bet writes at ``out_path``: the log and its report, or
    none without a path."""
    return [out_path, _report_path(out_path)] if out_path else []


def _check_writable(paths) -> None:
    """Raise OSError unless each of ``paths`` can be written: the file is
    opened for appending, after its directory is made if there is no file
    yet, and removed if this check created it. A path that passes can be
    opened in place, so ``replace_file`` writes it too. A dangling symlink
    stays a link: the file its opening created is its target, and that is
    what is removed. ``run`` checks before every bet, so an existing file
    costs two system calls, a stat and an open."""
    for path in map(Path, paths):
        existed = path.exists()
        if not existed:
            path.parent.mkdir(parents=True, exist_ok=True)
        os.close(os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666))
        if not existed:
            os.unlink(os.path.realpath(path))


def _cannot_write(exc: OSError) -> int:
    """Say that an output cannot be written and return the config error's
    exit code. The path is quoted cut short, as a config may name one of
    any length."""
    where = "" if exc.filename is None else f": {shown(str(exc.filename))}"
    print(f"config error: cannot write outputs: {exc.strerror or exc}{where}", file=sys.stderr)
    return EXIT_CONFIG


def _finish(result, out_path: str | None) -> int:
    """Print a finished run's report as JSON text, after writing the log and
    the report next to it when there is an ``out_path``. The exit status is 0
    or the code of the run's abort kind, or a config error when an output
    cannot be written."""
    text = json.dumps(build_report(result), indent=2, sort_keys=True)
    if out_path:
        path = Path(out_path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            result.log.write(path)
            replace_file(_report_path(path), text.encode("utf-8"))
        except OSError as exc:  # a directory, or a file where one must be
            return _cannot_write(exc)
    _print(text)
    if result.abort is None:
        return EXIT_OK
    return EXIT_VALIDATION if result.abort.kind == ABORT_VALIDATION else EXIT_ABORT


def _settles_by_kernel(config: ExperimentConfig) -> bool:
    """Whether ``run`` settles this config with the whole-run kernel.

    A columnar rule sees both wings' settings at once, so it is trusted only
    for built-in code the contract tests tie to the engine byte for byte: the
    quantum oracle and the honest registry strategies (the tests' roster is
    ``LOCAL_STRATEGY_NAMES``). Any other side runs through the engine.
    """
    return config.side.kind == SIDE_QUANTUM or config.side.strategy in LOCAL_STRATEGY_NAMES


def cmd_run(args) -> int:
    if args.print_config:
        _print_json(default_config_dict())
        return EXIT_OK
    try:
        config = _load_config_with_overrides(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # Check the outputs before the bet, which may run 10**9 trials.
    try:
        _check_writable(_bet_outputs(config.output))
    except OSError as exc:
        return _cannot_write(exc)
    result = simulate_result(config) if _settles_by_kernel(config) else run_experiment(config)
    return _finish(result, config.output)


def cmd_design(args) -> int:
    try:
        if (args.mu is None) == (args.angles is None):
            raise ConfigError("provide exactly one of --mu or --angles")
        if args.angles is not None:
            angles = _parse_angles(args.angles)
            mu = expected_statistic_per_trial(QuantumModel(angles))
        else:
            mu = args.mu
        design = design_protocol(
            mu,
            args.target_error,
            critical_fraction=args.critical_fraction,
            quantum_target_error=args.quantum_target_error,
        )
    except ValueError as exc:  # a ConfigError too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _print_json(design.as_dict())
    return EXIT_OK


def _parse_angles(text: str) -> AngleConfig:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ConfigError(f"--angles needs four comma-separated radians, got {text!r}")
    return AngleConfig(*(eval_angle(p) for p in parts))


def eval_angle(token: str) -> float:
    """Parse a radian value; 'pi'-style fractions like pi/8 or -3pi/8 are
    accepted so canonical configs stay readable."""
    token = token.strip().lower()
    try:
        return float(token)
    except ValueError:
        pass
    head, pi, tail = token.partition("pi")
    if not pi or (tail and not tail.startswith("/")):
        raise ValueError(f"cannot parse angle {token!r}")
    if head in ("", "-"):
        head += "1"  # pi/8, -pi/8
    divisor = float(tail[1:]) if tail else 1.0
    if divisor == 0:
        raise ValueError(f"zero divisor in angle {token!r}")
    return float(head) * math.pi / divisor


def _read_report(path) -> dict:
    report = parse_json(Path(path).read_bytes(), LogFormatError, "report %s is not valid JSON", path)
    if not isinstance(report, dict):
        raise LogFormatError(f"report {path} is not a JSON object")
    return report


def _analyze_log(log_path: str, report_path: str | None) -> tuple[dict, int]:
    header, log, validation = read_log(log_path)
    if log is None:
        raise LogFormatError(
            f"corrupt log (last valid trial {validation.last_valid}): "
            + "; ".join(validation.corrupt[:4])
        )

    default_report = _report_path(log_path)
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
        mu = expected_statistic_per_trial(QuantumModel(header.angle_config))
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
    replay = replay_verify(log, report, counts=counts, trace=trace)
    analysis["replay_verify"] = {
        "ok": replay.ok,
        "failure": replay.failure,
        "trial": replay.trial,
        "checked_against_report": report is not None,
    }
    if not replay.ok:
        status = EXIT_VALIDATION
    return analysis, status


def cmd_analyze(args) -> int:
    try:
        analysis, status = _analyze_log(args.log, args.report)
    except OSError as exc:  # missing, a directory, or not readable
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LogFormatError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _print_json(analysis)
    return status


def cmd_validate(args) -> int:
    try:
        _, log, validation = read_log(args.log)
    except OSError as exc:  # missing, a directory, or not readable
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LogFormatError as exc:
        _print(f"FAIL: {exc}")
        return EXIT_VALIDATION
    if validation.ok:
        _print(f"PASS: {len(log)} trials, all outcomes bits, sequence contiguous")
        return EXIT_OK
    violations = (f"  - {violation}" for violation in validation.violations)
    _print("\n".join([f"FAIL: {len(validation.violations)} violation(s)", *violations]))
    return EXIT_VALIDATION


def cmd_serve(args) -> int:
    try:
        config = _load_config_with_overrides(args)
        parse_endpoint(args.endpoint)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # A path found unwritable after the bet would lose a bet both stations
    # were told the verdict of; check every output before listening.
    outputs = _bet_outputs(config.output)
    if args.transcript:
        outputs.append(args.transcript)
    try:
        _check_writable(outputs)
    except OSError as exc:
        return _cannot_write(exc)

    def announce(addr):
        print(f"listening on {addr[0]}:{addr[1]}", flush=True)

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
    return _finish(result, config.output)


def cmd_station(args) -> int:
    try:
        parse_endpoint(args.endpoint)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return station_client(args.role, args.endpoint, timeout=args.timeout)


def _run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override experiment seed")
    p.add_argument("--n", type=int, help="override trial count")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--strategy", help="override side with this strategy (default params)")
    p.add_argument("--out", help="trial log output path")
    p.add_argument("--print-config", action="store_true", help="print the explicit defaults and exit")


def _design_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, help="per-trial quantum mean of the statistic")
    p.add_argument("--angles", help="four radians a1,a2,b1,b2 (pi fractions allowed)")
    p.add_argument("--target-error", type=float, default=1e-6)
    p.add_argument("--quantum-target-error", type=float, default=None)
    p.add_argument("--critical-fraction", type=float, default=0.5)


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log", required=True)
    p.add_argument("--report", help="report to cross-check (default: <log>.report.json if present)")


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log", required=True)


def _timeout(text: str) -> float:
    """A ``--timeout`` argument: a number that ``net.checked_timeout``
    accepts, so never one that makes the socket non-blocking, overflows it
    or wraps around."""
    try:
        return checked_timeout(float(text))
    except ValueError:  # not a number, or a ConfigError
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds above 0 and at most {MAX_TRIAL_TIMEOUT}, got {text!r}"
        ) from None


def _serve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--endpoint", default="127.0.0.1:0", help="host:port (port 0 = pick free)")
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--out", help="trial log output path")
    p.add_argument("--transcript", help="wire transcript output path")
    p.add_argument("--timeout", type=_timeout, default=DEFAULT_TRIAL_TIMEOUT)


def _station_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--role", required=True, choices=("left", "right"))
    p.add_argument("--endpoint", required=True)
    p.add_argument("--timeout", type=_timeout, default=DEFAULT_TRIAL_TIMEOUT)


# Each subcommand: its help line, the function that adds its arguments, and
# the function that runs it. The order is the order of the usage and help.
COMMANDS = {
    "run": ("run an experiment in-process", _run_arguments, cmd_run),
    "design": ("sample size and critical value for a target error", _design_arguments, cmd_design),
    "analyze": ("recompute everything from a trial log", _analyze_arguments, cmd_analyze),
    "validate": ("structural log validation", _validate_arguments, cmd_validate),
    "serve": ("run the referee over TCP", _serve_arguments, cmd_serve),
    "station": ("run one station process", _station_arguments, cmd_station),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or, when ``command`` names
    one, with that subcommand's parser alone: each sub-parser costs a
    formatter and its arguments, and a process runs one command. Usage, help
    and errors read the same either way."""
    parser = argparse.ArgumentParser(
        prog="bellbet",
        description="Referee, simulator and guaranteed bounds for wagered sequential CHSH protocols.",
    )
    lone = command in COMMANDS
    # With a lone sub-parser the metavar keeps every command in the top-level
    # usage. The full set leaves it unset: a metavar would also stand for
    # ``command`` in the "required" and "invalid choice" errors.
    metavar = "{" + ",".join(COMMANDS) + "}" if lone else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    names = [command] if lone else list(COMMANDS)
    for name in names:
        help_text, add_arguments, func = COMMANDS[name]
        sub_parser = sub.add_parser(name, help=help_text)
        add_arguments(sub_parser)
        sub_parser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
