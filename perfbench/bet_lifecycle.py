"""Workload ``bet-lifecycle``: settle and re-verify one 25 000-trial bet per
side of the fixed roster, as a user does.

Untraced pass: for each side, ``bellbet run`` writes the log and report, then
``bellbet analyze`` (the jury's re-verification) reads them back; both go
through ``bellbet.cli.main`` in this process with stdout captured.

Traced pass: the same bets through the library calls the CLI makes, each
inside a span, with the strategy's per-trial methods timed by a subclass
handed to the engine. Traced and untraced passes alternate, so the tracing
overhead is measured in the same run.

Correctness, checked outside the timed region: both commands exit 0, the
jury's replay verification passes against the report, the log and report are
byte-identical to the vectorized kernel's ``simulate_result`` for the same
config, and the verdict is the one the design promises (the quantum side
wins, every local side loses).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

from bellbet.bounds import design_for, design_protocol
from bellbet.cli import main as cli_main
from bellbet.config import config_from_dict
from bellbet.core import CountMatrix, Setting
from bellbet.logfile import TrialLog, read_raw_log, validate_raw_records
from bellbet.montecarlo import simulate_result
from bellbet.quantum import OracleSampler, QuantumModel
from bellbet.referee import RefereeEngine, build_report, replay_verify
from bellbet.rng import settings_cells
from bellbet.strategies import STRATEGY_REGISTRY

from benchlib import ROSTER, Result, SpeedGauge, Tracer, config_doc, passes, time_calls

N_TRIALS = 25_000
WARMUP_TRIALS = 2000
SETUP_REPEATS = 3
STRATEGY_METHODS = ("source_emit", "station_respond", "update_memory")


@dataclass
class Bet:
    label: str
    config_path: Path
    log_path: Path

    @property
    def report_path(self) -> Path:
        return self.log_path.with_suffix(self.log_path.suffix + ".report.json")


def make_bets(rng: random.Random, workdir: Path, n: int) -> list[Bet]:
    """One config file per roster side, each with a fresh experiment seed."""
    bets = []
    for label in ROSTER:
        doc = config_doc(label, n, rng.randrange(2**32))
        bet = Bet(label, workdir / f"{label}.json", workdir / f"{label}.log")
        doc["output"] = str(bet.log_path)
        bet.config_path.write_text(json.dumps(doc), encoding="utf-8")
        bets.append(bet)
    return bets


def cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue()


def settle(bet: Bet) -> int:
    return cli(["run", "--config", str(bet.config_path)])[0]


def audit(bet: Bet) -> tuple[int, str]:
    return cli(["analyze", "--log", str(bet.log_path)])


def check_settle(bet: Bet, rc: int) -> list[str]:
    """The written log and report against the kernel's result for the same
    config, and the verdict against the design's promise."""
    if rc != 0:
        return [f"run exited {rc}"]
    config = config_from_dict(json.loads(bet.config_path.read_text(encoding="utf-8")))
    expected = simulate_result(config)
    problems = []
    if bet.log_path.read_bytes() != expected.log.to_bytes():
        problems.append("log differs from simulate_result")
    report = json.loads(bet.report_path.read_text(encoding="utf-8"))
    if report != json.loads(json.dumps(build_report(expected))):
        problems.append("report differs from simulate_result")
    winner = (report.get("verdict") or {}).get("winner")
    promised = "quantum-claimant" if ROSTER[bet.label] is None else "local-realist"
    if winner != promised:
        problems.append(f"verdict {winner!r}, design promises {promised!r}")
    return problems


def check_audit(rc: int, output: str) -> list[str]:
    if rc != 0:
        return [f"analyze exited {rc}"]
    replay = json.loads(output).get("replay_verify") or {}
    if not (replay.get("ok") and replay.get("checked_against_report")):
        return [f"replay verification failed: {replay}"]
    return []


def setup_seconds(bet: Bet) -> float:
    """The work before the bet's first trial: read and parse the config, then
    build the engine (settings and draw buffers, strategy preparation,
    design)."""
    t0 = time.perf_counter()
    config = config_from_dict(json.loads(bet.config_path.read_text(encoding="utf-8")))
    RefereeEngine(config)
    return time.perf_counter() - t0


def per_bet(by_side: dict[str, list[float]]) -> float:
    """Mean over the roster of each side's median across passes. Per-bet
    times differ about 2x between the oracle and the strategies, so one
    figure over single bets of all sides would be bimodal."""
    return fmean(median(samples) for samples in by_side.values())


def untraced_pass(bets: list[Bet], result: Result, gauge: SpeedGauge, times: dict, scaled: dict) -> None:
    """Settle and audit each bet through the CLI; appends the seconds of the
    set-up, the run and the analyze to ``times[...][side]``, and the same at
    the reference speed to ``scaled[...][side]``."""
    for bet in bets:
        setups = [setup_seconds(bet) for _ in range(SETUP_REPEATS)]
        factor = gauge.factor()
        times["setup"][bet.label].extend(setups)
        scaled["setup"][bet.label].extend(t * factor for t in setups)
        t0 = time.perf_counter()
        run_rc = settle(bet)
        bet_s = time.perf_counter() - t0
        bet_factor = gauge.factor()
        t0 = time.perf_counter()
        analyze_rc, output = audit(bet)
        audit_s = time.perf_counter() - t0
        audit_factor = gauge.factor()
        times["bet"][bet.label].append(bet_s)
        times["audit"][bet.label].append(audit_s)
        scaled["bet"][bet.label].append(bet_s * bet_factor)
        scaled["audit"][bet.label].append(audit_s * audit_factor)
        result.count(f"run {bet.label}", check_settle(bet, run_rc))
        result.count(f"analyze {bet.label}", check_audit(analyze_rc, output))


def timed_strategy(name: str, tracer: Tracer):
    """The named strategy, with its per-trial methods timed into ``tracer``."""
    base = STRATEGY_REGISTRY[name]
    clock = time.perf_counter
    add = tracer.add

    class Timed(base):
        def source_emit(self, m, history):
            t0 = clock()
            out = base.source_emit(self, m, history)
            add("source_emit", clock() - t0)
            return out

        def station_respond(self, side, setting_index, message, memory):
            t0 = clock()
            out = base.station_respond(self, side, setting_index, message, memory)
            add("station_respond", clock() - t0)
            return out

        def update_memory(self, side, memory, view):
            t0 = clock()
            out = base.update_memory(self, side, memory, view)
            add("update_memory", clock() - t0)
            return out

    return Timed()


def traced_bet(bet: Bet, tracer: Tracer, result: Result) -> None:
    """One bet and its audit through the library calls the CLI makes; the
    two share a root span."""
    label = bet.label
    name = ROSTER[label]
    with tracer.span("bet", side=label):
        with tracer.span("settle", side=label):
            with tracer.span("config.parse", side=label):
                text = bet.config_path.read_text(encoding="utf-8")
                config = config_from_dict(json.loads(text))
            strategy = None if name is None else timed_strategy(name, tracer)
            with tracer.span("referee.engine_init", side=label):
                engine = RefereeEngine(config, strategy=strategy)
            with tracer.span("referee.engine", side=label):
                run = engine.run()
            with tracer.span("referee.build_report", side=label):
                report = build_report(run)
            with tracer.span("logfile.write", side=label):
                run.log.write(bet.log_path)
            bet.report_path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")

        with tracer.span("audit", side=label):
            with tracer.span("logfile.read_raw", side=label):
                header, raw = read_raw_log(bet.log_path)
            with tracer.span("logfile.validate", side=label):
                validation = validate_raw_records(header, raw)
            with tracer.span("logfile.from_raw", side=label):
                log = TrialLog.from_raw(header, raw)
            saved = json.loads(bet.report_path.read_text(encoding="utf-8"))
            with tracer.span("core.counts_from_records", side=label):
                CountMatrix.from_records(log.records())
            with tracer.span("referee.replay_verify", side=label):
                replay = replay_verify(log, saved)

    result.count(f"run {label}", check_settle(bet, 0 if run.abort is None else 3))
    problems = [] if validation.ok else list(validation.violations[:3])
    if not replay.ok:
        problems.append(f"replay verification failed: {replay.failure}")
    result.count(f"analyze {label}", problems)


def quantum_sample_seconds(bet: Bet) -> float:
    """Seconds per ``OracleSampler.sample_trial`` call over the bet's cells."""
    config = config_from_dict(json.loads(bet.config_path.read_text(encoding="utf-8")))
    sampler = OracleSampler(QuantumModel(config.angles), config.seed, config.n)
    settings = [Setting.from_cell(int(c)) for c in settings_cells(config.seed, config.n)]
    t0 = time.perf_counter()
    for m, setting in enumerate(settings, start=1):
        sampler.sample_trial(m, setting)
    return (time.perf_counter() - t0) / len(settings)


def traced_pass(bets: list[Bet], tracer: Tracer, result: Result, samples: dict) -> None:
    for bet in bets:
        traced_bet(bet, tracer, result)
    quantum = next(b for b in bets if ROSTER[b.label] is None)
    samples["sample_trial"].append(quantum_sample_seconds(quantum))
    config = config_from_dict(json.loads(quantum.config_path.read_text(encoding="utf-8")))
    mu = config.qm_mean_per_trial
    samples["design_for"].append(
        time_calls(design_for, config.n, config.critical_value, mu, repeat=200)
    )
    samples["design_protocol"].append(time_calls(design_protocol, mu, 1e-6, repeat=20))


def layer_metrics(tracer: Tracer, samples: dict, n: int) -> dict[str, float]:
    def med(name, scale, **attrs):
        return median([Tracer.duration(r) for r in tracer.find(name, **attrs)]) * scale

    sample_us = median(samples["sample_trial"]) * 1e6
    metrics = {"quantum.sample_trial_us": sample_us}
    for label, name in ROSTER.items():
        engines = tracer.find("referee.engine", side=label)
        metrics[f"referee.engine_us_per_trial.{label}"] = med("referee.engine", 1e6 / n, side=label)
        if name is None:
            self_us = metrics[f"referee.engine_us_per_trial.{label}"] - sample_us
        else:
            self_us = median([Tracer.self_time(r) for r in engines]) * 1e6 / n
            for method in STRATEGY_METHODS:
                metrics[f"strategies.{method}_us_per_trial.{label}"] = (
                    median([r["calls"].get(method, [0, 0.0])[1] for r in engines]) * 1e6 / n
                )
        metrics[f"referee.self_us_per_trial.{label}"] = self_us
    metrics.update(
        {
            "referee.engine_init_ms": med("referee.engine_init", 1e3),
            "config.parse_us": med("config.parse", 1e6),
            "bounds.design_for_us": median(samples["design_for"]) * 1e6,
            "bounds.design_protocol_us": median(samples["design_protocol"]) * 1e6,
            "logfile.write_ms": med("logfile.write", 1e3),
            "referee.build_report_ms": med("referee.build_report", 1e3),
            "logfile.bytes_per_trial": median(samples["log_bytes"]) / n,
            "logfile.read_raw_ms": med("logfile.read_raw", 1e3),
            "logfile.validate_ms": med("logfile.validate", 1e3),
            "logfile.from_raw_ms": med("logfile.from_raw", 1e3),
            "core.counts_from_records_ms": med("core.counts_from_records", 1e3),
            "referee.replay_verify_ms": med("referee.replay_verify", 1e3),
        }
    )
    return metrics


def run(seed: int, seconds: float, tracer: Tracer | None, workdir: Path, n: int = N_TRIALS) -> Result:
    result = Result()
    rng = random.Random(f"bet-lifecycle:{seed}")
    gauge = SpeedGauge()

    def by_side() -> dict:
        return {key: {label: [] for label in ROSTER} for key in ("setup", "bet", "audit")}

    # Warm-up, neither timed nor counted: first calls pay one-off costs
    # (lazy imports, allocator growth) that repeated bets do not.
    untraced_pass(make_bets(rng, workdir, WARMUP_TRIALS), Result(), gauge, by_side(), by_side())

    times, scaled = by_side(), by_side()
    traced = {label: [] for label in ROSTER}
    samples = {"sample_trial": [], "design_for": [], "design_protocol": [], "log_bytes": []}
    for k in passes(seconds, at_least=1 if tracer is None else 2):
        bets = make_bets(rng, workdir, n)
        if tracer is None or k % 2 == 0:
            untraced_pass(bets, result, gauge, times, scaled)
            continue
        first = len(tracer.spans)
        traced_pass(bets, tracer, result, samples)
        for rec in tracer.spans[first:]:
            if rec["name"] == "settle":
                traced[rec["attrs"]["side"]].append(Tracer.duration(rec))
        samples["log_bytes"].extend(b.log_path.stat().st_size for b in bets)

    count = len(times["bet"]["quantum"])
    for key, kind, repeats in (("bet_s", "bet", 1), ("audit_s", "audit", 1), ("setup_s", "setup", SETUP_REPEATS)):
        note = (
            f"mean over {len(ROSTER)} sides of each side's median of {count * repeats}; "
            f"{per_bet(scaled[kind]):.6g} at the reference speed"
        )
        result.named[key] = (per_bet(times[kind]), "s", note)
    if tracer is None:
        result.metrics = {
            "a_us_per_trial": per_bet(scaled["bet"]) * 1e6 / n,
            "b_us_per_trial": per_bet(scaled["audit"]) * 1e6 / n,
            "setup_s": per_bet(scaled["setup"]),
        }
    else:
        result.metrics = layer_metrics(tracer, samples, n)
        result.metrics["trace.overhead_s_per_bet"] = per_bet(traced) - per_bet(times["bet"])
    return result
