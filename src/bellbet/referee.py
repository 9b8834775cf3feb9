"""The sequential protocol referee.

One experiment is one logical sequential loop. Per trial the referee:

  1. obtains the hidden message from the source and delivers it to both
     stations (before any setting exists anywhere outside the referee);
  2. draws the joint setting (multinomial 1/4 each) and reveals to each
     station only its own index;
  3. collects both raw outcomes, validates that each is exactly a bit
     (anything else aborts the experiment), and commits the trial to the
     append-only log;
  4. runs the between-trial broadcast (full trial data in sequential mode;
     own-wing data only in cloned-source and batch modes).

The committed log is the engine's only record of the trials: the source's
history in sequential mode is the log itself, and counts, the statistic and
its running supremum are computed from the log's columns.

Settings come from a private, documented counter-based stream (Philox keyed
by the experiment seed), so a finished log can be replayed bit-exactly. The
running supremum of the statistic is tracked and reported, but a verdict is
only ever issued after all n trials: the tail bound covers the supremum, so
monitoring is information-safe while early stopping never awards the quantum
side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import ProtocolDesign, design_for
from .config import ExperimentConfig, SIDE_QUANTUM
from .core import CountMatrix, Setting, TrialRecord, chsh_count_statistic
from .logfile import LogHeader, TrialLog
from .quantum import OracleSampler, QuantumModel
from .rng import settings_cells
from .strategies import (
    LEFT,
    NONLOCAL_CHEATER,
    RIGHT,
    SourceMessage,
    Strategy,
    TrialView,
    build_strategy,
)

WINNER_QUANTUM = "quantum-claimant"
WINNER_LOCAL = "local-realist"

ABORT_VALIDATION = "validation-failure"
ABORT_PROTOCOL = "protocol-abort"


class OutcomeValidationError(Exception):
    """A station produced something other than an exact bit."""

    def __init__(self, value, side: str | None = None, trial: int | None = None):
        self.value = value
        self.side = side
        self.trial = trial
        super().__init__(f"outcome {value!r} from {side or 'station'} at trial {trial} is not a bit")


class ProtocolAbort(Exception):
    """The protocol cannot continue (timeout, disconnect, ordering violation)."""

    def __init__(self, reason: str, trial: int | None = None, side: str | None = None):
        self.reason = reason
        self.trial = trial
        self.side = side
        super().__init__(reason)


def validate_outcome(value) -> int:
    """Pass iff the raw value is exactly the bit 0 or 1.

    Integer types (including numpy integers and bools) carrying 0 or 1 pass;
    every real number fails, including values inside plausible-looking
    ranges and values that merely round to a bit.
    """
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        v = int(value)
        if v in (0, 1):
            return v
    raise OutcomeValidationError(value)


@dataclass(frozen=True)
class StatisticTrace:
    """Per-trial increments of the statistic and its running aggregates."""

    deltas: np.ndarray

    @classmethod
    def from_columns(cls, cells: np.ndarray, x: np.ndarray, y: np.ndarray) -> "StatisticTrace":
        coincide = x == y
        deltas = np.where(coincide, np.where(cells == 1, 1, -1), 0).astype(np.int8)
        deltas.flags.writeable = False
        return cls(deltas)

    @property
    def n(self) -> int:
        return int(self.deltas.shape[0])

    @property
    def running_sum(self) -> np.ndarray:
        """S_m for m = 1..n."""
        return np.cumsum(self.deltas, dtype=np.int64)

    @property
    def statistic(self) -> int:
        """S_n (0 for an empty trace)."""
        return int(self.deltas.sum(dtype=np.int64))

    @property
    def running_sup(self) -> np.ndarray:
        """sup_{r<=m} S_r for m = 1..n."""
        return np.maximum.accumulate(self.running_sum)

    @property
    def sup(self) -> int:
        """sup_{m<=n} S_m (0 for an empty trace)."""
        return int(self.running_sum.max()) if self.n else 0

    def variance_budget(self, m: int | None = None) -> float:
        """Upper bound on the predictable variance V_m: 3/4 per trial."""
        return 0.75 * (self.n if m is None else m)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one completed experiment, with both guaranteed bounds.

    ``error_bound_used`` is the bound on the probability that this verdict
    wrongs the losing side.
    """

    statistic: int
    critical_value: int
    winner: str
    error_bound_used: float
    n: int
    local_realist_error_bound: float
    quantum_claimant_error_bound: float

    def __post_init__(self) -> None:
        if self.winner != winner_for(self.statistic, self.critical_value):
            raise ValueError(
                f"winner {self.winner!r} inconsistent with statistic {self.statistic} "
                f"vs critical value {self.critical_value}"
            )

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "winner": self.winner,
            "error_bound_used": self.error_bound_used,
            "n": self.n,
            "local_realist_error_bound": self.local_realist_error_bound,
            "quantum_claimant_error_bound": self.quantum_claimant_error_bound,
        }


def winner_for(statistic: int, critical_value: int) -> str:
    """Winner per S_n > C; the quantum side must strictly exceed the critical
    value (ties favor the null)."""
    return WINNER_QUANTUM if statistic > critical_value else WINNER_LOCAL


def adjudicate(trace: StatisticTrace, design: ProtocolDesign) -> Verdict:
    """The verdict of a complete trace under ``design`` (see ``winner_for``)."""
    if trace.n != design.n:
        raise ValueError(f"trace holds {trace.n} trials, design requires {design.n}")
    winner = winner_for(trace.statistic, design.critical_value)
    return Verdict(
        statistic=trace.statistic,
        critical_value=design.critical_value,
        winner=winner,
        error_bound_used=(
            design.local_realist_error_bound
            if winner == WINNER_QUANTUM
            else design.quantum_claimant_error_bound
        ),
        n=design.n,
        local_realist_error_bound=design.local_realist_error_bound,
        quantum_claimant_error_bound=design.quantum_claimant_error_bound,
    )


@dataclass
class AbortReport:
    kind: str
    reason: str
    trial: int | None = None
    side: str | None = None
    value: object = None

    def to_dict(self) -> dict:
        value = self.value
        if value is not None and not isinstance(value, (int, float, str, bool)):
            value = repr(value)
        return {
            "kind": self.kind,
            "reason": self.reason,
            "trial": self.trial,
            "side": self.side,
            "value": value,
        }


# --- one derivation from a committed log ----------------------------------


def log_header(config: ExperimentConfig) -> LogHeader:
    """The header every log of this config carries."""
    return LogHeader(
        config_hash=config.config_hash(),
        seed=config.seed,
        mode=config.mode,
        angles=config.angles.as_tuple(),
        n=config.n,
        critical_value=config.critical_value,
    )


def tally(log: TrialLog) -> tuple[CountMatrix, StatisticTrace]:
    """The cell counts and the statistic trace of the committed trials."""
    cells = log.cells()
    _, _, x, y = log.columns()
    return CountMatrix.from_columns(cells, x, y), StatisticTrace.from_columns(cells, x, y)


def summarize(log: TrialLog, counts: CountMatrix, trace: StatisticTrace) -> dict:
    """The report fields the log alone determines (``tally(log)`` gives
    ``counts`` and ``trace``); reports and ``analyze`` share them."""
    header = log.header
    return {
        "config_hash": header.config_hash,
        "seed": header.seed,
        "mode": header.mode,
        "n": header.n,
        "critical_value": header.critical_value,
        "trials_committed": len(log),
        "counts": counts.as_dict(),
        "statistic": trace.statistic,
        "sup_statistic": trace.sup,
        "variance_budget": trace.variance_budget(),
        "symmetric_slacks": counts.symmetric_slacks(),
    }


@dataclass
class RunResult:
    """One experiment's committed log and everything derived from it.

    Counts, trace and verdict are computed from the log when the result is
    built; the verdict exists only for a complete log with no abort."""

    log: TrialLog
    design: ProtocolDesign
    abort: AbortReport | None
    events: list[tuple[int, str, int]] | None = None
    counts: CountMatrix = field(init=False)
    trace: StatisticTrace = field(init=False)
    verdict: Verdict | None = field(init=False)

    def __post_init__(self) -> None:
        self.counts, self.trace = tally(self.log)
        self.verdict = adjudicate(self.trace, self.design) if self.completed else None

    @property
    def header(self) -> LogHeader:
        return self.log.header

    @property
    def completed(self) -> bool:
        return self.abort is None and self.log.complete


class LocalStation:
    """In-process station: drives one side of a Strategy instance."""

    def __init__(self, strategy: Strategy, side: str):
        self.strategy = strategy
        self.side = side
        self.memory = strategy.initial_memory(side)
        self._payload = b""
        self._setting: tuple[int, int] | None = None

    def deliver_lambda(self, m: int, payload: bytes) -> None:
        self._payload = payload

    def post_setting(self, m: int, index: int) -> None:
        self._setting = (m, index)

    def get_outcome(self, m: int):
        if self._setting is None or self._setting[0] != m:
            raise ProtocolAbort(f"no setting posted for trial {m}", trial=m, side=self.side)
        return self.strategy.station_respond(
            self.side, self._setting[1], SourceMessage(self._payload), self.memory
        )

    def collect_blob(self, m: int) -> bytes:
        return self.strategy.boundary_blob(self.side, m)

    def deliver_broadcast(self, m: int, view: TrialView) -> None:
        self.memory = self.strategy.update_memory(self.side, self.memory, view)

    def deliver_batch_settings(self, settings: Sequence[int]) -> None:
        self.memory = self.strategy.receive_batch_settings(self.side, settings, self.memory)


class RefereeEngine:
    """Runs one experiment under one config.

    For strategy sides, stations default to in-process LocalStation wrappers;
    the network harness injects remote stations implementing the same calls,
    which is what makes networked and in-process logs byte-identical.

    The quantum oracle (side 'quantum') runs inside the referee and
    legitimately sees both settings; locality enforcement does not apply to
    it. A nonlocal strategy can only run when ``allow_nonlocal=True`` is
    passed explicitly (never reachable from a config file).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        strategy: Strategy | None = None,
        stations: tuple | None = None,
        allow_nonlocal: bool = False,
        record_events: bool = False,
    ):
        self.config = config
        self.n = config.n
        self.mode = config.mode
        # The referee's private settings: the documented counter-based stream
        # (rng.settings_cells), revealed one trial at a time except in batch
        # mode. The buffer never leaves the referee.
        self._cells = settings_cells(config.seed, config.n)
        self._design = design_for(config.n, config.critical_value, config.qm_mean_per_trial)
        self._events: list[tuple[int, str, int]] | None = [] if record_events else None
        self._seq = 0

        self._oracle: OracleSampler | None = None
        self.strategy: Strategy | None = None
        self._stations = None
        self._nonlocal = False

        if config.side.kind == SIDE_QUANTUM:
            if strategy is not None or stations is not None:
                raise ValueError("quantum side takes no strategy or stations")
            model = QuantumModel(config.angles, config.side.correlation_sense)
            self._oracle = OracleSampler(model, config.seed, config.n)
        else:
            if strategy is None:
                strategy = build_strategy(
                    config.side.strategy, config.side.params, allow_nonlocal=allow_nonlocal
                )
            strategy.prepare(seed=config.seed, n=config.n, angles=config.angles, mode=config.mode)
            self.strategy = strategy
            self._nonlocal = strategy.locality_class == NONLOCAL_CHEATER
            if self._nonlocal:
                if not allow_nonlocal:
                    raise ValueError(
                        "nonlocal strategy requires allow_nonlocal=True (enforcement-disabled mode)"
                    )
                if stations is not None:
                    raise ValueError("nonlocal diagnostics run without stations")
            else:
                self._stations = stations or (
                    LocalStation(strategy, LEFT),
                    LocalStation(strategy, RIGHT),
                )

        self.log = TrialLog(log_header(config))

    # --- event trace -----------------------------------------------------

    def _event(self, kind: str, m: int) -> None:
        if self._events is not None:
            self._seq += 1
            self._events.append((self._seq, kind, m))

    # --- per-trial protocol ----------------------------------------------

    def _dispatch_lambda(self, m: int) -> None:
        if self.strategy is None or self._nonlocal:
            return
        history: Sequence[TrialRecord] = self.log if self.mode == "sequential" else ()
        payload = self.strategy.source_emit(m, history).payload
        self._event("lambda", m)
        left, right = self._stations
        left.deliver_lambda(m, payload)
        right.deliver_lambda(m, payload)

    def _draw_setting(self, m: int) -> Setting:
        if self.mode != "batch":
            self._event("settings", m)
        return Setting.from_cell(int(self._cells[m - 1]))

    def _collect_outcomes(self, m: int, setting: Setting):
        if self._oracle is not None:
            return self._oracle.sample_trial(m, setting)
        if self._nonlocal:
            return (
                self.strategy.respond_nonlocal(LEFT, setting.i, setting.j),
                self.strategy.respond_nonlocal(RIGHT, setting.i, setting.j),
            )
        left, right = self._stations
        left.post_setting(m, setting.i)
        right.post_setting(m, setting.j)
        return left.get_outcome(m), right.get_outcome(m)

    def _commit(self, m: int, setting: Setting, x: int, y: int) -> TrialRecord:
        record = TrialRecord(m=m, setting=setting, x=x, y=y)
        self.log.append(record)
        self._event("outcome", m)
        return record

    def _broadcast(self, record: TrialRecord) -> None:
        if self._stations is None:
            return
        left, right = self._stations
        m = record.m
        if self.mode == "sequential":
            blobs = {LEFT: left.collect_blob(m), RIGHT: right.collect_blob(m)}
            left_view = TrialView(
                m=m,
                own_setting=record.setting.i,
                own_outcome=record.x,
                other_setting=record.setting.j,
                other_outcome=record.y,
                blobs=blobs,
            )
            right_view = TrialView(
                m=m,
                own_setting=record.setting.j,
                own_outcome=record.y,
                other_setting=record.setting.i,
                other_outcome=record.x,
                blobs=blobs,
            )
        else:
            left_view = TrialView(m=m, own_setting=record.setting.i, own_outcome=record.x)
            right_view = TrialView(m=m, own_setting=record.setting.j, own_outcome=record.y)
        left.deliver_broadcast(m, left_view)
        right.deliver_broadcast(m, right_view)
        self._event("broadcast", m)

    def run_trial(self, m: int) -> TrialRecord:
        """Execute trial m. Trial m-1 must already be committed."""
        if m != len(self.log) + 1:
            raise ProtocolAbort(f"trial {m} requested but {len(self.log)} trials committed")
        if m > self.n:
            raise ProtocolAbort(f"settings exhausted after {self.n} trials")
        self._dispatch_lambda(m)
        setting = self._draw_setting(m)
        x_raw, y_raw = self._collect_outcomes(m, setting)
        try:
            x = validate_outcome(x_raw)
        except OutcomeValidationError:
            raise OutcomeValidationError(x_raw, side=LEFT, trial=m) from None
        try:
            y = validate_outcome(y_raw)
        except OutcomeValidationError:
            raise OutcomeValidationError(y_raw, side=RIGHT, trial=m) from None
        record = self._commit(m, setting, x, y)
        self._broadcast(record)
        return record

    def _reveal_batch_settings(self) -> None:
        for m in range(1, self.n + 1):
            self._event("settings", m)
        if self._stations is not None:
            left, right = self._stations
            left.deliver_batch_settings(tuple(((self._cells >> 1) + 1).tolist()))
            right.deliver_batch_settings(tuple(((self._cells & 1) + 1).tolist()))
            self._event("batch-settings", 0)

    def run(self) -> RunResult:
        abort: AbortReport | None = None
        try:
            if self.mode == "batch":
                self._reveal_batch_settings()
            for m in range(1, self.n + 1):
                self.run_trial(m)
        except OutcomeValidationError as exc:
            abort = AbortReport(
                kind=ABORT_VALIDATION,
                reason=f"outcome {exc.value!r} is not a bit; experiment aborted, verdict voided",
                trial=exc.trial,
                side=exc.side,
                value=exc.value,
            )
        except ProtocolAbort as exc:
            abort = AbortReport(
                kind=ABORT_PROTOCOL,
                reason=exc.reason,
                trial=exc.trial,
                side=exc.side,
            )
        return RunResult(log=self.log, design=self._design, abort=abort, events=self._events)


def run_experiment(
    config: ExperimentConfig,
    *,
    strategy: Strategy | None = None,
    allow_nonlocal: bool = False,
    record_events: bool = False,
) -> RunResult:
    """Build and run an in-process experiment for this config."""
    engine = RefereeEngine(
        config,
        strategy=strategy,
        allow_nonlocal=allow_nonlocal,
        record_events=record_events,
    )
    return engine.run()


# --- reports and replay ----------------------------------------------------


def build_report(result: RunResult) -> dict:
    """Structured summary a jury can recheck by hand: counts, statistic,
    running supremum, verdict and the exact (log-space) bound values."""
    return {
        **summarize(result.log, result.counts, result.trace),
        "angles": list(result.header.angles),
        "design": result.design.as_dict(),
        "verdict": result.verdict.to_dict() if result.verdict else None,
        "abort": result.abort.to_dict() if result.abort else None,
    }


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    failure: str | None = None
    trial: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def replay_verify(log: TrialLog, report: dict | None = None) -> ReplayReport:
    """Recompute settings from the seed and all aggregates from the records;
    true iff everything matches bit-exactly.

    Without a report only the seed-derived settings and structural integrity
    are checkable (outcomes are the claimant's data and not derivable);
    with a report, counts, statistic, supremum and verdict are re-derived
    and compared, so any flipped outcome bit is caught.
    """
    header = log.header
    expected_cells = settings_cells(header.seed, header.n)[: len(log)]
    actual_cells = log.cells()
    mismatches = np.nonzero(actual_cells != expected_cells)[0]
    if mismatches.size:
        trial = int(mismatches[0]) + 1
        return ReplayReport(False, f"settings diverge from seed at trial {trial}", trial)

    if report is None:
        return ReplayReport(True)

    if report.get("n") != header.n or report.get("critical_value") != header.critical_value:
        return ReplayReport(False, "report design does not match log header")
    if report.get("config_hash") != header.config_hash:
        return ReplayReport(False, "report config hash does not match log header")

    abort = report.get("abort")
    if abort is None:
        if not log.complete:
            return ReplayReport(
                False, f"log holds {len(log)} of {header.n} trials with no abort report"
            )
    else:
        expected_len = (abort.get("trial") or 1) - 1
        if len(log) != expected_len:
            return ReplayReport(
                False,
                f"abort at trial {abort.get('trial')} but log holds {len(log)} trials",
            )

    counts, trace = tally(log)
    if report.get("counts") != counts.as_dict():
        return ReplayReport(False, "recomputed counts do not match report")
    if report.get("statistic") != trace.statistic:
        return ReplayReport(False, "recomputed statistic does not match report")
    if report.get("sup_statistic") != trace.sup:
        return ReplayReport(False, "recomputed supremum does not match report")
    if trace.statistic != chsh_count_statistic(counts):
        return ReplayReport(False, "statistic does not equal the count combination")

    verdict_doc = report.get("verdict")
    if abort is None:
        design_doc = report.get("design") or {}
        mu = design_doc.get("qm_mean_per_trial")
        if not isinstance(mu, float):
            return ReplayReport(False, "report lacks the design's per-trial mean")
        try:
            design = design_for(header.n, header.critical_value, mu)
        except ValueError:
            return ReplayReport(False, "report design is not a valid protocol design")
        verdict = adjudicate(trace, design)
        if verdict_doc != verdict.to_dict():
            return ReplayReport(False, "re-derived verdict does not match report")
    elif verdict_doc is not None:
        return ReplayReport(False, "aborted run must not carry a verdict")

    return ReplayReport(True)
