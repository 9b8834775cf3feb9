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
     own-wing data only in cloned-source mode).

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
from functools import cached_property
from typing import Sequence

import numpy as np

from .bounds import ProtocolDesign, design_for
from .config import ExperimentConfig, SIDE_QUANTUM
from .core import (
    CELL_WEIGHTS,
    SETTINGS_BY_CELL,
    CountMatrix,
    TrialRecord,
    cell_code,
    chsh_count_statistic,
    setting_indices,
)
from .logfile import LogHeader, TrialLog
from .quantum import OracleSampler, QuantumModel
from .rng import settings_cells
from .strategies import (
    LEFT,
    NO_BLOBS,
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


_CELL_WEIGHTS = np.array(CELL_WEIGHTS, dtype=np.int8)


@dataclass(frozen=True)
class StatisticTrace:
    """Per-trial increments of the statistic and its running aggregates.

    Each aggregate is computed once per trace: S_n when the trace is made,
    since every reader of a trace needs it, and the running sum on its first
    read, since only sup S_m needs it. S_n is a plain sum, not the last
    running sum, because a cumsum costs about 7 times a sum and a verdict
    alone reads S_n.
    """

    deltas: np.ndarray
    statistic: int = field(init=False)  # S_n (0 for an empty trace)

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistic", int(self.deltas.sum(dtype=np.int64)))

    @classmethod
    def from_columns(cls, cells: np.ndarray, x: np.ndarray, y: np.ndarray) -> "StatisticTrace":
        deltas = _CELL_WEIGHTS.take(cells) * (x == y)
        deltas.flags.writeable = False
        return cls(deltas)

    @property
    def n(self) -> int:
        return int(self.deltas.shape[0])

    @cached_property
    def running_sum(self) -> np.ndarray:
        """S_m for m = 1..n."""
        running_sum = np.cumsum(self.deltas, dtype=np.int64)
        running_sum.flags.writeable = False
        return running_sum

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
    """The cell counts and the statistic trace of the committed trials,
    from the log's uint8 columns without widening them."""
    i, j, x, y = log.columns()
    cells = cell_code(i, j)
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
    """In-process station: drives one side of a Strategy instance.

    Both stations of a trial receive the one ``SourceMessage`` the source
    emitted, and must treat it as read-only."""

    def __init__(self, strategy: Strategy, side: str):
        self.strategy = strategy
        self.side = side
        self.memory = strategy.initial_memory(side)
        self._message = SourceMessage(b"")
        self._setting_trial = 0  # the trial whose setting was posted last
        self._setting_index = 0

    def deliver_lambda(self, m: int, message: SourceMessage) -> None:
        self._message = message

    def post_setting(self, m: int, index: int) -> None:
        self._setting_trial = m
        self._setting_index = index

    def get_outcome(self, m: int):
        if self._setting_trial != m:
            raise ProtocolAbort(f"no setting posted for trial {m}", trial=m, side=self.side)
        return self.strategy.station_respond(
            self.side, self._setting_index, self._message, self.memory
        )

    def collect_blob(self, m: int) -> bytes:
        return self.strategy.boundary_blob(self.side, m)

    def deliver_broadcast(self, m: int, view: TrialView) -> None:
        self.memory = self.strategy.update_memory(self.side, self.memory, view)


def _validated(value, side: str, m: int) -> int:
    """``validate_outcome``, naming the side and trial when it refuses."""
    try:
        return validate_outcome(value)
    except OutcomeValidationError:
        raise OutcomeValidationError(value, side=side, trial=m) from None


class RefereeEngine:
    """Runs one experiment under one config.

    For strategy sides, stations default to in-process LocalStation wrappers;
    the network harness injects remote stations implementing the same calls,
    which is what makes networked and in-process logs byte-identical.

    The quantum oracle (side 'quantum') runs inside the referee and
    legitimately sees both settings; locality enforcement does not apply to
    it. Every other participant is a pair of stations, each told only its
    own setting, so a strategy that needs both settings is refused.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        strategy: Strategy | None = None,
        stations: tuple | None = None,
        record_events: bool = False,
    ):
        self.config = config
        self.n = config.n
        self.mode = config.mode
        # The referee's private settings: the documented counter-based stream
        # (rng.settings_cells), revealed one trial at a time. The buffer never
        # leaves the referee.
        self._cells = settings_cells(config.seed, config.n)
        self._events: list[tuple[int, str, int]] | None = [] if record_events else None

        self._oracle: OracleSampler | None = None
        self.strategy: Strategy | None = None
        self._stations = None

        if config.side.kind == SIDE_QUANTUM:
            if strategy is not None or stations is not None:
                raise ValueError("quantum side takes no strategy or stations")
            model = QuantumModel(config.angles, config.side.correlation_sense)
            self._oracle = OracleSampler(model, config.seed, config.n)
        else:
            if strategy is None:
                strategy = build_strategy(config.side.strategy, config.side.params)
            elif strategy.locality_class == NONLOCAL_CHEATER:
                raise ValueError("the referee runs no strategy that sees both settings")
            strategy.prepare(seed=config.seed, n=config.n, angles=config.angles, mode=config.mode)
            self.strategy = strategy
            self._stations = stations or (
                LocalStation(strategy, LEFT),
                LocalStation(strategy, RIGHT),
            )

        self.log = TrialLog(log_header(config))
        self._step = self._trial_step()

    # --- event trace -----------------------------------------------------

    def _event(self, kind: str, m: int) -> None:
        """Record one event; callers call it only when ``record_events`` is on."""
        self._events.append((len(self._events) + 1, kind, m))

    # --- per-trial protocol ----------------------------------------------

    def _trial_step(self):
        """The per-trial protocol as one function of m, with everything it
        touches bound once. Trial m:

          1. the source's message to both stations (strategy sides only);
          2. the joint setting, each station told only its own index; both
             are posted before either outcome is awaited, which a remote
             station relies on;
          3. both outcomes, each validated as exactly a bit (an exact int 0
             or 1 passes at once, anything else takes ``validate_outcome``),
             then the trial committed to the log;
          4. the broadcast: the whole trial and both blobs in sequential
             mode, each wing's own setting and outcome otherwise.
        """
        log, n, cells = self.log, self.n, self._cells
        commit = log.commit
        event = self._event if self._events is not None else None
        sequential = self.mode == "sequential"
        sample = self._oracle.sample_trial if self._oracle is not None else None
        stations = self._stations
        new_tuple = tuple.__new__
        indices_by_cell = tuple(map(setting_indices, range(4)))
        if stations is not None:
            left, right = stations
            source_emit = self.strategy.source_emit
            history: Sequence[TrialRecord] = log if sequential else ()

        def step(m: int) -> None:
            if m != len(log) + 1:
                raise ProtocolAbort(f"trial {m} requested but {len(log)} trials committed")
            if m > n:
                raise ProtocolAbort(f"settings exhausted after {n} trials")
            if stations is not None:
                message = source_emit(m, history)
                if event is not None:
                    event("lambda", m)
                left.deliver_lambda(m, message)
                right.deliver_lambda(m, message)
            if event is not None:
                event("settings", m)
            cell = cells.item(m - 1)
            i, j = indices_by_cell[cell]
            if stations is not None:
                left.post_setting(m, i)
                right.post_setting(m, j)
                x, y = left.get_outcome(m), right.get_outcome(m)
            else:
                x, y = sample(m, SETTINGS_BY_CELL[cell])
            if type(x) is not int or not 0 <= x <= 1:
                x = _validated(x, LEFT, m)
            if type(y) is not int or not 0 <= y <= 1:
                y = _validated(y, RIGHT, m)
            commit(i, j, x, y)
            if event is not None:
                event("outcome", m)
            if stations is None:
                return
            # Each view is built as the plain tuple of its fields, in field
            # order, which skips the named tuple's Python-level __new__.
            if sequential:
                blobs = {LEFT: left.collect_blob(m), RIGHT: right.collect_blob(m)}
                left.deliver_broadcast(m, new_tuple(TrialView, (m, i, x, j, y, blobs)))
                right.deliver_broadcast(m, new_tuple(TrialView, (m, j, y, i, x, blobs)))
            else:
                left.deliver_broadcast(m, new_tuple(TrialView, (m, i, x, None, None, NO_BLOBS)))
                right.deliver_broadcast(m, new_tuple(TrialView, (m, j, y, None, None, NO_BLOBS)))
            if event is not None:
                event("broadcast", m)

        return step

    def run_trial(self, m: int) -> TrialRecord:
        """Execute trial m and return its committed record. Trial m-1 must
        already be committed."""
        self._step(m)
        return self.log.record(m)

    def run(self) -> RunResult:
        abort: AbortReport | None = None
        try:
            step = self._step
            for m in range(1, self.n + 1):
                step(m)
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
        return RunResult(log=self.log, design=self.config.design, abort=abort, events=self._events)


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Build and run an in-process experiment for this config."""
    return RefereeEngine(config).run()


# --- reports and replay ----------------------------------------------------


def _report(
    log: TrialLog,
    counts: CountMatrix,
    trace: StatisticTrace,
    design: ProtocolDesign,
    verdict: Verdict | None,
    abort: dict | None,
) -> dict:
    """The run report: ``summarize``'s fields, the angles, the design, the
    verdict and the abort document. The writer and replay both build it here."""
    return {
        **summarize(log, counts, trace),
        "angles": list(log.header.angles),
        "design": design.as_dict(),
        "verdict": verdict.to_dict() if verdict else None,
        "abort": abort,
    }


def build_report(result: RunResult) -> dict:
    """Structured summary a jury can recheck by hand: counts, statistic,
    running supremum, verdict and the exact (log-space) bound values."""
    abort = result.abort.to_dict() if result.abort else None
    return _report(result.log, result.counts, result.trace, result.design, result.verdict, abort)


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    failure: str | None = None
    trial: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def replay_verify(
    log: TrialLog,
    report: dict | None = None,
    *,
    counts: CountMatrix | None = None,
    trace: StatisticTrace | None = None,
) -> ReplayReport:
    """Recompute settings from the seed and the report from the records;
    true iff everything matches bit-exactly.

    Without a report only the seed-derived settings and structural integrity
    are checkable (outcomes are the claimant's data and not derivable).
    With one, the writer's own builder rebuilds it, taking only the design's
    mean and the abort document from it, and the first key that differs, is
    missing or is extra is named, so any flipped outcome bit is caught. A
    caller that has already computed ``tally(log)`` passes its counts and
    trace; without both, they are computed here.
    """
    header = log.header
    expected_cells = settings_cells(header.seed, len(log))  # the stream is prefix-stable
    i, j, _, _ = log.columns()
    mismatches = np.nonzero(cell_code(i, j) != expected_cells)[0]
    if mismatches.size:
        trial = int(mismatches[0]) + 1
        return ReplayReport(False, f"settings diverge from seed at trial {trial}", trial)

    if counts is None or trace is None:
        counts, trace = tally(log)
    if trace.statistic != chsh_count_statistic(counts):
        return ReplayReport(False, "statistic does not equal the count combination")
    if report is None:
        return ReplayReport(True)

    abort = report.get("abort")
    if abort is None:
        expected_len = header.n
    elif not isinstance(abort, dict):
        return ReplayReport(False, "report abort is not an object")
    else:
        abort_trial = abort.get("trial")
        if abort_trial is not None and type(abort_trial) is not int:
            return ReplayReport(False, "report abort trial is not an integer")
        expected_len = (abort_trial or 1) - 1
    if len(log) != expected_len:
        return ReplayReport(
            False, f"report abort does not fit a log of {len(log)} of {header.n} trials"
        )

    design_doc = report.get("design")
    if not isinstance(design_doc, dict):
        return ReplayReport(False, "report design is not an object")
    mu = design_doc.get("qm_mean_per_trial")
    if not isinstance(mu, float):
        return ReplayReport(False, "report design lacks the per-trial mean")
    try:
        design = design_for(header.n, header.critical_value, mu)
    except ValueError:
        return ReplayReport(False, "report design is not a valid protocol design")
    verdict = adjudicate(trace, design) if abort is None else None
    expected = _report(log, counts, trace, design, verdict, abort)
    shared = expected.keys() & report.keys()
    for key in {**expected, **report}:
        if key not in shared or report[key] != expected[key]:
            return ReplayReport(False, f"report field {key!r} does not match the log")
    return ReplayReport(True)
