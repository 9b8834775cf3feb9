"""Referee engine: ordering, validation, adjudication, drift, replay."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from bellbet.bounds import design_for
from bellbet.config import SideSpec, config_from_dict
from bellbet.core import CELL_WEIGHTS, CountMatrix, chsh_count_statistic, setting_indices
from bellbet.logfile import TrialLog
from bellbet.montecarlo import simulate_many, simulate_result
from bellbet.referee import (
    ABORT_VALIDATION,
    OutcomeValidationError,
    RefereeEngine,
    RunResult,
    StatisticTrace,
    Verdict,
    adjudicate,
    build_report,
    log_header,
    replay_verify,
    run_experiment,
    tally,
    validate_outcome,
)
from bellbet.rng import settings_cells
from bellbet.strategies import (
    LOCAL_STRATEGY_NAMES,
    AdaptiveFrequencyTracker,
    Strategy,
    build_strategy,
)
from theory import OPTIMAL_ANGLES

ANGLES = list(OPTIMAL_ANGLES.as_tuple())


def make_config(side, n=200, seed=1, mode="sequential", critical_value=None):
    if critical_value is None:
        critical_value = max(1, round(n * 0.10355 / 2))
    return config_from_dict(
        {
            "mode": mode,
            "angles": ANGLES,
            "side": side,
            "n": n,
            "seed": seed,
            "critical_value": critical_value,
        }
    )


QUANTUM_SIDE = {"kind": "quantum", "correlation_sense": "equal-polarization"}


def strategy_side(name, params=None):
    return {"kind": "strategy", "strategy": name, "params": params or {}}


class TestValidateOutcome:
    def test_bits_pass(self):
        assert validate_outcome(0) == 0
        assert validate_outcome(1) == 1
        assert validate_outcome(np.int64(1)) == 1
        assert validate_outcome(True) == 1

    @pytest.mark.parametrize("value", [0.9999, 2.3, 1.0, 0.0, -1, 2, None, "1", b"1"])
    def test_non_bits_fail(self, value):
        with pytest.raises(OutcomeValidationError):
            validate_outcome(value)

    def test_failure_names_side_and_trial(self):
        with pytest.raises(OutcomeValidationError) as raised:
            validate_outcome(2.0, "right", 7)
        assert (raised.value.value, raised.value.side, raised.value.trial) == (2.0, "right", 7)
        assert str(raised.value) == "outcome 2.0 from right at trial 7 is not a bit"


class TestStatisticTrace:
    def test_small_case(self):
        cells = np.array([1, 0, 1, 3])
        x = np.array([1, 0, 0, 1])
        y = np.array([1, 0, 1, 1])
        trace = StatisticTrace.from_columns(cells, x, y)
        assert list(trace.deltas) == [1, -1, 0, -1]
        assert list(trace.running_sum) == [1, 0, 0, -1]
        assert trace.statistic == -1
        assert trace.sup == 1
        assert trace.variance_budget() == 3.0
        # The running sum is computed on its first read and kept.
        assert trace.running_sum is trace.running_sum
        assert not trace.running_sum.flags.writeable

    def test_deltas_are_the_cell_weights_on_coincidences(self):
        # All 16 (cell, x, y): CELL_WEIGHTS[cell] where x == y, else 0, on
        # one column, on a (4, 4) block and on its transposed view.
        cells, x, y = (
            np.array(column, dtype=np.uint8)
            for column in zip(*itertools.product(range(4), (0, 1), (0, 1)))
        )
        reference = np.array([CELL_WEIGHTS[c] * (a == b) for c, a, b in zip(cells, x, y)])
        assert StatisticTrace.from_columns(cells, x, y).deltas.tolist() == reference.tolist()
        block = [column.reshape(4, 4) for column in (cells, x, y)]
        deltas = StatisticTrace.from_columns(*block).deltas
        assert deltas.dtype == np.int8
        assert deltas.tolist() == reference.reshape(4, 4).tolist()
        transposed = StatisticTrace.from_columns(*(column.T for column in block)).deltas
        assert transposed.tolist() == reference.reshape(4, 4).T.tolist()

    def test_empty_trace_aggregates_are_zero(self):
        no_trials = np.zeros(0, dtype=np.uint8)
        trace = StatisticTrace.from_columns(no_trials, no_trials, no_trials)
        assert (trace.n, trace.statistic, trace.sup) == (0, 0, 0)
        assert trace.running_sum.shape == (0,)


class TestAdjudicate:
    def _design(self, n=25_000, c=1250):
        return design_for(n, c, (math.sqrt(2.0) - 1.0) / 4.0)

    def _trace(self, n, statistic):
        deltas = np.zeros(n, dtype=np.int8)
        deltas[: abs(statistic)] = 1 if statistic >= 0 else -1
        return StatisticTrace(deltas)

    def test_quantum_wins_above_critical(self):
        verdict = adjudicate(self._trace(25_000, 1300), self._design())
        assert verdict.winner == "quantum-claimant"
        assert verdict.error_bound_used == verdict.local_realist_error_bound

    def test_tie_goes_to_local_realist(self):
        verdict = adjudicate(self._trace(25_000, 1250), self._design())
        assert verdict.winner == "local-realist"
        assert verdict.error_bound_used == verdict.quantum_claimant_error_bound

    def test_negative_statistic(self):
        assert adjudicate(self._trace(25_000, -400), self._design()).winner == "local-realist"

    def test_trial_count_mismatch(self):
        with pytest.raises(ValueError):
            adjudicate(self._trace(100, 10), self._design())

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            Verdict(
                statistic=10,
                critical_value=100,
                winner="quantum-claimant",
                error_bound_used=1e-6,
                n=1000,
                local_realist_error_bound=1e-6,
                quantum_claimant_error_bound=1e-6,
            )


class TestCommitOrdering:
    @pytest.mark.parametrize("name", LOCAL_STRATEGY_NAMES)
    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    def test_event_order(self, name, mode):
        # Each trial runs lambda < settings < outcome < broadcast and ends
        # before the next starts, in every mode.
        n = 40
        config = make_config(strategy_side(name), n=n, seed=9, mode=mode)
        result = RefereeEngine(config, record_events=True).run()
        assert result.verdict is not None
        per_trial = ("lambda", "settings", "outcome", "broadcast")
        expected = [(kind, m) for m in range(1, n + 1) for kind in per_trial]
        assert [(kind, m) for _, kind, m in result.events] == expected
        assert [seq for seq, _, _ in result.events] == list(range(1, len(expected) + 1))
        # The trace is off by default and never reaches the log.
        quiet = RefereeEngine(config).run()
        assert quiet.events is None
        assert quiet.log.to_bytes() == result.log.to_bytes()


# sha256 of every honest strategy's log and event list in every mode, pinned
# so that a refactor of the trial loop proves byte identity here. A change
# that alters a log on purpose records the new digest and the reason.
PINNED_ENGINE_DIGEST = "b2010d05c67e0eb782b3993fb50182c9b9254e8153435b6b5a608d1be004caae"


def engine_digest() -> str:
    digest = hashlib.sha256()
    for name in LOCAL_STRATEGY_NAMES:
        for mode in ("sequential", "cloned-source"):
            config = make_config(strategy_side(name), n=400, seed=20260, mode=mode)
            result = RefereeEngine(config, record_events=True).run()
            assert result.verdict is not None
            digest.update(f"{name} {mode}\n".encode("ascii"))
            digest.update(result.log.to_bytes())
            digest.update(json.dumps(result.events, separators=(",", ":")).encode("ascii"))
    return digest.hexdigest()


# sha256 of the quantum side's engine logs and event lists in both senses,
# every roster side's report, and the whole-run kernel's logs and reports,
# recorded before the cell layout and the oracle's region rule got one
# definition each. The opposite sense runs at the optimal angles with the
# left pair turned by pi/2, where its mean is positive.
PINNED_REPORT_DIGEST = "3317f978e87bf9f0fa8278ee3b66a415817c732ce02750dec14833275cc52af7"

_OPPOSITE_ANGLES = [ANGLES[0] + math.pi / 2.0, ANGLES[1] + math.pi / 2.0, ANGLES[2], ANGLES[3]]
_ROSTER_SIDES = (
    ("quantum equal", QUANTUM_SIDE, ANGLES),
    ("quantum opposite", {"kind": "quantum", "correlation_sense": "opposite-polarization"},
     _OPPOSITE_ANGLES),
    *((name, strategy_side(name), ANGLES) for name in (*LOCAL_STRATEGY_NAMES, "range-violator")),
)


def report_digest() -> str:
    digest = hashlib.sha256()
    for label, side, angles in _ROSTER_SIDES:
        for mode in ("sequential", "cloned-source"):
            doc = {"mode": mode, "angles": angles, "side": side, "n": 400, "seed": 20261,
                   "critical_value": 20}
            config = config_from_dict(doc)
            result = RefereeEngine(config, record_events=True).run()
            digest.update(f"{label} {mode}\n".encode("ascii"))
            if side["kind"] == "quantum":
                digest.update(result.log.to_bytes())
                digest.update(json.dumps(result.events, separators=(",", ":")).encode("ascii"))
            digest.update(json.dumps(build_report(result), sort_keys=True).encode("ascii"))
            if label != "range-violator":
                simulated = simulate_result(config)
                digest.update(simulated.log.to_bytes())
                digest.update(json.dumps(build_report(simulated), sort_keys=True).encode("ascii"))
    return digest.hexdigest()


class TestPinnedBytes:
    def test_logs_and_events_match_pinned_digest(self):
        assert engine_digest() == PINNED_ENGINE_DIGEST

    def test_quantum_logs_reports_and_kernel_results_match_pinned_digest(self):
        assert report_digest() == PINNED_REPORT_DIGEST


class TestQuantumRuns:
    def test_statistic_near_design_mean(self):
        # Monte-Carlo mean of S_n over 100 runs within 3 sigma of n/10-ish
        # (the exact per-trial mean is (sqrt(2)-1)/4).
        n = 25_000
        mu = (math.sqrt(2.0) - 1.0) / 4.0
        finals, _ = simulate_many(
            SideSpec(kind="quantum"), OPTIMAL_ANGLES, n, seeds=range(100, 200)
        )
        per_trial_var = 0.25 * (1.0 + 2.0 * mu) - mu * mu
        sigma_mean = math.sqrt(per_trial_var * n / 100)
        assert abs(finals.mean() - n * mu) < 3.0 * sigma_mean
        assert finals.mean() == pytest.approx(2500, rel=0.1)

    def test_engine_run_adjudicates_quantum_win(self):
        config = make_config(QUANTUM_SIDE, n=25_000, seed=2, critical_value=1250)
        result = run_experiment(config)
        assert result.verdict.winner == "quantum-claimant"
        assert result.trace.statistic > 2000
        assert result.verdict.error_bound_used < 1e-6


class TestLocalStrategyRuns:
    def test_deterministic_optimal_stays_in_band(self):
        # E[S_n] = 0; every run well inside 4 sqrt(0.75 n).
        n = 25_000
        finals, _ = simulate_many(
            SideSpec(kind="strategy", strategy="deterministic-optimal"),
            OPTIMAL_ANGLES,
            n,
            seeds=range(300, 400),
        )
        band = 4.0 * math.sqrt(0.75 * n)
        assert np.all(np.abs(finals) < band)

    @pytest.mark.parametrize("name", LOCAL_STRATEGY_NAMES)
    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    def test_drift_bound(self, name, mode):
        # Monte-Carlo supermartingale drift: mean S_n over R runs at n=1000
        # below 4 sqrt(0.75 n / R), with the source's history (sequential)
        # and without it (cloned-source, the kernels' own-wing path).
        n, runs = 1000, 1000
        side = SideSpec(kind="strategy", strategy=name)
        finals = np.empty(runs, dtype=np.int64)
        from bellbet.montecarlo import simulate_run

        for idx in range(runs):
            run = simulate_run(side, OPTIMAL_ANGLES, n, 1000 + idx, mode)
            finals[idx] = StatisticTrace.from_columns(*run).statistic
        assert finals.mean() <= 4.0 * math.sqrt(0.75 * n / runs)

    def test_polarizer_drift_nonpositive(self):
        # The threshold polarizer has exactly zero expected slack at these
        # angles; its mean drift must hug zero from below statistical noise.
        n, runs = 2000, 2000
        finals, _ = simulate_many(
            SideSpec(kind="strategy", strategy="classical-polarizer"),
            OPTIMAL_ANGLES,
            n,
            seeds=range(runs),
        )
        sigma_mean = math.sqrt(0.375 * n / runs)
        assert finals.mean() <= 4.0 * sigma_mean


class FailsAt(Strategy):
    """Answers 1 until trial ``at``, then a non-bit."""

    name = "fails-at"

    def __init__(self, at):
        super().__init__()
        self.at = at

    def station_respond(self, side, setting_index, message, memory):
        return 1 if memory.next_trial < self.at else 0.5


class TestAborts:
    def test_range_violator_aborts_first_trial(self):
        config = make_config(strategy_side("range-violator"), n=50, seed=3)
        result = run_experiment(config)
        assert result.verdict is None
        assert result.abort is not None
        assert result.abort.kind == ABORT_VALIDATION
        assert result.abort.trial == 1
        assert result.abort.side == "left"
        assert isinstance(result.abort.value, float)
        assert abs(result.abort.value) <= math.sqrt(2.0 * math.pi)
        assert len(result.log) == 0

    def test_missing_outcome_aborts(self):
        class Silent(Strategy):
            name = "silent"

            def station_respond(self, side, setting_index, message, memory):
                return None

        config = make_config(strategy_side("constant"), n=10, seed=3)
        result = RefereeEngine(config, strategy=Silent()).run()
        assert result.abort is not None
        assert result.abort.kind == ABORT_VALIDATION

    def test_partial_log_preserved(self):
        config = make_config(strategy_side("constant"), n=10, seed=3)
        result = RefereeEngine(config, strategy=FailsAt(5)).run()
        assert result.abort.trial == 5
        assert len(result.log) == 4
        report = build_report(result)
        assert report["verdict"] is None
        assert report["abort"]["kind"] == ABORT_VALIDATION
        assert replay_verify(result.log, report)


class AnswersAt(Strategy):
    """Answers 1, except ``value`` from ``side`` at trial ``at``."""

    name = "answers-at"

    def __init__(self, side, at, value):
        super().__init__()
        self.side, self.at, self.value = side, at, value

    def station_respond(self, side, setting_index, message, memory):
        return self.value if (side, memory.next_trial) == (self.side, self.at) else 1


class TestOutcomeValidationInEngine:
    """What ``run`` commits or refuses for each kind of raw outcome,
    through the engine's exact-int fast path and the full validator."""

    @pytest.mark.parametrize(
        "value, bit", [(True, 1), (np.bool_(True), 1), (np.uint8(1), 1), (np.int64(0), 0)]
    )
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_integer_bits_commit_as_plain_bits(self, side, value, bit):
        config = make_config(strategy_side("constant"), n=20, seed=3)
        result = RefereeEngine(config, strategy=AnswersAt(side, 4, value)).run()
        assert result.abort is None
        _, x, y = (column.tolist() for column in result.log.columns())
        assert (x if side == "left" else y) == [1, 1, 1, bit] + [1] * 16
        record = list(result.log.records())[3]
        assert type(record.x) is int and type(record.y) is int

    @pytest.mark.parametrize("value", [1.0, 0.0, 2, -1, None, "1"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_bits_abort_naming_side_and_trial(self, side, value):
        config = make_config(strategy_side("constant"), n=20, seed=3)
        result = RefereeEngine(config, strategy=AnswersAt(side, 4, value)).run()
        assert result.abort.kind == ABORT_VALIDATION
        assert (result.abort.side, result.abort.trial) == (side, 4)
        assert result.abort.value is value
        assert len(result.log) == 3


class TestNonlocalCheater:
    def test_positive_drift_of_order_n_quarter(self):
        # A both-settings cheater coincides in cell (1,2) and anti-coincides
        # elsewhere, attaining E[S_n] = n/4: the statistic detects
        # nonlocality. No station can answer like this, so its answers are
        # computed over the run's own settings here.
        config = make_config(strategy_side("constant"), n=2000, seed=5, critical_value=100)
        cells = settings_cells(config.seed, config.n)
        x = np.zeros(config.n, dtype=np.uint8)
        y = (cells != 1).astype(np.uint8)
        trace = StatisticTrace.from_columns(cells, x, y)
        assert trace.statistic > 2000 / 8
        assert trace.statistic == pytest.approx(2000 / 4, rel=0.2)
        assert adjudicate(trace, config.design).winner == "quantum-claimant"


class TestReplay:
    def _run(self, side=None, n=400, seed=8):
        config = make_config(side or strategy_side("classical-polarizer"), n=n, seed=seed)
        result = run_experiment(config)
        return result, build_report(result)

    def test_untampered_log_replays(self):
        result, report = self._run()
        assert replay_verify(result.log, report)
        assert replay_verify(result.log)

    @pytest.mark.parametrize("n", [0, 20, 400])
    def test_tally_matches_widened_codes(self, n):
        # tally counts on the log's uint8 cell codes; the widened int64
        # codes are the reference for both the counts and the trace.
        log = self._run(n=n)[0].log if n else TrialLog(log_header(make_config(QUANTUM_SIDE)))
        counts, trace = tally(log)
        cells, x, y = log.columns()
        reference = StatisticTrace.from_columns(cells.astype(np.int64), x, y)
        assert trace.deltas.dtype == reference.deltas.dtype == np.int8
        assert trace.deltas.tolist() == reference.deltas.tolist()
        assert len(trace.deltas) == len(log)
        assert counts == CountMatrix.from_records(log.records())

    def test_statistic_equals_count_combination(self):
        result, _ = self._run(QUANTUM_SIDE)
        counts = CountMatrix.from_records(result.log.records())
        assert result.trace.statistic == chsh_count_statistic(counts)
        assert counts == result.counts

    def test_flipped_outcome_bit_detected(self):
        result, report = self._run()
        from bellbet.logfile import TrialLog

        cells, x, y = result.log.columns()
        x = x.copy()
        x[137] ^= 1
        tampered = TrialLog.from_columns(result.header, cells, x, y)
        replay = replay_verify(tampered, report)
        assert not replay.ok

    @pytest.mark.parametrize("trial, flip", [(21, 2), (400, 1)], ids=["i", "last-j"])
    def test_flipped_setting_detected_with_trial_index(self, trial, flip):
        # flip 2 swaps the trial's i between 1 and 2, flip 1 its j.
        result, report = self._run()
        from bellbet.logfile import TrialLog

        cells, x, y = result.log.columns()
        cells = cells.copy()
        cells[trial - 1] ^= flip
        tampered = TrialLog.from_columns(result.header, cells, x, y)
        replay = replay_verify(tampered, report)
        assert not replay.ok
        assert replay.trial == trial

    def test_report_design_must_match_header(self):
        result, report = self._run()
        report = dict(report)
        report["critical_value"] = report["critical_value"] + 1
        assert not replay_verify(result.log, report)


def _changed(value):
    """A JSON value of the same shape as ``value`` that differs from it."""
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _changed(value[first])}
    if isinstance(value, list):
        return [_changed(value[0]), *value[1:]]
    if isinstance(value, str):
        return value + "0"
    if value is None:
        return {}
    return value + 1


def _run_and_report(side, mode="sequential"):
    result = run_experiment(make_config(strategy_side(side), n=400, seed=8, mode=mode))
    return result, json.loads(json.dumps(build_report(result)))


REFERENCE_REPORT = _run_and_report("constant")[1]
REPORT_KEYS = tuple(REFERENCE_REPORT)
RUN_SIDES = ["classical-polarizer", "range-violator"]  # a complete and an aborted run


def _names(failure, key):
    return f"report field {key!r} " in failure or failure.startswith(f"report {key} ")


class TestReplayWholeReport:
    """Replay rebuilds the report with the writer's builder; every key counts."""

    @pytest.fixture(scope="class", params=RUN_SIDES)
    def run(self, request):
        return _run_and_report(request.param)

    def test_every_report_has_the_same_keys(self, run):
        assert tuple(run[1]) == REPORT_KEYS

    @pytest.mark.parametrize("key", REPORT_KEYS)
    def test_changed_field_is_named(self, run, key):
        result, report = run
        value = report[key]
        if key == "abort" and value is not None:
            # The abort document is taken as-is: the log pins only its trial.
            value = {**value, "trial": value["trial"] + 1}
        else:
            value = _changed(value)
        replay = replay_verify(result.log, {**report, key: value})
        assert not replay.ok
        assert _names(replay.failure, key), replay.failure

    @pytest.mark.parametrize("key", REPORT_KEYS)
    def test_missing_field_is_named(self, run, key):
        result, report = run
        replay = replay_verify(result.log, {k: v for k, v in report.items() if k != key})
        assert not replay.ok
        assert _names(replay.failure, key), replay.failure

    def test_extra_field_is_named(self, run):
        result, report = run
        replay = replay_verify(result.log, {**report, "note": "hand-edited"})
        assert not replay.ok
        assert replay.failure == "report field 'note' does not match the log"

    @pytest.mark.parametrize("field", list(REFERENCE_REPORT["design"]))
    def test_changed_design_field_is_named(self, run, field):
        result, report = run
        design = {**report["design"], field: _changed(report["design"][field])}
        replay = replay_verify(result.log, {**report, "design": design})
        assert not replay.ok
        assert _names(replay.failure, "design"), replay.failure

    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    @pytest.mark.parametrize("side", RUN_SIDES)
    def test_untampered_report_replays(self, side, mode):
        result, report = _run_and_report(side, mode)
        assert replay_verify(result.log, report)
        if result.completed:
            kernel = simulate_result(make_config(strategy_side(side), n=400, seed=8, mode=mode))
            assert replay_verify(kernel.log, json.loads(json.dumps(build_report(kernel))))


class TestRunResult:
    def test_verdict_only_for_complete_log_without_abort(self):
        complete = run_experiment(make_config(strategy_side("classical-polarizer"), n=120, seed=6))
        assert complete.header is complete.log.header
        assert complete.verdict is not None
        assert complete.verdict == adjudicate(complete.trace, complete.design)

        aborted = run_experiment(make_config(strategy_side("range-violator"), n=120, seed=6))
        assert aborted.abort is not None
        assert aborted.verdict is None

        from bellbet.logfile import TrialLog

        partial = TrialLog(complete.header)
        for trial in zip(*(col[:60].tolist() for col in complete.log.columns())):
            partial.commit(*trial)
        result = RunResult(log=partial, design=complete.design, abort=None)
        assert result.verdict is None
        assert result.trace.n == 60
        assert result.counts == CountMatrix.from_records(partial.records())


class TestEngineConstruction:
    def test_quantum_side_takes_no_strategy(self):
        config = make_config(QUANTUM_SIDE, n=10)
        with pytest.raises(ValueError):
            RefereeEngine(config, strategy=build_strategy("constant"))

    @pytest.mark.parametrize("side", [QUANTUM_SIDE, strategy_side("constant")])
    def test_an_engine_runs_once(self, side):
        engine = RefereeEngine(make_config(side, n=10))
        first = engine.run()
        with pytest.raises(RuntimeError, match="runs its experiment once"):
            engine.run()
        assert first.completed and len(engine.log) == 10


class HistoryProbe(Strategy):
    """Answers 1 and records what the source is shown before each trial."""

    name = "history-probe"

    def __init__(self):
        super().__init__()
        self.shown = []

    def source_emit(self, m, history):
        self.shown.append((m, history, len(history), history.columns()[0].tolist()))
        return super().source_emit(m, history)

    def station_respond(self, side, setting_index, message, memory):
        return 1


class TestTrialState:
    def test_sequential_source_reads_the_log(self):
        config = make_config(strategy_side("constant"), n=12, seed=13)
        probe = HistoryProbe()
        engine = RefereeEngine(config, strategy=probe)
        engine.run()
        cells = engine.log.columns()[0].tolist()
        for m, history, length, shown_cells in probe.shown:
            assert history is engine.log
            assert (length, shown_cells) == (m - 1, cells[: m - 1])

    def test_cloned_source_sees_no_history(self):
        config = make_config(strategy_side("constant"), n=12, seed=13, mode="cloned-source")
        probe = HistoryProbe()
        engine = RefereeEngine(config, strategy=probe)
        engine.run()
        first = probe.shown[0][1]
        assert first is not engine.log and first.header == engine.log.header
        for _, history, length, shown_cells in probe.shown:
            assert history is first
            assert (length, shown_cells) == (0, [])

    def test_tracker_reads_one_trial_per_trial(self, monkeypatch):
        # The tracker's cache grows by the log's last trial each time; a
        # recount of the whole history (a bincount of its cell column) would
        # make the engine O(m) per trial.
        config = make_config(strategy_side("adaptive-frequency-tracker"), n=200, seed=4)
        engine = RefereeEngine(config)
        recounts, bincount = [], np.bincount
        monkeypatch.setattr(
            np, "bincount", lambda cells, **kw: recounts.append(len(cells)) or bincount(cells, **kw)
        )
        engine.run()
        assert recounts == []
        # A tracker that has seen none of it recounts the whole log once.
        fresh = build_strategy("adaptive-frequency-tracker")
        fresh.prepare(seed=4, n=200, angles=config.angles, mode=config.mode)
        fresh.source_emit(201, engine.log)
        assert recounts == [200]


def rebuilt_columns(log):
    """The columns of a fresh log parsed back from ``log``'s own bytes."""
    raw = [json.loads(line) for line in log.to_bytes().splitlines()[1:]]
    return [col.tolist() for col in TrialLog.from_raw(log.header, raw).columns()]


class TestCommittedColumns:
    @pytest.mark.parametrize(
        "side", [QUANTUM_SIDE] + [strategy_side(name) for name in LOCAL_STRATEGY_NAMES]
    )
    def test_columns_equal_rebuilt_log_at_every_trial(self, side):
        # Each commit is checked as it lands: the live log's columns end in
        # the trial just committed and equal its own bytes read back, and
        # the columns read before it are unchanged.
        engine = RefereeEngine(make_config(side, n=30, seed=21))
        log, commit, committed = engine.log, engine.log.commit, []

        def checked_commit(cell, x, y):
            before = log.columns()
            kept = [col.tolist() for col in before]
            commit(cell, x, y)
            columns = [col.tolist() for col in log.columns()]
            assert [col[-1] for col in columns] == [cell, x, y]
            assert columns == rebuilt_columns(log)
            assert [col.tolist() for col in before] == kept
            committed.append(len(log))

        log.commit = checked_commit
        assert engine.run().completed
        assert committed == list(range(1, 31))

    def test_columns_after_abort(self):
        config = make_config(strategy_side("constant"), n=20, seed=21)
        result = RefereeEngine(config, strategy=FailsAt(8)).run()
        assert result.abort.trial == 8 and len(result.log) == 7
        assert [len(col) for col in result.log.columns()] == [7, 7, 7]
        assert [col.tolist() for col in result.log.columns()] == rebuilt_columns(result.log)


class BlobCollector(Strategy):
    """Answers 1 and tags each boundary with an identifying blob; memory
    accumulates whatever blobs the referee relays."""

    name = "blob-collector"

    def __init__(self):
        super().__init__()
        self.seen: dict[str, list] = {"left": [], "right": []}

    def station_respond(self, side, setting_index, message, memory):
        return 1

    def boundary_blob(self, side, m):
        return f"{side}:{m}".encode()

    def update_memory(self, side, memory, view):
        self.seen[side].append(dict(view.blobs))
        return super().update_memory(side, memory, view)


class ViewRecorder(AdaptiveFrequencyTracker):
    """The adaptive tracker, keeping every boundary view each station gets."""

    def __init__(self):
        super().__init__()
        self.views: dict[str, list] = {"left": [], "right": []}

    def update_memory(self, side, memory, view):
        self.views[side].append(view)
        return super().update_memory(side, memory, view)


class TestSideChannelBlobs:
    def test_sequential_broadcast_relays_both_blobs(self):
        config = make_config(strategy_side("constant"), n=12, seed=13)
        collector = BlobCollector()
        RefereeEngine(config, strategy=collector).run()
        for side in ("left", "right"):
            assert len(collector.seen[side]) == 12
            for m, blobs in enumerate(collector.seen[side], start=1):
                assert blobs == {"left": f"left:{m}".encode(), "right": f"right:{m}".encode()}

    def test_cloned_mode_relays_nothing(self):
        config = make_config(strategy_side("constant"), n=12, seed=13, mode="cloned-source")
        collector = BlobCollector()
        RefereeEngine(config, strategy=collector).run()
        assert all(blobs == {} for blobs in collector.seen["left"])


class TestClonedSourceMode:
    def test_cloned_run_withholds_other_wing(self):
        config = make_config(
            strategy_side("adaptive-frequency-tracker"), n=300, seed=12, mode="cloned-source"
        )
        tracker = ViewRecorder()
        result = RefereeEngine(config, strategy=tracker).run()
        assert result.verdict is not None
        # No cross-wing data in cloned broadcasts: every view holds only its
        # own wing's setting and outcome.
        cells, x, y = (col.tolist() for col in result.log.columns())
        i, j = zip(*map(setting_indices, cells))
        for side, own in (("left", zip(i, x)), ("right", zip(j, y))):
            views = tracker.views[side]
            assert [view.m for view in views] == list(range(1, 301))
            assert [(v.own_setting, v.own_outcome) for v in views] == list(own)
            assert all(v.other_setting is None and v.other_outcome is None for v in views)
            assert all(v.blobs == {} for v in views)
        # And the run is still reproducible.
        result2 = run_experiment(config)
        assert result2.log.to_bytes() == result.log.to_bytes()
