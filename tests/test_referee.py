"""Referee engine: ordering, validation, adjudication, drift, replay."""

import math

import numpy as np
import pytest

from bellbet.bounds import design_for
from bellbet.config import SideSpec, config_from_dict
from bellbet.core import OPTIMAL_ANGLES, CountMatrix, chsh_count_statistic
from bellbet.montecarlo import simulate_many
from bellbet.referee import (
    ABORT_VALIDATION,
    OutcomeValidationError,
    RefereeEngine,
    RunResult,
    StatisticTrace,
    Verdict,
    adjudicate,
    build_report,
    replay_verify,
    run_experiment,
    validate_outcome,
)
from bellbet.strategies import LOCAL_STRATEGY_NAMES, Strategy, build_strategy

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
        assert trace.variance_budget(2) == 1.5


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
    def test_sequential_event_order(self):
        config = make_config(strategy_side("classical-polarizer"), n=60, seed=9)
        result = RefereeEngine(config, record_events=True).run()
        events = result.events
        by_trial = {}
        for seq, kind, m in events:
            by_trial.setdefault(m, {})[kind] = seq
        for m in range(1, 61):
            trial = by_trial[m]
            assert trial["lambda"] < trial["settings"] < trial["outcome"] < trial["broadcast"]
            if m > 1:
                assert by_trial[m - 1]["outcome"] < trial["settings"]

    def test_batch_reveals_everything_first(self):
        config = make_config(strategy_side("deterministic-optimal"), n=40, seed=9, mode="batch")
        result = RefereeEngine(config, record_events=True).run()
        settings_seqs = [seq for seq, kind, _ in result.events if kind == "settings"]
        outcome_seqs = [seq for seq, kind, _ in result.events if kind == "outcome"]
        assert max(settings_seqs) < min(outcome_seqs)
        assert result.verdict is not None


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
    @pytest.mark.parametrize("mode", ["sequential", "batch"])
    def test_drift_bound(self, name, mode):
        # Monte-Carlo supermartingale drift: mean S_n over R runs at n=1000
        # below 4 sqrt(0.75 n / R); batch mode keeps the expectation bound.
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
        class FailsAtFive(Strategy):
            name = "fails-at-five"

            def station_respond(self, side, setting_index, message, memory):
                return 0 if memory.next_trial < 5 else 0.5

            def update_memory(self, side, memory, view):
                return super().update_memory(side, memory, view)

        config = make_config(strategy_side("constant"), n=10, seed=3)
        result = RefereeEngine(config, strategy=FailsAtFive()).run()
        assert result.abort.trial == 5
        assert len(result.log) == 4
        report = build_report(result)
        assert report["verdict"] is None
        assert report["abort"]["kind"] == ABORT_VALIDATION
        assert replay_verify(result.log, report)


class TestNonlocalCheater:
    def test_positive_drift_of_order_n_quarter(self):
        # A both-settings cheater attains E[S_n] = n/4: the statistic detects
        # nonlocality.
        config = make_config(strategy_side("constant"), n=2000, seed=5, critical_value=100)
        cheater = build_strategy("nonlocal-cheater", allow_nonlocal=True)
        result = RefereeEngine(config, strategy=cheater, allow_nonlocal=True).run()
        assert result.trace.statistic > 2000 / 8
        assert result.trace.statistic == pytest.approx(2000 / 4, rel=0.2)
        assert result.verdict.winner == "quantum-claimant"

    def test_engine_refuses_without_flag(self):
        config = make_config(strategy_side("constant"), n=100, seed=5)
        cheater = build_strategy("nonlocal-cheater", allow_nonlocal=True)
        with pytest.raises(ValueError):
            RefereeEngine(config, strategy=cheater)


class TestReplay:
    def _run(self, side=None, n=400, seed=8):
        config = make_config(side or strategy_side("classical-polarizer"), n=n, seed=seed)
        result = run_experiment(config)
        return result, build_report(result)

    def test_untampered_log_replays(self):
        result, report = self._run()
        assert replay_verify(result.log, report)
        assert replay_verify(result.log)

    def test_statistic_equals_count_combination(self):
        result, _ = self._run(QUANTUM_SIDE)
        counts = CountMatrix.from_records(result.log.records())
        assert result.trace.statistic == chsh_count_statistic(counts)
        assert counts == result.counts

    def test_flipped_outcome_bit_detected(self):
        result, report = self._run()
        from bellbet.logfile import TrialLog

        i, j, x, y = result.log.columns()
        x = x.copy()
        x[137] ^= 1
        tampered = TrialLog.from_columns(result.header, i, j, x, y)
        replay = replay_verify(tampered, report)
        assert not replay.ok

    def test_flipped_setting_detected_with_trial_index(self):
        result, report = self._run()
        from bellbet.logfile import TrialLog

        i, j, x, y = result.log.columns()
        i = i.copy()
        i[20] = 3 - i[20]
        tampered = TrialLog.from_columns(result.header, i, j, x, y)
        replay = replay_verify(tampered, report)
        assert not replay.ok
        assert replay.trial == 21

    def test_report_design_must_match_header(self):
        result, report = self._run()
        report = dict(report)
        report["critical_value"] = report["critical_value"] + 1
        assert not replay_verify(result.log, report)


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
        for m in range(1, 61):
            partial.append(complete.log.record(m))
        result = RunResult(log=partial, design=complete.design, abort=None)
        assert result.verdict is None
        assert result.trace.n == 60
        assert result.counts == CountMatrix.from_records(partial.records())


class TestEngineConstruction:
    def test_quantum_side_takes_no_strategy(self):
        config = make_config(QUANTUM_SIDE, n=10)
        with pytest.raises(ValueError):
            RefereeEngine(config, strategy=build_strategy("constant"))

    def test_run_trial_requires_order(self):
        from bellbet.referee import ProtocolAbort

        config = make_config(strategy_side("constant"), n=10)
        engine = RefereeEngine(config)
        engine.run_trial(1)
        with pytest.raises(ProtocolAbort):
            engine.run_trial(3)

    def test_run_trial_past_n_aborts(self):
        from bellbet.referee import ProtocolAbort

        engine = RefereeEngine(make_config(strategy_side("constant"), n=20))
        for m in range(1, 21):
            engine.run_trial(m)
        with pytest.raises(ProtocolAbort):
            engine.run_trial(21)


class HistoryProbe(Strategy):
    """Answers 1 and records what the source is shown before each trial."""

    name = "history-probe"

    def __init__(self):
        super().__init__()
        self.shown = []

    def source_emit(self, m, history):
        last = history[-1].m if len(history) else None
        self.shown.append((m, history, len(history), last))
        return super().source_emit(m, history)

    def station_respond(self, side, setting_index, message, memory):
        return 1


class TestTrialState:
    def test_sequential_source_reads_the_log(self):
        config = make_config(strategy_side("constant"), n=12, seed=13)
        probe = HistoryProbe()
        engine = RefereeEngine(config, strategy=probe)
        engine.run()
        for m, history, length, last in probe.shown:
            assert history is engine.log
            assert (length, last) == (m - 1, m - 1 if m > 1 else None)

    def test_cloned_source_sees_no_history(self):
        config = make_config(strategy_side("constant"), n=12, seed=13, mode="cloned-source")
        probe = HistoryProbe()
        RefereeEngine(config, strategy=probe).run()
        assert all(history == () for _, history, _, _ in probe.shown)

    def test_tracker_reads_one_trial_per_trial(self):
        # The tracker's cache grows by the log's last trial each time; a
        # recount over the whole history would make the engine O(m) per trial.
        config = make_config(strategy_side("adaptive-frequency-tracker"), n=200, seed=4)
        engine = RefereeEngine(config)
        read = []
        record = engine.log.record
        engine.log.record = lambda m: read.append(m) or record(m)
        engine.run()
        assert read == list(range(1, 200))


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
        engine = RefereeEngine(config, record_events=True)
        result = engine.run()
        assert result.verdict is not None
        # No cross-wing data in cloned broadcasts: the tracker accumulated
        # only own-side marginals, never joint cells.
        left, right = engine._stations
        assert left.memory.cell_counts == (0, 0, 0, 0)
        assert sum(left.memory.own_counts) == 300
        assert sum(right.memory.own_counts) == 300
        # And the run is still reproducible.
        result2 = run_experiment(config)
        assert result2.log.to_bytes() == result.log.to_bytes()
