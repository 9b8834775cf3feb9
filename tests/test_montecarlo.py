"""Contract: every participant's whole-run rule reproduces the referee engine
bit-exactly, for every honest strategy in the registry and both quantum
correlation senses, in every mode."""

import math

import numpy as np
import pytest

from bellbet.bounds import MAX_TRIALS
from bellbet.config import SideSpec, config_from_dict
from bellbet.core import MODES, OPTIMAL_ANGLES, PI_THIRD_ANGLES, AngleConfig
from bellbet.logfile import read_log
from bellbet.montecarlo import simulate_many, simulate_result, simulate_run
from bellbet.quantum import CORRELATION_SENSES
from bellbet.referee import RefereeEngine, StatisticTrace, build_report, run_experiment
from bellbet.strategies import LOCAL_STRATEGY_NAMES, StrategyError

# Both quantum senses, every honest registry strategy with its default
# parameters, and the constant strategy's other bit.
SIDES = [
    *({"kind": "quantum", "correlation_sense": sense} for sense in CORRELATION_SENSES),
    *({"kind": "strategy", "strategy": name, "params": {}} for name in LOCAL_STRATEGY_NAMES),
    {"kind": "strategy", "strategy": "constant", "params": {"bit": 0}},
]
# The quantum side and every honest registry strategy, with its defaults.
DEFAULT_SIDES = [
    {"kind": "quantum", "correlation_sense": "equal-polarization"},
    *({"kind": "strategy", "strategy": name, "params": {}} for name in LOCAL_STRATEGY_NAMES),
]
SEEDS = (1, 2, 3)
# Multiples of pi added to OPTIMAL_ANGLES (a1, a2, b1, b2): the left wing's
# analyzers lie past 2 pi from some theta in [0, pi), the right wing's never.
SHIFTS = (3, -2, 0, -1)


def side_id(side):
    return side.get("strategy", side.get("correlation_sense"))


def make_config(side, *, n=400, seed=1, mode="sequential", angles=None, critical_value=10):
    angle_values = list((angles or OPTIMAL_ANGLES).as_tuple())
    if side.get("correlation_sense") == "opposite-polarization":
        # Positive expected statistic needs perpendicular-style angles here.
        angle_values = [a + (np.pi / 2 if idx >= 2 else 0.0) for idx, a in enumerate(angle_values)]
    return config_from_dict(
        {
            "mode": mode,
            "angles": angle_values,
            "side": side,
            "n": n,
            "seed": seed,
            "critical_value": critical_value,
        }
    )


def assert_kernel_matches_engine(config):
    engine_result = run_experiment(config)
    kernel_result = simulate_result(config)
    assert kernel_result.log.to_bytes() == engine_result.log.to_bytes()
    assert build_report(kernel_result) == build_report(engine_result)


class TestEngineEquality:
    @pytest.mark.parametrize("side", SIDES, ids=side_id)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequential_logs_byte_identical(self, side, seed):
        assert_kernel_matches_engine(make_config(side, seed=seed))

    @pytest.mark.parametrize("mode", ["cloned-source"])
    @pytest.mark.parametrize("side", SIDES, ids=side_id)
    def test_other_modes_match(self, side, mode):
        for seed in SEEDS:
            assert_kernel_matches_engine(make_config(side, seed=seed, mode=mode))

    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    def test_polarizer_at_angles_shifted_by_multiples_of_pi(self, mode, fmod_calls):
        # Each optimal angle moved by a different multiple of pi: the left
        # wing's |theta - a| reach past 2 pi, so the kernel's pass test takes
        # its fmod fallback there and the four comparisons alone on the
        # right wing, while the engine's stations take the scalar path.
        angles = AngleConfig(
            *(a + k * math.pi for a, k in zip(OPTIMAL_ANGLES.as_tuple(), SHIFTS))
        )
        side = {"kind": "strategy", "strategy": "classical-polarizer", "params": {}}
        for seed in SEEDS:
            fmod_calls.clear()
            assert_kernel_matches_engine(make_config(side, seed=seed, mode=mode, angles=angles))
            assert len(fmod_calls) == 1  # the left wing's, in the kernel

    def test_pi_third_angles_quantum(self):
        config = make_config(
            {"kind": "quantum", "correlation_sense": "equal-polarization"},
            angles=PI_THIRD_ANGLES,
            seed=17,
        )
        assert_kernel_matches_engine(config)


class TestAcrossWidthBlocks:
    # 10 001 trials: m reaches five digits, and the log's last width block
    # starts at the 10 000 edge.
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("side", DEFAULT_SIDES, ids=side_id)
    def test_kernel_matches_engine_and_reads_back(self, tmp_path, side, mode):
        config = make_config(side, n=10_001, seed=23, mode=mode, critical_value=400)
        kernel_result = simulate_result(config)
        engine_result = RefereeEngine(config).run()
        assert kernel_result.log.to_bytes() == engine_result.log.to_bytes()
        assert build_report(kernel_result) == build_report(engine_result)
        path = tmp_path / "wide.log"
        kernel_result.log.write(path)
        header, log, validation = read_log(path)
        assert validation.ok and header == kernel_result.header
        columns = simulate_run(config.side, config.angles, config.n, config.seed, config.mode)
        for got, want in zip(log.columns(), columns, strict=True):
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)


class TestBatchHelpers:
    def test_simulate_many_matches_single_runs(self):
        side = SideSpec(kind="strategy", strategy="adaptive-frequency-tracker")
        seeds = list(range(40, 55))
        finals, sups = simulate_many(side, OPTIMAL_ANGLES, 250, seeds)
        for idx, seed in enumerate(seeds):
            cells, x, y = simulate_run(side, OPTIMAL_ANGLES, 250, seed)
            path = np.cumsum(np.where(x == y, np.where(cells == 1, 1, -1), 0))
            assert finals[idx] == path[-1]
            assert sups[idx] == path.max()
            trace = StatisticTrace.from_columns(cells, x, y)
            assert (finals[idx], sups[idx]) == (trace.statistic, trace.sup)

    @pytest.mark.parametrize(
        "n, seeds",
        [
            (2000, range(40, 60)),  # 16 runs per scan: a full block, then 4
            (5000, np.arange(3, 12, dtype=np.uint64)),  # 6 runs per scan, then 3
            (2**15 + 1, [7, 8]),  # one run per scan
            (0, [1, 2]),
            (0, []),
            (250, []),
        ],
        ids=["partial-last-block", "array-seeds", "one-row", "no-trials", "nothing", "no-seeds"],
    )
    @pytest.mark.parametrize("name", LOCAL_STRATEGY_NAMES)
    def test_block_scan_matches_per_seed_traces(self, name, n, seeds):
        side = SideSpec(kind="strategy", strategy=name)
        finals, sups = simulate_many(side, OPTIMAL_ANGLES, n, seeds)
        traces = [
            StatisticTrace.from_columns(*simulate_run(side, OPTIMAL_ANGLES, n, int(seed)))
            for seed in seeds
        ]
        assert finals.dtype == sups.dtype == np.int64
        assert finals.tolist() == [trace.statistic for trace in traces]
        assert sups.tolist() == [trace.sup for trace in traces]

    @pytest.mark.parametrize("n", [0, 5])
    def test_unknown_strategy_rejected(self, n):
        # The range violator has no local whole-run rule, not even for an
        # empty run.
        side = SideSpec(kind="strategy", strategy="range-violator")
        with pytest.raises(StrategyError):
            simulate_run(side, OPTIMAL_ANGLES, n, 1)
        with pytest.raises(StrategyError):
            simulate_many(side, OPTIMAL_ANGLES, n, [1])

    def test_trial_count_past_the_cap_refused(self):
        # The scan's int32 running sums are exact up to MAX_TRIALS < 2**31.
        side = SideSpec(kind="strategy", strategy="constant")
        with pytest.raises(ValueError, match="at most"):
            simulate_many(side, OPTIMAL_ANGLES, MAX_TRIALS + 1, [1])
