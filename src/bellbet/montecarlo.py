"""Whole-run simulation: the engine's trials, computed a column at a time.

For every built-in honest participant each trial is a fixed function of the
per-role draw buffers and the settings (an adaptive source that conditions
on past *settings* only still vectorizes across trials). Each participant
therefore owns a columnar rule beside its per-trial one:
``Strategy.respond_columns`` for the strategies and
``OracleSampler.sample_columns`` for the quantum oracle. This module only
draws the settings and calls that rule, so it reproduces, value for value,
the trials the referee engine commits for the same experiment seed; the
contract is pinned by tests that compare logs byte for byte. It keeps
multi-thousand-run Monte-Carlo validations of the concentration bounds inside
their runtime budgets, and ``bellbet run`` settles a built-in side (the
quantum oracle or a strategy in ``LOCAL_STRATEGY_NAMES``) with
``simulate_result``, which costs a small fraction of the engine's per-trial
loop for the same bytes.

Trust boundary: a columnar rule sees both wings' settings of every trial at
once, so it is used only for built-in code that those contract tests tie to
the engine. ``serve``, the stations, replay, a strategy object handed to the
engine (as the API allows) and ``range-violator`` all run through the
referee engine, which reveals each station only its own setting.
"""

from __future__ import annotations

import numpy as np

from .bounds import MAX_TRIALS
from .config import SIDE_QUANTUM, ExperimentConfig, SideSpec
from .core import AngleConfig
from .logfile import TrialLog
from .quantum import OracleSampler, QuantumModel
from .referee import RunResult, log_header, statistic_deltas
from .rng import settings_cells
from .strategies import build_strategy


def simulate_run(
    side: SideSpec, angles: AngleConfig, n: int, seed: int, mode: str = "sequential"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full experiment's (cells, x, y) columns for any honest participant.

    Cells are the uint8 setting codes 0..3, x and y the uint8 outcome bits.
    A strategy without a local whole-run rule raises ``StrategyError`` (a
    ``ValueError``).
    """
    cells = settings_cells(seed, n)
    if side.kind == SIDE_QUANTUM:
        oracle = OracleSampler(QuantumModel(angles, side.correlation_sense), seed, n)
        x, y = oracle.sample_columns(cells)
    else:
        strategy = build_strategy(side.strategy, side.params)
        strategy.prepare(seed=seed, n=n, angles=angles, mode=mode)
        x, y = strategy.respond_columns(cells)
    return cells, x, y


# Trials settled by one scan in ``simulate_many``: its int32 running sums
# then take at most 128 KiB, glibc's default mmap threshold, so the scan
# leaves the threshold, and with it the serving of later large buffers, as
# it found them.
_SCAN_TRIALS = 2**15


def simulate_many(
    side: SideSpec,
    angles: AngleConfig,
    n: int,
    seeds,
) -> tuple[np.ndarray, np.ndarray]:
    """Final and supremum statistics over a batch of experiment seeds.

    Each seed's run comes from ``simulate_run`` and equals the per-seed
    ``StatisticTrace.from_columns(*simulate_run(...))`` values. The runs are
    copied into (rows, n) uint8 blocks of about ``_SCAN_TRIALS`` trials, and
    a block is settled in one pass: the trace's mask rule gives every
    increment, one int32 running sum along the trial axis gives S_m for all
    rows, S_n is its last row and sup S_m its column maxima. int32 is exact
    since |S_m| <= n <= ``MAX_TRIALS`` < 2**31; a larger n is a
    ``ValueError``. At n = 2 000 one scan settles 16 runs, which saves most
    of the fixed cost of settling each run alone. A side with no whole-run
    rule raises ``StrategyError`` for any seed, n = 0 included.
    """
    if n > MAX_TRIALS:
        raise ValueError(f"n must be at most {MAX_TRIALS}, got {n}")
    finals = np.zeros(len(seeds), dtype=np.int64)
    sups = np.zeros(len(seeds), dtype=np.int64)
    rows = max(1, _SCAN_TRIALS // max(n, 1))
    cells, x, y = np.empty((3, rows, n), dtype=np.uint8)
    for start in range(0, len(seeds), rows):
        block = seeds[start : start + rows]
        for row, seed in enumerate(block):
            cells[row], x[row], y[row] = simulate_run(side, angles, n, int(seed))
        if n:
            k = len(block)
            deltas = statistic_deltas(cells[:k], x[:k], y[:k])
            running = np.cumsum(deltas.T, axis=0, dtype=np.int32)
            finals[start : start + k] = running[-1]
            sups[start : start + k] = running.max(axis=0)
    return finals, sups


def simulate_result(config: ExperimentConfig) -> RunResult:
    """A RunResult equal to what the referee engine produces for this config
    (the equality is pinned by contract tests)."""
    cells, x, y = simulate_run(config.side, config.angles, config.n, config.seed, config.mode)
    return RunResult(
        log=TrialLog.from_columns(log_header(config), cells, x, y),
        design=config.design,
        abort=None,
    )
