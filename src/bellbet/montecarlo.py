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

from .config import SIDE_QUANTUM, ExperimentConfig, SideSpec
from .core import AngleConfig, setting_indices
from .logfile import TrialLog
from .quantum import OracleSampler, QuantumModel
from .referee import RunResult, StatisticTrace, log_header
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


def simulate_many(
    side: SideSpec,
    angles: AngleConfig,
    n: int,
    seeds,
) -> tuple[np.ndarray, np.ndarray]:
    """Final and supremum statistics over a batch of experiment seeds."""
    finals = np.empty(len(seeds), dtype=np.int64)
    sups = np.empty(len(seeds), dtype=np.int64)
    for idx, seed in enumerate(seeds):
        trace = StatisticTrace.from_columns(*simulate_run(side, angles, n, int(seed)))
        finals[idx] = trace.statistic
        sups[idx] = trace.sup
    return finals, sups


def simulate_result(config: ExperimentConfig) -> RunResult:
    """A RunResult equal to what the referee engine produces for this config
    (the equality is pinned by contract tests)."""
    cells, x, y = simulate_run(config.side, config.angles, config.n, config.seed, config.mode)
    i, j = setting_indices(cells)
    return RunResult(
        log=TrialLog.from_columns(log_header(config), i, j, x, y),
        design=config.design,
        abort=None,
    )
