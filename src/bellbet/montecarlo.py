"""Vectorized whole-run simulation kernels.

For the built-in participants, every trial is a fixed function of the
per-role draw buffers (the adaptive tracker conditions on past *settings*
only, so even it vectorizes across trials). These kernels therefore
reproduce, value for value, the trials the referee engine commits for the
same experiment seed; the contract is pinned by tests that compare logs
byte for byte. They exist so that multi-thousand-run Monte-Carlo validations
of the concentration bounds stay inside their runtime budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import design_for
from .config import SIDE_QUANTUM, ExperimentConfig, SideSpec
from .core import AngleConfig, CountMatrix, Setting
from .logfile import TrialLog
from .quantum import QuantumModel, cell_coincidence_probability
from .referee import (
    LogHeader,
    RunResult,
    StatisticTrace,
    adjudicate,
)
from .rng import (
    ROLE_LEFT,
    ROLE_ORACLE,
    ROLE_RIGHT,
    ROLE_SOURCE,
    TrialUniforms,
    settings_cells,
)
from .strategies import (
    ASSIGNMENT_VALUES,
    ClassicalPolarizerStrategy,
    ConstantStrategy,
    DeterministicOptimalStrategy,
    _assignment_bits,
    angular_distance,
    best_deterministic_assignment,
)

_ASSIGN_X1 = np.array([_assignment_bits(k)[0] for k in range(16)], dtype=np.uint8)
_ASSIGN_X2 = np.array([_assignment_bits(k)[1] for k in range(16)], dtype=np.uint8)
_ASSIGN_Y1 = np.array([_assignment_bits(k)[2] for k in range(16)], dtype=np.uint8)
_ASSIGN_Y2 = np.array([_assignment_bits(k)[3] for k in range(16)], dtype=np.uint8)


@dataclass
class SimulatedRun:
    """Full per-trial arrays of one simulated experiment."""

    cells: np.ndarray  # int64 codes 0..3
    x: np.ndarray      # uint8 bits
    y: np.ndarray

    @property
    def i(self) -> np.ndarray:
        return ((self.cells >> 1) + 1).astype(np.uint8)

    @property
    def j(self) -> np.ndarray:
        return ((self.cells & 1) + 1).astype(np.uint8)

    def deltas(self) -> np.ndarray:
        coincide = self.x == self.y
        return np.where(coincide, np.where(self.cells == 1, 1, -1), 0).astype(np.int8)

    def statistic_path(self) -> np.ndarray:
        return np.cumsum(self.deltas(), dtype=np.int64)

    def final_statistic(self) -> int:
        return int(self.deltas().sum(dtype=np.int64))

    def sup_statistic(self) -> int:
        path = self.statistic_path()
        return int(path.max()) if path.size else 0


def _quantum_run(angles: AngleConfig, correlation_sense: str, n: int, seed: int) -> SimulatedRun:
    model = QuantumModel(angles, correlation_sense)
    cells = settings_cells(seed, n)
    u = TrialUniforms(seed, ROLE_ORACLE, n).values
    # Same four scalars as the per-trial sampler, then the same comparisons.
    cell_probs = np.array(
        [cell_coincidence_probability(model, Setting.from_cell(v)) for v in range(4)]
    )
    c = cell_probs[cells]
    coincide = u < c
    x = np.where(coincide, u >= 0.5 * c, u >= 0.5 * (1.0 + c)).astype(np.uint8)
    y = np.where(coincide, x, 1 - x).astype(np.uint8)
    return SimulatedRun(cells, x, y)


def _constant_run(n: int, seed: int, bit: int) -> SimulatedRun:
    cells = settings_cells(seed, n)
    fixed = np.full(n, bit, dtype=np.uint8)
    return SimulatedRun(cells, fixed, fixed.copy())


def _coin_run(n: int, seed: int) -> SimulatedRun:
    cells = settings_cells(seed, n)
    x = (TrialUniforms(seed, ROLE_LEFT, n).values < 0.5).astype(np.uint8)
    y = (TrialUniforms(seed, ROLE_RIGHT, n).values < 0.5).astype(np.uint8)
    return SimulatedRun(cells, x, y)


def _polarizer_run(angles: AngleConfig, n: int, seed: int) -> SimulatedRun:
    cells = settings_cells(seed, n)
    theta = np.pi * TrialUniforms(seed, ROLE_SOURCE, n).values
    i = (cells >> 1) + 1
    j = (cells & 1) + 1
    left_analyzer = np.where(i == 1, angles.alpha1, angles.alpha2)
    right_analyzer = np.where(j == 1, angles.beta1, angles.beta2)
    quarter = np.pi / 4.0
    x = (angular_distance(theta, left_analyzer) < quarter).astype(np.uint8)
    y = (angular_distance(theta, right_analyzer) < quarter).astype(np.uint8)
    return SimulatedRun(cells, x, y)


@lru_cache(maxsize=1)
def _optimal_assignment() -> int:
    return best_deterministic_assignment()


def _deterministic_run(n: int, seed: int) -> SimulatedRun:
    cells = settings_cells(seed, n)
    k = _optimal_assignment()
    x1, x2, y1, y2 = _assignment_bits(k)
    i1 = (cells >> 1) == 0
    j1 = (cells & 1) == 0
    x = np.where(i1, x1, x2).astype(np.uint8)
    y = np.where(j1, y1, y2).astype(np.uint8)
    return SimulatedRun(cells, x, y)


def _adaptive_run(n: int, seed: int, mode: str) -> SimulatedRun:
    """The tracker's assignment at trial m is a pure function of the joint
    settings of trials 1..m-1 (integer argmax scores), so the whole sequence
    vectorizes: cumulative one-hot counts, one (n,16) score matrix, argmax."""
    cells = settings_cells(seed, n)
    if mode == "sequential":
        onehot = np.zeros((n, 4), dtype=np.int64)
        onehot[np.arange(n), cells] = 1
        counts_before = np.zeros((n, 4), dtype=np.int64)
        counts_before[1:] = np.cumsum(onehot[:-1], axis=0)
    else:
        # Cloned-source and batch: the source sees an empty history.
        counts_before = np.zeros((n, 4), dtype=np.int64)
    scores = counts_before @ ASSIGNMENT_VALUES.T
    k = np.argmax(scores, axis=1)
    i1 = (cells >> 1) == 0
    j1 = (cells & 1) == 0
    x = np.where(i1, _ASSIGN_X1[k], _ASSIGN_X2[k])
    y = np.where(j1, _ASSIGN_Y1[k], _ASSIGN_Y2[k])
    return SimulatedRun(cells, x.astype(np.uint8), y.astype(np.uint8))


def simulate_run(
    side: SideSpec, angles: AngleConfig, n: int, seed: int, mode: str = "sequential"
) -> SimulatedRun:
    """One full experiment's trials for any built-in honest participant."""
    if side.kind == SIDE_QUANTUM:
        return _quantum_run(angles, side.correlation_sense, n, seed)
    name = side.strategy
    if name == "constant":
        return _constant_run(n, seed, ConstantStrategy(**dict(side.params)).bit)
    if name == "independent-coin":
        return _coin_run(n, seed)
    if name == "classical-polarizer":
        ClassicalPolarizerStrategy(**dict(side.params))  # validate params
        return _polarizer_run(angles, n, seed)
    if name == "deterministic-optimal":
        DeterministicOptimalStrategy(**dict(side.params))
        return _deterministic_run(n, seed)
    if name == "adaptive-frequency-tracker":
        return _adaptive_run(n, seed, mode)
    raise ValueError(f"no simulation kernel for strategy {name!r}")


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
        run = simulate_run(side, angles, n, int(seed))
        path = run.statistic_path()
        finals[idx] = path[-1] if path.size else 0
        sups[idx] = path.max() if path.size else 0
    return finals, sups


def simulate_result(config: ExperimentConfig) -> RunResult:
    """A RunResult equal to what the referee engine produces for this config
    (the equality is pinned by contract tests)."""
    run = simulate_run(config.side, config.angles, config.n, config.seed, config.mode)
    header = LogHeader(
        config_hash=config.config_hash(),
        seed=config.seed,
        mode=config.mode,
        angles=config.angles.as_tuple(),
        n=config.n,
        critical_value=config.critical_value,
    )
    log = TrialLog.from_columns(header, run.i, run.j, run.x, run.y)
    counts = CountMatrix.from_columns(run.cells, run.x, run.y)
    trace = StatisticTrace.from_columns(run.cells, run.x, run.y)
    design = design_for(config.n, config.critical_value, config.qm_mean_per_trial)
    verdict = adjudicate(trace, design)
    return RunResult(
        header=header,
        log=log,
        counts=counts,
        trace=trace,
        design=design,
        verdict=verdict,
        abort=None,
    )
