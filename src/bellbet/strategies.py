"""Local hidden-variable strategies and the station/source interface.

A strategy plays three roles in the protocol diagram A -> X <- O -> Y <- B:
the source O (which emits one hidden message per trial *before* that trial's
settings are revealed anywhere), and the two stations X and Y. Locality is
structural: ``station_respond`` receives only the station's own setting, the
source message and the station's own memory, so there is no channel through
which one wing can read the other wing's setting or outcome. Between trials
the referee broadcasts the completed trial (plus optional opaque blobs), and
stations fold it into their memory.

Each honest strategy also answers a whole run at once, in
``respond_columns``, from the same seeded streams ``prepare`` binds. A
role's values are drawn with one array call, the first time they are read,
so a station process draws only the streams its own wing reads. The
Monte-Carlo kernels run that rule; a contract test over the registry checks
it against the engine byte for byte.

Built-in roster: constant, independent-coin, classical-polarizer,
deterministic-optimal, adaptive-frequency-tracker, plus one deliberately
ill-behaved strategy used by validation tests: range-violator (emits reals
in [-sqrt(2*pi), sqrt(2*pi)] instead of bits). A participant that needs
both settings has no place here: ``station_respond``'s signature cannot
express it.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Any, ClassVar, Mapping, NamedTuple, Sequence

import numpy as np

from .core import CELL_WEIGHTS, AngleConfig, TrialRecord, setting_indices
from .rng import ROLE_LEFT, ROLE_RIGHT, ROLE_SOURCE, TrialUniforms

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)

LOCAL = "local"
RANGE_VIOLATING = "range-violating"

# Outcome-range flaw: the broken model's raw outputs live in this interval.
OUTCOME_RANGE_HALF_WIDTH = math.sqrt(2.0 * math.pi)


class StrategyError(ValueError):
    """Strategy construction or usage violates the protocol rules."""


class SourceMessage(NamedTuple):
    """The hidden variable: one opaque payload, identical copy to both wings.

    The referee hands the one message the source emitted to both stations;
    a station treats it as read-only. A named tuple, as the source emits one
    per trial; a source whose message repeats hands back one instance."""

    payload: bytes


_EMPTY_MESSAGE = SourceMessage(b"")


@dataclass(frozen=True, slots=True)
class StationMemory:
    """Base per-station state, updated only at trial boundaries.

    ``next_trial`` is the 1-based index of the upcoming trial; strategies use
    it to index their per-trial draw buffers, which keeps responses pure
    functions of (own setting, message, memory).
    """

    next_trial: int = 1


NO_BLOBS: Mapping[str, bytes] = MappingProxyType({})


class TrialView(NamedTuple):
    """What one station learns about a completed trial at the boundary.

    In cloned-source mode the other wing's setting and outcome are withheld
    (fields are None) and no side-channel blobs are relayed.

    A named tuple rather than a frozen dataclass: the referee builds two per
    trial, and a tuple is built in about a third of the time.
    """

    m: int
    own_setting: int
    own_outcome: int
    other_setting: int | None = None
    other_outcome: int | None = None
    blobs: Mapping[str, bytes] = NO_BLOBS


def _wing_uniforms(seed: int, n: int) -> dict[str, TrialUniforms]:
    """Each wing's own seeded stream of n uniforms, keyed by side."""
    return {LEFT: TrialUniforms(seed, ROLE_LEFT, n), RIGHT: TrialUniforms(seed, ROLE_RIGHT, n)}


def wing_column(side: str, setting_index):
    """Where a wing's setting index falls among the four per-wing entries
    ordered (left 1, left 2, right 1, right 2): the bits (x1, x2, y1, y2) of
    an assignment and the angles (alpha1, alpha2, beta1, beta2) of
    ``AngleConfig.as_tuple``. Elementwise on index arrays."""
    return setting_index - 1 if side == LEFT else setting_index + 1


# Each wing's column for cell codes 0..3, the whole-run form of wing_column:
# [0, 0, 1, 1] on the left and [2, 3, 2, 3] on the right.
_CELL_COLUMNS = dict(zip(SIDES, map(wing_column, SIDES, setting_indices(np.arange(4)))))

# Deterministic assignment k in 0..15 -> bits (x1, x2, y1, y2), one row per k.
ASSIGNMENT_BITS = np.array(
    [[(k >> 3) & 1, (k >> 2) & 1, (k >> 1) & 1, k & 1] for k in range(16)], dtype=np.uint8
)
ASSIGNMENT_BITS.flags.writeable = False

# _ANSWERS[side][4*k + cell] = the bit that wing answers under assignment k
# when cell is drawn: ASSIGNMENT_BITS at the wing's column, flattened so a
# whole run reads it with one index per trial.
_ANSWERS = {side: ASSIGNMENT_BITS[:, _CELL_COLUMNS[side]].ravel() for side in SIDES}

# values[k, cell] = statistic increment when cell is drawn and both stations
# answer per deterministic assignment k (cell codes 11, 12, 21, 22).
ASSIGNMENT_VALUES = (_ANSWERS[LEFT] == _ANSWERS[RIGHT]).reshape(16, 4) * np.array(
    CELL_WEIGHTS, dtype=np.int64
)
ASSIGNMENT_VALUES.flags.writeable = False

# A row sum is the CHSH slack of that assignment's point mass; the first
# maximizer in enumeration order (the maximum slack is exactly 0).
OPTIMAL_ASSIGNMENT = int(np.argmax(ASSIGNMENT_VALUES.sum(axis=1)))

# The one-byte source message naming each assignment, built once.
_ASSIGNMENT_MESSAGES = tuple(SourceMessage(bytes([k])) for k in range(16))

# SCORE_COLUMNS[cell][k] = ASSIGNMENT_VALUES[k, cell]: what one trial drawn
# in that cell adds to the adaptive tracker's score for assignment k, as
# plain ints for its per-trial step and as one array for rescoring a history
# and, through _KEY_TABLE, for its whole-run rule.
SCORE_COLUMNS = tuple(tuple(column) for column in ASSIGNMENT_VALUES.T.tolist())
_SCORE_TABLE = np.array(SCORE_COLUMNS, dtype=np.int64)
_SCORE_TABLE.flags.writeable = False

# Assignment 15 - k flips every bit of k, so it agrees in the same cells and
# has the same score column: the first maximizer is always below 8.
assert (_SCORE_TABLE == _SCORE_TABLE[:, ::-1]).all()

# The whole-run rule ranks k = 0..7 by the key 8 * score - k: the largest key
# is the first maximizer, and k = (-key) & 7. _KEY_TABLE[cell, k] is 8 times
# the score column, so keys are cell counts times it, less _TIE_BREAKS. In
# int64 they stay exact for any n up to bounds.MAX_TRIALS (|key| < 8n + 8).
_KEY_TABLE = 8 * _SCORE_TABLE[:, :8]
_TIE_BREAKS = np.arange(8)[:, None]
_CELL_CODES = np.arange(4, dtype=np.uint8)[:, None]


def _double_at_most(value: Fraction) -> float:
    """The largest double at or below the real ``value``."""
    x = float(value)  # the nearest double, so at most one step off
    return x if Fraction(x) <= value else math.nextafter(x, -math.inf)


def _double_at_least(value: Fraction) -> float:
    """The smallest double at or above the real ``value``."""
    x = float(value)
    return x if Fraction(x) >= value else math.nextafter(x, math.inf)


# The polarizer's pass test on d = |theta - a| compares d with four
# constants, each rounded once from exact arithmetic on pi = math.pi; see
# polarizer_passes.
_PI = Fraction(math.pi)
_PASS_BELOW = math.pi / 4.0  # Q = pi/4, exact
_FAIL_UP_TO = _double_at_most(_PI - _PI / 4)  # B
_FAIL_FROM = _double_at_least(_PI + _PI / 4)  # C
_PASS_ABOVE = _double_at_most(2 * _PI - _PI / 4)  # D


def _passes_at(d: np.ndarray) -> np.ndarray:
    """``polarizer_passes`` on an array of distances d = |theta - a|, which
    it may overwrite: for d < 2 pi, (d < Q) | ((d > B) & (d < C)) | (d > D).
    An array with a d of 2 pi or more, or a NaN, is first reduced mod pi by
    ``np.fmod``, exactly, and then the same comparisons hold."""
    if not d.max(initial=0.0) < math.tau:
        np.fmod(d, math.pi, out=d)
    passes = d < _PASS_BELOW
    passes |= (d > _FAIL_UP_TO) & (d < _FAIL_FROM)
    passes |= d > _PASS_ABOVE
    return passes


def polarizer_passes(theta, analyzer):
    """The threshold polarizer's answer: passes iff the analyzer lies within
    pi/4 of the polarization theta, modulo pi. Elementwise on arrays, and
    the caller's arrays are left unchanged.

    The rule, with pi the double ``math.pi``: for d = |theta - a| and its
    remainder d' = d mod pi, pass iff min(d', pi - d') < pi/4 as IEEE
    doubles. The remainder is exact, by Python's ``%`` or ``np.fmod``, and
    so is d - pi for pi <= d < 2 pi: Sterbenz's lemma makes x - y exact for
    y/2 <= x <= 2y. For the same reason pi - d' is exact when d' >= pi/2,
    and when d' < pi/2 it rounds to at least pi/2, never below pi/4. So
    the rule holds exactly when d' < pi/4 or d' > pi - pi/4 as real
    numbers, and for d < 2 pi, where d' is d or d - pi, exactly when

        d < Q  or  B < d < C  or  d > D,

    with Q = pi/4 (exact), B the largest double <= pi - pi/4, C the
    smallest double >= pi + pi/4 and D the largest double <= 2 pi - pi/4.
    A float takes d' by ``%`` and tests d' < Q or d' > B; an array with
    every d below 2 pi makes the four comparisons with no remainder at all.
    """
    d = abs(theta - analyzer)
    if isinstance(d, np.ndarray):
        return _passes_at(d)
    d %= math.pi
    return d < _PASS_BELOW or d > _FAIL_UP_TO


class Strategy:
    """Base class for local hidden-variable strategies.

    Lifecycle: construct with parameters, then ``prepare(...)`` binds the
    experiment context (seed, n, angles, mode) and the per-role streams; a
    role's values are drawn with one array call, the first time they are
    read. All responses are deterministic given the seed and the history,
    which makes runs reproducible and stations cloneable: evaluating both
    settings on identical (message, memory) is well defined.
    """

    name: ClassVar[str] = ""
    locality_class: ClassVar[str] = LOCAL

    def __init__(self) -> None:
        self.seed: int | None = None
        self.n = 0
        self.angles: AngleConfig | None = None
        self.mode = "sequential"

    def prepare(self, *, seed: int, n: int, angles: AngleConfig, mode: str) -> None:
        self.seed = seed
        self.n = n
        self.angles = angles
        self.mode = mode

    def _require_prepared(self) -> None:
        if self.seed is None:
            raise StrategyError(f"strategy {self.name!r} used before prepare()")

    # --- source role ---------------------------------------------------

    def source_emit(self, m: int, history: Sequence[TrialRecord]) -> SourceMessage:
        """Hidden message for trial m. ``history`` holds all committed trials
        in sequential mode and is empty in cloned-source mode."""
        return _EMPTY_MESSAGE

    # --- station role --------------------------------------------------

    def initial_memory(self, side: str) -> StationMemory:
        return StationMemory()

    def station_respond(
        self, side: str, setting_index: int, message: SourceMessage, memory: StationMemory
    ):
        """This station's raw outcome for the current trial.

        Honest strategies return a bit; the referee validates whatever comes
        back. The signature is the locality guarantee: the other wing's
        setting and outcome are not parameters.
        """
        raise NotImplementedError

    def respond_columns(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both stations' outcome bits (uint8) for a whole run at once.

        ``cells`` holds the run's joint-setting codes 0..3 for trials 1..n.
        The answers must equal, value for value, what ``station_respond``
        gives the engine for the same prepared experiment and mode; the
        registry-wide contract test compares logs byte for byte. Strategies
        without a local whole-run rule refuse.
        """
        raise StrategyError(f"strategy {self.name!r} has no local whole-run rule")

    def update_memory(self, side: str, memory: StationMemory, view: TrialView) -> StationMemory:
        """Fold the completed trial into this station's memory."""
        if type(memory) is StationMemory:
            return StationMemory(memory.next_trial + 1)
        return replace(memory, next_trial=memory.next_trial + 1)  # keeps subclass fields

    def boundary_blob(self, side: str, m: int) -> bytes:
        """Opaque side-channel payload exchanged (via the referee) at the
        trial boundary. Built-ins send nothing."""
        return b""


class ConstantStrategy(Strategy):
    """Both stations always answer the same fixed bit ("always pass")."""

    name = "constant"

    def __init__(self, bit: int = 1):
        super().__init__()
        if type(bit) is not int or bit not in (0, 1):  # refuses 1.0 and True
            raise StrategyError(f"constant bit must be 0 or 1, got {bit!r}")
        self.bit = bit

    def station_respond(self, side, setting_index, message, memory):
        return self.bit

    def respond_columns(self, cells):
        fixed = np.full(len(cells), self.bit, dtype=np.uint8)
        return fixed, fixed.copy()


class IndependentCoinStrategy(Strategy):
    """Each station answers an independent fair coin each trial."""

    name = "independent-coin"

    def prepare(self, *, seed, n, angles, mode):
        super().prepare(seed=seed, n=n, angles=angles, mode=mode)
        self._coins = _wing_uniforms(seed, n)

    def station_respond(self, side, setting_index, message, memory):
        self._require_prepared()
        return int(self._coins[side].at(memory.next_trial) < 0.5)

    def respond_columns(self, cells):
        self._require_prepared()
        return tuple((self._coins[side].values < 0.5).astype(np.uint8) for side in SIDES)


class ClassicalPolarizerStrategy(Strategy):
    """Shared polarization angle plus a threshold polarizer at each wing.

    The source draws theta uniform on [0, pi) and sends it to both stations;
    a station passes (answers 1) iff its analyzer lies within pi/4 of theta,
    distance taken modulo pi. Coincidence probability between analyzers at
    distance d is 1 - 2d/pi (the classical triangle law).
    """

    name = "classical-polarizer"

    def prepare(self, *, seed, n, angles, mode):
        super().prepare(seed=seed, n=n, angles=angles, mode=mode)
        self._polarizations = TrialUniforms(seed, ROLE_SOURCE, n)
        self._analyzers = angles.as_tuple()

    def source_emit(self, m, history):
        self._require_prepared()
        theta = math.pi * self._polarizations.at(m)
        return SourceMessage(struct.pack("<d", theta))

    def station_respond(self, side, setting_index, message, memory):
        self._require_prepared()
        try:
            theta = struct.unpack("<d", message.payload)[0]
        except struct.error as exc:
            raise StrategyError(f"unreadable polarization payload {message.payload!r}") from exc
        return int(polarizer_passes(theta, self._analyzers[wing_column(side, setting_index)]))

    def respond_columns(self, cells):
        self._require_prepared()
        theta = math.pi * self._polarizations.values
        analyzers = np.array(self._analyzers)
        bits = []
        for side in SIDES:
            # d = |theta - a| in the analyzer column gathered for this wing.
            d = analyzers[_CELL_COLUMNS[side]].take(cells)
            np.subtract(theta, d, out=d)
            bits.append(_passes_at(np.abs(d, out=d)).view(np.uint8))
        return tuple(bits)


class AssignmentStrategy(Strategy):
    """Both stations answer per a deterministic assignment, a row of
    ``ASSIGNMENT_BITS`` whose index the source sends as a one-byte message.

    Subclasses only choose the assignment: per trial in ``source_emit`` and
    for a whole run in ``assignments``.
    """

    def assignments(self, cells: np.ndarray):
        """Assignment index per trial of a whole run (or one for every trial)."""
        raise NotImplementedError

    def station_respond(self, side, setting_index, message, memory):
        try:
            return ASSIGNMENT_BITS.item(message.payload[0], wing_column(side, setting_index))
        except IndexError as exc:
            raise StrategyError(f"unreadable assignment payload {message.payload!r}") from exc

    def respond_columns(self, cells):
        self._require_prepared()
        at = 4 * self.assignments(cells) + cells
        return _ANSWERS[LEFT].take(at), _ANSWERS[RIGHT].take(at)


class DeterministicOptimalStrategy(AssignmentStrategy):
    """Fixed deterministic assignment maximizing the CHSH slack.

    ``OPTIMAL_ASSIGNMENT`` is the first of the 16 assignments with the largest
    slack; the maximum is exactly 0, so this strategy has zero drift, the
    best any local model can do.
    """

    name = "deterministic-optimal"

    def source_emit(self, m, history):
        return _ASSIGNMENT_MESSAGES[OPTIMAL_ASSIGNMENT]

    def assignments(self, cells):
        return OPTIMAL_ASSIGNMENT


class AdaptiveFrequencyTracker(AssignmentStrategy):
    """Re-picks the deterministic assignment before every trial.

    The source scores each of the 16 assignments by the integer sum over
    cells of (times that cell was drawn so far) * (assignment's statistic
    increment in that cell) and plays the first argmax, so it chases
    whichever zero-slack assignment best fits the observed setting
    imbalance. Integer scores keep the rule exactly reproducible across
    implementations; both paths read them from ``SCORE_COLUMNS``: the
    per-trial step adds one column to 16 plain-int scores, the whole-run
    rule weighs running cell counts by the same table in ``choose_assignment``.
    """

    name = "adaptive-frequency-tracker"

    def __init__(self):
        super().__init__()
        self._reset_scores()

    def prepare(self, *, seed, n, angles, mode):
        super().prepare(seed=seed, n=n, angles=angles, mode=mode)
        self._reset_scores()

    def _reset_scores(self) -> None:
        self._scores = [0] * 16
        self._scored = 0  # trials of history folded into _scores

    @staticmethod
    def choose_assignment(cell_counts: np.ndarray) -> np.ndarray:
        """First argmax assignment per column of a (4, n) int64 stack of cell
        counts: the largest key 8 * score - k over k = 0..7, in exact integer
        arithmetic with no BLAS call."""
        keys = np.einsum("ck,cn->kn", _KEY_TABLE, cell_counts)
        keys -= _TIE_BREAKS
        return -keys.max(axis=0) & 7

    def source_emit(self, m, history):
        # One step per trial: the log grew by its last trial since the
        # previous call. Any other history is scored afresh.
        seen = len(history)
        if seen == self._scored + 1:
            column = SCORE_COLUMNS[history[-1].setting.cell]
            self._scores = list(map(operator.add, self._scores, column))
        elif seen != self._scored:
            cells = np.fromiter((record.setting.cell for record in history), np.int64, seen)
            self._scores = (np.bincount(cells, minlength=4) @ _SCORE_TABLE).tolist()
        self._scored = seen
        scores = self._scores
        return _ASSIGNMENT_MESSAGES[scores.index(max(scores))]

    def assignments(self, cells):
        """The assignment at trial m is a pure function of the joint settings
        of trials 1..m-1, so a whole run vectorizes: per-cell running counts
        along the trial axis, then one choice per trial. A cloned-source
        source sees an empty history, so every count is 0."""
        counts = np.zeros((4, len(cells)), dtype=np.int64)
        if self.mode == "sequential":
            np.cumsum(cells[:-1] == _CELL_CODES, axis=1, dtype=np.int64, out=counts[:, 1:])
        return self.choose_assignment(counts)


class RangeViolatorStrategy(Strategy):
    """Emits reals in [-sqrt(2*pi), sqrt(2*pi)] instead of bits.

    Models the outcome-range flaw the referee's validator exists to catch;
    any run aborts at the first validated outcome.
    """

    name = "range-violator"
    locality_class = RANGE_VIOLATING

    def prepare(self, *, seed, n, angles, mode):
        super().prepare(seed=seed, n=n, angles=angles, mode=mode)
        self._values = _wing_uniforms(seed, n)

    def station_respond(self, side, setting_index, message, memory):
        self._require_prepared()
        u = self._values[side].at(memory.next_trial)
        return OUTCOME_RANGE_HALF_WIDTH * (2.0 * u - 1.0)


STRATEGY_REGISTRY: dict[str, type[Strategy]] = {
    cls.name: cls
    for cls in (
        ConstantStrategy,
        IndependentCoinStrategy,
        ClassicalPolarizerStrategy,
        DeterministicOptimalStrategy,
        AdaptiveFrequencyTracker,
        RangeViolatorStrategy,
    )
}

# Honest strategies: the roster the supermartingale guarantees cover.
LOCAL_STRATEGY_NAMES = tuple(
    name for name, cls in STRATEGY_REGISTRY.items() if cls.locality_class == LOCAL
)


def build_strategy(name: str, params: Mapping[str, Any] | None = None) -> Strategy:
    """Instantiate a registered strategy by name."""
    cls = STRATEGY_REGISTRY.get(name)
    if cls is None:
        raise StrategyError(f"unknown strategy {name!r}; known: {sorted(STRATEGY_REGISTRY)}")
    return cls(**dict(params or {}))
