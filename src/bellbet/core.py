"""Domain types and pure mathematics of the CHSH coincidence statistic, the
one JSON decoder of configs, reports, logs and wire frames, the one
canonical JSON encoder, and the one writer of output files.

Everything here but ``replace_file`` is deterministic and side-effect free:
angle configurations, settings and their cell codes, trial records,
coincidence counts, joint bit distributions, the deterministic CHSH
implication, the cos^2 coincidence law, the cell weights of the statistic
N12 - N11 - N21 - N22, ``parse_json``, and ``shown``, how an error message
quotes a value from outside.

Conventions:
  * photon convention throughout: analyzer orientations live modulo pi;
  * outcomes are bits, 1 = "passes the filter";
  * the statistic is signed so that positive values favor the quantum side.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import stat
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# Tolerance for probability normalization checks.
NORMALIZATION_TOL = 1e-12

# Per-trial ceiling on the expected statistic under quantum mechanics
# (Cirel'son bound in this four-coincidence formulation): (sqrt(2)-1)/4.
QUANTUM_CEILING = (math.sqrt(2.0) - 1.0) / 4.0

# How settings reach the stations: each trial's full data is broadcast to
# both (sequential), or each wing learns only its own (cloned-source).
MODES = ("sequential", "cloned-source")

# Canonical JSON, sorted keys and no whitespace: the log's header line, the
# text a config hash is taken of and a wire frame's envelope fields.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# What json.loads raises on bad text.
JSON_ERRORS = (ValueError, RecursionError)


def parse_json(text, error: type[Exception], what: str, *args):
    """The JSON document in ``text``, a str or bytes-like strict UTF-8 (never
    UTF-16/32 by guess). On text that is not UTF-8 or not JSON, nests too deep
    or holds an integer past Python's 4 300-digit limit, raises ``error`` with
    the message ``what % args`` and the cause, formatted only on failure."""
    try:
        return json.loads(text if isinstance(text, str) else str(text, "utf-8"))
    except JSON_ERRORS as exc:
        raise error(f"{what % args}: {exc}") from exc


def clipped(text: str, limit: int = 80) -> str:
    """``text``, or its first ``limit`` - 3 characters and "..." when it is
    longer than ``limit``."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


def shown(value) -> str:
    """``value``'s repr cut to about 80 characters, however long or deeply
    nested it is."""
    return clipped(reprlib.repr(value))


def replace_file(path, data) -> None:
    """Write ``data`` to a new file at ``path``: the regular file there, if
    any, is unlinked first, so another hard link to it keeps its old bytes
    and the new file's mode comes from the umask. Any other path (no file
    yet, a symlink, which is written through and stays a link, a device, a
    directory, a path under a file) and a file that this process may not
    write or cannot unlink are opened for writing in place, as before, so
    they raise the ``OSError`` that opening them always raised.

    A write killed midway leaves a prefix of the new bytes, never new bytes
    over an old tail."""
    # On ext4, truncating a file whose blocks are allocated costs time, and
    # the auto_da_alloc rule starts writeback when a file truncated to zero
    # is closed, so each rewrite of an output would wait on the last one's.
    # A new inode has neither cost. Writing a temporary file and renaming it
    # over the path measured no faster: ext4 flushes on a rename over a file
    # too.
    try:
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass
    with open(path, "wb") as fh:
        fh.write(data)


def cell_code(i, j):
    """The cell code 2*(i-1) + (j-1) of setting indices i, j in {1, 2}:
    (1,1)->0, (1,2)->1, (2,1)->2, (2,2)->3. Elementwise on int arrays."""
    return 2 * i + j - 3


def setting_indices(cell):
    """The setting indices (i, j) of cell code(s) 0..3, inverting
    ``cell_code``. Elementwise on int arrays."""
    return (cell >> 1) + 1, (cell & 1) + 1


PRIVILEGED_CELL = 1

# "11", "12", "21", "22": each cell code's name in count documents.
CELL_NAMES = tuple(f"{i}{j}" for i, j in map(setting_indices, range(4)))

# The statistic's weight per cell code: +1 for the privileged cell, -1 for
# the other three, so S = N12 - N11 - N21 - N22 = sum of weight * N_cell.
CELL_WEIGHTS = tuple(1 if cell == PRIVILEGED_CELL else -1 for cell in range(4))


def chsh_combination(values):
    """sum of CELL_WEIGHTS[cell] * values[cell] over cell codes 0..3, added
    left to right; for floats this is exactly v12 - v11 - v21 - v22.

    A plain loop, not ``sum()``: from Python 3.12 on, ``sum()`` compensates
    float rounding and would change the last bit of mu."""
    total = 0
    for weight, value in zip(CELL_WEIGHTS, values):
        total += weight * value
    return total


class InvalidDistributionError(ValueError):
    """A joint bit distribution fails non-negativity or normalization."""


@dataclass(frozen=True)
class AngleConfig:
    """The four analyzer orientations, in radians (photon convention).

    alpha1/alpha2 are the left station's two orientations, beta1/beta2 the
    right station's. Differences are meaningful modulo pi.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            value = getattr(self, name)
            # A bool is an int to isinstance, but no angle, as in a config.
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not number or not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite, got {value!r}")

    def left(self, index: int) -> float:
        """Left-station orientation for setting index 1 or 2."""
        if index == 1:
            return self.alpha1
        if index == 2:
            return self.alpha2
        raise ValueError(f"setting index must be 1 or 2, got {index}")

    def right(self, index: int) -> float:
        """Right-station orientation for setting index 1 or 2."""
        if index == 1:
            return self.beta1
        if index == 2:
            return self.beta2
        raise ValueError(f"setting index must be 1 or 2, got {index}")

    def difference(self, i: int, j: int) -> float:
        """Orientation difference alpha_i - beta_j for cell (i, j)."""
        return self.left(i) - self.right(j)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)


# The two canonical angle sets. PI_THIRD_ANGLES gives per-trial mean 1/16;
# OPTIMAL_ANGLES attains the quantum ceiling (sqrt(2)-1)/4.
PI_THIRD_ANGLES = AngleConfig(0.0, math.pi / 3.0, -math.pi / 3.0, 0.0)
OPTIMAL_ANGLES = AngleConfig(math.pi / 8.0, 3.0 * math.pi / 8.0, -math.pi / 4.0, 0.0)


@dataclass(frozen=True)
class Setting:
    """One trial's joint setting: i for the left wing, j for the right."""

    i: int
    j: int
    # The cell code in 0..3 (see ``cell_code``), computed once: the oracle
    # and the adaptive tracker read it on every trial.
    cell: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.i not in (1, 2) or self.j not in (1, 2):
            raise ValueError(f"setting indices must be in {{1,2}}, got ({self.i},{self.j})")
        object.__setattr__(self, "cell", cell_code(self.i, self.j))

    @property
    def privileged(self) -> bool:
        """True for cell (1,2), the one whose coincidences count positively."""
        return self.cell == PRIVILEGED_CELL

    @classmethod
    def from_cell(cls, cell: int) -> "Setting":
        if not 0 <= cell <= 3:
            raise ValueError(f"cell code must be in 0..3, got {cell}")
        return cls(*setting_indices(cell))


# The four joint settings, indexed by cell code: one validated instance each,
# which the referee hands out instead of building a Setting per trial.
SETTINGS_BY_CELL = tuple(Setting.from_cell(cell) for cell in range(4))


@dataclass(frozen=True)
class TrialRecord:
    """One committed trial: settings and both validated outcome bits."""

    m: int
    setting: Setting
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"trial index must be >= 1, got {self.m}")
        if self.x not in (0, 1) or self.y not in (0, 1):
            raise ValueError(f"outcomes must be bits, got x={self.x!r}, y={self.y!r}")

    @classmethod
    def checked(cls, m: int, setting: Setting, x: int, y: int) -> "TrialRecord":
        """The record of fields the caller has already checked, built without
        running those checks again or the frozen ``__init__``'s per-field
        ``object.__setattr__``: a log's reader builds one per trial read."""
        record = object.__new__(cls)
        fields = record.__dict__
        fields["m"], fields["setting"], fields["x"], fields["y"] = m, setting, x, y
        return record

    @property
    def coincided(self) -> bool:
        return self.x == self.y

    @property
    def delta(self) -> int:
        """Per-trial statistic increment: the cell's weight on a coincidence,
        0 otherwise."""
        return CELL_WEIGHTS[self.setting.cell] if self.coincided else 0


@dataclass(frozen=True)
class CountMatrix:
    """Per-cell trial counts n_ij and coincidence counts N_ij.

    Both are flat 4-tuples in cell-code order (11, 12, 21, 22).
    """

    trials: tuple[int, int, int, int]
    coincidences: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.trials) != 4 or len(self.coincidences) != 4:
            raise ValueError("counts need one entry per cell code 0..3")
        for name, n, c in zip(CELL_NAMES, self.trials, self.coincidences):
            if not 0 <= c <= n:
                raise ValueError(
                    f"cell ({name[0]},{name[1]}) needs 0 <= coincidences <= trials, got {c}/{n}"
                )

    @property
    def total_trials(self) -> int:
        return sum(self.trials)

    @classmethod
    def from_records(cls, records: "Iterator[TrialRecord] | list[TrialRecord]") -> "CountMatrix":
        trials = [0, 0, 0, 0]
        coincidences = [0, 0, 0, 0]
        for rec in records:
            cell = rec.setting.cell
            trials[cell] += 1
            coincidences[cell] += rec.coincided
        return cls(tuple(trials), tuple(coincidences))

    @classmethod
    def from_columns(cls, cells: np.ndarray, x: np.ndarray, y: np.ndarray) -> "CountMatrix":
        """Count from per-trial columns: cell codes 0..3 (uint8 or wider)
        and both outcome bits. Each cell's trials and coincidences are
        counted on bool masks, so no column is widened to an index type."""
        coincided = x == y
        trials, coincidences = [], []
        for cell in range(4):
            in_cell = cells == cell
            trials.append(int(np.count_nonzero(in_cell)))
            coincidences.append(int(np.count_nonzero(in_cell & coincided)))
        return cls(tuple(trials), tuple(coincidences))

    def as_dict(self) -> dict[str, dict[str, int]]:
        """The counts document of reports and analyses: per-cell trials and
        coincidences keyed "11", "12", "21", "22"."""
        return {
            "trials": dict(zip(CELL_NAMES, self.trials)),
            "coincidences": dict(zip(CELL_NAMES, self.coincidences)),
        }

    def symmetric_slacks(self) -> dict[str, int]:
        """Each cell's count minus the sum of the other three.

        Under local realism all four are <= 0 up to noise; only the (1,2)
        slack is adjudicated, the rest are diagnostics.
        """
        total = sum(self.coincidences)
        return {f"N{name}": 2 * c - total for name, c in zip(CELL_NAMES, self.coincidences)}


@dataclass(frozen=True)
class JointBitDistribution:
    """Joint law of four 0/1 variables (X1, X2, Y1, Y2).

    ``p`` has shape (2,2,2,2), indexed [x1][x2][y1][y2]; entries are
    non-negative and sum to 1 within NORMALIZATION_TOL.
    """

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise InvalidDistributionError(f"expected shape (2,2,2,2), got {arr.shape}")
        if np.any(arr < -NORMALIZATION_TOL):
            raise InvalidDistributionError("negative probability entries")
        if abs(float(arr.sum()) - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistributionError(f"probabilities sum to {arr.sum()!r}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @classmethod
    def point_mass(cls, x1: int, x2: int, y1: int, y2: int) -> "JointBitDistribution":
        arr = np.zeros((2, 2, 2, 2))
        arr[x1, x2, y1, y2] = 1.0
        return cls(arr)

    @classmethod
    def uniform(cls) -> "JointBitDistribution":
        return cls(np.full((2, 2, 2, 2), 1.0 / 16.0))

    def probability_equal(self, left_index: int, right_index: int) -> float:
        """P{X_a = Y_b} for a = left_index, b = right_index (each 1 or 2)."""
        if left_index not in (1, 2) or right_index not in (1, 2):
            raise ValueError("variable indices must be 1 or 2")
        x_axis = left_index - 1          # axis 0 or 1
        y_axis = 2 + (right_index - 1)   # axis 2 or 3
        total = 0.0
        for idx in np.ndindex(2, 2, 2, 2):
            if idx[x_axis] == idx[y_axis]:
                total += float(self.p[idx])
        return total


def deterministic_implication_holds(x1: int, x2: int, y1: int, y2: int) -> bool:
    """Check x1=y2 => (x1=y1 or x2=y1 or x2=y2) for one bit assignment.

    This is the deterministic core of the CHSH inequality; it holds for all
    16 assignments (following the chain x1!=y1, y1!=x2, x2!=y2 forces y2!=x1).
    """
    for name, value in (("x1", x1), ("x2", x2), ("y1", y1), ("y2", y2)):
        if value not in (0, 1):
            raise ValueError(f"{name} must be a bit, got {value!r}")
    return (x1 != y2) or (x1 == y1) or (x2 == y1) or (x2 == y2)


def bell_inequality_slack(dist: JointBitDistribution) -> float:
    """P{X1=Y2} - P{X1=Y1} - P{X2=Y1} - P{X2=Y2}; <= 0 for every joint law."""
    total = float(np.asarray(dist.p).sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
    return chsh_combination([dist.probability_equal(s.i, s.j) for s in SETTINGS_BY_CELL])


def coincidence_probability(delta: float) -> float:
    """Coincidence law for equally polarized photons: cos^2(delta).

    Periodic with period pi, even, and in [0, 1].
    """
    if not math.isfinite(delta):
        raise ValueError(f"angle difference must be finite, got {delta!r}")
    return math.cos(delta) ** 2


def spin_half_coincidence_probability(delta: float) -> float:
    """Coincidence law for an anti-correlated spin-half pair: sin^2(delta/2).

    Period 2*pi; used to check the photon-to-spin angle translation.
    """
    if not math.isfinite(delta):
        raise ValueError(f"angle difference must be finite, got {delta!r}")
    return math.sin(delta / 2.0) ** 2


def chsh_count_statistic(counts: CountMatrix) -> int:
    """The adjudicated statistic N12 - N11 - N21 - N22."""
    return chsh_combination(counts.coincidences)


def photon_to_spin_angles(angles: AngleConfig) -> AngleConfig:
    """Translate photon analyzer angles to the spin-half experiment:
    double every angle, then rotate the right wing by 180 degrees.

    Applying the anti-correlated spin-half law sin^2(diff/2) to the result
    reproduces the photon coincidence probabilities of the input.
    """
    return AngleConfig(
        2.0 * angles.alpha1,
        2.0 * angles.alpha2,
        2.0 * angles.beta1 + math.pi,
        2.0 * angles.beta2 + math.pi,
    )
