"""Reference mathematics the tests check the program against. None of it
runs in a bet: the referee adjudicates by S = N12 - N11 - N21 - N22, whose
increments are ``referee.statistic_deltas``, and bounds its error with the
Bernstein inequality in ``bounds``.

Here are the paper's two canonical angle sets, the CHSH inequality on joint
laws of four bits and its deterministic core, the Lenglart/Chebyshev
comparison bounds, each cell's analyzer difference, the photon-to-spin-half
angle translation and the oracle's region rule on uniforms a test picks."""

import math
from dataclasses import dataclass

import numpy as np

from bellbet.core import SETTINGS_BY_CELL, AngleConfig, chsh_combination
from bellbet.quantum import _regions, cell_coincidence_probability

# Tolerance for probability normalization checks.
NORMALIZATION_TOL = 1e-12

SQRT3 = math.sqrt(3.0)

# The two canonical angle sets. PI_THIRD_ANGLES gives per-trial mean 1/16;
# OPTIMAL_ANGLES attains the quantum ceiling (sqrt(2)-1)/4.
PI_THIRD_ANGLES = AngleConfig(0.0, math.pi / 3.0, -math.pi / 3.0, 0.0)
OPTIMAL_ANGLES = AngleConfig(math.pi / 8.0, 3.0 * math.pi / 8.0, -math.pi / 4.0, 0.0)


class InvalidDistributionError(ValueError):
    """A joint bit distribution fails non-negativity or normalization."""


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


def lenglart_chebyshev_bound(k: float) -> float:
    """min(1, sqrt(3)/k), bounding P{S_n >= k sqrt(n)} for any local strategy
    by Lenglart domination plus Chebyshev."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return min(1.0, SQRT3 / k)


def independent_chebyshev_bound(k: float) -> float:
    """min(1, 1/k^2): the comparison bound when trials are independent."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return min(1.0, 1.0 / (k * k))


def spin_half_coincidence_probability(delta: float) -> float:
    """Coincidence law for an anti-correlated spin-half pair: sin^2(delta/2).

    Period 2*pi; used to check the photon-to-spin angle translation.
    """
    if not math.isfinite(delta):
        raise ValueError(f"angle difference must be finite, got {delta!r}")
    return math.sin(delta / 2.0) ** 2


def angle_difference(angles: AngleConfig, i: int, j: int) -> float:
    """alpha_i - beta_j, the analyzer difference of cell (i, j), read from
    the named fields."""
    return (angles.alpha1, angles.alpha2)[i - 1] - (angles.beta1, angles.beta2)[j - 1]


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


def sample_pair(model, cell, u):
    """Outcomes (x, y) of the oracle's region rule for cell code ``cell``'s
    exact coincidence probability: ints for one uniform, uint8 columns for an
    array of them. ``OracleSampler`` applies the same rule to the uniforms
    of its seeded stream.

    Region layout: [0, c/2) -> (0,0); [c/2, c) -> (1,1); [c, (1+c)/2) ->
    (0,1); [(1+c)/2, 1) -> (1,0).
    """
    x, y = _regions(cell_coincidence_probability(model, cell), u)
    if isinstance(x, np.ndarray):
        return x.view(np.uint8), y.view(np.uint8)
    return int(x), int(y)
