"""Trial sampler for the quantum-mechanical coincidence prediction.

Stands in for the entangled photon pair: per trial, outcomes follow the
four-point joint law

    P(0,0) = P(1,1) = c/2,    P(0,1) = P(1,0) = (1-c)/2,

where c = cos^2(angle difference) for equally polarized pairs and
c = 1 - cos^2 for oppositely polarized ones. Both marginals are uniform on
{0,1}, so neither wing's outcome distribution reveals the other's setting.

The oracle legitimately sees both settings: it is the quantum connection the
local strategies are forbidden from having, runs inside the referee as a
trusted component, and is exempt from locality enforcement by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CELL_COLUMNS, AngleConfig, Setting, chsh_combination, coincidence_probability
from .rng import ROLE_ORACLE, TrialUniforms

EQUAL_POLARIZATION = "equal-polarization"
OPPOSITE_POLARIZATION = "opposite-polarization"
CORRELATION_SENSES = (EQUAL_POLARIZATION, OPPOSITE_POLARIZATION)


@dataclass(frozen=True)
class QuantumModel:
    angles: AngleConfig
    correlation_sense: str = EQUAL_POLARIZATION

    def __post_init__(self) -> None:
        if self.correlation_sense not in CORRELATION_SENSES:
            raise ValueError(
                f"correlation_sense must be one of {CORRELATION_SENSES}, "
                f"got {self.correlation_sense!r}"
            )


def cell_coincidence_probability(model: QuantumModel, cell: int) -> float:
    """Exact coincidence probability for cell code 0..3, at the angle
    difference alpha_i - beta_j; the same value drives ``OracleSampler``,
    which is the consistency contract between the two."""
    left, right = CELL_COLUMNS[:, cell].tolist()
    angles = model.angles.as_tuple()
    c = coincidence_probability(angles[left] - angles[right])
    if model.correlation_sense == OPPOSITE_POLARIZATION:
        return 1.0 - c
    return c


def _regions(c, u):
    """``OracleSampler``'s region rule for coincidence probability ``c``, by
    inverse CDF on the four-point law: [0, c/2) -> (0,0); [c/2, c) -> (1,1);
    [c, (1+c)/2) -> (0,1); [(1+c)/2, 1) -> (1,0), as outcome bools. Comparisons and ``& | ^`` only, so a float ``u`` gives
    Python bools and arrays give bool arrays from the same IEEE steps."""
    x = (0.5 * c <= u) & (u < c) | (u >= 0.5 * (1.0 + c))
    return x, x ^ (u >= c)


def cell_probabilities(model: QuantumModel) -> np.ndarray:
    """``cell_coincidence_probability`` for cell codes 0..3 (11, 12, 21, 22)."""
    return np.array([cell_coincidence_probability(model, cell) for cell in range(4)])


def expected_statistic_per_trial(model: QuantumModel) -> float:
    """mu, the per-trial mean of the statistic under uniform settings: a
    quarter of the CHSH combination of the four cell probabilities. For equal
    polarization that is

        (1/4) [cos^2(a1-b2) - cos^2(a1-b1) - cos^2(a2-b1) - cos^2(a2-b2)],

    bounded above by QUANTUM_CEILING = (sqrt(2)-1)/4 over all angle choices.
    """
    return 0.25 * chsh_combination(cell_probabilities(model).tolist())


class OracleSampler:
    """Per-experiment sampler: one oracle uniform stream, one draw per trial,
    and the model's four cell probabilities, computed once."""

    def __init__(self, model: QuantumModel, seed: int, n: int):
        self.model = model
        self._uniforms = TrialUniforms(seed, ROLE_ORACLE, n)
        self._probabilities = cell_probabilities(model)

    def sample_trial(self, m: int, setting: Setting) -> tuple[int, int]:
        x, y = _regions(self._probabilities.item(setting.cell), self._uniforms.at(m))
        return int(x), int(y)

    def sample_columns(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Outcome columns for a whole run of cell codes; the same values
        ``sample_trial`` gives trial by trial."""
        x, y = _regions(self._probabilities.take(cells), self._uniforms.values)
        return x.view(np.uint8), y.view(np.uint8)
