"""Quantum oracle: coincidence law, marginals, no-signaling."""

import math

import numpy as np
import pytest
from scipy import stats

from bellbet.core import OPTIMAL_ANGLES, PI_THIRD_ANGLES, AngleConfig, Setting
from bellbet.quantum import (
    OPPOSITE_POLARIZATION,
    OracleSampler,
    QuantumModel,
    cell_coincidence_probability,
    sample_pair,
)
from bellbet.rng import ROLE_ORACLE, TrialUniforms, settings_cells

PI_THIRD_MODEL = QuantumModel(PI_THIRD_ANGLES)
OPTIMAL_MODEL = QuantumModel(OPTIMAL_ANGLES)


class TestCellProbabilities:
    def test_pi_third_angles(self):
        # Cells (1,1), (2,1), (2,2) at 1/4 and the privileged cell (1,2) at 1.
        assert cell_coincidence_probability(PI_THIRD_MODEL, Setting(1, 2)) == 1.0
        for setting in (Setting(1, 1), Setting(2, 1), Setting(2, 2)):
            assert cell_coincidence_probability(PI_THIRD_MODEL, setting) == pytest.approx(
                0.25, abs=1e-15
            )

    def test_opposite_polarization_flips(self):
        model = QuantumModel(AngleConfig(0.0, 0.0, 0.0, 0.0), OPPOSITE_POLARIZATION)
        assert cell_coincidence_probability(model, Setting(1, 1)) == 0.0

    def test_rejects_unknown_sense(self):
        with pytest.raises(ValueError):
            QuantumModel(OPTIMAL_ANGLES, "entangled-somehow")


class TestSamplePair:
    def test_perfect_correlation(self):
        # delta = 0: outcomes always equal; (0,0) and (1,1) each about half.
        model = QuantumModel(AngleConfig(0.0, 0.0, 0.0, 0.0))
        u = TrialUniforms(42, "oracle", 100_000).values
        x, y = sample_pair(model, Setting(1, 1), u)
        assert np.array_equal(x, y)
        assert abs(x.mean() - 0.5) < 4.0 * math.sqrt(0.25 / len(u))

    def test_perpendicular_always_unequal(self):
        model = QuantumModel(AngleConfig(0.0, 0.0, math.pi / 2.0, 0.0))
        u = TrialUniforms(43, "oracle", 100_000).values
        x, y = sample_pair(model, Setting(1, 1), u)
        assert np.all(x != y)

    def test_pi_third_coincidence_rate(self):
        # Empirical coincidence frequency -> 1/4 within 3 sigma over 10^6.
        u = TrialUniforms(44, "oracle", 1_000_000).values
        x, y = sample_pair(PI_THIRD_MODEL, Setting(1, 1), u)
        freq = float((x == y).mean())
        sigma = math.sqrt(0.25 * 0.75 / len(u))
        assert abs(freq - 0.25) < 3.0 * sigma

    def test_scalar_vector_consistency(self):
        u = TrialUniforms(45, "oracle", 500).values
        for setting in (Setting(1, 1), Setting(1, 2), Setting(2, 1), Setting(2, 2)):
            xv, yv = sample_pair(OPTIMAL_MODEL, setting, u)
            for idx, uu in enumerate(u):
                xs, ys = sample_pair(OPTIMAL_MODEL, setting, float(uu))
                assert (xs, ys) == (int(xv[idx]), int(yv[idx]))

    def test_consistency_with_cell_probability(self):
        # Empirical per-cell frequency within 4 standard errors of the exact
        # value, all four cells.
        n = 1_000_000
        u = TrialUniforms(46, "oracle", n).values
        for setting in (Setting(1, 1), Setting(1, 2), Setting(2, 1), Setting(2, 2)):
            p = cell_coincidence_probability(OPTIMAL_MODEL, setting)
            x, y = sample_pair(OPTIMAL_MODEL, setting, u)
            freq = float((x == y).mean())
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) <= 4.0 * se, setting


class TestMarginals:
    def test_marginal_uniformity(self):
        n = 1_000_000
        u = TrialUniforms(47, "oracle", n).values
        tol = 4.0 * math.sqrt(0.25 / n)
        for setting in (Setting(1, 1), Setting(2, 2)):
            x, y = sample_pair(OPTIMAL_MODEL, setting, u)
            assert abs(float(x.mean()) - 0.5) < tol
            assert abs(float(y.mean()) - 0.5) < tol

    def test_no_signaling(self):
        # The left outcome's distribution is independent of the right
        # setting: chi-square on the (x, j) table at significance 1e-4.
        n = 1_000_000
        cells = settings_cells(48, n)
        u = TrialUniforms(48, "oracle", n).values
        x = np.empty(n, dtype=np.uint8)
        for cell in range(4):
            mask = cells == cell
            xs, _ = sample_pair(OPTIMAL_MODEL, Setting.from_cell(cell), u[mask])
            x[mask] = xs
        j = (cells & 1).astype(np.uint8)
        table = np.array(
            [
                [int(((x == bit) & (j == jj)).sum()) for jj in (0, 1)]
                for bit in (0, 1)
            ]
        )
        assert stats.chi2_contingency(table).pvalue > 1e-4


class TestOracleSampler:
    def test_deterministic_per_seed(self):
        a = OracleSampler(OPTIMAL_MODEL, 9, 50)
        b = OracleSampler(OPTIMAL_MODEL, 9, 50)
        trials = [(m, Setting.from_cell(m % 4)) for m in range(1, 51)]
        assert [a.sample_trial(m, s) for m, s in trials] == [
            b.sample_trial(m, s) for m, s in trials
        ]

    @pytest.mark.parametrize("sense", ["equal-polarization", OPPOSITE_POLARIZATION])
    def test_trials_follow_sample_pair_and_columns(self, sense):
        # The held cell probabilities drive the same region rule as
        # sample_pair, and the whole-run columns agree trial by trial.
        model = QuantumModel(PI_THIRD_ANGLES, sense)
        n = 400
        sampler = OracleSampler(model, 13, n)
        uniforms = TrialUniforms(13, ROLE_ORACLE, n)
        cells = settings_cells(13, n)
        settings = [(m, Setting.from_cell(int(c))) for m, c in enumerate(cells, start=1)]
        trials = [sampler.sample_trial(m, s) for m, s in settings]
        assert trials == [sample_pair(model, s, uniforms.at(m)) for m, s in settings]
        x, y = sampler.sample_columns(cells)
        assert list(zip(x.tolist(), y.tolist())) == trials


def reference_pair(c: float, u: float) -> tuple[int, int]:
    """The oracle's region rule written with branches, as it stood before
    the scalar and array paths shared one branch-free form."""
    if u < c:
        x = int(u >= 0.5 * c)
        return x, x
    x = int(u >= 0.5 * (1.0 + c))
    return x, 1 - x


def _region_cases():
    """(model, setting) for c = 0, c = 1 and every cell of both canonical
    angle sets in both senses."""
    zero = AngleConfig(0.0, 0.0, 0.0, 0.0)
    cases = [
        (QuantumModel(zero), Setting(1, 1)),
        (QuantumModel(zero, OPPOSITE_POLARIZATION), Setting(1, 1)),
    ]
    for angles in (OPTIMAL_ANGLES, PI_THIRD_ANGLES):
        for sense in ("equal-polarization", OPPOSITE_POLARIZATION):
            cases += [(QuantumModel(angles, sense), Setting.from_cell(c)) for c in range(4)]
    return cases


class TestRegionRuleReference:
    @pytest.mark.parametrize("model, setting", _region_cases())
    def test_matches_branched_rule_at_region_edges(self, model, setting):
        c = cell_coincidence_probability(model, setting)
        edges = (0.0, 0.5 * c, c, 0.5 * (1.0 + c))
        u = [nb for e in edges for nb in (math.nextafter(e, -1.0), e, math.nextafter(e, 2.0))]
        expected = [reference_pair(c, uu) for uu in u]
        scalar = [sample_pair(model, setting, uu) for uu in u]
        assert scalar == expected
        assert all(type(b) is int for pair in scalar for b in pair)
        x, y = sample_pair(model, setting, np.array(u))
        assert x.dtype == y.dtype == np.uint8
        assert list(zip(x.tolist(), y.tolist())) == expected
