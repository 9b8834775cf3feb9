"""Seed splitting and the settings stream distribution."""

import numpy as np
import pytest
from scipy import stats

from bellbet.rng import TrialUniforms, derive_key, role_generator, settings_cells


class TestSeedSplitting:
    def test_roles_get_distinct_streams(self):
        keys = {derive_key(1, role) for role in ("settings", "oracle", "source", "left", "right")}
        assert len(keys) == 5

    def test_same_seed_same_stream(self):
        a = role_generator(99, "left").random(16)
        b = role_generator(99, "left").random(16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = role_generator(1, "left").random(16)
        b = role_generator(2, "left").random(16)
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            derive_key(-1, "settings")


class TestSettingsDistribution:
    def test_reproducible(self):
        assert np.array_equal(settings_cells(5, 1000), settings_cells(5, 1000))

    def test_prefix_consistency(self):
        # The length-n buffer is a prefix of the length-2n buffer.
        assert np.array_equal(settings_cells(5, 500), settings_cells(5, 1000)[:500])

    @pytest.mark.parametrize("seed", range(20))
    def test_every_length_is_a_prefix(self, seed):
        # Replay draws only as many settings as a log holds, whatever n its
        # header names, so each length must give a prefix of every longer
        # one, across the stream's 32-bit and 64-bit draw boundaries too.
        lengths = (0, 1, 2, 3, 31, 32, 33, 63, 64, 65, 100, 1001, 4096)
        longest = settings_cells(seed, 5000)
        for n in lengths:
            assert np.array_equal(settings_cells(seed, n), longest[:n]), n

    def test_cell_frequencies(self):
        # 10^6 draws: each cell frequency 0.25 +- 0.002, chi-square sane.
        cells = settings_cells(123, 1_000_000)
        counts = np.bincount(cells, minlength=4)
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 0.25) < 0.002)
        chi2 = stats.chisquare(counts).pvalue
        assert chi2 > 1e-4

    def test_i_j_independent(self):
        # Sample correlation of the two indices within 4 sigma of zero.
        cells = settings_cells(77, 1_000_000)
        i = (cells >> 1).astype(float)
        j = (cells & 1).astype(float)
        corr = np.corrcoef(i, j)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(len(cells))


class TestTrialUniforms:
    def test_indexing_is_one_based(self):
        u = TrialUniforms(3, "oracle", 10)
        assert u.at(1) == u.values[0]
        assert u.at(10) == u.values[9]
        with pytest.raises(IndexError):
            u.at(0)
        with pytest.raises(IndexError):
            u.at(11)

    def test_uniform_range(self):
        u = TrialUniforms(4, "source", 10_000)
        assert u.values.min() >= 0.0
        assert u.values.max() < 1.0


class TestLazyDraw:
    def test_construction_draws_nothing(self, draws):
        TrialUniforms(3, "left", 100)
        assert draws == []

    @pytest.mark.parametrize("first", ["at", "values"])
    def test_at_and_values_agree_and_draw_once(self, draws, first):
        u = TrialUniforms(3, "left", 100)
        if first == "values":
            u.values
        for m in (1, 50, 100):
            assert u.at(m) == u.values[m - 1]
        assert u.values is u.values
        assert np.array_equal(u.values, role_generator(3, "left").random(100))
        assert draws == [(3, "left")]

    def test_out_of_range_raises_without_drawing(self, draws):
        u = TrialUniforms(3, "left", 10)
        for m in (0, 11):
            with pytest.raises(IndexError):
                u.at(m)
        assert draws == []

    def test_at_returns_a_python_float(self):
        value = TrialUniforms(3, "oracle", 10).at(4)
        assert type(value) is float
