"""Seed splitting, the seeded streams and the settings stream distribution."""

import sys
import threading

import numpy as np
import philox_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bellbet.rng import TrialUniforms, derive_key, settings_cells

ROLES = ("settings", "oracle", "source", "left", "right")
SEEDS = st.integers(0, 2**64)
# Empty, one trial, odd lengths (half a raw word left over) and a full run.
LENGTHS = st.one_of(st.sampled_from([0, 1, 3, 25_001]), st.integers(0, 5000))


def fresh(seed, role):
    """The reference stream: a newly built generator keyed for (seed, role)."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, role)))


class TestSeedSplitting:
    def test_roles_get_distinct_streams(self):
        keys = {derive_key(1, role) for role in ROLES}
        assert len(keys) == 5

    def test_same_seed_same_stream(self):
        a = TrialUniforms(99, "left", 16).values
        b = TrialUniforms(99, "left", 16).values
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = TrialUniforms(1, "left", 16).values
        b = TrialUniforms(2, "left", 16).values
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
        assert np.array_equal(u.values, fresh(3, "left").random(100))
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


class TestStreams:
    """Each seeded stream is what a fresh keyed generator draws, so the one
    re-keyed generator per thread changes no value, on any thread."""

    @given(SEEDS, LENGTHS, st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_settings_are_numpys_integers_and_prefix_stable(self, seed, n, extra):
        cells = settings_cells(seed, n)
        assert cells.dtype == np.uint8
        assert np.array_equal(cells, fresh(seed, "settings").integers(0, 4, size=n))
        assert np.array_equal(settings_cells(seed, n + extra)[:n], cells)

    @given(SEEDS, st.sampled_from(ROLES), LENGTHS, st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_uniforms_are_numpys_random_and_prefix_stable(self, seed, role, n, extra):
        values = TrialUniforms(seed, role, n).values
        assert np.array_equal(values, fresh(seed, role).random(n))
        assert np.array_equal(TrialUniforms(seed, role, n + extra).values[:n], values)

    def test_threads_draw_their_own_streams(self):
        # Full-run lengths: NumPy fills them with the GIL released, so a
        # generator shared across threads would be re-keyed mid-draw.
        def settings_draw():
            return settings_cells(3, 25_001), fresh(3, "settings").integers(0, 4, size=25_001)

        def uniforms_draw():
            return TrialUniforms(4, "left", 25_000).values, fresh(4, "left").random(25_000)

        mismatches = []

        def worker(draw):
            for _ in range(200):
                got, want = draw()
                if not np.array_equal(got, want):
                    mismatches.append(draw.__name__)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(draw,))
                for draw in (settings_draw, uniforms_draw)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestPhiloxOracle:
    """The pure-Python Philox4x64-10 of Salmon et al. (tests/philox_oracle.py)."""

    @pytest.mark.parametrize("key", [0, 1, derive_key(0, "settings"), 2**128 - 1])
    @pytest.mark.parametrize("counter", [0, 2**64 - 1, 2**256 - 1])
    def test_equals_numpys_raw_words(self, key, counter):
        # Nine words are three blocks; from 2**64 - 1 the first block's
        # counter carries into the second word, from 2**256 - 1 it wraps.
        numpy_words = np.random.Philox(key=key, counter=counter).random_raw(9).tolist()
        assert philox_oracle.raw_words(key, 9, counter) == numpy_words

    @pytest.mark.parametrize("seed", [0, 7, 52_100])
    def test_rederives_the_settings_without_numpy(self, seed):
        for n in (0, 1, 2, 101):
            assert philox_oracle.settings_cells(seed, n) == settings_cells(seed, n).tolist()

    @pytest.mark.parametrize("role", ["oracle", "left"])
    def test_uniforms_are_the_top_53_bits_of_raw_words(self, role):
        words = philox_oracle.raw_words(derive_key(5, role), 101)
        assert [(w >> 11) * 2.0**-53 for w in words] == TrialUniforms(5, role, 101).values.tolist()
