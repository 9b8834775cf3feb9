"""Core math: deterministic CHSH implication, slack, coincidence laws."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbet.core import (
    OPTIMAL_ANGLES,
    PI_THIRD_ANGLES,
    QUANTUM_CEILING,
    SETTINGS_BY_CELL,
    AngleConfig,
    CountMatrix,
    InvalidDistributionError,
    JointBitDistribution,
    Setting,
    TrialRecord,
    bell_inequality_slack,
    cell_code,
    chsh_count_statistic,
    coincidence_probability,
    deterministic_implication_holds,
    parse_json,
    photon_to_spin_angles,
    setting_indices,
    spin_half_coincidence_probability,
)
from bellbet.logfile import LogHeader, TrialLog
from bellbet.quantum import QuantumModel, expected_statistic_per_trial


def brute_force_slack(p: np.ndarray) -> float:
    """Independent slack oracle: direct summation over the 16 joint values."""
    total = 0.0
    for x1, x2, y1, y2 in itertools.product((0, 1), repeat=4):
        weight = p[x1, x2, y1, y2]
        total += weight * ((x1 == y2) - (x1 == y1) - (x2 == y1) - (x2 == y2))
    return total


class TestDeterministicImplication:
    def test_all_16_assignments(self):
        # Exhaustive enumeration: the implication is a tautology on bits.
        for bits in itertools.product((0, 1), repeat=4):
            assert deterministic_implication_holds(*bits), bits

    def test_spec_examples(self):
        assert deterministic_implication_holds(0, 0, 0, 0)
        assert deterministic_implication_holds(1, 0, 0, 1)
        assert deterministic_implication_holds(0, 1, 1, 0)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            deterministic_implication_holds(2, 0, 0, 0)


class TestBellInequalitySlack:
    def test_point_mass_all_equal(self):
        # Every coincidence certain: 1 - 1 - 1 - 1 = -2.
        dist = JointBitDistribution.point_mass(0, 0, 0, 0)
        assert bell_inequality_slack(dist) == -2.0

    def test_uniform(self):
        # Each coincidence probability is 1/2: 1/2 - 3/2 = -1.
        dist = JointBitDistribution.uniform()
        assert bell_inequality_slack(dist) == pytest.approx(-1.0, abs=1e-15)
        assert brute_force_slack(np.asarray(dist.p)) == pytest.approx(-1.0, abs=1e-15)

    def test_max_over_deterministic_laws_is_zero(self):
        slacks = [
            bell_inequality_slack(JointBitDistribution.point_mass(*bits))
            for bits in itertools.product((0, 1), repeat=4)
        ]
        assert max(slacks) == 0.0

    def test_matches_brute_force_on_random_laws(self):
        rng = np.random.default_rng(20260810)
        for _ in range(200):
            p = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
            dist = JointBitDistribution(p)
            assert bell_inequality_slack(dist) == pytest.approx(
                brute_force_slack(p), abs=1e-12
            )

    def test_nonpositive_on_10000_random_laws(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            p = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
            assert bell_inequality_slack(JointBitDistribution(p)) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistributionError):
            JointBitDistribution(np.full((2, 2, 2, 2), 1.0 / 8.0))
        with pytest.raises(InvalidDistributionError):
            JointBitDistribution(np.full((2, 2, 2, 2), -1.0 / 16.0))

    def test_rejects_tampered_distribution(self):
        dist = JointBitDistribution.uniform()
        bad = np.asarray(dist.p).copy()
        bad[0, 0, 0, 0] += 1e-6
        object.__setattr__(dist, "p", bad)
        with pytest.raises(InvalidDistributionError):
            bell_inequality_slack(dist)


class TestCoincidenceProbability:
    def test_identical_orientations(self):
        assert coincidence_probability(0.0) == 1.0

    def test_pi_third(self):
        assert coincidence_probability(math.pi / 3.0) == pytest.approx(0.25, abs=1e-15)

    def test_pi_eighth(self):
        # cos^2(t) = (1 + cos 2t)/2, so cos^2(pi/8) = (1 + sqrt(2)/2)/2.
        expected = (1.0 + math.sqrt(2.0) / 2.0) / 2.0
        assert coincidence_probability(math.pi / 8.0) == pytest.approx(expected, abs=1e-15)
        assert coincidence_probability(math.pi / 8.0) == pytest.approx(0.8536, abs=5e-5)

    def test_grid_invariances(self):
        # Period pi, even, bounded in [0, 1] over a 10k grid.
        deltas = np.linspace(-12.0, 12.0, 10_000)
        for d in deltas:
            p = coincidence_probability(float(d))
            assert 0.0 <= p <= 1.0
            assert p == pytest.approx(coincidence_probability(float(d) + math.pi), abs=1e-9)
            assert p == pytest.approx(coincidence_probability(-float(d)), abs=1e-12)

    @given(st.floats(-50.0, 50.0))
    def test_bounded_and_even(self, delta):
        p = coincidence_probability(delta)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(coincidence_probability(-delta), abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            coincidence_probability(math.nan)


def mu(angles):
    return expected_statistic_per_trial(QuantumModel(angles))


def cos2_mean(a1, a2, b1, b2, cos=np.cos):
    """The equal-polarization mean written out; broadcasts over arrays."""
    return 0.25 * (cos(a1 - b2) ** 2 - cos(a1 - b1) ** 2 - cos(a2 - b1) ** 2 - cos(a2 - b2) ** 2)


class TestExpectedStatistic:
    def test_pi_third_angles(self):
        assert mu(PI_THIRD_ANGLES) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_optimal_angles(self):
        assert mu(OPTIMAL_ANGLES) == pytest.approx((math.sqrt(2.0) - 1.0) / 4.0, abs=1e-15)
        assert mu(OPTIMAL_ANGLES) == pytest.approx(QUANTUM_CEILING, abs=1e-15)

    def test_degenerate_angles(self):
        assert mu(AngleConfig(0.0, 0.0, 0.0, 0.0)) == pytest.approx(-0.5, abs=1e-15)

    def test_quantum_ceiling_on_grid(self):
        # 50^4 grid over one period in each angle. Array np.cos may differ
        # from math.cos in the last bit, so the grid checks only the ceiling.
        grid = np.linspace(0.0, math.pi, 50, endpoint=False)
        a1, a2, b1, b2 = np.meshgrid(grid, grid, grid, grid, indexing="ij", sparse=True)
        values = cos2_mean(a1, a2, b1, b2)
        assert values.shape == (50, 50, 50, 50)
        assert float(values.max()) <= QUANTUM_CEILING + 1e-12
        # Spot-check the one mean against the written-out formula on floats.
        rng = np.random.default_rng(3)
        for _ in range(50):
            angles = AngleConfig(*rng.uniform(-4.0, 4.0, size=4).tolist())
            assert mu(angles) == pytest.approx(cos2_mean(*angles.as_tuple(), cos=math.cos), abs=0)


class TestCountStatistic:
    def test_zero_counts(self):
        counts = CountMatrix((0, 0, 0, 0), (0, 0, 0, 0))
        assert chsh_count_statistic(counts) == 0

    def test_arithmetic(self):
        counts = CountMatrix((100, 100, 100, 100), (20, 100, 20, 20))
        assert chsh_count_statistic(counts) == 100 - 60

    def test_symmetric_slacks(self):
        counts = CountMatrix((50, 50, 50, 50), (10, 40, 5, 5))
        slacks = counts.symmetric_slacks()
        assert slacks["N12"] == 40 - 20
        assert slacks["N11"] == 10 - 50
        assert chsh_count_statistic(counts) == slacks["N12"]

    def test_invariants(self):
        with pytest.raises(ValueError):
            CountMatrix((5, 5, 5, 5), (6, 0, 0, 0))

    def test_counts_document(self):
        counts = CountMatrix((50, 51, 52, 53), (10, 40, 5, 6))
        assert json.dumps(counts.as_dict()) == json.dumps(
            {
                "trials": {"11": 50, "12": 51, "21": 52, "22": 53},
                "coincidences": {"11": 10, "12": 40, "21": 5, "22": 6},
            }
        )

    @staticmethod
    def _log(trials):
        """A log of (i, j, x, y) trials."""
        header = LogHeader(
            config_hash="0" * 64,
            seed=1,
            mode="sequential",
            angles=OPTIMAL_ANGLES.as_tuple(),
            n=40,
            critical_value=3,
        )
        log = TrialLog(header)
        for i, j, x, y in trials:
            log.commit(i, j, x, y)
        return log

    def _assert_columns_match_records(self, log):
        i, j, x, y = log.columns()
        uint8_cells = cell_code(i, j)
        assert uint8_cells.dtype == np.uint8
        # The log's own uint8 codes and the widened int64 ones count alike.
        for cells in (uint8_cells, cell_code(i, j).astype(np.int64)):
            from_columns = CountMatrix.from_columns(cells, x, y)
            assert from_columns == CountMatrix.from_records(log.records())
            assert from_columns.total_trials == len(log)

    @pytest.mark.parametrize("count", [0, 1, 37])
    def test_from_columns_matches_from_records(self, count):
        rng = np.random.default_rng(count)
        trials = [(i + 1, j + 1, x, y) for i, j, x, y in rng.integers(0, 2, size=(count, 4)).tolist()]
        self._assert_columns_match_records(self._log(trials))

    @pytest.mark.parametrize("cell", range(4))
    def test_from_columns_one_cell(self, cell):
        i, j = setting_indices(cell)
        log = self._log([(i, j, x, y) for x, y in itertools.product((0, 1), repeat=2)] * 3)
        self._assert_columns_match_records(log)
        counts = CountMatrix.from_records(log.records())
        assert counts.trials == tuple(12 if c == cell else 0 for c in range(4))
        assert counts.coincidences == tuple(6 if c == cell else 0 for c in range(4))


class TestPhotonToSpin:
    def test_zero_angles(self):
        spin = photon_to_spin_angles(AngleConfig(0.0, 0.0, 0.0, 0.0))
        assert spin.as_tuple() == (0.0, 0.0, math.pi, math.pi)

    def test_optimal_angles(self):
        spin = photon_to_spin_angles(OPTIMAL_ANGLES)
        assert spin.as_tuple() == pytest.approx(
            (math.pi / 4.0, 3.0 * math.pi / 4.0, math.pi / 2.0, math.pi), abs=1e-15
        )

    def test_round_trip_on_pi_third_angles(self):
        photon = PI_THIRD_ANGLES
        spin = photon_to_spin_angles(photon)
        for i in (1, 2):
            for j in (1, 2):
                photon_prob = coincidence_probability(photon.difference(i, j))
                spin_prob = spin_half_coincidence_probability(spin.difference(i, j))
                assert spin_prob == pytest.approx(photon_prob, abs=1e-12), (i, j)

    @given(st.lists(st.floats(-6.0, 6.0), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_round_trip_everywhere(self, raw):
        photon = AngleConfig(*raw)
        spin = photon_to_spin_angles(photon)
        for i in (1, 2):
            for j in (1, 2):
                assert spin_half_coincidence_probability(
                    spin.difference(i, j)
                ) == pytest.approx(coincidence_probability(photon.difference(i, j)), abs=1e-9)


class TestDomainTypes:
    def test_setting_validation(self):
        with pytest.raises(ValueError):
            Setting(0, 1)
        with pytest.raises(ValueError):
            Setting(1, 3)

    def test_setting_cells(self):
        assert [Setting.from_cell(v).cell for v in range(4)] == [0, 1, 2, 3]
        assert Setting(1, 2).privileged
        assert not Setting(2, 1).privileged

    def test_trial_record(self):
        rec = TrialRecord(m=1, setting=Setting(1, 2), x=1, y=1)
        assert rec.delta == 1
        assert TrialRecord(m=2, setting=Setting(2, 2), x=0, y=0).delta == -1
        assert TrialRecord(m=3, setting=Setting(1, 1), x=0, y=1).delta == 0
        with pytest.raises(ValueError):
            TrialRecord(m=0, setting=Setting(1, 1), x=0, y=0)
        with pytest.raises(ValueError):
            TrialRecord(m=1, setting=Setting(1, 1), x=2, y=0)

    def test_angles_validation(self):
        with pytest.raises(ValueError):
            AngleConfig(math.inf, 0.0, 0.0, 0.0)


class TestCellCode:
    def test_round_trip_on_ints(self):
        assert [cell_code(i, j) for i in (1, 2) for j in (1, 2)] == [0, 1, 2, 3]
        for cell in range(4):
            i, j = setting_indices(cell)
            assert cell_code(i, j) == cell
            assert (i, j) == (SETTINGS_BY_CELL[cell].i, SETTINGS_BY_CELL[cell].j)
            assert Setting(i, j).cell == cell and Setting.from_cell(cell) == Setting(i, j)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_round_trip_on_arrays(self, dtype):
        cells = np.array([0, 1, 2, 3, 3, 1, 0, 2], dtype=dtype)
        i, j = setting_indices(cells)
        assert i.tolist() == [1, 1, 2, 2, 2, 1, 1, 2]
        assert j.tolist() == [1, 2, 1, 2, 2, 2, 1, 1]
        back = cell_code(i, j)
        assert back.dtype == dtype
        assert back.tolist() == cells.tolist()


class TestParseJson:
    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("text", ['{"a": [1, 2]}', b'{"a": [1, 2]}', bytearray(b'{"a": [1, 2]}')])
    def test_str_and_bytes_like(self, text):
        assert parse_json(text, KeyError, "doc") == {"a": [1, 2]}

    @pytest.mark.parametrize(
        "text, cause",
        [
            ('{"a": 1}'.encode("utf-16"), "utf-8"),  # json.loads alone would guess UTF-16
            (b'{"a": "\xff"}', "utf-8"),
            ("{", "Expecting"),
            (DEEP, "recursion"),
            (DEEP.encode(), "recursion"),
            ('{"m": ' + "1" * 5000 + "}", "4300 digits"),
        ],
    )
    def test_bad_text_raises_the_callers_error(self, text, cause):
        with pytest.raises(KeyError, match=cause) as caught:
            parse_json(text, KeyError, "%s:%d: bad %s", "path", 7, "record")
        assert caught.value.args[0].startswith("path:7: bad record: ")

    def test_message_is_formatted_only_on_failure(self):
        class Unprintable:
            def __str__(self):
                raise AssertionError("formatted eagerly")

        assert parse_json("[]", ValueError, "%s", Unprintable()) == []
