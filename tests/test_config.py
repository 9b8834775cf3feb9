"""Config schema: strict parsing, auto critical value, canonical hashing."""

import math

import pytest

import numpy as np

from bellbet.bounds import midpoint_critical_value
from bellbet.config import (
    ConfigError,
    SideSpec,
    config_from_dict,
    default_config_dict,
    mean_per_trial,
    quantum_expected_statistic,
)
from bellbet.core import (
    OPTIMAL_ANGLES,
    PI_THIRD_ANGLES,
    AngleConfig,
    Setting,
    expected_statistic_per_trial,
)
from bellbet.quantum import QuantumModel, cell_coincidence_probability


def base_doc(**overrides):
    doc = {
        "mode": "sequential",
        "angles": list(OPTIMAL_ANGLES.as_tuple()),
        "side": {"kind": "quantum", "correlation_sense": "equal-polarization"},
        "n": 25_000,
        "critical_value": 1250,
        "seed": 7,
        "target_error": 1e-6,
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_valid_doc(self):
        config = config_from_dict(base_doc())
        assert config.n == 25_000
        assert config.critical_value == 1250
        assert config.qm_mean_per_trial == pytest.approx((math.sqrt(2) - 1) / 4, abs=1e-12)

    def test_default_config_is_valid(self):
        config = config_from_dict(default_config_dict())
        assert config.critical_value == round(config.n * config.qm_mean_per_trial / 2)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(wager_eur=3000))

    def test_unknown_side_field_rejected(self):
        doc = base_doc()
        doc["side"] = {"kind": "quantum", "detector_efficiency": 0.8}
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_missing_required_field(self):
        doc = base_doc()
        del doc["angles"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(n=0))

    def test_bad_target_error(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(target_error=1.0))

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(mode="parallel"))

    def test_negative_seed(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(seed=-1))

    def test_unknown_strategy(self):
        doc = base_doc()
        doc["side"] = {"kind": "strategy", "strategy": "mind-reader", "params": {}}
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_cheater_not_selectable(self):
        doc = base_doc()
        doc["side"] = {"kind": "strategy", "strategy": "nonlocal-cheater", "params": {}}
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "name, params",
        [("constant", {"bit": 2}), ("classical-polarizer", {"bogus": 1}), ("constant", 5)],
    )
    def test_bad_strategy_params_rejected(self, name, params):
        doc = base_doc()
        doc["side"] = {"kind": "strategy", "strategy": name, "params": params}
        with pytest.raises(ConfigError, match="params"):
            config_from_dict(doc)

    def test_critical_value_must_be_attainable(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(critical_value=10_000))
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(critical_value=0))


class TestAutoCriticalValue:
    def test_auto_uses_midpoint(self):
        config = config_from_dict(base_doc(critical_value="auto"))
        mu = config.qm_mean_per_trial
        assert config.critical_value == round(25_000 * mu / 2)

    def test_auto_for_strategy_side_uses_quantum_target(self):
        doc = base_doc(critical_value="auto")
        doc["side"] = {"kind": "strategy", "strategy": "classical-polarizer", "params": {}}
        config = config_from_dict(doc)
        assert config.critical_value == round(25_000 * config.qm_mean_per_trial / 2)


class TestHashing:
    def test_hash_stable_and_output_independent(self):
        a = config_from_dict(base_doc())
        b = config_from_dict(base_doc(output="elsewhere.log"))
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_protocol_fields(self):
        a = config_from_dict(base_doc())
        b = config_from_dict(base_doc(seed=8))
        assert a.config_hash() != b.config_hash()

    def test_round_trip_through_dict(self):
        config = config_from_dict(base_doc())
        assert config_from_dict(config.to_dict()) == config


class TestQuantumExpectedStatistic:
    def test_opposite_sense_flips_law(self):
        equal = QuantumModel(OPTIMAL_ANGLES, "equal-polarization")
        mu_equal = quantum_expected_statistic(equal)
        assert mu_equal == pytest.approx((math.sqrt(2) - 1) / 4, abs=1e-12)
        opposite = QuantumModel(OPTIMAL_ANGLES, "opposite-polarization")
        # 1 - c per cell: the combination becomes -1/2 - mu.
        assert quantum_expected_statistic(opposite) == pytest.approx(
            -0.5 - mu_equal, abs=1e-12
        )


def reference_mu(side, angles):
    """mu as each branch computes it: the oracle's four cell probabilities
    for a quantum side, the equal-polarization law for a strategy side."""
    if side["kind"] == "strategy":
        return expected_statistic_per_trial(angles)
    model = QuantumModel(angles, side["correlation_sense"])
    probs = {
        (i, j): cell_coincidence_probability(model, Setting(i, j)) for i in (1, 2) for j in (1, 2)
    }
    return 0.25 * (probs[(1, 2)] - probs[(1, 1)] - probs[(2, 1)] - probs[(2, 2)])


def _mu_angle_grid():
    # Uniform angles, plus jitter around the optimal set and around its
    # perpendicular variant, where each correlation sense has mu > 0.
    rng = np.random.default_rng(2024)
    optimal = np.array(OPTIMAL_ANGLES.as_tuple())
    rows = [
        *rng.uniform(-4.0, 4.0, (20, 4)),
        *(optimal + rng.normal(0.0, 0.1, (10, 4))),
        *(optimal + [0.0, 0.0, math.pi / 2, math.pi / 2] + rng.normal(0.0, 0.1, (10, 4))),
    ]
    return [OPTIMAL_ANGLES, PI_THIRD_ANGLES] + [AngleConfig(*row.tolist()) for row in rows]


MU_ANGLES = _mu_angle_grid()
MU_SIDES = [
    {"kind": "quantum", "correlation_sense": "equal-polarization"},
    {"kind": "quantum", "correlation_sense": "opposite-polarization"},
    {"kind": "strategy", "strategy": "constant", "params": {}},
]


@pytest.mark.parametrize("side", MU_SIDES, ids=lambda s: s.get("correlation_sense", "strategy"))
def test_mean_per_trial_is_bit_identical(side):
    n = 25_000
    spec = SideSpec.from_dict(side)
    for angles in MU_ANGLES:
        mu = reference_mu(side, angles)
        assert type(mean_per_trial(spec, angles)) is float
        assert mean_per_trial(spec, angles) == mu
        doc = base_doc(angles=list(angles.as_tuple()), side=side, n=n, critical_value="auto")
        if not mu > 0:
            with pytest.raises(ConfigError):
                config_from_dict(doc)
            continue
        config = config_from_dict(doc)
        assert config.qm_mean_per_trial == mu
        assert config.critical_value == midpoint_critical_value(n, mu)
