"""Config schema: strict parsing, auto critical value, canonical hashing."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from bellbet.bounds import MAX_TRIALS, design_for, design_protocol, midpoint_critical_value
from bellbet.config import (
    ConfigError,
    ExperimentConfig,
    SideSpec,
    config_from_dict,
    default_config_dict,
    load_config,
    mean_per_trial,
)
from bellbet.core import OPTIMAL_ANGLES, PI_THIRD_ANGLES, AngleConfig, Setting
from bellbet.quantum import QuantumModel, cell_coincidence_probability, expected_statistic_per_trial
from bellbet.strategies import LOCAL_STRATEGY_NAMES


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

    def test_trial_cap(self):
        # Only parsing: no config here is ever run, so nothing is allocated.
        with pytest.raises(ConfigError, match=f"1..{MAX_TRIALS}"):
            config_from_dict(base_doc(n=MAX_TRIALS + 1, critical_value="auto"))
        config = config_from_dict(base_doc(n=MAX_TRIALS, critical_value="auto"))
        with pytest.raises(ConfigError, match=f"1..{MAX_TRIALS}"):
            dataclasses.replace(config, n=MAX_TRIALS + 1)
        # The trial count of a small-mu design (mu = 0.001 at 1e-6) is admitted.
        n = design_protocol(0.001, 1e-6).n
        assert config_from_dict(base_doc(n=n, critical_value="auto")).n == n

    def test_bad_target_error(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(target_error=1.0))

    def test_bad_mode(self):
        # "batch" (every setting revealed before trial 1) was deleted:
        # settings are revealed one trial at a time in every mode.
        for mode in ("parallel", "batch"):
            with pytest.raises(ConfigError, match="mode must be one of"):
                config_from_dict(base_doc(mode=mode))

    @pytest.mark.parametrize(
        "field, value",
        [("target_error", 10**400), ("angles", [0.0, 10**400, 0.0, 0.0])],
        ids=["target_error", "angle"],
    )
    def test_integer_too_large_for_a_float(self, field, value):
        # float() raises OverflowError here, which is a config error too.
        with pytest.raises(ConfigError, match="integer too large for a float"):
            config_from_dict(base_doc(**{field: value}))

    @pytest.mark.parametrize("angle", [None, "x", [0.0], float("nan")])
    def test_angle_that_is_no_finite_number(self, angle):
        with pytest.raises(ConfigError, match="bad angles"):
            config_from_dict(base_doc(angles=[angle, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "angle", ["0.39269908169872414", "pi/8", True, False], ids=["str", "pi-str", "true", "false"]
    )
    def test_angle_must_be_a_json_number(self, angle):
        # float() would take all four, and a string angle would load with
        # the numeric form's config hash.
        with pytest.raises(ConfigError, match="an angle must be a number"):
            config_from_dict(base_doc(angles=[angle, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("value", ["1e-6", True, None], ids=["str", "true", "null"])
    def test_target_error_must_be_a_json_number(self, value):
        with pytest.raises(ConfigError, match="target_error must be a number"):
            config_from_dict(base_doc(target_error=value))

    def test_negative_seed(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(seed=-1))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("seed", "seed must be an unsigned integer"),
            ("critical_value", "critical_value must be an integer"),
            ("n", "n must be an integer"),
        ],
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_not_integers(self, field, message, value):
        # Built directly and through the parser: one check refuses both.
        fields = dict(angles=OPTIMAL_ANGLES, side=SideSpec("quantum"), n=1000, critical_value=50)
        fields["seed"] = 7
        fields[field] = value
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**fields)
        with pytest.raises(ConfigError, match=message):
            config_from_dict(base_doc(**{field: value}))

    @pytest.mark.parametrize("n", ["25000", 2.5e4, None, [25_000], 10**400, True])
    def test_auto_critical_value_needs_a_valid_trial_count(self, n):
        with pytest.raises(ConfigError, match="n must be an integer"):
            config_from_dict(base_doc(n=n, critical_value="auto"))

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
        [
            ("constant", {"bit": 2}),
            ("classical-polarizer", {"bogus": 1}),
            ("constant", 5),
            ("constant", {"bit": 1.0}),
            ("constant", {"bit": 0.0}),
            ("constant", {"bit": True}),
        ],
    )
    def test_bad_strategy_params_rejected(self, name, params):
        doc = base_doc()
        doc["side"] = {"kind": "strategy", "strategy": name, "params": params}
        with pytest.raises(ConfigError, match="params"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "data",
        [
            b'{"n": "\xff"}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"n": ' + b"1" * 5000 + b"}",
        ],
        ids=["not-utf8", "nested-too-deep", "5000-digit-int"],
    )
    def test_unreadable_json_file_is_a_config_error(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="is not valid JSON"):
            load_config(path)

    def test_critical_value_must_be_attainable(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(critical_value=10_000))
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(critical_value=0))

    def test_unhashable_strategy_name_is_a_config_error(self):
        for name in ([], {}):
            with pytest.raises(ConfigError, match="unknown strategy"):
                config_from_dict(base_doc(side={"kind": "strategy", "strategy": name}))


def nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def strategy_side(strategy="constant", params=None):
    return {"kind": "strategy", "strategy": strategy, "params": {} if params is None else params}


# Each place a config value reaches an error message, as a doc holding v there.
QUOTED_FIELDS = {
    "angles": lambda v: base_doc(angles=v),
    "an-angle": lambda v: base_doc(angles=[v, 0.0, 0.0, 0.0]),
    "output": lambda v: base_doc(output=v),
    "side": lambda v: base_doc(side=v),
    "kind": lambda v: base_doc(side={"kind": v}),
    "correlation_sense": lambda v: base_doc(side={"kind": "quantum", "correlation_sense": v}),
    "strategy": lambda v: base_doc(side=strategy_side(v)),
    "params": lambda v: base_doc(side=strategy_side(params=v)),
    "a-param": lambda v: base_doc(side=strategy_side(params={"bit": v})),
    "a-param-name": lambda v: base_doc(side=strategy_side(params={str(v): 1})),
    "n": lambda v: base_doc(n=v),
    "n-auto": lambda v: base_doc(n=v, critical_value="auto"),
    "critical_value": lambda v: base_doc(critical_value=v),
    "mode": lambda v: base_doc(mode=v),
    "seed": lambda v: base_doc(seed=v),
    "target_error": lambda v: base_doc(target_error=v),
    "a-field-name": lambda v: base_doc(**{str(v): 1}),
    "a-side-field-name": lambda v: base_doc(side={"kind": "quantum", str(v): 1}),
}


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param(field, value, id=f"{field}-{kind}")
        for field in QUOTED_FIELDS
        for kind, value in [("100000-chars", "x" * 100_000), ("900-deep-list", nested(0, 900))]
        # Any string is a valid output path.
        if not (field == "output" and isinstance(value, str))
    ],
)
def test_error_message_quotes_a_bounded_value(field, value):
    with pytest.raises(ConfigError) as caught:
        config_from_dict(QUOTED_FIELDS[field](value))
    assert len(str(caught.value).encode()) < 300


# What a JSON document can hold, biased towards the values the parser tests
# for: integers past float range (up to the decoder's 4 300-digit limit),
# non-finite floats, the schema's own words in the wrong places, lists and
# objects nested a few levels or hundreds of levels deep.
HUGE_INTS = st.builds(
    lambda digits, sign: sign * 10**digits, st.integers(300, 4299), st.sampled_from((1, -1))
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | HUGE_INTS
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(("auto", "quantum", "strategy", "sequential", "cloned-source", "batch"))
    | st.sampled_from(LOCAL_STRATEGY_NAMES)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=8,
)
FIELD_VALUES = (
    JSON_VALUES
    | st.builds(nested, JSON_VALUES, st.integers(1, 900))
    | st.lists(JSON_VALUES, min_size=4, max_size=4)
)
SIDE_DOCS = st.fixed_dictionaries(
    {"kind": st.sampled_from(("quantum", "strategy")) | FIELD_VALUES},
    optional={
        "strategy": st.sampled_from(LOCAL_STRATEGY_NAMES) | FIELD_VALUES,
        "params": st.dictionaries(st.sampled_from(("bit", "")), FIELD_VALUES, max_size=2)
        | FIELD_VALUES,
        "correlation_sense": FIELD_VALUES,
    },
)
CONFIG_FIELDS = sorted(default_config_dict()) + ["unknown"]


class TestOnlyConfigErrorEscapes:
    @given(
        st.dictionaries(st.sampled_from(CONFIG_FIELDS), FIELD_VALUES | SIDE_DOCS, max_size=3),
        st.sets(st.sampled_from(CONFIG_FIELDS), max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_edited_default_config(self, overrides, dropped):
        # A few fields of the default config replaced and a few dropped:
        # the parser returns a config or raises ConfigError, nothing else.
        doc = {**default_config_dict(), **overrides}
        for name in dropped:
            doc.pop(name, None)
        try:
            config = config_from_dict(doc)
        except ConfigError:
            return
        assert isinstance(config, ExperimentConfig)


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

    def test_hash_is_sha256_of_canonical_json(self):
        config = config_from_dict(base_doc())
        digest = config.config_hash()
        assert digest == hashlib.sha256(config.canonical_json().encode("ascii")).hexdigest()
        moved = dataclasses.replace(config, seed=8)
        assert moved.config_hash() == config_from_dict(base_doc(seed=8)).config_hash() != digest


class TestQuantumExpectedStatistic:
    def test_opposite_sense_flips_law(self):
        equal = QuantumModel(OPTIMAL_ANGLES, "equal-polarization")
        mu_equal = expected_statistic_per_trial(equal)
        assert mu_equal == pytest.approx((math.sqrt(2) - 1) / 4, abs=1e-12)
        opposite = QuantumModel(OPTIMAL_ANGLES, "opposite-polarization")
        # 1 - c per cell: the combination becomes -1/2 - mu.
        assert expected_statistic_per_trial(opposite) == pytest.approx(
            -0.5 - mu_equal, abs=1e-12
        )


def reference_mu(side, angles):
    """mu written out independently of the package: the oracle's four cell
    probabilities for a quantum side, the equal-polarization cos^2 law for a
    strategy side."""
    if side["kind"] == "strategy":
        a1, a2, b1, b2 = angles.as_tuple()
        return 0.25 * (
            math.cos(a1 - b2) ** 2
            - math.cos(a1 - b1) ** 2
            - math.cos(a2 - b1) ** 2
            - math.cos(a2 - b2) ** 2
        )
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


# At the optimal angles n * mu is about 40391.6 for n = 390 050, so C = 40391
# lies below it, yet the quantum side's bound rounds to 1.0.
EDGE_DESIGN = {"n": 390_050, "critical_value": 40_391}


class TestValidIffDesign:
    """A config is accepted exactly when its (n, C, mu) is a design."""

    @pytest.mark.parametrize("side", MU_SIDES[::2], ids=["quantum", "constant"])
    def test_bound_that_rounds_to_one_is_a_config_error(self, side):
        with pytest.raises(
            ConfigError,
            match="no protocol design for n=390050, critical_value=40391: "
            "quantum_claimant_error_bound is 1.0",
        ):
            config_from_dict(base_doc(side=side, **EDGE_DESIGN))
        smaller = base_doc(side=side, **{**EDGE_DESIGN, "critical_value": 40_000})
        assert config_from_dict(smaller).design.quantum_claimant_error_bound < 1.0

    @given(
        st.sampled_from([OPTIMAL_ANGLES, PI_THIRD_ANGLES, AngleConfig(0.0, 0.0, 0.0, 0.0)]),
        st.sampled_from(MU_SIDES),
        st.integers(-2, 2_000_000) | st.sampled_from([EDGE_DESIGN["n"], MAX_TRIALS, MAX_TRIALS + 1]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_config_accepts_exactly_the_designs(self, angles, side, n, data):
        mu = mean_per_trial(SideSpec.from_dict(side), angles)
        # C anywhere, or within a few of n * mu, where the bounds near 1.
        below = int(n * mu) if 1 <= n <= MAX_TRIALS and mu > 0 else 0
        c = data.draw(st.integers(-2, max(below, 2)) | st.integers(below - 3, below + 1))
        doc = base_doc(angles=list(angles.as_tuple()), side=side, n=n, critical_value=c)
        try:
            design = design_for(n, c, mu)
        except ValueError:
            with pytest.raises(ConfigError, match="no protocol design"):
                config_from_dict(doc)
            return
        config = config_from_dict(doc)
        assert config.design == design == design_for(n, c, config.qm_mean_per_trial)
