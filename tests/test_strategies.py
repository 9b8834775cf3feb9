"""Strategy interface: locality by construction, determinism, built-ins."""

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bellbet.core import Setting
from bellbet.logfile import LogHeader, TrialLog
from bellbet.strategies import (
    ASSIGNMENT_BITS,
    ASSIGNMENT_VALUES,
    LEFT,
    LOCAL_STRATEGY_NAMES,
    OUTCOME_RANGE_HALF_WIDTH,
    RIGHT,
    OPTIMAL_ASSIGNMENT,
    ConstantStrategy,
    SourceMessage,
    StationMemory,
    StrategyError,
    TrialView,
    _FAIL_FROM,
    _FAIL_UP_TO,
    _PASS_ABOVE,
    _PASS_BELOW,
    _SCORE_TABLE,
    build_strategy,
    polarizer_passes,
)
from theory import OPTIMAL_ANGLES, JointBitDistribution, angle_difference, bell_inequality_slack


def prepared(name, seed=11, n=64, mode="sequential", params=None):
    strategy = build_strategy(name, params)
    strategy.prepare(seed=seed, n=n, angles=OPTIMAL_ANGLES, mode=mode)
    return strategy


def log_of(cells, n=None):
    """A log of n trials (by default as many as ``cells``) that holds the
    trials of ``cells`` with both outcomes 0: a source's history."""
    header = LogHeader(
        config_hash="0" * 64,
        seed=0,
        mode="sequential",
        angles=OPTIMAL_ANGLES.as_tuple(),
        n=len(cells) if n is None else n,
        critical_value=0,
    )
    log = TrialLog(header)
    for cell in cells:
        log.commit(cell, 0, 0)
    return log


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(StrategyError):
            build_strategy("telepathy")

    def test_cheater_refused_by_default(self):
        with pytest.raises(StrategyError):
            build_strategy("nonlocal-cheater")

    def test_local_roster(self):
        assert set(LOCAL_STRATEGY_NAMES) == {
            "constant",
            "independent-coin",
            "classical-polarizer",
            "deterministic-optimal",
            "adaptive-frequency-tracker",
        }

    def test_use_before_prepare_is_refused(self):
        with pytest.raises(StrategyError, match="before prepare"):
            build_strategy("independent-coin").respond_columns(np.zeros(4, dtype=np.int64))


class TestLocalityByConstruction:
    def test_signature_admits_no_other_wing(self):
        import inspect

        params = inspect.signature(ConstantStrategy.station_respond).parameters
        assert set(params) == {"self", "side", "setting_index", "message", "memory"}

    @pytest.mark.parametrize("name", LOCAL_STRATEGY_NAMES)
    def test_cloning_determinism(self, name):
        # Evaluate both settings on identical (message, memory), twice: the
        # outputs are functions of own setting only.
        strategy = prepared(name)
        message = strategy.source_emit(1, log_of([]))
        for side in (LEFT, RIGHT):
            memory = strategy.initial_memory(side)
            first = [strategy.station_respond(side, k, message, memory) for k in (1, 2)]
            second = [strategy.station_respond(side, k, message, memory) for k in (1, 2)]
            assert first == second

    @pytest.mark.parametrize("name", LOCAL_STRATEGY_NAMES)
    def test_runs_reproducible_across_instances(self, name):
        outputs = []
        for _ in range(2):
            strategy = prepared(name, seed=5, n=32)
            memory = {s: strategy.initial_memory(s) for s in (LEFT, RIGHT)}
            history = log_of([], n=32)
            bits = []
            for m in range(1, 33):
                message = strategy.source_emit(m, history)
                setting = Setting(1 + (m % 2), 1 + ((m // 2) % 2))
                x = strategy.station_respond(LEFT, setting.i, message, memory[LEFT])
                y = strategy.station_respond(RIGHT, setting.j, message, memory[RIGHT])
                bits.append((x, y))
                x, y = int(x) & 1, int(y) & 1
                history.commit(setting.cell, x, y)
                for side in (LEFT, RIGHT):
                    view = TrialView(
                        m=m,
                        own_setting=setting.i if side == LEFT else setting.j,
                        own_outcome=x if side == LEFT else y,
                        other_setting=setting.j if side == LEFT else setting.i,
                        other_outcome=y if side == LEFT else x,
                    )
                    memory[side] = strategy.update_memory(side, memory[side], view)
            outputs.append(bits)
        assert outputs[0] == outputs[1]


class TestConstant:
    def test_fixed_payload_and_bit(self):
        strategy = prepared("constant")
        assert strategy.source_emit(1, log_of([])).payload == b""
        assert strategy.source_emit(9, log_of([])).payload == b""
        assert strategy.station_respond(LEFT, 1, SourceMessage(b""), StationMemory()) == 1
        assert prepared("constant", params={"bit": 0}).station_respond(
            RIGHT, 2, SourceMessage(b""), StationMemory()
        ) == 0

    def test_memory_unchanged_but_counter_advances(self):
        strategy = prepared("constant")
        memory = strategy.initial_memory(LEFT)
        view = TrialView(m=1, own_setting=1, own_outcome=1)
        updated = strategy.update_memory(LEFT, memory, view)
        assert updated == StationMemory(next_trial=2)

        # A subclass memory keeps its type and its own fields.
        @dataclass(frozen=True)
        class TaggedMemory(StationMemory):
            tag: str = ""

        advanced = strategy.update_memory(LEFT, TaggedMemory(next_trial=4, tag="kept"), view)
        assert advanced == TaggedMemory(next_trial=5, tag="kept")

    def test_rejects_non_bit_param(self):
        with pytest.raises(StrategyError):
            ConstantStrategy(bit=2)

    @pytest.mark.parametrize("bit", [1.0, 0.0, True, False, "1"])
    def test_rejects_a_bit_that_is_no_int(self, bit):
        # Only an exact int 0 or 1: the engine refuses any other outcome, so
        # a bit that equals 1 but is no int would void every run.
        with pytest.raises(StrategyError, match="constant bit must be 0 or 1"):
            ConstantStrategy(bit=bit)


class TestClassicalPolarizer:
    def test_polarization_angles_uniform(self):
        # Chi-square uniformity of the hidden angle over 10^5 draws.
        strategy = prepared("classical-polarizer", seed=2026, n=100_000)
        thetas = np.array(
            [
                struct.unpack("<d", strategy.source_emit(m, log_of([])).payload)[0]
                for m in range(1, 100_001)
            ]
        )
        assert thetas.min() >= 0.0 and thetas.max() < math.pi
        counts, _ = np.histogram(thetas, bins=32, range=(0.0, math.pi))
        assert stats.chisquare(counts).pvalue > 1e-4

    def test_zero_distance_passes(self):
        # Analyzer at 0 with polarization 0: zero angular distance -> pass.
        from bellbet.core import AngleConfig

        strategy = build_strategy("classical-polarizer")
        strategy.prepare(seed=1, n=4, angles=AngleConfig(0.0, 1.0, 0.5, -0.5), mode="sequential")
        message = SourceMessage(struct.pack("<d", 0.0))
        assert strategy.station_respond(LEFT, 1, message, StationMemory()) == 1

    def test_threshold(self):
        from bellbet.core import AngleConfig

        strategy = build_strategy("classical-polarizer")
        strategy.prepare(seed=1, n=4, angles=AngleConfig(0.0, 0.0, 0.0, 0.0), mode="sequential")
        just_inside = SourceMessage(struct.pack("<d", math.pi / 4.0 - 1e-9))
        just_outside = SourceMessage(struct.pack("<d", math.pi / 4.0 + 1e-9))
        assert strategy.station_respond(LEFT, 1, just_inside, StationMemory()) == 1
        assert strategy.station_respond(LEFT, 1, just_outside, StationMemory()) == 0

    def test_triangle_coincidence_law(self):
        # With theta uniform on [0, pi), two pi/4-threshold polarizers at
        # angular distance d coincide with probability 1 - 2d/pi.
        from bellbet.core import AngleConfig
        from bellbet.config import SideSpec
        from bellbet.montecarlo import simulate_run

        angles = AngleConfig(0.3, 1.2, -0.5, 0.9)
        n = 400_000
        cells, x, y = simulate_run(
            SideSpec(kind="strategy", strategy="classical-polarizer"), angles, n, seed=606
        )
        coincide = x == y
        for cell in range(4):
            i, j = (cell >> 1) + 1, (cell & 1) + 1
            d = angular_distance(angle_difference(angles, i, j), 0.0)
            expected = 1.0 - 2.0 * d / math.pi
            mask = cells == cell
            freq = float(coincide[mask].mean())
            se = math.sqrt(expected * (1.0 - expected) / int(mask.sum()))
            assert abs(freq - expected) <= 4.0 * se, (cell, freq, expected)


def angular_distance(a, b):
    """Distance between orientations modulo pi, in [0, pi/2]: the floored
    remainder d of |a - b| by pi, then the smaller of d and pi - d, in
    Python floats."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def reference_passes(theta, analyzer):
    """The polarizer's rule as written: within pi/4 of theta, modulo pi."""
    return angular_distance(theta, analyzer) < math.pi / 4


def moved(value, ulps):
    """``value`` moved by ``ulps`` floats, up for a positive count."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def bits(values):
    """Each float's exact bit pattern, so that -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


def near(value):
    """``value`` and the floats one ulp either side of it."""
    return [moved(value, -1), value, moved(value, 1)]


# Orientations with |a - b| up to 1e9, exact multiples of pi, the pi/4
# thresholds on either side of 0, and pi and 2 pi each with its neighbours,
# so differences of both signs occur and, against 0, differences at the
# edges of the array path's remainder-free range.
EDGES = [*near(math.pi), *near(math.tau)]
ORIENTATION = st.one_of(
    st.floats(-5e8, 5e8, allow_nan=False, allow_infinity=False),
    st.integers(-1000, 1000).map(lambda k: k * math.pi),
    st.sampled_from([0.0, -0.0, math.pi / 4, -math.pi / 4, math.pi / 2, 5e8, -5e8, *EDGES]),
)
# The distances where the pass test's answer can change, or its remainder
# step starts: Q, B, C, D, pi and 2 pi.
THRESHOLDS = (_PASS_BELOW, _FAIL_UP_TO, _FAIL_FROM, _PASS_ABOVE, math.pi, math.tau)
# (theta, analyzer) with theta within 6 ulps of analyzer +- a threshold.
NEAR_THRESHOLD = st.builds(
    lambda a, edge, sign, ulps: (moved(a + sign * edge, ulps), a),
    ORIENTATION,
    st.sampled_from(THRESHOLDS),
    st.sampled_from((1.0, -1.0)),
    st.integers(-6, 6),
)


def assert_one_rule(pairs):
    """The array path, the scalar path and the reference agree on ``pairs``."""
    thetas, analyzers = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    expected = [reference_passes(t, a) for t, a in pairs]
    assert [polarizer_passes(t, a) for t, a in pairs] == expected
    assert polarizer_passes(thetas, analyzers).tolist() == expected


class TestPolarizerPasses:
    @given(st.lists(st.one_of(st.tuples(ORIENTATION, ORIENTATION), NEAR_THRESHOLD), min_size=1, max_size=20))
    @settings(max_examples=400)
    def test_array_scalar_and_reference_agree(self, pairs):
        assert_one_rule(pairs)

    @pytest.mark.parametrize("analyzer", [0.0, -0.0, 1.0, -2.5, math.pi, -3 * math.pi, 1e3, -5e8])
    def test_every_threshold_to_six_ulps(self, analyzer):
        # theta at 6 ulps either side of analyzer +- each threshold, and the
        # same distances, where exact, against an analyzer of 0.
        offsets = [moved(edge, k) for edge in THRESHOLDS for k in range(-6, 7)]
        pairs = [(analyzer + sign * d, analyzer) for d in offsets for sign in (1.0, -1.0)]
        pairs += [(sign * d, 0.0) for d in offsets for sign in (1.0, -1.0)]
        pairs += [(a, t) for t, a in pairs]
        assert_one_rule(pairs)

    def test_constants_are_directed_roundings(self):
        pi = Fraction(math.pi)
        assert Fraction(_PASS_BELOW) == pi / 4
        for below, real in ((_FAIL_UP_TO, pi - pi / 4), (_PASS_ABOVE, 2 * pi - pi / 4)):
            assert Fraction(below) <= real < Fraction(math.nextafter(below, math.inf))
        real = pi + pi / 4
        assert Fraction(math.nextafter(_FAIL_FROM, -math.inf)) < real <= Fraction(_FAIL_FROM)

    def test_multiples_of_pi(self):
        a = (np.arange(-50, 51, dtype=np.float64) * math.pi).tolist()
        for b in (0.0, math.pi, -3 * math.pi):
            assert_one_rule([(p, b) for p in a] + [(b, p) for p in a])

    def test_below_two_pi_takes_no_remainder(self, fmod_calls):
        # Every difference of 0, pi and 2 pi (each with its neighbours)
        # below 2 pi: four comparisons, no fmod, and the scalar's answers.
        pairs = [(a, b) for a in [0.0, *EDGES] for b in [0.0, *EDGES] if abs(a - b) < math.tau]
        assert max(abs(a - b) for a, b in pairs) == math.nextafter(math.tau, 0.0)
        assert_one_rule(pairs)
        assert fmod_calls == []

    def test_two_pi_and_above_fall_back_to_fmod(self, fmod_calls):
        # One d at or above 2 pi sends the whole array to fmod, which must
        # agree with the scalar on the differences below 2 pi too.
        below = [0.0, *near(math.pi), *near(_FAIL_FROM), math.nextafter(math.tau, 0.0)]
        for far in near(math.tau)[1:] + [math.tau + _FAIL_UP_TO, 1e9]:
            a = np.array([*below, far])
            array = polarizer_passes(a, 0.0)
            assert len(fmod_calls) == 1
            assert array.tolist() == [reference_passes(p, 0.0) for p in a.tolist()]
            fmod_calls.clear()

    def test_inputs_unchanged(self):
        # With no remainder, then through fmod.
        for a in (np.array([0.0, *near(math.pi)]), np.array([0.0, 1e9])):
            b = a[::-1].copy()
            before = bits(a), bits(b)
            for pair in ((a, b), (a, 0.5), (0.5, b)):
                polarizer_passes(*pair)
            assert (bits(a), bits(b)) == before

    def test_polarizer_passes_at_the_threshold(self):
        quarter = math.pi / 4
        pairs = [
            (theta, analyzer)
            for analyzer in (0.0, 1.0, -2.5)
            for edge in (analyzer + quarter, analyzer - quarter)
            for theta in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))
        ]
        thetas, analyzers = np.array(pairs).T
        array = polarizer_passes(thetas, analyzers)
        assert array.tolist() == [polarizer_passes(t, a) for t, a in pairs]
        assert polarizer_passes(math.nextafter(quarter, 0.0), 0.0)
        assert not polarizer_passes(quarter, 0.0)


def reference_assignment_bits(k):
    """Assignment k in 0..15 -> (x1, x2, y1, y2), most significant bit first."""
    return (k >> 3) & 1, (k >> 2) & 1, (k >> 1) & 1, k & 1


class TestDeterministicOptimal:
    def test_assignment_attains_zero_slack(self):
        x1, x2, y1, y2 = (int(b) for b in ASSIGNMENT_BITS[OPTIMAL_ASSIGNMENT])
        assert bell_inequality_slack(JointBitDistribution.point_mass(x1, x2, y1, y2)) == 0.0

    def test_optimal_assignment_is_first_maximizer(self):
        # Reference: the slack of each of the 16 point masses.
        slacks = [
            bell_inequality_slack(JointBitDistribution.point_mass(*reference_assignment_bits(k)))
            for k in range(16)
        ]
        assert ASSIGNMENT_VALUES.sum(axis=1).tolist() == slacks
        assert OPTIMAL_ASSIGNMENT == slacks.index(max(slacks))
        assert max(slacks) == 0.0

    def test_assignment_tables_match_loop_reference(self):
        values = np.zeros((16, 4), dtype=np.int64)
        for k in range(16):
            bits = reference_assignment_bits(k)
            assert tuple(ASSIGNMENT_BITS[k]) == bits
            x, y = bits[:2], bits[2:]
            for cell in range(4):
                if x[cell >> 1] == y[cell & 1]:
                    values[k, cell] = 1 if cell == 1 else -1
        assert ASSIGNMENT_VALUES.dtype == np.int64
        assert np.array_equal(ASSIGNMENT_VALUES, values)

    def test_responses_follow_assignment(self):
        strategy = prepared("deterministic-optimal")
        message = strategy.source_emit(1, log_of([]))
        x1, x2, y1, y2 = reference_assignment_bits(message.payload[0])
        memory = StationMemory()
        assert strategy.station_respond(LEFT, 1, message, memory) == x1
        assert strategy.station_respond(LEFT, 2, message, memory) == x2
        assert strategy.station_respond(RIGHT, 1, message, memory) == y1
        assert strategy.station_respond(RIGHT, 2, message, memory) == y2


class TestAdaptiveTracker:
    def test_payload_adapts_after_ten_trials(self):
        strategy = prepared("adaptive-frequency-tracker")
        first = strategy.source_emit(1, log_of([])).payload
        history = log_of([0, 0, 3, 3, 0, 2, 3, 0, 0, 3])
        later = strategy.source_emit(11, history).payload
        assert later != first

    @pytest.mark.parametrize("mode", ["sequential", "cloned-source"])
    @pytest.mark.parametrize("length", [0, 1, 2, 7, 150])
    def test_grown_recounted_and_whole_run_assignments_agree(self, mode, length):
        # The per-trial step (history grows one trial at a time), a fresh
        # tracker scoring the whole history at once, and the vectorized
        # whole-run rule pick the same assignment at every trial. The
        # engine's cloned-source source sees an empty history every trial.
        cells = np.random.default_rng(1000 + length).integers(0, 4, size=length)
        empty = log_of([])

        def shown(m):
            return log_of(cells[: m - 1].tolist()) if mode == "sequential" else empty

        grown = prepared("adaptive-frequency-tracker", mode=mode)
        stepped = [grown.source_emit(m, shown(m)).payload[0] for m in range(1, length + 1)]
        recounted = [
            prepared("adaptive-frequency-tracker", mode=mode).source_emit(m, shown(m)).payload[0]
            for m in range(1, length + 1)
        ]
        whole_run = prepared("adaptive-frequency-tracker", mode=mode).assignments(cells)
        assert stepped == recounted == whole_run.tolist()
        # A history that is not one trial longer than the last one is
        # scored afresh, and an empty history scores every assignment 0.
        jump = log_of(cells[: length // 2].tolist())
        fresh = prepared("adaptive-frequency-tracker", mode=mode)
        assert grown.source_emit(len(jump) + 1, jump) == fresh.source_emit(len(jump) + 1, jump)
        assert grown.source_emit(1, empty).payload[0] == 0

    @given(
        st.one_of(
            st.lists(st.integers(0, 3), max_size=300),
            # Runs of one cell keep ties between assignments alive.
            st.lists(st.tuples(st.integers(0, 3), st.integers(1, 60)), max_size=5).map(
                lambda runs: [cell for cell, length in runs for _ in range(length)]
            ),
        ),
        st.sampled_from(["sequential", "cloned-source"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_whole_run_matches_plain_int_reference(self, cells, mode):
        # Per trial: 16 plain-int scores of the trials before it (none in
        # cloned-source mode), then the first maximizer.
        scores, expected = [0] * 16, []
        for cell in cells:
            expected.append(scores.index(max(scores)))
            if mode == "sequential":
                scores = [score + int(ASSIGNMENT_VALUES[k, cell]) for k, score in enumerate(scores)]
        strategy = prepared("adaptive-frequency-tracker", mode=mode)
        whole_run = strategy.assignments(np.array(cells, dtype=np.uint8))
        assert whole_run.tolist() == expected

    def test_complementary_assignments_score_alike(self):
        # Assignment 15 - k flips every bit of k, so both agree in the same
        # cells: the first maximizer is always one of 0..7.
        for k in range(16):
            assert np.array_equal(_SCORE_TABLE[:, k], _SCORE_TABLE[:, 15 - k])

    def test_conditional_mean_nonpositive(self):
        # Whatever assignment it picks, E[delta | counts] <= 0 under uniform
        # settings: the chosen assignment is still a deterministic local law.
        strategy = prepared("adaptive-frequency-tracker")
        counts = np.random.default_rng(12).integers(0, 50, size=(4, 200))
        chosen = strategy.choose_assignment(counts)
        assert (ASSIGNMENT_VALUES[chosen].sum(axis=1) <= 0).all()


class TestRangeViolator:
    def test_emits_reals_in_documented_range(self):
        strategy = prepared("range-violator", seed=8, n=100)
        values = [
            strategy.station_respond(LEFT, 1, SourceMessage(b""), StationMemory(next_trial=m))
            for m in range(1, 101)
        ]
        arr = np.array(values)
        assert np.all(np.abs(arr) <= OUTCOME_RANGE_HALF_WIDTH)
        assert not np.isin(arr, (0.0, 1.0)).any()
        assert all(isinstance(v, float) for v in values)


class TestIndependentCoin:
    def test_sides_use_distinct_streams(self):
        strategy = prepared("independent-coin", seed=3, n=2000)
        left = [
            strategy.station_respond(LEFT, 1, SourceMessage(b""), StationMemory(next_trial=m))
            for m in range(1, 2001)
        ]
        right = [
            strategy.station_respond(RIGHT, 1, SourceMessage(b""), StationMemory(next_trial=m))
            for m in range(1, 2001)
        ]
        assert left != right
        assert 0.4 < np.mean(left) < 0.6
        assert 0.4 < np.mean(right) < 0.6


# A source message each station can read, made without the source's stream.
STATION_MESSAGES = {
    "classical-polarizer": SourceMessage(struct.pack("<d", 1.0)),
    "deterministic-optimal": SourceMessage(bytes([OPTIMAL_ASSIGNMENT])),
    "adaptive-frequency-tracker": SourceMessage(bytes([OPTIMAL_ASSIGNMENT])),
}

# The strategies whose stations read a seeded stream: each its own wing's.
READS_OWN_WING = {"independent-coin", "range-violator"}


class TestStationDraws:
    """A station process prepares the strategy and answers for one wing; it
    draws no stream it does not read, so the source's stream stays undrawn."""

    @pytest.mark.parametrize("side", [LEFT, RIGHT])
    @pytest.mark.parametrize("name", LOCAL_STRATEGY_NAMES + ("range-violator",))
    def test_station_draws_only_its_own_wing(self, draws, name, side):
        strategy = prepared(name, n=8)
        memory = strategy.initial_memory(side)
        message = STATION_MESSAGES.get(name, SourceMessage(b""))
        for setting_index in (1, 2):
            strategy.station_respond(side, setting_index, message, memory)
        assert [role for _, role in draws] == ([side] if name in READS_OWN_WING else [])
