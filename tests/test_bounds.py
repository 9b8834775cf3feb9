"""Tail bounds and the protocol design solver."""

import math
from fractions import Fraction

import mpmath
import pytest

from bellbet.bounds import (
    MAX_TRIALS,
    ProtocolDesign,
    bernstein_sup_bound,
    bernstein_sup_log_bound,
    design_for,
    design_protocol,
    independent_chebyshev_bound,
    lenglart_chebyshev_bound,
    midpoint_critical_value,
    quantum_side_error_bound,
    quantum_side_error_log_bound,
)
from bellbet.core import QUANTUM_CEILING

MU_OPTIMAL = (math.sqrt(2.0) - 1.0) / 4.0


def bernstein_log_oracle(n, threshold):
    """Independent high-precision evaluation of the exponential tail bound,
    50 decimal digits."""
    with mpmath.workdps(50):
        root_3n = mpmath.sqrt(3) * mpmath.sqrt(n)
        k = 2 * mpmath.mpf(threshold) / root_3n
        return -(k * k / 2) / (1 + k / root_3n)


class TestLenglartChebyshev:
    def test_saturates_at_sqrt3(self):
        assert lenglart_chebyshev_bound(math.sqrt(3.0)) == 1.0

    def test_k_ten(self):
        assert lenglart_chebyshev_bound(10.0) == pytest.approx(math.sqrt(3.0) / 10.0, abs=1e-15)
        assert lenglart_chebyshev_bound(10.0) == pytest.approx(0.1732, abs=5e-5)

    def test_k_large(self):
        assert lenglart_chebyshev_bound(1732.05) == pytest.approx(0.001, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lenglart_chebyshev_bound(0.0)
        with pytest.raises(ValueError):
            lenglart_chebyshev_bound(-2.0)


class TestIndependentChebyshev:
    def test_values(self):
        assert independent_chebyshev_bound(1.0) == 1.0
        assert independent_chebyshev_bound(10.0) == pytest.approx(0.01, abs=1e-15)
        assert independent_chebyshev_bound(1000.0) == pytest.approx(1e-6, abs=1e-18)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            independent_chebyshev_bound(0.0)


class TestBernsteinSupBound:
    def test_canonical_design_point(self):
        # n = 25000, threshold = n/20: k = sqrt(250/3), the correction term
        # is exactly 1/30, so the log bound is the rational -1250/31.
        exact = Fraction(-1250, 31)
        log_value = bernstein_sup_log_bound(25_000, 1250)
        assert log_value == pytest.approx(float(exact), rel=1e-15)
        assert log_value == pytest.approx(-40.3226, abs=5e-5)
        assert bernstein_sup_bound(25_000, 1250) == pytest.approx(3.08e-18, rel=0.01)

    def test_matches_high_precision_oracle_to_6_figures(self):
        for n, threshold in [
            (25_000, 1250),
            (65_000, 65_000 / 32.0),
            (2_000, 77.46),
            (100, 10.0),
            (10_000_000, 40_000.0),
        ]:
            ours = bernstein_sup_log_bound(n, threshold)
            oracle = float(bernstein_log_oracle(n, threshold))
            assert ours == pytest.approx(oracle, rel=1e-9), (n, threshold)

    def test_tiny_threshold_limit(self):
        assert bernstein_sup_bound(1000, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_pi_third_design_point(self):
        assert bernstein_sup_bound(65_000, 65_000 / 32.0) < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bernstein_sup_log_bound(0, 10.0)
        with pytest.raises(ValueError):
            bernstein_sup_log_bound(100, 0.0)

    def test_monotone_decreasing_in_threshold(self):
        values = [bernstein_sup_log_bound(5000, t) for t in (10.0, 50.0, 200.0, 800.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_fixed_k_decreasing_in_n_with_gaussian_limit(self):
        # At threshold (sqrt(3)/2) k sqrt(n) the bound decreases in n and
        # approaches exp(-k^2/2).
        for k in (2.0, 3.0, 6.0):
            logs = []
            for n in (100, 10_000, 1_000_000, 100_000_000):
                threshold = (math.sqrt(3.0) / 2.0) * k * math.sqrt(n)
                logs.append(bernstein_sup_log_bound(n, threshold))
            assert all(a > b for a, b in zip(logs, logs[1:]))
            assert logs[-1] == pytest.approx(-k * k / 2.0, rel=1e-3)

    def test_dominates_lenglart_at_moderate_deviations(self):
        # For k >= 3 the exponential bound beats sqrt(3)/k on a grid.
        for k in (3.0, 4.0, 6.0, 10.0, 20.0):
            for n in (100, 2_000, 25_000, 1_000_000):
                threshold = (math.sqrt(3.0) / 2.0) * k * math.sqrt(n)
                assert bernstein_sup_bound(n, threshold) <= lenglart_chebyshev_bound(k), (k, n)


class TestQuantumSideBound:
    def test_canonical_design_point(self):
        assert quantum_side_error_bound(25_000, 1250, MU_OPTIMAL) < 1e-6

    def test_pi_third_design_point(self):
        assert quantum_side_error_bound(65_000, 65_000 // 32, 1.0 / 16.0) < 1e-6

    def test_degenerate_threshold_returns_one(self):
        n, mu = 1000, 0.1
        assert quantum_side_error_bound(n, n * mu, mu) == 1.0

    def test_infeasible_threshold_rejected(self):
        with pytest.raises(ValueError):
            quantum_side_error_log_bound(1000, 200, 0.1)

    def test_symmetric_with_local_bound_at_midpoint(self):
        # With C exactly n*mu/2 both thresholds coincide, hence both bounds.
        n, mu = 10_000, 0.1
        c = n * mu / 2.0
        assert quantum_side_error_log_bound(n, c, mu) == pytest.approx(
            bernstein_sup_log_bound(n, c), rel=1e-15
        )


class TestDesignProtocol:
    def test_optimal_angles_within_25000(self):
        design = design_protocol(MU_OPTIMAL, 1e-6)
        assert design.n <= 25_000
        assert design.critical_value == midpoint_critical_value(design.n, MU_OPTIMAL)
        assert design.local_realist_error_bound <= 1e-6
        assert design.quantum_claimant_error_bound <= 1e-6

    def test_pi_third_angles_within_65000(self):
        design = design_protocol(1.0 / 16.0, 1e-6)
        assert design.n <= 65_000
        assert design.critical_value == round(design.n / 32.0)

    def test_monotone_in_target(self):
        loose = design_protocol(MU_OPTIMAL, 0.5)
        tight = design_protocol(MU_OPTIMAL, 1e-6)
        assert loose.n < tight.n

    def test_round_trip_bounds(self):
        for mu, target in [(MU_OPTIMAL, 1e-6), (1.0 / 16.0, 1e-6), (0.02, 1e-3)]:
            design = design_protocol(mu, target)
            rebuilt = design_for(design.n, design.critical_value, mu)
            assert rebuilt.local_realist_error_bound <= target
            assert rebuilt.quantum_claimant_error_bound <= target
            assert rebuilt == design

    def test_minimality(self):
        design = design_protocol(MU_OPTIMAL, 1e-6)
        n = design.n - 1
        c = midpoint_critical_value(n, MU_OPTIMAL)
        smaller = design_for(n, c, MU_OPTIMAL)
        assert (
            smaller.local_realist_error_bound > 1e-6
            or smaller.quantum_claimant_error_bound > 1e-6
        )

    def test_asymmetric_options(self):
        design = design_protocol(
            MU_OPTIMAL, 1e-3, quantum_target_error=1e-9, critical_fraction=0.25
        )
        assert design.critical_value == midpoint_critical_value(design.n, MU_OPTIMAL, 0.25)
        assert design.local_realist_error_bound <= 1e-3
        assert design.quantum_claimant_error_bound <= 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            design_protocol(0.0, 1e-6)
        with pytest.raises(ValueError):
            design_protocol(QUANTUM_CEILING * 1.5, 1e-6)
        with pytest.raises(ValueError):
            design_protocol(MU_OPTIMAL, 1.0)
        with pytest.raises(ValueError):
            design_protocol(MU_OPTIMAL, 1e-6, critical_fraction=1.0)

    def test_designs_stay_within_the_trial_cap(self):
        # mu = 0.001 is feasible well inside the cap; mu = 1e-4 would need
        # about 8.3e9 trials, which no config may name, so no design is given.
        assert design_protocol(0.001, 1e-6).n == 82_921_565 <= MAX_TRIALS
        with pytest.raises(ValueError, match=f"up to {MAX_TRIALS} trials"):
            design_protocol(1e-4, 1e-6)


class TestProtocolDesignInvariants:
    def test_validates_fields(self):
        with pytest.raises(ValueError):
            ProtocolDesign(n=100, critical_value=200, qm_mean_per_trial=0.1)
