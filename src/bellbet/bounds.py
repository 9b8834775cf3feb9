"""Concentration bounds for the sequential statistic and the design solver.

Under any local strategy the per-trial increments of S_m are supermartingale
differences supported on {-1, 0, +1} with conditional mean in [-1/2, 0],
centered differences bounded by 3/2, and conditional variances bounded by
3/4. Two tail bounds follow:

* Lenglart domination plus Chebyshev gives P{S_n >= k sqrt(n)} <= sqrt(3)/k,
  valid but polynomial (the independent-trials Chebyshev comparison is 1/k^2).
* Freedman's martingale Bernstein inequality (Ann. Prob. 3, 1975, in its
  maximal form) gives the exponential bound

      P{ sup_{m<=n} S_m >= (sqrt(3)/2) k sqrt(n) }
          <= exp( -(k^2/2) / (1 + k / (sqrt(3) sqrt(n))) ).

Log-space evaluation is exact far below float underflow, so reports can
state bounds like e^-700 precisely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import QUANTUM_CEILING

SQRT3 = math.sqrt(3.0)

# Feasibility slack for qm_mean_per_trial vs the quantum ceiling.
_CEILING_TOL = 1e-12

# The most trials one experiment may hold. ``design_protocol`` returns no
# larger n, and a config that names one is refused. The referee holds every
# trial in memory: the engine the cell code it drew, the log one-byte columns
# of that code and both outcomes, so an experiment at the cap needs gigabytes.
MAX_TRIALS = 10**9


def lenglart_chebyshev_bound(k: float) -> float:
    """min(1, sqrt(3)/k), bounding P{S_n >= k sqrt(n)} for any local strategy."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return min(1.0, SQRT3 / k)


def independent_chebyshev_bound(k: float) -> float:
    """min(1, 1/k^2): the comparison bound when trials are independent."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return min(1.0, 1.0 / (k * k))


def bernstein_sup_log_bound(n: int, threshold: float) -> float:
    """Natural log of the Bernstein-type bound on P{sup_{m<=n} S_m >= threshold}.

    Substitutes k = 2 * threshold / (sqrt(3) sqrt(n)) into the exponential
    bound quoted in the module docstring.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    root_3n = SQRT3 * math.sqrt(n)
    k = 2.0 * threshold / root_3n
    return -(0.5 * k * k) / (1.0 + k / root_3n)


def bernstein_sup_bound(n: int, threshold: float) -> float:
    """The Bernstein-type tail bound itself (may underflow to 0.0; use the
    log variant when the exact magnitude matters)."""
    return math.exp(bernstein_sup_log_bound(n, threshold))


def quantum_side_error_log_bound(n: int, critical_value: float, qm_mean_per_trial: float) -> float:
    """Natural log of the bound on the quantum side falsely losing.

    Applies the same exponential form to the centered process
    n * mu - S_n, whose differences and conditional variances obey the same
    3/2 and 3/4 constants, with threshold n * mu - critical_value. Returns
    0.0 (bound 1) for a degenerate zero threshold.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    margin = n * qm_mean_per_trial - critical_value
    if margin < 0:
        raise ValueError(
            f"infeasible threshold: critical value {critical_value} exceeds "
            f"expected statistic {n * qm_mean_per_trial}"
        )
    if margin == 0:
        return 0.0
    return bernstein_sup_log_bound(n, margin)


def quantum_side_error_bound(n: int, critical_value: float, qm_mean_per_trial: float) -> float:
    return math.exp(quantum_side_error_log_bound(n, critical_value, qm_mean_per_trial))


@dataclass(frozen=True)
class ProtocolDesign:
    """Sample size, critical value and both sides' guaranteed error bounds.

    The one rule for which (n, C, mu) is a bet: n is an integer in
    1..``MAX_TRIALS``, C an integer with 0 < C < n * mu, and both bounds,
    derived here, fall below 1. A ValueError names the first that fails.

    ``local_realist_error_bound`` bounds the probability that an honest local
    world produces S_n > C (the local-realist side falsely loses);
    ``quantum_claimant_error_bound`` bounds the probability that a true
    quantum source yields S_n <= C. Log-space values are exact even when the
    linear ones underflow.
    """

    n: int
    critical_value: int
    qm_mean_per_trial: float
    local_realist_error_bound: float = field(init=False)
    quantum_claimant_error_bound: float = field(init=False)
    local_realist_log_error_bound: float = field(init=False)
    quantum_claimant_log_error_bound: float = field(init=False)

    def __post_init__(self) -> None:
        n, c, mu = self.n, self.critical_value, self.qm_mean_per_trial
        # Both are checked before any float arithmetic: a log header may hold
        # an integer too large for a float. ``type(...) is int`` refuses bools.
        if type(n) is not int or not 1 <= n <= MAX_TRIALS:
            raise ValueError(f"n must be an integer in 1..{MAX_TRIALS}")
        if type(c) is not int:
            raise ValueError("critical_value must be an integer")
        if not 0 < c < n * mu:
            raise ValueError(f"critical_value must lie strictly between 0 and n*mu = {n * mu:.6g}")
        for side, log_bound in (
            ("local_realist", bernstein_sup_log_bound(n, c)),
            ("quantum_claimant", quantum_side_error_log_bound(n, c, mu)),
        ):
            bound = math.exp(log_bound)
            if not bound < 1.0:
                raise ValueError(f"{side}_error_bound is {bound}, not below 1")
            object.__setattr__(self, f"{side}_error_bound", bound)
            object.__setattr__(self, f"{side}_log_error_bound", log_bound)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "critical_value": self.critical_value,
            "qm_mean_per_trial": self.qm_mean_per_trial,
            "local_realist_error_bound": self.local_realist_error_bound,
            "quantum_claimant_error_bound": self.quantum_claimant_error_bound,
            "local_realist_log_error_bound": self.local_realist_log_error_bound,
            "quantum_claimant_log_error_bound": self.quantum_claimant_log_error_bound,
        }


# The name callers use for the design of explicit n and C.
design_for = ProtocolDesign


def midpoint_critical_value(n: int, qm_mean_per_trial: float, fraction: float = 0.5) -> int:
    """Integer critical value at the given fraction of the expected statistic
    (default: half way between the local bound 0 and n * mu)."""
    return round(n * qm_mean_per_trial * fraction)


def design_protocol(
    qm_mean_per_trial: float,
    target_error: float,
    *,
    quantum_target_error: float | None = None,
    critical_fraction: float = 0.5,
) -> ProtocolDesign:
    """Smallest n (with midpoint critical value) meeting both error targets;
    a ValueError when it exceeds ``MAX_TRIALS``.

    ``critical_fraction`` and ``quantum_target_error`` expose the asymmetric
    variant: C = round(n * mu * fraction), local-realist side held to
    ``target_error`` and quantum side to ``quantum_target_error`` (defaults
    to the same target).
    """
    mu = qm_mean_per_trial
    if not 0.0 < mu <= QUANTUM_CEILING + _CEILING_TOL:
        raise ValueError(
            f"qm_mean_per_trial must be in (0, {QUANTUM_CEILING}], got {mu}"
        )
    if not 0.0 < target_error < 1.0:
        raise ValueError(f"target_error must be in (0, 1), got {target_error}")
    q_target = target_error if quantum_target_error is None else quantum_target_error
    if not 0.0 < q_target < 1.0:
        raise ValueError(f"quantum_target_error must be in (0, 1), got {q_target}")
    if not 0.0 < critical_fraction < 1.0:
        raise ValueError(f"critical_fraction must be in (0, 1), got {critical_fraction}")

    log_target = math.log(target_error)
    log_q_target = math.log(q_target)

    def feasible(n: int) -> bool:
        c = midpoint_critical_value(n, mu, critical_fraction)
        if not 0 < c < n * mu:
            return False
        return (
            bernstein_sup_log_bound(n, c) <= log_target
            and quantum_side_error_log_bound(n, c, mu) <= log_q_target
        )

    hi = 1
    while not feasible(hi):
        if hi == MAX_TRIALS:
            raise ValueError(f"no feasible sample size up to {MAX_TRIALS} trials; targets too strict")
        hi = min(2 * hi, MAX_TRIALS)
    lo = hi // 2
    # Every step keeps ``hi`` feasible, and it ends one above an infeasible
    # n. Integer rounding of C can make feasibility non-monotone by one
    # trial, so a smaller n can still be feasible.
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return ProtocolDesign(hi, midpoint_critical_value(hi, mu, critical_fraction), mu)
