"""bellbet: referee, simulator and guaranteed error bounds for wagered
sequential CHSH (Bell-test) protocols.

The package runs local hidden-variable strategies and a quantum oracle
through a referee that enforces the protocol's information-flow rules,
maintains the coincidence statistic and its supermartingale trace, applies
Lenglart/Chebyshev and martingale Bernstein tail bounds, designs sample
sizes and critical values, and adjudicates with guaranteed error
probabilities, in process or across OS processes over a framed wire
protocol.
"""

from .bounds import (
    ProtocolDesign,
    bernstein_sup_bound,
    bernstein_sup_log_bound,
    design_protocol,
    independent_chebyshev_bound,
    lenglart_chebyshev_bound,
    quantum_side_error_bound,
)
from .config import ExperimentConfig, SideSpec, config_from_dict, load_config
from .core import (
    OPTIMAL_ANGLES,
    PI_THIRD_ANGLES,
    QUANTUM_CEILING,
    AngleConfig,
    CountMatrix,
    JointBitDistribution,
    Setting,
    TrialRecord,
    bell_inequality_slack,
    chsh_count_statistic,
    coincidence_probability,
    deterministic_implication_holds,
    photon_to_spin_angles,
)
from .quantum import (
    QuantumModel,
    cell_coincidence_probability,
    expected_statistic_per_trial,
    sample_pair,
)
from .referee import (
    RefereeEngine,
    RunResult,
    StatisticTrace,
    Verdict,
    adjudicate,
    build_report,
    replay_verify,
    run_experiment,
    validate_outcome,
)
from .strategies import Strategy, build_strategy

__version__ = "0.1.0"

__all__ = [
    "AngleConfig",
    "CountMatrix",
    "ExperimentConfig",
    "JointBitDistribution",
    "OPTIMAL_ANGLES",
    "PI_THIRD_ANGLES",
    "ProtocolDesign",
    "QUANTUM_CEILING",
    "QuantumModel",
    "RefereeEngine",
    "RunResult",
    "Setting",
    "SideSpec",
    "StatisticTrace",
    "Strategy",
    "TrialRecord",
    "Verdict",
    "adjudicate",
    "bell_inequality_slack",
    "bernstein_sup_bound",
    "bernstein_sup_log_bound",
    "build_report",
    "build_strategy",
    "cell_coincidence_probability",
    "chsh_count_statistic",
    "coincidence_probability",
    "config_from_dict",
    "design_protocol",
    "deterministic_implication_holds",
    "expected_statistic_per_trial",
    "independent_chebyshev_bound",
    "lenglart_chebyshev_bound",
    "load_config",
    "photon_to_spin_angles",
    "quantum_side_error_bound",
    "replay_verify",
    "run_experiment",
    "sample_pair",
    "validate_outcome",
]
