"""dacsim: dynamic average consensus over weight-balanced digraphs.

A library plus CLI for simulating a family of average-tracking protocols
(continuous, discrete, rate-controlled, saturated, privacy-masked) on fixed
and switching topologies, and for evaluating the closed-form error bounds
those protocols come with.
"""

from .graphs import (
    SpectralData,
    WeightedDigraph,
    build_digraph,
    is_strongly_connected,
    is_weight_balanced,
    laplacian,
    spectral_summary,
    strongly_connected_components,
    topology_preset,
)
from .signals import (
    InputSet,
    InputSignal,
    InputTable,
    SignalStats,
    disagreement_gamma,
    discrete_disagreement_gamma,
    eval_input,
    make_signal,
    network_average,
    preset_scenario,
)
from .protocols import (
    AgentState,
    AlgorithmParams,
    Message,
    ThetaGain,
    apply_saturation,
    dc1_derivative,
    dc2_derivative,
    dc3_derivative,
    init_state,
)
from .discrete import (
    DiscreteState,
    SemiConvergenceReport,
    StepSize,
    dcdisc_step,
    make_stepsize,
    max_stepsize,
    pdelta_spectrum_check,
)
from .switching import (
    AdmissibilityReport,
    SwitchingSchedule,
    graph_at,
    union_digraph,
    validate_admissible,
)
from .bounds import (
    BoundCurve,
    BoundInputs,
    convergence_rate,
    tracking_bound,
    tracking_bound_curve,
    transient_bound_s,
    ultimate_bound,
    zero_error_class_check,
    zero_system_equilibrium,
)
from .engine import (
    DivergenceError,
    ErrorReport,
    Trajectory,
    error_metrics,
    integrate,
    run_scenario,
    simulate_discrete,
    simulate_protocol,
    simulate_zero_system,
    write_trajectory_csv,
)
from .config import ConfigError, ScenarioConfig, load_scenario

__version__ = "0.1.0"
