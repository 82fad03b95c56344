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
    topology_preset,
)
from .signals import InputSet, InputSignal, make_signal, preset_scenario
from .protocols import AgentState, AlgorithmParams, ThetaGain
from .discrete import (
    SemiConvergenceReport,
    max_stepsize,
    pdelta_spectrum_check,
)
from .switching import (
    AdmissibilityReport,
    SwitchingSchedule,
    graph_at,
    validate_admissible,
)
from .bounds import BoundCurve, BoundInputs, tracking_bound_curve, transient_bound_s, ultimate_bound
from .engine import (
    DivergenceError,
    ErrorReport,
    Trajectory,
    error_metrics,
    integrate,
    run_scenario,
    simulate_discrete,
    simulate_protocol,
    write_trajectory_csv,
)
from .config import ConfigError, ScenarioConfig, load_scenario

__version__ = "0.1.0"
