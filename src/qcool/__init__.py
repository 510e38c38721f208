"""Numerical laboratory for cooling limits of a qubit channel through an
incoherent many-qubit environment."""

from .qmat import (
    DensityMatrix,
    fidelity,
    herm_eigvals,
    kron,
    partial_trace_matrix,
    partial_transpose,
)
from .channel import (
    ChannelParams,
    EnvironmentSpec,
    ThermalPoint,
    conditional_state,
    env_state,
    project_b,
    singlet,
    thermal_p,
    tripartite_state,
    unconditional_state,
)
from .entanglement import EntanglementReport, negativity, report
from .limits import (
    GridSpec,
    LimitVerdict,
    SweepRecord,
    cond_approx_ok,
    cond_boundary,
    critical_ps_numeric,
    high_temp_boundary,
    sweep,
    uncond_approx_ok,
    uncond_boundary,
)
from .photonics import (
    CoincidenceTally,
    RateConfig,
    accessible_bounds,
    heralded_state_estimate,
    merge_tallies,
    mix_detections,
    params_from_ratio,
    rate_ratio,
    simulate_streams,
)
from .tomography import (
    CountTable,
    TomographySettings,
    born_probabilities,
    linear_inversion,
    project_to_physical,
    reconstruct,
    sample_counts,
)

__version__ = "0.1.0"
