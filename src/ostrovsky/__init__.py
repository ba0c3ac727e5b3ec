"""Pseudospectral laboratory for the generalized Ostrovsky equation with
negative dispersion: exact-propagator time stepping, dispersive-estimate
probes, oscillatory-kernel quadrature, and the weak-rotation limit."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Field,
    Grid,
    MultiplierSpec,
    PhaseSymbol,
    apply_multiplier,
    project_zero_mean,
)
from .norms import (  # noqa: F401
    ModulationWeight,
    SpaceTimeField,
    h_s_norm,
    mixed_norm,
    x_s_norm,
    xsb_norm,
)
from .solver import (  # noqa: F401
    SolverConfig,
    Trajectory,
    evolve,
    gaussian_bump,
    hamiltonian,
    nonlinear_term,
    picard_iterate,
    soliton_initial_data,
    step,
)
from .limits import (  # noqa: F401
    SweepConfig,
    gronwall_consistency_check,
    rotation_limit_sweep,
)
from .kernel import (  # noqa: F401
    KernelSpec,
    RegionTag,
    kernel_eval,
    kernel_mixed_norm,
    region_decay_check,
)
from .estimates import (  # noqa: F401
    Ensemble,
    RatioReport,
    bilinear_ratio,
    linfty_bounds_ratio,
    multilinear_ratio,
    run_tag,
    strichartz_ratio,
)
