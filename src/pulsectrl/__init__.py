"""Stability and controllability toolkit for a two-component
reaction-diffusion pulse under proportional feedback control.

Submodules:
    model     -- pulse data and the (alpha, beta, nu) reduction
    spectral  -- explicit spectral function R, root equation, verdict
    oracle    -- brute-force Sturm-Liouville cross-checks
    regions   -- parameter-plane classification and sweep
    pde_sim   -- direct time integration of the controlled system
    cli       -- command-line front end
"""

__version__ = "1.0.0"

from .errors import (
    DegenerateControl,
    EssentialRay,
    FloorInsufficient,
    NearEigenvalue,
    NotControllable,
    NumericalBlowup,
    OutOfContinuum,
    PoleAtInput,
    PulseControlError,
    RootIsolationFailure,
    UnstableEssential,
)
from .model import (
    ModelParams,
    PowerLawModel,
    ReducedCoefficients,
    pulse_profile,
    reduced_coefficients,
)
from .spectral import (
    SpectrumReport,
    assemble_spectrum,
    essential_edges,
    r_total,
)
from .oracle import (
    FastGrid,
    FastOperator,
    eigenfunction_identities,
    r_oracle,
    solve_vin,
    theta_inner_product,
    theta_reference,
    top_eigenvalues,
)
from .regions import (
    RegionCell,
    SweepResult,
    classify_theorem,
    min_control_gain,
    sweep_plane,
    uncontrolled_verdict,
)
from .pde_sim import SimConfig, SimTrace, relax_profile, run, step

__all__ = [
    # errors
    "DegenerateControl",
    "EssentialRay",
    "FloorInsufficient",
    "NearEigenvalue",
    "NotControllable",
    "NumericalBlowup",
    "OutOfContinuum",
    "PoleAtInput",
    "PulseControlError",
    "RootIsolationFailure",
    "UnstableEssential",
    # model
    "ModelParams",
    "PowerLawModel",
    "ReducedCoefficients",
    "pulse_profile",
    "reduced_coefficients",
    # spectral
    "SpectrumReport",
    "assemble_spectrum",
    "essential_edges",
    "r_total",
    # oracle
    "FastGrid",
    "FastOperator",
    "eigenfunction_identities",
    "r_oracle",
    "solve_vin",
    "theta_inner_product",
    "theta_reference",
    "top_eigenvalues",
    # regions
    "RegionCell",
    "SweepResult",
    "classify_theorem",
    "min_control_gain",
    "sweep_plane",
    "uncontrolled_verdict",
    # pde_sim
    "SimConfig",
    "SimTrace",
    "relax_profile",
    "run",
    "step",
]
