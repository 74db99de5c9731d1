"""Stability and controllability toolkit for a two-component
reaction-diffusion pulse under proportional feedback control.

Submodules:
    model     -- pulse data and the (alpha, beta, nu) reduction
    spectral  -- explicit spectral function R, root equation, verdict
    oracle    -- brute-force Sturm-Liouville cross-checks
    regions   -- parameter-plane classification and sweep
    pde_sim   -- direct time integration of the controlled system
    cli       -- command-line front end

The exports of ``oracle``, ``regions`` and ``pde_sim`` resolve on first use
(PEP 562), so that ``import pulsectrl`` and a CLI ``spectrum`` or ``region``
load numpy and the standard library only: ``oracle`` and ``pde_sim`` load
SciPy.  Those of ``errors``, ``model`` and ``spectral`` are bound on import.
"""

__version__ = "1.0.0"

import importlib

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
    RelaxationFailure,
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

# the module of each export resolved on first use, by ``__getattr__``
_MODULE_OF = {name: module for module, names in (
    ("oracle", ("FastGrid", "FastOperator", "eigenfunction_identities", "r_oracle",
                "solve_vin", "theta_inner_product", "theta_reference", "top_eigenvalues")),
    ("regions", ("RegionCell", "SweepResult", "classify_theorem", "min_control_gain",
                 "sweep_plane", "uncontrolled_verdict")),
    ("pde_sim", ("SimConfig", "SimTrace", "relax_profile", "run", "step")),
) for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


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
    "RelaxationFailure",
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
