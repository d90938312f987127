"""Numerical laboratory for the radial focusing inhomogeneous NLS equation

    i u_t + lap u = -|x|^b |u|^{p-1} u,    b > 0, p > 1,

on radial data: ground states by shooting, sharp Gagliardo-Nirenberg
constants, exact exponent arithmetic, split-step time evolution with
conservation monitoring, and localized virial blow-up diagnostics.
"""

from .grids import (
    Params,
    RegimeKind,
    RegimeClass,
    RadialGrid,
    RadialField,
    classify,
    make_grid,
    integrate,
    gradient_sq_norm,
)
from .functionals import (
    ThresholdReport,
    Verdict,
    mass,
    potential,
    energy,
    weinstein,
    pohozaev_residuals,
    c_opt_closed_form,
    threshold_report,
)
from .ground_state import GroundState, shoot, explicit_W, uniqueness_constants
from .evolution import StepperConfig, RunStatus, evolve, step

__all__ = [
    "Params", "RegimeKind", "RegimeClass", "RadialGrid", "RadialField",
    "classify", "make_grid", "integrate", "gradient_sq_norm",
    "ThresholdReport", "Verdict", "mass", "potential", "energy",
    "weinstein", "pohozaev_residuals", "c_opt_closed_form", "threshold_report",
    "GroundState", "shoot", "explicit_W", "uniqueness_constants",
    "StepperConfig", "RunStatus", "evolve", "step",
]

__version__ = "0.1.0"
