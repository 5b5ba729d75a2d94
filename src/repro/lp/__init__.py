"""Linear-programming substrate: modelling layer + exact and float backends.

The exact backend (:mod:`repro.lp.simplex`) produces rational optima, which
the paper's period construction requires; the scipy backend
(:mod:`repro.lp.scipy_backend`) provides fast cross-checks and the float
basis search behind :meth:`LinearProgram.optimum`, whose proposals the
exact backend certifies.
"""

from .factor import BasisFactor, SingularBasisError, SparseLU
from .model import (
    Constraint,
    InfeasibleError,
    LinearProgram,
    LinExpr,
    LPError,
    LPSolution,
    UnboundedError,
    Variable,
    lp_sum,
)
from .simplex import DEFAULT_ENGINE, SimplexInstance, solve_exact
from .scipy_backend import solve_scipy

__all__ = [
    "BasisFactor",
    "DEFAULT_ENGINE",
    "SimplexInstance",
    "SingularBasisError",
    "SparseLU",
    "Constraint",
    "InfeasibleError",
    "LinearProgram",
    "LinExpr",
    "LPError",
    "LPSolution",
    "UnboundedError",
    "Variable",
    "lp_sum",
    "solve_exact",
    "solve_scipy",
]
