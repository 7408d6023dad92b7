"""Simulator and verification suite for a measurement-fueled single-qubit engine.

A four-stroke cycle on one qubit: two finite-time driven unitary strokes, a
non-selective projective measurement that injects the fuel energy, and a
thermalization stroke.  The package executes the cycle numerically, evaluates
the closed-form energetics in terms of transition probabilities, cross-checks
the two paths, and scans the measurement-basis angles for the extrema of
extracted work, efficiency and measurement entropy change.
"""

from .cycle import (
    CycleEngine,
    EngineParams,
    TransitionProbs,
    analytic_energetics,
    occupation_deltas,
    transition_probabilities,
)
from .errors import ConfigurationError, InvariantViolation, ValidationError
from .measurement import basis_kets, measure
from .propagator import (
    Segment,
    convergence_order,
    time_ordered_propagator,
)
from .qubit_algebra import gibbs_state, hermitian_expm, von_neumann_entropy
from .sweep import (
    GridSpec,
    Objective,
    grid_sweep,
    locate_extrema,
    slice_profile,
    symmetry_residual,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "CycleEngine",
    "DEFAULT_TOLERANCES",
    "EngineParams",
    "GridSpec",
    "InvariantViolation",
    "Objective",
    "Segment",
    "Tolerances",
    "TransitionProbs",
    "ValidationError",
    "analytic_energetics",
    "basis_kets",
    "convergence_order",
    "gibbs_state",
    "grid_sweep",
    "hermitian_expm",
    "locate_extrema",
    "measure",
    "occupation_deltas",
    "slice_profile",
    "symmetry_residual",
    "time_ordered_propagator",
    "transition_probabilities",
    "von_neumann_entropy",
]
