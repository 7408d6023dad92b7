"""Central numerical tolerance record.

Every epsilon and bound used by validation and the property suites lives
in ``DEFAULT_TOLERANCES``, which every check reads; energies are in units
of hbar*omega.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-12
    trace: float = 1e-12
    eig_floor: float = 1e-12          # eigenvalues in [-eig_floor, 0] clamp to 0
    unitarity: float = 1e-13
    unitary_input: float = 1e-10      # looseness accepted on U, V fed to overlap formulas
    basis: float = 1e-14              # orthonormality/completeness of measurement kets
    alpha_range: float = 1e-9         # relative slack of alpha past pi
    probability: float = 1e-12
    channel: float = 1e-13            # off-diagonal leakage after dephasing
    first_law: float = 1e-10
    kelvin: float = 1e-12
    entropy_equality: float = 1e-10
    entropy_decrease: float = 1e-12   # allowed negative dip of dS
    fuel: float = 1e-12               # Q_M below fuel leaves eta undefined
    eta_forms: float = 1e-12
    analytic: float = 1e-8
    symmetry: float = 1e-10
    refinement: float = 1e-14
    imag_leak: float = 1e-12
    transition_inequality: float = 1e-9   # bound on 2 - (1/zeta + 1/gamma)
    propagator_error: float = 10.0    # midpoint-product error bound is this / steps**2
    convergence_order: float = 0.2    # allowed |order - 2| of the midpoint product


DEFAULT_TOLERANCES = Tolerances()
