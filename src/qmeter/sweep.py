"""Grid scans over the measurement-basis angles, extremum refinement and the
antisymmetry check."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cycle import CycleEngine, EngineParams
from .errors import ConfigurationError, InvariantViolation
from .tolerances import DEFAULT_TOLERANCES, Tolerances

TWO_PI = 2.0 * math.pi


class Objective(enum.Enum):
    MAX_W_EXT = "max_w_ext"
    MAX_ETA = "max_eta"
    MIN_DS = "min_ds"


@dataclass(frozen=True)
class GridSpec:
    """Sweep resolution over alpha in [0, pi] and phi in [0, 2*pi].

    Both grids are endpoint-inclusive so that the map
    (alpha, phi) -> (pi - alpha, phi + pi) sends grid nodes to grid nodes,
    which the symmetry check requires.
    """

    base: EngineParams
    alpha_points: int = 257
    phi_points: int = 257

    def __post_init__(self):
        if self.alpha_points < 3 or self.phi_points < 3:
            raise ConfigurationError("grid needs at least 3 points per axis")

    def alphas(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.alpha_points)

    def phis(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI, self.phi_points)


@dataclass(frozen=True)
class SweepTable:
    grid: GridSpec
    rows: np.ndarray = field(repr=False)  # structured, ROW_DTYPE, row-major
    flagged: int

    def column(self, name: str) -> np.ndarray:
        return self.rows[name]


@dataclass(frozen=True)
class Extremum:
    objective: Objective
    alpha_star: float
    phi_star: float
    value: float
    refinement_rounds: int


def grid_sweep(grid: GridSpec, engine: CycleEngine | None = None) -> SweepTable:
    """Evaluate one cycle per grid node, row-major by (alpha index, phi index).

    Nodes whose cycle invariants fail are kept but flagged; the sweep always
    completes.  Identical specs produce bitwise-identical tables.
    """
    if engine is None:
        engine = CycleEngine(grid.base)
    rows = engine.evaluate_nodes(np.repeat(grid.alphas(), grid.phi_points),
                                 np.tile(grid.phis(), grid.alpha_points))
    return SweepTable(grid=grid, rows=rows, flagged=int(np.count_nonzero(~rows["ok"])))


def locate_extrema(
    table: SweepTable,
    objective: Objective,
    engine: CycleEngine | None = None,
    rounds: int = 3,
    local_points: int = 17,
    zoom: float = 10.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Extremum:
    """Best grid node, then nested local-grid refinement around the incumbent.

    Each round evaluates a local_points^2 grid, as one batch, on a window
    that shrinks by ``zoom`` per round.  A node replaces the incumbent only
    if it is strictly better, and among equal values the first in row-major
    order wins, so the objective improves monotonically (asserted within
    tolerance).  Flagged nodes never win.
    """
    col = {Objective.MAX_W_EXT: "w_ext", Objective.MAX_ETA: "eta",
           Objective.MIN_DS: "ds"}[objective]
    sign = -1.0 if objective is Objective.MIN_DS else 1.0  # maximize sign * value

    def best(rows: np.ndarray) -> int | None:
        values = np.where(rows["ok"], sign * rows[col], np.nan)
        return None if np.isnan(values).all() else int(np.nanargmax(values))

    idx = best(table.rows)
    if idx is None:
        raise ConfigurationError(f"no unflagged row has a defined {col}")
    best_a = float(table.rows["alpha"][idx])
    best_p = float(table.rows["phi"][idx])
    best_v = float(table.rows[col][idx])

    if engine is None:
        engine = CycleEngine(table.grid.base)
    h_a = math.pi / (table.grid.alpha_points - 1)
    h_p = TWO_PI / (table.grid.phi_points - 1)
    for _ in range(rounds):
        prev = best_v
        a_grid = np.linspace(max(0.0, best_a - h_a), min(math.pi, best_a + h_a), local_points)
        p_grid = np.linspace(best_p - h_p, best_p + h_p, local_points) % TWO_PI
        local = engine.evaluate_nodes(np.repeat(a_grid, local_points),
                                      np.tile(p_grid, local_points))
        k = best(local)
        if k is not None and sign * local[col][k] > sign * best_v:
            best_a, best_p, best_v = (float(local[name][k]) for name in ("alpha", "phi", col))
        if sign * (prev - best_v) > tol.refinement:
            raise InvariantViolation(
                "refinement regressed", {"refinement": abs(best_v - prev)}
            )
        h_a /= zoom
        h_p /= zoom
    return Extremum(objective=objective, alpha_star=best_a, phi_star=best_p,
                    value=best_v, refinement_rounds=rounds)


def _partner_indices(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Index maps realizing alpha -> pi - alpha and phi -> phi + pi on the grid."""
    alphas = grid.alphas()
    phis = grid.phis()
    a_partner = np.empty(grid.alpha_points, dtype=int)
    for i, a in enumerate(alphas):
        j = int(np.argmin(np.abs(alphas - (math.pi - a))))
        if abs(alphas[j] - (math.pi - a)) > 1e-9:
            raise ConfigurationError("alpha grid not symmetric under alpha -> pi - alpha")
        a_partner[i] = j
    p_partner = np.empty(grid.phi_points, dtype=int)
    for i, p in enumerate(phis):
        target = (p + math.pi) % TWO_PI
        deltas = np.abs(phis - target)
        deltas = np.minimum(deltas, TWO_PI - deltas)
        j = int(np.argmin(deltas))
        if deltas[j] > 1e-9:
            raise ConfigurationError("phi grid not symmetric under phi -> phi + pi")
        p_partner[i] = j
    return a_partner, p_partner


def symmetry_residual(table: SweepTable) -> float:
    """Max paired deviation of w_ext and eta under (alpha, phi) -> (pi-alpha, phi+pi).

    Eta pairs with either side undefined are skipped.  The eta pairs are
    compared in cross-multiplied form |w*q_m' - w'*q_m| (normalized by the
    larger product and the energy scale): a direct eta difference divides by
    the fuel, whose zero curve amplifies roundoff without bound, while the
    cross form carries the identical symmetry content.
    """
    a_partner, p_partner = _partner_indices(table.grid)
    n_p = table.grid.phi_points
    w = table.rows["w_ext"].reshape(table.grid.alpha_points, n_p)
    q_m = table.rows["q_m"].reshape(table.grid.alpha_points, n_p)
    eta = table.rows["eta"].reshape(table.grid.alpha_points, n_p)
    w_m = w[a_partner][:, p_partner]
    q_m_m = q_m[a_partner][:, p_partner]
    eta_m = eta[a_partner][:, p_partner]
    residual = float(np.abs(w - w_m).max())
    both = ~np.isnan(eta) & ~np.isnan(eta_m)
    if both.any():
        hw2 = table.grid.base.hbar_omega ** 2
        scale = np.maximum(hw2, np.maximum(np.abs(w * q_m_m), np.abs(w_m * q_m)))
        cross = np.abs(w * q_m_m - w_m * q_m) / scale
        residual = max(residual, float(cross[both].max()))
    return residual


def slice_profile(
    base: EngineParams,
    fixed: str,
    value: float,
    points: int = 513,
    engine: CycleEngine | None = None,
) -> np.ndarray:
    """Freshly evaluated 1-D profile with one angle pinned, as ROW_DTYPE rows.

    ``fixed`` is "alpha" or "phi"; the free angle runs over its full range on
    an endpoint-inclusive grid.
    """
    if fixed not in ("alpha", "phi"):
        raise ConfigurationError("fixed must be 'alpha' or 'phi'")
    if points < 1:
        raise ConfigurationError("points must be >= 1")
    if fixed == "alpha" and not (0.0 <= value <= math.pi):
        raise ConfigurationError("fixed alpha outside [0, pi]")
    if fixed == "phi" and not (0.0 <= value <= TWO_PI):
        raise ConfigurationError("fixed phi outside [0, 2*pi]")
    if engine is None:
        engine = CycleEngine(base)
    free = (np.linspace(0.0, TWO_PI, points) if fixed == "alpha"
            else np.linspace(0.0, math.pi, points))
    return engine.evaluate_nodes(*((value, free) if fixed == "alpha" else (free, value)))
