"""Grid scans over the measurement-basis angles, extremum refinement and the
antisymmetry check."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cycle import CycleEngine
from .errors import ConfigurationError, InvariantViolation, require_within
from .measurement import TWO_PI
from .tolerances import DEFAULT_TOLERANCES as TOL

# locate_extrema: refinement rounds, local grid points per axis per round,
# and the factor by which the window shrinks each round
REFINE_ROUNDS = 3
LOCAL_POINTS = 17
ZOOM = 10.0
SLICE_POINTS = 513  # slice_profile's default point count


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
    engine: CycleEngine = field(repr=False)  # the engine that computed rows


@dataclass(frozen=True)
class Extremum:
    alpha_star: float
    phi_star: float
    value: float
    refinement_rounds: int


def grid_sweep(engine: CycleEngine, grid: GridSpec) -> SweepTable:
    """Evaluate one cycle per grid node, row-major by (alpha index, phi index).

    Nodes whose cycle invariants fail are kept but flagged; the sweep always
    completes.  The same engine parameters and grid give bitwise-identical
    tables, and the table keeps ``engine``.
    """
    rows = engine.evaluate_nodes(np.repeat(grid.alphas(), grid.phi_points),
                                 np.tile(grid.phis(), grid.alpha_points))
    return SweepTable(grid=grid, rows=rows, flagged=int(np.count_nonzero(~rows["ok"])),
                      engine=engine)


def locate_extrema(table: SweepTable, objective: Objective) -> Extremum:
    """Best grid node, then nested local-grid refinement on ``table.engine``.

    Each of ``REFINE_ROUNDS`` rounds evaluates a ``LOCAL_POINTS``^2 grid, as
    one batch, on a window that shrinks by ``ZOOM`` per round.  A node
    replaces the incumbent only if it is strictly better, and among equal
    values the first in row-major order wins, so the objective improves
    monotonically (asserted within tolerance).  Flagged nodes never win.
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

    h_a = math.pi / (table.grid.alpha_points - 1)
    h_p = TWO_PI / (table.grid.phi_points - 1)
    for _ in range(REFINE_ROUNDS):
        prev = best_v
        a_grid = np.linspace(max(0.0, best_a - h_a), min(math.pi, best_a + h_a), LOCAL_POINTS)
        p_grid = np.linspace(best_p - h_p, best_p + h_p, LOCAL_POINTS) % TWO_PI
        local = table.engine.evaluate_nodes(np.repeat(a_grid, LOCAL_POINTS),
                                            np.tile(p_grid, LOCAL_POINTS))
        k = best(local)
        if k is not None and sign * local[col][k] > sign * best_v:
            best_a, best_p, best_v = (float(local[name][k]) for name in ("alpha", "phi", col))
        require_within({"refinement": (sign * (prev - best_v), TOL.refinement)},
                       "refinement regressed", InvariantViolation)
        h_a, h_p = h_a / ZOOM, h_p / ZOOM
    return Extremum(alpha_star=best_a, phi_star=best_p, value=best_v,
                    refinement_rounds=REFINE_ROUNDS)


def _partner_indices(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Index maps realizing alpha -> pi - alpha and phi -> phi + pi on the grid.

    Node i of the n_a alphas sits at pi*i/(n_a - 1) and node j of the n_p
    phis at 2*pi*j/(n_p - 1), so phi + pi is a node only for odd n_p; phi
    nodes 0 and n_p - 1 are the same angle.
    """
    periods = grid.phi_points - 1
    if periods % 2:
        raise ConfigurationError("phi grid not symmetric under phi -> phi + pi")
    a_partner = np.arange(grid.alpha_points)[::-1]
    p_partner = (np.arange(grid.phi_points) + periods // 2) % periods
    return a_partner, p_partner


def symmetry_residual(table: SweepTable) -> float:
    """Max paired deviation of w_ext and q_m under (alpha, phi) -> (pi-alpha, phi+pi).

    Both stored energies are compared directly at every node, including
    where eta is undefined.  Eta itself is not compared: it divides by the
    fuel, whose zero curve amplifies roundoff without bound, and its
    symmetry follows from that of w_ext and q_m.
    """
    a_partner, p_partner = _partner_indices(table.grid)
    shape = (table.grid.alpha_points, table.grid.phi_points)
    return max(float(np.abs(x - x[a_partner][:, p_partner]).max())
               for x in (table.rows[name].reshape(shape) for name in ("w_ext", "q_m")))


def _slice_nodes(fixed: str, value: float, points: int) -> tuple:
    """The (alphas, phis) of ``slice_profile``, after checking its arguments."""
    if fixed not in ("alpha", "phi"):
        raise ConfigurationError("fixed must be 'alpha' or 'phi'")
    if points < 1:
        raise ConfigurationError("points must be >= 1")
    if fixed == "alpha" and not (0.0 <= value <= math.pi):
        raise ConfigurationError("fixed alpha outside [0, pi]")
    if fixed == "phi" and not (0.0 <= value <= TWO_PI):
        raise ConfigurationError("fixed phi outside [0, 2*pi]")
    free = (np.linspace(0.0, TWO_PI, points) if fixed == "alpha"
            else np.linspace(0.0, math.pi, points))
    return (value, free) if fixed == "alpha" else (free, value)


def slice_profile(engine: CycleEngine, fixed: str, value: float,
                  points: int = SLICE_POINTS) -> np.ndarray:
    """Freshly evaluated 1-D profile with one angle pinned, as ROW_DTYPE rows.

    ``fixed`` is "alpha" or "phi"; the free angle runs over its full range on
    an endpoint-inclusive grid.
    """
    return engine.evaluate_nodes(*_slice_nodes(fixed, value, points))
