"""The four-stroke cycle and its two energetics paths.

The trace definitions (energies as Tr(rho H) differences along the strokes)
are the ground truth.  The closed-form expressions in terms of transition
probabilities are a derived view; every ``CycleRecord`` carries the
residuals between the two, so every run doubles as a self-test.

Sign bookkeeping: ``w`` is the net work done ON the working substance by the
external agent; the engine delivers ``w_ext = -w``.  Energies are in units
of hbar_omega.  The occupation-difference work formula is implemented as
w = +(dp1 - dp2 + dp3 - dp4)/2, the sign fixed empirically against the
trace path.

``CycleEngine.evaluate_nodes`` evaluates both paths for a whole array of
measurement angles at once, on (M, 2, 2) density-matrix stacks and (M,)
probability arrays; a single node is a batch of one, and the kernel's
``CycleRecord`` is what ``evaluate`` returns.  ``evaluate_samples``
runs the same kernel on engine state with a leading sample axis, one drive
duration, temperature and node per sample.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, ValidationError
from .measurement import MeasurementBasis, basis_kets, measure
from .propagator import MAX_STEPS, exact_drive_propagators, time_ordered_propagator
from .qubit_algebra import (
    KET_DOWN,
    KET_PLUS_X,
    KET_MINUS_X,
    SIGMA_X,
    SIGMA_Z,
    gibbs_state,
    matmul_right,
    require_density_matrix,
    require_unitary,
    tanh,
    trace_2x2,
    von_neumann_entropy,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

_X_BRAS = np.array([KET_PLUS_X, KET_MINUS_X]).conj()

# Nodes per block in evaluate_nodes.  The scratch arrays of one block take
# about 1.7 kB per node, so they stay under 2 MiB whatever the grid size.
NODE_BLOCK = 1024

# One row per evaluated node: the sweep table, the slice profile (which
# adds dp3 and dp4) and the run CSV are column selections of it.
ROW_DTYPE = np.dtype([
    ("alpha", float), ("phi", float),
    ("w_ext", float), ("q_m", float), ("q_t", float), ("eta", float), ("ds", float),
    ("xi", float), ("zeta", float), ("delta", float), ("gamma", float),
    ("dp3", float), ("dp4", float),
    ("ok", bool),
])


@dataclass(frozen=True)
class EngineParams:
    """Physical and numerical configuration of one cycle evaluation, with
    energies in units of hbar_omega."""

    omega_tau: float
    beta_hbar_omega: float
    alpha: float = 0.0
    phi: float = 0.0
    steps: int = 1024

    def __post_init__(self):
        _check_engine_inputs(self.omega_tau, self.beta_hbar_omega)
        if not isinstance(self.steps, numbers.Integral) or not 2 <= self.steps <= MAX_STEPS:
            raise ValidationError(f"steps must be an integer in [2, {MAX_STEPS}]")


def _check_engine_inputs(omega_tau, beta_hbar_omega) -> None:
    """The rules of EngineParams for the drive and the temperature, which
    may also be arrays with one value per sample."""
    if not np.all(np.isfinite(omega_tau) & (np.asarray(omega_tau) > 0.0)):
        raise ValidationError("omega_tau must be finite and > 0")
    # beta = 0 (infinite temperature) is a legitimate degenerate input
    if not np.all(np.isfinite(beta_hbar_omega) & (np.asarray(beta_hbar_omega) >= 0.0)):
        raise ValidationError("beta_hbar_omega must be finite and >= 0")


@dataclass(frozen=True)
class TransitionProbs:
    """The four squared overlaps that drive the closed-form energetics.

    All four are floats, or arrays of one shape with one value per node.
    """

    xi: float
    zeta: float
    delta: float
    gamma: float


@dataclass(frozen=True)
class AnalyticEnergetics:
    w: float
    q_m: float
    q_t: float
    eta: float  # NaN when the fuel denominator vanishes
    dp: tuple = field(repr=False)  # occupation_deltas, the forms' inputs


@dataclass(frozen=True)
class CycleRecord:
    """Everything the node kernel produced, both paths included.

    Scalars for a single node and one value per node for a block; the
    engine's own state (rho1, rho2, w1, s1, s2) keeps its sample axis, if
    any.  ``checks`` maps each flagged invariant to its values and the bound
    they must not exceed.
    """

    params: EngineParams | None  # the engine's; None for a sample engine
    row: np.ndarray = field(repr=False)  # ROW_DTYPE rows, with the node angles
    rho1: np.ndarray = field(repr=False)
    rho2: np.ndarray = field(repr=False)
    rho3: np.ndarray = field(repr=False)
    rho4: np.ndarray = field(repr=False)
    w1: float
    w2: float
    q_m: float
    q_t: float
    w: float
    eta: float  # NaN when undefined (q_m at or below the fuel threshold)
    s1: float
    s2: float
    s3: float
    s4: float
    d_s: float
    probs: TransitionProbs
    analytic: AnalyticEnergetics
    residuals: dict[str, float]
    checks: dict[str, tuple[float, float]] = field(repr=False)

    @property
    def w_ext(self) -> float:
        return -self.w

    @property
    def eta_defined(self) -> bool:
        return not math.isnan(self.eta)


@dataclass(frozen=True)
class SampleBatch:
    """What ``evaluate_samples`` returns: the rows, ``residuals`` and
    ``checks`` of ``CycleRecord``, one entry per sample."""

    rows: np.ndarray = field(repr=False)  # ROW_DTYPE
    residuals: dict[str, np.ndarray] = field(repr=False)
    checks: dict[str, tuple[np.ndarray, float]] = field(repr=False)


@functools.lru_cache(maxsize=32)
def _propagator_pair(omega_tau: float, steps: int) -> np.ndarray:
    pair = time_ordered_propagator(omega_tau, steps)
    pair.setflags(write=False)
    return pair


def _apply(m: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """m|ket> for each ket along the last axis."""
    return (m @ kets[..., None])[..., 0]


def _ratio(num, den, defined):
    """num/den where ``defined``, NaN elsewhere (and no division there)."""
    return np.divide(num, den, out=np.full_like(den, np.nan, dtype=float), where=defined)


def transition_probabilities(
    u: np.ndarray,
    v: np.ndarray,
    basis: MeasurementBasis,
) -> TransitionProbs:
    """Squared overlaps (xi, zeta, delta, gamma) for propagators u, v and a basis.

    zeta and xi are transitions out of the ground state of the initial
    Hamiltonian under u; gamma is the transition from chi1 to the excited
    initial eigenstate under v.  delta is the overlap of chi2 with the ground
    eigenstate of the mid-cycle Hamiltonian, taken directly (no propagator):
    only this choice makes the closed-form energetics agree with the trace
    path identically, which the residuals of every ``CycleRecord`` measure
    (the tests hold them to 1e-8).  A basis with a node axis gives one value
    per node.
    """
    u = require_unitary(u, "u")
    v = require_unitary(v, "v")
    return _overlap_probabilities(_targets(u), v, basis)


def _targets(u: np.ndarray) -> np.ndarray:
    """The kets u|down> and |-x> as the columns of a matrix, one per matrix
    of a stack u."""
    targets = np.empty(u.shape, dtype=complex)
    targets[..., 0] = u @ KET_DOWN
    targets[..., 1] = KET_MINUS_X
    return targets


def _overlap_probabilities(targets: np.ndarray, v: np.ndarray,
                           basis: MeasurementBasis) -> TransitionProbs:
    """``transition_probabilities`` for a unitary v checked by the caller and
    ``targets = _targets(u)``."""
    # |<chi_k|t>|^2 for k = 1, 2 (first axis) and t = u|down>, |-x> (last
    # axis), as one small product per node.  The matrix is shared on the
    # left here, and rewriting that as one (M, 2) @ (2, 2) GEMM by
    # transposing swaps the factors inside each FMA, which moves the last
    # bit; only a product shared on the right is bit-identical as a GEMM
    to_basis = np.abs(_apply(targets.swapaxes(-1, -2), basis.kets.conj())) ** 2
    zeta, delta = to_basis[1, ..., 0], to_basis[1, ..., 1]
    onto_x = np.abs(_apply(_X_BRAS, targets[..., 0])) ** 2
    xi, xi_rest = onto_x[..., 0], onto_x[..., 1]
    v_chi1 = np.abs(_apply(v, basis.chi1)) ** 2  # onto |up>, |down>
    gamma = v_chi1[..., 0]
    # completeness against the complementary amplitudes
    worst = max(np.abs(to_basis[0] + to_basis[1] - 1.0).max(),
                np.abs(xi + xi_rest - 1.0).max(),
                np.abs(v_chi1[..., 0] + v_chi1[..., 1] - 1.0).max())
    if not worst <= TOL.probability:  # NaN fails too
        raise ValidationError(f"transition probabilities not complete (residual {worst:.3e})")
    return TransitionProbs(xi=np.full(np.shape(zeta), xi)[()], zeta=zeta, delta=delta,
                           gamma=gamma)


def occupation_deltas(probs: TransitionProbs, beta_hbar_omega: float):
    """Ground-minus-excited occupation differences after each stroke."""
    dp1 = tanh(0.5 * beta_hbar_omega)
    dp2 = dp1 * (1.0 - 2.0 * probs.xi)
    dp3 = dp1 * (1.0 - 2.0 * probs.delta) * (1.0 - 2.0 * probs.zeta)
    dp4 = dp1 * (1.0 - 2.0 * probs.gamma) * (1.0 - 2.0 * probs.zeta)
    return dp1, dp2, dp3, dp4


def efficiency_scale(dp1, dp2, dp3, dp4, eta_a, eta_b, trace_kappa=0.0):
    """Roundoff scale of the difference of two efficiencies at one node.

    Both efficiencies are ratios of differences: the occupation forms divide
    dp1 - dp4 by dp2 - dp3.  Roundoff in x - y grows with its condition
    number (|x| + |y|)/|x - y|, and that of a ratio with its magnitude, so
    two forms of one identity agree to about eps times this scale.
    ``trace_kappa`` adds the conditioning of a further subtraction, such as
    1/|q_m| for the trace path's fuel q_m = e3 - e2, a difference of traces
    of order 1.  At a well-conditioned node the scale is 1 and the plain
    bound applies.
    """
    kappa = ((np.abs(dp1) + np.abs(dp4)) / np.maximum(np.abs(dp1 - dp4), 1e-300)
             + (np.abs(dp2) + np.abs(dp3)) / np.maximum(np.abs(dp2 - dp3), 1e-300)
             + trace_kappa)
    return np.maximum(1.0, np.maximum(np.abs(eta_a), np.abs(eta_b))) * np.maximum(1.0, kappa)


def analytic_energetics(
    probs: TransitionProbs,
    beta_hbar_omega: float,
) -> AnalyticEnergetics:
    """Closed-form energetics from the transition probabilities (per node
    when they are arrays).

    The efficiency is evaluated through both equivalent forms (heat ratio and
    occupation ratio) and their agreement is enforced at ``eta_forms``.
    """
    dp1, dp2, dp3, dp4 = occupation_deltas(probs, beta_hbar_omega)
    den_occ = dp2 - dp3
    one_2z = 1.0 - 2.0 * probs.zeta
    num_heat = (1.0 - 2.0 * probs.gamma) * one_2z - 1.0
    den_heat = (1.0 - 2.0 * probs.delta) * one_2z - (1.0 - 2.0 * probs.xi)
    w = 0.5 * (dp1 - dp2 + dp3 - dp4)
    q_m = 0.5 * den_occ
    q_t = 0.5 * num_heat * dp1
    eta_occ = 1.0 - _ratio(dp1 - dp4, den_occ, np.abs(den_occ) > TOL.fuel)
    eta_heat = 1.0 - _ratio(num_heat, den_heat, np.abs(den_heat) > TOL.fuel)
    # one algebraic identity, so any disagreement is roundoff; the bound
    # follows its noise floor (NaN where either form is undefined)
    scale = efficiency_scale(dp1, dp2, dp3, dp4, eta_occ, eta_heat)
    gap = np.abs(eta_heat - eta_occ)
    bad = gap > TOL.eta_forms * scale
    if bad.any():
        raise InvariantViolation(
            "efficiency forms disagree",
            {"eta_forms": float(np.max(gap[bad] / scale[bad]))},
        )
    return AnalyticEnergetics(w=w, q_m=q_m, q_t=q_t, eta=eta_occ[()], dp=(dp1, dp2, dp3, dp4))


class CycleEngine:
    """Reusable cycle evaluator for fixed (omega_tau, beta, steps).

    The propagators and thermal pieces do not depend on the measurement
    angles, so they are built and validated once here and every node reuses
    them.  ``propagators=(u, v)`` is a test hook replacing the stroke
    propagators with arbitrary unitaries.
    """

    def __init__(self, params: EngineParams,
                 propagators: tuple[np.ndarray, np.ndarray] | None = None):
        self.params = params
        if propagators is None:
            propagators = _propagator_pair(params.omega_tau, params.steps)
        self._prepare(*propagators, params.beta_hbar_omega)

    @classmethod
    def _for_samples(cls, u: np.ndarray, v: np.ndarray, betas: np.ndarray) -> "CycleEngine":
        """An engine whose state has a leading sample axis: sample k has the
        propagators u[k], v[k] and inverse temperature betas[k], and the
        kernel evaluates node k of a block with one node per sample."""
        engine = cls.__new__(cls)
        engine.params = None
        engine._prepare(u, v, betas)
        return engine

    def _prepare(self, u, v, beta) -> None:
        """Build and check everything that does not depend on the node."""
        self.beta = beta
        self.h1 = 0.5 * SIGMA_Z
        self.h2 = 0.5 * SIGMA_X
        self.u = require_unitary(u, "u")
        self.v = require_unitary(v, "v")
        self.v_dag = self.v.conj().swapaxes(-1, -2)
        self.targets = _targets(self.u)
        self.rho1 = gibbs_state(self.h1, beta)
        self.rho2 = self.u @ self.rho1 @ self.u.conj().swapaxes(-1, -2)
        require_density_matrix(self.rho2, "rho2")
        self.s1, self.s2 = von_neumann_entropy(np.stack([self.rho1, self.rho2]))
        self.e1 = trace_2x2(self.rho1 @ self.h1).real
        self.e2 = trace_2x2(self.rho2 @ self.h2).real

    def evaluate(self, alpha: float, phi: float) -> CycleRecord:
        """Evaluate one node; raises InvariantViolation on any failed invariant."""
        record, violations = self.evaluate_flagged(alpha, phi)
        if violations:
            raise InvariantViolation(
                "cycle invariants violated: " + ", ".join(sorted(violations)), violations
            )
        return record

    def evaluate_flagged(self, alpha: float, phi: float) -> tuple[CycleRecord, dict[str, float]]:
        """Like evaluate, but returns (record, violations) instead of raising.

        A batch of one through the same kernel as ``evaluate_nodes``, with
        no node axis, so the per-node arithmetic runs on numpy scalars.
        """
        record = self._evaluate_block(alpha, phi, np.empty(1, dtype=ROW_DTYPE))
        violations = {name: float(value) for name, (value, bound) in record.checks.items()
                      if value > bound}
        return record, violations

    def evaluate_nodes(self, alphas, phis) -> np.ndarray:
        """Evaluate the nodes (alphas[k], phis[k]); one ROW_DTYPE row each.

        ``alphas`` and ``phis`` broadcast against each other and are taken
        in row-major order.  Nodes whose cycle invariants fail are kept with
        ``ok`` False.  The nodes are processed ``NODE_BLOCK`` at a time, so
        scratch memory does not grow with the number of nodes.
        """
        alphas, phis = (np.ravel(x) for x in np.broadcast_arrays(
            np.asarray(alphas, dtype=float), np.asarray(phis, dtype=float)))
        rows = np.empty(alphas.size, dtype=ROW_DTYPE)
        for start in range(0, alphas.size, NODE_BLOCK):
            block = slice(start, start + NODE_BLOCK)
            self._evaluate_block(alphas[block], phis[block], rows[block])
        return rows

    def _evaluate_block(self, alphas, phis, out: np.ndarray) -> CycleRecord:
        """Both energetics paths for a block of nodes, written into ``out``.

        ``alphas`` and ``phis`` are 1-D arrays, or scalars for a single
        node.  Returns the block's record, whose ``checks`` are the flagged
        invariants; checks outside that set raise, as they do for one node.
        """
        basis = basis_kets(alphas, phis)

        # trace path, on (M, 2, 2) density-matrix stacks
        rho3, _ = measure(self.rho2, basis)
        rho4 = matmul_right(self.v @ rho3, self.v_dag)
        s3, s4 = von_neumann_entropy(np.array([rho3, rho4]), "rho3, rho4")
        e3 = trace_2x2(matmul_right(rho3, self.h2)).real
        e4 = trace_2x2(matmul_right(rho4, self.h1)).real
        w1 = self.e2 - self.e1
        q_m = e3 - self.e2
        w2 = e4 - e3
        q_t = self.e1 - e4
        w = w1 + w2
        fueled = q_m > TOL.fuel
        eta = _ratio(-w, q_m, fueled)[()]
        d_s = s3 - self.s2

        # closed-form path, from the transition probabilities alone
        probs = _overlap_probabilities(self.targets, self.v, basis)
        analytic = analytic_energetics(probs, self.beta)
        dp = analytic.dp

        # the eta residual is scaled like the forms check, plus the
        # conditioning of the trace path's fuel; NaN where either eta is
        # undefined, and fmax turns that into 0
        eta_res = np.abs(eta - analytic.eta) / efficiency_scale(
            *dp, eta, analytic.eta, _ratio(1.0, q_m, fueled))
        residuals = {
            "first_law": np.abs(w1 + w2 + q_m + q_t),
            "w": np.abs(w - analytic.w),
            "q_m": np.abs(q_m - analytic.q_m),
            "q_t": np.abs(q_t - analytic.q_t),
            "eta": np.fmax(eta_res, 0.0),
            "entropy_12": abs(self.s1 - self.s2),  # the same for every node of an engine
            "entropy_34": np.abs(s3 - s4),
            "entropy_thermalization": np.abs((self.s1 - s4) + d_s),
        }
        checks = {
            "first_law": (residuals["first_law"], TOL.first_law),
            "kelvin": (q_t, TOL.kelvin),
            "entropy_decrease": (-d_s, TOL.entropy_decrease),
            "entropy_12": (residuals["entropy_12"], TOL.entropy_equality),
            "entropy_34": (residuals["entropy_34"], TOL.entropy_equality),
        }

        out["alpha"], out["phi"], out["w_ext"], out["q_m"], out["q_t"] = alphas, phis, -w, q_m, q_t
        out["eta"], out["ds"], out["dp3"], out["dp4"] = eta, d_s, dp[2], dp[3]
        for name in ("xi", "zeta", "delta", "gamma"):
            out[name] = getattr(probs, name)
        out["ok"] = np.logical_not(
            functools.reduce(np.logical_or, (v > b for v, b in checks.values())))
        return CycleRecord(
            params=self.params, row=out, rho1=self.rho1, rho2=self.rho2, rho3=rho3,
            rho4=rho4, w1=w1, w2=w2, q_m=q_m, q_t=q_t, w=w, eta=eta, s1=self.s1,
            s2=self.s2, s3=s3, s4=s4, d_s=d_s, probs=probs, analytic=analytic,
            residuals=residuals, checks=checks)


def evaluate_samples(omega_taus, betas, alphas, phis) -> SampleBatch:
    """Evaluate one cycle per sample k: the exact propagators of duration
    omega_taus[k], betas[k] as beta*hbar_omega and node (alphas[k], phis[k]).

    The four arrays broadcast against each other.  They are checked once
    here by the rules of ``EngineParams``.  Sample k gives the same row and
    residuals as ``CycleEngine(EngineParams(omega_taus[k], betas[k]),
    propagators=exact_drive_propagators([omega_taus[k]])[0])
    .evaluate_flagged(alphas[k], phis[k])``: the engine state carries a
    sample axis through the same kernel, ``NODE_BLOCK`` samples at a time.
    """
    omega_taus, betas, alphas, phis = (np.ravel(x) for x in np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (omega_taus, betas, alphas, phis))))
    if omega_taus.size == 0:
        raise ValidationError("evaluate_samples needs at least one sample")
    _check_engine_inputs(omega_taus, betas)
    rows = np.empty(omega_taus.size, dtype=ROW_DTYPE)
    blocks = []  # (residuals, checks) of each block's record
    for start in range(0, omega_taus.size, NODE_BLOCK):
        block = slice(start, start + NODE_BLOCK)
        pairs = exact_drive_propagators(omega_taus[block])
        engine = CycleEngine._for_samples(pairs[:, 0], pairs[:, 1], betas[block])
        record = engine._evaluate_block(alphas[block], phis[block], rows[block])
        blocks.append((record.residuals, record.checks))
    residuals = {name: np.concatenate([r[name] for r, _ in blocks]) for name in blocks[0][0]}
    checks = {name: (np.concatenate([c[name][0] for _, c in blocks]), bound)
              for name, (_, bound) in blocks[0][1].items()}
    return SampleBatch(rows=rows, residuals=residuals, checks=checks)


def run_cycle(params: EngineParams) -> CycleRecord:
    """Execute one full cycle at the given parameters.

    Raises InvariantViolation (carrying the residuals) if any cycle invariant
    fails; an undefined efficiency is a flag, not an error.
    """
    return CycleEngine(params).evaluate(params.alpha, params.phi)
