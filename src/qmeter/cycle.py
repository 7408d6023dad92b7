"""The four-stroke cycle and its two energetics paths.

The trace definitions (energies as Tr(rho H) differences along the strokes)
are the ground truth.  The closed-form expressions in terms of transition
probabilities are a derived view; every ``CycleRecord`` bounds the residuals
between the two in its ``checks``, so every run doubles as a self-test.

Sign bookkeeping: ``w`` is the net work done ON the working substance by the
external agent; the engine delivers ``w_ext = -w``.  Energies are in units
of hbar_omega.  The occupation-difference work formula is implemented as
w = +(dp1 - dp2 + dp3 - dp4)/2, the sign fixed empirically against the
trace path.

``CycleEngine.evaluate_nodes`` evaluates both paths for a whole array of
measurement angles at once, on (M, 2, 2) density-matrix stacks and (M,)
probability arrays; a single node is a batch of one, and the kernel's
``CycleRecord`` is what ``evaluate_flagged`` returns.  ``evaluate_samples``
runs the same kernel on engine state with a leading sample axis, one drive
duration, temperature and node per sample.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .blocks import NODE_BLOCK, split_blocks
from .errors import InvariantViolation, ValidationError, failed_checks, require_within
from .measurement import MeasurementBasis, _basis, _measure
from .measurement import basis_kets, measure  # noqa: F401  tracer targets until ROADMAP item 2
from .propagator import MAX_STEPS, exact_drive_propagators, time_ordered_propagator
from .qubit_algebra import (
    KET_DOWN,
    KET_PLUS_X,
    KET_MINUS_X,
    SIGMA_X,
    SIGMA_Z,
    _dagger,
    _density_checks,
    _eigvals,
    _entropy,
    gibbs_state,
    matmul_2x2,
    require_density_matrix,
    require_unitary,
    tanh,
    trace_2x2,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

_X_BRAS = np.array([KET_PLUS_X, KET_MINUS_X]).conj()

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
    """What builds an engine, with energies in units of hbar_omega; the
    node (alpha, phi) is an argument of each evaluation."""

    omega_tau: float
    beta_hbar_omega: float
    steps: int = 1024

    def __post_init__(self):
        for name in ("omega_tau", "beta_hbar_omega"):  # arrays are for evaluate_samples
            if np.ndim(getattr(self, name)) != 0:
                raise ValidationError(f"{name} must be a scalar")
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


# The registry of the kernel's checks, in table order.  Each name maps to the
# ``Tolerances`` field of its bound (None where the check's core returns the bound),
# the ``verify`` suite that reports it, if any, and whether ``residuals`` shows it.
CHECKS = {
    "first_law": ("first_law", None, True),
    **dict.fromkeys(("w", "q_m", "q_t"), ("analytic", "analytic_vs_oracle", True)),
    "eta": ("eta_forms", "efficiency_forms", True),
    "kelvin": ("kelvin", "kelvin", False),
    "entropy_decrease": ("entropy_decrease", "entropy_equalities", False),
    **dict.fromkeys(("entropy_12", "entropy_34", "entropy_thermalization"),
                    ("entropy_equality", "entropy_equalities", True)),
    **dict.fromkeys(("basis", "probability_sum", "channel_leak", "completeness", "eta_forms",
                     "density_34_hermiticity", "density_34_trace", "density_34_eigenvalue_floor"),
                    (None, None, False)),
}


def _residuals(table) -> dict:
    return {name: table.checks[name][0] for name, (_, _, shown) in CHECKS.items() if shown}


@dataclass(frozen=True)
class CycleRecord:
    """Everything the node kernel produced, both paths included.

    Scalars for a single node and one value per node for a block; the
    engine's own state (rho1, rho2, w1, s1, s2) keeps its sample axis, if
    any.  ``checks`` maps each check of ``CHECKS``, in order, to its values
    and the bound they must not exceed; a node is ``ok`` if each is ``<= bound``.
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
    checks: dict[str, tuple[float, float]] = field(repr=False)
    residuals = property(_residuals)  # a read-only view of checks

    @property
    def w_ext(self) -> float:
        return -self.w

    @property
    def eta_defined(self) -> bool:
        return not math.isnan(self.eta)


@dataclass(frozen=True)
class SampleBatch:
    """``evaluate_samples``' rows and ``checks``, one entry per sample."""

    rows: np.ndarray = field(repr=False)  # ROW_DTYPE
    checks: dict[str, tuple[np.ndarray, float]] = field(repr=False)
    residuals = property(_residuals)


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
    path identically, which the checks ``w``, ``q_m`` and ``q_t`` of every
    ``CycleRecord`` hold to ``analytic``.  A basis with a node axis gives one
    value per node.
    """
    u = require_unitary(u, "u")
    v = require_unitary(v, "v")
    probs, checks = _overlap_probabilities(_targets(u), v, basis)
    require_within(checks, "transition probabilities")
    return probs


def _targets(u: np.ndarray) -> np.ndarray:
    """The kets u|down> and |-x> as the columns of a matrix, one per matrix
    of a stack u."""
    targets = np.empty(u.shape, dtype=complex)
    targets[..., 0] = u @ KET_DOWN
    targets[..., 1] = KET_MINUS_X
    return targets


def _overlap_probabilities(targets: np.ndarray, v: np.ndarray,
                           basis: MeasurementBasis) -> tuple[TransitionProbs, dict]:
    """``transition_probabilities`` for a unitary v checked by the caller and
    ``targets = _targets(u)``, and its per-node check ``completeness``."""
    # |<chi_k|t>|^2 for k = 1, 2 (first axis) and t = u|down>, |-x> (last
    # axis), as one small product per node.  These matrix-vector products
    # keep numpy's stacked form: rewriting one as a GEMM, by transposing or
    # block-diagonal grouping as in matmul_2x2, moves the last bit on some
    # OpenBLAS cores (SkylakeX), and they are cheap
    to_basis = np.abs(_apply(targets.swapaxes(-1, -2), basis.kets.conj())) ** 2
    zeta, delta = to_basis[1, ..., 0], to_basis[1, ..., 1]
    onto_x = np.abs(_apply(_X_BRAS, targets[..., 0])) ** 2
    xi, xi_rest = onto_x[..., 0], onto_x[..., 1]
    v_chi1 = np.abs(_apply(v, basis.chi1)) ** 2  # onto |up>, |down>
    gamma = v_chi1[..., 0]
    # completeness against the complementary amplitudes
    to_chi = np.abs(to_basis[0] + to_basis[1] - 1.0)
    completeness = np.maximum(np.maximum(to_chi[..., 0], to_chi[..., 1]), np.maximum(
        np.abs(xi + xi_rest - 1.0), np.abs(v_chi1[..., 0] + v_chi1[..., 1] - 1.0)))
    probs = TransitionProbs(xi=np.full(np.shape(zeta), xi)[()], zeta=zeta, delta=delta,
                            gamma=gamma)
    return probs, {"completeness": (completeness, TOL.probability)}


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
    analytic, checks = _analytic_energetics(probs, beta_hbar_omega)
    require_within(checks, "efficiency forms", InvariantViolation)
    return analytic


def _analytic_energetics(probs: TransitionProbs, beta_hbar_omega: float):
    """``analytic_energetics`` and its per-node check ``eta_forms``."""
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
    # follows its noise floor (NaN where either form is undefined, and fmax
    # turns that into 0)
    gap = np.abs(eta_heat - eta_occ) / efficiency_scale(dp1, dp2, dp3, dp4, eta_occ, eta_heat)
    return (AnalyticEnergetics(w=w, q_m=q_m, q_t=q_t, eta=eta_occ[()], dp=(dp1, dp2, dp3, dp4)),
            {"eta_forms": (np.fmax(gap, 0.0), TOL.eta_forms)})


class CycleEngine:
    """Reusable cycle evaluator for fixed (omega_tau, beta, steps).

    The propagators and thermal pieces do not depend on the measurement
    angles, so they are built once here and every node reuses them.
    ``propagators=(u, v)`` is a test hook replacing the stroke propagators
    with arbitrary unitaries, and the one pair the engine checks for unitarity.
    """

    def __init__(self, params: EngineParams,
                 propagators: tuple[np.ndarray, np.ndarray] | None = None):
        self.params = params
        if propagators is None:
            u, v = time_ordered_propagator(params.omega_tau, params.steps)
        else:
            u, v = (require_unitary(m, name) for m, name in zip(propagators, "uv"))
        self._prepare(u, v, params.beta_hbar_omega)

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
        """Build everything that does not depend on the node; check rho2."""
        self.beta = beta
        self.h1 = 0.5 * SIGMA_Z
        self.h2 = 0.5 * SIGMA_X
        self.u, self.v = u, v
        self.v_dag = _dagger(v)
        self.targets = _targets(u)
        self.rho1 = gibbs_state(self.h1, beta)
        self.rho2 = require_density_matrix(matmul_2x2(matmul_2x2(u, self.rho1), _dagger(u)),
                                           "rho2")
        self.s1, self.s2 = _entropy(*_eigvals(np.stack([self.rho1, self.rho2])))
        self.e1 = trace_2x2(matmul_2x2(self.rho1, self.h1)).real
        self.e2 = trace_2x2(matmul_2x2(self.rho2, self.h2)).real

    def evaluate_flagged(self, alpha: float, phi: float) -> tuple[CycleRecord, dict[str, float]]:
        """Evaluate one node; returns (record, violations), the worst residual
        of each failed check, empty when the node is ``ok``.

        A batch of one through the same kernel as ``evaluate_nodes``, with
        no node axis (numpy scalars); the checks are read only if it is flagged.
        """
        record = self._evaluate_block(alpha, phi, np.empty(1, dtype=ROW_DTYPE))
        return record, {} if record.row["ok"][0] else failed_checks(record.checks)

    def evaluate_nodes(self, alphas, phis, first=None) -> np.ndarray:
        """Evaluate the nodes (alphas[k], phis[k]); one ROW_DTYPE row each.

        ``alphas`` and ``phis`` broadcast against each other and are taken
        in row-major order.  Nodes whose cycle invariants fail are kept with
        ``ok`` False.  The nodes are processed ``NODE_BLOCK`` at a time, so
        scratch memory does not grow with the number of nodes, and from
        ``SPLIT_BLOCKS`` blocks on ``split_blocks`` shares the blocks with a
        forked child that takes them from the back, whose rows are read back
        into place.  ``first``, if given, runs in this process before it
        takes a block, while the child works.
        """
        alphas, phis = (np.ravel(x) for x in np.broadcast_arrays(
            np.asarray(alphas, dtype=float), np.asarray(phis, dtype=float)))
        rows = np.empty(alphas.size, dtype=ROW_DTYPE)

        def work(start, out):
            block = slice(start, start + NODE_BLOCK)
            self._evaluate_block(alphas[block], phis[block], rows[block])
            if out is not None:
                out.write(rows[block].view(np.uint8))

        split_blocks(rows.size, work, lambda out, start, length: out.readinto(
            rows[start:start + NODE_BLOCK].view(np.uint8)), first)
        return rows

    def _evaluate_block(self, alphas, phis, out: np.ndarray) -> CycleRecord:
        """Both energetics paths for a block of nodes, written into ``out``.

        ``alphas`` and ``phis`` are 1-D arrays, or scalars for a single
        node, and the only inputs checked.  Returns the block's record, whose
        ``checks`` hold every invariant the kernel tests; none raises.
        """
        basis, basis_checks = _basis(alphas, phis)

        # trace path, on (M, 2, 2) density-matrix stacks
        rho3, _, channel_checks = _measure(self.rho2, basis)
        rho4 = matmul_2x2(matmul_2x2(self.v, rho3), self.v_dag)
        density, eigvals = _density_checks(np.array([rho3, rho4]))
        s3, s4 = _entropy(*eigvals)
        e3 = trace_2x2(matmul_2x2(rho3, self.h2)).real
        e4 = trace_2x2(matmul_2x2(rho4, self.h1)).real
        w1 = self.e2 - self.e1
        q_m = e3 - self.e2
        w2 = e4 - e3
        q_t = self.e1 - e4
        w = w1 + w2
        fueled = q_m > TOL.fuel
        eta = _ratio(-w, q_m, fueled)[()]
        d_s = s3 - self.s2

        # closed-form path, from the transition probabilities alone
        probs, completeness = _overlap_probabilities(self.targets, self.v, basis)
        analytic, eta_forms = _analytic_energetics(probs, self.beta)

        # scaled like the forms check, plus the conditioning of the trace
        # path's fuel; NaN where either eta is undefined, which fmax makes 0
        eta_res = np.abs(eta - analytic.eta) / efficiency_scale(
            *analytic.dp, eta, analytic.eta, _ratio(1.0, q_m, fueled))
        values = {
            "first_law": np.abs(w1 + w2 + q_m + q_t),
            # the trace path against the closed forms
            "w": np.abs(w - analytic.w),
            "q_m": np.abs(q_m - analytic.q_m),
            "q_t": np.abs(q_t - analytic.q_t),
            "eta": np.fmax(eta_res, 0.0),
            "kelvin": q_t,
            "entropy_decrease": -d_s,
            "entropy_12": abs(self.s1 - self.s2),  # one per engine
            "entropy_34": np.abs(s3 - s4),
            "entropy_thermalization": np.abs((self.s1 - s4) + d_s),
            # the cores' checks, with their bounds; density_34_* is the worse of rho3 and rho4
            **basis_checks, **channel_checks, **completeness, **eta_forms,
            **{f"density_34_{name}": (np.maximum(*value), bound)
               for name, (value, bound) in density.items()},
        }
        checks = {name: values[name] if field is None else (values[name], getattr(TOL, field))
                  for name, (field, _, _) in CHECKS.items()}

        out["alpha"], out["phi"], out["w_ext"], out["q_m"], out["q_t"] = alphas, phis, -w, q_m, q_t
        out["eta"], out["ds"], out["dp3"], out["dp4"] = eta, d_s, *analytic.dp[2:]
        for name in ("xi", "zeta", "delta", "gamma"):
            out[name] = getattr(probs, name)
        out["ok"] = functools.reduce(np.logical_and, (v <= b for v, b in checks.values()))
        return CycleRecord(
            params=self.params, row=out, rho1=self.rho1, rho2=self.rho2, rho3=rho3,
            rho4=rho4, w1=w1, w2=w2, q_m=q_m, q_t=q_t, w=w, eta=eta, s1=self.s1,
            s2=self.s2, s3=s3, s4=s4, d_s=d_s, probs=probs, analytic=analytic,
            checks=checks)


def evaluate_samples(omega_taus, betas, alphas, phis) -> SampleBatch:
    """Evaluate one cycle per sample k: the exact propagators of duration
    omega_taus[k], betas[k] as beta*hbar_omega and node (alphas[k], phis[k]).

    The four arrays broadcast against each other.  They are checked once
    here by the rules of ``EngineParams``.  Sample k gives the same row and
    checks as ``CycleEngine(EngineParams(omega_taus[k], betas[k]),
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
    blocks = []  # the checks of each block's record
    for start in range(0, omega_taus.size, NODE_BLOCK):
        block = slice(start, start + NODE_BLOCK)
        pairs = exact_drive_propagators(omega_taus[block])
        engine = CycleEngine._for_samples(pairs[:, 0], pairs[:, 1], betas[block])
        blocks.append(engine._evaluate_block(alphas[block], phis[block], rows[block]).checks)
    checks = {name: (np.concatenate([c[name][0] for c in blocks]), bound)
              for name, (_, bound) in blocks[0].items()}
    return SampleBatch(rows=rows, checks=checks)

