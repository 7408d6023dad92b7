import dataclasses
import math

import numpy as np
import pytest

from qmeter import DEFAULT_TOLERANCES as TOL
from qmeter import (
    ConfigurationError,
    CycleEngine,
    EngineParams,
    GridSpec,
    Objective,
    grid_sweep,
    locate_extrema,
    slice_profile,
    symmetry_residual,
)
from qmeter.propagator import time_ordered_propagator
from qmeter.sweep import _partner_indices

from conftest import DEFAULT_OMEGA_TAU, bloch_cycle, bloch_grid, default_params

TWO_PI = 2 * math.pi


def wrap_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def node_dist(found, target):
    # the coordinate tolerances are quoted per angle, so compare per angle
    return max(abs(found[0] - target[0]), wrap_dist(found[1], target[1]))


def paired_dist(found, target):
    """Distance to the target or to its antisymmetry partner."""
    partner = (math.pi - target[0], (target[1] + math.pi) % TWO_PI)
    return min(node_dist(found, target), node_dist(found, partner))


def test_grid_spec_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(alpha_points=2, phi_points=9)


def test_infinite_temperature_sweep_is_flat():
    params = EngineParams(omega_tau=DEFAULT_OMEGA_TAU, beta_hbar_omega=0.0, steps=256)
    table = grid_sweep(CycleEngine(params), GridSpec(alpha_points=3, phi_points=3))
    assert table.flagged == 0
    assert np.abs(table.rows["w_ext"]).max() <= 1e-12


def test_sweeps_are_bitwise_deterministic():
    params = default_params(steps=256)
    grid = GridSpec(alpha_points=33, phi_points=33)
    a = grid_sweep(CycleEngine(params), grid)
    b = grid_sweep(CycleEngine(params), grid)
    assert a.rows.tobytes() == b.rows.tobytes()


def test_node_nearest_commuting_point_has_no_fuel(default_table):
    rows = default_table.rows
    i = np.argmin(np.hypot(rows["alpha"] - math.pi / 2, rows["phi"]))
    assert abs(rows["alpha"][i] - math.pi / 2) < 1e-12  # on-grid exactly
    assert abs(rows["q_m"][i]) <= 1e-10
    assert math.isnan(rows["eta"][i])


def test_refined_extremum_dominates_grid(default_table):
    ext = locate_extrema(default_table, Objective.MAX_W_EXT)
    assert ext.refinement_rounds == 3
    assert ext.value >= np.nanmax(default_table.rows["w_ext"]) - 1e-12


def test_default_extrema_regression(default_table):
    # implementation-derived optima at the default parameters, frozen against
    # the closed-form propagator plus Bloch-path oracle
    w = locate_extrema(default_table, Objective.MAX_W_EXT)
    assert w.value == pytest.approx(0.047832863, abs=1e-7)
    assert paired_dist((w.alpha_star, w.phi_star), (0.392699, 3.145612)) < 2e-3

    eta = locate_extrema(default_table, Objective.MAX_ETA)
    assert eta.value == pytest.approx(0.980655, abs=1e-4)
    assert paired_dist((eta.alpha_star, eta.phi_star), (0.009672, math.pi)) < 0.02

    ds = locate_extrema(default_table, Objective.MIN_DS)
    assert ds.value <= 1e-9
    assert paired_dist((ds.alpha_star, ds.phi_star), (0.009672, 4.714461)) < 0.02


@pytest.mark.parametrize("objective, value, alpha, phi", [
    (Objective.MAX_W_EXT, 0.047832863847398266, 0.39269908169872414, 3.1456116832540535),
    (Objective.MAX_ETA, 0.9806555708188274, 3.1319439144339927, 9.203884727313849e-05),
    (Objective.MIN_DS, 6.4710459213301874e-12, 0.009679418771558396, 4.714475194256215),
])
def test_default_refined_extrema_are_pinned(default_table, objective, value, alpha, phi):
    # the default sweep's summary.json on one host.  Other BLAS cores and
    # SIMD levels moved these values by up to 1.4e-13 and the coordinates
    # not at all; the largest host spread seen anywhere is 1.1e-9, in eta.
    # A coordinate moves by whole last-round steps (1.5e-5 in alpha), and
    # refining with a zoom of 5 instead of 10 moves max_eta by 3.3e-8
    ext = locate_extrema(default_table, objective)
    assert ext.value == pytest.approx(value, rel=0.0, abs=5e-9)
    assert ext.alpha_star == pytest.approx(alpha, rel=0.0, abs=5e-9)
    assert ext.phi_star == pytest.approx(phi, rel=0.0, abs=5e-9)


def test_a_refinement_across_phi_zero_reports_phi_in_range():
    # the engine's phi axis turned so the extracted-work peak (pinned above
    # at phi 3.1456) sits near phi = -0.01: the best grid node is phi = 0,
    # which comes before the equal phi = 2*pi, and the refinement window
    # straddles 0 with its winner below it.  An even phi count keeps the
    # peak's antisymmetry partner off the grid
    turn = 3.1556

    class Turned(CycleEngine):
        def evaluate_nodes(self, alphas, phis):
            rows = super().evaluate_nodes(alphas, np.mod(phis, TWO_PI) + turn)
            rows["phi"] = phis
            return rows

    table = grid_sweep(Turned(default_params(steps=256)), GridSpec(alpha_points=9, phi_points=8))
    assert table.rows["phi"][np.nanargmax(table.rows["w_ext"])] == 0.0
    ext = locate_extrema(table, Objective.MAX_W_EXT)
    assert ext.phi_star == pytest.approx(TWO_PI - 0.01, abs=1e-3)


@pytest.mark.xfail(
    strict=True,
    reason="at the default drive duration the landscape peaks near "
    "(0.393, pi), (0.0097, pi), (0.0097, 3pi/2); the target coordinates "
    "emerge only with conjugate-transposed propagators near omega_tau 9.75 "
    "(see test_optima_under_adjoint_propagators)",
)
def test_reference_peak_coordinates_at_default_parameters(default_table):
    w = locate_extrema(default_table, Objective.MAX_W_EXT)
    assert node_dist((w.alpha_star, w.phi_star), (1.39, 2.05)) <= 0.05
    eta = locate_extrema(default_table, Objective.MAX_ETA)
    assert node_dist((eta.alpha_star, eta.phi_star), (1.45, 2.53)) <= 0.05
    ds = locate_extrema(default_table, Objective.MIN_DS)
    assert node_dist((ds.alpha_star, ds.phi_star), (1.46, 2.74)) <= 0.05


def test_optima_under_adjoint_propagators():
    # with U^dag applied on both driven strokes at omega_tau = 9.75, the
    # landscape carries its work peak at (1.39, 2.05), efficiency peak at
    # (1.45, 2.53) and entropy-change minimum at (1.46, 2.74); this pins the
    # sweep and refinement machinery against known coordinates
    omega_tau = 9.75
    u = time_ordered_propagator(omega_tau, 4096)[0]
    ud = u.conj().T
    params = EngineParams(omega_tau=omega_tau, beta_hbar_omega=1.0, steps=4096)
    engine = CycleEngine(params, propagators=(ud, ud))
    table = grid_sweep(engine, GridSpec(alpha_points=129, phi_points=129))

    w = locate_extrema(table, Objective.MAX_W_EXT)
    assert paired_dist((w.alpha_star, w.phi_star), (1.39, 2.05)) <= 0.05
    assert w.value == pytest.approx(0.023112, abs=1e-4)

    eta = locate_extrema(table, Objective.MAX_ETA)
    assert paired_dist((eta.alpha_star, eta.phi_star), (1.45, 2.53)) <= 0.05
    assert eta.value == pytest.approx(0.377870, abs=1e-3)

    ds = locate_extrema(table, Objective.MIN_DS)
    assert paired_dist((ds.alpha_star, ds.phi_star), (1.46, 2.74)) <= 0.05
    assert ds.value <= 1e-6


def test_a_table_keeps_its_engine_and_a_slice_is_one_of_its_columns():
    # the hooked engine cannot be rebuilt from its parameters, so a table
    # that holds it, and slices that match its columns bit for bit, show
    # that the sweep layer evaluates with the engine it was handed
    ud = time_ordered_propagator(9.75, 1024)[0].conj().T
    engine = CycleEngine(EngineParams(omega_tau=9.75, beta_hbar_omega=1.0), propagators=(ud, ud))
    grid = GridSpec(alpha_points=33, phi_points=33)
    table = grid_sweep(engine, grid)
    assert table.engine is engine
    columns = table.rows.reshape(grid.alpha_points, grid.phi_points)
    for j in (0, 7, 16, 32):
        profile = slice_profile(engine, "phi", grid.phis()[j], points=grid.alpha_points)
        assert profile.tobytes() == columns[:, j].tobytes(), j


def test_bad_nodes_are_flagged_and_sweep_completes(monkeypatch):
    # a channel corruption that trips the entropy-gain invariant must flag
    # rows without aborting the sweep
    import qmeter.cycle as cycle_mod
    from qmeter import measurement

    real_measure = measurement._measure
    ground = np.outer([0, 1], [0, 1]).astype(complex)

    def bad_measure(rho, basis, rehermitize=True):
        post, probs, checks = real_measure(rho, basis)
        return 0.05 * post + 0.95 * ground, probs, checks

    monkeypatch.setattr(cycle_mod, "_measure", bad_measure)
    table = grid_sweep(CycleEngine(default_params(steps=256)),
                       GridSpec(alpha_points=5, phi_points=5))
    assert table.flagged > 0
    assert table.rows.shape[0] == 25
    assert not table.rows["ok"].all()


def test_eta_maximizer_requires_defined_rows():
    params = EngineParams(omega_tau=DEFAULT_OMEGA_TAU, beta_hbar_omega=0.0, steps=256)
    table = grid_sweep(CycleEngine(params), GridSpec(alpha_points=5, phi_points=5))
    with pytest.raises(ConfigurationError):
        locate_extrema(table, Objective.MAX_ETA)


def test_symmetry_residual_on_default_grid(default_table):
    assert symmetry_residual(default_table) <= 1e-10


def test_symmetry_residual_is_parameter_independent(rng):
    for _ in range(5):
        params = EngineParams(omega_tau=rng.uniform(0.01, 10.0),
                              beta_hbar_omega=rng.uniform(0.1, 5.0), steps=256)
        table = grid_sweep(CycleEngine(params), GridSpec(alpha_points=33, phi_points=33))
        assert symmetry_residual(table) <= 1e-10


def test_a_fuel_moved_at_one_node_breaks_the_symmetry():
    # q_m moved by 1e-6 at one node and not at its partner, where eta is
    # defined on both sides: w_ext is unmoved, so only the fuel pairs see it
    table = grid_sweep(CycleEngine(default_params(steps=256)), GridSpec(33, 33))
    assert symmetry_residual(table) <= TOL.symmetry
    a_partner, p_partner = _partner_indices(table.grid)
    w, eta = (table.rows[name].reshape(33, 33) for name in ("w_ext", "eta"))
    i, j = np.indices(w.shape)
    paired = (~np.isnan(eta) & ~np.isnan(eta[a_partner][:, p_partner])
              & ((i != a_partner[i]) | (j != p_partner[j])))
    node = np.argmax(np.where(paired, np.abs(w[a_partner][:, p_partner]), -1.0))
    rows = table.rows.copy()
    rows["q_m"][node] += 1e-6
    assert symmetry_residual(dataclasses.replace(table, rows=rows)) > TOL.symmetry


def test_a_fuel_lost_at_an_undefined_eta_partner_breaks_the_symmetry():
    # the partner of a node with eta defined on both sides loses its fuel and
    # its eta, as at q_m = 0: w_ext is unmoved, and the fuel pair sees it
    # though the partner's eta is undefined
    table = grid_sweep(CycleEngine(default_params(steps=256)), GridSpec(33, 33))
    a_partner, p_partner = _partner_indices(table.grid)
    w, q_m, eta = (table.rows[name].reshape(33, 33) for name in ("w_ext", "q_m", "eta"))
    i, j = np.indices(w.shape)
    paired = (~np.isnan(eta) & ~np.isnan(eta[a_partner][:, p_partner])
              & ((i != a_partner[i]) | (j != p_partner[j])))
    node = np.unravel_index(np.argmax(np.where(paired, np.abs(w * q_m), -1.0)), w.shape)
    partner = np.ravel_multi_index((a_partner[node[0]], p_partner[node[1]]), w.shape)
    assert abs(w[node] * q_m[node]) > 1e3 * TOL.symmetry
    rows = table.rows.copy()
    rows["q_m"][partner], rows["eta"][partner] = 0.0, np.nan
    assert symmetry_residual(dataclasses.replace(table, rows=rows)) > TOL.symmetry


def test_a_fuel_moved_where_eta_is_undefined_on_both_sides_breaks_the_symmetry():
    # q_m moved by 1e-3 at a node whose eta, and its partner's, is undefined:
    # no eta pair holds it, and the fuel pair sees it
    table = grid_sweep(CycleEngine(default_params(steps=256)), GridSpec(33, 33))
    a_partner, p_partner = _partner_indices(table.grid)
    eta = table.rows["eta"].reshape(33, 33)
    i, j = np.indices(eta.shape)
    unpaired = (np.isnan(eta) & np.isnan(eta[a_partner][:, p_partner])
                & ((i != a_partner[i]) | (j != p_partner[j])))
    assert unpaired.any()
    node = np.flatnonzero(unpaired)[0]
    rows = table.rows.copy()
    rows["q_m"][node] += 1e-3
    assert symmetry_residual(dataclasses.replace(table, rows=rows)) > TOL.symmetry


def test_symmetry_rejects_asymmetric_grid():
    # 4 phi points over [0, 2*pi] leave phi + pi off-grid
    params = default_params(steps=256)
    table = grid_sweep(CycleEngine(params), GridSpec(alpha_points=5, phi_points=4))
    with pytest.raises(ConfigurationError):
        symmetry_residual(table)


@pytest.mark.parametrize("alpha_points", [3, 4, 9, 10, 257, 258])
@pytest.mark.parametrize("phi_points", [3, 5, 9, 129, 257, 401])
def test_partner_indices_realise_the_symmetry_map(alpha_points, phi_points):
    grid = GridSpec(alpha_points=alpha_points, phi_points=phi_points)
    a_partner, p_partner = _partner_indices(grid)
    alphas, phis = grid.alphas(), grid.phis()
    assert np.abs(alphas[a_partner] - (math.pi - alphas)).max() <= 1e-9
    assert max(wrap_dist(p, q + math.pi) for p, q in zip(phis[p_partner], phis)) <= 1e-9


@pytest.mark.parametrize("phi_points", [4, 6, 10, 256])
def test_partner_indices_reject_even_phi_counts(phi_points):
    grid = GridSpec(alpha_points=9, phi_points=phi_points)
    with pytest.raises(ConfigurationError, match="phi grid not symmetric"):
        _partner_indices(grid)


def test_eta_peak_sits_in_low_entropy_region(default_table, default_engine):
    rows = default_table.rows
    eta = rows["eta"]
    defined = ~np.isnan(eta)
    i = np.nanargmax(np.where(defined, eta, np.nan))
    ds_decile = np.quantile(rows["ds"], 0.1)
    assert rows["ds"][i] <= ds_decile


def test_the_default_table_matches_the_bloch_oracle_at_every_node(default_table):
    rows, engine = default_table.rows, default_table.engine
    oracle = bloch_grid(engine.u, engine.v, rows["alpha"], rows["phi"],
                        engine.params.beta_hbar_omega)
    assert np.abs(rows["w_ext"] + oracle["w"]).max() <= TOL.analytic
    for column, key in (("q_m", "q_m"), ("q_t", "q_t"), ("ds", "d_s")):
        assert np.abs(rows[column] - oracle[key]).max() <= TOL.analytic, column
    defined = ~np.isnan(rows["eta"])
    assert 0 < defined.sum() < rows.size
    eta = rows["eta"][defined]
    # cross-multiplied, which stays conditioned where the fuel is small
    gap = np.abs(eta * oracle["q_m"][defined] + oracle["w"][defined])
    assert np.all(gap <= TOL.analytic * np.maximum(1.0, np.abs(eta)))


@pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
def test_bloch_grid_is_bloch_cycle_node_by_node(default_engine, rng, beta):
    u, v = default_engine.u, default_engine.v
    alphas = np.concatenate([[0.0, math.pi, 0.0], rng.uniform(0.0, math.pi, 5)])
    phis = np.concatenate([[0.0, 2.0, TWO_PI], rng.uniform(0.0, TWO_PI, 5)])
    grid = bloch_grid(u, v, alphas, phis, beta)
    for k, (alpha, phi) in enumerate(zip(alphas.tolist(), phis.tolist())):
        node = bloch_cycle(u, v, alpha, phi, beta)
        assert set(grid) == set(node)
        for key, value in node.items():  # the same arithmetic, up to its rounding
            assert grid[key][k] == pytest.approx(value, rel=0.0, abs=1e-15), (key, k)


def test_slice_profile_against_fixed_phi(default_engine):
    profile = slice_profile(default_engine, "phi", 2.53, points=129)
    assert len(profile) == 129
    assert np.all(profile["phi"] == 2.53)
    oracle = [bloch_cycle(default_engine.u, default_engine.v, a, 2.53, 1.0)
              for a in profile["alpha"]]
    assert np.abs(profile["w_ext"] + [o["w"] for o in oracle]).max() <= 1e-12
    assert np.abs(profile["ds"] - [o["d_s"] for o in oracle]).max() <= 1e-12
    # the delta-derived column is convex in alpha on the full range
    d = np.diff(1.0 - 2.0 * profile["delta"])
    assert np.all(np.diff(d) >= -1e-12)
    # extracted work peaks at small alpha here (frozen against the oracle)
    peak = profile["alpha"][np.argmax(profile["w_ext"])]
    assert peak == pytest.approx(0.343, abs=0.02)


@pytest.mark.xfail(
    strict=True,
    reason="at the default drive duration the phi=2.53 slice peaks near "
    "alpha 0.34 and the zeta/gamma columns follow cos(alpha), which is "
    "concave on the first half of the range",
)
def test_slice_reference_behavior_at_default_parameters(default_engine):
    profile = slice_profile(default_engine, "phi", 2.53, points=513)
    peak = profile["alpha"][np.argmax(profile["w_ext"])]
    assert abs(peak - 1.25) <= 0.05
    for column in ("zeta", "gamma"):
        d = np.diff(1.0 - 2.0 * profile[column])
        assert np.all(np.diff(d) >= -1e-12)


def test_slice_profile_against_fixed_alpha(default_engine):
    profile = slice_profile(default_engine, "alpha", 1.45, points=129)
    assert np.all(profile["alpha"] == 1.45)
    oracle_w = [-bloch_cycle(default_engine.u, default_engine.v, 1.45, p, 1.0)["w"]
                for p in profile["phi"]]
    assert np.abs(profile["w_ext"] - oracle_w).max() <= 1e-12
    # no positive work anywhere on this slice; the maximum sits near phi
    # 3.24, nudged off pi by the finite-time corrections in zeta and gamma
    assert np.all(profile["w_ext"] < 0)
    peak = profile["phi"][np.argmax(profile["w_ext"])]
    assert peak == pytest.approx(3.240, abs=0.03)


def test_slice_validation(default_engine):
    with pytest.raises(ConfigurationError):
        slice_profile(default_engine, "theta", 1.0)
    with pytest.raises(ConfigurationError):
        slice_profile(default_engine, "alpha", 4.0)
