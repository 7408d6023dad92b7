"""Property tests of the batched node kernel over the whole parameter domain.

The stroke propagators are replaced by the exact rotating-frame solutions
``closed_form_u``/``closed_form_v``, so the kernel's two paths can be held
to the independent Bloch-vector oracle at ``Tolerances.analytic`` for any
drive duration and temperature.  Batch sizes fall on both sides of the
block constant, with drawn nodes placed at the block edges.

The sample batches (``evaluate_samples``, on exact propagator pairs) are
held to the one-engine path sample by sample, bit for bit, with batch sizes
on both sides of the block constant.  The chunked propagator build is held
to one unchunked tree over all steps, bit for bit, at step counts on both
sides of the chunk boundaries.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qmeter import DEFAULT_TOLERANCES as TOL
from qmeter import CycleEngine, EngineParams, time_ordered_propagator
from qmeter.cycle import NODE_BLOCK, ROW_DTYPE, evaluate_samples
from qmeter.propagator import (
    STEP_CHUNK,
    _drive_step_factors,
    _ordered_product,
    exact_drive_propagators,
)

from conftest import bloch_cycle, closed_form_u, closed_form_v

TWO_PI = 2.0 * math.pi

alphas = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))
# across the wrap of phi: both ends of [0, 2*pi] and a little beyond them
phis = st.one_of(st.sampled_from([0.0, TWO_PI]), st.floats(0.0, TWO_PI),
                 st.floats(-1e-3, 1e-3), st.floats(TWO_PI - 1e-3, TWO_PI + 1e-3))
engines = st.tuples(st.floats(1e-3, 1e4), st.floats(0.0, 1e3))
sizes = st.sampled_from([1, 2, NODE_BLOCK - 1, NODE_BLOCK, NODE_BLOCK + 1, 2 * NODE_BLOCK + 3])


@st.composite
def node_batches(draw):
    """(alphas, phis, checked): seeded uniform nodes with drawn edge nodes at
    the first, last and block-boundary positions, which are the ones checked."""
    size = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(0.0, math.pi, size)
    p = rng.uniform(0.0, TWO_PI, size)
    checked = sorted({0, size - 1, min(NODE_BLOCK, size) - 1, min(NODE_BLOCK, size - 1)})
    for k in checked:
        a[k] = draw(alphas)
        p[k] = draw(phis)
    return a, p, checked


def oracle_engine(omega_tau, beta):
    u, v = closed_form_u(omega_tau), closed_form_v(omega_tau)
    return CycleEngine(EngineParams(omega_tau=omega_tau, beta_hbar_omega=beta),
                       propagators=(u, v))


@given(engines, node_batches())
def test_evaluate_nodes_agrees_with_bloch_oracle(engine_params, batch):
    omega_tau, beta = engine_params
    a, p, checked = batch
    engine = oracle_engine(omega_tau, beta)
    rows = engine.evaluate_nodes(a, p)
    assert rows.shape == a.shape
    assert rows["ok"].all()
    for k in checked:
        o = bloch_cycle(engine.u, engine.v, a[k], p[k], beta)
        row = rows[k]
        assert abs(row["w_ext"] + o["w"]) <= TOL.analytic
        assert abs(row["q_m"] - o["q_m"]) <= TOL.analytic
        assert abs(row["q_t"] - o["q_t"]) <= TOL.analytic
        assert abs(row["ds"] - o["d_s"]) <= TOL.analytic
        if row["q_m"] > TOL.fuel:
            # cross-multiplied, which stays conditioned where the fuel is small
            assert abs(row["eta"] * o["q_m"] + o["w"]) <= TOL.analytic * max(1.0, abs(row["eta"]))
        else:
            assert math.isnan(row["eta"])


@given(engines, node_batches())
def test_batch_of_one_matches_the_batch(engine_params, batch):
    omega_tau, beta = engine_params
    a, p, checked = batch
    engine = oracle_engine(omega_tau, beta)
    rows = engine.evaluate_nodes(a, p)
    for k in checked:
        record, violations = engine.evaluate_flagged(a[k], p[k])
        assert record.row["ok"][0] == rows["ok"][k] == (not violations)
        for name in ROW_DTYPE.names[:-1]:
            one, many = record.row[name][0], rows[name][k]
            assert (math.isnan(one) and math.isnan(many)) or abs(one - many) <= 1e-15 * max(
                1.0, abs(many)), name
        assert record.w_ext == rows["w_ext"][k] and record.d_s == rows["ds"][k]


omega_taus = st.floats(1e-3, 1e4)
betas = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
chunked_steps = st.one_of(
    st.sampled_from([STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1, 2 * STEP_CHUNK + 1,
                     3 * STEP_CHUNK]),
    st.integers(2, 3 * STEP_CHUNK))


@st.composite
def sample_batches(draw):
    """(omega_taus, betas, alphas, phis, checked) for evaluate_samples:
    seeded uniform samples with drawn ones at the first and last positions
    and at the edges of the node block."""
    size = draw(st.sampled_from([1, 2, NODE_BLOCK, NODE_BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform([1e-3, 0.0, 0.0, 0.0], [10.0, 10.0, math.pi, TWO_PI], size=(size, 4))
    edges = {0, size - 1, NODE_BLOCK - 1, NODE_BLOCK}
    checked = sorted(k for k in edges if k < size)
    for k in checked:
        x[k] = draw(omega_taus), draw(betas), draw(alphas), draw(phis)
    return (*x.T, checked)


@given(sample_batches())
def test_evaluate_samples_matches_one_engine_per_sample(batch):
    omega_tau, beta, alpha, phi, checked = batch
    result = evaluate_samples(omega_tau, beta, alpha, phi)
    assert result.rows.shape == omega_tau.shape
    for k in checked:
        engine = CycleEngine(EngineParams(omega_tau=omega_tau[k], beta_hbar_omega=beta[k]),
                             propagators=exact_drive_propagators([omega_tau[k]])[0])
        record, violations = engine.evaluate_flagged(alpha[k], phi[k])
        assert record.row.tobytes() == result.rows[k:k + 1].tobytes()
        for name, value in record.residuals.items():
            assert np.float64(value).tobytes() == result.residuals[name][k].tobytes(), name
        flagged = {name for name, (values, bound) in result.checks.items() if values[k] > bound}
        assert flagged == set(violations)


@given(chunked_steps, omega_taus)
def test_chunked_build_is_the_whole_tree_over_the_domain(steps, tau):
    whole = _ordered_product(_drive_step_factors(tau, steps, 0, steps))
    assert time_ordered_propagator(tau, steps).tobytes() == whole.tobytes()
