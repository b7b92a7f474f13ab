"""Residuals, log-likelihood, and analytic Jacobians."""
import math

import numpy as np
import pytest

import scalar_model as ref
from mmloc import (DegenerateGeometry, LikelihoodEngine, Mode, NoiseProfile,
                   Observation, ParamVector, Point2, ReflectiveSide, Scenario,
                   SingularCovariance, Wall, WallAxis, covariance,
                   enumerate_paths, jacobian, jacobian_fd, log_likelihood,
                   noise_profile_preset, noiseless_observation, residual,
                   synthesize)

PROF = noise_profile_preset("73GHz")

CORNER = Scenario(
    (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
     Wall(WallAxis.HORIZONTAL, 0.0, ReflectiveSide.POSITIVE)),
    (Point2(18.0, 10.0),), PROF, name="corner")

UE = Point2(8.0, 35.0)


def _truth(scenario, ue, mode=Mode.NOREM):
    ps = enumerate_paths(scenario, ue)
    return ps, ParamVector.truth_from_paths(ue, ps, mode)


# ---------------------------------------------------------------------------
# residual and log-likelihood values
# ---------------------------------------------------------------------------

def test_residual_zero_at_truth():
    ps, theta = _truth(CORNER, UE)
    z = noiseless_observation(theta, ps, CORNER)
    np.testing.assert_allclose(residual(z, theta, CORNER), 0.0, atol=1e-12)


def test_log_likelihood_at_truth_is_normalizer():
    ps, theta = _truth(CORNER, UE)
    z = noiseless_observation(theta, ps, CORNER)
    cov = covariance(CORNER.noise_profile, ps.n_los, ps.n_nlos)
    expect = -0.5 * (z.m * math.log(2.0 * math.pi) + np.log(cov).sum())
    assert log_likelihood(z, theta, CORNER) == pytest.approx(expect, abs=1e-10)


def test_angle_residuals_wrap_across_branch_cut():
    """Measurement just below +pi against a model just above -pi must give
    a small residual, not one near 2*pi."""
    wall = Wall(WallAxis.VERTICAL, -5.0, ReflectiveSide.POSITIVE)
    sc = Scenario((wall,), (Point2(0.0, 0.0),), PROF)
    ps = enumerate_paths(sc, Point2(-0.01, 10.0)).subset([0])
    theta_true = ParamVector.truth_from_paths(Point2(-0.01, 10.0), ps, Mode.NOREM)
    z = noiseless_observation(theta_true, ps, sc)
    assert z.alpha[0] == pytest.approx(math.pi - 0.001, abs=1e-6)
    theta_eval = ParamVector(Point2(0.01, 10.0), (), Mode.NOREM)
    r = residual(z, theta_eval, sc)
    assert abs(r[0]) < 0.01


def test_log_likelihood_penalizes_distance_from_truth():
    ps, theta = _truth(CORNER, UE)
    z = noiseless_observation(theta, ps, CORNER)
    ll0 = log_likelihood(z, theta, CORNER)
    off = ParamVector(Point2(UE.x + 1.0, UE.y), theta.scatterers, Mode.NOREM)
    assert log_likelihood(z, off, CORNER) < ll0


def test_whitened_norm_tracks_chi_square_mean():
    ps, theta = _truth(CORNER, UE)
    n_draw = 300
    total = 0.0
    for seed in range(n_draw):
        z = synthesize(theta, ps, CORNER, seed)
        r = residual(z, theta, CORNER)
        total += float(r @ (r / z.covariance_diag))
    mean = total / n_draw
    m = 3 * ps.n_paths
    # chi-square(m): mean m, var 2m; allow 5 standard errors
    assert abs(mean - m) < 5.0 * math.sqrt(2.0 * m / n_draw)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_los_jacobian_oracle():
    # fe at origin, ue due east at 10 m: angles change only with y, range
    # only with x
    sc = Scenario((Wall(WallAxis.HORIZONTAL, -5.0, ReflectiveSide.POSITIVE),),
                  (Point2(0.0, 0.0),), PROF)
    ps = enumerate_paths(sc, Point2(10.0, 0.0)).subset([0])
    theta = ParamVector.truth_from_paths(Point2(10.0, 0.0), ps, Mode.NOREM)
    J = jacobian(theta, ps, sc)
    np.testing.assert_allclose(
        J, [[0.0, -0.1], [0.0, -0.1], [1.0, 0.0]], atol=1e-12)


def test_nlos_range_jacobian_oracle():
    # evaluate at ue (0,0), fe (10,10), scatterer (10,0): the unit leg
    # directions sum to (1,-1) for the scatterer block
    wall = Wall(WallAxis.VERTICAL, 12.0, ReflectiveSide.NEGATIVE)
    sc = Scenario((wall,), (Point2(10.0, 10.0),), PROF)
    ps = enumerate_paths(sc, Point2(0.0, 0.0))
    nlos = ps.subset([i for i, p in enumerate(ps) if p.wall_index is not None])
    theta = ParamVector(Point2(0.0, 0.0), (Point2(10.0, 0.0),), Mode.NOREM)
    J = jacobian(theta, nlos, sc)
    d_row = J[2]
    np.testing.assert_allclose(d_row[:2], [-1.0, 0.0], atol=1e-12)  # -e/|e|
    np.testing.assert_allclose(d_row[2:], [1.0, -1.0], atol=1e-12)
    # departure angle never depends on the UE
    np.testing.assert_allclose(J[1, :2], 0.0, atol=1e-15)


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_jacobian_matches_finite_differences(mode):
    ps, theta = _truth(CORNER, UE, mode)
    off = ParamVector.from_array(theta.to_array() + 0.37, mode)
    A = jacobian(off, ps, CORNER)
    F = jacobian_fd(off, ps, CORNER)
    assert np.abs(A - F).max() / max(np.abs(F).max(), 1.0) < 1e-5


def test_jacobian_degenerate_raises():
    ps, _ = _truth(CORNER, UE)
    theta = ParamVector.truth_from_paths(UE, ps, Mode.NOREM)
    on_fe = ParamVector(Point2(18.0, 10.0), theta.scatterers, Mode.NOREM)
    with pytest.raises(DegenerateGeometry):
        jacobian(on_fe, ps, CORNER)


def test_score_matches_likelihood_gradient():
    """J^T R^-1 r is the gradient of the log-likelihood."""
    ps, theta = _truth(CORNER, UE)
    z = synthesize(theta, ps, CORNER, 5)
    pt = ParamVector.from_array(theta.to_array() + 0.2, Mode.NOREM)
    J = jacobian(pt, ps, CORNER)
    r = residual(z, pt, CORNER)
    score = J.T @ (r / z.covariance_diag)
    arr = pt.to_array()
    fd = np.empty_like(arr)
    h = 1e-6
    for i in range(arr.size):
        up, dn = arr.copy(), arr.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (log_likelihood(z, ParamVector.from_array(up, Mode.NOREM), CORNER)
                 - log_likelihood(z, ParamVector.from_array(dn, Mode.NOREM), CORNER)) / (2 * h)
    np.testing.assert_allclose(score, fd, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------

def test_engine_matches_scalar_likelihood():
    """The engine against the scalar per-path reference; the one-row
    log_likelihood and residual are the engine's rows, bit for bit."""
    rng = np.random.default_rng(0)
    for mode in (Mode.NOREM, Mode.REM):
        ps, theta = _truth(CORNER, UE, mode)
        z = synthesize(theta, ps, CORNER, 11)
        eng = LikelihoodEngine(z, CORNER, mode)
        batch = theta.to_array() + rng.normal(0.0, 1.0, size=(32, eng.dim))
        ll = eng.log_likelihood(batch)
        res = eng.residual(batch)
        for row, want, r in zip(batch, ll, res):
            th = ParamVector.from_array(row, mode)
            assert ref.log_likelihood(z, th, CORNER) == pytest.approx(
                want, rel=1e-12, abs=1e-9)
            assert log_likelihood(z, th, CORNER) == want
            np.testing.assert_array_equal(residual(z, th, CORNER), r)


def test_one_row_calls_raise_typed_errors():
    ps, theta = _truth(CORNER, UE)
    z = synthesize(theta, ps, CORNER, 11)
    on_fe = ParamVector(Point2(18.0, 10.0), theta.scatterers, Mode.NOREM)
    short = ParamVector(UE, theta.scatterers[:1], Mode.NOREM)
    bad_cov = Observation(z.alpha, z.beta, z.dist,
                          np.where(np.arange(z.m) == 4, 0.0,
                                   z.covariance_diag), ps)
    for fn in (residual, log_likelihood):
        with pytest.raises(DegenerateGeometry):
            fn(z, on_fe, CORNER)
        with pytest.raises(ValueError):
            fn(z, short, CORNER)
        with pytest.raises(SingularCovariance):
            fn(bad_cov, theta, CORNER)


def test_engine_flags_degenerate_rows():
    ps, theta = _truth(CORNER, UE)
    z = synthesize(theta, ps, CORNER, 11)
    eng = LikelihoodEngine(z, CORNER, Mode.NOREM)
    bad = theta.to_array().copy()
    bad[:2] = [18.0, 10.0]  # UE on the FE
    batch = np.stack([theta.to_array(), bad])
    ok = eng.valid(batch)
    assert ok.tolist() == [True, False]
    ll = eng.log_likelihood(batch)
    assert np.isfinite(ll[0]) and ll[1] == -np.inf
    cost, ok2 = eng.cost_valid(batch)
    assert cost[1] == np.inf and not ok2[1]
    assert ll[0] == pytest.approx(eng.log_norm - cost[0], rel=1e-12)


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_engine_rows_do_not_depend_on_the_call(mode):
    """A row's cost and linearization are the same bits alone and inside a
    64-row call, and a row scored against observation k of a several-
    observation engine matches an engine holding observation k alone."""
    ps, theta = _truth(CORNER, UE)
    zs = [synthesize(theta, ps, CORNER, seed) for seed in (21, 22, 23)]
    eng = LikelihoodEngine(zs, CORNER, mode)
    rng = np.random.default_rng(5)
    rows = theta.to_array()[:eng.dim] + rng.normal(0.0, 2.0, (64, eng.dim))
    obs = rng.integers(0, 3, 64)
    cost, ok = eng.cost_valid(rows, obs)
    lin = eng.linearize(rows, obs)
    for k in range(64):
        alone = LikelihoodEngine(zs[obs[k]], CORNER, mode)
        c1, ok1 = alone.cost_valid(rows[k:k + 1])
        assert c1[0] == cost[k] and ok1[0] == ok[k]
        for got, want in zip(alone.linearize(rows[k:k + 1]), lin):
            np.testing.assert_array_equal(got[0], want[k])
    with pytest.raises(ValueError):
        eng.cost_valid(rows)  # which observation is ambiguous
    with pytest.raises(ValueError):
        LikelihoodEngine([zs[0], zs[1].subset([0, 1])], CORNER, mode)


def test_engine_whitening_consistency():
    ps, theta = _truth(CORNER, UE)
    z = synthesize(theta, ps, CORNER, 3)
    eng = LikelihoodEngine(z, CORNER, Mode.NOREM)
    pt = theta.to_array()[None, :] + 0.1
    rw, Jw, _, _ = eng.linearize(pt)
    sig = np.sqrt(z.covariance_diag)
    np.testing.assert_allclose(rw[0] * sig, eng.residual(pt)[0], rtol=1e-12)
    J = jacobian(ParamVector.from_array(pt[0], Mode.NOREM), ps, CORNER)
    np.testing.assert_allclose(Jw[0] * sig[:, None], J, rtol=1e-12, atol=1e-12)
