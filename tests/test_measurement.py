"""Bearing conventions, angle wrapping, the forward measurement model
against the scalar per-path reference, noise synthesis."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_model as ref
from mmloc import (SCENARIO_NAMES, DegenerateGeometry, Mode, NoiseProfile,
                   ParamVector, PathKind, Point2, ReflectiveSide, Scenario,
                   Wall, WallAxis, covariance, enumerate_paths, forward,
                   noise_profile_preset, noiseless_observation,
                   scenario_preset, synthesize, trajectory_preset, wrap)
from mmloc.measurement import PathGeometry

PROF = noise_profile_preset("73GHz")

CORNER = Scenario(
    (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
     Wall(WallAxis.HORIZONTAL, 0.0, ReflectiveSide.POSITIVE)),
    (Point2(18.0, 10.0),), PROF, name="corner")


# ---------------------------------------------------------------------------
# bearings and wrapping
# ---------------------------------------------------------------------------

def test_atan2q_cardinal_directions():
    # bearings measured from the +y axis, clockwise toward +x: the arrival
    # angle of a direct path is the FE's bearing seen from the UE, and the
    # departure angle the reverse bearing.  Due south reads +pi, not -pi,
    # also where a signed zero would send arctan2 to -pi.
    south = math.pi
    for fe, ue, alpha, beta in [
            (Point2(0.0, 0.0), Point2(0.0, -3.0), 0.0, south),
            (Point2(0.0, 0.0), Point2(-3.0, 0.0), math.pi / 2, -math.pi / 2),
            (Point2(0.0, 0.0), Point2(0.0, 3.0), south, 0.0),
            (Point2(0.0, 0.0), Point2(3.0, 0.0), -math.pi / 2, math.pi / 2),
            (Point2(-0.0, 0.0), Point2(0.0, 3.0), south, 0.0),
            (Point2(0.0, 0.0), Point2(-0.0, -3.0), 0.0, south)]:
        sc = Scenario((Wall(WallAxis.VERTICAL, -5.0,
                            ReflectiveSide.POSITIVE),), (fe,), PROF)
        ps = enumerate_paths(sc, ue).subset([0])
        theta = ParamVector(ue, (), Mode.REM)
        assert tuple(forward(theta, ps, sc)) == (alpha, beta, 3.0)
        assert tuple(ref.forward(theta, ps, sc)) == (alpha, beta, 3.0)


def test_atan2q_at_origin_raises():
    # a bounce point on the UE or on its FE leaves a bearing of the zero
    # vector: the model refuses it rather than returning arctan2(0, 0)
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    truth = ParamVector.truth_from_paths(Point2(8.0, 35.0), ps, Mode.NOREM)
    for at in (truth.ue, CORNER.fes[0]):
        theta = ParamVector(truth.ue, (at,) + truth.scatterers[1:],
                            Mode.NOREM)
        with pytest.raises(DegenerateGeometry):
            forward(theta, ps, CORNER)
    with pytest.raises(ref.UndefinedAngle):
        ref.atan2q(0.0, 0.0)


def test_wrap_edges():
    assert wrap(math.pi) == -math.pi
    assert wrap(-math.pi) == -math.pi
    assert wrap(0.0) == 0.0
    assert wrap(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)


def test_wrap_edge_values_match_the_copying_guards():
    """The in-place edge guards give the bits of guards that copy, on
    arrays, strided views and scalars, edge values included."""
    two_pi = 2.0 * math.pi

    def copying(x):
        out = x - two_pi * np.floor((x + np.pi) / two_pi)
        out = np.where(out < -np.pi, out + two_pi, out)
        return np.where(out >= np.pi, out - two_pi, out)

    edges = [math.pi, -math.pi, 0.0, -0.0, math.inf, -math.inf, math.nan,
             1e300, -1e300, 5e-324, 1e16, -1e16, two_pi, -two_pi,
             3.0 * math.pi, np.nextafter(math.pi, 0.0),
             np.nextafter(-math.pi, -4.0)]
    x = np.concatenate([edges, np.random.default_rng(3).normal(0.0, 20.0,
                                                                502)])
    with np.errstate(invalid="ignore"):
        want = copying(x)
        assert wrap(x).tobytes() == want.tobytes()
        assert wrap(x.reshape(-1, 3)[:, ::2]).tobytes() == \
            copying(x.reshape(-1, 3)[:, ::2]).tobytes()
        for v, w in zip(x, want):
            got = wrap(float(v))
            assert type(got) is float
            assert np.float64(got).tobytes() == w.tobytes()


@given(x=st.floats(-50.0, 50.0), k=st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_wrap_image_and_periodicity(x, k):
    w = wrap(x)
    assert -math.pi <= w < math.pi
    assert abs(wrap(x + 2.0 * math.pi * k) - w) < 1e-9


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------

def test_los_path_params():
    sc = Scenario((Wall(WallAxis.VERTICAL, -5.0, ReflectiveSide.POSITIVE),),
                  (Point2(0.0, 0.0),), PROF)
    ps = enumerate_paths(sc, Point2(0.0, 10.0)).subset([0])
    theta = ParamVector.truth_from_paths(Point2(0.0, 10.0), ps, Mode.NOREM)
    alpha, beta, d = forward(theta, ps, sc)
    assert alpha == math.pi       # UE looks due south at the FE
    assert beta == 0.0            # FE looks due north at the UE
    assert d == 10.0


def test_nlos_path_params_oracle():
    # fe (5,5), wall x=0, ue (5,15): bounce at (0,10) by the image method,
    # so both legs are 5*sqrt(2)
    wall = Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE)
    sc = Scenario((wall,), (Point2(5.0, 5.0),), PROF)
    ps = enumerate_paths(sc, Point2(5.0, 15.0))
    nlos = [j for j, p in enumerate(ps) if p.kind is PathKind.NLOS]
    assert len(nlos) == 1
    assert ps[nlos[0]].true_scatterer == Point2(0.0, 10.0)
    for mode in (Mode.NOREM, Mode.REM):
        theta = ParamVector.truth_from_paths(Point2(5.0, 15.0), ps, mode)
        h = forward(theta, ps, sc)
        j, n = nlos[0], ps.n_paths
        assert h[j] == pytest.approx(-3.0 * math.pi / 4.0, abs=1e-12)
        assert h[n + j] == pytest.approx(-math.pi / 4.0, abs=1e-12)
        assert h[2 * n + j] == pytest.approx(10.0 * math.sqrt(2.0), abs=1e-12)


def test_forward_stacks_los_first_blocks():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))  # 1 LOS + 2 NLOS
    theta = ParamVector.truth_from_paths(Point2(8.0, 35.0), ps, Mode.NOREM)
    h = forward(theta, ps, CORNER)
    assert h.shape == (9,)
    a0, b0, d0 = ref.path_params(theta, ps[0], CORNER)
    a2, b2, d2 = ref.path_params(theta, ps[2], CORNER)
    np.testing.assert_allclose([h[0], h[3], h[6]], [a0, b0, d0], atol=1e-12)
    np.testing.assert_allclose([h[2], h[5], h[8]], [a2, b2, d2], atol=1e-12)


def test_path_params_degenerate_raises():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    theta = ParamVector(Point2(18.0, 10.0), (), Mode.REM)  # UE on the FE
    with pytest.raises(DegenerateGeometry):
        forward(theta, ps, CORNER)
    with pytest.raises(ValueError):  # NoREM needs one bounce point per NLOS path
        forward(ParamVector(Point2(8.0, 35.0), (), Mode.NOREM), ps, CORNER)


_WALL_SETS = {
    "one wall": (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),),
    "corner": (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
               Wall(WallAxis.HORIZONTAL, 0.0, ReflectiveSide.POSITIVE)),
    "canyon": (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
               Wall(WallAxis.VERTICAL, 20.0, ReflectiveSide.NEGATIVE)),
}


def _random_point(rng) -> Point2:
    return Point2(float(rng.uniform(1.0, 19.0)), float(rng.uniform(1.0, 49.0)))


@pytest.mark.parametrize("walls", sorted(_WALL_SETS))
def test_forward_matches_scalar_reference(walls):
    """forward (PathGeometry) against the scalar per-path reference at
    random parameter vectors of random scenes with one or two FEs, in both
    modes, to 1e-12 (angles compared through wrap); and both refuse a UE
    on an FE and a bounce point on either end of its path."""
    rng = np.random.default_rng(17)
    for n_fes in (1, 2):
        for _ in range(12):
            sc = Scenario(_WALL_SETS[walls],
                          tuple(_random_point(rng) for _ in range(n_fes)),
                          PROF)
            ue = _random_point(rng)
            ps = enumerate_paths(sc, ue)
            near = Point2(ue.x + float(rng.normal()), ue.y + float(rng.normal()))
            scat = tuple(Point2(s.x + float(rng.normal(0.0, 3.0)),
                                s.y + float(rng.normal(0.0, 3.0)))
                         for s in ps.true_scatterers())
            n = ps.n_paths
            for theta in (ParamVector(near, scat, Mode.NOREM),
                          ParamVector(near, (), Mode.REM)):
                h = forward(theta, ps, sc)
                want = ref.forward(theta, ps, sc)
                np.testing.assert_allclose(wrap(h[:2 * n] - want[:2 * n]), 0.0,
                                           rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(h[2 * n:], want[2 * n:],
                                           rtol=0.0, atol=1e-12)
            bad = [theta for fe in sc.fes
                   for theta in (ParamVector(fe, scat, Mode.NOREM),
                                 ParamVector(fe, (), Mode.REM))]
            for p in ps:
                if p.kind is PathKind.NLOS:
                    for end in (near, sc.fes[p.fe_index]):
                        moved = list(scat)
                        moved[p.scatterer_index] = end
                        bad.append(ParamVector(near, tuple(moved), Mode.NOREM))
            for theta in bad:
                with pytest.raises(DegenerateGeometry):
                    forward(theta, ps, sc)
                with pytest.raises(DegenerateGeometry):
                    ref.forward(theta, ps, sc)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_rem_is_a_restriction_of_norem(name):
    """The REM geometry at a UE is the NoREM one at [UE, true bounce
    points]: h and validity bit for bit, and the UE columns of the
    Jacobian too once -0 is folded into +0, along the preset track and at
    UEs moved off it (the bounce points stay those of the track point)."""
    sc = scenario_preset(name)
    rng = np.random.default_rng(3)
    for ue in trajectory_preset(name):
        ps = enumerate_paths(sc, ue)
        rem = PathGeometry(ps, sc, Mode.REM)
        norem = PathGeometry(ps, sc, Mode.NOREM)
        truth = ParamVector.truth_from_paths(ue, ps, Mode.NOREM).to_array()
        full = np.tile(truth, (8, 1))
        full[1:, :2] += rng.normal(0.0, 3.0, (7, 2))
        fe = sc.fes[ps[0].fe_index]
        full[-1, :2] = [fe.x, fe.y]  # a degenerate row
        h, J, ok = norem.h_jacobian_valid(full)
        h_r, J_r, ok_r = rem.h_jacobian_valid(full[:, :2])
        np.testing.assert_array_equal(ok_r, ok)
        assert list(ok) == [True] * 7 + [False]
        np.testing.assert_array_equal(_bits(h_r[ok]), _bits(h[ok]))
        np.testing.assert_array_equal(_bits(J_r[ok] + 0.0),
                                      _bits(J[ok][..., :2] + 0.0))


# ---------------------------------------------------------------------------
# noise profiles and covariance stacking
# ---------------------------------------------------------------------------

def test_preset_profiles_are_degrees_converted():
    p28 = noise_profile_preset("28GHz")
    assert p28.sigma_alpha_los == pytest.approx(math.radians(10.5))
    assert p28.sigma_beta_los == pytest.approx(math.radians(8.5))
    assert p28.sigma_d_los == 0.75
    assert p28.sigma_alpha_nlos == pytest.approx(math.radians(10.1))
    assert p28.sigma_beta_nlos == pytest.approx(math.radians(9.0))
    assert p28.sigma_d_nlos == 0.75
    p73 = noise_profile_preset("73GHz")
    assert p73.sigma_alpha_los == pytest.approx(math.radians(8.5))
    assert p73.sigma_beta_los == pytest.approx(math.radians(5.5))
    assert p73.sigma_alpha_nlos == pytest.approx(math.radians(6.0))
    assert p73.sigma_beta_nlos == pytest.approx(math.radians(7.0))


def test_profile_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        NoiseProfile.equal_angles(-1.0)
    with pytest.raises(ValueError):
        NoiseProfile.equal_angles(5.0, sigma_d=0.0)


def test_covariance_block_order():
    prof = NoiseProfile.from_degrees(1.0, 2.0, 0.1, 3.0, 4.0, 0.2)
    cov = covariance(prof, n_los=1, n_nlos=2)
    expect = np.array([math.radians(1.0) ** 2,
                       math.radians(3.0) ** 2, math.radians(3.0) ** 2,
                       math.radians(2.0) ** 2,
                       math.radians(4.0) ** 2, math.radians(4.0) ** 2,
                       0.1 ** 2, 0.2 ** 2, 0.2 ** 2])
    np.testing.assert_allclose(cov, expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synthesize_is_seed_deterministic():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    theta = ParamVector.truth_from_paths(Point2(8.0, 35.0), ps, Mode.NOREM)
    z1 = synthesize(theta, ps, CORNER, 42)
    z2 = synthesize(theta, ps, CORNER, 42)
    np.testing.assert_array_equal(z1.z, z2.z)
    z3 = synthesize(theta, ps, CORNER, 43)
    assert not np.array_equal(z1.z, z3.z)


def test_synthesize_noise_moments():
    """Empirical std of each measurement block matches its sigma."""
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    theta = ParamVector.truth_from_paths(Point2(8.0, 35.0), ps, Mode.NOREM)
    h = forward(theta, ps, CORNER)
    n_draw = 4000
    rows = np.empty((n_draw, h.size))
    for i in range(n_draw):
        rows[i] = synthesize(theta, ps, CORNER, i).z
    resid = rows - h
    resid[:, :6] = wrap(resid[:, :6])
    sig = np.sqrt(covariance(CORNER.noise_profile, ps.n_los, ps.n_nlos))
    # 4000 samples: std estimate good to ~2.5%
    np.testing.assert_allclose(resid.std(axis=0), sig, rtol=0.08)
    assert np.abs(resid.mean(axis=0)).max() < 4 * sig.max() / math.sqrt(n_draw)


def test_synthesized_angles_are_wrapped():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    theta = ParamVector.truth_from_paths(Point2(8.0, 35.0), ps, Mode.NOREM)
    for seed in range(50):
        z = synthesize(theta, ps, CORNER, seed)
        assert (z.alpha >= -math.pi).all() and (z.alpha < math.pi).all()
        assert (z.beta >= -math.pi).all() and (z.beta < math.pi).all()


def test_noiseless_observation_equals_forward():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    theta = ParamVector.truth_from_paths(Point2(8.0, 35.0), ps, Mode.NOREM)
    z = noiseless_observation(theta, ps, CORNER)
    h = forward(theta, ps, CORNER)
    n = ps.n_paths
    np.testing.assert_array_equal(np.concatenate([z.alpha, z.beta, z.dist]),
                                  np.concatenate([wrap(h[:n]), wrap(h[n:2*n]),
                                                  h[2*n:]]))
    np.testing.assert_array_equal(
        z.covariance_diag, covariance(CORNER.noise_profile, 1, 2))


# ---------------------------------------------------------------------------
# parameter vectors
# ---------------------------------------------------------------------------

def test_param_vector_array_round_trip():
    theta = ParamVector(Point2(1.0, 2.0),
                        (Point2(3.0, 4.0), Point2(5.0, 6.0)), Mode.NOREM)
    arr = theta.to_array()
    np.testing.assert_array_equal(arr, [1.0, 2.0, 3.0, 5.0, 4.0, 6.0])
    assert ParamVector.from_array(arr, Mode.NOREM) == theta


def test_rem_param_vector_has_no_scatterers():
    theta = ParamVector(Point2(1.0, 2.0), (), Mode.REM)
    assert theta.dim == 2
    with pytest.raises(ValueError):
        ParamVector(Point2(1.0, 2.0), (Point2(0.0, 0.0),), Mode.REM)


def test_observation_subset():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    theta = ParamVector.truth_from_paths(Point2(8.0, 35.0), ps, Mode.NOREM)
    z = synthesize(theta, ps, CORNER, 7)
    sub = z.subset([0, 2])
    assert sub.m == 6
    np.testing.assert_array_equal(sub.alpha, z.alpha[[0, 2]])
    np.testing.assert_array_equal(sub.dist, z.dist[[0, 2]])
    assert sub.paths.n_paths == 2
