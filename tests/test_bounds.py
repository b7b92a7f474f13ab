"""Fisher information and position error bounds."""
import math
from dataclasses import replace

import numpy as np
import pytest

from mmloc import (CrbField, DegenerateGeometry, GridSpec, Mode,
                   NoiseProfile, ParamVector, Point2, ReflectiveSide,
                   Scenario, SingularFisher, Wall, WallAxis, crb_grid,
                   enumerate_paths, fisher, noise_profile_preset, rmse_crb,
                   rmse_crb_distance_only)

PROF73 = noise_profile_preset("73GHz")
PROF28 = noise_profile_preset("28GHz")

CORNER = Scenario(
    (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
     Wall(WallAxis.HORIZONTAL, 0.0, ReflectiveSide.POSITIVE)),
    (Point2(18.0, 10.0),), PROF73, name="corner")
CORNER28 = replace(CORNER, noise_profile=PROF28)

UE = Point2(8.0, 35.0)


# ---------------------------------------------------------------------------
# hand-checked single-path bound
# ---------------------------------------------------------------------------

def _single_los_setup():
    # fe at origin, ue 10 m east, unit range noise, 0.1 rad angle noise:
    # information is diag(1, 2) so the bound is sqrt(1 + 1/2)
    prof = NoiseProfile.from_degrees(
        math.degrees(0.1), math.degrees(0.1), 1.0,
        math.degrees(0.1), math.degrees(0.1), 1.0)
    sc = Scenario((Wall(WallAxis.HORIZONTAL, -50.0, ReflectiveSide.POSITIVE),),
                  (Point2(0.0, 0.0),), prof)
    ue = Point2(10.0, 0.0)
    return sc, enumerate_paths(sc, ue).subset([0]), ue


def test_hand_fisher_single_los():
    sc, ps, ue = _single_los_setup()
    info = fisher(ue, ps, sc, Mode.NOREM)
    np.testing.assert_allclose(info, [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)


def test_hand_rmse_single_los():
    sc, ps, ue = _single_los_setup()
    assert rmse_crb(ue, ps, sc, Mode.NOREM) == pytest.approx(
        math.sqrt(1.5), abs=1e-9)


def test_hand_distance_only_two_los():
    # orthogonal unit range directions: bound is sigma_d * sqrt(2)
    sc = Scenario((Wall(WallAxis.VERTICAL, -50.0, ReflectiveSide.POSITIVE),),
                  (Point2(0.0, 0.0), Point2(10.0, 10.0)), PROF73)
    ue = Point2(0.0, 10.0)
    ps = enumerate_paths(sc, ue).subset([0, 1])
    got = rmse_crb_distance_only(ue, ps, sc)
    assert got == pytest.approx(0.75 * math.sqrt(2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_fisher_symmetric_positive_definite(mode):
    ps = enumerate_paths(CORNER, UE)
    dim = ParamVector.truth_from_paths(UE, ps, mode).dim
    info = fisher(UE, ps, CORNER, mode)
    np.testing.assert_array_equal(info, info.T)
    assert info.shape == (dim, dim)
    assert np.linalg.eigvalsh(info).min() > 0.0


def test_rem_never_worse_than_norem():
    for ue in [Point2(8.0, 35.0), Point2(15.0, 15.0), Point2(3.0, 44.0)]:
        ps = enumerate_paths(CORNER, ue)
        norem = rmse_crb(ue, ps, CORNER, Mode.NOREM)
        rem = rmse_crb(ue, ps, CORNER, Mode.REM)
        assert rem <= norem + 1e-12


def test_narrower_beams_help():
    ps = enumerate_paths(CORNER, UE)
    for mode in (Mode.NOREM, Mode.REM):
        assert (rmse_crb(UE, ps, CORNER, mode)
                <= rmse_crb(UE, ps, CORNER28, mode))


def test_single_nlos_identifiable_only_with_known_bounce():
    ps = enumerate_paths(CORNER, UE)
    one = ps.subset([1])
    with pytest.raises(SingularFisher):
        rmse_crb(UE, one, CORNER, Mode.NOREM)
    assert rmse_crb(UE, one, CORNER, Mode.REM) > 0.0


def test_rem_bound_approaches_distance_only_floor():
    """With huge angle noise the known-bounce bound collapses onto the
    distance-only bound."""
    ps = enumerate_paths(CORNER, UE)
    wide = NoiseProfile.equal_angles(1000.0, sigma_d=0.75)
    sc = replace(CORNER, noise_profile=wide)
    rem = rmse_crb(UE, ps, sc, Mode.REM)
    floor = rmse_crb_distance_only(UE, ps, sc)
    assert rem <= floor
    assert abs(rem - floor) / floor < 1e-3


def test_path_subsets_order_information():
    # more paths cannot raise the bound; at this geometry the LOS path
    # alone also beats the two unknown-bounce reflections
    ps = enumerate_paths(CORNER, UE)
    full = rmse_crb(UE, ps, CORNER, Mode.NOREM)
    los_rmse = rmse_crb(UE, ps.subset([0]), CORNER, Mode.NOREM)
    nlos_rmse = rmse_crb(UE, ps.subset([1, 2]), CORNER, Mode.NOREM)
    assert full <= los_rmse <= nlos_rmse


def test_degenerate_theta_raises():
    ps = enumerate_paths(CORNER, UE)
    with pytest.raises(DegenerateGeometry):
        fisher(Point2(18.0, 10.0), ps, CORNER, Mode.REM)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_spec_axes():
    g = GridSpec(0.5, 19.5, 0.5, 49.5, 1.0)
    xs, ys = g.axes()
    assert xs[0] == 0.5 and xs[-1] == 19.5 and xs.size == 20
    assert ys[0] == 0.5 and ys[-1] == 49.5 and ys.size == 50
    np.testing.assert_allclose(np.diff(xs), 1.0)
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, -1.0)


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_crb_grid_shapes_and_masking(mode):
    fe = Point2(10.0, 20.0)
    sc = Scenario((Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),),
                  (fe,), PROF73, name="strip")
    grid = GridSpec(8.0, 12.0, 18.0, 22.0, 0.5)
    field = crb_grid(sc, grid, mode)
    assert isinstance(field, CrbField)
    xs, ys = grid.axes()
    assert field.values.shape == (xs.size, ys.size)
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            v = field.values[ix, iy]
            near_fe = math.hypot(x - fe.x, y - fe.y) < 0.5
            if near_fe:
                assert math.isnan(v)
            else:
                assert math.isnan(v) or v > 0.0
    assert np.isfinite(field.valid_values()).all()
    assert field.valid_values().size > 0.5 * field.values.size


def test_crb_grid_rem_dominates_pointwise():
    sc = Scenario((Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),),
                  (Point2(8.0, 2.0),), PROF73, name="strip")
    grid = GridSpec(2.0, 14.0, 4.0, 16.0, 2.0)
    a = crb_grid(sc, grid, Mode.NOREM).values
    b = crb_grid(sc, grid, Mode.REM).values
    both = np.isfinite(a) & np.isfinite(b)
    assert both.any()
    assert (b[both] <= a[both] + 1e-12).all()


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_crb_grid_is_rmse_crb_per_node_with_the_scenario_noise(mode):
    grid = GridSpec(2.0, 14.0, 24.0, 36.0, 4.0)
    field = crb_grid(CORNER28, grid, mode).values
    xs, ys = grid.axes()
    want = np.full_like(field, np.nan)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            ue = Point2(float(x), float(y))
            try:
                want[i, j] = rmse_crb(ue, enumerate_paths(CORNER28, ue),
                                      CORNER28, mode)
            except (DegenerateGeometry, SingularFisher):
                pass
    np.testing.assert_array_equal(field, want)
    at73 = crb_grid(CORNER, grid, mode).values
    both = np.isfinite(field) & np.isfinite(at73)
    assert both.any()
    assert (field[both] > at73[both]).all()  # wider 28 GHz beams
