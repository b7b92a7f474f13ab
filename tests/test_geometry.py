"""Scene primitives: walls, mirror images, specular bounce points, and
path enumeration."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmloc import (DegenerateGeometry, Mode, ParamVector, PathKind, Point2,
                   ReflectiveSide, Scenario, Wall, WallAxis, enumerate_paths,
                   forward, image_reflect, noise_profile_preset,
                   scenario_preset, specular_point, trajectory_preset)

PROF = noise_profile_preset("73GHz")

CANYON = Scenario(
    (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
     Wall(WallAxis.VERTICAL, 20.0, ReflectiveSide.NEGATIVE)),
    (Point2(-1.0, 2.0), Point2(21.0, 48.0)), PROF, name="canyon")

CORNER = Scenario(
    (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
     Wall(WallAxis.HORIZONTAL, 0.0, ReflectiveSide.POSITIVE)),
    (Point2(18.0, 10.0),), PROF, name="corner")


# ---------------------------------------------------------------------------
# points and walls
# ---------------------------------------------------------------------------

def test_point_validation_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, float("inf"))


def test_point_distance():
    assert Point2(0.0, 0.0).distance_to(Point2(3.0, 4.0)) == 5.0


def test_wall_reflective_side_is_strict():
    w = Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE)
    assert w.is_reflective_for(Point2(0.5, 1.0))
    assert not w.is_reflective_for(Point2(-0.5, 1.0))
    assert not w.is_reflective_for(Point2(0.0, 1.0))  # on the wall


def test_scenario_requires_an_fe():
    with pytest.raises(ValueError):
        Scenario((Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),),
                 (), PROF)


def test_scenario_rejects_duplicate_walls():
    w = Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE)
    with pytest.raises(ValueError):
        Scenario((w, w), (Point2(5.0, 5.0),), PROF)


# ---------------------------------------------------------------------------
# mirror images
# ---------------------------------------------------------------------------

def test_image_reflect_oracle():
    w = Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE)
    assert image_reflect(Point2(3.0, 4.0), w) == Point2(-3.0, 4.0)
    h = Wall(WallAxis.HORIZONTAL, 2.0, ReflectiveSide.POSITIVE)
    assert image_reflect(Point2(3.0, 4.0), h) == Point2(3.0, 0.0)


@given(x=st.floats(-50, 50), y=st.floats(-50, 50),
       off=st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_image_reflect_is_an_involution(x, y, off):
    w = Wall(WallAxis.HORIZONTAL, off, ReflectiveSide.NEGATIVE)
    p = Point2(x, y)
    q = image_reflect(image_reflect(p, w), w)
    assert math.isclose(q.x, p.x, abs_tol=1e-9)
    assert math.isclose(q.y, p.y, abs_tol=1e-9)


def test_image_point_on_wall_is_fixed():
    w = Wall(WallAxis.VERTICAL, 7.0, ReflectiveSide.POSITIVE)
    assert image_reflect(Point2(7.0, 3.0), w) == Point2(7.0, 3.0)


# ---------------------------------------------------------------------------
# specular bounce points
# ---------------------------------------------------------------------------

def test_specular_point_frozen_oracles():
    # fe (18,10), ue (8,35): intersection of the image segment with each
    # wall, solved by hand from similar triangles
    fe, ue = Point2(18.0, 10.0), Point2(8.0, 35.0)
    s1 = specular_point(fe, ue, CORNER.walls[0])  # x = 0
    assert s1 is not None
    assert abs(s1.x) == 0.0
    assert s1.y == pytest.approx(355.0 / 13.0, abs=1e-12)
    s2 = specular_point(fe, ue, CORNER.walls[1])  # y = 0
    assert s2 is not None
    assert s2.y == 0.0
    assert s2.x == pytest.approx(142.0 / 9.0, abs=1e-12)


def test_specular_path_length_equals_image_distance():
    # the bounce point is where |fe-s| + |s-ue| equals |image(fe) - ue|
    fe, ue = Point2(18.0, 10.0), Point2(8.0, 35.0)
    for wall in CORNER.walls:
        s = specular_point(fe, ue, wall)
        img = image_reflect(fe, wall)
        total = fe.distance_to(s) + s.distance_to(ue)
        assert total == pytest.approx(img.distance_to(ue), abs=1e-12)


def test_specular_point_requires_both_on_reflective_side():
    w = Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE)
    assert specular_point(Point2(-1.0, 0.0), Point2(5.0, 5.0), w) is None
    assert specular_point(Point2(1.0, 0.0), Point2(-5.0, 5.0), w) is None
    assert specular_point(Point2(0.0, 0.0), Point2(5.0, 5.0), w) is None


def test_specular_point_coincident_endpoints_raises():
    w = Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE)
    with pytest.raises(DegenerateGeometry):
        specular_point(Point2(3.0, 3.0), Point2(3.0, 3.0), w)


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------

def test_canyon_single_fe_paths():
    sc = Scenario(CANYON.walls, (Point2(-1.0, 2.0),), PROF)
    ps = enumerate_paths(sc, Point2(10.0, 40.0))
    # FE sits behind the left wall, so only the right wall reflects
    assert (ps.n_los, ps.n_nlos) == (1, 1)
    assert ps[0].kind is PathKind.LOS
    assert ps[1].kind is PathKind.NLOS
    assert ps[1].wall_index == 1


def test_corner_two_fe_paths_and_ordering():
    sc = Scenario(CORNER.walls, (Point2(18.0, 10.0), Point2(18.0, 48.0)),
                  PROF)
    ps = enumerate_paths(sc, Point2(8.0, 35.0))
    assert (ps.n_los, ps.n_nlos) == (2, 4)
    kinds = [p.kind for p in ps]
    assert kinds == [PathKind.LOS] * 2 + [PathKind.NLOS] * 4
    # NLOS ordered by (fe, wall)
    assert [(p.fe_index, p.wall_index) for p in ps][2:] == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    # bounce point k is that of the k-th NLOS path
    assert ps.true_scatterers() == tuple(p.true_scatterer for p in ps[2:])


def test_true_scatterers_match_specular_points():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    scats = ps.true_scatterers()
    assert len(scats) == ps.n_nlos
    s = specular_point(Point2(18.0, 10.0), Point2(8.0, 35.0),
                       CORNER.walls[0])
    assert scats[0].x == pytest.approx(s.x, abs=1e-12)
    assert scats[0].y == pytest.approx(s.y, abs=1e-12)


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_subset_paths_keep_their_own_bounce_points(mode):
    """Every non-empty subset of the six corner-2fe paths: the forward
    model at the subset's truth equals the full set's entries for those
    paths, bit for bit, so each NLOS path meets its own bounce point."""
    sc = scenario_preset("corner-2fe")
    ue = trajectory_preset("corner-2fe")[0]
    ps = enumerate_paths(sc, ue)
    n = ps.n_paths
    assert n == 6
    full = forward(ParamVector.truth_from_paths(ue, ps, mode), ps, sc)
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            sub = ps.subset(idx)
            h = forward(ParamVector.truth_from_paths(ue, sub, mode), sub, sc)
            keep = [i + b for b in (0, n, 2 * n) for i in idx]
            assert h.tobytes() == full[keep].tobytes()


def test_subset_is_order_insensitive():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    assert ps.subset([1, 0]) == ps.subset([0, 1])


def test_pathset_rejects_nlos_before_los():
    ps = enumerate_paths(CORNER, Point2(8.0, 35.0))
    with pytest.raises(ValueError):
        type(ps)((ps[1], ps[0]))


def test_inadmissible_ue_raises():
    with pytest.raises(DegenerateGeometry):
        enumerate_paths(CORNER, Point2(-1.0, 5.0))
    assert not CORNER.ue_is_admissible(Point2(-1.0, 5.0))
    assert CORNER.ue_is_admissible(Point2(8.0, 35.0))


def test_ue_at_fe_raises():
    with pytest.raises(DegenerateGeometry):
        enumerate_paths(CORNER, Point2(18.0, 10.0))
