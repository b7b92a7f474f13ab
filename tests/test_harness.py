"""Scenario presets, Monte Carlo drivers, sweeps, CDFs, and CSV output."""
import math

import numpy as np
import pytest

import mmloc.estimator as E
import mmloc.harness as H
from mmloc import (EXAMPLE_UES, SCENARIO_NAMES, AllTrialsFailed,
                   DegenerateGeometry, GapfConfig, GridSpec, McResult, Mode,
                   ParamVector, PathKind, Point2, RemMap, beamwidth_sweep,
                   build_rem_map, cdf_curve, crb_grid, enumerate_paths,
                   grid_preset, mc_rmse, noise_profile_preset,
                   rmse_from_estimates, scenario_preset, subset_indices,
                   synthesize, trajectory_preset, trial_seeds, write_cdf_csv,
                   write_field_csv, write_remmap_csv, write_sweep_csv)

LIGHT = GapfConfig(n_particles=16, n_iterations=6)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_scenario_presets_are_consistent():
    assert SCENARIO_NAMES == ("canyon-1fe", "canyon-2fe",
                              "corner-1fe", "corner-2fe")
    for name in SCENARIO_NAMES:
        sc = scenario_preset(name)
        assert sc.name == name
        assert len(sc.walls) == 2
        ue = EXAMPLE_UES[name]
        assert sc.ue_is_admissible(ue)
        enumerate_paths(sc, ue)  # must yield at least one usable path
    assert len(scenario_preset("canyon-2fe").fes) == 2
    assert len(scenario_preset("corner-1fe").fes) == 1
    with pytest.raises(KeyError):
        scenario_preset("atrium")


def test_scenario_preset_profiles():
    sc = scenario_preset("corner-1fe", profile="28GHz")
    assert sc.noise_profile == noise_profile_preset("28GHz")
    custom = noise_profile_preset("73GHz")
    assert scenario_preset("corner-1fe", profile=custom).noise_profile == custom


def test_grid_preset_covers_street():
    for name in SCENARIO_NAMES:
        g = grid_preset(name)
        xs, ys = g.axes()
        assert xs[0] == 0.5 and xs[-1] == 19.5
        assert ys[0] == 0.5 and ys[-1] == 49.5


def test_trajectory_presets():
    canyon = trajectory_preset("canyon-2fe", n_points=5)
    assert len(canyon) == 5
    assert canyon[0] == Point2(10.0, 5.0) and canyon[-1] == Point2(10.0, 45.0)
    corner = trajectory_preset("corner-2fe", n_points=3)
    assert corner[0] == Point2(5.0, 45.0) and corner[-1] == Point2(35.0, 5.0)
    sc = scenario_preset("corner-2fe")
    assert all(sc.ue_is_admissible(p) for p in corner)


def test_subset_indices():
    ps = enumerate_paths(scenario_preset("corner-2fe"), EXAMPLE_UES["corner-2fe"])
    assert subset_indices(ps, "all") == [0, 1, 2, 3, 4, 5]
    assert subset_indices(ps, "los") == [0, 1]
    assert subset_indices(ps, "nlos") == [2, 3, 4, 5]
    with pytest.raises(KeyError):
        subset_indices(ps, "reflected")


# ---------------------------------------------------------------------------
# batch error metric
# ---------------------------------------------------------------------------

def test_rmse_closed_forms():
    assert rmse_from_estimates(Point2(0.0, 0.0), [(3.0, 4.0)]) == 5.0
    got = rmse_from_estimates(Point2(0.0, 0.0), [(3.0, 4.0), (0.0, 0.0)])
    assert got == pytest.approx(math.sqrt(12.5))
    with pytest.raises(ValueError):
        rmse_from_estimates(Point2(0.0, 0.0), [])


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------

def test_mc_rmse_fields_and_determinism():
    sc = scenario_preset("corner-1fe")
    a = mc_rmse(sc, EXAMPLE_UES["corner-1fe"], Mode.REM, LIGHT,
                n_trials=6, seed=30)
    b = mc_rmse(sc, EXAMPLE_UES["corner-1fe"], Mode.REM, LIGHT,
                n_trials=6, seed=30)
    assert isinstance(a, McResult)
    assert a == b
    assert a.n_trials == 6 and a.failures == 0 and a.seed == 30
    assert 0.0 < a.rmse_crb < a.rmse_est * 50
    c = mc_rmse(sc, EXAMPLE_UES["corner-1fe"], Mode.REM, LIGHT,
                n_trials=6, seed=31)
    assert c.rmse_est != a.rmse_est


def test_mc_rmse_noiseless_collapses():
    sc = scenario_preset("corner-1fe")
    r = mc_rmse(sc, EXAMPLE_UES["corner-1fe"], Mode.NOREM, LIGHT,
                n_trials=2, seed=1, noiseless=True)
    assert r.rmse_est < 1e-6
    assert r.rmse_crb > 0.0  # the bound still reflects the noise profile


def test_mc_rmse_subset_and_workers():
    sc = scenario_preset("corner-1fe")
    ue = EXAMPLE_UES["corner-1fe"]
    for mode in (Mode.NOREM, Mode.REM):
        seq = mc_rmse(sc, ue, mode, LIGHT, n_trials=4, seed=7, subset="nlos")
        par = mc_rmse(sc, ue, mode, LIGHT, n_trials=4, seed=7,
                      subset="nlos", workers=2)
        assert seq == par  # worker count must not change the draw stream
        full = mc_rmse(sc, ue, mode, LIGHT, n_trials=4, seed=7)
        assert seq.rmse_crb > full.rmse_crb  # fewer paths, weaker bound


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_mc_rmse_does_not_depend_on_batching(monkeypatch, mode):
    """One batch of 6, batches of 4 and 2, six batches of one trial, and
    three per worker on two workers give the same bits."""
    sc = scenario_preset("corner-1fe")
    ue = EXAMPLE_UES["corner-1fe"]
    whole = mc_rmse(sc, ue, mode, LIGHT, n_trials=6, seed=9)
    assert whole == mc_rmse(sc, ue, mode, LIGHT, n_trials=6, seed=9,
                            workers=2)
    for trials_per_batch in (4, 1):
        monkeypatch.setattr(H, "_BATCH_ROWS",
                            trials_per_batch * LIGHT.n_particles)
        assert whole == mc_rmse(sc, ue, mode, LIGHT, n_trials=6, seed=9)


def test_mc_rmse_counts_failure_causes(monkeypatch):
    sc = scenario_preset("corner-1fe")
    ue = EXAMPLE_UES["corner-1fe"]
    grid, calls = E.grid_init, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise DegenerateGeometry("injected")
        return grid(*args, **kwargs)

    monkeypatch.setattr(E, "grid_init", failing)
    r = mc_rmse(sc, ue, Mode.NOREM, LIGHT, n_trials=5, seed=4)
    assert (r.n_trials, r.failures) == (5, 1)
    assert r.failure_causes == {"DegenerateGeometry": 1}
    assert math.isfinite(r.rmse_est)
    with pytest.raises(ValueError):
        McResult(1.0, 1.0, n_trials=3, failures=2, seed=0,
                 failure_causes={"DegenerateGeometry": 1})


def test_mc_result_validation():
    with pytest.raises(ValueError):
        McResult(1.0, 1.0, n_trials=2, failures=3, seed=0)


# ---------------------------------------------------------------------------
# beamwidth sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep():
    sc = scenario_preset("corner-1fe")
    sig = [math.radians(2.0), math.radians(20.0)]
    return beamwidth_sweep(sc, Point2(8.0, 35.0), sig,
                           subsets=("all", "nlos"), n_trials=0)


def test_sweep_layout(small_sweep):
    sw = small_sweep
    np.testing.assert_allclose(sw.sigma_angle_values,
                               [math.radians(2.0), math.radians(20.0)])
    for subset in ("all", "nlos"):
        for mode in ("NoREM", "REM"):
            curve = sw.crb[(subset, mode)]
            assert curve.shape == (2,)
            assert np.isfinite(curve).all()
        assert np.isfinite(sw.distance_only[subset])
    assert sw.mc == {}


def test_sweep_orderings(small_sweep):
    sw = small_sweep
    for subset in ("all", "nlos"):
        norem = sw.crb[(subset, "NoREM")]
        rem = sw.crb[(subset, "REM")]
        assert (np.diff(norem) > 0.0).all()  # wider beams hurt
        assert (rem <= norem + 1e-12).all()
        # known bounce points bound the error above the ranging-only floor
        assert (rem <= sw.distance_only[subset] + 1e-9).all()


def test_sweep_distance_only_follows_sigma_d(small_sweep):
    # the floor takes the swept sigma_d, not the scenario's own profile;
    # doubling sigma_d scales every step by a power of two, so exactly 2x
    sc = scenario_preset("corner-1fe", profile="28GHz")
    sw = beamwidth_sweep(sc, Point2(8.0, 35.0), [math.radians(5.0)],
                         subsets=("all", "nlos"), n_trials=0, sigma_d=1.5)
    for subset in ("all", "nlos"):
        assert sw.distance_only[subset] == \
            2.0 * small_sweep.distance_only[subset]


def test_sweep_los_distance_only_is_undefined():
    sc = scenario_preset("corner-1fe")
    sw = beamwidth_sweep(sc, Point2(8.0, 35.0), [math.radians(5.0)],
                         subsets=("los",), n_trials=0)
    assert math.isnan(sw.distance_only["los"])  # one range is rank-1
    assert np.isfinite(sw.crb[("los", "NoREM")]).all()


# ---------------------------------------------------------------------------
# CDF and field products
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coarse_cdf():
    sc = scenario_preset("canyon-2fe")
    grid = GridSpec(2.0, 18.0, 4.0, 48.0, 4.0)
    return cdf_curve(sc, grid, [noise_profile_preset("73GHz")],
                     [Mode.NOREM, Mode.REM])


def test_cdf_curves_are_proper(coarse_cdf):
    for key, curve in coarse_cdf.items():
        label, mode = key
        assert label == "73GHz" and mode in ("NoREM", "REM")
        vals, probs = curve[:, 0], curve[:, 1]
        assert (np.diff(vals) >= 0.0).all()
        n = vals.size
        np.testing.assert_allclose(probs, np.arange(1, n + 1) / n)


def test_cdf_known_bounce_dominates(coarse_cdf):
    norem = coarse_cdf[("73GHz", "NoREM")][:, 0]
    rem = coarse_cdf[("73GHz", "REM")][:, 0]
    assert norem.size == rem.size
    assert (rem <= norem + 1e-12).all()


# ---------------------------------------------------------------------------
# reflector mapping
# ---------------------------------------------------------------------------

def test_build_rem_map_recovers_walls():
    sc = scenario_preset("canyon-2fe")
    traj = trajectory_preset("canyon-2fe", n_points=6)
    rem = build_rem_map(sc, traj, GapfConfig(), seed=5)
    # every trajectory point contributes one entry per reflection
    assert len(rem.estimated_scatterers) == 12
    assert rem.failures == ()
    dist = [min(abs(s.x - 0.0), abs(s.x - 20.0))
            for s in rem.estimated_scatterers]
    assert float(np.mean(dist)) < 1.5
    for (ue, path_idx), (alpha, beta, d) in zip(rem.source, rem.parameters):
        assert ue in traj
        assert d > 0.0 and -math.pi <= alpha < math.pi


def test_build_rem_map_counts_failure_causes(monkeypatch):
    sc = scenario_preset("corner-2fe")
    traj = trajectory_preset("corner-2fe", n_points=4)
    grid, calls = E.grid_init, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise DegenerateGeometry("injected")
        return grid(*args, **kwargs)

    monkeypatch.setattr(E, "grid_init", failing)
    rem = build_rem_map(sc, traj, LIGHT, seed=5)
    assert rem.failures == (1,)
    assert rem.failure_causes == {"DegenerateGeometry": 1}
    assert {ue for ue, _ in rem.source} == {traj[0], traj[2], traj[3]}
    with pytest.raises(ValueError):
        RemMap([], [], [], failures=(0, 1),
               failure_causes={"DegenerateGeometry": 1})


def test_build_rem_map_does_not_depend_on_workers_or_chunks(monkeypatch):
    """One chunk, two workers, and one chunk per point give equal maps."""
    sc = scenario_preset("corner-2fe")
    traj = trajectory_preset("corner-2fe", n_points=4)
    whole = build_rem_map(sc, traj, LIGHT, seed=3)
    assert len(whole.estimated_scatterers) == 16  # 4 reflections a point
    assert whole == build_rem_map(sc, traj, LIGHT, seed=3, workers=2)
    monkeypatch.setattr(H, "_BATCH_ROWS", LIGHT.n_particles)
    assert whole == build_rem_map(sc, traj, LIGHT, seed=3)
    assert whole == build_rem_map(sc, traj, LIGHT, seed=3, workers=2)


def test_build_rem_map_drops_a_behind_wall_point_alone():
    """A point behind a wall fails by itself; every other point's entries
    are those of its own synthesize-and-estimate run at its index."""
    sc = scenario_preset("corner-2fe")
    good = trajectory_preset("corner-2fe", n_points=3)
    traj = [good[0], Point2(-1.0, 5.0), good[1], good[2]]
    rem = build_rem_map(sc, traj, LIGHT, seed=5)
    assert rem.failures == (1,)
    assert rem.failure_causes == {"DegenerateGeometry": 1}
    want = []
    for i in (0, 2, 3):
        paths = enumerate_paths(sc, traj[i])
        truth = ParamVector.truth_from_paths(traj[i], paths, Mode.NOREM)
        synth_ss, est_seed = trial_seeds(5, i)
        z = synthesize(truth, paths, sc, np.random.default_rng(synth_ss))
        rep = E.estimate(z, sc, Mode.NOREM, LIGHT, [est_seed])
        for j, path in enumerate(paths):
            if path.kind is PathKind.NLOS:
                want.append((rep.theta_hat.scatterers[path.scatterer_index],
                             (traj[i], j), (float(z.alpha[j]),
                                            float(z.beta[j]),
                                            float(z.dist[j]))))
    assert list(zip(rem.estimated_scatterers, rem.source,
                    rem.parameters)) == want


def test_build_rem_map_with_no_usable_point_raises():
    sc = scenario_preset("corner-2fe")
    behind_walls = [Point2(-1.0, 5.0), Point2(5.0, -2.0)]
    with pytest.raises(AllTrialsFailed, match="DegenerateGeometry"):
        build_rem_map(sc, behind_walls, GapfConfig(), seed=0)


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def _read_rows(path):
    lines = path.read_text().strip().split("\n")
    head = lines[0].split(",")
    return head, [ln.split(",") for ln in lines[1:]]


def test_sweep_csv_round_trip(tmp_path, small_sweep):
    out = tmp_path / "sweep.csv"
    write_sweep_csv(out, small_sweep)
    head, rows = _read_rows(out)
    assert head == ["sigma_deg", "curve", "rmse"]
    curves = {r[1] for r in rows}
    assert curves == {"all:NoREM:crb", "all:REM:crb", "nlos:NoREM:crb",
                      "nlos:REM:crb", "all:distance-only",
                      "nlos:distance-only"}
    got = {(r[0], r[1]): float(r[2]) for r in rows}
    key = (format(2.0, ".12g"), "all:NoREM:crb")
    assert got[key] == pytest.approx(small_sweep.crb[("all", "NoREM")][0],
                                     rel=1e-11)
    # byte-stable output
    first = out.read_bytes()
    write_sweep_csv(out, small_sweep)
    assert out.read_bytes() == first


def test_cdf_csv_round_trip(tmp_path, coarse_cdf):
    out = tmp_path / "cdf.csv"
    write_cdf_csv(out, coarse_cdf)
    head, rows = _read_rows(out)
    assert head == ["curve", "rmse", "prob"]
    n = coarse_cdf[("73GHz", "NoREM")].shape[0]
    assert len(rows) == 2 * n
    back = [float(r[1]) for r in rows if r[0] == "73GHz:NoREM"]
    np.testing.assert_allclose(back, coarse_cdf[("73GHz", "NoREM")][:, 0],
                               rtol=1e-11)


def test_field_csv_round_trip(tmp_path):
    sc = scenario_preset("corner-1fe")
    grid = GridSpec(2.0, 18.0, 4.0, 48.0, 8.0)
    field = crb_grid(sc, grid, Mode.REM)
    out = tmp_path / "field.csv"
    write_field_csv(out, field)
    head, rows = _read_rows(out)
    assert head == ["x", "y", "value"]
    xs, ys = grid.axes()
    assert len(rows) == xs.size * ys.size
    for row in rows:
        x, y = float(row[0]), float(row[1])
        v = field.values[int(np.where(xs == x)[0][0]),
                         int(np.where(ys == y)[0][0])]
        if row[2] == "nan":
            assert math.isnan(v)
        else:
            assert float(row[2]) == pytest.approx(v, rel=1e-11)


def test_remmap_csv(tmp_path):
    sc = scenario_preset("canyon-2fe")
    traj = trajectory_preset("canyon-2fe", n_points=3)
    rem = build_rem_map(sc, traj, LIGHT, seed=2)
    out = tmp_path / "remmap.csv"
    write_remmap_csv(out, rem)
    head, rows = _read_rows(out)
    assert head == ["x", "y", "ue_x", "ue_y", "alpha", "beta", "d"]
    assert len(rows) == len(rem.estimated_scatterers)
    assert float(rows[0][0]) == pytest.approx(rem.estimated_scatterers[0].x,
                                              rel=1e-11)
