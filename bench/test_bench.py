"""Tests of the benchmark itself: the reference against hand and
finite-difference values, each workload's check against one perturbed
output, the tracer, and the refusal to run without the package source.

    python3 -m pytest bench -q
"""
import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as R  # noqa: E402
import workloads as W  # noqa: E402


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

def test_reference_hand_computed_single_direct_path():
    """fe (0,0), ue (10,0), sigma_d 1 m, sigma_angle 0.1 rad: Fisher
    diag(1, 2), so the bound is sqrt(1.5) with or without a map."""
    deg = math.degrees(0.1)
    scene = ((("y", -50.0, 1.0),), ((0.0, 0.0),))
    norem, rem = R.position_bounds(scene, (deg, deg, 1.0, deg, deg, 1.0),
                                   [10.0, 0.0], ((0, None),))
    assert abs(norem[0] - math.sqrt(1.5)) < 1e-12
    assert abs(rem[0] - math.sqrt(1.5)) < 1e-12


def test_reference_jacobian_matches_central_differences():
    rng = np.random.default_rng(3)
    scene = R.SCENES["corner-2fe"]
    for _ in range(20):
        ue = rng.uniform([1.0, 1.0], [19.0, 49.0])[None, :]
        structure = R.path_structure(scene, ue[0])
        walls, fes = scene
        b = np.array([R.bounce_point(fes[f], walls[w], ue[0])
                      for f, w in structure if w is not None])[None]
        b = b + rng.uniform(-0.5, 0.5, b.shape)
        _, J, _ = R.model(scene, structure, ue, b)
        theta = np.concatenate([ue[0], b[0].ravel()])
        step = 1e-6
        for k in range(theta.size):
            hi, lo = theta.copy(), theta.copy()
            hi[k] += step
            lo[k] -= step
            h_hi = R.model(scene, structure, hi[None, :2],
                           hi[2:].reshape(1, -1, 2))[0]
            h_lo = R.model(scene, structure, lo[None, :2],
                           lo[2:].reshape(1, -1, 2))[0]
            fd = (h_hi - h_lo)[0] / (2 * step)
            np.testing.assert_allclose(J[0, :, k], fd, rtol=1e-5,
                                       atol=1e-7)


def test_reference_bounce_point_is_on_the_mirror_line():
    """The path through the bounce point is as long as the straight line
    from the FE's mirror image to the UE, and the point lies on the wall."""
    rng = np.random.default_rng(5)
    fe = (18.0, 48.0)
    for wall in R.SCENES["corner-2fe"][0]:
        ue = rng.uniform([1.0, 1.0], [19.0, 49.0], (50, 2))
        s = R.bounce_point(fe, wall, ue)
        image = np.array(fe)
        image[0 if wall[0] == "x" else 1] *= -1.0  # both walls pass 0
        via = np.hypot(*(s - ue).T) + np.hypot(*(s - fe).T)
        np.testing.assert_allclose(via, np.hypot(*(image - ue).T),
                                   rtol=1e-12)
        np.testing.assert_allclose(R.wall_distance(wall, s), 0.0, atol=1e-12)


def test_reference_node_rule():
    scene = R.SCENES["corner-2fe"]
    xs, ys = np.array([-1.0, 0.0, 1.0, 18.0, 18.3]), np.array([0.0, 10.0])
    skip = R.excluded_nodes(scene, xs, ys)
    assert skip[:2].all()            # behind and on the x = 0 wall
    assert skip[:, 0].all()          # on the y = 0 wall
    assert skip[3, 1] and skip[4, 1]  # at, and 0.3 m from, the FE
    assert not skip[2, 1]


def test_reference_matches_the_criterion_studies():
    """Bounds at the study UE that the package's own gate pins down:
    the two-reflection bound exceeds the all-path one, REM <= NoREM."""
    scene = R.SCENES["corner-1fe"]
    norem, rem = R.position_bounds(scene, R.PROFILES["73GHz"], W.UE)
    pair, _ = R.position_bounds(scene, R.PROFILES["73GHz"], W.UE,
                                ((0, 0), (0, 1)))
    assert rem[0] <= norem[0] < pair[0]


# ---------------------------------------------------------------------------
# workload checks: clean outputs pass, one perturbed value fails
# ---------------------------------------------------------------------------

def _one_round(wl, tmp_path, seed=1):
    paths = W.write_configs(wl, str(tmp_path))
    records = []
    for command, config in wl.calls():
        code, _ = W.cli_call([command, "--config", paths[config],
                              "--seed", str(seed)])
        records.append(wl.read(command, config, str(tmp_path), code))
    return [records]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return {name: _one_round(wl, tmp_path_factory.mktemp(name))
            for name, wl in W.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_clean_outputs_pass(outputs, name):
    errs, est = W.WORKLOADS[name].check(outputs[name])
    assert errs == []
    assert math.isfinite(est) and est > 0.0


def _fails(name, rounds):
    errs, _ = W.WORKLOADS[name].check(rounds)
    return bool(errs)


@pytest.mark.parametrize("name", ["mc-los", "mc-nlos-pair"])
def test_mc_check_catches_one_bad_value(outputs, name):
    rounds = copy.deepcopy(outputs[name])
    rounds[0][0]["results"]["NoREM"]["rmse_crb"] *= 1 + 1e-5
    assert _fails(name, rounds)
    rounds = copy.deepcopy(outputs[name])
    rounds[0][0]["results"]["NoREM"]["rmse_est"] *= 5.0
    assert _fails(name, rounds)


def test_remmap_check_catches_one_bad_value(outputs):
    rows = outputs["remmap-corner"][0][0]["rows"]
    # first entry of the first point reflects off the x = 0 wall
    for col, value in ((0, 6.0), (2, rows[0, 2] + 1.0)):
        rounds = copy.deepcopy(outputs["remmap-corner"])
        rounds[0][0]["rows"][0, col] = value
        assert _fails("remmap-corner", rounds)
    rounds = copy.deepcopy(outputs["remmap-corner"])
    rounds[0][0]["n_entries"] -= 1
    assert _fails("remmap-corner", rounds)


def test_bound_grid_check_catches_one_bad_value(outputs):
    def perturbed(edit):
        rounds = copy.deepcopy(outputs["bound-grid"])
        edit(rounds[0])
        return rounds

    def cdf_value(recs):
        recs[0]["curves"]["73GHz:REM"][500, 0] *= 1 + 1e-5

    def field_nan(recs):
        rows = recs[-1]["fields"]["NoREM"]
        rows[np.flatnonzero(np.isfinite(rows[:, 2]))[0], 2] = np.nan

    def field_value(recs):
        rows = recs[-1]["fields"]["REM"]
        rows[np.flatnonzero(np.isfinite(rows[:, 2]))[7], 2] *= 1 + 1e-5

    def negative_delta(recs):
        rows = recs[-1]["fields"]["delta"]
        rows[np.flatnonzero(np.isfinite(rows[:, 2]))[3], 2] = -1e-6

    for edit in (cdf_value, field_nan, field_value, negative_delta):
        assert _fails("bound-grid", perturbed(edit)), edit.__name__


def test_ratio_band_narrows_with_trials():
    lo_small, hi_small = W.ratio_band(16)
    lo_big, hi_big = W.ratio_band(1600)
    assert lo_small < lo_big < 0.9 and 1.15 < hi_big < hi_small


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

# (workload, config, config changes that keep the call small, span name ->
# number of spans expected, (span name, work each span must report))
TRACED_CALLS = [
    ("bound-grid", "field", {},
     {"cli.main": 1, "bounds.crb_grid": 2},
     ("bounds.crb_grid", 23 * 53)),
    ("mc-los", "mc", {"experiment": {"n_trials": 1, "subset": "all"}},
     {"harness.mc_rmse": 2, "estimator.estimate": 2,
      "estimator.grid_init_los": 1, "estimator.grid_init_rem": 1,
      "estimator.grid_init_joint": 0},
     ("harness.mc_rmse", 1)),
    ("mc-nlos-pair", "mc", {"experiment": {"n_trials": 1, "subset": "nlos"}},
     {"harness.mc_rmse": 1, "estimator.grid_init_joint": 1,
      "estimator.grid_init_los": 0},
     ("harness.mc_rmse", 1)),
    ("remmap-corner", "remmap", {"experiment": {"n_points": 3}},
     {"harness.build_rem_map": 1, "estimator.estimate": 3,
      "estimator.grid_init_los": 3},
     ("harness.build_rem_map", 3)),
]


@pytest.mark.parametrize("name, config, edit, counts, work", TRACED_CALLS,
                         ids=[c[0] for c in TRACED_CALLS])
def test_tracer_records_and_restores(tmp_path, name, config, edit, counts,
                                     work):
    import mmloc.bounds
    import mmloc.cli
    import tracing
    import yaml

    wl = W.WORKLOADS[name]
    path = W.write_configs(wl, str(tmp_path))[config]
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    with open(path, "w") as fh:
        yaml.safe_dump({**cfg, **edit}, fh)
    command = dict((c, cmd) for cmd, c in wl.calls())[config]

    before = mmloc.bounds.rmse_crb
    t = tracing.Tracer()
    with t.installed():
        assert mmloc.bounds.rmse_crb is not before
        code, _ = W.cli_call([command, "--config", path, "--seed", "1"])
    assert code == 0
    assert mmloc.bounds.rmse_crb is before

    names = [s[0] for s in t.spans]
    assert {k: names.count(k) for k in counts} == counts
    assert [s[5] for s in t.spans if s[0] == work[0]] == \
        [work[1]] * counts[work[0]]
    top = [s for s in t.spans if s[3] == -1]
    assert [s[0] for s in top] == ["cli.main"]
    selfs = tracing.self_times(t.spans)
    assert min(selfs) > -1e-9
    assert abs(sum(selfs) - (top[0][2] - top[0][1])) < 1e-6
    m = tracing.layer_metrics(t.spans, len(t.spans), 1)
    assert all(math.isfinite(v) and v >= 0.0 for v, _ in m.values())
    assert (m["estimator.estimate.ms"][0] > 0.0) == (name != "bound-grid")


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bound-grid",
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_the_declared_metrics(trace, key):
    proc = _run(os.path.dirname(HERE), trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared

def test_run_refuses_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
