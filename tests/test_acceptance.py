"""Acceptance gate: ten criteria, one test (one pass/fail line) each.

Every test states its tolerance in the docstring and carries it into the
assertion message. Criteria 3 and 8 are Monte-Carlo studies over frozen
seed streams and dominate the runtime (a few minutes each); everything
else finishes in seconds.
"""
import math

import numpy as np
import pytest

import mmloc.harness as H
from gridsearch import fine_grid_oracle, plain_gradient_ascent, random_start
from mmloc import (EXAMPLE_UES, SCENARIO_NAMES, GapfConfig, MmlocError,
                   Mode, NoiseProfile, ParamVector, Point2, ReflectiveSide,
                   Scenario, Wall, WallAxis, crb_grid, enumerate_paths,
                   estimate, fisher, grid_preset, jacobian, jacobian_fd,
                   mc_rmse, noise_profile_preset, noiseless_observation,
                   residual, rmse_crb, scenario_preset, synthesize,
                   beamwidth_sweep, build_rem_map, trajectory_preset)

STUDY_UE = H.SWEEP_UE  # mid-street point in the corner scene


# ---------------------------------------------------------------------------
# criterion 1: analytic Jacobians agree with central finite differences
# ---------------------------------------------------------------------------

def _random_scene(rng):
    """One random non-degenerate scene + evaluation point, or None."""
    walls = []
    for _ in range(rng.integers(1, 3)):
        axis = WallAxis.VERTICAL if rng.uniform() < 0.5 else WallAxis.HORIZONTAL
        side = ReflectiveSide.POSITIVE if rng.uniform() < 0.5 \
            else ReflectiveSide.NEGATIVE
        walls.append(Wall(axis, float(rng.uniform(-10.0, 30.0)), side))
    fes = [Point2(float(rng.uniform(-5.0, 25.0)), float(rng.uniform(-5.0, 55.0)))
           for _ in range(rng.integers(1, 3))]
    ue = Point2(float(rng.uniform(-5.0, 25.0)), float(rng.uniform(-5.0, 55.0)))
    try:
        sc = Scenario(tuple(walls), tuple(fes), noise_profile_preset("73GHz"))
        paths = enumerate_paths(sc, ue)
    except (ValueError, MmlocError):
        return None
    truth = ParamVector.truth_from_paths(ue, paths, Mode.NOREM)
    return sc, paths, truth


def test_criterion_01_jacobian_matches_finite_differences():
    """100 random non-degenerate configurations, REM and NoREM: the
    analytic Jacobian matches central differences with max elementwise
    deviation |A - F| / max(|F|, 1) below 1e-5."""
    rng = np.random.default_rng(12345)
    worst, n_done = 0.0, 0
    while n_done < 100:
        scene = _random_scene(rng)
        if scene is None:
            continue
        sc, paths, truth = scene
        devs = []
        for mode in (Mode.NOREM, Mode.REM):
            base = truth.to_array()[:2] if mode is Mode.REM else truth.to_array()
            arr = base + rng.uniform(-0.3, 0.3, base.size)
            theta = ParamVector.from_array(arr, mode)
            try:
                A = jacobian(theta, paths, sc)
                F = jacobian_fd(theta, paths, sc)
            except MmlocError:
                break
            devs.append(float((np.abs(A - F)
                               / np.maximum(np.abs(F), 1.0)).max()))
        else:
            worst = max(worst, *devs)
            n_done += 1
    assert worst < 1e-5, f"max FD deviation {worst:.3e} >= 1e-5"


# ---------------------------------------------------------------------------
# criterion 2: hand-computed single-LOS bound
# ---------------------------------------------------------------------------

def test_criterion_02_hand_computed_crb():
    """fe (0,0), ue (10,0), sigma_d = 1 m, sigma_angle = 0.1 rad: Fisher
    information diag(1, 2) and rmse bound sqrt(1.5), to 1e-9."""
    prof = NoiseProfile.from_degrees(
        math.degrees(0.1), math.degrees(0.1), 1.0,
        math.degrees(0.1), math.degrees(0.1), 1.0)
    sc = Scenario((Wall(WallAxis.HORIZONTAL, -50.0, ReflectiveSide.POSITIVE),),
                  (Point2(0.0, 0.0),), prof)
    ue = Point2(10.0, 0.0)
    paths = enumerate_paths(sc, ue).subset([0])
    info = fisher(ue, paths, sc, Mode.NOREM)
    np.testing.assert_allclose(info, [[1.0, 0.0], [0.0, 2.0]], atol=1e-9)
    got = rmse_crb(ue, paths, sc, Mode.NOREM)
    assert abs(got - math.sqrt(1.5)) < 1e-9, \
        f"rmse bound {got!r} != sqrt(1.5) within 1e-9"


# ---------------------------------------------------------------------------
# criterion 3: estimator efficiency against the bound
# ---------------------------------------------------------------------------

def test_criterion_03_monte_carlo_rmse_tracks_the_bound():
    """Corner scene at (8,35), equal angle sigmas {3,6,9} deg, sigma_d
    0.75 m, 500 trials per cell, NoREM and REM: rmse_est/rmse_crb must
    lie in [0.9, 1.15] at every cell."""
    cfg = GapfConfig(n_particles=16, n_iterations=10)
    ratios = {}
    for deg in (3.0, 6.0, 9.0):
        prof = NoiseProfile.equal_angles(deg, 0.75)
        sc = scenario_preset("corner-1fe", profile=prof)
        for mode in (Mode.NOREM, Mode.REM):
            r = mc_rmse(sc, STUDY_UE, mode, cfg, n_trials=500, seed=101)
            assert r.failures == 0
            ratios[(deg, mode.value)] = r.rmse_est / r.rmse_crb
    bad = {k: round(v, 4) for k, v in ratios.items()
           if not 0.9 <= v <= 1.15}
    assert not bad, f"ratio outside [0.9, 1.15]: {bad}"


# ---------------------------------------------------------------------------
# criterion 4: zero-noise exactness
# ---------------------------------------------------------------------------

def test_criterion_04_noiseless_estimates_are_exact():
    """On all four preset scenes a noiseless observation is inverted to
    the true parameter vector (UE and every bounce point) within 1e-4 m,
    in both modes."""
    cfg = GapfConfig(n_particles=16, n_iterations=6)
    for name in SCENARIO_NAMES:
        sc = scenario_preset(name)
        ue = EXAMPLE_UES[name]
        paths = enumerate_paths(sc, ue)
        truth = ParamVector.truth_from_paths(ue, paths, Mode.NOREM)
        z = noiseless_observation(truth, paths, sc)
        for mode in (Mode.NOREM, Mode.REM):
            rep = estimate(z, sc, mode, cfg, [1])
            err = math.hypot(rep.theta_hat.ue.x - ue.x,
                             rep.theta_hat.ue.y - ue.y)
            assert err < 1e-4, f"{name}/{mode.value}: UE error {err:.2e}"
            if mode is Mode.NOREM:
                for s_hat, s in zip(rep.theta_hat.scatterers,
                                    truth.scatterers):
                    serr = math.hypot(s_hat.x - s.x, s_hat.y - s.y)
                    assert serr < 1e-4, \
                        f"{name}: bounce error {serr:.2e}"


# ---------------------------------------------------------------------------
# criteria 5 and 6 share the preset-grid bound fields
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bound_fields():
    fields = {}
    for name in SCENARIO_NAMES:
        for prof in ("73GHz", "28GHz"):
            sc = scenario_preset(name, profile=prof)
            for mode in (Mode.NOREM, Mode.REM):
                fields[(name, prof, mode.value)] = crb_grid(
                    sc, grid_preset(name), mode)
    return fields


def test_criterion_05_median_bound_levels(bound_fields):
    """73 GHz NoREM over the 1 m street grid: median bound below 2 m
    with one corner FE and below 1 m with two."""
    one = float(np.median(bound_fields[("corner-1fe", "73GHz",
                                        "NoREM")].valid_values()))
    two = float(np.median(bound_fields[("corner-2fe", "73GHz",
                                        "NoREM")].valid_values()))
    assert one < 2.0, f"corner-1fe median {one:.3f} >= 2 m"
    assert two < 1.0, f"corner-2fe median {two:.3f} >= 1 m"


def test_criterion_06_orderings_hold_everywhere(bound_fields):
    """Pointwise on every grid: REM <= NoREM and two FEs <= one FE
    (tolerance 1e-12); distributionally: 73 GHz dominates 28 GHz (sorted
    values, same grid) and the corner scene dominates the canyon at
    matched FE count (quantiles 0.05..0.95)."""
    for name in SCENARIO_NAMES:
        a = bound_fields[(name, "73GHz", "NoREM")].values
        b = bound_fields[(name, "73GHz", "REM")].values
        both = np.isfinite(a) & np.isfinite(b)
        assert (b[both] <= a[both] + 1e-12).all(), f"REM > NoREM in {name}"
        for mode in ("NoREM", "REM"):
            v73 = np.sort(bound_fields[(name, "73GHz", mode)].valid_values())
            v28 = np.sort(bound_fields[(name, "28GHz", mode)].valid_values())
            assert v73.size == v28.size
            assert (v73 <= v28 + 1e-12).all(), f"73GHz > 28GHz in {name}"
    qs = np.linspace(0.05, 0.95, 19)
    for base in ("canyon", "corner"):
        for mode in ("NoREM", "REM"):
            one = bound_fields[(f"{base}-1fe", "73GHz", mode)].values
            two = bound_fields[(f"{base}-2fe", "73GHz", mode)].values
            both = np.isfinite(one) & np.isfinite(two)
            assert (two[both] <= one[both] + 1e-12).all(), \
                f"second FE hurt the bound in {base}/{mode}"
    for nfe in ("1fe", "2fe"):
        for mode in ("NoREM", "REM"):
            qc = np.quantile(bound_fields[(f"corner-{nfe}", "73GHz",
                                           mode)].valid_values(), qs)
            qn = np.quantile(bound_fields[(f"canyon-{nfe}", "73GHz",
                                           mode)].valid_values(), qs)
            assert (qc <= qn + 1e-12).all(), \
                f"corner does not dominate canyon at {nfe}/{mode}"


# ---------------------------------------------------------------------------
# criterion 7: beamwidth sweep shape
# ---------------------------------------------------------------------------

def test_criterion_07_sweep_shape_and_plateau():
    """Corner scene at (8,35), sigma_angle 1..40 deg: NoREM bound curves
    strictly increase; REM curves stay below the distance-only floor and
    land within 10% of it at 40 deg; NoREM subset ordering
    all <= LOS-only <= 2NLOS-only at every sigma (tolerance 1e-9)."""
    sc = scenario_preset("corner-1fe")
    degs = [1.0, 5.0, 10.0, 20.0, 30.0, 40.0]
    sw = beamwidth_sweep(sc, STUDY_UE, [math.radians(d) for d in degs],
                         n_trials=0)
    for subset in ("all", "los", "nlos"):
        norem = sw.crb[(subset, "NoREM")]
        assert (np.diff(norem) > 0.0).all(), \
            f"NoREM curve not strictly increasing for {subset}"
    for subset in ("all", "nlos"):  # the LOS-only floor is rank-deficient
        rem = sw.crb[(subset, "REM")]
        floor = sw.distance_only[subset]
        assert (rem <= floor + 1e-9).all(), f"REM above floor for {subset}"
        gap = (floor - rem[-1]) / floor
        assert gap < 0.10, \
            f"{subset}: REM at 40 deg is {gap:.1%} below the floor (>10%)"
    a, l, n = (sw.crb[(s, "NoREM")] for s in ("all", "los", "nlos"))
    assert (a <= l + 1e-9).all() and (l <= n + 1e-9).all(), \
        "subset ordering all <= los <= nlos violated"


# ---------------------------------------------------------------------------
# criterion 8: global-search reliability on the multimodal instance
# ---------------------------------------------------------------------------

def test_criterion_08_filter_beats_plain_gradient_on_multimodal_case():
    """The two-reflection subset of the corner problem at 73 GHz noise
    (the multimodal instance: dropping the LOS row leaves dozens of
    local optima). Over 200 seeded trials the filter's final
    log-likelihood must match a first-principles fine-grid + polish
    oracle's global maximum (within 1e-3) in at least 190 trials
    (>= 95%), and plain backtracking gradient ascent from one random
    start must match in strictly fewer."""
    sc = scenario_preset("corner-1fe")
    entropy, n_trials = 2024, 200
    gapf_ok = plain_ok = 0
    for i in range(n_trials):
        synth_ss, est_seed = H.trial_seeds(entropy, i)
        paths = enumerate_paths(sc, STUDY_UE)
        truth = ParamVector.truth_from_paths(STUDY_UE, paths, Mode.NOREM)
        z = synthesize(truth, paths, sc,
                       np.random.default_rng(synth_ss)).subset([1, 2])
        oracle = fine_grid_oracle(z, sc, ue_spacing=0.75)
        rep = estimate(z, sc, Mode.NOREM, GapfConfig(), [est_seed])
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=entropy, spawn_key=(i, 1)))
        plain = plain_gradient_ascent(z, sc, random_start(z, sc, rng, 2))
        gapf_ok += rep.log_likelihood >= oracle - 1e-3
        plain_ok += plain >= oracle - 1e-3
    assert gapf_ok >= 190, \
        f"filter matched the oracle in only {gapf_ok}/200 trials (< 190)"
    assert plain_ok < gapf_ok, \
        f"plain gradient ({plain_ok}/200) not beaten by filter ({gapf_ok}/200)"


# ---------------------------------------------------------------------------
# criterion 9: reflector-map fidelity
# ---------------------------------------------------------------------------

def test_criterion_09_reflector_maps_trace_the_walls():
    """Canyon with two FEs, 20-point trajectory: at least 95% of the
    estimated bounce points lie within 3 m of a true wall line. Corner
    map: the interior gap stays empty (no bounce point within 4 m of the
    corner origin; the closest true one is 8.3 m out)."""
    canyon = build_rem_map(scenario_preset("canyon-2fe"),
                           trajectory_preset("canyon-2fe", 20),
                           GapfConfig(), seed=7)
    assert canyon.failures == ()
    d = np.array([min(abs(s.x - 0.0), abs(s.x - 20.0))
                  for s in canyon.estimated_scatterers])
    frac = float((d < 3.0).mean())
    assert frac >= 0.95, f"only {frac:.0%} of bounce points within 3 m"

    corner = build_rem_map(scenario_preset("corner-2fe"),
                           trajectory_preset("corner-2fe", 20),
                           GapfConfig(), seed=7)
    origin = np.array([math.hypot(s.x, s.y)
                       for s in corner.estimated_scatterers])
    assert origin.min() >= 4.0, \
        f"bounce point {origin.min():.2f} m from the corner (< 4 m gap)"


# ---------------------------------------------------------------------------
# criterion 10: whitened residuals are chi-square at the truth
# ---------------------------------------------------------------------------

def test_criterion_10_whitened_residual_norm_is_chi_square():
    """Corner scene with two FEs (18 measurement rows): the whitened
    residual norm squared at the truth averages M = 18 within 5% over
    10^4 synthesized observations."""
    sc = scenario_preset("corner-2fe")
    ue = Point2(8.0, 35.0)
    paths = enumerate_paths(sc, ue)
    truth = ParamVector.truth_from_paths(ue, paths, Mode.NOREM)
    total = 0.0
    n_draw = 10_000
    for seed in range(n_draw):
        z = synthesize(truth, paths, sc, seed)
        r = residual(z, truth, sc)
        total += float(r @ (r / z.covariance_diag))
    mean = total / n_draw
    m = 3 * paths.n_paths
    assert m == 18
    assert abs(mean - m) / m < 0.05, \
        f"mean whitened norm^2 {mean:.3f} deviates from {m} by > 5%"
