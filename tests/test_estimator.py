"""Particle filter building blocks and the full estimator loop."""
import math
from collections import Counter
from itertools import product
from dataclasses import replace

import numpy as np
import pytest

import mmloc.estimator as E
from mmloc import (DegenerateGeometry, GapfConfig, InsufficientPaths,
                   LikelihoodEngine, Mode, ParamVector, ParticleSet, Point2,
                   ReflectiveSide, Scenario, Wall, WallAxis,
                   check_sufficiency, default_search_box, enumerate_paths,
                   estimate, gapf_iterate, grid_init, initial_particles,
                   lm_refine, noise_profile_preset, noiseless_observation,
                   resample_systematic, scenario_preset, subset_indices,
                   synthesize, trajectory_preset, trial_seeds)
from mmloc.measurement import wrap

PROF = noise_profile_preset("73GHz")

CORNER = Scenario(
    (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
     Wall(WallAxis.HORIZONTAL, 0.0, ReflectiveSide.POSITIVE)),
    (Point2(18.0, 10.0),), PROF, name="corner")

UE = Point2(8.0, 35.0)


def _obs(seed=None, mode=Mode.NOREM, scenario=CORNER, ue=UE):
    ps = enumerate_paths(scenario, ue)
    theta = ParamVector.truth_from_paths(ue, ps, Mode.NOREM)
    if seed is None:
        return noiseless_observation(theta, ps, scenario), theta
    return synthesize(theta, ps, scenario, seed), theta


# ---------------------------------------------------------------------------
# configuration and sufficiency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(n_particles=0),
    dict(n_iterations=-1),
    dict(anneal_factor=0.0),
    dict(anneal_factor=1.5),
    dict(grid_spacing=0.0),
    dict(process_std_position=-1.0),
    dict(lm_tolerance=0.0),
    # counts that would crash range() mid-run or be read as 1
    dict(n_particles=16.0),
    dict(n_iterations=2.5),
    dict(n_iterations=True),
    dict(lm_max_iters=3.5),
    dict(lm_max_iters="4"),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        GapfConfig(**kwargs)


def test_check_sufficiency():
    ps = enumerate_paths(CORNER, UE)  # 1 LOS + 2 NLOS
    check_sufficiency(ps)
    check_sufficiency(ps.subset([0]))      # LOS alone is enough
    check_sufficiency(ps.subset([1, 2]))   # two NLOS are enough
    with pytest.raises(InsufficientPaths):
        check_sufficiency(ps.subset([1]))  # one NLOS is not


def test_rem_localizes_from_any_one_path():
    """A known bounce point makes a lone reflection enough in REM."""
    ps = enumerate_paths(CORNER, UE)
    check_sufficiency(ps.subset([1]), Mode.REM)
    with pytest.raises(InsufficientPaths, match="NoREM"):
        check_sufficiency(ps.subset([1]), Mode.NOREM)
    z, _ = _obs(seed=1)
    rep = estimate(z.subset([1]), CORNER, Mode.REM,
                   GapfConfig(n_particles=16, n_iterations=6))
    assert math.hypot(rep.theta_hat.ue.x - UE.x,
                      rep.theta_hat.ue.y - UE.y) < 5.0


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_systematic_resampling_counts():
    """Weights (0.75, 0.25, 0, 0) with 4 particles admit exactly one
    outcome: three copies of particle 0 and one of particle 1, whatever
    the stratification offset."""
    states = np.arange(8.0).reshape(4, 2)
    ps = ParticleSet(states, np.array([0.75, 0.25, 0.0, 0.0]),
                     states[0].copy(), -1.0, Mode.REM)
    for seed in range(40):
        out = resample_systematic(ps, np.random.default_rng(seed))
        counts = Counter(map(tuple, out.states))
        assert counts == {(0.0, 1.0): 3, (2.0, 3.0): 1}
        np.testing.assert_array_equal(out.weights, 0.25)
        assert out.best_ll == -1.0


def test_resampling_keeps_best_record():
    states = np.zeros((3, 2))
    best = np.array([9.0, 9.0])
    ps = ParticleSet(states, np.full(3, 1.0 / 3.0), best, 4.5, Mode.REM)
    out = resample_systematic(ps, np.random.default_rng(1))
    np.testing.assert_array_equal(out.best_state, best)
    assert out.best_ll == 4.5


def test_particle_set_invariants():
    states = np.zeros((2, 2))
    with pytest.raises(ValueError):
        ParticleSet(states, np.array([0.6, 0.6]), states[0], 0.0, Mode.REM)
    with pytest.raises(ValueError):
        ParticleSet(states, np.array([1.2, -0.2]), states[0], 0.0, Mode.REM)


# ---------------------------------------------------------------------------
# refinement and initialization
# ---------------------------------------------------------------------------

def test_lm_refine_recovers_noiseless_truth():
    z, theta = _obs()
    start = ParamVector.from_array(theta.to_array() + 0.5, Mode.NOREM)
    out = lm_refine(z, start, CORNER, GapfConfig())
    np.testing.assert_allclose(out.to_array(), theta.to_array(), atol=1e-6)


def test_lm_refine_never_worsens_likelihood():
    from mmloc import log_likelihood
    z, theta = _obs(seed=3)
    start = ParamVector.from_array(theta.to_array() + 2.0, Mode.NOREM)
    out = lm_refine(z, start, CORNER, GapfConfig())
    assert (log_likelihood(z, out, CORNER)
            >= log_likelihood(z, start, CORNER) - 1e-12)


def test_lm_failed_solve_stays_in_its_row(monkeypatch):
    """When the batched solve fails, the rows are solved one at a time and
    only the row whose own solve fails takes the pseudo-inverse: every
    other row ends bit-equal to a run without that row."""
    z, theta = _obs(seed=3)
    eng = LikelihoodEngine(z, CORNER, Mode.NOREM)
    rows = theta.to_array() + np.random.default_rng(9).normal(
        0.0, 1.0, (6, eng.dim))
    marked = theta.to_array().copy()
    marked[:2] = [18.0 - 1e-3, 10.0 + 1e-3]  # UE a millimetre off the FE
    want, want_cost = E._lm_refine_batch(eng, rows, GapfConfig())

    solve = np.linalg.solve
    failed = []

    def failing_solve(a, b):
        # only the marked row's normal matrix is this large
        if np.any(a[..., 0, 0] > 1e6):
            failed.append(a.ndim)
            raise np.linalg.LinAlgError("marked row")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    got, got_cost = E._lm_refine_batch(
        eng, np.vstack([rows[:3], marked, rows[3:]]), GapfConfig())
    assert 3 in failed and 2 in failed  # the batch, then the row alone
    np.testing.assert_array_equal(np.delete(got, 3, axis=0), want)
    np.testing.assert_array_equal(np.delete(got_cost, 3), want_cost)
    assert got_cost[3] < eng.cost_valid(marked[None, :])[0][0]


def test_lm_failed_pseudo_inverse_rejects_its_row(monkeypatch):
    """A row whose own solve and pseudo-inverse both fail takes no step:
    it keeps its start state and cost while its damping rises, and every
    other row ends bit-equal to a run without it."""
    z, theta = _obs(seed=3)
    eng = LikelihoodEngine(z, CORNER, Mode.NOREM)
    rows = theta.to_array() + np.random.default_rng(9).normal(
        0.0, 1.0, (6, eng.dim))
    marked = theta.to_array().copy()
    marked[:2] = [18.0 - 1e-3, 10.0 + 1e-3]  # UE a millimetre off the FE
    want, want_cost = E._lm_refine_batch(eng, rows, GapfConfig())

    solve, pinv = np.linalg.solve, np.linalg.pinv
    pinv_calls = []

    def failing_solve(a, b):
        # only the marked row's normal matrix is this large
        if np.any(a[..., 0, 0] > 1e6):
            raise np.linalg.LinAlgError("marked row")
        return solve(a, b)

    def failing_pinv(a):
        pinv_calls.append(a[0, 0])
        if a[0, 0] > 1e6:
            raise np.linalg.LinAlgError("SVD did not converge")
        return pinv(a)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    monkeypatch.setattr(np.linalg, "pinv", failing_pinv)
    got, got_cost = E._lm_refine_batch(
        eng, np.vstack([rows[:3], marked, rows[3:]]), GapfConfig())
    assert pinv_calls and min(pinv_calls) > 1e6  # the marked row only
    np.testing.assert_array_equal(got[3], marked)
    assert got_cost[3] == eng.cost_valid(marked[None, :])[0][0]
    np.testing.assert_array_equal(np.delete(got, 3, axis=0), want)
    np.testing.assert_array_equal(np.delete(got_cost, 3), want_cost)


def _lm_fresh(eng, theta, obs, cfg, settle=True):
    """One row's damped least squares with J^T J and J^T r formed afresh
    at every iteration; settle=False drops the rounding-floor stop.
    Returns (state, cost, accepted steps after which the row went on,
    whether the row settled at the floor)."""
    x, o = theta.copy(), np.array([obs])
    lam, went_on = E._LAMBDA_INIT, 0
    cost, ok = eng.cost_valid(x[None], o)
    cost = cost[0]
    if not ok[0]:
        return x, cost, went_on, False
    ii = np.arange(x.size)
    floor = eng.m * np.finfo(float).eps
    for _ in range(cfg.lm_max_iters):
        r, J, _, _ = eng.linearize(x[None], o)
        A = J.transpose(0, 2, 1) @ J
        g = (J.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0]
        if np.max(np.abs(g)) < E._GRAD_TOL:
            break
        d = A[:, ii, ii]
        A[:, ii, ii] = d + lam * np.maximum(d, 1e-12)
        step = np.linalg.solve(A, g[:, :, None])[:, :, 0]
        if settle and np.einsum("ij,ij->i", step, g)[0] <= floor * cost:
            return x, cost, went_on, True
        cand_cost = eng.cost_valid(x + step, o)[0][0]
        if cand_cost < cost:
            x, cost = (x + step)[0], cand_cost
            lam = max(lam / 10.0, E._LAMBDA_MIN)
            if np.linalg.norm(step, axis=1)[0] < cfg.lm_tolerance:
                break
            went_on += 1
        else:
            lam *= 10.0
            if lam > E._LAMBDA_MAX:
                break
    return x, cost, went_on, False


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_lm_normal_equation_cache_is_exact(mode):
    """The refinement keeps each row's normal equations between
    iterations: its states and costs are the bits of a loop that forms
    them afresh at every iteration, and it linearizes only the start rows
    and the rows an accepted step leaves going."""
    ps = enumerate_paths(CORNER, UE)
    truth = ParamVector.truth_from_paths(UE, ps, Mode.NOREM)
    zs = [synthesize(truth, ps, CORNER, seed) for seed in (31, 32)]
    eng = LikelihoodEngine(zs, CORNER, mode)
    rng = np.random.default_rng(4)
    rows = truth.to_array()[:eng.dim] + rng.normal(0.0, 2.0, (12, eng.dim))
    rows[5, :2] = [CORNER.fes[0].x, CORNER.fes[0].y]  # degenerate start
    obs = rng.integers(0, 2, len(rows))
    cfg = GapfConfig()
    want = [_lm_fresh(eng, rows[k], obs[k], cfg) for k in range(len(rows))]

    linearized = []
    real = eng.linearize

    def counted(thetas, o=None):
        linearized.append(len(thetas))
        return real(thetas, o)

    eng.linearize = counted
    x, cost = E._lm_refine_batch(eng, rows, cfg, obs)
    for k, (wx, wc, _, _) in enumerate(want):
        np.testing.assert_array_equal(x[k], wx)
        assert cost[k] == wc
    assert cost[5] == np.inf
    assert sum(linearized) == len(rows) + sum(w[2] for w in want)
    assert sum(w[2] for w in want) > 0


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_settling_moves_nothing_the_cost_resolves(mode):
    """Against a loop without the rounding-floor stop, a row that settles
    ends within the cost's rounding of the same cost and within 1e-6 m of
    the same state; a row that never settles keeps its bits.  At 6
    passes most rows are cut off before they settle."""
    fired = kept = 0
    for scene, cfg in product(("corner-1fe", "corner-2fe"),
                              (GapfConfig(), GapfConfig(lm_max_iters=6))):
        sc = scenario_preset(scene)
        ps = enumerate_paths(sc, UE)
        truth = ParamVector.truth_from_paths(UE, ps, Mode.NOREM)
        eng = LikelihoodEngine(synthesize(truth, ps, sc, 6), sc, mode)
        rng = np.random.default_rng(8)
        rows = truth.to_array()[:eng.dim] + rng.normal(0.0, 2.0,
                                                       (16, eng.dim))
        x, cost = E._lm_refine_batch(eng, rows, cfg)
        rel = 4 * eng.m * np.finfo(float).eps
        for k, row in enumerate(rows):
            settled = _lm_fresh(eng, row, 0, cfg)[3]
            px, pc, _, _ = _lm_fresh(eng, row, 0, cfg, settle=False)
            if settled:
                fired += 1
                assert abs(cost[k] - pc) <= rel * pc
                np.testing.assert_allclose(x[k], px, rtol=0.0, atol=1e-6)
            else:
                kept += 1
                np.testing.assert_array_equal(x[k], px)
                assert cost[k] == pc
    assert fired > 0 and kept > 0


def test_default_search_box_contains_truth():
    z, theta = _obs(seed=9)
    x0, x1, y0, y1 = default_search_box(z, CORNER, GapfConfig())
    assert x0 < UE.x < x1 and y0 < UE.y < y1
    # reflective side of both walls is the positive quadrant
    assert x0 >= 0.0 and y0 >= 0.0


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_grid_init_lands_near_truth(mode):
    z, theta = _obs()
    t0 = grid_init(z, z.paths, CORNER, GapfConfig(), mode)
    assert math.hypot(t0.ue.x - UE.x, t0.ue.y - UE.y) <= 1.5
    if mode is Mode.NOREM:
        truth = theta.to_array()
        assert np.abs(t0.to_array() - truth).max() <= 2.5


def test_grid_init_nlos_only():
    """Joint UE/bounce grid when no LOS path is available."""
    ps = enumerate_paths(CORNER, UE)
    z, theta = _obs()
    z2 = z.subset([1, 2])
    t0 = grid_init(z2, z2.paths, CORNER, GapfConfig(), Mode.NOREM)
    # the joint cost is shallow without a LOS anchor: only require the
    # argmin node to land within the refinement basin
    assert math.hypot(t0.ue.x - UE.x, t0.ue.y - UE.y) <= 3.0


def test_search_box_fallback_is_wall_clipped():
    """Distance errors of about 20 m make the two direct paths' squares
    disjoint; the fallback box is their union, still clipped to the
    walls' reflective side."""
    sc = scenario_preset("corner-2fe")
    z = synthesize(ParamVector.truth_from_paths(
        UE, enumerate_paths(sc, UE), Mode.NOREM), enumerate_paths(sc, UE),
        sc, 1).subset([0, 1])
    assert [p.fe_index for p in z.paths] == [0, 1]
    # squares around (18, 10) of half-width 15 and (18, 48) of half-width 10
    z = replace(z, dist=np.array([12.0, 7.0]))
    assert default_search_box(z, sc, GapfConfig()) == (3.0, 33.0, 0.5, 58.0)


def test_search_box_behind_a_wall_raises():
    """Every square lies behind the wall at x = 40: no UE position fits."""
    z, _ = _obs(seed=1)
    behind = Scenario((Wall(WallAxis.VERTICAL, 40.0,
                            ReflectiveSide.POSITIVE),), CORNER.fes, PROF)
    z = replace(z, dist=np.full(3, 5.0))
    with pytest.raises(DegenerateGeometry):
        default_search_box(z, behind, GapfConfig())


def test_grid_node_budget_is_checked_before_allocating(monkeypatch):
    """A box of more than _MAX_GRID_NODES nodes raises DegenerateGeometry
    from the box arithmetic alone: no meshgrid is built."""
    side = 1 << 10  # nodes per axis of a box exactly at the budget
    assert side * side == E._MAX_GRID_NODES
    assert len(E._grid_nodes((0.0, side - 1.0, 0.0, side - 1.0), 1.0)) \
        == E._MAX_GRID_NODES

    def no_meshgrid(*args, **kwargs):
        raise AssertionError("meshgrid called on an over-budget box")

    monkeypatch.setattr(np, "meshgrid", no_meshgrid)
    with pytest.raises(DegenerateGeometry, match="1025 x 1024"):
        E._grid_nodes((0.0, float(side), side - 1.0, 0.0), 1.0)
    # distances a million meters long, as a sigma_d of 1e6 m would draw
    z, _ = _obs(seed=1)
    far = replace(z, dist=z.dist + 1e6)
    with pytest.raises(DegenerateGeometry, match="exceeds"):
        estimate(far, CORNER, Mode.NOREM, GapfConfig(n_particles=4))


# ---------------------------------------------------------------------------
# joint two-NLOS init: bound-pruned search against every pair scored
# ---------------------------------------------------------------------------

NLOS_STREAMS = {  # scene, profile, UE, entropy: 6 NLOS-only observations each
    "corner-1fe-73GHz": ("corner-1fe", "73GHz", UE, 2024),  # criterion 8's
    "corner-1fe-28GHz": ("corner-1fe", "28GHz", UE, 7),
    "corner-2fe": ("corner-2fe", "73GHz", UE, 5),  # 4 NLOS, pair by distance
    "canyon-2fe": ("canyon-2fe", "73GHz", Point2(10.0, 40.0), 3),
}


def _nlos_stream(scene, profile, ue, entropy, n=6):
    sc = scenario_preset(scene, profile)
    paths = enumerate_paths(sc, ue)
    truth = ParamVector.truth_from_paths(ue, paths, Mode.NOREM)
    nlos = subset_indices(paths, "nlos")
    for i in range(n):
        synth_ss, _ = trial_seeds(entropy, i)
        z = synthesize(truth, paths, sc, np.random.default_rng(synth_ss))
        yield sc, z.subset(nlos)


def _joint_problem(z, sc, spacing=1.0):
    """The pair and UE nodes grid_init searches when every path is NLOS."""
    box = default_search_box(z, sc, GapfConfig(grid_spacing=spacing))
    pair = [int(k) for k in np.argsort(z.dist, kind="stable")[:2]]
    return pair, E._grid_nodes(box, spacing)


def _exhaustive(z, sc, pair, ue_nodes, spacing=1.0):
    """Every (UE node, bounce node) pair scored at the default bound."""
    total = np.zeros(len(ue_nodes))
    for j in pair:
        fe = sc.fes[z.paths[j].fe_index]
        s_nodes = E._grid_nodes(E._scatterer_box(fe, float(z.dist[j])),
                                spacing)
        total += E._joint_min_cost(z, j, ue_nodes, s_nodes,
                                   np.array([fe.x, fe.y]))
    k = int(np.argmin(total))
    return k, float(total[k])


@pytest.fixture
def pairs_scored(monkeypatch):
    """Counts the (UE node, bounce node) pairs _joint_min_cost scores."""
    count = [0]
    real = E._joint_min_cost

    def counted(z, j, ue_nodes, s_nodes, fe_xy, bound=E._JOINT_PRUNE):
        kept = E._bounce_terms(z, j, s_nodes, fe_xy, bound)[0]
        count[0] += len(ue_nodes) * len(kept)
        return real(z, j, ue_nodes, s_nodes, fe_xy, bound)

    monkeypatch.setattr(E, "_joint_min_cost", counted)
    return count


def _scored(count, fn, *args):
    count[0] = 0
    out = fn(*args)
    return out, count[0]


@pytest.mark.parametrize("stream", sorted(NLOS_STREAMS))
def test_pruned_joint_init_is_exact(stream, pairs_scored):
    """Same argmin node and a bit-equal total as scoring every pair, from
    at most a fifth of the pairs."""
    pruned = exhaustive = 0
    for sc, z in _nlos_stream(*NLOS_STREAMS[stream]):
        pair, ue_nodes = _joint_problem(z, sc)
        want, n_all = _scored(pairs_scored, _exhaustive, z, sc, pair,
                              ue_nodes)
        got, n_pruned = _scored(pairs_scored, E._joint_argmin, z, pair,
                                ue_nodes, sc, 1.0)
        assert got == want
        t0 = grid_init(z, z.paths, sc, GapfConfig(), Mode.NOREM)
        assert (t0.ue.x, t0.ue.y) == tuple(ue_nodes[want[0]])
        exhaustive += n_all
        pruned += n_pruned
    assert pruned <= 0.2 * exhaustive


def test_joint_init_falls_back_when_no_ray_meets(pairs_scored):
    """With arrival and departure bearings parallel no seed is finite, so
    the exhaustive pass runs."""
    sc, z = next(_nlos_stream(*NLOS_STREAMS["corner-1fe-73GHz"]))
    z = replace(z, beta=z.alpha.copy())
    pair, ue_nodes = _joint_problem(z, sc)
    seeds = sum(E._ray_seed_cost(z, j, ue_nodes,
                                 np.array([sc.fes[0].x, sc.fes[0].y]))
                for j in pair)
    assert not np.isfinite(seeds).any()
    want, n_all = _scored(pairs_scored, _exhaustive, z, sc, pair, ue_nodes)
    got, n_pruned = _scored(pairs_scored, E._joint_argmin, z, pair,
                            ue_nodes, sc, 1.0)
    assert got == want
    assert n_pruned == n_all


def _full_grid_scatterer(z, j, ue_xy, sc, spacing=1.0):
    """Every bounce node of the fixed-UE box scored by path j's whole term,
    summed as (alpha + beta) + d with nothing pruned, and the first minimum
    returned: an independent reference for _best_scatterer."""
    fe = sc.fes[z.paths[j].fe_index]
    fe_xy = np.array([fe.x, fe.y])
    nodes = E._grid_nodes(E._scatterer_box(fe, float(z.dist[j]), ue_xy),
                          spacing)
    n, var = z.paths.n_paths, z.covariance_diag
    e, f = nodes - ue_xy, nodes - fe_xy
    e2 = np.einsum("...i,...i->...", e, e)
    f2 = np.einsum("...i,...i->...", f, f)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = np.arctan2(e[..., 0], e[..., 1])
        beta = np.arctan2(f[..., 0], f[..., 1])
    d = np.sqrt(e2) + np.sqrt(f2)
    cost = (wrap(z.alpha[j] - alpha) ** 2 / var[j]
            + wrap(z.beta[j] - beta) ** 2 / var[n + j]
            + (z.dist[j] - d) ** 2 / var[2 * n + j])
    cost = np.where((e2 > 1e-18) & (f2 > 1e-18), cost, np.inf)
    k = int(np.argmin(cost))
    return nodes[k], cost[k]


@pytest.fixture
def bounds_tried(monkeypatch):
    """The bounds _bounce_terms is called with."""
    seen = []
    real = E._bounce_terms

    def recorded(z, j, s_nodes, fe_xy, bound):
        seen.append(bound)
        return real(z, j, s_nodes, fe_xy, bound)

    monkeypatch.setattr(E, "_bounce_terms", recorded)
    return seen


def test_best_scatterer_is_the_full_grid_argmin(bounds_tried):
    """The pruned bounce-point grid returns the node the full grid does,
    bit for bit: at UEs around every preset's track at 73 and 28 GHz, and
    at a UE so far off that the pruned minimum exceeds the bound, where
    the full grid's winner is a pruned node and only the unbounded second
    pass finds it."""
    calls = 0
    rng = np.random.default_rng(11)
    for scene, profile in product(("canyon-1fe", "canyon-2fe", "corner-1fe",
                                   "corner-2fe"), ("73GHz", "28GHz")):
        sc = scenario_preset(scene, profile)
        for t, ue in enumerate(trajectory_preset(scene)):
            paths = enumerate_paths(sc, ue)
            truth = ParamVector.truth_from_paths(ue, paths, Mode.NOREM)
            z = synthesize(truth, paths, sc, np.random.default_rng(t))
            for ue_xy in np.array([ue.x, ue.y]) + rng.normal(0.0, 1.5,
                                                              (3, 2)):
                for j in subset_indices(paths, "nlos"):
                    want, _ = _full_grid_scatterer(z, j, ue_xy, sc)
                    got = E._best_scatterer(z, j, ue_xy, sc, 1.0)
                    assert got.tobytes() == want.tobytes()
                    calls += 1
    assert calls >= 1000

    sc = scenario_preset("corner-1fe")
    z, _ = _obs(seed=1, scenario=sc)
    far = np.array([-30.0, 60.0])
    want, want_cost = _full_grid_scatterer(z, 1, far, sc)
    assert want_cost > E._JOINT_PRUNE
    fe = sc.fes[z.paths[1].fe_index]
    nodes = E._grid_nodes(E._scatterer_box(fe, float(z.dist[1]), far), 1.0)
    kept = E._bounce_terms(z, 1, nodes, np.array([fe.x, fe.y]),
                           E._JOINT_PRUNE)[0]
    assert not (kept == want).all(axis=1).any()
    bounds_tried.clear()
    got = E._best_scatterer(z, 1, far, sc, 1.0)
    assert got.tobytes() == want.tobytes()
    assert bounds_tried == [E._JOINT_PRUNE, np.inf]


def test_initial_particles_are_copies_of_seed():
    (z, theta), (z2, _) = _obs(seed=2), _obs(seed=3)
    theta2 = ParamVector.from_array(theta.to_array() + 0.5, Mode.NOREM)
    cfg = GapfConfig(n_particles=7)
    eng = LikelihoodEngine([z, z2], CORNER, Mode.NOREM)
    sets = initial_particles([theta, theta2], eng, cfg)
    from mmloc import log_likelihood
    for ps, th, zb in zip(sets, (theta, theta2), (z, z2)):
        assert ps.n_particles == 7
        np.testing.assert_array_equal(ps.states,
                                      np.tile(th.to_array(), (7, 1)))
        np.testing.assert_allclose(ps.weights, 1.0 / 7.0)
        assert ps.best_ll == log_likelihood(zb, th, CORNER)


# ---------------------------------------------------------------------------
# filter loop
# ---------------------------------------------------------------------------

def test_iterate_output_is_normalized():
    z, theta = _obs(seed=4)
    cfg = GapfConfig(n_particles=12)
    eng = LikelihoodEngine(z, CORNER, Mode.NOREM)
    [ps] = initial_particles([grid_init(z, z.paths, CORNER, cfg)], eng, cfg)
    [out] = gapf_iterate([ps], eng, cfg, [5], 0)
    assert out.weights.min() >= 0.0
    assert float(out.weights.sum()) == pytest.approx(1.0, abs=1e-12)
    assert out.iteration == 1


def test_best_ll_history_is_monotone():
    z, _ = _obs(seed=6)
    rep = estimate(z, CORNER, Mode.NOREM, GapfConfig(n_particles=20,
                                                     n_iterations=8), [1])
    hist = np.array(rep.best_ll_history)
    assert hist.size == 9
    assert (np.diff(hist) >= 0.0).all()
    assert rep.log_likelihood == hist[-1]


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_estimate_deterministic_under_seed(mode):
    z, _ = _obs(seed=8)
    cfg = GapfConfig(n_particles=16, n_iterations=5)
    a = estimate(z, CORNER, mode, cfg, [77])
    b = estimate(z, CORNER, mode, cfg, [77])
    np.testing.assert_array_equal(a.theta_hat.to_array(), b.theta_hat.to_array())
    assert a.log_likelihood == b.log_likelihood


@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_estimate_exact_on_noiseless_data(mode):
    z, theta = _obs()
    cfg = GapfConfig(n_particles=16, n_iterations=4)
    rep = estimate(z, CORNER, mode, cfg, [3])
    err = math.hypot(rep.theta_hat.ue.x - UE.x, rep.theta_hat.ue.y - UE.y)
    assert err < 1e-6
    if mode is Mode.NOREM:
        for s_hat, s_true in zip(rep.theta_hat.scatterers, theta.scatterers):
            assert math.hypot(s_hat.x - s_true.x, s_hat.y - s_true.y) < 1e-6


def test_estimate_zero_process_noise_runs():
    z, _ = _obs(seed=12)
    cfg = GapfConfig(n_particles=8, n_iterations=3, process_std_position=0.0)
    rep = estimate(z, CORNER, Mode.NOREM, cfg)
    assert np.isfinite(rep.log_likelihood)


BATCH_CFG = GapfConfig(n_particles=12, n_iterations=4)


def _trials(subset, n=8):
    """n trials synthesized at UE and their filter seeds, drawn the way
    mc_rmse draws them."""
    paths = enumerate_paths(CORNER, UE)
    sub = paths.subset(subset_indices(paths, subset))
    truth = ParamVector.truth_from_paths(UE, sub, Mode.NOREM)
    obs, seeds = [], []
    for i in range(n):
        synth_ss, est_seed = trial_seeds(3, i)
        obs.append(synthesize(truth, sub, CORNER,
                              np.random.default_rng(synth_ss)))
        seeds.append(est_seed)
    return obs, seeds


def _same_report(a, b):
    np.testing.assert_array_equal(a.theta_hat.to_array(),
                                  b.theta_hat.to_array())
    assert a.log_likelihood == b.log_likelihood
    assert a.best_ll_history == b.best_ll_history
    assert a.seed == b.seed


@pytest.mark.parametrize("subset", ["all", "nlos"])
@pytest.mark.parametrize("mode", [Mode.NOREM, Mode.REM])
def test_batched_estimates_match_lone_runs(mode, subset):
    """A trial's report is the same bits alone, in a batch of 8, and at
    another place in the batch."""
    obs, seeds = _trials(subset)
    alone = [estimate(z, CORNER, mode, BATCH_CFG, [s])
             for z, s in zip(obs, seeds)]
    batch = estimate(obs, CORNER, mode, BATCH_CFG, seeds)
    moved = estimate(obs[::-1], CORNER, mode, BATCH_CFG, seeds[::-1])[::-1]
    for a, b, c in zip(alone, batch, moved):
        _same_report(a, b)
        _same_report(a, c)


def test_failed_grid_init_drops_only_its_trial(monkeypatch):
    obs, seeds = _trials("all", 6)
    want = estimate(obs[:2] + obs[3:], CORNER, Mode.NOREM, BATCH_CFG,
                    seeds[:2] + seeds[3:])
    grid = E.grid_init

    def failing(z, *args, **kwargs):
        if z is obs[2]:
            raise DegenerateGeometry("injected")
        return grid(z, *args, **kwargs)

    monkeypatch.setattr(E, "grid_init", failing)
    got = estimate(obs, CORNER, Mode.NOREM, BATCH_CFG, seeds)
    assert isinstance(got[2], DegenerateGeometry)
    for a, b in zip(got[:2] + got[3:], want):
        _same_report(a, b)
    with pytest.raises(DegenerateGeometry):
        estimate(obs[2], CORNER, Mode.NOREM, BATCH_CFG)
    assert estimate([], CORNER, Mode.NOREM, BATCH_CFG) == []


def test_estimate_insufficient_paths_raises():
    z, _ = _obs(seed=1)
    with pytest.raises(InsufficientPaths):
        estimate(z.subset([1]), CORNER, Mode.NOREM, GapfConfig())
