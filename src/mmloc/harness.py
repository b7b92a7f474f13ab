"""Experiment drivers: Monte-Carlo estimator runs, angular-noise sweeps,
CDF curves over UE grids, bound fields, and scatterer-map construction.

Monte-Carlo trials and map points are one kind of trial, run by one
runner (_run_range): trial i synthesizes at its UE from one integer seed,
through SeedSequence(seed, spawn_key=(i,)) split once for the synthesizer
and once for the estimator, and trials of one path set are filtered in
batches (see estimator.estimate), where a trial's estimate is the same
bits in any batch.  So results do not depend on the worker count,
scheduling or batch composition, and nor do the failure causes counted.
"""
from __future__ import annotations

import csv
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from .bounds import CrbField, GridSpec, crb_grid, rmse_crb, \
    rmse_crb_distance_only
from .errors import AllTrialsFailed, EmptyResult, MmlocError
from .estimator import GapfConfig, check_sufficiency, estimate
from .geometry import (PathKind, PathSet, Point2, ReflectiveSide, Scenario,
                       Wall, WallAxis, enumerate_paths)
from .measurement import (Mode, NoiseProfile, ParamVector,
                          noise_profile_preset, noiseless_observation,
                          synthesize)

_BATCH_ROWS = 1 << 12  # (trial, particle) filter rows per chunk of trials

# --------------------------------------------------------------------------
# canonical scenes
# --------------------------------------------------------------------------

SCENARIO_NAMES = ("canyon-1fe", "canyon-2fe", "corner-1fe", "corner-2fe")

_CANYON_WALLS = (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
                 Wall(WallAxis.VERTICAL, 20.0, ReflectiveSide.NEGATIVE))
_CORNER_WALLS = (Wall(WallAxis.VERTICAL, 0.0, ReflectiveSide.POSITIVE),
                 Wall(WallAxis.HORIZONTAL, 0.0, ReflectiveSide.POSITIVE))
_FES = {
    "canyon-1fe": (Point2(-1.0, 2.0),),
    "canyon-2fe": (Point2(-1.0, 2.0), Point2(21.0, 48.0)),
    "corner-1fe": (Point2(18.0, 10.0),),
    "corner-2fe": (Point2(18.0, 10.0), Point2(18.0, 48.0)),
}

# representative receiver positions used by the bundled experiments
EXAMPLE_UES = {
    "canyon-1fe": Point2(10.0, 40.0),
    "canyon-2fe": Point2(10.0, 40.0),
    "corner-1fe": Point2(15.0, 15.0),
    "corner-2fe": Point2(8.0, 35.0),
}

# the beamwidth sweep's geometry: corner scene, single FE, UE at (8, 35)
SWEEP_UE = Point2(8.0, 35.0)


def scenario_preset(name: str, profile="73GHz") -> Scenario:
    if name not in _FES:
        raise KeyError(f"unknown scenario {name!r}; known: {SCENARIO_NAMES}")
    if isinstance(profile, str):
        profile = noise_profile_preset(profile)
    walls = _CANYON_WALLS if name.startswith("canyon") else _CORNER_WALLS
    return Scenario(walls, _FES[name], profile, name=name)


def grid_preset(name: str) -> GridSpec:
    """One-meter UE grid over the street interior; the same rectangle for
    every scene so CDF comparisons are over matched node sets."""
    if name not in _FES:
        raise KeyError(f"unknown scenario {name!r}; known: {SCENARIO_NAMES}")
    return GridSpec(0.5, 19.5, 0.5, 49.5, 1.0)


def trajectory_preset(name: str, n_points: int = 20) -> tuple[Point2, ...]:
    """Receiver tracks used for map building: down the canyon street
    center, or a diagonal cut across the corner's visible region."""
    t = np.linspace(0.0, 1.0, n_points)
    if name.startswith("canyon"):
        pts = np.column_stack([np.full(n_points, 10.0), 5.0 + 40.0 * t])
    elif name.startswith("corner"):
        pts = np.column_stack([5.0 + 30.0 * t, 45.0 - 40.0 * t])
    else:
        raise KeyError(f"unknown scenario {name!r}; known: {SCENARIO_NAMES}")
    return tuple(Point2(float(x), float(y)) for x, y in pts)


# --------------------------------------------------------------------------
# result containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class McResult:
    """Monte-Carlo RMSE against the bound.  failure_causes counts the
    failed trials by exception type name."""

    rmse_est: float
    rmse_crb: float
    n_trials: int
    failures: int
    seed: int
    failure_causes: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.failures > self.n_trials:
            raise ValueError("more failures than trials")
        if self.failure_causes and \
                sum(self.failure_causes.values()) != self.failures:
            raise ValueError("failure causes must add up to the failures")


@dataclass(eq=False)
class SweepResult:
    """Bound (and optionally Monte-Carlo) RMSE per angular-noise value.

    crb/mc map (subset-name, mode-name) to arrays aligned with
    sigma_angle_values; mc is empty unless trials were requested.
    distance_only holds the known-scatterer distance-only floor per subset.
    """

    sigma_angle_values: tuple[float, ...]  # radians
    crb: dict
    mc: dict
    distance_only: dict
    ue: Point2


@dataclass
class RemMap:
    """Scatterer positions recovered along a trajectory, each with the
    trajectory point and measured path parameters that produced it.
    failures holds the indices of the trajectory points that failed, and
    failure_causes counts them by exception type name."""

    estimated_scatterers: list
    source: list        # (trajectory Point2, path index in that point's path set)
    parameters: list    # measured (alpha, beta, d) per entry
    failures: tuple = ()
    failure_causes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.estimated_scatterers) == len(self.source)
                == len(self.parameters)):
            raise ValueError("map columns must align")
        if self.failure_causes and \
                sum(self.failure_causes.values()) != len(self.failures):
            raise ValueError("failure causes must add up to the failures")


# --------------------------------------------------------------------------
# Monte-Carlo machinery
# --------------------------------------------------------------------------

def rmse_from_estimates(p_true: Point2,
                        estimates: Sequence[tuple[float, float]]) -> float:
    """Root mean squared position error over a batch of estimates."""
    arr = np.asarray(estimates, dtype=float)
    if arr.size == 0:
        raise ValueError("no estimates")
    d2 = (arr[:, 0] - p_true.x) ** 2 + (arr[:, 1] - p_true.y) ** 2
    return float(np.sqrt(np.mean(d2)))


def trial_seeds(seed: int, index: int) -> tuple[np.random.SeedSequence, int]:
    """The synthesizer's seed sequence and the estimator's integer seed for
    trial (or map point) index of an experiment seeded with seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    synth, est = ss.spawn(2)
    return synth, int(est.generate_state(1)[0])


def subset_indices(paths: PathSet, name: str) -> list[int]:
    if name == "all":
        return list(range(paths.n_paths))
    if name == "los":
        return [i for i, p in enumerate(paths) if p.kind is PathKind.LOS]
    if name == "nlos":
        return [i for i, p in enumerate(paths) if p.kind is PathKind.NLOS]
    raise KeyError(f"unknown path subset {name!r}; known: all, los, nlos")


def _run_all(fn, items: Sequence, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _trial_chunks(n_trials: int, n_particles: int,
                  workers: int) -> list[range]:
    """Contiguous trial ranges of at most _BATCH_ROWS filter rows each;
    with workers > 1, split at least workers ways when there are that
    many trials."""
    size = max(1, _BATCH_ROWS // n_particles)
    if workers > 1:
        size = min(size, -(-n_trials // workers))
    return [range(a, min(a + size, n_trials))
            for a in range(0, n_trials, size)]


def _ue_estimate(obs, rep) -> tuple[float, float]:
    return rep.theta_hat.ue.x, rep.theta_hat.ue.y


def _map_entries(obs, rep) -> list:
    """(bounce point, path index, measured (alpha, beta, d)) per NLOS path."""
    return [(s, j, (float(obs.alpha[j]), float(obs.beta[j]),
                    float(obs.dist[j])))
            for j, s in enumerate(rep.theta_hat.scatterers, obs.paths.n_los)]


def _run_range(scenario, ues, mode, cfg, seed, keep, subset, noiseless,
               indices: range) -> list:
    """Runs the trials indices of an experiment: trial i synthesizes at
    ues[i] over the subset's paths from trial_seeds(seed, i), and each
    stretch of consecutive trials of one path set is filtered as one batch
    (see estimator.estimate).  Gives per trial keep(observation, report),
    or the type name of the MmlocError that failed it."""
    out: list = [None] * len(indices)
    trials, known = [], {}  # known: UE -> (paths, truth); MC has one UE
    for k, i in enumerate(indices):
        synth_ss, est_seed = trial_seeds(seed, i)
        try:
            if ues[i] not in known:
                paths = enumerate_paths(scenario, ues[i])
                paths = paths.subset(subset_indices(paths, subset))
                known[ues[i]] = paths, ParamVector.truth_from_paths(
                    ues[i], paths, Mode.NOREM)
            paths, truth = known[ues[i]]
            obs = noiseless_observation(truth, paths, scenario) \
                if noiseless else synthesize(truth, paths, scenario,
                                             np.random.default_rng(synth_ss))
        except MmlocError as err:
            out[k] = type(err).__name__
            continue
        trials.append((k, obs, est_seed))
    for _, run in groupby(trials, key=lambda t: t[1].paths):
        at, batch, seeds = zip(*run)
        try:
            reports = estimate(batch, scenario, mode, cfg, seeds)
        except MmlocError as err:  # shared by every trial of the batch
            reports = [err] * len(batch)
        for k, obs, rep in zip(at, batch, reports):
            out[k] = type(rep).__name__ if isinstance(rep, MmlocError) \
                else keep(obs, rep)
    return out


def _run_trials(scenario, ues, mode, cfg, seed, keep, workers, noun,
                subset="all", noiseless=False) -> tuple[list, dict]:
    """Every trial's outcome (see _run_range), in order, run in contiguous
    chunks (see _trial_chunks), and the failures counted by cause;
    AllTrialsFailed if every trial failed."""
    runner = partial(_run_range, scenario, tuple(ues), mode, cfg, seed, keep,
                     subset, noiseless)
    chunks = _trial_chunks(len(ues), cfg.n_particles, workers)
    outcomes = [o for part in _run_all(runner, chunks, workers) for o in part]
    failed = [o for o in outcomes if isinstance(o, str)]
    causes = dict(sorted(Counter(failed).items()))
    if failed and len(failed) == len(outcomes):
        raise AllTrialsFailed(f"all {len(outcomes)} {noun} failed: {causes}")
    return outcomes, causes


def mc_rmse(scenario: Scenario, ue: Point2, mode: Mode, cfg: GapfConfig,
            n_trials: int, seed: int, workers: int = 1,
            subset: str = "all", noiseless: bool = False) -> McResult:
    """n_trials independent synthesize-and-estimate rounds at a fixed UE.

    Trials that raise are counted as failures, by cause, and excluded
    from the RMSE; the matching position CRB is attached for comparison.
    The trials run in contiguous batches through one filter each (see
    _trial_chunks); the result does not depend on the batching.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    paths = enumerate_paths(scenario, ue)
    paths = paths.subset(subset_indices(paths, subset))
    check_sufficiency(paths, mode)
    crb = rmse_crb(ue, paths, scenario, mode)
    outcomes, causes = _run_trials(scenario, (ue,) * n_trials, mode, cfg,
                                   seed, _ue_estimate, workers, "trials",
                                   subset, noiseless)
    hits = [o for o in outcomes if not isinstance(o, str)]
    return McResult(rmse_from_estimates(ue, hits), crb, n_trials,
                    n_trials - len(hits), seed, causes)


# --------------------------------------------------------------------------
# sweeps, CDFs, fields, maps
# --------------------------------------------------------------------------

def _with_profile(scenario: Scenario, profile: NoiseProfile) -> Scenario:
    return replace(scenario, noise_profile=profile)


def beamwidth_sweep(scenario: Scenario, ue: Point2,
                    sigma_list: Sequence[float],
                    subsets: Sequence[str] = ("all", "los", "nlos"),
                    modes: Sequence[Mode] = (Mode.NOREM, Mode.REM),
                    cfg: Optional[GapfConfig] = None,
                    n_trials: int = 0, seed: int = 0, sigma_d: float = 0.75,
                    workers: int = 1) -> SweepResult:
    """CRB (and with n_trials > 0, Monte-Carlo) RMSE as the four angular
    noise sigmas sweep together, per path subset and mode.

    sigma_list is in radians.  Cells whose bound is singular (for example
    a lone NLOS path without a map) come back NaN.
    """
    sigmas = tuple(float(s) for s in sigma_list)
    paths = enumerate_paths(scenario, ue)
    crb: dict = {}
    mc: dict = {}
    dist_only: dict = {}
    for name in subsets:
        idx = subset_indices(paths, name)
        if not idx:
            continue
        sub = paths.subset(idx)
        try:
            # the floor ignores the angle rows, so any angle sigma works;
            # what matters is using the swept distance sigma
            dist_only[name] = rmse_crb_distance_only(ue, sub, _with_profile(
                scenario, NoiseProfile.equal_angles(1.0, sigma_d)))
        except MmlocError:
            dist_only[name] = float("nan")
        for mode in modes:
            key = (name, mode.value)
            vals = np.full(len(sigmas), np.nan)
            mcs = np.full(len(sigmas), np.nan)
            for k, s in enumerate(sigmas):
                prof = NoiseProfile.equal_angles(math.degrees(s), sigma_d)
                sc = _with_profile(scenario, prof)
                try:
                    vals[k] = rmse_crb(ue, sub, sc, mode)
                except MmlocError:
                    continue
                if n_trials > 0:
                    res = mc_rmse(sc, ue, mode, cfg or GapfConfig(),
                                  n_trials, seed + k, workers=workers,
                                  subset=name)
                    mcs[k] = res.rmse_est
            crb[key] = vals
            if n_trials > 0:
                mc[key] = mcs
    return SweepResult(sigmas, crb, mc, dist_only, ue)


def cdf_curve(scenario: Scenario, ue_grid: GridSpec,
              profiles: Sequence[NoiseProfile],
              modes: Sequence[Mode]) -> dict:
    """Empirical CDFs of the position bound over the grid's valid nodes.

    Returns {(profile-label, mode-name): array of (rmse, probability)
    rows, rmse ascending}.  Raises EmptyResult, naming the curves, if any
    curve has no valid node.
    """
    out = {}
    for prof in profiles:
        sc = _with_profile(scenario, prof)
        for mode in modes:
            field = crb_grid(sc, ue_grid, mode)
            vals = np.sort(field.valid_values())
            probs = np.arange(1, vals.size + 1) / vals.size
            out[(prof.label, mode.value)] = np.column_stack([vals, probs])
    empty = [f"{p}:{m}" for (p, m), curve in sorted(out.items())
             if not len(curve)]
    if empty:
        raise EmptyResult(f"no valid grid node for curves {', '.join(empty)}")
    return out


def build_rem_map(scenario: Scenario, trajectory: Sequence[Point2],
                  cfg: GapfConfig, seed: int, workers: int = 1) -> RemMap:
    """Estimate (NoREM) at every trajectory point and collect the bounce
    points with the measured parameters that located them.  Point i is
    trial i of the seed (see _run_range); points that raise are counted
    by cause, and AllTrialsFailed if every point raises."""
    outcomes, causes = _run_trials(scenario, trajectory, Mode.NOREM, cfg,
                                   seed, _map_entries, workers, "map points")
    scatterers, source, params = [], [], []
    for ue, entries in zip(trajectory, outcomes):
        for s, j, meas in () if isinstance(entries, str) else entries:
            scatterers.append(s)
            source.append((ue, j))
            params.append(meas)
    failures = tuple(i for i, o in enumerate(outcomes) if isinstance(o, str))
    return RemMap(scatterers, source, params, failures, causes)


# --------------------------------------------------------------------------
# CSV emitters
# --------------------------------------------------------------------------

def fmt_value(v: float) -> str:
    """A number as CSV text: 12 significant digits."""
    return format(float(v), ".12g")


def write_rows(path, header, rows) -> None:
    """A CSV file of the header row, then the rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_sweep_csv(path, sweep: SweepResult) -> None:
    """Rows: sigma_deg, curve, rmse.  Curve ids are subset:mode:kind with
    kind crb|mc, plus subset:distance-only reference rows at every sigma."""
    rows = []
    for key, vals in sorted(sweep.crb.items()):
        for s, v in zip(sweep.sigma_angle_values, vals):
            rows.append([fmt_value(math.degrees(s)),
                         f"{key[0]}:{key[1]}:crb", fmt_value(v)])
    for key, vals in sorted(sweep.mc.items()):
        for s, v in zip(sweep.sigma_angle_values, vals):
            rows.append([fmt_value(math.degrees(s)),
                         f"{key[0]}:{key[1]}:mc", fmt_value(v)])
    for name, v in sorted(sweep.distance_only.items()):
        for s in sweep.sigma_angle_values:
            rows.append([fmt_value(math.degrees(s)),
                         f"{name}:distance-only", fmt_value(v)])
    write_rows(path, ["sigma_deg", "curve", "rmse"], rows)


def write_cdf_csv(path, curves: dict) -> None:
    """Rows: curve, rmse, prob."""
    rows = []
    for key in sorted(curves):
        label = f"{key[0]}:{key[1]}"
        for rmse, prob in curves[key]:
            rows.append([label, fmt_value(rmse), fmt_value(prob)])
    write_rows(path, ["curve", "rmse", "prob"], rows)


def write_field_csv(path, field: CrbField) -> None:
    """Rows: x, y, value; NaN marks unevaluated nodes."""
    rows = []
    for i, x in enumerate(field.xs):
        for j, y in enumerate(field.ys):
            rows.append([fmt_value(x), fmt_value(y),
                         fmt_value(field.values[i, j])])
    write_rows(path, ["x", "y", "value"], rows)


def write_remmap_csv(path, remmap: RemMap) -> None:
    """Rows: x, y, ue_x, ue_y, alpha, beta, d."""
    rows = []
    for s, (ue, _), (alpha, beta, d) in zip(remmap.estimated_scatterers,
                                            remmap.source,
                                            remmap.parameters):
        rows.append([fmt_value(s.x), fmt_value(s.y), fmt_value(ue.x),
                     fmt_value(ue.y), fmt_value(alpha), fmt_value(beta),
                     fmt_value(d)])
    write_rows(path, ["x", "y", "ue_x", "ue_y", "alpha", "beta", "d"], rows)
