"""Maximum-likelihood estimation via a gradient-assisted particle filter.

The pipeline is: a staged coarse grid search seeds a particle set; each
iteration resamples, spreads particles with annealed Gaussian process
noise, locally refines every particle with damped least squares on the
whitened wrapped residuals, and re-weights by likelihood.  The reported
estimate is the best particle over all iterations.

Observations of one path set (the trials of a Monte-Carlo run) are
filtered as one batch: each keeps its own grid init and random streams,
while every filter pass refines all their particles in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateGeometry, InsufficientPaths, MmlocError
from .geometry import (PathKind, PathSet, Point2, ReflectiveSide, Scenario,
                       WallAxis)
from .likelihood import LikelihoodEngine
from .measurement import Mode, Observation, ParamVector, wrap

_GRID_EPS = 1e-9
_LAMBDA_INIT = 1e-3
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e10
_GRAD_TOL = 1e-10  # whitened-gradient sup-norm at which a row counts as stationary
_SEARCH_PAD = 3.0  # meters added to measured distances when boxing searches
_JOINT_PRUNE = 50.0  # joint-grid cost past which a bounce node cannot win
_JOINT_SEEDS = 8  # ray-seeded UE nodes scored exactly to bound the joint grid
_JOINT_CHUNK = 1 << 16  # (UE node, bounce node) pairs scored per array pass
_MAX_GRID_NODES = 1 << 20  # 27x the largest preset search box (38,416)


@dataclass(frozen=True)
class GapfConfig:
    """Tuning knobs of the estimator.

    lm_tolerance (meters) ends a row's refinement after an accepted step
    shorter than it; it is one of the five ways a row stops (see
    _lm_refine_batch).  At 1e-9 m it sits below what the cost can
    resolve, so most rows end earlier, when their step predicts a
    decrease under the cost's rounding floor.  n_particles, n_iterations
    and lm_max_iters must be integers.
    """

    n_particles: int = 50
    n_iterations: int = 20
    process_std_position: float = 2.0
    anneal_factor: float = 0.9
    lm_max_iters: int = 30
    lm_tolerance: float = 1e-9
    grid_spacing: float = 1.0

    def __post_init__(self):
        for name in ("n_particles", "n_iterations", "lm_max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")
        if not 0.0 < self.anneal_factor <= 1.0:
            raise ValueError("anneal_factor must be in (0, 1]")
        if self.grid_spacing <= 0.0:
            raise ValueError("grid_spacing must be > 0")
        if self.process_std_position < 0.0:
            raise ValueError("process_std_position must be >= 0")
        if self.lm_max_iters < 0 or self.lm_tolerance <= 0.0:
            raise ValueError("bad LM settings")


@dataclass(eq=False)
class ParticleSet:
    """Particle states as rows of a flat parameter array.

    best_state/best_ll track the highest-likelihood particle seen over all
    iterations so far, not just the current population.
    """

    states: np.ndarray   # (n_particles, dim)
    weights: np.ndarray  # (n_particles,)
    best_state: np.ndarray
    best_ll: float
    mode: Mode
    iteration: int = 0

    def __post_init__(self):
        if self.states.ndim != 2 or self.weights.shape != (self.states.shape[0],):
            raise ValueError("states must be (n, dim) with one weight per row")
        if np.any(self.weights < 0.0) or abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def best(self) -> tuple[ParamVector, float]:
        return ParamVector.from_array(self.best_state, self.mode), self.best_ll


@dataclass(frozen=True)
class EstimateReport:
    theta_hat: ParamVector
    log_likelihood: float
    iterations_run: int
    seed: int
    mode: Mode
    best_ll_history: tuple[float, ...] = field(default=(), repr=False)


def check_sufficiency(paths: PathSet, mode: Mode = Mode.NOREM) -> None:
    """The UE is identifiable from one LOS path or from two NLOS paths; in
    REM, where every bounce point is known, from any one path."""
    if mode is Mode.NOREM and paths.n_los == 0 and paths.n_nlos < 2:
        raise InsufficientPaths(
            f"{paths.n_los} LOS / {paths.n_nlos} NLOS paths cannot localize "
            f"the UE in {mode.value}")


# --------------------------------------------------------------------------
# damped least-squares refinement
# --------------------------------------------------------------------------

def _solve_rows(damped: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each row's damped system solved on its own, with the pseudo-inverse
    only where that row's own solve fails, so one singular system cannot
    change the other rows' steps.  A row whose pseudo-inverse fails too
    gets a non-finite step, which the caller rejects."""
    step = np.empty_like(g)
    for k in range(len(g)):
        try:
            step[k] = np.linalg.solve(damped[k], g[k, :, None])[:, 0]
        except np.linalg.LinAlgError:
            try:
                step[k] = np.linalg.pinv(damped[k]) @ g[k]
            except np.linalg.LinAlgError:
                step[k] = np.nan
    return step


def _normal_equations(eng: LikelihoodEngine, x: np.ndarray, obs: np.ndarray):
    """(J^T J, J^T r, cost, valid) of the whitened problem at each row."""
    r, J, cost, ok = eng.linearize(x, obs)
    Jt = J.transpose(0, 2, 1)
    return Jt @ J, (Jt @ r[:, :, None])[:, :, 0], cost, ok


def _lm_refine_batch(eng: LikelihoodEngine, thetas: np.ndarray,
                     cfg: GapfConfig,
                     obs: Optional[np.ndarray] = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Refine each parameter row; only cost-decreasing steps are accepted,
    so the log-likelihood of every row is non-decreasing.  Rows that start
    degenerate are returned unchanged with +inf cost.  obs is each row's
    observation index in eng (default: its only observation).  Every row
    keeps its own damping and stopping state, so a row's result does not
    depend on the other rows.

    A row's normal equations are formed when it is linearized, at the start
    and after each accepted step it does not stop on; a rejected step only
    raises the row's damping.

    A row stops when
    - its whitened gradient is flat (sup-norm below _GRAD_TOL);
    - its damped step s predicts a decrease the cost cannot resolve,
      g.s <= m * eps * cost with g = J^T r and m residuals (m * eps bounds
      the rounding of a sum of m squares): the row keeps its state and
      cost and s is not evaluated;
    - it accepts a step shorter than cfg.lm_tolerance;
    - its damping passes _LAMBDA_MAX after a rejected step;
    - or cfg.lm_max_iters passes have run.
    lm_tolerance (1e-9 m) lies below what the cost resolves, so the
    rounding-floor test is what ends most rows.

    Returns (states, cost) with cost = -(log_likelihood - log_norm)."""
    x = np.array(thetas, dtype=float)
    n, dim = x.shape
    obs = np.zeros(n, dtype=int) if obs is None else np.asarray(obs)
    A, g, cost, ok = _normal_equations(eng, x, obs)
    lam = np.full(n, _LAMBDA_INIT)
    active = ok.copy()
    ii = np.arange(dim)
    floor = eng.m * np.finfo(float).eps  # summation error bound of the cost
    for _ in range(cfg.lm_max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        # stationary rows are done regardless of damping state
        flat = np.max(np.abs(g[idx]), axis=1) < _GRAD_TOL
        if flat.any():
            active[idx[flat]] = False
            idx = idx[~flat]
            if idx.size == 0:
                continue
        damped = A[idx]
        diag = damped[:, ii, ii]
        damped[:, ii, ii] = diag + lam[idx, None] * np.maximum(diag, 1e-12)
        try:
            step = np.linalg.solve(damped, g[idx, :, None])[..., 0]
        except np.linalg.LinAlgError:
            step = _solve_rows(damped, g[idx])
        # a step whose predicted decrease is below the cost's rounding
        # floor cannot be told from noise: the row has settled
        settled = np.einsum("ij,ij->i", step, g[idx]) <= floor * cost[idx]
        if settled.any():
            active[idx[settled]] = False
            idx, step = idx[~settled], step[~settled]
            if idx.size == 0:
                continue
        step_ok = np.all(np.isfinite(step), axis=1)
        cand = x[idx] + np.where(step_ok[:, None], step, 0.0)
        cand_cost, _ = eng.cost_valid(cand, obs[idx])
        cand_cost = np.where(step_ok, cand_cost, np.inf)
        improved = cand_cost < cost[idx]
        acc = idx[improved]
        if acc.size:
            x[acc] = cand[improved]
            cost[acc] = cand_cost[improved]
            lam[acc] = np.maximum(lam[acc] / 10.0, _LAMBDA_MIN)
            small = np.linalg.norm(step[improved], axis=1) < cfg.lm_tolerance
            active[acc[small]] = False
            live = acc[~small]
            if live.size:
                A[live], g[live], _, _ = _normal_equations(eng, x[live],
                                                           obs[live])
        rej = idx[~improved]
        lam[rej] *= 10.0
        active[rej[lam[rej] > _LAMBDA_MAX]] = False
    return x, cost


def lm_refine(z: Observation, theta0: ParamVector, scenario: Scenario,
              cfg: GapfConfig) -> ParamVector:
    """Local likelihood ascent from theta0 (damped least squares)."""
    eng = LikelihoodEngine(z, scenario, theta0.mode)
    arr = theta0.to_array()[None, :]
    if not eng.valid(arr)[0]:
        raise DegenerateGeometry("lm_refine started at a degenerate configuration")
    out, _ = _lm_refine_batch(eng, arr, cfg)
    return ParamVector.from_array(out[0], theta0.mode)


# --------------------------------------------------------------------------
# staged grid initialization
# --------------------------------------------------------------------------

def _axis_span(lo: float, hi: float, spacing: float) -> tuple[float, int]:
    """First node and node count of lo + k * spacing up to hi; a reversed
    pair is swapped."""
    if hi < lo:
        lo, hi = hi, lo
    return lo, max(int(math.floor((hi - lo) / spacing + _GRID_EPS)), 0) + 1


def _grid_axis(lo: float, hi: float, spacing: float) -> np.ndarray:
    lo, n = _axis_span(lo, hi, spacing)
    return lo + spacing * np.arange(n)


def _grid_nodes(box: tuple[float, float, float, float],
                spacing: float) -> np.ndarray:
    """Every node of the box; DegenerateGeometry, before anything is
    allocated, if there are more than _MAX_GRID_NODES."""
    (x0, nx), (y0, ny) = (_axis_span(box[0], box[1], spacing),
                          _axis_span(box[2], box[3], spacing))
    if nx * ny > _MAX_GRID_NODES:
        raise DegenerateGeometry(f"a {nx} x {ny} node search box exceeds "
                                 f"{_MAX_GRID_NODES} nodes")
    gx, gy = np.meshgrid(x0 + spacing * np.arange(nx),
                         y0 + spacing * np.arange(ny), indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def default_search_box(z: Observation, scenario: Scenario,
                       cfg: GapfConfig) -> tuple[float, float, float, float]:
    """UE search rectangle implied by the measured distances.

    Every path's total length bounds the UE to a square around its FE of
    half-width d'; the box is the intersection of those squares and the
    walls' reflective half-planes (with a half-spacing margin off walls).
    If distance noise squeezes that shut, the bounding box of the union of
    the squares is clipped the same way instead; DegenerateGeometry if
    that is empty too.
    """
    los, his = [], []
    for j, path in enumerate(z.paths):
        fe = scenario.fes[path.fe_index]
        half = float(z.dist[j]) + _SEARCH_PAD
        los.append((fe.x - half, fe.y - half))
        his.append((fe.x + half, fe.y + half))
    margin = 0.5 * cfg.grid_spacing

    def clipped(x0, x1, y0, y1):
        for w in scenario.walls:
            lo_is_cut = w.reflective_side is ReflectiveSide.POSITIVE
            if w.axis is WallAxis.VERTICAL:
                if lo_is_cut:
                    x0 = max(x0, w.offset + margin)
                else:
                    x1 = min(x1, w.offset - margin)
            else:
                if lo_is_cut:
                    y0 = max(y0, w.offset + margin)
                else:
                    y1 = min(y1, w.offset - margin)
        return (x0, x1, y0, y1) if x0 < x1 and y0 < y1 else None

    box = clipped(max(v[0] for v in los), min(v[0] for v in his),
                  max(v[1] for v in los), min(v[1] for v in his))
    if box is None:
        box = clipped(min(v[0] for v in los), max(v[0] for v in his),
                      min(v[1] for v in los), max(v[1] for v in his))
    if box is None:
        raise DegenerateGeometry(
            "every measured-distance square lies behind a wall")
    return box


def _scatterer_box(fe: Point2, d_meas: float,
                   ue_xy: Optional[np.ndarray] = None):
    half = d_meas + _SEARCH_PAD
    x0, x1 = fe.x - half, fe.x + half
    y0, y1 = fe.y - half, fe.y + half
    if ue_xy is not None:
        x0 = max(x0, float(ue_xy[0]) - half)
        x1 = min(x1, float(ue_xy[0]) + half)
        y0 = max(y0, float(ue_xy[1]) - half)
        y1 = min(y1, float(ue_xy[1]) + half)
    return (x0, x1, y0, y1)


def _best_scatterer(z: Observation, j: int, ue_xy: np.ndarray,
                    scenario: Scenario, spacing: float) -> np.ndarray:
    """2D grid argmin of path j's term with the UE held fixed.

    Only the bounce nodes within _JOINT_PRUNE (see _bounce_terms) are
    scored.  A node's lower bound never exceeds its cost and the survivors
    keep their order, so a survivor that scores within the bound is the
    first minimum over all nodes; otherwise the nodes are scored again
    without the bound."""
    fe = scenario.fes[z.paths[j].fe_index]
    fe_xy = np.array([fe.x, fe.y])
    nodes = _grid_nodes(_scatterer_box(fe, float(z.dist[j]), ue_xy), spacing)
    for bound in (_JOINT_PRUNE, np.inf):
        s_nodes, cost_s, leg_fe, ok_s = _bounce_terms(z, j, nodes, fe_xy,
                                                      bound)
        cost = _pair_costs(z, j, ue_xy[None, :], s_nodes, cost_s, leg_fe,
                           ok_s)[0]
        k = int(np.argmin(cost))
        if cost[k] <= bound:
            break
    return s_nodes[k]


def _bounce_terms(z: Observation, j: int, s_nodes: np.ndarray,
                  fe_xy: np.ndarray, bound: float):
    """The bounce nodes of path j that can score within bound for some UE
    node, with the parts of the path's term that depend on the bounce node
    alone: the departure-angle term and the FE leg.

    The total distance is at least the FE leg, so the departure term plus
    the distance term's value at the FE leg lower bounds the node's cost
    for every UE; nodes past bound cannot reach it.  If no node is within
    bound, every node is returned."""
    n = z.paths.n_paths
    var = z.covariance_diag
    f = s_nodes - fe_xy
    f2 = np.einsum("ij,ij->i", f, f)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.arctan2(f[:, 0], f[:, 1])
    leg_fe = np.sqrt(f2)
    cost_s = wrap(z.beta[j] - beta) ** 2 / var[n + j]
    ok_s = f2 > 1e-18
    zd, vd = float(z.dist[j]), var[2 * n + j]
    floor_d = np.where(leg_fe > zd, (leg_fe - zd) ** 2 / vd, 0.0)
    keep = ok_s & (cost_s + floor_d <= bound)
    if keep.any():
        return s_nodes[keep], cost_s[keep], leg_fe[keep], ok_s[keep]
    return s_nodes, cost_s, leg_fe, ok_s


def _pair_costs(z: Observation, j: int, ue_nodes: np.ndarray,
                s_nodes: np.ndarray, cost_s: np.ndarray, leg_fe: np.ndarray,
                ok_s: np.ndarray) -> np.ndarray:
    """Path j's term at every (UE node, bounce node) pair, shape
    (len(ue_nodes), len(s_nodes)), +inf where either leg vanishes.  The
    bounce nodes come with their own parts from _bounce_terms; only the
    arrival angle and the total distance vary with the UE."""
    n = z.paths.n_paths
    va, vd = z.covariance_diag[j], z.covariance_diag[2 * n + j]
    za, zd = float(z.alpha[j]), float(z.dist[j])
    e = s_nodes[None, :, :] - ue_nodes[:, None, :]
    e2 = np.einsum("...i,...i->...", e, e)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = np.arctan2(e[..., 0], e[..., 1])
    d = np.sqrt(e2) + leg_fe[None, :]
    cost = (wrap(za - alpha) ** 2 / va + (zd - d) ** 2 / vd
            + cost_s[None, :])
    return np.where(ok_s[None, :] & (e2 > 1e-18), cost, np.inf)


def _joint_min_cost(z: Observation, j: int, ue_nodes: np.ndarray,
                    s_nodes: np.ndarray, fe_xy: np.ndarray,
                    bound: float = _JOINT_PRUNE) -> np.ndarray:
    """min over s_nodes of path j's term, per UE node, skipping the bounce
    nodes that cannot score within bound (see _bounce_terms)."""
    s_nodes, cost_s, leg_fe, ok_s = _bounce_terms(z, j, s_nodes, fe_xy,
                                                  bound)
    best = np.empty(len(ue_nodes))
    # a fixed pair budget per pass, not a fixed row count: how many bounce
    # nodes survive the bound varies by observation, and peak memory with it
    rows = max(1, _JOINT_CHUNK // max(1, len(s_nodes)))
    for a in range(0, len(ue_nodes), rows):
        # cost stays bound until the next chunk's block is made: freed at
        # once, the allocator hands the heap's top back to the system and
        # every chunk faults its pages in anew (4 to 8 times the page faults)
        cost = _pair_costs(z, j, ue_nodes[a:a + rows], s_nodes, cost_s,
                           leg_fe, ok_s)
        best[a:a + rows] = cost.min(axis=1)
    return best


def _ray_seed_cost(z: Observation, j: int, ue_nodes: np.ndarray,
                   fe_xy: np.ndarray) -> np.ndarray:
    """Path j's term at the bounce point seeded in closed form, per UE node.

    The ray from the UE node at the measured arrival bearing meets the ray
    from the FE at the measured departure bearing where both angle terms
    vanish, so the term there is its distance term alone.  +inf where the
    rays are parallel or meet behind either end."""
    n = z.paths.n_paths
    ax, ay = math.sin(z.alpha[j]), math.cos(z.alpha[j])
    bx, by = math.sin(z.beta[j]), math.cos(z.beta[j])
    det = ay * bx - ax * by
    if abs(det) < 1e-12:
        return np.full(len(ue_nodes), np.inf)
    # ue + t (ax, ay) == fe + r (bx, by), solved for t and r
    w = fe_xy - ue_nodes
    t = (w[:, 1] * bx - w[:, 0] * by) / det
    r = (ax * w[:, 1] - ay * w[:, 0]) / det
    cost = (z.dist[j] - t - r) ** 2 / z.covariance_diag[2 * n + j]
    return np.where((t > 0.0) & (r > 0.0), cost, np.inf)


def _joint_totals(z: Observation, legs: list, ue_nodes: np.ndarray,
                  bound: float = _JOINT_PRUNE) -> np.ndarray:
    """Joint grid cost per UE node: the sum over the paths of legs, given
    as (path index, bounce nodes, FE position), of each path's minimum over
    its bounce nodes.  Below _JOINT_PRUNE, bound also drops every UE node
    whose partial sum already exceeds it (every term is nonnegative), and
    dropped nodes read +inf."""
    total = np.zeros(len(ue_nodes))
    live = np.arange(len(ue_nodes))
    for j, s_nodes, fe_xy in legs:
        total[live] += _joint_min_cost(z, j, ue_nodes[live], s_nodes, fe_xy,
                                       bound)
        if bound < _JOINT_PRUNE:
            live = live[total[live] <= bound]
    out = np.full(len(ue_nodes), np.inf)
    out[live] = total[live]
    return out


def _joint_argmin(z: Observation, pair: list, ue_nodes: np.ndarray,
                  scenario: Scenario, spacing: float) -> tuple[int, float]:
    """Index and cost of the UE node that minimizes the joint grid cost of
    the two NLOS paths in pair: the first minimum of the exhaustive pass
    _joint_totals(z, legs, ue_nodes), found while scoring only a fraction of
    the (UE node, bounce node) pairs.

    1. Ray seeds give an upper bound U.  The _JOINT_SEEDS UE nodes with the
       lowest finite seed cost (_ray_seed_cost summed over the pair) are
       scored exactly, and U is the smallest exact total among them.
    2. The pass is rerun with bound U.  Let u be the exhaustive argmin, so
       its total T is at most U.  Each of its two path terms is at most T,
       and a bounce node's lower bound never exceeds its cost, so the
       bounce node that gives each term survives the bounce-node cut; u's
       partial sums never exceed T, so u survives the UE-node cut.  Its
       total is then computed over the same floats as in the exhaustive
       pass.  Every other node scores a minimum over fewer bounce nodes,
       which can only be larger, so no node before u ties with it.
    3. With no finite seed, or U >= _JOINT_PRUNE, the exhaustive pass runs.
    """
    legs = []
    for j in pair:
        fe = scenario.fes[z.paths[j].fe_index]
        legs.append((j, _grid_nodes(_scatterer_box(fe, float(z.dist[j])),
                                    spacing), np.array([fe.x, fe.y])))
    seed = sum(_ray_seed_cost(z, j, ue_nodes, fe_xy)
               for j, _, fe_xy in legs)
    cand = np.argsort(seed, kind="stable")[:_JOINT_SEEDS]
    cand = cand[np.isfinite(seed[cand])]
    bound = float(np.min(_joint_totals(z, legs, ue_nodes[cand]),
                         initial=np.inf))
    total = _joint_totals(z, legs, ue_nodes, min(bound, _JOINT_PRUNE))
    k = int(np.argmin(total))
    return k, float(total[k])


def grid_init(z: Observation, paths: PathSet, scenario: Scenario,
              cfg: GapfConfig, mode: Mode = Mode.NOREM) -> ParamVector:
    """Staged coarse search for the filter's starting point.

    One UE stage.  NoREM without LOS paths searches the UE grid jointly
    with the two NLOS paths of smallest measured distance, under a
    ray-seeded bound that keeps the node scoring every pair would give
    (see _joint_argmin).  Every other case scores the UE grid with the
    likelihood engine in mode: over z in REM with LOS paths, else over the
    LOS paths, else over those two NLOS paths (one suffices in REM).  REM
    knows its bounce points and stops there; NoREM then grids each bounce
    point with the UE held fixed (see _best_scatterer).
    """
    check_sufficiency(paths, mode)
    ue_nodes = _grid_nodes(default_search_box(z, scenario, cfg),
                           cfg.grid_spacing)
    los = [i for i, p in enumerate(paths) if p.kind is PathKind.LOS]
    nlos = [i for i in range(paths.n_paths) if i not in los]
    order = np.argsort(z.dist[nlos], kind="stable")
    pair = [nlos[k] for k in order[:2]]

    if mode is Mode.NOREM and not los:
        k, total = _joint_argmin(z, pair, ue_nodes, scenario,
                                 cfg.grid_spacing)
        found = math.isfinite(total)
    else:
        score_obs = z if mode is Mode.REM and los else z.subset(los or pair)
        ll = LikelihoodEngine(score_obs, scenario, mode).log_likelihood(
            ue_nodes)
        k, found = int(np.argmax(ll)), bool(np.isfinite(ll).any())
    if not found:
        raise DegenerateGeometry("no valid UE grid node in the search box")
    ue0 = ue_nodes[k]
    if mode is Mode.REM:
        return ParamVector.from_array(ue0, Mode.REM)

    bounce = [_best_scatterer(z, j, ue0, scenario, cfg.grid_spacing)
              for j in nlos]
    return ParamVector(Point2(float(ue0[0]), float(ue0[1])),
                       tuple(Point2(float(s[0]), float(s[1])) for s in bounce),
                       Mode.NOREM)


# --------------------------------------------------------------------------
# particle filter
# --------------------------------------------------------------------------

def resample_systematic(ps: ParticleSet,
                        rng: np.random.Generator) -> ParticleSet:
    """Systematic (stratified single-offset) resampling; output weights
    are uniform and the best-so-far record is carried over."""
    n = ps.n_particles
    positions = (rng.uniform() + np.arange(n)) / n
    cums = np.cumsum(ps.weights)
    cums[-1] = 1.0  # guard the float tail
    idx = np.searchsorted(cums, positions, side="right")
    return ParticleSet(ps.states[idx], np.full(n, 1.0 / n),
                       ps.best_state.copy(), ps.best_ll, ps.mode,
                       ps.iteration)


def _iteration_rng(seed: int, iteration_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(iteration_index,)))


def _redraw_degenerate(eng: LikelihoodEngine, prop: np.ndarray,
                       states: np.ndarray, rng: np.random.Generator,
                       std: float, bad: np.ndarray) -> None:
    """Re-draw, in place and up to five times, the proposals that landed
    on degenerate geometry (bad); any still degenerate fall back to their
    resampled state."""
    for _ in range(5):
        prop[bad] = states[bad] + rng.normal(0.0, std, (int(bad.sum()),
                                                        prop.shape[1]))
        bad = ~eng.valid(prop)
        if not bad.any():
            return
    prop[bad] = states[bad]


def _reweight(res: ParticleSet, refined: np.ndarray, ll: np.ndarray,
              iteration_index: int) -> ParticleSet:
    """Weights from the refined particles' log-likelihoods ll, and the
    best-so-far record carried over from the resampled set res."""
    top = float(np.max(ll))
    if math.isfinite(top):
        weights = np.exp(ll - top)
        weights /= weights.sum()
        states = refined
    else:
        # every particle degenerate: keep the population, spread weight evenly
        weights = np.full(res.n_particles, 1.0 / res.n_particles)
        states = res.states
    best_state, best_ll = res.best_state, res.best_ll
    if top > best_ll:
        best_state = refined[int(np.argmax(ll))].copy()
        best_ll = top
    return ParticleSet(states, weights, best_state, best_ll, res.mode,
                       iteration_index + 1)


def gapf_iterate(sets: Sequence[ParticleSet], eng: LikelihoodEngine,
                 cfg: GapfConfig, seeds: Sequence[int],
                 iteration_index: int) -> list[ParticleSet]:
    """One filter pass over a batch of particle sets, set b tracking
    observation b of eng with seed seeds[b].

    Each set is resampled and spread, and its proposals that land on
    degenerate geometry re-drawn, from its own stream; then every set's
    particles are refined in one damped least-squares call; then each set
    is re-weighted and its best record updated."""
    rngs = [_iteration_rng(seed, iteration_index) for seed in seeds]
    res = [resample_systematic(ps, rng) for ps, rng in zip(sets, rngs)]
    std = cfg.process_std_position * cfg.anneal_factor ** iteration_index
    prop = np.concatenate([
        r.states + rng.normal(0.0, std, r.states.shape) if std > 0
        else r.states.copy() for r, rng in zip(res, rngs)])
    sizes = [r.n_particles for r in res]
    edges = np.cumsum([0] + sizes)
    parts = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    bad = ~eng.valid(prop)
    for part, r, rng in zip(parts, res, rngs):
        if bad[part].any():
            _redraw_degenerate(eng, prop[part], r.states, rng, std, bad[part])
    refined, cost = _lm_refine_batch(eng, prop, cfg,
                                     np.repeat(np.arange(len(res)), sizes))
    ll = eng.log_norm - cost
    return [_reweight(r, refined[part], ll[part], iteration_index)
            for r, part in zip(res, parts)]


def initial_particles(theta0s: Sequence[ParamVector], eng: LikelihoodEngine,
                      cfg: GapfConfig) -> list[ParticleSet]:
    """One particle set per observation of eng: set b holds n_particles
    copies of theta0s[b], scored against observation b."""
    arr = np.array([theta0.to_array() for theta0 in theta0s])
    cost, _ = eng.cost_valid(arr, np.arange(len(arr)))
    n = cfg.n_particles
    return [ParticleSet(np.tile(row, (n, 1)), np.full(n, 1.0 / n), row.copy(),
                        float(eng.log_norm - c), eng.geom.mode, 0)
            for row, c in zip(arr, cost)]


def estimate(z, scenario: Scenario, mode: Mode, cfg: GapfConfig,
             seeds: Optional[Sequence[int]] = None):
    """Full estimator: staged grid init, then n_iterations filter passes.

    z is one Observation, or a sequence of observations of one path set
    (say, the trials of a Monte-Carlo run) filtered as one batch.  Each
    observation keeps its own grid init and its own filter streams, seeded
    by seeds (default: 0 for every observation); each filter
    pass refines every observation's particles in one call.  An
    observation's estimate is the same, bit for bit, alone or at any
    place in any batch.

    One Observation gives its EstimateReport and raises what its grid init
    raised.  A sequence gives a list aligned with it, with the MmlocError
    of an observation whose grid init failed in place of its report; a
    failure shared by the whole batch (too few paths) is raised.
    """
    if isinstance(z, Observation):
        out = estimate([z], scenario, mode, cfg, seeds)[0]
        if isinstance(out, MmlocError):
            raise out
        return out
    zs = list(z)
    seeds = [0] * len(zs) if seeds is None else list(seeds)
    if len(seeds) != len(zs):
        raise ValueError("need one seed per observation")
    out: list = [None] * len(zs)
    if not zs:
        return out
    check_sufficiency(zs[0].paths, mode)
    live, theta0s = [], []
    for b, zb in enumerate(zs):
        try:
            theta0s.append(grid_init(zb, zb.paths, scenario, cfg, mode))
        except MmlocError as err:
            out[b] = err
            continue
        live.append(b)
    if not live:
        return out
    eng = LikelihoodEngine([zs[b] for b in live], scenario, mode)
    sets = initial_particles(theta0s, eng, cfg)
    live_seeds = [seeds[b] for b in live]
    history = [[ps.best_ll] for ps in sets]
    for k in range(cfg.n_iterations):
        sets = gapf_iterate(sets, eng, cfg, live_seeds, k)
        for h, ps in zip(history, sets):
            h.append(ps.best_ll)
    for b, ps, h in zip(live, sets, history):
        theta_hat, best_ll = ps.best
        out[b] = EstimateReport(theta_hat, best_ll, cfg.n_iterations,
                                seeds[b], mode, tuple(h))
    return out
