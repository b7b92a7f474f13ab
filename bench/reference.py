"""First-principles reference the benchmark checks mmloc's outputs against.

Written from the measurement model alone and sharing no code with the
package: bearings are clockwise from +y (a direction (dx, dy) has bearing
atan2(dx, dy)), a direct path from an FE to the UE yields
(arrival bearing at the UE, departure bearing at the FE, length), and a
single-bounce path does the same through its bounce point on a wall.
Measurements are independent Gaussians, so the Fisher information is
J^T diag(1/sigma^2) J.  The position bound is sqrt(trace) of the UE block
of its inverse with the bounce points unknown (NoREM), or of the inverse
of its UE block with the bounce points known (REM).

A scene is a (walls, FE positions) pair.  The preset scenes, profiles,
grids and trajectory are restated here as literals, so that a change to
the package's presets shows up as a failed check.
"""
from __future__ import annotations

import math

import numpy as np

# A wall is (axis, offset, side): axis "x" is the line x = offset, axis "y"
# the line y = offset; the street lies where side * (coord - offset) > 0.
_CANYON = (("x", 0.0, 1.0), ("x", 20.0, -1.0))
_CORNER = (("x", 0.0, 1.0), ("y", 0.0, 1.0))
SCENES = {
    "canyon-1fe": (_CANYON, ((-1.0, 2.0),)),
    "canyon-2fe": (_CANYON, ((-1.0, 2.0), (21.0, 48.0))),
    "corner-1fe": (_CORNER, ((18.0, 10.0),)),
    "corner-2fe": (_CORNER, ((18.0, 10.0), (18.0, 48.0))),
}

# (alpha_los, beta_los, d_los, alpha_nlos, beta_nlos, d_nlos); angles in
# degrees, distances in meters
PROFILES = {
    "28GHz": (10.5, 8.5, 0.75, 10.1, 9.0, 0.75),
    "73GHz": (8.5, 5.5, 0.75, 6.0, 7.0, 0.75),
}

FE_MARGIN = 0.5  # meters; bound fields skip nodes closer than this to an FE


def equal_angles(sigma_deg: float, sigma_d: float) -> tuple:
    return (sigma_deg, sigma_deg, sigma_d, sigma_deg, sigma_deg, sigma_d)


def street_grid() -> tuple[np.ndarray, np.ndarray]:
    """The preset 1 m street grid every scene's bound CDF runs over."""
    return 0.5 + np.arange(20.0), 0.5 + np.arange(50.0)


def corner_trajectory(n: int) -> np.ndarray:
    """Preset map-building track of the corner scenes, shape (n, 2)."""
    t = np.arange(n) / (n - 1)
    return np.column_stack([5.0 + 30.0 * t, 45.0 - 40.0 * t])


def _side_distance(wall, p: np.ndarray) -> np.ndarray:
    """Signed distance of points (..., 2) from the wall, positive inside."""
    axis, offset, side = wall
    coord = p[..., 0] if axis == "x" else p[..., 1]
    return side * (coord - offset)


def inside(walls, p: np.ndarray) -> np.ndarray:
    """True where points lie strictly on the street side of every wall."""
    ok = np.ones(np.shape(p)[:-1], dtype=bool)
    for w in walls:
        ok &= _side_distance(w, p) > 0.0
    return ok


def excluded_nodes(scene, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bound-field node rule, shape (len(xs), len(ys)): a node is left out
    when it is on or behind a wall or closer than FE_MARGIN to an FE."""
    walls, fes = scene
    p = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    out = ~inside(walls, p)
    for fe in fes:
        out |= np.hypot(p[..., 0] - fe[0], p[..., 1] - fe[1]) < FE_MARGIN
    return out


def bounce_point(fe, wall, ue: np.ndarray) -> np.ndarray:
    """Specular point on the wall for fe -> wall -> ue, for UEs (..., 2).

    Equal angles of incidence and reflection put the bounce point where
    the wall-parallel coordinate splits the FE-to-UE run in proportion to
    the two endpoints' distances from the wall (the mirror-image line).
    """
    axis, offset, _ = wall
    ue = np.asarray(ue, dtype=float)
    along = 1 if axis == "x" else 0  # coordinate running along the wall
    a_fe = abs(_side_distance(wall, np.asarray(fe, dtype=float)))
    a_ue = np.abs(_side_distance(wall, ue))
    s = np.empty_like(ue)
    s[..., along] = (fe[along] * a_ue + ue[..., along] * a_fe) / (a_fe + a_ue)
    s[..., 1 - along] = offset
    return s


def path_structure(scene, ue) -> tuple:
    """Paths that reach a UE inside the street: (fe, None) per FE for the
    direct paths, then (fe, wall) per FE and wall for the reflections
    (a wall reflects only when FE and UE are both on its street side)."""
    walls, fes = scene
    ue = np.asarray(ue, dtype=float)
    direct = tuple((i, None) for i in range(len(fes)))
    bounced = tuple((i, j) for i, fe in enumerate(fes)
                    for j, w in enumerate(walls)
                    if _side_distance(w, np.asarray(fe)) > 0.0
                    and _side_distance(w, ue) > 0.0)
    return direct + bounced


def _bearing_gradient(v: np.ndarray) -> np.ndarray:
    """d atan2(v_x, v_y) / d v, shape (..., 2)."""
    r2 = v[..., 0] ** 2 + v[..., 1] ** 2
    return np.stack([v[..., 1] / r2, -v[..., 0] / r2], axis=-1)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.hypot(v[..., 0], v[..., 1])[..., None]


def model(scene, structure, ue: np.ndarray, bounces: np.ndarray):
    """(measurements, Jacobian, row kinds) for UEs (N, 2) and bounce
    points (N, n_bounce, 2) in the order of the structure's reflections.

    Measurements are (N, m) as (alpha, beta, d) per path; the Jacobian is
    (N, m, 2 + 2 n_bounce) over [ue_x, ue_y, s1_x, s1_y, s2_x, ...]; the
    kind of a row indexes a profile tuple (alpha, beta, d for a direct
    path: 0, 1, 2; for a reflected one: 3, 4, 5).
    """
    _, fes = scene
    n, nb = len(ue), bounces.shape[1]
    rows, jac, kinds = [], [], []
    k = 0
    for fe_i, wall_i in structure:
        fe = np.asarray(fes[fe_i], dtype=float)
        J = np.zeros((n, 3, 2 + 2 * nb))
        if wall_i is None:
            to_fe, to_ue = fe - ue, ue - fe
            rows.append(np.stack([np.arctan2(to_fe[:, 0], to_fe[:, 1]),
                                  np.arctan2(to_ue[:, 0], to_ue[:, 1]),
                                  np.hypot(to_fe[:, 0], to_fe[:, 1])], 1))
            J[:, 0, :2] = -_bearing_gradient(to_fe)
            J[:, 1, :2] = _bearing_gradient(to_ue)
            J[:, 2, :2] = _unit(to_ue)
            kinds.append((0, 1, 2))
        else:
            s = bounces[:, k]
            ue_leg, fe_leg = s - ue, s - fe
            rows.append(np.stack([
                np.arctan2(ue_leg[:, 0], ue_leg[:, 1]),
                np.arctan2(fe_leg[:, 0], fe_leg[:, 1]),
                np.hypot(ue_leg[:, 0], ue_leg[:, 1])
                + np.hypot(fe_leg[:, 0], fe_leg[:, 1])], 1))
            cols = slice(2 + 2 * k, 4 + 2 * k)
            g_ue = _bearing_gradient(ue_leg)
            J[:, 0, :2] = -g_ue
            J[:, 0, cols] = g_ue
            J[:, 1, cols] = _bearing_gradient(fe_leg)
            J[:, 2, :2] = -_unit(ue_leg)
            J[:, 2, cols] = _unit(ue_leg) + _unit(fe_leg)
            kinds.append((3, 4, 5))
            k += 1
        jac.append(J)
    return (np.concatenate(rows, axis=1), np.concatenate(jac, axis=1),
            np.array([kk for trio in kinds for kk in trio]))


def fisher(jac: np.ndarray, kinds: np.ndarray, profile: tuple) -> np.ndarray:
    sig = np.array([math.radians(profile[0]), math.radians(profile[1]),
                    profile[2], math.radians(profile[3]),
                    math.radians(profile[4]), profile[5]])[kinds]
    return np.einsum("nmi,m,nmj->nij", jac, 1.0 / sig ** 2, jac)


def position_bounds(scene, profile: tuple, ue: np.ndarray,
                    structure=None) -> tuple[np.ndarray, np.ndarray]:
    """(NoREM, REM) position bounds in meters at UEs (N, 2) that share one
    path structure (the UE's own unless a sub-structure is given)."""
    ue = np.atleast_2d(np.asarray(ue, dtype=float))
    walls, fes = scene
    if structure is None:
        structure = path_structure(scene, ue[0])
    bounces = [bounce_point(fes[f], walls[w], ue)
               for f, w in structure if w is not None]
    b = np.stack(bounces, axis=1) if bounces else np.zeros((len(ue), 0, 2))
    _, J, kinds = model(scene, structure, ue, b)
    F = fisher(J, kinds, profile)
    norem = np.linalg.inv(F)
    rem = np.linalg.inv(F[:, :2, :2])
    return (np.sqrt(norem[:, 0, 0] + norem[:, 1, 1]),
            np.sqrt(rem[:, 0, 0] + rem[:, 1, 1]))


def bound_fields(scene, profile: tuple, xs: np.ndarray,
                 ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(NoREM, REM) bound fields of shape (len(xs), len(ys)), NaN at the
    nodes excluded_nodes() leaves out."""
    keep = ~excluded_nodes(scene, xs, ys)
    p = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    norem = np.full(keep.shape, np.nan)
    rem = np.full(keep.shape, np.nan)
    groups: dict = {}
    for i, j in zip(*np.nonzero(keep)):
        groups.setdefault(path_structure(scene, p[i, j]), []).append((i, j))
    for structure, nodes in groups.items():
        ii, jj = np.array(nodes).T
        norem[ii, jj], rem[ii, jj] = position_bounds(scene, profile,
                                                     p[ii, jj], structure)
    return norem, rem


def reflections_along(scene, track: np.ndarray) -> list:
    """Per track point, (true bounce points (n, 2), their walls) in path
    order: FE-major, then wall."""
    walls, fes = scene
    out = []
    for ue in track:
        hits = [(f, w) for f, w in path_structure(scene, ue) if w is not None]
        pts = [bounce_point(fes[f], walls[w], ue) for f, w in hits]
        out.append((np.array(pts).reshape(-1, 2),
                    tuple(walls[w] for _, w in hits)))
    return out


def wall_distance(wall, p: np.ndarray) -> np.ndarray:
    """Unsigned distance of points (..., 2) from the wall line."""
    return np.abs(_side_distance(wall, p))
