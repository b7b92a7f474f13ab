"""AOA/AOD/TOA measurement model.

Angles are bearings measured from the +y axis, increasing toward +x, in
(-pi, pi]: a direction (dx, dy) has bearing arctan2(dx, dy), with due
south read as +pi.  Each path contributes three measurements: arrival
angle at the UE (alpha), departure angle at the FE (beta), and total
propagated distance (d).  Measurement vectors stack all alphas, then all
betas, then all distances, in path-set order.  PathGeometry is the one
implementation of this model; forward evaluates it at one parameter
vector.

Noise is zero-mean Gaussian, independent across entries, with per-kind
standard deviations taken from a NoiseProfile; angle noise wraps into
[-pi, pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import DegenerateGeometry
from .geometry import PathKind, PathSet, Point2, Scenario

TWO_PI = 2.0 * math.pi

# squared-length floor below which a path leg counts as degenerate
_DEGENERATE_EPS2 = 1e-18


def wrap(x):
    """Wrap angles to the interval [-pi, pi).

    Accepts scalars or arrays; wrap(pi) == -pi.
    """
    arr = np.asarray(x, dtype=float)
    # a fresh array, 0-d for a scalar, so the guards can act in place
    out = np.asarray(arr - TWO_PI * np.floor((arr + np.pi) / TWO_PI))
    # guard the float edge cases so the image is exactly [-pi, pi)
    np.add(out, TWO_PI, out=out, where=out < -np.pi)
    np.subtract(out, TWO_PI, out=out, where=out >= np.pi)
    if out.ndim == 0:
        return float(out)
    return out


class Mode(Enum):
    """Whether NLOS bounce points are estimated or known a priori."""

    NOREM = "NoREM"  # scatterers are unknown nuisance parameters
    REM = "REM"      # scatterers known from an environment map


@dataclass(frozen=True)
class NoiseProfile:
    """Per-kind measurement noise standard deviations.

    Angle sigmas are stored in radians, distance sigmas in meters.
    """

    sigma_alpha_los: float
    sigma_beta_los: float
    sigma_d_los: float
    sigma_alpha_nlos: float
    sigma_beta_nlos: float
    sigma_d_nlos: float
    label: str = ""

    def __post_init__(self):
        for name in ("sigma_alpha_los", "sigma_beta_los", "sigma_d_los",
                     "sigma_alpha_nlos", "sigma_beta_nlos", "sigma_d_nlos"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")

    @classmethod
    def from_degrees(cls, sigma_alpha_los: float, sigma_beta_los: float,
                     sigma_d_los: float, sigma_alpha_nlos: float,
                     sigma_beta_nlos: float, sigma_d_nlos: float,
                     label: str = "") -> "NoiseProfile":
        return cls(math.radians(sigma_alpha_los), math.radians(sigma_beta_los),
                   sigma_d_los, math.radians(sigma_alpha_nlos),
                   math.radians(sigma_beta_nlos), sigma_d_nlos, label)

    @classmethod
    def equal_angles(cls, sigma_angle_deg: float, sigma_d: float = 0.75,
                     label: str = "") -> "NoiseProfile":
        """Profile with one common angle sigma, used for beamwidth sweeps."""
        s = math.radians(sigma_angle_deg)
        return cls(s, s, sigma_d, s, s, sigma_d,
                   label or f"equal-{sigma_angle_deg:g}deg")


PROFILE_PRESETS = {
    "28GHz": NoiseProfile.from_degrees(10.5, 8.5, 0.75, 10.1, 9.0, 0.75,
                                       label="28GHz"),
    "73GHz": NoiseProfile.from_degrees(8.5, 5.5, 0.75, 6.0, 7.0, 0.75,
                                       label="73GHz"),
}


def noise_profile_preset(name: str) -> NoiseProfile:
    try:
        return PROFILE_PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown noise profile {name!r}; "
                       f"known: {sorted(PROFILE_PRESETS)}") from None


@dataclass(frozen=True)
class ParamVector:
    """Unknowns of the estimation problem.

    Flat layout is [p_x, p_y, s1_x, ..., sN_x, s1_y, ..., sN_y]; REM-mode
    vectors carry no scatterers (bounce points come from the path set).
    """

    ue: Point2
    scatterers: tuple[Point2, ...]
    mode: Mode

    def __post_init__(self):
        if self.mode is Mode.REM and self.scatterers:
            raise ValueError("REM-mode parameter vectors carry no scatterers")

    @property
    def dim(self) -> int:
        return 2 + 2 * len(self.scatterers)

    def to_array(self) -> np.ndarray:
        n = len(self.scatterers)
        out = np.empty(2 + 2 * n)
        out[0], out[1] = self.ue.x, self.ue.y
        for k, s in enumerate(self.scatterers):
            out[2 + k] = s.x
            out[2 + n + k] = s.y
        return out

    @classmethod
    def from_array(cls, arr: np.ndarray, mode: Mode) -> "ParamVector":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 1 or arr.size < 2 or arr.size % 2 != 0:
            raise ValueError(f"bad parameter array shape {arr.shape}")
        n = (arr.size - 2) // 2
        scatterers = tuple(Point2(float(arr[2 + k]), float(arr[2 + n + k]))
                           for k in range(n))
        return cls(Point2(float(arr[0]), float(arr[1])), scatterers, mode)

    @classmethod
    def truth_from_paths(cls, ue: Point2, paths: PathSet,
                         mode: Mode) -> "ParamVector":
        """Ground-truth vector for a path set with known bounce points."""
        if mode is Mode.REM:
            return cls(ue, (), mode)
        return cls(ue, paths.true_scatterers(), mode)

    def consistent_with(self, paths: PathSet) -> bool:
        if self.mode is Mode.REM:
            return True
        return len(self.scatterers) == paths.n_nlos


@dataclass(frozen=True, eq=False)
class Observation:
    """A realized measurement vector and its noise covariance diagonal."""

    alpha: np.ndarray
    beta: np.ndarray
    dist: np.ndarray
    covariance_diag: np.ndarray
    paths: PathSet

    def __post_init__(self):
        n = self.paths.n_paths
        for name in ("alpha", "beta", "dist"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.covariance_diag.shape != (3 * n,):
            raise ValueError("covariance diagonal must have one entry per measurement")

    @property
    def z(self) -> np.ndarray:
        """Stacked measurement vector [alpha | beta | dist]."""
        return np.concatenate([self.alpha, self.beta, self.dist])

    @property
    def m(self) -> int:
        return 3 * self.paths.n_paths

    def subset(self, indices) -> "Observation":
        """Observation restricted to a subset of paths."""
        idx = np.asarray(sorted(set(indices)), dtype=int)
        sub = self.paths.subset(idx)
        n = self.paths.n_paths
        cov = self.covariance_diag
        keep = np.concatenate([idx, n + idx, 2 * n + idx])
        return Observation(self.alpha[idx], self.beta[idx], self.dist[idx],
                           cov[keep], sub)


def covariance(profile: NoiseProfile, n_los: int, n_nlos: int) -> np.ndarray:
    """Diagonal of the measurement covariance R for LOS-first stacking.

    Order: alpha block (LOS then NLOS), beta block, distance block.
    """
    if n_los < 0 or n_nlos < 0 or n_los + n_nlos == 0:
        raise ValueError("need at least one path")
    p = profile
    return np.concatenate([
        np.full(n_los, p.sigma_alpha_los ** 2),
        np.full(n_nlos, p.sigma_alpha_nlos ** 2),
        np.full(n_los, p.sigma_beta_los ** 2),
        np.full(n_nlos, p.sigma_beta_nlos ** 2),
        np.full(n_los, p.sigma_d_los ** 2),
        np.full(n_nlos, p.sigma_d_nlos ** 2),
    ])


def forward(theta: ParamVector, paths: PathSet,
            scenario: Scenario) -> np.ndarray:
    """Noise-free stacked measurement vector h(theta).

    ValueError if theta does not match the path set, DegenerateGeometry if
    a path leg has zero length at theta."""
    geom = PathGeometry(paths, scenario, theta.mode)
    return geom.h(geom.row(theta))


def _observation(z: np.ndarray, paths: PathSet,
                 cov: np.ndarray) -> Observation:
    """Observation of the stacked values z, angle entries wrapped into
    [-pi, pi)."""
    n = paths.n_paths
    return Observation(alpha=wrap(z[:n]), beta=wrap(z[n:2 * n]),
                       dist=z[2 * n:].copy(), covariance_diag=cov, paths=paths)


def synthesize(theta_true: ParamVector, paths: PathSet, scenario: Scenario,
               seed: Union[int, np.random.Generator]) -> Observation:
    """Draw one noisy observation of the scene at theta_true.

    Angle entries are wrapped into [-pi, pi) after the noise is added.
    """
    rng = np.random.default_rng(seed)
    h = forward(theta_true, paths, scenario)
    cov = covariance(scenario.noise_profile, paths.n_los, paths.n_nlos)
    return _observation(h + rng.normal(size=h.size) * np.sqrt(cov), paths,
                        cov)


def noiseless_observation(theta_true: ParamVector, paths: PathSet,
                          scenario: Scenario) -> Observation:
    """Observation whose values equal the forward model exactly; the
    covariance still comes from the scenario's noise profile, so the
    estimation objective is unchanged, only the realization is noise-free."""
    return _observation(forward(theta_true, paths, scenario), paths,
                        covariance(scenario.noise_profile, paths.n_los,
                                   paths.n_nlos))


class PathGeometry:
    """Compiled forward model for a fixed (path set, scenario, mode).

    Evaluates measurement vectors, Jacobians, and validity masks for whole
    batches of flat parameter arrays at once; every method accepts thetas
    of shape (..., dim).  Outputs for invalid (degenerate) parameter rows
    are unspecified; callers mask them via valid().

    A path's alpha is the bearing of its aim leg e = aim - ue (aim: the
    bounce point, or the FE of a LOS path), its beta that of its departure
    leg f = dep - fe (dep: the bounce point, or the UE), and its distance
    |f|, plus |e| for an NLOS path.  Every leg is affine in theta: the x
    and y parts of the 2n legs are X = theta @ Mx + cx, Y = theta @ My + cy
    with 0/+-1 matrices Mx, My (columns: n aim legs, then n departure
    legs).  The FEs, and in REM the known bounce points, are constants in
    cx, cy, so REM is NoREM with the bounce-point columns fixed.  With
    q = X^2 + Y^2, [alpha | beta] = arctan2(X, Y), the angle rows of J are
    (Y Mx^T - X My^T) / q and the distance rows (X Mx^T + Y My^T) / sqrt(q),
    summed over an NLOS path's two legs: one product of
    [Y/q | X/q | X/|leg| | Y/|leg|] with a fixed 0/+-1 matrix.  No sum here
    has more than two nonzero terms, each an exact product with +-1, so no
    value depends on the summation order or on the batch.
    """

    def __init__(self, paths: PathSet, scenario: Scenario, mode: Mode):
        self.mode = mode
        n = self.n_paths = paths.n_paths
        self.m = 3 * n
        n_scat = paths.n_nlos if mode is Mode.NOREM else 0
        self.dim = 2 + 2 * n_scat
        known = paths.true_scatterers() if mode is Mode.REM else ()
        # per leg column: its theta coefficients and constant, for x and y
        mx = [[0.0] * (2 * n) for _ in range(self.dim)]
        my = [[0.0] * (2 * n) for _ in range(self.dim)]
        cx, cy = [0.0] * (2 * n), [0.0] * (2 * n)
        ue = (0, 1)  # theta columns of a point, or a fixed Point2
        for j, p in enumerate(paths):
            fe = scenario.fes[p.fe_index]
            if p.kind is PathKind.LOS:
                aim, dep = fe, ue
            elif mode is Mode.NOREM:
                k = p.scatterer_index
                aim = dep = (2 + k, 2 + n_scat + k)
            else:
                aim = dep = known[p.scatterer_index]
            # leg column col = head - tail
            for col, head, tail in ((j, aim, ue), (n + j, dep, fe)):
                for point, sign in ((head, 1.0), (tail, -1.0)):
                    if isinstance(point, Point2):
                        cx[col] += sign * point.x
                        cy[col] += sign * point.y
                    else:
                        mx[point[0]][col] += sign
                        my[point[1]][col] += sign
        self._mx, self._my = np.array(mx), np.array(my)
        self._cx, self._cy = np.array(cx), np.array(cy)
        # legs whose length adds to their path's distance: the aim leg of
        # an NLOS path, and every departure leg
        summed = np.array([j for j, p in enumerate(paths)
                           if p.kind is PathKind.NLOS] + list(range(n, 2 * n)))
        path = summed % n
        self._dist = np.zeros((2 * n, n))
        self._dist[summed, path] = 1.0
        # J = [Y/q | X/q | X/|leg| | Y/|leg|] @ _jac: a leg's partials go
        # to its alpha or beta row, and to its path's distance row
        jac = np.zeros((4, 2 * n, self.m, self.dim))
        legs = np.arange(2 * n)
        jac[0, legs, legs] = self._mx.T
        jac[1, legs, legs] = -self._my.T
        jac[2, summed, 2 * n + path] = self._mx.T[summed]
        jac[3, summed, 2 * n + path] = self._my.T[summed]
        self._jac = jac.reshape(8 * n, self.m * self.dim)

    def _legs(self, thetas: np.ndarray):
        """Leg parts X, Y and squared lengths q, each (..., 2 * n_paths)."""
        thetas = np.asarray(thetas, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            X = thetas @ self._mx + self._cx
            Y = thetas @ self._my + self._cy
            return X, Y, X * X + Y * Y

    @staticmethod
    def _valid_from_legs(q: np.ndarray) -> np.ndarray:
        return np.all((q > _DEGENERATE_EPS2) & np.isfinite(q), axis=-1)

    def _h_from_legs(self, X, Y, q) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            angle = np.arctan2(X, Y)
            dist = np.sqrt(q) @ self._dist
        angle[angle == -np.pi] = np.pi
        return np.concatenate([angle, dist], axis=-1)

    def _jac_from_legs(self, X, Y, q) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            length = np.sqrt(q)
            partials = np.concatenate([Y / q, X / q, X / length, Y / length],
                                      axis=-1)
            J = partials @ self._jac
        return J.reshape(X.shape[:-1] + (self.m, self.dim))

    def h(self, thetas: np.ndarray) -> np.ndarray:
        """Stacked measurement vectors, shape (..., 3 * n_paths)."""
        return self._h_from_legs(*self._legs(thetas))

    def h_valid(self, thetas: np.ndarray):
        """(h, validity mask) in one geometry pass."""
        X, Y, q = self._legs(thetas)
        return self._h_from_legs(X, Y, q), self._valid_from_legs(q)

    def valid(self, thetas: np.ndarray) -> np.ndarray:
        """Boolean mask of parameter rows with no degenerate path leg."""
        return self._valid_from_legs(self._legs(thetas)[2])

    def row(self, theta: ParamVector) -> np.ndarray:
        """theta as one flat parameter row; ValueError if it does not match
        the path set, DegenerateGeometry if a path leg has zero length."""
        arr = theta.to_array()
        if arr.size != self.dim:
            raise ValueError("parameter vector does not match the path set")
        if not self.valid(arr):
            raise DegenerateGeometry(
                "degenerate geometry: a path leg has zero length")
        return arr

    def h_jacobian_valid(self, thetas: np.ndarray):
        """(h, J, validity) sharing one geometry pass; J has shape
        (..., 3 * n_paths, dim), and the rows of NLOS departure angles have
        zero UE-position derivatives."""
        X, Y, q = self._legs(thetas)
        return (self._h_from_legs(X, Y, q), self._jac_from_legs(X, Y, q),
                self._valid_from_legs(q))
