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
    out = arr - TWO_PI * np.floor((arr + np.pi) / TWO_PI)
    # guard the float edge cases so the image is exactly [-pi, pi)
    out = np.where(out < -np.pi, out + TWO_PI, out)
    out = np.where(out >= np.pi, out - TWO_PI, out)
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
    """

    def __init__(self, paths: PathSet, scenario: Scenario, mode: Mode):
        self.mode = mode
        self.n_los = paths.n_los
        self.n_nlos = paths.n_nlos
        self.n_paths = paths.n_paths
        self.m = 3 * self.n_paths
        self.n_scat = self.n_nlos if mode is Mode.NOREM else 0
        self.dim = 2 + 2 * self.n_scat
        self.fe_xy = np.array([[scenario.fes[p.fe_index].x,
                                scenario.fes[p.fe_index].y] for p in paths])
        self.is_nlos = np.array([p.kind is PathKind.NLOS for p in paths])
        slot = np.array([p.scatterer_index if p.kind is PathKind.NLOS else -1
                         for p in paths], dtype=int)
        self._slot = slot
        if mode is Mode.REM and self.n_nlos > 0:
            scat = paths.true_scatterers()
            self._fixed_scat = np.zeros((self.n_paths, 2))
            self._fixed_scat[self.is_nlos] = [[s.x, s.y] for s in scat]
        else:
            self._fixed_scat = None
        # gather columns for scatterer coordinates; LOS rows point at a
        # dummy slot and are masked out afterwards
        safe = np.where(slot >= 0, slot, 0)
        self._sx_cols = 2 + safe
        self._sy_cols = 2 + self.n_scat + safe
        self._nlos_idx = np.nonzero(self.is_nlos)[0]
        self._los_idx = np.nonzero(~self.is_nlos)[0]

    # -- internal resolved points ------------------------------------------

    def _points(self, thetas: np.ndarray):
        """Per-path aim points A (alpha target) and departure points W."""
        thetas = np.asarray(thetas, dtype=float)
        p = thetas[..., 0:2]
        if self.mode is Mode.NOREM and self.n_nlos > 0:
            sx = thetas[..., self._sx_cols]
            sy = thetas[..., self._sy_cols]
            s = np.stack([sx, sy], axis=-1)
        elif self._fixed_scat is not None:
            s = np.broadcast_to(self._fixed_scat,
                                thetas.shape[:-1] + self._fixed_scat.shape)
        else:
            s = np.broadcast_to(self.fe_xy,
                                thetas.shape[:-1] + self.fe_xy.shape)
        mask = self.is_nlos[:, None]
        a = np.where(mask, s, self.fe_xy)
        w = np.where(mask, s, p[..., None, :])
        return p, a, w

    def _legs(self, thetas: np.ndarray):
        """Shared per-path leg vectors: e = aim - ue, f = departure - fe."""
        p, a, w = self._points(thetas)
        e = a - p[..., None, :]
        f = w - self.fe_xy
        e2 = np.einsum("...i,...i->...", e, e)
        f2 = np.einsum("...i,...i->...", f, f)
        return e, f, e2, f2

    @staticmethod
    def _valid_from_legs(e2: np.ndarray, f2: np.ndarray) -> np.ndarray:
        ok = (e2 > _DEGENERATE_EPS2) & (f2 > _DEGENERATE_EPS2)
        return np.all(ok & np.isfinite(e2) & np.isfinite(f2), axis=-1)

    def _h_from_legs(self, e, f, e2, f2) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha = np.arctan2(e[..., 0], e[..., 1])
            beta = np.arctan2(f[..., 0], f[..., 1])
            le = np.sqrt(e2)
            lf = np.sqrt(f2)
        alpha = np.where(alpha == -np.pi, np.pi, alpha)
        beta = np.where(beta == -np.pi, np.pi, beta)
        dist = np.where(self.is_nlos, le + lf, lf)
        return np.concatenate([alpha, beta, dist], axis=-1)

    def h(self, thetas: np.ndarray) -> np.ndarray:
        """Stacked measurement vectors, shape (..., 3 * n_paths)."""
        return self._h_from_legs(*self._legs(thetas))

    def h_valid(self, thetas: np.ndarray):
        """(h, validity mask) in one geometry pass."""
        e, f, e2, f2 = self._legs(thetas)
        return self._h_from_legs(e, f, e2, f2), self._valid_from_legs(e2, f2)

    def valid(self, thetas: np.ndarray) -> np.ndarray:
        """Boolean mask of parameter rows with no degenerate path leg."""
        _, _, e2, f2 = self._legs(thetas)
        return self._valid_from_legs(e2, f2)

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

    def _jac_from_legs(self, batch, e, f, e2, f2) -> np.ndarray:
        n = self.n_paths
        with np.errstate(invalid="ignore", divide="ignore"):
            ue = e / np.sqrt(e2)[..., None]   # unit aim vector
            uf = f / np.sqrt(f2)[..., None]   # unit departure vector
            J = np.zeros(batch + (self.m, self.dim))
            rows = np.arange(n)
            # alpha rows: d alpha / d p = (-e_y, e_x) / |e|^2 for every path
            J[..., rows, 0] = -e[..., 1] / e2
            J[..., rows, 1] = e[..., 0] / e2
            # beta rows: LOS depends on p, NLOS rows are all-zero in p
            lo = self._los_idx
            J[..., n + lo, 0] = f[..., lo, 1] / f2[..., lo]
            J[..., n + lo, 1] = -f[..., lo, 0] / f2[..., lo]
            # distance rows
            J[..., 2 * n + lo, 0] = uf[..., lo, 0]
            J[..., 2 * n + lo, 1] = uf[..., lo, 1]
            ni = self._nlos_idx
            J[..., 2 * n + ni, 0] = -ue[..., ni, 0]
            J[..., 2 * n + ni, 1] = -ue[..., ni, 1]
            if self.mode is Mode.NOREM and self.n_nlos > 0:
                xc = self._sx_cols[ni]
                yc = self._sy_cols[ni]
                J[..., ni, xc] = e[..., ni, 1] / e2[..., ni]
                J[..., ni, yc] = -e[..., ni, 0] / e2[..., ni]
                J[..., n + ni, xc] = f[..., ni, 1] / f2[..., ni]
                J[..., n + ni, yc] = -f[..., ni, 0] / f2[..., ni]
                J[..., 2 * n + ni, xc] = ue[..., ni, 0] + uf[..., ni, 0]
                J[..., 2 * n + ni, yc] = ue[..., ni, 1] + uf[..., ni, 1]
        return J

    def jacobian(self, thetas: np.ndarray) -> np.ndarray:
        """Jacobian of h, shape (..., 3 * n_paths, dim).

        NLOS departure angles are treated as independent of the UE (their
        rows have zero UE-position derivatives).
        """
        thetas = np.asarray(thetas, dtype=float)
        e, f, e2, f2 = self._legs(thetas)
        return self._jac_from_legs(thetas.shape[:-1], e, f, e2, f2)

    def h_jacobian_valid(self, thetas: np.ndarray):
        """(h, J, validity) sharing one geometry pass; the refinement loop's
        inner evaluation."""
        thetas = np.asarray(thetas, dtype=float)
        e, f, e2, f2 = self._legs(thetas)
        h = self._h_from_legs(e, f, e2, f2)
        J = self._jac_from_legs(thetas.shape[:-1], e, f, e2, f2)
        return h, J, self._valid_from_legs(e2, f2)
