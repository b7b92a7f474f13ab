"""Fisher information and Cramer-Rao bounds on UE position error.

The bound on position RMSE is sqrt of the sum of the two position
diagonal entries of the inverse Fisher matrix.  In NoREM mode the Fisher
matrix spans the UE and all bounce points and is inverted whole, so the
position bound absorbs the cost of the unknown scatterers; in REM mode it
is the 2x2 position block alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, SingularFisher
from .geometry import PathSet, Point2, Scenario, enumerate_paths
from .likelihood import jacobian
from .measurement import Mode, NoiseProfile, ParamVector, covariance

COND_LIMIT = 1e12
FE_MARGIN = 0.5  # meters; grid nodes this close to an FE are not evaluated


@dataclass(frozen=True, eq=False)
class CrbReport:
    fisher: np.ndarray
    rmse_crb: float
    mode: Mode

    @property
    def crlb_diagonal(self) -> np.ndarray:
        """Diagonal of the inverse Fisher matrix (position entries first,
        then scatterer x block, then scatterer y block in NoREM mode)."""
        return np.diag(_invert_checked(self.fisher))

    @property
    def scatterer_variances(self) -> np.ndarray:
        """Per-scatterer (var_x + var_y) from the inverse Fisher matrix."""
        d = self.crlb_diagonal[2:]
        n = d.size // 2
        return d[:n] + d[n:]


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned rectangle sampled at a fixed spacing, inclusive of the
    lower edge; node k of an axis sits at min + k * spacing."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    spacing: float

    def __post_init__(self):
        if not (self.x_min <= self.x_max and self.y_min <= self.y_max):
            raise ValueError("grid bounds out of order")
        if self.spacing <= 0:
            raise ValueError("grid spacing must be > 0")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        nx = int(math.floor((self.x_max - self.x_min) / self.spacing + 1e-9))
        ny = int(math.floor((self.y_max - self.y_min) / self.spacing + 1e-9))
        return (self.x_min + self.spacing * np.arange(nx + 1),
                self.y_min + self.spacing * np.arange(ny + 1))


@dataclass(frozen=True, eq=False)
class CrbField:
    """rmse_crb sampled on a grid; NaN marks nodes that could not be
    evaluated (degenerate or too close to an FE)."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # shape (len(xs), len(ys))
    mode: Mode
    label: str = ""

    def valid_values(self) -> np.ndarray:
        flat = self.values.ravel()
        return flat[np.isfinite(flat)]


def _theta_for_mode(theta: ParamVector, paths: PathSet,
                    mode: Mode) -> ParamVector:
    """Bound evaluation point in the requested mode; NoREM scatterers are
    taken from the path set's true bounce points when theta lacks them."""
    if theta.mode is mode and theta.consistent_with(paths):
        return theta
    return ParamVector.truth_from_paths(theta.ue, paths, mode)


def fisher(theta: ParamVector, paths: PathSet, scenario: Scenario,
           profile: NoiseProfile) -> np.ndarray:
    """J^T R^-1 J with the analytic Jacobian; REM mode restricts the
    parameter space (and so the Jacobian columns) to the UE position."""
    return _information(jacobian(theta, paths, scenario),
                        covariance(profile, paths.n_los, paths.n_nlos))


def _information(J: np.ndarray, var: np.ndarray) -> np.ndarray:
    """J^T diag(1 / var) J, symmetrized."""
    info = (J * (1.0 / var)[:, None]).T @ J
    return 0.5 * (info + info.T)


def _invert_checked(info: np.ndarray) -> np.ndarray:
    evals = np.linalg.eigvalsh(info)
    lo, hi = float(evals[0]), float(evals[-1])
    if not math.isfinite(hi) or hi <= 0.0 or lo <= 0.0 or hi / lo > COND_LIMIT:
        raise SingularFisher(
            f"Fisher matrix not invertible (eigenvalues {lo:.3e}..{hi:.3e})")
    return np.linalg.inv(info)


def _position_rmse(info: np.ndarray) -> float:
    """sqrt of the UE position entries of the inverse of info."""
    inv = _invert_checked(info)
    return math.sqrt(inv[0, 0] + inv[1, 1])


def rmse_crb(theta: ParamVector, paths: PathSet, scenario: Scenario,
             profile: NoiseProfile, mode: Mode) -> float:
    """Lower bound on UE position RMSE at theta, in meters."""
    return crb_report(theta, paths, scenario, profile, mode).rmse_crb


def crb_report(theta: ParamVector, paths: PathSet, scenario: Scenario,
               profile: NoiseProfile, mode: Mode) -> CrbReport:
    th = _theta_for_mode(theta, paths, mode)
    info = fisher(th, paths, scenario, profile)
    return CrbReport(info, _position_rmse(info), mode)


def rmse_crb_distance_only(theta: ParamVector, paths: PathSet,
                           scenario: Scenario,
                           profile: NoiseProfile) -> float:
    """Position bound using only the distance measurements with known
    bounce points: the large-angle-noise floor of the REM bound."""
    th = _theta_for_mode(theta, paths, Mode.REM)
    n = paths.n_paths
    J = jacobian(th, paths, scenario)[2 * n:]
    var = covariance(profile, paths.n_los, paths.n_nlos)[2 * n:]
    return _position_rmse(_information(J, var))


def crb_grid(scenario: Scenario, ue_grid: GridSpec, profile: NoiseProfile,
             mode: Mode) -> CrbField:
    """rmse_crb over every grid node; per-node failures become NaN.

    Nodes within FE_MARGIN of an FE are skipped (the bound diverges by
    proximity, not by anything a receiver placement could exploit).
    """
    xs, ys = ue_grid.axes()
    values = np.full((xs.size, ys.size), np.nan)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            ue = Point2(float(x), float(y))
            if any(ue.distance_to(fe) < FE_MARGIN for fe in scenario.fes):
                continue
            try:
                paths = enumerate_paths(scenario, ue)
                theta = ParamVector.truth_from_paths(ue, paths, mode)
                values[i, j] = rmse_crb(theta, paths, scenario, profile, mode)
            except (DegenerateGeometry, SingularFisher):
                continue
    return CrbField(xs, ys, values, mode, profile.label)
