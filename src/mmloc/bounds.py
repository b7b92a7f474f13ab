"""Fisher information and Cramer-Rao bounds on UE position error.

Every bound is taken at the true geometry, the UE and the path set's own
bounce points, with the scenario's noise profile.  The bound on position
RMSE is sqrt of the sum of the two position diagonal entries of the
inverse Fisher matrix.  In NoREM mode the Fisher matrix spans the UE and
all bounce points and is inverted whole, so the position bound absorbs
the cost of the unknown scatterers; in REM mode the bounce points are
known from the map and it spans the UE alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, SingularFisher
from .estimator import _grid_axis
from .geometry import PathSet, Point2, Scenario, enumerate_paths
from .likelihood import jacobian
from .measurement import Mode, ParamVector, covariance

COND_LIMIT = 1e12
FE_MARGIN = 0.5  # meters; grid nodes this close to an FE are not evaluated


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
        return (_grid_axis(self.x_min, self.x_max, self.spacing),
                _grid_axis(self.y_min, self.y_max, self.spacing))


@dataclass(frozen=True, eq=False)
class CrbField:
    """rmse_crb sampled on a grid; NaN marks nodes that could not be
    evaluated (degenerate or too close to an FE)."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # shape (len(xs), len(ys))

    def valid_values(self) -> np.ndarray:
        flat = self.values.ravel()
        return flat[np.isfinite(flat)]


def _information(ue: Point2, paths: PathSet, scenario: Scenario, mode: Mode,
                 rows: slice = slice(None)) -> np.ndarray:
    """J^T R^-1 J over the given measurement rows, symmetrized, with the
    analytic Jacobian at the true geometry and the scenario's noise."""
    theta = ParamVector.truth_from_paths(ue, paths, mode)
    J = jacobian(theta, paths, scenario)[rows]
    var = covariance(scenario.noise_profile, paths.n_los, paths.n_nlos)[rows]
    info = (J * (1.0 / var)[:, None]).T @ J
    return 0.5 * (info + info.T)


def _position_rmse(info: np.ndarray) -> float:
    """sqrt of the UE position entries of the inverse of info; raises
    SingularFisher if info is not safely invertible."""
    evals = np.linalg.eigvalsh(info)
    lo, hi = float(evals[0]), float(evals[-1])
    if not math.isfinite(hi) or hi <= 0.0 or lo <= 0.0 or hi / lo > COND_LIMIT:
        raise SingularFisher(
            f"Fisher matrix not invertible (eigenvalues {lo:.3e}..{hi:.3e})")
    inv = np.linalg.inv(info)
    return math.sqrt(inv[0, 0] + inv[1, 1])


def fisher(ue: Point2, paths: PathSet, scenario: Scenario,
           mode: Mode) -> np.ndarray:
    """Fisher information of the measurements about the mode's unknowns:
    the UE and every bounce point in NoREM, the UE alone in REM."""
    return _information(ue, paths, scenario, mode)


def rmse_crb(ue: Point2, paths: PathSet, scenario: Scenario,
             mode: Mode) -> float:
    """Lower bound on UE position RMSE at ue, in meters."""
    return _position_rmse(fisher(ue, paths, scenario, mode))


def rmse_crb_distance_only(ue: Point2, paths: PathSet,
                           scenario: Scenario) -> float:
    """Position bound using only the distance measurements with known
    bounce points: the large-angle-noise floor of the REM bound."""
    return _position_rmse(_information(ue, paths, scenario, Mode.REM,
                                       slice(2 * paths.n_paths, None)))


def crb_grid(scenario: Scenario, ue_grid: GridSpec, mode: Mode) -> CrbField:
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
                values[i, j] = rmse_crb(ue, paths, scenario, mode)
            except (DegenerateGeometry, SingularFisher):
                continue
    return CrbField(xs, ys, values)
