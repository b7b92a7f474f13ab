"""Scalar per-path reference for the measurement model and likelihood.

An implementation of h(theta) and the Gaussian log-likelihood independent
of mmloc.measurement.PathGeometry: one path at a time, in plain floats,
with its own distance formula and degeneracy checks.  The package computes
the model only through PathGeometry; the tests compare it against this.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from mmloc import (DegenerateGeometry, Mode, Observation, ParamVector,
                   PathDescriptor, PathKind, PathSet, Scenario,
                   SingularCovariance, wrap)

LOG_TWO_PI = math.log(2.0 * math.pi)

# squared-length floor below which a path leg counts as degenerate
_DEGENERATE_EPS2 = 1e-18


class UndefinedAngle(ValueError):
    """Angle of the zero vector requested."""


def atan2q(y: float, x: float) -> float:
    """Quadrant-aware arctangent of y/x with range (-pi, pi].

    Raises UndefinedAngle at the origin.
    """
    if x == 0.0 and y == 0.0:
        raise UndefinedAngle("angle of the zero vector")
    a = math.atan2(y, x)
    if a == -math.pi:
        a = math.pi
    return a


def path_params(theta: ParamVector, path: PathDescriptor, scenario: Scenario,
                slot: Optional[int] = None) -> tuple[float, float, float]:
    """Noise-free (alpha, beta, d) of one path at parameters theta; in
    NoREM an NLOS path's bounce point is theta.scatterers[slot]."""
    p = theta.ue
    q = scenario.fes[path.fe_index]
    if path.kind is PathKind.LOS:
        d = p.distance_to(q)
        if d * d <= _DEGENERATE_EPS2:
            raise DegenerateGeometry("UE coincides with FE")
        aim = q
        dep = p
    else:
        if theta.mode is Mode.NOREM:
            s = theta.scatterers[slot]
        else:
            s = path.true_scatterer
            if s is None:
                raise DegenerateGeometry("REM mode requires known scatterers")
        leg_p = s.distance_to(p)
        leg_q = s.distance_to(q)
        if leg_p * leg_p <= _DEGENERATE_EPS2 or leg_q * leg_q <= _DEGENERATE_EPS2:
            raise DegenerateGeometry("scatterer coincides with an endpoint")
        d = leg_p + leg_q
        aim = s
        dep = s
    alpha = atan2q(aim.x - p.x, aim.y - p.y)
    beta = atan2q(dep.x - q.x, dep.y - q.y)
    return alpha, beta, d


def forward(theta: ParamVector, paths: PathSet,
            scenario: Scenario) -> np.ndarray:
    """Noise-free stacked measurement vector h(theta)."""
    if theta.mode is Mode.NOREM and len(theta.scatterers) != paths.n_nlos:
        raise ValueError("parameter vector does not match the path set")
    vals = [path_params(theta, path, scenario, j - paths.n_los)
            for j, path in enumerate(paths)]
    alpha, beta, dist = zip(*vals)
    return np.concatenate([alpha, beta, dist]).astype(float)


def residual(z: Observation, theta: ParamVector,
             scenario: Scenario) -> np.ndarray:
    """Measurement-minus-model vector with wrapped angle entries."""
    h = forward(theta, z.paths, scenario)
    r = z.z - h
    n_angle = 2 * z.paths.n_paths
    r[:n_angle] = wrap(r[:n_angle])
    return r


def log_likelihood(z: Observation, theta: ParamVector,
                   scenario: Scenario) -> float:
    """Gaussian log-density of z under the forward model at theta."""
    cov = np.asarray(z.covariance_diag, dtype=float)
    if np.any(cov <= 0.0) or not np.all(np.isfinite(cov)):
        raise SingularCovariance("covariance diagonal must be positive and finite")
    r = residual(z, theta, scenario)
    quad = float(np.sum(r * r / cov))
    return -0.5 * (z.m * LOG_TWO_PI + float(np.sum(np.log(cov))) + quad)
