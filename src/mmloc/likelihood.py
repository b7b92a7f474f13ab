"""Gaussian log-likelihood of stacked path measurements.

Residuals subtract the model from the measurement; angle residuals are
wrapped into [-pi, pi) so a measurement and model on opposite sides of the
branch cut stay close.  The covariance is diagonal, so whitening is a
per-entry scale.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SingularCovariance
from .geometry import PathSet, Scenario
from .measurement import (Mode, Observation, ParamVector, PathGeometry,
                          forward, wrap)

LOG_TWO_PI = math.log(2.0 * math.pi)


class LikelihoodEngine:
    """Batched residual/likelihood evaluation for observations of one path
    set.

    Compiles the path structure once; all methods take flat parameter
    arrays of shape (..., dim).  Rows flagged invalid by valid() get
    log-likelihood -inf rather than garbage.

    z is one Observation, or a sequence of observations of the same path
    set with the same covariance (say, the trials of a Monte-Carlo run);
    obs then gives, per parameter row, the index of the observation that
    row is scored against.  Every row is reduced along its own contiguous
    measurement axis, so a row's value does not depend on the other rows
    of the call.
    """

    def __init__(self, z, scenario: Scenario, mode: Mode):
        obs = [z] if isinstance(z, Observation) else list(z)
        if not obs:
            raise ValueError("need at least one observation")
        cov = np.asarray(obs[0].covariance_diag, dtype=float)
        if np.any(cov <= 0.0) or not np.all(np.isfinite(cov)):
            raise SingularCovariance("covariance diagonal must be positive and finite")
        for o in obs[1:]:
            if o.paths != obs[0].paths or \
                    not np.array_equal(o.covariance_diag, cov):
                raise ValueError(
                    "observations must share paths and covariance")
        self.geom = PathGeometry(obs[0].paths, scenario, mode)
        self.z = np.stack([o.z for o in obs])  # (n_obs, m)
        self.cov = cov
        self.inv_sigma = 1.0 / np.sqrt(cov)
        self.m = obs[0].m
        self.log_norm = -0.5 * (self.m * LOG_TWO_PI + float(np.sum(np.log(cov))))
        self.n_angle = 2 * obs[0].paths.n_paths  # alpha and beta blocks wrap

    @property
    def dim(self) -> int:
        return self.geom.dim

    def _wrap_residual(self, h: np.ndarray, obs=None) -> np.ndarray:
        if obs is None:
            if len(self.z) > 1:
                raise ValueError("obs is required with several observations")
            z = self.z[0]
        else:
            z = self.z[obs]
        # C order whatever h's layout: the reductions below then run along
        # contiguous rows, in the same order for a row alone or in a batch
        r = np.subtract(z, h, order="C")
        r[..., :self.n_angle] = wrap(r[..., :self.n_angle])
        return r

    def residual(self, thetas: np.ndarray) -> np.ndarray:
        return self._wrap_residual(self.geom.h(thetas))

    def valid(self, thetas: np.ndarray) -> np.ndarray:
        return self.geom.valid(thetas)

    def cost_valid(self, thetas: np.ndarray, obs=None):
        """(half squared whitened residual norm, validity); cost is +inf on
        degenerate rows.  log_likelihood == log_norm - cost."""
        h, ok = self.geom.h_valid(thetas)
        w = self._wrap_residual(h, obs) * self.inv_sigma
        cost = 0.5 * np.einsum("...i,...i->...", w, w)
        return np.where(ok, cost, np.inf), ok

    def log_likelihood(self, thetas: np.ndarray) -> np.ndarray:
        """Log-density of the observation at each parameter row; -inf on
        degenerate rows."""
        cost, _ = self.cost_valid(thetas)
        return self.log_norm - cost

    def linearize(self, thetas: np.ndarray, obs=None):
        """(r_w, J_w, cost, valid) in one geometry pass."""
        h, J, ok = self.geom.h_jacobian_valid(thetas)
        r_w = self._wrap_residual(h, obs) * self.inv_sigma
        J_w = J * self.inv_sigma[:, None]
        cost = 0.5 * np.einsum("...i,...i->...", r_w, r_w)
        return r_w, J_w, np.where(ok, cost, np.inf), ok


def _one_row(z: Observation, theta: ParamVector,
             scenario: Scenario) -> tuple[LikelihoodEngine, np.ndarray]:
    """Engine holding z alone, in theta's mode, and theta as its one row."""
    eng = LikelihoodEngine(z, scenario, theta.mode)
    return eng, eng.geom.row(theta)[None, :]


def residual(z: Observation, theta: ParamVector,
             scenario: Scenario) -> np.ndarray:
    """Measurement-minus-model vector with wrapped angle entries."""
    eng, row = _one_row(z, theta, scenario)
    return eng.residual(row)[0]


def log_likelihood(z: Observation, theta: ParamVector,
                   scenario: Scenario) -> float:
    """Gaussian log-density of z under the forward model at theta."""
    eng, row = _one_row(z, theta, scenario)
    return float(eng.log_likelihood(row)[0])


def jacobian(theta: ParamVector, paths: PathSet,
             scenario: Scenario) -> np.ndarray:
    """Analytic Jacobian of the stacked forward model, shape (m, dim).

    Rows follow measurement stacking (alphas, betas, distances); columns
    follow the flat parameter layout.  NLOS departure-angle rows have zero
    UE derivatives: the bounce point, not the UE, sets that bearing.
    ValueError if theta does not match the path set, DegenerateGeometry
    at a degenerate configuration.
    """
    geom = PathGeometry(paths, scenario, theta.mode)
    return geom.h_jacobian_valid(geom.row(theta))[1]


def jacobian_fd(theta: ParamVector, paths: PathSet, scenario: Scenario,
                step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian; angle rows are differenced through wrap.

    Meant as an independent check of jacobian(), not for production use.
    """
    arr = theta.to_array()
    mode = theta.mode
    n_angle = 2 * paths.n_paths
    cols = []
    for j in range(arr.size):
        hi, lo = arr.copy(), arr.copy()
        hi[j] += step
        lo[j] -= step
        fp = forward(ParamVector.from_array(hi, mode), paths, scenario)
        fm = forward(ParamVector.from_array(lo, mode), paths, scenario)
        diff = fp - fm
        diff[:n_angle] = wrap(diff[:n_angle])
        cols.append(diff / (2.0 * step))
    return np.stack(cols, axis=1)
