"""Command-line entry point: one subcommand per experiment family over
the preset street scenes, driven by YAML configs with flag overrides.

Angles cross this boundary in degrees and are converted once on
ingestion; everything below works in radians.  All randomness flows from
the single top-level seed through indexed substreams, so a rerun of any
command with the same config is byte-identical.  Each run writes its CSV
artifacts plus a JSON summary whose statistics are recomputed from the
CSVs after writing, so summary and files can never disagree.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional

import numpy as np
import yaml

from . import __version__
from . import harness as H
from .bounds import CrbField, GridSpec, crb_grid
from .errors import ConfigError, ExperimentError, MmlocError
from .estimator import GapfConfig, check_sufficiency
from .estimator import estimate as run_estimator
from .geometry import (PathKind, Point2, ReflectiveSide, Scenario, Wall,
                       WallAxis, enumerate_paths)
from .harness import fmt_value as _fmt
from .measurement import (PROFILE_PRESETS, Mode, NoiseProfile, ParamVector,
                          noise_profile_preset, noiseless_observation,
                          synthesize)

SCHEMA_VERSION = 1

COMMANDS = ("estimate", "mc", "sweep", "cdf", "field", "remmap")

_MODES = {"NoREM": (Mode.NOREM,), "REM": (Mode.REM,),
          "both": (Mode.NOREM, Mode.REM)}

_TOP_KEYS = {"scenario", "profile", "mode", "ue", "seed", "output_dir",
             "workers", "estimator", "experiment", "grid"}
# the estimator's seeds derive per run from seed, not config surface
_ESTIMATOR_KEYS = {"n_particles", "n_iterations", "process_std_position",
                   "anneal_factor", "lm_max_iters", "lm_tolerance",
                   "grid_spacing"}
_GRID_KEYS = {"x_min", "x_max", "y_min", "y_max", "spacing"}
_EXPERIMENT_KEYS = {
    "estimate": {"noiseless"},
    "mc": {"n_trials", "subset", "noiseless"},
    "sweep": {"sigma_deg", "subsets", "sigma_d", "n_trials"},
    "cdf": {"profiles"},
    "field": set(),
    "remmap": {"n_points"},
}
_SIX_SIGMA_KEYS = ("sigma_alpha_los_deg", "sigma_beta_los_deg",
                   "sigma_d_los", "sigma_alpha_nlos_deg",
                   "sigma_beta_nlos_deg", "sigma_d_nlos")


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class _Resolver:
    """Turns a raw config mapping into typed experiment inputs, recording
    every violation instead of stopping at the first."""

    def __init__(self, raw: dict, command: Optional[str] = None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        self.raw = raw
        self.command = command
        self.errs: list[str] = []
        for key in sorted(set(raw) - _TOP_KEYS):
            self.errs.append(f"{key}: unknown top-level key")
        self.profile = self._profile()
        self.scenario = self._scenario()
        self.modes = self._modes()
        self.ue = self._ue()
        self.seed = self._int("seed", 0, minimum=0)
        # echoed as configured: 0 (all cores) stays 0 in the summary
        self.workers = self._int("workers", 0, minimum=0)
        self.output_dir = self._output_dir()
        self.estimator = self._estimator()
        self.grid = self._grid()
        self.experiment = self._experiment()
        self._check_sufficiency()

    # -- field resolvers ---------------------------------------------------

    def _profile(self) -> Optional[NoiseProfile]:
        spec = self.raw.get("profile", "73GHz")
        if isinstance(spec, str):
            if spec not in PROFILE_PRESETS:
                self.errs.append(f"profile: unknown preset {spec!r}; "
                                 f"known: {sorted(PROFILE_PRESETS)}")
                return None
            return noise_profile_preset(spec)
        if not isinstance(spec, dict):
            self.errs.append("profile: must be a preset name or a mapping")
            return None
        label = spec.get("label", "custom")
        if "sigma_angle_deg" in spec:
            unknown = set(spec) - {"sigma_angle_deg", "sigma_d", "label"}
            if unknown:
                self.errs.append(f"profile: unknown keys {sorted(unknown)}")
                return None
            try:
                return NoiseProfile.equal_angles(
                    spec["sigma_angle_deg"], spec.get("sigma_d", 0.75),
                    label=label)
            except (TypeError, ValueError) as e:
                self.errs.append(f"profile: {e}")
                return None
        missing = [k for k in _SIX_SIGMA_KEYS if k not in spec]
        unknown = set(spec) - set(_SIX_SIGMA_KEYS) - {"label"}
        if missing or unknown:
            self.errs.append(
                "profile: inline mapping needs sigma_angle_deg or all of "
                f"{list(_SIX_SIGMA_KEYS)}; missing {missing}, "
                f"unexpected {sorted(unknown)}")
            return None
        try:
            return NoiseProfile.from_degrees(
                spec["sigma_alpha_los_deg"], spec["sigma_beta_los_deg"],
                spec["sigma_d_los"], spec["sigma_alpha_nlos_deg"],
                spec["sigma_beta_nlos_deg"], spec["sigma_d_nlos"],
                label=label)
        except (TypeError, ValueError) as e:
            self.errs.append(f"profile: {e}")
            return None

    def _scenario(self) -> Optional[Scenario]:
        spec = self.raw.get("scenario", "corner-1fe")
        prof = self.profile or noise_profile_preset("73GHz")
        if isinstance(spec, str):
            if spec not in H.SCENARIO_NAMES:
                self.errs.append(f"scenario: unknown preset {spec!r}; "
                                 f"known: {list(H.SCENARIO_NAMES)}")
                return None
            return H.scenario_preset(spec, prof)
        if not isinstance(spec, dict):
            self.errs.append("scenario: must be a preset name or a mapping")
            return None
        unknown = set(spec) - {"name", "walls", "fes"}
        if unknown:
            self.errs.append(f"scenario: unknown keys {sorted(unknown)}")
        walls = []
        for i, w in enumerate(spec.get("walls") or []):
            if not isinstance(w, dict):
                self.errs.append(f"scenario.walls[{i}]: must be a mapping")
                continue
            try:
                walls.append(Wall(WallAxis(w["axis"]), float(w["offset"]),
                                  ReflectiveSide(w["side"])))
            except (KeyError, TypeError, ValueError) as e:
                self.errs.append(f"scenario.walls[{i}]: {e}")
        fes = []
        for i, q in enumerate(spec.get("fes") or []):
            if (isinstance(q, (list, tuple)) and len(q) == 2
                    and all(_is_num(c) for c in q)):
                fes.append(Point2(float(q[0]), float(q[1])))
            else:
                self.errs.append(
                    f"scenario.fes[{i}]: must be a finite [x, y] pair")
        try:
            return Scenario(tuple(walls), tuple(fes), prof,
                            name=str(spec.get("name", "custom")))
        except (TypeError, ValueError) as e:
            self.errs.append(f"scenario: {e}")
            return None

    def _modes(self) -> tuple[Mode, ...]:
        name = self.raw.get("mode", "NoREM")
        if name not in _MODES:
            self.errs.append(f"mode: must be one of {sorted(_MODES)} "
                             f"(got {name!r})")
            return (Mode.NOREM,)
        return _MODES[name]

    def _ue(self) -> Optional[Point2]:
        spec = self.raw.get("ue")
        if spec is None:
            name = getattr(self.scenario, "name", None)
            return H.EXAMPLE_UES.get(name)
        if (isinstance(spec, (list, tuple)) and len(spec) == 2
                and all(_is_num(c) for c in spec)):
            return Point2(float(spec[0]), float(spec[1]))
        self.errs.append("ue: must be a finite [x, y] pair")
        return None

    def _int(self, key: str, default: int, minimum: int) -> int:
        v = self.raw.get(key, default)
        if not _is_int(v) or v < minimum:
            self.errs.append(f"{key}: must be an integer >= {minimum} "
                             f"(got {v!r})")
            return default
        return v

    def _output_dir(self) -> str:
        v = self.raw.get("output_dir", "out")
        if not isinstance(v, str) or not v:
            self.errs.append("output_dir: must be a non-empty path string")
            return "out"
        probe = os.path.abspath(v)
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.access(probe, os.W_OK):
            self.errs.append(f"output_dir: {v!r} is not writable")
        return v

    def _estimator(self) -> GapfConfig:
        spec = self.raw.get("estimator", {})
        if not isinstance(spec, dict):
            self.errs.append("estimator: must be a mapping")
            return GapfConfig()
        unknown = set(spec) - _ESTIMATOR_KEYS
        if unknown:
            self.errs.append(f"estimator: unknown keys {sorted(unknown)}; "
                             f"known: {sorted(_ESTIMATOR_KEYS)}")
        fields = {k: v for k, v in spec.items() if k in _ESTIMATOR_KEYS}
        try:
            return GapfConfig(**fields)
        except (TypeError, ValueError) as e:
            self.errs.append(f"estimator: {e}")
            return GapfConfig()

    def _grid(self) -> GridSpec:
        name = getattr(self.scenario, "name", None)
        fallback = H.grid_preset(name) if name in H.SCENARIO_NAMES \
            else GridSpec(0.5, 19.5, 0.5, 49.5, 1.0)
        spec = self.raw.get("grid")
        if spec is None:
            return fallback
        if not isinstance(spec, dict):
            self.errs.append("grid: must be a mapping")
            return fallback
        unknown = set(spec) - _GRID_KEYS
        missing = _GRID_KEYS - set(spec)
        if unknown or missing:
            self.errs.append(f"grid: needs exactly {sorted(_GRID_KEYS)}; "
                             f"missing {sorted(missing)}, "
                             f"unexpected {sorted(unknown)}")
            return fallback
        try:
            return GridSpec(**{k: float(spec[k]) for k in _GRID_KEYS})
        except (TypeError, ValueError) as e:
            self.errs.append(f"grid: {e}")
            return fallback

    def _experiment(self) -> dict:
        spec = self.raw.get("experiment", {})
        if not isinstance(spec, dict):
            self.errs.append("experiment: must be a mapping")
            spec = {}
        allowed = _EXPERIMENT_KEYS.get(self.command) if self.command \
            else set().union(*_EXPERIMENT_KEYS.values())
        unknown = set(spec) - allowed
        if unknown:
            self.errs.append(f"experiment: unknown keys {sorted(unknown)} "
                             f"for command {self.command or 'any'}")
        out = {"noiseless": False, "n_trials": 500, "subset": "all",
               "sigma_deg": [1.0, 5.0, 10.0, 20.0, 30.0, 40.0],
               "subsets": ["all", "los", "nlos"], "sigma_d": 0.75,
               "profiles": ["28GHz", "73GHz"], "n_points": 20}
        if self.command == "sweep":
            out["n_trials"] = 0
        checks = {
            "noiseless": (lambda v: isinstance(v, bool), "a boolean"),
            "n_trials": (lambda v: _is_int(v) and v >= 0,
                         "an integer >= 0"),
            "subset": (lambda v: v in ("all", "los", "nlos"),
                       "one of all/los/nlos"),
            "sigma_deg": (lambda v: isinstance(v, list) and v
                          and all(_is_num(s) and s > 0 for s in v),
                          "a non-empty list of positive degrees"),
            "subsets": (lambda v: isinstance(v, list) and v
                        and all(s in ("all", "los", "nlos") for s in v),
                        "a non-empty list from all/los/nlos"),
            "sigma_d": (lambda v: _is_num(v) and v > 0, "a positive number"),
            "profiles": (lambda v: isinstance(v, list) and v
                         and all(p in PROFILE_PRESETS for p in v),
                         f"a non-empty list from {sorted(PROFILE_PRESETS)}"),
            "n_points": (lambda v: _is_int(v) and v >= 2,
                         "an integer >= 2"),
        }
        for key, val in spec.items():
            if key not in checks:
                continue
            ok, want = checks[key]
            if ok(val):
                out[key] = val
            else:
                self.errs.append(f"experiment.{key}: must be {want} "
                                 f"(got {val!r})")
        if self.command == "mc" and out["n_trials"] < 1:
            self.errs.append("experiment.n_trials: must be >= 1 for mc")
        return out

    def _check_sufficiency(self) -> None:
        if self.scenario is None or self.ue is None:
            if self.ue is None and not self.errs:
                self.errs.append("ue: required (no preset position for a "
                                 "custom scenario)")
            return
        subset = self.experiment["subset"]
        try:
            paths = enumerate_paths(self.scenario, self.ue)
            paths = paths.subset(H.subset_indices(paths, subset))
            for mode in self.modes:
                check_sufficiency(paths, mode)
        except (MmlocError, ValueError) as e:  # ValueError: empty subset
            self.errs.append(f"ue: no sufficient {subset!r} path set at "
                             f"({self.ue.x}, {self.ue.y}): {e}")

    @property
    def n_workers(self) -> int:
        """Worker processes to run with: the configured cap, or one per
        core when the cap is 0."""
        return self.workers or os.cpu_count() or 1

    # -- outputs -------------------------------------------------------------

    def raise_if_invalid(self) -> "_Resolver":
        if self.errs:
            raise ConfigError("invalid config: " + "; ".join(self.errs))
        return self

    def echo(self) -> dict:
        """Fully resolved config, presets expanded, degrees at the edge."""
        sc, prof = self.scenario, self.profile
        deg = math.degrees
        return {
            "scenario": None if sc is None else {
                "name": sc.name,
                "walls": [{"axis": w.axis.value, "offset": w.offset,
                           "side": w.reflective_side.value}
                          for w in sc.walls],
                "fes": [[q.x, q.y] for q in sc.fes],
            },
            "profile": None if prof is None else {
                "label": prof.label,
                "sigma_alpha_los_deg": deg(prof.sigma_alpha_los),
                "sigma_beta_los_deg": deg(prof.sigma_beta_los),
                "sigma_d_los": prof.sigma_d_los,
                "sigma_alpha_nlos_deg": deg(prof.sigma_alpha_nlos),
                "sigma_beta_nlos_deg": deg(prof.sigma_beta_nlos),
                "sigma_d_nlos": prof.sigma_d_nlos,
            },
            "mode": self.raw.get("mode", "NoREM"),
            "ue": None if self.ue is None else [self.ue.x, self.ue.y],
            "seed": self.seed,
            "workers": self.workers,
            "output_dir": self.output_dir,
            "estimator": {k: getattr(self.estimator, k)
                          for k in sorted(_ESTIMATOR_KEYS)},
            "grid": {k: getattr(self.grid, k) for k in sorted(_GRID_KEYS)},
            "experiment": {k: self.experiment[k]
                           for k in sorted(_EXPERIMENT_KEYS.get(
                               self.command, self.experiment))},
        }


# --------------------------------------------------------------------------
# summary plumbing
# --------------------------------------------------------------------------

def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _summary(command: str, res: _Resolver, outputs: dict,
             results: dict, run: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "seed": res.seed,
        "config": res.echo(),
        "outputs": outputs,
        "results": results,
        "run": run,
    }


def _emit(out_dir: str, command: str, summary: dict) -> str:
    path = os.path.join(out_dir, f"{command}-summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_estimate(res: _Resolver, out_dir: str) -> dict:
    sc, ue, cfg = res.scenario, res.ue, res.estimator
    noiseless = res.experiment["noiseless"]
    paths = enumerate_paths(sc, ue)
    truth = ParamVector.truth_from_paths(ue, paths, Mode.NOREM)
    synth_ss, est_seed = H.trial_seeds(res.seed, 0)
    if noiseless:
        obs = noiseless_observation(truth, paths, sc)
    else:
        obs = synthesize(truth, paths, sc, np.random.default_rng(synth_ss))
    rows, iterations = [], {}
    for mode in res.modes:
        rep = run_estimator(obs, sc, mode, cfg, [est_seed])
        m = mode.value
        rows += [[m, "ue_x_true", _fmt(ue.x)], [m, "ue_y_true", _fmt(ue.y)],
                 [m, "ue_x_est", _fmt(rep.theta_hat.ue.x)],
                 [m, "ue_y_est", _fmt(rep.theta_hat.ue.y)],
                 [m, "log_likelihood", _fmt(rep.log_likelihood)]]
        for i, s in enumerate(rep.theta_hat.scatterers):
            rows += [[m, f"s{i}_x_est", _fmt(s.x)],
                     [m, f"s{i}_y_est", _fmt(s.y)]]
        iterations[m] = rep.iterations_run
    csv_path = os.path.join(out_dir, "estimate.csv")
    _write_rows(csv_path, ["mode", "name", "value"], rows)

    results: dict = {}
    table = {(r[0], r[1]): float(r[2]) for r in _read_rows(csv_path)}
    for mode in res.modes:
        m = mode.value
        err = math.hypot(table[(m, "ue_x_est")] - table[(m, "ue_x_true")],
                         table[(m, "ue_y_est")] - table[(m, "ue_y_true")])
        results[m] = {
            "rmse": err,
            "ue_est": [table[(m, "ue_x_est")], table[(m, "ue_y_est")]],
            "log_likelihood": table[(m, "log_likelihood")],
        }
    results["rmse"] = max(results[mode.value]["rmse"] for mode in res.modes)
    return _summary("estimate", res, {"estimate": "estimate.csv"}, results,
                    {"iterations_run": iterations, "noiseless": noiseless})


def _cmd_mc(res: _Resolver, out_dir: str) -> dict:
    rows, causes = [], {}
    for mode in res.modes:
        r = H.mc_rmse(res.scenario, res.ue, mode, res.estimator,
                      res.experiment["n_trials"], res.seed,
                      workers=res.n_workers, subset=res.experiment["subset"],
                      noiseless=res.experiment["noiseless"])
        rows.append([mode.value, _fmt(r.rmse_est), _fmt(r.rmse_crb),
                     str(r.n_trials), str(r.failures), str(r.seed)])
        causes[mode.value] = r.failure_causes
    csv_path = os.path.join(out_dir, "mc.csv")
    _write_rows(csv_path, ["mode", "rmse_est", "rmse_crb", "n_trials",
                           "failures", "seed"], rows)
    results = {}
    for r in _read_rows(csv_path):
        est, crb = float(r[1]), float(r[2])
        results[r[0]] = {"rmse_est": est, "rmse_crb": crb,
                         "ratio": est / crb, "n_trials": int(r[3]),
                         "failures": int(r[4])}
    return _summary("mc", res, {"mc": "mc.csv"}, results,
                    {"failure_causes": causes})


def _cmd_sweep(res: _Resolver, out_dir: str) -> dict:
    ex = res.experiment
    sweep = H.beamwidth_sweep(
        res.scenario, res.ue,
        [math.radians(d) for d in ex["sigma_deg"]],
        subsets=tuple(ex["subsets"]), modes=res.modes, cfg=res.estimator,
        n_trials=ex["n_trials"], seed=res.seed, sigma_d=ex["sigma_d"],
        workers=res.n_workers)
    csv_path = os.path.join(out_dir, "sweep.csv")
    H.write_sweep_csv(csv_path, sweep)
    curves: dict = {}
    for sigma_deg, curve, rmse in _read_rows(csv_path):
        curves.setdefault(curve, []).append(float(rmse))
    results = {}
    for curve, vals in sorted(curves.items()):
        finite = [v for v in vals if math.isfinite(v)]
        results[curve] = {
            "n": len(vals),
            "n_finite": len(finite),
            "rmse_min": min(finite) if finite else None,
            "rmse_max": max(finite) if finite else None,
        }
    return _summary("sweep", res, {"sweep": "sweep.csv"}, results, {})


def _cmd_cdf(res: _Resolver, out_dir: str) -> dict:
    profiles = [noise_profile_preset(p) for p in res.experiment["profiles"]]
    curves = H.cdf_curve(res.scenario, res.grid, profiles, res.modes)
    csv_path = os.path.join(out_dir, "cdf.csv")
    H.write_cdf_csv(csv_path, curves)
    per_curve: dict = {}
    for curve, rmse, prob in _read_rows(csv_path):
        per_curve.setdefault(curve, []).append((float(rmse), float(prob)))
    results = {}
    for curve, pts in sorted(per_curve.items()):
        median = next(r for r, p in pts if p >= 0.5)
        results[curve] = {"n": len(pts), "median": median,
                          "rmse_max": pts[-1][0]}
    return _summary("cdf", res, {"cdf": "cdf.csv"}, results, {})


def _cmd_field(res: _Resolver, out_dir: str) -> dict:
    outputs: dict = {}
    fields = {}
    for mode in res.modes:
        fields[mode] = crb_grid(res.scenario, res.grid, mode)
        name = f"field-{mode.value.lower()}.csv"
        H.write_field_csv(os.path.join(out_dir, name), fields[mode])
        outputs[mode.value] = name
    if len(res.modes) == 2:
        norem, rem = fields[Mode.NOREM], fields[Mode.REM]
        delta = CrbField(norem.xs, norem.ys, norem.values - rem.values)
        outputs["delta"] = "field-delta.csv"
        H.write_field_csv(os.path.join(out_dir, "field-delta.csv"), delta)
    results = {}
    for key, name in outputs.items():
        vals = [float(r[2]) for r in _read_rows(os.path.join(out_dir, name))]
        finite = [v for v in vals if math.isfinite(v)]
        results[key] = {
            "n": len(vals),
            "n_valid": len(finite),
            "min": min(finite) if finite else None,
            "max": max(finite) if finite else None,
            "mean": sum(finite) / len(finite) if finite else None,
        }
    return _summary("field", res, outputs, results, {})


def _cmd_remmap(res: _Resolver, out_dir: str) -> dict:
    name = res.scenario.name
    if name in H.SCENARIO_NAMES:
        traj = H.trajectory_preset(name, res.experiment["n_points"])
    else:
        raise ConfigError("remmap: custom scenarios need a preset name for "
                          "the trajectory; use one of "
                          f"{list(H.SCENARIO_NAMES)}")
    remmap = H.build_rem_map(res.scenario, traj, res.estimator, res.seed,
                             workers=res.n_workers)
    csv_path = os.path.join(out_dir, "remmap.csv")
    H.write_remmap_csv(csv_path, remmap)
    rows = _read_rows(csv_path)
    xs = [float(r[0]) for r in rows]
    ys = [float(r[1]) for r in rows]
    results = {"n_entries": len(rows),
               "x_min": min(xs) if xs else None,
               "x_max": max(xs) if xs else None,
               "y_min": min(ys) if ys else None,
               "y_max": max(ys) if ys else None}
    return _summary("remmap", res, {"remmap": "remmap.csv"}, results,
                    {"n_points": len(traj), "failed_points":
                     list(remmap.failures),
                     "failure_causes": remmap.failure_causes})


_RUNNERS = {"estimate": _cmd_estimate, "mc": _cmd_mc, "sweep": _cmd_sweep,
            "cdf": _cmd_cdf, "field": _cmd_field, "remmap": _cmd_remmap}


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}")
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse config {path!r}: {e}")
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r}: root must be a mapping")
    return raw


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    out = dict(raw)
    if args.seed is not None:
        out["seed"] = args.seed
    if args.output_dir is not None:
        out["output_dir"] = args.output_dir
    if getattr(args, "workers", None) is not None:
        out["workers"] = args.workers
    return out


def validate_config(raw: dict, command: Optional[str] = None) -> list[str]:
    """Every invariant violation in the config, without running anything."""
    return list(_Resolver(raw, command).errs)


def _error_record(exc: Exception, command: str,
                  cause: Optional[Exception] = None) -> str:
    rec = {"type": type(exc).__name__, "command": command,
           "message": str(exc)}
    if cause is not None:
        rec["cause"] = type(cause).__name__
    return json.dumps({"schema_version": SCHEMA_VERSION, "error": rec},
                      sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mmloc",
        description="Single- and multipath mmWave localization experiments "
                    "over preset street scenes.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "estimate": "one synthesize-and-estimate round trip",
        "mc": "Monte-Carlo RMSE vs the position bound at one UE",
        "sweep": "bound (and optional MC) RMSE vs angular noise",
        "cdf": "bound CDF curves over the UE grid",
        "field": "bound field over the UE grid (plus delta when mode=both)",
        "remmap": "build a scatterer map along the preset trajectory",
    }
    for name in COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", help="YAML config file")
        sp.add_argument("--seed", type=int, help="override config seed")
        sp.add_argument("--output-dir", help="override output directory")
        sp.add_argument("--workers", type=int,
                        help="worker process cap (default: machine cores)")
    sp = sub.add_parser("validate", help="check a config without running")
    sp.add_argument("--config", required=True, help="YAML config file")
    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        raw = _load_config(args.config)
    except ConfigError as e:
        print(_error_record(e, command))
        return 2

    if command == "validate":
        errs = validate_config(raw)
        print(json.dumps({"schema_version": SCHEMA_VERSION, "valid":
                          not errs, "violations": errs}, sort_keys=True))
        return 0 if not errs else 2

    try:
        res = _Resolver(_apply_overrides(raw, args), command)
        res.raise_if_invalid()
        os.makedirs(res.output_dir, exist_ok=True)
        summary = _RUNNERS[command](res, res.output_dir)
        path = _emit(res.output_dir, command, summary)
    except ConfigError as e:
        print(_error_record(e, command))
        return 2
    except MmlocError as e:
        wrapped = ExperimentError(f"{command} failed: {e}")
        print(_error_record(wrapped, command, cause=e))
        return 3
    print(json.dumps({"schema_version": SCHEMA_VERSION,
                      "summary": path}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
