"""The benchmark's four workloads: the configs each hands the CLI, the
calls that make up one round, how the outputs are read back, and how
they are checked against the first-principles reference.

A round is a fixed list of CLI calls.  Round r of a run with seed s passes
the CLI the seed s * 10000 + r, so every round is new work and the same
seed always gives the same rounds.  Every run completes `fixed_rounds`
rounds, however fast the program is; the accuracy figure and the traced
counts come from those rounds only, so they repeat exactly at a seed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import mmloc.cli
import numpy as np
import yaml

import reference as R

UE = (8.0, 35.0)
CDF_PROFILES = ("28GHz", "73GHz")
# crosses both walls of the corner and has a node on each FE, so the
# node rule's every branch is exercised
FIELD_GRID = {"x_min": -2.0, "x_max": 20.0, "y_min": -2.0, "y_max": 50.0,
              "spacing": 1.0}
FIELD_XS, FIELD_YS = np.arange(-2.0, 21.0), np.arange(-2.0, 51.0)
REL_TOL = 1e-6     # relative agreement of bounds with the reference
ORDER_TOL = 1e-12  # slack on the pointwise orderings (criterion 6's)

# Map check limits, from 1600 bounce points over 20 seeds of the preset
# corner track: the largest distance from the wall line was 2.3 m and the
# 99th percentile 1.5 m; 2 points (0.13%) fell within 4 m of the corner.
WALL_LIMIT_ALL = 5.0
WALL_LIMIT_MOST, WALL_SHARE_MOST = 1.6, 0.95
CORNER_GAP, CORNER_SHARE_MAX = 4.0, 0.02


def round_seed(seed: int, r: int) -> int:
    return seed * 10000 + r


def write_configs(wl: "Workload", run_dir: str) -> dict:
    """Write the workload's configs into run_dir; name -> path."""
    paths = {}
    for name, cfg in wl.configs().items():
        paths[name] = os.path.join(run_dir, f"{name}.yaml")
        with open(paths[name], "w") as fh:
            yaml.safe_dump(dict(cfg, output_dir=run_dir), fh)
    return paths


def cli_call(argv: list) -> tuple[int, str]:
    """Run `mmloc <argv>` in this process; (exit code, printed text).

    mmloc.cli.main is looked up at call time, so a traced run sees it."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = mmloc.cli.main(argv)
    return code, sink.getvalue()


def ratio_band(n: int) -> tuple[float, float]:
    """Interval that rmse_est / rmse_crb over n successful trials must lie
    in (README, "The ratio band")."""
    half = 4.0 / math.sqrt(2.0 * n)
    return 0.9 - half, 1.15 + half


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _summary(out_dir: str, command: str) -> dict:
    with open(os.path.join(out_dir, f"{command}-summary.json")) as fh:
        return json.load(fh)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _echo_errors(cfg: dict, scene: str, profile=None) -> list[str]:
    """Compare the summary's resolved config with the reference scene."""
    errs = []
    walls, fes = R.SCENES[scene]
    sc = cfg["scenario"]
    got_walls = [(w["axis"], w["offset"], w["side"]) for w in sc["walls"]]
    want_walls = [("vertical" if a == "x" else "horizontal", o,
                   "positive" if s > 0 else "negative") for a, o, s in walls]
    if got_walls != want_walls or [tuple(q) for q in sc["fes"]] != list(fes):
        errs.append(f"scene {sc['name']} differs from the reference {scene}")
    if profile is not None:
        p = cfg["profile"]
        got = (p["sigma_alpha_los_deg"], p["sigma_beta_los_deg"],
               p["sigma_d_los"], p["sigma_alpha_nlos_deg"],
               p["sigma_beta_nlos_deg"], p["sigma_d_nlos"])
        if max(abs(a - b) for a, b in zip(got, profile)) > 1e-9:
            errs.append(f"profile {got} differs from the reference {profile}")
    if cfg["workers"] != 1:
        errs.append(f"ran with {cfg['workers']} workers, not 1")
    return errs


class Workload:
    name: str
    fixed_rounds: int

    def configs(self) -> dict:
        """Config name -> YAML mapping, written once in set-up."""
        raise NotImplementedError

    def calls(self) -> list[tuple[str, str]]:
        """One round: (command, config name) per CLI call."""
        raise NotImplementedError

    def read(self, command: str, config: str, out_dir: str,
             code: int) -> dict:
        """Read one call's outputs; the record carries attempted/failed."""
        raise NotImplementedError

    def check(self, rounds: list) -> tuple[list[str], float]:
        """(errors, est_rmse_m) over a run's rounds of records."""
        raise NotImplementedError


class MonteCarlo(Workload):
    """`mmloc mc` at the study UE of the one-FE corner."""

    def __init__(self, name, profile_cfg, profile, mode, subset, estimator,
                 trials, fixed_rounds):
        self.name = name
        self.profile_cfg, self.profile = profile_cfg, profile
        self.mode, self.subset = mode, subset
        self.modes = ("NoREM", "REM") if mode == "both" else (mode,)
        self.estimator, self.trials = estimator, trials
        self.fixed_rounds = fixed_rounds

    def configs(self):
        return {"mc": {"scenario": "corner-1fe", "profile": self.profile_cfg,
                       "mode": self.mode, "ue": list(UE), "workers": 1,
                       "estimator": self.estimator,
                       "experiment": {"n_trials": self.trials,
                                      "subset": self.subset}}}

    def calls(self):
        return [("mc", "mc")]

    def read(self, command, config, out_dir, code):
        n = self.trials * len(self.modes)
        if code != 0:  # exit 3: every trial of the call failed
            return {"code": code, "attempted": n, "failed": n}
        s = _summary(out_dir, "mc")
        res = {m: s["results"][m] for m in self.modes}
        return {"code": code, "config": s["config"], "results": res,
                "attempted": sum(r["n_trials"] for r in res.values()),
                "failed": sum(r["failures"] for r in res.values())}

    def reference_bounds(self) -> dict:
        scene = R.SCENES["corner-1fe"]
        structure = R.path_structure(scene, UE)
        if self.subset == "nlos":
            structure = tuple(p for p in structure if p[1] is not None)
        norem, rem = R.position_bounds(scene, self.profile, UE, structure)
        return {"NoREM": float(norem[0]), "REM": float(rem[0])}

    def check(self, rounds):
        errs = []
        crb = self.reference_bounds()
        # GapfConfig's defaults, where the config leaves them out
        want_est = {"n_particles": 50, "n_iterations": 20, **self.estimator}
        sq = {m: [0.0, 0] for m in self.modes}        # whole run
        sq_fixed = [0.0, 0]                            # fixed rounds
        for r, records in enumerate(rounds):
            for rec in records:
                if rec["code"] == 2:
                    errs.append("config rejected")
                if rec["code"] != 0:
                    continue
                cfg = rec["config"]
                errs += _echo_errors(cfg, "corner-1fe", self.profile)
                got_est = {k: cfg["estimator"][k] for k in want_est}
                if cfg["ue"] != list(UE) or got_est != want_est:
                    errs.append(f"ran at UE {cfg['ue']} with {got_est}")
                for m, res in rec["results"].items():
                    if _rel(res["rmse_crb"], crb[m]) > REL_TOL:
                        errs.append(f"{m} rmse_crb {res['rmse_crb']!r} != "
                                    f"reference {crb[m]!r}")
                    ok = res["n_trials"] - res["failures"]
                    part = res["rmse_est"] ** 2 * ok
                    sq[m][0] += part
                    sq[m][1] += ok
                    if r < self.fixed_rounds:
                        sq_fixed[0] += part
                        sq_fixed[1] += ok
        for m, (total, n) in sq.items():
            if n == 0:
                errs.append(f"{m}: no successful trial")
                continue
            ratio = math.sqrt(total / n) / crb[m]
            lo, hi = ratio_band(n)
            if not lo <= ratio <= hi:
                errs.append(f"{m}: rmse_est/rmse_crb {ratio:.4f} outside "
                            f"[{lo:.4f}, {hi:.4f}] at {n} trials")
        est = math.sqrt(sq_fixed[0] / sq_fixed[1]) if sq_fixed[1] else \
            float("nan")
        return errs, est


class RemMapCorner(Workload):
    """`mmloc remmap` along the preset track of the two-FE corner."""

    name = "remmap-corner"
    points = 20
    fixed_rounds = 3

    def configs(self):
        return {"remmap": {"scenario": "corner-2fe", "profile": "73GHz",
                           "mode": "NoREM", "workers": 1,
                           "experiment": {"n_points": self.points}}}

    def calls(self):
        return [("remmap", "remmap")]

    def read(self, command, config, out_dir, code):
        if code != 0:
            return {"code": code, "attempted": self.points,
                    "failed": self.points}
        s = _summary(out_dir, "remmap")
        rows = np.array(_read_csv(os.path.join(out_dir, "remmap.csv")),
                        dtype=float).reshape(-1, 7)
        return {"code": code, "config": s["config"],
                "n_entries": s["results"]["n_entries"], "rows": rows,
                "failed_points": s["run"]["failed_points"],
                "attempted": s["run"]["n_points"],
                "failed": len(s["run"]["failed_points"])}

    def check(self, rounds):
        errs = []
        scene = R.SCENES["corner-2fe"]
        track = R.corner_trajectory(self.points)
        truth = R.reflections_along(scene, track)
        sq_fixed, n_fixed = 0.0, 0
        wall_d, corner_d = [], []
        for r, records in enumerate(rounds):
            for rec in records:
                if rec["code"] != 0:
                    if rec["code"] == 2:
                        errs.append("config rejected")
                    continue
                errs += _echo_errors(rec["config"], "corner-2fe",
                                     R.PROFILES["73GHz"])
                rows = rec["rows"]
                kept = [i for i in range(self.points)
                        if i not in rec["failed_points"]]
                want = sum(len(truth[i][0]) for i in kept)
                if not rec["n_entries"] == len(rows) == want:
                    errs.append(f"{rec['n_entries']} map entries, "
                                f"{len(rows)} rows, reference {want}")
                    continue
                at = 0
                for i in kept:
                    pts, walls = truth[i]
                    block = rows[at:at + len(pts)]
                    at += len(pts)
                    if not np.allclose(block[:, 2:4], track[i], atol=1e-9):
                        errs.append(f"entries of track point {i} carry UE "
                                    f"{block[:1, 2:4].tolist()}")
                        continue
                    est = block[:, :2]
                    err2 = np.sum((est - pts) ** 2, axis=1)
                    if r < self.fixed_rounds:
                        sq_fixed += float(err2.sum())
                        n_fixed += len(pts)
                    wall_d += [float(R.wall_distance(w, e))
                               for w, e in zip(walls, est)]
                    corner_d += np.hypot(est[:, 0], est[:, 1]).tolist()
        wall_d, corner_d = np.array(wall_d), np.array(corner_d)
        if wall_d.size:
            if wall_d.max() > WALL_LIMIT_ALL:
                errs.append(f"bounce point {wall_d.max():.2f} m off its wall "
                            f"(> {WALL_LIMIT_ALL} m)")
            near = float(np.mean(wall_d <= WALL_LIMIT_MOST))
            if near < WALL_SHARE_MOST:
                errs.append(f"only {near:.1%} of bounce points within "
                            f"{WALL_LIMIT_MOST} m of their wall")
            gap = float(np.mean(corner_d < CORNER_GAP))
            if gap > CORNER_SHARE_MAX:
                errs.append(f"{gap:.1%} of bounce points within "
                            f"{CORNER_GAP} m of the corner")
        est = math.sqrt(sq_fixed / n_fixed) if n_fixed else float("nan")
        return errs, est


class BoundGrid(Workload):
    """`mmloc cdf` on the four preset scenes plus one `mmloc field`."""

    name = "bound-grid"
    fixed_rounds = 1

    def configs(self):
        out = {f"cdf-{s}": {"scenario": s, "mode": "both", "workers": 1,
                            "experiment": {"profiles": list(CDF_PROFILES)}}
               for s in R.SCENES}
        out["field"] = {"scenario": "corner-2fe", "profile": "73GHz",
                        "mode": "both", "workers": 1, "grid": FIELD_GRID}
        return out

    def calls(self):
        return [("cdf", f"cdf-{s}") for s in R.SCENES] + [("field", "field")]

    def read(self, command, config, out_dir, code):
        if command == "cdf":
            xs, ys = R.street_grid()
            nodes = len(CDF_PROFILES) * 2 * xs.size * ys.size
        else:
            nodes = 2 * FIELD_XS.size * FIELD_YS.size
        if code != 0:
            return {"code": code, "config_name": config, "attempted": nodes,
                    "failed": nodes}
        s = _summary(out_dir, command)
        rec = {"code": code, "config_name": config, "config": s["config"],
               "results": s["results"], "attempted": nodes, "failed": 0}
        if command == "cdf":
            curves: dict = {}
            for curve, rmse, prob in _read_csv(os.path.join(out_dir,
                                                            "cdf.csv")):
                curves.setdefault(curve, []).append((float(rmse),
                                                     float(prob)))
            rec["curves"] = {k: np.array(v) for k, v in curves.items()}
        else:
            rec["fields"] = {
                key: np.array(_read_csv(os.path.join(out_dir, name)),
                              dtype=float).reshape(-1, 3)
                for key, name in s["outputs"].items()}
        return rec

    def references(self) -> dict:
        xs, ys = R.street_grid()
        out = {}
        for scene in R.SCENES:
            for prof in CDF_PROFILES:
                fields = R.bound_fields(R.SCENES[scene], R.PROFILES[prof],
                                        xs, ys)
                for mode, f in zip(("NoREM", "REM"), fields):
                    out[(scene, prof, mode)] = np.sort(f[np.isfinite(f)])
        return out

    def _check_cdf(self, rec, refs) -> list[str]:
        scene = rec["config_name"][len("cdf-"):]
        errs = _echo_errors(rec["config"], scene)
        curves = rec["curves"]
        want = {f"{p}:{m}" for p in CDF_PROFILES for m in ("NoREM", "REM")}
        if set(curves) != want:
            return errs + [f"{scene}: curves {sorted(curves)}"]
        for key, pts in curves.items():
            prof, mode = key.split(":")
            ref = refs[(scene, prof, mode)]
            n = len(pts)
            if n != ref.size or rec["results"][key]["n"] != n:
                errs.append(f"{scene} {key}: {n} values, reference "
                            f"{ref.size}")
                continue
            dev = float(np.max(np.abs(pts[:, 0] - ref) / ref))
            if dev > REL_TOL:
                errs.append(f"{scene} {key}: values off the reference by "
                            f"{dev:.2e} relative")
            if np.any(np.abs(pts[:, 1] - np.arange(1, n + 1) / n) > 1e-9):
                errs.append(f"{scene} {key}: probabilities are not k/n")
        for prof in CDF_PROFILES:
            if np.any(curves[f"{prof}:REM"][:, 0]
                      > curves[f"{prof}:NoREM"][:, 0] + ORDER_TOL):
                errs.append(f"{scene} {prof}: REM above NoREM")
        for mode in ("NoREM", "REM"):
            if np.any(curves[f"73GHz:{mode}"][:, 0]
                      > curves[f"28GHz:{mode}"][:, 0] + ORDER_TOL):
                errs.append(f"{scene} {mode}: 73GHz above 28GHz")
        return errs

    def _check_field(self, rec) -> list[str]:
        errs = _echo_errors(rec["config"], "corner-2fe", R.PROFILES["73GHz"])
        fields = rec["fields"]
        if set(fields) != {"NoREM", "REM", "delta"}:
            return errs + [f"field outputs {sorted(fields)}"]
        xs, ys = FIELD_XS, FIELD_YS
        scene = R.SCENES["corner-2fe"]
        skip = R.excluded_nodes(scene, xs, ys)
        ref = dict(zip(("NoREM", "REM"), R.bound_fields(
            scene, R.PROFILES["73GHz"], xs, ys)))
        vals = {}
        for key, rows in fields.items():
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            if rows.shape[0] != xs.size * ys.size or not (
                    np.allclose(rows[:, 0], gx.ravel())
                    and np.allclose(rows[:, 1], gy.ravel())):
                errs.append(f"field {key}: nodes differ from the grid")
                return errs
            vals[key] = rows[:, 2].reshape(xs.size, ys.size)
            nan = np.isnan(vals[key])
            if not np.array_equal(nan, skip):
                errs.append(f"field {key}: NaN at {int(nan.sum())} nodes, "
                            f"the node rule excludes {int(skip.sum())}")
        if errs:
            return errs
        ok = ~skip
        for key in ("NoREM", "REM"):
            dev = float(np.max(np.abs(vals[key][ok] - ref[key][ok])
                               / ref[key][ok]))
            if dev > REL_TOL:
                errs.append(f"field {key}: off the reference by {dev:.2e}")
        if np.any(vals["REM"][ok] > vals["NoREM"][ok] + ORDER_TOL):
            errs.append("field: REM above NoREM")
        delta = vals["delta"][ok]
        if np.any(delta < -ORDER_TOL) or np.any(np.abs(
                delta - (vals["NoREM"][ok] - vals["REM"][ok]))
                > REL_TOL * vals["NoREM"][ok]):
            errs.append("field: delta is not NoREM - REM >= 0")
        return errs

    def check(self, rounds):
        errs = []
        refs = self.references()
        for records in rounds:
            for rec in records:
                if rec["code"] != 0:
                    errs.append(f"{rec['config_name']}: exit {rec['code']}")
                elif "curves" in rec:
                    errs += self._check_cdf(rec, refs)
                else:
                    errs += self._check_field(rec)
        first = [v for rec in rounds[0] if "curves" in rec
                 for v in rec["curves"].values()]
        est = math.sqrt(float(np.mean(np.concatenate(first)[:, 0] ** 2))) \
            if first else float("nan")
        return errs, est


WORKLOADS = {w.name: w for w in (
    MonteCarlo(
        "mc-los", {"sigma_angle_deg": 6.0, "sigma_d": 0.75},
        R.equal_angles(6.0, 0.75), "both", "all",
        {"n_particles": 16, "n_iterations": 10}, trials=8, fixed_rounds=14),
    MonteCarlo(
        "mc-nlos-pair", "73GHz", R.PROFILES["73GHz"], "NoREM", "nlos", {},
        trials=4, fixed_rounds=10),
    RemMapCorner(),
    BoundGrid(),
)}
