"""Command line interface: config validation, artifacts, exit codes."""
import json
import math
import os

import pytest
import yaml

import mmloc.estimator
import mmloc.harness
from mmloc import AllTrialsFailed, DegenerateGeometry
from mmloc.cli import main, validate_config

LIGHT_EST = {"n_particles": 16, "n_iterations": 6}


def _write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


def _summary_of(payload):
    with open(payload["summary"]) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "corner-1fe", "seed": 3,
                                "output_dir": str(tmp_path / "out")})
    code, payload = _run(capsys, ["validate", "--config", cfg])
    assert code == 0
    assert payload["valid"] is True and payload["violations"] == []


def test_validate_names_each_violation(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "profile": {"sigma_angle_deg": 5.0, "sigma_d": -1.0},
        "scenario": {"name": "empty", "walls": [
            {"axis": "vertical", "offset": 0.0, "side": "positive"}],
            "fes": []},
        "bogus_key": 1,
        "estimator": {"n_particles": 0},
    })
    code, payload = _run(capsys, ["validate", "--config", cfg])
    assert code == 2
    assert payload["valid"] is False
    text = "; ".join(payload["violations"])
    assert "bogus_key" in text
    assert "profile" in text and "sigma_d" in text
    assert "scenario" in text
    assert "n_particles" in text


@pytest.mark.parametrize("est", [{"n_iterations": 2.5},
                                 {"lm_max_iters": 3.5},
                                 {"n_iterations": True}])
@pytest.mark.parametrize("command", ["validate", "mc"])
def test_non_integer_counts_are_config_errors(tmp_path, capsys, est,
                                              command):
    """A float or bool count fails validation, naming its key, instead
    of crashing the run or being read as 1."""
    cfg = _write_cfg(tmp_path, {"scenario": "corner-1fe", "estimator": est,
                                "output_dir": str(tmp_path / "out")})
    code, payload = _run(capsys, [command, "--config", cfg])
    assert code == 2
    assert next(iter(est)) in json.dumps(payload)
    assert not (tmp_path / "out").exists()


def test_validate_config_function_scopes_experiment_keys():
    raw = {"scenario": "corner-1fe", "experiment": {"n_points": 4}}
    assert validate_config(raw, "remmap") == []
    errs = validate_config(raw, "mc")
    assert errs and "n_points" in errs[0]


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code, payload = _run(capsys, ["mc", "--config",
                                  str(tmp_path / "absent.yaml")])
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"


def test_malformed_yaml_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("scenario: [unclosed\n")
    code, payload = _run(capsys, ["estimate", "--config", str(path)])
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"


def test_insufficient_ue_position_rejected(tmp_path, capsys):
    # a UE on the FE admits no usable path
    cfg = _write_cfg(tmp_path, {"scenario": "corner-1fe", "ue": [18.0, 10.0],
                                "output_dir": str(tmp_path / "out")})
    code, payload = _run(capsys, ["estimate", "--config", cfg])
    assert code == 2
    assert "ue" in payload["error"]["message"]


def test_validate_checks_the_mc_subset_in_each_mode(tmp_path, capsys):
    """canyon-1fe has one reflection: enough in REM, not in NoREM."""
    def validate(mode):
        cfg = _write_cfg(tmp_path, {
            "scenario": "canyon-1fe", "mode": mode,
            "output_dir": str(tmp_path / "out"),
            "experiment": {"subset": "nlos"}}, name=f"{mode}.yaml")
        return _run(capsys, ["validate", "--config", cfg])

    code, payload = validate("NoREM")
    assert code == 2
    text = "; ".join(payload["violations"])
    assert "'nlos'" in text and "NoREM" in text
    assert validate("both")[0] == 2
    code, payload = validate("REM")
    assert code == 0 and payload["violations"] == []
    # no wall, so no reflection at all: the subset is empty
    errs = validate_config({
        "scenario": {"name": "open", "walls": [], "fes": [[0.0, 0.0]]},
        "ue": [5.0, 5.0], "mode": "REM", "experiment": {"subset": "nlos"}})
    assert len(errs) == 1 and "'nlos'" in errs[0]



# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_noiseless_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {
        "scenario": "corner-1fe", "mode": "both", "seed": 11,
        "output_dir": str(out), "estimator": LIGHT_EST,
        "experiment": {"noiseless": True},
    })
    code, payload = _run(capsys, ["estimate", "--config", cfg])
    assert code == 0
    summary = _summary_of(payload)
    assert summary["schema_version"] == 1
    assert summary["command"] == "estimate" and summary["seed"] == 11
    assert summary["results"]["rmse"] < 1e-4
    assert (out / "estimate.csv").exists()
    # echo carries the expanded preset, degrees at the boundary
    echo = summary["config"]
    assert echo["scenario"]["name"] == "corner-1fe"
    assert len(echo["scenario"]["walls"]) == 2
    assert echo["profile"]["sigma_alpha_los_deg"] == pytest.approx(8.5)
    assert echo["estimator"]["n_particles"] == 16
    assert "rng_seed" not in echo["estimator"]
    assert echo["ue"] == [15.0, 15.0]


def test_summary_echoes_configured_workers(tmp_path, capsys, monkeypatch):
    """workers: 0 means one per core; the summary records the 0, so its
    bytes do not depend on the machine's core count."""
    cfg = _write_cfg(tmp_path, {
        "scenario": "corner-1fe", "workers": 0, "estimator": LIGHT_EST,
        "output_dir": str(tmp_path / "out"),
        "experiment": {"noiseless": True},
    })
    summaries = []
    for cores in (2, 7):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, payload = _run(capsys, ["estimate", "--config", cfg])
        assert code == 0
        summaries.append(open(payload["summary"], "rb").read())
    assert summaries[0] == summaries[1]
    assert json.loads(summaries[0])["config"]["workers"] == 0


def test_estimate_seed_override_changes_output(tmp_path, capsys):
    base = {"scenario": "corner-1fe", "seed": 1, "estimator": LIGHT_EST}
    ests = {}
    for seed in (1, 2):
        out = tmp_path / f"out{seed}"
        cfg = _write_cfg(tmp_path, dict(base, output_dir=str(out)),
                         name=f"c{seed}.yaml")
        code, payload = _run(capsys, ["estimate", "--config", cfg,
                                      "--seed", str(seed)])
        assert code == 0
        summary = _summary_of(payload)
        assert summary["seed"] == seed
        ests[seed] = summary["results"]["NoREM"]["ue_est"]
    assert ests[1] != ests[2]


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def _mc_cfg(tmp_path, out_name="out"):
    return _write_cfg(tmp_path, {
        "scenario": "corner-1fe", "mode": "REM", "seed": 9,
        "output_dir": str(tmp_path / out_name), "estimator": LIGHT_EST,
        "experiment": {"n_trials": 4},
    }, name=f"{out_name}.yaml")


def test_mc_summary_matches_csv_and_reruns_identically(tmp_path, capsys):
    cfg = _mc_cfg(tmp_path)
    code, payload = _run(capsys, ["mc", "--config", cfg])
    assert code == 0
    first = open(payload["summary"], "rb").read()
    summary = json.loads(first)
    rem = summary["results"]["REM"]
    assert rem["n_trials"] == 4 and rem["failures"] == 0
    assert summary["run"]["failure_causes"] == {"REM": {}}
    assert rem["ratio"] == pytest.approx(rem["rmse_est"] / rem["rmse_crb"])
    rows = (tmp_path / "out" / "mc.csv").read_text().strip().splitlines()
    assert rows[0] == "mode,rmse_est,rmse_crb,n_trials,failures,seed"
    mode, est, crb, n, fails, seed = rows[1].split(",")
    assert mode == "REM" and seed == "9"
    assert float(est) == pytest.approx(rem["rmse_est"])
    # byte-identical on rerun: every draw hangs off the config seed
    code2, payload2 = _run(capsys, ["mc", "--config", cfg])
    assert code2 == 0
    assert open(payload2["summary"], "rb").read() == first


def test_mc_exit_code_on_experiment_failure(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise AllTrialsFailed("all 4 trials failed")
    monkeypatch.setattr(mmloc.harness, "mc_rmse", boom)
    code, payload = _run(capsys, ["mc", "--config", _mc_cfg(tmp_path, "o2")])
    assert code == 3
    err = payload["error"]
    assert err["type"] == "ExperimentError"
    assert err["cause"] == "AllTrialsFailed"
    assert err["command"] == "mc"
    assert "all 4 trials failed" in err["message"]


# ---------------------------------------------------------------------------
# sweep / cdf / field / remmap artifacts
# ---------------------------------------------------------------------------

def test_sweep_row_inventory(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {
        "scenario": "corner-1fe", "mode": "both", "ue": [8.0, 35.0],
        "output_dir": str(out),
        "experiment": {"sigma_deg": [2.0, 10.0], "subsets": ["all", "nlos"]},
    })
    code, payload = _run(capsys, ["sweep", "--config", cfg])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    # 2 subsets x 2 modes x crb + 2 distance-only refs, at each of 2 sigmas
    assert len(lines) == 12
    summary = _summary_of(payload)
    for curve, stats in summary["results"].items():
        assert stats["n"] == 2
        if curve.endswith(":crb"):
            assert stats["n_finite"] == 2
            assert stats["rmse_min"] > 0.0


def test_sweep_runs_a_lone_reflection_in_rem(tmp_path, capsys):
    """REM localizes from canyon-1fe's one reflection; NoREM cannot, and
    its Monte-Carlo cells stay NaN without failing the sweep."""
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {
        "scenario": "canyon-1fe", "mode": "both", "output_dir": str(out),
        "estimator": LIGHT_EST,
        "experiment": {"sigma_deg": [2.0, 10.0], "subsets": ["nlos"],
                       "n_trials": 2},
    })
    code, payload = _run(capsys, ["sweep", "--config", cfg])
    assert code == 0
    results = _summary_of(payload)["results"]
    assert results["nlos:REM:mc"]["n_finite"] == 2
    assert results["nlos:NoREM:mc"]["n_finite"] == 0


def test_cdf_medians_come_from_the_csv(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {
        "scenario": "canyon-2fe", "mode": "both", "output_dir": str(out),
        "grid": {"x_min": 2.0, "x_max": 18.0, "y_min": 4.0, "y_max": 48.0,
                 "spacing": 4.0},
        "experiment": {"profiles": ["73GHz"]},
    })
    code, payload = _run(capsys, ["cdf", "--config", cfg])
    assert code == 0
    summary = _summary_of(payload)
    assert set(summary["results"]) == {"73GHz:NoREM", "73GHz:REM"}
    pts = {}
    for line in (out / "cdf.csv").read_text().strip().splitlines()[1:]:
        curve, rmse, prob = line.split(",")
        pts.setdefault(curve, []).append((float(rmse), float(prob)))
    for curve, stats in summary["results"].items():
        median = next(r for r, p in pts[curve] if p >= 0.5)
        assert stats["median"] == pytest.approx(median)
        assert stats["n"] == len(pts[curve])


def test_cdf_over_a_grid_with_no_valid_node_fails(tmp_path, capsys):
    """Every node of this grid lies behind the x = 0 wall."""
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {
        "scenario": "corner-2fe", "mode": "both", "output_dir": str(out),
        "grid": {"x_min": -10.0, "x_max": -5.0, "y_min": 1.0, "y_max": 5.0,
                 "spacing": 1.0},
    })
    code, payload = _run(capsys, ["cdf", "--config", cfg])
    assert code == 3
    err = payload["error"]
    assert err["type"] == "ExperimentError" and err["cause"] == "EmptyResult"
    for curve in ("28GHz:NoREM", "28GHz:REM", "73GHz:NoREM", "73GHz:REM"):
        assert curve in err["message"]
    assert not (out / "cdf-summary.json").exists()


def test_field_emits_delta_only_for_both_modes(tmp_path, capsys):
    grid = {"x_min": 2.0, "x_max": 18.0, "y_min": 4.0, "y_max": 48.0,
            "spacing": 8.0}
    out1 = tmp_path / "both"
    cfg = _write_cfg(tmp_path, {"scenario": "corner-1fe", "mode": "both",
                                "output_dir": str(out1), "grid": grid},
                     name="a.yaml")
    code, payload = _run(capsys, ["field", "--config", cfg])
    assert code == 0
    assert (out1 / "field-norem.csv").exists()
    assert (out1 / "field-rem.csv").exists()
    assert (out1 / "field-delta.csv").exists()
    summary = _summary_of(payload)
    assert summary["results"]["delta"]["min"] >= 0.0
    assert summary["results"]["NoREM"]["n_valid"] > 0

    out2 = tmp_path / "single"
    cfg = _write_cfg(tmp_path, {"scenario": "corner-1fe", "mode": "REM",
                                "output_dir": str(out2), "grid": grid},
                     name="b.yaml")
    code, payload = _run(capsys, ["field", "--config", cfg])
    assert code == 0
    assert (out2 / "field-rem.csv").exists()
    assert not (out2 / "field-delta.csv").exists()


def test_remmap_runs_on_preset_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {
        "scenario": "canyon-2fe", "seed": 2, "output_dir": str(out),
        "estimator": LIGHT_EST, "experiment": {"n_points": 3},
    })
    code, payload = _run(capsys, ["remmap", "--config", cfg])
    assert code == 0
    summary = _summary_of(payload)
    lines = (out / "remmap.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,ue_x,ue_y,alpha,beta,d"
    assert summary["results"]["n_entries"] == len(lines) - 1 == 6
    assert summary["run"]["failed_points"] == []
    assert summary["run"]["failure_causes"] == {}


def test_remmap_with_every_point_failed_exits_3(tmp_path, capsys,
                                                monkeypatch):
    def degenerate(*a, **k):
        raise DegenerateGeometry("injected")
    monkeypatch.setattr(mmloc.estimator, "grid_init", degenerate)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {
        "scenario": "corner-2fe", "workers": 1, "output_dir": str(out),
        "estimator": LIGHT_EST, "experiment": {"n_points": 3},
    })
    code, payload = _run(capsys, ["remmap", "--config", cfg])
    assert code == 3
    err = payload["error"]
    assert err["type"] == "ExperimentError"
    assert err["cause"] == "AllTrialsFailed"
    assert "DegenerateGeometry" in err["message"]
    assert not (out / "remmap.csv").exists()


def test_remmap_requires_a_preset_trajectory(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "scenario": {"name": "custom",
                     "walls": [{"axis": "vertical", "offset": 0.0,
                                "side": "positive"}],
                     "fes": [[10.0, 10.0]]},
        "ue": [5.0, 20.0], "output_dir": str(tmp_path / "out"),
    })
    code, payload = _run(capsys, ["remmap", "--config", cfg])
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mmloc" in capsys.readouterr().out


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
