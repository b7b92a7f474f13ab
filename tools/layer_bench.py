"""Per-layer timings of the forward model, the LM refinement, the grid
init and the bound layer.

    python3 tools/layer_bench.py --out BENCH_10.json

Times `PathGeometry.h_jacobian_valid` and `estimator._lm_refine_batch` in
microseconds per parameter row, at 16 and 4096 rows, in NoREM and REM, on
the `corner-2fe` preset at a point of its map-building track (the
10-unknown geometry of `mmloc remmap`).  Rows are the true parameters plus
Gaussian noise of 2 m, from a fixed seed, scored against one synthesized
observation; the LM runs at the default `GapfConfig`.  For the LM it also
counts, over one untimed call, the passes that score candidate steps
(`lm_passes`) and the candidate rows scored and rows linearized per input
row (`rows_evaluated_per_row`, `rows_linearized_per_row`).

The grid init is timed in microseconds per call on the two Monte-Carlo
benchmark scenes, `corner-1fe` with the UE at (8, 35), in NoREM:
- `grid_init_los`: all three paths at 6 degrees and 0.75 m, so the UE
  grid is scored by the LOS path and each bounce point by its own grid;
- `_best_scatterer`: one such bounce-point grid, at the UE that grid init
  found, per NLOS path;
- `grid_init_joint`: the two reflections alone at 73 GHz, the joint
  two-NLOS pass; it also counts the minor page faults (`ru_minflt`) per
  call, averaged over FAULT_CALLS calls after a warm-up.  How many pages
  the allocator hands back depends on what the process allocated before,
  so these layers run first.

The bound layer is timed on `corner-2fe` in NoREM and REM: `rmse_crb` in
microseconds per call at the track point above, and `crb_grid` in
microseconds per node over the scene's preset grid (1000 nodes).

Times are CPU seconds of this process with one BLAS thread, so time the
host holds the process off the CPU is left out.  Each figure is the median
over REPEATS blocks; a block repeats the call until it has taken
BLOCK_SECONDS.  The JSON written to --out holds every figure with its
block times, plus the host's CPU count and the numpy version.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS/OpenMP thread: time the program

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import mmloc
from mmloc import (GapfConfig, LikelihoodEngine, Mode, NoiseProfile,
                   ParamVector, Point2, crb_grid, enumerate_paths,
                   grid_init, grid_preset, rmse_crb, scenario_preset,
                   subset_indices, synthesize, trajectory_preset)
from mmloc.estimator import _best_scatterer, _lm_refine_batch

SCENE = "corner-2fe"
TRACK_POINT = 7
BATCHES = (16, 4096)
ROW_STD_M = 2.0
REPEATS = 7
BLOCK_SECONDS = 0.3
MC_UE = Point2(8.0, 35.0)
FAULT_CALLS = 20


def _block_seconds(call) -> float:
    """CPU seconds per call, over as many calls as fill BLOCK_SECONDS."""
    calls, start = 0, time.process_time()
    while True:
        call()
        calls += 1
        spent = time.process_time() - start
        if spent >= BLOCK_SECONDS:
            return spent / calls


def _time(call, count: int, unit: str = "row") -> dict:
    """Median microseconds per unit over REPEATS blocks; one call does
    count units of work."""
    call()  # warm-up, off the clock
    blocks = [1e6 * _block_seconds(call) / count
              for _ in range(REPEATS)]
    return {f"us_per_{unit}": statistics.median(blocks),
            f"blocks_us_per_{unit}": blocks}


def _lm_counts(eng, thetas, cfg) -> dict:
    """Work of one LM call: passes that score candidates, and rows scored
    and linearized per input row."""
    scored, linearized = [], []
    cost_valid, linearize = eng.cost_valid, eng.linearize

    def counted_cost(x, obs=None):
        scored.append(len(x))
        return cost_valid(x, obs)

    def counted_linearize(x, obs=None):
        linearized.append(len(x))
        return linearize(x, obs)

    eng.cost_valid, eng.linearize = counted_cost, counted_linearize
    try:
        _lm_refine_batch(eng, thetas, cfg)
    finally:
        del eng.cost_valid, eng.linearize
    rows = len(thetas)
    return {"lm_passes": len(scored),
            "rows_evaluated_per_row": sum(scored) / rows,
            "rows_linearized_per_row": sum(linearized) / rows}


def _minflt_per_call(call) -> float:
    """Minor page faults of this process per call, after a warm-up."""
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FAULT_CALLS):
        call()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return (after - before) / FAULT_CALLS


def _grid_init_layers() -> list:
    """The grid init on the Monte-Carlo benchmark scenes (see above)."""
    cfg = GapfConfig()
    out = []

    def record(layer, call, scene, **extra):
        fig = {**_time(call, 1, "call"), **extra}
        out.append({"layer": layer, "scene": scene, "mode": "NoREM", **fig})
        more = "".join(f" {k} {v:.4g}" for k, v in extra.items())
        print(f"{layer:45s} {scene:16s} {fig['us_per_call']:10.1f} "
              f"us/call{more}", file=sys.stderr)

    scenario = scenario_preset("corner-1fe",
                               NoiseProfile.equal_angles(6.0, 0.75))
    paths = enumerate_paths(scenario, MC_UE)
    z = synthesize(ParamVector.truth_from_paths(MC_UE, paths, Mode.NOREM),
                   paths, scenario, 1)
    record("estimator.grid_init_los",
           lambda: grid_init(z, paths, scenario, cfg), "corner-1fe-6deg")
    ue0 = grid_init(z, paths, scenario, cfg).to_array()[:2]
    for j in subset_indices(paths, "nlos"):
        record("estimator._best_scatterer",
               lambda: _best_scatterer(z, j, ue0, scenario,
                                       cfg.grid_spacing),
               f"corner-1fe-6deg-path{j}")

    scenario = scenario_preset("corner-1fe", "73GHz")
    paths = enumerate_paths(scenario, MC_UE)
    z = synthesize(ParamVector.truth_from_paths(MC_UE, paths, Mode.NOREM),
                   paths, scenario, 1).subset(subset_indices(paths, "nlos"))

    def joint():
        return grid_init(z, z.paths, scenario, cfg)

    record("estimator.grid_init_joint", joint, "corner-1fe-73GHz-nlos",
           minflt_per_call=_minflt_per_call(joint))
    return out


def _bound_layers(scenario, ue, paths) -> list:
    """rmse_crb per call at ue and crb_grid per node over SCENE's preset
    grid, in each mode."""
    grid = grid_preset(SCENE)
    xs, ys = grid.axes()
    nodes = xs.size * ys.size
    out = []
    for mode in (Mode.NOREM, Mode.REM):
        layers = (
            ("bounds.rmse_crb", lambda: rmse_crb(ue, paths, scenario, mode),
             1, "call"),
            ("bounds.crb_grid", lambda: crb_grid(scenario, grid, mode),
             nodes, "node"),
        )
        for layer, call, count, unit in layers:
            fig = _time(call, count, unit)
            out.append({"layer": layer, "scene": SCENE, "mode": mode.value,
                        "units_per_call": count, **fig})
            print(f"{layer:45s} {mode.value:5s} "
                  f"{fig['us_per_' + unit]:10.1f} us/{unit}", file=sys.stderr)
    return out


def run() -> dict:
    scenario = scenario_preset(SCENE)
    ue = trajectory_preset(SCENE)[TRACK_POINT]
    paths = enumerate_paths(scenario, ue)
    truth = ParamVector.truth_from_paths(ue, paths, Mode.NOREM)
    z = synthesize(truth, paths, scenario, 1)
    cfg = GapfConfig()
    results = _grid_init_layers()  # first: their page faults follow the heap
    results += _bound_layers(scenario, ue, paths)
    for mode in (Mode.NOREM, Mode.REM):
        eng = LikelihoodEngine(z, scenario, mode)
        start = ParamVector.truth_from_paths(ue, paths, mode).to_array()
        rng = np.random.default_rng(0)
        for rows in BATCHES:
            thetas = start + rng.normal(0.0, ROW_STD_M, (rows, eng.dim))
            layers = (
                ("measurement.PathGeometry.h_jacobian_valid",
                 lambda: eng.geom.h_jacobian_valid(thetas)),
                ("estimator._lm_refine_batch",
                 lambda: _lm_refine_batch(eng, thetas, cfg)),
            )
            for layer, call in layers:
                fig = _time(call, rows)
                if layer == "estimator._lm_refine_batch":
                    fig.update(_lm_counts(eng, thetas, cfg))
                results.append({"layer": layer, "mode": mode.value,
                                "rows": rows, "dim": eng.dim, **fig})
                extra = "".join(f" {k} {v:.3g}" for k, v in fig.items()
                                if not k.endswith("us_per_row"))
                print(f"{layer:45s} {mode.value:5s} {rows:5d} rows "
                      f"{fig['us_per_row']:10.2f} us/row{extra}",
                      file=sys.stderr)
    return {"scene": SCENE, "ue": [ue.x, ue.y], "row_std_m": ROW_STD_M,
            "repeats": REPEATS, "block_seconds": BLOCK_SECONDS,
            "clock": "process CPU time, one BLAS thread",
            "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version(),
                     "numpy": np.__version__,
                     "mmloc": mmloc.__version__},
            "results": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path,
                    help="JSON file to write")
    args = ap.parse_args(argv)
    report = run()
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
