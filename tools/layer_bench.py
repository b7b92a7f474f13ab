"""Per-layer timings of the forward model and the LM refinement.

    python3 tools/layer_bench.py --out BENCH_7.json

Times `PathGeometry.h_jacobian_valid` and `estimator._lm_refine_batch` in
microseconds per parameter row, at 16 and 4096 rows, in NoREM and REM, on
the `corner-2fe` preset at a point of its map-building track (the
10-unknown geometry of `mmloc remmap`).  Rows are the true parameters plus
Gaussian noise of 2 m, from a fixed seed, scored against one synthesized
observation; the LM runs at the default `GapfConfig`.  For the LM it also
counts, over one untimed call, the passes that score candidate steps
(`lm_passes`) and the candidate rows scored and rows linearized per input
row (`rows_evaluated_per_row`, `rows_linearized_per_row`).

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
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import mmloc
from mmloc import (GapfConfig, LikelihoodEngine, Mode, ParamVector,
                   enumerate_paths, scenario_preset, synthesize,
                   trajectory_preset)
from mmloc.estimator import _lm_refine_batch

SCENE = "corner-2fe"
TRACK_POINT = 7
BATCHES = (16, 4096)
ROW_STD_M = 2.0
REPEATS = 7
BLOCK_SECONDS = 0.3


def _block_seconds(call) -> float:
    """CPU seconds per call, over as many calls as fill BLOCK_SECONDS."""
    calls, start = 0, time.process_time()
    while True:
        call()
        calls += 1
        spent = time.process_time() - start
        if spent >= BLOCK_SECONDS:
            return spent / calls


def _time(call, rows: int) -> dict:
    call()  # warm-up, off the clock
    blocks = [1e6 * _block_seconds(call) / rows
              for _ in range(REPEATS)]
    return {"us_per_row": statistics.median(blocks),
            "blocks_us_per_row": blocks}


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


def run() -> dict:
    scenario = scenario_preset(SCENE)
    ue = trajectory_preset(SCENE)[TRACK_POINT]
    paths = enumerate_paths(scenario, ue)
    truth = ParamVector.truth_from_paths(ue, paths, Mode.NOREM)
    z = synthesize(truth, paths, scenario, 1)
    cfg = GapfConfig()
    results = []
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
