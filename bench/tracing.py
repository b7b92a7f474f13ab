"""Span tracing for the benchmark's traced run, recorded from outside the
package: each traced name is replaced, for the run's duration, by a
wrapper on the module attribute its callers look up at call time.

A span is (name, start, end, parent, op, work): parent is the index of the
enclosing span (-1 at the top), op the index of the operation it belongs
to, and work the rows, trials, points or grid nodes the call handled.
Spans stay in memory and are written out once the run ends.
"""
from __future__ import annotations

import contextlib
import math
import time

import mmloc.bounds
import mmloc.cli
import mmloc.estimator
import mmloc.geometry
import mmloc.harness
import mmloc.likelihood
from mmloc.measurement import Mode


def _rows(thetas) -> int:
    return math.prod(thetas.shape[:-1])


def _grid_nodes(grid) -> int:
    xs, ys = grid.axes()
    return len(xs) * len(ys)


def _grid_init_name(args, kwargs) -> str:
    # grid_init(z, paths, scenario, cfg, mode=NOREM) has three branches:
    # REM scores a UE-only grid with every path; NoREM runs the joint
    # two-reflection search exactly when no direct path is observed, and
    # the direct-path-seeded staged grid otherwise
    mode = args[4] if len(args) > 4 else kwargs.get("mode", Mode.NOREM)
    if mode is Mode.REM:
        return "estimator.grid_init_rem"
    if args[1].n_los == 0:
        return "estimator.grid_init_joint"
    return "estimator.grid_init_los"


# (span name, [(owner, attribute), ...], work(args, kwargs) or None).
# A function imported by name into other modules is patched in each of
# them, because that is where their callers look it up.
_E, _H, _B, _C = (mmloc.estimator, mmloc.harness, mmloc.bounds, mmloc.cli)
_Engine = mmloc.likelihood.LikelihoodEngine
TRACED = (
    ("cli.main", [(_C, "main")], None),
    ("harness.mc_rmse", [(_H, "mc_rmse")],
     lambda a, k: a[4] if len(a) > 4 else k["n_trials"]),
    ("harness.build_rem_map", [(_H, "build_rem_map")],
     lambda a, k: len(a[1] if len(a) > 1 else k["trajectory"])),
    ("harness.cdf_curve", [(_H, "cdf_curve")], None),
    ("bounds.crb_grid", [(_H, "crb_grid"), (_C, "crb_grid")],
     lambda a, k: _grid_nodes(a[1])),
    ("bounds.rmse_crb", [(_B, "rmse_crb"), (_H, "rmse_crb")], None),
    ("geometry.enumerate_paths",
     [(mmloc.geometry, "enumerate_paths"), (_B, "enumerate_paths"),
      (_H, "enumerate_paths"), (_C, "enumerate_paths")], None),
    ("measurement.synthesize", [(_H, "synthesize"), (_C, "synthesize")],
     None),
    ("estimator.estimate", [(_H, "estimate"), (_C, "run_estimator")], None),
    (_grid_init_name, [(_E, "grid_init")], None),
    ("estimator.gapf_iterate", [(_E, "gapf_iterate")], None),
    ("likelihood.linearize", [(_Engine, "linearize")],
     lambda a, k: _rows(a[1])),
    ("likelihood.cost_valid", [(_Engine, "cost_valid")],
     lambda a, k: _rows(a[1])),
)

# spans whose end closes one operation: a trial or map point ends with
# its estimate, a field's nodes end with its bound grid
_OP_ENDS = ("estimator.estimate", "bounds.crb_grid")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self._op = 0

    def _wrap(self, name, fn, work):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (label, start, end, parent, self._op,
                              work(args, kwargs) if work else 1)
                if label in _OP_ENDS:
                    self._op += 1

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced name for its wrapper; restore on exit."""
        saved = []
        try:
            for name, targets, work in TRACED:
                for owner, attr in targets:
                    fn = getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn, work))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one parent run one after another in a single thread, so
    their durations never overlap and can simply be summed."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list, fixed_spans: int, fixed_ops: int) -> dict:
    """Per-layer metrics from a run's spans.

    Times are averaged over every span of the run.  Counts (calls, rows
    per call) are taken over the first fixed_spans spans, which cover the
    run's fixed rounds (fixed_ops operations): those rounds are the same
    work at a given seed however fast the program is, so the counts repeat
    exactly.  A layer the workload never enters reads 0.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name, field=None, upto=None):
        idx = [i for i in by_name.get(name, []) if upto is None or i < upto]
        if field == "self":
            return sum(selfs[i] for i in idx), len(idx)
        if field == "work":
            return sum(spans[i][5] for i in idx), len(idx)
        return sum(spans[i][2] - spans[i][1] for i in idx), len(idx)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m: dict = {}

    def timed(key, name, unit, scale, field=None, by_work=False):
        t, n = total(name, field)
        w, _ = total(name, "work")
        m[key] = (per(t, w if by_work else n, scale), unit)

    timed("geometry.enumerate_paths.us", "geometry.enumerate_paths", "us",
          1e6)
    timed("measurement.synthesize.us", "measurement.synthesize", "us", 1e6)
    for layer in ("linearize", "cost_valid"):
        name = f"likelihood.{layer}"
        timed(f"{name}.us_per_row", name, "us", 1e6, by_work=True)
        rows, calls = total(name, "work", fixed_spans)
        m[f"{name}.rows_per_call"] = (per(rows, calls), "rows")
        m[f"{name}.calls"] = (per(calls, fixed_ops), "calls/op")
    timed("estimator.gapf_iterate.ms", "estimator.gapf_iterate", "ms", 1e3)
    timed("estimator.gapf_iterate.self_ms", "estimator.gapf_iterate", "ms",
          1e3, field="self")
    timed("estimator.grid_init_joint.ms", "estimator.grid_init_joint", "ms",
          1e3)
    timed("estimator.grid_init_los.ms", "estimator.grid_init_los", "ms", 1e3)
    timed("estimator.estimate.ms", "estimator.estimate", "ms", 1e3)
    m["estimator.estimate.calls"] = (
        per(total("estimator.estimate", upto=fixed_spans)[1], fixed_ops),
        "calls/op")
    timed("bounds.rmse_crb.us", "bounds.rmse_crb", "us", 1e6)
    m["bounds.rmse_crb.calls"] = (
        per(total("bounds.rmse_crb", upto=fixed_spans)[1], fixed_ops),
        "calls/op")
    timed("bounds.crb_grid.us_per_node", "bounds.crb_grid", "us", 1e6,
          by_work=True)
    timed("harness.mc_rmse.ms_per_trial", "harness.mc_rmse", "ms", 1e3,
          by_work=True)
    timed("harness.build_rem_map.ms_per_point", "harness.build_rem_map",
          "ms", 1e3, by_work=True)
    timed("harness.cdf_curve.ms", "harness.cdf_curve", "ms", 1e3)
    timed("cli.self_ms", "cli.main", "ms", 1e3, field="self")
    return m
