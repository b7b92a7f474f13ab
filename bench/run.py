"""Benchmark entry point: drives mmloc through its CLI in this process.

    python3 bench/run.py --workload mc-los --seed 1 --seconds 25 --trace 0

Times are CPU seconds of this process (all threads, plus any child it
waited for), so time the host holds the process off the CPU is left out.
They are then scaled to a reference host speed: after each timed call,
off the clock, the run times a fixed probe that shares no code with the
program, and the probe's CPU time against its reference time says how
slow the host ran (README, "How the times are taken").

Set-up (imports, config files, one `validate` per config) is timed from
the process's start.  The timed phase then runs whole rounds of CLI calls
until the calls have taken --seconds and the workload's fixed rounds are
done; output reading and checking happen between calls, off the clock.
The last line printed is one JSON object: whether every check passed,
the operations attempted and failed, and the metrics (end-to-end ones,
or per-layer ones from a traced run with --trace 1).
"""
import os
import resource
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS/OpenMP thread: time the program


def cpu_seconds() -> float:
    """CPU time used since the process started: its own threads plus the
    children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


# CPU seconds one probe pass took on the machine this benchmark was written
# on, in a quiet spell; and the probe time spent per second of timed calls
PROBE_REF_S = 0.035
PROBE_SHARE = 0.05


def probe_pass(a) -> float:
    """CPU seconds of one pass of fixed work made of what the program's
    time goes to: numpy calls on small arrays and plain Python loops."""
    import numpy as np
    t0 = cpu_seconds()
    s, eye = 0.0, np.eye(3)
    for i in range(2000):
        b = np.arctan2(a[:, 0], a[:, 1])
        c = np.hypot(a[:, 0], a[:, 1])
        x = np.linalg.solve(a.T @ a + eye, a[i % 64])
        s += float(b.sum()) + float(c[i % 64]) + float(x[0])
        for k in range(40):
            s += k * 0.5
    return cpu_seconds() - t0


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc-los", "mc-nlos-pair", "remmap-corner",
                            "bound-grid"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "mmloc", "cli.py")):
        print(f"no mmloc source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, cli_call, round_seed, write_configs

    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, f"{wl.name}-seed{args.seed}")
    os.makedirs(run_dir, exist_ok=True)
    paths = write_configs(wl, run_dir)
    for name, path in paths.items():
        code, text = cli_call(["validate", "--config", path])
        if code != 0:
            print(f"config {name} invalid: {text}", file=sys.stderr)
            return 1

    import numpy as np
    # fixed probe input, made without numpy.random: loading that module
    # would add to the peak memory of a workload that does not use it
    probe_a = np.sin(np.outer(np.arange(64.0), (1.0, 2.0, 3.0)) + 1.0)
    probe_s, probe_passes = 0.0, 0
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    rounds, timed, ops = [], 0.0, 0
    fixed_ops = fixed_spans = 0
    setup_s = cpu_seconds()
    # a host that keeps the process off the CPU stretches the wall time a
    # run takes for its --seconds of CPU time; past this, no new round
    wall_end = time.monotonic() + 4 * args.seconds
    with tracer.installed() if tracer else contextlib.nullcontext():
        while len(rounds) < wl.fixed_rounds or (
                timed < args.seconds and time.monotonic() < wall_end):
            seed = round_seed(args.seed, len(rounds))
            records = []
            for command, config in wl.calls():
                t0 = cpu_seconds()
                code, _ = cli_call([command, "--config", paths[config],
                                    "--seed", str(seed)])
                dt = cpu_seconds() - t0
                timed += dt
                for _ in range(max(1, round(PROBE_SHARE * dt / PROBE_REF_S))):
                    probe_s += probe_pass(probe_a)
                    probe_passes += 1
                rec = wl.read(command, config, run_dir, code)
                ops += rec["attempted"] - rec["failed"]
                records.append(rec)
            rounds.append(records)
            if len(rounds) == wl.fixed_rounds:
                fixed_ops = ops
                fixed_spans = len(tracer.spans) if tracer else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # > 1 when the host ran slower than the reference; scaled times are
    # what the run would have taken at the reference speed
    slowdown = probe_s / (probe_passes * PROBE_REF_S)
    ops_per_s, setup_s = ops * slowdown / timed, setup_s / slowdown
    print(f"host slowdown {slowdown:.4f} over {probe_passes} probe passes; "
          f"unscaled ops_per_s {ops / timed:.6g}, "
          f"setup_s {setup_s * slowdown:.6g}", file=sys.stderr)

    attempted = sum(r["attempted"] for rs in rounds for r in rs)
    failed = sum(r["failed"] for rs in rounds for r in rs)
    errors, est_rmse_m = wl.check(rounds)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if tracer:
        from tracing import layer_metrics
        metrics = layer_metrics(tracer.spans, fixed_spans, fixed_ops)
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed,
                       "numpy_version": np.__version__,
                       "cpu_count": os.cpu_count(),
                       "ops_per_s": ops_per_s, "setup_s": setup_s,
                       "host_slowdown": slowdown,
                       "rounds": len(rounds), "fixed_spans": fixed_spans,
                       "span_fields": ["name", "start", "end", "parent",
                                       "op", "work"],
                       "names": names,
                       "spans": [[index[s[0]], *s[1:]]
                                 for s in tracer.spans],
                       "metrics": {k: v for k, (v, _) in metrics.items()}},
                      fh)
    else:
        metrics = {"ops_per_s": (ops_per_s, "ops/s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "est_rmse_m": (est_rmse_m, "m")}
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
