"""Run one workload of the awspec benchmark and print its metrics.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy.  The run
makes its inputs from ``--seed``, repeats whole passes over the
workload's operations until ``--seconds`` have passed, checks every
output, and prints one JSON object as the last line of standard output.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it wraps awspec's layer functions and reports per-layer metrics instead.
End-to-end times are scaled to a reference host speed (``hostspeed.py``).
Results and traces are written under ``perfbench/results/``.
"""
import os

# one BLAS thread: on a 2-core machine a default OpenBLAS pool sometimes
# stalls the first LAPACK call of a fresh process for ~0.9 s.  Must be set
# before numpy is imported, here and in every set-up probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 5
DEFAULT_SEED = 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("closed-form", "spectrum", "cli-requests"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import awspec from this checkout's src/, or exit 2."""
    if not os.path.isdir(os.path.join(SRC, "awspec")):
        sys.stderr.write(f"error: no awspec sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import awspec
    if not os.path.abspath(awspec.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: awspec imported from {awspec.__file__}\n")
        sys.exit(2)


def set_up(args, workdir):
    """Everything before the first timed operation."""
    import numpy as np
    import workloads
    wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed),
                                            workdir)
    wl.warm_up()
    return wl


def probe_setup(args):
    """Seconds from a fresh process's start to its first timed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def run_pass(ops, tracer=None, speed=None):
    """One timed pass: (pass seconds, per-op start times and seconds,
    outputs, exceptions).  With a SpeedLog, the reference loop runs
    between operations about every hostspeed.EVERY_S of measured work."""
    starts, lat, outs, errors = [], [], [], []
    since = 0.0
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        span = None
        if tracer is not None:
            tracer.current_op = i
            span = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, exc
        else:
            err = None
        starts.append(t0)
        lat.append(time.perf_counter() - t0)
        if span is not None:
            tracer.close(span)
        outs.append(out)
        errors.append(err)
        since += lat[-1]
        if speed is not None and since >= hostspeed.EVERY_S:
            speed.sample()
            since = 0.0
    return time.perf_counter() - t_pass, starts, lat, outs, errors


def check_pass(ops, outs, errors, problems):
    """Check each output; returns how many operations failed."""
    n_failed = 0
    for i, (op, out, err) in enumerate(zip(ops, outs, errors)):
        if err is not None:
            n_failed += 1
            if op.known_fault is None or not op.known_fault(err):
                problems.append(f"op {i} ({op.kind}) raised {err!r}")
            continue
        try:
            why = op.check(out)
        except Exception as exc:  # a malformed output is a wrong output
            why = f"check raised {exc!r}"
        if why is not None:
            problems.append(f"op {i} ({op.kind}): {why}")
    return n_failed


def main(argv=None):
    args = parse_args(argv)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    import_program()
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = set_up(args, workdir)
        if args.setup_probe:
            print(time.monotonic(), flush=True)
            return 0
        return measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl):
    import awspec
    import numpy as np

    tracer = speed = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
    else:
        speed = hostspeed.SpeedLog()
    passes, starts, lat, problems = [], [], [], []
    attempted = failed = 0
    t_end = time.perf_counter() + args.seconds
    try:
        while not passes or time.perf_counter() < t_end:
            if tracer is not None:
                tracer.active = True
            p_s, p_starts, p_lat, outs, errors = run_pass(wl.ops, tracer, speed)
            if tracer is not None:
                tracer.active = False  # checks are neither timed nor traced
                tracer.end_pass()
            passes.append(p_s)
            starts += p_starts
            lat += p_lat
            attempted += len(wl.ops)
            failed += check_pass(wl.ops, outs, errors, problems)
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "backend": awspec.BACKEND, "passes_wall_s": passes,
              "ops_per_pass": len(wl.ops), "problems": problems[:20]}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is None:
        setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
        # each latency scaled to the reference host speed near its midpoint
        scale = np.array([speed.factor(t + d / 2) for t, d in zip(starts, lat)])
        norm = (np.asarray(lat) * scale).reshape(len(passes), len(wl.ops))
        per_op = np.median(norm, axis=0)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (float(np.median(norm.sum(axis=1))), "s"),
            "op_p50_s": (float(np.quantile(per_op, 0.5)), "s"),
            "op_p90_s": (float(np.quantile(per_op, 0.9)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        detail["setup_s"] = setups
        detail["passes_s"] = norm.sum(axis=1).tolist()
        detail["reference_loop_s"] = {"median": statistics.median(speed.dur),
                                      "min": min(speed.dur),
                                      "max": max(speed.dur),
                                      "samples": len(speed.dur)}
        detail["op_latencies_wall_s"] = lat
        detail["ops_beyond_p90"] = int(np.sum(per_op > metrics["op_p90_s"][0]))
        kinds = [op.kind for op in wl.ops]
        detail["op_kind_median_s"] = {
            k: statistics.median(t for t, kk in zip(per_op, kinds) if kk == k)
            for k in sorted(set(kinds))}
    else:
        metrics, shares = tracer.layer_metrics(len(passes))
        detail["layer_self_share"] = dict(sorted(shares.items(),
                                                 key=lambda kv: -kv[1]))
        detail["spans"] = len(tracer.start)
        tracer.write(stem + "-spans.csv.gz")
    result["metrics"] = {k: {"value": float(v), "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    for p in problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
