"""Benchmark entry point: one seeded workload, timed end to end, checked, traced on request.

    python3 bench/run.py --workload compare-m5 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that holds `src/piezoshunt`; the package
is imported from that source tree, never from an installed copy.  Inputs are
generated from the seed into a temporary directory under `.bench_out/`,
which is removed at exit; a JSON record of the run (environment, generated
files, every pass time, failures, and with --trace 1 every span) is kept in
`.bench_out/`.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 its per-layer ones.  See bench/NOTES.md for what each measures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Fresh-process set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def _pin_environment():
    """One BLAS thread, no bytecode files, package from this checkout's source."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)


def _setup_once(workload, seed, indir):
    """Import the package, load the inputs and build the systems; returns seconds."""
    start = time.perf_counter()
    import workloads

    workloads.make(workload, seed, indir).setup()
    return time.perf_counter() - start


def _setup_samples(workload, seed, indir):
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only", indir],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, env=os.environ.copy(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _git_commit():
    """HEAD of the checkout's git metadata, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _quartiles(samples):
    if len(samples) == 1:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4, method="inclusive")


def _run_pass(wl, outdir, tracer=None):
    """One timed pass plus its checks: (seconds, faults, csv bytes)."""
    os.makedirs(outdir)
    try:
        start = time.perf_counter()
        if tracer is None:
            result = wl.run_pass(outdir)
        else:
            with tracer.install(), tracer.span("pass"):
                result = wl.run_pass(outdir)
        elapsed = time.perf_counter() - start
        faults = wl.check(result, outdir)
    except Exception:  # a crashing pass counts as failed, the run goes on
        return None, [traceback.format_exc(limit=3)], 0
    finally:
        csv_bytes = sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
        shutil.rmtree(outdir, ignore_errors=True)
    return elapsed, faults, csv_bytes


def measure(workload, seed, seconds, trace, workdir):
    """Set up and run passes for `seconds`; returns (result line, record)."""
    import scenarios

    indir = os.path.join(workdir, "in")
    os.makedirs(indir)
    _, files = scenarios.write_inputs(workload, seed, indir)
    setup = [] if trace else _setup_samples(workload, seed, indir)

    import tracing
    import workloads

    wl = workloads.make(workload, seed, indir)
    setup_tracer = tracing.Tracer() if trace else None
    if trace:
        with setup_tracer.install(), setup_tracer.span("setup"):
            wl.setup()
    else:
        wl.setup()

    input_faults = wl.input_faults()
    plain, traced, tracers, failures = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        with_trace = trace and attempted % 2 == 1
        tracer = tracing.Tracer() if with_trace else None
        elapsed, faults, csv_bytes = _run_pass(wl, os.path.join(workdir, f"pass{attempted}"), tracer)
        faults = input_faults + faults
        attempted += 1
        if faults:
            failed += 1
            failures.append({"pass": attempted - 1, "faults": faults[:5]})
        if elapsed is not None and with_trace:
            tracer.counts["cli.csv_bytes"] += csv_bytes
            traced.append(elapsed)
            tracers.append(tracer)
        elif elapsed is not None:
            plain.append(elapsed)
        if time.perf_counter() >= deadline and attempted >= (2 if trace else 1):
            break
    if not plain or (trace and not traced):
        raise RuntimeError(f"no pass completed: {failures}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": _environment(),
        "inputs": files,
        "pass_s": {"samples": plain, "quartiles": _quartiles(plain)},
        "setup_s": {"samples": setup},
        "failures": failures,
    }
    if not trace:
        values = {
            "pass_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        values = _layer_values(tracing, setup_tracer, tracers, plain, traced, failed / attempted)
        record["traced"] = {
            "traced_pass_s": traced,
            "counts_repeat": all(t.counts == tracers[0].counts for t in tracers),
            "spans": [t.dump() for t in [setup_tracer] + tracers],
        }
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def _layer_values(tracing, setup_tracer, tracers, plain, traced, fail_ratio):
    """Per-layer metrics of the set-up plus the first traced pass."""
    values = tracing.merge(setup_tracer, tracers[0]).metrics()
    values["fail_ratio"] = fail_ratio
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(plain)
    first = tracers[0].metrics()
    values["reduction.tune.reduced.hinf.share"] = (
        first.get("reduction.tune.reduced.hinf.total_s", 0.0) / first["pass.total_s"])
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("compare-m5", "poles-m12", "response"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="INPUT_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "piezoshunt", "__init__.py")):
        print(f"error: no package source at {SRC}/piezoshunt", file=sys.stderr)
        return 2
    _pin_environment()
    if args.setup_only:
        print(_setup_once(args.workload, args.seed, args.setup_only))
        return 0

    os.makedirs(OUT_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_ROOT, name), "w") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1)
    summary = {k: v for k, v in record.items() if k not in ("inputs", "traced")}
    summary["inputs"] = {f: v["sha256"] for f, v in record["inputs"].items()}
    print(json.dumps({"record": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
