"""Benchmark of the morreylab certificate engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-c64 --seed 7 --seconds 30 --trace 0

Workloads (see workloads.py): ``suite-c64``, ``large-n``, ``queries``.
Every job is a ``morreylab`` command line run in this process through
``morreylab.cli.main``, imported from the checkout's ``src``.  BLAS
threads are capped at the number of usable cores.

A run sets the workload up ``SETUP_REPS`` times, each in a fresh process
(import plus building and saving the inputs), then runs passes over the
workload's jobs until the next pass would end after ``--seconds``; there
is always at least one pass.  Every pass runs the same jobs, and each
job's output is checked against the pinned references in ``refs/``; a job
that raises or mismatches counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the median slowest job, the 99th percentile job latency over all passes,
the median set-up time and the peak RSS.  The 50th percentile latency is
printed too but carries no bound: on suite-c64 it is one two-second job,
whose time swings with the load other tenants put on the machine.  ``--trace 1`` runs half
the budget untraced, then as many passes again with every public library
function wrapped by tracer.py, and reports per-layer self times and work
counters (median over traced passes), each reported job's untraced time,
and the tracing overhead.  Both print a metric table, a machine block and,
as the last line, the JSON result.  Outputs, spans and a full result go
to ``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import refcheck
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"wall_s": "s", "slowest_job_s": "s", "request_p50_ms": "ms",
             "request_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def cap_blas_threads():
    """Cap every BLAS thread variable at the number of usable cores."""
    cap = _nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)


def import_library():
    """Put the checkout's ``src`` first on the path and import the CLI."""
    if not (SRC / "morreylab" / "cli.py").is_file():
        raise SystemExit(f"error: no morreylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from morreylab import cli

    if Path(cli.__file__).resolve().parent != SRC / "morreylab":
        raise SystemExit(f"error: imported morreylab from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def quiet(main):
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    return run


def setup_once(workload, inputs):
    """One timed set-up: import plus building and saving the inputs."""
    start = time.perf_counter()
    cli = import_library()
    workloads.build_inputs(workload, inputs, quiet(cli.main))
    return time.perf_counter() - start


def setup_in_fresh_processes(workload, inputs, reps):
    """Set up ``reps`` times, each in its own interpreter; the times."""
    times = []
    for _ in range(reps):
        shutil.rmtree(inputs, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--setup-into", str(inputs)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Timings and check results of one pass over a workload's jobs."""

    def __init__(self):
        self.wall = 0.0
        self.times = {}
        self.failures = []
        self.digest_mismatches = 0
        self.job_ids = []


def run_job(cli, job, tracer, job_id):
    """Run one job; returns (seconds, exit code or error text, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(job.argv))
            else:
                with tracer.job(job_id):
                    code = cli.main(list(job.argv))
        except Exception:  # a crashing job is a failed operation; go on
            code = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def run_pass(cli, jobs, refs, seed, tracer=None, label="p0"):
    result = Pass()
    outcomes = []
    start = time.perf_counter()
    for job in jobs:
        job_id = f"{label}:{job.name}"
        outcomes.append((job, job_id) + run_job(cli, job, tracer, job_id))
    result.wall = time.perf_counter() - start
    for job, job_id, elapsed, code, stdout in outcomes:
        result.times[job.name] = elapsed
        result.job_ids.append(job_id)
        try:
            record = refcheck.observe(job, code, stdout)
            ref = refs[job.ref]
            problems = refcheck.compare(record, ref, seed)
            if "digest" in ref and record.get("digest") != ref["digest"]:
                result.digest_mismatches += 1
        except (OSError, ValueError, KeyError, AttributeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            result.failures.append({"job": job.name, "argv": list(job.argv),
                                    "problems": problems[:5]})
    return result


def run_passes(cli, jobs, refs, seed, budget, tracer=None, count=None,
               label="u"):
    """Passes until the next would end after ``budget`` s, or ``count``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, jobs, refs, seed, tracer,
                               f"{label}{len(passes)}"))
        if count is not None:
            if len(passes) >= count:
                return passes
        elif time.perf_counter() - start + passes[-1].wall > budget:
            return passes


# ---------------------------------------------------------------------------
# metrics


def _percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latencies(passes):
    return [t for p in passes for t in p.times.values()]


def end_to_end(passes, setup_times):
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "slowest_job_s": statistics.median(max(p.times.values()) for p in passes),
        "request_p99_ms": 1000.0 * _percentile(latencies(passes), 99),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, tracer):
    per_pass = [tracer.metrics(p.job_ids) for p in traced]
    for m in per_pass:
        del m["trace.wall.s"]   # the pass walls below say the same
    out = {name: statistics.median(m[name] for m in per_pass)
           for name in per_pass[0]}
    for name in workloads.REPORTED_JOBS:
        times = [p.times[name] for p in untraced if name in p.times]
        out[f"job.{name}.s"] = statistics.median(times) if times else 0.0
    wall_untraced = statistics.median(p.wall for p in untraced)
    wall_traced = statistics.median(p.wall for p in traced)
    out["trace.wall_untraced.s"] = wall_untraced
    out["trace.wall_traced.s"] = wall_traced
    out["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    out["trace.spans"] = len(tracer.spans) / len(traced)
    return out


def unit_of(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# machine block


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        head = _read(ROOT / ".git" / ref).strip()
        if not head:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    head = line.split()[0]
    return head or None


def machine(seed):
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem_kb = next((int(line.split()[1])
                   for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": _nproc(),
        "ram_gb": round(mem_kb / 1024 ** 2, 2),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cap_blas_threads()
    if args.setup_into:
        seconds = setup_once(args.workload, Path(args.setup_into))
        print(json.dumps({"setup_s": seconds}))
        return 0

    cli = import_library()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs, outdir = work / "inputs", work / "out"
    outdir.mkdir(parents=True)
    setup_times = setup_in_fresh_processes(
        args.workload, inputs, 1 if args.trace else SETUP_REPS)
    refs = refcheck.load_refs(args.workload)["jobs"]
    jobs = workloads.jobs(args.workload, args.seed, inputs, outdir)

    if args.trace:
        from tracer import Tracer

        untraced = run_passes(cli, jobs, refs, args.seed, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_passes(cli, jobs, refs, args.seed, None, tracer,
                                count=len(untraced), label="t")
        tracer.write_spans(work / "spans.tsv")
        passes = untraced + traced
        metrics = per_layer(untraced, traced, tracer)
    else:
        passes = run_passes(cli, jobs, refs, args.seed, args.seconds)
        metrics = end_to_end(passes, setup_times)
    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    unbounded = {"request_p50_ms": 1000.0 * _percentile(latencies(passes), 50),
                 "failed_frac": len(failures) / attempted}

    digest_mismatches = sum(p.digest_mismatches for p in passes)
    for failure in failures[:10]:
        print(f"FAILED {failure['job']}: {failure['problems']}", file=sys.stderr)
    if digest_mismatches:
        print(f"note: {digest_mismatches} output files differ in bytes from "
              "the pinned digest but match its values", file=sys.stderr)
    info = machine(args.seed)
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "machine": info, "metrics": metrics,
        "unbounded": unbounded,
        "setup_times": setup_times, "failures": failures,
        "digest_mismatches": digest_mismatches,
        "job_times": [p.times for p in passes]}, indent=1) + "\n")

    print(f"{'metric':<40} {'value':>14}  unit")
    for name, value in {**metrics, **unbounded}.items():
        print(f"{name:<40} {value:>14.6g}  {unit_of(name)}")
    print(json.dumps({"machine": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
