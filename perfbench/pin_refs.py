"""Pin the reference outputs the benchmark checks against.

    python3 perfbench/pin_refs.py [workload ...]

Runs every job of ``suite-c64`` and ``large-n`` on each seed in
``refcheck.PINNED_SEEDS`` and every request in the ``queries`` pool once,
and writes ``perfbench/refs/<workload>.json``.  Pin only from a commit
whose outputs are known to be right: every later run is judged by them.
"""

from __future__ import annotations

import json
import sys

import refcheck
import run
import workloads


def pin_workload(cli, workload):
    work = run.ROOT / ".bench_work" / "pin" / workload
    inputs, outdir = work / "inputs", work / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    workloads.build_inputs(workload, inputs, run.quiet(cli.main))
    refs = {}
    if workload == "queries":
        runs = [(None, [workloads.query_job(f"pin{i:04d}", item_id, argv,
                                            inputs, outdir)
                        for i, (item_id, argv) in enumerate(
                            item for items in workloads.query_pool().values()
                            for item in items)])]
    else:
        runs = [(seed, workloads.jobs(workload, seed, inputs, outdir))
                for seed in refcheck.PINNED_SEEDS]
    for seed, jobs in runs:
        for job in jobs:
            _, code, stdout = run.run_job(cli, job, None, job.name)
            if code != 0:
                raise RuntimeError(f"{job.argv} exited {code!r}")
            record = refcheck.observe(job, code, stdout)
            refs[job.ref] = refcheck.pin(record, seed, refs.get(job.ref))
    path = refcheck.REFS_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}"
                        for key in sorted(refs))
    path.write_text('{"jobs": {\n' + lines + "\n}}\n")
    print(f"{workload}: {len(refs)} references -> {path}")


def main(argv):
    run.cap_blas_threads()
    cli = run.import_library()
    for workload in argv or workloads.WORKLOADS:
        pin_workload(cli, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
