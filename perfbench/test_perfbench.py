"""Tests of the benchmark itself: tracing changes no output, self times
add up, counters repeat, and the reference check catches a changed value.

    python3 -m pytest perfbench

They run a few cheap jobs of each kind rather than whole workloads.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import refcheck  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, LAYERS, SHIFT_EVAL, Tracer  # noqa: E402

SEED = 7
SUITE_SUBSET = ("thm-3.6", "prop-3.9", "lemma-5.1")
QUERY_ITEMS = 40
REPEATED_COUNTS = ("space.balls", "space.nested_ball.pairs",
                   "space.ball_chain.checked", "operators.cz_validate.triples",
                   "norms.inner_seminorm.calls", "norms.grand_profile.calls",
                   "norms.grand_profile.nodes", "certify.sharpen.evals")


def _jobs(tmp, label):
    """A small mix: three certificates, one analysis, forty queries."""
    inputs, out = tmp / "inputs", tmp / label
    out.mkdir()
    jobs = [j for j in workloads.jobs("suite-c64", SEED, inputs, out)
            if j.name in SUITE_SUBSET]
    geometry = out / "grid-64-geometry.json"
    jobs.append(workloads.Job(
        name="space-analyze", kind="analyze",
        argv=("space", "analyze", "grid-64", "-o", str(geometry)),
        ref="analyze@grid-64", output=str(geometry)))
    items = [item for stratum in workloads.query_pool().values()
             for item in stratum[:1]][:QUERY_ITEMS]
    jobs += [workloads.query_job(f"q{i:04d}", item_id, argv, inputs, out)
             for i, (item_id, argv) in enumerate(items)]
    return jobs


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cli = run.import_library()
    tmp = tmp_path_factory.mktemp("bench")
    workloads.build_inputs("queries", tmp / "inputs", run.quiet(cli.main))
    plain = _jobs(tmp, "plain")
    for job in plain:
        assert run.run_job(cli, job, None, job.name)[1] == 0, job.argv
    traced = []
    for label in ("traced1", "traced2"):
        jobs = _jobs(tmp, label)
        tracer = Tracer()
        with tracer.installed():
            for job in jobs:
                assert run.run_job(cli, job, tracer, job.name)[1] == 0, job.argv
        traced.append((tmp / label, jobs, tracer))
    return tmp / "plain", traced


def _outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if not p.name.endswith(".runmeta.json")}


def test_traced_outputs_are_byte_identical(runs):
    plain, traced = runs
    expected = _outputs(plain)
    assert any(name.endswith(".fn") for name in expected)
    assert any(name.endswith("-circle-64.json") for name in expected)
    assert _outputs(traced[0][0]) == expected


def test_tracing_restores_the_library():
    from morreylab import certify, cli, norms, scales

    originals = (certify.inner_seminorm_matrix, norms.inner_seminorm_matrix,
                 cli.main, scales.ScaleFunction.__call__)
    with Tracer().installed():
        assert certify.inner_seminorm_matrix is norms.inner_seminorm_matrix
        assert certify.inner_seminorm_matrix is not originals[0]
    assert (certify.inner_seminorm_matrix, norms.inner_seminorm_matrix,
            cli.main, scales.ScaleFunction.__call__) == originals


def test_self_times_add_up_to_job_wall(runs):
    _, jobs, tracer = runs[1][0]
    for job in jobs:
        m = tracer.metrics([job.name])
        selfs = [m[f"{bucket}.s"] for bucket in LAYERS]
        assert min(selfs) > -1e-6, job.name
        covered = (sum(selfs) + m[f"{SHIFT_EVAL}.s"]
                   + m["trace.bookkeeping.s"] + m["trace.uncovered.s"])
        assert covered == pytest.approx(m["trace.wall.s"], rel=1e-9, abs=1e-9)
        assert 0.0 <= m["trace.uncovered.s"] < 0.05 * m["trace.wall.s"] + 1e-3


def test_counts_repeat_exactly_on_the_same_seed(runs):
    (_, jobs1, tracer1), (_, jobs2, tracer2) = runs[1]
    first = tracer1.metrics([j.name for j in jobs1])
    second = tracer2.metrics([j.name for j in jobs2])
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    for key in REPEATED_COUNTS:
        assert first[key] > 0, key
    assert 0.0 < first["norms.inner_seminorm.unique_frac"] <= 1.0
    assert 0.0 <= first["certify.sharpen.accept_frac"] <= 1.0


def test_reference_check_catches_a_changed_value(runs):
    plain, _ = runs
    refs = refcheck.load_refs("suite-c64")["jobs"]
    job = next(j for j in workloads.jobs("suite-c64", SEED, "unused", plain)
               if j.name == "thm-3.6")
    record = refcheck.observe(job, 0, "")
    ref = refs[job.ref]
    assert refcheck.compare(copy.deepcopy(record), ref, SEED) == []
    bent = copy.deepcopy(record)
    name = next(iter(bent["members"]))
    bent["members"][name][1] *= 1.0 + 1e-6
    assert refcheck.compare(bent, ref, SEED)
    bent = copy.deepcopy(record)
    bent["seeded"]["ratio"] *= 1.0 + 1e-6
    assert refcheck.compare(bent, ref, SEED)
    assert refcheck.compare(dict(record, exit_code=2), ref, SEED)
