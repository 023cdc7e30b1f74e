"""The jobs each workload runs and the inputs they read.

A job is one ``morreylab`` command line, run in process through
``morreylab.cli.main``.  Every job loads its space afresh, as a separate
CLI invocation does, so no ball table or constant survives from one job to
the next.

- ``suite-c64``: the 11 registered certificates on circle-64 with the
  ``mixed`` family; ``--seed`` is the family seed.  It is the only
  workload that runs every theorem: many small seminorm calls, the
  transported-shift bisection and witness sharpening.
- ``large-n``: ``space analyze`` on snowflake-128 (no distance ties,
  12,350 balls) and thm-3.6 on circle-128 (ties, 8,192 balls); ``--seed``
  is the family seed.  Time goes to a few very large dense ball products
  and the nested-ball and ball-chain scans.
- ``queries``: a closed loop with one caller over 288 one-shot ``norm
  eval`` and ``op apply`` requests per pass on seven small spaces, each
  loading its space cold; a run makes several passes.  The requests come from a fixed pool with pinned
  answers; ``--seed`` picks which requests of each stratum (space and
  request form) run, and their order.  Every stratum contributes the same
  number of requests on every seed, so the cost of a pass does not hinge
  on the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("suite-c64", "large-n", "queries")

SUITE_THEOREMS = ("thm-3.6", "prop-3.9", "thm-3.10", "prop-4.2", "thm-4.4",
                  "thm-4.5", "prop-4.6", "thm-4.7", "lemma-5.1", "lemma-5.2",
                  "thm-5.4")

# jobs whose times the traced run reports one by one
REPORTED_JOBS = SUITE_THEOREMS + ("space-analyze",)

# spaces built with ``space build`` during set-up: name -> build flags
BUILT_SPACES = {
    "large-n": {"snowflake-128": ("--kind", "snowflake", "--n", "128"),
                "circle-128": ("--kind", "circle", "--n", "128")},
    "queries": {"grid-128": ("--kind", "grid", "--n", "128"),
                "snowflake-64": ("--kind", "snowflake", "--n", "64")},
}

QUERY_SPACES = ("grid-16", "grid-64", "grid-128", "circle-65",
                "snowflake-64", "asym-4", "two-atom")
# the built-in singular kernel needs a line grid or a circle
CZ_SPACES = ("grid-16", "grid-64", "grid-128", "circle-65", "two-atom")
FUNCTIONS_PER_SPACE = 4
NORM_FORMS = ("lebesgue", "grand-lebesgue", "morrey-measure", "morrey-radius",
              "morrey-modified", "grand-morrey-measure", "grand-morrey-radius",
              "grand-morrey-modified")
OP_FORMS = ("maximal", "modified-maximal", "potential-distance",
            "potential-measure", "potential-line", "cz")
POOL_SEED = 20120410
POOL_PER_STRATUM = 16
DRAWS_PER_STRATUM = 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation and where to find what it produced.

    ``ref`` names the pinned reference the output is checked against and
    ``output`` is the file the job writes that the check reads (None when
    the answer is the printed line).
    """

    name: str
    kind: str
    argv: tuple
    ref: str
    output: str | None = None


def build_inputs(workload, inputs, main):
    """Build and save a workload's input files under ``inputs``."""
    from morreylab import catalog
    from morreylab.norms import GridFunction
    from morreylab.space import load_space

    inputs = Path(inputs)
    inputs.mkdir(parents=True, exist_ok=True)
    for name, flags in BUILT_SPACES.get(workload, {}).items():
        rc = main(["space", "build", *flags, "-o", str(inputs / f"{name}.space")])
        if rc != 0:
            raise RuntimeError(f"space build {name} exited {rc}")
    if workload != "queries":
        return
    for name in QUERY_SPACES:
        space = (load_space(inputs / f"{name}.space")
                 if name in BUILT_SPACES["queries"] else catalog.get_space(name))
        fdir = inputs / name
        fdir.mkdir(exist_ok=True)
        for k, values in enumerate(_functions(name, space.n)):
            GridFunction.from_values(f"f{k}", values, space).save(
                fdir / f"f{k}.fn", space)


def _functions(space_name, n):
    """Four test functions: Gaussian, log-normal, sparse spikes, smooth."""
    rng = random.Random(f"{POOL_SEED}/{space_name}")
    gauss = [rng.gauss(0.0, 1.0) for _ in range(n)]
    lognormal = [rng.lognormvariate(0.0, 1.0) for _ in range(n)]
    spikes = [0.0] * n
    for i in rng.sample(range(n), max(1, n // 8)):
        spikes[i] = rng.uniform(1.0, 10.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    smooth = [(1.0 + i / n) * math.cos(2.0 * math.pi * 3 * i / n + phase)
              for i in range(n)]
    return gauss, lognormal, spikes, smooth


def _round(x):
    return float(f"{x:.4g}")


def _query_flags(form, rng):
    """The command and flags of one request of ``form``."""
    u = lambda lo, hi: _round(rng.uniform(lo, hi))  # noqa: E731
    if form in OP_FORMS:
        flags = ["op", "apply", "--op", form]
        if form.startswith("potential"):
            flags += ["--alpha", str(u(0.05, 0.5))]
        if form == "potential-distance":
            flags += ["--gamma", str(u(0.5, 1.5))]
        return flags
    flags = ["norm", "eval", "--p", str(u(1.2, 3.0))]
    if form == "lebesgue":
        return flags + ["--norm", "lebesgue"]
    if form == "grand-lebesgue":
        return flags + ["--norm", "grand-lebesgue", "--theta", str(u(0.5, 2.0))]
    kind, variant = form.rsplit("-", 1)
    flags += ["--norm", kind, "--lambda", str(u(0.05, 0.8)),
              "--variant", variant]
    if variant == "radius":
        flags += ["--gamma", str(u(0.5, 1.5))]
    elif variant == "modified":
        flags += ["--dilation", str(u(1.0, 3.0))]
    if kind == "grand-morrey":
        A = "zero" if rng.random() < 0.5 else f"lin:{u(0.05, 0.5)}"
        flags += ["--phi", f"pow:{u(0.5, 2.0)}", "--A", A, "--grid-count", "32"]
    return flags


def query_pool():
    """Every request of the queries workload, as {stratum: [(id, argv)]}.

    An argv holds ``<inputs>`` and ``<out>`` placeholders for the input
    directory and the request's output file.
    """
    rng = random.Random(POOL_SEED)
    pool = {}
    for space in QUERY_SPACES:
        forms = NORM_FORMS + tuple(f for f in OP_FORMS
                                   if f != "cz" or space in CZ_SPACES)
        for form in forms:
            items = []
            for j in range(POOL_PER_STRATUM):
                flags = _query_flags(form, rng)
                k = rng.randrange(FUNCTIONS_PER_SPACE)
                space_arg = (f"<inputs>/{space}.space"
                             if space in BUILT_SPACES["queries"] else space)
                argv = flags[:2] + [f"<inputs>/{space}/f{k}.fn", space_arg] \
                    + flags[2:]
                if form in OP_FORMS:
                    argv += ["-o", "<out>"]
                items.append((f"{space}/{form}/{j:02d}", argv))
            pool[f"{space}/{form}"] = items
    return pool


def _fill(argv, inputs, out):
    return tuple(a.replace("<inputs>", str(inputs)).replace("<out>", str(out))
                 for a in argv)


def query_job(name, item_id, argv, inputs, outdir):
    kind = "op" if argv[0] == "op" else "norm"
    out = Path(outdir) / f"{name}.fn"
    return Job(name=name, kind=kind, argv=_fill(argv, inputs, out),
               ref=item_id, output=str(out) if kind == "op" else None)


def jobs(workload, seed, inputs, outdir):
    """The jobs of one pass of ``workload`` on ``seed``, in run order."""
    inputs, outdir = Path(inputs), Path(outdir)
    if workload == "suite-c64":
        return [Job(name=thm, kind="certify",
                    argv=("certify", "run", "circle-64", "--theorem", thm,
                          "--family", "mixed", "--seed", str(seed),
                          "--outdir", str(outdir)),
                    ref=f"{thm}@circle-64",
                    output=str(outdir / f"{thm}-circle-64.json"))
                for thm in SUITE_THEOREMS]
    if workload == "large-n":
        geometry = outdir / "snowflake-128-geometry.json"
        return [
            Job(name="space-analyze", kind="analyze",
                argv=("space", "analyze", str(inputs / "snowflake-128.space"),
                      "-o", str(geometry)),
                ref="analyze@snowflake-128", output=str(geometry)),
            Job(name="thm-3.6", kind="certify",
                argv=("certify", "run", str(inputs / "circle-128.space"),
                      "--theorem", "thm-3.6", "--family", "mixed",
                      "--seed", str(seed), "--outdir", str(outdir)),
                ref="thm-3.6@circle-128",
                output=str(outdir / "thm-3.6-circle-128.json")),
        ]
    if workload == "queries":
        rng = random.Random(seed)
        picks = []
        for items in query_pool().values():
            picks += rng.sample(items, DRAWS_PER_STRATUM)
        rng.shuffle(picks)
        return [query_job(f"q{i:04d}", item_id, argv, inputs, outdir)
                for i, (item_id, argv) in enumerate(picks)]
    raise ValueError(f"unknown workload {workload!r}")
