"""Span tracing of morreylab from outside the library.

``Tracer.installed()`` replaces the library's public functions with timing
wrappers at every module binding that holds them (``certify`` and ``cli``
import names from ``norms``, ``operators`` and ``space`` directly, so
patching only the defining module would miss their calls), and restores
the originals on exit.  Helpers that are not listed in ``LAYERS`` are not
wrapped; their time is part of their caller's self time.

Each wrapped call is one span with its name, start, end, parent and job
id; spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the time its child spans cover.  ``ScaleFunction.__call__``
runs hundreds of thousands of times per certificate, so it gets no span:
it is aggregated as a call count plus the time of the outermost calls,
and that time is taken out of the enclosing span's self time.  The
tracer's own bookkeeping (digests of seminorm arguments, table lookups)
is timed and taken out the same way, so for every job

    sum of self times + shift evaluation + bookkeeping + uncovered = wall.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from pathlib import Path

import numpy as np

# metric bucket -> "module.function" names whose self time it sums
LAYERS = {
    "space.build": ("space.build_space", "space.load_space", "space.save_space"),
    "space.rep_balls": ("space.rep_balls",),
    "space.constants": ("space.quasimetric_constants",
                        "space.quasimetric_witnesses",
                        "space.doubling_constant", "space.doubling_witness",
                        "space.ahlfors_fit", "space.sharp_growth_constant",
                        "space.geometry_constants"),
    "space.nested_ball": ("space.nested_ball_bound_check",),
    "space.ball_chain": ("space.ball_chain_check",),
    "catalog.get_space": ("catalog.get_space", "catalog.line_grid",
                          "catalog.snowflake_grid", "catalog.two_atom",
                          "catalog.calibrated_circle",
                          "catalog.asymmetric_demo"),
    "scales.setup": ("scales.make_scale_function", "scales.make_grand_params",
                     "scales.grid_for", "scales.build_epsilon_grid",
                     "scales.make_potential_setup",
                     "scales.riesz_corollary_setup",
                     "scales.check_admissibility",
                     "scales.theoretical_constant", "scales.sobolev_exponent",
                     "scales.hedberg_exponents", "scales.delta_exponent"),
    "scales.passage": ("scales.aux_eval", "scales.invert_phi_bar"),
    "norms.inner_seminorm": ("norms.inner_seminorm_matrix",),
    "norms.grand_profile": ("norms.grand_profile",),
    "norms.morrey": ("norms.morrey_norm", "norms.grand_morrey_norm",
                     "norms.phi_functional"),
    "norms.lebesgue": ("norms.lebesgue_norm", "norms.grand_lebesgue_norm"),
    "norms.dominance": ("norms.dominance_report", "norms.k_phi"),
    "operators.apply": ("operators.maximal", "operators.modified_maximal",
                        "operators.potential", "operators.cz_apply"),
    "operators.kernel_build": ("operators.potential_matrix",
                               "operators.hilbert_kernel"),
    "operators.cz_validate": ("operators.validate_cz_kernel",
                              "operators.l2_operator_norm"),
    "certify.family": ("certify.generate_family",),
    "certify.reduction": ("certify.verify_reduction",),
    "certify.direct": ("certify.verify_direct", "certify.verify_hedberg",
                       "certify.verify_weak_type", "certify.verify_dominance"),
    "certify.sharpen": ("certify.sharpen_witness",),
    "certify.report_write": ("certify.save_report", "certify.write_index"),
    "certify.other": ("certify.certify_boundedness",),
    "cli.self": ("cli.main",),
}

SHIFT_EVAL = "scales.shift_eval"

# work counters, summed over the jobs of a pass
COUNTS = ("space.rep_balls.calls", "space.rep_balls.misses", "space.balls",
          "space.nested_ball.pairs", "space.ball_chain.checked",
          "scales.shift_eval.calls", "norms.inner_seminorm.calls",
          "norms.inner_seminorm.ball_cols", "norms.grand_profile.calls",
          "norms.grand_profile.nodes", "operators.apply.columns",
          "operators.cz_validate.triples", "certify.family.members",
          "certify.sharpen.evals", "certify.report.bytes")


class _Frame:
    """An open span: its record index and the time its children cover."""

    __slots__ = ("index", "covered")

    def __init__(self, index):
        self.index = index
        self.covered = 0.0


class Tracer:
    """Collects spans and counters for a sequence of jobs."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.jobs = {}           # job id -> per-job totals
        self._stack = []
        self._job = None
        self._scale_depth = 0
        self._paused = False
        self._seen_calls = set()

    @contextlib.contextmanager
    def job(self, job_id):
        """Attribute every span opened inside to ``job_id``."""
        totals = {"self": {}, "counts": dict.fromkeys(COUNTS, 0),
                  "shift_s": 0.0, "bookkeeping_s": 0.0, "root_s": 0.0,
                  "outside_s": 0.0, "seminorm_unique": 0,
                  "sharpen_accepts": 0}
        self.jobs[job_id] = totals
        self._job = job_id
        self._seen_calls = set()
        start = time.perf_counter()
        try:
            yield totals
        finally:
            totals["wall_s"] = time.perf_counter() - start
            # outside_s is shift or bookkeeping time spent outside any span
            totals["uncovered_s"] = (totals["wall_s"] - totals["root_s"]
                                     - totals["outside_s"])
            self._job = None
            self._seen_calls = set()

    def _charge(self, totals, seconds, key):
        """Book ``seconds`` of non-span time and take it out of the open span."""
        totals[key] += seconds
        if self._stack:
            self._stack[-1].covered += seconds
        else:
            totals["outside_s"] += seconds

    def _wrap(self, bucket, qualname, fn, counter):
        tracer = self
        before, after = counter or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._job is None or tracer._scale_depth or tracer._paused:
                return fn(*args, **kwargs)
            totals = tracer.jobs[tracer._job]
            state = None
            if before is not None:
                args, kwargs, state = before(tracer, totals, args, kwargs)
            parent = tracer._stack[-1].index if tracer._stack else -1
            record = [qualname, 0.0, 0.0, parent, tracer._job]
            tracer.spans.append(record)
            frame = _Frame(len(tracer.spans) - 1)
            tracer._stack.append(frame)
            record[1] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                selfs = totals["self"]
                selfs[bucket] = selfs.get(bucket, 0.0) + duration - frame.covered
                if tracer._stack:
                    tracer._stack[-1].covered += duration
                else:
                    totals["root_s"] += duration
            if after is not None:
                tracer._paused = True
                try:
                    after(tracer, totals, args, kwargs, result, state)
                finally:
                    tracer._paused = False
                tracer._charge(totals, time.perf_counter() - end,
                               "bookkeeping_s")
            return result

        return traced

    def _wrap_scale_call(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(obj, x):
            if tracer._job is None or tracer._paused:
                return fn(obj, x)
            totals = tracer.jobs[tracer._job]
            totals["counts"]["scales.shift_eval.calls"] += 1
            if tracer._scale_depth:
                return fn(obj, x)
            tracer._scale_depth += 1
            start = time.perf_counter()
            try:
                return fn(obj, x)
            finally:
                tracer._scale_depth -= 1
                tracer._charge(totals, time.perf_counter() - start, "shift_s")

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every module binding of the traced functions; undo on exit."""
        from morreylab import scales

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name.startswith("morreylab.") and mod is not None]
        patches = []
        for bucket, qualnames in LAYERS.items():
            for qualname in qualnames:
                mod_name, fn_name = qualname.split(".")
                original = getattr(sys.modules[f"morreylab.{mod_name}"], fn_name)
                wrapper = self._wrap(bucket, qualname, original,
                                     _COUNTERS.get(qualname))
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        patches.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
        call = scales.ScaleFunction.__call__
        scales.ScaleFunction.__call__ = self._wrap_scale_call(call)
        try:
            yield self
        finally:
            scales.ScaleFunction.__call__ = call
            for mod, fn_name, original in reversed(patches):
                setattr(mod, fn_name, original)

    def write_spans(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")

    def metrics(self, job_ids):
        """Layer self times, counters and fractions summed over jobs."""
        jobs = [self.jobs[j] for j in job_ids]
        total = lambda get: sum(get(t) for t in jobs)  # noqa: E731
        out = {f"{bucket}.s": total(lambda t: t["self"].get(bucket, 0.0))
               for bucket in LAYERS}
        out[f"{SHIFT_EVAL}.s"] = total(lambda t: t["shift_s"])
        for key in COUNTS:
            out[key] = total(lambda t: t["counts"][key])
        calls = out["norms.inner_seminorm.calls"]
        out["norms.inner_seminorm.unique_frac"] = (
            total(lambda t: t["seminorm_unique"]) / calls if calls else 0.0)
        evals = out["certify.sharpen.evals"]
        out["certify.sharpen.accept_frac"] = (
            total(lambda t: t["sharpen_accepts"]) / evals if evals else 0.0)
        out["trace.bookkeeping.s"] = total(lambda t: t["bookkeeping_s"])
        out["trace.uncovered.s"] = total(lambda t: t["uncovered_s"])
        out["trace.wall.s"] = total(lambda t: t["wall_s"])
        return out


# ---------------------------------------------------------------------------
# counters at the layer boundaries
#
# A counter is a pair (before, after).  ``before(tracer, totals, args,
# kwargs)`` runs outside the span and returns (args, kwargs, state);
# ``after(tracer, totals, args, kwargs, result, state)`` runs after the span
# closes and is charged to bookkeeping.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _columns(f):
    shape = getattr(f, "shape", None)
    return int(shape[1]) if shape is not None and len(shape) == 2 else 1


def _count(key, value_of):
    def after(tracer, totals, args, kwargs, result, state):
        totals["counts"][key] += value_of(args, kwargs, result)
    return None, after


def _rep_balls_before(tracer, totals, args, kwargs):
    return args, kwargs, len(_arg(args, kwargs, 0, "space")._cache)


def _rep_balls_after(tracer, totals, args, kwargs, table, cache_size):
    """A call is a miss when the space's cache grew."""
    counts = totals["counts"]
    counts["space.rep_balls.calls"] += 1
    if len(_arg(args, kwargs, 0, "space")._cache) > cache_size:
        counts["space.rep_balls.misses"] += 1
        counts["space.balls"] += int(table.size)


def _seminorm_after(tracer, totals, args, kwargs, result, state):
    """Calls, ball-by-column integrals, and first-seen (columns, arguments)."""
    from morreylab import norms

    F = _arg(args, kwargs, 0, "F")
    space = _arg(args, kwargs, 1, "space")
    variant = _arg(args, kwargs, 4, "variant")
    counts = totals["counts"]
    counts["norms.inner_seminorm.calls"] += 1
    # the table is cached by now, and tracing is paused inside this hook
    table, _ = norms.variant_table(space, variant)
    counts["norms.inner_seminorm.ball_cols"] += int(table.size) * _columns(F)
    # a 64-bit hash is enough to tell matrices apart within one job
    digest = hash(np.ascontiguousarray(F).tobytes())
    key = (digest, F.shape, float(_arg(args, kwargs, 2, "p_eff")),
           float(_arg(args, kwargs, 3, "lam_eff")), variant, id(space))
    if key not in tracer._seen_calls:
        tracer._seen_calls.add(key)
        totals["seminorm_unique"] += 1


def _grand_profile_after(tracer, totals, args, kwargs, result, state):
    counts = totals["counts"]
    counts["norms.grand_profile.calls"] += 1
    counts["norms.grand_profile.nodes"] += len(_arg(args, kwargs, 3, "nodes"))


def _sharpen_before(tracer, totals, args, kwargs):
    """Count evaluations, and those that raise the best ratio so far.

    Mirrors sharpen_witness: the first evaluation sets the best ratio, a
    later one raises it when it beats it by more than a relative 1e-15.
    """
    evaluate = _arg(args, kwargs, 0, "evaluate")
    counts = totals["counts"]
    best = [None]

    def counted(vec):
        value = float(evaluate(vec))
        counts["certify.sharpen.evals"] += 1
        if best[0] is None:
            best[0] = value
        elif value > best[0] * (1.0 + 1e-15):
            best[0] = value
            totals["sharpen_accepts"] += 1
        return value

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, evaluate=counted)
    return args, kwargs, None


_APPLY = _count("operators.apply.columns",
                lambda a, k, r: _columns(_arg(a, k, 0, "f")))

_COUNTERS = {
    "space.rep_balls": (_rep_balls_before, _rep_balls_after),
    "space.nested_ball_bound_check": _count(
        "space.nested_ball.pairs", lambda a, k, r: int(r.pairs_checked)),
    "space.ball_chain_check": _count(
        "space.ball_chain.checked", lambda a, k, r: int(r.checked)),
    "norms.inner_seminorm_matrix": (None, _seminorm_after),
    "norms.grand_profile": (None, _grand_profile_after),
    "operators.maximal": _APPLY,
    "operators.modified_maximal": _APPLY,
    "operators.potential": _APPLY,
    "operators.cz_apply": _APPLY,
    "operators.validate_cz_kernel": _count(
        "operators.cz_validate.triples", lambda a, k, r: int(r.get("triples", 0))),
    "certify.generate_family": _count(
        "certify.family.members", lambda a, k, r: int(r.size)),
    "certify.sharpen_witness": (_sharpen_before, None),
    "certify.save_report": _count(
        "certify.report.bytes", lambda a, k, r: Path(r).stat().st_size),
}
