"""Certification of boundedness inequalities by exhaustive measurement.

Every verifier measures both sides of an inequality on a deterministic
family of test functions and compares the measured ratio with a constant
assembled exactly the way the two-arm transfer argument assembles it: shift
nodes below a pivot ``sigma`` carry per-shift operator measurements, nodes
above the pivot are folded into the pivot node through exact per-ball
Hoelder factors.  The assembled bound is asserted against the measured
grand-norm ratios, never assumed.

A report never fails silently: invalid requests and violated hypotheses
raise CertifyError, while a sound run that misses its bound is returned
with structural_pass False so the caller can exit accordingly.
"""

from __future__ import annotations

import csv
import json
import math
import re
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# inner_seminorm_matrix is unused here but stays bound: perfbench's tracer
# test wraps and restores it through this module
from .norms import (ProfileScreen, as_matrix,  # noqa: F401
                    appended_profile, dominance_report,
                    inner_seminorm_matrix, lebesgue_norm, morrey_norm,
                    phi_functional, pruning_work, seminorm_profile)
from .operators import (cz_apply, hilbert_kernel, maximal, modified_maximal,
                        potential, validate_cz_kernel)
from .scales import (MorreyVariant, delta_exponent, grid_for,
                     hedberg_exponents, make_grand_params,
                     make_potential_setup, shift_schedule,
                     sobolev_exponent, theoretical_constant)
from .space import (QuasimetricSpace, ahlfors_fit, dilation_constants,
                    doubling_constant, prefix_profile, quasimetric_constants,
                    rep_balls, sharp_growth_constant)


class CertifyError(ValueError):
    """Raised when a certification request is invalid or a hypothesis fails."""


# ---------------------------------------------------------------------------
# test function families


_FAMILY_SPECS = ("ball-indicators", "point-masses", "power-profiles",
                 "oscillating", "random-step", "mixed")


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Deterministic test functions stored as columns of one matrix."""

    spec: str
    seed: int | None
    names: tuple
    values: np.ndarray

    @property
    def size(self) -> int:
        return int(self.values.shape[1])


def _stride_pick(count: int, cap: int) -> np.ndarray:
    if count <= cap:
        return np.arange(count)
    return np.unique(np.round(np.linspace(0, count - 1, cap)).astype(int))


def _capped(pair, cap):
    cols, names = pair
    pick = _stride_pick(cols.shape[1], cap)
    return cols[:, pick], [names[int(i)] for i in pick]


def _ball_indicator_columns(space, cap=None):
    table = rep_balls(space, dedupe=True)
    pick = np.arange(table.size) if cap is None else _stride_pick(table.size, cap)
    cols = table.masks[pick].T.astype(float)
    names = [f"ball-c{int(c)}-r{float(r):.6g}"
             for c, r in zip(table.centers[pick], table.radii[pick])]
    return cols, names


def _point_mass_columns(space, cap=8):
    picks = _stride_pick(space.n, cap)
    cols = np.zeros((space.n, picks.size))
    for j, c in enumerate(picks):
        cols[int(c), j] = 1.0
    names = [f"point-{int(c)}" for c in picks]
    return cols, names


def _power_profile_columns(space):
    centers = _stride_pick(space.n, 4)
    cols, names = [], []
    for c in centers:
        d = space.dist[int(c)].astype(float)
        for beta in (0.25, 0.5, 0.75):
            with np.errstate(divide="ignore"):
                v = np.where(d > 0, d ** -beta, 0.0)
            peak = float(v.max()) if space.n > 1 else 1.0
            v = v.copy()
            v[int(c)] = peak if peak > 0 else 1.0
            cols.append(v)
            names.append(f"power-c{int(c)}-b{beta:g}")
    return np.asarray(cols).T, names


def _oscillating_columns(space):
    n = space.n
    idx = np.arange(n)
    rank = prefix_profile(space).rank[0]
    cols = np.stack([
        np.where(idx % 2 == 0, 1.0, -1.0),
        np.where(rank % 2 == 0, 1.0, -1.0),
        np.where(idx < (n + 1) // 2, 1.0, -1.0),
        np.where(rank < (n + 1) // 2, 1.0, -1.0),
    ], axis=1)
    names = ["osc-parity", "osc-rank", "osc-half", "osc-rank-half"]
    return cols, names


def _random_step_columns(space, seed, count=12):
    rng = np.random.default_rng(seed)
    cols, names = [], []
    for k in range(count):
        c = int(rng.integers(space.n))
        thr = float(rng.uniform(0.05, 1.0)) * space.diameter
        lo, hi = rng.uniform(0.0, 1.0, size=2)
        v = np.where(space.dist[c] < thr, hi, lo)
        if float(np.abs(v).max()) < 1e-12:
            v = v + 1.0
        cols.append(v)
        names.append(f"step-{k}")
    return np.asarray(cols).T, names


def generate_family(space: QuasimetricSpace, spec: str, seed: int | None = None,
                    max_members: int = 64) -> FunctionFamily:
    """Build a deterministic family of test functions on a space.

    "random-step" and "mixed" require a seed; the other specs ignore it.
    Members are guaranteed finite and individually nonzero.
    """
    if spec not in _FAMILY_SPECS:
        raise CertifyError(
            f"unknown family spec {spec!r}; choose one of {', '.join(_FAMILY_SPECS)}")
    if spec in ("random-step", "mixed") and seed is None:
        raise CertifyError(f"family {spec!r} is randomized and needs a seed")
    if spec == "ball-indicators":
        cols, names = _ball_indicator_columns(space)
    elif spec == "point-masses":
        cols, names = _point_mass_columns(space)
    elif spec == "power-profiles":
        cols, names = _power_profile_columns(space)
    elif spec == "oscillating":
        cols, names = _oscillating_columns(space)
    elif spec == "random-step":
        cols, names = _random_step_columns(space, seed)
    else:
        parts = [
            _ball_indicator_columns(space, cap=16),
            _capped(_point_mass_columns(space, cap=4), 4),
            _capped(_power_profile_columns(space), 6),
            _capped(_oscillating_columns(space), 4),
            _capped(_random_step_columns(space, seed, count=8), 8),
        ]
        cols = np.hstack([part[0] for part in parts])
        names = [nm for part in parts for nm in part[1]]
    keep = np.abs(cols).max(axis=0) > 0
    cols = cols[:, keep]
    names = [nm for nm, k in zip(names, keep) if k]
    if cols.shape[1] == 0:
        raise CertifyError(f"family {spec!r} has no nonzero member on {space.name!r}")
    if cols.shape[1] > max_members:
        pick = _stride_pick(cols.shape[1], max_members)
        cols = cols[:, pick]
        names = [names[int(i)] for i in pick]
    if not np.all(np.isfinite(cols)):
        raise CertifyError(f"family {spec!r} produced non-finite values")
    return FunctionFamily(spec=spec, seed=seed, names=tuple(names),
                          values=np.ascontiguousarray(cols, dtype=float))


def empirical_ratio(out_norms, in_norms, names):
    """Largest out/in ratio over members with positive input norm."""
    out = np.asarray(out_norms, dtype=float)
    inn = np.asarray(in_norms, dtype=float)
    if out.shape != inn.shape or len(names) != out.size:
        raise CertifyError("norm arrays and names must have matching length")
    usable = inn > 0
    if not bool(usable.any()):
        raise CertifyError("every member has zero input norm")
    ratios = np.full(out.size, -np.inf)
    ratios[usable] = out[usable] / inn[usable]
    k = int(np.argmax(ratios))
    return float(ratios[k]), str(names[k])


# relative gain a sharpening trial needs to replace the best ratio so far
_SHARPEN_GAIN = 1e-15


def sharpen_witness(evaluate, values, iterations: int = 32, step: float = 0.1):
    """Greedy coordinate search for a larger ratio around a witness.

    Each iteration perturbs one coordinate by the factors (1 + step) and
    1/(1 + step) and keeps the first improvement.  A zero coordinate cannot
    move multiplicatively, so it is seeded at step times the largest
    magnitude instead.  Returns (values, best ratio).
    """
    v = np.asarray(values, dtype=float).copy()
    best = float(evaluate(v))
    n = v.size
    for it in range(int(iterations)):
        j = it % n
        for fac in (1.0 + step, 1.0 / (1.0 + step)):
            trial = v.copy()
            if v[j] == 0.0:
                scale = float(np.abs(v).max()) or 1.0
                trial[j] = scale * step * (1.0 if fac > 1.0 else -1.0)
            else:
                trial[j] = v[j] * fac
            cand = float(evaluate(trial))
            if cand > best * (1.0 + _SHARPEN_GAIN):
                v, best = trial, cand
                break
    return v, best


def _apply(apply_op, F):
    """The operator's values on the columns of F, checked for shape and finiteness."""
    out = np.asarray(apply_op(F), dtype=float)
    if out.shape != F.shape:
        raise CertifyError(
            f"operator returned shape {out.shape}, expected {F.shape}")
    if not np.all(np.isfinite(out)):
        raise CertifyError("operator produced non-finite values on the family")
    return out


def _ratio_evaluator(apply_op, in_norm, out_norm):
    """The sharpening ratio out_norm(T f) / in_norm(f) of one member vector,
    0 at zero input norm; in_norm and out_norm map a member matrix to
    per-member norms."""
    def evaluate(vec):
        col = vec[:, None]
        pin = float(in_norm(col)[0])
        if pin <= 0.0:
            return 0.0
        return float(out_norm(np.asarray(apply_op(col), dtype=float))[0]) / pin

    return evaluate


def _early_rejecting_evaluator(apply_op, space, s_out, s_in, work):
    """The sharpening ratio of the output grand norm at schedule ``s_out`` to
    the input grand norm at ``s_in``, screened by certified surrogates.

    The best ratio follows sharpen_witness: the first call sets it, and so
    does every later one that gains more than _SHARPEN_GAIN.  Each trial
    takes both sides' row bounds (norms.ProfileScreen: float32 surrogates
    of the coarse rows and of the fine rows Lyapunov's bound cannot rule
    out).  Division is monotone, so a trial with max(upper out) /
    max(lower in) <= best (1 + _SHARPEN_GAIN) cannot be accepted, and
    returns that upper bound.  Otherwise each side's grand norm is
    ProfileScreen.supremum from that side's screen and bounds: the largest
    exact row among the candidates, which hold the exact maximum, so the
    ratio is bit for bit that of _ratio_evaluator.  ``work`` counts the
    trials, the surrogate rejections, the exact rows, the screen fallbacks
    (bounds a screen declined, one per side) and the float32 rows both
    screens evaluated.
    """
    screen_out, screen_in = ProfileScreen(space, s_out), ProfileScreen(space, s_in)
    best = None

    def evaluate(vec):
        nonlocal best
        work["trials"] += 1
        col = vec[:, None]
        col_out = np.asarray(apply_op(col), dtype=float)
        bounds_out, bounds_in = screen_out.rows(col_out), screen_in.rows(col)
        work["screen_fallbacks"] += (bounds_out is None) + (bounds_in is None)
        work["screened_rows"] = screen_out.screened_rows + screen_in.screened_rows
        if best is not None and bounds_out is not None and bounds_in is not None:
            upper, lower = float(bounds_out[0].max()), float(bounds_in[1].max())
            if lower > 0.0 and upper / lower <= best * (1.0 + _SHARPEN_GAIN):
                work["surrogate_rejections"] += 1
                return upper / lower
        pout = screen_out.supremum(col_out, bounds_out)[1]
        pin = screen_in.supremum(col, bounds_in)[1]
        work["exact_rows"] = screen_out.exact_rows + screen_in.exact_rows
        ratio = 0.0 if pin <= 0.0 else pout / pin
        if best is None or ratio > best * (1.0 + _SHARPEN_GAIN):
            best = ratio
        return ratio

    return evaluate


def _sharpen(sharpen, evaluate, apply_op, F, names, ratio_raw, witness):
    """Sharpen the witness member of F against the ratio ``evaluate``.  On a
    strict gain over ratio_raw, name the new member in names and return
    (column, its operator values, ratio); otherwise, or without sharpen,
    (None, None, None)."""
    if not sharpen:
        return None, None, None
    v_best, r_best = sharpen_witness(evaluate, F[:, names.index(witness)])
    if not r_best > ratio_raw * (1.0 + _SHARPEN_GAIN):
        return None, None, None
    names.append(f"{witness}+sharpened")
    col = v_best[:, None]
    return col, _apply(apply_op, col), float(r_best)


def _shift_ratios(out_rows, in_rows):
    """Per row, the largest out/in ratio over members with positive input
    norm; -inf on a row where every input norm is zero."""
    ratios = np.full(in_rows.shape, -np.inf)
    np.divide(out_rows, in_rows, out=ratios, where=in_rows > 0)
    return ratios.max(axis=1)


def _members(names, in_norms, out_norms):
    return tuple(
        {"name": nm, "in_norm": float(pi), "out_norm": float(po),
         "ratio": (float(po / pi) if pi > 0 else None)}
        for nm, pi, po in zip(names, in_norms, out_norms))


def _builder_ok(checks):
    return all(bool(v) for k, v in checks.items() if k.endswith("_ok"))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CertReport:
    """One certified inequality with everything needed to reproduce it.

    ``ratio`` is the measured quantity and ``bound`` the value it must not
    exceed; for normalized checks (pointwise domination, weak type) the
    bound is 1.  ``constant`` carries the assembled theoretical constant
    when a formula is registered for the inequality.
    """

    inequality: str
    space_id: str
    space_name: str
    params: dict
    family: dict
    ratio: float
    bound: float
    witness: str | None
    ratio_sharpened: float | None
    constant: dict | None
    checks: dict
    hypotheses: dict = field(default_factory=dict)
    profile: tuple = ()
    members: tuple = ()
    structural_pass: bool = False
    calibrated_pass: bool | None = None
    notes: tuple = ()
    runtime_s: float = 0.0
    sharpening_work: dict = field(default_factory=dict)
    pruning_work: dict = field(default_factory=dict)

    def body(self) -> dict:
        """JSON-safe content without the runtime and the work counters, for
        byte-stable files."""
        data = asdict(self)
        for key in ("runtime_s", "sharpening_work", "pruning_work"):
            data.pop(key)
        return _jsonable(data)

    def failed_gates(self) -> list:
        """Names of the structural gates this report failed, from its checks.

        Builder checks are named by their ``*_ok`` key.  A direct bound
        fails on its formula (``within_formula``) only when the constant is
        explicit, so that gate is named when no other gate explains the
        failure.
        """
        if self.structural_pass:
            return []
        checks = self.checks
        failed = [name for key, name in _GATES.items()
                  if key in checks and not checks[key]]
        failed += [key for key, ok in checks.items()
                   if key.endswith("_ok") and key not in _GATES and not ok]
        if not failed and checks.get("within_formula") is False:
            failed.append("explicit-constant")
        return failed


# structural gates of the verifiers: check key -> gate name
_GATES = {
    "internal_consistency": "consistency",
    "uniformity_ok": "uniformity",
    "refinement_stable": "stability",
    "explicit_ok": "explicit-constant",
    "bound_finite": "finite-constant",
}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def save_report(report: CertReport, path) -> Path:
    """Write the report body plus a .runmeta.json sidecar and side CSVs.

    The body is serialized with sorted keys and without the runtime, so a
    rerun with identical inputs produces byte-identical bytes; the sidecar
    holds the runtime, a timestamp and, for reduction certificates, the
    sharpening and the profile pruning work counters.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.body(), indent=2, sort_keys=True) + "\n")
    meta = {"runtime_s": float(report.runtime_s),
            "written_at": datetime.now(timezone.utc).isoformat()}
    if report.sharpening_work:
        meta["sharpening"] = dict(report.sharpening_work)
    if report.pruning_work:
        meta["pruning"] = dict(report.pruning_work)
    Path(str(path) + ".runmeta.json").write_text(json.dumps(meta, indent=2) + "\n")
    stem = str(path)
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    if report.profile:
        _write_csv(f"{stem}.profile.csv", report.profile)
    if report.members:
        _write_csv(f"{stem}.members.csv", report.members)
    return path


def _write_csv(path, rows):
    rows = [_jsonable(dict(row)) for row in rows]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_index(reports, outdir) -> Path:
    """Aggregate one CSV line per report under outdir/index.csv.

    Accepts CertReport objects or previously saved report bodies (dicts).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fields = ["inequality", "space", "ratio", "bound", "structural_pass",
              "calibrated_pass", "witness"]

    def get(rep, key):
        return rep[key] if isinstance(rep, dict) else getattr(rep, key)

    path = outdir / "index.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rep in reports:
            ratio = float(get(rep, "ratio"))
            bound = get(rep, "bound")
            bound = float(bound) if not isinstance(bound, str) else bound
            calibrated = get(rep, "calibrated_pass")
            writer.writerow({
                "inequality": get(rep, "inequality"),
                "space": get(rep, "space_name"),
                "ratio": f"{ratio:.12g}",
                "bound": (f"{bound:.12g}" if isinstance(bound, float)
                          else bound),
                "structural_pass": get(rep, "structural_pass"),
                "calibrated_pass": ("" if calibrated is None else calibrated),
                "witness": get(rep, "witness") or "",
            })
    return path


def _params_dict(params) -> dict:
    return {
        "p": params.p,
        "lam": params.lam,
        "phi": params.phi.describe(),
        "A": params.A.describe(),
        "variant": {"kind": params.variant.kind, "gamma": params.variant.gamma,
                    "dilation": params.variant.dilation,
                    "radius_cap": params.variant.resolved_cap()},
        "s_max": params.s_max,
        "grid_count": params.grid_count,
        "closed_grid": params.closed_grid,
    }


# ---------------------------------------------------------------------------
# dominance verification


def verify_dominance(space: QuasimetricSpace, f, params, sigma: float,
                     s: float) -> CertReport:
    """Check that the grand tail above sigma folds into the sigma node.

    The inequality Phi(f, s) <= C phi(sigma)^(-1/(p - sigma)) Phi(f, sigma]
    is evaluated on the master grid with the constant C produced by the
    per-ball Hoelder scan; the Hoelder gap exponent is confirmed to stay in
    [0, 1] on every grid node at or above sigma, and the normalized ratio is
    re-measured on a refined grid.
    """
    t0 = time.perf_counter()
    if not 0.0 < sigma < s <= params.s_max * (1.0 + 1e-12):
        raise CertifyError(
            f"need 0 < sigma < s <= s_max = {params.s_max:g}, "
            f"got sigma={sigma:g}, s={s:g}")
    rep = dominance_report(space, params, sigma)
    F = as_matrix(f, space)
    if F.shape[1] != 1:
        raise CertifyError("verify_dominance takes a single function")
    lhs = float(phi_functional(F[:, 0], space, params, s))
    rhs_sig = float(phi_functional(F[:, 0], space, params, sigma,
                                   include_endpoint=True))
    scale = rep["C"] * float(params.phi(sigma)) ** (-1.0 / (params.p - sigma))
    bound_val = scale * rhs_sig
    if bound_val == 0.0:
        ratio = 0.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / bound_val

    nodes = grid_for(params).nodes
    mid = nodes[(nodes >= sigma) & (nodes <= params.s_max)]
    deltas = delta_exponent(params.p, params.lam, params.A, mid, sigma)
    delta_ok = bool(deltas.size == 0
                    or (deltas.min() >= -1e-12 and deltas.max() <= 1.0 + 1e-12))

    fine = grid_for(params).refine()
    lhs_f = phi_functional(F[:, 0], space, params, s, grid=fine)
    rhs_f = phi_functional(F[:, 0], space, params, sigma, include_endpoint=True,
                           grid=fine)
    bound_f = scale * rhs_f
    ratio_f = 0.0 if bound_f == 0.0 else lhs_f / bound_f
    refinement_delta = abs(ratio_f - ratio)

    passed = ratio <= 1.0 + 1e-12 and delta_ok and refinement_delta <= 0.05
    name = getattr(f, "name", "f")
    return CertReport(
        inequality="dominance",
        space_id=space.space_id(),
        space_name=space.name,
        params={**_params_dict(params), "sigma": sigma, "s": s},
        family={"spec": "single", "seed": None, "size": 1},
        ratio=float(ratio),
        bound=1.0,
        witness=str(name),
        ratio_sharpened=None,
        constant={"kind": "dominance", "numeric": rep["C"],
                  "C0": rep["C0"], "shape": rep["shape"]},
        checks={
            "lhs": lhs,
            "rhs_times_constant": bound_val,
            "delta_min": (float(deltas.min()) if deltas.size else None),
            "delta_max": (float(deltas.max()) if deltas.size else None),
            "delta_ok": delta_ok,
            "ratio_refined": float(ratio_f),
            "refinement_delta": float(refinement_delta),
            "M_delta": rep["M_delta"],
            "K_phi": rep["K_phi"],
            "w_sigma": rep["w_sigma"],
            "witness_ball": rep["witness"],
        },
        structural_pass=bool(passed),
        calibrated_pass=None,
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# the reduction engine


def _check_ratio_condition(lo, w):
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise CertifyError(
            "weight ratio is not finite and positive on the shift grid")
    if lo.size < 4:
        return
    half = max(2, lo.size // 2)
    slope = float(np.polyfit(np.log(lo[:half]), np.log(w[:half]), 1)[0])
    if slope < -0.01 and w[0] > 3.0 * w[-1]:
        raise CertifyError(
            "weight ratio condition fails: psi(eps)^(1/(q-eps)) / "
            f"phi(eta)^(1/(p-eta)) grows without bound toward 0 "
            f"(log-log slope {slope:.3g}); the output grandifier does not "
            "vanish fast enough relative to the input one")


def verify_reduction(space: QuasimetricSpace, family: FunctionFamily,
                     apply_op, params_in, params_out, sigma: float, *,
                     pairing=None, per_eps_constant=None, consts=None,
                     sharpen=True, refinement_levels=1, inequality="reduction",
                     hypotheses=None, extra_params=None, extra_checks=None,
                     out_values=None, notes=()) -> CertReport:
    """Certify a grand-to-grand operator bound through per-shift measurements.

    On output nodes eps <= sigma the operator is measured directly:
    C_meas(eps) is the largest ratio of the plain output seminorm at
    (q - eps, lam - A_out(eps)) to the plain input seminorm at
    (p - eta, lam - A_in(eta)) with eta = pairing(eps).  Nodes above sigma
    are folded into the sigma node by the dominance factors.  With
    W(eps) = psi(eps)^(1/(q-eps)) / phi(eta)^(1/(p-eta)) the assembled
    constant is

        max( max_{eps <= sigma} W(eps) C_meas(eps),
             (K_phi M_delta / w_sigma) W(sigma) C_meas(sigma) )

    and it bounds the measured grand-norm ratio of every family member
    because the input grand norm is evaluated on the union of its master
    grid with the paired nodes.  That bound is asserted.  A per-shift
    theoretical constant, per_eps_constant(eps, eta, A_out(eps)) when
    registered, is assembled the same way.  The pairing maps node arrays.

    The stability gate re-measures on refinement_levels >= 1 refined grids.
    Refinement keeps every node, so each side is evaluated once, on the
    finest grid, for the family before sharpening; the first witness and
    every level read their rows from there.  An accepted sharpened member
    is appended to both profiles as one more column (appended_profile),
    which keeps the bits of an evaluation of the wider family.  out_values,
    when given, are the operator's values on family.values, which the caller
    has applied already.
    """
    t0 = time.perf_counter()
    pairing = pairing or (lambda e: e)
    if not 0.0 < sigma < params_out.s_max:
        raise CertifyError(
            f"sigma must lie in (0, s_max_out) = (0, {params_out.s_max:g}), "
            f"got {sigma:g}")
    if int(refinement_levels) < 1:
        raise CertifyError(
            "the stability gate needs refinement_levels >= 1, got "
            f"{refinement_levels}")
    grids_out = [grid_for(params_out)]
    grids_in = [grid_for(params_in)]
    for _ in range(int(refinement_levels)):
        grids_out.append(grids_out[-1].refine())
        grids_in.append(grids_in[-1].refine())

    paired = []
    for g in grids_out:
        lo = np.unique(np.append(g.nodes[g.nodes <= sigma], sigma))
        eta = np.asarray(pairing(lo), dtype=float)
        if not np.all(np.isfinite(eta)) or np.any(eta <= 0):
            raise CertifyError("pairing produced a shift outside (0, s_max_in)")
        if np.any(eta >= params_in.s_max * (1.0 + 1e-9)):
            raise CertifyError(
                f"pairing leaves the input shift range: max eta = "
                f"{eta.max():g} >= s_max_in = {params_in.s_max:g}")
        paired.append((lo, eta))
    s_out = shift_schedule(params_out,
                           np.unique(np.append(grids_out[-1].nodes, sigma)))
    s_in = shift_schedule(params_in,
                          np.unique(np.concatenate([grids_in[-1].nodes,
                                                    paired[-1][1]])))

    def rows(schedule, nodes):
        i = np.searchsorted(schedule.nodes, nodes)
        if not np.array_equal(schedule.nodes.take(i, mode="clip"), nodes):
            raise CertifyError("a grid level node is missing from the finest "
                               "shift schedule")
        return i

    lo, eta = paired[0]
    _check_ratio_condition(
        lo, s_out.weight[rows(s_out, lo)] / s_in.weight[rows(s_in, eta)])

    F = np.ascontiguousarray(family.values, dtype=float)
    out_vals = _apply(apply_op, F) if out_values is None else out_values
    names = list(family.names)

    # the base input grid: the first level's rows and every sharpening trial
    base_in = np.unique(np.concatenate([grids_in[0].nodes, eta]))

    def grand(prof, schedule, i):
        return (schedule.weight[i, None] * prof[i]).max(axis=0)

    work = {"trials": 0, "surrogate_rejections": 0, "exact_rows": 0,
            "screen_fallbacks": 0, "screened_rows": 0}
    with pruning_work() as pruning:
        prof_in = seminorm_profile(F, space, s_in)
        prof_out = seminorm_profile(out_vals, space, s_out)
        # the first witness reads the family's base-grid rows
        ratio_raw, witness = empirical_ratio(
            grand(prof_out, s_out, rows(s_out, grids_out[0].nodes)),
            grand(prof_in, s_in, rows(s_in, base_in)), names)
        # the evaluator, and the block buffers of its screens, live only
        # while sharpening runs
        col, col_out, ratio_sharp = _sharpen(
            sharpen, _early_rejecting_evaluator(
                apply_op, space, shift_schedule(params_out, grids_out[0].nodes),
                shift_schedule(params_in, base_in), work),
            apply_op, F, names, ratio_raw, witness)
        if ratio_sharp is not None:
            F = np.hstack([F, col])
            out_vals = np.hstack([out_vals, col_out])
            prof_in = appended_profile(prof_in, F, space, s_in)
            prof_out = appended_profile(prof_out, out_vals, space, s_out)

    # every grid level is a row selection of the two finest profiles
    levels = []
    for g_out, g_in, (lo, eta) in zip(grids_out, grids_in, paired):
        i_lo, i_eta = rows(s_out, lo), rows(s_in, eta)
        i_in = np.union1d(rows(s_in, g_in.nodes), i_eta)
        i_out = rows(s_out, g_out.nodes)
        c_meas = _shift_ratios(prof_out[i_lo], prof_in[i_eta])
        if np.isneginf(c_meas).any():
            raise CertifyError("every member has zero input seminorm at shift "
                               f"{eta[np.isneginf(c_meas)][0]:g}")
        levels.append({
            "lo": lo, "eta": eta, "w": s_out.weight[i_lo] / s_in.weight[i_eta],
            "c_meas": c_meas,
            "phi_in": grand(prof_in, s_in, i_in),
            "phi_out": grand(prof_out, s_out, i_out)})
    base = levels[0]

    dom = dominance_report(space, params_out, sigma)
    tail = dom["K_phi"] * dom["M_delta"] / dom["w_sigma"]

    def assemble(res):
        arm = res["w"] * res["c_meas"]
        s_small = float(arm.max())
        s_tail = float(tail * arm[-1])
        return max(s_small, s_tail), s_small, s_tail

    measured = [empirical_ratio(lv["phi_out"], lv["phi_in"], names)
                for lv in levels]
    ratio_meas, witness = measured[0]
    assembled, s_small, s_tail = assemble(base)
    consistent = bool(ratio_meas <= assembled * (1.0 + 1e-9))
    arm = base["w"] * base["c_meas"]
    uniformity = float(arm.max() / arm.min()) if arm.min() > 0 else math.inf

    constant = None
    assembled_thm = None
    implied_free = None
    calibrated = None
    c_thm = None
    if per_eps_constant is not None:
        cvals = list(map(per_eps_constant, base["lo"].tolist(), base["eta"].tolist(),
                         params_out.A(base["lo"]).tolist()))
        c_thm = np.asarray([cv.numeric for cv in cvals])
        arm_thm = base["w"] * c_thm
        assembled_thm = float(max(arm_thm.max(), tail * arm_thm[-1]))
        sig_cv = cvals[-1]
        if consts is None:
            if math.isfinite(assembled_thm) and assembled_thm > 0:
                implied_free = float(ratio_meas / assembled_thm)
        else:
            calibrated = bool(ratio_meas <= assembled_thm * (1.0 + 1e-9))
        constant = {
            "kind": sig_cv.kind,
            "numeric": assembled_thm,
            "per_shift_expression": sig_cv.expression,
            "symbols": dict(sig_cv.symbols),
            "assembly": "max over shift nodes below sigma of W(eps) C(eps), "
                        "then against the sigma tail factor "
                        "K_phi M_delta / w_sigma",
            "calibrated": consts is not None,
        }

    measured_seq = [float(r) for r, _ in measured]
    assembled_seq = [float(assemble(lv)[0]) for lv in levels]
    meas_deltas = [abs(b - a) for a, b in zip(measured_seq, measured_seq[1:])]
    asm_deltas = [abs(b - a) for a, b in zip(assembled_seq, assembled_seq[1:])]
    stable = all(d <= 0.05 * max(ratio_meas, 1e-300) for d in meas_deltas)

    extra_checks = dict(extra_checks or {})
    structural = bool(consistent and stable and uniformity < 10.0
                      and _builder_ok(extra_checks))

    profile = tuple(
        {"eps": float(e), "eta": float(h), "wratio": float(wv),
         "c_meas": float(cm),
         "c_thm": (float(c_thm[j]) if c_thm is not None else None)}
        for j, (e, h, wv, cm) in enumerate(
            zip(base["lo"], base["eta"], base["w"], base["c_meas"])))

    checks = {
        "internal_consistency": consistent,
        "uniformity": uniformity,
        "uniformity_ok": bool(uniformity < 10.0),
        "arm_small": s_small,
        "arm_tail": s_tail,
        "tail_factor": float(tail),
        "dominance": {k: dom[k] for k in
                      ("M_delta", "K_phi", "w_sigma", "witness")},
        "refinement_measured": measured_seq,
        "refinement_assembled": assembled_seq,
        "refinement_deltas": meas_deltas,
        "refinement_assembled_deltas": asm_deltas,
        "refinement_stable": bool(stable),
        # no reduction enforces its per-shift constant; the key stays a verdict
        "explicit_ok": True,
        "implied_free": implied_free,
    }
    checks.update(extra_checks)

    return CertReport(
        inequality=inequality,
        space_id=space.space_id(),
        space_name=space.name,
        params={"input": _params_dict(params_in),
                "output": _params_dict(params_out),
                "sigma": float(sigma),
                **dict(extra_params or {})},
        family={"spec": family.spec, "seed": family.seed,
                "size": len(names), "sharpened": ratio_sharp is not None},
        ratio=float(ratio_meas),
        bound=float(assembled),
        witness=witness,
        ratio_sharpened=ratio_sharp,
        constant=constant,
        checks=checks,
        hypotheses=dict(hypotheses or {}),
        profile=profile,
        members=_members(names, base["phi_in"], base["phi_out"]),
        structural_pass=structural,
        calibrated_pass=calibrated,
        notes=tuple(notes),
        runtime_s=time.perf_counter() - t0,
        sharpening_work=work,
        pruning_work=pruning,
    )


# ---------------------------------------------------------------------------
# direct (plain norm) verification


def verify_direct(space: QuasimetricSpace, family: FunctionFamily, apply_op,
                  out_norm, in_norm, constant, *, inequality, params,
                  hypotheses=None, sharpen=True, explicit_constant=False,
                  consts_supplied=False, extra_checks=None,
                  notes=()) -> CertReport:
    """Certify a plain-norm operator bound out_norm(T f) <= C in_norm(f).

    out_norm and in_norm map an (n, m) member matrix to per-member norms.
    The measured ratio is compared with constant.numeric; the comparison is
    enforced structurally only when the formula is fully explicit, otherwise
    the implied free factor is reported.
    """
    t0 = time.perf_counter()
    F = np.ascontiguousarray(family.values, dtype=float)
    out_vals = _apply(apply_op, F)
    names = list(family.names)
    inn = np.asarray(in_norm(F), dtype=float)
    out = np.asarray(out_norm(out_vals), dtype=float)
    ratio_raw, witness = empirical_ratio(out, inn, names)

    col, col_out, ratio_sharp = _sharpen(
        sharpen, _ratio_evaluator(apply_op, in_norm, out_norm), apply_op, F,
        names, ratio_raw, witness)
    if ratio_sharp is not None:
        inn = np.append(inn, in_norm(col))
        out = np.append(out, out_norm(col_out))

    ratio_meas, witness = empirical_ratio(out, inn, names)
    bound_val = float(constant.numeric)
    finite_bound = math.isfinite(bound_val) and bound_val > 0
    within = bool(finite_bound and ratio_meas <= bound_val * (1.0 + 1e-9))
    implied_free = (float(ratio_meas / bound_val) if finite_bound else None)

    checks = {"within_formula": within, "bound_finite": finite_bound,
              "implied_free": implied_free, **(extra_checks or {})}
    structural = bool(finite_bound and _builder_ok(checks)
                      and (within or not explicit_constant))
    calibrated = within if consts_supplied else None

    return CertReport(
        inequality=inequality,
        space_id=space.space_id(),
        space_name=space.name,
        params=dict(params),
        family={"spec": family.spec, "seed": family.seed,
                "size": len(names), "sharpened": ratio_sharp is not None},
        ratio=float(ratio_meas),
        bound=bound_val,
        witness=witness,
        ratio_sharpened=ratio_sharp,
        constant={"kind": constant.kind, "numeric": bound_val,
                  "expression": constant.expression,
                  "symbols": dict(constant.symbols),
                  "calibrated": consts_supplied},
        checks=checks,
        hypotheses=dict(hypotheses or {}),
        members=_members(names, inn, out),
        structural_pass=structural,
        calibrated_pass=calibrated,
        notes=tuple(notes),
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# pointwise and weak-type verification


def verify_hedberg(space: QuasimetricSpace, f, p: float, lam: float,
                   alpha: float, *, consts=None) -> CertReport:
    """Pointwise domination of the line-kernel potential.

    Checks |K f(x)| <= A (Mtilde f)(x)^(1-t) norm(f)^t at every point with
    t = p alpha / (1 - lam), A the explicit constant built from the sharp
    growth constant of the space, and norm the modified Morrey norm at
    dilation N_0.
    """
    t0 = time.perf_counter()
    e_main, e_norm = hedberg_exponents(p, lam, alpha)
    N0 = dilation_constants(space)[0]
    b = sharp_growth_constant(space)
    cv = theoretical_constant("hedberg", p=p, lam=lam, alpha=alpha, b=b,
                              N0=N0, consts=consts)
    F = as_matrix(f, space)
    if F.shape[1] != 1:
        raise CertifyError("verify_hedberg takes a single function")
    col = F[:, 0]
    lhs = np.abs(np.asarray(potential(col, space, "k-alpha", alpha),
                            dtype=float))
    mt = np.asarray(modified_maximal(col, space, N0), dtype=float)
    variant = MorreyVariant(kind="modified", dilation=N0, radius_cap="none")
    fn = float(morrey_norm(col, space, p, lam, variant))
    rhs = cv.numeric * mt ** e_main * fn ** e_norm
    if fn == 0.0:
        ratio = 0.0 if float(lhs.max(initial=0.0)) == 0.0 else math.inf
        worst_idx = 0
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0),
                            np.where(lhs > 0, np.inf, 0.0))
        worst_idx = int(np.argmax(quot))
        ratio = float(quot[worst_idx])
    passed = ratio <= 1.0 + 1e-12
    name = getattr(f, "name", "f")
    return CertReport(
        inequality="hedberg",
        space_id=space.space_id(),
        space_name=space.name,
        params={"p": p, "lam": lam, "alpha": alpha,
                "exponents": [e_main, e_norm], "N_0": N0, "b": b},
        family={"spec": "single", "seed": None, "size": 1},
        ratio=float(ratio),
        bound=1.0,
        witness=f"{name}@point-{worst_idx}",
        ratio_sharpened=None,
        constant={"kind": cv.kind, "numeric": cv.numeric,
                  "expression": cv.expression, "symbols": dict(cv.symbols),
                  "calibrated": consts is not None},
        checks={"modified_morrey_norm": fn,
                "max_lhs": float(lhs.max(initial=0.0)),
                "pointwise_ok": bool(passed)},
        structural_pass=bool(passed),
        calibrated_pass=None,
        runtime_s=time.perf_counter() - t0,
    )


def _weak_type_constant(space, m_vals, col):
    """Exact sup over t > 0 of t mu{Mtilde f > t} / integral |f|."""
    total = float(np.abs(col) @ space.weights)
    if total == 0.0:
        return 0.0, 0.0
    worst = 0.0
    for v in np.unique(m_vals[m_vals > 0]):
        mass = float(space.weights[m_vals >= v].sum())
        worst = max(worst, float(v) * mass)
    return worst / total, worst


def verify_weak_type(space: QuasimetricSpace, f) -> CertReport:
    """Weak (1,1) bound with constant exactly 1 for the modified maximal
    operator, plus the sup bound max Mtilde f <= max |f|.

    The supremum of t mu{Mtilde f > t} is computed exactly from the level
    sets, so the measured constant is the true one, not a grid sample.
    """
    t0 = time.perf_counter()
    N0 = dilation_constants(space)[0]
    F = as_matrix(f, space)
    if F.shape[1] != 1:
        raise CertifyError("verify_weak_type takes a single function")
    col = F[:, 0]
    m_vals = np.asarray(modified_maximal(col, space, N0), dtype=float)
    weak_const, worst_mass = _weak_type_constant(space, m_vals, col)
    sup_in = float(np.abs(col).max(initial=0.0))
    sup_out = float(m_vals.max(initial=0.0))
    linf_ok = sup_out <= sup_in * (1.0 + 1e-12)
    lower_ok = bool(np.all(m_vals >= np.abs(col) * (1.0 - 1e-12)))
    passed = weak_const <= 1.0 + 1e-12 and linf_ok and lower_ok
    name = getattr(f, "name", "f")
    return CertReport(
        inequality="weak-1-1",
        space_id=space.space_id(),
        space_name=space.name,
        params={"N_0": N0},
        family={"spec": "single", "seed": None, "size": 1},
        ratio=float(weak_const),
        bound=1.0,
        witness=str(name),
        ratio_sharpened=None,
        constant={"kind": "weak_1_1", "numeric": 1.0,
                  "expression": "1", "symbols": {}},
        checks={"worst_level_mass": worst_mass,
                "sup_ratio": (sup_out / sup_in if sup_in > 0 else 0.0),
                "linf_ok": bool(linf_ok),
                "pointwise_lower_ok": lower_ok},
        structural_pass=bool(passed),
        calibrated_pass=None,
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# hypothesis gates


def _doubling_hypotheses(space):
    C_d = doubling_constant(space)
    fit = ahlfors_fit(space)
    if fit.upper_fails_at_zero or not fit.fitted:
        raise CertifyError(
            f"space {space.name!r} fails the volume envelope hypothesis "
            f"on window {list(fit.window)}")
    return {
        "doubling_C_d": float(C_d),
        "ahlfors": {
            "alpha_lower": fit.alpha_lower, "c_low": fit.c_low,
            "beta_upper": fit.beta_upper, "c_up": fit.c_up,
            "window": list(fit.window),
        },
    }


def _growth_hypotheses(space):
    C_t, C_s = quasimetric_constants(space)
    N0, abar = dilation_constants(space)
    return {
        "C_t": float(C_t),
        "C_s": float(C_s),
        "N_0": float(N0),
        "a_bar": float(abar),
        "b_sharp": float(sharp_growth_constant(space)),
    }


def _kernel_hypotheses(space, kernel, separation):
    report = validate_cz_kernel(space, kernel, separation=separation)
    # two points have no triple of distinct points at any separation
    if space.n >= 3 and report["triples"] == 0:
        raise CertifyError(
            f"no triple of distinct points is separated at {separation:g}, so the "
            "kernel smoothness is not checked; lower the separation")
    if report["dini_divergence_suspected"]:
        raise CertifyError(
            "kernel smoothness modulus looks non-integrable at small scale "
            f"(log-log slope {report['omega_small_slope']:.3g}); "
            "the smoothness hypothesis fails")
    keep = ("C_sz", "separation", "omega_small_slope", "dini_integral",
            "l2_norm")
    return {"kernel": {k: report[k] for k in keep}}


# ---------------------------------------------------------------------------
# theorem registry


# the type of every certificate parameter: each is a flag of certify run and
# a key of its --bundle, and a certificate takes the ones it registers
PARAM_TYPES = {"p": float, "lam": float, "alpha": float, "gamma": float,
               "q": float, "phi": str, "psi": str, "A": str, "theta1": float,
               "theta2": float, "delta": float, "sigma": float, "grid_count": int,
               "separation": float}

# canonical id -> (builder, the defaults of the parameters it reads)
_THEOREMS = {}


def _register(tid, **defaults):
    """Register a certificate builder under ``tid``, with the parameters it
    reads and their defaults; a default of None is derived by the builder
    from the other parameters."""
    def deco(fn):
        _THEOREMS[tid] = (fn, defaults)
        return fn
    return deco


def normalize_theorem_id(token: str) -> str:
    """Map loose spellings like lemma5.2 or THM 4.4 to the canonical id."""
    t = str(token).strip().lower().replace("_", "-").replace(" ", "-")
    m = re.fullmatch(r"(thm|theorem|prop|proposition|lem|lemma)-?\.?(\d+(?:\.\d+)?)", t)
    if not m:
        raise CertifyError(f"cannot parse inequality id {token!r}")
    kind = {"thm": "thm", "theorem": "thm", "prop": "prop",
            "proposition": "prop", "lem": "lemma", "lemma": "lemma"}[m.group(1)]
    canon = f"{kind}-{m.group(2)}"
    if canon not in _THEOREMS:
        known = ", ".join(sorted(_THEOREMS))
        raise CertifyError(f"unknown inequality {canon!r}; known ids: {known}")
    return canon


def known_theorems() -> tuple:
    return tuple(sorted(_THEOREMS))


def theorem_parameters(theorem) -> dict:
    """The parameters a certificate reads and their defaults."""
    return dict(_THEOREMS[normalize_theorem_id(theorem)][1])


def param_value(key, value):
    """``value`` as the certificate parameter ``key``: a string for a scale
    spec, else a number (not a string) converted to the parameter's type."""
    kind = PARAM_TYPES[key]
    try:
        if isinstance(value, str) == (kind is str):
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise CertifyError(f"{key!r} must be a {'string' if kind is str else 'number'}, "
                       f"got {value!r}")


def certify_boundedness(theorem, space: QuasimetricSpace, *, family_spec=None,
                        seed=None, params=None, consts=None, sharpen=True,
                        refinement_levels=1) -> CertReport:
    """Run the registered certificate for one inequality id on one space.

    ``params`` sets some of the parameters the certificate reads
    (theorem_parameters), and the others keep their defaults; a key it
    does not read is refused, so no setting is dropped silently.
    """
    canon = normalize_theorem_id(theorem)
    builder, defaults = _THEOREMS[canon]
    params = dict(params or {})
    unread = sorted(set(params) - set(defaults))
    if unread:
        raise CertifyError(f"{canon} does not read {', '.join(unread)}; its "
                           f"parameters are {', '.join(defaults)}")
    resolved = {**defaults, **{k: param_value(k, v) for k, v in params.items()}}
    return builder(space, family_spec=family_spec, seed=seed, params=resolved,
                   consts=consts, sharpen=sharpen,
                   refinement_levels=refinement_levels)


def _family(space, family_spec, seed):
    return generate_family(space, family_spec or "mixed", seed)


def _direct(space, apply_op, out_norm, in_norm, cv, *, family_spec, seed,
            consts, sharpen, refinement_levels, **report):
    """verify_direct on the requested family; a plain bound has no shift
    grid, so refinement_levels goes unread."""
    return verify_direct(space, _family(space, family_spec, seed), apply_op,
                         out_norm, in_norm, cv, sharpen=sharpen,
                         consts_supplied=consts is not None, **report)


def _grand_reduction(space, apply_op, pin, pout, sigma, per_eps, *,
                     family_spec, seed, pairing=None, builder_checks=None,
                     **engine):
    """The reduction lemma behind the six grand certificates.

    Draws the family and applies the operator to it once; the builder
    checks, builder_checks(pin, pout, sigma, pairing, per_eps, family,
    out_values), and verify_reduction (with the ``engine`` keywords) share
    that application.  The profiles the builder checks evaluate count in
    the report's pruning work with the engine's own.
    """
    fam = _family(space, family_spec, seed)
    out_values = _apply(apply_op, fam.values)
    with pruning_work() as checks_work:
        checks = (builder_checks(pin, pout, sigma, pairing, per_eps, fam,
                                 out_values)
                  if builder_checks else {})
    report = verify_reduction(space, fam, apply_op, pin, pout, sigma,
                              pairing=pairing, per_eps_constant=per_eps,
                              out_values=out_values, extra_checks=checks,
                              **engine)
    for key, value in checks_work.items():
        report.pruning_work[key] += value
    return report


# the parameters of an identity-pairing grand certificate but p; psi
# defaults to phi
_IDENTITY = {"lam": 0.3, "phi": "pow:1", "psi": None, "A": "lin:1",
             "sigma": 0.05, "grid_count": 64}


def _identity_pairing(params):
    """The input (phi) and output (psi) grand parameters of an
    identity-pairing grand certificate."""
    psi = params["phi"] if params["psi"] is None else params["psi"]
    variant = MorreyVariant()
    return tuple(make_grand_params(params["p"], params["lam"], spec,
                                   params["A"], variant, params["grid_count"])
                 for spec in (params["phi"], psi))


@_register("thm-3.6", p=2.0, **_IDENTITY)
def _cert_grand_maximal(space, *, params, consts, **run):
    """Grand bound for the maximal operator, identity pairing, same shift."""
    p, lam = params["p"], params["lam"]
    hyp = _doubling_hypotheses(space)
    pin, pout = _identity_pairing(params)
    C_d = hyp["doubling_C_d"]

    def per_eps(e, h, A_e):
        return theoretical_constant("maximal", p=p, lam=lam, C_d=C_d,
                                    eps=h, A_eps=A_e,
                                    consts=consts)

    return _grand_reduction(
        space, lambda V: maximal(V, space), pin, pout, params["sigma"], per_eps,
        consts=consts, inequality="thm-3.6",
        hypotheses=hyp, extra_params={"operator": "maximal"},
        notes=("identity pairing; the covering factor c0 stays free",), **run)


@_register("prop-3.9", p=1.7, lam=0.3, separation=2.0)
def _cert_plain_cz(space, *, params, consts, **run):
    """Plain Morrey bound for the singular kernel operator."""
    p, lam, separation = params["p"], params["lam"], params["separation"]
    hyp = _doubling_hypotheses(space)
    kernel = hilbert_kernel(space)
    hyp.update(_kernel_hypotheses(space, kernel, separation))
    cv = theoretical_constant("cz", p=p, lam=lam, consts=consts)
    variant = MorreyVariant()
    return _direct(
        space, lambda V: cz_apply(V, space, kernel),
        lambda V: morrey_norm(V, space, p, lam, variant),
        lambda V: morrey_norm(V, space, p, lam, variant),
        cv, inequality="prop-3.9",
        params={"p": p, "lam": lam, "kernel": kernel.name,
                "separation": separation}, hypotheses=hyp, consts=consts,
        notes=("kernel-shape factor c stays free; the structural run "
               "reports the implied value",), **run)


@_register("thm-3.10", p=1.7, **_IDENTITY, separation=2.0)
def _cert_grand_cz(space, *, params, consts, **run):
    """Grand bound for the singular kernel operator, identity pairing."""
    p, lam, sigma = params["p"], params["lam"], params["sigma"]
    separation = params["separation"]
    if p > 2.0 and sigma >= p - 2.0:
        raise CertifyError(
            f"for p > 2 the pivot must satisfy sigma < p - 2 = {p - 2:g}, "
            f"got {sigma:g}")
    hyp = _doubling_hypotheses(space)
    kernel = hilbert_kernel(space)
    hyp.update(_kernel_hypotheses(space, kernel, separation))
    pin, pout = _identity_pairing(params)

    def per_eps(e, h, A_e):
        return theoretical_constant("cz", p=p, lam=lam, eps=h,
                                    A_eps=A_e, consts=consts)

    return _grand_reduction(
        space, lambda V: cz_apply(V, space, kernel), pin, pout, sigma, per_eps,
        consts=consts, inequality="thm-3.10",
        hypotheses=hyp,
        extra_params={"operator": "cz", "kernel": kernel.name,
                      "separation": separation},
        notes=("identity pairing; branch p <= 2 needs sigma < p - 1, "
               "branch p > 2 needs sigma < p - 2",), **run)


def _sobolev_q(params, gamma):
    """q, the Sobolev exponent unless given; the relation is checked anyway."""
    q = sobolev_exponent(params["p"], params["lam"], params["alpha"], gamma)
    return q if params["q"] is None else params["q"]


@_register("prop-4.2", p=2.0, lam=0.5, alpha=0.125, gamma=1.0, q=None)
def _cert_plain_riesz(space, *, params, consts, **run):
    """Plain radius-denominator bound for the distance-kernel potential."""
    p, lam, alpha, gamma = (params[k] for k in ("p", "lam", "alpha", "gamma"))
    q = _sobolev_q(params, gamma)
    hyp = _doubling_hypotheses(space)
    variant = MorreyVariant(kind="radius", gamma=gamma)
    cv = theoretical_constant("riesz", p=p, lam=lam, q=q, alpha=alpha,
                              gamma=gamma, consts=consts)
    return _direct(
        space, lambda V: potential(V, space, "gamma-kernel", alpha, gamma),
        lambda V: morrey_norm(V, space, q, lam, variant),
        lambda V: morrey_norm(V, space, p, lam, variant),
        cv, inequality="prop-4.2",
        params={"p": p, "q": q, "lam": lam, "alpha": alpha, "gamma": gamma},
        hypotheses=hyp, consts=consts,
        notes=("radius-power denominators on both sides",), **run)


# the parameters of a grand potential certificate but gamma (thm-4.4 only)
_PASSAGE = {"p": 2.0, "lam": 0.5, "alpha": 0.125, "A": "lin:0.05",
            "theta1": 1.0, "theta2": 2.0, "delta": 0.1, "sigma": 0.05,
            "grid_count": 64}


def _potential_reduction(space, variant_in, variant_out, *, params, consts,
                         mode, kernel_kind, per_eps_kind, inequality, hyp=None,
                         closed_grid=False, gamma=1.0, extra_notes=(), **run):
    """Passage setup of the four grand potential certificates: the paired
    exponents and grand parameters, then _grand_reduction along the setup's
    pairing.  hyp defaults to the doubling hypotheses."""
    hyp = _doubling_hypotheses(space) if hyp is None else hyp
    p, lam, alpha, sigma = (params[k] for k in ("p", "lam", "alpha", "sigma"))
    theta1, theta2, delta = (params[k] for k in ("theta1", "theta2", "delta"))
    setup = make_potential_setup(p, lam, alpha, gamma, params["A"], theta1,
                                 theta2, delta, mode=mode)
    if not setup.admissible:
        raise CertifyError("; ".join(setup.reasons))
    if sigma > setup.delta:
        raise CertifyError(
            f"sigma={sigma:g} must stay within the passage interval "
            f"(0, {setup.delta:g}]")
    q = setup.q
    pin = make_grand_params(p, lam, f"pow:{theta1:g}", setup.A_source,
                            variant_in, params["grid_count"],
                            closed_grid=closed_grid)
    pout = make_grand_params(q, lam, f"pow:{theta2:g}", setup.A_target,
                             variant_out, params["grid_count"],
                             closed_grid=closed_grid)
    b = float(sharp_growth_constant(space))
    N0 = dilation_constants(space)[0]

    def per_eps(e, h, A_e):
        return theoretical_constant(per_eps_kind, p=p, lam=lam, q=q - e,
                                    alpha=alpha, gamma=gamma, eps=h,
                                    A_eps=A_e, b=b, N0=N0,
                                    consts=consts)

    return _grand_reduction(
        space, lambda V: potential(V, space, kernel_kind, alpha, gamma),
        pin, pout, sigma, per_eps, pairing=setup.pair, consts=consts,
        inequality=inequality, hypotheses=hyp,
        extra_params={"operator": kernel_kind, "alpha": alpha,
                      "gamma": gamma, "q": q, "theta1": theta1,
                      "theta2": theta2, "delta": delta,
                      "B_est": setup.B_est, "B_bound": setup.B_bound},
        notes=("paired shifts keep the shifted Sobolev relation exact",
               *extra_notes), **run)


@_register("thm-4.4", **_PASSAGE, gamma=1.0)
def _cert_grand_riesz(space, *, params, **run):
    """Grand radius-denominator bound for the distance-kernel potential."""
    variant = MorreyVariant(kind="radius", gamma=params["gamma"])
    return _potential_reduction(
        space, variant, variant, params=params, mode="thm-4.4",
        kernel_kind="gamma-kernel", per_eps_kind="riesz", inequality="thm-4.4",
        gamma=params["gamma"], **run)


@_register("thm-4.5", **{**_PASSAGE, "theta2": 2.5})
def _cert_grand_riesz_reverse(space, **run):
    """Grand potential bound with the passage prescribed on the input shift."""
    variant = MorreyVariant(kind="radius", gamma=1.0)
    return _potential_reduction(
        space, variant, variant, mode="thm-4.5", kernel_kind="gamma-kernel",
        per_eps_kind="riesz", inequality="thm-4.5",
        extra_notes=("input shift given, output shift transported through "
                     "the inverse passage",), **run)


@_register("prop-4.6", p=2.0, lam=0.5, alpha=0.125, q=None)
def _cert_plain_measure_riesz(space, *, params, consts, **run):
    """Plain Morrey bound for the ball-measure-kernel potential."""
    p, lam, alpha = params["p"], params["lam"], params["alpha"]
    q = _sobolev_q(params, 1.0)
    hyp = _doubling_hypotheses(space)
    variant = MorreyVariant()
    cv = theoretical_constant("riesz_measure", p=p, lam=lam, q=q, alpha=alpha,
                              consts=consts)
    return _direct(
        space, lambda V: potential(V, space, "measure-kernel", alpha),
        lambda V: morrey_norm(V, space, q, lam, variant),
        lambda V: morrey_norm(V, space, p, lam, variant),
        cv, inequality="prop-4.6",
        params={"p": p, "q": q, "lam": lam, "alpha": alpha},
        hypotheses=hyp, consts=consts,
        notes=("free factors b0 and C_alpha stay symbolic",), **run)


@_register("thm-4.7", **_PASSAGE)
def _cert_grand_measure_riesz(space, **run):
    """Grand Morrey bound for the ball-measure-kernel potential."""
    variant = MorreyVariant()
    return _potential_reduction(
        space, variant, variant, mode="thm-4.4", kernel_kind="measure-kernel",
        per_eps_kind="riesz_measure", inequality="thm-4.7", **run)


@_register("lemma-5.1", p=2.0)
def _cert_lp_modified_maximal(space, *, family_spec, seed, params, consts,
                              sharpen, refinement_levels):
    """Lebesgue bound 2 (p')^(1/p) for the enlarged-denominator maximal
    operator, together with the exact weak (1,1) and sup bounds."""
    p = params["p"]
    N0 = dilation_constants(space)[0]
    cv = theoretical_constant("lp_modified_maximal", p=p, consts=consts)
    fam = _family(space, family_spec, seed)
    m_all = np.asarray(modified_maximal(fam.values, space, N0), dtype=float)
    weak_worst = 0.0
    sup_worst = 0.0
    for k in range(fam.size):
        col = fam.values[:, k]
        wconst, _ = _weak_type_constant(space, m_all[:, k], col)
        weak_worst = max(weak_worst, wconst)
        top = float(np.abs(col).max())
        if top > 0:
            sup_worst = max(sup_worst, float(m_all[:, k].max()) / top)
    extra = {
        "weak_1_1_worst": weak_worst,
        "weak_1_1_ok": bool(weak_worst <= 1.0 + 1e-12),
        "sup_bound_worst": sup_worst,
        "sup_bound_ok": bool(sup_worst <= 1.0 + 1e-12),
    }
    return verify_direct(
        space, fam, lambda V: modified_maximal(V, space, N0),
        lambda V: lebesgue_norm(V, space, p),
        lambda V: lebesgue_norm(V, space, p),
        cv, inequality="lemma-5.1",
        params={"p": p, "N_0": N0},
        hypotheses=_growth_hypotheses(space), sharpen=sharpen,
        explicit_constant=True, consts_supplied=consts is not None,
        extra_checks=extra,
        notes=("interpolation endpoint constants 1 are checked exactly",))


@_register("lemma-5.2", p=2.0, lam=0.25)
def _cert_modified_morrey_maximal(space, *, params, consts, **run):
    """Modified Morrey bound 1 + 2 (p')^(1/p) for the enlarged-denominator
    maximal operator, input dilation N_0 and output dilation N_0 a_bar."""
    p, lam = params["p"], params["lam"]
    hyp = _growth_hypotheses(space)
    N0, abar = hyp["N_0"], hyp["a_bar"]
    var_in = MorreyVariant(kind="modified", dilation=N0, radius_cap="none")
    var_out = MorreyVariant(kind="modified", dilation=N0 * abar,
                            radius_cap="none")
    cv = theoretical_constant("morrey_modified_maximal", p=p, consts=consts)
    return _direct(
        space, lambda V: modified_maximal(V, space, N0),
        lambda V: morrey_norm(V, space, p, lam, var_out),
        lambda V: morrey_norm(V, space, p, lam, var_in),
        cv, inequality="lemma-5.2",
        params={"p": p, "lam": lam, "N_0": N0, "a_bar": abar},
        hypotheses=hyp, explicit_constant=True, consts=consts,
        notes=("uncapped radius range on both sides",), **run)


@_register("thm-5.4", **_PASSAGE)
def _cert_grand_line_potential(space, **run):
    """Grand modified-Morrey bound for the line-kernel potential.

    The per-shift constant is fully explicit, but it certifies the
    uncapped plain norms, so the builder checks it there; the capped grand
    assembly is certified by the measured per-shift ratios.
    """
    hyp = _growth_hypotheses(space)
    N0, abar = hyp["N_0"], hyp["a_bar"]
    b = hyp["b_sharp"]
    var_in = MorreyVariant(kind="modified", dilation=N0,
                           radius_cap="diameter")
    var_out = MorreyVariant(kind="modified", dilation=N0 * abar,
                            radius_cap="diameter")
    var_in_unc = MorreyVariant(kind="modified", dilation=N0,
                               radius_cap="none")
    var_out_unc = MorreyVariant(kind="modified", dilation=N0 * abar,
                                radius_cap="none")

    def uncapped_checks(pin, pout, sigma, pairing, per_eps, fam, out_vals):
        nodes = grid_for(pout).nodes
        lo = np.unique(np.append(nodes[nodes <= sigma], sigma))
        eta = np.asarray(pairing(lo), dtype=float)
        in_unc = seminorm_profile(fam.values, space, replace(
            shift_schedule(pin, eta), variant=var_in_unc))
        out_unc = seminorm_profile(out_vals, space, replace(
            shift_schedule(pout, lo), variant=var_out_unc))
        c_thm = np.asarray([per_eps(e, h, a).numeric for e, h, a in zip(
            lo.tolist(), eta.tolist(), pout.A(lo).tolist())])
        c_meas = _shift_ratios(out_unc, in_unc)
        use = c_meas > -np.inf
        frac = c_meas[use] / c_thm[use]
        # fmax skips a NaN fraction in the worst value; the gate still fails
        return {"per_shift_explicit_worst": float(np.fmax.reduce(frac, initial=0.0)),
                "per_shift_explicit_ok": bool(np.all(frac <= 1.0 + 1e-9))}

    return _potential_reduction(
        space, var_in, var_out, mode="thm-4.4", kernel_kind="k-alpha",
        per_eps_kind="k_alpha", inequality="thm-5.4", hyp={**hyp, "b": b},
        closed_grid=True, builder_checks=uncapped_checks,
        extra_notes=("explicit per-shift constants checked on the uncapped "
                     "plain norms",), **run)


__all__ = [
    "CertReport",
    "CertifyError",
    "FunctionFamily",
    "certify_boundedness",
    "empirical_ratio",
    "generate_family",
    "known_theorems",
    "normalize_theorem_id",
    "param_value",
    "save_report",
    "sharpen_witness",
    "theorem_parameters",
    "verify_direct",
    "verify_dominance",
    "verify_hedberg",
    "verify_reduction",
    "verify_weak_type",
    "write_index",
]
