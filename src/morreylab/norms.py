"""Norm evaluations on finite quasimetric measure spaces.

Morrey-type quantities are suprema over balls; on a finite space the ball
member set is a step function of the radius, so every supremum here is a max
over the representative ball table of the space.  For the measure and
modified denominators that max equals the supremum over all real radii
exactly; for the radius-power denominator the norm is defined as the
envelope at the representative radii, which is the convention used
consistently by every inequality certified in this package.

Grand norms add a supremum over an exponent shift epsilon.  That supremum is
taken over a fixed master grid of nodes in (0, s_max); all grand quantities
in one computation share the grid, so comparisons between them are exact by
construction and stable under grid refinement.  A grid is evaluated in one
pass over its shift schedule, and every row of a profile keeps the bits of
a node-by-node evaluation (inner_seminorm_matrix).  One helper forms every
exact scaled ball integral (_scaled_integrals): mask rows times the terms
|f|^p w of a block of nodes, one stacked matrix product that keeps the
per-node BLAS call (a matrix-vector product for one column, a matrix
product for several), times den^-lam on the product's own (nodes,
balls, columns) layout.  Two paths take its maximum:

- the full path (_full_max) over every ball;
- the pruned path (_pruned_max) screens the ball integrals of its screened
  columns with float32 products certified within a relative margin delta
  (surrogate_margin): every _COARSE_STRIDE-th node, and the last, over
  every ball, and the nodes between only over the balls that the Lyapunov
  bound below cannot rule out.  It evaluates exactly only the balls that
  can hold a (node, column) maximum, with the terms of the screened
  columns only: per interval between two coarse nodes one gathered
  product (_gathered_max), the union of the interval's candidate rows
  times every node's terms side by side, laid out so that the BLAS keeps
  each node's own product's bits for them.

A profile of m >= 2 columns on a table large against its padding takes
the pruned path with all its columns screened.  appended_profile adds one
column to a known profile without evaluating the others again: the same
path with only that column screened.  The known columns keep the bits of
the wider profile because the BLAS keeps column subsets (the first m
columns of an (m + 1)-column product equal the m-column product) above
its small-matrix path; below it the whole profile is evaluated again.
Both properties, the gathered layout and the column subsets, are pinned
by tests/test_norms.py.

ProfileScreen is the one certified float32 screen of a schedule: the
margin delta, the range and the float32 values of the den factors, and
the Lyapunov bound of every fine row.  The pruned path reads it, and so
do the sharpening trials, which trade the bits for speed where a bound
suffices: it brackets every row of the profile of one column, so a
caller evaluates exactly only the rows that can decide.

A screen reads only the balls of its table that no other ball dominates
(space.undominated: whose members lie in another ball's, at no smaller
den), found once per variant.  A dropped ball never holds a row's
maximum alone, since its dominator's exact scaled integral is no
smaller: with 0/1 masks and terms >= 0 the superset's float64 sum is no
smaller, as rounding is monotone and the BLAS accumulates each element in
an order that does not depend on its row (pinned by tests/test_norms.py),
and so is its den factor wherever the factors den^-lam_eff do not
increase with den, which the screen checks at every row; a schedule that
fails the check keeps the whole table.  So every maximum keeps its bits.
variant_table, the full path and the one-node seminorms read the whole
table.

The Lyapunov bound.  With t = p_eff, the log of integral_B |f|^t w is
convex in t (Hoelder).  So at a fine row i between the coarse rows a and
b, with theta = (t_b - t_i) / (t_b - t_a) and psi = (t_i - t_a) / (t_b -
t_a), every ball's scaled integral X = den^-lam integral_B |f|^t w has
    X_i <= X_a^theta X_b^psi exp(gap_i),
    gap_i = |theta lam_a + psi lam_b - lam_i| max |log den|
(lam_eff need not be affine in t: it is not for transported shifts).
With X_a <= (1 + delta) S_a for the float32 surrogate S_a of row a,
likewise for b, and the exact path's X_i within 1 + eps64 of the real one,
    X_i <= S_a^theta S_b^psi exp(slack_i),
    slack_i = log(1 + delta) + gap_i + eta.
eta (_lyapunov_slack), one per schedule, covers eps64 (the float64 sum of
at most n terms, the powers, the den factor: gamma_n(u) and a few u) and
the rounding of every log, product and sum that forms the bound or a
threshold from it: a few u times the magnitude of each log (at most
log 2^127 for a normal float32 surrogate, plus |log(1 - delta)| for a
lower bound), theta and psi each within 3 u relative, lam_a, lam_b and
lam_i each at most max |lam| and max |log den| within u, and the exp of
a threshold (Higham, section 2.2).  One ordering rule holds for both
screens: an interval whose fine t do not all lie strictly between t_a
and t_b (unordered or tied rows) has no bound.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .scales import (EpsilonGrid, GrandParams, MorreyVariant, ShiftSchedule,
                     build_epsilon_grid, grid_for, shift_schedule)
from .space import QuasimetricSpace, read_json, rep_balls, undominated

__all__ = [
    "NormError",
    "GridFunction",
    "as_matrix",
    "is_batch",
    "lebesgue_norm",
    "morrey_norm",
    "inner_seminorm_matrix",
    "seminorm_profile",
    "appended_profile",
    "pruning_work",
    "grand_rows",
    "surrogate_margin",
    "ProfileScreen",
    "grand_profile",
    "phi_functional",
    "grand_morrey_norm",
    "grand_lebesgue_norm",
    "variant_table",
    "k_phi",
    "dominance_report",
]


class NormError(ValueError):
    """Raised on invalid norm parameters or mismatched shapes."""


# ---------------------------------------------------------------------------
# function containers


@dataclass(frozen=True)
class GridFunction:
    """Named function given by one value per point of a space."""

    name: str
    values: np.ndarray

    @staticmethod
    def from_values(name: str, values, space: QuasimetricSpace) -> GridFunction:
        v = np.asarray(values, dtype=float)
        if v.shape != (space.n,):
            raise NormError(f"function needs {space.n} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NormError("function values must be finite")
        return GridFunction(name=name, values=v)

    def save(self, path, space: QuasimetricSpace) -> None:
        body = {
            "format": "grid-function",
            "version": 1,
            "name": self.name,
            "space_id": space.space_id(),
            "values": self.values.tolist(),
        }
        Path(path).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")

    @staticmethod
    def load(path, space: QuasimetricSpace) -> GridFunction:
        data = read_json(path, NormError)
        if not isinstance(data, dict) or data.get("format") != "grid-function":
            raise NormError(f"{path}: not a grid-function file")
        if "values" not in data:
            raise NormError(f"{path}: grid-function file has no 'values' entry")
        if data.get("space_id") not in (None, space.space_id()):
            raise NormError(
                f"{path}: function was sampled on space {data['space_id']}, "
                f"not {space.space_id()}")
        try:
            return GridFunction.from_values(data.get("name", "f"), data["values"], space)
        except (TypeError, ValueError) as exc:
            raise NormError(f"{path}: 'values' entry: {exc}") from None


def as_matrix(f, space: QuasimetricSpace) -> np.ndarray:
    """Coerce a function, array, scalar, or batch into an (n, m) value matrix."""
    if isinstance(f, GridFunction):
        v = f.values
    else:
        v = np.asarray(f, dtype=float)
    if v.ndim == 0:
        v = np.full(space.n, float(v))
    if v.ndim == 1:
        if v.shape[0] != space.n:
            raise NormError(f"expected {space.n} values, got {v.shape[0]}")
        return v[:, None]
    if v.ndim == 2:
        if v.shape[0] != space.n:
            raise NormError(f"expected first axis {space.n}, got {v.shape[0]}")
        return v
    raise NormError(f"cannot interpret array of ndim {v.ndim} as functions")


def is_batch(f) -> bool:
    """Whether f is a batch of functions, one per column: any 2-D array-like,
    ndarray or nested list.  A batch keeps every column of a result; a
    single function (a GridFunction, 1-D values or a scalar) its one."""
    return np.ndim(f) == 2


def _squeeze(values: np.ndarray, f) -> float | np.ndarray:
    return values if is_batch(f) else float(values[0])


# ---------------------------------------------------------------------------
# plain norms


def lebesgue_norm(f, space: QuasimetricSpace, p: float):
    """(integral |f|^p dmu)^(1/p) for finite p >= 1."""
    if not (np.isfinite(p) and p >= 1):
        raise NormError(f"Lebesgue norm needs a finite p >= 1, got {p:g}")
    F = as_matrix(f, space)
    vals = (np.abs(F) ** p * space.weights[:, None]).sum(axis=0) ** (1.0 / p)
    return _squeeze(vals, f)


def variant_table(space: QuasimetricSpace, variant: MorreyVariant):
    """Representative ball table and denominator array for a norm variant."""
    cap = variant.resolved_cap()
    dil = variant.dilation if variant.kind == "modified" else 1.0
    table = rep_balls(space, dilation=dil, radius_cap=cap, dedupe=True)
    key = ("variant_den", variant.kind, variant.gamma, dil, cap)
    den = space._cache.get(key)
    if den is None:
        if variant.kind == "measure":
            den = table.measures
        elif variant.kind == "radius":
            den = table.radii ** variant.gamma
        else:
            den = table.dilated_measures
        space._cache[key] = den
    return table, den


def _undominated_table(space: QuasimetricSpace, variant: MorreyVariant) -> tuple:
    """The balls of variant_table that no other ball dominates
    (space.undominated), their dens, and the sorted distinct dens of the
    whole table (None where no ball is dropped), built once per variant.
    Where den is the ball's own measure the scan is skipped: under
    positive weights a ball there dominates at most one of equal members
    whose measure rounded higher."""
    key = ("undominated", variant)
    cached = space._cache.get(key)
    if cached is None:
        table, den = variant_table(space, variant)
        cached = (table, den, None)
        if not np.array_equal(den, table.measures):
            keep = undominated(space, table, den)
            if keep.size < table.size:
                cached = (table.take(keep), den[keep], np.unique(den))
        space._cache[key] = cached
    return cached


def inner_seminorm_matrix(F: np.ndarray, space: QuasimetricSpace, p_eff: float,
                          lam_eff: float, variant: MorreyVariant) -> np.ndarray:
    """max over balls of [den^(-lam) integral_B |f|^p]^(1/p), per column of F:
    the one-node case of _full_max."""
    if p_eff < 1:
        raise NormError(f"shifted exponent fell below 1: {p_eff:g}")
    table, den = variant_table(space, variant)
    if table.size == 0:
        return np.zeros(F.shape[1])
    pw = np.abs(F) ** p_eff * space.weights[:, None]
    return _full_max(table.masks_f, pw[None], den, np.array([lam_eff]))[0] ** (1.0 / p_eff)


def morrey_norm(f, space: QuasimetricSpace, p: float, lam: float,
                variant: MorreyVariant | None = None):
    """sup over representative balls of [den^(-lam) integral_B |f|^p]^(1/p)."""
    if not (np.isfinite(p) and p >= 1):
        raise NormError(f"Morrey norm needs a finite p >= 1, got {p:g}")
    if not 0 <= lam < 1:
        raise NormError(f"Morrey norm needs 0 <= lam < 1, got {lam:g}")
    if variant is None:
        variant = MorreyVariant()
    F = as_matrix(f, space)
    return _squeeze(inner_seminorm_matrix(F, space, p, lam, variant), f)


# ---------------------------------------------------------------------------
# grand norms


# elements of one block's (nodes, balls, columns) integral stack
_BLOCK_ELEMENTS = 1 << 15
# the pruned path's exact products (_gathered_max): every row's terms side by
# side, zero-padded to a width that is a multiple of _ALIGN, over at least
# max(2, ceil(_EXACT_MADDS / (n width))) ball rows.  Each column then keeps
# the bits of its row's own product over every ball.  Measured with OpenBLAS
# 0.3.31 (SkylakeX core, 2 threads), numpy 2.4.6, on the tables of
# circle-64, circle-65, grid-64, circle-128 and snowflake-128, m from 5 to
# 64, 1 to 16 rows side by side and 2 to 400 ball rows: every column kept
# its bits.  Unaligned widths broke one row's columns at every ball count
# (7 rows x 38 columns, width 266), and random 0/1 products below 2^20
# multiply-adds broke at n = 512 and 700 on the small-matrix path, which
# does not split K; at 2^20 or more they held at n = 100 to 700.
_ALIGN = 8
_EXACT_MADDS = 1 << 20
# a profile of m >= 2 columns takes the pruned path when its table holds at
# least _PRUNE_RATIO times pad = ceil(_EXACT_MADDS / (n m)) balls, so that
# every row's own product over every ball does at least _EXACT_MADDS
# multiply-adds; every _COARSE_STRIDE-th row of a schedule, and its last, is
# screened over every ball, the rows between only over the balls that
# Lyapunov's inequality keeps (_interval_balls).
# The gate is the larger of the two paths' crossover and that floor, B >=
# pad: seminorm_profile at 379 nodes (p = 2, lam = 0.3, pow:1, lin:1) on
# random columns, best of 5, OpenBLAS 0.3.31 SkylakeX with 2 threads;
# B/pad -> pruned time / full time, every pruned profile equal to the
# full one:
#   circle-64  1.00 -> 0.24, 2.00 -> 0.23, 3.00 -> 0.23, 4.00 -> 0.25,
#              4.86 -> 0.22, 8.00 -> 0.28
#   circle-65  1.03 -> 0.26, 2.06 -> 0.25, 3.09 -> 0.25, 4.12 -> 0.26,
#              5.02 -> 0.23
#   grid-64    1.09 -> 0.36, 2.19 -> 0.35, 2.66 -> 0.30, 4.37 -> 0.34
# The pruned path takes at most 0.36 of the full path's time from B/pad = 1
# on (at most 0.77 on columns of the certificate families), so the floor
# sets the gate.
_PRUNE_RATIO = 1
_COARSE_STRIDE = 16


def seminorm_profile(F: np.ndarray, space: QuasimetricSpace,
                     schedule: ShiftSchedule) -> np.ndarray:
    """Inner seminorms N(eps; f) per schedule node (rows) and column of F.

    Row i equals inner_seminorm_matrix at (p_eff[i], lam_eff[i]) bit for bit.
    On the full path each node's ball integrals are its own slice of one
    stacked product.  A profile of m >= 2 columns on a table of at least
    _PRUNE_RATIO = 1 times its padding pad = ceil(_EXACT_MADDS / (n m))
    takes the pruned path (_pruned_max) with every column screened instead,
    one gathered exact product per interval between coarse rows
    (_gathered_max), which keeps the bits; pruning_work counts its work.
    On circle-64 (2,048 balls) that holds from 8 columns on, on grid-64
    (1,119 balls) from 15, so the families of their reduction certificates
    (38 and 39 columns) prune; one column never does.
    """
    return _trailing_profile(F, space, schedule, F.shape[1])


def appended_profile(prof: np.ndarray, F: np.ndarray, space: QuasimetricSpace,
                     schedule: ShiftSchedule) -> np.ndarray:
    """seminorm_profile(F, space, schedule) bit for bit, given ``prof``, the
    profile of F[:, :-1] at the same schedule: the last column's rows
    appended to ``prof``.

    The first m - 1 columns of an m-column product equal the (m - 1)-column
    product wherever the BLAS keeps column subsets, which
    tests/test_norms.py pins for products of at least _EXACT_MADDS
    multiply-adds.  Below that (a matrix-vector product for one column,
    OpenBLAS's small-matrix path for a small table) the bits can differ,
    so there the whole profile is evaluated again, which costs little.

    On any other table the last column takes the pruned path (_pruned_max)
    with only itself screened and only its terms powered; its exact rows
    come from gathered products of that column at every node of an
    interval side by side, which keep the bits of the m-column product's
    last column by the gathered-product pin.  pruning_work counts its
    blocks.
    """
    table, _ = variant_table(space, schedule.variant)
    n, m = F.shape
    if m < 3 or table.size * n * (m - 1) < _EXACT_MADDS:
        return seminorm_profile(F, space, schedule)
    return np.column_stack([prof, _trailing_profile(F, space, schedule, 1)])


def _trailing_profile(F: np.ndarray, space: QuasimetricSpace,
                      schedule: ShiftSchedule, screened: int) -> np.ndarray:
    """The last ``screened`` columns of seminorm_profile(F, space, schedule):
    pruned (_pruned_max) under seminorm_profile's rule when all m columns
    are screened, always when fewer are, unless the margin of the
    schedule's ProfileScreen is 1 or more.

    A pruned block runs from one coarse row to the next: it evaluates its
    rows and screens the next coarse row with them, whose surrogates the
    next block reuses.  It powers only the screened columns; a block that
    fails the range checks takes the full path with the terms of all m."""
    p_eff, lam_eff = schedule.p_eff, schedule.lam_eff
    low = p_eff < 1
    if low.any():
        raise NormError(f"shifted exponent fell below 1: {p_eff[low][0]:g}")
    table, den = variant_table(space, schedule.variant)
    k = p_eff.size
    out = np.zeros((k, screened))
    if table.size == 0 or k == 0:
        return out
    n, m = F.shape
    absF = np.abs(F)
    w = space.weights[:, None]
    pad = -(-_EXACT_MADDS // max(1, n * m))
    screen = None
    if screened < m or (m >= 2 and table.size >= _PRUNE_RATIO * pad):
        screen = ProfileScreen(space, schedule)
    # a margin of 1 or more (or NaN) admits every ball
    if screen is None or not screen.delta < 1.0:
        pe = p_eff[:, None, None]
        return _full_max(table.masks_f, absF ** pe * w, den, lam_eff,
                         m - screened) ** (1.0 / pe[:, 0])
    coarse, held = screen._coarse, None
    tail = absF[:, m - screened:]
    # rows a..b-1 of the profile, from coarse row j; the terms of rows a..c-1
    for j, (a, b) in enumerate(zip(coarse, np.append(coarse[1:], k))):
        c = b + 1 if b > a + 1 else b
        pe = p_eff[a:c, None, None]
        top, held = _pruned_max(screen, j, tail ** pe * w, held)
        if top is None:
            top = _full_max(table.masks_f, absF ** pe[:b - a] * w, den, lam_eff[a:b],
                            m - screened)
        out[a:b] = top ** (1.0 / pe[:b - a, 0])
    return out


def _den_scale(den: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The den factors den^-lam of every exact scaled ball integral, (nodes,
    balls) for the dens ``den`` and one lam per node."""
    return den ** -lam[:, None]


def _scaled_integrals(masks_f: np.ndarray, pw: np.ndarray, den: np.ndarray,
                      lam: np.ndarray, first: int = 0) -> np.ndarray:
    """The scaled ball integrals of the mask rows masks_f, whose dens are
    ``den``, at the nodes of the terms pw (nodes, points, columns), on the
    product's own layout (nodes, balls, columns): one stacked product, one
    BLAS call per node, whose columns from ``first`` on take the den
    factors den^-lam, lam per node."""
    scaled = np.matmul(masks_f[None], pw)[:, :, first:]
    scaled *= _den_scale(den, lam)[:, :, None]
    return scaled


def _full_max(masks_f: np.ndarray, pw: np.ndarray, den: np.ndarray,
              lam: np.ndarray, first: int = 0) -> np.ndarray:
    """The largest scaled ball integral over every ball per (node, column)
    of the terms pw (nodes, points, columns), columns from ``first`` on:
    _scaled_integrals per block of nodes."""
    k, _, m = pw.shape
    top = np.empty((k, m - first))
    step = max(1, _BLOCK_ELEMENTS // max(1, masks_f.shape[0] * m))
    for a in range(0, k, step):
        top[a:a + step] = _scaled_integrals(masks_f, pw[a:a + step], den,
                                            lam[a:a + step], first).max(axis=1)
    return top


def _pruned_max(screen: ProfileScreen, j: int, pw: np.ndarray,
                held: np.ndarray | None) -> tuple:
    """The columns of _full_max whose terms are pw, bit for bit, from their
    candidate balls only, for the rows of pw, which start at coarse row j
    of the schedule of ``screen``, but its last when it has more than one:
    that one is coarse row j + 1, which closes the interval.  Returns them
    with its surrogates for the next block, or (None, None) where a float32
    intermediate of the screen could leave the normal range.

    The screen's float32 den factors, times one float32 product of the
    masks with the terms of a row, give a surrogate s of each scaled ball
    integral within its relative margin delta.  So the ball holding the
    exact maximum of a (row, column) pair has s (1 + delta) >= t (1 -
    delta) for every surrogate t of the pair: it is a candidate against the
    largest surrogate of any ball set that holds it.  The first row, and
    the closing one, are screened over every ball (the first's surrogates
    are ``held`` when the previous block screened them).  The rows between
    are screened over the balls that _interval_balls keeps, one float32
    product per ball block, with a running maximum started from the coarse
    candidates of both ends.  A pair whose surrogates are all zero has only
    zero integrals.  _gathered_max evaluates the candidates exactly.
    """
    table, delta = screen.table, screen.delta
    k, n, screened = pw.shape
    rows = max(1, k - 1)
    a = screen._coarse[j]
    pw32 = _f32_terms(pw, *screen._factor_range)
    if pw32 is None:
        _count(range_fallbacks=1)
        return None, None
    masks32 = table.masks32

    def coarse_row(i):
        # the surrogates of row i over every ball, (screened, balls): column
        # maxima and tests then reduce along rows, which numpy does fast
        s = np.matmul(pw32[:, i * screened:(i + 1) * screened].T, masks32.T)
        s *= screen._den_factors(slice(None), a + i)
        return s
    first, coarse = (coarse_row(0), 1) if held is None else (held, 0)
    cand = np.zeros((rows, table.size), dtype=bool)
    cand[0] = _coarse_candidates(first, delta)
    last, kept = None, 0
    if k > 1:
        last = coarse_row(k - 1)
        coarse += 1
        terms = np.ascontiguousarray(pw32[:, screened:rows * screened])
        fine = np.arange(a + 1, a + rows)
        near = np.flatnonzero(cand[0] | _coarse_candidates(last, delta))
        top = _f32_scaled(masks32[near], terms, screen._den_factors(near, fine)).max(
            axis=0, initial=np.float32(0.0))
        balls = _interval_balls(screen, j + 1, first, last, top)
        kept = balls.size
        step = max(1, _SURROGATE_ELEMENTS // top.size)
        block = np.empty((min(step, kept), top.size), dtype=np.float32)
        for b in range(0, kept, step):
            ids = balls[b:b + step]
            s = _f32_scaled(masks32[ids], terms, screen._den_factors(ids, fine), block)
            np.maximum(top, s.max(axis=0), out=top)
            hit, pair = np.divmod(np.flatnonzero(s >= _threshold(top, delta)),
                                  top.size)
            cand[1 + pair // screened, ids[hit]] = True
    out = _gathered_max(table, screen._den, screen.schedule.lam_eff[a:a + rows],
                        pw[:rows], cand)
    _count(pruned_rows=rows, candidate_balls=int(np.count_nonzero(cand)),
           coarse_rows=coarse, interval_balls=kept)
    return out, last


def _gathered_max(table, den: np.ndarray, lam: np.ndarray, pw: np.ndarray,
                  cand: np.ndarray) -> np.ndarray:
    """The largest scaled ball integral per (row, column) of the terms pw
    (rows, points, columns), whose den factors take one lam per row, over
    the union of the candidate balls ``cand`` (rows x balls) and its
    padding: bit for bit those of _full_max where each row's candidates
    hold its maximum balls.  It counts the union's balls times the rows as
    padded balls, and its products' rows times n times width as exact
    multiply-adds.

    One float64 product: the union's mask rows, padded with further balls
    in table order to the floor max(2, ceil(_EXACT_MADDS / (n width))),
    times every row's terms side by side, zero-padded to a width that is a
    multiple of _ALIGN and, on a small table, to one whose floor the table
    holds.  Both keep each column's bits equal to those of its row's own
    product over every ball (pinned by tests/test_norms.py), and the rows
    share one floor.  The union goes through in chunks of at least the
    floor, each product and its mask rows at most about
    _SURROGATE_ELEMENTS elements (or the floor), with a running maximum;
    each product's columns take their row's den factors (_den_scale).
    The mask rows are converted from the bool masks, so a table that only
    this path reads never builds ``masks_f``.
    """
    k, n, m = pw.shape
    reach = -(-_EXACT_MADDS // (n * table.size))
    width = -(-max(k * m, reach) // _ALIGN) * _ALIGN
    floor = max(2, -(-_EXACT_MADDS // (n * width)))
    keep = cand.any(axis=0)
    short = floor - np.count_nonzero(keep)
    if short > 0:
        keep[np.flatnonzero(~keep)[:short]] = True
    union = np.flatnonzero(keep)
    terms = np.zeros((n, width))
    terms[:, :k * m] = pw.transpose(1, 0, 2).reshape(n, k * m)
    parts = max(1, union.size // max(floor, _SURROGATE_ELEMENTS // max(width, n)))
    top = np.full((k, m), -np.inf)
    for ids in np.array_split(union, parts):
        sums = np.matmul(table.masks[ids].astype(float), terms)
        scaled = sums[:, :k * m].reshape(ids.size, k, m)
        scaled *= _den_scale(den[ids], lam).T[:, :, None]
        np.maximum(top, scaled.max(axis=0), out=top)
    _count(padded_balls=union.size * k, exact_madds=union.size * n * width)
    return top


def _coarse_candidates(s: np.ndarray, delta: float) -> np.ndarray:
    """The balls that are candidates for some column's maximum, from the
    surrogates s (columns x balls) over every ball."""
    return (s >= _threshold(s.max(axis=1), delta)[:, None]).any(axis=0)


def _interval_balls(screen: ProfileScreen, end: int, first: np.ndarray,
                    last: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The balls that can hold a maximum at a fine row of the interval that
    coarse row ``end`` of ``screen`` closes, from the surrogates S_a =
    ``first`` and S_b = ``last`` of its coarse rows over every ball
    (columns x balls), and ``top``, the largest surrogates at the fine rows
    over some balls (rows x columns, flat).

    The maximum at (i, c) is at least L_i,c = (1 - delta) top_i,c, and
    every ball has X_i <= S_a^theta S_b^psi e^slack_i (module docstring).
    With log rho_c = min_i (log L_i,c - theta log M_a,c - psi log M_b,c -
    slack_i), M the column maxima of S_a and S_b, a ball with S_a < rho_c
    M_a,c and S_b < rho_c M_b,c has X_i < L_i,c at every fine row, so only
    the balls with S_a >= rho_c M_a,c or S_b >= rho_c M_b,c for some column
    are kept; the thresholds are rounded down to float32.  eta, in slack,
    covers the rounding of these logs.  A column with a zero coarse maximum
    is zero at every t and keeps no ball.  An interval without a bound
    keeps every ball.
    """
    i = screen._end == end
    theta, psi, slack = screen._theta[i, None], screen._psi[i, None], screen._slack[i, None]
    if np.isnan(slack).any():
        return np.arange(first.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(first.max(axis=1).astype(float))
        log_b = np.log(last.max(axis=1).astype(float))
        log_low = (np.log1p(-screen.delta)
                   + np.log(top.astype(float).reshape(theta.size, -1)))
        rho = (log_low - theta * log_a - psi * log_b - slack).min(axis=0)
        zero = ~np.isfinite(log_a + log_b)
        keep = np.zeros(first.shape[1], dtype=bool)
        for s, log_m in ((first, log_a), (last, log_b)):
            thr = _f32_down(np.exp(rho + log_m))
            thr[zero] = np.inf
            keep |= (s >= thr[:, None]).any(axis=0)
    return np.flatnonzero(keep)


def _lyapunov_slack(theta, psi, lam, rows, log_den, n, delta) -> tuple:
    """gap_i of the fine rows i with theta and psi between the rows a and b,
    rows = (a, b, i) of lam = lam_eff, and one eta for the schedule:
    _SURROGATE_ULPS float64 ulps times n + 2, the largest |lam log den| and
    gap, and the magnitudes of the logs that enter log rho_c of
    _interval_balls or the log of ProfileScreen's bound: those of normal
    float32 surrogates, and of (1 - delta) times them."""
    a, b, i = rows
    gap = np.abs(theta * lam[a] + psi * lam[b] - lam[i]) * log_den
    logs = 5.0 * np.log(_F32_HUGE) - np.log1p(-delta)
    eta = _SURROGATE_ULPS * np.finfo(float).eps / 2 * (
        n + 2.0 + np.abs(lam).max() * log_den + gap.max(initial=0.0) + logs)
    return gap, eta


def _f32_down(bound: np.ndarray) -> np.ndarray:
    """Nonnegative float64 values rounded down to float32."""
    thr = bound.astype(np.float32)
    up = thr > bound
    thr[up] = np.nextafter(thr[up], np.float32(0.0))
    return thr


def _threshold(top: np.ndarray, delta: float) -> np.ndarray:
    """The float32 surrogate a ball needs to be a candidate against the
    largest surrogates ``top``: top (1 - delta) / (1 + delta), rounded down
    to float32, and infinite where top is zero (only zero integrals)."""
    thr = _f32_down(top.astype(float) * ((1.0 - delta) / (1.0 + delta)))
    thr[top == 0.0] = np.inf
    return thr


# the counters of the pruned path, while a pruning_work block is open
_PRUNING: ContextVar[dict | None] = ContextVar("pruning", default=None)


@contextmanager
def pruning_work():
    """Count the pruned path's work in the profiles evaluated inside the
    block: node rows, candidate balls, padded balls (the ball rows of each
    interval's gathered exact product, its candidates' union and padding,
    times the nodes side by side), exact multiply-adds (rows times n times
    width, summed over the gathered products), range fallbacks (blocks
    that took the full path), coarse rows (rows screened over every ball),
    interval balls (the balls _interval_balls kept, summed over
    intervals), dominated balls (the balls dropped from the screens'
    tables, summed over screens) and dominance refusals (screens that kept
    the whole table because their den factors increase with den)."""
    work = {"pruned_rows": 0, "candidate_balls": 0, "padded_balls": 0,
            "exact_madds": 0, "range_fallbacks": 0, "coarse_rows": 0,
            "interval_balls": 0, "dominated_balls": 0, "dominance_refusals": 0}
    token = _PRUNING.set(work)
    try:
        yield work
    finally:
        _PRUNING.reset(token)


def _count(**counts) -> None:
    work = _PRUNING.get()
    if work is not None:
        for key, value in counts.items():
            work[key] += value


def grand_rows(F: np.ndarray, space: QuasimetricSpace, schedule: ShiftSchedule,
               rows) -> np.ndarray:
    """The rows ``rows`` (indices or a slice) of the weighted profile of
    ``schedule``; grand_profile takes them all.

    Each row equals the same row over the whole schedule bit for bit, since
    every node is evaluated on its own.
    """
    part = replace(schedule, nodes=schedule.nodes[rows],
                   p_eff=schedule.p_eff[rows], lam_eff=schedule.lam_eff[rows],
                   weight=schedule.weight[rows])
    return part.weight[:, None] * seminorm_profile(F, space, part)


# elements of one ball block's (balls, nodes x columns) float32 surrogate
# product
_SURROGATE_ELEMENTS = 1 << 17
# ulps the surrogate margin allows for the float64 terms |f|^p w, the den
# factor, the 1/p root and the weight on both paths, with slack for rounding
# the bounds built from it
_SURROGATE_ULPS = 64
# the float32 normal range a screened evaluation must stay in: at least the
# smallest normal 2^-126, and at most half the largest float32, which leaves
# room for the rounding of a sum of up to 2^23 terms
_F32_TINY = float(np.finfo(np.float32).tiny)
_F32_HUGE = 2.0 ** 127


def _gamma(k: int, unit: float) -> float:
    """Higham's gamma_k = k unit / (1 - k unit)."""
    return k * unit / (1.0 - k * unit)


def surrogate_margin(n: int, den_exponent: float) -> float:
    """Relative margin delta between a surrogate row and its exact row.

    Every exact row lies within [s (1 - delta), s (1 + delta)] of its
    surrogate row s.  Both paths sum the same n nonnegative terms in
    different orders (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2), the exact path in float64 and the
    surrogate in float32:

    - the exact path's float64 sum is within gamma_n(u) of the exact sum,
      u = 2^-53;
    - the surrogate rounds each term |f|^p w, each den factor and each
      product of a ball sum with its factor to float32 once, u32 = 2^-24
      each, and its float32 sum adds at most n - 1 more roundings, which
      is gamma_n(u32) + 3 u32 to first order;
    - the den factor exp(-lam log den) carries the float64 rounding of
      lam log den into the exponent, 2 den_exponent u with den_exponent =
      max |lam log den|;
    - _SURROGATE_ULPS float64 ulps cover the float64 terms, the root, the
      weight and the rounding of the bounds built from delta.

    An exact row over its surrogate row is a product of factors (1 + d)
    and their inverses, so it lies within D / (1 - D) of 1, D the sum of
    the |d|.  D holds n + 2 float32 roundings, and its float64 parts stay
    far below one more u32, so D <= (n + 3) u32 and gamma_{n+3}(u32) alone
    is at least D / (1 - D): the gamma form covers the second-order terms,
    about (n u32)^2, which the float64 ulps could not.  The bounds hold
    while every float32 intermediate is normal and finite, which
    ProfileScreen.rows checks.  The root 1/p with p >= 1 only shrinks a
    relative error.
    """
    u, u32 = np.finfo(float).eps / 2, float(np.finfo(np.float32).eps) / 2
    return (2.0 * _gamma(n, u) + _gamma(n + 3, u32)
            + (_SURROGATE_ULPS + 2.0 * den_exponent) * u)


def _f32_terms(pw: np.ndarray, lo: float, hi: float,
               weight: float = 1.0) -> np.ndarray | None:
    """The terms pw (nodes, points, columns) in float32 as (points, nodes x
    columns), or None where a float32 intermediate of a screen with den
    factors in [lo, hi] could leave the normal range.

    A factor must lie in the range itself.  A ball sum is at most n times
    the largest term, which times hi must stay below _F32_HUGE; a nonzero
    ball sum is at least the smallest nonzero term, which once scaled by lo
    and ``weight`` must stay normal.
    """
    k, n, m = pw.shape
    if lo < _F32_TINY or hi > _F32_HUGE:
        return None
    if n * pw.max(initial=0.0) * max(1.0, hi) > _F32_HUGE:
        return None
    terms = pw.transpose(1, 0, 2).reshape(n, k * m)
    pw32 = terms.astype(np.float32, order="C")
    floor = (float(pw32[terms > 0].min(initial=1.0)) * min(1.0, lo)
             * min(1.0, weight))
    return pw32 if floor >= _F32_TINY else None


def _f32_scaled(masks32: np.ndarray, pw32: np.ndarray, factors: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """The float32 ball sums masks32 @ pw32, each (node, column) column times
    its ball's den factor in ``factors`` (balls, nodes): (balls, nodes x
    columns), written to the leading rows of ``out`` when given."""
    b, k = factors.shape
    scaled = np.matmul(masks32, pw32, out=None if out is None else out[:b])
    view = scaled.reshape(b, k, pw32.shape[1] // k)
    np.multiply(view, factors[:, :, None], out=view)
    return scaled


class ProfileScreen:
    """The certified float32 screen of one schedule, and a bracket of the
    weighted profile of one column from it.

    The screen holds what every float32 screen of the schedule reads: its
    table, the undominated balls where the den factors do not increase
    with den (module docstring), the margin delta (surrogate_margin), the
    range of the den factors, those factors (_den_factors: exp(-lam_eff
    log den), computed in float64 and rounded once to float32), and per
    fine row its theta, psi and slack (module docstring), nan where its
    interval has no bound.  The pruned
    profiles (_pruned_max) read all of it.

    ``rows`` takes the float32 terms |f|^p_eff w of all nodes and, for the
    coarse rows, per block of balls one float32 product with the ball
    masks (``masks32``), the product with the factors, held at every ball
    from the first call on, and a running max.  The root and the weight
    stay in float64.  The bits of a surrogate row
    s differ from those of grand_rows, but its exact row lies within
    [s (1 - delta), s (1 + delta)].  A fine row i has the upper bound
    weight_i (S_a^theta S_b^psi e^slack_i)^(1/t_i) from the column maxima
    S_a and S_b of its coarse surrogates, infinite without a bound, and
    the lower bound 0.  Every fine row whose upper bound reaches the
    largest lower bound is screened again like a coarse row, its den
    factors computed block by block.  ``candidates`` are the rows whose
    upper bound reaches the largest lower bound; the exact maximum row is
    always among them, since its upper bound reaches its exact value.
    ``screened_rows`` counts the surrogate rows evaluated, over all calls.
    """

    def __init__(self, space: QuasimetricSpace, schedule: ShiftSchedule):
        self.table, self._den = variant_table(space, schedule.variant)
        small, small_den, levels = _undominated_table(space, schedule.variant)
        if levels is not None:
            # a kept dominator's den factor is at least the dropped ball's
            # where the factors do not increase with den at any row
            if (np.diff(_den_scale(levels, schedule.lam_eff), axis=1) <= 0.0).all():
                _count(dominated_balls=self.table.size - small.size)
                self.table, self._den = small, small_den
            else:
                _count(dominance_refusals=1)
        self.space, self.schedule = space, schedule
        self._log_den = log_den = np.log(self._den)
        t, lam, k = schedule.p_eff, schedule.lam_eff, schedule.nodes.size
        log_den_max = float(np.abs(log_den).max(initial=0.0))
        self.delta = surrogate_margin(space.n, float(np.abs(lam).max() * log_den_max))
        # exp(-lam log den) is monotone in log den, so every row's extreme
        # den factors lie at the extreme dens
        ends = (np.exp(np.multiply.outer(-lam, [log_den.min(), log_den.max()]))
                if log_den.size else np.zeros(0))
        lo, hi = float(ends.min(initial=np.inf)), float(ends.max(initial=0.0))
        # _f32_terms declines every column, so every row is exact, when a den
        # factor leaves the float32 normal range
        self._factor_range = (float(np.float32(lo)) if hi <= _F32_HUGE else 0.0, hi)
        # the coarse rows, screened over every ball: every _COARSE_STRIDE-th
        # row and the last
        self._coarse = coarse = np.unique(np.append(np.arange(0, k, _COARSE_STRIDE), k - 1))
        self._fine = fine = np.setdiff1d(np.arange(k), coarse)
        # per fine row: its interval's end in coarse
        self._end = end = np.searchsorted(coarse, fine)
        a, b = coarse[end - 1], coarse[end]
        with np.errstate(divide="ignore", invalid="ignore"):
            self._theta = (t[b] - t[fine]) / (t[b] - t[a])
            self._psi = (t[fine] - t[a]) / (t[b] - t[a])
            # an interval bounds its fine rows where all lie strictly between
            # its ends
            ordered = ~np.isin(end, end[~((self._theta > 0.0) & (self._psi > 0.0))])
            gap, eta = _lyapunov_slack(self._theta[ordered], self._psi[ordered], lam,
                                       (a[ordered], b[ordered], fine[ordered]),
                                       log_den_max, space.n, self.delta)
            self._slack = np.full(fine.size, np.nan)
            self._slack[ordered] = np.log1p(self.delta) + gap + eta
        self.screened_rows = 0
        self.step = max(1, _SURROGATE_ELEMENTS // k)

    @cached_property
    def _buffer(self) -> np.ndarray:
        """One ball block's product, reused by every call of ``rows``: the
        blocks of an every-row screen, so that a screen of fewer rows takes
        no more memory (or BLAS buffer) than one of all rows."""
        k = self.schedule.nodes.size
        return np.empty(min(self.step, self.table.size) * k, dtype=np.float32)

    @cached_property
    def _factors(self) -> np.ndarray:
        """The float32 den factors of the coarse rows at every ball, (balls,
        coarse rows), for every call of ``rows``."""
        return self._den_factors(slice(None), self._coarse)

    def _den_factors(self, balls, rows) -> np.ndarray:
        """The float32 den factors of the balls ``balls`` at the schedule
        rows ``rows``, (balls, rows)."""
        lam = self.schedule.lam_eff[rows]
        return np.exp(np.multiply.outer(self._log_den[balls], -lam)).astype(np.float32)

    def _tops(self, pw32: np.ndarray, rows: np.ndarray,
              factors: np.ndarray | None = None) -> np.ndarray:
        """The float32 maxima over every ball of the scaled ball sums at the
        schedule rows ``rows``, with the den factors ``factors`` (balls,
        rows) or, without them, factors computed per block of balls."""
        masks, step = self.table.masks32, self.step
        terms = pw32[:, rows]
        block = self._buffer[:min(step, masks.shape[0]) * rows.size].reshape(-1, rows.size)
        top = np.zeros(rows.size, dtype=np.float32)
        for a in range(0, masks.shape[0], step):
            f = (self._den_factors(slice(a, a + step), rows) if factors is None
                 else factors[a:a + step])
            np.maximum(top, _f32_scaled(masks[a:a + step], terms, f, block).max(axis=0),
                       out=top)
        self.screened_rows += rows.size
        return top

    def rows(self, F: np.ndarray) -> tuple | None:
        """Upper and lower bounds of the weighted rows of the one-column F,
        or None where delta does not hold: a float32 intermediate that could
        leave the normal range, or a non-finite surrogate row."""
        sched, delta = self.schedule, self.delta
        pw = np.abs(F[:, 0]) ** sched.p_eff[:, None] * self.space.weights
        pw32 = _f32_terms(pw[:, :, None], *self._factor_range,
                          float(sched.weight.min()))
        if pw32 is None:
            return None
        upper, lower = np.empty(sched.nodes.size), np.zeros(sched.nodes.size)

        def bracket(rows, top):
            s = sched.weight[rows] * top.astype(float) ** (1.0 / sched.p_eff[rows])
            upper[rows], lower[rows] = s * (1.0 + delta), s * (1.0 - delta)
            return bool(np.all(np.isfinite(s)))

        top = self._tops(pw32, self._coarse, self._factors)
        if not bracket(self._coarse, top):
            return None
        fine = self._fine
        # a zero coarse maximum bounds its ordered fine rows by exp(-inf) = 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_top = np.log(top.astype(float))
            bound = np.exp(self._theta * log_top[self._end - 1]
                           + self._psi * log_top[self._end] + self._slack)
        upper[fine] = np.where(np.isnan(self._slack), np.inf,
                               sched.weight[fine] * bound ** (1.0 / sched.p_eff[fine]))
        refine = fine[upper[fine] >= lower.max()]
        if refine.size and not bracket(refine, self._tops(pw32, refine)):
            return None
        return upper, lower

    def candidates(self, bounds: tuple | None) -> np.ndarray:
        """Indices of the rows that can hold the exact maximum, from the
        bounds of ``rows``: all of them without bounds."""
        if bounds is None:
            return np.arange(self.schedule.nodes.size)
        upper, lower = bounds
        return np.flatnonzero(upper >= lower.max())


def grand_profile(F: np.ndarray, space: QuasimetricSpace, params: GrandParams,
                  nodes: np.ndarray) -> np.ndarray:
    """Weighted inner values phi(eps)^(1/(p-eps)) N(eps; f) per node and column."""
    return grand_rows(F, space, shift_schedule(params, nodes), slice(None))


def phi_functional(f, space: QuasimetricSpace, params: GrandParams, s: float,
                   include_endpoint: bool = False, grid: EpsilonGrid | None = None):
    """Grand supremum truncated to the nodes below s of ``grid``, the master
    grid by default.

    With include_endpoint the node equal to s (inserted if absent) joins the
    max, which evaluates the closed-range variant at s.  Monotone in s by
    construction since larger s only admits more nodes.
    """
    if not 0 < s <= params.s_max * (1.0 + 1e-12):
        raise NormError(f"truncation point must lie in (0, s_max], got {s:g}")
    F = as_matrix(f, space)
    nodes = (grid or grid_for(params)).nodes
    sel = nodes[nodes < s]
    if include_endpoint:
        sel = np.unique(np.append(sel, s))
    if sel.size == 0:
        raise NormError(f"no grid node below s={s:g}; refine the grid")
    vals = grand_profile(F, space, params, sel).max(axis=0)
    return _squeeze(vals, f)


def grand_morrey_norm(f, space: QuasimetricSpace, params: GrandParams,
                      grid: EpsilonGrid | None = None):
    """Grand Morrey norm: sup over the shift grid of weighted inner seminorms."""
    F = as_matrix(f, space)
    if grid is None:
        grid = grid_for(params)
    vals = grand_profile(F, space, params, grid.nodes).max(axis=0)
    return _squeeze(vals, f)


def grand_lebesgue_norm(f, space: QuasimetricSpace, p: float, theta: float = 1.0):
    """sup over eps in (0, p-1] of [eps^theta integral |f|^(p-eps)]^(1/(p-eps)),
    for finite p > 1 and theta."""
    if not (np.isfinite(p) and p > 1):
        raise NormError(f"grand Lebesgue norm needs a finite p > 1, got {p:g}")
    if not np.isfinite(theta):
        raise NormError(f"grand Lebesgue norm needs a finite theta, got {theta:g}")
    F = as_matrix(f, space)
    nodes = build_epsilon_grid(p - 1.0, closed=True).nodes
    best = np.zeros(F.shape[1])
    w = space.weights[:, None]
    for eps in nodes:
        pe = p - float(eps)
        vals = (float(eps) ** theta * (np.abs(F) ** pe * w).sum(axis=0)) ** (1.0 / pe)
        best = np.maximum(best, vals)
    return _squeeze(best, f)


# ---------------------------------------------------------------------------
# dominance machinery


def k_phi(params: GrandParams) -> float:
    """max over the master grid of phi(eps)^(1/(p-eps))."""
    nodes = grid_for(params).nodes
    return float(np.max(params.phi(nodes) ** (1.0 / (params.p - nodes))))


def dominance_report(space: QuasimetricSpace, params: GrandParams, sigma: float) -> dict:
    """Exact Hoelder factors dominating the grand tail above sigma.

    For every representative ball B and node eps >= sigma the inner seminorm
    at eps is bounded by factor_B(eps, sigma) times the inner seminorm at
    sigma, with

        factor_B = den^((lam - A(sigma))/(p - sigma) - (lam - A(eps))/(p - eps))
                   * (mu B)^(1/(p - eps) - 1/(p - sigma)).

    M_delta is the max of these factors; the dominance constant
    C = max(K_phi M_delta, phi(sigma)^(1/(p - sigma))) then gives

        Phi(f, s_max) <= C phi(sigma)^(-1/(p - sigma)) Phi_closed(f, sigma)

    for every f, which is checked (never assumed) by the certification layer.
    """
    if not 0 < sigma < params.s_max:
        raise NormError(f"sigma must lie in (0, s_max), got {sigma:g}")
    table, den = variant_table(space, params.variant)
    nodes = grid_for(params).nodes
    above = nodes[nodes >= sigma]
    if above.size == 0:
        above = np.asarray([sigma])
    schedule = shift_schedule(params, above)
    log_den = np.log(den)
    log_mu = np.log(table.measures)
    inv_sig = 1.0 / (params.p - sigma)
    lam_sig = params.lam - float(params.A(sigma))
    m_delta = -np.inf
    witness = {}
    for eps, pe, lam_eps in zip(above, schedule.p_eff, schedule.lam_eff):
        log_factor = (lam_sig * inv_sig - lam_eps / pe) * log_den \
            + (1.0 / pe - inv_sig) * log_mu
        k = int(np.argmax(log_factor))
        if log_factor[k] > m_delta:
            m_delta = float(log_factor[k])
            witness = {
                "eps": float(eps),
                "center": int(table.centers[k]),
                "radius": float(table.radii[k]),
            }
    m_delta = float(np.exp(m_delta))
    kphi = k_phi(params)
    w_sigma = float(params.phi(sigma)) ** inv_sig
    C = max(kphi * m_delta, w_sigma)
    gamma = params.variant.gamma
    shape_base = max(1.0, space.diameter ** gamma)
    return {
        "sigma": float(sigma),
        "M_delta": m_delta,
        "K_phi": kphi,
        "w_sigma": w_sigma,
        "C": C,
        "C0": C / shape_base,
        "shape": f"C0 * max(1, d_X^{gamma:g})",
        "witness": witness,
    }
