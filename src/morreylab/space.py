"""Finite quasimetric measure spaces.

A space is a finite set of points with a distance matrix and positive point
weights.  The distance may be asymmetric and may inflate the triangle
inequality; the two defects are measured by the asymmetry constant C_s and the
triangle inflation constant C_t.  Balls B(x, r) = {y : d(x, y) < r} use a
strict inequality, so every ball-dependent quantity is a step function of the
radius whose jumps sit exactly on the distance values.  All suprema and infima
over radii are therefore evaluated exactly on one representative radius per
constancy interval (the interval midpoint), plus one representative past the
largest threshold.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "SpaceError",
    "QuasimetricSpace",
    "BallTable",
    "GeometryConstants",
    "AhlforsReport",
    "NestedBallReport",
    "BallChainReport",
    "PrefixProfile",
    "build_space",
    "prefix_profile",
    "rep_balls",
    "undominated",
    "quasimetric_constants",
    "dilation_constants",
    "quasimetric_witnesses",
    "doubling_constant",
    "doubling_witness",
    "ahlfors_fit",
    "sharp_growth_constant",
    "nested_ball_bound_check",
    "ball_chain_check",
    "geometry_constants",
    "save_space",
    "load_space",
    "read_json",
]


class SpaceError(ValueError):
    """Raised when a space definition violates the distance or weight axioms."""


@dataclass(frozen=True)
class QuasimetricSpace:
    """Finite measure space with a (possibly asymmetric) quasimetric."""

    points: tuple
    dist: np.ndarray
    weights: np.ndarray
    metric: dict
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        """Largest distance between two points (d_X)."""
        return float(self.dist.max()) if self.n > 1 else 0.0

    @property
    def total_measure(self) -> float:
        return float(self.weights.sum())

    @property
    def coords(self) -> np.ndarray | None:
        """Point coordinates when the points are numeric, else None."""
        try:
            arr = np.asarray(self.points, dtype=float)
        except (TypeError, ValueError):
            return None
        return arr

    def space_id(self) -> str:
        """Stable content hash of the space definition."""
        body = json.dumps(self.to_dict(), sort_keys=True)
        digest = hashlib.sha256(body.encode()).hexdigest()[:12]
        return f"{self.name or 'space'}-{digest}"

    def to_dict(self) -> dict:
        points = [p.tolist() if isinstance(p, np.ndarray) else p for p in self.points]
        return {
            "format": "quasimetric-space",
            "version": 1,
            "name": self.name,
            "points": points,
            "metric": self.metric,
            "weights": self.weights.tolist(),
        }


@dataclass(frozen=True)
class BallTable:
    """All representative balls of a space, one per radius constancy interval.

    ``dilation`` controls the companion ball B(center, dilation * radius)
    whose measure is stored in ``dilated_measures``.  With dilation 1 the two
    measure arrays coincide.  Radii are enumerated on the union of the jump
    thresholds of the ball and of its dilate, so both measures are exact step
    function values for every real radius in the represented interval.
    ``counts`` holds each ball's member count, so its members are the prefix
    ``prefix_profile(space).order[center, :count]``; ``rank`` is that
    profile's rank matrix, shared, not copied.  The bool member ``masks``,
    their float copy ``masks_f`` that ball integrals multiply, and the
    float32 copy ``masks32`` that surrogate screens multiply (0 and 1 are
    exact in both), are built on first use: readers of radii, counts and
    measures never allocate them.
    """

    centers: np.ndarray
    radii: np.ndarray
    counts: np.ndarray
    measures: np.ndarray
    dilation: float
    dilated_measures: np.ndarray
    rank: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    def take(self, keep: np.ndarray) -> BallTable:
        """The table of the balls ``keep`` (ascending row indices), sharing
        ``rank``; built member masks carry over."""
        sub = BallTable(centers=self.centers[keep], radii=self.radii[keep],
                        counts=self.counts[keep], measures=self.measures[keep],
                        dilation=self.dilation,
                        dilated_measures=self.dilated_measures[keep], rank=self.rank)
        if "masks" in vars(self):
            vars(sub)["masks"] = self.masks[keep]
        return sub

    @cached_property
    def masks(self) -> np.ndarray:
        """rank[centers] < counts[:, None], one center's rows at a time: the
        gathered rank rows would take eight bytes per mask entry."""
        n = self.rank.shape[0]
        masks = np.empty((self.size, n), dtype=bool)
        bounds = np.searchsorted(self.centers, np.arange(n + 1))
        for x in range(n):
            a, b = bounds[x], bounds[x + 1]
            np.less(self.rank[x], self.counts[a:b, None], out=masks[a:b])
        return masks

    @cached_property
    def masks_f(self) -> np.ndarray:
        return self.masks.astype(float)

    @cached_property
    def masks32(self) -> np.ndarray:
        return self.masks.astype(np.float32)


@dataclass(frozen=True)
class GeometryConstants:
    """Minimal geometric constants of a space, from exhaustive scans."""

    C_t: float
    C_s: float
    C_d: float
    alpha_lower: float
    c_low: float
    beta_upper: float
    c_up: float
    b_growth: float
    N_0: float
    a_bar: float


@dataclass(frozen=True)
class AhlforsReport:
    """Envelope constants for lower/upper volume regularity on a radius window."""

    alpha_lower: float
    c_low: float
    low_witness: tuple[int, float]
    beta_upper: float
    c_up: float
    up_witness: tuple[int, float]
    b_growth: float
    b_witness: tuple[int, float]
    window: tuple[float, float]
    fitted: bool
    upper_fails_at_zero: bool = False


@dataclass(frozen=True)
class NestedBallReport:
    """Result of the nested-ball measure-ratio scan."""

    passed: bool
    worst_ratio: float
    witness: dict
    pairs_checked: int


@dataclass(frozen=True)
class BallChainReport:
    """Result of the two-step ball inclusion scan."""

    passed: bool
    checked: int
    failures: int
    witness: dict | None


@dataclass(frozen=True, eq=False)
class PrefixProfile:
    """Every center's points in distance order, with cumulative weights.

    Row x of ``order`` lists the points by distance from x, ties in index
    order, and ``rank`` is its inverse.  The strict ball B(x, r) is the prefix
    ``order[x, :k]`` with ``k = counts(x, r)``, and its measure is
    ``cum[x, k]``.
    """

    order: np.ndarray
    rank: np.ndarray
    dists: np.ndarray
    cum: np.ndarray

    def counts(self, x: int, radii) -> np.ndarray:
        """Member count of B(x, r) for each radius."""
        return np.searchsorted(self.dists[x], radii, side="left")

    def measures(self, x: int, radii) -> np.ndarray:
        """mu B(x, r) for each radius."""
        return self.cum[x, self.counts(x, radii)]

    @cached_property
    def point_measures(self) -> np.ndarray:
        """mu B(x, d(x, y)) at [x, y]; zero on the diagonal."""
        return np.stack([self.measures(x, self.dists[x, self.rank[x]])
                         for x in range(self.order.shape[0])])


# ---------------------------------------------------------------------------
# construction


def _euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _circle_matrix(n: int, circumference: float) -> np.ndarray:
    idx = np.arange(n)
    steps = np.abs(idx[:, None] - idx[None, :])
    steps = np.minimum(steps, n - steps)
    return steps * (circumference / n)


def _metric_matrix(points: list, metric: dict) -> np.ndarray:
    kind = metric.get("kind")
    if kind == "matrix":
        mat = _floats(metric["matrix"], "matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SpaceError("explicit metric matrix must be square")
        if mat.shape[0] != len(points):
            raise SpaceError("metric matrix size does not match the point count")
        return mat
    if kind == "circle":
        circumference = _floats(metric.get("circumference", 1.0), "circumference")
        return _circle_matrix(len(points), float(circumference))
    coords = _floats(points, "points")
    if coords.ndim == 1:
        coords = coords[:, None]
    if kind == "euclidean":
        return _euclidean_matrix(coords)
    if kind == "snowflake":
        s = float(_floats(metric["exponent"], "exponent"))
        if s <= 0:
            raise SpaceError("snowflake exponent must be positive")
        return _euclidean_matrix(coords) ** s
    raise SpaceError(f"unknown metric kind {kind!r}")


def _floats(value, key: str) -> np.ndarray:
    """``value`` as a float array, or a SpaceError that names ``key``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpaceError(f"{key!r} entry is not numeric: {exc}") from None


def _snap_distances(dist: np.ndarray) -> np.ndarray:
    """Quantize distances on a binary grid about 2^-40 of the largest one.

    Round-off in sqrt and subtraction splits nominally equal distances by a
    few ulp, which would create spurious one-ulp ball intervals and make the
    ball family depend on the platform's rounding.  Snapping to a power-of-two
    quantum merges those ties exactly and reproducibly; genuinely distinct
    distances closer than the quantum are out of scope for this laboratory.
    """
    d_max = float(dist.max())
    if d_max <= 0 or not np.isfinite(d_max):
        return dist
    snap = 2.0 ** (math.floor(math.log2(d_max)) - 40)
    return np.round(dist / snap) * snap


def build_space(points, metric, weights, name: str = "") -> QuasimetricSpace:
    """Build and validate a finite quasimetric measure space.

    ``points`` is a sequence of coordinates or opaque ids, ``metric`` a dict
    with a ``kind`` field (euclidean, snowflake, circle, matrix) and
    ``weights`` a sequence of positive point masses.  Single-point spaces are
    accepted; they degenerate to diameter zero.  Distances are quantized at
    about one part in 10^12 of the diameter (see _snap_distances).
    """
    points = list(points)
    if len(points) < 1:
        raise SpaceError("a space needs at least one point")
    if isinstance(metric, np.ndarray):
        metric = {"kind": "matrix", "matrix": np.asarray(metric, dtype=float).tolist()}
    dist = _snap_distances(_metric_matrix(points, dict(metric)))
    w = _floats(weights, "weights")
    if w.shape != (len(points),):
        raise SpaceError("weights must give one value per point")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise SpaceError("weights must be positive and finite")
    if not np.all(np.isfinite(dist)):
        raise SpaceError("distances must be finite")
    if np.any(dist < 0):
        raise SpaceError("negative distance entry")
    if np.any(np.diag(dist) != 0):
        raise SpaceError("distance of a point to itself must be zero")
    off = ~np.eye(len(points), dtype=bool)
    if len(points) > 1 and np.any(dist[off] <= 0):
        raise SpaceError("zero distance between distinct points")
    return QuasimetricSpace(
        points=tuple(points),
        dist=dist,
        weights=w,
        metric=dict(metric),
        name=name,
    )


def save_space(space: QuasimetricSpace, path) -> None:
    Path(path).write_text(json.dumps(space.to_dict(), indent=2, sort_keys=True) + "\n")


def read_json(path, error=SpaceError):
    """The JSON document of the file ``path``; a file that does not parse
    raises ``error``, naming it."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None


def load_space(path) -> QuasimetricSpace:
    data = read_json(path)
    if not isinstance(data, dict) or data.get("format") != "quasimetric-space":
        raise SpaceError(f"{path}: not a space file")
    for key in ("points", "metric", "weights"):
        if key not in data:
            raise SpaceError(f"{path}: space file has no {key!r} entry")
    try:
        return build_space(data["points"], data["metric"], data["weights"],
                           name=data.get("name", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpaceError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# balls and representative radii


def prefix_profile(space: QuasimetricSpace) -> PrefixProfile:
    """The space's distance-sorted prefix profile, built once and cached."""
    cached = space._cache.get("prefix_profile")
    if cached is not None:
        return cached
    n = space.n
    order = np.argsort(space.dist, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n)[None, :], axis=1)
    cum = np.zeros((n, n + 1))
    np.cumsum(space.weights[order], axis=1, out=cum[:, 1:])
    profile = PrefixProfile(order=order, rank=rank,
                            dists=np.take_along_axis(space.dist, order, axis=1),
                            cum=cum)
    space._cache["prefix_profile"] = profile
    return profile


def _ball_radii(space: QuasimetricSpace, dilation: float,
                capped: bool) -> tuple[np.ndarray, np.ndarray]:
    """(centers, radii) of every representative ball, center-major, radii
    ascending; see rep_balls for the rule."""
    ts = prefix_profile(space).dists
    if dilation != 1.0:
        ts = np.sort(np.concatenate([ts, ts / dilation], axis=1), axis=1)
    n, d_X = space.n, space.diameter
    # rows are sorted, so the first of each run of equal values marks the
    # distinct thresholds
    kept = ts > 0
    kept[:, 1:] &= ts[:, 1:] != ts[:, :-1]
    if capped:
        kept &= ts < d_X
    per = kept.sum(axis=1) + 1
    if capped and d_X <= 0:
        per[:] = 0  # a one-point space has no radius in (0, d_X)
    top = np.full(n, d_X) if capped else np.where(per > 1, 1.5 * ts[:, -1], 1.0)
    centers = np.repeat(np.arange(n), per)
    is_first = np.ones(centers.size, dtype=bool)
    is_first[1:] = centers[1:] != centers[:-1]
    is_last = np.roll(is_first, -1)
    lo = np.zeros(centers.size)
    lo[~is_first] = ts[kept]
    hi = np.empty(centers.size)
    hi[~is_last] = ts[kept]
    hi[is_last] = top[per > 0]
    radii = (lo + hi) / 2.0
    if not capped:
        radii[is_last] = hi[is_last]
    return centers, radii


def _strict_counter(prof: PrefixProfile):
    """The function (centers, radii) -> #{y : d(x, y) < r} for each (x, r),
    exactly np.searchsorted(side="left") on row x of ``prof.dists``.

    Values are coded by their rank among the distinct distances, which keeps
    every row sorted, and all rows are searched at once with the center as
    the leading digit of the key.  Positions in a threshold order would not
    do: a midpoint of two thresholds one ulp apart rounds onto one of them.
    The key arrays are built here, once, and serve every call.
    """
    n = prof.dists.shape[0]
    levels = np.unique(prof.dists)
    stride = levels.size + 1
    row_keys = (np.arange(n)[:, None] * stride + np.searchsorted(levels, prof.dists)).ravel()

    def counts(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        keys = centers * stride + np.searchsorted(levels, radii)
        return np.searchsorted(row_keys, keys) - centers * n

    return counts


def rep_balls(space: QuasimetricSpace, *, dilation: float = 1.0,
              radius_cap: str = "diameter", dedupe: bool = False) -> BallTable:
    """Enumerate every representative ball of the space.

    A center's jump thresholds are its distinct positive distances, merged
    with those distances divided by ``dilation`` when it is not 1, so both
    B(x, r) and B(x, dilation * r) are exact on each representative.  The
    radii are the midpoints of consecutive edges 0, thresholds, top: under
    ``radius_cap`` "diameter" the thresholds stop below d_X and top is d_X,
    so the radii cover (0, d_X); under "none" top is 1.5 times the largest
    threshold (1.0 when there is none) and is itself the last radius, where
    every ball quantity has saturated.  Any other cap raises ``SpaceError``.
    Rows are center-major with radii ascending.  ``dedupe`` keeps the first
    ball of each (member set, measure bytes, dilated measure bytes) key, in
    table order, which leaves every norm built on the table unchanged.
    """
    if radius_cap not in ("diameter", "none"):
        raise SpaceError(f"unknown radius cap {radius_cap!r}")
    key = ("rep_balls", dilation, radius_cap, dedupe)
    cached = space._cache.get(key)
    if cached is not None:
        return cached
    prof = prefix_profile(space)
    centers, radii = _ball_radii(space, dilation, radius_cap == "diameter")
    count = _strict_counter(prof)
    counts = count(centers, radii)
    table = BallTable(
        centers=centers, radii=radii, counts=counts,
        measures=prof.cum[centers, counts], dilation=dilation,
        dilated_measures=prof.cum[centers, count(centers, dilation * radii)],
        rank=prof.rank,
    )
    if dedupe:
        # one byte row per ball: packed members, then the bytes of both
        # measures; np.unique returns the first index of each distinct row
        packed = np.packbits(table.masks, axis=1)
        keys = np.concatenate([packed,
                               table.measures.view(np.uint8).reshape(-1, 8),
                               table.dilated_measures.view(np.uint8).reshape(-1, 8)], axis=1)
        _, first = np.unique(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
                             return_index=True)
        if first.size < table.size:
            keep = np.sort(first)
            # the kept rows of the key's masks fill the cache of ``masks``,
            # unpacked once the full table's masks are gone
            vars(table).pop("masks")
            table = table.take(keep)
            vars(table)["masks"] = np.unpackbits(packed[keep], axis=1,
                                                 count=space.n).view(bool)
    space._cache[key] = table
    return table


def undominated(space: QuasimetricSpace, table: BallTable, den: np.ndarray) -> np.ndarray:
    """Row indices, ascending, of the balls of ``table`` that no other ball
    dominates, for the dens ``den``.

    Ball j dominates ball i when the members of i lie in those of j and j
    comes first in the order of (den, -count, row): so den_j <= den_i, and
    of two balls with equal members and equal dens the first in the table
    stays.  This is a strict partial order, so every dropped ball has a kept
    dominator.  The nested-ball scan with each ball's place in that order in
    place of its slack: the balls of an outer center x that hold ball i are
    those with radius above the reach of i from x (_reach_from), a suffix of
    x's balls, and i is dominated when the suffix minimum of the order lies
    before i.  One outer center at a time, in O(B n) time and O(B + n^2)
    memory.
    """
    nb = table.size
    place = np.empty(nb, dtype=np.intp)
    place[np.lexsort((-table.counts, den))] = np.arange(nb)
    flat = table.centers * space.n + table.counts - 1
    bounds = np.searchsorted(table.centers, np.arange(space.n + 1))
    # the first place of a ball holding each ball, itself included
    low = place.copy()
    for x in range(space.n):
        a, b = bounds[x], bounds[x + 1]
        suffix = np.searchsorted(table.radii[a:b], np.take(_reach_from(space, x), flat),
                                 side="right")
        suffix_min = np.append(np.minimum.accumulate(place[a:b][::-1])[::-1], nb)
        np.minimum(low, suffix_min[suffix], out=low)
    return np.flatnonzero(low == place)


# ---------------------------------------------------------------------------
# geometric constants


def quasimetric_constants(space: QuasimetricSpace) -> tuple[float, float]:
    """Minimal (C_t, C_s) with d(x,y) <= C_t [d(x,z)+d(z,y)] and d(x,y) <= C_s d(y,x).

    The triple scan includes degenerate triples z in {x, y}, which pin both
    constants at 1 from below.
    """
    cached = space._cache.get("qm_consts")
    if cached is not None:
        return cached
    n = space.n
    if n < 2:
        space._cache["qm_consts"] = (1.0, 1.0)
        return 1.0, 1.0
    D = space.dist
    off = ~np.eye(n, dtype=bool)
    C_s = float((D[off] / D.T[off]).max())
    C_t = 1.0
    for i in range(n):
        denom = D[i][:, None] + D
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = D[i][None, :] / denom
        ratios[:, i] = 0.0
        np.nan_to_num(ratios, copy=False, nan=0.0, posinf=0.0)
        C_t = max(C_t, float(ratios.max()))
    result = (max(C_t, 1.0), max(C_s, 1.0))
    space._cache["qm_consts"] = result
    return result


def dilation_constants(space: QuasimetricSpace) -> tuple[float, float]:
    """(N_0, a_bar) = (C_t (1 + 2 C_s), C_t (C_t (C_s + 1) + 1)).

    N_0 dilates the denominator of the modified maximal operator; a_bar is
    the ball-chain enlargement B(x, r) within B(x, a_bar r).
    """
    C_t, C_s = quasimetric_constants(space)
    return C_t * (1.0 + 2.0 * C_s), C_t * (C_t * (C_s + 1.0) + 1.0)


def quasimetric_witnesses(space: QuasimetricSpace) -> dict:
    """Index witnesses achieving the minimal C_t and C_s exactly."""
    C_t, C_s = quasimetric_constants(space)
    n = space.n
    D = space.dist
    best_t = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                denom = D[i, k] + D[k, j]
                if denom <= 0:
                    continue
                if D[i, j] / denom >= C_t * (1 - 1e-15):
                    best_t = (i, j, k)
                    break
            if best_t:
                break
        if best_t:
            break
    best_s = None
    for i in range(n):
        for j in range(n):
            if i != j and D[i, j] / D[j, i] >= C_s * (1 - 1e-15):
                best_s = (i, j)
                break
        if best_s:
            break
    return {"C_t": C_t, "triple": best_t, "C_s": C_s, "pair": best_s}


def _doubling_scan(space: QuasimetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """Per center: the largest mu B(x, 2r) / mu B(x, r) over 0 < r < d_X, and
    the first representative radius attaining it.

    Representative radii merge the jump thresholds of both balls (distances
    and their halves), so the scan is exact for every real radius in (0, d_X).
    """
    cached = space._cache.get("doubling_scan")
    if cached is not None:
        return cached
    best = np.zeros(space.n)
    at = np.zeros(space.n)
    table = rep_balls(space, dilation=2.0)
    if table.size:
        ratios = table.dilated_measures / table.measures
        # every center has at least one ball when d_X > 0
        starts = np.searchsorted(table.centers, np.arange(space.n))
        best = np.maximum.reduceat(ratios, starts)
        hit = np.flatnonzero(ratios == best[table.centers])
        at = table.radii[hit[np.searchsorted(table.centers[hit], np.arange(space.n))]]
    space._cache["doubling_scan"] = (best, at)
    return best, at


def doubling_constant(space: QuasimetricSpace) -> float:
    """Minimal C_d with mu B(x, 2r) <= C_d mu B(x, r) for all x and 0 < r < d_X."""
    best, _ = _doubling_scan(space)
    return max(1.0, float(best.max()))


def doubling_witness(space: QuasimetricSpace) -> tuple[int, float]:
    """(center, radius) achieving the doubling constant."""
    best, at = _doubling_scan(space)
    hits = np.flatnonzero(best >= doubling_constant(space) * (1 - 1e-15))
    return (int(hits[0]), float(at[hits[0]])) if hits.size else (0, 0.0)


def _min_positive_distance(space: QuasimetricSpace) -> float:
    if space.n < 2:
        return 0.0
    off = ~np.eye(space.n, dtype=bool)
    return float(space.dist[off].min())


def ahlfors_fit(space: QuasimetricSpace, alpha: float | None = None,
                beta: float | None = None, window: tuple[float, float] | None = None) -> AhlforsReport:
    """Envelope constants c_low, c_up with c_low r^alpha <= mu B(x,r) <= c_up r^beta.

    Evaluated on the representative radii (constancy-interval midpoints)
    inside the closed ``window``; the envelopes certify the inequality at
    those radii, which is the convention every norm in this package is built
    on.  For a bound valid at every real radius use sharp_growth_constant.
    The default window starts at half the smallest positive distance, so it
    covers every representative ball, and ends at the diameter.  When the
    exponents are not supplied a single exponent is fitted by least squares
    on the log-log cloud and used on both sides.  ``b_growth`` is the upper
    envelope at exponent 1 on the window.  A window touching zero makes the
    upper envelope infinite on atomic spaces, which is reported rather than
    raised.
    """
    d_X = space.diameter
    if d_X <= 0:
        raise SpaceError("ahlfors fit needs a space with positive diameter")
    if window is None:
        window = (_min_positive_distance(space) / 2.0, d_X)
    lo, hi = float(window[0]), float(window[1])
    if lo < 0 or hi <= lo:
        raise SpaceError("empty radius window")
    upper_fails = lo == 0.0

    table = rep_balls(space)
    in_window = (table.radii >= lo) & (table.radii <= hi)
    if not in_window.any():
        raise SpaceError("no representative radius falls inside the window")
    r = table.radii[in_window]
    mu = table.measures[in_window]
    centers = table.centers[in_window]

    fitted = alpha is None and beta is None
    if fitted:
        # equal radii (two-atom) leave no slope, only the floor
        log_r = np.log(r)
        slope = (float(np.polyfit(log_r, np.log(mu), 1)[0]) if np.ptp(log_r) > 0
                 else 0.0)
        alpha = beta = max(slope, 1e-9)
    elif alpha is None:
        alpha = beta
    elif beta is None:
        beta = alpha

    low_ratio = mu / r**alpha
    k_low = int(np.argmin(low_ratio))
    up_ratio = mu / r**beta
    k_up = int(np.argmax(up_ratio))
    growth = mu / r
    k_b = int(np.argmax(growth))

    c_up = float("inf") if upper_fails else float(up_ratio[k_up])
    return AhlforsReport(
        alpha_lower=float(alpha),
        c_low=float(low_ratio[k_low]),
        low_witness=(int(centers[k_low]), float(r[k_low])),
        beta_upper=float(beta),
        c_up=c_up,
        up_witness=(int(centers[k_up]), float(r[k_up])),
        b_growth=float(growth[k_b]),
        b_witness=(int(centers[k_b]), float(r[k_b])),
        window=(lo, hi),
        fitted=fitted,
        upper_fails_at_zero=upper_fails,
    )


def sharp_growth_constant(space: QuasimetricSpace) -> float:
    """Minimal b with mu B(x, r) <= b r for every real r past each center's first jump.

    The supremum over real radii of a step function over r is attained just
    above the jump thresholds, so this dominates the representative-radius
    envelope and is the constant under which integral estimates against the
    growth bound transfer exactly to the discrete space.
    """
    cached = space._cache.get("b_sharp")
    if cached is not None:
        return cached
    prof = prefix_profile(space)
    pos = prof.dists > 0
    best = float((prof.cum[:, 1:][pos] / prof.dists[pos]).max()) if pos.any() else 0.0
    space._cache["b_sharp"] = best
    return best


def _running_max(space: QuasimetricSpace, y: int) -> np.ndarray:
    """[x, k]: the largest d(x, z) over the k + 1 points z nearest to y.

    B(y, r) lies inside B(x, R) exactly when entry [x, k - 1] is below R,
    where k is the member count of B(y, r).
    """
    return np.maximum.accumulate(space.dist[:, prefix_profile(space).order[y]], axis=1)


def _reach_from(space: QuasimetricSpace, x: int) -> np.ndarray:
    """[y, k]: the largest d(x, z) over the k + 1 points z nearest to y.

    Ball i of a table lies inside B(x, R) exactly when entry [c_i, k_i - 1]
    is below R, where c_i is its center and k_i its member count.
    """
    return np.maximum.accumulate(space.dist[x][prefix_profile(space).order], axis=1)


def nested_ball_bound_check(space: QuasimetricSpace, C_d: float | None = None) -> NestedBallReport:
    """Check mu B(x,R) / mu B(y,r) <= C_d (R/r)^(log2 C_d) on nested representative pairs.

    A pair qualifies when the member set of B(y, r) is contained in that of
    B(x, R) and r <= R.  The worst ratio of the two sides is reported with a
    witness.

    rep_balls lists each center's radii in growing order, so the outer balls
    at center x that qualify for inner ball i are a suffix of x's balls: those
    with radius above the reach of i from x (_reach_from) and at least r_i.
    The pair count is a sum of suffix lengths, and the largest surrogate
    slack log mu_j - e log r_j of each inner ball comes from per-center
    suffix maxima.  A second pass evaluates the exact slack only at the outer
    balls within a rounding margin of that maximum, so the ratio and the
    witness are bit for bit those of a scan over all B^2 pairs.  Both passes
    go one outer center at a time, in O(B n) time and O(B + n^2) memory.
    """
    if C_d is None:
        C_d = doubling_constant(space)
    table = rep_balls(space)
    nb = table.size
    if nb == 0:
        return NestedBallReport(True, 0.0, {}, 0)
    exponent = math.log2(C_d) if C_d > 1 else 0.0
    flat = table.centers * space.n + table.counts - 1
    log_mu, log_r = np.log(table.measures), np.log(table.radii)
    surrogate = log_mu - exponent * log_r
    # the balls of center x are the table rows bounds[x]:bounds[x + 1]
    bounds = np.searchsorted(table.centers, np.arange(space.n + 1))
    checked, best = 0, np.full(nb, -np.inf)
    for x in range(space.n):
        a, b = bounds[x], bounds[x + 1]
        rx = table.radii[a:b]
        suffix = np.maximum(np.searchsorted(rx, np.take(_reach_from(space, x), flat),
                                            side="right"),
                            np.searchsorted(rx, table.radii, side="left"))
        checked += int((b - a) * nb - suffix.sum())
        suffix_max = np.append(np.maximum.accumulate(surrogate[a:b][::-1])[::-1],
                               -np.inf)
        np.maximum(best, suffix_max[suffix], out=best)
    # the exact slack of (i, j) is surrogate[j] minus a term of i, up to a few
    # roundings at the magnitude of the logs; the margin covers both sides
    margin = 64 * np.finfo(float).eps * (
        np.abs(log_mu).max() + exponent * np.abs(log_r).max()
        + abs(math.log(C_d)) + 1.0)
    # per inner ball i, the largest exact slack over the outer balls j with
    # best[i] - margin <= surrogate[j] <= best[i] (for each j, a run of inner
    # balls in best order), and the first j attaining it: centers ascend
    ranked = np.argsort(best, kind="stable")
    high, low = best[ranked], best[ranked] - margin
    top, arg = np.full(nb, -np.inf), np.zeros(nb, dtype=np.intp)
    for x in range(space.n):
        a, b = bounds[x], bounds[x + 1]
        start = np.searchsorted(high, surrogate[a:b], side="left")
        size = np.searchsorted(low, surrogate[a:b], side="right") - start
        outer = np.repeat(np.arange(a, b), size)
        inner = ranked[np.arange(outer.size) + np.repeat(start - np.cumsum(size) + size, size)]
        valid = ((np.take(_reach_from(space, x), flat[inner]) < table.radii[outer])
                 & (table.radii[inner] <= table.radii[outer]))
        inner, outer = inner[valid], outer[valid]
        slack = ((log_mu[outer] - log_mu[inner])
                 - (math.log(C_d) + exponent * (log_r[outer] - log_r[inner])))
        arg[inner[slack > top[inner]]] = b
        np.maximum.at(top, inner, slack)
        hit = slack == top[inner]
        np.minimum.at(arg, inner[hit], outer[hit])
    # the dense scan's blocks of inner balls: the first block with the
    # largest ratio, its first inner ball with the largest slack
    worst, witness = 0.0, {}
    block = max(1, int(2**22 // nb))
    for start in range(0, nb, block):
        i = start + int(np.argmax(top[start:start + block]))
        ratio = float(np.exp(top[i]))
        if ratio > worst:
            worst, j = ratio, int(arg[i])
            witness = {
                "inner": (int(table.centers[i]), float(table.radii[i])),
                "outer": (int(table.centers[j]), float(table.radii[j])),
                "measure_ratio": float(table.measures[j] / table.measures[i]),
                "bound": float(C_d * (table.radii[j] / table.radii[i]) ** exponent),
            }
    return NestedBallReport(worst <= 1.0 + 1e-12, worst, witness, checked)


def ball_chain_check(space: QuasimetricSpace) -> BallChainReport:
    """Check B(x,r) within B(y, C_t(C_s+1) r) within B(x, a_bar r) for y in B(x,r).

    Runs over every representative ball and every member y.  Both inclusions
    follow from the minimality of C_t and C_s, so the scan is expected to
    pass with zero failures.

    The scan goes one center x at a time and holds O(n^2) values: the pairs
    (ball, member) of x, in the row-major order of the table's member masks,
    so the witness is the first failing pair of the whole table, and two
    n x n running maxima read at member counts.  Every step is a max, a
    comparison or an exact search, so no bit depends on the order.
    """
    C_t, C_s = quasimetric_constants(space)
    mid = C_t * (C_s + 1.0)
    a_bar = dilation_constants(space)[1]
    table = rep_balls(space)
    prof = prefix_profile(space)
    count = _strict_counter(prof)
    bounds = np.searchsorted(table.centers, np.arange(space.n + 1))
    checked = failures = 0
    witness = None
    for x in range(space.n):
        a, b = bounds[x], bounds[x + 1]
        counts = table.counts[a:b]
        balls, via = np.nonzero(prof.rank[x] < counts[:, None])
        r = table.radii[a:b][balls]
        # step 1: the largest d(y, z) over the members z of B(x, r)
        step1 = _running_max(space, x)[via, counts[balls] - 1] < mid * r
        # step 2: the largest d(x, z) over the z in B(y, mid r)
        step2 = _reach_from(space, x)[via, count(via, mid * r) - 1] < a_bar * r
        bad = np.flatnonzero(~(step1 & step2))
        checked += balls.size
        failures += bad.size
        if bad.size and witness is None:
            i = bad[0]
            witness = {"center": x, "radius": float(r[i]), "via": int(via[i]),
                       "step1": bool(step1[i]), "step2": bool(step2[i])}
    return BallChainReport(failures == 0, checked, failures, witness)


def geometry_constants(space: QuasimetricSpace) -> GeometryConstants:
    """All geometric constants of a space in one record."""
    C_t, C_s = quasimetric_constants(space)
    C_d = doubling_constant(space)
    fit = ahlfors_fit(space)
    N_0, a_bar = dilation_constants(space)
    return GeometryConstants(
        C_t=C_t,
        C_s=C_s,
        C_d=C_d,
        alpha_lower=fit.alpha_lower,
        c_low=fit.c_low,
        beta_upper=fit.beta_upper,
        c_up=fit.c_up,
        b_growth=fit.b_growth,
        N_0=N_0,
        a_bar=a_bar,
    )
