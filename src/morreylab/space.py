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
    "Ball",
    "BallTable",
    "GeometryConstants",
    "AhlforsReport",
    "NestedBallReport",
    "BallChainReport",
    "PrefixProfile",
    "build_space",
    "ball",
    "representative_radii",
    "center_radii",
    "prefix_profile",
    "rep_balls",
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
]

RADIUS_SUP_CLOSED_FACTOR = 1.0 + 1e-9


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
class Ball:
    """Ball B(center, radius) with strict distance inequality."""

    center: int
    radius: float
    members: tuple[int, ...]
    measure: float


@dataclass(frozen=True)
class BallTable:
    """All representative balls of a space, one per radius constancy interval.

    ``dilation`` controls the companion ball B(center, dilation * radius)
    whose measure is stored in ``dilated_measures``.  With dilation 1 the two
    measure arrays coincide.  Radii are enumerated on the union of the jump
    thresholds of the ball and of its dilate, so both measures are exact step
    function values for every real radius in the represented interval.
    ``counts`` holds each ball's member count, so its members are the prefix
    ``prefix_profile(space).order[center, :count]``.
    """

    centers: np.ndarray
    radii: np.ndarray
    counts: np.ndarray
    masks: np.ndarray
    measures: np.ndarray
    dilation: float
    dilated_measures: np.ndarray
    masks_f: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def size(self) -> int:
        return self.centers.shape[0]


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
        mat = np.asarray(metric["matrix"], dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SpaceError("explicit metric matrix must be square")
        if mat.shape[0] != len(points):
            raise SpaceError("metric matrix size does not match the point count")
        return mat
    if kind == "circle":
        return _circle_matrix(len(points), float(metric.get("circumference", 1.0)))
    coords = np.asarray(points, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    if kind == "euclidean":
        return _euclidean_matrix(coords)
    if kind == "snowflake":
        s = float(metric["exponent"])
        if s <= 0:
            raise SpaceError("snowflake exponent must be positive")
        return _euclidean_matrix(coords) ** s
    raise SpaceError(f"unknown metric kind {kind!r}")


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
    w = np.asarray(weights, dtype=float)
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


def load_space(path) -> QuasimetricSpace:
    data = json.loads(Path(path).read_text())
    if data.get("format") != "quasimetric-space":
        raise SpaceError(f"{path}: not a space file")
    return build_space(data["points"], data["metric"], data["weights"], name=data.get("name", ""))


# ---------------------------------------------------------------------------
# balls and representative radii


def ball(space: QuasimetricSpace, center: int, radius: float) -> Ball:
    """Ball around ``center`` with strict radius: {y : d(center, y) < radius}."""
    if not 0 <= center < space.n:
        raise SpaceError(f"center index {center} out of range")
    if radius <= 0:
        raise SpaceError("ball radius must be positive")
    mask = space.dist[center] < radius
    members = tuple(int(i) for i in np.nonzero(mask)[0])
    return Ball(center, float(radius), members, float(space.weights[mask].sum()))


def representative_radii(thresholds: np.ndarray, upper: float | None, closed: bool = False) -> np.ndarray:
    """One radius per constancy interval of the given jump thresholds.

    Thresholds at or above ``upper`` are dropped; midpoints of consecutive
    intervals are returned, plus one representative between the largest kept
    threshold and ``upper``.  With ``upper=None`` the radii run over (0, inf)
    and the final representative sits past the largest threshold, where all
    ball quantities saturate.  ``closed`` appends a radius just above
    ``upper`` so the supremum effectively includes the diameter.
    """
    ts = np.asarray(thresholds, dtype=float)
    ts = np.unique(ts[ts > 0])
    if upper is None:
        top = 1.5 * ts[-1] if ts.size else 1.0
        edges = np.concatenate([[0.0], ts, [top]])
        reps = (edges[:-1] + edges[1:]) / 2.0
        reps[-1] = top
        return reps
    ts = ts[ts < upper]
    edges = np.concatenate([[0.0], ts, [upper]])
    reps = (edges[:-1] + edges[1:]) / 2.0
    if closed:
        reps = np.append(reps, upper * RADIUS_SUP_CLOSED_FACTOR)
    return reps


def center_radii(space: QuasimetricSpace, center: int, *, dilation: float = 1.0,
                 upper: float | None = "diameter", closed: bool = False) -> np.ndarray:
    """Representative radii for balls around one center.

    With ``dilation`` != 1 the jump thresholds of the dilated ball are merged
    in, so B(center, r) and B(center, dilation * r) are both exact on each
    representative.
    """
    if upper == "diameter":
        upper = space.diameter
        if upper <= 0:
            return np.asarray([], dtype=float)
    d = space.dist[center]
    ts = d[d > 0]
    if dilation != 1.0:
        ts = np.concatenate([ts, ts / dilation])
    return representative_radii(ts, upper, closed=closed)


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


def rep_balls(space: QuasimetricSpace, *, dilation: float = 1.0,
              radius_cap: str = "diameter", closed: bool = False,
              dedupe: bool = False) -> BallTable:
    """Enumerate every representative ball of the space.

    ``radius_cap`` is "diameter" for radii in (0, d_X) or "none" for radii in
    (0, inf).  ``dedupe`` drops balls that repeat the same member set and the
    same (plain, dilated) measure pair, which leaves every norm built on the
    table unchanged.
    """
    key = ("rep_balls", dilation, radius_cap, closed, dedupe)
    cached = space._cache.get(key)
    if cached is not None:
        return cached
    upper = "diameter" if radius_cap == "diameter" else None
    prof = prefix_profile(space)
    per_center = [center_radii(space, x, dilation=dilation, upper=upper, closed=closed)
                  for x in range(space.n)]
    centers = np.repeat(np.arange(space.n), [r.size for r in per_center])
    radii = np.concatenate(per_center)
    counts = np.concatenate([prof.counts(x, r) for x, r in enumerate(per_center)])
    dil_counts = np.concatenate([prof.counts(x, dilation * r)
                                 for x, r in enumerate(per_center)])
    masks = prof.rank[centers] < counts[:, None]
    measures = prof.cum[centers, counts]
    dil = prof.cum[centers, dil_counts]
    if dedupe:
        packed = np.packbits(masks, axis=1)
        seen: dict[bytes, int] = {}
        keep = []
        for i in range(len(centers)):
            k = packed[i].tobytes() + np.float64(measures[i]).tobytes() + np.float64(dil[i]).tobytes()
            if k not in seen:
                seen[k] = i
                keep.append(i)
        keep = np.asarray(keep, dtype=int)
        centers, radii, counts, masks = centers[keep], radii[keep], counts[keep], masks[keep]
        measures, dil = measures[keep], dil[keep]
    table = BallTable(
        centers=centers, radii=radii, counts=counts, masks=masks, measures=measures,
        dilation=dilation, dilated_measures=dil, masks_f=masks.astype(float),
    )
    space._cache[key] = table
    return table


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
    d_X = space.diameter
    if d_X > 0:
        prof = prefix_profile(space)
        for x in range(space.n):
            pos = prof.dists[x][prof.dists[x] > 0]
            reps = representative_radii(np.concatenate([pos, pos / 2.0]), d_X)
            ratios = prof.measures(x, 2.0 * reps) / prof.measures(x, reps)
            k = int(np.argmax(ratios))
            best[x], at[x] = ratios[k], reps[k]
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

    prof = prefix_profile(space)
    pts_r, pts_mu, pts_center = [], [], []
    for x in range(space.n):
        reps = representative_radii(prof.dists[x][prof.dists[x] > 0], d_X)
        radii = reps[(reps >= lo) & (reps <= hi)]
        if radii.size == 0:
            continue
        mus = prof.measures(x, radii)
        keep = mus > 0
        pts_r.append(radii[keep])
        pts_mu.append(mus[keep])
        pts_center.append(np.full(int(keep.sum()), x))
    if not pts_r:
        raise SpaceError("no representative radius falls inside the window")
    r = np.concatenate(pts_r)
    mu = np.concatenate(pts_mu)
    centers = np.concatenate(pts_center)
    if r.size == 0:
        raise SpaceError("no representative radius falls inside the window")

    fitted = alpha is None and beta is None
    if fitted:
        slope = float(np.polyfit(np.log(r), np.log(mu), 1)[0])
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


def _ball_reach(space: QuasimetricSpace, table: BallTable) -> np.ndarray:
    """[i, x]: the largest d(x, z) over the members z of ball i."""
    reach = np.empty((table.size, space.n))
    for y in range(space.n):
        rows = np.flatnonzero(table.centers == y)
        reach[rows] = _running_max(space, y)[:, table.counts[rows] - 1].T
    return reach


def nested_ball_bound_check(space: QuasimetricSpace, C_d: float | None = None) -> NestedBallReport:
    """Check mu B(x,R) / mu B(y,r) <= C_d (R/r)^(log2 C_d) on nested representative pairs.

    A pair qualifies when the member set of B(y, r) is contained in that of
    B(x, R) and r <= R.  The worst ratio of the two sides is reported with a
    witness.
    """
    if C_d is None:
        C_d = doubling_constant(space)
    table = rep_balls(space)
    nb = table.size
    if nb == 0:
        return NestedBallReport(True, 0.0, {}, 0)
    exponent = math.log2(C_d) if C_d > 1 else 0.0
    reach = _ball_reach(space, table)
    log_mu = np.log(table.measures)
    log_r = np.log(table.radii)
    worst = 0.0
    witness = {}
    checked = 0
    block = max(1, int(2**22 // max(nb, 1)))
    for start in range(0, nb, block):
        stop = min(start + block, nb)
        subset = reach[start:stop][:, table.centers] < table.radii[None, :]
        radius_ok = table.radii[start:stop, None] <= table.radii[None, :]
        valid = subset & radius_ok
        checked += int(valid.sum())
        if not valid.any():
            continue
        lhs = log_mu[None, :] - log_mu[start:stop, None]
        rhs = math.log(C_d) + exponent * (log_r[None, :] - log_r[start:stop, None])
        slack = np.where(valid, lhs - rhs, -np.inf)
        k = np.unravel_index(int(np.argmax(slack)), slack.shape)
        ratio = float(np.exp(slack[k]))
        if ratio > worst:
            worst = ratio
            i, j = int(k[0] + start), int(k[1])
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
    """
    C_t, C_s = quasimetric_constants(space)
    mid = C_t * (C_s + 1.0)
    a_bar = dilation_constants(space)[1]
    table = rep_balls(space)
    prof = prefix_profile(space)
    # far[b, y]: the largest d(x_b, z) over z in B(y, mid r_b), for members y
    far = np.zeros((table.size, space.n))
    for y in range(space.n):
        rows = np.flatnonzero(table.masks[:, y])
        k = prof.counts(y, mid * table.radii[rows])
        far[rows, y] = _running_max(space, y)[table.centers[rows], k - 1]
    balls, via = np.nonzero(table.masks)
    r = table.radii[balls]
    step1 = _ball_reach(space, table)[balls, via] < mid * r
    step2 = far[balls, via] < a_bar * r
    bad = np.flatnonzero(~(step1 & step2))
    witness = None
    if bad.size:
        i = bad[0]
        witness = {"center": int(table.centers[balls[i]]), "radius": float(r[i]),
                   "via": int(via[i]), "step1": bool(step1[i]), "step2": bool(step2[i])}
    return BallChainReport(bad.size == 0, int(balls.size), int(bad.size), witness)


def geometry_constants(space: QuasimetricSpace, alpha: float | None = None,
                       beta: float | None = None,
                       window: tuple[float, float] | None = None) -> GeometryConstants:
    """All geometric constants of a space in one record."""
    C_t, C_s = quasimetric_constants(space)
    C_d = doubling_constant(space)
    fit = ahlfors_fit(space, alpha=alpha, beta=beta, window=window)
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
