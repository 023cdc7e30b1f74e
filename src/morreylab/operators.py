"""Operators: maximal functions, potential kernels, singular integrals.

All operators act pointwise-exactly on finite spaces.  The two maximal
functions read the representative-ball tables of ``space.rep_balls``, so
their suprema over radii are evaluated on every constancy interval; no
sampling is involved.  Potential operators are dense kernel matrices
applied to f times the point weights, with the diagonal excluded
(integration over X minus the singleton).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import as_matrix, is_batch
from .space import BallTable, QuasimetricSpace, prefix_profile, rep_balls

__all__ = [
    "OperatorError",
    "maximal",
    "modified_maximal",
    "potential",
    "potential_matrix",
    "CZKernel",
    "hilbert_kernel",
    "cz_apply",
    "validate_cz_kernel",
    "l2_operator_norm",
]


class OperatorError(ValueError):
    """Raised on invalid operator parameters."""


# ---------------------------------------------------------------------------
# maximal functions


# elements of one block of centers' prefix sums in _max_ball_average
_AVERAGE_ELEMENTS = 1 << 16


def _max_ball_average(f, space: QuasimetricSpace, table: BallTable) -> np.ndarray:
    """Per center, the max over its balls of integral_B |f| dmu / dilated measure.

    A block of centers gathers |f| w in each center's distance order and
    takes one cumulative sum along it, which adds in the same order as a
    per-center sum; each ball's integral is its center's prefix sum at its
    member count.
    """
    F = as_matrix(f, space)
    n, m = F.shape
    av = np.abs(F) * space.weights[:, None]
    prof = prefix_profile(space)
    bounds = np.searchsorted(table.centers, np.arange(n + 1))
    out = np.zeros((n, m))
    step = max(1, _AVERAGE_ELEMENTS // ((n + 1) * m))
    for x0 in range(0, n, step):
        xs = np.arange(x0, min(n, x0 + step))
        xs = xs[bounds[xs] < bounds[xs + 1]]
        if xs.size == 0:
            continue
        cf = np.zeros((xs.size, n + 1, m))
        np.cumsum(av[prof.order[xs]], axis=1, out=cf[:, 1:])
        a, b = bounds[xs[0]], bounds[xs[-1] + 1]
        slot = np.searchsorted(xs, table.centers[a:b])
        avg = cf[slot, table.counts[a:b]] / table.dilated_measures[a:b, None]
        out[xs] = np.maximum.reduceat(avg, bounds[xs] - a, axis=0)
    return out if is_batch(f) else out[:, 0]


def maximal(f, space: QuasimetricSpace, *, radius_cap: str = "diameter") -> np.ndarray:
    """Centered maximal function sup_r (1/mu B(x,r)) integral_B |f| dmu.

    radius_cap "diameter" restricts to 0 < r < d_X, so balls that need
    r >= d_X (the prefix through the farthest points of a center) never
    enter; "none" allows all r > 0.
    """
    if radius_cap not in ("diameter", "none"):
        raise OperatorError(f"unknown radius cap {radius_cap!r}")
    return _max_ball_average(f, space, rep_balls(space, radius_cap=radius_cap))


def modified_maximal(f, space: QuasimetricSpace, N0: float) -> np.ndarray:
    """sup over r > 0 of (1/mu B(x, N0 r)) integral_{B(x,r)} |f| dmu.

    Radii are enumerated on the union of the jump thresholds of B(x, r) and
    B(x, N0 r), so the discrete max equals the supremum over all real radii.
    """
    if N0 < 1:
        raise OperatorError(f"dilation must be >= 1, got {N0:g}")
    return _max_ball_average(f, space, rep_balls(space, dilation=N0, radius_cap="none"))


# ---------------------------------------------------------------------------
# potential operators


def potential_matrix(space: QuasimetricSpace, kind: str, alpha: float,
                     gamma: float = 1.0) -> np.ndarray:
    """Kernel matrix with zero diagonal for the three potential kinds.

    "gamma-kernel": d(x,y)^(alpha - gamma); "measure-kernel":
    mu B(x, d(x,y))^(alpha - 1); "k-alpha": d(x,y)^(alpha - 1).
    """
    if not (np.isfinite(alpha) and alpha > 0):
        raise OperatorError(f"potential order alpha must be finite and positive, "
                            f"got {alpha:g}")
    if not np.isfinite(gamma):
        raise OperatorError(f"potential gamma must be finite, got {gamma:g}")
    key = ("potential", kind, alpha, gamma)
    cached = space._cache.get(key)
    if cached is not None:
        return cached
    D = space.dist
    n = space.n
    off = ~np.eye(n, dtype=bool)
    K = np.zeros((n, n))
    if kind == "gamma-kernel":
        K[off] = D[off] ** (alpha - gamma)
    elif kind == "k-alpha":
        K[off] = D[off] ** (alpha - 1.0)
    elif kind == "measure-kernel":
        K[off] = prefix_profile(space).point_measures[off] ** (alpha - 1.0)
    else:
        raise OperatorError(f"unknown potential kind {kind!r}")
    space._cache[key] = K
    return K


def potential(f, space: QuasimetricSpace, kind: str, alpha: float,
              gamma: float = 1.0):
    """Apply a potential operator: (Tf)(x) = sum_{y != x} K(x,y) f(y) w_y."""
    F = as_matrix(f, space)
    K = potential_matrix(space, kind, alpha, gamma)
    out = K @ (F * space.weights[:, None])
    return out if is_batch(f) else out[:, 0]


# ---------------------------------------------------------------------------
# singular kernels


@dataclass
class CZKernel:
    """Singular kernel matrix with an attached validation report.

    The report field is filled in by validate_cz_kernel; it stays None until
    then.
    """

    name: str
    matrix: np.ndarray
    report: dict | None = field(default=None, compare=False)


def hilbert_kernel(space: QuasimetricSpace) -> CZKernel:
    """Discrete Hilbert-transform kernel for line grids and circles.

    On a line grid the kernel is 1/(x - y).  On a circle it is the conjugate
    kernel (pi/L) cot(pi s / L) in the signed arc s, which is smooth across
    the antipodal cut where the naive 1/s kernel violates the regularity
    condition.
    """
    kind = space.metric.get("kind")
    n = space.n
    K = np.zeros((n, n))
    if kind == "euclidean":
        coords = space.coords
        if coords is None or coords.ndim != 1:
            raise OperatorError("euclidean Hilbert kernel needs 1-d coordinates")
        diff = coords[:, None] - coords[None, :]
        off = ~np.eye(n, dtype=bool)
        K[off] = 1.0 / diff[off]
        return CZKernel(name="hilbert", matrix=K)
    if kind == "circle":
        L = float(space.metric.get("circumference", 1.0))
        h = L / n
        idx = np.arange(n)
        steps = (idx[None, :] - idx[:, None]) % n
        s = steps * h
        s = np.where(s > L / 2.0, s - L, s)
        off = (steps != 0) & ~np.isclose(np.abs(s), L / 2.0)
        K[off] = (math.pi / L) / np.tan(math.pi * s[off] / L)
        # the antipodal point of an even circle sits exactly at the zero of
        # the cotangent
        return CZKernel(name="conjugate", matrix=K)
    raise OperatorError(f"no built-in singular kernel for metric kind {kind!r}")


def cz_apply(f, space: QuasimetricSpace, kernel: CZKernel):
    """(Tf)(x) = sum_{y != x} K(x,y) f(y) w_y."""
    F = as_matrix(f, space)
    K = np.array(kernel.matrix, dtype=float)
    np.fill_diagonal(K, 0.0)
    out = K @ (F * space.weights[:, None])
    return out if is_batch(f) else out[:, 0]


def _smoothness_triples(D, K, mus, separation):
    """t = d(x1,x2)/d(x2,y) and |K(x1,y) - K(x2,y)| mu B(x2, d(x2,y)) on the
    separated triples of distinct points, by x1, x2, then y; one pass per x1."""
    n = D.shape[0]
    ts, vals = [], []
    for x1 in range(n):
        sep = D >= separation * D[x1][:, None]
        sep[x1] = False
        sep[:, x1] = False
        np.fill_diagonal(sep, False)
        x2, y = np.nonzero(sep)
        ts.append(D[x1, x2] / D[x2, y])
        vals.append(np.abs(K[x1, y] - K[x2, y]) * mus[x2, y])
    return np.concatenate(ts), np.concatenate(vals)


def validate_cz_kernel(space: QuasimetricSpace, kernel: CZKernel,
                       separation: float = 2.0) -> dict:
    """Size, smoothness, doubling and Dini diagnostics for a kernel.

    Size: C_sz = max |K(x,y)| mu B(x, d(x,y)).  Smoothness: on triples with
    d(x2, y) >= separation * d(x1, x2) the difference |K(x1,y) - K(x2,y)|
    times mu B(x2, d(x2,y)) is binned by the ratio t = d(x1,x2)/d(x2,y) into
    dyadic bins, giving an empirical modulus omega(t).  The doubling of
    omega across bins and the Dini integral of omega(t)/t (piecewise-linear
    interpolant, integrated per dyadic piece) are reported, with a
    divergence flag when the log-log decay slope of omega over the smallest
    octaves falls below 1/2 (a modulus that flat makes omega(t)/t
    non-integrable).  The report is stored on the kernel.  The separation
    must be finite and positive (NaN selects no triple at all).
    """
    if not 0.0 < separation < math.inf:
        raise OperatorError(f"kernel separation must be finite and positive, "
                            f"got {separation:g}")
    K = np.array(kernel.matrix, dtype=float)
    np.fill_diagonal(K, 0.0)
    n = space.n
    D = space.dist
    mus = prefix_profile(space).point_measures
    off = ~np.eye(n, dtype=bool)
    size = np.abs(K[off]) * mus[off]
    k_sz = int(np.argmax(size))
    C_sz = float(size[k_sz])

    t, v = _smoothness_triples(D, K, mus, separation)
    report: dict = {"C_sz": C_sz, "separation": separation}
    if t.size:
        bins = np.floor(np.log2(t)).astype(int)
        omega_t, omega_v = [], []
        for b in sorted(set(bins.tolist())):
            mask = bins == b
            omega_t.append(2.0 ** (b + 0.5))
            omega_v.append(float(v[mask].max()))
        omega_t = np.asarray(omega_t)
        omega_v = np.asarray(omega_v)
        doubling = float(np.max(omega_v[1:] / np.maximum(omega_v[:-1], 1e-300))) \
            if len(omega_v) > 1 else 1.0
        # integrate omega(t)/t over the measured octave range only; the
        # behavior below the smallest resolved scale is judged from the decay
        # rate of omega there, not integrated.  omega is a + b s on each
        # piece, so omega(s)/s integrates to a ln(hi/lo) + b (hi - lo)
        lo, hi = omega_t[:-1], omega_t[1:]
        slope = np.diff(omega_v) / (hi - lo)
        pieces = (omega_v[:-1] - slope * lo) * np.log(hi / lo) + slope * (hi - lo)
        divergent = False
        small_slope = math.nan
        if len(omega_t) >= 2:
            half = max(2, len(omega_t) // 2)
            pos = omega_v[:half] > 0
            if pos.sum() >= 2:
                small_slope = float(np.polyfit(
                    np.log(omega_t[:half][pos]), np.log(omega_v[:half][pos]), 1)[0])
                # a modulus flat toward t = 0 makes omega(t)/t non-integrable
                divergent = small_slope < 0.5
        report.update({
            "omega_small_slope": small_slope,
            "omega_t": omega_t.tolist(),
            "omega": omega_v.tolist(),
            "omega_doubling": doubling,
            "dini_integral": float(sum(pieces)),
            "dini_pieces": [float(v) for v in pieces],
            "dini_divergence_suspected": divergent,
            "triples": int(t.size),
        })
    else:
        report.update({"omega_small_slope": math.nan, "omega_t": [],
                       "omega": [], "omega_doubling": 1.0,
                       "dini_integral": 0.0, "dini_pieces": [],
                       "dini_divergence_suspected": False, "triples": 0})
    report["l2_norm"] = l2_operator_norm(space, kernel)
    kernel.report = report
    return report


def l2_operator_norm(space: QuasimetricSpace, kernel: CZKernel,
                     tol: float = 1e-8, max_iter: int = 10000) -> float:
    """Operator norm on L2(mu) via power iteration on the symmetrized matrix."""
    K = np.array(kernel.matrix, dtype=float)
    np.fill_diagonal(K, 0.0)
    sw = np.sqrt(space.weights)
    A = sw[:, None] * K * sw[None, :]
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(space.n)
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        if abs(nw - last) <= tol * max(nw, 1.0):
            last = nw
            break
        last = nw
    return float(math.sqrt(last))
