"""Scale functions, epsilon grids, and exponent bookkeeping.

Grand norms take a supremum over an exponent shift epsilon in an interval
(0, s).  Two kinds of scale functions drive them: a grandifier weight that
must vanish at zero (role "phi") and a non-decreasing exponent shift applied
to the ball denominator (role "A").  Both are validated numerically on a
geometric grid reaching down to 1e-8 of the range, so misuse (a weight that
blows up near zero, a decreasing shift) fails at construction time, not deep
inside a norm evaluation.

The potential-operator setups pair source and target exponent shifts through
the maps phi_bar and phi_tilde, which solve the Sobolev relation
1/(q - eps) = 1/(p - eta) - alpha / ((1 - lam + A(eps)) gamma) for the shift
on the other side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ScaleError",
    "ScaleFunction",
    "make_scale_function",
    "EpsilonGrid",
    "build_epsilon_grid",
    "MorreyVariant",
    "GrandParams",
    "make_grand_params",
    "grid_for",
    "ShiftSchedule",
    "shift_schedule",
    "sobolev_exponent",
    "hedberg_exponents",
    "delta_exponent",
    "PotentialSetup",
    "make_potential_setup",
    "riesz_corollary_setup",
    "aux_eval",
    "invert_phi_bar",
    "check_admissibility",
    "FreeConstants",
    "ConstantValue",
    "theoretical_constant",
]


class ScaleError(ValueError):
    """Raised when a scale function fails its role validation."""


# ---------------------------------------------------------------------------
# scale functions


@dataclass(frozen=True)
class ScaleFunction:
    """Scalar function on (0, cap) with a validated role.

    Roles: "phi" (positive, finite, vanishing at zero), "A" (non-negative,
    non-decreasing, vanishing at zero; identically zero allowed), "weight"
    (positive and finite only).
    """

    kind: str
    role: str
    cap: float
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        y = self._eval(x)
        return float(y[0]) if scalar else y

    def _eval(self, x: np.ndarray) -> np.ndarray:
        k = self.kind
        p = self.params
        if k == "power":
            return p.get("c", 1.0) * x ** p["theta"]
        if k == "linear":
            return p["c"] * x
        if k == "affine-log":
            with np.errstate(divide="ignore"):
                logpart = 1.0 + np.log(1.0 / np.maximum(x, 1e-300))
            return p.get("c", 1.0) / logpart ** p.get("k", 1.0)
        if k == "constant":
            return np.full_like(x, p["c"])
        if k == "zero":
            return np.zeros_like(x)
        if k == "table":
            xs = np.concatenate([[0.0], np.asarray(p["eps"], dtype=float)])
            vs = np.concatenate([[0.0], np.asarray(p["vals"], dtype=float)])
            return np.interp(x, xs, vs)
        if k == "compose-inverse":
            return p["outer"](p["inner"](x))
        raise ScaleError(f"unknown scale kind {k!r}")

    def describe(self) -> str:
        k, p = self.kind, self.params
        if k == "power":
            c = p.get("c", 1.0)
            lead = "" if c == 1.0 else f"{c:g} * "
            return f"{lead}x^{p['theta']:g}"
        if k == "linear":
            return f"{p['c']:g} * x"
        if k == "affine-log":
            return f"{p.get('c', 1.0):g} / (1 + log(1/x))^{p.get('k', 1.0):g}"
        if k == "constant":
            return f"{p['c']:g}"
        if k == "zero":
            return "0"
        if k == "table":
            pts = ", ".join(f"{e:g}:{v:g}" for e, v in zip(p["eps"], p["vals"]))
            return f"table[{pts}]"
        if k == "compose-inverse":
            return p.get("label", "transported shift")
        return k


def _parse_shorthand(text: str) -> dict:
    """CLI shorthand: pow:theta[:c], lin:c, alog:c[:k], const:c, zero, table:x=v,..."""
    parts = text.split(":")
    head = parts[0]
    try:
        if head == "pow":
            spec = {"kind": "power", "theta": float(parts[1])}
            if len(parts) > 2:
                spec["c"] = float(parts[2])
            return spec
        if head == "lin":
            return {"kind": "linear", "c": float(parts[1])}
        if head == "alog":
            spec = {"kind": "affine-log", "c": float(parts[1])}
            if len(parts) > 2:
                spec["k"] = float(parts[2])
            return spec
        if head == "const":
            return {"kind": "constant", "c": float(parts[1])}
        if head == "zero":
            return {"kind": "zero"}
        if head == "table":
            eps, vals = [], []
            for pair in parts[1].split(","):
                e, v = pair.split("=")
                eps.append(float(e))
                vals.append(float(v))
            return {"kind": "table", "eps": eps, "vals": vals}
    except (IndexError, ValueError):
        # a missing field, a pair without "=" or a number that does not parse
        pass
    raise ScaleError(f"cannot parse scale shorthand {text!r}: expected pow:theta[:c], "
                     "lin:c, alog:c[:k], const:c, zero or table:x=v,...")


def _validation_grid(cap: float, count: int = 200) -> np.ndarray:
    lo = cap * 1e-8
    hi = cap * (1.0 - 1e-9)
    return np.exp(np.linspace(math.log(lo), math.log(hi), count))


def _deep_slope(grid: np.ndarray, vals: np.ndarray):
    """Log-log slope of the positive vals over the lower half of grid, or
    None with fewer than two positive values there."""
    deep = grid <= grid[len(grid) // 2]
    pos = vals[deep] > 0
    if pos.sum() < 2:
        return None
    return float(np.polyfit(np.log(grid[deep][pos]), np.log(vals[deep][pos]), 1)[0])


def _validate_role(fn: ScaleFunction) -> None:
    grid = _validation_grid(fn.cap)
    vals = fn(grid)
    if not np.all(np.isfinite(vals)):
        raise ScaleError(f"scale {fn.describe()} is not finite on (0, {fn.cap:g})")
    if fn.role == "weight":
        if np.any(vals <= 0):
            raise ScaleError(f"weight scale {fn.describe()} must be positive")
        return
    if fn.role == "A":
        if np.any(vals < 0):
            raise ScaleError(f"shift scale {fn.describe()} must be non-negative")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(vals.max()))):
            raise ScaleError(f"shift scale {fn.describe()} must be non-decreasing")
        slope = _deep_slope(grid, vals)
        if slope is not None and slope <= 1e-3:
            raise ScaleError(f"shift scale {fn.describe()} does not vanish near 0")
        return
    if fn.role == "phi":
        if np.any(vals <= 0):
            raise ScaleError(f"grandifier {fn.describe()} must be positive on (0, {fn.cap:g})")
        slope = _deep_slope(grid, vals)
        if slope <= -1e-3:
            raise ScaleError(f"grandifier {fn.describe()} is unbounded near 0")
        if slope <= 1e-3:
            raise ScaleError(f"grandifier {fn.describe()} does not vanish near 0")
        return
    raise ScaleError(f"unknown scale role {fn.role!r}")


def make_scale_function(spec, role: str, cap: float) -> ScaleFunction:
    """Build and role-validate a scale function on (0, cap).

    ``spec`` may be a dict, a shorthand string, a number (constant), or an
    existing ScaleFunction (revalidated for the new role and cap).
    """
    if cap <= 0:
        raise ScaleError(f"scale domain cap must be positive, got {cap:g}")
    if isinstance(spec, ScaleFunction):
        fn = replace(spec, role=role, cap=cap)
    else:
        given = spec
        if isinstance(spec, str):
            spec = _parse_shorthand(spec)
        elif isinstance(spec, (int, float)):
            spec = {"kind": "constant", "c": float(spec)}
        spec = dict(spec)
        kind = spec.pop("kind")
        if kind == "table" and (len(spec["eps"]) != len(spec["vals"]) or not
                                np.all(np.diff(spec["eps"], prepend=0.0) > 0)):
            raise ScaleError(f"table scale {given!r} needs positive, strictly "
                             "increasing eps with one value each")
        fn = ScaleFunction(kind=kind, role=role, cap=cap, params=spec)
    _validate_role(fn)
    return fn


# ---------------------------------------------------------------------------
# epsilon grids


@dataclass(frozen=True)
class EpsilonGrid:
    """Node set inside (0, cap), optionally including cap itself.

    Nodes mix a geometric sweep (resolving behavior near zero) with a uniform
    sweep (resolving the bulk).  ``refine`` inserts geometric and arithmetic
    midpoints, so refined grids contain the original nodes exactly and any
    supremum measured on the grid is non-decreasing under refinement.
    """

    nodes: np.ndarray
    cap: float
    closed: bool

    @property
    def count(self) -> int:
        return int(self.nodes.size)

    def refine(self) -> EpsilonGrid:
        ns = self.nodes
        geo = np.sqrt(ns[:-1] * ns[1:])
        ari = (ns[:-1] + ns[1:]) / 2.0
        merged = np.unique(np.concatenate([ns, geo, ari]))
        return EpsilonGrid(nodes=merged, cap=self.cap, closed=self.closed)


def build_epsilon_grid(cap: float, count: int = 64, closed: bool = False) -> EpsilonGrid:
    if cap <= 0:
        raise ScaleError(f"epsilon range cap must be positive, got {cap:g}")
    if count < 2:
        raise ScaleError(f"an epsilon grid needs a count of at least 2, got {count}")
    lo = cap * 1e-6
    hi = cap * (1.0 - 1e-9)
    geo = np.exp(np.linspace(math.log(lo), math.log(hi), count))
    uni = np.linspace(cap / count, hi, count)
    nodes = np.unique(np.concatenate([geo, uni]))
    if closed:
        nodes = np.unique(np.append(nodes, cap))
    return EpsilonGrid(nodes=nodes, cap=cap, closed=closed)


# ---------------------------------------------------------------------------
# grand norm parameter bundles


@dataclass(frozen=True)
class MorreyVariant:
    """Ball denominator choice for a Morrey-type norm.

    kind "measure": denominator mu B(x, r); kind "radius": denominator
    r^gamma; kind "modified": denominator mu B(x, dilation * r).  The radius
    range is (0, diameter) except for the modified kind, which defaults to
    all r > 0; radius_cap "diameter" or "none" overrides that.
    """

    kind: str = "measure"
    gamma: float = 1.0
    dilation: float = 1.0
    radius_cap: str = "auto"

    def __post_init__(self):
        if self.kind not in ("measure", "radius", "modified"):
            raise ScaleError(f"unknown Morrey variant {self.kind!r}")
        # written so that NaN fails too
        if self.kind == "radius" and not 0.0 < self.gamma < math.inf:
            raise ScaleError(f"radius variant needs a finite gamma > 0, got {self.gamma:g}")
        if self.kind == "modified" and not 1.0 <= self.dilation < math.inf:
            raise ScaleError("modified variant needs a finite dilation >= 1, "
                             f"got {self.dilation:g}")
        if self.radius_cap not in ("auto", "diameter", "none"):
            raise ScaleError(f"unknown radius cap {self.radius_cap!r}")

    def resolved_cap(self) -> str:
        if self.radius_cap != "auto":
            return self.radius_cap
        return "none" if self.kind == "modified" else "diameter"


@dataclass(frozen=True)
class GrandParams:
    """Parameters of one grand Morrey norm.

    ``closed_grid`` makes the shift range (0, s_max] instead of (0, s_max),
    which is the convention of the modified-norm family.  ``shift_schedule``
    keeps the schedules it builds for these parameters in ``_schedules``.
    """

    p: float
    lam: float
    phi: ScaleFunction
    A: ScaleFunction
    variant: MorreyVariant
    s_max: float
    grid_count: int = 64
    closed_grid: bool = False
    _schedules: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)


def _shift_limit(A: ScaleFunction, lam: float, cap: float) -> float:
    """Largest x in (0, cap] with A(x) <= lam, for non-decreasing A."""
    if A(cap) <= lam:
        return cap
    tiny = cap * 1e-12
    if A(tiny) > lam:
        raise ScaleError(
            f"grandification range empty: shift {A.describe()} exceeds lam={lam:g} "
            "arbitrarily close to 0")
    lo, hi = tiny, cap
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if A(mid) <= lam:
            lo = mid
        else:
            hi = mid
    return lo


def make_grand_params(p: float, lam: float, phi_spec="pow:1", A_spec="zero",
                      variant: MorreyVariant | None = None,
                      grid_count: int = 64, closed_grid: bool = False) -> GrandParams:
    if p <= 1:
        raise ScaleError(f"grand norm needs p > 1, got {p:g}")
    if not 0 <= lam < 1:
        raise ScaleError(f"Morrey parameter must satisfy 0 <= lam < 1, got {lam:g}")
    if variant is None:
        variant = MorreyVariant()
    cap = p - 1.0
    phi = make_scale_function(phi_spec, "phi", cap)
    A = make_scale_function(A_spec, "A", cap)
    s_max = _shift_limit(A, lam, cap)
    return GrandParams(p=p, lam=lam, phi=phi, A=A, variant=variant,
                       s_max=s_max, grid_count=grid_count, closed_grid=closed_grid)


def grid_for(params: GrandParams) -> EpsilonGrid:
    return build_epsilon_grid(params.s_max, count=params.grid_count,
                              closed=params.closed_grid)


@dataclass(frozen=True, eq=False)
class ShiftSchedule:
    """Shifted exponent pairs and weights of a grand norm at fixed nodes.

    Entry i belongs to ``nodes[i]`` = eps: ``p_eff`` = p - eps, ``lam_eff`` =
    lam - A(eps) and ``weight`` = phi(eps)^(1/(p - eps)).
    """

    nodes: np.ndarray
    p_eff: np.ndarray
    lam_eff: np.ndarray
    weight: np.ndarray
    variant: MorreyVariant


def shift_schedule(params: GrandParams, nodes) -> ShiftSchedule:
    """The shift schedule of ``params`` at ``nodes``, built once per node set.

    A and phi are evaluated once on the node array and the root
    phi(eps)^(1/(p - eps)) in Python's float pow, node by node, so every entry
    has the bits of a node-by-node evaluation.
    """
    nodes = np.array(nodes, dtype=float)
    key = nodes.tobytes()
    sched = params._schedules.get(key)
    if sched is None:
        p_eff = params.p - nodes
        weight = np.array([f ** (1.0 / pe) for f, pe in zip(
            params.phi(nodes).tolist(), p_eff.tolist())], dtype=float)
        sched = ShiftSchedule(nodes=nodes, p_eff=p_eff, weight=weight,
                              lam_eff=params.lam - params.A(nodes),
                              variant=params.variant)
        params._schedules[key] = sched
    return sched


# ---------------------------------------------------------------------------
# exponent relations


def sobolev_exponent(p: float, lam: float, alpha: float, gamma: float = 1.0) -> float:
    """q with 1/q = 1/p - alpha / ((1 - lam) gamma)."""
    if p <= 1:
        raise ScaleError(f"need p > 1, got {p:g}")
    if not 0 <= lam < 1:
        raise ScaleError(f"need 0 <= lam < 1, got {lam:g}")
    if alpha <= 0 or gamma <= 0:
        raise ScaleError("need alpha > 0 and gamma > 0")
    m = (1.0 - lam) * gamma
    if alpha * p >= m:
        raise ScaleError(
            f"Sobolev relation needs alpha p < (1 - lam) gamma; got {alpha * p:g} >= {m:g}")
    return p * m / (m - alpha * p)


def hedberg_exponents(p: float, lam: float, alpha: float) -> tuple[float, float]:
    """Interpolation pair (1 - t, t) with t = p alpha / (1 - lam)."""
    t = p * alpha / (1.0 - lam)
    if not 0 < t < 1:
        raise ScaleError(
            f"pointwise domination needs alpha < (1 - lam)/p; got t = {t:g}")
    return (1.0 - t, t)


def delta_exponent(p: float, lam: float, A: ScaleFunction, eps: float, sigma: float) -> float:
    """Hoelder gap (1 + A(eps) - lam)/(p - eps) - (1 + A(sigma) - lam)/(p - sigma)."""
    return (1.0 + A(eps) - lam) / (p - eps) - (1.0 + A(sigma) - lam) / (p - sigma)


# ---------------------------------------------------------------------------
# potential setups


@dataclass(frozen=True)
class PotentialSetup:
    """Shared parameter bundle for the potential-operator theorems.

    ``pairing`` names the exponent passage used between the two grand norms:
    "bar" pairs a target shift eps with the source shift phi_bar(eps), "tilde"
    pairs a source shift x with the target shift phi_tilde(x).  ``pair`` maps
    target shifts eps (an array) to source shifts eta either way: phi_bar, or
    the batched, memoised inverse of phi_tilde that the moved shift composes.
    A_source and A_target are tied through that map, so the per-shift Sobolev
    relation 1/(q - eps) = 1/(p - eta) - alpha/((1 - lam + A_target(eps))
    gamma) is exact along the pairing.
    """

    p: float
    q: float
    lam: float
    alpha: float
    gamma: float
    theta1: float
    theta2: float
    delta: float
    pairing: str
    pair: object
    A_source: ScaleFunction
    A_target: ScaleFunction
    B_est: float
    B_bound: float
    admissible: bool
    reasons: tuple[str, ...]


def _phi_bar_raw(x, p, q, lam, alpha, gamma, A_target):
    """Source shift eta with Sobolev exact at target shift x."""
    m = 1.0 - lam + A_target(x)
    return p - gamma * (q - x) * m / (gamma * m + alpha * (q - x))


def _phi_tilde_raw(x, p, q, lam, alpha, gamma, A_source):
    """Target shift with Sobolev exact at source shift x."""
    m = 1.0 - lam + A_source(x)
    denom = gamma * m - alpha * (p - x)
    if np.any(np.asarray(denom) <= 0):
        raise ScaleError("phi_tilde undefined: alpha (p - x) >= gamma (1 - lam + A(x))")
    return q - gamma * (p - x) * m / denom


def aux_eval(setup: PotentialSetup, which: str, x):
    """Evaluate one of the exponent passage maps at x (scalar or array).

    which: "phi-bar" (target shift -> source shift) or "phi-tilde" (source
    shift -> target shift).
    """
    x = np.asarray(x, dtype=float)
    if which == "phi-bar":
        out = _phi_bar_raw(x, setup.p, setup.q, setup.lam, setup.alpha,
                           setup.gamma, setup.A_target)
    elif which == "phi-tilde":
        out = _phi_tilde_raw(x, setup.p, setup.q, setup.lam, setup.alpha,
                             setup.gamma, setup.A_source)
    else:
        raise ScaleError(f"unknown passage map {which!r}")
    return float(out) if out.ndim == 0 else out


def _invert_increasing(fn, y, delta: float, top: float):
    """Solve fn(x) = y by bisection in (0, delta] for an array of targets y.

    fn is increasing, takes arrays and has fn(delta) = ``top``; targets at or
    beyond top clamp to delta, at or below zero to zero.  Each target takes
    the scalar steps (midpoint, ``fn(mid) < y``, at most 100, stop once hi -
    lo <= 1e-12 hi) and then freezes, so it gets the bits of a lone call.
    The result has the shape of y; a scalar y gives a numpy float.
    """
    y = np.asarray(y, dtype=float)
    t = y.ravel()
    lo, hi = np.full(t.shape, delta * 1e-18), np.full(t.shape, float(delta))
    live = np.flatnonzero(~(t <= 0) & ~(t >= top))
    for _ in range(100):
        if live.size == 0:
            break
        mid = (lo[live] + hi[live]) / 2.0
        below = fn(mid) < t[live]
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
        live = live[hi[live] - lo[live] > 1e-12 * hi[live]]
    x = np.where(t <= 0, 0.0, np.where(t >= top, delta, (lo + hi) / 2.0))
    return x.reshape(y.shape)[()]


def invert_phi_bar(setup: PotentialSetup, y: float) -> float:
    """Solve phi_bar(x) = y for x in (0, delta], by bisection.

    phi_bar is checked increasing on a grid at setup construction.  Values of
    y at or beyond phi_bar(delta) clamp to delta; values at or below zero
    clamp to zero.
    """
    bar = lambda x: aux_eval(setup, "phi-bar", x)
    return _invert_increasing(bar, y, setup.delta, bar(setup.delta))


def _estimate_shift_slope(A, delta: float, depth: int = 24) -> tuple[float, bool]:
    """Richardson estimate of lim (A(2x) - A(x))/x as x -> 0.

    Returns (estimate, converged).  Divergence (the sequence growing without
    settling) reports converged=False with the last value.
    """
    xs = delta / 2.0 ** np.arange(1, depth + 1)
    d = (np.asarray(A(2.0 * xs)) - np.asarray(A(xs))) / xs
    rich = 2.0 * d[1:] - d[:-1]
    for j in range(len(rich) - 1, 0, -1):
        if abs(rich[j] - rich[j - 1]) <= 1e-6 * max(1.0, abs(rich[j])):
            return float(rich[j]), True
    return float(rich[-1]), False


def check_admissibility(p: float, lam: float, alpha: float, gamma: float,
                        theta1: float, theta2: float, delta: float,
                        A_given: ScaleFunction, mode: str) -> tuple[float, float, bool, tuple[str, ...]]:
    """Admissibility conditions on the given shift for the two passage modes.

    Returns (B_est, B_bound, admissible, reasons).  mode "thm-4.4" bounds the
    doubling rate B of the target shift by (1 - lam)^2 / (alpha q^2) and
    needs theta2 >= theta1 (1 + alpha q / ((1 - lam) gamma)); mode "thm-4.5"
    only needs B >= 0 for the source shift and the strict inequality
    theta2 > theta1 (1 + alpha q / (1 - lam)).
    """
    q = sobolev_exponent(p, lam, alpha, gamma)
    reasons: list[str] = []
    grid = _validation_grid(delta, 120)
    vals = np.asarray(A_given(grid))
    if np.any(~np.isfinite(vals)) or np.any(vals < 0):
        reasons.append(f"{mode} (i): shift not finite and non-negative on (0, {delta:g}]")
    diffs = np.diff(vals)
    if np.any(diffs < -1e-12):
        reasons.append(f"{mode} (i): shift not non-decreasing")
    # numerical C1 check: second differences of a C1 function on a geometric
    # grid stay comparable to first differences
    if vals[-1] > 0 and np.any(~np.isfinite(np.diff(vals, 2))):
        reasons.append(f"{mode} (i): shift not numerically C1")
    slope = _deep_slope(grid, vals) if vals[-1] > 0 else None
    if slope is not None and slope <= 1e-3:
        reasons.append(f"{mode} (ii): shift does not vanish at 0")

    B_est, converged = _estimate_shift_slope(A_given, delta)
    if mode == "thm-4.4":
        B_bound = (1.0 - lam) ** 2 / (alpha * q * q)
        if not converged:
            reasons.append(f"{mode} (iii): doubling rate of the shift does not converge")
        elif not 0 <= B_est < B_bound:
            reasons.append(
                f"{mode} (iii): B >= (1-lambda)^2/(alpha q^2) (B={B_est:.6g}, bound={B_bound:.6g})")
        theta_floor = theta1 * (1.0 + alpha * q / ((1.0 - lam) * gamma))
        if theta2 < theta_floor - 1e-12:
            reasons.append(
                f"{mode} (v): theta2 < theta1 (1 + alpha q/((1-lambda) gamma)) "
                f"({theta2:g} < {theta_floor:g})")
    elif mode == "thm-4.5":
        B_bound = math.inf
        if converged and B_est < -1e-9:
            reasons.append(f"{mode} (iii): B < 0 (B={B_est:.6g})")
        theta_floor = theta1 * (1.0 + alpha * q / (1.0 - lam))
        if theta2 <= theta_floor + 1e-12:
            reasons.append(
                f"{mode} (v): theta2 must exceed theta1 (1 + alpha q/(1-lambda)) "
                f"({theta2:g} <= {theta_floor:g})")
    else:
        raise ScaleError(f"unknown admissibility mode {mode!r}")
    return B_est, B_bound, not reasons, tuple(reasons)


def make_potential_setup(p: float, lam: float, alpha: float, gamma: float,
                         A_spec, theta1: float, theta2: float, delta: float,
                         mode: str = "thm-4.4") -> PotentialSetup:
    """Build the paired-shift setup for the potential theorems.

    In mode "thm-4.4" the given shift is the target one and the source shift
    is transported back through phi_bar.  In mode "thm-4.5" the given shift
    is the source one and the target shift is transported through phi_tilde.
    The relevant passage map is verified increasing on a geometric grid.
    """
    q = sobolev_exponent(p, lam, alpha, gamma)
    if delta <= 0 or delta >= min(p - 1.0, q - 1.0, q - p):
        raise ScaleError(
            f"delta must lie in (0, min(p-1, q-1, q-p)) = "
            f"(0, {min(p - 1.0, q - 1.0, q - p):g}), got {delta:g}")
    A_given = make_scale_function(A_spec, "A", delta * (1.0 + 1e-9))
    B_est, B_bound, admissible, reasons = check_admissibility(
        p, lam, alpha, gamma, theta1, theta2, delta, A_given, mode)

    bar = mode == "thm-4.4"
    if bar:
        raw, name, hint = _phi_bar_raw, "phi_bar", (
            "; shift grows too fast for the exponent passage")
    else:
        raw, name, hint = _phi_tilde_raw, "phi_tilde", ""
    passage = lambda x: raw(x, p, q, lam, alpha, gamma, A_given)
    grid = _validation_grid(delta, 120)
    if np.any(np.diff(passage(grid)) <= 0):
        raise ScaleError(f"{name} is not increasing on (0, delta]{hint}")
    top = float(passage(delta))
    memo = {}  # each distinct shift is bisected once, a call's new ones in one batch
    def inverse(y):
        flat = np.asarray(y, dtype=float).ravel().tolist()
        new = [v for v in dict.fromkeys(flat) if v not in memo]
        memo.update(zip(new, _invert_increasing(passage, new, delta, top).tolist()))
        return np.reshape([memo[v] for v in flat], np.shape(y))
    label = f"{'target' if bar else 'source'} shift transported through {name}"
    moved = ScaleFunction(kind="compose-inverse", role="A", cap=top,
                          params={"inner": inverse, "outer": A_given,
                                  "label": label})
    return PotentialSetup(
        p=p, q=q, lam=lam, alpha=alpha, gamma=gamma,
        theta1=theta1, theta2=theta2, delta=delta,
        pairing="bar" if bar else "tilde", pair=passage if bar else inverse,
        A_source=moved if bar else A_given,
        A_target=A_given if bar else moved,
        B_est=B_est, B_bound=B_bound, admissible=admissible, reasons=reasons)


def riesz_corollary_setup() -> PotentialSetup:
    """Reference setup: p=2, lam=1/2, alpha=1/8, gamma=1, linear target shift."""
    return make_potential_setup(
        p=2.0, lam=0.5, alpha=0.125, gamma=1.0,
        A_spec={"kind": "linear", "c": 0.05},
        theta1=1.0, theta2=2.0, delta=0.1, mode="thm-4.4")


# ---------------------------------------------------------------------------
# closed-form constants


@dataclass(frozen=True)
class FreeConstants:
    """Free multiplicative constants left symbolic by the estimates."""

    c0: float = 1.0
    c_cz: float = 1.0
    c_riesz: float = 1.0
    b0: float = 1.0
    C_alpha: float = 1.0
    c_alpha_dom: float = 1.0


@dataclass(frozen=True)
class ConstantValue:
    """One evaluated closed-form constant."""

    kind: str
    numeric: float
    expression: str
    symbols: dict


def _conj(p: float) -> float:
    return p / (p - 1.0)


def theoretical_constant(kind: str, *, p: float, lam: float = 0.0,
                         q: float | None = None, alpha: float | None = None,
                         gamma: float = 1.0, C_d: float | None = None,
                         b: float | None = None, N0: float | None = None,
                         eps: float = 0.0, A_eps: float = 0.0,
                         consts: FreeConstants | None = None) -> ConstantValue:
    """Closed-form operator norm bounds, optionally with an exponent shift.

    With eps > 0 the formula is evaluated at the shifted exponents
    (p - eps, lam - A_eps shifted ball exponent), which is how the per-shift
    constants inside the grand assemblies are produced.
    """
    if consts is None:
        consts = FreeConstants()
    pe = p - eps
    le = lam - A_eps
    if pe <= 1:
        raise ScaleError(f"shifted exponent must stay above 1, got {pe:g}")

    if kind == "maximal":
        if C_d is None:
            raise ScaleError("maximal constant needs C_d")
        val = C_d ** (le / pe) * consts.c0 * _conj(pe) ** (1.0 / pe) + 1.0
        return ConstantValue(
            kind, float(val),
            "C_d^(lam/p) c0 p'^(1/p) + 1",
            {"C_d": C_d, "p": pe, "lam": le, "c0": consts.c0})

    if kind == "cz":
        if abs(pe - 2.0) < 1e-15:
            return ConstantValue(
                kind, math.inf,
                "diverges at exponent 2 (both branch constants blow up)",
                {"p": pe, "lam": le, "c_cz": consts.c_cz})
        if pe < 2.0:
            val = p / (p - eps - 1.0) + pe / (2.0 - pe) + (pe - le + 1.0) / (1.0 - le)
            expr = "p/(p-eps-1) + (p-eps)/(2-p+eps) + (p-eps-lam+A+1)/(1-lam+A)"
        else:
            val = pe + pe / (pe - 2.0) + (pe - le + 1.0) / (1.0 - le)
            expr = "(p-eps) + (p-eps)/(p-eps-2) + (p-eps-lam+A+1)/(1-lam+A)"
        val *= consts.c_cz
        return ConstantValue(kind, float(val), expr,
                             {"p": pe, "lam": le, "c_cz": consts.c_cz})

    if kind == "riesz":
        if q is None or alpha is None:
            raise ScaleError("riesz constant needs q and alpha")
        m = (1.0 - le) * gamma
        if m <= alpha * pe:
            raise ScaleError("riesz constant needs alpha p < (1 - lam) gamma")
        val = consts.c_riesz * m / (alpha * (m - alpha * pe)) \
            * (_conj(pe) ** (1.0 / q) + 1.0)
        return ConstantValue(
            kind, float(val),
            "c_riesz (1-lam) gamma / (alpha ((1-lam) gamma - alpha p)) (p'^(1/q) + 1)",
            {"p": pe, "q": q, "lam": le, "alpha": alpha, "gamma": gamma,
             "c_riesz": consts.c_riesz})

    if kind == "riesz_measure":
        if q is None or alpha is None:
            raise ScaleError("riesz_measure constant needs q and alpha")
        if 1.0 - le - alpha * pe <= 0:
            raise ScaleError("riesz_measure constant needs alpha p < 1 - lam")
        val = consts.b0 * (consts.C_alpha + pe / (1.0 - le - alpha * pe)) \
            * (_conj(pe) ** (1.0 / q) + 1.0)
        return ConstantValue(
            kind, float(val),
            "b0 (C_alpha + p/(1-lam-alpha p)) (p'^(1/q) + 1)",
            {"p": pe, "q": q, "lam": le, "alpha": alpha,
             "b0": consts.b0, "C_alpha": consts.C_alpha})

    if kind == "lp_modified_maximal":
        val = 2.0 * _conj(pe) ** (1.0 / pe)
        return ConstantValue(kind, float(val), "2 p'^(1/p)", {"p": pe})

    if kind == "morrey_modified_maximal":
        val = 1.0 + 2.0 * _conj(pe) ** (1.0 / pe)
        return ConstantValue(kind, float(val), "1 + 2 p'^(1/p)", {"p": pe, "lam": le})

    if kind == "hedberg":
        if alpha is None or b is None or N0 is None:
            raise ScaleError("hedberg constant needs alpha, b, N0")
        if 1.0 - le - alpha * pe <= 0:
            raise ScaleError("hedberg constant needs alpha p < 1 - lam")
        inner = b * N0 / alpha \
            + b ** (1.0 / _conj(pe) - le / pe) * N0 ** (le / pe) * pe / (1.0 - le - alpha * pe)
        val = 4.0 * consts.c_alpha_dom * inner
        return ConstantValue(
            kind, float(val),
            "4 (b N0/alpha + b^(1/p' - lam/p) N0^(lam/p) p/(1-lam-alpha p))",
            {"p": pe, "lam": le, "alpha": alpha, "b": b, "N0": N0,
             "c_alpha_dom": consts.c_alpha_dom})

    if kind == "k_alpha":
        if alpha is None or b is None or N0 is None or q is None:
            raise ScaleError("k_alpha constant needs alpha, b, N0, q")
        hed = theoretical_constant("hedberg", p=p, lam=lam, alpha=alpha, b=b,
                                   N0=N0, eps=eps, A_eps=A_eps, consts=consts)
        mm = theoretical_constant("morrey_modified_maximal", p=p, lam=lam,
                                  eps=eps, A_eps=A_eps, consts=consts)
        val = mm.numeric ** (pe / q) * hed.numeric
        return ConstantValue(
            kind, float(val),
            "(1 + 2 p'^(1/p))^(p/q) * hedberg",
            {"p": pe, "q": q, "lam": le, "alpha": alpha, "b": b, "N0": N0})

    raise ScaleError(f"unknown constant kind {kind!r}")
