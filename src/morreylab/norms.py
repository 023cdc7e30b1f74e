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
pass over its shift schedule: the ball integrals of all nodes in a block are
one stacked matrix product, which keeps the per-node BLAS call (a
matrix-vector product for one column, a matrix product for several) and so
the bits of a node-by-node evaluation.  ProfileScreen trades those bits for
speed where a bound suffices: one matrix product across the nodes of a block
gives surrogate rows of one column within a proven relative margin of the
exact rows, so a caller evaluates exactly only the rows that can decide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .scales import (EpsilonGrid, GrandParams, MorreyVariant, ShiftSchedule,
                     grid_for, shift_schedule)
from .space import QuasimetricSpace, rep_balls

__all__ = [
    "NormError",
    "GridFunction",
    "as_matrix",
    "lebesgue_norm",
    "morrey_norm",
    "inner_seminorm_matrix",
    "seminorm_profile",
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
        data = json.loads(Path(path).read_text())
        if data.get("format") != "grid-function":
            raise NormError(f"{path}: not a grid-function file")
        if data.get("space_id") not in (None, space.space_id()):
            raise NormError(
                f"{path}: function was sampled on space {data['space_id']}, "
                f"not {space.space_id()}")
        return GridFunction.from_values(data.get("name", "f"), data["values"], space)


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


def _squeeze(values: np.ndarray, f) -> float | np.ndarray:
    batched = (isinstance(f, np.ndarray) and f.ndim == 2)
    return values if batched else float(values[0])


# ---------------------------------------------------------------------------
# plain norms


def lebesgue_norm(f, space: QuasimetricSpace, p: float):
    """(integral |f|^p dmu)^(1/p) for p >= 1."""
    if p < 1:
        raise NormError(f"Lebesgue norm needs p >= 1, got {p:g}")
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


def inner_seminorm_matrix(F: np.ndarray, space: QuasimetricSpace, p_eff: float,
                          lam_eff: float, variant: MorreyVariant) -> np.ndarray:
    """max over balls of [den^(-lam) integral_B |f|^p]^(1/p), per column of F."""
    if p_eff < 1:
        raise NormError(f"shifted exponent fell below 1: {p_eff:g}")
    table, den = variant_table(space, variant)
    if table.size == 0:
        return np.zeros(F.shape[1])
    pw = np.abs(F) ** p_eff * space.weights[:, None]
    integrals = table.masks_f @ pw
    scaled = den[:, None] ** (-lam_eff) * integrals
    return scaled.max(axis=0) ** (1.0 / p_eff)


def morrey_norm(f, space: QuasimetricSpace, p: float, lam: float,
                variant: MorreyVariant | None = None):
    """sup over representative balls of [den^(-lam) integral_B |f|^p]^(1/p)."""
    if p < 1:
        raise NormError(f"Morrey norm needs p >= 1, got {p:g}")
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


def seminorm_profile(F: np.ndarray, space: QuasimetricSpace,
                     schedule: ShiftSchedule) -> np.ndarray:
    """Inner seminorms N(eps; f) per schedule node (rows) and column of F.

    Row i equals inner_seminorm_matrix at (p_eff[i], lam_eff[i]) bit for bit:
    each node's ball integrals are its own slice of one stacked product.
    """
    p_eff, lam_eff = schedule.p_eff, schedule.lam_eff
    low = p_eff < 1
    if low.any():
        raise NormError(f"shifted exponent fell below 1: {p_eff[low][0]:g}")
    table, den = variant_table(space, schedule.variant)
    out = np.zeros((p_eff.size, F.shape[1]))
    if table.size == 0:
        return out
    absF = np.abs(F)
    w = space.weights[:, None]
    step = max(1, _BLOCK_ELEMENTS // max(1, table.size * F.shape[1]))
    for a in range(0, p_eff.size, step):
        pe = p_eff[a:a + step, None, None]
        pw = absF ** pe * w
        # (nodes, columns, balls): the ball axis last for the scaling and the max
        scaled = np.ascontiguousarray(
            np.matmul(table.masks_f[None], pw).transpose(0, 2, 1))
        scaled *= den ** -lam_eff[a:a + step, None, None]
        out[a:a + step] = scaled.max(axis=2) ** (1.0 / pe[:, 0])
    return out


def grand_rows(F: np.ndarray, space: QuasimetricSpace, schedule: ShiftSchedule,
               rows) -> np.ndarray:
    """The rows ``rows`` of the weighted profile of ``schedule``.

    Each row equals the same row of grand_profile over the whole schedule
    bit for bit, since every node is evaluated on its own.
    """
    part = replace(schedule, nodes=schedule.nodes[rows],
                   p_eff=schedule.p_eff[rows], lam_eff=schedule.lam_eff[rows],
                   weight=schedule.weight[rows])
    return part.weight[:, None] * seminorm_profile(F, space, part)


# elements of one ball block's (balls, nodes) float32 surrogate product
_SURROGATE_ELEMENTS = 1 << 17
# nodes per float64 block of den factors, rounded to float32 block by block
_FACTOR_NODES = 16
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


class ProfileScreen:
    """A certified surrogate of the weighted profile of one column at one
    schedule, and the rows that must be evaluated exactly.

    The screen holds the den factors exp(-lam_eff log den) of every (ball,
    node) pair in float32, computed in float64 one block of _FACTOR_NODES
    nodes at a time and rounded once.  ``rows`` then takes the float32 terms
    |f|^p_eff w of all nodes, and per block of balls one float32 product
    with the ball masks (``masks32``), the product with the factors and a
    running max, so each call reads the masks once.  The root and the weight
    stay in float64.  Its bits differ from the per-node rows of grand_rows,
    but each exact row lies within [s (1 - delta), s (1 + delta)] of its
    surrogate row s, delta from surrogate_margin.  ``candidates`` are the
    rows whose upper bound reaches the largest lower bound; the exact
    maximum row is always among them.
    """

    def __init__(self, space: QuasimetricSpace, schedule: ShiftSchedule):
        self.table, den = variant_table(space, schedule.variant)
        self.space, self.schedule = space, schedule
        log_den = np.log(den)
        lam = schedule.lam_eff
        self.den_exponent = float(np.abs(lam).max() * np.abs(log_den).max(initial=0.0))
        self.delta = surrogate_margin(space.n, self.den_exponent)
        factors = np.empty((self.table.size, lam.size), dtype=np.float32)
        hi = 0.0
        for a in range(0, lam.size, _FACTOR_NODES):
            block = np.exp(np.multiply.outer(log_den, -lam[a:a + _FACTOR_NODES]))
            hi = max(hi, float(block.max(initial=0.0)))
            if hi > _F32_HUGE:
                break
            factors[:, a:a + _FACTOR_NODES] = block
        lo = float(factors.min(initial=np.inf)) if hi <= _F32_HUGE else 0.0
        # with a den factor outside the float32 normal range every row is exact
        self._factors = factors if lo >= _F32_TINY else None
        self._factor_range = (lo, hi)
        # one ball block's product, reused by every call
        self.step = max(1, _SURROGATE_ELEMENTS // lam.size)
        self._scaled = np.empty((min(self.step, self.table.size), lam.size),
                                dtype=np.float32)

    def rows(self, F: np.ndarray) -> np.ndarray | None:
        """Surrogate weighted rows of the one-column F, or None where delta
        does not hold: a float32 intermediate that could leave the normal
        range, or a non-finite row."""
        if self._factors is None:
            return None
        sched, masks = self.schedule, self.table.masks32
        lo, hi = self._factor_range
        pw = np.abs(F[:, 0]) ** sched.p_eff[:, None] * self.space.weights
        # a ball sum is at most n times the largest term
        if self.space.n * pw.max(initial=0.0) * max(1.0, hi) > _F32_HUGE:
            return None
        # (points, nodes): the node axis last, as in the factors
        pw32 = np.ascontiguousarray(pw.T, dtype=np.float32)
        # a nonzero ball sum is at least the smallest nonzero term, which
        # must also stay normal once scaled and weighted
        terms = pw32[pw.T > 0]
        floor = (float(terms.min(initial=1.0)) * min(1.0, lo)
                 * min(1.0, float(sched.weight.min())))
        if floor < _F32_TINY:
            return None
        top = np.zeros(sched.nodes.size, dtype=np.float32)
        for a in range(0, masks.shape[0], self.step):
            b = min(self.step, masks.shape[0] - a)
            scaled = np.matmul(masks[a:a + b], pw32, out=self._scaled[:b])
            scaled *= self._factors[a:a + b]
            np.maximum(top, scaled.max(axis=0), out=top)
        rows = sched.weight * top.astype(float) ** (1.0 / sched.p_eff)
        return rows if np.all(np.isfinite(rows)) else None

    def candidates(self, rows: np.ndarray | None) -> np.ndarray:
        """Indices of the rows that can hold the exact maximum: all of them
        without a surrogate."""
        if rows is None:
            return np.arange(self.schedule.nodes.size)
        return np.flatnonzero(rows * (1.0 + self.delta)
                              >= rows.max() * (1.0 - self.delta))


def grand_profile(F: np.ndarray, space: QuasimetricSpace, params: GrandParams,
                  nodes: np.ndarray) -> np.ndarray:
    """Weighted inner values phi(eps)^(1/(p-eps)) N(eps; f) per node and column."""
    schedule = shift_schedule(params, nodes)
    return schedule.weight[:, None] * seminorm_profile(F, space, schedule)


def phi_functional(f, space: QuasimetricSpace, params: GrandParams, s: float,
                   include_endpoint: bool = False):
    """Grand supremum truncated to master-grid nodes below s.

    With include_endpoint the node equal to s (inserted if absent) joins the
    max, which evaluates the closed-range variant at s.  Monotone in s by
    construction since larger s only admits more nodes.
    """
    if not 0 < s <= params.s_max * (1.0 + 1e-12):
        raise NormError(f"truncation point must lie in (0, s_max], got {s:g}")
    F = as_matrix(f, space)
    nodes = grid_for(params).nodes
    sel = nodes[nodes < s]
    if include_endpoint:
        sel = np.unique(np.append(sel, s))
    if sel.size == 0:
        sel = np.asarray([s]) if include_endpoint else sel
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
    """sup over eps in (0, p-1] of [eps^theta integral |f|^(p-eps)]^(1/(p-eps))."""
    if p <= 1:
        raise NormError(f"grand Lebesgue norm needs p > 1, got {p:g}")
    from .scales import build_epsilon_grid

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
