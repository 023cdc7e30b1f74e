"""Space construction, balls, and geometric constant scans.

Oracles here are deliberately naive: pure-python triple loops and dense
radius sampling.  The library must agree with them exactly (constants) or
dominate them (envelopes over sampled radii versus exact enumeration).
"""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import morreylab.space as space_module
from morreylab.catalog import (
    asymmetric_demo,
    calibrated_circle,
    catalog,
    get_space,
    line_grid,
    snowflake_grid,
    two_atom,
)
from morreylab.space import (
    SpaceError,
    ahlfors_fit,
    ball_chain_check,
    build_space,
    dilation_constants,
    doubling_constant,
    doubling_witness,
    geometry_constants,
    load_space,
    nested_ball_bound_check,
    prefix_profile,
    quasimetric_constants,
    quasimetric_witnesses,
    rep_balls,
    save_space,
    sharp_growth_constant,
    undominated,
)
from morreylab.operators import maximal, modified_maximal


# ---------------------------------------------------------------------------
# oracles


def oracle_triangle_constant(space):
    """Pure-python scan over all triples, including degenerate ones."""
    n = space.n
    D = space.dist
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                denom = D[i][k] + D[k][j]
                if denom > 0:
                    best = max(best, D[i][j] / denom)
    return max(best, 1.0)


def oracle_symmetry_constant(space):
    n = space.n
    D = space.dist
    best = 1.0
    for i in range(n):
        for j in range(n):
            if i != j:
                best = max(best, D[i][j] / D[j][i])
    return best


def oracle_ball_measure(space, center, radius):
    total = 0.0
    for j in range(space.n):
        if space.dist[center][j] < radius:
            total += space.weights[j]
    return total


def representative_radii(thresholds, upper):
    """One radius per constancy interval of the given jump thresholds: the
    per-center rule that rep_balls applies to all centers at once.

    Thresholds at or above ``upper`` are dropped and the midpoints of the
    edges 0, thresholds, upper are returned.  With ``upper=None`` the last
    edge is 1.5 times the largest threshold (1.0 when there is none) and is
    itself the last radius.
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
    return (edges[:-1] + edges[1:]) / 2.0


def reference_radii(space, x, dilation=1.0, radius_cap="diameter"):
    """Representative radii of center x, one center at a time."""
    if radius_cap == "diameter" and space.diameter <= 0:
        return np.asarray([], dtype=float)
    d = space.dist[x]
    ts = d[d > 0]
    if dilation != 1.0:
        ts = np.concatenate([ts, ts / dilation])
    return representative_radii(ts, space.diameter if radius_cap == "diameter" else None)


def reference_rep_balls(space, dilation=1.0, radius_cap="diameter"):
    """(centers, radii, counts, measures, dilated measures) of rep_balls from
    per-center loops: reference_radii, then np.searchsorted on each row."""
    prof = prefix_profile(space)
    cols = [[], [], [], [], []]
    for x in range(space.n):
        radii = reference_radii(space, x, dilation, radius_cap)
        counts = np.searchsorted(prof.dists[x], radii, side="left")
        dil = np.searchsorted(prof.dists[x], dilation * radii, side="left")
        for col, part in zip(cols, (np.full(radii.size, x), radii, counts,
                                    prof.cum[x, counts], prof.cum[x, dil])):
            col.append(part)
    return [np.concatenate(col) for col in cols]


def oracle_rep_balls(space, dilation=1.0, radius_cap="diameter"):
    """(center, radius, member set, measure, dilated measure) per representative
    ball, from direct member loops, in rep_balls order."""
    balls = []
    for x in range(space.n):
        for r in reference_radii(space, x, dilation, radius_cap):
            members = frozenset(y for y in range(space.n) if space.dist[x][y] < r)
            balls.append((x, float(r), members, oracle_ball_measure(space, x, r),
                          oracle_ball_measure(space, x, dilation * r)))
    return balls


def oracle_nested(space, C_d):
    """Nested pair count, worst ratio, and each nested pair's ratio."""
    exponent = math.log2(C_d) if C_d > 1 else 0.0
    balls = oracle_rep_balls(space)
    ratios = {}
    for y, r, inner, mu_in, _ in balls:
        for x, R, outer, mu_out, _ in balls:
            if inner <= outer and r <= R:
                ratios[(y, r), (x, R)] = (mu_out / mu_in) / (C_d * (R / r) ** exponent)
    return len(ratios), max(ratios.values()), ratios


def dense_reach(space, table):
    """[i, x]: the largest d(x, z) over the members z of ball i, as one B x n
    matrix read from _running_max one center at a time."""
    reach = np.empty((table.size, space.n))
    for y in range(space.n):
        rows = np.flatnonzero(table.centers == y)
        reach[rows] = space_module._running_max(space, y)[:, table.counts[rows] - 1].T
    return reach


def dense_nested_check(space, C_d):
    """The nested-ball scan over all B^2 pairs of representative balls, in row
    blocks of 2^22 pairs: (pairs_checked, worst_ratio, witness, passed)."""
    table = rep_balls(space)
    nb = table.size
    exponent = math.log2(C_d) if C_d > 1 else 0.0
    reach = dense_reach(space, table)
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
    return checked, worst, witness, worst <= 1.0 + 1e-12


def oracle_chain(space, C_t, C_s):
    """(checked, failures, first failing witness) by direct member loops."""
    mid = C_t * (C_s + 1.0)
    a_bar = C_t * (C_t * (C_s + 1.0) + 1.0)
    D = space.dist
    checked = failures = 0
    witness = None
    for x, r, members, _, _ in oracle_rep_balls(space):
        for y in sorted(members):
            checked += 1
            step1 = all(D[y][z] < mid * r for z in members)
            step2 = all(D[x][z] < a_bar * r for z in range(space.n) if D[y][z] < mid * r)
            if not (step1 and step2):
                failures += 1
                if witness is None:
                    witness = {"center": x, "radius": r, "via": y,
                               "step1": step1, "step2": step2}
    return checked, failures, witness


def dense_chain_check(space):
    """The ball-chain scan over all (ball, member) pairs of the table's member
    masks at once, with a B x n reach matrix and a B x n far matrix:
    (passed, checked, failures, witness)."""
    C_t, C_s = space_module.quasimetric_constants(space)
    mid = C_t * (C_s + 1.0)
    a_bar = space_module.dilation_constants(space)[1]
    table = rep_balls(space)
    prof = prefix_profile(space)
    balls, via = np.nonzero(table.masks)
    r = table.radii[balls]
    step1 = dense_reach(space, table)[balls, via] < mid * r
    # far[b, y]: the largest d(x_b, z) over z in B(y, mid r_b), for members y
    far = np.zeros((table.size, space.n))
    for y in range(space.n):
        rows = np.flatnonzero(table.masks[:, y])
        k = prof.counts(y, mid * table.radii[rows])
        far[rows, y] = space_module._running_max(space, y)[table.centers[rows], k - 1]
    step2 = far[balls, via] < a_bar * r
    bad = np.flatnonzero(~(step1 & step2))
    witness = None
    if bad.size:
        i = bad[0]
        witness = {"center": int(table.centers[balls[i]]), "radius": float(r[i]),
                   "via": int(via[i]), "step1": bool(step1[i]), "step2": bool(step2[i])}
    return bad.size == 0, int(balls.size), int(bad.size), witness


def oracle_inside(table):
    """[i, j]: the members of ball i lie in those of ball j, by the subset
    test masks @ masks.T == counts."""
    return table.masks32 @ table.masks32.T == table.counts[:, None]


def oracle_dominated(table, den, inside):
    """[i, j]: ball j dominates ball i.  The members of i lie in those of j
    (``inside``) and den_j <= den_i, and of two balls with equal members and
    equal dens only the earlier one dominates the later; the diagonal is
    excluded."""
    ties = inside & inside.T & (den[None, :] == den[:, None])
    ties &= np.arange(table.size)[None, :] > np.arange(table.size)[:, None]
    dominated = inside & (den[None, :] <= den[:, None]) & ~ties
    np.fill_diagonal(dominated, False)
    return dominated


def oracle_spaces():
    """Random asymmetric matrices (with and without distance ties), snowflakes,
    and tied-distance circles."""
    rng = np.random.default_rng(11)
    spaces = []
    for k in range(8):
        n = int(rng.integers(3, 8))
        mat = (rng.integers(1, 4, size=(n, n)).astype(float) if k % 2
               else rng.uniform(0.5, 3.0, size=(n, n)))
        np.fill_diagonal(mat, 0.0)
        spaces.append(build_space(list(range(n)), {"kind": "matrix", "matrix": mat.tolist()},
                                  rng.uniform(0.5, 2.0, size=n).tolist()))
    spaces += [snowflake_grid(9), snowflake_grid(7, exponent=0.3),
               calibrated_circle(8), calibrated_circle(9), asymmetric_demo()]
    return spaces


def random_space(kind, n, seed):
    """A seeded asymmetric space, one with tied distances, or a snowflake of
    random points, all with random weights."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, size=n).tolist()
    if kind == "snowflake":
        pts = np.sort(rng.uniform(0.0, 1.0, size=n)).tolist()
        return build_space(pts, {"kind": "snowflake",
                                 "exponent": float(rng.uniform(0.3, 0.9))}, weights)
    mat = (rng.integers(1, 4, size=(n, n)).astype(float) if kind == "tied"
           else rng.uniform(0.5, 3.0, size=(n, n)))
    np.fill_diagonal(mat, 0.0)
    return build_space(list(range(n)), {"kind": "matrix", "matrix": mat.tolist()},
                       weights)


def reference_doubling_scan(space):
    """Per center: the largest mu B(x, 2r) / mu B(x, r) and the first radius
    attaining it, one center at a time."""
    best = np.zeros(space.n)
    at = np.zeros(space.n)
    if space.diameter > 0:
        prof = prefix_profile(space)
        for x in range(space.n):
            reps = reference_radii(space, x, dilation=2.0)
            ratios = prof.measures(x, 2.0 * reps) / prof.measures(x, reps)
            k = int(np.argmax(ratios))
            best[x], at[x] = ratios[k], reps[k]
    return best, at


def reference_ahlfors_fit(space, alpha=None, beta=None):
    """ahlfors_fit on the default window, collecting the point cloud one
    center at a time."""
    lo, hi = space_module._min_positive_distance(space) / 2.0, space.diameter
    prof = prefix_profile(space)
    pts_r, pts_mu, pts_center = [], [], []
    for x in range(space.n):
        reps = reference_radii(space, x)
        radii = reps[(reps >= lo) & (reps <= hi)]
        mus = prof.measures(x, radii)
        keep = mus > 0
        pts_r.append(radii[keep])
        pts_mu.append(mus[keep])
        pts_center.append(np.full(int(keep.sum()), x))
    r, mu, centers = (np.concatenate(p) for p in (pts_r, pts_mu, pts_center))
    fitted = alpha is None and beta is None
    if fitted:
        alpha = beta = max(float(np.polyfit(np.log(r), np.log(mu), 1)[0]), 1e-9)
    low, up, growth = mu / r**alpha, mu / r**beta, mu / r
    k_low, k_up, k_b = int(np.argmin(low)), int(np.argmax(up)), int(np.argmax(growth))
    return space_module.AhlforsReport(
        alpha_lower=float(alpha), c_low=float(low[k_low]),
        low_witness=(int(centers[k_low]), float(r[k_low])),
        beta_upper=float(beta), c_up=float(up[k_up]),
        up_witness=(int(centers[k_up]), float(r[k_up])),
        b_growth=float(growth[k_b]), b_witness=(int(centers[k_b]), float(r[k_b])),
        window=(lo, hi), fitted=fitted)


def reference_maximal(F, space, radius_cap):
    """Maximal function over the balls {d <= t}, one per distance tie."""
    av = np.abs(F) * space.weights[:, None]
    prof = prefix_profile(space)
    out = np.zeros(F.shape)
    for x in range(space.n):
        ds = prof.dists[x]
        ends = np.flatnonzero(np.append(ds[1:] != ds[:-1], True))
        if radius_cap == "diameter":
            ends = ends[ds[ends] < space.diameter]
            if not ends.size:
                continue
        num = np.cumsum(av[prof.order[x]], axis=0)[ends]
        out[x] = (num / prof.cum[x, ends + 1][:, None]).max(axis=0)
    return out


def reference_modified_maximal(F, space, N0):
    """Modified maximal function on each center's merged thresholds."""
    av = np.abs(F) * space.weights[:, None]
    prof = prefix_profile(space)
    out = np.zeros(F.shape)
    for x in range(space.n):
        cf = np.zeros((space.n + 1, F.shape[1]))
        np.cumsum(av[prof.order[x]], axis=0, out=cf[1:])
        reps = reference_radii(space, x, dilation=N0, radius_cap="none")
        num = cf[prof.counts(x, reps)]
        out[x] = (num / prof.measures(x, N0 * reps)[:, None]).max(axis=0)
    return out


def oracle_doubling_dense(space, samples=4000):
    """Doubling ratio maximized over a dense grid of radii; lower bound only."""
    d_X = space.diameter
    best = 1.0
    for x in range(space.n):
        for r in np.linspace(d_X / samples, d_X * (1 - 1e-12), samples):
            small = oracle_ball_measure(space, x, r)
            big = oracle_ball_measure(space, x, 2 * r)
            if small > 0:
                best = max(best, big / small)
    return best


# ---------------------------------------------------------------------------
# construction and validation


def test_build_space_basic():
    s = line_grid(4)
    assert s.n == 4
    assert s.diameter == 1.0
    assert abs(s.total_measure - 1.0) < 1e-15
    assert s.coords is not None


def test_build_space_single_point():
    s = build_space([0.0], {"kind": "euclidean"}, [2.5])
    assert s.n == 1
    assert s.diameter == 0.0
    assert doubling_constant(s) == 1.0


def test_build_space_rejects_bad_weights():
    with pytest.raises(SpaceError):
        build_space([0.0, 1.0], {"kind": "euclidean"}, [1.0, 0.0])
    with pytest.raises(SpaceError):
        build_space([0.0, 1.0], {"kind": "euclidean"}, [1.0, -1.0])
    with pytest.raises(SpaceError):
        build_space([0.0, 1.0], {"kind": "euclidean"}, [1.0])


def test_build_space_rejects_bad_matrix():
    with pytest.raises(SpaceError):
        build_space(["a", "b"], {"kind": "matrix", "matrix": [[0, 1], [1, 1]]}, [1, 1])
    with pytest.raises(SpaceError):
        build_space(["a", "b"], {"kind": "matrix", "matrix": [[0, 0], [0, 0]]}, [1, 1])
    with pytest.raises(SpaceError):
        build_space(["a", "b"], {"kind": "matrix", "matrix": [[0, -1], [1, 0]]}, [1, 1])


def test_build_space_rejects_empty():
    with pytest.raises(SpaceError):
        build_space([], {"kind": "euclidean"}, [])


def test_save_load_round_trip(tmp_path):
    for name in catalog():
        s = get_space(name)
        p = tmp_path / f"{name}.json"
        save_space(s, p)
        s2 = load_space(p)
        assert np.array_equal(s.dist, s2.dist)
        assert np.array_equal(s.weights, s2.weights)
        assert s.space_id() == s2.space_id()


def test_space_id_distinguishes(tmp_path):
    assert line_grid(4).space_id() != line_grid(16).space_id()
    assert load_space.__name__ == "load_space"
    with pytest.raises(SpaceError):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "other"}))
        load_space(p)


# ---------------------------------------------------------------------------
# balls


def test_ball_strict_inequality_frozen():
    s = line_grid(4)
    prof = prefix_profile(s)
    k = int(prof.counts(0, [0.5])[0])
    assert sorted(prof.order[0, :k].tolist()) == [0, 1]
    assert abs(prof.measures(0, [0.5])[0] - 0.5) < 1e-15
    k = int(prof.counts(1, [0.999])[0])
    assert sorted(prof.order[1, :k].tolist()) == [0, 1, 2, 3]
    assert abs(prof.measures(1, [0.999])[0] - 1.0) < 1e-15


def test_ball_matches_oracle_random():
    rng = np.random.default_rng(7)
    s = line_grid(16)
    prof = prefix_profile(s)
    for _ in range(200):
        x = int(rng.integers(0, s.n))
        r = float(rng.uniform(1e-6, 1.5))
        assert abs(prof.measures(x, [r])[0] - oracle_ball_measure(s, x, r)) < 1e-14


def test_representative_radii_cover_every_interval():
    # center 0 has thresholds 0.25, 0.5, 0.75 below d_X = 1
    s = build_space([0.0, 0.25, 0.5, 0.75, 1.0], {"kind": "euclidean"}, [1.0] * 5)
    table = rep_balls(s)
    reps = table.radii[table.centers == 0]
    assert reps.tolist() == [0.125, 0.375, 0.625, 0.875]


def test_representative_radii_unbounded():
    # center 0 has thresholds 1 and 2; past the largest one sits 1.5 * 2
    s = build_space([0.0, 1.0, 2.0], {"kind": "euclidean"}, [1.0] * 3)
    table = rep_balls(s, radius_cap="none")
    reps = table.radii[table.centers == 0]
    assert reps[-1] == 3.0
    assert len(reps) == 3


def test_rep_balls_enumerate_all_member_sets():
    s = line_grid(4)
    table = rep_balls(s)
    # every distinct ball at any real radius in (0, d_X) must appear
    seen = {tuple(m) for m in table.masks}
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = int(rng.integers(0, 4))
        r = float(rng.uniform(1e-9, s.diameter * (1 - 1e-12)))
        mask = tuple(s.dist[x] < r)
        assert mask in seen
    assert np.allclose(table.measures, table.masks @ s.weights)


def test_rep_balls_dilation_thresholds():
    s = line_grid(4)
    table = rep_balls(s, dilation=3.0)
    # union thresholds make both the ball and its dilate exact per row
    for i in range(table.size):
        x, r = int(table.centers[i]), float(table.radii[i])
        assert abs(table.measures[i] - oracle_ball_measure(s, x, r)) < 1e-14
        assert abs(table.dilated_measures[i] - oracle_ball_measure(s, x, 3.0 * r)) < 1e-14


def test_rep_balls_dedupe_preserves_value_set():
    s = line_grid(16)
    full = rep_balls(s)
    small = rep_balls(s, dedupe=True)
    assert small.size < full.size
    full_keys = {(full.masks[i].tobytes(), full.measures[i]) for i in range(full.size)}
    small_keys = {(small.masks[i].tobytes(), small.measures[i]) for i in range(small.size)}
    assert small_keys == full_keys


def test_rep_balls_dedupe_caches_the_kept_rows_masks():
    # the dedupe key's masks fill the deduped table's cache, equal to a
    # fresh build from its counts and ranks
    for s in oracle_spaces():
        for dilation in (1.0, 3.0):
            small = rep_balls(s, dilation=dilation, dedupe=True)
            assert "masks" in small.__dict__
            fresh = dataclasses.replace(small)
            assert "masks" not in fresh.__dict__
            assert small.masks.dtype == fresh.masks.dtype
            assert np.array_equal(small.masks, fresh.masks)


def test_float_masks_are_built_on_first_use_only():
    s = snowflake_grid(24)
    geo = geometry_constants(s)
    nested_ball_bound_check(s, geo.C_d)
    f = np.linspace(-1.0, 2.0, s.n)
    maximal(f, s)
    maximal(f, s, radius_cap="none")
    modified_maximal(f, s, 3.0)
    ball_chain_check(s)
    tables = {k: v for k, v in s._cache.items() if k[0] == "rep_balls"}
    # the doubling scan, the Ahlfors fit, the nested-ball and ball-chain
    # checks and both maximal operators read radii, counts and measures only
    assert len(tables) == 4
    assert all("masks" not in t.__dict__ for t in tables.values())
    assert all(t.rank is prefix_profile(s).rank for t in tables.values())
    plain = tables.pop(("rep_balls", 1.0, "diameter", False))
    assert "masks_f" not in plain.__dict__
    assert np.array_equal(plain.masks_f, plain.masks.astype(float))
    assert plain.masks_f is plain.masks_f
    assert all("masks" not in t.__dict__ for t in tables.values())


# one ulp below 2 puts d / dilation one ulp above d/2 wherever a distance
# d/2 exists too, so the midpoint of the two rounds onto the lower threshold
@pytest.mark.parametrize("dilation", [1.0, 1.7, 2.0, 3.0, "N_0",
                                      pytest.param(np.nextafter(2.0, 0.0), id="below-2")])
@pytest.mark.parametrize("radius_cap", ["diameter", "none"])
def test_rep_balls_match_member_set_oracle(dilation, radius_cap):
    for s in oracle_spaces():
        factor = dilation_constants(s)[0] if dilation == "N_0" else dilation
        table = rep_balls(s, dilation=factor, radius_cap=radius_cap)
        expected = oracle_rep_balls(s, factor, radius_cap)
        assert table.size == len(expected)
        for i, (x, r, members, mu, dil) in enumerate(expected):
            assert (int(table.centers[i]), float(table.radii[i])) == (x, r)
            assert frozenset(np.flatnonzero(table.masks[i]).tolist()) == members
            assert table.counts[i] == len(members)
            assert table.measures[i] == pytest.approx(mu, rel=1e-13)
            assert table.dilated_measures[i] == pytest.approx(dil, rel=1e-13)
        reference = reference_rep_balls(s, factor, radius_cap)
        for name, want in zip(("centers", "radii", "counts", "measures",
                               "dilated_measures"), reference):
            assert np.array_equal(getattr(table, name), want), name
        # dedupe keeps exactly the first ball of each (members, measures) key
        keys = [(table.masks[i].tobytes(), table.measures[i], table.dilated_measures[i])
                for i in range(table.size)]
        first = sorted({k: i for i, k in reversed(list(enumerate(keys)))}.values())
        small = rep_balls(s, dilation=factor, radius_cap=radius_cap, dedupe=True)
        assert small.size == len(first)
        for name in ("centers", "radii", "counts", "masks", "measures", "dilated_measures"):
            assert np.array_equal(getattr(small, name), getattr(table, name)[first])


def test_ball_table_readers_equal_per_center_loops():
    # tied integer matrices, asymmetric ones, snowflakes, circles, one point
    spaces = oracle_spaces() + [build_space([0], {"kind": "matrix", "matrix": [[0.0]]}, [2.0])]
    rng = np.random.default_rng(23)
    for s in spaces:
        best, at = reference_doubling_scan(s)
        got_best, got_at = space_module._doubling_scan(s)
        assert np.array_equal(got_best, best) and np.array_equal(got_at, at)
        assert doubling_constant(s) == max(1.0, float(best.max()))
        hits = np.flatnonzero(best >= doubling_constant(s) * (1 - 1e-15))
        assert doubling_witness(s) == ((int(hits[0]), float(at[hits[0]])) if s.diameter > 0
                                       else (0, 0.0))
        if s.diameter > 0:
            assert ahlfors_fit(s) == reference_ahlfors_fit(s)
            assert ahlfors_fit(s, alpha=1.0, beta=1.0) == reference_ahlfors_fit(s, 1.0, 1.0)
        else:
            with pytest.raises(SpaceError):
                ahlfors_fit(s)
        N0 = dilation_constants(s)[0]
        for m in (1, 38):
            F = rng.uniform(-1.0, 2.0, size=(s.n, m))
            for cap in ("diameter", "none"):
                assert np.array_equal(maximal(F, s, radius_cap=cap),
                                      reference_maximal(F, s, cap))
            for dil in (1.0, 3.0, N0):
                assert np.array_equal(modified_maximal(F, s, dil),
                                      reference_modified_maximal(F, s, dil))
        assert np.array_equal(maximal(F[:, 0], s), reference_maximal(F[:, :1], s, "diameter")[:, 0])


def test_rep_balls_dedupe_keeps_measures_that_differ_in_rounding():
    # point 0 sums the ball {0, 1, 2} as (0.1 + 0.2) + 0.3 and point 2 as
    # (0.3 + 0.2) + 0.1, one ulp apart; adding point 3's weight 100 to both
    # rounds to one float, so under dilation 3 only the plain measures differ
    s = build_space([0.0, 1.0, 2.0, 10.0], {"kind": "euclidean"}, [0.1, 0.2, 0.3, 100.0])
    small = rep_balls(s, dilation=3.0, dedupe=True)
    kept = {(int(small.centers[i]), small.measures[i]) for i in range(small.size)
            if small.masks[i].tolist() == [True, True, True, False]
            and small.dilated_measures[i] == 100.6}
    assert kept == {(0, 0.1 + 0.2 + 0.3), (2, 0.3 + 0.2 + 0.1)}
    assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1


def test_rep_balls_on_a_one_point_space():
    s = build_space([0], {"kind": "matrix", "matrix": [[0.0]]}, [2.0])
    for dedupe in (False, True):
        assert rep_balls(s, dedupe=dedupe).size == 0
        table = rep_balls(s, radius_cap="none", dedupe=dedupe)
        assert table.size == 1
        assert table.masks.tolist() == [[True]]
        assert table.counts.tolist() == [1]
        assert table.measures.tolist() == table.dilated_measures.tolist() == [2.0]


@pytest.mark.parametrize("radius_cap", ["auto", "bogus", "Diameter"])
def test_rep_balls_rejects_unknown_radius_cap(radius_cap):
    s = line_grid(16)
    for dedupe in (False, True):
        with pytest.raises(SpaceError, match="unknown radius cap"):
            rep_balls(s, radius_cap=radius_cap, dedupe=dedupe)


# ---------------------------------------------------------------------------
# quasimetric constants


def test_metric_space_constants_are_one():
    # distance quantization can lift the triangle ratio on a true metric by
    # about one quantum relative to the shortest side of a tight triangle
    for name in ("grid-4", "grid-16", "snowflake-16", "circle-16", "two-atom"):
        s = get_space(name)
        C_t, C_s = quasimetric_constants(s)
        assert abs(C_t - 1.0) < 1e-10
        assert C_s == 1.0


def test_squared_distance_triangle_constant_frozen():
    # d = |x - y|^2 on {0, 1/2, 1}: d(0,1) = 1, d(0,1/2) + d(1/2,1) = 1/2
    s = build_space([0.0, 0.5, 1.0], {"kind": "snowflake", "exponent": 2.0}, [1, 1, 1])
    C_t, C_s = quasimetric_constants(s)
    assert abs(C_t - 2.0) < 1e-14
    assert C_s == 1.0
    w = quasimetric_witnesses(s)
    i, j, k = w["triple"]
    assert {i, j} == {0, 2} and k == 1


def test_constants_match_oracle_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        mat = rng.uniform(0.5, 3.0, size=(n, n))
        np.fill_diagonal(mat, 0.0)
        s = build_space(list(range(n)), {"kind": "matrix", "matrix": mat.tolist()},
                        rng.uniform(0.5, 2.0, size=n).tolist())
        C_t, C_s = quasimetric_constants(s)
        assert abs(C_t - oracle_triangle_constant(s)) < 1e-12
        assert abs(C_s - oracle_symmetry_constant(s)) < 1e-12


def test_asymmetric_demo_constants():
    s = asymmetric_demo()
    C_t, C_s = quasimetric_constants(s)
    assert C_s >= 2.0
    assert C_t >= 1.0
    w = quasimetric_witnesses(s)
    i, j = w["pair"]
    assert abs(s.dist[i][j] / s.dist[j][i] - C_s) < 1e-12
    i, j, k = w["triple"]
    assert abs(s.dist[i][j] / (s.dist[i][k] + s.dist[k][j]) - C_t) < 1e-12


def test_derived_constants_formulas():
    s = asymmetric_demo()
    g = geometry_constants(s)
    assert abs(g.N_0 - g.C_t * (1 + 2 * g.C_s)) < 1e-14
    assert abs(g.a_bar - g.C_t * (g.C_t * (g.C_s + 1) + 1)) < 1e-14


# ---------------------------------------------------------------------------
# doubling


def test_two_atom_doubling_frozen():
    # center at the light atom, r just above gap/2: B(x,r) = {x} has mass 1,
    # B(x,2r) has mass 11
    s = two_atom()
    assert abs(doubling_constant(s) - 11.0) < 1e-14
    x, r = doubling_witness(s)
    assert x == 0
    assert 0.5 < r < 1.0


def test_doubling_dominates_dense_sampling():
    for name in ("grid-4", "grid-16", "circle-16", "snowflake-16", "asym-4"):
        s = get_space(name)
        exact = doubling_constant(s)
        sampled = oracle_doubling_dense(s, samples=600)
        assert exact >= sampled - 1e-12
        # dense sampling should come close on these small spaces
        assert sampled >= exact * 0.999 or exact - sampled < 0.5


def test_doubling_at_least_one():
    for name in catalog():
        assert doubling_constant(get_space(name)) >= 1.0


# ---------------------------------------------------------------------------
# volume regularity


def test_calibrated_circle_measure_equals_radius():
    # for n = 65 the step 1/65 is not binary-representable, so distance
    # quantization moves the representative radii by about one quantum
    for n in (16, 64, 65):
        s = calibrated_circle(n)
        table = rep_balls(s)
        assert np.allclose(table.measures, table.radii, rtol=0, atol=1e-12)


def test_calibrated_circle_geometry():
    s = calibrated_circle(64)
    C_t, C_s = quasimetric_constants(s)
    assert abs(C_t - 1.0) < 1e-12 and C_s == 1.0
    fit = ahlfors_fit(s, alpha=1.0, beta=1.0)
    assert abs(fit.c_low - 1.0) < 1e-12
    assert abs(fit.c_up - 1.0) < 1e-12
    assert abs(fit.b_growth - 1.0) < 1e-12
    assert abs(sharp_growth_constant(s) - 1.5) < 1e-12


def test_grid_upper_envelope_near_two():
    # uniform grid on [0,1]: mu B(x, r) <= c_up r with c_up about 2 + O(1/n)
    for n in (16, 64):
        s = line_grid(n)
        fit = ahlfors_fit(s, alpha=1.0, beta=1.0, window=(2.0 / n, 1.0))
        assert 1.8 < fit.c_up < 2.3
        assert fit.c_low > 0


def test_ahlfors_fit_zero_window_reports_infinite_upper():
    s = line_grid(4)
    fit = ahlfors_fit(s, alpha=1.0, beta=1.0, window=(0.0, 1.0))
    assert math.isinf(fit.c_up)
    assert fit.upper_fails_at_zero


def test_ahlfors_fit_of_equal_radii_takes_the_floor_without_a_warning():
    # two-atom's representative radii in the window are all equal, so the
    # log-log cloud has no slope: the fitted exponent is the 1e-9 floor, and
    # numpy's least squares (which would warn) is not asked
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        fit = ahlfors_fit(two_atom())
    assert fit.alpha_lower == fit.beta_upper == 1e-9
    assert fit.fitted

def test_ahlfors_fit_rejects_empty_window():
    s = line_grid(4)
    with pytest.raises(SpaceError):
        ahlfors_fit(s, window=(0.5, 0.5))
    with pytest.raises(SpaceError):
        ahlfors_fit(s, window=(-1.0, 1.0))


def test_ahlfors_fitted_slope_near_one_on_grid():
    fit = ahlfors_fit(line_grid(64))
    assert 0.8 < fit.alpha_lower < 1.2
    assert fit.fitted


def test_ahlfors_envelopes_are_valid_bounds_at_representatives():
    # the envelope convention certifies the inequality at representative radii
    for name in ("grid-16", "circle-16", "snowflake-16"):
        s = get_space(name)
        fit = ahlfors_fit(s, alpha=1.0, beta=1.0)
        lo, hi = fit.window
        table = rep_balls(s)
        in_window = (table.radii >= lo) & (table.radii <= hi)
        r = table.radii[in_window]
        mu = table.measures[in_window]
        pos = mu > 0
        assert np.all(mu[pos] >= fit.c_low * r[pos] - 1e-12)
        assert np.all(mu <= fit.c_up * r + 1e-12)
        assert np.all(mu <= fit.b_growth * r + 1e-12)


def test_sharp_growth_dominates_all_real_radii_past_first_jump():
    # below the first jump the ball is the bare atom and no linear bound holds
    rng = np.random.default_rng(9)
    for name in ("grid-16", "circle-16", "two-atom", "asym-4"):
        s = get_space(name)
        b = sharp_growth_constant(s)
        for _ in range(400):
            x = int(rng.integers(0, s.n))
            d = s.dist[x]
            first = d[d > 0].min()
            r = float(rng.uniform(first * (1 + 1e-12), 2.0 * s.diameter))
            assert oracle_ball_measure(s, x, r) <= b * r + 1e-12


def test_sharp_growth_calibrated_circle_value():
    # first jump at h with mass 3h/2 inside gives exactly 3/2
    s = calibrated_circle(16)
    assert abs(sharp_growth_constant(s) - 1.5) < 1e-13


# ---------------------------------------------------------------------------
# structural ball lemmas


def test_ball_chain_inclusion_everywhere():
    for name in catalog():
        s = get_space(name)
        rep = ball_chain_check(s)
        assert rep.passed, f"{name}: {rep.witness}"
        assert rep.failures == 0


def test_nested_ball_bound_same_center_theorem():
    # restricting to same-center pairs this is a consequence of doubling
    for name in ("grid-4", "grid-16", "circle-16", "two-atom"):
        s = get_space(name)
        rep = nested_ball_bound_check(s)
        assert rep.pairs_checked > 0
        if not rep.passed:
            # cross-center witnesses are allowed to fail the continuum bound,
            # but same-center ones never may
            assert rep.witness["inner"][0] != rep.witness["outer"][0]


def test_nested_ball_bound_passes_on_shipped_spaces():
    for name in ("grid-16", "circle-16", "two-atom", "snowflake-16"):
        rep = nested_ball_bound_check(get_space(name))
        assert rep.passed, f"{name}: worst {rep.worst_ratio} at {rep.witness}"


def test_nested_ball_bound_matches_member_set_oracle():
    failing = 0
    for s in oracle_spaces():
        true_C_d = doubling_constant(s)
        # C_d = 1 lies below every true constant here, so pairs fail
        for C_d in (true_C_d, 1.0):
            rep = nested_ball_bound_check(s, C_d)
            pairs, worst, ratios = oracle_nested(s, C_d)
            assert rep.pairs_checked == pairs
            assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
            assert rep.passed == (rep.worst_ratio <= 1.0 + 1e-12)
            inner, outer = rep.witness["inner"], rep.witness["outer"]
            assert ratios[inner, outer] == pytest.approx(worst, rel=1e-12)
            mu_in = oracle_ball_measure(s, *inner)
            mu_out = oracle_ball_measure(s, *outer)
            assert rep.witness["measure_ratio"] == pytest.approx(mu_out / mu_in, rel=1e-12)
            failing += not rep.passed
        x, r = doubling_witness(s)
        ratio = oracle_ball_measure(s, x, 2 * r) / oracle_ball_measure(s, x, r)
        assert ratio == pytest.approx(true_C_d, rel=1e-12)
    assert failing >= len(oracle_spaces())


_NESTED_SPACES = {
    "oracle": oracle_spaces,
    "snowflake-128": lambda: [snowflake_grid(128)],
    "circle-128": lambda: [calibrated_circle(128)],
    "grid-64": lambda: [get_space("grid-64")],
    "circle-65": lambda: [get_space("circle-65")],
}


@pytest.mark.parametrize("name", sorted(_NESTED_SPACES))
def test_nested_ball_bound_equals_dense_pair_scan(name):
    # C_d = 1 gives exponent 0, so many pairs tie on the worst ratio
    for s in _NESTED_SPACES[name]():
        for C_d in (doubling_constant(s), 1.0, 3.0):
            rep = nested_ball_bound_check(s, C_d)
            got = (rep.pairs_checked, rep.worst_ratio, rep.witness, rep.passed)
            assert got == dense_nested_check(s, C_d), (s.name, C_d)


def test_ball_chain_matches_member_set_oracle(monkeypatch):
    for s in oracle_spaces():
        rep = ball_chain_check(s)
        checked, failures, witness = oracle_chain(s, *quasimetric_constants(s))
        assert (rep.checked, rep.failures, rep.witness) == (checked, failures, witness)
    # constants below the true ones make the inclusions fail somewhere
    monkeypatch.setattr(space_module, "quasimetric_constants", lambda space: (0.5, 1.0))
    failing = 0
    for s in oracle_spaces():
        rep = ball_chain_check(s)
        assert (rep.checked, rep.failures, rep.witness) == oracle_chain(s, 0.5, 1.0)
        assert rep.passed == (rep.failures == 0)
        failing += rep.failures > 0
    assert failing == len(oracle_spaces())


@pytest.mark.parametrize("case", ["true", "quasimetric", "a_bar"])
@pytest.mark.parametrize("name", sorted(_NESTED_SPACES))
def test_ball_chain_equals_dense_scan(name, case, monkeypatch):
    # constants below the true ones fail one step or the other: (0.5, 1.0)
    # shrinks both enlargements, a_bar = 1.2 only the second
    if case == "quasimetric":
        monkeypatch.setattr(space_module, "quasimetric_constants",
                            lambda space: (0.5, 1.0))
    true_dilation = space_module.dilation_constants
    if case == "a_bar":
        monkeypatch.setattr(space_module, "dilation_constants",
                            lambda space: (true_dilation(space)[0], 1.2))
    for s in _NESTED_SPACES[name]():
        rep = ball_chain_check(s)
        got = (rep.passed, rep.checked, rep.failures, rep.witness)
        assert got == dense_chain_check(s), (s.name, case)
        assert (rep.failures > 0) == (case != "true")


def test_nested_ball_scan_memory_is_quadratic():
    # the B x n reach matrix took 14.2 MiB here; the streamed scan holds a few
    # arrays of B entries and one n x n running maximum per center
    s = snowflake_grid(128)
    doubling_constant(s)
    rep_balls(s)
    tracemalloc.start()
    try:
        rep = nested_ball_bound_check(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 4 * 2**20, peak


_RANDOM_SPACES = dict(kind=st.sampled_from(("asymmetric", "tied", "snowflake")),
                      n=st.integers(3, 24), seed=st.integers(0, 2**16))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(true_C_d=st.booleans(), **_RANDOM_SPACES)
@example(kind="asymmetric", n=24, seed=1, true_C_d=True)
@example(kind="tied", n=24, seed=2, true_C_d=False)
@example(kind="snowflake", n=24, seed=3, true_C_d=True)
def test_nested_ball_bound_matches_member_set_oracle_on_random_spaces(kind, n, seed,
                                                                      true_C_d):
    s = random_space(kind, n, seed)
    C_d = doubling_constant(s) if true_C_d else 1.0
    rep = nested_ball_bound_check(s, C_d)
    pairs, worst, ratios = oracle_nested(s, C_d)
    assert rep.pairs_checked == pairs
    assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert rep.passed == (rep.worst_ratio <= 1.0 + 1e-12)
    witness = rep.witness["inner"], rep.witness["outer"]
    assert ratios[witness] == pytest.approx(worst, rel=1e-12)
    got = (rep.pairs_checked, rep.worst_ratio, rep.witness, rep.passed)
    assert got == dense_nested_check(s, C_d)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(true_constants=st.booleans(), **_RANDOM_SPACES)
@example(kind="asymmetric", n=24, seed=1, true_constants=False)
@example(kind="tied", n=24, seed=2, true_constants=True)
@example(kind="snowflake", n=24, seed=3, true_constants=False)
def test_ball_chain_matches_member_set_oracle_on_random_spaces(kind, n, seed,
                                                               true_constants):
    # (0.5, 1.0) lies below every true pair of constants, so inclusions can fail
    s = random_space(kind, n, seed)
    constants = quasimetric_constants(s) if true_constants else (0.5, 1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(space_module, "quasimetric_constants", lambda space: constants)
        rep = ball_chain_check(s)
        dense = dense_chain_check(s)
    assert (rep.checked, rep.failures, rep.witness) == oracle_chain(s, *constants)
    assert (rep.passed, rep.checked, rep.failures, rep.witness) == dense


def test_ball_chain_scan_memory_is_quadratic():
    # the dense scan held two B x n float64 matrices, 49 MiB here; the
    # streamed one holds a few n x n arrays per center
    s = snowflake_grid(128)
    quasimetric_constants(s)
    rep_balls(s)
    tracemalloc.start()
    try:
        rep = ball_chain_check(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 4 * 2**20, peak


def _variant_dens(space):
    """(label, table, den) of the norm variants' denominators: the ball
    measure, the radius powers gamma = 0.5 and 1.5, and the dilated
    measures at dilation 1, 2 and 3 under both caps."""
    table = rep_balls(space, dedupe=True)
    yield "measure", table, table.measures
    for gamma in (0.5, 1.5):
        yield f"radius-{gamma}", table, table.radii ** gamma
    for dilation in (1.0, 2.0, 3.0):
        for cap in ("diameter", "none"):
            table = rep_balls(space, dilation=dilation, radius_cap=cap, dedupe=True)
            yield f"modified-{dilation}-{cap}", table, table.dilated_measures


def _assert_undominated(space):
    for label, table, den in _variant_dens(space):
        inside = oracle_inside(table)
        tries = [den]
        if space.n <= 24:
            # equal dens for every ball, and dens rounded to a tenth, also
            # tie balls of equal members
            tries += [np.ones(table.size), np.round(den, 1)]
        for dens in tries:
            keep = undominated(space, table, dens)
            dominated = oracle_dominated(table, dens, inside)
            assert np.array_equal(keep, np.flatnonzero(~dominated.any(axis=1))), label
            # every dropped ball has a kept dominator
            dropped = np.setdiff1d(np.arange(table.size), keep)
            assert dominated[np.ix_(dropped, keep)].any(axis=1).all(), label
            if dens is den and (label == "measure" or label.startswith("modified-1.0")):
                # under positive weights a ball's own measure dominates only
                # a ball of equal members whose measure rounded higher
                assert not (dominated & ~inside.T).any(), label


@pytest.mark.parametrize("name", ["circle-64", "grid-64", "circle-65", "grid-16",
                                  "asym-4", "two-atom"])
def test_undominated_matches_the_subset_oracle(name):
    _assert_undominated(get_space(name))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(**_RANDOM_SPACES)
@example(kind="asymmetric", n=24, seed=1)
@example(kind="tied", n=24, seed=2)
@example(kind="snowflake", n=24, seed=3)
def test_undominated_matches_the_subset_oracle_on_random_spaces(kind, n, seed):
    _assert_undominated(random_space(kind, n, seed))
