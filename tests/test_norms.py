"""Norm evaluations against naive oracles and frozen reference values."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morreylab import norms
from morreylab.catalog import calibrated_circle, get_space, line_grid, snowflake_grid
from morreylab.norms import (
    GridFunction,
    NormError,
    dominance_report,
    grand_lebesgue_norm,
    grand_morrey_norm,
    grand_profile,
    inner_seminorm_matrix,
    k_phi,
    lebesgue_norm,
    morrey_norm,
    phi_functional,
)
from morreylab.scales import (
    MorreyVariant,
    grid_for,
    make_grand_params,
    make_potential_setup,
    shift_schedule,
)
from morreylab.space import build_space, rep_balls


# ---------------------------------------------------------------------------
# oracles


def oracle_ball_integral(space, f, center, radius, p):
    total = 0.0
    for j in range(space.n):
        if space.dist[center][j] < radius:
            total += abs(f[j]) ** p * space.weights[j]
    return total


def oracle_ball_measure(space, center, radius):
    total = 0.0
    for j in range(space.n):
        if space.dist[center][j] < radius:
            total += space.weights[j]
    return total


def oracle_morrey_dense(space, f, p, lam, kind, samples=2500, gamma=1.0, dilation=1.0):
    """Dense radius sampling of the Morrey supremum; a lower bound in general
    and equal to the norm for the measure and modified kinds."""
    top = space.diameter if kind != "modified" else 3.0 * space.diameter
    best = 0.0
    for x in range(space.n):
        for r in np.linspace(top / samples, top * (1 - 1e-12), samples):
            if kind != "modified" and r >= space.diameter:
                continue
            num = oracle_ball_integral(space, f, x, r, p)
            if kind == "measure":
                den = oracle_ball_measure(space, x, r)
            elif kind == "radius":
                den = r**gamma
            else:
                den = oracle_ball_measure(space, x, dilation * r)
            best = max(best, (den ** (-lam) * num) ** (1.0 / p))
    return best


# ---------------------------------------------------------------------------
# containers


def test_grid_function_round_trip(tmp_path):
    s = line_grid(4)
    g = GridFunction.from_values("bump", [0.0, 1.0, 2.0, 0.5], s)
    path = tmp_path / "f.json"
    g.save(path, s)
    g2 = GridFunction.load(path, s)
    assert g2.name == "bump"
    assert np.array_equal(g.values, g2.values)


def test_grid_function_rejects_wrong_space(tmp_path):
    s4, s16 = line_grid(4), line_grid(16)
    g = GridFunction.from_values("f", np.ones(4), s4)
    path = tmp_path / "f.json"
    g.save(path, s4)
    with pytest.raises(NormError, match="sampled on space"):
        GridFunction.load(path, s16)


def test_grid_function_validation():
    s = line_grid(4)
    with pytest.raises(NormError):
        GridFunction.from_values("f", [1.0, 2.0], s)
    with pytest.raises(NormError):
        GridFunction.from_values("f", [1.0, np.inf, 0.0, 0.0], s)


# ---------------------------------------------------------------------------
# plain norms


def test_lebesgue_norm_frozen():
    s = line_grid(4)
    assert abs(lebesgue_norm(np.ones(4), s, 2.0) - 1.0) < 1e-15
    assert abs(lebesgue_norm(np.ones(4), s, 1.0) - 1.0) < 1e-15
    f = np.array([2.0, 0.0, 0.0, 0.0])
    assert abs(lebesgue_norm(f, s, 2.0) - 1.0) < 1e-15


def test_lebesgue_norm_batch():
    s = line_grid(4)
    F = np.stack([np.ones(4), np.zeros(4)], axis=1)
    out = lebesgue_norm(F, s, 2.0)
    assert out.shape == (2,)
    assert abs(out[0] - 1.0) < 1e-15 and out[1] == 0.0


def test_nested_list_batch_keeps_every_column():
    """A 2-D nested list is a batch of functions like a 2-D array: every
    norm returns one value per column, not the first column's alone."""
    s = get_space("grid-16")
    F = np.random.default_rng(17).uniform(0.0, 2.0, size=(s.n, 3))
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:1", MorreyVariant(), 16)
    for norm in (lambda f: lebesgue_norm(f, s, 2.0),
                 lambda f: morrey_norm(f, s, 2.0, 0.3),
                 lambda f: grand_morrey_norm(f, s, params),
                 lambda f: phi_functional(f, s, params, params.s_max / 2),
                 lambda f: grand_lebesgue_norm(f, s, 2.0)):
        got = norm(F.tolist())
        assert got.shape == (3,)
        assert np.array_equal(got, norm(F))
        # one column alone is a matrix-vector product, whose sums can round apart
        assert np.isclose(got[1], norm(F[:, 1].tolist()), rtol=1e-14, atol=0.0)


def test_morrey_measure_variant_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for name in ("grid-4", "grid-16", "two-atom"):
        s = get_space(name)
        for _ in range(3):
            f = rng.uniform(0, 2, size=s.n)
            exact = morrey_norm(f, s, 2.0, 0.3)
            dense = oracle_morrey_dense(s, f, 2.0, 0.3, "measure")
            assert dense <= exact + 1e-12
            assert exact - dense < 1e-9


def test_morrey_modified_variant_matches_dense_oracle():
    rng = np.random.default_rng(22)
    s = get_space("grid-16")
    var = MorreyVariant(kind="modified", dilation=3.0)
    for _ in range(3):
        f = rng.uniform(0, 2, size=s.n)
        exact = morrey_norm(f, s, 2.0, 0.3, var)
        dense = oracle_morrey_dense(s, f, 2.0, 0.3, "modified", dilation=3.0)
        assert dense <= exact + 1e-12
        assert exact - dense < 1e-9


def test_morrey_radius_variant_is_rep_envelope():
    # radius-power norms are defined on representative radii; the dense
    # oracle restricted to those radii must agree
    s = get_space("grid-4")
    f = np.array([1.0, 0.5, 0.25, 2.0])
    from morreylab.norms import variant_table

    var = MorreyVariant(kind="radius", gamma=2.0)
    table, den = variant_table(s, var)
    vals = []
    for i in range(table.size):
        x, r = int(table.centers[i]), float(table.radii[i])
        num = oracle_ball_integral(s, f, x, r, 2.0)
        vals.append((r ** (-2.0 * 0.3)) * num)
    expected = max(vals) ** 0.5
    assert abs(morrey_norm(f, s, 2.0, 0.3, var) - expected) < 1e-14


def test_calibrated_circle_variant_coincidence():
    # mu B(x, r) = r at representative radii makes the measure-power and
    # radius-power (gamma=1) norms coincide
    rng = np.random.default_rng(23)
    s = calibrated_circle(16)
    for _ in range(5):
        f = rng.uniform(0, 3, size=s.n)
        a = morrey_norm(f, s, 2.0, 0.4, MorreyVariant(kind="measure"))
        b = morrey_norm(f, s, 2.0, 0.4, MorreyVariant(kind="radius", gamma=1.0))
        assert abs(a - b) < 1e-12 * max(a, 1.0)


def test_modified_variant_with_unit_dilation_extends_measure():
    # same denominator, but radii run over all r > 0, so the full-space ball
    # joins the supremum
    s = line_grid(4)
    f = np.array([1.0, 0.0, 0.0, 1.0])
    a = morrey_norm(f, s, 2.0, 0.3, MorreyVariant(kind="modified", dilation=1.0))
    b = morrey_norm(f, s, 2.0, 0.3, MorreyVariant(kind="measure"))
    assert a >= b - 1e-15


def test_morrey_norm_validation():
    s = line_grid(4)
    with pytest.raises(NormError):
        morrey_norm(np.ones(4), s, 0.5, 0.3)
    with pytest.raises(NormError):
        morrey_norm(np.ones(4), s, 2.0, 1.0)
    with pytest.raises(NormError):
        lebesgue_norm(np.ones(3), s, 2.0)


# ---------------------------------------------------------------------------
# grand norms


def test_grand_lebesgue_constant_function_frozen():
    # on a probability space with f = 1 the supremum sits at the closed
    # endpoint eps = p - 1 and equals (p-1)^(theta/1)
    s = line_grid(4)
    assert abs(grand_lebesgue_norm(np.ones(4), s, 3.0, theta=1.0) - 2.0) < 1e-12
    assert abs(grand_lebesgue_norm(np.ones(4), s, 3.0, theta=2.0) - 4.0) < 1e-12


def test_grand_lebesgue_against_slow_scan():
    s = line_grid(4)
    rng = np.random.default_rng(31)
    f = rng.uniform(0, 2, size=4)
    from morreylab.scales import build_epsilon_grid

    nodes = build_epsilon_grid(1.5, closed=True).nodes
    slow = 0.0
    for eps in nodes:
        pe = 2.5 - eps
        tot = sum(abs(f[j]) ** pe * s.weights[j] for j in range(4))
        slow = max(slow, (eps * tot) ** (1.0 / pe))
    assert abs(grand_lebesgue_norm(f, s, 2.5, theta=1.0) - slow) < 1e-12


def test_grand_morrey_norm_against_slow_scan():
    s = line_grid(4)
    rng = np.random.default_rng(33)
    f = rng.uniform(0, 2, size=4)
    params = make_grand_params(2.0, 0.3, phi_spec="pow:1", A_spec="lin:0.5")
    nodes = grid_for(params).nodes
    slow = 0.0
    for eps in nodes:
        pe = params.p - eps
        le = params.lam - 0.5 * eps
        inner = 0.0
        from morreylab.norms import variant_table

        table, den = variant_table(s, params.variant)
        for i in range(table.size):
            x, r = int(table.centers[i]), float(table.radii[i])
            num = oracle_ball_integral(s, f, x, r, pe)
            inner = max(inner, den[i] ** (-le) * num)
        slow = max(slow, (eps * inner) ** (1.0 / pe))
    assert abs(grand_morrey_norm(f, s, params) - slow) < 1e-12


def test_phi_functional_monotone_and_consistent():
    s = get_space("grid-16")
    rng = np.random.default_rng(37)
    f = rng.uniform(0, 1, size=s.n)
    params = make_grand_params(2.0, 0.3)
    values = [phi_functional(f, s, params, t) for t in (0.2, 0.5, 0.8, 1.0)]
    assert all(values[i] <= values[i + 1] + 1e-15 for i in range(3))
    assert abs(values[-1] - grand_morrey_norm(f, s, params)) < 1e-15


def test_phi_functional_closed_endpoint():
    s = line_grid(4)
    f = np.array([1.0, 2.0, 0.5, 0.0])
    params = make_grand_params(2.0, 0.3)
    open_val = phi_functional(f, s, params, 0.5)
    closed_val = phi_functional(f, s, params, 0.5, include_endpoint=True)
    assert closed_val >= open_val - 1e-15
    # the endpoint node must actually be evaluated
    nodes = grid_for(params).nodes
    assert 0.5 not in nodes or closed_val == open_val


def test_grand_norm_grid_refinement_stable():
    s = get_space("grid-16")
    rng = np.random.default_rng(41)
    f = rng.uniform(0, 1, size=s.n)
    params = make_grand_params(2.0, 0.3, phi_spec="pow:1")
    base = grand_morrey_norm(f, s, params)
    fine = grand_morrey_norm(f, s, params, grid=grid_for(params).refine())
    assert fine >= base - 1e-15
    assert fine - base < 1e-3 * max(base, 1.0)


def test_grand_profile_shape():
    s = line_grid(4)
    params = make_grand_params(2.0, 0.3)
    F = np.ones((4, 3))
    nodes = grid_for(params).nodes[:5]
    out = grand_profile(F, s, params, nodes)
    assert out.shape == (5, 3)


def oracle_grand_profile(F, space, params, nodes):
    """Node-by-node grand profile, one seminorm call and one A/phi call per node."""
    out = np.empty((len(nodes), F.shape[1]))
    for i, eps in enumerate(nodes):
        pe = params.p - float(eps)
        le = params.lam - float(params.A(float(eps)))
        w = float(params.phi(float(eps))) ** (1.0 / pe)
        out[i] = w * inner_seminorm_matrix(F, space, pe, le, params.variant)
    return out


def _profile_spaces():
    """A seeded asymmetric space, a tied asymmetric one, a tied circle and a
    snowflake."""
    rng = np.random.default_rng(29)
    spaces = []
    for tied in (False, True):
        n = 18
        mat = (rng.integers(1, 6, size=(n, n)).astype(float) if tied
               else rng.uniform(0.5, 3.0, size=(n, n)))
        np.fill_diagonal(mat, 0.0)
        spaces.append(build_space(list(range(n)), {"kind": "matrix", "matrix": mat.tolist()},
                                  rng.uniform(0.5, 2.0, size=n).tolist()))
    return spaces + [calibrated_circle(24), snowflake_grid(20)]


def _profile_params(variant):
    """Plain params and both transported shifts of the potential setups."""
    plain = make_grand_params(2.0, 0.3, "pow:1", "lin:0.5", variant, 32)
    bar = make_potential_setup(2.0, 0.5, 0.125, 1.0, "lin:0.05", 1.0, 2.0, 0.1,
                               mode="thm-4.4")
    tilde = make_potential_setup(2.0, 0.5, 0.125, 1.0, "lin:0.05", 1.0, 2.5, 0.1,
                                 mode="thm-4.5")
    return [plain,
            make_grand_params(2.0, 0.5, "pow:1", bar.A_source, variant, 32),
            make_grand_params(tilde.q, 0.5, "pow:2.5", tilde.A_target, variant, 32,
                              closed_grid=True)]


@pytest.mark.parametrize("space", _profile_spaces(), ids=lambda s: s.name or "matrix")
def test_grand_profile_matches_node_by_node_oracle_bitwise(space):
    rng = np.random.default_rng(31)
    variants = (MorreyVariant(), MorreyVariant(kind="radius", gamma=1.5),
                MorreyVariant(kind="modified", dilation=2.0, radius_cap="none"))
    for variant in variants:
        table, _ = norms.variant_table(space, variant)
        for m in (1, 2, 40):
            F = rng.uniform(-2.0, 2.0, size=(space.n, m))
            F[rng.random(F.shape) < 0.2] = 0.0
            layouts = [F] if m == 1 else [F, np.asfortranarray(F), F[:, ::-1]]
            step = norms._BLOCK_ELEMENTS // (table.size * m)
            for params in _profile_params(variant):
                grid = grid_for(params)
                while grid.count <= step:  # at least two node blocks
                    grid = grid.refine()
                for G in layouts:
                    got = grand_profile(G, space, params, grid.nodes)
                    want = oracle_grand_profile(G, space, params, grid.nodes)
                    assert np.array_equal(got, want), (variant, m, params.A.describe())


_VARIANTS = (MorreyVariant(), MorreyVariant(kind="radius", gamma=1.5),
             MorreyVariant(kind="modified", dilation=2.0, radius_cap="none"))


def _random_space(kind, n, seed):
    """A seeded asymmetric space, one with tied distances, or a snowflake of
    random points, all with random weights."""
    rng = np.random.default_rng(seed)
    weights = (rng.uniform(0.5, 2.0, size=n) / n).tolist()
    if kind == "snowflake":
        pts = np.sort(rng.uniform(0.0, 1.0, size=n)).tolist()
        return build_space(pts, {"kind": "snowflake",
                                 "exponent": float(rng.uniform(0.3, 0.9))}, weights)
    mat = (rng.integers(1, 6, size=(n, n)).astype(float) if kind == "tied"
           else rng.uniform(0.5, 3.0, size=(n, n)))
    np.fill_diagonal(mat, 0.0)
    return build_space(list(range(n)), {"kind": "matrix", "matrix": mat.tolist()},
                       weights)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(("asymmetric", "tied", "snowflake")),
       n=st.integers(2, 128), seed=st.integers(0, 2**16),
       variant=st.sampled_from(range(3)), which=st.sampled_from(range(3)),
       scale=st.sampled_from((1e-3, 1.0, 1e3)), stride=st.integers(2, 5))
@example(kind="asymmetric", n=128, seed=1, variant=0, which=0, scale=1.0, stride=2)
@example(kind="tied", n=128, seed=2, variant=1, which=1, scale=1e-3, stride=3)
@example(kind="snowflake", n=128, seed=3, variant=2, which=2, scale=1e3, stride=5)
def test_surrogate_rows_bracket_the_exact_rows(kind, n, seed, variant, which, scale,
                                               stride):
    """Every exact row lies between its bounds: a screened row within delta
    of its surrogate, a fine row below its Lyapunov bound.  Every
    ``stride``-th row is coarse, so fine rows exist; the second and third
    params are transported shifts, whose lam_eff is not affine in t."""
    space = _random_space(kind, n, seed)
    params = _profile_params(_VARIANTS[variant])[which]
    schedule = shift_schedule(params, grid_for(params).nodes)
    rng = np.random.default_rng(seed + 1)
    F = rng.uniform(-2.0, 2.0, size=(n, 1)) * scale
    F[rng.random(n) < 0.2] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "_COARSE_STRIDE", stride)
        screen = norms.ProfileScreen(space, schedule)
    assert screen._fine.size > 0
    bounds = screen.rows(F)
    assert bounds is not None
    upper, lower = bounds
    exact = norms.grand_rows(F, space, schedule, np.arange(schedule.nodes.size))[:, 0]
    assert np.all(lower <= exact)
    assert np.all(exact <= upper)
    assert np.argmax(exact) in screen.candidates(bounds)
    if np.any(F):
        # the screened rows are the ones with a positive lower bound
        assert screen.screened_rows == np.count_nonzero(lower)
        assert np.all(lower[screen._coarse] > 0.0)


def _flipped_argmax_case():
    """A space, a two-node schedule and a column whose surrogate argmax row
    is not the exact one.

    The second node's weight lies strictly between the exact and the
    surrogate ratio of the two unweighted rows, so the two paths order the
    weighted rows differently.  Both rows are coarse, so their upper bounds
    are their surrogates times 1 + delta.
    """
    space = _random_space("asymmetric", 48, 5)
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:0.5", MorreyVariant(), 32)
    unit = replace(shift_schedule(params, grid_for(params).nodes[:2]),
                   weight=np.ones(2))
    rng = np.random.default_rng(7)
    for _ in range(200):
        F = rng.uniform(0.0, 2.0, size=(space.n, 1))
        exact = norms.grand_rows(F, space, unit, [0, 1])[:, 0]
        approx = norms.ProfileScreen(space, unit).rows(F)[0]
        w = 0.5 * (exact[0] / exact[1] + approx[0] / approx[1])
        schedule = replace(unit, weight=np.array([1.0, w]))
        exact = norms.grand_rows(F, space, schedule, [0, 1])[:, 0]
        approx = norms.ProfileScreen(space, schedule).rows(F)[0]
        if np.sign(exact[0] - exact[1]) * np.sign(approx[0] - approx[1]) < 0:
            return space, schedule, F
    raise AssertionError("no column orders the two paths differently")


def test_surrogate_margin_keeps_the_exact_argmax_row(monkeypatch):
    space, schedule, F = _flipped_argmax_case()
    exact = norms.grand_rows(F, space, schedule, [0, 1])[:, 0]
    screen = norms.ProfileScreen(space, schedule)
    part = screen.candidates(screen.rows(F))
    assert norms.grand_rows(F, space, schedule, part).max() == exact.max()
    # without the margin only the surrogate argmax row is evaluated exactly,
    # and the grand norm comes out wrong
    monkeypatch.setattr(norms, "surrogate_margin", lambda n, den_exponent: 0.0)
    screen = norms.ProfileScreen(space, schedule)
    part = screen.candidates(screen.rows(F))
    assert norms.grand_rows(F, space, schedule, part).max() < exact.max()


def test_zero_column_bounds_every_row_by_zero(monkeypatch):
    """A zero column has zero coarse maxima: the log of the Lyapunov bound is
    -inf, so every fine row's upper bound is exp(-inf) = 0, never a nan, and
    every row stays a candidate for its zero exact value."""
    monkeypatch.setattr(norms, "_COARSE_STRIDE", 3)
    space = _random_space("tied", 24, 4)
    for params in _profile_params(MorreyVariant()):
        schedule = shift_schedule(params, grid_for(params).nodes)
        screen = norms.ProfileScreen(space, schedule)
        upper, lower = screen.rows(np.zeros((space.n, 1)))
        assert np.array_equal(upper, np.zeros(schedule.nodes.size))
        assert np.array_equal(lower, upper)
        assert np.array_equal(screen.candidates((upper, lower)),
                              np.arange(schedule.nodes.size))


def _single_point_space(n=24, seed=5):
    """An asymmetric space whose every ball measure is above 1."""
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.5, 3.0, size=(n, n))
    np.fill_diagonal(mat, 0.0)
    return build_space(list(range(n)), {"kind": "matrix", "matrix": mat.tolist()},
                       rng.uniform(50.0, 200.0, size=n).tolist())


def test_screen_slack_keeps_the_exact_maximum_row(monkeypatch):
    """A column with one nonzero point has a single term in every ball, so
    Hoelder's inequality holds with equality, as in
    test_lyapunov_slack_keeps_the_exact_maximum_ball: on the transported
    shift's second interval each fine row's maximum lies above the bound
    without the lam term.  The weights put the exact maximum at one fine
    row, by a relative 1e-5 over every other row.  The screen keeps it as a
    candidate; with gap and eta at 0 its upper bound falls below the coarse
    rows' lower bounds, and the grand norm comes out wrong."""
    space = _single_point_space()
    params = _profile_params(MorreyVariant())[1]
    full = shift_schedule(params, grid_for(params).nodes)
    rows = np.arange(16, 33)
    unit = replace(full, nodes=full.nodes[rows], p_eff=full.p_eff[rows],
                   lam_eff=full.lam_eff[rows], weight=np.ones(rows.size))
    F = np.zeros((space.n, 1))
    F[space.n - 1] = 1.5
    weight = 1.0 / norms.grand_rows(F, space, unit, np.arange(rows.size))[:, 0]
    weight[8] *= 1.0 + 1e-5
    schedule = replace(unit, weight=weight)
    exact = norms.grand_rows(F, space, schedule, np.arange(rows.size))[:, 0]
    assert np.argmax(exact) == 8
    screen = norms.ProfileScreen(space, schedule)
    assert np.array_equal(screen._coarse, [0, 16])
    part = screen.candidates(screen.rows(F))
    assert 8 in part
    assert norms.grand_rows(F, space, schedule, part).max() == exact.max()
    monkeypatch.setattr(norms, "_lyapunov_slack",
                        lambda theta, *args: (np.zeros_like(theta), 0.0))
    screen = norms.ProfileScreen(space, schedule)
    part = screen.candidates(screen.rows(F))
    assert 8 not in part
    assert norms.grand_rows(F, space, schedule, part).max() < exact.max()


@pytest.mark.parametrize("order", ["tied", "shuffled"])
def test_unordered_interval_screens_all_its_fine_rows(monkeypatch, order):
    """An interval whose fine t do not lie strictly between its ends has no
    Lyapunov bound: every fine row of it is screened, while an ordered
    interval of the same schedule screens none of its fine rows."""
    monkeypatch.setattr(norms, "_COARSE_STRIDE", 4)
    space = _random_space("asymmetric", 32, 11)
    params = _profile_params(MorreyVariant())[0]
    nodes = grid_for(params).nodes[:13]
    if order == "tied":
        # row 2 repeats row 0, an end of its interval
        nodes = np.insert(nodes, 2, nodes[0])
    else:
        # rows 2 and 6 swap intervals
        nodes[[2, 6]] = nodes[[6, 2]]
    schedule = shift_schedule(params, nodes)
    rng = np.random.default_rng(3)
    F = rng.uniform(0.5, 1.5, size=(space.n, 1))
    screen = norms.ProfileScreen(space, schedule)
    upper, lower = screen.rows(F)
    assert np.all(lower[1:4] > 0.0)
    if order == "shuffled":
        assert np.all(lower[5:8] > 0.0)
    assert np.all(lower[9:12] == 0.0)
    assert screen.screened_rows == np.count_nonzero(lower)
    exact = norms.grand_rows(F, space, schedule, np.arange(nodes.size))[:, 0]
    assert np.all((lower <= exact) & (exact <= upper))


def test_surrogate_steps_aside_for_subnormal_terms():
    space = calibrated_circle(24)
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:0.5", MorreyVariant(), 32)
    schedule = shift_schedule(params, grid_for(params).nodes)
    screen = norms.ProfileScreen(space, schedule)
    F = np.full((space.n, 1), 1e-160)
    assert screen.rows(F) is None
    assert np.array_equal(screen.candidates(None), np.arange(schedule.nodes.size))
    assert screen.rows(F * 1e150) is not None


def _circle_screen(circumference=1.0, variant=MorreyVariant()):
    space = calibrated_circle(24, circumference)
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:0.5", variant, 32)
    return space, norms.ProfileScreen(space, shift_schedule(params, grid_for(params).nodes))


def test_surrogate_steps_aside_for_terms_below_the_float32_range():
    # near eps = 0, |f|^(p - eps) w is about 1e-40 / 24: a normal float64
    # but a subnormal float32
    space, screen = _circle_screen()
    F = np.full((space.n, 1), 1e-20)
    F[0] = 1.0
    assert screen.rows(F) is None
    assert screen.rows(F * 1e10) is not None


@pytest.mark.parametrize("circumference", [
    1e3,   # radii above 1: factors r^(-100 lam) below 2^-126
    1.0,   # radii below 1: factors above the float32 range
])
def test_surrogate_steps_aside_for_den_factors_outside_the_float32_range(
        circumference):
    F = np.linspace(0.5, 1.5, 24)[:, None]
    _, screen = _circle_screen(circumference, MorreyVariant(kind="radius", gamma=100.0))
    assert screen.rows(F) is None
    _, tame = _circle_screen(circumference, MorreyVariant(kind="radius", gamma=1.0))
    assert tame.rows(F) is not None


def test_surrogate_steps_aside_where_a_ball_sum_could_overflow_float32():
    # near eps = 0, n |f|^(p - eps) w is about 1e40, above 2^127 even before
    # the den factors
    space, screen = _circle_screen()
    F = np.full((space.n, 1), 1e20)
    assert screen.rows(F) is None
    assert screen.rows(F * 1e-5) is not None


def _gathered(masks, pw):
    """The ball sums of the mask rows ``masks`` at every node of the terms
    pw (nodes, points, columns), (rows, nodes, columns), from one product
    laid out as the pruned path lays out its exact products: every node's
    terms side by side, zero-padded to a width that is a multiple of
    norms._ALIGN."""
    k, n, m = pw.shape
    width = -(-k * m // norms._ALIGN) * norms._ALIGN
    terms = np.zeros((n, width))
    terms[:, :k * m] = pw.transpose(1, 0, 2).reshape(n, k * m)
    return (masks @ terms)[:, :k * m].reshape(masks.shape[0], k, m)


def _floor(n, k, m):
    """The fewest ball rows of a gathered product of k nodes' m columns."""
    width = -(-k * m // norms._ALIGN) * norms._ALIGN
    return max(2, -(-norms._EXACT_MADDS // (n * width)))


@pytest.mark.parametrize("n", [64, 128])
def test_gathered_product_keeps_the_per_node_bits(n):
    """The pruned path's exact rows rest on this BLAS property: ball rows
    of the masks times the terms of several nodes side by side, zero-padded
    to a width that is a multiple of norms._ALIGN, give every node's
    columns the bits of that node's own product over every ball, wherever
    the gathered product does at least _EXACT_MADDS multiply-adds on at
    least two rows.  Checked for every m whose per-node product does that
    much, 1, 3 or 16 nodes, all their columns or their last one (the
    appended column), and ball counts from the floor up."""
    space = calibrated_circle(n)
    table = rep_balls(space)
    rng = np.random.default_rng(n)
    checked = 0
    for m in range(2, 65):
        if table.size * n * m < norms._EXACT_MADDS:
            continue
        checked += 1
        k = (1, 3, 16)[m % 3]
        F = rng.uniform(-2.0, 2.0, size=(n, m)) * 10.0 ** rng.integers(-3, 4, size=m)
        F[rng.random(F.shape) < 0.2] = 0.0
        pw = np.abs(F) ** np.linspace(1.1, 2.6, k)[:, None, None] * space.weights[:, None]
        full = np.matmul(table.masks_f[None], pw)
        for cols in (m, 1):
            part = np.ascontiguousarray(pw[:, :, m - cols:])
            floor = _floor(n, k, cols)
            assert floor <= table.size
            for size in sorted({floor, min(table.size, floor + 37), table.size // 3}):
                if size < floor:
                    continue
                rows = np.sort(rng.choice(table.size, size=size, replace=False))
                got = _gathered(table.masks[rows].astype(float), part)
                for i in range(k):
                    assert np.array_equal(got[:, i], full[i][rows][:, m - cols:]), \
                        (m, k, cols, size, i)
    assert checked == (57 if n == 64 else 63)


def test_gathered_product_keeps_the_per_node_bits_of_random_masks():
    """The same property on random 0/1 rows at n = 512, from the floor of
    two rows up: 64 nodes of 16 columns side by side."""
    n, k, m = 512, 64, 16
    rng = np.random.default_rng(512)
    masks = (rng.random((600, n)) < 0.5).astype(float)
    pw = rng.uniform(0.0, 1.0, size=(k, n, m)) * 10.0 ** rng.integers(-3, 4, size=(k, 1, m))
    full = np.matmul(masks[None], pw)
    assert _floor(n, k, m) == 2
    for size in (2, 3, 17, 600):
        rows = np.sort(rng.choice(600, size=size, replace=False))
        got = _gathered(masks[rows], pw)
        for i in range(k):
            assert np.array_equal(got[:, i], full[i][rows]), (size, i)


@pytest.mark.parametrize("n", [64, 128])
def test_column_subset_product_keeps_the_wider_product_bits(n):
    """verify_reduction appends a sharpened column to the family's profile
    (appended_profile), which rests on this BLAS property: the first m
    columns of an (m + 1)-column product equal the m-column product bit
    for bit over the whole table, wherever the m-column product does at
    least _EXACT_MADDS multiply-adds.  Below that OpenBLAS's
    small-matrix path breaks it for some m (m = 4 on circle-64), and
    appended_profile evaluates the whole profile instead."""
    space = calibrated_circle(n)
    table = rep_balls(space)
    rng = np.random.default_rng(n + 1)
    checked = 0
    for m in range(2, 65):
        F = rng.uniform(-2.0, 2.0, size=(n, m + 1)) * 10.0 ** rng.integers(-3, 4, size=m + 1)
        F[rng.random(F.shape) < 0.2] = 0.0
        wide = np.abs(F) ** 1.7 * space.weights[:, None]
        narrow = np.ascontiguousarray(wide[:, :m])
        if table.size * n * m < norms._EXACT_MADDS:
            continue
        checked += 1
        assert np.array_equal(np.matmul(table.masks_f, narrow),
                              np.matmul(table.masks_f, wide)[:, :m]), m
    assert checked == (57 if n == 64 else 63)


@pytest.mark.parametrize("name", ["circle-64", "circle-65", "grid-64"])
def test_superset_ball_sums_never_fall_below_their_subsets(name):
    """The screens drop every ball that another ball dominates
    (space.undominated): its members lie in the other's, whose den is no
    larger.  A dropped ball never holds a row's maximum alone, since its
    dominator's float64 scaled integral is never below its own: with 0/1
    masks and terms >= 0 the superset's exact sum is no smaller, rounding
    is monotone, and so is the den factor (ProfileScreen checks it).  That
    holds wherever the BLAS accumulates an element of a product in an order
    that does not depend on its row.  Checked on thm-5.4's uncapped dilated
    tables (dilation N_0 = 3 on these spaces) with random terms >= 0 and
    zeros, scaled by 1e-3 to 1e3, over every pair of nested balls: in the
    stacked full product and in gathered products of random ball rows."""
    space = get_space(name)
    variant = MorreyVariant(kind="modified", dilation=3.0, radius_cap="none")
    table, den = norms.variant_table(space, variant)
    rng = np.random.default_rng(space.n + 3)
    k, m = 2, 4
    pw = (rng.uniform(0.0, 1.0, size=(k, space.n, m))
          * 10.0 ** rng.integers(-3, 4, size=(k, 1, m)))
    pw[rng.random(pw.shape) < 0.2] = 0.0
    lam = np.array([0.3, 0.45])
    # every (inner, outer) pair of balls whose members nest
    masks32 = table.masks32
    inner, outer = [], []
    for a in range(0, table.size, 512):
        i, j = np.nonzero(masks32[a:a + 512] @ masks32.T == table.counts[a:a + 512, None])
        inner.append(i + a)
        outer.append(j)
    inner, outer = np.concatenate(inner), np.concatenate(outer)
    assert inner.size > 100 * table.size

    def assert_monotone(sums, rows):
        # sums (ball rows, k, m) of the table rows ``rows``
        scaled = sums * norms._den_scale(den[rows], lam).T[:, :, None]
        at = np.full(table.size, -1)
        at[rows] = np.arange(rows.size)
        both = np.flatnonzero((at[inner] >= 0) & (at[outer] >= 0))
        assert both.size > rows.size
        for part in np.array_split(both, -(-both.size // (1 << 16))):
            i, j = at[inner[part]], at[outer[part]]
            assert np.all(sums[j] >= sums[i])
            below = den[rows[j]] <= den[rows[i]]
            assert np.all(scaled[j[below]] >= scaled[i[below]])

    rows = np.arange(table.size)
    assert_monotone(np.matmul(table.masks_f[None], pw).transpose(1, 0, 2), rows)
    floor = _floor(space.n, k, m)
    for size in (floor, (floor + table.size) // 2):
        rows = np.sort(rng.choice(table.size, size=size, replace=False))
        assert_monotone(_gathered(table.masks[rows].astype(float), pw), rows)


def _gathered_products(monkeypatch):
    """The (ball rows, points, width) of every 2-D float64 product formed
    while the patch holds, which only the pruned path's exact stage forms."""
    shapes = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        if a.ndim == 2 and a.dtype == np.float64:
            shapes.append((a.shape[0], *b.shape))
        return matmul(a, b, *args, **kwargs)
    monkeypatch.setattr(np, "matmul", recording)
    return shapes


def _assert_gathered_floor(shapes):
    """Every gathered product does at least _EXACT_MADDS multiply-adds on at
    least two ball rows, and its width is a multiple of _ALIGN."""
    assert shapes
    for rows, n, width in shapes:
        assert rows >= 2 and rows * n * width >= norms._EXACT_MADDS, (rows, n, width)
        assert width % norms._ALIGN == 0, width


def _pruned_space(kind):
    """An asymmetric space, one with tied distances (63 distinct values) or
    a snowflake, each of 128 points and thousands of balls."""
    if kind != "tied":
        return _random_space(kind, 128, 4)
    rng = np.random.default_rng(4)
    mat = rng.integers(1, 64, size=(128, 128)).astype(float)
    np.fill_diagonal(mat, 0.0)
    return build_space(list(range(128)), {"kind": "matrix", "matrix": mat.tolist()},
                       (rng.uniform(0.5, 2.0, size=128) / 128).tolist())


@pytest.mark.parametrize("kind", ["asymmetric", "tied", "snowflake"])
def test_pruned_profile_matches_the_full_path_bitwise(monkeypatch, kind):
    space = _pruned_space(kind)
    rng = np.random.default_rng(59)
    elements = norms._SURROGATE_ELEMENTS
    chunked = False
    for v, variant in enumerate(_VARIANTS):
        table, _ = norms.variant_table(space, variant)
        setups = _profile_params(variant)
        # space.undominated leaves the modified tables' candidate unions a
        # few balls (the random columns peak on the saturated whole-space
        # ball), but the radius tables lose few balls (350, 120 and 1,552),
        # so their unions still reach two floors, at m = 128
        wide = (64, 128) if variant.kind == "radius" else ()
        for k, m in enumerate((2, 5, 9, 38, 39, 41) + wide):
            F = rng.uniform(-2.0, 2.0, size=(space.n, m)) * (1e-3, 1.0, 1e3)[k % 3]
            F[rng.random(F.shape) < 0.2] = 0.0
            F[:, m // 2] = 0.0
            params = setups[(k + v) % 3]
            # six nodes with coarse rows 0, 3 and 5: fine rows 1, 2 and 4
            # are screened over the balls their interval keeps, and the
            # second interval starts from the first one's closing screen
            schedule = shift_schedule(params, grid_for(params).nodes[::5][:6])
            monkeypatch.setattr(norms, "_COARSE_STRIDE", 3)
            # with ratio 1 every table here takes the pruned path, since
            # each holds at least pad balls
            monkeypatch.setattr(norms, "_PRUNE_RATIO", 1)
            pad = -(-norms._EXACT_MADDS // (space.n * m))
            assert table.size >= pad
            # every other m evaluates an interval's exact rows in chunks of
            # the floor, with a running maximum, where its union holds two
            # floors of balls; the others in one product per interval
            monkeypatch.setattr(norms, "_SURROGATE_ELEMENTS", 0 if k % 2 else elements)
            with monkeypatch.context() as patch, norms.pruning_work() as work:
                shapes = _gathered_products(patch)
                got = norms.seminorm_profile(F, space, schedule)
            assert work["pruned_rows"] == schedule.nodes.size
            assert work["range_fallbacks"] == 0
            assert work["coarse_rows"] == 3
            assert 0 < work["interval_balls"] <= 2 * table.size
            assert 0 < work["candidate_balls"] <= work["padded_balls"]
            assert (work["dominated_balls"] > 0) == (variant.kind != "measure")
            _assert_gathered_floor(shapes)
            if variant.kind == "radius":
                chunked |= len(shapes) > 3
            monkeypatch.setattr(norms, "_PRUNE_RATIO", 1 << 62)
            with norms.pruning_work() as work:
                want = norms.seminorm_profile(F, space, schedule)
            assert work["pruned_rows"] == 0
            assert np.array_equal(got, want), (variant, m)
            assert np.all(got[:, m // 2] == 0.0)
    # the snowflake's radius unions stay below two floors
    assert chunked == (kind != "snowflake")


@pytest.mark.parametrize("kind", ["asymmetric", "tied", "snowflake"])
def test_undominated_screens_keep_the_whole_table_bits(monkeypatch, kind):
    """The screens read only the balls that no other ball dominates
    (space.undominated): the pruned family profile, the appended column and
    the sharpening screens' candidate rows give the bits of screens over
    the whole table, on all three variants; the measure tables are never
    reduced."""
    space = _random_space(kind, 96, 9)
    rng = np.random.default_rng(61)
    F = rng.uniform(-2.0, 2.0, size=(space.n, 39))
    F[rng.random(F.shape) < 0.2] = 0.0
    family = np.ascontiguousarray(F[:, :-1])
    shipped = norms.undominated
    for v, variant in enumerate(_VARIANTS):
        params = _profile_params(variant)[v]
        schedule = shift_schedule(params, grid_for(params).nodes[::2])
        runs = []
        for scan in (shipped, lambda space, table, den: np.arange(table.size)):
            monkeypatch.setattr(norms, "undominated", scan)
            space._cache.pop(("undominated", variant), None)
            with norms.pruning_work() as work:
                prof = norms.seminorm_profile(family, space, schedule)
                whole = norms.appended_profile(prof, F, space, schedule)
                screen = norms.ProfileScreen(space, schedule)
                rows = screen.candidates(screen.rows(F[:, -1:]))
            exact = norms.grand_rows(F[:, -1:], space, schedule, rows).max()
            runs.append((whole, exact, screen.table.size, dict(work)))
        (got, top, size, work), (want, top_whole, whole_size, whole_work) = runs
        table, _ = norms.variant_table(space, variant)
        assert whole_size == table.size and whole_work["dominated_balls"] == 0
        assert work["pruned_rows"] == whole_work["pruned_rows"] > 0
        # three screens: the family's, the appended column's and this one
        assert work["dominated_balls"] == 3 * (table.size - size)
        # the tied space's radius table has no dominated ball
        if variant.kind != "radius" or kind != "tied":
            assert (size < table.size) == (variant.kind != "measure"), variant
        assert work["dominance_refusals"] == 0
        assert np.array_equal(got, want), variant
        assert top == top_whole, variant


def test_screen_keeps_the_whole_table_where_den_factors_increase():
    """A kept dominator's den is at most the dropped ball's, so its den
    factor den^-lam is at least the dropped ball's only where the factors
    do not increase with den.  A row with lam_eff < 0 has increasing
    factors, and the screen keeps the whole table."""
    space = _pruned_space("tied")
    variant = _VARIANTS[2]
    params = _profile_params(variant)[0]
    schedule = shift_schedule(params, grid_for(params).nodes[::5][:6])
    table, _ = norms.variant_table(space, variant)
    with norms.pruning_work() as work:
        screen = norms.ProfileScreen(space, schedule)
    assert screen.table.size < table.size
    assert work["dominance_refusals"] == 0
    lam = schedule.lam_eff.copy()
    lam[-1] = -0.1
    rising = replace(schedule, lam_eff=lam)
    with norms.pruning_work() as work:
        screen = norms.ProfileScreen(space, rising)
    assert screen.table is table
    assert work["dominance_refusals"] == 1 and work["dominated_balls"] == 0
    F = np.random.default_rng(79).uniform(-2.0, 2.0, size=(space.n, 9))
    with norms.pruning_work() as work:
        got = norms.seminorm_profile(F, space, rising)
    assert work["pruned_rows"] > 0 and work["dominance_refusals"] == 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "_PRUNE_RATIO", 1 << 62)
        want = norms.seminorm_profile(F, space, rising)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", ["tied", "shuffled"])
def test_pruned_path_keeps_every_ball_where_the_screen_has_no_bound(monkeypatch,
                                                                    order):
    """The pruned profiles read the one ordering rule of ProfileScreen: an
    interval bounds its fine rows only where all their t lie strictly
    between its ends.  A fine row that repeats an end (theta = 1, psi = 0)
    does not, nor does a row swapped into another interval.  Such an
    interval keeps every ball, every other interval fewer, and the pruned
    rows equal the forced full path's."""
    monkeypatch.setattr(norms, "_COARSE_STRIDE", 4)
    space = _pruned_space("asymmetric")
    params = _profile_params(MorreyVariant())[0]
    nodes = grid_for(params).nodes[::4][:13]
    if order == "tied":
        # row 2 repeats row 0, the start of its interval
        nodes = np.insert(nodes, 2, nodes[0])
    else:
        # rows 2 and 6 swap intervals
        nodes[[2, 6]] = nodes[[6, 2]]
    schedule = shift_schedule(params, nodes)
    table, _ = norms.variant_table(space, schedule.variant)
    screen = norms.ProfileScreen(space, schedule)
    unbounded = set(screen._end[np.isnan(screen._slack)].tolist())
    assert unbounded == ({1} if order == "tied" else {1, 2})
    kept = {}
    interval_balls = norms._interval_balls

    def recording(screen, end, *args):
        balls = interval_balls(screen, end, *args)
        kept[end] = balls.size
        return balls
    monkeypatch.setattr(norms, "_interval_balls", recording)
    monkeypatch.setattr(norms, "_PRUNE_RATIO", 1)
    F = np.random.default_rng(23).uniform(0.5, 1.5, size=(space.n, 9))
    with norms.pruning_work() as work:
        got = norms.seminorm_profile(F, space, schedule)
    assert work["pruned_rows"] == nodes.size
    assert sorted(kept) == [1, 2, 3]
    for end, size in kept.items():
        assert (size == table.size) == (end in unbounded), (end, size)
    monkeypatch.setattr(norms, "_PRUNE_RATIO", 1 << 62)
    assert np.array_equal(got, norms.seminorm_profile(F, space, schedule))


@pytest.mark.parametrize("name,pruned", [
    ("circle-64", {8, 12, 16, 24, 32, 38, 39, 64}),   # 2,048 balls
    ("circle-65", {8, 12, 16, 24, 32, 38, 39, 64}),   # 2,080 balls
    ("grid-64", {16, 24, 32, 38, 39, 64}),            # 1,119 balls
], ids=["circle-64", "circle-65", "grid-64"])
def test_shipped_prune_gate_keeps_the_full_path_bits(monkeypatch, name, pruned):
    # the shipped _PRUNE_RATIO, on the catalog tables and column counts that
    # certificates evaluate (a mixed family has 38 columns, 39 with its
    # sharpened member) and the column counts on both sides of the gate:
    # the pruned path is taken exactly where the table holds _PRUNE_RATIO
    # times pad balls, and gives the full path's bits
    space = get_space(name)
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:1")
    schedule = shift_schedule(params, grid_for(params).nodes[::3])
    table, _ = norms.variant_table(space, schedule.variant)
    rng = np.random.default_rng(71)
    taken = set()
    for m in (4, 8, 12, 16, 24, 32, 38, 39, 64):
        F = rng.uniform(-2.0, 2.0, size=(space.n, m))
        F[rng.random(F.shape) < 0.2] = 0.0
        pad = -(-norms._EXACT_MADDS // (space.n * m))
        with norms.pruning_work() as work:
            got = norms.seminorm_profile(F, space, schedule)
        assert work["range_fallbacks"] == 0
        assert (work["pruned_rows"] > 0) == (table.size >= norms._PRUNE_RATIO * pad), m
        if work["pruned_rows"]:
            taken.add(m)
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_PRUNE_RATIO", 1 << 62)
            want = norms.seminorm_profile(F, space, schedule)
        assert np.array_equal(got, want), m
    assert taken == pruned


@pytest.mark.parametrize("m", [1, 39], ids=["full-path", "pruned-path"])
def test_empty_row_set_gives_no_rows_on_both_paths(m):
    # one column takes the full path; 39 columns on circle-64 take the
    # pruned one, whose screen has no row to read its range from
    space = get_space("circle-64")
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:1")
    schedule = shift_schedule(params, grid_for(params).nodes)
    table, _ = norms.variant_table(space, schedule.variant)
    pad = -(-norms._EXACT_MADDS // (space.n * m))
    assert (table.size >= norms._PRUNE_RATIO * pad) == (m > 1)
    F = np.random.default_rng(73).uniform(-2.0, 2.0, size=(space.n, m))
    for rows in ([], np.arange(0), slice(0, 0)):
        got = norms.grand_rows(F, space, schedule, rows)
        assert got.shape == (0, m)


@pytest.mark.parametrize("kind", ["asymmetric", "tied", "snowflake"])
def test_appended_profile_matches_the_whole_profile_bitwise(monkeypatch, kind):
    space = _pruned_space(kind)
    rng = np.random.default_rng(67)
    pruned_max = norms._pruned_max

    def _recording(blocks):
        def recorded(screen, j, pw, held):
            blocks.append((j, *pw.shape[::2]))
            return pruned_max(screen, j, pw, held)
        return recorded
    for v, variant in enumerate(_VARIANTS):
        table, _ = norms.variant_table(space, variant)
        setups = _profile_params(variant)
        for k, m in enumerate((3, 9, 38, 39, 41)):
            F = rng.uniform(-2.0, 2.0, size=(space.n, m)) * (1e-3, 1.0, 1e3)[k % 3]
            F[rng.random(F.shape) < 0.2] = 0.0
            if k == 1:
                F[:, -1] = 0.0
            params = setups[(k + v) % 3]
            schedule = shift_schedule(params, grid_for(params).nodes[::5][:7])
            # coarse rows 0, 3 and 6: two blocks of three rows, whose terms
            # (of the last column only) hold their closing coarse row too,
            # with two fine rows each, and the last row alone; each exact
            # product in chunks of its union's balls
            pad = -(-norms._EXACT_MADDS // (space.n * m))
            monkeypatch.setattr(norms, "_COARSE_STRIDE", 3)
            monkeypatch.setattr(norms, "_SURROGATE_ELEMENTS", 2 * pad * m)
            prof = norms.seminorm_profile(np.ascontiguousarray(F[:, :-1]), space,
                                          schedule)
            blocks = []
            with monkeypatch.context() as patch, norms.pruning_work() as work:
                patch.setattr(norms, "_pruned_max", _recording(blocks))
                shapes = _gathered_products(patch)
                got = norms.appended_profile(prof, F, space, schedule)
            assert blocks == [(0, 4, 1), (1, 4, 1), (2, 1, 1)]
            assert work["pruned_rows"] == schedule.nodes.size
            assert work["range_fallbacks"] == 0
            assert work["coarse_rows"] == 3
            assert (work["interval_balls"] == 0) == (k == 1)
            _assert_gathered_floor(shapes)
            assert {width for _, _, width in shapes} == {norms._ALIGN}
            assert (work["candidate_balls"] == 0) == (k == 1)
            assert np.array_equal(got, norms.seminorm_profile(F, space, schedule)), \
                (variant, m)
            assert np.array_equal(got[:, :-1], prof)
            if k == 1:
                assert np.all(got[:, -1] == 0.0)


def test_appended_profile_of_small_products_and_out_of_range_columns(monkeypatch):
    rng = np.random.default_rng(71)
    params = _profile_params(MorreyVariant())[0]
    schedule = shift_schedule(params, grid_for(params).nodes[::4])
    trailing = norms._trailing_profile
    screened = []

    def recording(F, space, schedule, cols):
        screened.append(cols)
        return trailing(F, space, schedule, cols)
    # a small table, and one family column (a matrix-vector product), take
    # the whole profile again: no column is screened on its own, and the
    # whole profile of the tied space (2 columns) takes the pruned path
    for space, m in ((get_space("grid-16"), 39), (_pruned_space("tied"), 2)):
        F = rng.uniform(-2.0, 2.0, size=(space.n, m))
        prof = norms.seminorm_profile(np.ascontiguousarray(F[:, :-1]), space, schedule)
        screened.clear()
        with monkeypatch.context() as patch, norms.pruning_work() as work:
            patch.setattr(norms, "_trailing_profile", recording)
            got = norms.appended_profile(prof, F, space, schedule)
        assert screened == [m]
        assert (work["pruned_rows"] > 0) == (m == 2)
        assert np.array_equal(got, norms.seminorm_profile(F, space, schedule))
    # terms of the appended column below the float32 range take the full path
    space = _pruned_space("tied")
    F = rng.uniform(-2.0, 2.0, size=(space.n, 39))
    F[:, -1] *= 1e-30
    prof = norms.seminorm_profile(np.ascontiguousarray(F[:, :-1]), space, schedule)
    with norms.pruning_work() as work:
        got = norms.appended_profile(prof, F, space, schedule)
    assert work["pruned_rows"] == 0 and work["range_fallbacks"] > 0
    assert np.array_equal(got, norms.seminorm_profile(F, space, schedule))


def _near_tie_case(screened=39):
    """A 39-column F with one nonzero column, and a one-node schedule, whose
    surrogate puts a ball above the one holding the exact maximum.  The
    surrogate screens the first ``screened`` columns side by side: all of
    them, as the pruned path does, or the nonzero one alone, as
    appended_profile screens its last column.

    Both balls lie beyond the pruned path's padding, the other columns are
    zero and the schedule has no earlier node block to seed the running
    maximum, so only the margin can make the exact argmax ball a candidate.
    The search moves the term of one point, which lies in the runner-up
    ball but not in the top ball, through the exact tie of the two.
    """
    space = _random_space("asymmetric", 128, 5)
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:0.5", MorreyVariant(), 32)
    schedule = shift_schedule(params, grid_for(params).nodes[:1])
    table, den = norms.variant_table(space, schedule.variant)
    factors = den ** -schedule.lam_eff[:, None, None]
    m = 39
    # the padding of the one-node exact product of the screened columns
    floor = _floor(space.n, 1, screened)

    def integrals(f):
        F = np.zeros((space.n, m))
        F[:, 0] = f
        pw = np.abs(F) ** schedule.p_eff[:, None, None] * space.weights[:, None]
        exact = (table.masks_f @ pw[0])[:, 0] * factors[0, 0]
        surrogate = norms._f32_scaled(
            table.masks32,
            norms._f32_terms(pw[:, :, :screened], factors.min(), factors.max()),
            np.ascontiguousarray(factors[:, 0].T, dtype=np.float32))[:, 0]
        return F, exact, surrogate

    rng = np.random.default_rng(5)
    for _ in range(50):
        f = rng.uniform(0.0, 2.0, size=space.n)
        _, exact, _ = integrals(f)
        top, second = np.argsort(exact)[::-1][:2]
        extra = np.flatnonzero(table.masks[second] & ~table.masks[top])
        if extra.size == 0:
            continue
        x = extra[0]
        tie = (space.weights[x] * abs(f[x]) ** schedule.p_eff[0]
               + (exact[top] - exact[second]) / factors[0, 0, second])
        for k in range(-60, 61):
            f[x] = (tie * (1.0 + k * 1e-8) / space.weights[x]) ** (1.0 / schedule.p_eff[0])
            F, exact, surrogate = integrals(f)
            best, decoy = int(np.argmax(exact)), int(np.argmax(surrogate))
            # the decoy comes first in table order, so the running maximum
            # reaches its surrogate no later than the exact argmax ball's,
            # and the two seminorms still differ after the root
            root = exact[[decoy, best]] ** (1.0 / schedule.p_eff[0])
            if (floor <= decoy < best and surrogate[best] < surrogate[decoy]
                    and root[0] < root[1]):
                return space, schedule, F
    raise AssertionError("no column puts a surrogate above the exact maximum")


def test_pruning_margin_keeps_the_exact_maximum_ball(monkeypatch):
    space, schedule, F = _near_tie_case()
    with norms.pruning_work() as work:
        got = norms.seminorm_profile(F, space, schedule)
    assert work["pruned_rows"] == 1
    monkeypatch.setattr(norms, "_PRUNE_RATIO", 1 << 62)
    want = norms.seminorm_profile(F, space, schedule)
    assert np.array_equal(got, want)
    # without the margin only the surrogate argmax ball (and the padding)
    # is evaluated exactly, and the seminorm comes out wrong
    monkeypatch.undo()
    monkeypatch.setattr(norms, "surrogate_margin", lambda n, den_exponent: 0.0)
    with norms.pruning_work() as work:
        lost = norms.seminorm_profile(F, space, schedule)
    assert work["pruned_rows"] == 1
    assert lost[0, 0] < want[0, 0]
    assert np.array_equal(lost[:, 1:], want[:, 1:])


def test_appended_margin_keeps_the_exact_maximum_ball(monkeypatch):
    space, schedule, F = _near_tie_case(screened=1)
    # the near-tie column last, after 38 zero family columns
    G = np.ascontiguousarray(F[:, ::-1])
    prof = norms.seminorm_profile(np.ascontiguousarray(G[:, :-1]), space, schedule)
    want = norms.seminorm_profile(G, space, schedule)
    with norms.pruning_work() as work:
        got = norms.appended_profile(prof, G, space, schedule)
    assert work["pruned_rows"] == 1
    assert np.array_equal(got, want)
    monkeypatch.setattr(norms, "surrogate_margin", lambda n, den_exponent: 0.0)
    lost = norms.appended_profile(prof, G, space, schedule)
    assert lost[0, -1] < want[0, -1]


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(("asymmetric", "tied", "snowflake")),
       n=st.integers(2, 24), m=st.integers(3, 8), seed=st.integers(0, 2**16),
       variant=st.sampled_from(range(3)), which=st.sampled_from(range(3)),
       scale=st.sampled_from((1e-3, 1.0, 1e3)), sub=st.sampled_from((1, 3)),
       stride=st.integers(2, 5),
       order=st.sampled_from(("grid", "reversed", "shuffled", "tied")))
def test_pruned_kernel_matches_the_node_by_node_oracle(kind, n, m, seed, variant,
                                                       which, scale, sub, stride,
                                                       order):
    """With a floor of two balls and every table pruned, the family profile
    and the appended column rest on the screen's candidates; each row
    agrees with inner_seminorm_matrix within the float64 sums' reordering.
    Exact products in chunks of two balls or a few, and screen blocks of a
    ball or a few, keep the running maxima in play.  Every
    ``stride``-th row is coarse and the schedule holds at least three
    intervals, whose fine rows are screened only over the balls Lyapunov's
    bound keeps.  In grid order t = p - eps falls from row to row, reversed
    it rises, and shuffled or with a repeated node an interval whose fine t
    do not lie between its ends keeps every ball."""
    space = _random_space(kind, n, seed)
    params = _profile_params(_VARIANTS[variant])[which]
    rng = np.random.default_rng(seed + 2)
    nodes = grid_for(params).nodes[::2][:rng.integers(3 * stride + 1, 33)]
    if order == "reversed":
        nodes = nodes[::-1]
    elif order == "shuffled":
        nodes = rng.permutation(nodes)
    elif order == "tied":
        nodes = np.insert(nodes, stride, nodes[0])
    schedule = shift_schedule(params, nodes)
    coarse = len(range(0, nodes.size - 1, stride)) + 1
    assert coarse >= 4
    F = rng.uniform(-2.0, 2.0, size=(n, m)) * scale
    F[rng.random(F.shape) < 0.2] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "_COARSE_STRIDE", stride)
        patch.setattr(norms, "_EXACT_MADDS", 1)
        patch.setattr(norms, "_PRUNE_RATIO", 1)
        patch.setattr(norms, "_SURROGATE_ELEMENTS", sub * m)
        with norms.pruning_work() as work:
            prof = norms.seminorm_profile(np.ascontiguousarray(F[:, :-1]), space,
                                          schedule)
            got = norms.appended_profile(prof, F, space, schedule)
    assert work["pruned_rows"] == 2 * nodes.size
    assert work["coarse_rows"] == 2 * coarse
    assert work["range_fallbacks"] == 0
    assert work["candidate_balls"] <= work["padded_balls"]
    tol = 2.0 * norms._gamma(n, 2.0 ** -53)
    for i, (pe, le) in enumerate(zip(schedule.p_eff, schedule.lam_eff)):
        want = inner_seminorm_matrix(F, space, pe, le, schedule.variant)
        assert np.all(np.abs(got[i] - want) <= tol * want), (i, got[i] / want - 1.0)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(("asymmetric", "tied", "snowflake")),
       n=st.integers(96, 128), m=st.integers(2, 41), seed=st.integers(0, 2**16),
       variant=st.sampled_from(range(3)), which=st.sampled_from(range(3)),
       scale=st.sampled_from((1e-3, 1.0, 1e3)), stride=st.sampled_from((2, 3, 16)))
def test_pruned_profile_matches_the_forced_full_path_on_random_spaces(
        kind, n, m, seed, variant, which, scale, stride):
    """On random spaces the pruned profile, gathered products and all, equals
    the forced full path's bit for bit.  Every table here takes the pruned
    path, and m is raised where needed so that the table holds pad balls:
    each node's own product does at least _EXACT_MADDS multiply-adds, as
    the shipped gate guarantees."""
    space = _random_space(kind, n, seed)
    params = _profile_params(_VARIANTS[variant])[which]
    table, _ = norms.variant_table(space, params.variant)
    m = max(m, -(-norms._EXACT_MADDS // (n * table.size)))
    pad = -(-norms._EXACT_MADDS // (n * m))
    assert table.size >= pad
    rng = np.random.default_rng(seed + 3)
    nodes = grid_for(params).nodes[::2][:rng.integers(stride + 2, 33)]
    schedule = shift_schedule(params, nodes)
    F = rng.uniform(-2.0, 2.0, size=(n, m)) * scale
    F[rng.random(F.shape) < 0.2] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "_COARSE_STRIDE", stride)
        patch.setattr(norms, "_PRUNE_RATIO", 1)
        with norms.pruning_work() as work:
            got = norms.seminorm_profile(F, space, schedule)
        patch.setattr(norms, "_PRUNE_RATIO", 1 << 62)
        want = norms.seminorm_profile(F, space, schedule)
    assert work["pruned_rows"] + work["range_fallbacks"] > 0
    assert np.array_equal(got, want), (kind, n, m, stride)


def test_lyapunov_slack_keeps_the_exact_maximum_ball(monkeypatch):
    """A column with one nonzero point has a single term in every ball, so
    Hoelder's inequality holds with equality: at a fine row i each ball's
    scaled integral is exactly X_a^theta X_b^psi den^(theta lam_a + psi
    lam_b - lam_i).  On the transported shift's second interval that
    exponent is positive, and with every ball measure above 1 the exact
    maximum lies above the bound without the lam term, at every fine row.
    Only the lam term (and eta) of _lyapunov_slack keeps its ball, the
    singleton of the point, which lies beyond the padding."""
    n, m = 128, 39
    rng = np.random.default_rng(5)
    mat = rng.uniform(0.5, 3.0, size=(n, n))
    np.fill_diagonal(mat, 0.0)
    space = build_space(list(range(n)), {"kind": "matrix", "matrix": mat.tolist()},
                        rng.uniform(50.0, 200.0, size=n).tolist())
    params = _profile_params(MorreyVariant())[1]
    schedule = shift_schedule(params, grid_for(params).nodes)
    t, lam = schedule.p_eff, schedule.lam_eff
    fine = np.arange(17, 32)
    theta = (t[32] - t[fine]) / (t[32] - t[16])
    assert np.all(theta * lam[16] + (1.0 - theta) * lam[32] - lam[fine] > 1e-4)
    F = np.zeros((n, m))
    F[n - 1, 0] = 1.5
    # each row's exact product on its own, so that no fine row borrows the
    # coarse row's candidates from its interval's union
    gathered_max = norms._gathered_max

    def per_row(table, den, lam, pw, cand):
        return np.concatenate([gathered_max(table, den, lam[i:i + 1], pw[i:i + 1],
                                            cand[i:i + 1]) for i in range(lam.size)])
    monkeypatch.setattr(norms, "_gathered_max", per_row)
    with norms.pruning_work() as work:
        got = norms.seminorm_profile(F, space, schedule)
    assert work["pruned_rows"] == schedule.nodes.size
    assert work["coarse_rows"] < schedule.nodes.size
    with monkeypatch.context() as patch:
        patch.setattr(norms, "_PRUNE_RATIO", 1 << 62)
        want = norms.seminorm_profile(F, space, schedule)
    assert np.array_equal(got, want)
    # eta alone is not what keeps it
    slack = norms._lyapunov_slack
    monkeypatch.setattr(norms, "_lyapunov_slack", lambda *args: (slack(*args)[0], 0.0))
    assert np.array_equal(norms.seminorm_profile(F, space, schedule), want)
    # without the lam term the interval keeps no ball, and its fine rows
    # evaluate only the padding
    monkeypatch.setattr(norms, "_lyapunov_slack",
                        lambda theta, *args: (np.zeros_like(theta), 0.0))
    lost = norms.seminorm_profile(F, space, schedule)
    assert np.all(lost[fine, 0] < want[fine, 0])
    assert np.array_equal(np.delete(lost, fine, axis=0), np.delete(want, fine, axis=0))


# ---------------------------------------------------------------------------
# dominance


def test_dominance_constant_bounds_tail_everywhere():
    rng = np.random.default_rng(43)
    for space_name, p, lam, phi, A, variant in (
        ("grid-16", 2.0, 0.3, "pow:1", "zero", MorreyVariant()),
        ("circle-16", 2.5, 0.45, "pow:2", "zero", MorreyVariant()),
        ("snowflake-16", 1.8, 0.2, "alog:1", "zero",
         MorreyVariant(kind="radius", gamma=2.0)),
    ):
        s = get_space(space_name)
        params = make_grand_params(p, lam, phi_spec=phi, A_spec=A, variant=variant)
        sigma = 0.4 * params.s_max
        rep = dominance_report(s, params, sigma)
        for _ in range(6):
            f = rng.uniform(0, 2, size=s.n)
            lhs = grand_morrey_norm(f, s, params)
            rhs_inner = phi_functional(f, s, params, sigma, include_endpoint=True)
            bound = rep["C"] * float(params.phi(sigma)) ** (-1.0 / (p - sigma)) * rhs_inner
            assert lhs <= bound * (1.0 + 1e-12), (space_name, lhs, bound)


def test_dominance_per_node_factor_is_exact_hoelder():
    s = get_space("grid-4")
    params = make_grand_params(2.0, 0.3, A_spec="lin:0.2")
    sigma = 0.3
    rep = dominance_report(s, params, sigma)
    rng = np.random.default_rng(47)
    nodes = grid_for(params).nodes
    for f in rng.uniform(0, 2, size=(4, s.n)):
        F = f[:, None]
        n_sigma = inner_seminorm_matrix(
            F, s, params.p - sigma, params.lam - params.A(sigma), params.variant)[0]
        for eps in nodes[nodes >= sigma]:
            pe = params.p - eps
            le = params.lam - params.A(float(eps))
            n_eps = inner_seminorm_matrix(F, s, pe, le, params.variant)[0]
            assert n_eps <= rep["M_delta"] * n_sigma * (1.0 + 1e-12)


def test_k_phi_frozen():
    # phi = eps with p = 2: max over grid of eps^(1/(2-eps)) sits at the
    # largest node just under 1
    params = make_grand_params(2.0, 0.3)
    val = k_phi(params)
    nodes = grid_for(params).nodes
    expected = max(e ** (1.0 / (2.0 - e)) for e in nodes)
    assert abs(val - expected) < 1e-15
    assert val < 1.0


def test_dominance_report_fields():
    s = line_grid(4)
    params = make_grand_params(2.0, 0.3)
    rep = dominance_report(s, params, 0.5)
    assert rep["C"] >= rep["K_phi"] * rep["M_delta"] - 1e-15
    assert rep["C0"] == rep["C"] / max(1.0, s.diameter)
    assert "witness" in rep
    with pytest.raises(NormError):
        dominance_report(s, params, 2.0)
