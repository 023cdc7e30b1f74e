"""Maximal functions, potentials, and singular kernel diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from morreylab import operators
from morreylab.catalog import calibrated_circle, catalog, get_space, line_grid, two_atom
from morreylab.operators import (
    CZKernel,
    OperatorError,
    cz_apply,
    hilbert_kernel,
    l2_operator_norm,
    maximal,
    modified_maximal,
    potential,
    potential_matrix,
    validate_cz_kernel,
)
from morreylab.norms import as_matrix
from morreylab.space import prefix_profile, rep_balls


# ---------------------------------------------------------------------------
# oracles


def oracle_ball_measure(space, center, radius):
    return sum(space.weights[j] for j in range(space.n)
               if space.dist[center][j] < radius)


def oracle_ball_avg(space, f, center, radius):
    num = sum(abs(f[j]) * space.weights[j] for j in range(space.n)
              if space.dist[center][j] < radius)
    return num / oracle_ball_measure(space, center, radius)


def oracle_maximal_dense(space, f, center, samples=3000, cap="diameter"):
    top = space.diameter if cap == "diameter" else 3.0 * space.diameter
    best = 0.0
    for r in np.linspace(top / samples, top * (1 - 1e-12), samples):
        if cap == "diameter" and r >= space.diameter:
            continue
        best = max(best, oracle_ball_avg(space, f, center, r))
    return best


def oracle_max_ball_average(f, space, table):
    """The per-center loop that operators._max_ball_average vectorises: one
    cumulative sum in each center's distance order, read at the ball counts."""
    F = as_matrix(f, space)
    av = np.abs(F) * space.weights[:, None]
    prof = prefix_profile(space)
    bounds = np.searchsorted(table.centers, np.arange(space.n + 1))
    out = np.zeros((space.n, F.shape[1]))
    cf = np.zeros((space.n + 1, F.shape[1]))
    for x in range(space.n):
        a, b = bounds[x], bounds[x + 1]
        if a == b:
            continue
        np.cumsum(av[prof.order[x]], axis=0, out=cf[1:])
        out[x] = (cf[table.counts[a:b]] / table.dilated_measures[a:b, None]).max(axis=0)
    return out


def oracle_modified_dense(space, f, center, N0, samples=3000):
    top = 2.0 * space.diameter
    best = 0.0
    for r in np.linspace(top / samples, top, samples):
        num = sum(abs(f[j]) * space.weights[j] for j in range(space.n)
                  if space.dist[center][j] < r)
        den = oracle_ball_measure(space, center, N0 * r)
        best = max(best, num / den)
    return best


# ---------------------------------------------------------------------------
# maximal functions


def test_maximal_point_mass_frozen():
    s = line_grid(4)
    f = np.array([1.0, 0.0, 0.0, 0.0])
    M = maximal(f, s)
    assert abs(M[0] - 1.0) < 1e-15
    assert abs(M[1] - 1.0 / 3.0) < 1e-15
    # the far endpoint only sees the mass with r >= d_X, which the capped
    # maximal excludes
    assert M[3] == 0.0
    M_unb = maximal(f, s, radius_cap="none")
    assert abs(M_unb[3] - 0.25) < 1e-15


def test_maximal_matches_dense_oracle():
    rng = np.random.default_rng(51)
    for name in ("grid-16", "circle-16", "two-atom", "asym-4"):
        s = get_space(name)
        f = rng.uniform(0, 2, size=s.n)
        M = maximal(f, s)
        for x in range(s.n):
            dense = oracle_maximal_dense(s, f, x)
            assert dense <= M[x] + 1e-12
            assert M[x] - dense < 1e-9


@pytest.mark.parametrize("name", [*catalog(), "circle-128"])
def test_maximal_functions_match_the_per_center_loop_bitwise(name):
    s = calibrated_circle(128) if name == "circle-128" else get_space(name)
    rng = np.random.default_rng(len(name))
    for m in (1, 39):
        F = rng.uniform(-2.0, 2.0, size=(s.n, m))
        F[rng.random(F.shape) < 0.2] = 0.0
        for cap in ("diameter", "none"):
            want = oracle_max_ball_average(F, s, rep_balls(s, radius_cap=cap))
            assert np.array_equal(maximal(F, s, radius_cap=cap), want), (m, cap)
        for N0 in (1.0, 3.0):
            want = oracle_max_ball_average(
                F, s, rep_balls(s, dilation=N0, radius_cap="none"))
            assert np.array_equal(modified_maximal(F, s, N0), want), (m, N0)
        assert np.array_equal(maximal(F[:, 0], s), maximal(F, s)[:, 0])


def test_maximal_of_constant_is_constant():
    for name in ("grid-16", "two-atom"):
        s = get_space(name)
        M = maximal(np.ones(s.n), s)
        assert np.allclose(M, 1.0)


def test_maximal_batch_shape():
    s = line_grid(4)
    F = np.stack([np.ones(4), np.arange(4.0)], axis=1)
    M = maximal(F, s)
    assert M.shape == (4, 2)


def test_nested_list_batch_keeps_every_column():
    """A 2-D nested list is a batch like a 2-D array: every operator maps
    each column, not the first column alone."""
    s = get_space("grid-16")
    F = np.random.default_rng(19).uniform(-1.0, 1.0, size=(s.n, 3))
    for op in (lambda f: maximal(f, s),
               lambda f: modified_maximal(f, s, 3.0),
               lambda f: potential(f, s, "k-alpha", 0.5),
               lambda f: cz_apply(f, s, hilbert_kernel(s))):
        got = op(F.tolist())
        assert got.shape == (s.n, 3)
        assert np.array_equal(got, op(F))
        # one column alone is a matrix-vector product, whose sums can round apart
        assert np.allclose(got[:, 1], op(F[:, 1].tolist()), rtol=1e-14, atol=1e-15)


def test_modified_maximal_matches_dense_oracle():
    rng = np.random.default_rng(53)
    for name in ("grid-16", "circle-16", "two-atom"):
        s = get_space(name)
        f = rng.uniform(0, 2, size=s.n)
        Mt = modified_maximal(f, s, 3.0)
        for x in range(s.n):
            dense = oracle_modified_dense(s, f, x, 3.0)
            assert dense <= Mt[x] + 1e-12
            assert Mt[x] - dense < 1e-9


def test_modified_maximal_dominated_by_unbounded_maximal():
    # for every r: int_{B(x,r)} |f| <= int_{B(x,N0 r)} |f|, so the modified
    # average is one of the plain averages at radius N0 r
    rng = np.random.default_rng(57)
    for name in ("grid-16", "circle-16", "two-atom", "snowflake-16"):
        s = get_space(name)
        for _ in range(5):
            f = rng.uniform(0, 3, size=s.n)
            Mt = modified_maximal(f, s, 3.0)
            M_unb = maximal(f, s, radius_cap="none")
            assert np.all(Mt <= M_unb + 1e-12)


def test_modified_maximal_exceeds_capped_maximal_at_boundary():
    # the capped maximal vanishes where the mass needs r >= d_X, while the
    # modified one keeps it; inequality against the capped version is false
    s = two_atom()
    f = np.array([0.0, 1.0])
    M = maximal(f, s)
    Mt = modified_maximal(f, s, 1.0)
    assert M[0] == 0.0
    assert abs(Mt[0] - 10.0 / 11.0) < 1e-15
    assert Mt[0] > M[0]


def test_modified_maximal_rejects_bad_dilation():
    s = line_grid(4)
    with pytest.raises(OperatorError):
        modified_maximal(np.ones(4), s, 0.5)


# ---------------------------------------------------------------------------
# potentials


def test_gamma_kernel_point_value_frozen():
    s = line_grid(4)
    val = potential(np.ones(4), s, "gamma-kernel", alpha=0.5, gamma=1.0)
    # stored distances are quantized near 1/3 and 2/3, so the comparison
    # against the real-arithmetic value carries that quantization error
    expected = 0.25 * ((1.0 / 3.0) ** -0.5 + (2.0 / 3.0) ** -0.5 + 1.0)
    assert abs(val[0] - expected) < 5e-12
    assert abs(val[0] - 0.9891989197401166) < 5e-12
    exact = 0.25 * sum(float(s.dist[0, y]) ** -0.5 for y in range(1, 4))
    assert abs(val[0] - exact) < 1e-14


def test_potential_matches_manual_sum():
    rng = np.random.default_rng(61)
    s = get_space("circle-16")
    f = rng.uniform(0, 2, size=s.n)
    for kind in ("gamma-kernel", "measure-kernel", "k-alpha"):
        out = potential(f, s, kind, alpha=0.25, gamma=1.0)
        K = potential_matrix(s, kind, 0.25, 1.0)
        for x in range(0, s.n, 5):
            manual = sum(K[x][y] * f[y] * s.weights[y]
                         for y in range(s.n) if y != x)
            assert abs(out[x] - manual) < 1e-12


def test_measure_kernel_uses_strict_ball():
    s = line_grid(4)
    K = potential_matrix(s, "measure-kernel", alpha=0.5, gamma=1.0)
    # mu B(0, d(0,1)) = mu B(0, 1/3) = weight of point 0 only
    assert abs(K[0][1] - 0.25 ** -0.5) < 1e-14
    # mu B(0, d(0,3)) = mu B(0, 1) = 3/4
    assert abs(K[0][3] - 0.75 ** -0.5) < 1e-14
    assert K[2][2] == 0.0


def test_potential_rejects_bad_args():
    s = line_grid(4)
    with pytest.raises(OperatorError):
        potential(np.ones(4), s, "nope", alpha=0.5)
    with pytest.raises(OperatorError):
        potential(np.ones(4), s, "k-alpha", alpha=-1.0)


def test_k_alpha_on_calibrated_circle_close_to_gamma_kernel():
    # with gamma = 1 the two kernels coincide
    s = calibrated_circle(16)
    K1 = potential_matrix(s, "k-alpha", 0.125, 1.0)
    K2 = potential_matrix(s, "gamma-kernel", 0.125, 1.0)
    assert np.allclose(K1, K2)


# ---------------------------------------------------------------------------
# singular kernels


def test_hilbert_kernel_grid_values():
    s = line_grid(4)
    k = hilbert_kernel(s)
    assert abs(k.matrix[0][1] + 3.0) < 1e-12
    assert abs(k.matrix[1][0] - 3.0) < 1e-12
    assert np.allclose(k.matrix, -k.matrix.T)


def test_cz_apply_matches_manual():
    s = line_grid(4)
    k = hilbert_kernel(s)
    f = np.array([1.0, 2.0, 0.0, 1.0])
    out = cz_apply(f, s, k)
    manual = sum(k.matrix[2][y] * f[y] * s.weights[y] for y in range(4) if y != 2)
    assert abs(out[2] - manual) < 1e-14


def test_circle_kernel_antipodal_zero_and_antisymmetry():
    s = calibrated_circle(16)
    k = hilbert_kernel(s)
    assert k.matrix[0][8] == 0.0
    assert np.allclose(k.matrix, -k.matrix.T, atol=1e-12)


def test_grid_kernel_passes_cz_diagnostics():
    s = line_grid(16)
    k = hilbert_kernel(s)
    rep = validate_cz_kernel(s, k)
    assert rep["C_sz"] < 3.0
    assert not rep["dini_divergence_suspected"]
    assert rep["triples"] > 0
    assert k.report is rep


@pytest.mark.parametrize("separation", [math.nan, math.inf, 0.0, -1.0])
def test_cz_validation_refuses_a_separation_that_is_not_finite_and_positive(separation):
    # NaN and inf select no triple, so the smoothness modulus would be empty
    s = line_grid(16)
    with pytest.raises(OperatorError, match="separation must be finite and positive"):
        validate_cz_kernel(s, hilbert_kernel(s), separation=separation)


def _looped_triples(D, K, mus, separation):
    """The smoothness triples one (x1, x2) pair at a time."""
    n = D.shape[0]
    ts, vals = [], []
    for x1 in range(n):
        for x2 in range(n):
            if x1 == x2:
                continue
            sep = D[x2] >= separation * D[x1, x2]
            sep[x1] = False
            sep[x2] = False
            ys = np.nonzero(sep)[0]
            ts.append(D[x1, x2] / D[x2, ys])
            vals.append(np.abs(K[x1, ys] - K[x2, ys]) * mus[x2, ys])
    return np.concatenate(ts), np.concatenate(vals)


@pytest.mark.parametrize("name", ["circle-64", "circle-65", "grid-64", "grid-16",
                                  "two-atom"])
def test_kernel_triples_match_the_pair_loop_bitwise(monkeypatch, name):
    s = get_space(name)
    k = hilbert_kernel(s)
    K = np.array(k.matrix, dtype=float)
    np.fill_diagonal(K, 0.0)
    mus = prefix_profile(s).point_measures
    for separation in (2.0, 1.0):
        t, v = operators._smoothness_triples(s.dist, K, mus, separation)
        t_loop, v_loop = _looped_triples(s.dist, K, mus, separation)
        assert np.array_equal(t, t_loop) and np.array_equal(v, v_loop)
        rep = dict(validate_cz_kernel(s, k, separation=separation))
        monkeypatch.setattr(operators, "_smoothness_triples", _looped_triples)
        loop = validate_cz_kernel(s, k, separation=separation)
        monkeypatch.undo()
        for key in ("omega_t", "omega", "omega_doubling", "dini_pieces",
                    "dini_integral", "triples"):
            assert rep[key] == loop[key], key


def test_kernel_report_without_separated_triples_has_every_key():
    rep = validate_cz_kernel(two_atom(), hilbert_kernel(two_atom()))
    assert rep["triples"] == 0
    assert math.isnan(rep["omega_small_slope"])
    grid = validate_cz_kernel(line_grid(16), hilbert_kernel(line_grid(16)))
    assert rep.keys() == grid.keys()


def test_circle_cot_kernel_passes_but_naive_arc_kernel_fails():
    s = calibrated_circle(32)
    good = hilbert_kernel(s)
    rep_good = validate_cz_kernel(s, good)
    assert not rep_good["dini_divergence_suspected"]

    # naive signed-arc kernel: smooth except across the antipodal cut, where
    # the jump breaks the smoothness scaling
    n, L = s.n, 1.0
    h = L / n
    idx = np.arange(n)
    steps = (idx[None, :] - idx[:, None]) % n
    arc = steps * h
    arc = np.where(arc > L / 2.0, arc - L, arc)
    K = np.zeros((n, n))
    off = steps != 0
    K[off] = 1.0 / arc[off]
    naive = CZKernel(name="naive-arc", matrix=K)
    rep_bad = validate_cz_kernel(s, naive)
    # the modulus fails to decay toward small ratios
    assert rep_bad["dini_divergence_suspected"] \
        or max(rep_bad["omega"][:2]) > 10.0 * max(rep_good["omega"][:2])


def test_l2_norm_matches_svd():
    rng = np.random.default_rng(63)
    s = line_grid(8)
    mat = rng.standard_normal((8, 8))
    np.fill_diagonal(mat, 0.0)
    k = CZKernel(name="random", matrix=mat)
    sw = np.sqrt(s.weights)
    expected = np.linalg.norm(sw[:, None] * mat * sw[None, :], 2)
    assert abs(l2_operator_norm(s, k) - expected) < 1e-6


def test_hilbert_kernel_unknown_metric():
    s = get_space("asym-4")
    with pytest.raises(OperatorError):
        hilbert_kernel(s)
