"""Scale functions, exponent passages, admissibility, closed-form constants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from morreylab import scales
from morreylab.scales import (
    ConstantValue,
    EpsilonGrid,
    FreeConstants,
    MorreyVariant,
    ScaleError,
    ScaleFunction,
    aux_eval,
    build_epsilon_grid,
    check_admissibility,
    delta_exponent,
    grid_for,
    hedberg_exponents,
    invert_phi_bar,
    make_grand_params,
    make_potential_setup,
    make_scale_function,
    riesz_corollary_setup,
    sobolev_exponent,
    theoretical_constant,
)


# ---------------------------------------------------------------------------
# scale functions


def test_power_scale_values():
    f = make_scale_function({"kind": "power", "theta": 2.0}, "phi", 1.0)
    assert abs(f(0.5) - 0.25) < 1e-15
    out = f(np.array([0.1, 0.2]))
    assert np.allclose(out, [0.01, 0.04])


def test_shorthand_parsing():
    assert make_scale_function("pow:1.5", "phi", 1.0).params["theta"] == 1.5
    assert make_scale_function("lin:0.05", "A", 1.0).params["c"] == 0.05
    f = make_scale_function("alog:1:2", "phi", 1.0)
    assert abs(f(1.0 / math.e) - 1.0 / 4.0) < 1e-12
    assert make_scale_function("const:3", "weight", 1.0)(0.5) == 3.0
    z = make_scale_function("zero", "A", 1.0)
    assert z(0.7) == 0.0


def test_table_scale_clamps_and_anchors():
    f = make_scale_function("table:0.5=0.1,1=0.3", "A", 2.0)
    assert abs(f(0.25) - 0.05) < 1e-15
    assert abs(f(0.75) - 0.2) < 1e-15
    assert abs(f(1.9) - 0.3) < 1e-15


@pytest.mark.parametrize("spec", [
    "table:0.5=0.2,0.1=0.1", "table:0.1=0.1,0.1=0.3", "table:0=0,0.5=0.1",
    {"kind": "table", "eps": [0.5, 0.1], "vals": [0.2, 0.1]},
    {"kind": "table", "eps": [0.1, 0.1], "vals": [0.1, 0.3]},
    {"kind": "table", "eps": [-0.1, 0.5], "vals": [0.0, 0.1]},
    {"kind": "table", "eps": [0.1, 0.5], "vals": [0.1]}])
def test_table_needs_positive_strictly_increasing_nodes(spec):
    # np.interp reads unsorted nodes wrongly: 0.1 at eps = 0.3, never 0.2
    with pytest.raises(ScaleError, match="table scale .* strictly increasing") as err:
        make_scale_function(spec, "A", 1.0)
    assert repr(spec) in str(err.value)


def test_phi_role_rejects_constant_and_blowup():
    with pytest.raises(ScaleError, match="vanish"):
        make_scale_function("const:1", "phi", 1.0)
    with pytest.raises(ScaleError, match="unbounded"):
        make_scale_function({"kind": "power", "theta": -0.5}, "phi", 1.0)
    with pytest.raises(ScaleError, match="positive"):
        make_scale_function("zero", "phi", 1.0)


def test_affine_log_passes_phi_role():
    f = make_scale_function("alog:1", "phi", 0.5)
    assert f(0.1) > 0


def test_A_role_rejects_decreasing_and_negative():
    with pytest.raises(ScaleError, match="non-decreasing"):
        make_scale_function("table:0.1=0.5,0.2=0.1", "A", 1.0)
    with pytest.raises(ScaleError, match="non-negative"):
        make_scale_function("lin:-1", "A", 1.0)
    with pytest.raises(ScaleError, match="vanish"):
        make_scale_function("const:0.2", "A", 1.0)


def test_weight_role_permissive():
    make_scale_function("const:1", "weight", 1.0)
    with pytest.raises(ScaleError):
        make_scale_function("zero", "weight", 1.0)


# ---------------------------------------------------------------------------
# epsilon grids


def test_grid_nodes_inside_open_range():
    g = build_epsilon_grid(0.5)
    assert g.nodes.min() > 0
    assert g.nodes.max() < 0.5
    gc = build_epsilon_grid(0.5, closed=True)
    assert gc.nodes.max() == 0.5


@pytest.mark.parametrize("count", [0, 1])
def test_grid_refuses_a_count_below_two(count):
    with pytest.raises(ScaleError, match=f"at least 2, got {count}"):
        build_epsilon_grid(0.5, count=count)
    with pytest.raises(ScaleError, match=f"at least 2, got {count}"):
        grid_for(make_grand_params(2.0, 0.3, grid_count=count))


def test_grid_refinement_is_nested():
    g = build_epsilon_grid(1.0, count=16)
    r = g.refine()
    assert set(g.nodes).issubset(set(r.nodes))
    assert r.count > 2 * g.count - 2


# ---------------------------------------------------------------------------
# grand parameter bundles


def test_grand_params_full_range_with_zero_shift():
    gp = make_grand_params(2.0, 0.3)
    assert abs(gp.s_max - 1.0) < 1e-12
    assert grid_for(gp).nodes.max() < gp.s_max


def test_grand_params_shift_limit_bisection():
    gp = make_grand_params(2.0, 0.3, A_spec="lin:1")
    assert abs(gp.s_max - 0.3) < 1e-9


def test_grand_params_empty_range():
    with pytest.raises(ScaleError, match="grandification range empty"):
        make_grand_params(2.0, 0.0, A_spec="lin:1")


def test_grand_params_validation():
    with pytest.raises(ScaleError):
        make_grand_params(1.0, 0.3)
    with pytest.raises(ScaleError):
        make_grand_params(2.0, 1.0)
    with pytest.raises(ScaleError):
        MorreyVariant(kind="odd")
    with pytest.raises(ScaleError):
        MorreyVariant(kind="modified", dilation=0.5)


# ---------------------------------------------------------------------------
# exponent relations


def test_sobolev_exponent_frozen():
    assert abs(sobolev_exponent(2.0, 0.5, 0.125, 1.0) - 4.0) < 1e-14
    with pytest.raises(ScaleError):
        sobolev_exponent(2.0, 0.5, 0.3, 1.0)


def test_hedberg_exponents_frozen():
    a, b = hedberg_exponents(2.0, 0.5, 0.125)
    assert abs(a - 0.5) < 1e-15 and abs(b - 0.5) < 1e-15
    with pytest.raises(ScaleError):
        hedberg_exponents(2.0, 0.5, 0.3)


def test_delta_exponent_frozen():
    A = make_scale_function("zero", "A", 1.0)
    d = delta_exponent(2.0, 0.0, A, 0.5, 0.25)
    assert abs(d - (1.0 / 1.5 - 1.0 / 1.75)) < 1e-15
    assert abs(d - 0.09523809523809523) < 1e-15


# ---------------------------------------------------------------------------
# potential setups and passage maps


def test_corollary_setup_values():
    s = riesz_corollary_setup()
    assert abs(s.q - 4.0) < 1e-14
    assert s.admissible, s.reasons
    assert abs(s.B_est - 0.05) < 1e-9
    assert abs(s.B_bound - 0.125) < 1e-14


def test_phi_bar_endpoints_and_slope():
    s = riesz_corollary_setup()
    # vanishes at 0 with slope 0.15, hits p at x = q
    assert abs(aux_eval(s, "phi-bar", 1e-9) / 1e-9 - 0.15) < 1e-5
    assert abs(aux_eval(s, "phi-bar", s.q) - s.p) < 1e-12


def test_phi_bar_solves_shifted_sobolev_relation():
    # eta = phi_bar(eps) is defined by
    # 1/(q - eps) = 1/(p - eta) - alpha/((1 - lam + A(eps)) gamma)
    s = riesz_corollary_setup()
    for eps in (0.01, 0.05, 0.09):
        m = 1.0 - s.lam + s.A_target(eps)
        eta_expected = s.p - 1.0 / (1.0 / (s.q - eps) + s.alpha / (m * s.gamma))
        assert abs(aux_eval(s, "phi-bar", eps) - eta_expected) < 1e-13
    # frozen reference point
    assert abs(aux_eval(s, "phi-bar", 0.05) - 0.0076537014) < 1e-9


def test_phi_bar_inversion_round_trip():
    s = riesz_corollary_setup()
    for x in (1e-6, 1e-3, 0.02, 0.05, 0.0999):
        y = aux_eval(s, "phi-bar", x)
        assert abs(invert_phi_bar(s, y) - x) < 1e-9 * max(x, 1e-6)
    assert invert_phi_bar(s, 0.0) == 0.0
    assert invert_phi_bar(s, 1e9) == s.delta


def test_source_shift_transport():
    # A_source(phi_bar(x)) = A_target(x) inside the passage range,
    # constant beyond it
    s = riesz_corollary_setup()
    for x in (0.01, 0.05, 0.09):
        y = aux_eval(s, "phi-bar", x)
        assert abs(s.A_source(y) - s.A_target(x)) < 1e-9
    top = aux_eval(s, "phi-bar", s.delta)
    assert abs(s.A_source(top * 5.0) - s.A_target(s.delta)) < 1e-12


def test_phi_tilde_vanishes_at_zero():
    s = make_potential_setup(2.0, 0.5, 0.125, 1.0, "lin:0.05",
                             theta1=1.0, theta2=2.5, delta=0.1, mode="thm-4.5")
    assert abs(aux_eval(s, "phi-tilde", 1e-10)) < 1e-8
    assert s.pairing == "tilde"
    for x in (0.01, 0.05):
        y = aux_eval(s, "phi-tilde", x)
        assert abs(s.A_target(y) - s.A_source(x)) < 1e-9


def test_setup_delta_range_guard():
    with pytest.raises(ScaleError, match="delta"):
        make_potential_setup(2.0, 0.5, 0.125, 1.0, "lin:0.05",
                             theta1=1.0, theta2=2.0, delta=1.5)


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_linear_shift_passes():
    A = make_scale_function("lin:0.05", "A", 0.1)
    B, bound, ok, reasons = check_admissibility(
        2.0, 0.5, 0.125, 1.0, 1.0, 2.0, 0.1, A, "thm-4.4")
    assert ok and not reasons
    assert abs(B - 0.05) < 1e-9
    assert abs(bound - 0.125) < 1e-14


def test_admissibility_rejects_fast_shift():
    A = make_scale_function("lin:0.2", "A", 0.1)
    B, bound, ok, reasons = check_admissibility(
        2.0, 0.5, 0.125, 1.0, 1.0, 2.0, 0.1, A, "thm-4.4")
    assert not ok
    assert any("(iii)" in r for r in reasons)


def test_admissibility_rejects_small_theta2():
    A = make_scale_function("lin:0.05", "A", 0.1)
    _, _, ok, reasons = check_admissibility(
        2.0, 0.5, 0.125, 1.0, 1.0, 1.5, 0.1, A, "thm-4.4")
    assert not ok
    assert any("(v)" in r for r in reasons)


def test_admissibility_log_shift_diverges():
    A = make_scale_function("alog:0.1", "A", 0.1)
    _, _, ok, reasons = check_admissibility(
        2.0, 0.5, 0.125, 1.0, 1.0, 2.0, 0.1, A, "thm-4.4")
    assert not ok
    assert any("(iii)" in r for r in reasons)


def test_admissibility_mirrored_mode_strict_theta():
    A = make_scale_function("lin:0.05", "A", 0.1)
    _, _, ok, reasons = check_admissibility(
        2.0, 0.5, 0.125, 1.0, 1.0, 2.0, 0.1, A, "thm-4.5")
    assert not ok
    assert any("(v)" in r for r in reasons)
    _, _, ok2, r2 = check_admissibility(
        2.0, 0.5, 0.125, 1.0, 1.0, 2.5, 0.1, A, "thm-4.5")
    assert ok2, r2


def test_non_admissible_setup_reports_reasons():
    s = make_potential_setup(2.0, 0.5, 0.125, 1.0, "lin:0.05",
                             theta1=1.0, theta2=1.0, delta=0.1, mode="thm-4.4")
    assert not s.admissible
    assert s.reasons


# ---------------------------------------------------------------------------
# closed-form constants


def test_maximal_constant_frozen():
    c = theoretical_constant("maximal", p=2.0, lam=0.5, C_d=2.0)
    assert abs(c.numeric - (2.0 ** 0.75 + 1.0)) < 1e-14
    assert abs(c.numeric - 2.681792830507429) < 1e-12


def test_cz_constant_frozen_and_divergent():
    c = theoretical_constant("cz", p=1.7, lam=0.3)
    assert abs(c.numeric - 11.523809523809524) < 1e-12
    assert math.isinf(theoretical_constant("cz", p=2.0, lam=0.3).numeric)
    c3 = theoretical_constant("cz", p=3.0, lam=0.3)
    assert abs(c3.numeric - (3.0 + 3.0 + 3.7 / 0.7)) < 1e-12


def test_cz_per_shift_formula():
    c = theoretical_constant("cz", p=1.7, lam=0.3, eps=0.2, A_eps=0.1)
    expected = 1.7 / 0.5 + 1.5 / 0.5 + (1.5 - 0.3 + 0.1 + 1.0) / 0.8
    assert abs(c.numeric - expected) < 1e-12


def test_riesz_constant_frozen():
    c = theoretical_constant("riesz", p=2.0, lam=0.5, alpha=0.125, q=4.0)
    assert abs(c.numeric - 16.0 * (2.0 ** 0.25 + 1.0)) < 1e-11
    assert abs(c.numeric - 35.02731384004354) < 1e-10


def test_modified_maximal_constants_frozen():
    assert abs(theoretical_constant("lp_modified_maximal", p=2.0).numeric
               - 2.0 * math.sqrt(2.0)) < 1e-14
    assert abs(theoretical_constant("morrey_modified_maximal", p=2.0).numeric
               - (1.0 + 2.0 * math.sqrt(2.0))) < 1e-14


def test_hedberg_constant_structure():
    c = theoretical_constant("hedberg", p=2.0, lam=0.5, alpha=0.125, b=1.5, N0=3.0)
    inner = 1.5 * 3.0 / 0.125 + 1.5 ** (0.5 - 0.25) * 3.0 ** 0.25 * 2.0 / 0.25
    assert abs(c.numeric - 4.0 * inner) < 1e-12


def test_k_alpha_constant_invariant():
    ka = theoretical_constant("k_alpha", p=2.0, lam=0.5, alpha=0.125, b=1.5,
                              N0=3.0, q=4.0)
    hed = theoretical_constant("hedberg", p=2.0, lam=0.5, alpha=0.125, b=1.5, N0=3.0)
    mm = theoretical_constant("morrey_modified_maximal", p=2.0, lam=0.5)
    assert abs(ka.numeric - mm.numeric ** 0.5 * hed.numeric) < 1e-12


def test_free_constants_scale_linearly():
    base = theoretical_constant("riesz", p=2.0, lam=0.5, alpha=0.125, q=4.0)
    scaled = theoretical_constant("riesz", p=2.0, lam=0.5, alpha=0.125, q=4.0,
                                  consts=FreeConstants(c_riesz=2.5))
    assert abs(scaled.numeric - 2.5 * base.numeric) < 1e-10
    assert isinstance(base, ConstantValue)
    assert "c_riesz" in base.symbols


def test_constant_guards():
    with pytest.raises(ScaleError):
        theoretical_constant("maximal", p=2.0, lam=0.5)
    with pytest.raises(ScaleError):
        theoretical_constant("riesz", p=2.0, lam=0.5, alpha=0.3, q=4.0)
    with pytest.raises(ScaleError):
        theoretical_constant("nope", p=2.0)
    with pytest.raises(ScaleError):
        theoretical_constant("maximal", p=2.0, lam=0.5, C_d=2.0, eps=1.5)


# ---------------------------------------------------------------------------
# array evaluation against one-node evaluation, bit for bit
#
# Scale functions, the passage inverse and the shift schedules evaluate
# whole node arrays; each entry must carry the bits of a one-node call.
# The certificates' default parameters give the node sets in use.


def _potential_setup(mode, A_spec="lin:0.05"):
    theta2 = 2.5 if mode == "thm-4.5" else 2.0
    return make_potential_setup(2.0, 0.5, 0.125, 1.0, A_spec, theta1=1.0,
                                theta2=theta2, delta=0.1, mode=mode)


def _potential_params(mode, A_spec="lin:0.05"):
    """Input and output grand parameters of a potential certificate, on open
    and closed grids, from a fresh setup, so no passage memo is shared."""
    s = _potential_setup(mode, A_spec)
    theta2 = "pow:2.5" if mode == "thm-4.5" else "pow:2"
    return {f"{mode}-{side}-{closed}": make_grand_params(
                pe, s.lam, phi, A, closed_grid=closed)
            for side, pe, phi, A in (("in", s.p, "pow:1", s.A_source),
                                     ("out", s.q, theta2, s.A_target))
            for closed in (False, True)}


def _default_params():
    """Grand parameters of the registered certificates at their defaults."""
    return {"identity-2": make_grand_params(2.0, 0.3, "pow:1", "lin:1"),
            "identity-1.7": make_grand_params(1.7, 0.3, "pow:1", "lin:1"),
            **_potential_params("thm-4.4"), **_potential_params("thm-4.5")}


def _node_sets(params):
    """The role-validation grid, the base and refined grids, and the sigma
    node set of the reduction engine."""
    base = grid_for(params)
    fine = base.refine().nodes
    return {"validation": scales._validation_grid(params.phi.cap),
            "base": base.nodes, "refined": fine,
            "low": np.unique(np.append(fine[fine <= 0.05], 0.05))}


def _one_node(fn, nodes):
    return np.asarray([fn(float(x)) for x in nodes], dtype=float)


def _scalar_bisection(fn, y, delta, top):
    """The scalar bisection the array form must reproduce."""
    if y <= 0:
        return 0.0
    if y >= top:
        return delta
    lo, hi = delta * 1e-18, delta
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if fn(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return (lo + hi) / 2.0


@pytest.mark.parametrize("spec, role", [
    ("pow:1", "phi"), ("pow:2.5", "phi"), ("pow:0.5:0.3", "A"),
    ("lin:1", "A"), ("lin:0.05", "A"), ("alog:1:2", "phi"),
    ("const:3", "weight"), ("zero", "A"), ("table:0.05=0.01,0.2=0.04", "A")])
def test_bitwise_scale_kinds_on_the_node_sets_in_use(spec, role):
    for name, params in _default_params().items():
        fn = make_scale_function(spec, role, params.phi.cap)
        for which, nodes in _node_sets(params).items():
            assert fn(nodes).tobytes() == _one_node(fn, nodes).tobytes(), (
                spec, name, which)


@pytest.mark.parametrize("mode, A_spec", [
    ("thm-4.4", "lin:0.05"), ("thm-4.4", "pow:1.5:0.05"),
    ("thm-4.5", "lin:0.05"), ("thm-4.5", "pow:0.5")])
def test_bitwise_transported_shift_on_the_node_sets_in_use(mode, A_spec):
    side = "in" if mode == "thm-4.4" else "out"
    for closed in (False, True):
        batched, single = (_potential_params(mode, A_spec)[f"{mode}-{side}-{closed}"]
                           for _ in range(2))
        assert batched.A.kind == "compose-inverse"
        for which, nodes in _node_sets(batched).items():
            # the one-node calls go through a fresh setup's memo
            assert batched.A(nodes).tobytes() == \
                _one_node(single.A, nodes).tobytes(), (closed, which)


@pytest.mark.parametrize("mode, A_spec", [
    ("thm-4.4", "lin:0.05"), ("thm-4.4", "pow:1.5:0.05"),
    ("thm-4.5", "lin:0.05"), ("thm-4.5", "pow:0.5")])
def test_bitwise_bisection_matches_the_scalar_loop(mode, A_spec):
    s = _potential_setup(mode, A_spec)
    name = "phi-bar" if mode == "thm-4.4" else "phi-tilde"

    def passage(x):
        return aux_eval(s, name, x)

    top = passage(s.delta)
    # the moved shift inverts on the input side for phi_bar, else the output
    side = "in" if mode == "thm-4.4" else "out"
    params = _potential_params(mode, A_spec)[f"{mode}-{side}-False"]
    targets = np.concatenate([
        *_node_sets(params).values(), passage(grid_for(params).nodes[:40]),
        [0.0, -0.0, -1e-3, top, np.nextafter(top, 0.0), 2.0 * top]])
    got = scales._invert_increasing(passage, targets, s.delta, top)
    want = np.asarray([_scalar_bisection(passage, float(y), s.delta, top)
                       for y in targets])
    assert got.tobytes() == want.tobytes()
    assert scales._invert_increasing(passage, targets[7], s.delta, top).shape == ()


def test_bitwise_shift_schedule_matches_the_node_loop():
    for name, params in _default_params().items():
        oracle = _default_params()[name]
        for which, nodes in _node_sets(params).items():
            sched = scales.shift_schedule(params, nodes)
            p_eff, lam_eff, weight = [], [], []
            for eps in nodes:
                pe = oracle.p - float(eps)
                p_eff.append(pe)
                lam_eff.append(oracle.lam - float(oracle.A(float(eps))))
                weight.append(float(oracle.phi(float(eps))) ** (1.0 / pe))
            for got, want in ((sched.p_eff, p_eff), (sched.lam_eff, lam_eff),
                              (sched.weight, weight)):
                assert got.tobytes() == np.asarray(want).tobytes(), (name, which)
