"""Tests for the certification engine."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from morreylab import certify, scales
from morreylab.catalog import get_space
from morreylab.certify import (CertifyError, certify_boundedness,
                               empirical_ratio, generate_family,
                               known_theorems, normalize_theorem_id,
                               save_report, sharpen_witness, verify_dominance,
                               verify_hedberg, verify_reduction,
                               verify_weak_type, write_index)
from morreylab.norms import dominance_report
from morreylab.scales import (MorreyVariant, aux_eval, make_grand_params,
                              riesz_corollary_setup)
from morreylab.space import quasimetric_constants
from morreylab.operators import modified_maximal


def test_generate_family_deterministic():
    s = get_space("grid-16")
    a = generate_family(s, "mixed", seed=11)
    b = generate_family(s, "mixed", seed=11)
    assert a.names == b.names
    assert np.array_equal(a.values, b.values)
    assert len(set(a.names)) == a.size
    assert np.all(np.abs(a.values).max(axis=0) > 0)
    assert np.all(np.isfinite(a.values))


def test_generate_family_specs_and_shapes():
    s = get_space("grid-4")
    balls = generate_family(s, "ball-indicators")
    assert balls.values.shape[0] == s.n
    assert set(np.unique(balls.values)) <= {0.0, 1.0}
    points = generate_family(s, "point-masses")
    assert points.size == s.n
    assert np.allclose(points.values.sum(axis=0), 1.0)
    osc = generate_family(s, "oscillating")
    assert osc.size == 4
    assert set(np.unique(osc.values)) <= {-1.0, 1.0}


def test_generate_family_seed_requirement_and_unknown_spec():
    s = get_space("grid-4")
    with pytest.raises(CertifyError):
        generate_family(s, "random-step")
    with pytest.raises(CertifyError):
        generate_family(s, "mixed")
    with pytest.raises(CertifyError):
        generate_family(s, "no-such-family", seed=1)


def test_generate_family_member_cap():
    s = get_space("circle-64")
    fam = generate_family(s, "ball-indicators", max_members=10)
    assert fam.size <= 10


def test_empirical_ratio_picks_largest():
    ratio, name = empirical_ratio([2.0, 9.0, 1.0], [1.0, 3.0, 0.0],
                                  ["a", "b", "c"])
    assert ratio == 3.0
    assert name == "b"
    with pytest.raises(CertifyError):
        empirical_ratio([1.0, 1.0], [0.0, 0.0], ["a", "b"])


def test_sharpen_witness_improves_concentration():
    # the functional |v[0]| / ||v||_2 is maximized by concentrating mass
    def evaluate(v):
        nrm = float(np.linalg.norm(v))
        return abs(float(v[0])) / nrm if nrm > 0 else 0.0

    start = np.ones(6)
    v, best = sharpen_witness(evaluate, start, iterations=48)
    assert best >= evaluate(start)
    assert best == pytest.approx(evaluate(v), rel=1e-12)
    assert best > evaluate(start) * 1.05


def test_verify_dominance_random_functions():
    s = get_space("grid-4")
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:1", MorreyVariant(), 32)
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = rng.uniform(0.0, 3.0, s.n)
        rep = verify_dominance(s, f, params, 0.05, 0.25)
        assert rep.ratio <= 1.0 + 1e-12
        assert rep.checks["delta_ok"]
        assert rep.structural_pass


def test_verify_dominance_rejects_bad_pivot():
    s = get_space("grid-4")
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:1", MorreyVariant(), 32)
    with pytest.raises(CertifyError):
        verify_dominance(s, np.ones(s.n), params, 0.2, 0.1)
    with pytest.raises(CertifyError):
        verify_dominance(s, np.ones(s.n), params, 0.0, 0.1)


def test_identity_reduction_is_exact():
    # the identity operator has per-shift ratio exactly 1 at every node,
    # so the assembled constant reduces to the dominance tail factor
    s = get_space("grid-4")
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:1", MorreyVariant(), 16)
    fam = generate_family(s, "ball-indicators")
    rep = verify_reduction(s, fam, lambda V: V, params, params, 0.05,
                           inequality="identity")
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    for row in rep.profile:
        assert row["c_meas"] == pytest.approx(1.0, rel=1e-12)
        assert row["wratio"] == pytest.approx(1.0, rel=1e-12)
    dom = dominance_report(s, params, 0.05)
    tail = dom["K_phi"] * dom["M_delta"] / dom["w_sigma"]
    assert rep.bound == pytest.approx(max(1.0, tail), rel=1e-12)
    assert rep.structural_pass
    assert rep.checks["internal_consistency"]


def test_reduction_divergent_weight_ratio_raises_before_evaluation():
    s = get_space("grid-16")
    pin = make_grand_params(2.0, 0.3, "pow:2", "lin:1", MorreyVariant(), 32)
    pout = make_grand_params(2.0, 0.3, "pow:1", "lin:1", MorreyVariant(), 32)
    fam = generate_family(s, "ball-indicators")

    def boom(V):
        raise AssertionError("operator must not be evaluated")

    with pytest.raises(CertifyError, match="weight ratio condition"):
        verify_reduction(s, fam, boom, pin, pout, 0.05)


def test_reduction_rejects_pivot_outside_range():
    s = get_space("grid-4")
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:1", MorreyVariant(), 16)
    fam = generate_family(s, "ball-indicators")
    with pytest.raises(CertifyError):
        verify_reduction(s, fam, lambda V: V, params, params, 0.5)


def test_grand_maximal_certificate_structure():
    s = get_space("grid-16")
    rep = certify_boundedness("thm-3.6", s, family_spec="mixed", seed=3)
    assert rep.structural_pass
    assert rep.ratio <= rep.bound * (1.0 + 1e-9)
    assert rep.checks["internal_consistency"]
    assert rep.checks["uniformity"] < 10.0
    # identity pairing with the same grandifier keeps the weight ratio at 1
    for row in rep.profile:
        assert row["eta"] == pytest.approx(row["eps"], rel=1e-12)
        assert row["wratio"] == pytest.approx(1.0, rel=1e-12)
    assert rep.checks["implied_free"] > 0
    assert rep.hypotheses["doubling_C_d"] >= 1.0


def test_direct_constants_frozen_values():
    s = get_space("grid-16")
    rep = certify_boundedness("lemma-5.1", s, family_spec="ball-indicators")
    assert rep.bound == pytest.approx(2.8284271247461903, rel=1e-12)
    assert rep.structural_pass
    assert rep.checks["weak_1_1_ok"]
    assert rep.checks["sup_bound_ok"]

    rep = certify_boundedness("lemma-5.2", s, family_spec="ball-indicators")
    assert rep.bound == pytest.approx(3.8284271247461903, rel=1e-12)
    assert rep.structural_pass
    assert rep.calibrated_pass is None

    rep = certify_boundedness("prop-3.9", get_space("circle-16"),
                              family_spec="ball-indicators")
    assert rep.bound == pytest.approx(11.523809523809524, rel=1e-12)
    assert rep.structural_pass

    rep = certify_boundedness("prop-4.2", s, family_spec="ball-indicators")
    assert rep.bound == pytest.approx(35.02731384004354, rel=1e-12)
    assert rep.params["q"] == pytest.approx(4.0, rel=1e-12)
    assert rep.structural_pass


def test_cz_certificate_reports_divergent_constant_honestly():
    # the two-branch constant blows up at p = 2; the report flags it
    # as a failure instead of raising or clamping
    rep = certify_boundedness("prop-3.9", get_space("circle-16"),
                              family_spec="ball-indicators",
                              params={"p": 2.0})
    assert math.isinf(rep.bound)
    assert not rep.checks["bound_finite"]
    assert not rep.structural_pass


def test_grand_potential_certificates_structural():
    s = get_space("grid-16")
    for tid in ("thm-4.4", "thm-4.5", "thm-4.7"):
        rep = certify_boundedness(tid, s, family_spec="mixed", seed=3)
        assert rep.structural_pass, tid
        assert rep.ratio <= rep.bound * (1.0 + 1e-9)
        assert rep.checks["implied_free"] > 0
        assert rep.family["size"] >= 30


def test_grand_potential_pairing_matches_passage_map():
    s = get_space("grid-16")
    setup = riesz_corollary_setup()
    rep = certify_boundedness("thm-4.4", s, family_spec="ball-indicators",
                              sharpen=False, refinement_levels=1)
    for row in rep.profile:
        want = float(aux_eval(setup, "phi-bar", row["eps"]))
        assert row["eta"] == pytest.approx(want, rel=1e-10)


def test_line_potential_certificate_explicit_per_shift():
    s = get_space("grid-16")
    rep = certify_boundedness("thm-5.4", s, family_spec="mixed", seed=3)
    assert rep.structural_pass
    assert rep.checks["per_shift_explicit_ok"]
    assert rep.checks["per_shift_explicit_worst"] <= 1.0
    for row in rep.profile:
        assert math.isfinite(row["c_thm"])
    assert rep.params["input"]["closed_grid"]
    assert rep.params["output"]["variant"]["radius_cap"] == "diameter"


def test_sigma_gate_and_theta_gate():
    s = get_space("grid-16")
    with pytest.raises(CertifyError, match="passage interval"):
        certify_boundedness("thm-4.4", s, family_spec="ball-indicators",
                            params={"sigma": 0.2})
    with pytest.raises(CertifyError, match="theta2"):
        certify_boundedness("thm-4.5", s, family_spec="ball-indicators",
                            params={"theta2": 2.0})


def test_weak_type_constant_exact():
    rng = np.random.default_rng(21)
    for name in ("grid-4", "circle-16"):
        s = get_space(name)
        C_t, C_s = quasimetric_constants(s)
        N0 = C_t * (1.0 + 2.0 * C_s)
        for _ in range(25):
            f = rng.uniform(0.0, 2.0, s.n)
            rep = verify_weak_type(s, f)
            assert rep.ratio <= 1.0 + 1e-12
            assert rep.structural_pass
            # any sampled threshold is dominated by the exact supremum
            m = np.asarray(modified_maximal(f, s, N0), dtype=float)
            total = float(np.abs(f) @ s.weights)
            for t in np.linspace(1e-6, m.max() * 0.999, 17):
                sampled = t * float(s.weights[m > t].sum()) / total
                assert sampled <= rep.ratio + 1e-12


def test_hedberg_pointwise_random():
    s = get_space("grid-16")
    rng = np.random.default_rng(8)
    for p, lam, alpha in ((2.0, 0.5, 0.125), (2.0, 0.25, 0.25),
                          (3.0, 0.5, 0.1)):
        for _ in range(10):
            f = rng.uniform(0.0, 1.0, s.n)
            rep = verify_hedberg(s, f, p, lam, alpha)
            assert rep.ratio <= 1.0 + 1e-12
            assert rep.structural_pass


def test_hedberg_zero_function_passes():
    s = get_space("grid-4")
    rep = verify_hedberg(s, np.zeros(s.n), 2.0, 0.5, 0.125)
    assert rep.ratio == 0.0
    assert rep.structural_pass


def test_alias_normalization():
    assert normalize_theorem_id("lemma5.2") == "lemma-5.2"
    assert normalize_theorem_id("THM 4.4") == "thm-4.4"
    assert normalize_theorem_id("proposition-3.9") == "prop-3.9"
    assert normalize_theorem_id("Theorem_3.10") == "thm-3.10"
    with pytest.raises(CertifyError, match="known ids"):
        normalize_theorem_id("thm-9.9")
    with pytest.raises(CertifyError, match="cannot parse"):
        normalize_theorem_id("banana")
    assert len(known_theorems()) == 11


def test_report_serialization_byte_identical(tmp_path):
    s = get_space("grid-4")
    rep1 = certify_boundedness("lemma-5.2", s, family_spec="ball-indicators")
    rep2 = certify_boundedness("lemma-5.2", s, family_spec="ball-indicators")
    path = tmp_path / "lemma-5.2-grid-4.json"
    save_report(rep1, path)
    first = path.read_bytes()
    save_report(rep2, path)
    assert path.read_bytes() == first
    body = json.loads(first)
    assert "runtime_s" not in body
    assert (tmp_path / "lemma-5.2-grid-4.json.runmeta.json").exists()
    assert (tmp_path / "lemma-5.2-grid-4.members.csv").exists()
    meta = json.loads((tmp_path / "lemma-5.2-grid-4.json.runmeta.json").read_text())
    assert meta["runtime_s"] >= 0.0


def test_write_index(tmp_path):
    s = get_space("grid-4")
    rep = certify_boundedness("lemma-5.2", s, family_spec="ball-indicators")
    path = write_index([rep], tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("inequality,space,ratio,bound")
    assert "lemma-5.2" in lines[1]


def test_certificate_profile_csv_written(tmp_path):
    s = get_space("grid-4")
    rep = certify_boundedness("thm-3.6", s, family_spec="ball-indicators",
                              sharpen=False, refinement_levels=1)
    save_report(rep, tmp_path / "thm-3.6-grid-4.json")
    text = (tmp_path / "thm-3.6-grid-4.profile.csv").read_text()
    assert text.splitlines()[0] == "eps,eta,wratio,c_meas,c_thm"
    assert len(text.splitlines()) == len(rep.profile) + 1


def test_transported_shift_is_bisected_once_per_distinct_node(monkeypatch):
    calls = []
    bisect = scales._invert_increasing

    def counting(fn, y, delta, top):
        calls.append(y)
        return bisect(fn, y, delta, top)

    monkeypatch.setattr(scales, "_invert_increasing", counting)
    rep = certify_boundedness("thm-4.5", get_space("grid-16"), family_spec="mixed",
                              seed=3, params={"grid_count": 16})
    out = rep.params["output"]
    cap = out["p"] - 1.0
    # the transported target shift is asked about its role-validation grid,
    # its domain cap, the refined output grid (which holds the base grid) and
    # the pivot
    shifts = np.unique(np.concatenate([
        scales._validation_grid(cap), [cap, rep.params["sigma"]],
        scales.build_epsilon_grid(out["s_max"], count=16).refine().nodes]))
    assert len(calls) <= shifts.size + 4
    assert len(set(calls)) == len(calls)


def _inflate_last_ratio(monkeypatch, calls_before_last):
    """Make the last refinement level's measured ratio jump by a factor 2."""
    real = certify.empirical_ratio
    seen = []

    def ratio(out_norms, in_norms, names):
        r, witness = real(out_norms, in_norms, names)
        seen.append(r)
        return (2.0 * r if len(seen) > calls_before_last else r), witness

    monkeypatch.setattr(certify, "empirical_ratio", ratio)


@pytest.mark.parametrize("sharpen", [False, True])
@pytest.mark.parametrize("levels", [1, 2])
def test_reduction_evaluates_each_side_once(monkeypatch, levels, sharpen):
    real = certify.seminorm_profile
    calls = []

    def counting(F, space, schedule):
        calls.append(schedule.nodes.size)
        return real(F, space, schedule)

    monkeypatch.setattr(certify, "seminorm_profile", counting)
    rep = certify_boundedness("thm-3.6", get_space("grid-16"), family_spec="mixed",
                              seed=3, sharpen=sharpen, refinement_levels=levels)
    assert rep.family["sharpened"] is sharpen
    assert len(calls) == 2


def test_reduction_base_level_is_independent_of_refinement_depth():
    s = get_space("grid-16")
    one, two = (certify_boundedness("thm-4.5", s, family_spec="mixed", seed=3,
                                    refinement_levels=k) for k in (1, 2))
    for key in ("ratio", "bound", "witness", "members", "profile"):
        assert getattr(one, key) == getattr(two, key), key
    assert one.checks["refinement_measured"] == \
        two.checks["refinement_measured"][:2]


def test_refinement_gate_checks_every_level(monkeypatch):
    s = get_space("grid-4")
    kwargs = dict(family_spec="ball-indicators", sharpen=False, refinement_levels=2)
    rep = certify_boundedness("thm-3.6", s, **kwargs)
    deltas = rep.checks["refinement_deltas"]
    assert len(deltas) == 2
    assert rep.checks["refinement_stable"]
    assert rep.structural_pass and rep.failed_gates() == []
    # base ratio, measured ratio, level 1 unchanged; level 2 doubles
    _inflate_last_ratio(monkeypatch, 3)
    rep = certify_boundedness("thm-3.6", s, **kwargs)
    first, second = rep.checks["refinement_deltas"]
    assert first <= 0.05 * rep.ratio < second
    assert not rep.checks["refinement_stable"]
    assert not rep.structural_pass
    assert rep.failed_gates() == ["stability"]


def test_failed_gates_name_every_failing_check():
    s = get_space("grid-4")
    rep = certify_boundedness("thm-3.6", s, family_spec="ball-indicators",
                              sharpen=False, refinement_levels=1)
    broken = replace(rep, structural_pass=False, checks={
        **rep.checks, "internal_consistency": False, "uniformity_ok": False,
        "explicit_ok": False, "demo_ok": False})
    assert broken.failed_gates() == ["consistency", "uniformity",
                                     "explicit-constant", "demo_ok"]
    divergent = certify_boundedness("prop-3.9", get_space("circle-16"),
                                    family_spec="ball-indicators", params={"p": 2.0})
    assert divergent.failed_gates() == ["finite-constant"]
    direct = certify_boundedness("lemma-5.1", get_space("grid-4"),
                                 family_spec="ball-indicators")
    assert direct.structural_pass and direct.failed_gates() == []
    missed = replace(direct, structural_pass=False,
                     checks={**direct.checks, "within_formula": False})
    assert missed.failed_gates() == ["explicit-constant"]
    missed = replace(missed, checks={**missed.checks, "weak_1_1_ok": False})
    assert missed.failed_gates() == ["weak_1_1_ok"]
