"""Tests for the certification engine."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from morreylab import certify, norms, scales
from morreylab.catalog import get_space
from morreylab.certify import (CertifyError, certify_boundedness,
                               empirical_ratio, generate_family,
                               known_theorems, normalize_theorem_id,
                               save_report, sharpen_witness, verify_dominance,
                               verify_hedberg, verify_reduction,
                               verify_weak_type, write_index)
from morreylab.norms import dominance_report
from morreylab.scales import (MorreyVariant, aux_eval, make_grand_params,
                              make_potential_setup, riesz_corollary_setup)
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


def test_mixed_family_builds_only_the_picked_ball_columns():
    # the mixed family keeps 16 ball indicators by a stride pick of the
    # table; building only those gives the columns and names of the whole
    # set's pick
    for name in ("grid-4", "circle-64", "two-atom"):
        s = get_space(name)
        cols, names = certify._ball_indicator_columns(s, cap=16)
        want_cols, want_names = certify._capped(certify._ball_indicator_columns(s), 16)
        assert np.array_equal(cols, want_cols) and names == want_names

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


def test_kernel_certificates_refuse_a_separation_that_leaves_no_triple():
    # at 1e9 no triple of grid-16 is separated, so the Dini check would see
    # no data; two-atom has no triple of distinct points at any separation
    for tid in ("prop-3.9", "thm-3.10"):
        with pytest.raises(CertifyError, match="no triple of distinct points"):
            certify_boundedness(tid, get_space("grid-16"), family_spec="ball-indicators",
                                params={"separation": 1e9})
    rep = certify_boundedness("prop-3.9", get_space("two-atom"),
                              family_spec="ball-indicators", params={"separation": 1e9})
    assert rep.structural_pass


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
        assert setup.pair(row["eps"]) == want
    # thm-4.5 pairs each output shift with the inverse passage of phi_tilde
    tilde = make_potential_setup(2.0, 0.5, 0.125, 1.0, "lin:0.05", theta1=1.0,
                                 theta2=2.5, delta=0.1, mode="thm-4.5")
    rep = certify_boundedness("thm-4.5", s, family_spec="ball-indicators",
                              sharpen=False, refinement_levels=1)
    for row in rep.profile:
        assert row["eta"] == tilde.pair(row["eps"])
        back = aux_eval(tilde, "phi-tilde", row["eta"])
        assert abs(back - row["eps"]) <= 1e-12


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
        calls.append(np.asarray(y, dtype=float).ravel())
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
    targets = np.concatenate(calls)
    assert targets.size <= shifts.size + 4
    assert np.unique(targets).size == targets.size
    # one batch per node set: a loop over nodes would make hundreds of calls
    assert len(calls) <= 20 < targets.size


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
    real_appended = certify.appended_profile
    appended = []

    def appending(prof, F, space, schedule):
        appended.append(schedule.nodes.size)
        return real_appended(prof, F, space, schedule)

    monkeypatch.setattr(certify, "appended_profile", appending)

    def grand_profile(*args):
        raise AssertionError("verify_reduction evaluated a grand profile")

    monkeypatch.setattr(norms, "grand_profile", grand_profile)
    rep = certify_boundedness("thm-3.6", get_space("grid-16"), family_spec="mixed",
                              seed=3, sharpen=sharpen, refinement_levels=levels)
    assert rep.family["sharpened"] is sharpen
    assert len(calls) == 2
    # the sharpened column is appended to each side's finest profile
    assert appended == (calls if rep.family["sharpened"] else [])


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


def _full_input_evaluator(apply_op, space, s_out, s_in, work):
    """The sharpening ratio with every trial's grand norms in full."""
    def grand(schedule):
        return lambda V: (schedule.weight[:, None]
                          * norms.seminorm_profile(V, space, schedule)).max(axis=0)
    return certify._ratio_evaluator(apply_op, grand(s_in), grand(s_out))


@pytest.mark.parametrize("seed", [3, 1204])
@pytest.mark.parametrize("theorem", ["thm-3.6", "thm-4.5", "thm-5.4"])
def test_early_rejected_sharpening_keeps_report_bodies(monkeypatch, theorem, seed):
    s = get_space("grid-16")
    pruned = certify_boundedness(theorem, s, family_spec="mixed", seed=seed)
    monkeypatch.setattr(certify, "_early_rejecting_evaluator",
                        _full_input_evaluator)
    full = certify_boundedness(theorem, s, family_spec="mixed", seed=seed)
    assert json.dumps(pruned.body()) == json.dumps(full.body())


@pytest.mark.parametrize("theorem", ["thm-3.6", "thm-5.4"])
def test_screen_never_changes_a_report_body(monkeypatch, theorem):
    """With every surrogate row declined, every trial evaluates all its rows
    exactly; the report body stays byte for byte."""
    s = get_space("grid-16")
    screened = certify_boundedness(theorem, s, family_spec="mixed", seed=3)
    monkeypatch.setattr(norms.ProfileScreen, "rows", lambda self, F: None)
    exact = certify_boundedness(theorem, s, family_spec="mixed", seed=3)
    assert (json.dumps(screened.body(), indent=2, sort_keys=True)
            == json.dumps(exact.body(), indent=2, sort_keys=True))
    assert screened.sharpening_work["screen_fallbacks"] == 0
    work = exact.sharpening_work
    assert work["trials"] > 0 and work["surrogate_rejections"] == 0
    assert work["screen_fallbacks"] == 2 * work["trials"]


def test_rejection_margin_keeps_a_trial_that_gains(monkeypatch):
    """A trial whose surrogate ratio lies within delta of the best ratio while
    its exact ratio gains.  The output is the input scaled by 1 + 1e-12: the
    exact ratio gains about 1e-12, far above the sharpening threshold, but
    the float32 terms of both sides round alike, so the surrogate ratio is 1
    and only the margin keeps the trial from a rejection."""
    space = get_space("circle-16")
    params = make_grand_params(2.0, 0.3, "pow:1", "lin:0.5", MorreyVariant(), 32)
    schedule = scales.shift_schedule(params, scales.grid_for(params).nodes)
    vec = np.linspace(0.5, 1.5, space.n)
    scale = [1.0]

    def run():
        work = {"trials": 0, "surrogate_rejections": 0, "exact_rows": 0,
                "screen_fallbacks": 0}
        evaluate = certify._early_rejecting_evaluator(
            lambda col: col * scale[0], space, schedule, schedule, work)
        scale[0] = 1.0
        assert evaluate(vec) == 1.0
        scale[0] = 1.0 + 1e-12
        return evaluate(vec), work

    screen = norms.ProfileScreen(space, schedule)
    assert np.array_equal(screen.rows(vec[:, None] * (1.0 + 1e-12)),
                          screen.rows(vec[:, None]))
    ratio, work = run()
    assert ratio > 1.0 + certify._SHARPEN_GAIN
    assert work["surrogate_rejections"] == 0
    # without the margin the trial is rejected as no gain
    monkeypatch.setattr(norms, "surrogate_margin", lambda n, den_exponent: 0.0)
    ratio, work = run()
    assert ratio <= 1.0 + certify._SHARPEN_GAIN
    assert work["surrogate_rejections"] == 1


def test_sharpening_rejects_trials_before_their_full_input_norm(monkeypatch):
    """Input rows a sharpening trial evaluates: the trial's vector is the
    input operand, so its rows are told apart by shared memory."""
    real_profile, real_sharpen = norms.seminorm_profile, certify.sharpen_witness
    trial = [None]
    rows = []

    def counting(F, space, schedule, *at):
        if trial[0] is not None and np.shares_memory(F, trial[0]):
            rows[-1] += schedule.nodes.size
        return real_profile(F, space, schedule, *at)

    def sharpen(evaluate, values, *args, **kwargs):
        def tracked(vec):
            trial[0] = vec
            rows.append(0)
            return evaluate(vec)
        return real_sharpen(tracked, values, *args, **kwargs)

    monkeypatch.setattr(norms, "seminorm_profile", counting)
    monkeypatch.setattr(certify, "sharpen_witness", sharpen)
    certify_boundedness("thm-3.6", get_space("grid-16"), family_spec="mixed",
                        seed=3)
    # the first evaluation sets the best ratio and reads every input node
    assert len(rows) > 1 and rows[0] > 0
    assert sum(rows) < len(rows) * rows[0]


def test_sharpening_evaluates_one_exact_row_per_trial_side_plus_ties(monkeypatch):
    """Exact single-column rows of the sharpening trials: each side of a
    trial that the surrogates do not reject evaluates its argmax row and
    only the rows within the surrogate margin of it."""
    real_rows, real_sharpen = norms.grand_rows, certify.sharpen_witness
    real_tops = norms.ProfileScreen._tops
    trials = []
    screened = [0]

    def tops(self, pw32, rows, *args):
        screened[0] += rows.size
        return real_tops(self, pw32, rows, *args)

    def recording(F, space, schedule, rows, *at):
        out = real_rows(F, space, schedule, rows, *at)
        delta = norms.ProfileScreen(space, schedule).delta
        trials[-1].append((out[:, 0], delta))
        return out

    def sharpen(evaluate, values, *args, **kwargs):
        def tracked(vec):
            trials.append([])
            return evaluate(vec)
        return real_sharpen(tracked, values, *args, **kwargs)

    monkeypatch.setattr(norms, "grand_rows", recording)
    monkeypatch.setattr(certify, "sharpen_witness", sharpen)
    monkeypatch.setattr(norms.ProfileScreen, "_tops", tops)
    rep = certify_boundedness("thm-3.6", get_space("grid-16"), family_spec="mixed",
                              seed=3)
    sides = [side for trial in trials for side in trial]
    ties = sum(int(np.sum(vals >= vals.max() * (1.0 - 4.0 * delta))) - 1
               for vals, delta in sides)
    exact_rows = sum(vals.size for vals, _ in sides)
    assert all(len(trial) in (0, 2) for trial in trials)
    assert exact_rows <= len(sides) + ties
    assert rep.sharpening_work == {
        "trials": len(trials),
        "surrogate_rejections": sum(not trial for trial in trials),
        "exact_rows": exact_rows,
        "screen_fallbacks": 0,
        "screened_rows": screened[0]}
    assert 0 < rep.sharpening_work["surrogate_rejections"] < len(trials)


def test_reduction_runmeta_records_sharpening_work(tmp_path):
    rep = certify_boundedness("thm-3.6", get_space("grid-16"), family_spec="mixed",
                              seed=3)
    path = save_report(rep, tmp_path / "thm-3.6-grid-16.json")
    meta = json.loads((tmp_path / "thm-3.6-grid-16.json.runmeta.json").read_text())
    assert meta["sharpening"] == rep.sharpening_work
    assert set(meta["sharpening"]) == {"trials", "surrogate_rejections",
                                       "exact_rows", "screen_fallbacks",
                                       "screened_rows"}
    body = json.loads(path.read_text())
    assert "sharpening_work" not in body and "runtime_s" not in body
    unsharpened = certify_boundedness("thm-3.6", get_space("grid-16"),
                                      family_spec="mixed", seed=3, sharpen=False)
    assert unsharpened.sharpening_work == {
        "trials": 0, "surrogate_rejections": 0, "exact_rows": 0,
        "screen_fallbacks": 0, "screened_rows": 0}


def test_line_potential_runmeta_counts_every_pruned_profile(monkeypatch, tmp_path):
    # thm-5.4's uncapped builder checks evaluate two 38-column profiles on
    # circle-64 tables of 3,457 and 3,905 balls, which take the pruned path
    # outside the engine's own profiles; their screens drop the 2,752 and
    # 3,648 balls that another ball dominates
    real = norms._count
    every = dict.fromkeys(("pruned_rows", "candidate_balls", "padded_balls",
                           "exact_madds", "range_fallbacks", "coarse_rows",
                           "interval_balls", "dominated_balls",
                           "dominance_refusals"), 0)

    def counting(**counts):
        for key, value in counts.items():
            every[key] += value
        real(**counts)

    monkeypatch.setattr(norms, "_count", counting)
    rep = certify_boundedness("thm-5.4", get_space("circle-64"),
                              family_spec="mixed", seed=7, sharpen=False)
    save_report(rep, tmp_path / "thm-5.4.json")
    meta = json.loads((tmp_path / "thm-5.4.json.runmeta.json").read_text())
    assert meta["pruning"] == every
    assert every["pruned_rows"] > 0
    assert every["dominated_balls"] >= 2752 + 3648
    assert every["dominance_refusals"] == 0
    assert "pruning_work" not in json.loads((tmp_path / "thm-5.4.json").read_text())


def test_sharpened_runmeta_counts_the_appended_column(monkeypatch, tmp_path):
    # thm-3.6 on circle-64 prunes its family profiles (2,048 balls against
    # pad = 432 at 38 columns) and the sharpened column's
    # pass; the sidecar counts both, and each part follows its schedules
    real = norms._count
    keys = ("pruned_rows", "candidate_balls", "padded_balls", "exact_madds",
            "range_fallbacks", "coarse_rows", "interval_balls", "dominated_balls",
            "dominance_refusals")
    every = dict.fromkeys(keys, 0)
    appended = dict.fromkeys(keys, 0)
    inside = []

    def counting(**counts):
        for key, value in counts.items():
            every[key] += value
            if inside:
                appended[key] += value
        real(**counts)

    monkeypatch.setattr(norms, "_count", counting)
    real_appended = certify.appended_profile
    nodes = []

    def appending(prof, F, space, schedule):
        nodes.append(schedule.nodes.size)
        inside.append(True)
        try:
            return real_appended(prof, F, space, schedule)
        finally:
            inside.pop()

    monkeypatch.setattr(certify, "appended_profile", appending)
    rep = certify_boundedness("thm-3.6", get_space("circle-64"),
                              family_spec="mixed", seed=7)
    assert rep.family["sharpened"]
    save_report(rep, tmp_path / "thm-3.6.json")
    meta = json.loads((tmp_path / "thm-3.6.json.runmeta.json").read_text())
    assert meta["pruning"] == every
    # one row per finest node of each side, in the appended pass and in the
    # family's own profiles alike; every _COARSE_STRIDE-th row and the last
    # are screened over every ball, the rows between over the balls their
    # interval keeps
    assert len(nodes) == 2
    stride = norms._COARSE_STRIDE
    coarse = sum(len(range(0, k - 1, stride)) + 1 for k in nodes)
    family = {key: every[key] - appended[key] for key in keys}
    for part in (appended, family):
        assert part["pruned_rows"] == sum(nodes)
        assert part["range_fallbacks"] == 0
        assert 0 < part["candidate_balls"] <= part["padded_balls"]
        # a product of width W >= rows x columns over n = 64 points
        assert part["exact_madds"] >= 64 * part["padded_balls"]
        assert part["coarse_rows"] == coarse
        assert 0 < part["interval_balls"]
        # the measure tables are never reduced
        assert part["dominated_balls"] == part["dominance_refusals"] == 0


@pytest.mark.parametrize("sharpen", [True, False])
@pytest.mark.parametrize("space_name", ["grid-16", "circle-64"])
def test_appended_column_keeps_the_whole_profile_bits(monkeypatch, space_name,
                                                      sharpen):
    # every report body takes the sharpened column's rows from the whole
    # (m + 1)-column profile, and the appended pass gives the same bits
    real = certify.appended_profile
    appended = []

    def whole(prof, F, space, schedule):
        want = norms.seminorm_profile(F, space, schedule)
        assert np.array_equal(real(prof, F, space, schedule), want)
        appended.append(F.shape[1])
        return want

    monkeypatch.setattr(certify, "appended_profile", whole)
    space = get_space(space_name)
    sharpened = 0
    for thm in ("thm-3.6", "thm-4.5", "thm-5.4"):
        for seed in (3, 1204):
            rep = certify_boundedness(thm, space, family_spec="mixed",
                                      seed=seed, sharpen=sharpen)
            sharpened += rep.family["sharpened"]
    assert len(appended) == 2 * sharpened
    assert sharpened >= (5 if sharpen else 0)


def test_line_potential_applies_the_potential_once_to_the_family(monkeypatch):
    real = certify.potential
    columns = []

    def counting(f, *args, **kwargs):
        columns.append(np.asarray(f).shape[1])
        return real(f, *args, **kwargs)

    monkeypatch.setattr(certify, "potential", counting)
    s = get_space("grid-16")
    size = generate_family(s, "mixed", seed=3).size
    certify_boundedness("thm-5.4", s, family_spec="mixed", seed=3, sharpen=False)
    assert columns == [size]


def test_every_certificate_declares_typed_parameters():
    counts = {}
    for theorem in certify.known_theorems():
        declared = certify.theorem_parameters(theorem)
        counts[theorem] = len(declared)
        for key, default in declared.items():
            kind = certify.PARAM_TYPES[key]
            if default is None:
                # only q (the Sobolev exponent) and psi (phi) are derived
                assert key in ("q", "psi"), (theorem, key)
            else:
                assert type(default) is kind, (theorem, key)
    assert counts["lemma-5.1"] == 1 and counts["thm-4.4"] == 10
    assert max(counts.values()) < len(certify.PARAM_TYPES)


def test_library_refuses_parameters_the_theorem_does_not_read():
    s = get_space("grid-4")
    with pytest.raises(CertifyError, match=r"thm-4\.5 does not read gamma, lamda; "
                       r"its parameters are p, lam, "):
        certify_boundedness("thm-4.5", s, family_spec="ball-indicators",
                            params={"lamda": 0.4, "gamma": 1.0})
    with pytest.raises(CertifyError, match=r"'lam' must be a number, got '0\.3'"):
        certify_boundedness("lemma-5.2", s, family_spec="ball-indicators",
                            params={"lam": "0.3"})
    # an int for a float parameter converts, and writes the default's body
    given = certify_boundedness("lemma-5.2", s, family_spec="ball-indicators",
                                params={"p": 2})
    default = certify_boundedness("lemma-5.2", s, family_spec="ball-indicators")
    assert given.body() == default.body()


def test_readme_lists_every_certificate_parameter():
    def cell(key, value):
        if value is None:
            return f"`{key}` derived"
        if isinstance(value, str):
            return f"`{key}` = `{value}`"
        return f"`{key}` = {value!r}"

    rows = ["| Theorem | Parameters and defaults |", "| --- | --- |"]
    for theorem in certify.known_theorems():
        cells = ", ".join(cell(k, v) for k, v in
                          certify.theorem_parameters(theorem).items())
        rows.append(f"| `{theorem}` | {cells} |")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "\n".join(rows) in readme
