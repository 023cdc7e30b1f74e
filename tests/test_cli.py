"""Tests for the command line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morreylab
from morreylab import certify, cli
from morreylab.catalog import get_space
from morreylab.cli import main
from morreylab import norms
from morreylab.norms import GridFunction, grand_profile, variant_table
from morreylab.scales import MorreyVariant, grid_for, make_grand_params
from morreylab.space import build_space, load_space, save_space


@pytest.fixture()
def staged(tmp_path, monkeypatch):
    monkeypatch.setenv("MORREYLAB_OUTDIR", str(tmp_path / "out"))
    space = get_space("grid-4")
    space_file = tmp_path / "grid4.space"
    save_space(space, space_file)
    rng = np.random.default_rng(1)
    fn_file = tmp_path / "f.fn"
    GridFunction(name="demo", values=rng.uniform(0.0, 2.0, space.n)).save(
        fn_file, space)
    return {"tmp": tmp_path, "space": str(space_file), "fn": str(fn_file),
            "out": tmp_path / "out"}


def test_space_analyze_prints_constants_and_writes_report(staged, capsys):
    code = main(["space", "analyze", staged["space"]])
    assert code == 0
    line = capsys.readouterr().out
    assert "C_t=1" in line and "C_s=1" in line and "d_X=1" in line
    report = json.loads((staged["out"] / "grid-4-geometry.json").read_text())
    assert report["constants"]["C_d"] == 3.0
    assert report["nested_ball"]["passed"]
    assert report["ball_chain"]["passed"]


def test_space_build_preset_and_parametric(staged, capsys):
    assert main(["space", "build", "circle-16"]) == 0
    built = load_space(staged["out"] / "circle-16.space")
    assert built.n == 16
    target = staged["tmp"] / "g6.space"
    assert main(["space", "build", "--kind", "grid", "--n", "6",
                 "-o", str(target)]) == 0
    assert load_space(target).n == 6


def test_space_build_rejects_oversized(staged, capsys):
    code = main(["space", "build", "--kind", "grid", "--n", "5000"])
    assert code == 1
    assert "4096" in capsys.readouterr().err


def test_point_cap_guards_every_subcommand(staged, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_POINTS", 8)
    assert main(["space", "analyze", "grid-16"]) == 1
    assert "capped at n <= 8, space has 16 points" in capsys.readouterr().err
    assert not (staged["out"] / "grid-16-geometry.json").exists()
    fn_file = staged["tmp"] / "f16.fn"
    space = get_space("grid-16")
    GridFunction(name="f16", values=np.ones(16)).save(fn_file, space)
    assert main(["norm", "eval", str(fn_file), "grid-16", "--norm", "morrey"]) == 1
    assert main(["op", "apply", str(fn_file), "grid-16", "--op", "maximal"]) == 1
    assert capsys.readouterr().err.count("capped at n <= 8") == 2


def _subprocess_env():
    """This environment, with the imported morreylab first on the path."""
    src = str(Path(morreylab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_cli_import_does_not_load_scipy():
    probe = ("import sys, morreylab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_reused_parser_carries_no_state_between_calls(staged, capsys):
    argv = ["norm", "eval", "--norm", "grand-morrey", "--p", "2",
            "--lambda", "0.3", "--phi", "pow:1", "--A", "lin:1",
            staged["fn"], staged["space"]]
    cli.build_parser.cache_clear()
    assert main(argv + ["--grid-count", "8", "--closed-grid"]) == 0
    assert main(["norm", "eval", "--norm", "no-such-norm", staged["fn"],
                 staged["space"]]) == 1
    assert main(argv) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    lines = capsys.readouterr().out.splitlines()
    fresh = subprocess.run([sys.executable, "-m", "morreylab.cli", *argv],
                           env=_subprocess_env(), check=True,
                           capture_output=True, text=True).stdout
    assert lines[-1] == fresh.splitlines()[-1]
    assert lines[0] != lines[-1]


def test_norm_eval_grand_morrey_prints_argmax(staged, capsys):
    code = main(["norm", "eval", "--norm", "grand-morrey", "--p", "2",
                 "--lambda", "0.3", "--phi", "pow:1", "--A", "lin:1",
                 staged["fn"], staged["space"]])
    assert code == 0
    line = capsys.readouterr().out
    assert "grand-morrey" in line
    assert "at eps=" in line
    assert "ball(center=" in line


def plain_argmax(values, space, p_eff, lam_eff, variant):
    """(center, radius) of the first ball of variant_table holding the
    largest scaled ball integral at one (p_eff, lam_eff), from a product of
    its own: the rule norm eval printed its ball by before the norm's own
    product gave it."""
    table, den = variant_table(space, variant)
    pw = np.abs(values) ** p_eff * space.weights
    k = int(np.argmax(norms._scaled_integrals(table.masks_f, pw[None, :, None], den,
                                              np.array([lam_eff]))))
    return int(table.centers[k]), float(table.radii[k])


def _tied_spaces(tmp_path):
    """Space files with tied distances: a line grid, a circle and an
    asymmetric integer matrix."""
    rng = np.random.default_rng(29)
    mat = rng.integers(1, 4, size=(12, 12)).astype(float)
    np.fill_diagonal(mat, 0.0)
    spaces = [get_space("grid-16"), get_space("circle-16"),
              build_space(list(range(12)), {"kind": "matrix", "matrix": mat.tolist()},
                          rng.uniform(0.5, 2.0, size=12).tolist(), name="tied-12")]
    files = []
    for space in spaces:
        path = tmp_path / f"{space.name}.space"
        save_space(space, path)
        files.append((load_space(path), str(path)))
    return files


_VARIANT_FLAGS = {"measure": [], "radius": ["--gamma", "0.8"],
                  "modified": ["--dilation", "2.5"]}


@pytest.mark.parametrize("variant", sorted(_VARIANT_FLAGS))
def test_norm_eval_prints_the_first_ball_holding_the_maximum(tmp_path, capsys, variant):
    """The printed ball of morrey and grand-morrey is the first ball
    holding the winning row's maximum (plain_argmax), on spaces with tied
    distances and on functions with tied values (a constant, spikes)."""
    mv = MorreyVariant(kind=variant, gamma=0.8 if variant == "radius" else 1.0,
                       dilation=2.5 if variant == "modified" else 1.0)
    rng = np.random.default_rng(31)
    for space, path in _tied_spaces(tmp_path):
        spikes = np.where(rng.random(space.n) < 0.3, 2.0, 0.0)
        for k, values in enumerate((np.ones(space.n), spikes,
                                    rng.uniform(-1.0, 2.0, space.n))):
            fn = str(tmp_path / f"{space.name}-{k}.fn")
            GridFunction(name=f"f{k}", values=values).save(fn, space)
            flags = ["--variant", variant, *_VARIANT_FLAGS[variant]]
            assert main(["norm", "eval", "--norm", "morrey", "--p", "1.7",
                         "--lambda", "0.4", fn, path, *flags]) == 0
            center, radius = plain_argmax(values, space, 1.7, 0.4, mv)
            line = capsys.readouterr().out
            assert line.endswith(f"at ball(center={center}, radius={radius:.6g})\n"), line
            params = make_grand_params(2.2, 0.3, "pow:1", "lin:0.5", mv, 16)
            prof = grand_profile(values[:, None], space, params, grid_for(params).nodes)
            i = int(np.argmax(prof[:, 0]))
            eps = float(grid_for(params).nodes[i])
            center, radius = plain_argmax(values, space, params.p - eps,
                                          params.lam - float(params.A(eps)), mv)
            assert main(["norm", "eval", "--norm", "grand-morrey", "--p", "2.2",
                         "--lambda", "0.3", "--phi", "pow:1", "--A", "lin:0.5",
                         "--grid-count", "16", fn, path, *flags]) == 0
            line = capsys.readouterr().out
            assert line.endswith(f"at eps={eps:.6g} ball(center={center}, "
                                 f"radius={radius:.6g})\n"), line


def test_norm_eval_on_a_space_without_balls(tmp_path, capsys):
    """A one-point space has no ball under the diameter cap: norm eval
    refuses to print one."""
    space = build_space([0], {"kind": "matrix", "matrix": [[0.0]]}, [2.0], name="point")
    path = tmp_path / "point.space"
    save_space(space, path)
    fn = tmp_path / "f.fn"
    GridFunction(name="f", values=np.ones(1)).save(fn, space)
    assert main(["norm", "eval", "--norm", "morrey", "--p", "2", "--lambda", "0.3",
                 str(fn), str(path)]) == 1
    assert "no representative ball" in capsys.readouterr().err
    assert main(["norm", "eval", "--norm", "morrey", "--p", "2", "--lambda", "0.3",
                 "--radius-cap", "none", str(fn), str(path)]) == 0
    assert capsys.readouterr().out.endswith("ball(center=0, radius=1)\n")


def test_norm_eval_accepts_catalog_name(staged, capsys):
    code = main(["norm", "eval", "--norm", "lebesgue", "--p", "2",
                 staged["fn"], "grid-4"])
    assert code == 0
    assert "lebesgue" in capsys.readouterr().out


def test_norm_eval_validation_error_cites_precondition(staged, capsys):
    code = main(["norm", "eval", "--norm", "morrey", "--p", "0.5",
                 staged["fn"], staged["space"]])
    assert code == 1
    assert "p >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["norm", "eval", "--norm", "lebesgue", "--p", "nan"], "finite p"),
    (["norm", "eval", "--norm", "lebesgue", "--p", "inf"], "finite p"),
    (["norm", "eval", "--norm", "morrey", "--p", "nan"], "finite p"),
    (["norm", "eval", "--norm", "morrey", "--p", "inf"], "finite p"),
    (["norm", "eval", "--norm", "grand-lebesgue", "--p", "inf"], "finite p"),
    (["norm", "eval", "--norm", "grand-lebesgue", "--theta", "nan"], "finite theta"),
    (["norm", "eval", "--norm", "grand-lebesgue", "--theta=-inf"], "finite theta"),
    (["norm", "eval", "--norm", "morrey", "--variant", "radius", "--gamma", "nan"], "gamma"),
    (["norm", "eval", "--norm", "morrey", "--variant", "radius", "--gamma", "inf"], "gamma"),
    (["norm", "eval", "--norm", "morrey", "--variant", "modified", "--dilation", "nan"],
     "dilation"),
    (["norm", "eval", "--norm", "grand-morrey", "--variant", "modified", "--dilation", "inf"],
     "dilation"),
    (["op", "apply", "--op", "potential-distance", "--alpha", "nan"], "alpha"),
    (["op", "apply", "--op", "potential-distance", "--gamma", "nan"], "gamma"),
    (["op", "apply", "--op", "potential-measure", "--alpha", "inf"], "alpha"),
], ids=lambda v: "_".join(v[2:]) if isinstance(v, list) else None)
def test_non_finite_parameters_are_refused(staged, capsys, argv, named):
    # a NaN passes every "x < bound" range check, and an infinite p or alpha
    # gives a wrong finite value; each must exit 1 and write nothing
    code = main(argv + [staged["fn"], staged["space"]])
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and "got " in err, err
    assert not staged["out"].exists() or not list(staged["out"].iterdir())


def test_op_apply_writes_function_file(staged, capsys):
    code = main(["op", "apply", "--op", "maximal", staged["fn"],
                 staged["space"]])
    assert code == 0
    out_file = staged["out"] / "demo-maximal.fn"
    assert out_file.exists()
    space = get_space("grid-4")
    result = GridFunction.load(out_file, space)
    original = GridFunction.load(staged["fn"], space)
    assert np.all(result.values >= np.abs(original.values) - 1e-12)


def test_certify_run_exit_zero_and_report(staged, capsys):
    code = main(["certify", "run", "--theorem", "lemma5.2", "--p", "2",
                 "--lambda", "0.25", staged["space"],
                 "--family", "ball-indicators"])
    assert code == 0
    line = capsys.readouterr().out
    assert "structural=PASS" in line
    body = json.loads((staged["out"] / "lemma-5.2-grid-4.json").read_text())
    assert body["inequality"] == "lemma-5.2"
    assert body["structural_pass"] is True
    assert "runtime_s" not in body
    assert (staged["out"] / "lemma-5.2-grid-4.json.runmeta.json").exists()


def test_certify_run_rerun_byte_identical(staged):
    argv = ["certify", "run", "--theorem", "thm-3.6", staged["space"],
            "--family", "ball-indicators", "--refine", "1", "--no-sharpen"]
    assert main(argv) == 0
    path = staged["out"] / "thm-3.6-grid-4.json"
    first = path.read_bytes()
    assert main(argv) == 0
    assert path.read_bytes() == first


def test_certify_run_refine_zero_refused_by_reduction_only(staged, capsys):
    argv = ["certify", "run", staged["space"], "--family", "ball-indicators",
            "--refine", "0"]
    assert main(argv + ["--theorem", "thm-3.6"]) == 1
    assert "stability gate" in capsys.readouterr().err
    assert main(argv + ["--theorem", "lemma-5.2"]) == 0


@pytest.mark.parametrize("space_name", ["grid-4", "grid-16", "circle-16",
                                        "snowflake-16", "asym-4", "two-atom"])
@pytest.mark.parametrize("theorem", certify.known_theorems())
def test_certify_run_ends_every_theorem_with_an_exit_code(staged, capsys,
                                                         theorem, space_name):
    code = main(["certify", "run", space_name, "--theorem", theorem,
                 "--seed", "3"])
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    assert (code == 1) == ("error:" in err)


@pytest.mark.parametrize("argv", [
    ["certify", "run", "grid-16", "--theorem", "thm-3.6", "--seed", "7",
     "--grid-count", "1"],
    ["norm", "eval", "FN", "grid-4", "--norm", "grand-morrey",
     "--grid-count", "0"]])
def test_grid_count_below_two_is_refused(staged, capsys, argv):
    argv = [staged["fn"] if arg == "FN" else arg for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least 2" in err


@pytest.mark.parametrize("body,kind,names", [
    ({"format": "quasimetric-space", "points": [0, 1]}, "space", "'metric'"),
    ([0, 1], "space", "not a space file"),
    ({"format": "grid-function", "name": "f"}, "function", "'values'"),
    ([0, 1], "function", "not a grid-function file")])
def test_malformed_files_give_an_error_line(staged, capsys, body, kind, names):
    # in process, an exception other than the CLI's handled ones fails here
    bad = staged["tmp"] / "bad.json"
    bad.write_text(json.dumps(body))
    if kind == "space":
        argv = ["space", "analyze", str(bad)]
    else:
        argv = ["norm", "eval", str(bad), staged["space"], "--norm", "lebesgue"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:") and names in err


_SPACE = {"format": "quasimetric-space", "points": [0.0, 1.0],
          "metric": {"kind": "euclidean"}, "weights": [0.5, 0.5]}


@pytest.mark.parametrize("kind,text,names", [
    ("space", '{"format": "quasimetric-space"\n "points": [0]}', "not valid JSON"),
    ("space", json.dumps({**_SPACE, "weights": ["a", 0.5]}), "'weights' entry"),
    ("space", json.dumps({**_SPACE, "points": ["x", 1.0]}), "'points' entry"),
    ("space", json.dumps({**_SPACE, "metric": {"kind": "matrix",
                                               "matrix": [[0, "a"], [1, 0]]}}),
     "'matrix' entry"),
    ("function", '{"format": "grid-function",\n "values": [1, 2,]}', "not valid JSON"),
    ("function", json.dumps({"format": "grid-function", "values": ["a", 1, 1, 1]}),
     "'values' entry"),
    ("function", json.dumps({"format": "grid-function", "values": {"a": 1}}),
     "'values' entry"),
    ("bundle", '{"p": 2.0\n "lam": 0.3}', "not valid JSON"),
    ("bundle", json.dumps({"p": "a"}), "'p' must be a number"),
    ("bundle", json.dumps({"grid_count": [64]}), "'grid_count' must be a number"),
    ("bundle", json.dumps({"phi": 1}), "'phi' must be a string"),
    ("bundle", "[1, 2]", "must be a JSON object")])
def test_malformed_entries_name_the_file_and_the_key(staged, capsys, kind, text,
                                                     names):
    # in process, an exception other than the CLI's handled ones fails here
    bad = staged["tmp"] / "bad.json"
    bad.write_text(text)
    if kind == "space":
        argv = ["space", "analyze", str(bad)]
    elif kind == "function":
        argv = ["norm", "eval", str(bad), staged["space"], "--norm", "lebesgue"]
    else:
        argv = ["certify", "run", "--theorem", "lemma-5.2", staged["space"],
                "--family", "ball-indicators", "--bundle", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and names in err


def test_certify_run_bundle_file_flags_win(staged, capsys):
    bundle = staged["tmp"] / "bundle.json"
    bundle.write_text(json.dumps({"p": 2.0, "lam": 0.45}))
    code = main(["certify", "run", "--theorem", "lemma-5.2", staged["space"],
                 "--family", "ball-indicators", "--bundle", str(bundle),
                 "--lambda", "0.25"])
    assert code == 0
    body = json.loads((staged["out"] / "lemma-5.2-grid-4.json").read_text())
    assert body["params"]["lam"] == 0.25
    assert body["params"]["p"] == 2.0


def test_certify_run_bundle_refuses_unknown_keys(staged, capsys):
    bundle = staged["tmp"] / "bundle.json"
    bundle.write_text(json.dumps({"lamda": 0.4, "p": 2.0, "sigm": 0.1}))
    code = main(["certify", "run", "--theorem", "lemma-5.2", staged["space"],
                 "--family", "ball-indicators", "--bundle", str(bundle)])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown keys: lamda, sigm" in err
    assert not (staged["out"] / "lemma-5.2-grid-4.json").exists()


@pytest.mark.parametrize("theorem", certify.known_theorems())
def test_bundle_of_every_declared_default_writes_the_default_bytes(tmp_path, theorem):
    # a derived default (None) has no bundle value; the builder derives it
    defaults = {key: value for key, value in
                certify.theorem_parameters(theorem).items() if value is not None}
    bundle = tmp_path / "defaults.json"
    bundle.write_text(json.dumps(defaults))
    runs = {"plain": [], "bundle": ["--bundle", str(bundle)]}
    for name, extra in runs.items():
        assert main(["certify", "run", "grid-16", "--theorem", theorem, "--seed", "7",
                     "--outdir", str(tmp_path / name), *extra]) == 0
    for ext in ("json", "members.csv", "profile.csv"):
        plain = tmp_path / "plain" / f"{theorem}-grid-16.{ext}"
        if ext == "json" or plain.exists():
            assert plain.read_bytes() == (
                tmp_path / "bundle" / f"{theorem}-grid-16.{ext}").read_bytes(), ext


@pytest.mark.parametrize("theorem,flags,unread", [
    ("thm-4.5", ["--gamma", "3"], "gamma"),
    ("thm-4.4", ["--phi", "alog:1"], "phi"),
    ("lemma-5.1", ["--lambda", "0.4"], "lam"),
    ("thm-4.5", ["--gamma", "3", "--phi", "alog:1", "--q", "9"], "gamma, phi, q")])
def test_certify_run_refuses_a_parameter_the_theorem_does_not_read(
        tmp_path, capsys, theorem, flags, unread):
    code = main(["certify", "run", "grid-16", "--theorem", theorem, "--seed", "7",
                 "--outdir", str(tmp_path), *flags])
    assert code == 1
    err = capsys.readouterr().err
    declared = ", ".join(certify.theorem_parameters(theorem))
    assert f"{theorem} does not read {unread}; its parameters are {declared}" in err
    assert not list(tmp_path.iterdir())


def test_bundle_file_and_type_errors_come_before_unread_keys(staged, capsys):
    argv = ["certify", "run", "--theorem", "thm-4.5", staged["space"],
            "--family", "ball-indicators", "--gamma", "3"]
    missing = staged["tmp"] / "missing.json"
    assert main(argv + ["--bundle", str(missing)]) == 1
    assert "does not exist" in capsys.readouterr().err
    bad = staged["tmp"] / "bad.json"
    bad.write_text(json.dumps({"gamma": "a"}))
    assert main(argv + ["--bundle", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "'gamma' must be a number" in err and "does not read" not in err
    bad.write_text(json.dumps({"gamma": 3.0}))
    assert main(argv[:-2] + ["--bundle", str(bad)]) == 1
    assert "thm-4.5 does not read gamma" in capsys.readouterr().err
    assert not staged["out"].exists() or not list(staged["out"].iterdir())


def test_certify_run_refuses_an_unsorted_table_shift(staged, capsys):
    code = main(["certify", "run", "--theorem", "thm-3.6", staged["space"],
                 "--family", "ball-indicators", "--A", "table:0.5=0.2,0.1=0.1"])
    assert code == 1
    assert "table:0.5=0.2,0.1=0.1" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["lin", "table:0.1", "pow:"])
def test_certify_run_names_a_malformed_shorthand(capsys, tmp_path, spec):
    # a missing field, a pair without "=" and an empty number; in process, an
    # exception other than the CLI's handled ones fails here
    code = main(["certify", "run", "grid-16", "--theorem", "thm-3.6", "--seed", "7",
                 "--A", spec, "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: cannot parse scale shorthand") and repr(spec) in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("space,theorem,separation,named", [
    ("circle-64", "thm-3.10", "1e9", "no triple of distinct points is separated"),
    ("grid-16", "prop-3.9", "nan", "separation must be finite and positive")])
def test_certify_run_refuses_a_separation_that_skips_the_smoothness_gate(
        capsys, tmp_path, space, theorem, separation, named):
    code = main(["certify", "run", space, "--theorem", theorem, "--seed", "7",
                 "--separation", separation, "--outdir", str(tmp_path)])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_certify_run_randomized_family_needs_seed(staged, capsys):
    code = main(["certify", "run", "--theorem", "lemma-5.2", staged["space"],
                 "--family", "random-step"])
    assert code == 1
    assert "needs a seed" in capsys.readouterr().err


def test_certify_run_unknown_theorem(staged, capsys):
    code = main(["certify", "run", "--theorem", "thm-9.9", staged["space"]])
    assert code == 1
    assert "known ids" in capsys.readouterr().err


def test_certify_run_calibration_failure_exit_two(staged, capsys):
    base = ["certify", "run", "--theorem", "prop-3.9", "circle-16",
            "--family", "ball-indicators"]
    assert main(base + ["--calibrate", "c_cz=1"]) == 0
    assert main(base + ["--calibrate", "c_cz=0.0001"]) == 2
    line = capsys.readouterr().out.splitlines()[-1]
    assert "structural=PASS calibrated=FAIL failed=calibrated ->" in line


def test_certify_run_unknown_free_constant(staged, capsys):
    code = main(["certify", "run", "--theorem", "prop-3.9", "circle-16",
                 "--family", "ball-indicators", "--calibrate", "zz=1"])
    assert code == 1
    assert "unknown free constant" in capsys.readouterr().err


def test_certify_run_infinite_constant_exit_two(staged, capsys):
    code = main(["certify", "run", "--theorem", "prop-3.9", "circle-16",
                 "--family", "ball-indicators", "--p", "2"])
    assert code == 2
    assert "structural=FAIL calibrated=- failed=finite-constant ->" in \
        capsys.readouterr().out


def test_certify_run_names_failed_gates(staged, capsys, monkeypatch):
    argv = ["certify", "run", "--theorem", "thm-3.6", staged["space"],
            "--family", "ball-indicators", "--refine", "2", "--no-sharpen"]
    assert main(argv) == 0
    assert "failed=" not in capsys.readouterr().out
    # the second refinement level doubles the measured ratio
    real = certify.empirical_ratio
    seen = []

    def ratio(out_norms, in_norms, names):
        r, witness = real(out_norms, in_norms, names)
        seen.append(r)
        return (2.0 * r if len(seen) > 3 else r), witness

    monkeypatch.setattr(certify, "empirical_ratio", ratio)
    assert main(argv) == 2
    line = capsys.readouterr().out
    assert "structural=FAIL calibrated=- failed=stability ->" in line


def test_report_index(staged, capsys):
    main(["certify", "run", "--theorem", "lemma5.2", staged["space"],
          "--family", "ball-indicators"])
    main(["certify", "run", "--theorem", "lemma5.1", staged["space"],
          "--family", "ball-indicators"])
    capsys.readouterr()
    code = main(["report", "index", str(staged["out"])])
    assert code == 0
    assert "indexed 2 reports" in capsys.readouterr().out
    lines = (staged["out"] / "index.csv").read_text().splitlines()
    assert lines[0].startswith("inequality,space,ratio,bound")
    assert len(lines) == 3


def test_report_index_empty_directory(staged, capsys):
    empty = staged["tmp"] / "empty"
    empty.mkdir()
    code = main(["report", "index", str(empty)])
    assert code == 1
    assert "no certification reports" in capsys.readouterr().err


def test_unknown_command_is_validation_error(staged, capsys):
    assert main(["bogus"]) == 1


def test_space_argument_neither_file_nor_catalog(staged, capsys):
    code = main(["space", "analyze", "no-such-space"])
    assert code == 1
    assert "catalog names" in capsys.readouterr().err
