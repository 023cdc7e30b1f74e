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
from morreylab.norms import GridFunction
from morreylab.space import load_space, save_space


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


def test_cli_import_does_not_load_scipy():
    src = str(Path(morreylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    probe = ("import sys, morreylab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_norm_eval_grand_morrey_prints_argmax(staged, capsys):
    code = main(["norm", "eval", "--norm", "grand-morrey", "--p", "2",
                 "--lambda", "0.3", "--phi", "pow:1", "--A", "lin:1",
                 staged["fn"], staged["space"]])
    assert code == 0
    line = capsys.readouterr().out
    assert "grand-morrey" in line
    assert "at eps=" in line
    assert "ball(center=" in line


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
