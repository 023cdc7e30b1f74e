"""Command line front door: build and inspect spaces, evaluate norms,
apply operators, run certifications, and aggregate reports.

Exit codes: 0 on success, 1 on validation or IO errors, 2 when a
certification ran to completion but failed its bound.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import catalog
from .certify import (PARAM_TYPES, CertifyError, certify_boundedness,
                      known_theorems, param_value, save_report, write_index)
from .norms import (GridFunction, NormError, grand_lebesgue_norm,
                    grand_supremum, lebesgue_norm, morrey_norm, variant_table)
from .operators import (OperatorError, cz_apply, hilbert_kernel, maximal,
                        modified_maximal, potential)
from .scales import (FreeConstants, MorreyVariant, ScaleError, grid_for,
                     make_grand_params)
from .space import (SpaceError, ball_chain_check, dilation_constants,
                    geometry_constants, load_space, nested_ball_bound_check,
                    read_json, save_space)

# exhaustive ball enumeration is not quadratic in n: a ball table holds about
# B = n^2/2 balls of n members.  space analyze and op apply hold O(B + n^2)
# values, but the norm products read the masks: n^3/2 bytes of bools, 4n^3
# bytes as masks_f, which the full path of the exact ball integrals reads
# (the exact rows of a grand supremum, inner seminorms, the ball that norm
# eval prints), and 2n^3 bytes as masks32, which the float32 screens read
# (about 450 GB together at n = 4096).  norm eval's screen copies its float32
# mask rows block by block instead of building masks32, so it holds the bool
# masks and masks_f only.  Larger spaces
# are refused, but the cap does not bound memory; the ROADMAP item "No
# cached B × n array in any subcommand, then an honest size model" plans
# that.
MAX_POINTS = 4096


def _outdir(args) -> Path:
    out = getattr(args, "outdir", None) or os.environ.get("MORREYLAB_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_space_arg(token: str):
    path = Path(token)
    if path.exists():
        space = load_space(path)
    else:
        try:
            space = catalog.get_space(token)
        except (KeyError, SpaceError, ValueError):
            known = ", ".join(sorted(catalog.catalog()))
            raise CertifyError(
                f"{token!r} is neither a space file nor a catalog name; "
                f"catalog names: {known}")
    if space.n > MAX_POINTS:
        raise CertifyError(
            f"exhaustive ball enumeration is capped at n <= {MAX_POINTS}, "
            f"space has {space.n} points")
    return space


def _load_function(token: str, space) -> GridFunction:
    path = Path(token)
    if not path.exists():
        raise CertifyError(f"function file {token!r} does not exist")
    return GridFunction.load(path, space)


# ---------------------------------------------------------------------------
# space subcommands


def _cmd_space_build(args) -> int:
    if args.preset:
        space = catalog.get_space(args.preset)
    else:
        n = int(args.n or 0)
        if args.kind in ("grid", "circle", "snowflake") and n < 1:
            raise CertifyError(f"--n must be a positive point count, got {n}")
        if n > MAX_POINTS:
            raise CertifyError(
                f"exhaustive ball enumeration is capped at n <= {MAX_POINTS}, "
                f"got {n}")
        if args.kind == "grid":
            space = catalog.line_grid(n)
        elif args.kind == "circle":
            space = catalog.calibrated_circle(n, circumference=args.circumference)
        elif args.kind == "snowflake":
            space = catalog.snowflake_grid(n, exponent=args.exponent)
        elif args.kind == "two-atom":
            space = catalog.two_atom(args.w0, args.w1, args.gap)
        elif args.kind == "asym":
            space = catalog.asymmetric_demo()
        else:
            raise CertifyError("space build needs --preset or --kind")
    out = Path(args.output) if args.output else _outdir(args) / f"{space.name}.space"
    save_space(space, out)
    print(f"space {space.name}: n={space.n} d_X={space.diameter:.6g} -> {out}")
    return 0


def _cmd_space_analyze(args) -> int:
    space = _load_space_arg(args.space)
    geo = geometry_constants(space)
    nested = nested_ball_bound_check(space, geo.C_d)
    chain = ball_chain_check(space)
    report = {
        "space": space.name,
        "space_id": space.space_id(),
        "n": space.n,
        "d_X": space.diameter,
        "constants": dataclasses.asdict(geo),
        "nested_ball": dataclasses.asdict(nested),
        "ball_chain": dataclasses.asdict(chain),
    }
    out = Path(args.output) if args.output else (
        _outdir(args) / f"{space.name}-geometry.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True, default=str)
                   + "\n")
    print(f"space {space.name}: C_t={geo.C_t:.6g} C_s={geo.C_s:.6g} "
          f"C_d={geo.C_d:.6g} d_X={space.diameter:.6g} N_0={geo.N_0:.6g} "
          f"a_bar={geo.a_bar:.6g} nested={'ok' if nested.passed else 'FAIL'} "
          f"chain={'ok' if chain.passed else 'FAIL'} -> {out}")
    return 0 if nested.passed and chain.passed else 2


# ---------------------------------------------------------------------------
# norm evaluation


def _variant_from_args(args) -> MorreyVariant:
    return MorreyVariant(kind=args.variant, gamma=args.gamma,
                         dilation=args.dilation,
                         radius_cap=args.radius_cap)


def _ball(space, variant, k: int) -> tuple[int, float]:
    """(center, radius) of row ``k`` of the variant's ball table."""
    if k < 0:
        raise CertifyError(f"space {space.name} has no representative ball")
    table, _ = variant_table(space, variant)
    return int(table.centers[k]), float(table.radii[k])


def _cmd_norm_eval(args) -> int:
    space = _load_space_arg(args.space)
    fn = _load_function(args.function, space)
    kind = args.norm
    if kind == "lebesgue":
        value = float(lebesgue_norm(fn.values, space, args.p))
        print(f"lebesgue(p={args.p:g}) [{fn.name}] = {value:.12g}")
        return 0
    if kind == "grand-lebesgue":
        value = float(grand_lebesgue_norm(fn.values, space, args.p,
                                          theta=args.theta))
        print(f"grand-lebesgue(p={args.p:g}, theta={args.theta:g}) "
              f"[{fn.name}] = {value:.12g}")
        return 0
    variant = _variant_from_args(args)
    if kind == "morrey":
        value, k = morrey_norm(fn.values, space, args.p, args.lam, variant,
                               return_ball=True)
        center, radius = _ball(space, variant, k)
        print(f"morrey(p={args.p:g}, lam={args.lam:g}, {variant.kind}) "
              f"[{fn.name}] = {value:.12g} at ball(center={center}, "
              f"radius={radius:.6g})")
        return 0
    if kind == "grand-morrey":
        params = make_grand_params(args.p, args.lam, args.phi, args.A,
                                   variant, args.grid_count,
                                   closed_grid=args.closed_grid)
        nodes = grid_for(params).nodes
        i, value, k = grand_supremum(fn.values[:, None], space, params, nodes,
                                     return_ball=True)
        eps = float(nodes[i])
        center, radius = _ball(space, variant, k)
        print(f"grand-morrey(p={args.p:g}, lam={args.lam:g}, "
              f"phi={params.phi.describe()}, A={params.A.describe()}) "
              f"[{fn.name}] = {value:.12g} at eps={eps:.6g} "
              f"ball(center={center}, radius={radius:.6g})")
        return 0
    raise CertifyError(f"unknown norm kind {kind!r}")


# ---------------------------------------------------------------------------
# operator application


def _cmd_op_apply(args) -> int:
    space = _load_space_arg(args.space)
    fn = _load_function(args.function, space)
    op = args.op
    if op == "maximal":
        out_vals = maximal(fn.values, space)
    elif op == "modified-maximal":
        out_vals = modified_maximal(fn.values, space,
                                    dilation_constants(space)[0])
    elif op == "potential-distance":
        out_vals = potential(fn.values, space, "gamma-kernel", args.alpha,
                             args.gamma)
    elif op == "potential-measure":
        out_vals = potential(fn.values, space, "measure-kernel", args.alpha)
    elif op == "potential-line":
        out_vals = potential(fn.values, space, "k-alpha", args.alpha)
    elif op == "cz":
        out_vals = cz_apply(fn.values, space, hilbert_kernel(space))
    else:
        raise CertifyError(f"unknown operator {op!r}")
    out_fn = GridFunction(name=f"{fn.name}-{op}",
                          values=np.asarray(out_vals, dtype=float))
    out = Path(args.output) if args.output else (
        _outdir(args) / f"{out_fn.name}.fn")
    out_fn.save(out, space)
    print(f"{op} [{fn.name}] on {space.name}: max={float(np.abs(out_fn.values).max()):.12g} "
          f"-> {out}")
    return 0


# ---------------------------------------------------------------------------
# certification


def _certify_params(args) -> dict:
    """The certificate parameters of certify run: the --bundle entries, each
    checked as its flag's value is, then the flags, which win."""
    merged = {}
    if args.bundle:
        path = Path(args.bundle)
        if not path.exists():
            raise CertifyError(f"parameter bundle {args.bundle!r} does not exist")
        data = read_json(path, CertifyError)
        if not isinstance(data, dict):
            raise CertifyError(f"parameter bundle {args.bundle!r} must be a JSON object")
        unknown = ", ".join(sorted(set(data) - set(PARAM_TYPES)))
        if unknown:
            raise CertifyError(f"parameter bundle {args.bundle!r} has unknown keys: {unknown}")
        for key, value in data.items():
            try:
                param_value(key, value)
            except CertifyError as exc:
                raise CertifyError(f"parameter bundle {args.bundle!r}: {exc}") from None
        merged.update(data)
    merged.update((key, getattr(args, key)) for key in PARAM_TYPES
                  if getattr(args, key) is not None)
    return merged


def _parse_calibration(text: str) -> FreeConstants:
    fields = {f.name for f in dataclasses.fields(FreeConstants)}
    values = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise CertifyError(
                f"calibration entries look like name=value, got {item!r}")
        name, _, raw = item.partition("=")
        name = name.strip()
        if name not in fields:
            raise CertifyError(
                f"unknown free constant {name!r}; known: {', '.join(sorted(fields))}")
        values[name] = float(raw)
    return FreeConstants(**values)


def _cmd_certify_run(args) -> int:
    space = _load_space_arg(args.space)
    consts = _parse_calibration(args.calibrate) if args.calibrate else None
    params = _certify_params(args)
    report = certify_boundedness(
        args.theorem, space, family_spec=args.family, seed=args.seed,
        params=params, consts=consts, sharpen=not args.no_sharpen,
        refinement_levels=args.refine)
    outdir = _outdir(args)
    path = outdir / f"{report.inequality}-{space.name}.json"
    save_report(report, path)
    status = "PASS" if report.structural_pass else "FAIL"
    calib = ("-" if report.calibrated_pass is None
             else ("PASS" if report.calibrated_pass else "FAIL"))
    gates = report.failed_gates()
    if report.calibrated_pass is False:
        gates.append("calibrated")
    named = f" failed={','.join(gates)}" if gates else ""
    print(f"{report.inequality} on {space.name}: ratio={report.ratio:.6g} "
          f"bound={report.bound:.6g} structural={status} calibrated={calib}"
          f"{named} -> {path}")
    failed = (not report.structural_pass) or report.calibrated_pass is False
    return 2 if failed else 0


def _cmd_report_index(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise CertifyError(f"report directory {args.directory!r} does not exist")
    bodies = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".runmeta.json"):
            continue
        data = read_json(path, CertifyError)
        if isinstance(data, dict) and "inequality" in data:
            bodies.append(data)
    if not bodies:
        raise CertifyError(f"no certification reports found in {directory}")
    path = write_index(bodies, directory)
    print(f"indexed {len(bodies)} reports -> {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    ``parse_args`` leaves the parser as it found it, so ``main`` can reuse
    one parser across calls; the handlers are bound when it is built.
    """
    parser = argparse.ArgumentParser(
        prog="morreylab",
        description="numerical laboratory for Morrey-type norms and "
                    "operator bound certificates on finite quasimetric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="build or analyze spaces")
    space_sub = p_space.add_subparsers(dest="space_command", required=True)

    p_build = space_sub.add_parser("build", help="materialize a space file")
    p_build.add_argument("preset", nargs="?",
                         help="catalog name, e.g. grid-16 or circle-64")
    p_build.add_argument("--kind",
                         choices=("grid", "circle", "snowflake", "two-atom",
                                  "asym"))
    p_build.add_argument("--n", type=int)
    p_build.add_argument("--circumference", type=float, default=1.0)
    p_build.add_argument("--exponent", type=float, default=0.5)
    p_build.add_argument("--w0", type=float, default=1.0)
    p_build.add_argument("--w1", type=float, default=10.0)
    p_build.add_argument("--gap", type=float, default=1.0)
    p_build.add_argument("-o", "--output")
    p_build.add_argument("--outdir")
    p_build.set_defaults(handler=_cmd_space_build)

    p_analyze = space_sub.add_parser("analyze",
                                     help="geometry constants and checks")
    p_analyze.add_argument("space", help="space file or catalog name")
    p_analyze.add_argument("-o", "--output")
    p_analyze.add_argument("--outdir")
    p_analyze.set_defaults(handler=_cmd_space_analyze)

    p_norm = sub.add_parser("norm", help="evaluate norms")
    norm_sub = p_norm.add_subparsers(dest="norm_command", required=True)
    p_eval = norm_sub.add_parser("eval", help="evaluate one norm")
    p_eval.add_argument("function", help="function file")
    p_eval.add_argument("space", help="space file or catalog name")
    p_eval.add_argument("--norm", required=True,
                        choices=("lebesgue", "morrey", "grand-morrey",
                                 "grand-lebesgue"))
    p_eval.add_argument("--p", type=float, default=2.0)
    p_eval.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_eval.add_argument("--phi", default="pow:1")
    p_eval.add_argument("--A", default="zero")
    p_eval.add_argument("--theta", type=float, default=1.0)
    p_eval.add_argument("--variant", default="measure",
                        choices=("measure", "radius", "modified"))
    p_eval.add_argument("--gamma", type=float, default=1.0)
    p_eval.add_argument("--dilation", type=float, default=1.0)
    p_eval.add_argument("--radius-cap", default="auto",
                        choices=("auto", "diameter", "none"))
    p_eval.add_argument("--grid-count", type=int, default=64)
    p_eval.add_argument("--closed-grid", action="store_true")
    p_eval.set_defaults(handler=_cmd_norm_eval)

    p_op = sub.add_parser("op", help="apply operators")
    op_sub = p_op.add_subparsers(dest="op_command", required=True)
    p_apply = op_sub.add_parser("apply", help="apply one operator")
    p_apply.add_argument("function", help="function file")
    p_apply.add_argument("space", help="space file or catalog name")
    p_apply.add_argument("--op", required=True,
                         choices=("maximal", "modified-maximal",
                                  "potential-distance", "potential-measure",
                                  "potential-line", "cz"))
    p_apply.add_argument("--alpha", type=float, default=0.125)
    p_apply.add_argument("--gamma", type=float, default=1.0)
    p_apply.add_argument("-o", "--output")
    p_apply.add_argument("--outdir")
    p_apply.set_defaults(handler=_cmd_op_apply)

    p_cert = sub.add_parser("certify", help="run certifications")
    cert_sub = p_cert.add_subparsers(dest="certify_command", required=True)
    p_run = cert_sub.add_parser("run", help="certify one inequality")
    p_run.add_argument("space", help="space file or catalog name")
    p_run.add_argument("--theorem", required=True,
                       help=f"inequality id, one of {', '.join(known_theorems())}")
    p_run.add_argument("--family", default=None,
                       help="test family spec (default mixed)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="seed, mandatory for randomized families")
    p_run.add_argument("--bundle", help="JSON parameter bundle; flags win")
    for key, kind in PARAM_TYPES.items():
        flag = {"lam": "--lambda", "grid_count": "--grid-count"}.get(key, f"--{key}")
        p_run.add_argument(flag, dest=key, type=kind)
    p_run.add_argument("--calibrate",
                       help="free constants, e.g. c0=2.5,c_cz=1.2")
    p_run.add_argument("--no-sharpen", action="store_true")
    p_run.add_argument("--refine", type=int, default=1,
                       help="grid refinement levels for the stability gate of "
                            "grand-norm certificates (at least 1)")
    p_run.add_argument("--outdir")
    p_run.set_defaults(handler=_cmd_certify_run)

    p_rep = sub.add_parser("report", help="aggregate reports")
    rep_sub = p_rep.add_subparsers(dest="report_command", required=True)
    p_idx = rep_sub.add_parser("index", help="index report files in a directory")
    p_idx.add_argument("directory")
    p_idx.set_defaults(handler=_cmd_report_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as validation errors
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (CertifyError, SpaceError, NormError, OperatorError, ScaleError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
