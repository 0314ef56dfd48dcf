"""Command-line front end.

Subcommands: solve, diagnose, reproduce, reduce, brute-force.  Artifacts go
to --out (or $HEDONIC_MATCH_OUT, default the working directory) and are
byte-deterministic for identical inputs.

Exit codes: 0 success, 1 reproduction-check failure, 2 bad input, 3
infeasible marginals, 4 a simplex exceeded its pivot budget.  main() only
parses arguments, dispatches and maps exceptions to exit codes; it changes no
process-wide setting.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    DiscreteMeasure,
    GridSpec,
    ValidationError,
    _fmt,
    measure_from_csv,
)
from .diagnostics import (
    DegenerateCross,
    _require_radius,
    check_compatibility_1d,
    check_purity,
    check_strictly_hedonic,
    check_tss_bilinear,
    check_tzss_bilinear,
    compute_prices,
    sample_splitting_sets,
    support_dimension,
    verify_stability,
)
from .instances import FAMILY_CYCLE, random_instance
from .reduction import reduce as reduce_surplus
from .reduction import reduced_to_csv
from .repro import EXAMPLE_IDS, format_rows, run_example
from .serialize import dump_json, load_json, potentials_to_csv
from .solver import (
    PivotBudgetExceeded,
    SolverInfeasible,
    brute_force,
    solve_hybrid,
    solve_tripartite_fixed_alpha,
)
from .surplus import BilinearSurplus, CounterexampleSurplus, surplus_from_dict

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_PIVOT_BUDGET = 4


def _out_dir(args) -> Path:
    target = args.out or os.environ.get("HEDONIC_MATCH_OUT") or "."
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be lo:hi:count, got {text!r}")
    try:
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: {exc}") from exc


def _load_surplus(path) -> "object":
    return surplus_from_dict(load_json(path))


def _axis_points(grid_arg, points_arg, label: str) -> np.ndarray:
    if (grid_arg is None) == (points_arg is None):
        raise ValidationError(f"give exactly one of --{label}-grid / --{label}-points")
    if grid_arg is not None:
        return _parse_grid(grid_arg).points()
    return measure_from_csv(points_arg).points


def _refuse(args, flags: str, where: str) -> None:
    """ValidationError naming each of flags that was given: `where` ignores it."""
    given = [f for f in flags.split() if getattr(args, f.replace("-", "_")) is not None]
    if given:
        raise ValidationError(f"--{', --'.join(given)} cannot be used {where}")


def _gather_problem(args):
    """(surplus, mu, nu, z_points, alpha) from files or a seeded instance;
    ValidationError, before any work, for a flag that source would ignore."""
    if args.random_instance is not None:
        _refuse(args, "surplus mu nu alpha z-grid z-points", "with --random-instance")
        inst = random_instance(args.random_instance, n=args.n, nz=args.nz,
                               family=args.family)
        return inst.surplus, inst.mu, inst.nu, inst.z_points, None
    _refuse(args, "n nz family", "without --random-instance")
    if args.surplus is None or args.mu is None or args.nu is None:
        raise ValidationError(
            "need --surplus, --mu and --nu (or --random-instance SEED)")
    if args.alpha is not None:
        _refuse(args, "z-grid z-points", "with --alpha, whose points are the goods")
    s = _load_surplus(args.surplus)
    mu = measure_from_csv(args.mu)
    nu = measure_from_csv(args.nu)
    alpha = measure_from_csv(args.alpha) if args.alpha is not None else None
    if alpha is not None:
        zs = alpha.points
    else:
        zs = _axis_points(args.z_grid, args.z_points, "z")
    return s, mu, nu, zs, alpha


def _add_problem_args(p: argparse.ArgumentParser):
    p.add_argument("--surplus", help="surplus model JSON")
    p.add_argument("--mu", help="buyer measure CSV")
    p.add_argument("--nu", help="seller measure CSV")
    p.add_argument("--alpha", help="good measure CSV (fixes the z marginal)")
    p.add_argument("--z-grid", help="good grid lo:hi:count")
    p.add_argument("--z-points",
                   help="good points CSV (measure format; weights ignored)")
    p.add_argument("--random-instance", type=int, metavar="SEED",
                   help="generate a seeded instance instead of reading files")
    p.add_argument("--n", type=int, help="population size for --random-instance")
    p.add_argument("--nz", type=int, help="good count for --random-instance")
    p.add_argument("--family", choices=FAMILY_CYCLE,
                   help="surplus family for --random-instance")
    p.add_argument("--out", help="output directory (default $HEDONIC_MATCH_OUT or .)")


# --- solve ------------------------------------------------------------------

def _cmd_solve(args) -> int:
    s, mu, nu, zs, alpha = _gather_problem(args)
    if alpha is not None:
        res = solve_tripartite_fixed_alpha(s, mu, nu, alpha)
    else:
        res = solve_hybrid(s, mu, nu, zs, method=args.method)
    out = _out_dir(args)
    dump_json(res.to_dict(), out / "solve_result.json")
    dump_json(res.coupling.to_dict(), out / "coupling.json")
    potentials_to_csv(res.potentials, out / "potentials.csv",
                      z_potential=res.z_potential)
    print(f"method {res.method}")
    print(f"objective {_fmt(res.objective)}")
    print(f"duality_gap {_fmt(res.duality_gap)}")
    if res.degenerate_optimum:
        print("degenerate optimum: other couplings attain the same value")
    for w in res.warnings:
        print(f"warning: {w}")
    print(f"wrote solve_result.json, coupling.json, potentials.csv to {out}")
    return EXIT_OK


# --- diagnose ---------------------------------------------------------------

def _family_twists(s, solved, mu, nu, zs) -> dict:
    checks = {}
    if tuple(s.dims) == (1, 1, 1):
        support = [(mu.points[i], nu.points[j], zs[k])
                   for i, j, k in solved.coupling.indices]
        try:
            checks["compatibility"] = check_compatibility_1d(s, support).to_dict()
        except DegenerateCross as exc:
            checks["compatibility"] = {"error": str(exc)}
    if isinstance(s, CounterexampleSurplus):
        checks["tzss_bilinear"] = check_tzss_bilinear(*s.tzss_blocks()).to_dict()
    elif isinstance(s, BilinearSurplus):
        checks["tss_bilinear"] = check_tss_bilinear(s.A, s.B, s.C).to_dict()
        checks["tzss_bilinear"] = check_tzss_bilinear(s.A, s.B, s.C,
                                                      s.D).to_dict()
    if getattr(s, "family", "") == "strictly_hedonic":
        checks["strictly_hedonic"] = check_strictly_hedonic(
            s, None, mu.points, nu.points, zs, reduced=solved.reduction).to_dict()
    _, sampled = sample_splitting_sets(s, mu.points, solved.potentials.V,
                                       nu.points, zs, reduced=solved.reduction)
    checks["tzss_sampled"] = sampled.to_dict()
    return checks


def _cmd_diagnose(args) -> int:
    _require_radius(args.radius)
    s, mu, nu, zs, alpha = _gather_problem(args)
    if alpha is not None:
        solved = solve_tripartite_fixed_alpha(s, mu, nu, alpha)
    else:
        solved = solve_hybrid(s, mu, nu, zs, method=args.method)

    report: dict = {
        "model": s.to_dict(),
        "solve": {
            "method": solved.method,
            "objective": solved.objective,
            "duality_gap": solved.duality_gap,
            "degenerate_optimum": solved.degenerate_optimum,
            "warnings": list(solved.warnings),
        },
    }
    # the stability check (without W), the splitting sets and the strictly
    # hedonic check read the solve's reduction, not the surplus grid
    stability = verify_stability(s, solved.coupling, solved.potentials,
                                 z_potential=solved.z_potential,
                                 reduced=solved.reduction)
    report["stability"] = stability.to_dict()
    purity = check_purity(solved.coupling, warnings=solved.warnings)
    report["purity"] = purity.to_dict()
    if getattr(s, "has_uv", False):
        report["prices"] = compute_prices(s, solved.coupling,
                                          solved.potentials).to_dict()
    try:
        report["support_dimension"] = support_dimension(
            solved.coupling, radius=args.radius, s=s).to_dict()
    except ValidationError as exc:
        report["support_dimension"] = {"skipped": str(exc)}
    report["twists"] = _family_twists(s, solved, mu, nu, zs)

    out = _out_dir(args)
    dump_json(report, out / "diagnostics.json")
    print(f"stability: {'stable' if stability.stable else 'UNSTABLE'} "
          f"(grid residual {stability.max_grid_residual:.3e})")
    print(f"purity: {'pure' if purity.pure else 'not pure'}")
    for name, payload in report["twists"].items():
        verdict = payload.get("verdict", payload.get("error", "?"))
        print(f"{name}: {verdict}")
    print(f"wrote diagnostics.json to {out}")
    return EXIT_OK


# --- reproduce --------------------------------------------------------------

def _cmd_reproduce(args) -> int:
    rows = run_example(args.example_id, a=args.a)
    print(format_rows(rows))
    failed = [r for r in rows if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(rows)} checks failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all {len(rows)} checks passed")
    return EXIT_OK


# --- reduce -----------------------------------------------------------------

def _cmd_reduce(args) -> int:
    s = _load_surplus(args.surplus) if args.surplus else None
    if s is None:
        raise ValidationError("--surplus is required")
    xs = _axis_points(args.x_grid, args.x_points, "x")
    ys = _axis_points(args.y_grid, args.y_points, "y")
    zs = _axis_points(args.z_grid, args.z_points, "z")
    red = reduce_surplus(s, xs, ys, zs)
    if not np.isfinite(red.grid_scale):
        raise ValidationError("surplus grid must be finite, with a finite range")
    out = _out_dir(args)
    reduced_to_csv(red, out / "reduced.csv")
    nx, ny = red.shape
    print(f"reduced {nx} x {ny} pairs over {zs.shape[0]} goods")
    print(f"argmax ties on {int(np.sum(red.tie))} pairs, "
          f"boundary argmax on {int(np.sum(red.boundary))}")
    print(f"wrote reduced.csv to {out}")
    return EXIT_OK


# --- brute force ------------------------------------------------------------

def _cmd_brute_force(args) -> int:
    s, mu, nu, zs, alpha = _gather_problem(args)
    if alpha is not None:
        res = brute_force(s, mu, nu, alpha=alpha)
    else:
        res = brute_force(s, mu, nu, z_points=zs)
    out = _out_dir(args)
    dump_json(res.to_dict(), out / "brute_force.json")
    print(f"mode {res.mode}")
    print(f"objective {_fmt(res.objective)}")
    print(f"assignment {list(map(list, res.assignment))}")
    print(f"wrote brute_force.json to {out}")
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedonic-match",
        description="Stable-matching solver and diagnostics for discrete "
                    "buyer/seller/good populations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a matching problem")
    _add_problem_args(p)
    p.add_argument("--method", choices=("reduce_lift", "direct_lp"),
                   default="reduce_lift")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("diagnose", help="solve, then audit the optimum")
    _add_problem_args(p)
    p.add_argument("--method", choices=("reduce_lift", "direct_lp"),
                   default="direct_lp")
    p.add_argument("--radius", type=float, default=0.25,
                   help="neighborhood radius for the support-dimension PCA")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("reproduce", help="re-run a named example")
    p.add_argument("example_id", choices=EXAMPLE_IDS)
    p.add_argument("--a", type=float, default=None,
                   help="override the quadratic-penalty coefficient "
                        "(counterexample and bilinear-tzss-family only)")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("reduce", help="tabulate the reduced two-body surplus")
    p.add_argument("--surplus", help="surplus model JSON")
    for ax in "xyz":
        p.add_argument(f"--{ax}-grid", help=f"{ax} grid lo:hi:count")
        p.add_argument(f"--{ax}-points",
                       help=f"{ax} points CSV (measure format; weights ignored)")
    p.add_argument("--out", help="output directory (default $HEDONIC_MATCH_OUT or .)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("brute-force", help="exhaustive small-instance oracle")
    _add_problem_args(p)
    p.set_defaults(func=_cmd_brute_force)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PivotBudgetExceeded as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return EXIT_PIVOT_BUDGET
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
