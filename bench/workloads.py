"""The markets each workload solves, and how each operation runs them.

Every workload is a fixed list of operations run in a fixed order.  The
seed draws the numbers; the list, the sizes and the families never change,
so every run does the same kind of work (see README.md for why and for the
pivot counts each list takes).

This module imports numpy only.  The program is imported lazily by the
operation runners, so that set-up can time the import on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# transport-2d and alpha-1d run fixed market shapes.  A shape draw seeds the
# family parameters and the support points; the run seed then rescales,
# translates or rotates them in ways that change every number the program
# reads but leave every simplex pivot as it was, so each run makes the same
# pivots.  The shapes were taken from draws 0-39 (transport-2d) and 0-7 per
# (family, n) (alpha-1d) as ones whose operations cost about the same, and
# are few enough that two rounds of them, each run on the program and on the
# reference, fit in one run.  README.md lists their pivot counts.
TRANSPORT_SHAPES = (32, 12, 27, 0, 16)
# alpha-1d shapes are (family, n, shape draw); both solves pivot on every
# bilinear and counterexample shape.
ALPHA_SHAPES = (
    ("bilinear", 16, 1),
    ("bilinear", 24, 1),
    ("counterexample", 16, 5),
    ("counterexample", 24, 1),
    ("supermodular", 10, 0),
)
ALPHA_NZ = 9

# audit-1d holds two monomial markets for each counterexample one.
TRANSPORT_N, TRANSPORT_NZ = 30, 9
DENSE_MARKETS, DENSE_N, DENSE_NZ = 3, 120, 17
AUDIT_MARKETS, AUDIT_N, AUDIT_NZ = 21, 300, 33
# audit-1d counterexample markets sit on a lattice of this many steps in [0, 1)
AUDIT_LATTICE = 600


@dataclass(frozen=True, eq=False)
class Market:
    """One problem: the surplus in the program's JSON form and the support
    points (n, d) of buyers X, sellers Y and goods Z.  Buyer and seller
    weights are uniform."""

    label: str
    surplus: dict
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray


def _points(rng, n: int, d: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """n points uniform in [lo, hi]^d, in lexicographic order."""
    pts = lo + (hi - lo) * rng.uniform(size=(n, d))
    return pts[np.lexsort(pts.T[::-1])]


def _transport_market(seed: int, i: int) -> Market:
    n, nz, draw = TRANSPORT_N, TRANSPORT_NZ, TRANSPORT_SHAPES[i]
    shape = np.random.default_rng([draw, n])
    X, Y, Z = _points(shape, n, 2), _points(shape, n, 2), _points(shape, nz, 2)
    # Adding t to every first coordinate scales s by e^(2t); adding phi to
    # every second coordinate leaves each cosine's argument as it was.
    t, phi = np.random.default_rng([seed, i]).uniform((-0.5, 0.0), (0.5, 2 * np.pi))
    X, Y, Z = (P + (t, phi) for P in (X, Y, Z))
    return Market(f"expcos-n{n}-{draw}", {"family": "expcos"}, X, Y, Z)


def _alpha_market(seed: int, i: int) -> Market:
    family, n, draw = ALPHA_SHAPES[i]
    shape = np.random.default_rng([draw, n])
    rng = np.random.default_rng([seed, i])
    if family == "bilinear":
        A, B, C = shape.uniform(-2.0, 2.0, size=3)
        D = shape.uniform(-1.0, 0.0)
        X, Y = _points(shape, n, 1), _points(shape, n, 1)
        Z = _points(shape, ALPHA_NZ, 1)
        # A positive factor on the interaction terms, plus terms in x alone
        # and in y alone, changes no reduced cost's sign: same pivots.
        c = rng.uniform(0.5, 2.0)
        f1, g1 = rng.uniform(-1.0, 1.0, size=2)
        surplus = {"family": "bilinear", "A": [[c * A]], "B": [[c * B]],
                   "C": [[c * C]], "D": [[c * D]], "f": [0.0, f1],
                   "g": [0.0, g1]}
    elif family == "counterexample":
        a = shape.uniform(0.1, 1.5)
        X, Y = _points(shape, n, 1), _points(shape, n, 1)
        Z = _points(shape, ALPHA_NZ, 1)
        # s(l(x+t), l(y+t), lz) = l^2 (s(x, y, z) + t(x + y) + t^2)
        lam, t = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
        X, Y, Z = lam * (X + t), lam * (Y + t), lam * Z
        surplus = {"family": "counterexample", "a": a}
    else:
        exps = [int(e) for e in shape.integers(1, 4, size=3)]
        X, Y = _points(shape, n, 1), _points(shape, n, 1)
        Z = _points(shape, ALPHA_NZ, 1)
        # scaling an axis scales the monomial by a positive factor
        lx, ly, lz = rng.uniform(0.5, 2.0, size=3)
        X, Y, Z = lx * X, ly * Y, lz * Z
        surplus = {"family": "supermodular", "exponents": exps,
                   "scale": rng.uniform(0.5, 2.0)}
    return Market(f"{family}-n{n}-{draw}", surplus, X, Y, Z)


def _dense_market(seed: int, i: int) -> Market:
    rng = np.random.default_rng([seed, i])
    n, nz = DENSE_N, DENSE_NZ
    # A > 0 with B, C, D < 0 and h' <= 0: s falls with z everywhere, so the
    # smallest good is every pair's best and positive assortative matching
    # is optimal.  That is direct_lp's warm start, so it makes no pivots and
    # the time goes to building and pricing the dense constraint matrix.
    A = rng.uniform(0.25, 1.0)
    B, C = rng.uniform(-2.0, -0.5, size=2)
    D = rng.uniform(-1.0, -0.5)
    f1, g1 = rng.uniform(-1.0, 1.0, size=2)
    h1 = rng.uniform(-0.3, 0.0)
    surplus = {"family": "bilinear", "A": [[A]], "B": [[B]], "C": [[C]],
               "D": [[D]], "f": [0.0, f1], "g": [0.0, g1], "h": [0.0, h1]}
    return Market(f"bilinear-n{n}-{i}", surplus, _points(rng, n, 1),
                  _points(rng, n, 1), _points(rng, nz, 1))


def _audit_market(seed: int, i: int) -> Market:
    rng = np.random.default_rng([seed, i])
    n, nz = AUDIT_N, AUDIT_NZ
    if i % 3 != 2:
        # Monomials on [1/4, 1]: the reduced surplus is supermodular, so the
        # sorted northwest start is optimal.  Points near 0 are left out:
        # there x^p is below the splitting-set tolerance and every (y, z)
        # joins the slice, the quadratic case that CHANGES.md records.
        surplus = {"family": "supermodular",
                   "exponents": [int(e) for e in rng.integers(1, 4, size=3)],
                   "scale": rng.uniform(0.5, 2.0)}
        return Market(f"supermodular-n{n}-{i}", surplus,
                      _points(rng, n, 1, 0.25, 1.0),
                      _points(rng, n, 1, 0.25, 1.0),
                      _points(rng, nz, 1, 0.25, 1.0))
    # Counterexample family with a > 1/2 on a lattice of step d, goods at
    # step d/(2a): on the lattice the reduced surplus is xy + (x-y)^2/(4a)
    # clipped to the goods, whose cross differences are >= (1 - 1/(2a)) dx dy
    # > 0.  So again the sorted start is optimal and the transport simplex
    # makes no pivots, while the matched goods stay interior.
    a = rng.uniform(0.6, 1.5)
    step = 1.0 / AUDIT_LATTICE
    X = np.sort(rng.choice(AUDIT_LATTICE, n, replace=False)) * step
    Y = np.sort(rng.choice(AUDIT_LATTICE, n, replace=False)) * step
    Z = np.arange(nz) * (step / (2.0 * a))
    return Market(f"counterexample-n{n}-{i}", {"family": "counterexample", "a": a},
                  X.reshape(-1, 1), Y.reshape(-1, 1), Z.reshape(-1, 1))


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    make: object          # (seed, index) -> Market
    argv: tuple | None    # CLI subcommand and flags; None for library calls


WORKLOADS = {
    "transport-2d": Workload("transport-2d", len(TRANSPORT_SHAPES),
                             _transport_market, ("solve",)),
    "alpha-1d": Workload("alpha-1d", len(ALPHA_SHAPES), _alpha_market, None),
    "diagnose-dense": Workload("diagnose-dense", DENSE_MARKETS, _dense_market,
                               ("diagnose",)),
    "audit-1d": Workload("audit-1d", AUDIT_MARKETS, _audit_market,
                         ("diagnose", "--method", "reduce_lift")),
}


def markets(workload: Workload, seed: int) -> list[Market]:
    return [workload.make(seed, i) for i in range(workload.count)]


# --- inputs -----------------------------------------------------------------

def _measure_csv(points: np.ndarray) -> str:
    """The program's measure format, uniform weights, %.17g floats."""
    n, d = points.shape
    w = "%.17g" % (1.0 / n)
    rows = [",".join([f"x{k + 1}" for k in range(d)] + ["weight"])]
    rows += [",".join(["%.17g" % v for v in p] + [w]) for p in points]
    return "\n".join(rows) + "\n"


def write_inputs(market: Market, folder: Path) -> None:
    """surplus.json, mu.csv, nu.csv and z.csv for the CLI."""
    folder.mkdir(parents=True, exist_ok=True)
    (folder / "surplus.json").write_text(json.dumps(market.surplus) + "\n")
    for name, pts in (("mu", market.X), ("nu", market.Y), ("z", market.Z)):
        (folder / f"{name}.csv").write_text(_measure_csv(pts))


def build_inputs(workload: Workload, seed: int, folder: Path) -> list:
    """Everything an operation needs: input folders for CLI workloads,
    program objects for the library workload."""
    ms = markets(workload, seed)
    if workload.argv is None:
        return [library_problem(m) for m in ms]
    for i, m in enumerate(ms):
        write_inputs(m, folder / f"in{i}")
    return [folder / f"in{i}" for i in range(len(ms))]


def library_problem(market: Market) -> tuple:
    """(surplus model, mu, nu, z points) as the library takes them."""
    from hedonic_match import DiscreteMeasure, surplus_from_dict
    return (surplus_from_dict(market.surplus), DiscreteMeasure.uniform(market.X),
            DiscreteMeasure.uniform(market.Y), market.Z)


# --- operations -------------------------------------------------------------

def run_cli(workload: Workload, in_dir: Path, out_dir: Path) -> int:
    """One CLI operation; returns its exit code.  Console output is kept
    in memory so the terminal does not time it."""
    from hedonic_match import cli
    argv = [*workload.argv, "--surplus", str(in_dir / "surplus.json"),
            "--mu", str(in_dir / "mu.csv"), "--nu", str(in_dir / "nu.csv"),
            "--z-points", str(in_dir / "z.csv"), "--out", str(out_dir)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def run_alpha(problem):
    from hedonic_match import solver
    s, mu, nu, zs = problem
    return solver.max_over_alpha(s, mu, nu, zs)
