"""Answers computed apart from the program, and the checks that compare.

The surplus of each family is evaluated here from its closed form with
plain numpy, never through the program's value_grid.  With uniform,
equal-size marginals the LP optimum is an assignment (Birkhoff), so
scipy's linear_sum_assignment on max_z s gives the optimal value.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

# Objectives must match the assignment optimum to this relative tolerance.
OBJECTIVE_RTOL = 1e-9
# Dual feasibility and support equality, relative to 1 + max |s| on the grid.
DUAL_RTOL = 1e-9
# Coupling marginals, absolute per point (the program's solver tolerance).
MARGINAL_TOL = 1e-9


def _poly(coeffs, t):
    out = np.zeros_like(t)
    for k, c in enumerate(coeffs or ()):
        out = out + float(c) * t ** k
    return out


def surplus_grid(spec: dict, X, Y, Z) -> np.ndarray:
    """s(x_i, y_j, z_k) over the product grid, from the closed form."""
    fam = spec["family"]
    if fam == "expcos":
        x1, x2 = X[:, 0, None, None], X[:, 1, None, None]
        y1, y2 = Y[None, :, 0, None], Y[None, :, 1, None]
        z1, z2 = Z[None, None, :, 0], Z[None, None, :, 1]
        return (np.exp(x1 + y1) * np.cos(x2 - y2)
                + np.exp(x1 + z1) * np.cos(x2 - z2)
                + np.exp(y1 + z1) * np.cos(z2 - y2)
                - np.exp(2 * x1) - np.exp(2 * y1) - np.exp(2 * z1))
    x = X[:, 0, None, None]
    y = Y[None, :, 0, None]
    z = Z[None, None, :, 0]
    if fam == "bilinear":
        A, B, C, D = (float(np.ravel(spec[k])[0]) for k in "ABCD")
        return (A * x * y + B * x * z + C * y * z + D * z * z
                + _poly(spec.get("f"), x) + _poly(spec.get("g"), y)
                + _poly(spec.get("h"), z))
    if fam == "counterexample":
        return x * y + x * z - y * z - float(spec["a"]) * z * z
    if fam == "supermodular":
        p, q, r = spec["exponents"]
        return float(spec["scale"]) * x ** p * y ** q * z ** r
    raise ValueError(f"no closed form for family {fam!r}")


class Oracle:
    """The independent answer for one market."""

    def __init__(self, market):
        self.market = market
        self.grid = surplus_grid(market.surplus, market.X, market.Y, market.Z)
        self.n = self.grid.shape[0]
        reduced = self.grid.max(axis=2)
        rows, cols = linear_sum_assignment(reduced, maximize=True)
        self.optimum = float(reduced[rows, cols].sum()) / self.n
        self.identity_optimal = bool(
            abs(float(np.trace(reduced)) / self.n - self.optimum)
            <= OBJECTIVE_RTOL * (1.0 + abs(self.optimum)))
        self.scale = 1.0 + float(np.max(np.abs(self.grid)))

    # --- single properties ----------------------------------------------

    def check_objective(self, value: float, what: str) -> list[str]:
        if abs(value - self.optimum) <= OBJECTIVE_RTOL * (1.0 + abs(self.optimum)):
            return []
        return [f"{what} {value!r} differs from the assignment optimum "
                f"{self.optimum!r}"]

    def check_coupling(self, idx: np.ndarray, mass: np.ndarray,
                       what: str) -> list[str]:
        """Marginals are uniform and the surplus carried equals the optimum."""
        out = []
        w = 1.0 / self.n
        for axis, label in ((0, "x"), (1, "y")):
            got = np.bincount(idx[:, axis], weights=mass, minlength=self.n)
            err = float(np.max(np.abs(got - w)))
            if err > MARGINAL_TOL:
                out.append(f"{what}: {label}-marginal off by {err:.3e}")
        carried = float(mass @ self.grid[idx[:, 0], idx[:, 1], idx[:, 2]])
        return out + self.check_objective(carried, f"{what}: surplus carried")

    def check_duals(self, U, V, idx: np.ndarray, what: str) -> list[str]:
        """U + V >= s on the whole grid, with equality on the support."""
        slack = U[:, None, None] + V[None, :, None] - self.grid
        tol = DUAL_RTOL * self.scale
        out = []
        if float(slack.min()) < -tol:
            out.append(f"{what}: dual infeasible by {-float(slack.min()):.3e}")
        on_support = slack[idx[:, 0], idx[:, 1], idx[:, 2]]
        if on_support.size and float(np.max(np.abs(on_support))) > tol:
            out.append(f"{what}: U + V != s on the support "
                       f"({float(np.max(np.abs(on_support))):.3e})")
        return out


# --- per-operation checks ---------------------------------------------------

def _coupling_arrays(payload: dict) -> tuple[np.ndarray, np.ndarray]:
    entries = payload["entries"]
    idx = np.array([[e["i"], e["j"], e["k"]] for e in entries], dtype=np.int64)
    mass = np.array([e["mass"] for e in entries], dtype=float)
    return idx, mass


def _potentials(path: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    U, V = np.full(n, np.nan), np.full(n, np.nan)
    for line in path.read_text().splitlines()[1:]:
        axis, i, val = line.split(",")
        {"U": U, "V": V}[axis][int(i)] = float(val)
    return U, V


def check_solve(oracle: Oracle, out: Path) -> list[str]:
    """`hedonic-match solve`: objective, coupling and potentials."""
    result = json.loads((out / "solve_result.json").read_text())
    idx, mass = _coupling_arrays(json.loads((out / "coupling.json").read_text()))
    U, V = _potentials(out / "potentials.csv", oracle.n)
    fails = (oracle.check_objective(result["objective"], "solve objective")
             + oracle.check_coupling(idx, mass, "solve coupling"))
    if np.isnan(U).any() or np.isnan(V).any():
        return fails + ["solve potentials: a U or V row is missing"]
    return fails + oracle.check_duals(U, V, idx, "solve potentials")


def check_diagnose(oracle: Oracle, out: Path) -> list[str]:
    """`hedonic-match diagnose`: the report parses, says stable, its pure
    assignment carries the optimum, and every price pair agrees."""
    report = json.loads((out / "diagnostics.json").read_text())
    fails = oracle.check_objective(report["solve"]["objective"],
                                   "diagnose objective")
    if report["stability"]["stable"] is not True:
        fails.append("diagnose report does not say stable")
    purity = report["purity"]
    if (purity["pure"] is not True or len(purity["F_Y"]) != oracle.n
            or purity["F_Y"].keys() != purity["F_Z"].keys()):
        fails.append("diagnose coupling is not a pure assignment")
    else:
        idx = np.array([[int(i), purity["F_Y"][i], purity["F_Z"][i]]
                        for i in purity["F_Y"]], dtype=np.int64)
        fails += oracle.check_coupling(idx, np.full(oracle.n, 1.0 / oracle.n),
                                       "diagnose assignment")
    prices = report.get("prices")
    if prices is not None:
        worst = max((row["diff"] for row in prices["rows"]), default=0.0)
        if not worst <= prices["tol"]:
            fails.append(f"price discrepancy {worst:.3e} above {prices['tol']:.1e}")
    return fails


def check_alpha(oracle: Oracle, res) -> list[str]:
    """`max_over_alpha`: the free-z optimum, its coupling, and the
    fixed-alpha certificate at the induced good distribution."""
    c = res.result.coupling
    fails = (oracle.check_objective(res.result.objective, "free-z objective")
             + oracle.check_coupling(c.indices, c.masses, "free-z coupling"))
    fixed = res.fixed_alpha_result.objective
    if abs(fixed - res.result.objective) > OBJECTIVE_RTOL * (1.0 + abs(oracle.optimum)):
        fails.append(f"fixed-alpha objective {fixed!r} differs from free-z "
                     f"{res.result.objective!r}")
    z_marginal = np.bincount(c.indices[:, 2], weights=c.masses,
                             minlength=oracle.market.Z.shape[0])
    err = float(np.max(np.abs(np.asarray(res.alpha.weights) - z_marginal)))
    if err > MARGINAL_TOL:
        fails.append(f"alpha differs from the coupling's z-marginal by {err:.3e}")
    return fails


def check_identical(first: dict, second: dict, what: str) -> list[str]:
    """Artifacts (name -> bytes) written twice for one input must match."""
    if first.keys() != second.keys():
        return [f"{what}: artifact sets differ"]
    return [f"{what}: {name} differs between runs"
            for name in sorted(first) if first[name] != second[name]]
