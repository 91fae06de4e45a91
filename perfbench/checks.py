"""Correctness checks the benchmark computes on its own.

Nothing here calls into ``mapthresh``: the MAP objective is rebuilt from
the paper's penalty formula with NumPy and SciPy, and the criterion-1
references are read from the acceptance test module's source, so that a
change to the package cannot also change what it is checked against.
"""

from __future__ import annotations

import ast
import csv
import io
import math

import numpy as np
from scipy.special import gammaln

# Criterion 7 of the acceptance tests: traces may dip by at most this much.
TRACE_SLACK = 1e-10

# Relative slack on "k_hat minimises the objective": rounding in tail sums
# and log-gamma terms of size ~1e7 stays far below it, while moving k_hat by
# even one rank changes the objective by a data-dependent O(1) amount.
OBJECTIVE_RTOL = 1e-12


def map_objective(y, sigma, tau, prior, param):
    """Tail sum of squares plus the paper's penalty, for k = 0..n.

    P[k] = r (log C(n,k) - log pi(k) + (k/2) log(1 + gamma)) with
    r = 2 sigma^2 (1 + 1/gamma).  ``pi`` is left unnormalised, which only
    shifts P by a constant.  ``prior`` is "binomial" (param xi),
    "poisson" or "rpoisson" (param lambda).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    sq = np.sort(y * y)[::-1]
    tail = np.zeros(n + 1)
    tail[:n] = np.cumsum(sq[::-1])[::-1]
    k = np.arange(n + 1, dtype=float)
    log_c = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    if prior == "binomial":
        log_pi = log_c + k * math.log(param) + (n - k) * math.log1p(-param)
    elif prior == "poisson":
        log_pi = k * math.log(param) - gammaln(k + 1.0)
    elif prior == "rpoisson":
        log_pi = (n - k) * math.log(n - param) - gammaln(n - k + 1.0)
    else:
        raise ValueError(f"unknown prior {prior!r}")
    gamma = (tau / sigma) ** 2
    rate = 2.0 * sigma**2 * (1.0 + 1.0 / gamma)
    return tail + rate * (log_c - log_pi + 0.5 * k * math.log1p(gamma))


def check_map_k(y, sigma, tau, prior, param, k_hat):
    """Problems with a MAP k_hat: empty when it minimises the objective."""
    objective = map_objective(y, sigma, tau, prior, param)
    best = float(np.min(objective))
    got = float(objective[k_hat])
    slack = OBJECTIVE_RTOL * float(np.max(np.abs(objective)))
    if got - best > slack:
        return [
            f"{prior}: k_hat={k_hat} has objective {got!r}, but k={int(np.argmin(objective))}"
            f" reaches {best!r} (slack {slack:.3g})"
        ]
    return []


def check_keeps_largest(y, result):
    """Problems with a rank-based estimate: kept set and mu_hat."""
    problems = []
    kept = np.asarray(result.kept)
    if kept.size != result.k_hat or np.unique(kept).size != kept.size:
        problems.append(f"kept holds {kept.size} indices (unique {np.unique(kept).size}) for k_hat={result.k_hat}")
        return problems
    mask = np.zeros(y.size, dtype=bool)
    mask[kept] = True
    if 0 < kept.size < y.size and np.max(np.abs(y[~mask])) > np.min(np.abs(y[mask])):
        problems.append("a dropped coordinate is larger than a kept one")
    if not np.array_equal(result.mu_hat, np.where(mask, y, 0.0)):
        problems.append("mu_hat differs from y on kept indices or from 0 elsewhere")
    return problems


def check_universal(y, lam, result):
    """Problems with a fixed-threshold estimate: keeps exactly |y| >= lam."""
    mask = np.abs(y) >= lam
    problems = []
    if not np.array_equal(np.sort(np.asarray(result.kept)), np.flatnonzero(mask)):
        problems.append(f"kept set is not exactly |y| >= {lam!r}")
    if not np.array_equal(result.mu_hat, np.where(mask, y, 0.0)):
        problems.append("mu_hat differs from y on |y| >= lam or from 0 elsewhere")
    return problems


def trace_is_monotone(trace) -> bool:
    return bool(np.all(np.diff(np.asarray(trace, dtype=float)) >= -TRACE_SLACK))


# --------------------------------------------------------------------------
# Criterion 1 references, read from the acceptance test module
# --------------------------------------------------------------------------

CRITERION_1_TEST = "test_criterion_1_benchmark_grid_reproduction"


def load_reference_amse(test_path):
    """(REFERENCE_AMSE, tolerance(method)) parsed from the test source.

    The tolerance is the expression the test assigns to ``tol`` inside
    its criterion-1 function, evaluated for each method name.  Returns
    None when the module no longer has that shape.
    """
    try:
        with open(test_path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=str(test_path))
    except (OSError, SyntaxError):
        return None
    references = tol_expr = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REFERENCE_AMSE" for t in node.targets
        ):
            references = ast.literal_eval(node.value)
        if isinstance(node, ast.FunctionDef) and node.name == CRITERION_1_TEST:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "tol" for t in inner.targets
                ):
                    tol_expr = compile(ast.Expression(inner.value), str(test_path), "eval")
    if references is None or tol_expr is None:
        return None

    def tolerance(method):
        return float(eval(tol_expr, {"__builtins__": {}}, {"method": method}))

    return references, tolerance


def cells_out_of_tolerance(report_csv, tau_grid, reference):
    """(cells outside tolerance, cells compared) for a simulate report.

    Reference rows list AMSE for the taus of ``tau_grid`` in order, as the
    acceptance test zips them.
    """
    references, tolerance = reference
    amse = {
        (row["method"], float(row["xi"]), float(row["tau"])): float(row["amse"])
        for row in csv.DictReader(io.StringIO(report_csv))
    }
    outside = compared = 0
    for (method, xi), refs in references.items():
        for tau, ref in zip(tau_grid, refs):
            ours = amse.get((method, float(xi), float(tau)))
            if ours is None:
                continue
            compared += 1
            if abs((ours - ref) / ref) > tolerance(method):
                outside += 1
    return outside, compared
