#!/usr/bin/env python3
"""Recompute the exact L* and decay-bound verdicts of the pinned ``check-prior`` cases.

    PYTHONPATH=src python3 tools/lstar_references.py

For each case (n, prior kind, parameter) this prints one line of the form
``(n, "kind", parameter, "L*", first_failing_k),``: the literals that
``tests/test_priors.py::LSTAR_REFERENCES`` holds.  L* is the maximum of the
complexity weights L[0] = 2 c[0] and L[k] = c[k] / k, with
c[k] = log C(n,k) - log pi_n(k), printed to 20 significant digits;
first_failing_k is the first size whose decay-bound margin
c[k] - c(gamma) k is negative at gamma = 9, or None.  Both are exact for
the prior whose parameter is the given double: the reflected Poisson
prior takes m = n - lam in exact arithmetic, not in floating point.

The package's own weights and margins only choose the candidates: every
k whose weight lies within 1e-6 relative of the package's L*, and every k
whose margin is negative or within 1e-6 relative of zero, is evaluated
again in mpmath at 40 digits.  That takes under a minute.  mpmath 1.3.0
comes with SymPy; it is not a dependency of the package or of its tests.
"""

from __future__ import annotations

import warnings

import mpmath
import numpy as np

from mapthresh import (
    BinomialPrior,
    ReflectedPoissonPrior,
    TruncatedPoissonPrior,
    build_prior_table,
    check_assumption_a,
    complexity_weights,
)

GAMMA = 9.0
SPECS = {"binomial": BinomialPrior, "poisson": TruncatedPoissonPrior, "rpoisson": ReflectedPoissonPrior}


def cases() -> list[tuple[int, str, float]]:
    """The 49 cases: five lengths with each of nine priors, and four more at n = 1000."""
    out = []
    for n in (1, 2, 20, 1000, 100_000):
        out += [(n, "binomial", xi) for xi in (0.05, 0.5, 0.005, 1e-12, 0.999999999)]
        out += [(n, "poisson", lam) for lam in (1e-6, 0.5, float(n))]
        out.append((n, "rpoisson", 1e-6))
    out += [(1000, "poisson", 50.0), (1000, "rpoisson", 5.0), (1000, "poisson", 5.0), (1000, "rpoisson", 500.0)]
    return out


def exact_complexity(n: int, kind: str, value: float):
    """k -> c[k] = log C(n,k) - log pi_n(k) in mpmath, for the prior with this exact parameter."""
    p = mpmath.mpf(value)
    if kind == "binomial":
        return lambda k: -k * mpmath.log(p) - (n - k) * mpmath.log1p(-p)
    # a Poisson(x) pmf at j, restricted to j <= n: sum_{j<=n} x^j/j! = e^x Q(n+1, x)
    x, flip = (p, False) if kind == "poisson" else (n - p, True)
    log_norm = x + mpmath.log(mpmath.gammainc(n + 1, a=x, regularized=True))

    def complexity(k):
        j = n - k if flip else k
        log_choose = mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
        return log_choose - (j * mpmath.log(x) - mpmath.loggamma(j + 1) - log_norm)

    return complexity


def exact_references(n: int, kind: str, value: float):
    """(L*, first failing k) for one case, exact up to mpmath's 40 digits."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-lambda reflected priors warn
        table = build_prior_table(SPECS[kind](value), n)
    weights, l_star = complexity_weights(table)
    report = check_assumption_a(table, GAMMA)
    c = exact_complexity(n, kind, value)

    candidates = np.flatnonzero(weights >= l_star - 1e-6 * abs(l_star)).tolist()
    exact_l_star = max(2 * c(k) if k == 0 else c(k) / k for k in candidates)

    k = np.arange(n + 1)
    margin = report.per_k_margin
    undecided = (margin < 0.0) | (np.abs(margin) <= 1e-6 * (1.0 + report.c_gamma * k))
    c_gamma = mpmath.mpf(report.c_gamma)
    first = next((j for j in np.flatnonzero(undecided).tolist() if c(j) - c_gamma * j < 0), None)
    return exact_l_star, first


def main() -> None:
    mpmath.mp.dps = 40
    for n, kind, value in cases():
        l_star, first = exact_references(n, kind, value)
        print(f'({n}, "{kind}", {value!r}, "{mpmath.nstr(l_star, 20)}", {first}),')


if __name__ == "__main__":
    main()
