"""Command-line interface.

Subcommands: estimate, penalty, check-prior, simulate, em-fit.  Bad usage
or invalid inputs exit 2 with a one-line message on stderr; numeric
failures (including EM non-convergence) exit 1; success exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import numpy as np

from . import __version__
from .baselines import (
    FixedThreshold,
    fdr_sequence,
    fixed_threshold_estimate,
    foster_stine_sequence,
    mad_sigma,
    universal_threshold,
    variable_threshold_estimate,
)
from .em import em_fit
from .errors import MapThreshError, NumericError
from .estimator import map_estimate, penalty_increments
from .priors import (
    BinomialPrior,
    CustomLogWeightsPrior,
    HyperParams,
    ReflectedPoissonPrior,
    TruncatedPoissonPrior,
    build_prior_table,
    check_assumption_a,
    complexity_weights,
)
from .risk import ExperimentConfig, monte_carlo_amse

MAP_PRIOR_KINDS = ("binomial", "poisson", "rpoisson", "custom")
RULE_KINDS = ("universal", "fixed", "fdr", "foster-stine")

# JSON type of each config key; (list, t) is a list of t
_CONFIG_REQUIRED = {
    "n": int,
    "sigma": float,
    "xi_grid": (list, float),
    "tau_grid": (list, float),
    "replications": int,
    "methods": (list, str),
    "use_em": bool,
}
_CONFIG_OPTIONAL = {
    "master_seed": int,
    "universal_scale": str,
    "jobs": int,
}
_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    (list, float): "a list of numbers",
    (list, str): "a list of strings",
}


class UsageError(MapThreshError):
    """Raised for malformed CLI input; maps to exit code 2."""


def _fail(message: str) -> None:
    raise UsageError(message)


# --------------------------------------------------------------------------
# Shared pieces
# --------------------------------------------------------------------------

def parse_method_spec(text: str) -> tuple[str, dict]:
    """Parse 'kind' or 'kind:key=value' into (kind, params)."""
    head, sep, rest = text.partition(":")
    kind = head.strip()
    if kind not in MAP_PRIOR_KINDS and kind not in RULE_KINDS:
        _fail(f"unknown prior/rule {kind!r}")
    params: dict = {}
    if sep:
        for piece in rest.split(","):
            key, eq, value = piece.partition("=")
            if not eq:
                _fail(f"malformed parameter {piece!r} in {text!r} (expected key=value)")
            params[key.strip()] = value.strip()
    allowed = {
        "binomial": {"xi"},
        "poisson": {"lambda"},
        "rpoisson": {"lambda"},
        "custom": {"file"},
        "universal": set(),
        "fixed": {"lambda"},
        "fdr": {"q"},
        "foster-stine": set(),
    }[kind]
    for key in params:
        if key not in allowed:
            _fail(f"unknown parameter {key!r} for {kind!r}")
    return kind, params


def _param_float(params: dict, key: str, kind: str) -> float:
    try:
        return float(params[key])
    except ValueError:
        _fail(f"parameter {key!r} of {kind!r} must be a number, got {params[key]!r}")


def _read_column(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")
    values = []
    header_skipped = False
    for line in lines:
        if not line:
            continue
        field = line.split(",")[0].strip()
        try:
            values.append(float(field))
        except ValueError:
            if not values and not header_skipped:
                header_skipped = True  # one optional header line
                continue
            _fail(f"could not parse {field!r} in {path} as a number")
    if not values:
        _fail("empty input")
    return np.asarray(values, dtype=float)


def _build_map_prior(kind: str, params: dict, n: int, xi_hat: float | None):
    if kind == "binomial":
        if "xi" in params:
            return BinomialPrior(_param_float(params, "xi", kind))
        if xi_hat is None:
            _fail("binomial prior needs xi=... or --em")
        return BinomialPrior(xi_hat)
    if kind == "poisson":
        if "lambda" in params:
            return TruncatedPoissonPrior(_param_float(params, "lambda", kind))
        if xi_hat is None:
            _fail("poisson prior needs lambda=... or --em")
        return TruncatedPoissonPrior(n * xi_hat)
    if kind == "rpoisson":
        if "lambda" in params:
            return ReflectedPoissonPrior(_param_float(params, "lambda", kind))
        if xi_hat is None:
            _fail("rpoisson prior needs lambda=... or --em")
        return ReflectedPoissonPrior(n * xi_hat)
    if kind == "custom":
        if "file" not in params:
            _fail("custom prior needs file=PATH")
        return CustomLogWeightsPrior(_read_column(params["file"]))
    _fail(f"{kind!r} is not a prior on model sizes")


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    y = _read_column(args.input)
    n = y.size
    kind, params = parse_method_spec(args.prior)

    sigma = args.sigma
    tau = args.tau
    xi_hat = None
    if kind in MAP_PRIOR_KINDS:
        if args.em:
            fit = em_fit(y)
            if not fit.converged:
                raise NumericError("EM did not converge within the iteration budget")
            sigma = sigma if sigma is not None else fit.sigma_hat
            tau = tau if tau is not None else fit.tau_hat
            xi_hat = fit.xi_hat
        if sigma is None or tau is None:
            _fail("MAP estimation needs --sigma and --tau, or --em")
        hyper = HyperParams(sigma=sigma, tau=tau)
        result = map_estimate(y, hyper, _build_map_prior(kind, params, n, xi_hat))
    else:
        if sigma is None:
            if kind == "fixed":
                sigma = 1.0  # unused; the rule carries its own cutoff
            elif args.em:
                sigma = mad_sigma(y)
            else:
                _fail(f"{kind!r} needs --sigma, or --em for the robust scale")
        if kind == "universal":
            result = fixed_threshold_estimate(y, universal_threshold(n, sigma))
        elif kind == "fixed":
            if "lambda" not in params:
                _fail("fixed rule needs lambda=...")
            result = fixed_threshold_estimate(y, FixedThreshold(_param_float(params, "lambda", kind)))
        elif kind == "fdr":
            q = _param_float(params, "q", kind) if "q" in params else 0.05
            result = variable_threshold_estimate(y, fdr_sequence(n, sigma, q))
        else:
            result = variable_threshold_estimate(y, foster_stine_sequence(n, sigma))

    kept_mask = np.zeros(n, dtype=int)
    kept_mask[result.kept] = 1
    out, close = _open_out(args.out)
    try:
        out.write("index,y,mu_hat,kept\n")
        for i in range(n):
            out.write(f"{i},{y[i]:.17g},{result.mu_hat[i]:.17g},{kept_mask[i]}\n")
    finally:
        if close:
            out.close()
    print(f"k_hat={result.k_hat} threshold={result.threshold:.17g}")
    return 0


def cmd_penalty(args) -> int:
    spec = _prior_spec_from_args(args)
    hyper = HyperParams(sigma=args.sigma, tau=args.sigma * math.sqrt(args.gamma))
    # the increments and their running sum are exactly what map_estimate scans
    increments = penalty_increments(spec, args.n, hyper)
    penalty = np.cumsum(increments)
    out, close = _open_out(args.out)
    try:
        out.write("k,P,increment\n")
        for k in range(args.n + 1):
            out.write(f"{k},{penalty[k]:.17g},{increments[k]:.17g}\n")
    finally:
        if close:
            out.close()
    return 0


def _prior_spec_from_args(args):
    kind, params = parse_method_spec(args.prior)
    if kind not in MAP_PRIOR_KINDS:
        _fail(f"{kind!r} is not a prior on model sizes")
    if args.n < 0:
        _fail(f"--n must be >= 0, got {args.n}")
    return _build_map_prior(kind, params, args.n, None)


def cmd_check_prior(args) -> int:
    table = build_prior_table(_prior_spec_from_args(args), args.n)
    report = check_assumption_a(table, args.gamma)
    _, l_star = complexity_weights(table)
    print(f"c_gamma={report.c_gamma:.17g}")
    print(f"assumption_a: {'pass' if report.holds else 'fail'}")
    print(f"L_star={l_star:.17g}")
    if not report.holds:
        print(f"first_failing_k={report.first_failing_k()}")
    return 0


def _has_type(value, declared) -> bool:
    """Whether a JSON value has its declared type: bool is neither int nor
    float, and an int is also a float."""
    if isinstance(declared, tuple):
        return isinstance(value, list) and all(_has_type(v, declared[1]) for v in value)
    if isinstance(value, bool):
        return declared is bool
    return isinstance(value, (int, float) if declared is float else declared)


def _load_config(path: str, seed: int | None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        bundled = resources.files("mapthresh.configs").joinpath(path)
        if bundled.is_file():
            raw = json.loads(bundled.read_text(encoding="utf-8"))
        else:
            _fail(f"config file not found: {path}")
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        _fail("config must be a JSON object")

    for key, value in raw.items():
        declared = _CONFIG_REQUIRED.get(key, _CONFIG_OPTIONAL.get(key))
        if declared is None:
            _fail(f"unknown config key {key!r}")
        if not _has_type(value, declared):
            _fail(f"config key {key!r} must be {_TYPE_NAMES[declared]}, got {json.dumps(value)}")
    for key in _CONFIG_REQUIRED:
        if key not in raw:
            _fail(f"missing config key {key!r}")
    if seed is None and "master_seed" not in raw:
        _fail("missing config key 'master_seed' (or pass --seed)")
    if seed is not None:
        raw["master_seed"] = seed
    return ExperimentConfig(**raw)


def cmd_simulate(args) -> int:
    config = _load_config(args.config, args.seed)
    report = monte_carlo_amse(config)
    out, close = _open_out(args.out)
    try:
        report.write_csv(out)
    finally:
        if close:
            out.close()
    _warn_counts(report.em_nonconverged, "EM fits did not converge within the iteration"
                 " budget and were used as returned")
    _warn_counts(report.flat_reflected_priors, "pois2 estimates used a nearly flat reflected"
                 " Poisson prior, lam <= sqrt(n log n)")
    return 0


def _warn_counts(per_cell: dict, what: str) -> None:
    """One stderr line with the total and the nonzero per-cell counts."""
    nonzero = {cell: count for cell, count in per_cell.items() if count}
    if nonzero:
        cells = ", ".join(f"xi={xi:.6g} tau={tau:.6g}: {count}" for (xi, tau), count in nonzero.items())
        print(f"warning: {sum(nonzero.values())} {what} ({cells})", file=sys.stderr)


def cmd_em_fit(args) -> int:
    y = _read_column(args.input)
    fit = em_fit(y)
    print(
        f"sigma_hat={fit.sigma_hat:.17g} tau_hat={fit.tau_hat:.17g} "
        f"xi_hat={fit.xi_hat:.17g} loglik={fit.loglik:.17g} "
        f"iterations={fit.iterations} converged={str(fit.converged).lower()}"
    )
    if not fit.converged:
        raise NumericError("EM did not converge within the iteration budget")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapthresh",
        description="Hard thresholding for sparse normal means via MAP model-size selection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate means from a one-column CSV of observations")
    p.add_argument("--input", required=True, help="CSV with one observation per line")
    p.add_argument("--prior", required=True,
                   help="binomial:xi=V | poisson:lambda=V | rpoisson:lambda=V | custom:file=PATH"
                        " | universal | fixed:lambda=V | fdr:q=V | foster-stine")
    p.add_argument("--sigma", type=float, default=None, help="noise scale (else --em)")
    p.add_argument("--tau", type=float, default=None, help="slab scale for MAP priors (else --em)")
    p.add_argument("--em", action="store_true",
                   help="fit missing scales from the data (EM for MAP priors, robust scale for rules)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("penalty", help="dump the per-size penalties the MAP scan uses")
    p.add_argument("--n", type=int, required=True, help="sequence length")
    p.add_argument("--prior", required=True, help="prior spec (binomial/poisson/rpoisson/custom)")
    p.add_argument("--gamma", type=float, required=True, help="slab-to-noise variance ratio")
    p.add_argument("--sigma", type=float, default=1.0, help="noise scale (default 1)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_penalty)

    p = sub.add_parser("check-prior", help="report the exponential-decay bound and complexity weights")
    p.add_argument("--n", type=int, required=True, help="sequence length")
    p.add_argument("--prior", required=True, help="prior spec (binomial/poisson/rpoisson/custom)")
    p.add_argument("--gamma", type=float, required=True, help="slab-to-noise variance ratio")
    p.set_defaults(func=cmd_check_prior)

    p = sub.add_parser("simulate", help="run the Monte Carlo grid benchmark from a JSON config")
    p.add_argument("--config", required=True,
                   help="JSON config path (bundled name like table1.json also works)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("em-fit", help="fit mixture hyperparameters from a one-column CSV")
    p.add_argument("--input", required=True, help="CSV with one observation per line")
    p.set_defaults(func=cmd_em_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MapThreshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
