#!/usr/bin/env python3
"""Record every output of a fixed list of runs at full precision, and compare two records.

    python3 tools/outputs.py                          # writes OUTPUTS.json
    python3 tools/outputs.py --out new.json --compare OUTPUTS.json
    python3 tools/outputs.py --src ../parent/src --out parent.json

The runs, each keyed by name in the output:

* ``simulate/<em|known>/<seed>``: the bundled ``table1.json`` grid with EM
  on and off, at its own master seed and at seeds 1, 2 and 3: the SHA-256
  of the CSV ``mapthresh simulate`` writes, each cell's ``amse`` and
  ``std_err``, and per (xi, tau) the report's ``em_nonconverged`` and
  ``flat_reflected_priors`` counts;
* ``blocks/n1001/<em|known>``: the same grid at n = 1001, whose blocks
  hold 130 rows, and ``blocks/n50001/known``: n = 50,001, whose blocks
  hold 2 rows, at xi 0.005 and 0.05, tau 3 and 5 and 4 replications, EM
  off; fields as for ``simulate``;
* ``em_fits``: the 900 fits of the bundled EM run, as ``em_fit_rows``
  returns them (``em_fit`` in a tree that fits row by row): per fit the
  three parameters, the final log-likelihood, the iteration count, the
  convergence flag and a SHA-256 of the trace's bytes;
* ``em_rows/n131075``: one ``em_fit_rows`` call on three seeded rows of
  131,075 values (xi 0.01, 0.05 and 0.3, tau 4), three E-step blocks a
  row: the ``em_fits`` fields of each fit;
* ``large_n/<i>``: the four seeded n = 1e6 sequences of the benchmark's
  large_n workload: the ``em_fit`` fields as above, the same fit stopped at
  ``max_iter=3``, and ``k_hat`` and ``threshold`` of ``map_estimate`` under
  the binomial, truncated and reflected Poisson priors at the fitted values;
* ``penalty/<prior>``: ``mapthresh penalty --n 100 --gamma 9`` for 8 priors,
  every P[k] and increment;
* ``estimate/<rule>``: ``mapthresh estimate`` on a seeded 2,000-line input
  under 6 rules: ``k_hat``, ``threshold`` and a SHA-256 of the output CSV.

Floats are written with ``float.hex()``, so a record holds every bit.  The
record also names the Python and NumPy versions and the SIMD dispatch: EM
parameters differ in their last bits between AVX-512 and SSE-only
dispatch, so compare only records written under the same one.
``--compare OLD`` prints each value that moved, old and new, then the
largest relative move per run, or "identical" when nothing moved; it
exits 1 when any value moved.  The package is imported from ``--src``
(default: this tree's ``src``), so the same script records an older
tree.  A run takes about 7 s on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SEEDS = (None, 1, 2, 3)  # None: the config's own master seed
PENALTY_PRIORS = (
    "binomial:xi=0.05", "binomial:xi=0.5",
    "poisson:lambda=0.001", "poisson:lambda=5", "poisson:lambda=80",
    "rpoisson:lambda=5", "rpoisson:lambda=80", "rpoisson:lambda=99",
)
ESTIMATE_RULES = (
    ("binomial", "--em"), ("poisson", "--em"), ("rpoisson", "--em"),
    ("universal", "--em"), ("fdr:q=0.05", "--sigma", "1"), ("foster-stine", "--sigma", "1"),
)
BLOCK_RUNS = (  # name, then the changes to the bundled table1 grid
    ("blocks/n1001/em", dict(n=1001, use_em=True)),
    ("blocks/n1001/known", dict(n=1001, use_em=False)),
    ("blocks/n50001/known", dict(n=50_001, xi_grid=[0.005, 0.05], tau_grid=[3.0, 5.0], replications=4,
                                 use_em=False)),
)
EM_ROWS_SEED, EM_ROWS_SIZE, EM_ROWS_XIS, EM_ROWS_TAU = 20261021, 131_075, (0.01, 0.05, 0.3), 4.0
LARGE_N_SEED, LARGE_N_SIZE, LARGE_N_XIS, LARGE_N_TAU = 20260815, 1_000_000, (0.005, 0.05), 5.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath

    features = umath.__cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": [f for f in umath.__cpu_dispatch__ if features.get(f)],
    }


def fit_fields(fit) -> dict:
    return {
        "sigma_hat": fit.sigma_hat.hex(),
        "tau_hat": fit.tau_hat.hex(),
        "xi_hat": fit.xi_hat.hex(),
        "loglik": fit.loglik.hex(),
        "iterations": fit.iterations,
        "converged": fit.converged,
        "trace_sha256": sha256(fit.loglik_trace.tobytes()),
    }


def cli_run(argv: list[str]) -> str:
    """Stdout of ``mapthresh`` with ``argv``; its stderr is dropped."""
    from mapthresh import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"mapthresh {' '.join(argv)} exited {code}")
    return out.getvalue()


def report_fields(report) -> dict:
    """The SHA-256 of a report's CSV, each cell's ``amse`` and ``std_err``,
    and the report's two counts per (xi, tau)."""
    csv = io.StringIO()
    report.write_csv(csv)
    fields = {"csv_sha256": sha256(csv.getvalue().encode())}
    for (method, xi, tau), cell in report.cells.items():
        fields[f"amse/{method}/xi={xi!r}/tau={tau!r}"] = cell.amse.hex()
        fields[f"std_err/{method}/xi={xi!r}/tau={tau!r}"] = cell.std_err.hex()
    for count in ("em_nonconverged", "flat_reflected_priors"):
        for (xi, tau), value in getattr(report, count).items():
            fields[f"{count}/xi={xi!r}/tau={tau!r}"] = value
    return fields


def table1_config() -> dict:
    from importlib import resources

    return json.loads(resources.files("mapthresh.configs").joinpath("table1.json").read_text())


def simulate_runs(runs: dict) -> None:
    from mapthresh import risk

    config = table1_config()
    for use_em in (True, False):
        for seed in SEEDS:
            master_seed = config["master_seed"] if seed is None else seed
            fits = []
            # a block's fits, or one fit per call in a tree that fits row by row
            name = "em_fit_rows" if hasattr(risk, "em_fit_rows") else "em_fit"
            original = getattr(risk, name)

            def recording(*args, **kwargs):
                made = original(*args, **kwargs)
                fits.extend(made if isinstance(made, list) else [made])
                return made

            setattr(risk, name, recording)
            try:
                report = risk.monte_carlo_amse(
                    risk.ExperimentConfig(**dict(config, use_em=use_em, master_seed=master_seed))
                )
            finally:
                setattr(risk, name, original)
            name = "bundled" if seed is None else f"seed{seed}"
            runs[f"simulate/{'em' if use_em else 'known'}/{name}"] = report_fields(report)
            if use_em and seed is None:
                runs["em_fits"] = {
                    f"{i}/{key}": value for i, fit in enumerate(fits) for key, value in fit_fields(fit).items()
                }


def block_runs(runs: dict) -> None:
    from mapthresh import risk

    for name, changes in BLOCK_RUNS:
        report = risk.monte_carlo_amse(risk.ExperimentConfig(**dict(table1_config(), **changes)))
        runs[name] = report_fields(report)


def em_rows_runs(runs: dict) -> None:
    import numpy as np

    from mapthresh.em import em_fit_rows

    rng = np.random.default_rng(EM_ROWS_SEED)
    n = EM_ROWS_SIZE
    y = np.stack([np.where(rng.random(n) < xi, EM_ROWS_TAU * rng.standard_normal(n), 0.0) for xi in EM_ROWS_XIS])
    y += rng.standard_normal(y.shape)
    runs[f"em_rows/n{n}"] = {
        f"{i}/{key}": value for i, fit in enumerate(em_fit_rows(y)) for key, value in fit_fields(fit).items()
    }


def large_n_runs(runs: dict) -> None:
    import numpy as np

    from mapthresh import BinomialPrior, HyperParams, ReflectedPoissonPrior, TruncatedPoissonPrior
    from mapthresh import em_fit, map_estimate

    for i in range(4):
        rng = np.random.default_rng(np.random.SeedSequence([LARGE_N_SEED, i]))
        n, xi = LARGE_N_SIZE, LARGE_N_XIS[i % len(LARGE_N_XIS)]
        mu = np.where(rng.random(n) < xi, LARGE_N_TAU * rng.standard_normal(n), 0.0)
        y = mu + rng.standard_normal(n)
        fit = em_fit(y)
        fields = fit_fields(fit)
        fields.update({f"max_iter=3/{k}": v for k, v in fit_fields(em_fit(y, max_iter=3)).items()})
        hyper = HyperParams(sigma=fit.sigma_hat, tau=fit.tau_hat)
        for name, spec in (
            ("binomial", BinomialPrior(fit.xi_hat)),
            ("poisson", TruncatedPoissonPrior(n * fit.xi_hat)),
            ("rpoisson", ReflectedPoissonPrior(n * fit.xi_hat)),
        ):
            result = map_estimate(y, hyper, spec)
            fields[f"{name}/k_hat"] = result.k_hat
            fields[f"{name}/threshold"] = float(result.threshold).hex()
        runs[f"large_n/{i}"] = fields


def penalty_runs(runs: dict) -> None:
    for prior in PENALTY_PRIORS:
        lines = cli_run(["penalty", "--n", "100", "--prior", prior, "--gamma", "9"]).splitlines()[1:]
        rows = [line.split(",") for line in lines]
        runs[f"penalty/{prior}"] = {
            f"{column}[{k}]": float(row[index]).hex()
            for column, index in (("P", 1), ("increment", 2))
            for k, row in enumerate(rows)
        }


def estimate_runs(runs: dict, tmp: Path) -> None:
    import numpy as np

    rng = np.random.default_rng(2000)
    mu = np.where(rng.random(2000) < 0.05, 4.0 * rng.standard_normal(2000), 0.0)
    data = tmp / "y.csv"
    data.write_text("".join(f"{v!r}\n" for v in (mu + rng.standard_normal(2000)).tolist()))
    out = tmp / "estimate.csv"
    for rule, *options in ESTIMATE_RULES:
        line = cli_run(["estimate", "--input", str(data), "--prior", rule, *options, "--out", str(out)])
        k_hat, threshold = (part.partition("=")[2] for part in line.split())
        runs[f"estimate/{rule}"] = {
            "k_hat": int(k_hat),
            "threshold": float(threshold).hex(),
            "csv_sha256": sha256(out.read_bytes()),
        }


def record() -> dict:
    runs: dict = {}
    simulate_runs(runs)
    block_runs(runs)
    em_rows_runs(runs)
    large_n_runs(runs)
    penalty_runs(runs)
    with tempfile.TemporaryDirectory(prefix="outputs_") as tmp:
        estimate_runs(runs, Path(tmp))
    return {"environment": environment(), "runs": runs}


def as_number(value):
    """A recorded value as a float, or None for a digest, a flag or a
    missing value."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return float(value)
    if isinstance(value, str) and ("0x" in value or value in ("inf", "-inf", "nan")):
        return float.fromhex(value)  # as float.hex() wrote it; a digest has no 0x
    return None


def compare(old: dict, new: dict, out=sys.stdout) -> bool:
    """Print what moved from ``old`` to ``new``; True when nothing did.

    A run's largest relative move is taken over its numbers; a digest or
    a flag that changed is printed without one.
    """
    if old["environment"] != new["environment"]:
        print(f"note: environments differ: {old['environment']} -> {new['environment']}", file=out)
    largest = {}
    for run in sorted(old["runs"].keys() | new["runs"].keys()):
        before, after = old["runs"].get(run, {}), new["runs"].get(run, {})
        for field in sorted(before.keys() | after.keys()):
            a, b = before.get(field, "absent"), after.get(field, "absent")
            if a == b:
                continue
            x, y = as_number(a), as_number(b)
            move = None if x is None or y is None else abs(y - x) / abs(x) if x else math.inf
            moves = largest.setdefault(run, [])
            if move is None:
                print(f"{run} {field}: {a} -> {b}", file=out)
            else:
                moves.append(move)
                print(f"{run} {field}: {a} -> {b} (relative move {move:.3g})", file=out)
    for run, moves in largest.items():
        print(f"{run}: largest relative move {max(moves):.3g}" if moves
              else f"{run}: no number moved", file=out)
    if not largest:
        print("identical", file=out)
    return not largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(REPO / "OUTPUTS.json"), help="record path (default OUTPUTS.json)")
    parser.add_argument("--compare", metavar="OLD", default=None,
                        help="also print every value that moved from the record OLD")
    parser.add_argument("--src", default=str(REPO / "src"), help="directory to import mapthresh from")
    args = parser.parse_args(argv)
    old = json.loads(Path(args.compare).read_text()) if args.compare else None
    sys.path.insert(0, str(Path(args.src).resolve()))
    new = record()
    Path(args.out).write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if old is None or compare(old, new) else 1


if __name__ == "__main__":
    sys.exit(main())
