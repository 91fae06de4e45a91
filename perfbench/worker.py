"""One workload in one fresh process; started by ``run.py``.

Usage: ``python3 perfbench/worker.py '<json spec>'`` from the root of a
checkout.  The spec names the workload, seed, seconds, trace flag, a
``probe`` flag and a ``tiny`` flag.  The process imports the package from
``src/``, builds its inputs from the seed, makes one warm-up call and
prints ``ready``: the launcher times set-up up to that line.  A probe
exits there.  Otherwise it runs passes for the given seconds, checks the
outputs outside the timed spans, and prints one JSON result line.

In a traced run, untraced and traced passes alternate, so the tracing
overhead is measured on the same inputs in the same process.  Untraced
passes run with no wrappers installed and the package's default warning
filters; traced passes record warnings so they can be counted.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mapthresh  # noqa: E402
from catalog import tail_value  # noqa: E402
from tracer import TARGETS, Tracer, metric_key  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

EM_FIT = "em.em_fit"
EM_LOOP = "kernels.em_loop"
MAP = "estimator.map_estimate"
SCAN = "kernels.penalized_scan"


def run_passes(workload, seconds, trace):
    """Run passes for about ``seconds`` (at least one pass).

    A run stops once the mean pass so far would end after ``seconds``, so
    it does not run a whole long pass past its time.
    """
    ops = Ops()
    plain, traced = [], []
    tracer = Tracer(keep=(EM_FIT,)) if trace else None
    absent, warned = [], 0
    start = time.perf_counter()
    while True:
        ops.pass_seconds = 0.0
        workload.run_pass(ops)
        plain.append(ops.pass_seconds)
        if trace:
            ops.pass_seconds = 0.0
            with tracer.installed() as absent, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                workload.run_pass(ops)
            traced.append(ops.pass_seconds)
            warned += sum(issubclass(w.category, UserWarning) for w in caught)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ops, plain, traced, tracer, absent, warned, peak_rss_mb


def per_layer(plain, traced, tracer, absent, warned, summary):
    """Per-pass layer metrics from the traced passes, plus absent names."""
    passes = len(traced)
    metrics, missing = {}, list(absent)
    for module, name in TARGETS:
        key = metric_key(module, name)
        calls, busy, own = tracer.stats.get(key, (0, 0.0, 0.0))
        metrics[f"{key}.calls"] = calls / passes
        metrics[f"{key}.busy_s"] = busy / passes
        metrics[f"{key}.self_s"] = own / passes

    durations = [elapsed for elapsed, _ in tracer.results[EM_FIT]]
    fits = [fit for _, fit in tracer.results[EM_FIT]]
    iterations = [fit.iterations for fit in fits]
    total_iterations = sum(iterations)
    em_loop_busy = tracer.stats.get(EM_LOOP, (0, 0.0, 0.0))[1]
    fit_tail = tail_value(durations)
    derived = {
        "em.iterations_total": total_iterations / passes,
        "em.iterations_max": max(iterations) if iterations else None,
        "em.s_per_iteration": em_loop_busy / total_iterations if total_iterations else None,
        "em.em_fit.ms_p50": 1e3 * statistics.median(durations) if durations else None,
        "em.em_fit.ms_tail": None if fit_tail is None else 1e3 * fit_tail,
        "em.converged_ratio": sum(f.converged for f in fits) / len(fits) if fits else None,
        "em_nonconverged": sum(not f.converged for f in fits) / passes,
        "amse_cells_out_of_tol": summary["amse_cells_out_of_tol"],
        "priors.warnings": warned / passes,
        "tracing.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    for key, value in derived.items():
        if value is None:
            missing.append(key)
            value = 0
        metrics[key] = value

    shares = {}
    traced_wall = statistics.median(traced)
    if traced_wall > 0:
        em_busy = tracer.stats.get(EM_FIT, (0, 0.0, 0.0))[1] / passes
        shares["em.em_fit.busy_s / traced wall_s"] = em_busy / traced_wall
    map_busy = tracer.stats.get(MAP, (0, 0.0, 0.0))[1]
    if map_busy > 0:
        scan = sum(
            t for (parent, child), t in tracer.edges.items()
            if child == SCAN and parent in ("estimator.select_k", MAP)
        )
        shares["kernels.penalized_scan under map_estimate / estimator.map_estimate.busy_s"] = scan / map_busy
    return metrics, sorted(set(missing)), shares


def main():
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["tiny"])
    workload.warm_up()
    print("ready", flush=True)
    if spec["probe"]:
        return 0

    ops, plain, traced, tracer, absent, warned, peak_rss_mb = run_passes(
        workload, spec["seconds"], spec["trace"]
    )
    summary = workload.finish(ops)
    result = {
        "seed": workload.seed,
        "pass_seconds": plain,
        "reference_s": statistics.median(ops.reference),
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems[:20],
        "summary": summary,
        "env": {
            "backend": getattr(mapthresh, "BACKEND", None),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if spec["trace"]:
        metrics, missing, shares = per_layer(plain, traced, tracer, absent, warned, summary)
        result.update(traced_pass_seconds=traced, per_layer=metrics, absent=missing, shares=shares)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
