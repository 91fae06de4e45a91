#!/usr/bin/env python3
"""Run the mapthresh benchmark from the root of a checkout.

    python3 perfbench/run.py                       # all workloads, default seed
    python3 perfbench/run.py --workload table1 --seed 7 --seconds 30 --trace 0

The workloads, the metrics and their units, and the default ``--seconds``
(``run_seconds``) are read from ``BENCHMARK.json`` at the repository root.

Each workload runs in its own fresh worker process (one caller, closed
loop, ``jobs = 1``), which imports the package from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics: ``wall_norm``
(``wall_s`` over the median time of a fixed reference loop run after every
timed call; see below), ``setup_s`` (median over several fresh processes
of the time from start to the first timed call), ``peak_rss_mb`` of the
worker, and, printed alongside, ``wall_s`` (median pass time),
``wall_s_tail``, ``em_nonconverged``, ``amse_cells_out_of_tol`` and
``failed_ops``.  With ``--trace 1`` it
reports the per-layer metrics instead, timed by wrappers around the
package's functions; ``catalog.py`` says what each should move.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The smoke test (``perfbench/test_smoke.py``) runs every workload with
``--tiny``.

Why ``wall_norm``: on a shared host, neighbours slow the same pass by 30%
or more for tens of seconds at a time, so the median pass of one run can
differ from the next run's by more than a regression worth catching.  The
reference loop (``workloads.reference_loop``) is the benchmark's own code,
timed at the same moments as the workload, so the ratio keeps the
program's cost and divides out most of the host's speed.  ``wall_s`` is
still printed for reading, in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

from catalog import TAIL_BEYOND, tail_value  # noqa: E402  (perfbench/ is the script's directory)

# Fresh processes timed per untraced run: probes before and after the
# worker, plus the worker.  Single start-ups on a shared host vary by about
# 20%, so setup_s is the median of several, spread over the whole run.
PROBES_BEFORE = PROBES_AFTER = 3
DEADLINE_S = 170.0  # per workload: a 60 s run with its set-up and checks ends well inside it
MAX_SECONDS = 60.0
TINY_SECONDS = 0.5
LOG_DIR = Path(".bench_build", "logs")
SPEC_PATH = HERE.parent / "BENCHMARK.json"


class WorkerError(RuntimeError):
    pass


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def launch(spec, deadline):
    """Start a worker; return (seconds to its ``ready`` line, its result)."""
    LOG_DIR.mkdir(parents=True, exist_ok=True)
    role = "probe" if spec["probe"] else ("trace" if spec["trace"] else "run")
    log_path = LOG_DIR / f"{spec['workload']}-{role}.stderr"
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
        raise WorkerError(
            f"{spec['workload']} {role} worker exited {proc.returncode}"
            f" (killed at the {DEADLINE_S:.0f} s deadline if negative):\n" + "\n".join(tail)
        )
    result = json.loads(out.strip().splitlines()[-1]) if not spec["probe"] else None
    return setup_s, result


def line(workload, name, value, unit, note=""):
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
    print(f"{workload:<13} {name:<60} {shown:>12} {unit:<6} {note}".rstrip())


def run_workload(name, seed, seconds, trace, tiny, deadline, wanted):
    """Run one workload; print its report; return (metrics, attempted, failed).

    ``wanted`` names the metrics of the JSON result line, in order.
    """
    spec = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "probe": False, "tiny": tiny}
    probe = dict(spec, probe=True)
    before, after = (0, 0) if trace else (PROBES_BEFORE, PROBES_AFTER)
    setups = [launch(probe, deadline)[0] for _ in range(before)]
    setup_s, result = launch(spec, deadline)
    setups.append(setup_s)
    setups += [launch(probe, deadline)[0] for _ in range(after)]

    env = dict(result["env"], cpu=cpu_model(), nproc=len(os.sched_getaffinity(0)),
               seed=result["seed"], workload=name, trace=int(trace), seconds=seconds)
    print(f"# env {json.dumps(env)}")
    passes = result["pass_seconds"]
    print(f"# pass_seconds {json.dumps([round(p, 4) for p in passes])}")
    print(f"# setup_seconds {json.dumps([round(s, 4) for s in setups])}")
    summary = result["summary"]
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"# check failed: {problem}", file=sys.stderr)

    if not trace:
        tail = tail_value(passes)
        metrics = {
            "wall_norm": statistics.median(passes) / result["reference_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        line(name, "wall_s", statistics.median(passes), "s", f"median of {len(passes)} passes")
        line(name, "wall_norm", metrics["wall_norm"], "ratio",
             f"wall_s / {1e3 * result['reference_s']:.4g} ms, the median reference loop")
        line(name, "setup_s", metrics["setup_s"], "s", f"median of {len(setups)} fresh processes")
        line(name, "peak_rss_mb", metrics["peak_rss_mb"], "MB", "workload process")
        line(name, "wall_s_tail", tail, "s",
             f"{len(passes)} passes" + ("" if tail is not None else f"; needs more than {TAIL_BEYOND}"))
        line(name, "em_nonconverged", summary["em_nonconverged"], "count",
             f"per pass, of {summary['em_fits']} EM fits")
        compared = summary["amse_cells_compared"]
        line(name, "amse_cells_out_of_tol", summary["amse_cells_out_of_tol"], "count",
             f"of {compared} cells" if compared else "table1 and table1_known only")
        line(name, "failed_ops", failed, "count", f"of {attempted} attempted")
    else:
        traced = result["traced_pass_seconds"]
        metrics = result["per_layer"]
        absent = set(result["absent"])
        line(name, "wall_s (untraced passes)", statistics.median(passes), "s",
             f"median of {len(passes)}")
        line(name, "wall_s (traced passes)", statistics.median(traced), "s",
             f"median of {len(traced)}")
        for metric, unit in wanted.items():
            if metric in metrics:
                line(name, metric, metrics[metric], unit,
                     "absent" if metric in absent else "per pass")
        for share, value in result["shares"].items():
            line(name, share, value, "ratio")
        line(name, "failed_ops", failed, "count", f"of {attempted} attempted")
    missing = [metric for metric in wanted if metric not in metrics]
    if missing:
        raise WorkerError(f"{name}: no value for {', '.join(missing)} named in {SPEC_PATH.name}")
    return {metric: metrics[metric] for metric in wanted}, attempted, failed


def main(argv=None):
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the bundled config's master_seed)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help=f"measured time per workload, at most {MAX_SECONDS:.0f}"
                             " (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help=f"tiny inputs and a {TINY_SECONDS} s run, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS:.0f}")
    seconds = TINY_SECONDS if args.tiny else args.seconds
    if not Path("src", "mapthresh", "__init__.py").is_file():
        print("error: run from the root of a mapthresh checkout (src/mapthresh not found)",
              file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else [args.workload]
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            values, tried, bad = run_workload(
                name, args.seed, seconds, bool(args.trace), args.tiny, deadline, wanted
            )
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({f"{prefix}{m}": {"value": v, "unit": wanted[m]} for m, v in values.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
