#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write BENCH_<label>.json.

    python3 tools/bench_pairs.py --label em_iter --seed 5151 --pairs 10 \\
        --workload table1 --workload large_n:5 --traced table1

Each side runs from its own copy of the tree in a temporary directory: the
parent is ``git archive`` of ``--parent`` (default ``HEAD``), and the change
is ``git archive`` of ``--change`` or, by default, the files of the working
tree that git tracks or would add (so run it before committing the change,
or pass ``--parent HEAD^ --change HEAD`` after).  Pair i runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` once on each
side, the parent first in odd pairs and the change first in even ones; the
workloads run one after another, all pairs of one before the next.  A
workload given as ``W:N`` runs N pairs, in place of ``--pairs``.

The output has the shape of ``BENCH_cell.json``: ``command``, ``seed``,
``note``, ``workloads`` (per workload the ``pairs``, each with ``pair``,
``first``, ``parent`` and ``change``, the JSON last line of ``run.py``, and a
``summary`` of medians with inclusive quartiles and, per metric, the median
of the per-pair change/parent ratios, the number of them below 1 and a
sign-test interval for their median from their order statistics), ``env_lines`` (the
``# env`` line of ``run.py``) and, with ``--traced``, ``traced_runs``: three
``--trace 1`` runs per side, alternating which side runs first, each with
its ``# env`` line, and per side the median of each metric over the three.
The file is rewritten after every run, so an interrupted series keeps the
runs it finished.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True).stdout


def export_rev(repo: Path, rev: str, dest: Path) -> None:
    """Write the files of commit ``rev`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(repo: Path, dest: Path) -> None:
    """Copy the working tree's files that git tracks or would add."""
    listed = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = repo / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[str, dict]:
    """One ``run.py`` run in ``tree``: its ``# env`` line and its JSON last line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("# env "))
    return env, json.loads(lines[-1])


# --trace 1 runs per side of each --traced workload; per-layer figures are
# cited as the median of these
TRACED_RUNS = 3


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


# coverage asked of the sign-test interval of the per-pair ratios
SIGN_TEST_LEVEL = 0.95


def sign_test_interval(values: list[float]) -> tuple[float, float, float]:
    """(low, high, coverage): the order statistics v_(d) and v_(k+1-d) of
    the k sorted values, for the largest d whose sign-test coverage
    1 - 2 P(Binomial(k, 1/2) < d) is at least ``SIGN_TEST_LEVEL``, as an interval
    for their median; the whole range (d = 1) when no d reaches it."""
    ordered = sorted(values)
    k = len(ordered)
    d, tail = 1, 1  # tail = the sum of C(k, i) for i < d
    while d < (k + 1) // 2 and 1.0 - 2.0 * (tail + math.comb(k, d)) / 2**k >= SIGN_TEST_LEVEL:
        tail += math.comb(k, d)
        d += 1
    return ordered[d - 1], ordered[k - d], 1.0 - 2.0 * tail / 2**k


def paired_ratios(parent: list[float], change: list[float]) -> dict:
    """The per-pair change/parent ratios: their median, how many are below
    1, and their sign-test interval; empty when a parent value is 0."""
    if any(p == 0 for p in parent):
        return {}
    ratios = [c / p for p, c in zip(parent, change)]
    low, high, coverage = sign_test_interval(ratios)
    return {
        "ratio_median": statistics.median(ratios),
        "ratio_below_1_in_pairs": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
        "ratio_sign_test_interval": [low, high],
        "ratio_interval_coverage": coverage,
    }


def summarize(pairs: list[dict]) -> dict:
    """Medians, inclusive quartiles, pair wins and paired ratios of each
    metric; failed ops summed."""
    summary = {}
    for metric in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["metrics"][metric]["value"] for p in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        (p_q1, p_q3), (c_q1, c_q3) = quartiles(parent), quartiles(change)
        lower = sum(c < p for p, c in zip(parent, change))
        summary[metric] = {
            "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "change_lower_in_pairs": f"{lower}/{len(pairs)}",
            "relative_change": c_med / p_med - 1.0,
            **paired_ratios(parent, change),
        }
    summary["failed_ops"] = sum(p[side]["failed"] for p in pairs for side in ("parent", "change"))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json, as NAME or NAME:PAIRS; repeat for several")
    parser.add_argument("--seed", type=int, required=True, help="the workload seed of every run")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float, default=30.0, help="run.py --seconds (default 30)")
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--change", default=None,
                        help="change commit (default: the working tree's files)")
    parser.add_argument("--traced", action="append", default=[],
                        help=f"also {TRACED_RUNS} --trace 1 runs per side of this workload, after the pairs")
    parser.add_argument("--note", default="", help="prepended to the note written in the file")
    args = parser.parse_args(argv)
    pair_counts = {}
    for spec in args.workload:
        name, _, count = spec.partition(":")
        if count and not count.isdigit():
            parser.error(f"--workload {spec}: PAIRS must be a whole number")
        pair_counts[name] = int(count) if count else args.pairs
    if min(pair_counts.values()) < 1:
        parser.error("pairs must be at least 1")

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    out_path = repo / f"BENCH_{args.label}.json"

    def named(rev):
        return f"{rev} ({git(repo, 'rev-parse', '--short', rev).decode().strip()})"

    parent_name = named(args.parent)
    change_name = named(args.change) if args.change else "the working tree"
    command = f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {args.seconds:g}"
    note = (
        f"{args.note + ' ' if args.note else ''}Parent: {parent_name}; change: {change_name}. "
        f"Pairs per workload: {', '.join(f'{w} {c}' for w, c in pair_counts.items())}; "
        "pairs alternate which side runs first (pair 1: parent "
        "first). Each side runs from its own copy of the tree; each parent/change entry is the "
        "JSON last line of run.py. Quartiles are inclusive. Written by tools/bench_pairs.py."
    )
    result = {"command": command, "seed": args.seed, "note": note, "workloads": {},
              "env_lines": {}}
    if args.traced:
        result["traced_runs"] = {
            "note": f"python3 perfbench/run.py --workload <w> --trace 1 --seed {args.seed}"
                    f" --seconds {args.seconds:g}, {TRACED_RUNS} runs per side after the pairs,"
                    " alternating which side runs first; 'medians' is the median of each metric",
            "runs": {},
        }
    env_lines: dict[str, list[str]] = {}

    def save():
        for workload, lines in env_lines.items():
            result["env_lines"][workload] = lines[0] if len(lines) == 1 else lines
        out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for tree in trees.values():
            tree.mkdir()
        export_rev(repo, args.parent, trees["parent"])
        if args.change is None:
            export_worktree(repo, trees["change"])
        else:
            export_rev(repo, args.change, trees["change"])

        for workload, count in pair_counts.items():
            pairs = []
            result["workloads"][workload] = {"pairs": pairs}
            for i in range(1, count + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                entry = {"pair": i, "first": order[0]}
                for side in order:
                    env, entry[side] = run_bench(trees[side], workload, args.seed, args.seconds, 0)
                    if env not in env_lines.setdefault(workload, []):
                        env_lines[workload].append(env)
                pairs.append(entry)
                result["workloads"][workload]["summary"] = summarize(pairs)
                save()
                wall = {side: entry[side]["metrics"]["wall_norm"]["value"] for side in order}
                print(f"{workload} pair {i}: parent {wall['parent']:.1f}, change {wall['change']:.1f}",
                      flush=True)
        for workload in args.traced:
            sides = {side: {"runs": [], "medians": {}} for side in ("parent", "change")}
            for i in range(1, TRACED_RUNS + 1):
                for side in ("parent", "change") if i % 2 else ("change", "parent"):
                    env, line = run_bench(trees[side], workload, args.seed, args.seconds, 1)
                    runs = sides[side]["runs"]
                    runs.append({"env": env, "result": line})
                    sides[side]["medians"] = {
                        metric: statistics.median(r["result"]["metrics"][metric]["value"] for r in runs)
                        for metric in line["metrics"]
                    }
                    result["traced_runs"]["runs"][f"{workload}/{side}"] = sides[side]
                    save()
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
