"""Per-layer timing from outside the package.

Modules bind the functions they call at import (``from .em import em_fit``),
so patching ``mapthresh.em.em_fit`` alone would miss the calls made from
``mapthresh.risk``.  ``swap`` therefore replaces the name in every package
module whose namespace holds that very function object, and puts the
originals back afterwards.  A target that no module defines any more (a
refactor removed it) is reported as absent rather than raising.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (home module, function): the layer boundaries the traced run times.
# Metric names drop the leading underscore, e.g. ``kernels.em_loop``.
TARGETS = (
    ("cli", "main"),
    ("risk", "monte_carlo_amse"),
    ("em", "em_fit"),
    ("em", "init_heuristic"),
    ("_kernels", "em_loop"),
    ("_kernels", "penalized_scan"),
    ("baselines", "mad_sigma"),
    ("baselines", "fixed_threshold_estimate"),
    ("estimator", "map_estimate"),
    ("estimator", "penalty_table"),
    ("estimator", "select_k"),
    ("priors", "build_prior_table"),
)

# Modules whose namespaces may hold a target: every caller in the package.
NAMESPACES = ("", "cli", "risk", "em", "estimator", "baselines", "priors", "_kernels")


def metric_key(module: str, name: str) -> str:
    return f"{module.lstrip('_')}.{name}"


def _load(module: str):
    try:
        return importlib.import_module(f"mapthresh.{module}" if module else "mapthresh")
    except ImportError:
        return None


@contextmanager
def swap(replacements):
    """Install ``make(original)`` for each ``(module, name, make)``.

    Yields the list of targets that were absent.  Every namespace binding
    the original object gets the replacement; all are restored on exit.
    """
    namespaces = [m for m in map(_load, NAMESPACES) if m is not None]
    restore = []
    absent = []
    try:
        for module, name, make in replacements:
            home = _load(module)
            original = getattr(home, name, None) if home is not None else None
            if not callable(original):
                absent.append(metric_key(module, name))
                continue
            replacement = make(original)
            for ns in namespaces:
                if ns.__dict__.get(name) is original:
                    restore.append((ns, name, original))
                    setattr(ns, name, replacement)
        yield absent
    finally:
        for ns, name, original in reversed(restore):
            setattr(ns, name, original)


class Tracer:
    """Calls, inclusive (busy) and exclusive (self) time per target.

    Self time subtracts the busy time of wrapped callees.  ``edges`` holds
    busy time per (caller, callee) pair so that one callee's share of one
    caller can be read off.  For the targets named in ``keep``, each
    call's (seconds, return value) is kept in ``results``.
    """

    def __init__(self, keep=()):
        self.stats = {}
        self.edges = {}
        self.results = {key: [] for key in keep}
        self._stack = []

    def _make(self, key):
        stack = self._stack
        stats = self.stats
        edges = self.edges
        results = self.results.get(key)
        clock = time.perf_counter

        def make(original):
            def traced(*args, **kwargs):
                stack.append([key, 0.0])
                t0 = clock()
                try:
                    out = original(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    _, child = stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                        edge = (stack[-1][0], key)
                        edges[edge] = edges.get(edge, 0.0) + elapsed
                    entry = stats.setdefault(key, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - child
                if results is not None:
                    results.append((elapsed, out))
                return out

            return traced

        return make

    def installed(self):
        """Context manager wrapping every target; yields the absent ones."""
        return swap([(m, n, self._make(metric_key(m, n))) for m, n in TARGETS])
