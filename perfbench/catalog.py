"""What each per-layer metric is predicted to move, and the tail rule.

``BENCHMARK.json`` at the repository root is the one list of workloads and
metrics, with their units and directions.  Its entries have no room for
predictions, so they live here: for each named per-layer metric, the
end-to-end metric and the workloads it is expected to move.  Later
performance changes cite these by name.  ``wall_s`` is the printed median
pass time; the gated ``wall_norm`` is that time over a fixed reference
loop's, so whatever moves one moves the other by the same share.
"""

TAIL_BEYOND = 10


def tail_value(samples):
    """Highest sample with at least ten samples beyond it; None if too few."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return None
    return ordered[len(ordered) - TAIL_BEYOND - 1]


PREDICTIONS = {
    "em.em_fit.busy_s": "wall_s on table1 and large_n; nothing on table1_known",
    "kernels.em_loop.busy_s": "wall_s on table1 and large_n; nothing on table1_known",
    "em.iterations_total": "wall_s on table1 (fewer iterations help); on large_n extra work per"
                           " iteration on 1e6-long passes can hurt",
    "em.s_per_iteration": "wall_s on large_n and table1",
    "em.em_fit.ms_p50": "wall_s_tail, em_nonconverged, amse_cells_out_of_tol on table1",
    "em.em_fit.ms_tail": "wall_s_tail, em_nonconverged, amse_cells_out_of_tol on table1",
    "em.iterations_max": "wall_s_tail, em_nonconverged, amse_cells_out_of_tol on table1",
    "em.converged_ratio": "wall_s_tail, em_nonconverged, amse_cells_out_of_tol on table1",
    "em_nonconverged": "the untraced em_nonconverged count, per pass",
    "amse_cells_out_of_tol": "the untraced count; table1 and table1_known only",
    "em.init_heuristic.busy_s": "wall_s on table1 and large_n",
    "baselines.mad_sigma.calls": "wall_s on table1 and large_n (MAD runs twice per replication)",
    "baselines.mad_sigma.busy_s": "wall_s on table1 and large_n",
    "estimator.map_estimate.self_s": "wall_s and peak_rss_mb on large_n most, wall_s on"
                                     " table1_known next, table1 least (ranking and mu_hat build)",
    "priors.build_prior_table.busy_s": "wall_s and peak_rss_mb on large_n most, table1_known next,"
                                       " table1 least",
    "estimator.penalty_table.busy_s": "wall_s and peak_rss_mb on large_n most, table1_known next,"
                                      " table1 least",
    "estimator.select_k.self_s": "wall_s on large_n (O(n) sortedness and sign checks)",
    "baselines.fixed_threshold_estimate.busy_s": "wall_s on large_n and table1_known (sorts and"
                                                 " scans only to fill objective)",
    "kernels.penalized_scan.calls": "no end-to-end metric measurably, on any workload",
    "kernels.penalized_scan.busy_s": "no end-to-end metric measurably, on any workload",
    "risk.monte_carlo_amse.self_s": "the floor of wall_s on table1 and table1_known (draws and"
                                    " error sums) that no estimator change removes",
    "cli.main.self_s": "the floor of wall_s on table1 and table1_known (config parsing and CSV"
                       " writing)",
    "priors.warnings": "no timing metric; UserWarnings per pass, counted for the diagnostics work",
    "tracing.overhead_s": "none: traced minus untraced wall_s in the same run",
}
