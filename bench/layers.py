"""Per-layer metrics of the traced run, and what each should move.

A layer is a module of netfunc.  `<module>.<function>.s` is the self time of
the spans around that public function: its span minus the spans of the calls
it makes that are traced themselves.  Counts are work done, summed over the
run.  A layer a workload does not reach reads 0 on that workload.  The replay
computes each graph's distance matrix first, in its own span, so the metrics
spans after it show their self time with distances cached; the distance
matrices that bound_audit builds for its candidate trees stay inside its span.

name -> (unit, better, end-to-end metric it should move, workload it moves on)
"""

_SETUP = ("s", "lower", "setup_s")
_JOB = ("s", "lower", "job_s")
_WORK = ("count", "lower", "job_s")
_SPARSE = "sweep_sparse"
_DENSE = "sweep_dense"
_EXACT = "exact_er200"
_EXTREMAL = "extremal7"
_CONTINUUM = "continuum_mc"

LAYERS = {
    "cli.import.s": (*_SETUP, "all workloads"),
    "graph.read_edge_list.s": (*_SETUP, _EXACT),
    "generators.build_model.s": (*_SETUP, "sweep_sparse, sweep_dense"),
    "generators.build_model.graphs": ("count", "lower", "setup_s",
                                      "sweep_sparse, sweep_dense"),
    "graph.all_pairs_distances.s": ("s", "lower", "job_s, peak_rss_mb",
                                    "sweep_sparse; not sweep_dense"),
    "graph.all_pairs_distances.sources": ("count", "lower", "job_s, peak_rss_mb",
                                          "sweep_sparse; not sweep_dense"),
    "graph.simplex_counts.s": (*_JOB, _DENSE),
    "graph.simplex_counts.cliques": (*_WORK, _DENSE),
    "topology.inductive_dimension.s": (*_JOB, _DENSE),
    "topology.euler_characteristic.s": (*_JOB, _DENSE),
    "metrics.characteristic_length.s": (*_JOB, _SPARSE),
    "metrics.mean_cluster.s": (*_JOB, _SPARSE),
    "metrics.cluster_length_ratio.s": (*_JOB, _SPARSE),
    "topology.curvature_summary.s": (*_JOB, _SPARSE),
    "topology.length_estimate.s": (*_JOB, _SPARSE),
    "spectral.spanning_tree_count.s": (*_JOB, _EXACT),
    "spectral.spanning_tree_count.ops": (*_WORK, _EXACT),
    "spectral.spanning_tree_count.result_bits": ("bits", "lower", "job_s", _EXACT),
    "spectral.forest_complexity.s": (*_JOB, _EXACT),
    "spectral.forest_complexity.ops": (*_WORK, _EXACT),
    "spectral.forest_complexity.result_bits": ("bits", "lower", "job_s", _EXACT),
    "spectral.laplacian_spectrum.s": (*_JOB, _EXACT),
    "metrics.magnitude.s": (*_JOB, _EXACT),
    "experiments.bound_audit.s": (*_JOB, _EXACT),
    "experiments.bound_audit.trees": (*_WORK, _EXACT),
    "report.compute_report.overhead_s": (*_JOB, _EXACT),
    "report.skipped": (*_WORK, _EXACT),
    "report.undefined": (*_WORK, _EXACT),
    "experiments.extremal_search.s": ("s", "lower", "job_s, peak_rss_mb", _EXTREMAL),
    "experiments.extremal_search.masks": ("count", "lower", "job_s, peak_rss_mb", _EXTREMAL),
    "experiments.extremal_search.connected": ("count", "lower", "job_s", _EXTREMAL),
    "experiments.extremal_search.useful_ratio": ("ratio", "higher", "job_s", _EXTREMAL),
    # workers 1 against 2 on two shared cores: recorded, too noisy for job_s
    "experiments.extremal_search.parallel_efficiency": ("ratio", "higher", "none (recorded)",
                                                        _EXTREMAL),
    "continuum.mc_characteristic_length.torus2.s": (*_JOB, _CONTINUUM),
    "continuum.mc_characteristic_length.torus3.s": (*_JOB, _CONTINUUM),
    "continuum.mc_characteristic_length.sphere_area1.s": (*_JOB, _CONTINUUM),
    "continuum.mc_mean_cluster.torus2.s": (*_JOB, _CONTINUUM),
    "continuum.mc_mean_cluster.torus3.s": (*_JOB, _CONTINUUM),
    "continuum.mc_mean_cluster.sphere_area1.s": (*_JOB, _CONTINUUM),
    "continuum.blocks": (*_WORK, _CONTINUUM),
    "continuum.samples": (*_WORK, _CONTINUUM),
    # the replay's root span with spans on; its overhead against spans off; and
    # job_s minus the replay with spans off, which is CLI start-up and I/O
    "trace.replay_s": ("s", "lower", "job_s", "all workloads"),
    "trace.overhead_ratio": ("ratio", "lower", "none (tracing only)", "all workloads"),
    "trace.cli_gap_s": ("s", "lower", "job_s", "all workloads"),
    # fixed pure-Python loop before the workload: host speed, recorded only
    "machine.calibration_s": ("s", "lower", "none (host speed)", "all workloads"),
}
