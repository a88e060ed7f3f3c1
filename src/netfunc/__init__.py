"""Exact graph functionals, generators, continuum estimators and experiments."""

import os

# Parallelism is by processes (--workers); BLAS threads on top of them
# oversubscribe the cores.  Set before any submodule imports numpy; an
# explicit setting in the environment still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
del os

import sys as _sys

# submodule: its names, each imported on first use, so `import netfunc` loads none
_EXPORTS = {
    "graph": ("Graph", "Subgraph", "UNREACHABLE", "all_pairs_distances", "ball",
              "connected_components", "distance_levels", "from_edge_list", "induced_subgraph",
              "is_connected", "read_edge_list", "sphere", "write_edge_list"),
    "generators": ("ModelSpec", "barabasi_albert", "build_model", "complete", "complete_bipartite",
                   "cycle", "erdos_renyi", "orbital", "path", "star", "watts_strogatz", "wheel"),
    "metrics": ("characteristic_length", "closeness_centrality", "cluster_length_ratio",
                "distance_variance", "local_cluster", "local_length", "local_mean_distance",
                "local_profile", "magnitude", "mean_centrality", "mean_cluster",
                "relative_characteristic_length", "wiener_index"),
    "topology": ("CurvatureSummary", "Polynomial", "SimplexCounts", "curvature_summary",
                 "euler_characteristic", "expected_dimension_polynomial", "inductive_dimension",
                 "length_estimate", "simplex_counts", "vertex_dimension"),
    "spectral": ("LaplacianSpectrum", "forest_complexity", "laplacian_spectrum",
                 "pseudoinverse_trace_bound", "spanning_tree_count", "spectral_complexity"),
    "combinatorial": ("arboricity", "chromatic_number", "independence_number", "scale_measure"),
    "continuum": ("FlatTorus", "SphereArea1", "Torus2", "Torus3", "continuum_ratio",
                  "mc_characteristic_length", "mc_mean_cluster"),
    "experiments": ("bound_audit", "extremal_search", "growth_sweep", "ratio_dimension_sweep"),
    "report": ("Caps", "FunctionalReport", "compute_report"), "errors": (), "rng": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that is or defines `name`, and keep the value here."""
    if name not in _EXPORTS and name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{_MODULE_OF.get(name, name)}"
    __import__(path)  # not importlib.import_module, whose imports -X importtime omits
    module = _sys.modules[path]
    globals()[name] = value = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
