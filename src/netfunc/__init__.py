"""Exact graph functionals, generators, continuum estimators and experiments."""

import os

# Parallelism is by processes (--workers); BLAS threads on top of them
# oversubscribe the cores.  Set before any submodule imports numpy; an
# explicit setting in the environment still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
del os

from .graph import (Graph, SimplexCounts, Subgraph, UNREACHABLE,
                    all_pairs_distances, ball, connected_components, distance_levels,
                    from_edge_list, induced_subgraph, is_connected, read_edge_list,
                    simplex_counts, sphere, write_edge_list)
from .generators import (ModelSpec, barabasi_albert, build_model, complete,
                         complete_bipartite, cycle, erdos_renyi, orbital, path,
                         star, watts_strogatz, wheel)
from .metrics import (characteristic_length, closeness_centrality,
                      cluster_length_ratio, distance_variance, local_cluster,
                      local_length, local_mean_distance, local_profile, magnitude,
                      mean_centrality, mean_cluster, relative_characteristic_length,
                      wiener_index)
from .topology import (CurvatureSummary, Polynomial, curvature_summary,
                       euler_characteristic, expected_dimension_polynomial,
                       inductive_dimension, length_estimate, vertex_dimension)
from .spectral import (LaplacianSpectrum, forest_complexity, laplacian_spectrum,
                       pseudoinverse_trace_bound, spanning_tree_count,
                       spectral_complexity)
from .combinatorial import (arboricity, chromatic_number, independence_number,
                            scale_measure)
from .continuum import (FlatTorus, SphereArea1, Torus2, Torus3, continuum_ratio,
                        mc_characteristic_length, mc_mean_cluster)
from .experiments import (bound_audit, extremal_search, growth_sweep,
                          ratio_dimension_sweep)
from .report import Caps, FunctionalReport, compute_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
