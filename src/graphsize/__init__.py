"""Graph size estimation from node samples.

Estimate the number of nodes N of a partially observed undirected graph
from uniform, weighted, or random-walk node samples, using collision-count
(NODE) and induced-edge (IND) estimators with random-walk dependence
correction (thinning and margin filtering).
"""

from .core import (EstimateOutcome, EstimatorError, NO_COLLISIONS,
                   RatioEstimate, aggregate_ratios, count_collisions,
                   count_induced_edges, count_unique)
from .graph import (Graph, GraphError, GraphStats, LoadReport, exact_stats,
                    largest_connected_component, load_edge_list,
                    size_identity, write_edge_list)
from .ind_estimators import (density_wis, inda_wis_ratio, indb_wis_ratio,
                             mean_degree_wis)
from .node_estimators import (capture_recapture_from_sample, mle_unique_approx,
                              mle_unique_exact, node_uis_ratio,
                              node_wis_ratio)
from .rw_correction import (estimate_thinned, margin_crosswalker,
                            margin_ratios, surviving_pair_count,
                            thin_shifted, thin_simple)
from .sampling import (Sample, SamplingError, read_sample, sample_rw,
                       sample_rw_multi, sample_uis, sample_wis, write_sample)

__version__ = "0.1.0"
