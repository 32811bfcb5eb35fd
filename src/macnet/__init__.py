"""Multi-attribute association network inference and characterization.

Edges between nodes are declared when the similarity of their attribute
measurements (single correlations, max/min aggregation, or canonical
correlation) survives hypothesis testing with false-discovery-rate control.
The package also characterizes the inferred graph, classifies edges and
nodes by per-attribute contribution, tests node classes for set
over-representation, and estimates edge-detection power by simulation.
"""

from . import errors
from .classify import (
    DEFAULT_THRESHOLD,
    EdgeClasses,
    NodeClasses,
    classify_network,
    contribution_histogram,
)
from .enrichment import (
    EnrichmentReport,
    GeneSetCollection,
    enrich,
    load_gmt,
)
from .inference import (
    ChiSquaredTest,
    bh_fdr,
    chi2_sf,
    extreme_corr_pvalue,
    fisher_z,
    normal_sf,
)
from .network import (
    AttributeDataset,
    EdgeTable,
    InferredNetwork,
    NetworkSummary,
    betweenness_values,
    clustering_values,
    degree_values,
    infer_network,
    jaccard,
    largest_connected_component,
    summary,
)
from .similarity import (
    CanonicalSolution,
    K2Params,
    aggregate_extreme,
    canonical_corr,
    canonical_corr_homogeneous,
    equal_corr_closed_form,
    k2_closed_form,
)
from .simulation import (
    PowerResult,
    PowerStudySpec,
    build_sigma,
    power_study,
    slice_grid,
)

__version__ = "0.1.0"
