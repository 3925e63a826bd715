"""Exact Laplacian coefficients of graphs and the statistics of their
coefficient distributions."""

from .errors import ConvergenceError, GuardExceeded, InputError
from .graphs import (
    Graph,
    cartesian_product,
    component_count,
    cone,
    disjoint_union,
    edge_count,
    empty_graph,
    graph_from_edge_list,
    is_bipartite,
    is_tree,
    join,
    max_degree,
    parse_edge_list,
    read_edge_list,
    subdivision,
)
from .exact import (
    charpoly_monic,
    coefficients_from_eigenvalues,
    forest_sum_oracle,
    laplacian_coefficients,
    laplacian_coefficients_many,
    laplacian_matrix,
    matching_counts,
    signless_coefficients,
    signless_coefficients_many,
    signless_laplacian_matrix,
    spanning_tree_count,
    wiener_index,
)
from .families import (
    FamilySpec,
    closed_form_coefficients,
    closed_form_spectrum,
    family_limit_constants,
    make_family,
    random_regular,
    random_tree,
)
from .spectra import (
    Spectrum,
    anderson_morley_bound,
    cone_spectrum,
    gershgorin_bound,
    join_spectrum,
    numeric_spectra,
    numeric_spectrum,
    trace_check,
)
from .limits import (
    LimitStats,
    clt_distance,
    cone_variance_lower_bound,
    llt_distance,
    mean_variance,
    normalized_probabilities,
    poisson_distance,
    poisson_reference,
    probabilities_from_spectrum,
    variance_lower_bound,
)
from .diagnostics import DiagnosticsRow, diagnose_family, diagnose_graph, run_sweep
from .corpus import CheckResult, corpus_graphs, corpus_trees, run_verification

__version__ = "0.1.0"
