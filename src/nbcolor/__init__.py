"""Near-bipartite colorings of sparse graphs.

A near-bipartite coloring splits the vertices into an independent set I and
a set F that induces a forest.  This package decides and constructs such
colorings for two input classes, multigraphs with edge multiplicity up to
two and simple graphs with forcing gadgets, and produces one of three
certificates when it declines: a low-potential vertex subset, an embedded
forbidden subgraph, or a diagnostic naming the reduction step that gave up.

Layout:

- ``graph_core``: the immutable ``Graph`` type, precolors, colorings,
  validation, contraction, and the ``.nbg`` text format.
- ``potential``: the two graph potentials and the weighted-hypergraph
  potential that generalizes them.
- ``min_potential``: exact minimum-potential subsets by max-flow, with
  cardinality constraints, pinned membership, and extremal tie-breaking.
- ``oracle``: brute-force reference deciders for small graphs.
- ``families``: named base graphs, the two sharpness families, forcing
  attachments, and random sparse instance generators.
- ``forbidden``: the catalog of minimal non-colorable graphs and the
  linked-pair test built on it.
- ``solver``: the two coloring drivers, sharing one entry and one level
  opening (with the degree <= 2 peel of ``peel``), and their supporting
  extension operations.
- ``cli``: the ``nbcolor`` command line tool.
"""

from .families import (
    attach_force_f,
    attach_force_i,
    base_graph,
    base_names,
    gen_gk,
    gen_hk,
    multiedge_replacement,
    random_sparse_multigraph,
    random_sparse_simple,
)
from .forbidden import (
    Catalog,
    CatalogEntry,
    CatalogError,
    LinkWitness,
    are_linked,
    build_catalog,
    default_catalog,
    find_embedding,
    find_forbidden_subgraph,
    load_catalog,
    save_catalog,
    verify_member,
    witness_cycle,
)
from .graph_core import (
    FP,
    GADGET,
    IP,
    KINDS,
    MULTI,
    PRECOLORS,
    SINGLE,
    UNCOLORED,
    Coloring,
    ContractionRejected,
    F_SIDE,
    Graph,
    GraphError,
    I_SIDE,
    LiftMap,
    Violation,
    coloring_from_i_set,
    contract_colored_subset,
    graph,
    induced_subgraph,
    load_nbg,
    normalize,
    parse_nbg,
    save_nbg,
    validate_coloring,
    write_nbg,
)
from .min_potential import (
    LARGEST,
    SMALLEST,
    min_potential_constrained,
    min_potential_enum,
    min_potential_pinned,
    min_potential_subset,
)
from .oracle import (
    DEFAULT_THRESHOLD,
    OracleSizeError,
    brute_nb_color,
    check_sparse,
    enumerate_nb_colorings,
    is_4_critical,
    is_nb_critical,
)
from .potential import (
    KindError,
    WeightedHypergraph,
    hypergraph,
    hypergraph_for_rho_m,
    hypergraph_for_rho_s,
    hypergraph_for_sparsity,
    rho_hyper,
    rho_m,
    rho_s,
)
from .solver import (
    Blocked,
    CertForbidden,
    CertLowPotential,
    Colored,
    CycleLift,
    Diagnostic,
    DischargeReport,
    MULTI_FLOOR,
    Outcome,
    SIMPLE_FLOOR,
    color_multigraph,
    color_simple,
    discharge_classify,
    extend_over_induced_cycle,
    extend_to_forest,
    finish_structured,
    helper_extend,
    reduce_cycle_gadget,
    tree_split,
)

__all__ = [
    "FP",
    "GADGET",
    "IP",
    "KINDS",
    "MULTI",
    "PRECOLORS",
    "SINGLE",
    "UNCOLORED",
    "F_SIDE",
    "I_SIDE",
    "LARGEST",
    "SMALLEST",
    "MULTI_FLOOR",
    "SIMPLE_FLOOR",
    "DEFAULT_THRESHOLD",
    "Blocked",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "CertForbidden",
    "CertLowPotential",
    "Colored",
    "Coloring",
    "ContractionRejected",
    "CycleLift",
    "Diagnostic",
    "DischargeReport",
    "Graph",
    "GraphError",
    "KindError",
    "LiftMap",
    "LinkWitness",
    "OracleSizeError",
    "Outcome",
    "Violation",
    "WeightedHypergraph",
    "are_linked",
    "attach_force_f",
    "attach_force_i",
    "base_graph",
    "base_names",
    "brute_nb_color",
    "build_catalog",
    "check_sparse",
    "color_multigraph",
    "color_simple",
    "coloring_from_i_set",
    "contract_colored_subset",
    "default_catalog",
    "discharge_classify",
    "enumerate_nb_colorings",
    "extend_over_induced_cycle",
    "extend_to_forest",
    "find_embedding",
    "find_forbidden_subgraph",
    "finish_structured",
    "gen_gk",
    "gen_hk",
    "graph",
    "helper_extend",
    "hypergraph",
    "hypergraph_for_rho_m",
    "hypergraph_for_rho_s",
    "hypergraph_for_sparsity",
    "induced_subgraph",
    "is_4_critical",
    "is_nb_critical",
    "load_catalog",
    "load_nbg",
    "min_potential_constrained",
    "min_potential_enum",
    "min_potential_pinned",
    "min_potential_subset",
    "multiedge_replacement",
    "normalize",
    "parse_nbg",
    "random_sparse_multigraph",
    "random_sparse_simple",
    "reduce_cycle_gadget",
    "rho_hyper",
    "rho_m",
    "rho_s",
    "save_catalog",
    "save_nbg",
    "tree_split",
    "validate_coloring",
    "verify_member",
    "witness_cycle",
    "write_nbg",
]
