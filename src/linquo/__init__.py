"""Edge ideals of finite simple graphs: powers, linear-quotients
verification, and order constructions (duplication, expansion, pure-power,
admissible, compatible)."""

from .graphs import (
    Graph,
    complement,
    contains_induced,
    duplicate_vertex,
    expand_vertex,
    induced_subgraph,
    is_cdcc,
    is_chordal,
    is_cochordal,
    is_gapfree,
    is_independent,
    matching_number,
)
from .linquot import (
    GeneratorOrdering,
    LqReport,
    LqWitness,
    NotGapfree,
    OrderingPreconditionError,
    SearchResult,
    colon_min_gens,
    duplication_order,
    expansion_order,
    find_lq_order,
    ordering_from_multisets,
    verify_linear_quotients,
)
from .monomials import Monomial
from .orderings import (
    admissible_order,
    auto_edge_order,
    compatible_orders,
    efficient_ordering,
    is_admissible,
    pure_power_edge_sequence,
)
from .power_ideals import (
    CapExceeded,
    EdgeIdeal,
    PowerGenerators,
    edge_ideal,
    power_generators,
)

__version__ = "0.1.0"
