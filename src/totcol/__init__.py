"""Total colorings of circulant and Cayley graphs.

Constructions with strict verification, plus exact desk-scale oracles for
total chromatic numbers, cliques, perfectness, and conformability.
"""

from .graphs import (
    CirculantSpec,
    Graph,
    GroupTable,
    build_cayley,
    build_circulant,
    build_unitary,
    complement,
    connected,
    cyclic_group,
    least_prime_factor,
    totient,
    two_factors,
)
from .coloring import (
    TotalColoring,
    VerificationReport,
    parse_matrix,
    render_matrix,
    verify_total,
)
from .constructions import (
    color_complete_bipartite,
    color_complete_odd,
    color_even_dense_circulant,
    color_odd_circulant,
    color_perfect_cayley,
    color_unitary_even,
    clique_cover_disjoint,
    edge_color_vizing,
    fill_diagonals,
    patterned_starts,
    starter_search,
)
from .oracles import (
    SearchBudget,
    classify_type,
    conformable_exists,
    exact_chromatic,
    exact_total_chromatic,
    is_perfect,
    maximal_cliques,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
