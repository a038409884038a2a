"""Total colorings of circulant and Cayley graphs.

Constructions with strict verification, plus exact desk-scale oracles for
total chromatic numbers, cliques, perfectness, and conformability.

The package exports nothing, so that `import totcol` loads no submodule;
import `totcol.graphs`, `totcol.coloring`, `totcol.constructions`,
`totcol.oracles` or `totcol.cli` directly.
"""

__version__ = "0.1.0"
