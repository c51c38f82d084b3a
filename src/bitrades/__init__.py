"""Latin bitrade analysis: axioms, exact solving, triangle dissections,
trigon recursion and canonical abelian group invariants."""

from .core import (
    AxiomViolation,
    Bitrade,
    BitradeError,
    EmptyInput,
    InternalCheckFailed,
    Label,
    Triple,
    build_bitrade,
    is_indecomposable,
    is_separated_bitrade,
    metrics,
    mu,
    nu,
    tau,
    tau_cycle,
)
from .geometry import (
    NotSeparatedSolution,
    TriangleGeom,
    ValenceSix,
    dissect,
    extract_bitrade,
    to_svg,
    triangles,
    verify_dissection,
)
from .groups import (
    AbelianGroupStructure,
    canonical_images,
    check_det_invariance,
    integer_homotopy_rank,
    is_abelian_embeddable,
    presentation,
    relation_matrix,
    subgroup_H,
)
from .jsonio import ParseError, dump, dumps, load, loads
from .solver import (
    Homotopy,
    PivotElimination,
    PointedBitrade,
    SingularSystem,
    Solution,
    eliminate_pivots,
    induced_homotopy,
    is_separated_solution,
    solve_pointed,
)
from .trigons import (
    ProductEmbedding,
    Split,
    Trigon,
    embed_product,
    find_trigons,
    locate_trigon,
    recombine,
    separate,
    separate_trace,
    split,
    trigon_at,
)

__version__ = "1.0.0"
