"""skelpot: exact potential theory on metrized curve graphs and 2-D
polyhedral complexes, plus Frobenius test-ideal calculus for monomial
ideals.  Everything is rational arithmetic; no floats, no tolerances."""

from .rat import Rat, rat, rat_str
from .polyhedra import (
    Polyhedron,
    convex_hull_2d,
    hull_area_2d,
    minimalize,
    poly_contains,
    poly_dim,
    poly_equal,
    poly_is_subset,
    recession,
)
from .graphs import (
    AtomicMeasure,
    CurvatureData,
    GraphError,
    GraphPoint,
    MetrizedGraph,
    PLFunction,
    RetractionError,
    Subgraph,
    SubgraphEmbedding,
    compose_retraction,
    complement_components,
    pl_equal,
    pl_max,
    retract_point,
    subgraph_graph,
)
from .potential import (
    EnvelopeInfeasible,
    EnvelopeResult,
    MassMismatch,
    PotentialError,
    dd_c,
    energy,
    envelope,
    is_theta_psh,
    ma_measure,
    orthogonality_residual,
    slope_report,
    solve_ma,
)
from .toric import (
    ComplexInvalid,
    PolyComplex,
    SupportFn,
    ToricAtomicMeasure,
    ToricError,
    ToricPLFunction,
    compose_with_retraction,
    decompose,
    fan_of_p2,
    is_concave,
    pl_functions_equal,
    recession_fan,
    refine,
    refine_function,
    restrict_to_skeleton,
    retraction,
    retraction_affine,
    skeleton,
    support_on_complex,
    toric_ma,
    validate_complex,
)
from .fixtures import CounterexampleFixture, counterexample_fixture
from .testideals import (
    GradedSequence,
    MonomialIdeal,
    TestIdealError,
    asymptotic_test_ideal,
    frobenius_power,
    frobenius_root,
    newton_certifies,
    newton_test_ideal,
    test_ideal,
    unit_ideal,
    zero_ideal,
)
from .jsonio import SchemaError
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
