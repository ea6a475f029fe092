"""toricdeg: exact toric degenerations of projective varieties.

Weight and matrix initial ideals, one-parameter Groebner families, toric
ideals of integer matrices, value-semigroup embeddings into coordinate rings,
degeneration-by-projection decompositions, and numeric moment-map images
checked against semigroup polytopes.
"""

from .polycore import (
    DegRevLex,
    DimensionMismatch,
    Grading,
    Lex,
    ParseError,
    Polynomial,
    TermOrder,
    UnknownVariable,
    WeightOrder,
    ZeroPolynomialError,
    format_polynomial,
    initial_form,
    parse_polynomial,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    NotHomogeneous,
    buchberger,
    eliminate,
    graded_dimension,
    initial_ideal,
    normal_form,
    ring_map_kernel,
    same_ideal,
    saturate,
)
from .intlat import (
    IntMatrix,
    hermite_normal_form,
    homogenize_matrix,
    kernel_lattice,
    weight_from_matrix,
)
from .toric import (
    NotDegreeOneGenerated,
    PolytopeQ,
    Semigroup,
    ZeroParameter,
    delta_polytope,
    embed_semigroup,
    toric_ideal,
    torus_point,
    veronese,
)
from .degeneration import (
    EmbeddingReport,
    FamilyIdeal,
    NoIndependentSubset,
    PipelineReport,
    ProjectionReport,
    VerificationFailed,
    embed_value_semigroup,
    family_ideal,
    fiber,
    hilbert_witness,
    projection_limit,
    valuation_pipeline,
)
from .momentmap import (
    MomentSample,
    ZeroVector,
    emit_svg,
    image_vs_polytope,
    moment,
    sample_moment_image,
)

__version__ = "0.1.0"
