"""Bistellar flips on centrally symmetric triangulations.

The package builds abstract simplicial complexes, equips them with the
free involution given by vertex negation, walks and reduces them with
(symmetric pairs of) bistellar moves, and transports Fan labellings
across those moves so that the parity of the positive alternating
facet count becomes a checkable certificate.
"""

from .complexes import (
    FVector,
    SimplicialComplex,
    boundary_of_simplex,
    complex_digest,
    find_isomorphism,
    is_closed_pseudomanifold,
    is_isomorphic,
)
from .errors import (
    ActionNotFree,
    BistellarError,
    CertificateUnavailable,
    CorruptSequence,
    EmptyComplex,
    FaceNotPresent,
    GenerationFailed,
    IncompleteLabelling,
    InterferingAntipodalMove,
    InvalidDimension,
    InvalidLabelling,
    InvalidVertexId,
    MoveNotAdmissible,
    NotClosedPseudomanifold,
    NotEquivariant,
    NoWitness,
    QuotientRequiresSubdivision,
    VertexCollision,
)
from .fan import (
    AlternatingCounts,
    FanLabelling,
    alternating_counts,
    alternating_sign,
    relabel_move,
    tucker_witness,
    validate_fan,
)
from .generators import (
    canonical_cross_labelling,
    cross_polytope,
    random_fan_labelling,
    simplex_boundary,
)
from .moves import (
    BistellarMove,
    FlipSequence,
    MoveIndex,
    apply_move,
    apply_z2_move,
    enumerate_moves,
    enumerate_z2_moves,
    find_move,
    fresh_vertex,
    random_z2_walk,
    replay,
)
from .reduction import (
    FanCertificate,
    ReductionReport,
    fan_certificate,
    reduce_to_boundary_simplex,
    replay_verify,
    z2_reduce_to_cross_polytope,
)
from .z2 import (
    Z2Complex,
    antipode,
    find_z2_isomorphism,
)

__version__ = "0.1.0"
