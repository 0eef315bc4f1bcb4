"""The public names of the package, pinned so that any change to them
shows up in a diff of this file."""

from types import ModuleType

import bistellar

PUBLIC_NAMES = [
    "ActionNotFree",
    "AlternatingCounts",
    "BistellarError",
    "BistellarMove",
    "CertificateUnavailable",
    "CorruptSequence",
    "EmptyComplex",
    "FVector",
    "FaceNotPresent",
    "FanCertificate",
    "FanLabelling",
    "FlipSequence",
    "GenerationFailed",
    "IncompleteLabelling",
    "InterferingAntipodalMove",
    "InvalidDimension",
    "InvalidLabelling",
    "InvalidVertexId",
    "MoveIndex",
    "MoveNotAdmissible",
    "NoWitness",
    "NotClosedPseudomanifold",
    "NotEquivariant",
    "QuotientRequiresSubdivision",
    "ReductionReport",
    "SimplicialComplex",
    "VertexCollision",
    "Z2Complex",
    "alternating_counts",
    "alternating_sign",
    "antipode",
    "apply_move",
    "apply_z2_move",
    "boundary_of_simplex",
    "canonical_cross_labelling",
    "complex_digest",
    "cross_polytope",
    "enumerate_moves",
    "enumerate_z2_moves",
    "fan_certificate",
    "find_isomorphism",
    "find_move",
    "find_z2_isomorphism",
    "fresh_vertex",
    "is_closed_pseudomanifold",
    "is_isomorphic",
    "random_fan_labelling",
    "random_z2_walk",
    "reduce_to_boundary_simplex",
    "relabel_move",
    "replay",
    "replay_verify",
    "simplex_boundary",
    "tucker_witness",
    "validate_fan",
    "z2_reduce_to_cross_polytope",
]


def test_public_names():
    names = sorted(name for name in dir(bistellar)
                   if not name.startswith("_")
                   and not isinstance(getattr(bistellar, name), ModuleType))
    assert names == PUBLIC_NAMES


# The direct base class of every exported exception.
EXCEPTION_BASES = {
    "ActionNotFree": "BistellarError",
    "BistellarError": "Exception",
    "CertificateUnavailable": "BistellarError",
    "CorruptSequence": "BistellarError",
    "EmptyComplex": "BistellarError",
    "FaceNotPresent": "BistellarError",
    "GenerationFailed": "BistellarError",
    "IncompleteLabelling": "BistellarError",
    "InterferingAntipodalMove": "MoveNotAdmissible",
    "InvalidDimension": "BistellarError",
    "InvalidLabelling": "BistellarError",
    "InvalidVertexId": "BistellarError",
    "MoveNotAdmissible": "BistellarError",
    "NoWitness": "BistellarError",
    "NotClosedPseudomanifold": "BistellarError",
    "NotEquivariant": "BistellarError",
    "QuotientRequiresSubdivision": "BistellarError",
    "VertexCollision": "BistellarError",
}


def test_exception_hierarchy():
    exceptions = [getattr(bistellar, name) for name in PUBLIC_NAMES]
    bases = {cls.__name__: ", ".join(base.__name__ for base in cls.__bases__)
             for cls in exceptions
             if isinstance(cls, type) and issubclass(cls, BaseException)}
    assert bases == EXCEPTION_BASES
