"""The public names of the package, pinned so that any change to them
shows up in a diff of this file."""

from inspect import signature
from types import ModuleType

import pytest

import bistellar
from bistellar.moves import _replaced

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


def test_move_index_apply_returns_none_and_the_move_names_its_facets():
    # a move alone names the facets it replaces, its given half first
    move = bistellar.BistellarMove((1, 2, 3), (4,))
    gone, added = _replaced(move, True)
    assert gone == [(1, 2, 3), (-3, -2, -1)]
    assert added == [(2, 3, 4), (1, 3, 4), (1, 2, 4),
                     (-4, -2, -1), (-4, -3, -1), (-4, -3, -2)]
    assert bistellar.MoveIndex(bistellar.cross_polytope(3)).apply(move) is None


def test_move_index_checks_the_complex_when_built():
    # An index checks purity (of either kind), which a complex need not have.
    from_facets = bistellar.SimplicialComplex.from_facets
    dangling = from_facets([[1, 2, 3], [-3, -2, -1], [3, 4], [-4, -3]])
    for state in (dangling, bistellar.Z2Complex.from_complex(dangling)):
        with pytest.raises(bistellar.BistellarError, match="need a pure complex"):
            bistellar.MoveIndex(state)


def test_z2_complex_checks_the_complex_when_built():
    # Closure under negation and freeness are checked by the constructor
    # itself, so no raw Z2Complex(cx) passes unchecked into an index.
    from_facets = bistellar.SimplicialComplex.from_facets
    cases = [
        (bistellar.simplex_boundary(3), bistellar.NotEquivariant,
         r"facet \(1, 2, 3\) has no antipodal facet"),
        (from_facets([[-1, 1, 2], [-2, -1, 1]]),
         bistellar.ActionNotFree, r"facet \(-2, -1, 1\) contains the antipodal pair ±1"),
    ]
    for complex_, error, message in cases:
        with pytest.raises(error, match=message):
            bistellar.Z2Complex(complex_)


def test_entry_points_check_the_kind_of_complex():
    # symmetric entry points refuse a plain complex, the plain reduction
    # a Z2Complex; each before it searches, walks or flips
    octahedron = bistellar.cross_polytope(3)
    labelling = bistellar.canonical_cross_labelling(3)
    calls = {
        "random_z2_walk": lambda cx: bistellar.random_z2_walk(cx, 1, 1),
        "z2_reduce_to_cross_polytope":
            lambda cx: bistellar.z2_reduce_to_cross_polytope(cx, budget=1),
        "fan_certificate": lambda cx: bistellar.fan_certificate(cx, labelling, budget=1),
        "relabel_move": lambda cx: bistellar.relabel_move(
            cx, labelling, bistellar.BistellarMove((1, 2, 3), (4,))),
        "reduce_to_boundary_simplex":
            lambda cx: bistellar.reduce_to_boundary_simplex(cx, budget=1),
    }
    refused = {}
    for name, call in calls.items():
        for kind, cx in (("plain", octahedron.complex), ("z2", octahedron)):
            try:
                call(cx)
            except TypeError:
                refused[name] = kind
    assert refused == {"random_z2_walk": "plain",
                       "z2_reduce_to_cross_polytope": "plain",
                       "fan_certificate": "plain",
                       "relabel_move": "plain",
                       "reduce_to_boundary_simplex": "z2"}


def test_isomorphism_kind_comes_from_the_inputs():
    # whether a map commutes with negation follows from the type of the
    # complexes, so no flag says it, and an index has one view of its complex
    assert list(signature(bistellar.find_isomorphism).parameters) == ["left", "right"]
    assert not hasattr(bistellar.MoveIndex, "complex")
    assert not hasattr(bistellar.MoveIndex(bistellar.cross_polytope(3)), "complex")
