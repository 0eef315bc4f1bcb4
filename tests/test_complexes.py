"""Core complex operations against naive recomputation."""

from functools import cache
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistellar import (
    ActionNotFree,
    BistellarError,
    EmptyComplex,
    FVector,
    FaceNotPresent,
    FlipSequence,
    InvalidVertexId,
    NotClosedPseudomanifold,
    NotEquivariant,
    SimplicialComplex,
    VertexCollision,
    Z2Complex,
    apply_move,
    boundary_of_simplex,
    complex_digest,
    cross_polytope,
    enumerate_moves,
    find_isomorphism,
    find_move,
    find_z2_isomorphism,
    is_isomorphic,
    random_z2_walk,
    replay_verify,
    simplex_boundary,
)
from bistellar import complexes
from bistellar.complexes import _canonical_facets
from conftest import (
    naive_barycentric_subdivide,
    naive_canonical_facets,
    naive_euler,
    naive_f_vector,
    naive_faces,
    naive_isomorphism,
    naive_link_faces,
)


class TestFromFacets:
    def test_three_cycle(self):
        cx = SimplicialComplex.from_facets([[1, 2], [2, 3], [1, 3]])
        assert cx.f_vector().counts == (3, 3)

    def test_subset_pruned(self):
        cx = SimplicialComplex.from_facets([[1, 2, 3], [1, 2]])
        assert cx.facets == ((1, 2, 3),)

    def test_tetra_boundary(self):
        cx = SimplicialComplex.from_facets(
            [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
        assert cx.f_vector().counts == (4, 6, 4)

    def test_empty_input(self):
        for facets in ([], [[]]):
            with pytest.raises(EmptyComplex):
                SimplicialComplex.from_facets(facets)

    def test_zero_vertex(self):
        with pytest.raises(InvalidVertexId):
            SimplicialComplex.from_facets([[0, 1]])

    @pytest.mark.parametrize("vertex", [1.7, True, 1.0, "1"], ids=repr)
    def test_non_integer_vertex(self, vertex):
        # 1.7 and True used to become vertex 1
        with pytest.raises(InvalidVertexId):
            SimplicialComplex.from_facets([[vertex, 2, 3]])

    @given(st.lists(st.frozensets(st.integers(-6, 6).filter(bool),
                                  min_size=1, max_size=4),
                    min_size=1, max_size=8))
    def test_facets_always_antichain(self, sets):
        cx = SimplicialComplex.from_facets(sets)
        facets = [frozenset(f) for f in cx.facets]
        for a in facets:
            for b in facets:
                assert a == b or not a <= b
        # downward closure: every subset of a facet is a member
        for f in cx.facets:
            for v in f:
                assert tuple(x for x in f if x != v) in cx

    @given(st.lists(st.frozensets(st.integers(-6, 6).filter(bool),
                                  min_size=1, max_size=4),
                    min_size=1, max_size=8),
           st.lists(st.frozensets(st.integers(-7, 7).filter(bool), max_size=3),
                    max_size=6),
           st.integers(-7, 7).filter(bool))
    def test_incidence_of_present_and_absent_faces(self, sets, probes, new):
        cx = SimplicialComplex.from_facets(sets)
        for face in cx.faces() + [tuple(sorted(p)) for p in probes]:
            hits = [i for i, f in enumerate(cx.facets) if set(face) <= set(f)]
            assert cx.facets_containing(face) == hits
            assert (face in cx) == bool(hits)
            if not hits:
                for query in (cx.link, cx.star):
                    with pytest.raises(FaceNotPresent):
                        query(face)
                continue
            link = [tuple(v for v in cx.facets[i] if v not in face) for i in hits]
            assert cx.link(face).facets == naive_canonical_facets(link)
            if face:
                try:
                    cx.stellar_subdivide(face, new)
                    assert new not in cx.vertices
                except VertexCollision:
                    assert new in cx.vertices


rows = st.sets(st.frozensets(st.integers(-6, 6).filter(bool), min_size=3,
                             max_size=3), min_size=1, max_size=10)


@given(rows=rows, data=st.data(),
       kind=st.sampled_from(["canonical", "unsorted", "duplicated", "mixed"]))
def test_canonical_input_skips_the_sort(rows, data, kind):
    # rows already canonical take a fast path; any other input the general
    # one, and both give the same facets
    facets = sorted(tuple(sorted(f)) for f in rows)
    if kind == "unsorted":
        facets = [tuple(data.draw(st.permutations(f))) for f in
                  data.draw(st.permutations(facets))]
    elif kind == "duplicated":
        facets.insert(data.draw(st.integers(0, len(facets))),
                      data.draw(st.sampled_from(facets)))
    elif kind == "mixed":
        extra = data.draw(st.sampled_from(facets))
        facets.append(extra[:data.draw(st.integers(1, 2))]
                      if data.draw(st.booleans()) else extra + (7,))
    expected = _canonical_facets([tuple(sorted(set(f))) for f in facets])
    with patch.object(complexes, "_canonical_facets",
                      wraps=complexes._canonical_facets) as general:
        assert SimplicialComplex.from_facets(facets).facets == expected
    assert general.called == (list(expected) != facets)


class TestFVector:
    def test_tetra(self, tetra_boundary):
        fv = tetra_boundary.f_vector()
        assert fv.counts == (4, 6, 4)
        assert fv.euler_characteristic == 2

    def test_octahedron(self, octahedron):
        assert octahedron.f_vector().counts == (6, 12, 8)
        assert octahedron.f_vector().euler_characteristic == 2

    def test_sd_of_tetra_boundary(self, tetra_boundary):
        # oracle: naive face counts of the subdivision, Euler cross-check
        sd, _ = tetra_boundary.barycentric_subdivide()
        assert naive_f_vector(sd.facets) == (14, 36, 24)
        assert 14 - 36 + 24 == 2
        assert sd.f_vector().counts == (14, 36, 24)

    def test_matches_naive_on_corpus(self, octahedron, tetra_boundary):
        for cx in (octahedron.complex, tetra_boundary, simplex_boundary(4)):
            assert cx.f_vector().counts == naive_f_vector(cx.facets)
            for dim in range(-2, cx.dimension + 3):  # never the empty face
                assert cx.faces(dim) == sorted(
                    f for f in naive_faces(cx.facets) if len(f) == dim + 1)

    def test_equality(self, tetra_boundary):
        # comparing with a non-iterable used to raise TypeError
        fv = simplex_boundary(3).f_vector()
        assert fv == tetra_boundary.f_vector() == (4, 6, 4) == fv
        assert fv == [4, 6, 4] and [4, 6, 4] == fv
        assert fv != (4, 6) and fv != tetra_boundary
        assert not fv == None and fv != 3  # noqa: E711
        assert hash(fv) == hash((4, 6, 4))

    @pytest.mark.parametrize("counts, bad", [([1.9, True, 2.0], "entry 0 .* 1.9"),
                                             ([1, True, 2], "entry 1 .* True"),
                                             ([4, 6, "4"], "entry 2 .* '4'")])
    def test_entries_are_ints(self, counts, bad):
        # FVector([1.9, True, 2.0]) used to equal (1, 1, 2)
        with pytest.raises(BistellarError, match=bad):
            FVector(counts)
        assert FVector(iter([4, 6, 4])) == (4, 6, 4)

    def test_dimension_iteration_and_repr(self, tetra_boundary):
        fv = tetra_boundary.f_vector()
        assert fv.dimension == 2
        assert list(fv) == [4, 6, 4]
        assert repr(fv) == "FVector(4, 6, 4)"
        assert FVector([]).dimension == -1 and list(FVector([])) == []


class TestLinkStar:
    def test_vertex_link_in_tetra_boundary(self, tetra_boundary):
        link = tetra_boundary.link((1,))
        assert link == SimplicialComplex.from_facets([[2, 3], [3, 4], [2, 4]])

    def test_vertex_link_in_octahedron(self, octahedron):
        link = octahedron.link((1,))
        # four non-antipodal vertices forming a cycle
        assert link.f_vector().counts == (4, 4)
        assert -1 not in link.vertices and 1 not in link.vertices

    def test_edge_link_two_points(self, tetra_boundary):
        link = tetra_boundary.link((1, 2))
        assert link.facets == ((3,), (4,))

    def test_facet_link_is_empty_complex(self, tetra_boundary):
        assert tetra_boundary.link((1, 2, 3)).facets == ((),)

    def test_missing_face(self, tetra_boundary):
        with pytest.raises(FaceNotPresent):
            tetra_boundary.link((1, 5))

    def test_star_is_join_of_face_and_link(self, octahedron, tetra_boundary):
        for cx in (octahedron.complex, tetra_boundary):
            for face in cx.faces():
                link = cx.link(face)
                cone = SimplicialComplex.from_facets([face]).join(link)
                assert cx.star(face) == cone

    def test_link_matches_naive(self, octahedron):
        cx = octahedron.complex
        for face in cx.faces():
            reported = set(cx.link(face).faces()) | {()}
            assert reported == naive_link_faces(cx.facets, face) | {()}


class TestJoin:
    def test_two_point_spheres(self):
        s0a = SimplicialComplex.from_facets([[1], [2]])
        s0b = SimplicialComplex.from_facets([[3], [4]])
        square = s0a.join(s0b)
        assert square.f_vector().counts == (4, 4)
        assert is_isomorphic(
            square, SimplicialComplex.from_facets([[1, 2], [2, 3], [3, 4], [1, 4]]))

    def test_cone_over_cycle(self, triangle_boundary):
        point = SimplicialComplex.from_facets([[9]])
        cone = point.join(triangle_boundary)
        assert cone.f_vector().counts == (4, 6, 3)

    def test_edge_join_edge_is_solid_tetrahedron(self):
        left = SimplicialComplex.from_facets([[1, 2]])
        right = SimplicialComplex.from_facets([[3, 4]])
        assert left.join(right).facets == ((1, 2, 3, 4),)

    def test_shared_vertex_rejected(self):
        left = SimplicialComplex.from_facets([[1, 2]])
        right = SimplicialComplex.from_facets([[2, 3]])
        with pytest.raises(VertexCollision):
            left.join(right)

    def test_dimension_adds(self, triangle_boundary, tetra_boundary):
        edge = SimplicialComplex.from_facets([[8, 9]])
        assert (edge.join(tetra_boundary).dimension
                == edge.dimension + tetra_boundary.dimension + 1)


class TestStellarSubdivision:
    def test_at_edge_of_tetra_boundary(self, tetra_boundary):
        result = tetra_boundary.stellar_subdivide((1, 2), 5)
        # oracle: the definition, assembled by hand from naive set ops
        kept = [f for f in tetra_boundary.facets if not {1, 2} <= set(f)]
        added = []
        for f in tetra_boundary.facets:
            if {1, 2} <= set(f):
                rest = [v for v in f if v not in (1, 2)]
                for drop in (1, 2):
                    keep = [v for v in (1, 2) if v != drop]
                    added.append(tuple(sorted(keep + rest + [5])))
        expected = SimplicialComplex.from_facets(kept + added)
        assert result == expected
        assert result.f_vector().counts == (5, 9, 6)
        assert result.euler_characteristic() == 2

    def test_at_facet_is_one_to_three(self, tetra_boundary):
        result = tetra_boundary.stellar_subdivide((1, 2, 3), 5)
        assert result.f_vector().counts == (5, 9, 6)

    def test_at_vertex_renames(self, triangle_boundary):
        result = triangle_boundary.stellar_subdivide((1,), 7)
        assert 1 not in result.vertices and 7 in result.vertices
        assert is_isomorphic(result, triangle_boundary)

    def test_fresh_id_collision(self, tetra_boundary):
        with pytest.raises(VertexCollision):
            tetra_boundary.stellar_subdivide((1, 2), 4)

    @given(st.lists(st.frozensets(st.integers(1, 8), min_size=1, max_size=4),
                    min_size=1, max_size=8), st.data())
    def test_at_vertex_is_renaming(self, sets, data):
        # pure and non-pure complexes alike: the star of a vertex is coned
        # from the new vertex, which is the vertex renamed
        cx = SimplicialComplex.from_facets(sets)
        v = data.draw(st.sampled_from(cx.vertices))
        renamed = [[9 if x == v else x for x in f] for f in cx.facets]
        assert cx.stellar_subdivide((v,), 9) == SimplicialComplex.from_facets(renamed)

    def test_preserves_euler(self, octahedron):
        cx = octahedron.complex
        for face in cx.faces():
            sub = cx.stellar_subdivide(face, 99)
            assert sub.euler_characteristic() == 2

    def test_empty_face_rejected(self, tetra_boundary):
        # used to return a complex without facets, whose repr raised
        with pytest.raises(EmptyComplex):
            tetra_boundary.stellar_subdivide((), 5)


class TestBarycentricSubdivision:
    def test_three_cycle_becomes_six_cycle(self, triangle_boundary):
        sd, face_map = triangle_boundary.barycentric_subdivide()
        assert sd.f_vector().counts == (6, 6)
        assert set(face_map[v] for v in sd.vertices if len(face_map[v]) == 2) \
            == set(triangle_boundary.faces(1))

    def test_octahedron_counts(self, octahedron):
        sd, _ = octahedron.complex.barycentric_subdivide()
        assert sd.f_vector().counts == (26, 72, 48)
        assert sd.euler_characteristic() == 2

    def test_facet_multiplication(self, tetra_boundary, octahedron):
        for cx in (tetra_boundary, octahedron.complex):
            sd, _ = cx.barycentric_subdivide()
            factor = 1
            for k in range(2, cx.dimension + 2):
                factor *= k
            assert len(sd.facets) == factor * len(cx.facets)

    def test_face_map_covers_all_faces(self, tetra_boundary):
        sd, face_map = tetra_boundary.barycentric_subdivide()
        assert sorted(face_map.values(), key=lambda t: (len(t), t)) \
            == tetra_boundary.faces()
        assert set(face_map) == set(sd.vertices)

    def test_euler_preserved(self, triangle_boundary, tetra_boundary, octahedron):
        for cx in (triangle_boundary, tetra_boundary, octahedron.complex):
            sd, _ = cx.barycentric_subdivide()
            assert naive_euler(sd.facets) == naive_euler(cx.facets)

    def test_empty_face_alone(self):
        only_empty = SimplicialComplex(((),))
        assert only_empty.barycentric_subdivide() == (only_empty, {})


_SMALL_IDS = st.integers(-6, 6).filter(bool)


@settings(max_examples=40, deadline=None)
@given(cx=st.one_of(
    st.builds(lambda k, steps, seed: random_z2_walk(cross_polytope(k), steps, seed)[0],
              st.sampled_from([3, 4]), st.integers(0, 40), st.integers(0, 999)),
    st.lists(st.lists(_SMALL_IDS, min_size=1, max_size=4), min_size=1, max_size=5)
    .map(SimplicialComplex.from_facets)),
    twice=st.booleans())
@example(cx=cross_polytope(5), twice=False)
@example(cx=simplex_boundary(5), twice=False)
@example(cx=SimplicialComplex.from_facets([[1, 2, 3], [3, 4]]), twice=True)
@example(cx=SimplicialComplex.from_facets([[1, 2, 3], [3, 4], [5]]), twice=True)
@example(cx=SimplicialComplex.from_facets([[-3], [1], [2]]), twice=False)
@example(cx=SimplicialComplex.from_facets([[-5, -1, 2], [-5, 3], [-4, -2]]), twice=True)
@example(cx=cross_polytope(3), twice=True)
def test_barycentric_subdivide_matches_the_per_permutation_oracle(cx, twice):
    # the chains come from one cached getter per facet size, and a facet of
    # one vertex is its own chain; the oracle sorts every prefix of every
    # vertex order
    if twice and len(cx.facets) <= 16:  # the subdivision of a subdivision
        cx = cx.equivariant_sd()[0] if isinstance(cx, Z2Complex) \
            else cx.barycentric_subdivide()[0]
    for each in (cx, cx.complex) if isinstance(cx, Z2Complex) else (cx,):
        sd, face_map = each.barycentric_subdivide()
        assert (sd.facets, face_map) == naive_barycentric_subdivide(
            each.facets, signed=isinstance(each, Z2Complex))


class TestIsomorphism:
    def test_square_vs_join(self, square_complex):
        join = SimplicialComplex.from_facets([[1], [2]]).join(
            SimplicialComplex.from_facets([[3], [4]]))
        assert is_isomorphic(square_complex, join)

    def test_square_vs_triangle(self, square_complex, triangle_boundary):
        assert not is_isomorphic(square_complex, triangle_boundary)

    def test_tetra_vs_octahedron(self, tetra_boundary, octahedron):
        assert not is_isomorphic(tetra_boundary, octahedron.complex)

    def test_reflexive_and_symmetric(self, octahedron, tetra_boundary):
        for cx in (octahedron.complex, tetra_boundary):
            assert is_isomorphic(cx, cx)
        sd, _ = tetra_boundary.barycentric_subdivide()
        assert is_isomorphic(sd, sd)
        corpus = [octahedron.complex, tetra_boundary, sd, simplex_boundary(4)]
        for left in corpus:
            for right in corpus:
                assert is_isomorphic(left, right) == is_isomorphic(right, left)

    def test_bijection_maps_facets_onto_facets(self, octahedron):
        cx = octahedron.complex
        relabelled = SimplicialComplex.from_facets(
            [[v * 10 for v in f] for f in cx.facets])
        mapping = find_isomorphism(cx, relabelled)
        assert mapping is not None
        image = {tuple(sorted(mapping[v] for v in f)) for f in cx.facets}
        assert image == set(relabelled.facets)

    def test_detects_nonisomorphic_same_f(self):
        # same f-vector (6,12,8), different triangulations: octahedron has
        # no degree-3 vertex, the stacked sphere does
        stacked = _stacked_sphere()
        octa = cross_polytope(3).complex
        assert stacked.f_vector() == octa.f_vector()
        assert not is_isomorphic(stacked, octa)

    def test_empty_face_alone_maps_by_the_empty_map(self):
        empty = SimplicialComplex(((),))
        assert find_isomorphism(empty, empty) == {}

    def test_two_sides_outside_the_domain_raise(self):
        disk = SimplicialComplex.from_facets([[1, 2, 3], [1, 3, 4]])
        with pytest.raises(NotClosedPseudomanifold):
            find_isomorphism(disk, disk)

    def test_one_side_outside_the_domain_is_not_isomorphic(self):
        # f = (6, 6): a hexagon, and two disjoint triangles, which are
        # not strongly connected; both are closed under v -> -v
        hexagon = [[1, 2], [2, 3], [-1, 3], [-2, -1], [-3, -2], [-3, 1]]
        two = [[1, 2], [2, 3], [1, 3], [-2, -1], [-3, -2], [-3, -1]]
        for kind in (SimplicialComplex, Z2Complex):
            left, right = kind.from_facets(hexagon), kind.from_facets(two)
            assert find_isomorphism(left, right) is None
            assert find_isomorphism(right, left) is None

    def test_z2_pair_is_matched_by_a_map_commuting_with_negation(self, octahedron):
        walked = random_z2_walk(octahedron, 12, seed=5)[0]
        positives = walked.positive_vertices
        table = {m: (-1) ** m * w for m, w in zip(positives, reversed(positives))}
        table.update({-m: -w for m, w in table.items()})
        right = Z2Complex.from_facets([[table[v] for v in f] for f in walked.facets])
        found = find_isomorphism(walked, right)
        assert found is not None and all(found[-v] == -found[v] for v in found)
        assert {tuple(sorted(found[v] for v in f)) for f in walked.facets} \
            == set(right.facets)
        assert find_z2_isomorphism(walked, right) == found

    def test_z2_pair_with_unlike_involutions_is_not_isomorphic(self):
        # one 6 x 4 triangulated torus, negation the half shift around its
        # first or its second circle: equal as plain complexes, but no map
        # carries one shift to the other (on the small symmetric spheres
        # searched, every automorphism commutes with negation, so this needs
        # another manifold)
        def torus(name):
            corners = ((0, 0), (1, 0), (1, 1), (0, 1))
            rows = []
            for i in range(6):
                for j in range(4):
                    a, b, c, d = (name((i + di) % 6, (j + dj) % 4) for di, dj in corners)
                    rows += [[a, b, c], [a, d, c]]
            return Z2Complex.from_facets(rows)

        first = torus(lambda i, j: (1 + i % 3 + 3 * j) * (-1 if i >= 3 else 1))
        second = torus(lambda i, j: (1 + i + 6 * (j % 2)) * (-1 if j >= 2 else 1))
        assert find_isomorphism(first.complex, second.complex) is not None
        assert find_isomorphism(first, second) is None
        assert find_z2_isomorphism(first, second) is None
        found = find_isomorphism(first, first)
        assert found is not None and all(found[-v] == -found[v] for v in found)

    def test_plain_pair_with_signed_ids_is_matched_unsigned(self, octahedron):
        # the octahedron's antipodal pairs, its non-edges, go to {1, 2},
        # {-1, 3} and {-2, -3}: the image has no map commuting with negation
        table = {1: 1, -1: 2, 2: -1, -2: 3, 3: -2, -3: -3}
        right = SimplicialComplex.from_facets(
            [[table[v] for v in f] for f in octahedron.facets])
        found = find_isomorphism(octahedron.complex, right)
        assert found is not None
        assert {tuple(sorted(found[v] for v in f)) for f in octahedron.facets} \
            == set(right.facets)
        assert any(found[-v] != -found[v] for v in found)


def _plain_sequence(cx):
    digest = complex_digest(cx)
    return FlipSequence((), False, digest, digest)


# Each raised AttributeError from inside the search.  A mixed pair has no
# isomorphism kind: a map between Z2Complexes commutes with negation, a map
# between plain complexes need not.
WRONG_KIND = {
    "find_isomorphism": lambda signed: find_isomorphism(signed, signed.complex),
    "is_isomorphic": lambda signed: is_isomorphic(signed.complex, signed),
    "find_z2_isomorphism": lambda signed: find_z2_isomorphism(signed, signed.complex),
    "replay_verify-plain-target": lambda signed: replay_verify(
        signed, random_z2_walk(signed, 0, 1)[1], signed.complex),
    "replay_verify-z2-target": lambda signed: replay_verify(
        signed.complex, _plain_sequence(signed), signed),
    "replay_verify-before-digests": lambda signed: replay_verify(
        signed.complex, _plain_sequence(simplex_boundary(3)), signed),
    "not-a-complex": lambda signed: find_isomorphism(signed.facets, signed.facets),
}


@pytest.mark.parametrize("call", WRONG_KIND.values(), ids=WRONG_KIND)
def test_isomorphisms_reject_the_other_kind(octahedron, call):
    with pytest.raises(TypeError):
        call(octahedron)


def _stacked_sphere():
    """A 2-sphere with the f-vector of the octahedron, but not isomorphic."""
    return simplex_boundary(3).stellar_subdivide((1, 2, 3), 5) \
        .stellar_subdivide((1, 2, 4), 6)


_SHORT_WALKS = [random_z2_walk(cross_polytope(3), steps, seed)[0].complex
                for steps in (1, 2, 3) for seed in range(6)]
# (left, right before relabelling): every complex against itself, and the
# stacked sphere against the octahedron; all have at most 8 vertices.
_ISO_PAIRS = [(cx, cx) for cx in (
    *(cross_polytope(k).complex for k in (2, 3, 4)),
    simplex_boundary(3), simplex_boundary(4),
    *(cx for cx in _SHORT_WALKS if len(cx.vertices) <= 8),
)] + [(_stacked_sphere(), cross_polytope(3).complex), (
    # 2-spheres with f = (8, 18, 12) and degrees (3, 3, 4, 4, 5, 5, 6, 6)
    SimplicialComplex.from_facets(
        [[1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 7], [1, 4, 6], [1, 5, 7],
         [2, 3, 4], [2, 3, 5], [2, 4, 8], [2, 6, 8], [3, 5, 7], [4, 6, 8]]),
    SimplicialComplex.from_facets(
        [[1, 3, 7], [1, 3, 8], [1, 4, 6], [1, 4, 7], [1, 5, 6], [1, 5, 8],
         [2, 3, 4], [2, 3, 5], [2, 4, 6], [2, 5, 6], [3, 4, 7], [3, 5, 8]]),
)]


@st.composite
def _relabelled(draw, cx):
    """``cx`` under a random signed permutation (one commuting with
    negation) or a random injection into ``±1..±n`` (which keeps, breaks
    or makes antipodal pairs)."""
    n = len(cx.vertices)
    if draw(st.booleans()):
        magnitudes = sorted({abs(v) for v in cx.vertices})
        image = draw(st.permutations(magnitudes))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        table = {m: s * w for m, w, s in zip(magnitudes, image, signs)}
        table.update({-m: -w for m, w in table.items()})
    else:
        pool = draw(st.permutations([v for k in range(1, n + 1) for v in (k, -k)]))
        table = dict(zip(cx.vertices, pool))
    return SimplicialComplex.from_facets([[table[v] for v in f] for f in cx.facets])


def _symmetric(cx):
    """``cx`` as a :class:`Z2Complex`, or None if negation does not act
    freely on it."""
    try:
        return Z2Complex.from_complex(cx)
    except (NotEquivariant, ActionNotFree):
        return None


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_isomorphism_matches_brute_force(data):
    # the signed case on the pairs that are both symmetric, as Z2Complexes
    left, right = data.draw(st.sampled_from(_ISO_PAIRS))
    right = data.draw(_relabelled(right))
    pairs = [(left, right)]
    if None not in (symmetric := (_symmetric(left), _symmetric(right))):
        pairs.append(symmetric)
    for left, right in pairs:
        signed = isinstance(left, Z2Complex)
        found = find_isomorphism(left, right)
        expected = naive_isomorphism(left.facets, right.facets, signed)
        assert (found is None) == (expected is None)
        if found is None:
            continue
        assert sorted(found) == list(left.vertices)
        assert {frozenset(found[v] for v in f) for f in left.facets} \
            == {frozenset(f) for f in right.facets}
        if signed:
            assert all((found[u] == -found[v]) == (u == -v)
                       for u in found for v in found)


@cache
def _large_spheres():
    """sd(∂C3), sd(∂C4) and walks of C3 and C4 of up to about 10^3 facets."""
    return [cross_polytope(3).equivariant_sd()[0].complex,
            cross_polytope(4).equivariant_sd()[0].complex,
            *(random_z2_walk(cross_polytope(k), steps, seed=1)[0].complex
              for k, steps in ((3, 200), (4, 100), (4, 250)))]


@given(case=st.integers(0, 4), rng=st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=500)  # milliseconds
def test_isomorphism_recovers_a_signed_relabelling(case, rng):
    cx = _large_spheres()[case]
    magnitudes = sorted({abs(v) for v in cx.vertices})
    image = rng.sample(magnitudes, len(magnitudes))
    table = {m: rng.choice((1, -1)) * w for m, w in zip(magnitudes, image)}
    table.update({-m: -w for m, w in table.items()})
    relabelled = SimplicialComplex.from_facets(
        [[table[v] for v in f] for f in cx.facets])
    for left, right in ((cx, relabelled), (Z2Complex.from_complex(cx),
                                           Z2Complex.from_complex(relabelled))):
        found = find_isomorphism(left, right)
        assert found is not None and sorted(found) == list(cx.vertices)
        assert {tuple(sorted(found[v] for v in f)) for f in cx.facets} \
            == set(relabelled.facets)
        if isinstance(left, Z2Complex):
            assert all(found[-v] == -found[v] for v in found)
            assert find_z2_isomorphism(left, right) == found


def test_flip_graph_finds_the_known_sphere_counts():
    # combinatorial types of triangulated 2-spheres on 4 to 8 vertices,
    # each reached from the tetrahedron boundary by plain flips
    classes, frontier = {4: [simplex_boundary(3)]}, [simplex_boundary(3)]
    while frontier:
        cx = frontier.pop()
        for move in enumerate_moves(cx):
            grown, _ = apply_move(cx, move)
            found = classes.setdefault(len(grown.vertices), [])
            if len(grown.vertices) <= 8 and not any(
                    is_isomorphic(grown, other) for other in found):
                found.append(grown)
                frontier.append(grown)
    assert {n: len(found) for n, found in classes.items() if n <= 8} \
        == {4: 1, 5: 1, 6: 2, 7: 5, 8: 14}


class TestBoundaryOfSimplex:
    def test_edge(self):
        assert boundary_of_simplex((1, 2)).facets == ((1,), (2,))

    def test_vertex(self):
        assert boundary_of_simplex((3,)).facets == ((),)

    def test_triangle(self):
        assert boundary_of_simplex((1, 2, 3)).f_vector().counts == (3, 3)

    def test_empty_simplex_raises(self):
        with pytest.raises(EmptyComplex, match="the empty simplex has no boundary"):
            boundary_of_simplex(())

    @given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=5,
                    unique=True))
    def test_facets_are_the_ridges(self, face):
        expected = tuple(sorted(combinations(sorted(face), len(face) - 1)))
        assert boundary_of_simplex(face).facets == expected


@given(st.sets(st.integers(-9, 9).filter(bool), min_size=1, max_size=5))
@settings(max_examples=60)
def test_membership_downward_closed(vertices):
    cx = SimplicialComplex.from_facets([vertices])
    for face in cx.faces():
        assert face in cx
        for v in face:
            assert tuple(x for x in face if x != v) in cx


# Each of these took a float, bool or str id as an int and answered.
STRICT_QUERIES = {
    "contains": lambda s: (True, 2.5) in s.complex,
    "facets_containing": lambda s: s.complex.facets_containing((1.0,)),
    "link": lambda s: s.complex.link((1.9,)),
    "z2_link": lambda s: s.link((1.9,)),
    "star": lambda s: s.complex.star(("1",)),
    "stellar_face": lambda s: s.complex.stellar_subdivide((1, 2.0), 7),
    "stellar_new_vertex": lambda s: s.complex.stellar_subdivide((1, 2), 7.9),
    "boundary_of_simplex": lambda s: boundary_of_simplex((1.5, 2.7)),
    "find_move": lambda s: find_move(s.complex, (1, 2, True)),
}


@pytest.mark.parametrize("query", STRICT_QUERIES.values(), ids=STRICT_QUERIES)
def test_queries_reject_non_int_ids(query):
    with pytest.raises(InvalidVertexId):
        query(cross_polytope(3))


# -- canonical facet lists against the all-pairs oracle ---------------------

FACE = st.lists(st.integers(1, 7), max_size=4, unique=True).map(
    lambda vs: tuple(sorted(vs)))


@st.composite
def face_lists(draw):
    """Mixed sizes with duplicates, nested faces (prefixes and suffixes
    of drawn faces, the empty face among them), or one size only."""
    faces = draw(st.lists(FACE, max_size=12))
    faces += [part for f in faces[:3] for k in range(len(f))
              for part in (f[:k], f[k + 1:])]
    faces += faces[:2]
    if draw(st.booleans()):
        size = draw(st.integers(0, 4))
        faces = [f for f in faces if len(f) == size]
    return draw(st.permutations(faces))


@given(face_lists())
@example([()])
@example([(), (1,)])
@example([(1, 2), (2,), (1, 2, 3), (3,)])
@settings(max_examples=200)
def test_canonical_facets_matches_oracle(faces):
    assert _canonical_facets(faces) == naive_canonical_facets(faces)


@given(st.lists(st.frozensets(st.integers(1, 7), min_size=1, max_size=4),
                min_size=2, max_size=8),
       st.data())
@settings(max_examples=80)
def test_operations_on_non_pure_complexes_match_oracle(sets, data):
    raw = [tuple(sorted(f)) for f in sets]
    cx = SimplicialComplex.from_facets(raw)
    assert cx.facets == naive_canonical_facets(raw)
    facets = cx.facets
    face = data.draw(st.sampled_from(cx.faces()))
    fs = set(face)
    star = [f for f in facets if fs <= set(f)]
    assert cx.star(face).facets == naive_canonical_facets(star)
    link = [tuple(v for v in f if v not in fs) for f in star]
    assert cx.link(face).facets == naive_canonical_facets(link)
    other = [tuple(v + 10 for v in f) for f in facets[:3]]
    joined = [tuple(sorted(f + g)) for f in facets for g in other]
    assert (cx.join(SimplicialComplex.from_facets(other)).facets
            == naive_canonical_facets(joined))
    subdivided = [f for f in facets if f not in star] + [
        tuple(sorted((fs - {drop}) | (set(f) - fs) | {20}))
        for f in star for drop in face]
    assert (cx.stellar_subdivide(face, 20).facets
            == naive_canonical_facets(subdivided))
