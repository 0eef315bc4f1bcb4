"""Centrally symmetric structure: validation, subdivision, quotients."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistellar import (
    ActionNotFree,
    BistellarMove,
    NotEquivariant,
    QuotientRequiresSubdivision,
    SimplicialComplex,
    Z2Complex,
    antipode,
    apply_move,
    cross_polytope,
    enumerate_moves,
    find_isomorphism,
    find_move,
    is_isomorphic,
    random_z2_walk,
    reduce_to_boundary_simplex,
    simplex_boundary,
)
from bistellar.cli import complex_document, dumps_canonical, parse_complex_document
from conftest import (
    kuhn_torus,
    naive_f_vector,
    naive_quotient_is_simplicial,
    naive_z2_error,
)


class TestAntipode:
    def test_mixed_signs(self):
        assert antipode((1, -2, 3)) == (-3, -1, 2)

    def test_empty(self):
        assert antipode(()) == ()

    @given(st.sets(st.integers(-20, 20).filter(bool), max_size=8))
    def test_involution(self, face):
        face = tuple(sorted(face))
        assert antipode(antipode(face)) == face


class TestMakeSigned:
    def test_octahedron_valid(self, octahedron):
        # built from the plain complex or from a Z2Complex, .complex is plain
        for source in (octahedron.complex, octahedron):
            for again in (Z2Complex(source), Z2Complex.from_complex(source)):
                assert type(again.complex) is SimplicialComplex
                assert again.complex == octahedron.complex
                assert enumerate_moves(again.complex) == \
                    enumerate_moves(octahedron.complex)

    def test_antipodal_pair_in_facet(self):
        cx = SimplicialComplex.from_facets([[1, -1]])
        with pytest.raises(ActionNotFree):
            Z2Complex.from_complex(cx)

    def test_missing_antipodal_facet(self):
        cx = SimplicialComplex.from_facets([[1, 2]])
        with pytest.raises(NotEquivariant):
            Z2Complex.from_complex(cx)

    @pytest.mark.parametrize("facets, error, message", [
        (simplex_boundary(3).facets, NotEquivariant,
         r"facet \(1, 2, 3\) has no antipodal facet"),
        ([[-1, 1, 2], [-2, -1, 1]],
         ActionNotFree, r"facet \(-2, -1, 1\) contains the antipodal pair ±1"),
    ], ids=["not-equivariant", "not-free"])
    def test_the_constructor_checks_a_raw_complex(self, facets, error, message):
        # so quotient() and MoveIndex never meet an unchecked Z2Complex
        with pytest.raises(error, match=message):
            Z2Complex(SimplicialComplex.from_facets(facets))

    @given(faces=st.lists(st.sets(st.integers(-4, 4).filter(bool), min_size=1,
                                  max_size=4), min_size=1, max_size=8),
           closed=st.booleans())
    def test_matches_the_facet_by_facet_check(self, faces, closed):
        # the column check, on pure and mixed-size facets, accepts what the
        # facet-by-facet loop accepts and names the same first offender
        if closed:
            faces += [{-v for v in f} for f in faces]
        facets = [sorted(f) for f in faces]
        cx = SimplicialComplex.from_facets(facets)
        expected = naive_z2_error(cx.facets)
        # every way in meets the one check in the constructor
        text = dumps_canonical({"facets": facets, "z2": True})
        for build in (Z2Complex, Z2Complex.from_complex,
                      lambda cx: Z2Complex.from_facets(facets),
                      lambda cx: parse_complex_document(text)[1]):
            try:
                build(cx)
                outcome = None
            except (NotEquivariant, ActionNotFree) as exc:
                outcome = (type(exc).__name__, str(exc))
            assert outcome == expected

    def test_every_face_has_antipode(self, octahedron, four_cycle):
        for signed in (octahedron, four_cycle):
            for face in signed.complex.faces():
                assert antipode(face) in signed.complex
                assert not set(face) & set(antipode(face))

    def test_link_commutes_with_antipode(self, octahedron):
        cx = octahedron.complex
        for face in cx.faces():
            mirrored = SimplicialComplex(
                tuple(sorted(antipode(f) for f in cx.link(face).facets)))
            assert mirrored == cx.link(antipode(face))


class TestEquivariantSubdivision:
    def test_four_cycle_to_eight_cycle(self, four_cycle):
        sd, face_map = four_cycle.equivariant_sd()
        assert sd.f_vector().counts == (8, 8)
        for v in sd.vertices:
            assert -v in set(sd.vertices)
            assert face_map[-v] == antipode(face_map[v])

    def test_octahedron_counts_and_validity(self, octahedron):
        sd, _ = octahedron.equivariant_sd()
        assert sd.f_vector().counts == (26, 72, 48)
        Z2Complex.from_complex(sd.complex)  # must validate cleanly

    def test_twice_on_four_cycle(self, four_cycle):
        once, _ = four_cycle.equivariant_sd()
        twice, _ = once.equivariant_sd()
        assert twice.f_vector().counts == (16, 16)
        Z2Complex.from_complex(twice.complex)

    @pytest.mark.parametrize("source", ["C2", "C3", "C4", "four_cycle",
                                        "walked-C3-1", "walked-C3-2"])
    def test_one_naming_loop_for_both_kinds(self, source, request):
        if source.startswith("walked"):
            signed, _ = random_z2_walk(cross_polytope(3), 15, seed=int(source[-1]))
        elif source.startswith("C"):
            signed = cross_polytope(int(source[1]))
        else:
            signed = request.getfixturevalue(source)
        start = max(map(abs, signed.vertices)) + 1
        order = sorted(signed.faces(), key=lambda f: (-len(f), f))[:-len(signed.vertices)]

        sd, face_map = signed.equivariant_sd()
        named = {v: f for v, f in face_map.items() if v not in signed.vertices}
        positive = sorted(v for v in named if v > 0)
        # ids rise from max|v| + 1, the smaller face of a pair takes +id and
        # its antipode -id, pairs in order of non-increasing dimension, then
        # lexicographic, as that order meets their smaller faces
        assert positive == list(range(start, start + len(order) // 2))
        assert sorted(named) == sorted(positive + [-v for v in positive])
        assert [named[v] for v in positive] == [f for f in order if f < antipode(f)]
        assert all(named[-v] == antipode(named[v]) for v in positive)
        assert signed.barycentric_subdivide() == (sd.complex, face_map)

        # on the plain complex every face gets its own positive id, in that order
        plain, plain_map = signed.complex.barycentric_subdivide()
        assert plain_map == {**{v: (v,) for v in signed.vertices},
                             **{start + i: f for i, f in enumerate(order)}}
        assert type(plain) is SimplicialComplex
        assert is_isomorphic(plain, sd.complex)

    def test_same_complex_as_plain_subdivision(self, octahedron):
        plain, _ = octahedron.complex.barycentric_subdivide()
        signed, _ = octahedron.equivariant_sd()
        assert is_isomorphic(plain, signed.complex)


class TestQuotient:
    def test_requires_subdivision(self, octahedron):
        with pytest.raises(QuotientRequiresSubdivision,
                           match=r"^vertex -3 is adjacent to both ±2; "):
            octahedron.quotient()

    def test_read_back_subdivision_quotients(self, octahedron):
        # a file keeps the structure but not where it came from, so a
        # provenance flag would refuse this complex
        sd, _ = octahedron.equivariant_sd()
        text = dumps_canonical(complex_document(sd.complex, z2=True))
        _, signed, _ = parse_complex_document(text)
        assert signed == sd
        quotient, _ = signed.quotient()
        assert quotient.f_vector().counts == (13, 36, 24)

    @pytest.mark.parametrize("dimension, halved", [
        (2, (18, 54, 36)), (3, (108, 756, 1296, 648))])
    def test_kuhn_tori_quotient_to_tori(self, dimension, halved):
        # the shift by 3 moves every vertex 3 grid steps away, so no vertex
        # is adjacent to both ±w and the tori quotient without subdivision
        torus = kuhn_torus(dimension)
        quotient, _ = torus.quotient()
        assert quotient.f_vector().counts == halved
        assert halved == tuple(c // 2 for c in torus.f_vector().counts)
        assert quotient.euler_characteristic() == 0

    def test_a_walk_of_the_subdivision_is_refused(self, octahedron):
        sd, _ = octahedron.equivariant_sd()
        walked, _ = random_z2_walk(sd, 40, seed=1)
        with pytest.raises(QuotientRequiresSubdivision, match=r"^vertex -?\d+ is adj"):
            walked.quotient()

    @settings(max_examples=60, deadline=None)
    @given(source=st.sampled_from(["C3", "C4", "sd-C3"]), steps=st.integers(0, 30),
           seed=st.integers(0, 99))
    def test_matches_the_image_count(self, source, steps, seed):
        # the edge check accepts exactly the complexes whose faces, antipodal
        # pairs aside, keep apart in the quotient; a refusal names a vertex
        # with both ±w among its neighbours
        start = cross_polytope(4) if source == "C4" else cross_polytope(3)
        if source == "sd-C3":
            start, _ = start.equivariant_sd()
        walked, _ = random_z2_walk(start, steps, seed)
        try:
            quotient, _ = walked.quotient()
        except QuotientRequiresSubdivision as exc:
            assert not naive_quotient_is_simplicial(walked.facets)
            u, w = map(int, re.match(r"vertex (-?\d+) is adjacent to both ±(\d+)",
                                     str(exc)).groups())
            assert {tuple(sorted((u, w))), tuple(sorted((u, -w)))} <= set(walked.faces(1))
        else:
            assert naive_quotient_is_simplicial(walked.facets)
            halved = tuple(c // 2 for c in walked.f_vector().counts)
            assert naive_f_vector(quotient.facets) == halved

    def test_octahedron_gives_projective_plane(self, octahedron):
        sd, _ = octahedron.equivariant_sd()
        quotient, projection = sd.quotient()
        assert quotient.f_vector().counts == (13, 36, 24)
        assert quotient.euler_characteristic() == 1
        assert all(projection[v] == abs(v) for v in sd.vertices)

    def test_four_cycle_gives_circle(self, four_cycle):
        sd, _ = four_cycle.equivariant_sd()
        quotient, _ = sd.quotient()
        assert quotient.euler_characteristic() == 0
        assert is_isomorphic(quotient, four_cycle.complex)

    def test_dimension_three_gives_projective_space(self):
        sd, _ = cross_polytope(4).equivariant_sd()
        assert sd.f_vector().counts == (80, 464, 768, 384)
        quotient, _ = sd.quotient()
        assert quotient.f_vector().counts == (40, 232, 384, 192)
        assert quotient.euler_characteristic() == 0

    def test_halves_every_entry(self, octahedron, four_cycle):
        for signed in (four_cycle, octahedron, cross_polytope(4)):
            sd, _ = signed.equivariant_sd()
            quotient, _ = sd.quotient()
            halved = tuple(c // 2 for c in sd.f_vector().counts)
            assert quotient.f_vector().counts == halved
            assert naive_f_vector(quotient.facets) == halved

    def test_quotient_links_match_preimage_links(self, octahedron):
        sd, _ = octahedron.equivariant_sd()
        quotient, projection = sd.quotient()
        for v in sd.vertices:
            if v < 0:
                continue
            assert is_isomorphic(quotient.link((projection[v],)),
                                 sd.complex.link((v,)))


class TestIsASimplicialComplex:
    """A Z2Complex is a SimplicialComplex carrying the involution: it answers
    every inherited query as its ``.complex`` does, yet never equals it, and
    the plain entry points still refuse it."""

    @pytest.fixture(params=["four_cycle", "octahedron", "walked", "subdivided"])
    def signed(self, request, octahedron):
        if request.param == "walked":
            return random_z2_walk(octahedron, 12, seed=5)[0]
        if request.param == "subdivided":
            return octahedron.equivariant_sd()[0]
        return request.getfixturevalue(request.param)

    def test_subclass(self):
        assert issubclass(Z2Complex, SimplicialComplex)

    def test_inherited_queries_match_the_plain_complex(self, signed):
        plain = signed.complex
        assert signed.vertices == plain.vertices
        assert signed.faces() == plain.faces()
        assert signed.f_vector() == plain.f_vector()
        assert signed.is_pure() == plain.is_pure()
        for v in plain.vertices:
            assert signed.link((v,)) == plain.link((v,))

    def test_never_equal_to_its_plain_complex(self):
        signed = cross_polytope(3)
        assert signed != signed.complex and not signed == signed.complex
        assert signed.complex != signed and not signed.complex == signed
        assert signed == cross_polytope(3)
        assert repr(signed) == "Z2Complex(dim=2, f=(6, 12, 8))"
        assert repr(signed.complex) == "SimplicialComplex(dim=2, f=(6, 12, 8))"
        for kind in (lambda cx: cx, lambda cx: cx.complex):
            left, right = kind(signed), kind(cross_polytope(3))
            assert left == right and hash(left) == hash(right)
            assert {left: "found"}[right] == "found"
        assert len({signed: 0, signed.complex: 1}) == 2  # one hash, not equal

    @pytest.mark.parametrize("call", [
        lambda cx: find_isomorphism(cx, cx.complex),
        lambda cx: find_isomorphism(cx.complex, cx),
        lambda cx: reduce_to_boundary_simplex(cx, budget=1),
        lambda cx: enumerate_moves(cx),
        lambda cx: apply_move(cx, BistellarMove((1, 2, 3), (4,))),
        lambda cx: find_move(cx, (1, 2, 3)),
    ], ids=["find_isomorphism", "find_isomorphism-right", "reduce_to_boundary_simplex",
            "enumerate_moves", "apply_move", "find_move"])
    def test_plain_entry_points_refuse_it(self, octahedron, call):
        with pytest.raises(TypeError):
            call(octahedron)

    def test_other_subclasses_count_as_plain(self, octahedron):
        class Tagged(SimplicialComplex):
            pass

        tagged = Tagged(octahedron.facets)
        assert find_isomorphism(tagged, octahedron.complex) == {
            v: v for v in octahedron.vertices}

        class Signed(Z2Complex):  # and subclasses of Z2Complex as signed
            pass

        walked, _ = random_z2_walk(cross_polytope(3), 6, seed=2)
        for left, right in ((Signed(walked.complex), walked),
                            (Signed(octahedron.complex), cross_polytope(3))):
            mapping = find_isomorphism(left, right)
            assert mapping is not None
            assert all(mapping[-v] == -w for v, w in mapping.items())
            with pytest.raises(TypeError):
                find_isomorphism(left, right.complex)
            with pytest.raises(TypeError):
                find_isomorphism(right.complex, left)

    def test_from_facets_validates_the_involution(self):
        rows = [list(f) for f in cross_polytope(3).facets]
        assert Z2Complex.from_facets(reversed(rows)) == cross_polytope(3)
        with pytest.raises(NotEquivariant):
            Z2Complex.from_facets(rows[1:])
