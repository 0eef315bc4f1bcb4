"""The incremental move index against its from-scratch definitions.

Hypothesis drives plain and symmetric walks; after every flip the index's
move list must equal a fresh enumeration, the naive oracle and, for
symmetric complexes, the antipodal-pair filter that the index replaced.
The complex it keeps must equal the naive flip of the one before, with
the right fresh id, its f-vector must equal a naive count, the facets
``apply`` reports removed and added must be exactly the difference, and a
symmetric one must still validate: the index checks moves only against the
complex it starts from.  It must keep the facets containing every face,
and a link for every face whose link is a simplex boundary; a symmetric
index keeps both for the smaller face of each antipodal pair only.
Rewound through inverse moves, the index must equal one built afresh at
that earlier state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistellar import (
    BistellarMove,
    MoveIndex,
    SimplicialComplex,
    Z2Complex,
    antipode,
    cross_polytope,
    enumerate_moves,
    enumerate_z2_moves,
    fresh_vertex,
    simplex_boundary,
)
from conftest import (
    naive_admissible_moves,
    naive_cofacets,
    naive_f_vector,
    naive_flip,
    naive_link_simplices,
    naive_star,
)

choices = st.lists(st.integers(0, 10**6), min_size=1, max_size=25)


def old_z2_filter(moves):
    """Symmetric representatives, chosen by building each antipodal move."""
    out = []
    for m in moves:
        ins = set(m.inserted)
        if any(-v in ins for v in ins):
            continue
        anti = m.antipodal()
        if (m.removed, m.inserted) <= (anti.removed, anti.inserted):
            out.append(m)
    return out


def naive_pairs(moves, dimension):
    return [(m.removed, "fresh" if len(m.removed) == dimension + 1 else m.inserted)
            for m in moves]


def check_index(index, before=None, move=None):
    """Check ``index`` against its definitions; with the facets ``before``
    and the ``move`` just applied, also against the naive flip."""
    listed = list(index)
    cx = SimplicialComplex(index.state.facets)  # the facets, without the involution
    assert index._facets == set(cx.facets)
    assert index.f_vector() == naive_f_vector(cx.facets)
    assert index.fresh == fresh_vertex(cx)
    if index.z2:
        Z2Complex.from_complex(cx)
    if move is not None:
        assert cx.facets == naive_flip(before, move, symmetric=index.z2)
    plain = enumerate_moves(cx)
    oracle = naive_admissible_moves(cx.facets)
    if index.z2:
        assert listed == old_z2_filter(plain)
        assert listed == enumerate_z2_moves(index.state)
        oracle = [(a, b) for a, b in oracle if a < antipode(a)
                  and (b == "fresh" or set(b).isdisjoint(antipode(b)))]
    else:
        assert listed == plain
    assert naive_pairs(listed, cx.dimension) == oracle
    assert listed == sorted(listed, key=lambda m: (len(m.removed), m.removed,
                                                   m.inserted))
    delta, count = index.lowest()
    assert [m.facet_delta() for m in listed[:count + 1]].count(delta) == count
    assert delta == min(m.facet_delta() for m in listed)
    # the faces kept, against the definition rather than a rebuilt index:
    # cofacets for every face and links for every face whose link simplex
    # exists, on a symmetric index for the smaller face of each antipodal
    # pair only; owners are filed under that face of the link's pair
    kept = (lambda a: min(a, antipode(a))) if index.z2 else (lambda a: a)
    cofacets = {a: b for a, b in naive_cofacets(cx.facets).items() if kept(a) == a}
    assert {a: sorted(b) for a, b in index._cofacets.items()} == cofacets
    links = {a: b for a, b in naive_link_simplices(cx.facets).items() if kept(a) == a}
    assert index._links == links
    owners = {}
    for a, b in links.items():
        if b:
            owners.setdefault(kept(b), []).append(a)
    assert {k: sorted(v) for k, v in index._owners.items()} \
        == {k: sorted(v) for k, v in owners.items()}
    rebuilt = MoveIndex(index.state)
    assert list(rebuilt) == listed
    assert rebuilt._links == index._links
    assert {k: sorted(v) for k, v in rebuilt._owners.items()} \
        == {k: sorted(v) for k, v in index._owners.items()}


def walk_and_check(start, picks):
    index = MoveIndex(start)
    check_index(index)
    log, facets = [], [index.state.facets]
    for pick in picks:
        move = index[pick % len(index)]
        before = index.state.facets
        gone, added = index.apply(move)
        check_index(index, before, move)
        after = set(index.state.facets)
        assert sorted(gone) == sorted(set(before) - after)
        assert sorted(added) == sorted(after - set(before))
        log.append(move)
        facets.append(index.state.facets)
        if pick % 5 == 0:
            # rewind through inverse moves to an earlier length, as a
            # search does on a restart
            del facets[(pick // 5) % len(facets) + 1:]
            while len(log) >= len(facets):
                index.apply(log.pop().inverse())
            check_index(index)
            assert index.state.facets == facets[-1]


@pytest.mark.parametrize("base", [simplex_boundary(3), simplex_boundary(4)],
                         ids=["tetrahedron", "4-simplex"])
@given(picks=choices)
@settings(max_examples=25, deadline=None)
def test_plain_walks_keep_index_exact(base, picks):
    walk_and_check(base, picks)


@pytest.mark.parametrize("base", [cross_polytope(3), cross_polytope(4)],
                         ids=["octahedron", "cross-4"])
@given(picks=choices)
@settings(max_examples=25, deadline=None)
def test_symmetric_walks_keep_index_exact(base, picks):
    walk_and_check(base, picks)


def test_blocked_face_is_released_when_its_simplex_goes():
    # In the tetrahedron boundary every edge is blocked: the edge spanned
    # by its link is present.  After a facet split, flipping edge (1, 2)
    # away releases edge (3, 4), whose own star the flip does not touch;
    # only the map from simplices to the faces that would insert them
    # finds it.  The inverse flip creates edge (1, 2) again and must block
    # edge (3, 4) again, though that star stays the same once more.
    index = MoveIndex(simplex_boundary(3))
    assert all(len(m.removed) == 3 for m in list(index))
    index.apply(BistellarMove((1, 2, 3), (5,)))
    edges = [m for m in list(index) if len(m.removed) == 2]
    assert [(m.removed, m.inserted) for m in edges] == \
        [((1, 2), (4, 5)), ((1, 3), (4, 5)), ((2, 3), (4, 5))]
    star = [f for f in naive_star(index.state.facets, 3) if 4 in f]
    move = BistellarMove((1, 2), (4, 5))
    index.apply(move)
    assert BistellarMove((3, 4), (1, 2)) in list(index)
    check_index(index)
    index.apply(move.inverse())
    assert [f for f in naive_star(index.state.facets, 3) if 4 in f] == star
    assert BistellarMove((3, 4), (1, 2)) not in list(index)
    check_index(index)


def test_blocked_face_is_released_when_the_larger_simplex_goes():
    # The symmetric analogue: splitting a facet of the octahedron (and its
    # antipode) leaves edge (-4, -1) with link {-2, 3}, and edge (-2, 3) is
    # present, the larger face of its pair, so the index keeps it as
    # (-3, 2).  Flipping edge (-3, 2) away flips (-2, 3) away with it and
    # releases (-4, -1), whose star the pair does not touch.  The inverse
    # pair creates (-2, 3) again and must block (-4, -1) again.
    index = MoveIndex(cross_polytope(3))
    index.apply(BistellarMove((-3, 1, 2), (4,)))
    star = [f for f in naive_star(index.state.facets, -4) if -1 in f]
    assert (-2, 3) in index.state
    assert BistellarMove((-4, -1), (-2, 3)) not in list(index)
    move = BistellarMove((-3, 2), (-1, 4))
    index.apply(move)
    assert (-2, 3) not in index.state
    assert [f for f in naive_star(index.state.facets, -4) if -1 in f] == star
    assert BistellarMove((-4, -1), (-2, 3)) in list(index)
    check_index(index)
    index.apply(move.inverse())
    assert (-2, 3) in index.state
    assert [f for f in naive_star(index.state.facets, -4) if -1 in f] == star
    assert BistellarMove((-4, -1), (-2, 3)) not in list(index)
    check_index(index)


@pytest.mark.parametrize("base", [cross_polytope(3), cross_polytope(4)],
                         ids=["octahedron", "cross-4"])
@given(picks=choices)
@settings(max_examples=15, deadline=None)
def test_either_half_of_a_pair_applies_it(base, picks):
    # A symmetric index checks and files a pair under the half that removes
    # the smaller face; given the other half it must do the same.  The
    # inverse of one of the two halves removes the larger face, as every
    # rewind of a move with a fresh vertex does.
    index = MoveIndex(base)
    for pick in picks:
        move = index[pick % len(index)]
        results = []
        for half in (move, move.antipodal()):
            fresh = MoveIndex(index.state)
            if pick % 2:
                list(fresh)  # so that the flip also rechecks listed faces
            gone, added = fresh.apply(half)
            results.append((fresh.state, fresh.f_vector(), fresh.fresh, list(fresh),
                            sorted(gone), sorted(added)))
            fresh.apply(half.inverse())
            assert fresh.state == index.state
            assert list(fresh) == list(index)
        assert results[0] == results[1]
        index.apply(move)


def test_reads_past_the_end():
    index = MoveIndex(simplex_boundary(3))
    assert len(index) == 4
    for position in (len(index), -1):
        with pytest.raises(IndexError):
            index[position]
