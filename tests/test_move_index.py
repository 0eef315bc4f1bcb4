"""The incremental move index against its from-scratch definitions.

Hypothesis drives plain and symmetric walks; after every flip the index's
move list must equal a fresh enumeration, the naive oracle and, for
symmetric complexes, the antipodal-pair filter that the index replaced.
The complex it keeps must equal the naive flip of the one before, with
the right fresh id, its f-vector must equal a naive count, the facets
that ``_replaced`` derives from the move alone must be exactly the
difference, forward and rewinding, and a symmetric one must still
validate: the index checks moves only against the complex it starts from.  It must keep the facets containing every face,
and a link for every face whose link is a simplex boundary; a symmetric
index keeps both for the smaller face of each antipodal pair only.
Rewound through inverse moves, the index must equal one built afresh at
that earlier state.  Walks run in dimensions 1 to 4, so every flip plan
size from 3 to 6 vertices is used.  A flip must file or recheck every face
whose link or listing changes; the faces that it files, which enter or
leave, must be those of the union containing ``inserted`` or ``removed``,
with the links the move gives them and the listing its plan marks, and it
must derive no link for them.
"""

from itertools import chain, combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistellar import (
    BistellarError,
    BistellarMove,
    MoveIndex,
    SimplicialComplex,
    Z2Complex,
    antipode,
    boundary_of_simplex,
    cross_polytope,
    enumerate_moves,
    enumerate_z2_moves,
    fresh_vertex,
    simplex_boundary,
)
from bistellar import moves
from bistellar.moves import _flip_plan, _replaced
from conftest import (
    naive_admissible_moves,
    naive_canonical_facets,
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
    assert cx.facets == naive_canonical_facets(cx.facets)  # read from the cofacets
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
    assert [index[p] for p in range(-len(listed), 0)] == listed
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


def apply_replacing(index, move):
    """Apply ``move``, which returns None, and check that ``_replaced``
    names exactly the facets that left and entered the state."""
    gone, added = _replaced(move, index.z2)
    before = set(index.state.facets)
    assert index.apply(move) is None
    after = set(index.state.facets)
    assert sorted(gone) == sorted(before - after)
    assert sorted(added) == sorted(after - before)


def walk_and_check(start, picks):
    index = MoveIndex(start)
    check_index(index)
    log, facets = [], [index.state.facets]
    for pick in picks:
        move = index[pick % len(index)]
        before = index.state.facets
        apply_replacing(index, move)
        check_index(index, before, move)
        log.append(move)
        facets.append(index.state.facets)
        if pick % 5 == 0:
            # rewind through inverse moves to an earlier length, as a
            # search does on a restart
            del facets[(pick // 5) % len(facets) + 1:]
            while len(log) >= len(facets):
                apply_replacing(index, log.pop().inverse())
            check_index(index)
            assert index.state.facets == facets[-1]


# On a closed pseudomanifold a face with as many cofacets as its move needs
# has a simplex boundary as its link.  The disk, pure but not closed, has a
# vertex (5) in three facets whose other vertices (1, 2, 3, 4) span no such
# simplex, so the index must not list a move removing it.
@pytest.mark.parametrize("base", [simplex_boundary(2), simplex_boundary(3),
                                  simplex_boundary(4),
                                  SimplicialComplex.from_facets(
                                      [[1, 2, 5], [2, 3, 5], [3, 4, 5]])],
                         ids=["triangle", "tetrahedron", "4-simplex", "disk"])
@given(picks=choices)
@settings(max_examples=25, deadline=None)
def test_plain_walks_keep_index_exact(base, picks):
    walk_and_check(base, picks)


@pytest.mark.parametrize("base", [cross_polytope(2), cross_polytope(3),
                                  cross_polytope(4)],
                         ids=["square", "octahedron", "cross-4"])
@given(picks=choices)
@settings(max_examples=25, deadline=None)
def test_symmetric_walks_keep_index_exact(base, picks):
    walk_and_check(base, picks)


@pytest.mark.parametrize("base", [simplex_boundary(5), cross_polytope(5)],
                         ids=["5-simplex", "cross-5"])
@given(picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
@settings(max_examples=8, deadline=None)
def test_walks_keep_index_exact_in_dimension_4(base, picks):
    # the naive oracles are slow on 4-spheres, so these walks are short
    walk_and_check(base, picks)


def naive_listing(facets, z2):
    """Each kept face with a link simplex, mapped to that simplex and
    whether the face is listed."""
    kept = (lambda a: min(a, antipode(a))) if z2 else (lambda a: a)
    listed = {a for a, b in naive_admissible_moves(facets)
              if not z2 or b == "fresh" or set(b).isdisjoint(antipode(b))}
    return {a: (b, a in listed) for a, b in naive_link_simplices(facets).items()
            if kept(a) == a}


class RecordingChain:
    """Stands in for ``itertools.chain`` in :mod:`bistellar.moves`, which
    only ``_flip`` uses during ``apply``, and keeps the face list it lays
    out per half."""

    made = []

    @classmethod
    def from_iterable(cls, iterable):
        cls.made.append([*chain.from_iterable(iterable)])
        return cls.made[-1]


@pytest.mark.parametrize("base", [simplex_boundary(2), simplex_boundary(3),
                                  cross_polytope(3), cross_polytope(4)],
                         ids=["triangle", "tetrahedron", "octahedron", "cross-4"])
@given(picks=choices)
@settings(max_examples=15, deadline=None)
def test_a_flip_rechecks_every_face_it_changes(base, picks):
    # A flip files the faces that enter or leave from its plan, and rechecks
    # only the faces that stay whose cofacet count was or is the one a link
    # needs and those waiting on ``removed`` or ``inserted``; every face whose
    # link or listing differs must be among them.  The plan sorts the union's
    # proper faces into those that enter, leave or stay, each position once:
    # those that enter or leave are the faces of the union (and its antipode)
    # containing ``inserted`` or ``removed``, the link filed for one that
    # enters is the plan's own tuple for the rest of the union (``()`` for a
    # facet), a face that comes or goes is marked listed exactly when it is
    # listed after or before the flip, and the face counts change by the
    # plan's delta, once for a symmetric pair.
    index = MoveIndex(base)
    len(index)  # list it, so that each flip files and rechecks
    rechecked, recheck = [], index._recheck
    index._recheck = lambda faces: (rechecked.extend(faces), recheck(faces))
    kept = (lambda a: min(a, antipode(a))) if index.z2 else (lambda a: a)
    for pick in picks:
        move = index[pick % len(index)]
        before, keys = naive_listing(index.state.facets, index.z2), set(index._cofacets)
        counts = list(index._f)
        rechecked.clear()
        RecordingChain.made.clear()
        with patch.object(moves, "chain", RecordingChain):
            index.apply(move)
        after = naive_listing(index.state.facets, index.z2)
        entered, left = set(index._cofacets) - keys, keys - set(index._cofacets)
        assert {a for a in before.keys() | after.keys()
                if before.get(a) != after.get(a)} <= entered | left | set(rechecked)
        union = sorted(move.removed + move.inserted)
        faces = [f for k in range(1, len(union)) for f in combinations(union, k)]
        planned = {"enters": set(), "leaves": set()}
        assert len(RecordingChain.made) == 1 + index.z2
        for half, proper in zip((move, move.antipodal()), RecordingChain.made):
            u = sorted(half.removed + half.inserted)
            assert proper == [f for k in range(1, len(u)) for f in combinations(u, k)]
            enters, leaves, stays, delta = _flip_plan(len(u), tuple(map(u.index, half.inserted)))
            assert sorted(entry[0] for entry in enters + leaves + stays) \
                == list(range(len(proper)))
            assert [b - a for a, b in zip(counts, index._f)] == list(delta)
            for p, need, joined, listed in enters:
                face = proper[p]
                if kept(face) != face:
                    continue
                planned["enters"].add(face)
                filed = index._links[face]
                assert filed == index._link_simplex(face)
                assert (filed is proper[~p]) if need > 1 else filed == ()
                assert listed == after[face][1]
            for p, listed in leaves:
                face = proper[p]
                if kept(face) == face:
                    planned["leaves"].add(face)
                    assert listed == before[face][1]
        entering = {kept(f) for f in faces if set(move.inserted) <= set(f)}
        leaving = {kept(f) for f in faces if set(move.removed) <= set(f)}
        assert entering == entered == planned["enters"]
        assert leaving == left == planned["leaves"]


@pytest.mark.parametrize("base", [simplex_boundary(3), simplex_boundary(4),
                                  cross_polytope(3), cross_polytope(4)],
                         ids=["tetrahedron", "4-simplex", "octahedron", "cross-4"])
@given(picks=choices)
@settings(max_examples=15, deadline=None)
def test_a_flip_derives_no_link_of_a_face_it_creates_or_destroys(base, picks):
    # The move alone fixes the links of the faces that enter or leave, so
    # applying it to a listed index derives a link from cofacets only to check
    # it, for the removed face, and then for the faces it rechecks.
    index = MoveIndex(base)
    len(index)
    derived, link_simplex = [], index._link_simplex
    index._link_simplex = lambda face: (derived.append(face), link_simplex(face))[1]
    for pick in picks:
        move = index[pick % len(index)]
        keys = set(index._cofacets)
        derived.clear()
        index.apply(move)
        assert derived[0] == move.removed
        assert (keys ^ set(index._cofacets)).isdisjoint(derived[1:])


@pytest.mark.parametrize("base", [simplex_boundary(3), cross_polytope(3),
                                  cross_polytope(4)],
                         ids=["tetrahedron", "octahedron", "cross-4"])
@given(picks=choices)
@settings(max_examples=15, deadline=None)
def test_an_index_given_a_walks_moves_lists_what_a_rebuilt_one_lists(base, picks):
    # An index that is only given a walk's moves, and read only at the end,
    # must list the moves, links and owners of an index built afresh on its
    # state.
    walker, replayed = MoveIndex(base), MoveIndex(base)
    for pick in picks:
        move = walker[pick % len(walker)]
        walker.apply(move)
        replayed.apply(move)
    rebuilt = MoveIndex(replayed.state)
    assert list(replayed) == list(rebuilt) == list(walker)
    assert replayed._links == rebuilt._links
    assert {k: sorted(v) for k, v in replayed._owners.items()} \
        == {k: sorted(v) for k, v in rebuilt._owners.items()}


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
            fresh.apply(half)
            results.append((fresh.state, fresh.f_vector(), fresh.fresh, list(fresh),
                            *map(sorted, _replaced(half, True))))
            fresh.apply(half.inverse())
            assert fresh.state == index.state
            assert list(fresh) == list(index)
        assert results[0] == results[1]
        index.apply(move)


@pytest.mark.parametrize("base", [simplex_boundary(4), cross_polytope(4)],
                         ids=["4-simplex", "cross-4"])
@given(picks=choices)
@settings(max_examples=15, deadline=None)
def test_a_position_gives_the_facet_delta_of_its_move(base, picks):
    # A search reads the facet delta of the move it tries by position and
    # builds the move only if it takes it; a negative position counts from
    # the end.
    index = MoveIndex(base)
    for pick in picks:
        listed = list(index)
        deltas = [m.facet_delta() for m in listed]
        assert [index.facet_delta(p) for p in range(-len(listed), len(listed))] \
            == deltas + deltas
        assert index.lowest() == (min(deltas), deltas.count(min(deltas)))
        index.apply(listed[pick % len(listed)])


def test_reads_past_the_end():
    # A negative position counts from the end, as in a list; the error for a
    # position out of range names it and the number of moves.
    for base in (simplex_boundary(3), cross_polytope(3)):
        index = MoveIndex(base)
        listed = list(index)
        assert len(index) == len(listed) == 4
        assert [index[p] for p in range(-4, 0)] == listed
        for position in (4, 10, -5):
            with pytest.raises(IndexError) as raised:
                index[position]
            assert str(raised.value) == \
                f"position {position} is out of range for 4 moves"
    # the (-1)-sphere has no vertex, so no move, and no index is built on it
    with pytest.raises(BistellarError, match="with a vertex"):
        MoveIndex(boundary_of_simplex((1,)))


@pytest.mark.parametrize("base", [simplex_boundary(4), cross_polytope(3),
                                  cross_polytope(4)],
                         ids=["4-simplex", "cross-3", "cross-4"])
@given(picks=choices)
@settings(max_examples=15, deadline=None)
def test_listed_moves_equal_checked_ones(base, picks):
    # The index builds the moves it lists, and their inverses, without
    # checking faces it made; each must equal the checked construction.
    index = MoveIndex(base)
    for pick in picks:
        listed = list(index)
        assert listed == [index[i] for i in range(len(index))]
        for m in listed:
            for made in (m, m.inverse()):
                checked = BistellarMove(made.removed, made.inserted)
                assert made == checked and repr(made) == repr(checked)
        index.apply(listed[pick % len(listed)])
