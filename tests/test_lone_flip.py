"""A lone flip against a flip on an index of the whole complex.

``apply_move``, ``apply_z2_move``, ``relabel_move`` and the CLI's ``flip``
index only the facets that the admissibility check reads: those holding
``removed`` or ``inserted``, with their antipodes on a symmetric complex.
Whatever the move, each must return the facets that ``MoveIndex(cx)``,
``apply`` and ``state`` give, or raise the same error with the same message,
and the whole complex must still be pure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistellar import (
    BistellarError,
    BistellarMove,
    FanLabelling,
    MoveIndex,
    MoveNotAdmissible,
    SimplicialComplex,
    Z2Complex,
    apply_move,
    apply_z2_move,
    cross_polytope,
    random_z2_walk,
    relabel_move,
    simplex_boundary,
)


def whole_flip(state, move):
    """The facets after ``move`` on an index of every facet."""
    index = MoveIndex(state)
    index.apply(move)
    return index.state.facets


def outcome(call, *args):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def relabelled_vertices(cx, move):
    """The vertices that ``relabel_move`` labels, from the identity labels."""
    return sorted(relabel_move(cx, FanLabelling({v: v for v in cx.vertices}), move).labels)


def assert_lone_is_whole(state, move):
    """Assert that each lone call returns or raises what :func:`whole_flip`
    does; returns whether the move applied."""
    expected = outcome(whole_flip, state, move)
    applied = not isinstance(expected[0], type)
    if isinstance(state, Z2Complex):
        flipped = outcome(apply_z2_move, state, move)
        relabelled = outcome(relabelled_vertices, state, move)
        assert relabelled == (sorted({v for f in expected for v in f}) if applied else expected)
    else:
        flipped = outcome(apply_move, state, move)
    assert (flipped[0].facets if applied else flipped) == expected
    return applied


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
def test_an_impure_complex_is_refused_though_the_star_is_pure(symmetric):
    # The star of (1, 2, 3) is pure; the edge (5, 6) makes the complex impure.
    facets = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [5, 6]]
    if symmetric:
        facets += [[-v for v in f] for f in facets]
    cx = (Z2Complex if symmetric else SimplicialComplex).from_facets(facets)
    move = BistellarMove((1, 2, 3), (7,))
    calls = [lambda: apply_move(getattr(cx, "complex", cx), move)]
    if symmetric:
        calls += [lambda: apply_z2_move(cx, move), lambda: relabel_move(cx, {}, move)]
    for call in calls:
        with pytest.raises(BistellarError, match="^moves need a pure complex with a vertex$"):
            call()


def test_an_inserted_face_outside_the_star_blocks_the_move():
    # Edge (1, 2) of the tetrahedron boundary has link {3, 4}, and the edge
    # (3, 4), outside its star, blocks the move; a facet move whose vertex
    # is used elsewhere is refused for the same reason.
    tetra = simplex_boundary(3)
    for move in (BistellarMove((1, 2), (3, 4)), BistellarMove((1, 2, 3), (4,))):
        with pytest.raises(MoveNotAdmissible, match="is not admissible here"):
            apply_move(tetra, move)
        assert_lone_is_whole(tetra, move)
    # The symmetric analogue: after a facet pair is split, edge (-4, -1) has
    # link {-2, 3}, and the edge (-2, 3) is kept as its antipode (-3, 2).
    split, _ = apply_z2_move(cross_polytope(3), BistellarMove((-3, 1, 2), (4,)))
    move = BistellarMove((-4, -1), (-2, 3))
    with pytest.raises(MoveNotAdmissible, match="is not admissible here"):
        apply_z2_move(split, move)
    assert_lone_is_whole(split, move)


def test_either_half_of_a_pair_flips_alone():
    # A symmetric index checks the half that removes the smaller face, here
    # the antipode of the one given, so its star must be indexed too.
    octahedron = cross_polytope(3)
    for move in (BistellarMove((1, 2, 3), (4,)), BistellarMove((-3, -2, -1), (4,))):
        assert assert_lone_is_whole(octahedron, move)


def draw_move(data, state, index):
    """A listed move, one whose ``inserted`` is the link's vertex set of a
    face (blocked, when that is a face), or an arbitrary pair."""
    facets, vertices = state.facets, list(state.vertices)
    kind = data.draw(st.sampled_from(["listed", "link", "arbitrary"]))
    if kind == "listed":
        move = index[data.draw(st.integers(0, len(index) - 1))]
        return data.draw(st.sampled_from([move, move.antipodal(), move.inverse()]))
    if kind == "link":
        facet = data.draw(st.sampled_from(facets))
        removed = tuple(data.draw(st.lists(st.sampled_from(facet), min_size=1, unique=True)))
        link = sorted({v for f in facets if set(removed) <= set(f) for v in f} - set(removed))
        if not link:  # a facet: a fresh vertex or one used elsewhere
            link = [data.draw(st.sampled_from(vertices + [max(vertices) + 1]))]
        return BistellarMove(removed, link)
    ids = st.sampled_from(vertices + [max(vertices) + 1, -max(vertices) - 1])
    faces = st.lists(ids, max_size=state.dimension + 2, unique=True)
    return BistellarMove(data.draw(faces), data.draw(faces))


@pytest.mark.parametrize("base", [cross_polytope(3), cross_polytope(4)], ids=["C3", "C4"])
@given(steps=st.integers(0, 40), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=20, deadline=None)
def test_a_lone_flip_is_the_flip_of_a_whole_index(base, steps, seed, data):
    walked, _ = random_z2_walk(base, steps, seed)
    for state in (walked, walked.complex):
        index = MoveIndex(state)
        for _ in range(4):
            assert_lone_is_whole(state, draw_move(data, state, index))
