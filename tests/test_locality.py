"""A flip's work does not grow with the complex.

``S`` is a 150-step walk from the boundary of the 4-dimensional cross
polytope.  ``S'`` grows ``S`` by symmetric facet moves, each on a facet
with no vertex within edge distance 1 of the tested moves' unions or their
antipodes, so the star of each tested move, and every face waiting on its
simplices, are the same in ``S`` and ``S'``; a Fan labelling of ``S`` is
carried across the growth, so both label that star alike.  A facet move,
an edge move and a vertex-removal move applied to listed indexes of ``S``
and ``S'``, plain and symmetric, must derive the same links
(``_link_simplex``) and recheck the same faces (``_recheck``), a lone flip
of each must index the same facets, and one label transport step of each
must classify the ``dimension + 2`` facets that one half of the move
replaces and no more; ``relabel_move``, which only checks its move, must
build no complex larger than the star that a lone flip indexes.  The counts
are of calls and faces, so they are exact on any host.

The one known exception is label transport's doubling: ``fan._transport``
doubles every label when an inserted edge's endpoint labels sum to zero,
which is work in the number of vertices, and it is not checked here.
"""

from collections import Counter, deque
from unittest.mock import patch

import pytest

from bistellar import (
    BistellarMove,
    FanLabelling,
    MoveIndex,
    SimplicialComplex,
    Z2Complex,
    antipode,
    apply_move,
    apply_z2_move,
    cross_polytope,
    fresh_vertex,
    random_fan_labelling,
    random_z2_walk,
    relabel_move,
    validate_fan,
)
from bistellar import fan, moves


def grown(start, avoid, count, labels):
    """``start`` after ``count`` symmetric facet moves, each on a facet that
    has no vertex in ``avoid``; the facets they add have none either.  The
    Fan labelling ``labels`` (vertex -> label) is carried across each move."""
    index, present = MoveIndex(start), set(start.facets)
    queue = deque(f for f in start.facets if avoid.isdisjoint(f))
    while count:
        facet = queue.popleft()
        if facet not in present:  # the antipode of a facet already split
            continue
        v = index.fresh
        index.apply(move := BistellarMove(facet, (v,)))
        fan._transport(labels, move)
        added = [tuple(sorted(facet[:i] + facet[i + 1:] + (v,))) for i in range(len(facet))]
        added += [*map(antipode, added)]
        present -= {facet, antipode(facet)}
        present.update(added)
        queue.extend(added)
        count -= 1
    return index.state


def near(cx, tested):
    """The vertices within edge distance 1 of the moves' unions or their antipodes."""
    union = {abs(v) for m in tested for v in m.removed + m.inserted}
    union |= {-v for v in union}
    return union.union(*(f for f in cx.facets if union.intersection(f)))


@pytest.fixture(scope="module")
def spheres():
    """``(S, S', {"facet": move, "edge": move, "vertex": move}, labellings)``:
    the facet and edge moves are the first of their kind that leave the most
    facets of ``S`` away from them, the vertex-removal move the first that
    leaves the most away from all three, and ``labellings`` maps ``S`` and
    ``S'`` to Fan labellings that agree on the tested moves' stars."""
    small, _ = random_z2_walk(cross_polytope(4), 150, 1)
    listed = list(MoveIndex(small))

    def left_away(*tested):
        return sum(map(near(small, tested).isdisjoint, small.facets))

    facet, edge = (max((m for m in listed if len(m.removed) == k), key=left_away)
                   for k in (4, 2))
    vertex = max((m for m in listed if len(m.removed) == 1),
                 key=lambda m: left_away(facet, edge, m))
    small_labels = dict(random_fan_labelling(small, small.dimension + 2, 1).items())
    large_labels = dict(small_labels)
    large = grown(small, near(small, [facet, edge, vertex]), 445, large_labels)
    assert len(large.facets) > 5 * len(small.facets)
    # a vertex fresh in S' is fresh in S, which it grows
    tested = {"facet": BistellarMove(facet.removed, (fresh_vertex(large),)),
              "edge": edge, "vertex": vertex}
    return small, large, tested, {small: small_labels, large: large_labels}


def work(state, move):
    """The faces that applying ``move`` to a listed index of ``state`` passes
    to ``_link_simplex`` and to ``_recheck``, counted."""
    index = MoveIndex(state)
    linked, rechecked = Counter(), Counter()
    link_simplex, recheck = index._link_simplex, index._recheck
    index._link_simplex = lambda face: (linked.update([face]), link_simplex(face))[1]
    index._recheck = lambda faces: (rechecked.update(faces), recheck(faces))
    index.apply(move)
    return linked, rechecked


def lone_star(state, move):
    """The facets that each index of a lone flip of ``move`` is built on."""
    built = []

    class Recording(MoveIndex):
        def __init__(self, state):
            built.append(state.facets)
            super().__init__(state)

    with patch.object(moves, "MoveIndex", Recording):
        (apply_z2_move if isinstance(state, Z2Complex) else apply_move)(state, move)
    return built


@pytest.mark.parametrize("kind", ["facet", "edge", "vertex"])
@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
def test_a_flip_does_the_same_work_on_a_larger_complex(spheres, kind, symmetric):
    small, large, tested, _ = spheres
    if not symmetric:
        small, large = small.complex, large.complex
    move = tested[kind]
    linked, rechecked = work(small, move)
    assert linked[move.removed] >= 1  # the check reads the removed face
    assert (linked, rechecked) == work(large, move)
    star = lone_star(small, move)
    assert len(star) == 1 and len(star[0]) < len(small.facets)
    assert star == lone_star(large, move)


def transport_work(labels, move):
    """The change of counts and the ``alternating_sign`` calls of one label
    transport step of ``move`` on a copy of ``labels``."""
    with patch.object(fan, "alternating_sign", wraps=fan.alternating_sign) as counted:
        delta = fan._transport(dict(labels), move)
    return delta, counted.call_count


@pytest.mark.parametrize("kind", ["facet", "edge", "vertex"])
def test_a_transport_step_does_the_same_work_on_a_larger_complex(spheres, kind):
    small, large, tested, labellings = spheres
    move = tested[kind]
    for state in (small, large):
        assert validate_fan(state, FanLabelling(labellings[state])) == []
    step = transport_work(labellings[small], move)
    assert step[1] == small.dimension + 2  # one half's replaced facets
    assert step == transport_work(labellings[large], move)


@pytest.mark.parametrize("kind", ["facet", "edge", "vertex"])
def test_relabel_move_builds_no_complex_beyond_the_star(spheres, kind):
    # relabel_move checks its move on an index of the move's star and builds
    # no flipped complex: every complex it makes is at most that star.
    small, _, tested, labellings = spheres
    move = tested[kind]
    (star,) = lone_star(small, move)
    sizes, init = [], SimplicialComplex.__init__

    def recording(self, facets):
        sizes.append(len(facets))
        init(self, facets)

    with patch.object(SimplicialComplex, "__init__", recording):
        relabel_move(small, FanLabelling(labellings[small]), move)
    assert sizes and max(sizes) <= len(star) < len(small.facets)
