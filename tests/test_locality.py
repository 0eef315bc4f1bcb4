"""A flip's work does not grow with the complex.

``S`` is a 150-step walk from the boundary of the 4-dimensional cross
polytope.  ``S'`` grows ``S`` by symmetric facet moves, each on a facet
with no vertex within edge distance 1 of the tested moves' unions or their
antipodes, so the star of each tested move, and every face waiting on its
simplices, are the same in ``S`` and ``S'``.  A facet move and an edge move
applied to listed indexes of ``S`` and ``S'``, plain and symmetric, must
derive the same links (``_link_simplex``) and recheck the same faces
(``_recheck``), and a lone flip of each must index the same facets.  The
counts are of calls and faces, so they are exact on any host.

The one known exception is label transport: ``fan._transport`` doubles
every label when an inserted edge's endpoint labels sum to zero, which is
work in the number of vertices, and it is not checked here.
"""

from collections import Counter, deque
from unittest.mock import patch

import pytest

from bistellar import (
    BistellarMove,
    MoveIndex,
    Z2Complex,
    antipode,
    apply_move,
    apply_z2_move,
    cross_polytope,
    fresh_vertex,
    random_z2_walk,
)
from bistellar import moves


def grown(start, avoid, count):
    """``start`` after ``count`` symmetric facet moves, each on a facet that
    has no vertex in ``avoid``; the facets they add have none either."""
    index, present = MoveIndex(start), set(start.facets)
    queue = deque(f for f in start.facets if avoid.isdisjoint(f))
    while count:
        facet = queue.popleft()
        if facet not in present:  # the antipode of a facet already split
            continue
        v = index.fresh
        index.apply(BistellarMove(facet, (v,)))
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
    """``(S, S', {"facet": move, "edge": move})``, each move the first of its
    kind that leaves the most facets of ``S`` away from it."""
    small, _ = random_z2_walk(cross_polytope(4), 150, 1)
    listed = list(MoveIndex(small))
    facet, edge = (max((m for m in listed if len(m.removed) == k),
                       key=lambda m: sum(map(near(small, [m]).isdisjoint, small.facets)))
                   for k in (4, 2))
    large = grown(small, near(small, [facet, edge]), 445)
    assert len(large.facets) > 5 * len(small.facets)
    # a vertex fresh in S' is fresh in S, which it grows
    tested = {"facet": BistellarMove(facet.removed, (fresh_vertex(large),)), "edge": edge}
    return small, large, tested


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


@pytest.mark.parametrize("kind", ["facet", "edge"])
@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
def test_a_flip_does_the_same_work_on_a_larger_complex(spheres, kind, symmetric):
    small, large, tested = spheres
    if not symmetric:
        small, large = small.complex, large.complex
    move = tested[kind]
    linked, rechecked = work(small, move)
    assert linked[move.removed] >= 1  # the check reads the removed face
    assert (linked, rechecked) == work(large, move)
    star = lone_star(small, move)
    assert len(star) == 1 and len(star[0]) < len(small.facets)
    assert star == lone_star(large, move)
