"""A fuzz contract for the library: every call returns or raises a typed error.

Hypothesis walks the boundary of a cross polytope in dimension 0 to 3 for
0-12 symmetric steps, labels the walked sphere from ``random_fan_labelling``
at a bound of its dimension to two more, or with a nonzero dict whose
values tie (mirrored or not), and takes a move from its index or a face of
it paired with random ids.  Each call of the label and move API on these
must return or raise :class:`BistellarError` or :class:`TypeError`, and a
seeded call made twice must give equal results, or errors of the same type
and message.  The searches run at budgets of at most 50.

The constructor half draws facet lists with ids in ±1..±8: empty faces,
lone vertices, and impure, unclosed, asymmetric, repeated and nested faces,
some beside the facets of a sphere.  Both ``from_facets`` and every exported
call that takes a complex must return or raise :class:`BistellarError`,
and a :class:`TypeError` exactly where a complex of the other kind is
documented to raise it.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistellar import (
    BistellarError,
    BistellarMove,
    FanLabelling,
    SimplicialComplex,
    Z2Complex,
    alternating_counts,
    apply_z2_move,
    cross_polytope,
    enumerate_moves,
    enumerate_z2_moves,
    fan_certificate,
    find_isomorphism,
    find_move,
    is_closed_pseudomanifold,
    random_fan_labelling,
    random_z2_walk,
    reduce_to_boundary_simplex,
    relabel_move,
    simplex_boundary,
    tucker_witness,
    validate_fan,
    z2_reduce_to_cross_polytope,
)


def outcome(call, *args, typed=(BistellarError, TypeError)):
    """What ``call`` returns, or the type and message of the ``typed`` error
    it raises; any other exception propagates and fails the test."""
    try:
        return call(*args), None
    except typed as exc:
        return None, (type(exc), str(exc))


def seeded(call, *args, typed=(BistellarError, TypeError)):
    """The outcome of a seeded call, which must repeat when it is made again."""
    first = outcome(call, *args, typed=typed)
    assert outcome(call, *args, typed=typed) == first, call.__name__
    return first


def labelled(state, bound, seed, mirrored, values):
    """A labelling of ``state`` from ``random_fan_labelling`` at ``bound`` and
    ``seed`` if ``bound`` is not None and that succeeds, else from ``values``
    in turn, their negations given to the negative ids if ``mirrored``."""
    if bound is not None:
        made, _ = seeded(random_fan_labelling, state, bound, seed)
        if made is not None:
            return made
    ids = [v for v in state.vertices if v > 0] if mirrored else state.vertices
    labels = {v: values[i % len(values)] for i, v in enumerate(ids)}
    if mirrored:
        labels.update({-v: -x for v, x in labels.items()})
    return FanLabelling(labels)


def drawn_move(state, pick):
    """The listed move ``pick`` names (an int), or ``(k, i, ids)``: the
    ``i``-th face of dimension ``k`` (at most the dimension) paired with
    ``ids``; a pair that is no move is an error outcome."""
    if isinstance(pick, int):
        moves, _ = outcome(enumerate_z2_moves, state)
        return moves[pick % len(moves)], None
    k, i, ids = pick
    faces = state.complex.faces(min(k, state.dimension))
    return outcome(BistellarMove, faces[i % len(faces)], ids)


SEEDS = st.one_of(st.integers(-2, 2**16), st.sampled_from([True, None, 1.5, "1"]))
NONZERO = st.sampled_from([-3, -2, -1, 1, 2, 3])


@given(
    k=st.integers(1, 4), steps=st.integers(0, 12), walk_seed=st.integers(0, 2**16),
    bound=st.one_of(st.none(), st.integers(0, 2)), mirrored=st.booleans(),
    values=st.lists(NONZERO, min_size=1, max_size=12),
    pick=st.one_of(st.integers(0, 2**16),
                   st.tuples(st.integers(0, 3), st.integers(0, 2**16),
                             st.lists(st.integers(-12, 12), max_size=5))),
    budget=st.integers(0, 50), seed=SEEDS)
# a move of the 0-sphere makes no new edge, which transport once read anyway
@example(k=1, steps=0, walk_seed=0, bound=1, mirrored=True, values=[1], pick=0,
         budget=0, seed=0)
@settings(max_examples=150, deadline=None)
def test_the_label_and_move_api_returns_or_raises_a_typed_error(
        k, steps, walk_seed, bound, mirrored, values, pick, budget, seed):
    (state, _), _ = seeded(random_z2_walk, cross_polytope(k), steps, walk_seed)
    bound = None if bound is None else state.dimension + bound
    labelling = labelled(state, bound, walk_seed, mirrored, values)
    for call in (validate_fan, alternating_counts, tucker_witness):
        outcome(call, state, labelling)
    move, _ = drawn_move(state, pick)
    if move is not None:
        outcome(relabel_move, state, labelling, move)
        outcome(apply_z2_move, state, move)
        outcome(find_move, state.complex, move.removed)
    seeded(random_z2_walk, state, steps, seed)
    seeded(z2_reduce_to_cross_polytope, state, budget, seed)
    seeded(fan_certificate, state, labelling, budget, seed)


IDS = st.integers(-8, 8).filter(bool)
SPHERES = [(), *(f(k).facets for f in (cross_polytope, simplex_boundary) for k in (1, 2, 3))]


@st.composite
def facet_lists(draw):
    """The facets of one of ``SPHERES``, maybe less one, with up to five
    drawn faces of up to four ids (unsorted, maybe repeated or empty), maybe
    their antipodes, maybe a repeated row and a row's leading part, shuffled."""
    rows = [*draw(st.sampled_from(SPHERES))]
    if rows and draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    faces = draw(st.lists(st.lists(IDS, max_size=4), max_size=5))
    rows += faces + ([[-v for v in f] for f in faces] if draw(st.booleans()) else [])
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        rows += [row, row[:draw(st.integers(0, len(row)))]]
    return draw(st.permutations(rows))


KINDS = ((SimplicialComplex, enumerate_moves, reduce_to_boundary_simplex),
         (Z2Complex, enumerate_z2_moves, z2_reduce_to_cross_polytope))


@given(facets=facet_lists(), other=facet_lists(), budget=st.integers(0, 20), seed=SEEDS)
@example(facets=[()], other=[], budget=0, seed=0)
@example(facets=[(1,)], other=[(-1,), (1,)], budget=0, seed=0)
@settings(max_examples=100, deadline=None)
def test_the_constructors_and_complex_api_return_or_raise_a_typed_error(
        facets, other, budget, seed):
    for kind, enumerate_, reduce in KINDS:
        made, _ = outcome(kind.from_facets, facets, typed=BistellarError)
        if made is None:
            continue
        theirs, _ = outcome(kind.from_facets, other, typed=BistellarError)
        calls = [(is_closed_pseudomanifold, made), (made.f_vector,),
                 (made.barycentric_subdivide,), (find_isomorphism, made, made),
                 (enumerate_, made)]
        if theirs is not None:
            calls.append((find_isomorphism, made, theirs))
        if kind is Z2Complex:
            calls += [(made.equivariant_sd,), (made.quotient,)]
        for call, *args in calls:
            outcome(call, *args, typed=BistellarError)
        seeded(reduce, made, budget, seed, typed=BistellarError)
        _, enumerate_, reduce = KINDS[kind is SimplicialComplex]  # the other kind's
        wrong = [(enumerate_, made), (reduce, made, budget, seed)]
        if kind is Z2Complex:
            wrong.append((find_isomorphism, made, made.complex))
        for call, *args in wrong:
            with pytest.raises(TypeError):
                call(*args)
