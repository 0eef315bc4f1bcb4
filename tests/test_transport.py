"""Label transport decides admissibility exactly as a symmetric flip does,
and its local step keeps counts that a full recount confirms.

``relabel_move`` and ``apply_z2_move`` both go through a ``MoveIndex``, so
on every move, admissible or not, they must raise together, with the same
exception type, and when they succeed the labels must cover exactly the
moved complex.  The step that ``fan_certificate`` runs per move reads only
the star of the move; after every step of seeded walks its running counts
must equal a full recount and its labels must stay a Fan labelling that
ranks like the rational reference's.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from itertools import combinations_with_replacement as multisets

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistellar import (
    BistellarError,
    BistellarMove,
    FanLabelling,
    InterferingAntipodalMove,
    InvalidLabelling,
    MoveIndex,
    MoveNotAdmissible,
    alternating_counts,
    alternating_sign,
    apply_z2_move,
    canonical_cross_labelling,
    cross_polytope,
    fan_certificate,
    random_fan_labelling,
    random_z2_walk,
    reduce_to_boundary_simplex,
    relabel_move,
    validate_fan,
    z2_reduce_to_cross_polytope,
)
from bistellar import reduction
from bistellar.fan import _transport
from bistellar.moves import _replaced
from conftest import naive_alpha, naive_ranks, naive_star, rational_relabel

SPHERES = {
    "C3": lambda: cross_polytope(3),
    "C4": lambda: cross_polytope(4),
    "C3-walked": lambda: random_z2_walk(cross_polytope(3), 20, seed=3)[0],
    "C4-walked": lambda: random_z2_walk(cross_polytope(4), 12, seed=5)[0],
}


def draw_move(rng, state, moves, clashing):
    """One move of a random kind: admissible, an admissible one with one id
    changed, random ids in ±1..±(n+2), or an insert containing ``{v, -v}``,
    half of those from ``clashing``, the plain moves whose halves clash."""
    dimension = state.dimension
    n = max(abs(v) for v in state.vertices)
    ids = [s * v for v in range(1, n + 3) for s in (1, -1)]
    kind = rng.choice(["admissible", "perturbed", "random", "self-antipodal"])
    if kind == "admissible":
        return kind, moves[rng.randrange(len(moves))]
    if kind == "perturbed":
        move = moves[rng.randrange(len(moves))]
        sides = [list(move.removed), list(move.inserted)]
        side = sides[rng.randrange(2)]
        side[rng.randrange(len(side))] = rng.choice(ids)
        return kind, BistellarMove(*sides)
    if kind == "self-antipodal" and clashing and rng.random() < 0.5:
        return kind, rng.choice(clashing)
    k = rng.randint(1, dimension + 1)
    if kind == "random":
        chosen = rng.sample(ids, dimension + 2)
        return kind, BistellarMove(chosen[:k], chosen[k:])
    removed = rng.choice(state.complex.faces(k - 1))
    v = rng.choice(ids)
    extra = rng.sample(ids, max(0, dimension - k))
    return kind, BistellarMove(removed, [v, -v] + extra)


def outcome(call):
    try:
        return call(), None
    except BistellarError as exc:
        return None, type(exc)


@pytest.mark.parametrize("name", SPHERES)
def test_relabel_move_rejects_exactly_what_a_flip_rejects(name):
    state = SPHERES[name]()
    labelling = random_fan_labelling(state, state.dimension + 2, seed=1)
    moves = list(MoveIndex(state))
    clashing = [m for m in MoveIndex(state.complex)
                if any(-v in m.inserted for v in m.inserted)]
    rng = random.Random(name)
    seen = set()
    for _ in range(80):
        kind, move = draw_move(rng, state, moves, clashing)
        relabelled, relabel_error = outcome(
            lambda: relabel_move(state, labelling, move))
        moved, flip_error = outcome(lambda: apply_z2_move(state, move))
        assert relabel_error is flip_error, (kind, move)
        if flip_error is None:
            moved = moved[0]
            assert relabelled.domain() == set(moved.vertices), (kind, move)
            assert validate_fan(moved, relabelled) == []
        seen.add((kind, flip_error))
    assert ("admissible", None) in seen
    assert (("self-antipodal", InterferingAntipodalMove) in seen) == bool(clashing)
    assert any(error is not None for kind, error in seen if kind != "self-antipodal")


def test_move_is_checked_before_the_labels(octahedron):
    unsigned = FanLabelling({v: abs(v) for v in octahedron.vertices})
    with pytest.raises(MoveNotAdmissible):
        relabel_move(octahedron, unsigned, BistellarMove((1, 2), (3, 4)))
    with pytest.raises(InvalidLabelling):
        relabel_move(octahedron, unsigned, BistellarMove((1, 2, 3), (7,)))


def test_plain_complex_is_a_type_error(octahedron, monkeypatch):
    # all used to go wrong late: relabel_move and fan_certificate ended in
    # AttributeError, fan_certificate only after a whole plain reduction;
    # the symmetric reduction reduced to a simplex boundary, and the walk
    # made its plain flips before an AttributeError
    labelling = canonical_cross_labelling(3)
    with pytest.raises(TypeError, match="expected a Z2Complex"):
        relabel_move(octahedron.complex, labelling, BistellarMove((1, 2, 3), (7,)))

    def no_search(*args):
        raise AssertionError("the search ran on the wrong kind of complex")

    def no_flip(*args):
        raise AssertionError("the walk flipped a plain complex")

    walked, _ = random_z2_walk(octahedron, 10, seed=1)
    walked_labels = random_fan_labelling(walked, 4, seed=1)
    monkeypatch.setattr(reduction, "_search", no_search)
    monkeypatch.setattr(MoveIndex, "apply", no_flip)
    with pytest.raises(TypeError, match="expected a Z2Complex"):
        fan_certificate(walked.complex, walked_labels, seed=1)
    with pytest.raises(TypeError, match="expected a Z2Complex"):
        z2_reduce_to_cross_polytope(walked.complex, seed=1)
    with pytest.raises(TypeError, match="expected a Z2Complex"):
        random_z2_walk(octahedron.complex, 5, 1)
    # and the plain reduction used to run the symmetric search on a Z2Complex
    with pytest.raises(TypeError, match=r"\.complex"):
        reduce_to_boundary_simplex(walked, seed=1)


# -- the local step against a full recount --------------------------------------


def walk_with_oracle(base, walk_seed, label_seed, steps, bound=1):
    """Walk ``base`` with seeded symmetric moves, carrying a random Fan
    labelling into ``±1..±(dimension + bound)`` and its counts with the
    certificate's local step, and check after every step that the counts
    equal a full recount, that the labels are a Fan labelling and that
    they rank like the rational reference's, and after a nudge (an inserted
    complementary edge, which breaks the tie of ``±u``) that the kept
    facets around ``±u`` keep their class; returns the number of nudges."""
    index = MoveIndex(base)
    labelling = random_fan_labelling(base, base.dimension + bound, label_seed)
    labels = dict(labelling.items())
    reference = {v: Fraction(x) for v, x in labels.items()}
    counts = alternating_counts(base, labels).as_tuple()
    rng = random.Random(walk_seed)
    nudges = 0
    for _ in range(steps):
        move = index[rng.randrange(len(index))]
        ins = move.inserted
        nudged = len(ins) == 2 and labels[ins[0]] + labels[ins[1]] == 0
        if nudged:
            u = max(ins, key=labels.get)
            around = {f: alternating_sign(f, labels)
                      for w in (u, -u) for f in naive_star(index.state.facets, w)}
        nudges += nudged
        index.apply(move)
        delta = _transport(labels, move)
        if nudged:
            assert all(alternating_sign(f, labels) == sign
                       for f, sign in around.items() if f in index.state.facets)
        counts = (counts[0] + delta[0], counts[1] + delta[1])
        reference = rational_relabel(reference, move)
        state = index.state
        assert counts == naive_alpha(state.facets, labels)
        assert counts == alternating_counts(state, labels).as_tuple()
        assert validate_fan(state, labels) == []
        assert naive_ranks(labels) == naive_ranks(reference)
    return nudges


# The walks and labels of test_fan.py's test_reference_walks_reach_nudges
# (bound 1, walk seed = label seed) that reach a nudge.
NUDGING = [("C3", 1), ("C4", 0), ("C4", 1), ("C4", 2)]


@given(base=st.sampled_from(sorted(SPHERES)), walk_seed=st.integers(0, 2**16),
       label_seed=st.integers(0, 2**16), bound=st.integers(1, 2))
@example(base="C3", walk_seed=1, label_seed=1, bound=1)
@example(base="C4", walk_seed=0, label_seed=0, bound=1)
@example(base="C4", walk_seed=1, label_seed=1, bound=1)
@example(base="C4", walk_seed=2, label_seed=2, bound=1)
@settings(max_examples=20, deadline=None)
def test_local_step_matches_full_recount(base, walk_seed, label_seed, bound):
    walk_with_oracle(SPHERES[base](), walk_seed, label_seed, 40, bound)


def test_local_step_oracle_reaches_nudges():
    assert all(walk_with_oracle(SPHERES[base](), seed, seed, 40) > 0
               for base, seed in NUDGING)


def test_step_rejects_a_complementary_new_edge(octahedron):
    # (1, 2) is complementary inside the removed facet, so the fresh vertex,
    # which copies the label of 1, makes its new edge with 2 complementary
    labels = {1: 1, 2: -1, 3: 2, -1: -1, -2: 1, -3: -2}
    move = BistellarMove((1, 2, 3), (4,))
    MoveIndex(octahedron).apply(move)
    with pytest.raises(BistellarError, match=r"new edge \(2, 4\) is complementary"):
        _transport(labels, move)


# -- the local parity step over every labelled star -----------------------------


def star_labellings(removed, inserted):
    """Labels of ``removed`` and (unless it is one fresh vertex) ``inserted``,
    one per signed weak order up to permuting ``removed`` and ``inserted``
    within themselves, that leave no old edge complementary: every pair of
    labelled vertices is an old edge but ``inserted`` itself when it has two
    vertices.  Magnitudes run over 1..m with none skipped, and each vertex's
    antipode gets the negated label."""
    labelled = inserted if len(inserted) > 1 else ()
    vertices = removed + labelled
    for top in range(1, len(vertices) + 1):
        values = [s * x for x in range(1, top + 1) for s in (1, -1)]
        for ours, theirs in product(multisets(values, len(removed)),
                                    multisets(values, len(labelled))):
            chosen = ours + theirs
            if len({abs(x) for x in chosen}) < top:
                continue
            labels = dict(zip(vertices, chosen))
            if any(labels[a] + labels[b] == 0 for a, b in combinations(vertices, 2)
                   if (a, b) != labelled):
                continue
            labels.update({-v: -x for v, x in labels.items()})
            yield labels


# orbit representatives per (d, k = |removed|): 9002 signed weak orders of
# five labels with no complementary pair fall into 594 orbits at (3, 1)
STARS = {(2, 1): 162, (2, 2): 238, (2, 3): 18,
         (3, 1): 594, (3, 2): 1026, (3, 3): 1086, (3, 4): 54}


@pytest.mark.parametrize("d, k", sorted(STARS))
def test_transport_keeps_the_parity_of_every_labelled_star(d, k):
    # the paper's local step: each symmetric move, labels carried by
    # _transport, keeps the labels antipodal, makes no new edge
    # complementary and changes the positive alternating count by an even
    # amount
    move = BistellarMove(range(1, k + 1), range(k + 1, d + 3))
    _, added = _replaced(move, True)
    seen = 0
    for labels in star_labellings(move.removed, move.inserted):
        case = dict(labels)
        positive, _ = _transport(labels, move)
        assert positive % 2 == 0, case
        assert all(labels[-v] == -x for v, x in labels.items()), case
        assert not any(labels[a] + labels[b] == 0
                       for f in added for a, b in combinations(f, 2)), case
        seen += 1
    assert seen == STARS[d, k]
