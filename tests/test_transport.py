"""Label transport decides admissibility exactly as a symmetric flip does.

``relabel_move`` and ``apply_z2_move`` both go through a ``MoveIndex``, so
on every move, admissible or not, they must raise together, with the same
exception type, and when they succeed the labels must cover exactly the
moved complex.
"""

import random

import pytest

from bistellar import (
    BistellarError,
    BistellarMove,
    FanLabelling,
    InterferingAntipodalMove,
    InvalidLabelling,
    MoveIndex,
    MoveNotAdmissible,
    apply_z2_move,
    canonical_cross_labelling,
    cross_polytope,
    fan_certificate,
    random_fan_labelling,
    random_z2_walk,
    relabel_move,
    validate_fan,
)
from bistellar import reduction

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
    # both used to end in AttributeError, fan_certificate only after a
    # whole plain reduction
    labelling = canonical_cross_labelling(3)
    with pytest.raises(TypeError, match="expected a Z2Complex"):
        relabel_move(octahedron.complex, labelling, BistellarMove((1, 2, 3), (7,)))

    def no_search(*args):
        raise AssertionError("the search ran on a plain complex")

    monkeypatch.setattr(reduction, "_search", no_search)
    walked, _ = random_z2_walk(octahedron, 10, seed=1)
    walked_labels = random_fan_labelling(walked, 4, seed=1)
    with pytest.raises(TypeError, match="expected a Z2Complex"):
        fan_certificate(walked.complex, walked_labels, seed=1)
