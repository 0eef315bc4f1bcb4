"""Move admissibility, application, inversion, symmetric pairs, walks."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistellar import (
    BistellarError,
    BistellarMove,
    CorruptSequence,
    FaceNotPresent,
    FlipSequence,
    InterferingAntipodalMove,
    InvalidVertexId,
    MoveIndex,
    MoveNotAdmissible,
    Z2Complex,
    apply_move,
    apply_z2_move,
    cross_polytope,
    enumerate_moves,
    enumerate_z2_moves,
    find_move,
    fresh_vertex,
    random_z2_walk,
    replay,
    simplex_boundary,
)
from conftest import naive_admissible_moves, naive_f_delta, naive_f_vector
from test_move_index import check_index


class TestMoveIds:
    @pytest.mark.parametrize("removed, inserted", [
        ((1.5, 2), (True,)), ((1, 2, 3), (0,)), ((1, "2"), (3,)), ((1, 2), (3.0,)),
    ], ids=["float-and-bool", "zero", "string", "integral-float"])
    def test_non_integer_or_zero_ids_rejected(self, removed, inserted):
        # (1.5, 2) -> (True,) used to read as [1, 2] -> [1]
        with pytest.raises(InvalidVertexId):
            BistellarMove(removed, inserted)

    def test_fresh_zero_never_applied(self, octahedron):
        # used to return a closed pseudomanifold with vertex 0
        with pytest.raises(InvalidVertexId):
            apply_move(octahedron.complex, BistellarMove((1, 2, 3), (0,)))


class TestFindMove:
    def test_facet_move_gets_fresh_vertex(self, tetra_boundary):
        move = find_move(tetra_boundary, (1, 2, 3))
        assert move == BistellarMove((1, 2, 3), (5,))

    def test_edge_of_tetra_boundary_blocked(self, tetra_boundary):
        # the candidate insert {3,4} is already a face
        assert find_move(tetra_boundary, (1, 2)) is None

    def test_edge_flip_after_facet_split(self, tetra_boundary):
        split, _ = apply_move(tetra_boundary, BistellarMove((1, 2, 3), (5,)))
        move = find_move(split, (1, 2))
        assert move == BistellarMove((1, 2), (4, 5))

    def test_missing_face(self, tetra_boundary):
        with pytest.raises(FaceNotPresent):
            find_move(tetra_boundary, (1, 9))

    def test_fresh_vertex_skips_used_pairs(self, octahedron):
        assert fresh_vertex(octahedron.complex) == 4


@settings(max_examples=30, deadline=None)
@given(base=st.sampled_from([3, 4, "sd-simplex4"]), steps=st.integers(0, 150),
       seed=st.integers(0, 99), picks=st.lists(st.integers(0, 10 ** 6), max_size=12))
@example(base=3, steps=20, seed=0, picks=[123])  # a facet that misses vertex 1
def test_find_move_answers_as_a_whole_index(base, steps, seed, picks):
    """find_move indexes only the facets that meet the star of its face, yet
    answers as an index of the whole complex does, fresh vertex included, on
    walked C3 and C4 and on sd(boundary of the 4-simplex)."""
    if base == "sd-simplex4":
        cx, _ = simplex_boundary(4).barycentric_subdivide()
    else:
        cx = random_z2_walk(cross_polytope(base), steps, seed)[0].complex
    whole = {move.removed: move for move in MoveIndex(cx)}
    faces = cx.faces()
    for pick in picks:
        face = faces[pick % len(faces)]
        assert find_move(cx, face) == whole.get(face)


class TestEnumerateMoves:
    def test_tetra_boundary_only_facet_splits(self, tetra_boundary):
        moves = enumerate_moves(tetra_boundary)
        assert len(moves) == 4
        assert all(len(m.removed) == 3 and len(m.inserted) == 1 for m in moves)

    def test_three_cycle_edge_splits(self, triangle_boundary):
        moves = enumerate_moves(triangle_boundary)
        assert len(moves) == 3
        assert all(len(m.removed) == 2 for m in moves)

    def test_octahedron_against_oracle(self, octahedron):
        # 8 facet splits plus 12 diagonal edge flips (inserting {v,-v});
        # frozen from the naive oracle below
        moves = enumerate_moves(octahedron.complex)
        assert len(moves) == 20
        oracle = naive_admissible_moves(octahedron.facets)
        assert len(oracle) == 20
        assert {(m.removed, m.inserted) for m in moves if len(m.inserted) > 1} \
            == {pair for pair in oracle if pair[1] != "fresh"}
        assert {m.removed for m in moves if len(m.inserted) == 1} \
            == {a for a, b in oracle if b == "fresh"}

    def test_matches_oracle_on_corpus(self, tetra_boundary, triangle_boundary):
        for cx in (tetra_boundary, triangle_boundary, simplex_boundary(4)):
            oracle = naive_admissible_moves(cx.facets)
            moves = enumerate_moves(cx)
            assert len(moves) == len(oracle)

    def test_agrees_with_find_move(self, octahedron):
        cx = octahedron.complex
        listed = {(m.removed, m.inserted) for m in enumerate_moves(cx)}
        for face in cx.faces():
            found = find_move(cx, face)
            if found is None:
                assert all(r != face for r, _ in listed)
            else:
                assert (found.removed, found.inserted) in listed

    def test_deterministic_order(self, octahedron):
        first = enumerate_moves(octahedron.complex)
        second = enumerate_moves(octahedron.complex)
        assert first == second
        assert first == sorted(first, key=lambda m: (len(m.removed), m.removed,
                                                     m.inserted))


class TestApplyMove:
    def test_one_to_three(self, tetra_boundary):
        result, inverse = apply_move(tetra_boundary, BistellarMove((1, 2, 3), (5,)))
        assert result.f_vector().counts == (5, 9, 6)
        assert inverse == BistellarMove((5,), (1, 2, 3))

    def test_two_to_two_keeps_counts(self, tetra_boundary):
        split, _ = apply_move(tetra_boundary, BistellarMove((1, 2, 3), (5,)))
        flipped, _ = apply_move(split, BistellarMove((1, 2), (4, 5)))
        assert flipped.f_vector().counts == (5, 9, 6)
        assert set(flipped.facets) != set(split.facets)

    def test_inverse_restores_exactly(self, tetra_boundary):
        move = BistellarMove((1, 2, 3), (5,))
        stepped, inverse = apply_move(tetra_boundary, move)
        back, _ = apply_move(stepped, inverse)
        assert back == tetra_boundary

    def test_inadmissible_rejected(self, tetra_boundary):
        with pytest.raises(MoveNotAdmissible):
            apply_move(tetra_boundary, BistellarMove((1, 2), (3, 4)))

    def test_mechanics_on_random_walks(self):
        # facet-count delta, full f-vector delta (against the index's count
        # too), Euler invariance and exact inversion along seeded walks over
        # the plain move graph
        rng = random.Random(42)
        for base in (simplex_boundary(3), cross_polytope(3).complex,
                     simplex_boundary(4)):
            state = base
            for _ in range(60):
                moves = enumerate_moves(state)
                move = moves[rng.randrange(len(moves))]
                n = state.dimension
                r = len(move.removed) - 1
                before = state.f_vector().counts
                after_state, inverse = apply_move(state, move)
                after = after_state.f_vector().counts
                assert after[-1] - before[-1] == 2 * r - n
                predicted = tuple(b + d for b, d in zip(before, naive_f_delta(move, n)))
                assert after == predicted
                index = MoveIndex(state)
                index.apply(move)
                assert index.f_vector() == predicted
                assert sum((-1) ** i * c for i, c in enumerate(after)) \
                    == sum((-1) ** i * c for i, c in enumerate(before))
                restored, _ = apply_move(after_state, inverse)
                assert restored == state
                state = after_state
                if len(state.facets) > 40:
                    state = base


def rejects(state, removed, inserted, error):
    """The pair raises ``error`` through :func:`apply_z2_move` and through
    an index, which it leaves exactly as it was."""
    with pytest.raises(error):
        apply_z2_move(state, BistellarMove(removed, inserted))
    index = MoveIndex(state)
    listed = list(index)
    with pytest.raises(error):
        index.apply(BistellarMove(removed, inserted))
    assert list(index) == listed and index.state == state
    check_index(index)


class TestSymmetricMoves:
    def test_facet_pair_with_explicit_fresh_ids(self, octahedron):
        result, inverse = apply_z2_move(octahedron, BistellarMove((1, 2, 3), (7,)))
        assert result.f_vector().counts == (8, 18, 12)
        assert {7, -7} <= set(result.vertices)
        back, _ = apply_z2_move(result, inverse)
        assert back.complex == octahedron.complex

    def test_four_cycle_edge_split(self, four_cycle):
        result, _ = apply_z2_move(four_cycle, BistellarMove((1, 2), (3,)))
        assert result.f_vector().counts == (6, 6)

    def test_fresh_pair_must_be_free(self, octahedron):
        grown, _ = apply_z2_move(octahedron, BistellarMove((1, 2, 3), (7,)))
        # 8 is fine, but -7 is taken, so a fresh move naming 7 again is out
        rejects(grown, (1, 2, 7), (7,), MoveNotAdmissible)
        rejects(grown, (1, 2, 7), (-7,), MoveNotAdmissible)

    def test_self_antipodal_insert_interferes(self, octahedron):
        # the diagonal flip inserting {3,-3} is a fine plain move but its
        # antipodal partner is blocked once the diagonal exists
        move = BistellarMove((1, 2), (-3, 3))
        apply_move(octahedron.complex, move)  # plain application works
        rejects(octahedron, move.removed, move.inserted, InterferingAntipodalMove)

    @pytest.mark.parametrize("removed, inserted, error", [
        ((1, 2), (3, 4), MoveNotAdmissible),
        ((1, 2, 3), (7.0,), InvalidVertexId),
    ], ids=["inadmissible", "non-int"])
    def test_rejected_pair_changes_nothing(self, octahedron, removed, inserted,
                                           error):
        rejects(octahedron, removed, inserted, error)

    def test_enumeration_skips_diagonals_and_pairs(self, octahedron):
        moves = enumerate_z2_moves(octahedron)
        assert len(moves) == 4  # one per antipodal facet pair
        assert all(len(m.inserted) == 1 for m in moves)

    def test_results_stay_valid(self, octahedron):
        state = octahedron
        rng = random.Random(3)
        for _ in range(25):
            moves = enumerate_z2_moves(state)
            state, _ = apply_z2_move(state, moves[rng.randrange(len(moves))])
            Z2Complex.from_complex(state.complex)
            assert state.f_vector().euler_characteristic == 2


class TestRandomWalk:
    def test_zero_steps_is_identity(self, octahedron):
        final, sequence = random_z2_walk(octahedron, 0, seed=1)
        assert final.complex == octahedron.complex
        assert len(sequence) == 0
        assert sequence.source_digest == sequence.target_digest

    def test_deterministic(self, octahedron):
        first, seq_a = random_z2_walk(octahedron, 10, seed=1)
        second, seq_b = random_z2_walk(octahedron, 10, seed=1)
        assert first.complex == second.complex
        assert seq_a == seq_b

    def test_seed_changes_outcome(self, octahedron):
        a, _ = random_z2_walk(octahedron, 10, seed=1)
        b, _ = random_z2_walk(octahedron, 10, seed=2)
        assert a.complex != b.complex

    def test_invariants_preserved(self, octahedron):
        final, _ = random_z2_walk(octahedron, 10, seed=1)
        assert final.f_vector().euler_characteristic == 2
        Z2Complex.from_complex(final.complex)

    def test_f_vector_matches_naive_after_walk(self, octahedron):
        final, _ = random_z2_walk(octahedron, 12, seed=5)
        assert final.f_vector().counts == naive_f_vector(final.facets)

    @pytest.mark.parametrize("steps", [2.7, True, -4, "3", None], ids=repr)
    def test_bad_step_counts_rejected(self, octahedron, steps):
        # 2.7 used to walk 2 steps, True 1 and -4 none
        with pytest.raises(BistellarError, match="steps must be an integer >= 0"):
            random_z2_walk(octahedron, steps, seed=1)


# Each used to go by the kind it was given: apply_move made the symmetric
# pair on a Z2Complex, enumerate_moves listed 4 pairs of the octahedron for
# its 20 moves, the z2 functions made or listed plain moves on a plain
# complex, and find_move died with AttributeError on a Z2Complex.
WRONG_KIND = {
    "apply_move": lambda signed: apply_move(signed, BistellarMove((1, 2, 3), (4,))),
    "enumerate_moves": enumerate_moves,
    "find_move": lambda signed: find_move(signed, (1, 2, 3)),
    "apply_z2_move": lambda signed: apply_z2_move(
        signed.complex, BistellarMove((1, 2, 3), (4,))),
    "enumerate_z2_moves": lambda signed: enumerate_z2_moves(signed.complex),
}


@pytest.mark.parametrize("call", WRONG_KIND.values(), ids=WRONG_KIND)
def test_wrappers_reject_the_other_kind(octahedron, call):
    with pytest.raises(TypeError):
        call(octahedron)


class TestReplay:
    def test_replay_reaches_target(self, octahedron):
        final, sequence = random_z2_walk(octahedron, 8, seed=4)
        replayed = replay(octahedron, sequence)
        assert replayed.complex == final.complex

    def test_inverted_sequence_restores_source(self, octahedron):
        final, sequence = random_z2_walk(octahedron, 8, seed=4)
        back = replay(final, sequence.inverted())
        assert back.complex == octahedron.complex

    def test_deleted_move_detected(self, octahedron):
        # drop the first facet split; the later move references its fresh
        # vertex, so the replay must fail with the step index
        grown, _ = apply_z2_move(octahedron, BistellarMove((1, 2, 3), (7,)))
        follow = next(m for m in enumerate_z2_moves(grown)
                      if 7 in m.removed or -7 in m.removed)
        _, sequence = random_z2_walk(octahedron, 0, seed=0)
        broken = type(sequence)(moves=(follow,), z2=True,
                                source_digest=sequence.source_digest,
                                target_digest="unknown")
        with pytest.raises(CorruptSequence) as info:
            replay(octahedron, broken)
        assert info.value.step == 0

    @pytest.mark.parametrize("field, value", [
        ("moves", [1, 2]), ("moves", 3), ("moves", "ab"), ("moves", None),
        ("z2", "yes"), ("z2", 1), ("source_digest", 3), ("target_digest", None),
        ("target_digest", b"x"),
    ], ids=repr)
    def test_fields_are_checked(self, field, value):
        # moves=[1, 2] used to fail later in replay with AttributeError, and
        # z2="yes" with "expected a Z2Complex, got Z2Complex"
        fields = {"moves": (), "z2": True, "source_digest": "", "target_digest": ""}
        with pytest.raises(BistellarError, match=f"^{field}: "):
            FlipSequence(**{**fields, field: value})

    def test_moves_stored_as_a_tuple(self):
        move = BistellarMove((1, 2, 3), (4,))
        sequence = FlipSequence([move], False, "a", "b")
        assert sequence.moves == (move,)
        assert sequence == FlipSequence((move,), False, "a", "b")

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "z2"])
    def test_source_of_the_other_kind_rejected(self, octahedron, symmetric):
        # a plain sequence used to replay as symmetric pairs on a Z2Complex,
        # and a symmetric one as lone moves on a plain complex
        sequence = FlipSequence(moves=(BistellarMove((1, 2, 3), (4,)),),
                                z2=symmetric, source_digest="", target_digest="")
        with pytest.raises(TypeError):
            replay(octahedron.complex if symmetric else octahedron, sequence)
