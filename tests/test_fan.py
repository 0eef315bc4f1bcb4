"""Labelling validation, alternation, witnesses, relabelling rules."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistellar import (
    BistellarMove,
    CertificateUnavailable,
    FanLabelling,
    IncompleteLabelling,
    InvalidLabelling,
    InvalidVertexId,
    MoveNotAdmissible,
    NoWitness,
    SimplicialComplex,
    alternating_counts,
    alternating_sign,
    apply_z2_move,
    canonical_cross_labelling,
    cross_polytope,
    enumerate_z2_moves,
    fan_certificate,
    random_fan_labelling,
    random_z2_walk,
    relabel_move,
    tucker_witness,
    validate_fan,
)
from conftest import (
    kuhn_torus,
    naive_alpha,
    naive_alternating_sign,
    naive_fan_check,
    naive_ranks,
    rational_relabel,
)


def octa_labelling(l1, l2, l3):
    return FanLabelling({1: l1, 2: l2, 3: l3, -1: -l1, -2: -l2, -3: -l3})


class TestValidate:
    def test_canonical_ok(self, octahedron):
        assert validate_fan(octahedron, canonical_cross_labelling(3)) == []

    def test_complementary_edge_found(self, octahedron):
        violations = validate_fan(octahedron, octa_labelling(1, 2, 1))
        assert ("complementary-edge", (-3, 1)) in violations
        assert ("complementary-edge", (-1, 3)) in violations

    def test_antipodality_violation(self, octahedron):
        broken = FanLabelling({1: 1, -1: 1, 2: 2, -2: -2, 3: 3, -3: -3})
        violations = validate_fan(octahedron, broken)
        assert ("antipodality", 1) in violations

    def test_missing_vertex(self, octahedron):
        with pytest.raises(IncompleteLabelling):
            validate_fan(octahedron, FanLabelling({1: 1}))

    def test_zero_label_rejected(self):
        with pytest.raises(InvalidLabelling):
            FanLabelling({1: 0})

    @pytest.mark.parametrize("label", [Fraction(1, 2), 1.5, 1.0, "2", True],
                             ids=repr)
    def test_non_integer_label_rejected(self, label):
        # Fraction(label) used to accept each of these
        with pytest.raises(InvalidLabelling):
            FanLabelling({1: label})

    @pytest.mark.parametrize("vertex", [0, 1.5, True], ids=repr)
    def test_non_integer_vertex_rejected(self, vertex):
        with pytest.raises(InvalidVertexId):
            FanLabelling({vertex: 1})


class TestAlternatingSign:
    def test_positive(self):
        lab = FanLabelling({1: 1, 2: -2, 3: 3})
        assert alternating_sign((1, 2, 3), lab) == 1

    def test_negative(self):
        lab = FanLabelling({1: -1, 2: 2, 3: -3})
        assert alternating_sign((1, 2, 3), lab) == -1

    def test_same_sign_pair(self):
        lab = FanLabelling({1: 1, 2: 2, 3: -3})
        assert alternating_sign((1, 2, 3), lab) == 0

    def test_tie_in_magnitude(self):
        lab = FanLabelling({1: 1, 2: -1, 3: 2})
        assert alternating_sign((1, 2, 3), lab) == 0

    @given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=6))
    def test_matches_naive(self, labels):
        lab = FanLabelling({i + 1: x for i, x in enumerate(labels)})
        face = tuple(range(1, len(labels) + 1))
        assert alternating_sign(face, lab) == naive_alternating_sign(labels)


class TestAlternatingCounts:
    def test_octahedron_canonical(self, octahedron):
        counts = alternating_counts(octahedron, canonical_cross_labelling(3))
        assert counts.as_tuple() == (1, 1)
        labels = {v: v for v in octahedron.vertices}
        assert naive_alpha(octahedron.facets, labels) == (1, 1)

    def test_four_cycle_canonical(self, four_cycle):
        counts = alternating_counts(four_cycle, canonical_cross_labelling(2))
        assert counts.as_tuple() == (1, 1)

    def test_duality_on_antipodal_labellings(self, octahedron):
        from bistellar import antipode
        lab = canonical_cross_labelling(3)
        for facet in octahedron.facets:
            assert alternating_sign(antipode(facet), lab) \
                == -alternating_sign(facet, lab)

    def test_walked_spheres_balance(self, octahedron):
        for seed in range(4):
            walked, _ = random_z2_walk(octahedron, 12, seed=seed)
            lab = random_fan_labelling(walked, 4, seed=seed + 100)
            counts = alternating_counts(walked, lab)
            assert counts.positive == counts.negative


_MAGNITUDES = st.integers(1, 60) | st.integers(2 ** 200, 2 ** 210)


@st.composite
def _labelled_complexes(draw):
    """Facets of mixed sizes on vertices 1..60, and labels, not antipodal in
    general, from up to 50 magnitudes: repeats and ±x within a facet occur."""
    facets = draw(st.lists(st.lists(st.integers(1, 60), min_size=1, max_size=6,
                                    unique=True), min_size=1, max_size=40))
    magnitudes = draw(st.lists(_MAGNITUDES, min_size=1, max_size=50, unique=True))
    label = st.sampled_from(magnitudes).flatmap(lambda m: st.sampled_from([m, -m]))
    vertices = sorted({v for f in facets for v in f})
    return facets, dict(zip(vertices, draw(st.lists(
        label, min_size=len(vertices), max_size=len(vertices)))))


@settings(max_examples=300, deadline=None)
@given(case=_labelled_complexes())
@example(case=([[1, 2], [3, 4, 5]], {1: 1, 2: -2, 3: 1, 4: 1, 5: -2}))
def test_counts_match_naive_alpha_on_any_labelled_complex(case):
    # One OR of label bits stands for every facet of one size with those
    # labels: the edge labelled 1, -2 alternates, the triangle 1, 1, -2 not.
    facets, labels = case
    cx = SimplicialComplex.from_facets(facets)
    expected = naive_alpha(cx.facets, labels)
    assert alternating_counts(cx, labels).as_tuple() == expected
    assert alternating_counts(cx, FanLabelling(labels)).as_tuple() == expected


class TestSimplexBoundaryCounts:
    """Counts over the boundary of a fully labelled simplex stay in
    {(0,0), (1,1), (2,0), (0,2)} when no two labels sum to zero."""

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_small_simplices_exhaustive(self, size):
        seen = set()
        allowed = {(0, 0), (1, 1), (2, 0), (0, 2)}
        values = [s * a for a in range(1, size + 1) for s in (1, -1)]
        vertices = tuple(range(1, size + 1))
        boundary_facets = list(combinations(vertices, size - 1))
        for assign in product(values, repeat=size):
            if any(x + y == 0 for x, y in combinations(assign, 2)):
                continue
            labels = dict(zip(vertices, assign))
            pair = naive_alpha(boundary_facets, labels)
            seen.add(pair)
            assert pair in allowed
        assert (1, 1) in seen and (2, 0) in seen and (0, 2) in seen


class TestTuckerWitness:
    def test_first_spec_example(self, octahedron):
        assert tucker_witness(octahedron, octa_labelling(1, 2, 1)) == (-3, 1)

    def test_second_spec_example(self, octahedron):
        assert tucker_witness(octahedron, octa_labelling(1, 1, 2)) == (-2, 1)

    def test_walked_sphere_with_two_values(self, octahedron):
        rng = random.Random(11)
        for seed in range(5):
            walked, _ = random_z2_walk(octahedron, 10, seed=seed)
            labels = {}
            for v in walked.positive_vertices:
                labels[v] = rng.choice([1, -1, 2, -2])
                labels[-v] = -labels[v]
            witness = tucker_witness(walked, FanLabelling(labels))
            assert labels[witness[0]] + labels[witness[1]] == 0
            # oracle: exhaustive scan finds at least one
            edges = walked.complex.faces(1)
            assert any(labels[u] + labels[v] == 0 for u, v in edges)

    def test_no_witness_is_loud(self, octahedron):
        with pytest.raises(NoWitness):
            tucker_witness(octahedron, canonical_cross_labelling(3))

    def test_no_witness_on_a_torus_names_no_counterexample(self):
        # antipodal labels into ±1..±2 on a symmetric 2-torus: Tucker's
        # hypotheses fail only in that the complex is not a sphere
        torus = kuhn_torus()
        assert len(torus.facets) == 72
        labelling = random_fan_labelling(torus, 2, 0)
        with pytest.raises(NoWitness, match="or the complex is not a sphere$") as info:
            tucker_witness(torus, labelling)
        assert "counterexample" not in str(info.value)


@st.composite
def _labelled_spheres(draw):
    """A symmetric sphere (C3 or C4, maybe walked, maybe subdivided) with a
    Fan labelling (bound d+2 or d+3) or an antipodal labelling into ±1..±d."""
    k = draw(st.sampled_from([3, 4]))
    subdivided = draw(st.booleans())
    steps = draw(st.integers(0, 8 if subdivided else 40 if k == 3 else 25))
    sphere, _ = random_z2_walk(cross_polytope(k), steps, seed=draw(st.integers(0, 99)))
    if subdivided:
        sphere, _ = sphere.equivariant_sd()
    d, seed = sphere.dimension, draw(st.integers(0, 99))
    if draw(st.booleans()):
        bound = draw(st.sampled_from([d + 2, d + 3]))
        return sphere, random_fan_labelling(sphere, bound, seed)
    rng, labels = random.Random(seed), {}
    for v in sphere.positive_vertices:
        labels[v] = rng.randint(1, d) * rng.choice((1, -1))
        labels[-v] = -labels[v]
    return sphere, FanLabelling(labels)


@settings(max_examples=40, deadline=None)
@given(case=_labelled_spheres(), drop=st.integers(0, 10 ** 6))
def test_edge_scan_matches_whole_edge_list(case, drop):
    """validate_fan, tucker_witness and alternating_counts agree with the
    scan of every edge in canonical order, and all three name the same
    unlabelled vertex as that scan."""
    sphere, labelling = case
    labels = dict(labelling.labels)
    violations, edge = naive_fan_check(sphere.facets, labels)
    assert validate_fan(sphere, labelling) == violations
    assert validate_fan(sphere, labels) == violations
    if edge is None:
        with pytest.raises(NoWitness):
            tucker_witness(sphere, labelling)
    else:
        assert tucker_witness(sphere, labelling) == edge
    assert alternating_counts(sphere, labelling).as_tuple() == \
        naive_alpha(sphere.facets, labels)

    missing = sphere.vertices[drop % len(sphere.vertices)]
    del labels[missing]
    with pytest.raises(KeyError):
        naive_fan_check(sphere.facets, labels)
    for check in (validate_fan, tucker_witness, alternating_counts):
        with pytest.raises(IncompleteLabelling) as raised:
            check(sphere, FanLabelling(labels))
        assert str(raised.value) == f"vertex {missing} is unlabelled"


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([3, 4]), steps=st.integers(0, 40), seed=st.integers(0, 99))
def test_tucker_witness_is_the_first_complementary_edge_violation(k, steps, seed):
    """On a walked sphere labelled antipodally into ±1..±d, tucker_witness
    gives the least of the edges that the column scan finds, in no order and
    with repeats, which validate_fan sorts: its first complementary edge."""
    sphere, _ = random_z2_walk(cross_polytope(k), steps, seed)
    rng, labels, d = random.Random(seed), {}, sphere.dimension
    for v in sphere.positive_vertices:
        labels[v] = rng.randint(1, d) * rng.choice((1, -1))
        labels[-v] = -labels[v]
    labelling = FanLabelling(labels)
    edges = [where for kind, where in validate_fan(sphere, labelling)
             if kind == "complementary-edge"]
    assert edges  # Tucker's lemma
    assert tucker_witness(sphere, labelling) == edges[0]


@settings(max_examples=5, deadline=None)
@given(walk=st.tuples(st.just(3), st.integers(0, 20))
       | st.tuples(st.just(4), st.integers(0, 8)), seed=st.integers(0, 99))
@example(walk=(3, 0), seed=0)
@example(walk=(4, 0), seed=0)
def test_flag_labellings_certify_at_the_tight_bound(walk, seed):
    """Labelling each vertex of sd(K) by its sign times the size of the face
    it subdivides is a Fan labelling into 1..d + 1: an edge of sd(K) joins
    nested faces of different sizes, and ``equivariant_sd`` names the
    antipode of a face ``-w``.  Its positive alternating count is odd, as
    the certificate checks along the reduction."""
    walked, _ = random_z2_walk(cross_polytope(walk[0]), walk[1], seed)
    sd, face_map = walked.equivariant_sd()
    labels = FanLabelling({w: (1 if w > 0 else -1) * len(face_map[w])
                           for w in sd.vertices})
    d = sd.dimension
    assert validate_fan(sd, labels) == []
    assert {abs(x) for x in labels.labels.values()} == set(range(1, d + 2))
    counts = alternating_counts(sd, labels)
    assert counts.positive % 2 == 1 and counts.positive == counts.negative
    try:
        certificate = fan_certificate(sd, labels, seed=1)
    except CertificateUnavailable:
        return
    assert set(certificate.parity_trace) == {1}


def test_edge_scan_on_a_non_pure_complex():
    """Facets of two sizes are scanned size by size."""
    cx = SimplicialComplex.from_facets([[1, 2, 3], [-3, -2, -1], [3, 4], [-4, -3]])
    labels = {1: 1, 2: 2, 3: 3, 4: -3, -1: -1, -2: -2, -3: -3, -4: 3}
    violations, edge = naive_fan_check(cx.facets, labels)
    assert violations == [("complementary-edge", (-4, -3)),
                          ("complementary-edge", (3, 4))]
    assert validate_fan(cx, FanLabelling(labels)) == violations
    assert tucker_witness(cx, FanLabelling(labels)) == edge


def split_cross_with_labels():
    """Cross polytope split at {1,2,3} with fresh pair ±4, labelled so the
    flip inserting {-3, 4} carries labels summing to zero."""
    grown, _ = apply_z2_move(cross_polytope(3), BistellarMove((1, 2, 3), (4,)))
    labelling = FanLabelling({1: 1, 2: 3, 3: 2, 4: 2,
                              -1: -1, -2: -3, -3: -2, -4: -2})
    assert validate_fan(grown, labelling) == []
    return grown, labelling


class TestRelabelMove:
    def test_fresh_vertex_takes_min_positive(self, octahedron):
        lab = canonical_cross_labelling(3)
        move = BistellarMove((1, -2, 3), (7,))
        relabelled = relabel_move(octahedron, lab, move)
        assert relabelled[7] == 1
        assert relabelled[-7] == -1

    def test_fresh_vertex_all_negative_uses_antipodal_side(self, octahedron):
        lab = canonical_cross_labelling(3)
        move = BistellarMove((-1, -2, -3), (7,))
        relabelled = relabel_move(octahedron, lab, move)
        assert relabelled[-7] == 1
        assert relabelled[7] == -1

    def test_perturbation_is_gap_midpoint(self):
        # labels double to 2, 6, 4, 4 and the pair ±4 moves into the gap
        # between 4 and 6
        grown, labelling = split_cross_with_labels()
        move = BistellarMove((1, 2), (-3, 4))
        relabelled = relabel_move(grown, labelling, move)
        assert relabelled[4] == 5
        assert relabelled[-4] == -5
        integered = relabelled.integerize()
        assert integered[4] == 3
        assert integered[2] == 4

    def test_unchanged_when_no_complementary_diagonal(self, octahedron):
        lab = canonical_cross_labelling(3)
        grown, _ = apply_z2_move(octahedron, BistellarMove((1, 2, 3), (7,)))
        lab = relabel_move(octahedron, lab, BistellarMove((1, 2, 3), (7,)))
        move = BistellarMove((1, 2), (-3, 7))
        assert lab[-3] + lab[7] != 0
        relabelled = relabel_move(grown, lab, move)
        moved, _ = apply_z2_move(grown, move)
        assert relabelled == lab.restrict(moved.vertices)

    def test_vertex_removal_restricts(self, octahedron):
        # walk until a vertex-removing symmetric move shows up
        state, lab = octahedron, canonical_cross_labelling(3)
        rng = random.Random(2)
        for _ in range(40):
            moves = enumerate_z2_moves(state)
            removal = [m for m in moves if len(m.removed) == 1]
            if removal:
                move = removal[0]
                relabelled = relabel_move(state, lab, move)
                moved, _ = apply_z2_move(state, move)
                assert relabelled.domain() == set(moved.vertices)
                return
            move = moves[rng.randrange(len(moves))]
            lab = relabel_move(state, lab, move)
            state, _ = apply_z2_move(state, move)
        pytest.skip("no vertex removal encountered")

    def test_rejects_inadmissible(self, octahedron):
        lab = canonical_cross_labelling(3)
        with pytest.raises(MoveNotAdmissible):
            relabel_move(octahedron, lab, BistellarMove((1, 2), (3, -3)))

    def test_rejects_invalid_labelling(self, octahedron):
        with pytest.raises(InvalidLabelling):
            relabel_move(octahedron, octa_labelling(1, 2, 1),
                         BistellarMove((1, 2, 3), (7,)))

    def test_parity_and_validity_along_walks(self, octahedron):
        for seed in range(6):
            rng = random.Random(seed)
            state, lab = octahedron, canonical_cross_labelling(3)
            parity = alternating_counts(state, lab).positive % 2
            for _ in range(12):
                moves = enumerate_z2_moves(state)
                move = moves[rng.randrange(len(moves))]
                new_lab = relabel_move(state, lab, move)
                state, _ = apply_z2_move(state, move)
                assert validate_fan(state, new_lab) == []
                counts = alternating_counts(state, new_lab)
                assert counts.positive % 2 == parity
                assert counts.positive == counts.negative
                lab = new_lab

    def test_locality(self, octahedron):
        # without a nudge, labels may change only on the inserted
        # simplex's fresh pair; a nudge doubles every label, but the
        # order of magnitudes outside the perturbed pair is unchanged;
        # either way facets away from both inserted stars keep their
        # classification
        def step(state, lab, move):
            new_lab = relabel_move(state, lab, move)
            new_state, _ = apply_z2_move(state, move)
            shared = set(state.vertices) & set(new_state.vertices)
            ins, anti_ins = set(move.inserted), {-v for v in move.inserted}
            nudged = len(ins) == 2 and sum(lab[v] for v in ins) == 0
            if nudged:
                u = max(ins, key=lambda v: lab[v])
                outside = shared - {u, -u}
                assert naive_ranks({v: lab[v] for v in outside}) \
                    == naive_ranks({v: new_lab[v] for v in outside})
            else:
                changed = {v for v in shared if lab[v] != new_lab[v]}
                assert changed <= ins | anti_ins
            for facet in new_state.facets:
                fs = set(facet)
                if ins <= fs or anti_ins <= fs or not fs <= shared:
                    continue
                assert alternating_sign(facet, new_lab) \
                    == alternating_sign(facet, lab)
            return new_state, new_lab, nudged

        state, lab = octahedron, canonical_cross_labelling(3)
        rng = random.Random(9)
        for _ in range(15):
            moves = enumerate_z2_moves(state)
            move = moves[rng.randrange(len(moves))]
            state, lab, _ = step(state, lab, move)
        grown, labelling = split_cross_with_labels()
        assert step(grown, labelling, BistellarMove((1, 2), (-3, 4)))[2]

    @given(k=st.sampled_from([3, 4]), walk_seed=st.integers(0, 2**16),
           label_seed=st.integers(0, 2**16))
    @example(k=3, walk_seed=0, label_seed=0)
    @example(k=4, walk_seed=0, label_seed=0)
    @settings(max_examples=30, deadline=None)
    def test_ranks_match_rational_reference(self, k, walk_seed, label_seed):
        walk_against_reference(k, walk_seed, label_seed, 40)

    def test_reference_walks_reach_nudges(self):
        nudges = sum(walk_against_reference(k, seed, seed, 40)
                     for k in (3, 4) for seed in range(3))
        assert nudges > 0


def walk_against_reference(k, walk_seed, label_seed, steps):
    """Walk a random labelled cross polytope of dimension k - 1 with
    symmetric moves, checking after every step that the integer labels
    rank like the rational reference's; returns the number of nudges."""
    state = cross_polytope(k)
    lab = random_fan_labelling(state, k, label_seed)
    reference = {v: Fraction(x) for v, x in lab.items()}
    rng = random.Random(walk_seed)
    nudges = 0
    for _ in range(steps):
        moves = enumerate_z2_moves(state)
        move = moves[rng.randrange(len(moves))]
        ins = move.inserted
        nudges += len(ins) == 2 and lab[ins[0]] + lab[ins[1]] == 0
        lab = relabel_move(state, lab, move)
        reference = rational_relabel(reference, move)
        state, _ = apply_z2_move(state, move)
        assert naive_ranks(lab.labels) == naive_ranks(reference)
    return nudges


class TestMapping:
    def test_unlabelled_vertex_raises(self):
        lab = FanLabelling({1: 1, -1: -1})
        assert lab[-1] == -1
        with pytest.raises(IncompleteLabelling, match="vertex 2 is unlabelled"):
            lab[2]

    def test_membership(self):
        lab = FanLabelling({1: 1, -1: -1})
        assert 1 in lab and -1 in lab
        assert 2 not in lab and 0 not in lab

    def test_repr_elides_past_six_labels(self):
        six = FanLabelling({v: -v for v in range(6, 0, -1)})
        assert repr(six) == "FanLabelling({1:-1, 2:-2, 3:-3, 4:-4, 5:-5, 6:-6})"
        seven = FanLabelling({v: v for v in range(-3, 5) if v})
        assert repr(seven) == "FanLabelling({-3:-3, -2:-2, -1:-1, 1:1, 2:2, 3:3, ...})"


class TestIntegerize:
    def test_rational_example(self):
        lab = FanLabelling({1: 5, 2: -2, 3: 1})
        assert lab.integerize() == FanLabelling({1: 3, 2: -2, 3: 1})

    def test_identity_on_compact_range(self):
        lab = FanLabelling({1: 1, 2: -2, 3: 3, -1: -1, -2: 2, -3: -3})
        assert lab.integerize() == lab

    def test_idempotent(self):
        lab = FanLabelling({1: 14, 2: -54, 3: 3})
        once = lab.integerize()
        assert once.integerize() == once

    @given(st.dictionaries(
        st.integers(1, 6),
        st.integers(min_value=-60, max_value=60).filter(bool),
        min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_preserves_classification(self, labels):
        lab = FanLabelling(labels)
        integered = lab.integerize()
        face = tuple(sorted(labels))
        assert alternating_sign(face, integered) == alternating_sign(face, lab)

    def test_counts_invariant_on_random_rational_labelling(self, octahedron):
        rng = random.Random(4)
        walked, _ = random_z2_walk(octahedron, 10, seed=21)
        labels = {}
        for v in walked.positive_vertices:
            labels[v] = rng.randrange(1, 240) * rng.choice([1, -1])
            labels[-v] = -labels[v]
        lab = FanLabelling(labels)
        before = alternating_counts(walked, lab)
        after = alternating_counts(walked, lab.integerize())
        assert before == after
