"""Reduction engine, replay certification, and the certificate pipeline."""

from dataclasses import replace
from functools import cache
from itertools import combinations

import pytest

from bistellar import (
    BistellarError,
    CertificateUnavailable,
    CorruptSequence,
    FlipSequence,
    MoveIndex,
    NotClosedPseudomanifold,
    SimplicialComplex,
    Z2Complex,
    alternating_counts,
    apply_z2_move,
    canonical_cross_labelling,
    cross_polytope,
    enumerate_z2_moves,
    fan_certificate,
    find_isomorphism,
    is_closed_pseudomanifold,
    random_fan_labelling,
    random_z2_walk,
    reduce_to_boundary_simplex,
    replay,
    replay_verify,
    simplex_boundary,
    validate_fan,
    z2_reduce_to_cross_polytope,
)
from bistellar import reduction
from bistellar.fan import _transport
from conftest import rebuild_search, replay_certificate


def target_of(start):
    """The cross polytope or simplex boundary of ``start``'s kind and dimension."""
    k = start.dimension + 1
    return cross_polytope(k) if isinstance(start, Z2Complex) else simplex_boundary(k)


def on_target(final, start):
    """The search's exit rule by its definition: where the search counts
    vertices, ``final`` must be isomorphic to the target built here."""
    return find_isomorphism(final, target_of(start)) is not None


def reaches_target(start, sequence):
    return on_target(replay(start, sequence), start)


class TestPseudomanifoldCheck:
    def test_spheres_pass(self, octahedron, tetra_boundary):
        assert is_closed_pseudomanifold(tetra_boundary)
        assert is_closed_pseudomanifold(octahedron.complex)

    def test_open_disk_fails(self):
        disk = SimplicialComplex.from_facets([[1, 2, 3]])
        assert not is_closed_pseudomanifold(disk)

    def test_impure_fails(self):
        cx = SimplicialComplex.from_facets([[1, 2, 3], [3, 4]])
        assert not is_closed_pseudomanifold(cx)

    def test_disconnected_fails(self):
        two = SimplicialComplex.from_facets(
            [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
        assert not is_closed_pseudomanifold(two)

    def test_ridge_in_three_facets_fails(self):
        # three disks glued along the circle 1-2-3
        theta = SimplicialComplex.from_facets(
            [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
             [1, 2, 5], [1, 3, 5], [2, 3, 5]])
        assert not is_closed_pseudomanifold(theta)

    def test_octahedra_sharing_a_vertex_fail(self, octahedron):
        # connected through vertex 1, but no ridge joins the two
        other = {1: 1, -1: 7, 2: 4, -2: -4, 3: 5, -3: -5}
        both = SimplicialComplex.from_facets(
            [*octahedron.facets, *([other[v] for v in f] for f in octahedron.facets)])
        assert not is_closed_pseudomanifold(both)

    def test_reduction_rejects_disk(self):
        disk = SimplicialComplex.from_facets([[1, 2, 3]])
        with pytest.raises(NotClosedPseudomanifold):
            reduce_to_boundary_simplex(disk, seed=0)


class TestPlainReduction:
    def test_identity_on_target(self, tetra_boundary):
        report = reduce_to_boundary_simplex(tetra_boundary, seed=1)
        assert report.reduced and len(report.sequence) == 0
        assert reaches_target(tetra_boundary, report.sequence)

    def test_subdivided_tetra_boundary(self, tetra_boundary):
        sd, _ = tetra_boundary.barycentric_subdivide()
        report = reduce_to_boundary_simplex(sd, budget=10_000, seed=1)
        assert report.reduced and reaches_target(sd, report.sequence)
        assert report.best_f_vector == (4, 6, 4)
        assert replay_verify(sd, report.sequence, simplex_boundary(3))

    def test_octahedron_reduces_breaking_symmetry(self, octahedron):
        report = reduce_to_boundary_simplex(octahedron.complex,
                                            budget=10_000, seed=1)
        assert report.reduced and reaches_target(octahedron.complex, report.sequence)
        assert replay_verify(octahedron.complex, report.sequence,
                             simplex_boundary(3))

    def test_determinism(self, tetra_boundary):
        sd, _ = tetra_boundary.barycentric_subdivide()
        first = reduce_to_boundary_simplex(sd, budget=10_000, seed=3)
        second = reduce_to_boundary_simplex(sd, budget=10_000, seed=3)
        assert first == second
        assert first.reduced and reaches_target(sd, first.sequence)

    def test_inconclusive_on_tiny_budget(self, tetra_boundary):
        sd, _ = tetra_boundary.barycentric_subdivide()
        report = reduce_to_boundary_simplex(sd, budget=3, seed=1)
        assert report.outcome == "inconclusive"
        assert report.flips_tried == 3
        # the sequence still replays to the best state found
        assert report.sequence.target_digest


@pytest.mark.parametrize("budget", [2.5, True, -3, "9", None], ids=repr)
@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "z2"])
def test_bad_budgets_rejected(budget, symmetric):
    # 2.5 used to try 3 flips, and -3 to report inconclusive after none
    walked, _ = random_z2_walk(cross_polytope(3), 6, seed=2)
    source = walked if symmetric else walked.complex
    reduce = z2_reduce_to_cross_polytope if symmetric else reduce_to_boundary_simplex
    with pytest.raises(BistellarError, match="budget must be an integer >= 0"):
        reduce(source, budget=budget, seed=1)


class TestSymmetricReduction:
    def test_identity_on_cross_polytope(self, octahedron):
        report = z2_reduce_to_cross_polytope(octahedron, seed=1)
        assert report.reduced and len(report.sequence) == 0
        assert reaches_target(octahedron, report.sequence)

    def test_walked_octahedron_comes_back(self, octahedron):
        walked, _ = random_z2_walk(octahedron, 10, seed=1)
        report = z2_reduce_to_cross_polytope(walked, budget=100_000, seed=1)
        assert report.reduced and reaches_target(walked, report.sequence)
        assert report.best_f_vector == (6, 12, 8)
        assert replay_verify(walked, report.sequence, octahedron)

    def test_subdivided_octahedron(self, octahedron):
        sd, _ = octahedron.equivariant_sd()
        report = z2_reduce_to_cross_polytope(sd, budget=100_000, seed=1)
        assert report.reduced and reaches_target(sd, report.sequence)
        assert replay_verify(sd, report.sequence, octahedron)

    def test_dimension_three(self):
        walked, _ = random_z2_walk(cross_polytope(4), 8, seed=2)
        report = z2_reduce_to_cross_polytope(walked, budget=100_000, seed=2)
        assert report.reduced and reaches_target(walked, report.sequence)
        assert replay_verify(walked, report.sequence, cross_polytope(4))

    def test_restarts_rewind_to_best(self):
        # seed 2 on sd of the 3-dimensional cross polytope restarts twice
        # before it lands; the search must stay deterministic and report
        # the target as its best state
        sd, _ = cross_polytope(4).equivariant_sd()
        report = z2_reduce_to_cross_polytope(sd, seed=2)
        assert report.restarts > 0
        assert report.reduced and reaches_target(sd, report.sequence)
        assert report.best_f_vector == (8, 24, 32, 16)
        assert report == z2_reduce_to_cross_polytope(sd, seed=2)


@cache
def search_input(name):
    if name == "sd-c4":
        return cross_polytope(4).equivariant_sd()[0]
    if name == "sd-simplex4":
        return simplex_boundary(4).barycentric_subdivide()[0]
    if name == "sd-c3":
        return cross_polytope(3).equivariant_sd()[0]
    if name == "sd-simplex3":
        return simplex_boundary(3).barycentric_subdivide()[0]
    return random_z2_walk(cross_polytope(3), 80, seed=5)[0]


@pytest.mark.parametrize("name, budget, seed", [
    *[("sd-c4", 100_000, seed) for seed in (1, 2, 3, 4)],  # 2-4 restarts
    ("sd-c4", 3000, 1), ("sd-c4", 3000, 3),  # inconclusive after 4 restarts
    ("sd-simplex4", 100_000, 1), ("sd-simplex4", 100_000, 2),  # one restart
    ("walk-c3", 100_000, 1), ("walk-c3", 40, 1),  # the second ends 3 moves past its best
])
def test_rewinding_search_matches_rebuilding_one(name, budget, seed):
    # The search rewinds its one index through inverse moves where the
    # reference loop snapshots every best state and rebuilds from it.
    start = search_input(name)
    report, final = reduction._search(start, budget, seed)
    assert report == rebuild_search(start, budget, seed)
    assert report.reduced == (budget == 100_000)
    assert not report.reduced or on_target(final, start)


@pytest.mark.parametrize("name", ["sd-c3", "sd-simplex3"])
@pytest.mark.parametrize("budget", [5, 40, 100_000])
def test_best_f_vector_is_the_replayed_one(name, budget):
    # The search keeps its energy and stop test on the index's face counts;
    # the sequence leads to the best state, reduced or not, and the report's
    # f-vector must be that state's.
    start = search_input(name)
    search = z2_reduce_to_cross_polytope if name == "sd-c3" else reduce_to_boundary_simplex
    outcomes = set()
    for seed in range(1, 6):
        report = search(start, budget=budget, seed=seed)
        assert report.best_f_vector == replay(start, report.sequence).f_vector().counts
        outcomes.add(report.outcome)
    assert len(outcomes) == 1 + (budget == 40)  # budget 40 ends both ways


@pytest.mark.parametrize("name, seed", [("sd-c4", 1), ("sd-simplex4", 2)])
def test_hot_restarts_rewind_from_above_the_best(monkeypatch, name, seed):
    # At the real schedule every restart above finds the search back at its
    # best f-vector; restarting at temperature 1 leaves it above, so the
    # rewound counts matter as much as the rewound complex.
    monkeypatch.setattr(reduction, "_RESTART_BELOW", 1.0)
    start = search_input(name)
    report, final = reduction._search(start, 400, seed)
    assert report.restarts == 2
    assert not report.reduced or on_target(final, start)
    assert report == rebuild_search(start, 400, seed)


class TestReplayVerify:
    def test_empty_sequence_identity(self, octahedron):
        _, sequence = random_z2_walk(octahedron, 0, seed=0)
        assert replay_verify(octahedron, sequence, octahedron)

    def test_wrong_source_rejected(self, octahedron, four_cycle):
        _, sequence = random_z2_walk(octahedron, 0, seed=0)
        assert not replay_verify(four_cycle, sequence, four_cycle)

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "z2"])
    def test_source_of_the_other_kind_rejected(self, octahedron, symmetric):
        # a plain sequence on the Z2Complex used to raise CorruptSequence
        # "step 9: ... not admissible", blaming the sequence; a symmetric
        # one on the plain complex replayed as lone moves and gave False
        walked, _ = random_z2_walk(octahedron, 10, seed=1)
        if symmetric:
            report = z2_reduce_to_cross_polytope(walked, seed=1)
            source, target = walked.complex, octahedron.complex
        else:
            report = reduce_to_boundary_simplex(walked.complex, seed=1)
            source, target = walked, octahedron
        with pytest.raises(TypeError):
            replay_verify(source, report.sequence, target)

    def test_deleted_move_raises(self, octahedron):
        # a walk whose second move touches the first move's fresh vertex
        # cannot replay once the first move is dropped
        grown, sequence = random_z2_walk(octahedron, 1, seed=1)
        fresh = (set(grown.vertices) - set(octahedron.vertices)).pop()
        follow = next(m for m in enumerate_z2_moves(grown)
                      if abs(fresh) in {abs(v) for v in m.removed})
        broken = FlipSequence(moves=(follow,), z2=True,
                              source_digest=sequence.source_digest,
                              target_digest="x")
        with pytest.raises(CorruptSequence):
            replay_verify(octahedron, broken, octahedron)


def drift_pairs(state, labels):
    """Two positive vertices whose swapped label pairs leave a Fan
    labelling of ``state`` with other alternating counts."""
    counts = alternating_counts(state, labels)
    for v, w in combinations(state.positive_vertices, 2):
        swapped = dict(labels)
        swapped[v], swapped[w] = labels[w], labels[v]
        swapped[-v], swapped[-w] = labels[-w], labels[-v]
        if not validate_fan(state, swapped) \
                and alternating_counts(state, swapped) != counts:
            return v, w
    raise AssertionError("no swap changes the counts")


class TestFanCertificate:
    def test_octahedron_canonical(self, octahedron):
        certificate = fan_certificate(octahedron, canonical_cross_labelling(3),
                                      seed=1)
        assert certificate.initial_counts == (1, 1)
        assert certificate.parity_trace == (1,)
        assert reaches_target(octahedron, certificate.sequence)

    def test_walked_sphere_random_labelling(self, octahedron):
        walked, _ = random_z2_walk(octahedron, 20, seed=7)
        labelling = random_fan_labelling(walked, 4, seed=3)
        certificate = fan_certificate(walked, labelling, seed=1)
        assert reaches_target(walked, certificate.sequence)
        counts = alternating_counts(walked, labelling)
        assert certificate.initial_counts == counts.as_tuple()
        assert counts.positive % 2 == 1
        assert set(certificate.parity_trace) == {1}
        assert len(certificate.parity_trace) == len(certificate.sequence) + 1
        assert certificate.final_labelling.integerize() \
            == certificate.final_labelling

    def test_cross_polytope_dimension_three(self):
        signed = cross_polytope(4)
        certificate = fan_certificate(signed, canonical_cross_labelling(4),
                                      seed=1)
        assert certificate.initial_counts == (1, 1)
        assert reaches_target(signed, certificate.sequence)

    @pytest.mark.parametrize("case", ["first", "last", "drift", "parity", "even"])
    def test_corrupted_transport_raises(self, octahedron, monkeypatch, case):
        walked, _ = random_z2_walk(octahedron, 20, seed=7)
        labelling = random_fan_labelling(walked, 4, seed=3)
        steps = len(fan_certificate(walked, labelling, seed=1).sequence)
        assert steps > 1
        calls = []

        def corrupting(labels, move):
            delta = _transport(labels, move)
            calls.append(move)
            if len(calls) != (steps if case == "last" else 1):
                return delta
            if case == "parity":  # one positive facet too many
                return delta[0] + 1, delta[1]
            if case == "drift":
                # Swap the labels of two pairs: still a Fan labelling, but
                # some facet changes class behind the running counts.
                v, w = drift_pairs(apply_z2_move(walked, move)[0], labels)
                labels[v], labels[w] = labels[w], labels[v]
                labels[-v], labels[-w] = labels[-w], labels[-v]
            else:
                # Break antipodality at one vertex without touching the
                # order of magnitudes.
                v = max(labels)
                for u in labels:
                    labels[u] *= 3
                labels[v] += 1
            return delta

        def even(*args):
            # One positive facet too many, counted on the input and on the
            # final complex alike: the running counts agree, but are even.
            counts = alternating_counts(*args)
            return replace(counts, positive=counts.positive + 1)

        if case == "even":
            monkeypatch.setattr(reduction, "alternating_counts", even)
        else:
            monkeypatch.setattr(reduction, "_transport", corrupting)
        expected = {"first": "not antipodal",
                    "last": f"invalid after step {steps - 1}",
                    "drift": f"drifted from the recount .* by step {steps - 1}",
                    "parity": "parity trace broke at step 0",
                    "even": "trace does not end at 1"}
        with pytest.raises(BistellarError, match=expected[case]):
            fan_certificate(walked, labelling, seed=1)

    def test_inconclusive_still_reports_counts(self, octahedron):
        walked, _ = random_z2_walk(octahedron, 12, seed=5)
        labelling = random_fan_labelling(walked, 4, seed=5)
        with pytest.raises(CertificateUnavailable) as info:
            fan_certificate(walked, labelling, budget=2, seed=1)
        direct = alternating_counts(walked, labelling)
        assert info.value.counts == direct
        assert info.value.report.outcome == "inconclusive"

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])  # 4, 2, 4 and 2 restarts
    def test_rewinding_search_matches_the_replay(self, monkeypatch, seed):
        # The labels ride on the moves that the search kept after its
        # rewinds; the reference replays the sequence on a second index.
        sd = search_input("sd-c4")
        labelling = random_fan_labelling(sd, 5, seed)
        search, searches = reduction._search, []

        def recording(*args):
            searches.append(search(*args))
            return searches[-1]

        monkeypatch.setattr(reduction, "_search", recording)
        certificate = fan_certificate(sd, labelling, seed=seed)
        assert certificate == replay_certificate(sd, labelling, seed=seed)
        (report, final), (replayed, _) = searches
        assert report == replayed and report.restarts >= 2
        assert report.reduced and on_target(final, sd)

    def test_one_move_index_per_certificate(self, octahedron, monkeypatch):
        walked, _ = random_z2_walk(octahedron, 20, seed=7)
        labelling = random_fan_labelling(walked, 4, seed=3)
        build, builds = MoveIndex.__init__, []

        def counting(self, *args):
            builds.append(args)
            build(self, *args)

        monkeypatch.setattr(MoveIndex, "__init__", counting)
        certificate = fan_certificate(walked, labelling, seed=1)
        assert len(certificate.sequence) > 1
        assert len(builds) == 1


class TestMovedLinksStaySpherical:
    def test_links_after_moves(self, octahedron):
        # vertices touched by a move keep link-spheres (dim <= 3 corpus)
        corpus = [random_z2_walk(octahedron, 6, seed=3)[0],
                  random_z2_walk(cross_polytope(4), 4, seed=3)[0]]
        for walked in corpus:
            moves = enumerate_z2_moves(walked)
            state, _ = apply_z2_move(walked, moves[0])
            touched = set(moves[0].removed) | set(moves[0].inserted)
            for v in touched:
                if (v,) not in state.complex:
                    continue
                link = state.complex.link((v,))
                report = reduce_to_boundary_simplex(link, budget=5_000, seed=1)
                assert report.reduced and reaches_target(link, report.sequence)
