"""Canonical instances and random labelling generation."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistellar import (
    GenerationFailed,
    InvalidDimension,
    Z2Complex,
    alternating_counts,
    canonical_cross_labelling,
    cross_polytope,
    is_closed_pseudomanifold,
    random_fan_labelling,
    random_z2_walk,
    simplex_boundary,
    validate_fan,
)
from bistellar import generators
from conftest import rescan_fan_labelling


def labelling_or_failure(generate, *args):
    try:
        return generate(*args)
    except GenerationFailed:
        return GenerationFailed


class TestSimplexBoundary:
    def test_triangle(self):
        assert simplex_boundary(2).f_vector().counts == (3, 3)

    def test_tetrahedron(self):
        assert simplex_boundary(3).f_vector().counts == (4, 6, 4)

    def test_four_dimensional(self):
        assert simplex_boundary(4).f_vector().counts == (5, 10, 10, 5)

    def test_binomial_counts(self):
        for k in range(1, 6):
            counts = simplex_boundary(k).f_vector().counts
            assert counts == tuple(comb(k + 1, i + 1) for i in range(k))

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            simplex_boundary(0)

    def test_closed(self):
        for k in range(2, 6):
            assert is_closed_pseudomanifold(simplex_boundary(k))


class TestCrossPolytope:
    def test_four_cycle(self):
        assert cross_polytope(2).f_vector().counts == (4, 4)

    def test_octahedron(self):
        assert cross_polytope(3).f_vector().counts == (6, 12, 8)

    def test_sixteen_cell(self):
        cx = cross_polytope(4)
        assert len(cx.facets) == 16
        assert cx.f_vector().counts == (8, 24, 32, 16)

    def test_count_formula(self):
        for k in range(1, 7):
            counts = cross_polytope(k).f_vector().counts
            assert counts == tuple(2 ** (i + 1) * comb(k, i + 1)
                                   for i in range(k))

    def test_validates_as_signed(self):
        for k in range(1, 6):
            Z2Complex.from_complex(cross_polytope(k).complex)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            cross_polytope(0)


@pytest.mark.parametrize("make", [simplex_boundary, cross_polytope,
                                  canonical_cross_labelling])
@pytest.mark.parametrize("k", [True, False, 2.0, "3", None, 0, -1], ids=repr)
def test_bad_dimensions_rejected(make, k):
    # True used to give the k = 1 object, and 2.0 a bare TypeError
    with pytest.raises(InvalidDimension, match="need an int k >= 1"):
        make(k)


class TestCanonicalLabelling:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_single_positive_alternating_facet(self, k):
        signed = cross_polytope(k)
        labelling = canonical_cross_labelling(k)
        assert validate_fan(signed, labelling) == []
        counts = alternating_counts(signed, labelling)
        assert counts.as_tuple() == (1, 1)

    def test_positive_facet_alternates_signs(self):
        signed = cross_polytope(3)
        labelling = canonical_cross_labelling(3)
        from bistellar import alternating_sign
        positives = [f for f in signed.facets
                     if alternating_sign(f, labelling) == 1]
        assert positives == [(-2, 1, 3)]


class TestRandomFanLabelling:
    def test_valid_on_octahedron(self, octahedron):
        labelling = random_fan_labelling(octahedron, 3, seed=5)
        assert validate_fan(octahedron, labelling) == []

    def test_deterministic(self, octahedron):
        first = random_fan_labelling(octahedron, 3, seed=5)
        second = random_fan_labelling(octahedron, 3, seed=5)
        assert first == second

    def test_bound_one_impossible_on_octahedron(self, octahedron):
        with pytest.raises(GenerationFailed):
            random_fan_labelling(octahedron, 1, seed=0)

    def test_plain_complex_rejected(self, octahedron):
        # used to die with AttributeError
        with pytest.raises(TypeError):
            random_fan_labelling(octahedron.complex, 3, seed=0)

    @pytest.mark.parametrize("bound", [True, 2.5, "3", 0, -1], ids=repr)
    def test_bad_bounds_rejected(self, octahedron, bound):
        # True used to run as 1 through all 64 x 50 rounds, and 2.5 and
        # "3" to end in a bare TypeError
        with pytest.raises(GenerationFailed, match="label bound must be at least 1"):
            random_fan_labelling(octahedron, bound, seed=0)

    def test_values_within_bound(self, octahedron):
        labelling = random_fan_labelling(octahedron, 3, seed=8)
        assert all(1 <= abs(x) <= 3 for _, x in labelling.items())

    def test_works_on_walked_spheres(self, octahedron):
        for seed in range(3):
            walked, _ = random_z2_walk(octahedron, 15, seed=seed)
            labelling = random_fan_labelling(walked, 4, seed=seed)
            assert validate_fan(walked, labelling) == []

    @pytest.mark.parametrize("k, steps", [(3, 120), (4, 80)])  # 244 and 272 facets
    def test_local_repair_matches_the_rescan(self, k, steps):
        # The repair keeps the complementary edges between rounds and walks
        # them in edge order, so it makes the rescan's rng draws exactly.
        walked, _ = random_z2_walk(cross_polytope(k), steps, seed=1)
        for bound in (walked.dimension + 2, walked.dimension + 3):
            for seed in range(20):
                expected = labelling_or_failure(rescan_fan_labelling, walked, bound, seed)
                assert labelling_or_failure(random_fan_labelling, walked, bound, seed) \
                    == expected, (bound, seed)

    @pytest.mark.parametrize("steps", [0, 10])
    def test_bound_of_the_dimension_fails_like_the_rescan(self, octahedron, steps):
        walked, _ = random_z2_walk(octahedron, steps, seed=1)
        for generate in (random_fan_labelling, rescan_fan_labelling):
            with pytest.raises(GenerationFailed):
                generate(walked, walked.dimension, 0)

    @given(k=st.sampled_from([3, 4]), steps=st.integers(0, 40),
           walk_seed=st.integers(0, 2**31), extra=st.integers(1, 3),
           seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_random_labelling_matches_the_rescan(self, k, steps, walk_seed, extra, seed):
        # On any walked sphere and any bound from d + 1, where sampling rounds
        # get stuck or every one fails, to d + 3, the labelling (or the
        # failure) is the rescan's.
        walked, _ = random_z2_walk(cross_polytope(k), steps, walk_seed)
        bound = walked.dimension + extra
        assert labelling_or_failure(random_fan_labelling, walked, bound, seed) \
            == labelling_or_failure(rescan_fan_labelling, walked, bound, seed)

    def test_a_stuck_sampling_round_ends_at_once(self, monkeypatch):
        # A round of repairs that repairs no edge leaves every label as it
        # was, as would each later round, so its sampling round ends there.
        # With repair rounds unbounded, each round but the last of a sampling
        # round repairs an edge, so no sampling round runs more of them than
        # the sphere has edges, plus one, and the labelling is the one given
        # at the default bound, found in the fifth sampling round.
        walked, _ = random_z2_walk(cross_polytope(4), 10, seed=1)
        expected = random_fan_labelling(walked, 4, 0)
        limit, rounds = len(walked.faces(1)) + 1, []

        def counted_range(*args):  # counts the repair rounds of each sampling round
            if args != (generators._REPAIR_ROUNDS,):
                yield from range(*args)
                return
            rounds.append(0)
            for i in range(*args):
                rounds[-1] += 1
                assert rounds[-1] <= limit, "a stuck sampling round went on"
                yield i

        monkeypatch.setattr(generators, "_REPAIR_ROUNDS", 10**6)
        monkeypatch.setattr(generators, "range", counted_range, raising=False)
        assert random_fan_labelling(walked, 4, 0) == expected
        assert len(rounds) == 5
