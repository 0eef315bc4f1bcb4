"""Canonical instances: simplex boundaries, cross polytopes, and labellings."""

import random
from itertools import combinations, product

from .complexes import SimplicialComplex
from .errors import GenerationFailed, InvalidDimension
from .fan import FanLabelling
from .z2 import Z2Complex, _checked_kind

_SAMPLING_ROUNDS = 64
_REPAIR_ROUNDS = 50


def _checked_dimension(k):
    if type(k) is not int or k < 1:
        raise InvalidDimension(f"need an int k >= 1, got {k!r}")


def simplex_boundary(k):
    """The boundary of the k-simplex on vertices 1..k+1 (a (k-1)-sphere)."""
    _checked_dimension(k)
    return SimplicialComplex(tuple(combinations(range(1, k + 2), k)))


def cross_polytope(k):
    """The boundary of the k-dimensional cross polytope, a centrally
    symmetric (k-1)-sphere on vertices ±1..±k.

    Facets are the 2^k sign patterns; no facet contains an antipodal
    pair, so the negation action is free.
    """
    _checked_dimension(k)
    facets = [tuple(sorted(s * i for s, i in zip(signs, range(1, k + 1))))
              for signs in product((1, -1), repeat=k)]
    return Z2Complex.from_complex(SimplicialComplex(tuple(sorted(facets))))


def canonical_cross_labelling(k):
    """The identity labelling v -> v on the cross polytope's vertex range.

    Absolute values are all distinct, so the only alternating facets
    are the two strictly sign-alternating patterns; exactly one of them
    is positive.
    """
    _checked_dimension(k)
    labels = {}
    for i in range(1, k + 1):
        labels[i] = i
        labels[-i] = -i
    return FanLabelling(labels)


def random_fan_labelling(z2complex, bound, seed):
    """A random Fan labelling into ±1..±bound, reproducible from the seed.

    Vertices are drawn independently and antipodal partners mirrored;
    edges whose labels sum to zero are then repaired by resampling one
    endpoint pair from the values its neighbourhood still allows.  If
    repeated rounds of sampling and repair fail, :class:`GenerationFailed`
    is raised rather than looping forever.  Bounds of at least
    dimension + 2 sample comfortably; on a sphere any bound at or below
    the dimension cannot succeed at all, since a complementary edge is
    then unavoidable.  A ``bound`` that is not an ``int`` of at least 1
    raises :class:`GenerationFailed`, a plain complex :class:`TypeError`.
    """
    if type(bound) is not int or bound < 1:
        kind = "" if type(bound) is int else " (not an int)"
        raise GenerationFailed(f"label bound must be at least 1, got {bound!r}{kind}")
    rng = random.Random(seed)
    values = [s * a for a in range(1, bound + 1) for s in (1, -1)]
    cx = _checked_kind(z2complex, True).complex
    edges = cx.faces(1)
    neighbours = {v: set() for v in cx.vertices}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    reps = z2complex.positive_vertices

    for _ in range(_SAMPLING_ROUNDS):
        labels = {}
        for v in reps:
            x = rng.choice(values)
            labels[v] = x
            labels[-v] = -x
        for _ in range(_REPAIR_ROUNDS):
            broken = [e for e in edges if labels[e[0]] + labels[e[1]] == 0]
            if not broken:
                return FanLabelling(labels)
            for u, v in broken:
                if labels[u] + labels[v] != 0:
                    continue
                w = u if abs(u) >= abs(v) else v
                banned = {-labels[y] for y in neighbours[w]}
                allowed = [x for x in values if x not in banned]
                if not allowed:
                    continue
                x = rng.choice(allowed)
                labels[abs(w)] = x if w > 0 else -x
                labels[-abs(w)] = -labels[abs(w)]
    raise GenerationFailed(
        f"no Fan labelling with bound {bound} found after {_SAMPLING_ROUNDS} attempts")
