"""Canonical instances: simplex boundaries, cross polytopes, and labellings."""

from itertools import compress, filterfalse, product
from operator import add, neg, not_

from .complexes import SimplicialComplex, boundary_of_simplex
from .errors import GenerationFailed, InvalidDimension
from .fan import FanLabelling
from .moves import _rng
from .z2 import Z2Complex, _checked_kind

_SAMPLING_ROUNDS = 64
_REPAIR_ROUNDS = 50


def _checked_dimension(k):
    if type(k) is not int or k < 1:
        raise InvalidDimension(f"need an int k >= 1, got {k!r}")


def simplex_boundary(k):
    """The boundary of the k-simplex on vertices 1..k+1 (a (k-1)-sphere)."""
    _checked_dimension(k)
    return boundary_of_simplex(range(1, k + 2))


def cross_polytope(k):
    """The boundary of the k-dimensional cross polytope, a centrally
    symmetric (k-1)-sphere on vertices ±1..±k.

    Facets are the 2^k sign patterns; no facet contains an antipodal
    pair, so the negation action is free.
    """
    _checked_dimension(k)
    facets = [tuple(sorted(s * i for s, i in zip(signs, range(1, k + 1))))
              for signs in product((1, -1), repeat=k)]
    return Z2Complex(SimplicialComplex(tuple(sorted(facets))))


def canonical_cross_labelling(k):
    """The identity labelling v -> v on the cross polytope's vertex range.

    Absolute values are all distinct, so the only alternating facets
    are the two strictly sign-alternating patterns; exactly one of them
    is positive.
    """
    _checked_dimension(k)
    return FanLabelling({v: v for v in range(-k, k + 1) if v})


def random_fan_labelling(z2complex, bound, seed):
    """A random Fan labelling into ±1..±bound, reproducible from the seed.

    Vertices are drawn independently and antipodal partners mirrored; edges
    whose labels sum to zero, found in edge order by one filter over the
    sorted edge list, are repaired by resampling one endpoint pair from the
    values that its neighbours still allow.  A repair leaves no edge at the
    relabelled pair complementary, so each round rechecks only the edges that
    the last one left broken, and one that repairs none ends its sampling
    round, as each later one would repeat it.  If repeated rounds of sampling
    and repair fail, :class:`GenerationFailed` is raised rather than looping
    forever.  Bounds of at least dimension + 2 sample comfortably; on a sphere
    any bound at or below the dimension cannot succeed at all, since a
    complementary edge is then unavoidable.  A ``bound`` that is not an
    ``int`` of at least 1 raises :class:`GenerationFailed`, a ``seed`` that is
    not an ``int`` :class:`BistellarError`, a plain complex :class:`TypeError`.
    """
    if type(bound) is not int or bound < 1:
        kind = "" if type(bound) is int else " (not an int)"
        raise GenerationFailed(f"label bound must be at least 1, got {bound!r}{kind}")
    rng = _rng(seed)
    values = [s * a for a in range(1, bound + 1) for s in (1, -1)]
    edges = _checked_kind(z2complex, True).faces(1)
    heads, tails = [*zip(*edges)] or ((), ())
    neighbours = {v: set() for v in z2complex.vertices}
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
        label = labels.__getitem__
        broken = [*compress(edges, map(not_, map(add, map(label, heads), map(label, tails))))]
        for _ in range(_REPAIR_ROUNDS):
            if not broken:
                return FanLabelling(labels)
            for u, v in broken:
                if labels[u] + labels[v] != 0:
                    continue
                w = u if abs(u) >= abs(v) else v
                banned = {*map(neg, map(label, neighbours[w]))}
                allowed = [*filterfalse(banned.__contains__, values)]
                if not allowed:
                    continue
                x = rng.choice(allowed)
                labels[w], labels[-w] = x, -x
            # A repair fixes its edge and breaks none (-w's neighbours are w's negated).
            if len(broken) == len(broken := [e for e in broken if labels[e[0]] == -labels[e[1]]]):
                break
    raise GenerationFailed(
        f"no Fan labelling with bound {bound} found after {_SAMPLING_ROUNDS} attempts")
