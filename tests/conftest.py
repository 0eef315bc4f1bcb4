"""Shared fixtures and naive oracles.

The oracle helpers recompute everything straight from the definitions
over raw facet tuples (powersets, set unions, exhaustive scans).  They
deliberately share no code with the package so that tests compare two
independent routes.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from bistellar import SimplicialComplex, cross_polytope, simplex_boundary


# -- naive oracles over raw facet tuples ---------------------------------------


def naive_canonical_facets(faces):
    """The inclusion-maximal members of ``faces`` as a sorted tuple, by
    testing every face against every longer-or-equal one kept so far."""
    uniq = sorted(set(faces), key=lambda f: (-len(f), f))
    kept = []
    kept_sets = []
    for f in uniq:
        fs = frozenset(f)
        if any(fs <= g for g in kept_sets):
            continue
        kept.append(f)
        kept_sets.append(fs)
    return tuple(sorted(kept))


def naive_faces(facets):
    """Every nonempty face of the complex generated by ``facets``."""
    out = set()
    for facet in facets:
        for k in range(1, len(facet) + 1):
            out.update(combinations(sorted(facet), k))
    return out


def naive_f_vector(facets):
    faces = naive_faces(facets)
    top = max(len(f) for f in faces)
    counts = [0] * top
    for f in faces:
        counts[len(f) - 1] += 1
    return tuple(counts)


def naive_euler(facets):
    return sum((-1) ** (len(f) - 1) for f in naive_faces(facets))


def naive_link_faces(facets, face):
    """All faces B with B disjoint from ``face`` and B ∪ face a face."""
    faces = naive_faces(facets)
    fs = set(face)
    out = set()
    for b in faces | {()}:
        if fs & set(b):
            continue
        if tuple(sorted(fs | set(b))) in faces:
            out.add(b)
    return out


def naive_admissible_moves(facets):
    """All bistellar moves straight from the definition.

    For each face A, the link must equal the boundary of a simplex B
    that is not a face (a fresh vertex when A is a facet).  Returns
    (removed, inserted) pairs with 'fresh' standing in for the new id.
    """
    facets = [frozenset(f) for f in facets]
    n = max(len(f) for f in facets) - 1
    all_faces = naive_faces([tuple(sorted(f)) for f in facets])
    moves = []
    for face in sorted(all_faces, key=lambda t: (len(t), t)):
        r = len(face) - 1
        link = {tuple(sorted(f - set(face))) for f in facets if set(face) <= f}
        if r == n:
            if link == {()}:
                moves.append((face, "fresh"))
            continue
        strands = set()
        for piece in link:
            strands.update(piece)
        candidate = tuple(sorted(strands))
        if len(candidate) != n - r + 1:
            continue
        boundary = {tuple(sorted(set(candidate) - {w})) for w in candidate}
        if link == boundary and candidate not in all_faces:
            moves.append((face, candidate))
    return moves


def naive_flip(facets, move, symmetric=False):
    """The facets after ``move`` (and, if ``symmetric``, its antipodal
    image), as a sorted tuple: the facets containing ``move.removed`` go,
    and ``removed`` minus one vertex plus ``move.inserted`` comes in for
    each vertex of ``removed``.  No admissibility check."""
    halves = [(move.removed, move.inserted)]
    if symmetric:
        halves.append(([-v for v in move.removed], [-v for v in move.inserted]))
    out = {frozenset(f) for f in facets}
    for removed, inserted in halves:
        gone = frozenset(removed)
        out = {f for f in out if not gone <= f}
        out |= {(gone - {v}) | frozenset(inserted) for v in gone}
    return tuple(sorted(tuple(sorted(f)) for f in out))


def naive_alternating_sign(labels):
    """+1/-1/0 for a tuple of labels, by sorting and scanning."""
    values = sorted(labels, key=abs)
    for a, b in zip(values, values[1:]):
        if abs(a) == abs(b) or (a > 0) == (b > 0):
            return 0
    return 1 if values[0] > 0 else -1


def naive_alpha(facets, labelling):
    plus = minus = 0
    for f in facets:
        sign = naive_alternating_sign([labelling[v] for v in f])
        if sign > 0:
            plus += 1
        elif sign < 0:
            minus += 1
    return plus, minus


def naive_ranks(labels):
    """Labels mapped onto ±1..±m by the rank of their absolute value."""
    magnitudes = sorted({abs(x) for x in labels.values()})
    return {v: (magnitudes.index(abs(x)) + 1) * (1 if x > 0 else -1)
            for v, x in labels.items()}


def rational_relabel(labels, move):
    """Reference transport of a labelling across a symmetric move, with
    the rational midpoint nudge that the integer rule replaced.

    ``labels`` maps every vertex before the move to a :class:`Fraction`;
    the result maps every vertex after it.  A fresh pair gets ± the
    smallest positive label on the removed face (the largest label if
    none is positive); a complementary inserted edge moves its positive
    endpoint pair halfway to the next larger magnitude in use, or up by
    1/2 if there is none.
    """
    labels = dict(labels)
    removed, inserted = move.removed, move.inserted
    if len(inserted) == 1 and inserted[0] not in labels:
        positive = [labels[v] for v in removed if labels[v] > 0]
        value = min(positive) if positive else max(labels[v] for v in removed)
        labels[inserted[0]], labels[-inserted[0]] = value, -value
    elif len(inserted) == 2 and labels[inserted[0]] + labels[inserted[1]] == 0:
        u = max(inserted, key=lambda v: labels[v])
        base = labels[u]
        larger = [abs(x) for x in labels.values() if abs(x) > base]
        value = base + ((min(larger) - base) / 2 if larger else Fraction(1, 2))
        labels[u], labels[-u] = value, -value
    if len(removed) == 1:
        del labels[removed[0]], labels[-removed[0]]
    return labels


# -- fixtures -------------------------------------------------------------------


@pytest.fixture
def triangle_boundary():
    return simplex_boundary(2)


@pytest.fixture
def tetra_boundary():
    return simplex_boundary(3)


@pytest.fixture
def octahedron():
    return cross_polytope(3)


@pytest.fixture
def four_cycle():
    return cross_polytope(2)


@pytest.fixture
def square_complex():
    return SimplicialComplex.from_facets([[1, 2], [2, 3], [3, 4], [1, 4]])
