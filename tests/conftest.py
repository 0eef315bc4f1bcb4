"""Shared fixtures and naive oracles.

The oracle helpers recompute everything straight from the definitions
over raw facet tuples (powersets, set unions, exhaustive scans).  They
deliberately share no code with the package so that tests compare two
independent routes.
"""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from bistellar import (
    FlipSequence,
    MoveIndex,
    ReductionReport,
    SimplicialComplex,
    complex_digest,
    cross_polytope,
    find_isomorphism,
    simplex_boundary,
)
from bistellar import reduction


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


def naive_cofacets(facets):
    """Each nonempty face mapped to the sorted list of facets containing it."""
    out = {}
    for facet in facets:
        for face in naive_faces([facet]):
            out.setdefault(face, []).append(tuple(sorted(facet)))
    return {face: sorted(containing) for face, containing in out.items()}


def naive_star(facets, vertex):
    """The facets containing ``vertex``."""
    return [f for f in facets if vertex in f]


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


def naive_isomorphism(left, right, signed):
    """A vertex bijection sending the facets ``left`` onto the facets
    ``right``, or None, by trying every permutation.  With ``signed`` it must
    also send ``u`` and ``v`` to antipodes exactly when ``v == -u``.  For at
    most 8 vertices."""
    lv = sorted({v for f in left for v in f})
    rv = sorted({v for f in right for v in f})
    assert len(lv) <= 8
    target = {frozenset(f) for f in right}
    if len(lv) != len(rv):
        return None
    for image in permutations(rv):
        sigma = dict(zip(lv, image))
        if any(frozenset(sigma[v] for v in f) not in target for f in left):
            continue  # most permutations fail at once here
        if signed and any((sigma[u] == -sigma[v]) != (u == -v)
                          for u in lv for v in lv):
            continue
        if {frozenset(sigma[v] for v in f) for f in left} == target:
            return sigma
    return None


def naive_link_simplices(facets):
    """Each face A whose link is the boundary of a simplex B, mapped to B,
    straight from the definition: B is the union of the link's faces, and
    a facet maps to ``()`` (its link is the empty face alone)."""
    facets = [frozenset(f) for f in facets]
    n = max(len(f) for f in facets) - 1
    out = {}
    for face in naive_faces([tuple(sorted(f)) for f in facets]):
        r = len(face) - 1
        link = {tuple(sorted(f - set(face))) for f in facets if set(face) <= f}
        if r == n:
            if link == {()}:
                out[face] = ()
            continue
        strands = set()
        for piece in link:
            strands.update(piece)
        candidate = tuple(sorted(strands))
        if len(candidate) != n - r + 1:
            continue
        boundary = {tuple(sorted(set(candidate) - {w})) for w in candidate}
        if link == boundary:
            out[face] = candidate
    return out


def naive_admissible_moves(facets):
    """All bistellar moves straight from the definition.

    For each face A, the link must equal the boundary of a simplex B
    that is not a face (a fresh vertex when A is a facet).  Returns
    (removed, inserted) pairs with 'fresh' standing in for the new id.
    """
    all_faces = naive_faces(facets)
    return [(face, b or "fresh")
            for face, b in sorted(naive_link_simplices(facets).items(),
                                  key=lambda item: (len(item[0]), item[0]))
            if b not in all_faces]


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


def naive_z2_error(facets):
    """``(exception name, message)`` for the first facet, in order, without
    its antipode, else for the first with a pair ``{v, -v}``; None if the
    facets are closed under negation and free."""
    present = set(facets)
    for f in facets:
        if tuple(sorted(-v for v in f)) not in present:
            return "NotEquivariant", f"facet {f} has no antipodal facet"
    for f in facets:
        for v in f:
            if -v in f:
                return "ActionNotFree", f"facet {f} contains the antipodal pair ±{abs(v)}"
    return None


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


def naive_fan_check(facets, labels):
    """``(violations, tucker edge or None)`` by the whole-edge-list scan:
    every edge of the complex in canonical order, tested one by one.  An
    unlabelled vertex raises :class:`KeyError` naming the first in order."""
    vertices = sorted({v for f in facets for v in f})
    for v in vertices:
        if v not in labels:
            raise KeyError(v)
    edges = sorted(f for f in naive_faces(facets) if len(f) == 2)
    complementary = [e for e in edges if labels[e[0]] + labels[e[1]] == 0]
    violations = [("antipodality", v) for v in vertices
                  if v > 0 and -v in vertices and labels[v] != -labels[-v]]
    violations += [("complementary-edge", e) for e in complementary]
    return violations, (complementary[0] if complementary else None)


def _naive_render(value, depth):
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = [f'{inner}{json.dumps(str(k))}: {_naive_render(v, depth + 1)}'
                 for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(value, list):
        if all(isinstance(x, (int, str, bool)) or x is None for x in value):
            return json.dumps(value)
        lines = [f"{inner}{_naive_render(x, depth + 1)}" for x in value]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    return json.dumps(value)


def naive_dumps_canonical(doc):
    """The canonical layout one value at a time, with one ``json.dumps``
    per scalar list: keys sorted, lists of scalars inline, any other list
    one item per line."""
    return _naive_render(doc, 0) + "\n"


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


def rebuild_search(start, budget, seed):
    """The reduction loop as it was before it rewound its index: every new
    best state is snapshotted whole, and a restart builds a second
    :class:`MoveIndex` from the snapshot.  Same schedule (read from the
    module, so a test may patch it), same rng calls, so it must return the
    same :class:`ReductionReport` as the search."""
    rng = random.Random(seed)
    index = MoveIndex(start)
    multiplier = 2 if index.z2 else 1
    k = start.dimension + 1
    target = (cross_polytope if index.z2 else simplex_boundary)(k)
    target_f = list(target.f_vector().counts)
    counts = list(start.f_vector().counts)
    source_digest = complex_digest(start)

    def matched():
        return counts == target_f and find_isomorphism(index.state, target) is not None

    def report(outcome, final, log, best_f):
        sequence = FlipSequence(
            moves=tuple(log), z2=index.z2, source_digest=source_digest,
            target_digest=complex_digest(final))
        return ReductionReport(outcome, sequence, flips, applied, restarts,
                               tuple(best_f), budget, seed)

    log = []
    best_energy = tuple(reversed(counts))
    best = (index.state, [], list(counts))
    flips = applied = restarts = 0
    if matched():
        return report("reduced", index.state, log, counts)
    temperature = reduction._START_TEMPERATURE
    while flips < budget:
        flips += 1
        delta, pool = index.lowest()
        if delta < 0:
            move = index[rng.randrange(pool)]
            accepted = True
        else:
            move = index[rng.randrange(len(index))]
            delta = move.facet_delta()
            accepted = delta <= 0 or rng.random() < math.exp(
                -delta * multiplier / temperature)
        if accepted:
            index.apply(move)
            counts = [c + multiplier * d
                      for c, d in zip(counts, move.f_delta(k - 1))]
            log.append(move)
            applied += 1
            energy = tuple(reversed(counts))
            if energy < best_energy:
                best_energy = energy
                best = (index.state, list(log), list(counts))
            if matched():
                return report("reduced", index.state, log, best[2])
        temperature *= reduction._COOLING
        if temperature < reduction._RESTART_BELOW:
            temperature = reduction._START_TEMPERATURE
            restarts += 1
            index = MoveIndex(best[0])
            log, counts = list(best[1]), list(best[2])
    return report("inconclusive", *best)


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
