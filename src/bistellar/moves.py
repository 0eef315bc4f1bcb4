"""Bistellar moves, their symmetric pairs, and replayable flip logs.

A move swaps one side of a sphere bipyramid for the other: if the link
of a face ``A`` is exactly the boundary of a simplex ``B`` that is not
itself a face, the star of ``A`` (which equals ``A * boundary(B)``)
may be replaced by ``boundary(A) * B``.  On a centrally symmetric
complex the move and its antipodal image are applied together so the
result stays symmetric.

Enumeration order is a contract: moves are listed by ``(len(removed),
removed, inserted)``, and seeded walks and searches draw from that list
by position.  On a symmetric complex a pair is listed once, under the
move whose removed face is smaller than its antipode, if its inserted
simplex is disjoint from its own antipode.  Walks and searches keep a
:class:`MoveIndex` that each flip updates in the star of the move.
"""

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .complexes import SimplicialComplex, complex_digest, normalize_face
from .errors import (
    BistellarError,
    CorruptSequence,
    FaceNotPresent,
    InterferingAntipodalMove,
    MoveNotAdmissible,
)
from .z2 import Z2Complex, antipode


@dataclass(frozen=True)
class BistellarMove:
    """A move descriptor: ``removed`` is the face whose star goes away,
    ``inserted`` the simplex that appears in its place.

    For the move to be admissible, ``removed`` must be present with
    link equal to the boundary of ``inserted``, and ``inserted`` must
    be absent.  When ``removed`` is a facet, ``inserted`` is a single
    fresh vertex.
    """

    removed: tuple
    inserted: tuple

    def __post_init__(self):
        object.__setattr__(self, "removed", normalize_face(self.removed))
        object.__setattr__(self, "inserted", normalize_face(self.inserted))

    def inverse(self):
        return BistellarMove(self.inserted, self.removed)

    def antipodal(self):
        return BistellarMove(antipode(self.removed), antipode(self.inserted))

    def facet_delta(self):
        """Change in facet count when applied: |removed| - |inserted|."""
        return len(self.removed) - len(self.inserted)

    def f_delta(self, dimension):
        """Change of the whole f-vector on a pure complex of the given dimension.

        Added faces are exactly those containing ``inserted``; removed
        faces exactly those containing ``removed``; both counts are
        binomial.
        """
        a, b = len(self.removed), len(self.inserted)
        delta = []
        for k in range(dimension + 1):
            added = comb(a, k + 1 - b) if 0 <= k + 1 - b < a else 0
            gone = comb(b, k + 1 - a) if 0 <= k + 1 - a < b else 0
            delta.append(added - gone)
        return tuple(delta)

    def __repr__(self):
        return f"BistellarMove({list(self.removed)} -> {list(self.inserted)})"


def fresh_vertex(complex_):
    """Smallest positive id unused by the complex, with its negation also free."""
    used = {abs(v) for v in complex_.vertices}
    k = 1
    while k in used:
        k += 1
    return k


def _link_simplex(face, containing, dimension):
    """The simplex whose boundary is the link of ``face``, ``()`` for a
    top facet (its move inserts a fresh vertex), or None.  The one
    admissibility predicate: the move is admissible iff that simplex is
    not a face.  ``containing`` lists the facets containing ``face``."""
    need = dimension + 2 - len(face)
    if len(containing) != need:
        return None
    if need == 1:
        return ()
    if any(len(f) != dimension + 1 for f in containing):
        return None
    apex = set().union(*containing).difference(face)
    return tuple(sorted(apex)) if len(apex) == need else None


def find_move(complex_, face):
    """The admissible move removing ``face``, or None.

    The complex must be pure.  When ``face`` is a facet the inserted
    vertex is chosen as the smallest unused positive id (with its
    negation also unused, so the same id works for symmetric pairs).
    """
    face = normalize_face(face)
    if face not in complex_:
        raise FaceNotPresent(f"face {face} is not in the complex")
    containing = [complex_.facets[i] for i in complex_.facets_containing(face)]
    inserted = _link_simplex(face, containing, complex_.dimension)
    if inserted is None or (inserted and inserted in complex_):
        return None
    return BistellarMove(face, inserted or (fresh_vertex(complex_),))


def is_admissible(complex_, move):
    """Check a move against the complex without applying it."""
    A, B = move.removed, move.inserted
    if not A or not B or A not in complex_ or B in complex_:
        return False
    containing = [complex_.facets[i] for i in complex_.facets_containing(A)]
    link = _link_simplex(A, containing, complex_.dimension)
    return link == B or (link == () and len(B) == 1)


class MoveIndex:
    """The moves of a pure complex (symmetric pairs for a
    :class:`Z2Complex`); ``index[i]`` is the ``i``-th in enumeration order.

    :meth:`apply` flips through :func:`apply_move` or :func:`apply_z2_move`
    with all their checks, then rechecks only the faces of the removed and
    added facets and the faces that would insert one of those.  Invariants:
    ``_cofacets`` maps each face to the facets containing it; ``_links``
    maps each face to :func:`_link_simplex` where that is not None (the
    fresh vertex of ``()`` is chosen on reading, so new vertices never
    dirty facet moves); ``_owners`` inverts ``_links``, so a face blocked
    by a present simplex is rechecked when it goes; ``_buckets[k]`` sorts
    the listed ``k``-vertex faces.
    """

    def __init__(self, state):
        self.state = state
        self.z2 = isinstance(state, Z2Complex)
        self.complex = state.complex if self.z2 else state
        self.fresh = fresh_vertex(self.complex)
        self._cofacets, self._links, self._owners = {}, {}, {}
        self._buckets = [[] for _ in range(self.complex.dimension + 2)]
        self._recheck(self._swap((), self.complex.facets))

    def __len__(self):
        return sum(map(len, self._buckets))

    def __getitem__(self, position):
        for bucket in self._buckets:
            if 0 <= position < len(bucket):
                face = bucket[position]
                return BistellarMove(face, self._links[face] or (self.fresh,))
            position -= len(bucket)
        raise IndexError(position)

    def lowest(self):
        """``(facet_delta, count)`` of the first, most downhill moves:
        ``facet_delta`` is ``2 * len(removed) - (dimension + 2)``."""
        k = next(k for k, bucket in enumerate(self._buckets) if bucket)
        return 2 * k - self.complex.dimension - 2, len(self._buckets[k])

    def apply(self, move):
        """Apply ``move`` (and its antipodal image) and update the index."""
        halves = [move]
        if self.z2:
            self.state, _ = apply_z2_move(self.state, move)
            self.complex = self.state.complex
            halves.append(move.antipodal())
        else:
            self.state = self.complex = apply_move(self.state, move)[0]
        self.fresh = fresh_vertex(self.complex)
        touched = set()
        for m in halves:
            touched |= self._swap(list(self._cofacets[m.removed]), [
                tuple(sorted(set(m.removed).difference((v,)).union(m.inserted)))
                for v in m.removed])
        self._recheck(touched.union(*(self._owners.get(face, ())
                                      for face in touched)))

    def _swap(self, gone, added):
        """Replace facets in the cofacet map; returns the faces touched."""
        touched = set()
        for facet in gone:
            for k in range(1, len(facet) + 1):
                for face in combinations(facet, k):
                    containing = self._cofacets[face]
                    containing.remove(facet)
                    if not containing:
                        del self._cofacets[face]
                    touched.add(face)
        for facet in added:
            for k in range(1, len(facet) + 1):
                for face in combinations(facet, k):
                    self._cofacets.setdefault(face, []).append(facet)
                    touched.add(face)
        return touched

    def _recheck(self, faces):
        for face in faces:
            link = self._links.pop(face, None)
            if link:
                owners = self._owners[link]
                owners.remove(face)
                if not owners:
                    del self._owners[link]
            bucket = self._buckets[len(face)]
            i = bisect_left(bucket, face)
            if i < len(bucket) and bucket[i] == face:
                del bucket[i]
            containing = self._cofacets.get(face)
            if containing is None:
                continue
            link = _link_simplex(face, containing, self.complex.dimension)
            if link is None:
                continue
            self._links[face] = link
            if link:
                self._owners.setdefault(link, []).append(face)
                if link in self._cofacets:
                    continue
            if self.z2 and (antipode(face) < face
                            or not set(link).isdisjoint(antipode(link))):
                continue
            insort(bucket, face)


def enumerate_moves(complex_):
    """All admissible moves of a pure complex, in enumeration order.

    Facet moves all propose the same fresh vertex id; they are
    alternatives, not a batch.
    """
    return list(MoveIndex(complex_))


def apply_move(complex_, move):
    """Apply a bistellar move and return ``(new complex, inverse move)``.

    The facet surgery is local: facets containing ``removed`` are
    deleted and replaced by one facet per vertex of ``removed``.  The
    result needs no antichain re-pruning (no retained facet can sit
    inside a new one, because the new facets all contain the previously
    absent simplex).
    """
    if not is_admissible(complex_, move):
        raise MoveNotAdmissible(f"{move} is not admissible here")
    A, B = move.removed, move.inserted
    doomed = set(complex_.facets_containing(A))
    out = [f for i, f in enumerate(complex_.facets) if i not in doomed]
    for drop in A:
        kept = tuple(v for v in A if v != drop)
        out.append(tuple(sorted(kept + B)))
    return SimplicialComplex(tuple(sorted(out))), move.inverse()


# -- symmetric pairs -----------------------------------------------------------


def apply_z2_move(z2complex, move):
    """Apply a move together with its antipodal image.

    When ``inserted`` is a fresh vertex, both ids of the ± pair must be
    free.  The antipodal half is re-checked after the first flip rather
    than assumed: a failure there raises
    :class:`InterferingAntipodalMove` (the one reachable case is an
    inserted edge of the form ``{v, -v}``, which also breaks freeness).
    """
    B = move.inserted
    vertices = set(z2complex.vertices)
    if len(B) == 1 and B[0] not in vertices and -B[0] in vertices:
        raise MoveNotAdmissible(
            f"fresh vertex {B[0]} needs {-B[0]} free as well")
    first, _ = apply_move(z2complex.complex, move)
    try:
        second, _ = apply_move(first, move.antipodal())
    except MoveNotAdmissible as exc:
        raise InterferingAntipodalMove(
            f"antipodal half of {move} became inadmissible: {exc}") from exc
    result = Z2Complex.from_complex(second)
    return result, move.inverse()


def enumerate_z2_moves(z2complex):
    """All admissible symmetric move pairs, one representative each, in
    enumeration order.

    A plain move extends to a symmetric pair iff its inserted simplex is
    disjoint from its own antipode; the pair is listed under the move
    whose removed face is smaller than its antipode.
    """
    return list(MoveIndex(z2complex))


def random_z2_walk(z2complex, steps, seed):
    """Walk the symmetric flip graph with uniformly chosen admissible moves.

    Fully reproducible: candidates come in enumeration order and the
    choice is driven by a private ``random.Random(seed)``.  Returns the
    final complex and the replayable flip sequence.
    """
    rng = random.Random(seed)
    index = MoveIndex(z2complex)
    log = []
    for _ in range(int(steps)):
        move = index[rng.randrange(len(index))]
        index.apply(move)
        log.append(move)
    sequence = FlipSequence(
        moves=tuple(log),
        z2=True,
        source_digest=complex_digest(z2complex.complex),
        target_digest=complex_digest(index.complex),
    )
    return index.state, sequence


# -- flip logs ----------------------------------------------------------------


@dataclass(frozen=True)
class FlipSequence:
    """An ordered, replayable log of moves with source/target digests."""

    moves: tuple
    z2: bool
    source_digest: str
    target_digest: str

    def __len__(self):
        return len(self.moves)

    def inverted(self):
        """The sequence that undoes this one."""
        return FlipSequence(
            moves=tuple(m.inverse() for m in reversed(self.moves)),
            z2=self.z2,
            source_digest=self.target_digest,
            target_digest=self.source_digest,
        )


def replay(source, sequence):
    """Re-apply a recorded sequence, checking admissibility at every step.

    ``source`` must be a :class:`Z2Complex` for symmetric sequences and
    a plain complex otherwise.  Raises :class:`CorruptSequence` with the
    failing step index if any move does not apply.
    """
    current = source
    for i, move in enumerate(sequence.moves):
        try:
            if sequence.z2:
                current, _ = apply_z2_move(current, move)
            else:
                current, _ = apply_move(current, move)
        except BistellarError as exc:
            raise CorruptSequence(i, f"step {i}: {exc}") from exc
    return current
