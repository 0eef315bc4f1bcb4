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
simplex is disjoint from its own antipode.  Every flip, by walks,
searches, :func:`replay` or the ``apply`` functions, goes through a
:class:`MoveIndex` that checks it and updates itself in its star.
"""

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count
from math import comb

from .complexes import SimplicialComplex, _checked_face, complex_digest
from .errors import (
    BistellarError,
    CorruptSequence,
    InterferingAntipodalMove,
    MoveNotAdmissible,
)
from .z2 import Z2Complex, _underlying, antipode


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
        object.__setattr__(self, "removed", _checked_face(self.removed))
        object.__setattr__(self, "inserted", _checked_face(self.inserted))

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
    return next(k for k in count(1) if k not in used)


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
    face, hits = complex_._star_indices(face)
    containing = [complex_.facets[i] for i in hits]
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

    :meth:`apply` is the one place where a flip is checked and made.
    ``state`` is built from the facet set ``_facets`` when read;
    ``_cofacets`` maps each face to the facets containing it.  Moves are
    listed on the first read, then kept by rechecking only the faces of the
    removed and added facets and the faces that would insert one of those:
    ``_links`` maps each face to :func:`_link_simplex` where that is not
    None (``fresh`` fills in ``()`` on reading, so new vertices never dirty
    facet moves); ``_owners`` inverts ``_links``, so a face blocked by a
    present simplex is rechecked when it goes; ``_buckets[k]`` sorts the
    listed ``k``-vertex faces.
    """

    def __init__(self, state):
        cx = _underlying(state)
        self.z2 = cx is not state
        self.state, self._dimension = state, cx.dimension
        self.fresh = fresh_vertex(cx)
        self._facets, self._cofacets, self._links = set(), {}, None
        self._swap((), cx.facets)

    @cached_property
    def state(self):
        cx = SimplicialComplex(tuple(sorted(self._facets)))
        return Z2Complex(cx) if self.z2 else cx

    @property
    def complex(self):
        return _underlying(self.state)

    def _listed(self):
        """The buckets, listed on first use: a lone flip needs none."""
        if self._links is None:
            self._links, self._owners = {}, {}
            self._buckets = [[] for _ in range(self._dimension + 2)]
            self._recheck(list(self._cofacets))
        return self._buckets

    def __len__(self):
        return sum(map(len, self._listed()))

    def __getitem__(self, position):
        for bucket in self._listed():
            if 0 <= position < len(bucket):
                face = bucket[position]
                return BistellarMove(face, self._links[face] or (self.fresh,))
            position -= len(bucket)
        raise IndexError(position)

    def lowest(self):
        """``(facet_delta, count)`` of the first, most downhill moves:
        ``facet_delta`` is ``2 * len(removed) - (dimension + 2)``."""
        k, bucket = next((k, b) for k, b in enumerate(self._listed()) if b)
        return 2 * k - self._dimension - 2, len(bucket)

    def apply(self, move):
        """Check ``move`` (and its antipodal image, see :func:`apply_z2_move`)
        and apply it; a rejected move changes nothing."""
        if not self._admits(move):
            raise MoveNotAdmissible(f"{move} is not admissible here")
        halves = [move, move.antipodal()] if self.z2 else [move]
        if self.z2 and not (self._admits(halves[1])
                            and set(move.inserted).isdisjoint(halves[1].inserted)):
            raise InterferingAntipodalMove(
                f"antipodal half of {move} is not admissible with it")
        touched = set()
        for m in halves:
            touched |= self._swap(list(self._cofacets[m.removed]), [
                tuple(sorted(set(m.removed).difference((v,)).union(m.inserted)))
                for v in m.removed])
        if self._links is not None:
            self._recheck(touched.union(*(self._owners.get(face, ())
                                          for face in touched)))
        vars(self).pop("state", None)
        if len(move.removed) == 1:  # ids below fresh were used; this one may be free
            self.fresh = min(self.fresh, abs(move.removed[0]))
        while (self.fresh,) in self._cofacets or (-self.fresh,) in self._cofacets:
            self.fresh += 1

    def _admits(self, move):
        containing, B = self._cofacets.get(move.removed), move.inserted
        link = containing and _link_simplex(move.removed, containing, self._dimension)
        return link is not None and B not in self._cofacets and (
            link == B if link else len(B) == 1)

    def _swap(self, gone, added):
        """Replace facets in the facet set and the cofacet map; returns
        the faces touched."""
        touched = set()
        for facet in gone:
            self._facets.remove(facet)
            for k in range(1, len(facet) + 1):
                for face in combinations(facet, k):
                    containing = self._cofacets[face]
                    containing.remove(facet)
                    if not containing:
                        del self._cofacets[face]
                    touched.add(face)
        for facet in added:
            self._facets.add(facet)
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
            link = _link_simplex(face, containing, self._dimension)
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
    """Apply a bistellar move and return ``(new complex, inverse move)``:
    the facets containing ``removed`` give way to one facet per vertex of
    ``removed``, joined with ``inserted``.  Raises :class:`MoveNotAdmissible`
    if the move does not apply."""
    index = MoveIndex(complex_)
    index.apply(move)
    return index.complex, move.inverse()


# -- symmetric pairs -----------------------------------------------------------


def apply_z2_move(z2complex, move):
    """Apply a move together with its antipodal image.

    Both halves are checked against the starting complex, and no more is
    needed: in a free complex the stars of ``removed`` and its antipode
    share no facet and every new face contains ``inserted``, so the pair
    applies, equivariant and free, unless ``inserted`` meets its antipode
    (``{v, -v}``) or the antipodal half is not admissible, which needs a
    complex that is not symmetric; both raise :class:`InterferingAntipodalMove`."""
    index = MoveIndex(z2complex)
    index.apply(move)
    return index.state, move.inverse()


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
    index = MoveIndex(source)
    for i, move in enumerate(sequence.moves):
        try:
            index.apply(move)
        except BistellarError as exc:
            raise CorruptSequence(i, f"step {i}: {exc}") from exc
    return index.state
