"""Bistellar moves, their symmetric pairs, and replayable flip logs.

A move swaps one side of a sphere bipyramid for the other: if the link
of a face ``A`` is exactly the boundary of a simplex ``B`` that is not
itself a face, the star of ``A`` (which equals ``A * boundary(B)``)
may be replaced by ``boundary(A) * B``.  On a centrally symmetric
complex the move and its antipodal image are applied together so the
result stays symmetric.

Enumeration order is a contract: moves are listed by ``(len(removed),
removed, inserted)``, and seeded walks and searches draw from that list by
position.  On a symmetric complex a pair is listed once, under the move
whose removed face is smaller than its antipode, if its inserted simplex
is disjoint from its own antipode.  Every flip, by walks, searches,
:func:`replay`, the ``apply`` functions or label transport, goes through a
:class:`MoveIndex`, which alone decides admissibility, keeps the f-vector
and updates itself in the star of the move, on a symmetric complex for one
face of each antipodal pair.  The ``z2`` functions raise
:class:`TypeError` unless given a :class:`Z2Complex`, the others if given one.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count
from math import comb
from operator import neg

from .complexes import FVector, SimplicialComplex, _checked_face, complex_digest
from .errors import (
    BistellarError,
    CorruptSequence,
    InterferingAntipodalMove,
    MoveNotAdmissible,
)
from .z2 import Z2Complex, _checked_kind, _checked_symmetric, _negated


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
        """The move that undoes this one; it restores an index exactly:

        >>> from bistellar import cross_polytope
        >>> index = MoveIndex(cross_polytope(3))
        >>> before, move = (index.state, index.fresh, list(index)), index[0]
        >>> _ = index.apply(move), index.apply(move.inverse())
        >>> move, (index.state, index.fresh, list(index)) == before
        (BistellarMove([-3, -2, -1] -> [4]), True)
        """
        return BistellarMove(self.inserted, self.removed)

    def antipodal(self):
        return BistellarMove(_negated(self.removed), _negated(self.inserted))

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


def _checked_count(value, name):
    """``value`` if it is an ``int`` (not a ``bool``) of at least 0."""
    if type(value) is not int or value < 0:
        raise BistellarError(f"{name} must be an integer >= 0, not {value!r}")
    return value


def find_move(complex_, face):
    """The admissible move removing ``face`` that a :class:`MoveIndex` of
    the complex lists, or None.

    The complex must be pure.  When ``face`` is a facet the inserted
    vertex is chosen as the smallest unused positive id (with its
    negation also unused, so the same id works for symmetric pairs).
    """
    face = _checked_kind(complex_, False)._star_indices(face)[0]
    return next((m for m in MoveIndex(complex_) if m.removed == face), None)


class MoveIndex:
    """The moves of a pure complex (symmetric pairs for a
    :class:`Z2Complex`); ``index[i]`` is the ``i``-th in enumeration order.

    :meth:`apply` is the one place where a flip is checked and made.
    ``state`` is built from the facet set ``_facets`` when read;
    ``_cofacets`` maps each face to the facets containing it, and ``_f``
    counts its keys by dimension for :meth:`f_vector`.  Moves are
    listed on the first read, then kept by rechecking only the faces of the
    removed and added facets and the faces that would insert one of those:
    ``_links`` maps each face to :meth:`_link_simplex` where that is not
    None (``fresh`` fills in ``()`` on reading, so new vertices never dirty
    facet moves); ``_owners`` inverts ``_links`` and is read only for the
    simplices that enter or leave, so a face waiting on a simplex is
    rechecked when it comes or goes; ``_buckets[k]`` sorts the listed
    ``k``-vertex faces, and a bucket is edited only when a face enters or
    leaves the listing.  A symmetric index keeps all but ``_facets``
    for the smaller face of each antipodal pair only, the face ``(a, ...,
    b)`` with ``a + b < 0`` (``a + b == 0`` would put ``a`` and ``-a`` in
    one face), and looks any face up as that one (:meth:`_key`).  It is
    built only on a pure complex, equivariant and free if symmetric.
    """

    def __init__(self, state):
        self.z2 = isinstance(state, Z2Complex)
        if not state.is_pure():
            raise BistellarError("a MoveIndex needs a pure complex")
        if self.z2:
            _checked_symmetric(state.facets)
        self.state, self._dimension = state, state.dimension
        self.fresh = fresh_vertex(state)
        self._facets, self._cofacets, self._links = set(), {}, None
        self._f = [0] * (state.dimension + 1)
        self._swap((), state.facets)

    @cached_property
    def state(self):
        cx = SimplicialComplex(tuple(sorted(self._facets)))
        return Z2Complex(cx) if self.z2 else cx

    def f_vector(self):
        """The face counts of :attr:`state`, kept without building it."""
        return FVector([2 * n for n in self._f] if self.z2 else self._f)

    def _key(self, face):
        """``face``, or on a symmetric index the smaller face of its pair."""
        return _negated(face) if self.z2 and face and face[0] + face[-1] > 0 else face

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
        and apply it; a rejected move changes nothing.  Returns the lists
        ``(removed facets, added facets)`` of both halves, ``move``'s first."""
        removed, inserted = move.removed, move.inserted
        key = self._key(removed)
        flipped = key != removed  # check the half that removes the kept face
        link, B = self._link_simplex(key), _negated(inserted) if flipped else inserted
        if link is None or not (link == B if link else len(B) == 1) \
                or self._key(B) in self._cofacets:
            raise MoveNotAdmissible(f"{move} is not admissible here")
        if self.z2 and not set(B).isdisjoint(map(neg, B)):
            raise InterferingAntipodalMove(
                f"{move} inserts a simplex that meets its antipode")
        gone = list(self._cofacets[key])
        added = [tuple(sorted(set(removed).difference((v,)).union(inserted)))
                 for v in removed]
        if self.z2:
            mirrored = list(map(_negated, gone))
            gone = mirrored + gone if flipped else gone + mirrored
            added += map(_negated, reversed(added))
        touched, toggled = self._swap(gone, added)
        if self._links is not None:
            owners = self._owners
            self._recheck(touched.union(*map(owners.get, owners.keys() & toggled)))
        vars(self).pop("state", None)
        if len(removed) == 1:  # ids below fresh were used; this one may be free
            self.fresh = min(self.fresh, abs(removed[0]))
        while (self.fresh,) in self._cofacets or (-self.fresh,) in self._cofacets:
            self.fresh += 1
        return gone, added

    def _link_simplex(self, face):
        """The simplex whose boundary is the link of ``face``, ``()`` for a
        top facet (its move inserts a fresh vertex), or None, as for an
        absent face; a ridge's two apexes are each a cofacet's vertex sum
        less the ridge's.  The one admissibility predicate: the move is
        admissible iff that simplex is not a face."""
        containing, need = self._cofacets.get(face), self._dimension + 2 - len(face)
        if containing is None or len(containing) != need:
            return None
        if need == 1:
            return ()
        if need == 2:
            s = sum(face)
            a, b = sum(containing[0]) - s, sum(containing[1]) - s
            return (a, b) if a < b else (b, a)
        apex = set().union(*containing).difference(face)
        return tuple(sorted(apex)) if len(apex) == need else None

    def _swap(self, gone, added):
        """Replace facets in the facet set and the cofacet map, counting each
        kept face as it enters or leaves the map; returns the set of kept
        faces touched and the set of those that entered or left."""
        touched, toggled, z2 = set(), set(), self.z2
        for facet in gone:
            self._facets.remove(facet)
            for k in range(1, len(facet) + 1):
                for face in combinations(facet, k):
                    if z2 and face[0] + face[-1] > 0:
                        continue
                    containing = self._cofacets[face]
                    containing.remove(facet)
                    if not containing:
                        del self._cofacets[face]
                        self._f[k - 1] -= 1
                        toggled.add(face)
                    touched.add(face)
        for facet in added:
            self._facets.add(facet)
            for k in range(1, len(facet) + 1):
                for face in combinations(facet, k):
                    if z2 and face[0] + face[-1] > 0:
                        continue
                    containing = self._cofacets.setdefault(face, [])
                    if not containing:
                        self._f[k - 1] += 1
                        toggled.add(face)
                    containing.append(facet)
                    touched.add(face)
        return touched, toggled

    def _recheck(self, faces):
        links, owners = self._links, self._owners
        for face in faces:
            old, link = links.get(face), self._link_simplex(face)
            if link is None and old is None:
                continue
            key = self._key(link)
            if link != old:
                if old:
                    waiting = owners[self._key(old)]
                    waiting.remove(face)
                    if not waiting:
                        del owners[self._key(old)]
                if link is None:
                    del links[face]
                else:
                    links[face] = link
                    if link:
                        owners.setdefault(key, []).append(face)
            # in a free complex a link simplex meets its antipode only as (-v, v)
            listed = link is not None and (not link or (
                key not in self._cofacets and not (self.z2 and link[0] + link[-1] == 0)))
            bucket = self._buckets[len(face)]
            i = bisect_left(bucket, face)
            if i < len(bucket) and bucket[i] == face:
                if not listed:
                    del bucket[i]
            elif listed:
                bucket.insert(i, face)


def enumerate_moves(complex_):
    """All admissible moves of a pure complex, in enumeration order.

    Facet moves all propose the same fresh vertex id; they are
    alternatives, not a batch.
    """
    return list(MoveIndex(_checked_kind(complex_, False)))


def apply_move(complex_, move):
    """Apply a bistellar move and return ``(new complex, inverse move)``:
    the facets containing ``removed`` give way to one facet per vertex of
    ``removed``, joined with ``inserted``.  Raises :class:`MoveNotAdmissible`
    if the move does not apply."""
    index = MoveIndex(_checked_kind(complex_, False))
    index.apply(move)
    return index.state, move.inverse()


# -- symmetric pairs -----------------------------------------------------------


def apply_z2_move(z2complex, move):
    """Apply a move together with its antipodal image.

    One half is checked, and no more is needed: in a free complex the
    stars of ``removed`` and its antipode share no facet and every new face
    contains ``inserted``, so the pair applies, equivariant and free, unless
    ``inserted`` meets its antipode (``{v, -v}``), which raises
    :class:`InterferingAntipodalMove`.  A complex that is not symmetric
    raises :class:`NotEquivariant` or :class:`ActionNotFree` before that."""
    index = MoveIndex(_checked_kind(z2complex, True))
    index.apply(move)
    return index.state, move.inverse()


def enumerate_z2_moves(z2complex):
    """All admissible symmetric move pairs, one representative each, in
    enumeration order.

    A plain move extends to a symmetric pair iff its inserted simplex is
    disjoint from its own antipode; the pair is listed under the move
    whose removed face is smaller than its antipode.
    """
    return list(MoveIndex(_checked_kind(z2complex, True)))


def random_z2_walk(z2complex, steps, seed):
    """Walk the symmetric flip graph with uniformly chosen admissible moves.

    Fully reproducible: candidates come in enumeration order and the
    choice is driven by a private ``random.Random(seed)``.  Returns the
    final complex and the replayable flip sequence; ``steps`` is an int >= 0.
    """
    index = MoveIndex(_checked_kind(z2complex, True))
    rng = random.Random(seed)
    log = []
    for _ in range(_checked_count(steps, "steps")):
        move = index[rng.randrange(len(index))]
        index.apply(move)
        log.append(move)
    sequence = FlipSequence(
        moves=tuple(log),
        z2=True,
        source_digest=complex_digest(z2complex),
        target_digest=complex_digest(index.state),
    )
    return index.state, sequence


# -- flip logs ----------------------------------------------------------------


@dataclass(frozen=True)
class FlipSequence:
    """An ordered, replayable log of moves with source/target digests; a
    field of the wrong type raises :class:`BistellarError`."""

    moves: tuple
    z2: bool
    source_digest: str
    target_digest: str

    def __post_init__(self):
        if not (isinstance(self.moves, (tuple, list))
                and all(isinstance(m, BistellarMove) for m in self.moves)):
            raise BistellarError("moves: not a tuple or list of BistellarMove")
        object.__setattr__(self, "moves", tuple(self.moves))
        for name, kind in (("z2", bool), ("source_digest", str), ("target_digest", str)):
            if type(value := getattr(self, name)) is not kind:
                raise BistellarError(f"{name}: {value!r} is not a {kind.__name__}")

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
    a plain complex otherwise (else :class:`TypeError`); a move that does
    not apply raises :class:`CorruptSequence` with its step index.
    """
    index = MoveIndex(_checked_kind(source, sequence.z2))
    for i, move in enumerate(sequence.moves):
        try:
            index.apply(move)
        except BistellarError as exc:
            raise CorruptSequence(i, f"step {i}: {exc}") from exc
    return index.state
