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
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, count, repeat
from operator import itemgetter

from .complexes import FVector, SimplicialComplex, _checked_face, complex_digest
from .errors import (
    BistellarError,
    CorruptSequence,
    InterferingAntipodalMove,
    MoveNotAdmissible,
)
from .z2 import Z2Complex, _checked_kind, _negated


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
        return _trusted(self.inserted, self.removed)

    def antipodal(self):
        return BistellarMove(_negated(self.removed), _negated(self.inserted))

    def facet_delta(self):
        """Change in facet count when applied: |removed| - |inserted|."""
        return len(self.removed) - len(self.inserted)

    def __repr__(self):
        return f"BistellarMove({list(self.removed)} -> {list(self.inserted)})"


def _trusted(removed, inserted):
    """A :class:`BistellarMove` of faces already checked, built unchecked."""
    move = object.__new__(BistellarMove)
    fields = move.__dict__
    fields["removed"], fields["inserted"] = removed, inserted
    return move


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
    """The moves of a pure complex (symmetric pairs for a :class:`Z2Complex`):
    ``index[i]`` is the ``i``-th in enumeration order, iterating walks the
    listing once, and these moves and their inverses are built unchecked.

    :meth:`apply` is the one place where a flip is checked and made.
    ``_cofacets`` maps each face to the facets containing it, ``state`` is
    built from its top-dimensional keys when read, and ``_f`` counts its keys
    by dimension for :meth:`f_vector`.  Moves are listed on the first read,
    by the recheck of every face (a lone flip, as :func:`apply_z2_move`
    makes, reads none), then kept by rechecking only the faces that a flip
    can change (:meth:`apply`): ``_links`` maps each face to
    :meth:`_link_simplex` where that is not None (``fresh`` fills in ``()``
    on reading, so new vertices never dirty facet moves); ``_owners``
    inverts ``_links`` and is read only for the simplices that enter or
    leave, so a face waiting on a simplex is rechecked when it comes or goes
    (a scan of the cofacets of ``inserted`` and ``removed`` less one vertex
    in its place measured searches 10-16 % slower); ``_listing`` sorts the
    pairs ``(len(face), face)`` of the listed faces, which is enumeration
    order, so a move's position is its index there, and a pair is put in or
    taken out by bisection only when its face enters or leaves the listing.
    A symmetric index keeps all of these for the smaller face of each
    antipodal pair only, the face ``(a, ..., b)`` with ``a + b < 0``
    (``a + b == 0`` would put ``a`` and ``-a`` in one face), and looks any
    face up as that one (:meth:`_key`).  It is built only on a pure complex
    with a vertex; a :class:`Z2Complex` is checked when built, as is a symmetric ``state``.
    """

    def __init__(self, state):
        self.z2 = isinstance(state, Z2Complex)
        if not state.is_pure() or state.dimension < 0:
            raise BistellarError("moves need a pure complex with a vertex")
        self.state, self._dimension = state, state.dimension
        self.fresh = fresh_vertex(state)
        self._cofacets, self._links = {}, None
        for facet in state.facets:
            for k in range(1, len(facet) + 1):
                for face in combinations(facet, k):
                    if not (self.z2 and face[0] + face[-1] > 0):
                        self._cofacets.setdefault(face, []).append(facet)
        sizes = Counter(map(len, self._cofacets))
        self._f = [sizes[k] for k in range(1, state.dimension + 2)]

    @cached_property
    def state(self):
        facets = [f for f in self._cofacets if len(f) == self._dimension + 1]
        if self.z2:
            facets += [*map(_negated, facets)]
        cx = SimplicialComplex(tuple(sorted(facets)))
        return Z2Complex(cx) if self.z2 else cx

    def f_vector(self):
        """The face counts of :attr:`state`, kept without building it."""
        return FVector([2 * n for n in self._f] if self.z2 else self._f)

    def _key(self, face):
        """``face``, or on a symmetric index the smaller face of its pair."""
        return _negated(face) if self.z2 and face and face[0] + face[-1] > 0 else face

    def _listed(self):
        """The listing, built on first use: a lone flip needs none."""
        if self._links is None:
            self._links, self._owners, self._listing = {}, {}, []
            self._recheck(self._cofacets)
        return self._listing

    def __len__(self):
        return len(self._listed())

    def __iter__(self):
        return map(self._move, map(itemgetter(1), self._listed()))

    def __getitem__(self, position):
        """The move at ``position``, counted from the end if negative."""
        listing = self._listed()
        if not -len(listing) <= position < len(listing):
            raise IndexError(f"position {position} is out of range for {len(listing)} moves")
        return self._move(listing[position][1])

    def _move(self, face):
        return _trusted(face, self._links[face] or (self.fresh,))

    def lowest(self):
        """``(facet_delta, count)`` of the first, most downhill moves (every facet
        has one): ``facet_delta`` is ``2 * len(removed) - (dimension + 2)``."""
        k = self._listed()[0][0]
        return 2 * k - self._dimension - 2, bisect_left(self._listing, (k + 1,))

    def apply(self, move):
        """Check ``move`` (and its antipodal image, see :func:`apply_z2_move`)
        and make it by :meth:`_flip`; a rejected move changes nothing.  Only
        faces of the move's union change cofacets, and only those whose count
        was or is ``need`` can gain or lose a link.  The simplices that come or
        go are the union's faces containing ``inserted`` or ``removed``, and a
        face outside the union waits on no larger one, as that would put
        ``inserted`` in an old facet or ``removed`` in a cofacet of the face,
        which stays.  So two lookups find the other faces to recheck."""
        removed, inserted = move.removed, move.inserted
        key = self._key(removed)
        flipped = key != removed  # check the half that removes the kept face
        link, B = self._link_simplex(key), _negated(inserted) if flipped else inserted
        if link is None or not (link == B if link else len(B) == 1) \
                or (target := self._key(B)) in self._cofacets:
            raise MoveNotAdmissible(f"{move} is not admissible here")
        if self.z2 and B[0] + B[-1] == 0:  # B is the link simplex, as in _recheck
            raise InterferingAntipodalMove(
                f"{move} inserts a simplex that meets its antipode")
        changed = self._flip(move)
        if self._links is not None:
            waiting = [*self._owners.get(key, ()), *self._owners.get(target, ())]
            self._recheck(changed + waiting)
        vars(self).pop("state", None)
        if len(removed) == 1:  # ids below fresh were used; this one may be free
            self.fresh = min(self.fresh, abs(removed[0]))
        while (self.fresh,) in self._cofacets or (-self.fresh,) in self._cofacets:
            self.fresh += 1

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

    def _flip(self, move):
        """Swap the gone and added facets in one pass over the faces of
        :func:`_halves` that :func:`_flip_plan` lays out; each swapped facet
        is one of these faces, the union less one vertex, at the position the
        plan names.  Returns the faces whose link can change: those that enter
        or leave, and those whose cofacet count was or is ``need``."""
        cofacets, f, z2, changed = self._cofacets, self._f, self.z2, []
        for faces, at in _halves(move, z2):
            for face, (need, left, joined) in zip(
                    faces, _flip_plan(len(faces[-1]) + 1, at)):
                if z2 and face[0] + face[-1] > 0:
                    continue
                if not left:  # in no gone facet: it contains inserted and enters
                    cofacets[face] = [*map(faces.__getitem__, joined)]
                    f[len(face) - 1] += 1
                elif not joined:  # in no added facet: it contains removed and leaves
                    del cofacets[face]
                    f[len(face) - 1] -= 1
                else:
                    containing = cofacets[face]
                    was = len(containing) == need
                    for j in left:
                        containing.remove(faces[j])
                    containing += map(faces.__getitem__, joined)
                    if not (was or len(containing) == need):
                        continue
                changed.append(face)
        return changed

    def _recheck(self, faces):
        """Update links, owners and the listing for ``faces``, each link read
        from :meth:`_link_simplex` and keyed as :meth:`_key` does."""
        links, owners, listing, z2 = self._links, self._owners, self._listing, self.z2
        cofacets, link_simplex = self._cofacets, self._link_simplex
        for face in faces:
            old, link = links.get(face), link_simplex(face)
            k = _negated(link) if z2 and link and link[0] + link[-1] > 0 else link
            if link != old:
                if old:
                    o = _negated(old) if z2 and old[0] + old[-1] > 0 else old
                    waiting = owners[o]
                    waiting.remove(face)
                    if not waiting:
                        del owners[o]
                if link is None:
                    del links[face]
                else:
                    links[face] = link
                    if link:
                        owners.setdefault(k, []).append(face)
            # in a free complex a link simplex meets its antipode only as (-v, v)
            listed = link is not None and (not link or (
                k not in cofacets and not (z2 and link[0] + link[-1] == 0)))
            if old is None and not listed:  # nor was it listed
                continue
            entry = (len(face), face)
            i = bisect_left(listing, entry)
            if i < len(listing) and listing[i] == entry:
                if not listed:
                    del listing[i]
            elif listed:
                listing.insert(i, entry)


def _halves(move, z2):
    """``(faces, at)``: the proper faces of the sorted union of ``removed`` and
    ``inserted`` in :func:`_flip_plan` order, and the positions of
    ``inserted`` in the union; if ``z2``, the antipodal move's follow."""
    union = tuple(sorted(move.removed + move.inserted))
    pairs = ((union, move.inserted), (_negated(union), _negated(move.inserted)))
    return [([*chain.from_iterable(map(combinations, repeat(u), range(1, len(u))))],
             tuple(map(u.index, inserted))) for u, inserted in pairs[:1 + z2]]


@cache
def _flip_plan(n, at):
    """``(need, left, joined)`` for each proper face of an ``n``-vertex union
    whose positions ``at`` hold ``inserted``, in :func:`~itertools.combinations`
    order by size, which lists their complements in reverse: ``left`` and
    ``joined`` are the positions ``~i`` in that order of the gone and added
    facets that contain the face, each the union less its ``i``-th vertex,
    and ``need`` is the cofacet count of a face with a link."""
    return tuple((n - k, tuple(~i for i in at if i not in face),
                  tuple(~i for i in range(n) if i not in at and i not in face))
                 for k in range(1, n) for face in combinations(range(n), k))


def _replaced(move, z2):
    """``(gone, added)``: the facets of ``removed * boundary(inserted)``, which
    go, and of ``boundary(removed) * inserted``, which come, each the union
    less one vertex, in union order; if ``z2``, the antipodal move's follow.
    :meth:`MoveIndex._flip` reads the same facets from :func:`_flip_plan`."""
    halves = _halves(move, z2)  # faces[~i] lacks the i-th vertex
    return ([faces[~i] for faces, at in halves for i in at],
            [faces[~i] for faces, at in halves
             for i in range(len(faces[-1]) + 1) if i not in at])


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
    :class:`InterferingAntipodalMove`.  The result is checked when it is
    built, as every :class:`Z2Complex` is."""
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
