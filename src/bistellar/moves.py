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
face of each antipodal pair: the move alone gives the links of the faces it
creates or destroys, and only the others are rechecked.  The ``z2``
functions raise :class:`TypeError` unless given a :class:`Z2Complex`, the
others if given one.
"""

import random
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, count, repeat
from operator import add

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


def _checked_pure(state):
    """``state``, if it is pure with a vertex, as every :class:`MoveIndex` is."""
    if not state.is_pure() or state.dimension < 0:
        raise BistellarError("moves need a pure complex with a vertex")
    return state


def _rng(seed):
    """A private ``random.Random(seed)`` for an ``int`` seed (not a ``bool``)."""
    if type(seed) is not int:
        raise BistellarError(f"seed must be an integer, not {seed!r}")
    return random.Random(seed)


def find_move(complex_, face):
    """The admissible move removing ``face`` that a :class:`MoveIndex` of
    the complex lists, or None, read from an index of the facets that meet the
    star of ``face``, as does every facet holding its link simplex.

    The complex must be pure.  A facet move inserts the smallest positive id
    that the complex uses neither as ``v`` nor as ``-v``, as symmetric pairs do.
    """
    face, hits = _checked_kind(complex_, False)._star_indices(face)
    near = set(chain.from_iterable(map(complex_.facets.__getitem__, hits)))
    index = MoveIndex(SimplicialComplex.from_facets(
        [f for f in _checked_pure(complex_).facets if not near.isdisjoint(f)]))
    index.fresh = fresh_vertex(complex_)  # the stars near ``face`` may miss a used id
    return next((m for m in index if m.removed == face), None)


class MoveIndex:
    """The moves of a pure complex (symmetric pairs for a :class:`Z2Complex`):
    ``index[i]`` is the ``i``-th in enumeration order, read straight from the
    listing, so iterating reads positions 0, 1, ... (Python's sequence
    protocol), and these moves and their inverses are built unchecked.

    :meth:`apply` is the one place where a flip is checked and made.
    ``_cofacets`` maps each face to the facets containing it, ``state`` is
    built from its top-dimensional keys when read, and ``_f`` counts its keys
    by dimension for :meth:`f_vector`.  Moves are listed when it is built, by
    one recheck of every face and one sort, then kept by the flip, which files
    the faces that its move creates or destroys (:meth:`_flip`), and by
    rechecking the few others whose link can change (:meth:`apply`):
    ``_links`` maps each face to its link simplex where it has one
    (``fresh`` fills in ``()`` on reading, so new vertices never dirty facet
    moves); ``_owners`` inverts ``_links`` and is read only for the simplices
    that enter or leave, so a face waiting on a simplex is rechecked when it
    comes or goes; ``_listing`` sorts the entries ``(len(face), *face)`` of
    the faces that :meth:`_recheck`'s one rule lists, in enumeration order, so
    a move's position is its index there, and a flip puts an entry in or takes
    it out by bisection only when its face enters or leaves the listing.
    A symmetric index keeps all of these for the smaller face of each
    antipodal pair only, the face ``(a, ..., b)`` with ``a + b < 0``
    (``a + b == 0`` would put ``a`` and ``-a`` in one face), and looks any
    face up as that one (:meth:`_key`).  It is built only on a pure complex
    with a vertex; a :class:`Z2Complex` is checked when built, as is a symmetric ``state``.
    """

    def __init__(self, state):
        self.z2 = isinstance(_checked_pure(state), Z2Complex)
        self.state, self._dimension, self.fresh = state, state.dimension, fresh_vertex(state)
        self._cofacets, self._links, self._owners, self._listing = {}, {}, {}, []
        for facet in state.facets:
            for k in range(1, len(facet) + 1):
                for face in combinations(facet, k):
                    if not (self.z2 and face[0] + face[-1] > 0):
                        self._cofacets.setdefault(face, []).append(facet)
        sizes = Counter(map(len, self._cofacets))
        self._f = [sizes[k] for k in range(1, state.dimension + 2)]
        self._recheck(self._cofacets, first=True)
        self._listing.sort()

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

    def __len__(self):
        return len(self._listing)

    def __getitem__(self, position):
        """The move at ``position``, counted from the end if negative."""
        listing = self._listing
        if not -len(listing) <= position < len(listing):
            raise IndexError(f"position {position} is out of range for {len(listing)} moves")
        return self._move(listing[position][1:])

    def _move(self, face):
        return _trusted(face, self._links[face] or (self.fresh,))

    def facet_delta(self, position):
        """The facet delta ``2 * len(removed) - (dimension + 2)`` at ``position``."""
        return 2 * self._listing[position][0] - self._dimension - 2

    def lowest(self):
        """``(facet_delta, count)`` of the first, most downhill moves (every facet has one)."""
        return self.facet_delta(0), bisect_left(self._listing, (self._listing[0][0] + 1,))

    def apply(self, move):
        """Check ``move`` (and its antipodal image, see :func:`apply_z2_move`)
        and make it by :meth:`_flip`; a rejected move changes nothing.  Only
        faces of the move's union change cofacets; the flip files those that
        enter or leave, and of the rest only those whose count was or is
        ``need`` can gain or lose a link.  The simplices that come or go are
        the union's faces containing ``inserted`` or ``removed``, and a
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
        owners = self._owners  # faces waiting on removed or inserted, less removed
        waiting = [w for w in (*owners.get(key, ()), *owners.get(target, ())) if w != key]
        self._recheck(self._flip(move) + waiting)
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
        """Swap the gone and added facets over the proper faces of the sorted
        union ``u`` and, if symmetric, its antipode, sorted by kind in
        :func:`_flip_plan`; add the plan's change in face counts once, as each
        face of a symmetric pair is kept in one half.  File from the move alone
        the faces that enter (their link is ``u`` less the face, at ``~p``, or
        ``()``) or leave, listing or unlisting those the plan marks.
        Returns the faces that stay whose cofacet count was or is ``need``."""
        cofacets, z2, links, owners = self._cofacets, self.z2, self._links, self._owners
        union, changed = tuple(sorted(move.removed + move.inserted)), []
        halves = ((union, move.inserted), (_negated(union), _negated(move.inserted)))[:1 + z2]
        for u, inserted in halves:
            faces = [*chain.from_iterable(map(combinations, repeat(u), range(1, len(u))))]
            enters, leaves, stays, delta = _flip_plan(len(u), tuple(map(u.index, inserted)))
            for p, need, joined, listed in enters:
                face = faces[p]
                if z2 and face[0] + face[-1] > 0:
                    continue
                cofacets[face] = [*map(faces.__getitem__, joined)]
                link = links[face] = faces[~p] if need > 1 else ()
                if link:
                    k = _negated(link) if z2 and link[0] + link[-1] > 0 else link
                    owners.setdefault(k, []).append(face)
                if listed:
                    insort(self._listing, (len(face), *face))
            for p, listed in leaves:
                face = faces[p]
                if z2 and face[0] + face[-1] > 0:
                    continue
                del cofacets[face]
                if old := links.pop(face):
                    o = _negated(old) if z2 and old[0] + old[-1] > 0 else old
                    waiting = owners[o]
                    waiting.remove(face)
                    if not waiting:
                        del owners[o]
                if listed:
                    del self._listing[bisect_left(self._listing, (len(face), *face))]
            for p, need, left, joined in stays:
                face = faces[p]
                if z2 and face[0] + face[-1] > 0:
                    continue
                containing = cofacets[face]
                was = len(containing) == need
                for j in left:
                    containing.remove(faces[j])
                containing += map(faces.__getitem__, joined)
                if was or len(containing) == need:
                    changed.append(face)
        self._f[:] = map(add, self._f, delta)
        return changed

    def _recheck(self, faces, first=False):
        """Update links, owners and the listing for ``faces``, faces the move
        does not fix, each link read from :meth:`_link_simplex`; the ``first``
        listing appends each listed entry, to be sorted once."""
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
            # the one rule; in a free complex a link meets its antipode only as (-v, v)
            listed = link is not None and (not link or (
                k not in cofacets and not (z2 and link[0] + link[-1] == 0)))
            if first:
                if listed:
                    listing.append((len(face), *face))
                continue
            if old is None and not listed:  # nor was it listed
                continue
            entry = (len(face), *face)
            i = bisect_left(listing, entry)
            if i < len(listing) and listing[i] == entry:
                if not listed:
                    del listing[i]
            elif listed:
                listing.insert(i, entry)


@cache
def _flip_plan(n, at):
    """``(enters, leaves, stays, delta)`` for the proper faces of an ``n``-vertex
    union whose positions ``at`` hold ``inserted``, numbered ``p`` in
    :func:`~itertools.combinations` order by size, so the union less the face
    at ``p`` is at ``~p``: a face in no gone facet enters, ``(p, need, joined,
    listed)``, one in no added facet leaves, ``(p, listed)``, the rest stay,
    ``(p, need, left, joined)``.  ``left`` and ``joined`` hold ``~i`` for each
    gone or added facet (the union less its ``i``-th vertex) with the face;
    ``need`` is the cofacet count of a face with a link; ``listed`` marks a
    facet, ``inserted`` or ``removed``, as the link of any other face that comes
    or goes is a face; ``delta[k - 1]`` is the change in the faces of size ``k``."""
    enters, leaves, stays, delta = [], [], [], [0] * (n - 1)
    for p, face in enumerate(f for k in range(1, n) for f in combinations(range(n), k)):
        k, left = len(face), tuple(~i for i in at if i not in face)
        joined = tuple(~i for i in range(n) if i not in at and i not in face)
        if not left:
            enters.append((p, n - k, joined, k == n - 1 or k == len(at)))
        elif not joined:
            leaves.append((p, k == n - 1 or k == n - len(at)))
        else:
            stays.append((p, n - k, left, joined))
        delta[k - 1] += (not left) - (not joined)
    return tuple(enters), tuple(leaves), tuple(stays), tuple(delta)


def _replaced(move, z2):
    """``(gone, added)``: the facets of ``removed * boundary(inserted)``, which
    go, and of ``boundary(removed) * inserted``, which come: the sorted union
    less a vertex of ``inserted`` or of ``removed``, in union order; if ``z2``,
    the antipodal move's follow.  :meth:`MoveIndex._flip` swaps the same facets."""
    union = tuple(sorted(move.removed + move.inserted))
    halves = ((union, move.inserted), (_negated(union), _negated(move.inserted)))[:1 + z2]
    split = [(v in ins, u[:i] + u[i + 1:]) for u, ins in halves for i, v in enumerate(u)]
    return [f for gone, f in split if gone], [f for gone, f in split if not gone]


def enumerate_moves(complex_):
    """All admissible moves of a pure complex, in enumeration order.

    Facet moves all propose the same fresh vertex id; they are
    alternatives, not a batch.
    """
    return list(MoveIndex(_checked_kind(complex_, False)))


def _star_check(state, move):
    """Raise unless ``move`` applies to ``state``, as :meth:`MoveIndex.apply` finds on
    an index of the facets holding ``removed`` or ``inserted``, all that its check
    reads, with their antipodes on a :class:`Z2Complex`, or of every facet if none does."""
    signs = (1, -1)[:1 + isinstance(_checked_pure(state), Z2Complex)]
    probes = [{s * v for v in face} for face in (move.removed, move.inserted) for s in signs]
    star = [f for f in state.facets if any(map(set(f).issuperset, probes))] or state.facets
    MoveIndex(type(state).from_facets(star)).apply(move)


def _lone_flip(state, move):
    """``state`` after ``move``: :func:`_star_check`, then :func:`_replaced`'s facets swap."""
    _star_check(state, move)
    gone, added = _replaced(move, isinstance(state, Z2Complex))
    gone = set(gone)  # a list keeps the other facets in order: the sort merges runs
    return type(state).from_facets(sorted([f for f in state.facets if f not in gone] + added))


def apply_move(complex_, move):
    """Apply a bistellar move and return ``(new complex, inverse move)``:
    the facets containing ``removed`` give way to one facet per vertex of
    ``removed``, joined with ``inserted``.  Raises :class:`MoveNotAdmissible`
    if the move does not apply; only the stars that check reads are indexed."""
    return _lone_flip(_checked_kind(complex_, False), move), move.inverse()


# -- symmetric pairs -----------------------------------------------------------


def apply_z2_move(z2complex, move):
    """Apply a move together with its antipodal image.

    One half is checked, and no more is needed: in a free complex the
    stars of ``removed`` and its antipode share no facet and every new face
    contains ``inserted``, so the pair applies, equivariant and free, unless
    ``inserted`` meets its antipode (``{v, -v}``), which raises
    :class:`InterferingAntipodalMove`.  Only the stars the check reads are
    indexed, and the result is checked when built, as every :class:`Z2Complex` is."""
    return _lone_flip(_checked_kind(z2complex, True), move), move.inverse()


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
    choice is driven by a private ``random.Random(seed)``, ``seed`` an int.
    Returns the final complex and the replayable flip sequence; ``steps`` is an int >= 0.
    """
    index = MoveIndex(_checked_kind(z2complex, True))
    rng = _rng(seed)
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
