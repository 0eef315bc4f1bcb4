"""Abstract simplicial complexes stored by their facet sets.

A complex is identified with the antichain of its inclusion-maximal
faces; every other face is derived on demand.  This keeps bistellar
moves and subdivisions facet-local and the memory footprint small at
the scales this library targets (triangulated spheres of dimension at
most three or four).

Vertices are nonzero integers.  Negative ids carry no meaning here;
the sign convention only matters for the centrally symmetric complexes
in :mod:`bistellar.z2`, which reserve negation for the antipode.

All values are immutable after construction: every operation returns a
new complex, so instances can be shared freely across threads or
worker processes.
"""

import hashlib
import json
from collections import Counter
from functools import cache, cached_property
from itertools import chain, combinations, pairwise, permutations
from operator import itemgetter, lt

from .errors import (
    BistellarError,
    EmptyComplex,
    FaceNotPresent,
    InvalidVertexId,
    NotClosedPseudomanifold,
    VertexCollision,
)


def _checked_face(face):
    """A face as an increasing tuple; raises :class:`InvalidVertexId`
    for an id that is not an ``int``, is a ``bool`` or is 0."""
    face = tuple(face)
    for v in face:
        if type(v) is not int or not v:
            raise InvalidVertexId(f"vertex ids must be nonzero integers: {face}")
    return tuple(sorted(set(face)))


def _canonical_facets(faces):
    """The sorted inclusion-maximal members of ``faces`` (increasing tuples).

    Distinct faces of one size cannot contain each other, so one-size
    input is just sorted.  Otherwise a face lies in a kept face only if
    that kept face contains its first vertex, so each face, longest
    first, is tested only against the kept faces through that vertex:
    a sort plus one vertex's kept faces per face, not all pairs.  The
    empty face is pruned next to a nonempty one; ``[()]`` gives ``((),)``.
    """
    uniq = set(faces)
    if len(set(map(len, uniq))) < 2:
        return tuple(sorted(uniq))
    uniq.discard(())
    kept = []
    through = {}
    for f in sorted(uniq, key=len, reverse=True):
        fs = frozenset(f)
        if any(fs <= g for g in through.get(f[0], ())):
            continue
        kept.append(f)
        for v in f:
            through.setdefault(v, []).append(fs)
    return tuple(sorted(kept))


def _is_canonical(faces):
    """True if ``faces`` (tuples of ints) are already what
    :func:`_canonical_facets` makes of them: rows of one size, each strictly
    increasing, in strictly increasing order.  Compared column by column,
    so no row is sorted."""
    if len(set(map(len, faces))) != 1 or not all(map(lt, faces, faces[1:])):
        return False
    return all(all(map(lt, a, b)) for a, b in pairwise(zip(*faces)))


class FVector:
    """Face counts of a complex, one entry per dimension starting at 0.

    Every entry must be an ``int`` (not a ``bool``); anything else raises
    :class:`BistellarError` naming it, rather than being rounded.
    """

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = tuple(counts)
        if not set(map(type, counts)) <= {int}:
            i, bad = next((i, c) for i, c in enumerate(counts) if type(c) is not int)
            raise BistellarError(f"f-vector entry {i} must be an int, not {bad!r}")
        self.counts = counts

    @property
    def dimension(self):
        return len(self.counts) - 1

    @property
    def euler_characteristic(self):
        return sum((-1) ** i * c for i, c in enumerate(self.counts))

    def __eq__(self, other):
        if isinstance(other, FVector):
            return self.counts == other.counts
        try:
            return self.counts == tuple(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __repr__(self):
        return f"FVector{self.counts}"


class SimplicialComplex:
    """An abstract simplicial complex given by its facets.

    Use :meth:`from_facets` to build one with validation and subset
    pruning.  The raw constructor trusts its argument to be a canonical
    antichain (sorted tuple of sorted tuples) and is meant for internal
    surgery where that is already guaranteed.
    """

    def __init__(self, facets):
        self.facets = facets

    @classmethod
    def from_facets(cls, facet_list):
        """Build the complex generated by ``facet_list``.

        Subset-dominated members are pruned so the stored facet set is
        an antichain.  Vertex ids must be nonzero integers, and at least
        one vertex must occur.

        >>> SimplicialComplex.from_facets([[1, 2, 3], [1, 2]]).facets
        ((1, 2, 3),)
        """
        faces = [tuple(f) for f in facet_list]
        if not (set(map(type, chain.from_iterable(faces))) <= {int}
                and all(chain.from_iterable(faces))):
            for f in faces:
                _checked_face(f)  # raises for the first face with a bad id
        if not _is_canonical(faces):
            faces = _canonical_facets([tuple(sorted(set(f))) for f in faces])
        if not any(faces):
            raise EmptyComplex("cannot build a complex without vertices")
        return cls(tuple(faces))

    # -- basic queries -----------------------------------------------------

    @cached_property
    def vertices(self):
        return tuple(sorted(set(chain.from_iterable(self.facets))))

    @cached_property
    def dimension(self):
        return max(len(f) for f in self.facets) - 1

    def __contains__(self, face):
        return bool(self.facets_containing(face))

    def facets_containing(self, face):
        """Indices of facets that contain ``face``."""
        fs = frozenset(_checked_face(face))
        return [i for i, f in enumerate(self.facets) if fs.issubset(f)]

    def _star_indices(self, face):
        """``face`` checked, and the facets containing it as indices;
        raises :class:`FaceNotPresent` if there are none."""
        face = _checked_face(face)
        hits = self.facets_containing(face)
        if not hits:
            raise FaceNotPresent(f"face {face} is not in the complex")
        return face, hits

    def faces(self, dim=None):
        """All faces, or all faces of one dimension, as sorted tuples.

        The empty face is not reported: a ``dim`` below 0 gives ``[]``.
        """
        if dim is not None:
            return sorted(self._faces((dim + 1,))) if dim >= 0 else []
        return sorted(self._faces(range(1, self.dimension + 2)),
                      key=lambda t: (len(t), t))

    def _faces(self, sizes):
        out = set()  # the faces with a size in ``sizes``
        for f in self.facets:
            for k in sizes:
                out.update(combinations(f, k))
        return out

    def is_pure(self):
        return all(len(f) == self.dimension + 1 for f in self.facets)

    def f_vector(self):
        """Exact face counts by dimension.

        >>> simplex = SimplicialComplex.from_facets([[1, 2, 3, 4]])
        >>> simplex.f_vector().counts
        (4, 6, 4, 1)
        """
        sizes = range(1, self.dimension + 2)
        counts = Counter(map(len, self._faces(sizes)))
        return FVector(counts[k] for k in sizes)

    def euler_characteristic(self):
        return self.f_vector().euler_characteristic

    # -- classical operations ----------------------------------------------

    def link(self, face):
        """The link of ``face``: all faces disjoint from it whose union
        with it is again a face.

        The link of a facet is the complex whose only face is empty,
        represented with the single facet ``()``.
        """
        face, hits = self._star_indices(face)
        fs = frozenset(face)
        out = [tuple(v for v in self.facets[i] if v not in fs) for i in hits]
        return SimplicialComplex(_canonical_facets(out))

    def star(self, face):
        """The closed star of ``face``: the join of the face with its link."""
        out = [self.facets[i] for i in self._star_indices(face)[1]]
        return SimplicialComplex(_canonical_facets(out))

    def join(self, other):
        """Join with a complex on a disjoint vertex set."""
        shared = set(self.vertices) & set(other.vertices)
        if shared:
            raise VertexCollision(f"join operands share vertices {sorted(shared)}")
        out = [tuple(sorted(f + g)) for f in self.facets for g in other.facets]
        return SimplicialComplex(_canonical_facets(out))

    def stellar_subdivide(self, face, new_vertex):
        """Replace the star of ``face`` by the cone from ``new_vertex``
        over (boundary of face) * link(face).

        A zero-dimensional ``face`` has an empty boundary, so the
        operation degenerates to renaming that vertex to ``new_vertex``;
        this keeps the operation total and leaves the underlying space
        untouched.  The empty face raises :class:`EmptyComplex`.
        """
        face, hits = self._star_indices(face)
        if not face:
            raise EmptyComplex("the empty face has no stellar subdivision")
        (new_vertex,) = _checked_face((new_vertex,))
        if new_vertex in self.vertices:
            raise VertexCollision(f"vertex {new_vertex} already present")

        doomed = set(hits)
        out = [f for i, f in enumerate(self.facets) if i not in doomed]
        fs = frozenset(face)
        for i in doomed:
            rest = tuple(v for v in self.facets[i] if v not in fs)
            for drop in face:
                kept = tuple(v for v in face if v != drop)
                out.append(tuple(sorted(kept + rest + (new_vertex,))))
        return SimplicialComplex(_canonical_facets(out))

    def _orbit(self, face):
        """The faces the involution identifies with ``face``, ``face`` alone here:
        a subdivision names them together and :func:`find_isomorphism` pairs them."""
        return (face,)

    def barycentric_subdivide(self):
        """Barycentric subdivision plus the map new-vertex -> original face.

        Vertices of the subdivision correspond to the nonempty faces of
        the complex.  Zero-dimensional faces keep their original ids;
        every higher face not yet named gets a fresh positive id, and the
        other faces of its :meth:`_orbit` the same id negated, allocated in
        order of decreasing dimension (lexicographic within a dimension)
        starting just above the largest absolute id in use.

        Returns ``(subdivision, face_map)``, the subdivision a plain complex.

        The faces are named in one pass.  Each facet then looks up the names
        of its nonempty faces, in ``combinations`` order, and its chains
        come from :func:`_chain_plan`, cached per facet size: one
        ``itemgetter`` over those names for every vertex order, cut into
        chains of ``n``.  So a facet of ``n`` vertices costs one lookup per
        face, of ``2**n - 1``, and one sort of ``n`` ids per chain, of
        ``n!``, in a few C-level calls.  Every chain holds its facet's name,
        so the chains of an antichain are distinct and never nest.
        """
        names = {}
        next_id = max(map(abs, self.vertices), default=0) + 1
        # by non-increasing size, then lexicographically (the sort is stable)
        for f in sorted(sorted(self._faces(range(2, self.dimension + 2))),
                        key=len, reverse=True):
            if f not in names:
                names.update(zip(self._orbit(f), (next_id, -next_id)))
                next_id += 1
        face_map = {v: (v,) for v in self.vertices}
        for f, v in names.items():
            face_map[v] = f

        out = []
        for facet in self.facets:
            n = len(facet)
            if n < 2:  # () and a lone vertex are their own only chain
                out.append(facet)
                continue
            ids = [*facet, *map(names.__getitem__, chain.from_iterable(
                combinations(facet, k) for k in range(2, n + 1)))]
            out += map(tuple, map(sorted, zip(*[iter(_chain_plan(n)(ids))] * n)))
        return SimplicialComplex(tuple(sorted(out))), face_map

    def __eq__(self, other):
        return type(other) is type(self) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        fv = self.f_vector().counts
        return f"{type(self).__name__}(dim={self.dimension}, f={fv})"


@cache
def _chain_plan(n):
    """An ``itemgetter`` that reads, from the names of an ``n``-vertex
    facet's nonempty faces in ``combinations`` order by size, the names of
    each vertex order's ``n`` prefixes, one order after another."""
    at = {f: i for i, f in enumerate(chain.from_iterable(
        combinations(range(n), k) for k in range(1, n + 1)))}
    return itemgetter(*(at[tuple(sorted(p[:k]))] for p in permutations(range(n))
                        for k in range(1, n + 1)))


def boundary_of_simplex(face):
    """The boundary complex of a single simplex given as a vertex tuple.

    For a vertex this is the complex whose only face is empty.
    """
    face = _checked_face(face)
    if not face:
        raise EmptyComplex("the empty simplex has no boundary complex")
    return SimplicialComplex(tuple(sorted(combinations(face, len(face) - 1))))


def complex_digest(complex_):
    """Stable hex digest of a complex's canonical facet list."""
    payload = json.dumps(complex_.facets, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


# -- pseudomanifolds and isomorphism ----------------------------------------

def _closed_ridges(cx):
    """Each ridge (a facet less one vertex) mapped to the indices of its two
    facets if ``cx`` is a closed pseudomanifold, else None."""
    ridges = {}
    for i, facet in enumerate(cx.facets):
        for k in range(len(facet)):
            ridges.setdefault(facet[:k] + facet[k + 1:], []).append(i)
    if not cx.is_pure() or any(len(hits) != 2 for hits in ridges.values()):
        return None
    neighbours = [[] for _ in cx.facets]
    for a, b in ridges.values():
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen, queue = {0}, [0]
    for i in queue:  # breadth first across ridges
        fresh = set(neighbours[i]) - seen
        seen |= fresh
        queue.extend(fresh)
    return ridges if len(seen) == len(cx.facets) else None


def is_closed_pseudomanifold(complex_):
    """Pure, every codimension-one face in exactly two facets, and
    facet-ridge connected."""
    return _closed_ridges(complex_) is not None


def find_isomorphism(left, right):
    """A face-preserving vertex bijection from ``left`` onto ``right``, or None.

    On two :class:`Z2Complex` sides it also commutes with negation, mapping
    each vertex's ``_orbit`` onto its image's; a mixed pair, or anything that
    is not a :class:`SimplicialComplex`, raises :class:`TypeError`.  Different
    f-vectors, or one side that is not a closed pseudomanifold, give None;
    two such sides raise :class:`NotClosedPseudomanifold`.
    On closed pseudomanifolds a map between two facets extends across each
    ridge in one way only, opposite vertex to opposite vertex.  So the facet
    of ``left`` whose vertex degrees are rarest in ``right`` is tried on each
    facet of ``right`` with those degrees, in each order that keeps them,
    and the map spreads until it clashes or covers ``left``: no backtracking.

    >>> square = SimplicialComplex.from_facets([[1, 2], [2, 3], [3, 4], [1, 4]])
    >>> find_isomorphism(square, square.stellar_subdivide((1,), 5))
    {1: 2, 2: 3, 3: 4, 4: 5}
    """
    if not (isinstance(left, SimplicialComplex) and isinstance(right, SimplicialComplex)
            and type(left)._orbit is type(right)._orbit):
        raise TypeError("expected two complexes, both Z2Complex or neither")
    ridges = _closed_ridges(left), _closed_ridges(right)
    if left.f_vector() != right.f_vector() or ridges.count(None) == 1:
        return None
    if None in ridges:
        raise NotClosedPseudomanifold("isomorphism needs closed pseudomanifolds")
    degrees = [Counter(chain.from_iterable(cx.facets)) for cx in (left, right)]
    profiles = [[tuple(sorted(map(deg.get, f))) for f in cx.facets]
                for cx, deg in zip((left, right), degrees)]

    def propagate(i, j, image):
        mapping, inverse = {}, {}

        def assign(u, w):  # u's orbit onto w's, in order; degrees must agree
            return all(degrees[0][a] == degrees[1][b] and mapping.setdefault(a, b) == b
                       and inverse.setdefault(b, a) == a
                       for (a,), (b,) in zip(left._orbit((u,)), right._orbit((w,))))

        if not all(map(assign, left.facets[i], image)):
            return None
        placed, queue = {i: j}, [i]
        for i in queue:  # the other facet at a ridge, and its new vertex, by sums
            f, g = left.facets[i], right.facets[placed[i]]
            for k, v in enumerate(f):
                across = sum(ridges[0][f[:k] + f[k + 1:]]) - i
                if across not in placed:
                    m = g.index(mapping[v])
                    placed[across] = sum(ridges[1][g[:m] + g[m + 1:]]) - placed[i]
                    queue.append(across)
                    if not assign(sum(left.facets[across]) - sum(f) + v,
                                  sum(right.facets[placed[across]]) - sum(g) + g[m]):
                        return None
        return mapping

    rarity = Counter(profiles[1])
    start = min(range(len(left.facets)), key=lambda i: rarity[profiles[0][i]])
    return next((mapping for j, p in enumerate(profiles[1]) if p == profiles[0][start]
                 for image in permutations(right.facets[j])
                 if (mapping := propagate(start, j, image)) is not None), None)


def is_isomorphic(left, right):
    """True iff a face-preserving vertex bijection exists."""
    return find_isomorphism(left, right) is not None
