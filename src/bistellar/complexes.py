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
from functools import cached_property
from itertools import combinations, permutations

from .errors import (
    EmptyComplex,
    FaceNotPresent,
    InvalidVertexId,
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
    if len({len(f) for f in uniq}) < 2:
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


class FVector:
    """Face counts of a complex, one entry per dimension starting at 0."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        self.counts = tuple(int(c) for c in counts)

    @property
    def dimension(self):
        return len(self.counts) - 1

    @property
    def euler_characteristic(self):
        return sum((-1) ** i * c for i, c in enumerate(self.counts))

    def __eq__(self, other):
        if isinstance(other, FVector):
            return self.counts == other.counts
        return self.counts == tuple(other)

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
        faces = [_checked_face(f) for f in facet_list]
        if not any(faces):
            raise EmptyComplex("cannot build a complex without vertices")
        return cls(_canonical_facets(faces))

    # -- basic queries -----------------------------------------------------

    @cached_property
    def vertices(self):
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    @cached_property
    def dimension(self):
        return max(len(f) for f in self.facets) - 1

    @cached_property
    def _facet_sets(self):
        return tuple(frozenset(f) for f in self.facets)

    @cached_property
    def _vertex_to_facets(self):
        index = {}
        for i, f in enumerate(self.facets):
            for v in f:
                index.setdefault(v, []).append(i)
        return index

    def __contains__(self, face):
        face = _checked_face(face)
        if not face:
            return True
        fs = frozenset(face)
        return any(fs <= self._facet_sets[i]
                   for i in self._vertex_to_facets.get(face[0], ()))

    def facets_containing(self, face):
        """Indices of facets that contain ``face``."""
        face = _checked_face(face)
        if not face:
            return list(range(len(self.facets)))
        hits = self._vertex_to_facets.get(face[0], ())
        fs = frozenset(face)
        return [i for i in hits if fs <= self._facet_sets[i]]

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

        The empty face is not reported.
        """
        sizes = range(1, self.dimension + 2) if dim is None else (dim + 1,)
        out = set()
        for f in self.facets:
            for k in sizes:
                out.update(combinations(f, k))
        if dim is not None:
            return sorted(out)
        return sorted(out, key=lambda t: (len(t), t))

    def is_pure(self):
        return all(len(f) == self.dimension + 1 for f in self.facets)

    def f_vector(self):
        """Exact face counts by dimension.

        >>> simplex = SimplicialComplex.from_facets([[1, 2, 3, 4]])
        >>> simplex.f_vector().counts
        (4, 6, 4, 1)
        """
        counts = [0] * (self.dimension + 1)
        seen = set()
        for f in self.facets:
            for k in range(1, len(f) + 1):
                for c in combinations(f, k):
                    if c not in seen:
                        seen.add(c)
                        counts[k - 1] += 1
        return FVector(counts)

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
        untouched.
        """
        face, hits = self._star_indices(face)
        (new_vertex,) = _checked_face((new_vertex,))
        if new_vertex in self._vertex_to_facets:
            raise VertexCollision(f"vertex {new_vertex} already present")

        if len(face) == 1:
            old = face[0]
            renamed = [tuple(sorted(new_vertex if v == old else v for v in f))
                       for f in self.facets]
            return SimplicialComplex(_canonical_facets(renamed))

        doomed = set(hits)
        out = [f for i, f in enumerate(self.facets) if i not in doomed]
        fs = frozenset(face)
        for i in doomed:
            rest = tuple(v for v in self.facets[i] if v not in fs)
            for drop in face:
                kept = tuple(v for v in face if v != drop)
                out.append(tuple(sorted(kept + rest + (new_vertex,))))
        return SimplicialComplex(_canonical_facets(out))

    def barycentric_subdivide(self, name_faces=None):
        """Barycentric subdivision plus the map new-vertex -> original face.

        Vertices of the subdivision correspond to the nonempty faces of
        the complex.  Zero-dimensional faces keep their original ids;
        every higher face receives a fresh positive id, allocated in
        order of decreasing dimension (lexicographic within a
        dimension) starting just above the largest absolute id in use.
        ``name_faces`` can override the allocation and is used by the
        equivariant version to hand out antipodal id pairs.

        Returns ``(subdivision, face_map)``.
        """
        if not self.vertices:
            return self, {}
        if name_faces is None:
            name_faces = {}
            next_id = max(abs(v) for v in self.vertices) + 1
            for d in range(self.dimension, 0, -1):
                for f in self.faces(d):
                    name_faces[f] = next_id
                    next_id += 1
        face_map = {v: (v,) for v in self.vertices}
        for f, v in name_faces.items():
            face_map[v] = f

        def name(f):
            return f[0] if len(f) == 1 else name_faces[f]

        out = []
        for facet in self.facets:
            for perm in permutations(facet):
                chain = []
                for i in range(len(perm)):
                    chain.append(name(tuple(sorted(perm[: i + 1]))))
                out.append(tuple(sorted(chain)))
        return SimplicialComplex(_canonical_facets(out)), face_map

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        fv = self.f_vector().counts
        return f"SimplicialComplex(dim={self.dimension}, f={fv})"


def boundary_of_simplex(face):
    """The boundary complex of a single simplex given as a vertex tuple.

    For a vertex this is the complex whose only face is empty.
    """
    face = _checked_face(face)
    if not face:
        raise EmptyComplex("the empty simplex has no boundary complex")
    if len(face) == 1:
        return SimplicialComplex(((),))
    return SimplicialComplex(tuple(sorted(combinations(face, len(face) - 1))))


def complex_digest(complex_):
    """Stable hex digest of a complex's canonical facet list."""
    payload = json.dumps(complex_.facets, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


# -- isomorphism ------------------------------------------------------------

def _vertex_invariant(cx, v):
    sizes = sorted(len(cx.facets[i]) for i in cx._vertex_to_facets[v])
    link_f = cx.link((v,)).f_vector().counts
    return (tuple(sizes), link_f)


def find_isomorphism(left, right, signed=False):
    """Search for a face-preserving vertex bijection, or return None.

    Backtracking with pruning by per-vertex invariants (facet size
    profile and link f-vector).  With ``signed=True`` the bijection is
    additionally required to commute with vertex negation, which is the
    isomorphism notion for centrally symmetric complexes.  Intended for
    small instances; the search is exponential in the worst case.
    """
    if left.f_vector() != right.f_vector():
        return None
    lv, rv = left.vertices, right.vertices
    if len(lv) != len(rv):
        return None

    inv_l = {v: _vertex_invariant(left, v) for v in lv}
    inv_r = {v: _vertex_invariant(right, v) for v in rv}
    by_inv = {}
    for v in rv:
        by_inv.setdefault(inv_r[v], []).append(v)
    if sorted(inv_l.values()) != sorted(inv_r[v] for v in rv):
        return None

    right_facets = set(right._facet_sets)
    # Most-constrained-first vertex order, ties broken by id for determinism.
    if signed:
        seen = set()
        order = []
        for v in sorted(lv, key=lambda v: (len(by_inv.get(inv_l[v], ())), abs(v), v)):
            if v in seen:
                continue
            seen.update((v, -v))
            order.append(v)
    else:
        order = sorted(lv, key=lambda v: (len(by_inv.get(inv_l[v], ())), v))

    mapping = {}
    used = set()

    def facets_ok(v):
        # Every facet of `left` at v whose vertices are all assigned must
        # land on a facet of `right`.
        for i in left._vertex_to_facets[v]:
            f = left.facets[i]
            if all(u in mapping for u in f):
                if frozenset(mapping[u] for u in f) not in right_facets:
                    return False
        return True

    def assign(v, w):
        mapping[v] = w
        used.add(w)
        if signed:
            mapping[-v] = -w
            used.add(-w)

    def unassign(v, w):
        del mapping[v]
        used.discard(w)
        if signed:
            del mapping[-v]
            used.discard(-w)

    def backtrack(pos):
        if pos == len(order):
            return True
        v = order[pos]
        for w in by_inv.get(inv_l[v], ()):
            if w in used:
                continue
            if signed and (-w in used or inv_r.get(-w) != inv_l[-v]):
                continue
            assign(v, w)
            ok = facets_ok(v) and (not signed or facets_ok(-v))
            if ok and backtrack(pos + 1):
                return True
            unassign(v, w)
        return False

    if not backtrack(0):
        return None
    image = {frozenset(mapping[u] for u in f) for f in left.facets}
    if image != right_facets:
        return None
    return dict(mapping)


def is_isomorphic(left, right):
    """True iff a face-preserving vertex bijection exists."""
    return find_isomorphism(left, right) is not None
