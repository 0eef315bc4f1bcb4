"""Free simplicial involutions encoded by vertex negation.

A centrally symmetric complex is a simplicial complex whose vertex set
is closed under negation and whose face set is closed under the map
``v -> -v``; freeness means no face contains a pair ``{v, -v}``.
Hard-wiring the involution as id negation keeps validation down to
sign checks and makes the file format readable.
"""

from functools import cached_property
from itertools import combinations
from operator import add, neg

from .complexes import SimplicialComplex, _canonical_facets, find_isomorphism
from .errors import ActionNotFree, NotEquivariant, QuotientRequiresSubdivision


def antipode(face):
    """Negate every vertex id of a face.

    >>> antipode((1, -2, 3))
    (-3, -1, 2)
    """
    return _negated(tuple(sorted(face)))


def _negated(face):
    """The antipode of an increasing face, sized exactly (``tuple(map())`` is not)."""
    return (*map(neg, reversed(face)),)


def _checked_symmetric(facets):
    """Raise unless the facets are closed under ``v -> -v`` and free: per
    size, the negated columns in reverse order must be facets and no two
    columns may sum to zero.  The facet-by-facet loop names a failure."""
    facet_set, sizes = set(facets), set(map(len, facets))
    groups = [facets] if len(sizes) == 1 else [[f for f in facets if len(f) == n]
                                               for n in sizes]
    if all(facet_set.issuperset(zip(*[map(neg, c) for c in reversed(cs)]))
           and all(all(map(add, a, b)) for a, b in combinations(cs, 2))
           for cs in (list(zip(*group)) for group in groups)):
        return
    for f in facets:
        if _negated(f) not in facet_set:
            raise NotEquivariant(f"facet {f} has no antipodal facet")
    f, hit = next((f, v) for f in facets for v in f if -v in f)
    raise ActionNotFree(f"facet {f} contains the antipodal pair ±{abs(hit)}")


def _checked_kind(state, z2):
    """``state`` if it is a :class:`Z2Complex` exactly when ``z2``."""
    if isinstance(state, Z2Complex) != z2:
        raise TypeError(f"expected a Z2Complex, got {type(state).__name__}" if z2 else
                        "expected a plain complex, got a Z2Complex; pass its .complex")
    return state


class Z2Complex(SimplicialComplex):
    """A :class:`SimplicialComplex` with the free involution ``v -> -v``;
    ``complex`` is the plain complex on the same facets, without it.

    The constructor checks equivariance and freeness, so every instance
    has both: a facet whose antipodal image is missing raises
    :class:`NotEquivariant`, one containing both ``v`` and ``-v``
    :class:`ActionNotFree`.
    """

    def __init__(self, complex_):
        _checked_symmetric(complex_.facets)
        super().__init__(complex_.facets)
        vars(self).update(vars(complex_))  # and what it has cached so far
        self.complex = getattr(complex_, "complex", complex_)

    @classmethod
    def from_complex(cls, complex_):
        """The same as the constructor."""
        return cls(complex_)

    @classmethod
    def from_facets(cls, facet_list):
        """:meth:`SimplicialComplex.from_facets`, then the constructor."""
        return cls(SimplicialComplex.from_facets(facet_list))

    @cached_property
    def positive_vertices(self):
        """One representative per antipodal vertex pair (the positive id)."""
        return tuple(v for v in self.vertices if v > 0)

    # -- subdivision and quotient ---------------------------------------------

    def _orbit(self, face):
        """``face`` and its antipode: named ``±id``, mapped to an antipodal pair."""
        return face, _negated(face)

    def equivariant_sd(self):
        """Barycentric subdivision with barycenters allocated in antipodal pairs.

        :meth:`barycentric_subdivide` names faces in order of non-increasing
        dimension, lexicographic within a dimension, and each face with its
        antipode, which matches performing the underlying stellar
        subdivisions in that order.  The lexicographically smaller face of
        each pair receives the positive id.

        Returns ``(subdivided Z2Complex, face_map)`` where the face map
        sends each vertex of the subdivision to the face it subdivides.
        """
        sd, face_map = self.barycentric_subdivide()
        return Z2Complex(sd), face_map

    def quotient(self):
        """Identify each antipodal vertex pair with its positive id; returns
        ``(quotient complex, projection)``, the projection a vertex map.  A
        vertex adjacent to both ``w`` and ``-w`` raises
        :class:`QuotientRequiresSubdivision` (:meth:`equivariant_sd` leaves
        none); the facets were checked when the complex was built."""
        edges = self.faces(1)
        present = set(edges)
        for a, b in edges:
            # Faces with one image but not antipodal hold edges {u, w} and {u, -w};
            # by symmetry, seeking (a, -b) beside each edge (a, b) finds them.
            if tuple(sorted((a, -b))) in present:
                raise QuotientRequiresSubdivision(
                    f"vertex {a} is adjacent to both ±{abs(b)}; "
                    "call equivariant_sd first")
        projection = {v: abs(v) for v in self.vertices}
        image = {tuple(sorted(projection[v] for v in f)) for f in self.facets}
        return SimplicialComplex(_canonical_facets(image)), projection


def find_z2_isomorphism(left, right):
    """A face-preserving bijection commuting with negation, or None, as in
    :func:`find_isomorphism`; anything but a :class:`Z2Complex` raises TypeError."""
    return find_isomorphism(_checked_kind(left, True), _checked_kind(right, True))
