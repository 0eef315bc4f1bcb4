"""Free simplicial involutions encoded by vertex negation.

A centrally symmetric complex is a simplicial complex whose vertex set
is closed under negation and whose face set is closed under the map
``v -> -v``; freeness means no face contains a pair ``{v, -v}``.
Hard-wiring the involution as id negation keeps validation down to
sign checks and makes the file format readable.
"""

from functools import cached_property
from operator import neg

from .complexes import (
    SimplicialComplex,
    _canonical_facets,
    find_isomorphism,
)
from .errors import ActionNotFree, NotEquivariant, QuotientRequiresSubdivision


def antipode(face):
    """Negate every vertex id of a face.

    >>> antipode((1, -2, 3))
    (-3, -1, 2)
    """
    return tuple(sorted(-v for v in face))


def _underlying(state):
    """The plain complex of a :class:`Z2Complex`, or ``state`` itself."""
    return state.complex if isinstance(state, Z2Complex) else state


def _checked_kind(state, z2):
    """``state`` if it is a :class:`Z2Complex` exactly when ``z2``."""
    if isinstance(state, Z2Complex) != z2:
        raise TypeError(f"expected a Z2Complex, got {type(state).__name__}" if z2 else
                        "expected a plain complex, got a Z2Complex; pass its .complex")
    return state


class Z2Complex:
    """A simplicial complex with the free involution ``v -> -v``.

    ``subdivided`` records whether the instance came out of
    :meth:`equivariant_sd`; quotients are only legal on such complexes,
    where the result is guaranteed to be simplicial.
    """

    def __init__(self, complex_, subdivided=False):
        self.complex = complex_
        self.subdivided = subdivided

    @classmethod
    def from_complex(cls, complex_, subdivided=False):
        """Validate equivariance and freeness and wrap the complex.

        Checks run facet by facet: a facet whose antipodal image is
        missing raises :class:`NotEquivariant`; a facet containing both
        ``v`` and ``-v`` raises :class:`ActionNotFree`.
        """
        facet_set = set(complex_.facets)
        for f in complex_.facets:
            # the antipode of an increasing face, negated in reverse order
            if tuple(map(neg, reversed(f))) not in facet_set:
                raise NotEquivariant(f"facet {f} has no antipodal facet")
        for f in complex_.facets:
            if len(set(map(abs, f))) < len(f):
                hit = next(v for v in f if -v in f)
                raise ActionNotFree(f"facet {f} contains the antipodal pair ±{abs(hit)}")
        return cls(complex_, subdivided=subdivided)

    # -- passthroughs --------------------------------------------------------

    @property
    def facets(self):
        return self.complex.facets

    @property
    def vertices(self):
        return self.complex.vertices

    @property
    def dimension(self):
        return self.complex.dimension

    def f_vector(self):
        return self.complex.f_vector()

    def __contains__(self, face):
        return face in self.complex

    def __eq__(self, other):
        return isinstance(other, Z2Complex) and self.complex == other.complex

    def __hash__(self):
        return hash(self.complex)

    def __repr__(self):
        fv = self.complex.f_vector().counts
        return f"Z2Complex(dim={self.dimension}, f={fv}, subdivided={self.subdivided})"

    @cached_property
    def positive_vertices(self):
        """One representative per antipodal vertex pair (the positive id)."""
        return tuple(v for v in self.vertices if v > 0)

    # -- subdivision and quotient ---------------------------------------------

    def equivariant_sd(self):
        """Barycentric subdivision with barycenters allocated in antipodal pairs.

        Faces are named in order of non-increasing dimension with
        antipodal faces handled consecutively (lexicographic order
        within a dimension), which matches performing the underlying
        stellar subdivisions in that order.  The lexicographically
        smaller face of each pair receives the positive id.

        Returns ``(subdivided Z2Complex, face_map)`` where the face map
        sends each vertex of the subdivision to the face it subdivides.
        """
        cx = self.complex
        name_faces = {}
        next_id = max(abs(v) for v in cx.vertices) + 1
        for d in range(cx.dimension, 0, -1):
            for f in cx.faces(d):
                if f in name_faces:
                    continue
                name_faces[f] = next_id
                name_faces[antipode(f)] = -next_id
                next_id += 1
        sd, face_map = cx.barycentric_subdivide(name_faces=name_faces)
        return Z2Complex.from_complex(sd, subdivided=True), face_map

    def quotient(self):
        """Identify antipodal vertex pairs; defined only after equivariant_sd.

        Each vertex maps to the positive representative of its pair.
        Returns ``(quotient complex, projection)`` with the projection
        given as a vertex map; the image of a face is its elementwise
        projection.
        """
        if not self.subdivided:
            raise QuotientRequiresSubdivision(
                "quotient is only simplicial after an equivariant barycentric "
                "subdivision; call equivariant_sd first")
        projection = {v: abs(v) for v in self.vertices}
        image = {tuple(sorted(projection[v] for v in f)) for f in self.facets}
        quotient = SimplicialComplex(_canonical_facets(image))
        if 2 * len(quotient.facets) != len(self.facets):
            raise ActionNotFree("facet orbits collapsed; the action was not free")
        return quotient, projection

    def link(self, face):
        return self.complex.link(face)


def find_z2_isomorphism(left, right):
    """A face-preserving bijection commuting with negation, or None."""
    return find_isomorphism(left.complex, right.complex, signed=True)
