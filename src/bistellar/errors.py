"""Exception hierarchy for the bistellar package.

Every error raised on a documented failure path derives from
:class:`BistellarError`, so callers (and the CLI) can catch one base
class and still tell the cases apart by type.
"""


class BistellarError(Exception):
    """Base class for all errors raised by this package."""


# -- complex construction and queries ------------------------------------

class EmptyComplex(BistellarError):
    """A complex was requested from an empty facet list."""


class InvalidVertexId(BistellarError):
    """Vertex ids must be nonzero integers."""


class FaceNotPresent(BistellarError):
    """An operation referenced a face that is not in the complex."""


class VertexCollision(BistellarError):
    """A vertex id that must be fresh or disjoint is already in use."""


# -- centrally symmetric structure ----------------------------------------

class NotEquivariant(BistellarError):
    """Some face is present without its antipodal face."""


class ActionNotFree(BistellarError):
    """Some face contains an antipodal vertex pair {v, -v}."""


class QuotientRequiresSubdivision(BistellarError):
    """The antipodal quotient is not simplicial: some vertex is adjacent to
    both ``w`` and ``-w`` (an equivariant barycentric subdivision mends it)."""


# -- moves -----------------------------------------------------------------

class MoveNotAdmissible(BistellarError):
    """The requested bistellar move is not admissible in this complex."""


class InterferingAntipodalMove(MoveNotAdmissible):
    """A symmetric move pair whose inserted simplex meets its antipode."""


# -- labellings ------------------------------------------------------------

class IncompleteLabelling(BistellarError):
    """A labelling does not cover every vertex it is used on."""


class InvalidLabelling(BistellarError):
    """A labelling violates the antipodality or complementary-edge rules."""


class NoWitness(BistellarError):
    """No complementary edge found: bad labels, or the complex is not a sphere."""


# -- reduction and certificates ---------------------------------------------

class NotClosedPseudomanifold(BistellarError):
    """Reduction requires a pure, strongly connected complex with all
    codimension-one faces in exactly two facets."""


class CorruptSequence(BistellarError):
    """A recorded flip sequence failed to replay.

    The failing zero-based step index is stored in ``step``.
    """

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"sequence breaks at step {step}")


class CertificateUnavailable(BistellarError):
    """The reduction search was inconclusive, so no certificate was produced.

    The directly counted alternating facet numbers are still available
    in ``counts``, and the search report in ``report``.
    """

    def __init__(self, message, counts=None, report=None):
        self.counts = counts
        self.report = report
        super().__init__(message)


# -- generators --------------------------------------------------------------

class GenerationFailed(BistellarError):
    """Random generation got a bad bound or exhausted its retry budget."""


class InvalidDimension(BistellarError):
    """A generator was asked for a dimension it cannot produce."""
