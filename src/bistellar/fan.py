"""Fan labellings: validation, alternating facet counts, witnesses, and
transport of a labelling across a symmetric bistellar move.

A Fan labelling assigns every vertex a nonzero label so that antipodal
vertices get opposite labels and no edge sums to zero.  A facet is
alternating when its labels have pairwise distinct absolute values and
strictly alternating signs once sorted by absolute value; it counts as
positive or negative according to the sign of its smallest-magnitude
label.  Counts are made in bulk and per facet size, since a mask forgets
repeats: a label of magnitude rank ``r`` is bit ``2r`` if positive, ``2r + 1``
if negative, and each distinct OR of a facet's bits is classified once.

Labels are integers.  Only their signs and the order of their absolute
values matter, so a move that inserts a complementary diagonal doubles
every label to make room for the one odd value that breaks the tie;
:meth:`FanLabelling.integerize` maps labels back onto ``±1..±m``.
A transport step reads one half of its move's star, as antipodal labels give
the other half the opposite class: its new edges, a removed vertex pair, and
the facets it replaces, since no other facet changes class.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress
from operator import add, not_, or_
from types import MappingProxyType

from .errors import (
    BistellarError,
    IncompleteLabelling,
    InvalidLabelling,
    InvalidVertexId,
    NoWitness,
)
from .moves import _replaced, _star_check
from .z2 import _checked_kind


def _complete(cx, labelling):
    """The dict behind ``labelling`` (or ``labelling``, a dict) if it labels
    every vertex of ``cx``; an unlabelled vertex raises at the first one."""
    labels = labelling._labels if isinstance(labelling, FanLabelling) else labelling
    if not all(map(labels.__contains__, cx.vertices)):
        missing = next(v for v in cx.vertices if v not in labels)
        raise IncompleteLabelling(f"vertex {missing} is unlabelled")
    return labels


def _complementary_edges(cx, labels):
    """The edges whose labels sum to zero, once per facet holding them: the
    facets of each size ``k`` are read as ``k`` columns of labels, and only the
    facets whose labels add up to zero at some pair of positions are touched."""
    sizes = set(map(len, cx.facets))
    for k in sizes:
        group = cx.facets if len(sizes) == 1 else [f for f in cx.facets if len(f) == k]
        flat = list(map(labels.__getitem__, chain.from_iterable(group)))
        for i, j in combinations(range(k), 2):
            sums = map(add, flat[i::k], flat[j::k])
            yield from ((f[i], f[j]) for f in compress(group, map(not_, sums)))


class FanLabelling:
    """An immutable vertex -> nonzero label mapping of ``int``s (not bools)."""

    def __init__(self, labels):
        for v, value in labels.items():
            if type(v) is not int or v == 0:
                raise InvalidVertexId(f"vertex id {v!r} is not a nonzero integer")
            if type(value) is not int or value == 0:
                raise InvalidLabelling(
                    f"label {value!r} of vertex {v} is not a nonzero integer")
        self._labels = dict(labels)

    @property
    def labels(self):
        return MappingProxyType(self._labels)

    def __getitem__(self, vertex):
        try:
            return self._labels[vertex]
        except KeyError:
            raise IncompleteLabelling(f"vertex {vertex} is unlabelled") from None

    def __contains__(self, vertex):
        return vertex in self._labels

    def domain(self):
        return frozenset(self._labels)

    def items(self):
        return sorted(self._labels.items())

    def restrict(self, vertices):
        keep = set(vertices)
        return FanLabelling({v: x for v, x in self._labels.items() if v in keep})

    def integerize(self):
        """Order-preserving remap of the distinct absolute values onto 1..m.

        Signs are untouched, so antipodality, complementary edges and
        the classification of every simplex are preserved.  Idempotent
        on labellings that already use 1..m.
        """
        magnitudes = sorted({abs(x) for x in self._labels.values()})
        rank = {mag: i + 1 for i, mag in enumerate(magnitudes)}
        return FanLabelling({
            v: rank[abs(x)] if x > 0 else -rank[abs(x)]
            for v, x in self._labels.items()
        })

    def __eq__(self, other):
        return isinstance(other, FanLabelling) and self._labels == other._labels

    def __repr__(self):
        shown = ", ".join(f"{v}:{x}" for v, x in list(self.items())[:6])
        more = "" if len(self._labels) <= 6 else ", ..."
        return f"FanLabelling({{{shown}{more}}})"


@dataclass(frozen=True)
class AlternatingCounts:
    """How many facets are positive/negative alternating under a labelling."""

    positive: int
    negative: int

    def as_tuple(self):
        return (self.positive, self.negative)


def validate_fan(complex_or_z2, labelling):
    """Check the two Fan conditions; return a list of violations (empty = ok).

    Violations are ``("antipodality", v)`` with ``v`` the positive id of
    a pair whose labels are not opposite, and
    ``("complementary-edge", (u, v))`` for each edge whose labels sum to
    zero.  A vertex missing from the labelling raises
    :class:`IncompleteLabelling` instead, since nothing can be checked
    without it.
    """
    labels = _complete(complex_or_z2, labelling)
    present = set(complex_or_z2.vertices)
    violations = [("antipodality", v) for v in complex_or_z2.vertices
                  if v > 0 and -v in present and labels[v] != -labels[-v]]
    violations.extend(("complementary-edge", edge)
                      for edge in sorted(set(_complementary_edges(complex_or_z2, labels))))
    return violations


def _fan_labels(z2complex, labelling):
    """The labels of the vertices of ``z2complex`` as a dict, if ``labelling``
    is a Fan labelling of it; raises :class:`InvalidLabelling` if not."""
    bad = validate_fan(z2complex, labelling)
    if bad:
        raise InvalidLabelling(f"not a Fan labelling: {bad[:3]}")
    return {v: labelling[v] for v in z2complex.vertices}


def alternating_sign(face, labelling):
    """+1, -1 or 0: the alternation class of one simplex.

    Sorted by absolute value, the labels must be pairwise distinct in
    magnitude and strictly alternate in sign; the result is the sign of
    the smallest-magnitude label, or 0 if the simplex does not
    alternate.  Ties in absolute value never alternate, and neither does
    the empty face, which has no label.
    """
    values = sorted(map(labelling.__getitem__, face), key=abs) or [0]
    left = values[0]
    for right in values[1:]:
        # of opposite signs, the two tie in magnitude only as x and -x
        if (left > 0) == (right > 0) or left == -right:
            return 0
        left = right
    return 1 if values[0] > 0 else -1 if values[0] else 0


def _mask_class(mask, k):
    """+1, -1 or 0: the class of ``k`` labels whose bits OR to ``mask``."""
    low = bit = (mask & -mask).bit_length() - 1
    for _ in range(k - 1):  # each next bit must flip the sign and raise the rank
        mask &= mask - 1
        bit, below = (mask & -mask).bit_length() - 1, bit
        if not (bit ^ below) & 1 or bit >> 1 <= below >> 1:
            return 0
    return -1 if low & 1 else 1


def alternating_counts(complex_or_z2, labelling):
    """Count positive and negative alternating facets by size: OR each facet's
    label bits (``2r`` or ``2r + 1`` for rank ``r``) and classify each mask once.
    An empty facet, the (-1)-sphere's one, has no label and does not alternate."""
    labels = _complete(complex_or_z2, labelling)
    rank = {m: 2 * r for r, m in enumerate(sorted(set(map(abs, labels.values()))))}
    bits = {v: 1 << (rank[abs(x)] + (x < 0)) for v, x in labels.items()}
    facets, counts = complex_or_z2.facets, Counter()
    for k in (sizes := set(map(len, facets)) - {0}):
        group = facets if len(sizes) == 1 else [f for f in facets if len(f) == k]
        flat = list(map(bits.__getitem__, chain.from_iterable(group)))
        masks = flat[::k]
        for i in range(1, k):
            masks = map(or_, masks, flat[i::k])
        for mask, n in Counter(masks).items():
            counts[_mask_class(mask, k)] += n
    return AlternatingCounts(counts[1], counts[-1])


def tucker_witness(z2complex, labelling):
    """Find an edge whose labels sum to zero.

    On a centrally symmetric sphere labelled antipodally into
    ``±1..±n`` such an edge must exist; the scan is exhaustive and the
    least edge in canonical order is returned, so the answer is
    deterministic.  If no edge qualifies, the labels are not antipodal into
    ``±1..±dimension`` or the complex is not a sphere, and
    :class:`NoWitness` names both causes.
    """
    edges = _complementary_edges(z2complex, _complete(z2complex, labelling))
    if (edge := min(edges, default=None)) is not None:
        return edge
    raise NoWitness(
        "no complementary edge found; either the labelling is not antipodal "
        "into ±1..±dimension or the complex is not a sphere")


def relabel_move(z2complex, labelling, move):
    """Transport a Fan labelling across a symmetric bistellar move.

    The vertices shared by both complexes keep their labels, and only
    the inserted simplex needs care:

    * fresh vertex: the new pair gets ± the smallest positive label on
      the removed facet, taken from whichever of the two antipodal
      descriptions of the move has a positively labelled removed facet
      (the given one wins ties);
    * inserted edge whose endpoint labels sum to zero: every label is
      doubled and the positively labelled endpoint pair ``±x`` becomes
      ``±(2x + 1)``, strictly between its old magnitude and the next
      larger one in use, so all other magnitudes keep their order;
    * anything else: labels are unchanged.

    The result is a valid Fan labelling of the moved complex, it has no
    complementary edge inside the replaced region, and the number of
    positive alternating facets changes by an even amount.

    Raises :class:`TypeError` unless ``z2complex`` is a :class:`Z2Complex`,
    :class:`MoveNotAdmissible` if the pair does not apply (the subclass
    :class:`InterferingAntipodalMove` if its halves clash), and
    :class:`InvalidLabelling` or :class:`IncompleteLabelling` if
    ``labelling`` is not a Fan labelling of ``z2complex``.
    """
    _star_check(_checked_kind(z2complex, True), move)
    labels = _fan_labels(z2complex, labelling)
    _transport(labels, move)
    return FanLabelling(labels)


def _transport(labels, move):
    """Carry ``labels`` (vertex -> label), antipodal as a Fan labelling's are,
    in place across the symmetric ``move``, already checked to apply; return
    the change of the (positive, negative) counts.  The other half is this
    one's antipode, complementary where it is and of the opposite classes, so
    if ``d`` more of this half's ``_replaced`` facets (all that change class)
    alternate, each count changes by ``d``.  A doubling's tie break leaves a
    facet with ``u`` and a ``z`` of its magnitude unalternating: ``z`` has
    ``u``'s sign (else ``uz`` is complementary) and stays next to it."""
    removed, inserted = move.removed, move.inserted
    gone, added = _replaced(move, False)
    before = sum(abs(alternating_sign(f, labels)) for f in gone)

    if len(inserted) == 1:
        # With no positive label on the removed facet, use the antipodal
        # description: the new pair's negative id plays the fresh role
        # there, so this id gets the negative label closest to zero.
        values = [labels[v] for v in removed]
        value = min((x for x in values if x > 0), default=max(values))
        labels[inserted[0]], labels[-inserted[0]] = value, -value
    elif len(inserted) == 2 and labels[inserted[0]] + labels[inserted[1]] == 0:
        u = max(inserted, key=labels.get)
        for w in labels:
            labels[w] *= 2
        labels[u] += 1
        labels[-u] -= 1
    if len(removed) == 1 and labels.pop(removed[0]) != -labels.pop(-removed[0]):
        raise BistellarError(f"the labels of ±{abs(removed[0])} are not antipodal")

    if len(inserted) <= 2 < len(removed) + len(inserted):  # a new edge holds inserted
        for rest in combinations(removed, 2 - len(inserted)):
            a, b = rest + inserted
            if labels[a] + labels[b] == 0:
                raise BistellarError(f"the new edge {(a, b)} is complementary")
    d = sum(abs(alternating_sign(f, labels)) for f in added) - before
    return d, d
