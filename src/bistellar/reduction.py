"""Heuristic bistellar reduction and the parity certificate pipeline.

The search minimizes the reversed f-vector lexicographically (facet count
first) by steepest descent and accepts non-improving moves with a cooling
temperature.  The schedule is fixed, after Björner and Lutz (BISTELLAR,
Exp. Math. 9, 2000): the temperature starts at 2.0, cools by 0.995 per
tried flip, and once below 0.05 is reset to 2.0 while the search restarts:
inverse moves rewind its one :class:`MoveIndex`, which also keeps the
f-vector, to the best state seen.  Success means the state has the target's
vertex count, which only the target has (:func:`replay_verify` checks a
recorded sequence by isomorphism); failure is inconclusive, never a claim of
inequivalence, since recognizing spheres is undecidable in high dimension.

A search run is a pure function of (input, budget, seed); parallel
chains just need distinct seeds, merged by keeping the first certified
success.
"""

import math
import random
from dataclasses import dataclass

from .complexes import complex_digest, find_isomorphism, is_closed_pseudomanifold
from .errors import BistellarError, CertificateUnavailable, NotClosedPseudomanifold
from .fan import FanLabelling, _fan_labels, _transport, alternating_counts, validate_fan
from .moves import FlipSequence, MoveIndex, _checked_count, replay
from .z2 import _checked_kind

_START_TEMPERATURE = 2.0
_COOLING = 0.995
_RESTART_BELOW = 0.05
_BUDGET = 100_000  # tried flips, by default


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of a reduction search.

    ``sequence`` leads from the input to the final complex on success,
    and to the best state reached otherwise.  Identical inputs, budget
    and seed always produce identical reports.
    """

    outcome: str  # "reduced" | "inconclusive"
    sequence: FlipSequence
    flips_tried: int
    flips_applied: int
    restarts: int
    best_f_vector: tuple
    budget: int
    seed: int

    @property
    def reduced(self):
        return self.outcome == "reduced"


def _search(start, budget, seed):
    """The reduction loop, symmetric on a :class:`Z2Complex` (towards the cross
    polytope) and plain otherwise (towards the simplex boundary); returns the
    report and the final complex."""
    budget = _checked_count(budget, "budget")
    if not is_closed_pseudomanifold(start):
        raise NotClosedPseudomanifold(
            "reduction needs a pure, closed, strongly connected complex")
    rng = random.Random(seed)
    index = MoveIndex(start)
    multiplier = 2 if index.z2 else 1
    # On d + 2 vertices, or d + 1 free pairs, a ridge has only the target's two
    # cofacets; moves keep the state closed and strongly connected, so it is the target.
    target_vertices = start.dimension + 2 - index.z2  # a symmetric index counts pairs

    log, flips, applied, restarts = [], 0, 0, 0
    best = (index._f[::-1], 0)  # (energy, len(log)); the search ends at this state
    temperature = _START_TEMPERATURE
    while not (reduced := index._f[0] == target_vertices):
        if temperature < _RESTART_BELOW or flips == budget:
            # Rewind to the best state; removed vertices come back under their ids.
            while len(log) > best[1]:
                index.apply(log.pop().inverse())
            if temperature < _RESTART_BELOW:
                temperature, restarts = _START_TEMPERATURE, restarts + 1
            if flips == budget:
                break
        flips += 1
        # Moves come sorted by facet delta, so the downhill pool is a prefix.
        delta, pool = index.lowest()
        if delta < 0:
            move = index[rng.randrange(pool)]
            accepted = True
        else:
            move = index[rng.randrange(len(index))]
            delta = move.facet_delta()
            accepted = delta <= 0 or rng.random() < math.exp(
                -delta * multiplier / temperature)
        if accepted:
            index.apply(move)
            log.append(move)
            applied += 1
            energy = index._f[::-1]
            if energy < best[0]:
                best = (energy, len(log))
        temperature *= _COOLING
    return ReductionReport(
        "reduced" if reduced else "inconclusive",
        FlipSequence(tuple(log), index.z2, complex_digest(start),
                     complex_digest(index.state)),
        flips, applied, restarts, index.f_vector().counts, budget, seed), index.state


def reduce_to_boundary_simplex(complex_, budget=_BUDGET, seed=0):
    """Try to flip a closed pseudomanifold down to a simplex boundary.

    Success certifies that the input is a combinatorial sphere; an
    inconclusive outcome says nothing (the search is a heuristic, not a
    decision procedure).  ``budget`` bounds the tried flips of the fixed
    schedule above and is an ``int`` of at least 0.  Other inputs raise
    :class:`NotClosedPseudomanifold`, and a :class:`Z2Complex` raises
    :class:`TypeError` (reduce its ``.complex``).
    """
    return _search(_checked_kind(complex_, False), budget, seed)[0]


def z2_reduce_to_cross_polytope(z2complex, budget=_BUDGET, seed=0):
    """Like :func:`reduce_to_boundary_simplex`, but with symmetric move
    pairs only, aiming at the cross polytope boundary of the same
    dimension; success is reached at its 2(d + 1) vertices.  Raises
    :class:`TypeError` unless ``z2complex`` is a :class:`Z2Complex`."""
    return _search(_checked_kind(z2complex, True), budget, seed)[0]


def replay_verify(source, sequence, target):
    """Certify a sequence: replay it move by move from ``source`` and
    check the result against ``target``.

    Returns True iff every move applies, the final digest matches the
    recorded one, and the final complex is isomorphic to ``target``
    (signed isomorphism for symmetric sequences).  Raises
    :class:`CorruptSequence` when a move fails to apply, and
    :class:`TypeError` unless ``source`` and ``target`` are of the sequence's kind.
    """
    _checked_kind(target, sequence.z2)
    if complex_digest(_checked_kind(source, sequence.z2)) != sequence.source_digest:
        return False
    final = replay(source, sequence)
    return complex_digest(final) == sequence.target_digest and find_isomorphism(
        final, target) is not None


@dataclass(frozen=True)
class FanCertificate:
    """A verified parity certificate for one labelled symmetric sphere.

    ``parity_trace`` lists the number of positive alternating facets
    mod 2 for the input complex and after every move of ``sequence``;
    the trace is constant and ends (hence starts) at 1, which is the
    checked statement that the input count is odd.
    """

    source_digest: str
    sequence: FlipSequence
    initial_counts: tuple
    parity_trace: tuple
    final_labelling: "FanLabelling"
    final_counts: tuple


def fan_certificate(z2complex, labelling, budget=_BUDGET, seed=0):
    """Reduce to the cross polytope while transporting the labelling,
    recording the positive alternating facet count mod 2 at every step.

    The labels are validated and counted in full on the input and on the
    final complex.  In between, the search's own :class:`MoveIndex` checks
    each move once, and the labels ride on the moves of the sequence, each of
    which names the facets it replaced: a step checks its new edges and any
    removed vertex pair, and updates running counts from the star of the move
    only (see :mod:`bistellar.fan`); the final recount must equal them.

    Raises :class:`TypeError` unless ``z2complex`` is a :class:`Z2Complex`,
    :class:`InvalidLabelling` if the input labelling breaks a Fan
    condition, and :class:`CertificateUnavailable` if the search does
    not reach the cross polytope (the directly counted numbers ride
    along on the exception).  Any break in the parity trace, in stepwise
    validity or in the running counts would falsify the machinery and
    raises a :class:`BistellarError`.

    >>> from bistellar import canonical_cross_labelling, cross_polytope
    >>> certificate = fan_certificate(cross_polytope(3),
    ...                               canonical_cross_labelling(3), seed=1)
    >>> certificate.initial_counts, certificate.parity_trace
    ((1, 1), (1,))
    """
    labels = _fan_labels(_checked_kind(z2complex, True), labelling)
    start_counts = alternating_counts(z2complex, labelling)
    report, final = _search(z2complex, budget, seed)
    if not report.reduced:
        raise CertificateUnavailable(
            f"reduction inconclusive within budget {budget}; "
            f"directly counted positives: {start_counts.positive}",
            counts=start_counts, report=report)
    return _certify(report.sequence, labels, start_counts, final)


def _certify(sequence, labels, start_counts, final):
    """Carry ``labels`` (vertex -> label, changed in place) along the moves
    of ``sequence``, which lead to ``final``; check the parity trace, and
    validate and recount the labels on ``final`` against the running counts."""
    parity = start_counts.positive % 2
    trace = [parity]
    positive, negative = start_counts.as_tuple()
    for step, move in enumerate(sequence.moves):
        dp, dn = _transport(labels, move)
        positive, negative = positive + dp, negative + dn
        trace.append(positive % 2)
        if trace[-1] != parity:
            raise BistellarError(f"parity trace broke at step {step}")
    last = len(sequence) - 1
    if validate_fan(final, labels):
        raise BistellarError(f"transported labelling invalid after step {last}")
    counts = alternating_counts(final, labels)
    if counts.as_tuple() != (positive, negative):
        raise BistellarError(
            f"running counts {(positive, negative)} drifted from the recount "
            f"{counts.as_tuple()} by step {last}")
    if trace[-1] != 1:
        raise BistellarError(
            "trace does not end at 1 on the cross polytope; "
            "this falsifies the parity argument")
    return FanCertificate(
        source_digest=sequence.source_digest,
        sequence=sequence,
        initial_counts=start_counts.as_tuple(),
        parity_trace=tuple(trace),
        final_labelling=FanLabelling(labels).integerize(),
        final_counts=counts.as_tuple(),
    )
