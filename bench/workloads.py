"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed (``setup``), runs
one task at a time (``run``), checks a task's output without timing it
(``check``, ``digests``) and, for the traced run, replays the task's
recorded path through the public functions of the package (``probe``).

A task only ever calls the package's public functions. ``span(name)``
is a context manager factory: a no-op when tracing is off, a span
recorder when it is on. Span names are the layer names of the report.

Task counts grow with ``seconds``; per-kind rates were set so that a
30-second run on a 2-core x86-64 machine does about 30 seconds of task
work at the commit that added the benchmark. Every kind draws its
parameters from its own seeded stream, so task ``kind/i`` is the same
whatever the run length, and the goldens are keyed by it.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field

from bistellar import (
    FanLabelling,
    NoWitness,
    SimplicialComplex,
    Z2Complex,
    alternating_counts,
    apply_move,
    apply_z2_move,
    complex_digest,
    cross_polytope,
    enumerate_moves,
    enumerate_z2_moves,
    fan_certificate,
    find_isomorphism,
    find_z2_isomorphism,
    random_fan_labelling,
    random_z2_walk,
    reduce_to_boundary_simplex,
    relabel_move,
    replay_verify,
    simplex_boundary,
    tucker_witness,
    validate_fan,
    z2_reduce_to_cross_polytope,
)
from bistellar.cli import (
    certificate_document,
    complex_document,
    dumps_canonical,
    parse_complex_document,
)


@dataclass(frozen=True)
class Task:
    kind: str
    index: int
    params: tuple

    @property
    def key(self):
        return f"{self.kind}/{self.index}"


@dataclass
class Inputs:
    tasks: list
    data: dict = field(default_factory=dict)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def plan(workload, seed, seconds, kinds, draw):
    """Seeded task list: ``kinds`` maps kind -> (tasks per second, minimum).

    Kinds are interleaved in proportion to their counts so that a run's
    time is spread evenly over them.
    """
    lists = []
    for kind, (rate, minimum) in kinds.items():
        rng = random.Random(f"{workload}:{kind}:{seed}")
        count = max(minimum, round(rate * seconds))
        lists.append([Task(kind, i, draw(kind, rng)) for i in range(count)])
    slots = sorted(((i + 0.5) / len(tasks), k, i)
                   for k, tasks in enumerate(lists) for i in range(len(tasks)))
    return [lists[k][i] for _, k, i in slots]


def _seed(rng):
    return rng.randrange(2 ** 31)


class Probe:
    """Per-task record for the traced run.

    ``calls`` lists ``(layer, group, count)``: the task calls ``layer``
    ``count`` times, and the mean cost of one call is taken from the
    probe spans of that layer under the replay span ``group`` (or from
    the task's own spans when ``group`` is ``"task"``). ``searches``
    holds ``(report, group of its per-call means, group of its
    "reduction.search" span, {layer: calls})`` for each reduction search.
    Counts inside a search are estimates: its discarded branches are not replayed, so the
    mean cost on the final path stands in for them, and the number of
    enumerations is taken as ``flips_applied + restarts + 1``.
    """

    def __init__(self):
        self.calls = []
        self.searches = []
        self.candidates = []

    def add(self, layer, group, count):
        self.calls.append((layer, group, count))

    def add_search(self, report, group, search_group):
        z2 = report.sequence.z2
        counts = {
            "moves.enumerate_z2" if z2 else "moves.enumerate":
                report.flips_applied + report.restarts + 1,
            "moves.apply_z2" if z2 else "moves.apply": report.flips_applied,
            "complexes.find_isomorphism": 1,
        }
        self.searches.append((report, group, search_group, counts))
        for layer, count in counts.items():
            self.add(layer, group, count)
        if z2:
            self.add("z2.from_complex", group, report.flips_applied)


def replay_path(start, moves, span, probe, group, labelling=None):
    """Step through ``moves`` from ``start``, timing each public call.

    With a labelling, each step also transports and checks the labels the
    way :func:`fan_certificate` does. Returns the final state.
    """
    z2 = isinstance(start, Z2Complex)
    state, labels = start, labelling
    with span(group):
        for move in moves:
            if z2:
                with span("moves.enumerate_z2"):
                    found = enumerate_z2_moves(state)
                probe.candidates.append(len(found))
                if labels is not None:
                    with span("fan.relabel_move"):
                        labels = relabel_move(state, labels, move)
                with span("moves.apply_z2"):
                    state, _ = apply_z2_move(state, move)
                with span("z2.from_complex"):
                    Z2Complex.from_complex(state.complex)
                if labels is not None:
                    with span("fan.validate_fan"):
                        validate_fan(state, labels)
                    with span("fan.alternating_counts"):
                        alternating_counts(state, labels)
            else:
                with span("moves.enumerate"):
                    enumerate_moves(state)
                with span("moves.apply"):
                    state, _ = apply_move(state, move)
    return state


def grow(sphere, facets, rng):
    """Walk on from ``sphere``, five steps at a time, until it has at least
    ``facets`` facets."""
    while len(sphere.facets) < facets:
        sphere, _ = random_z2_walk(sphere, 5, _seed(rng))
    return sphere


# -- reduce_sd --------------------------------------------------------------------


class ReduceSd:
    """Symmetric reductions of equivariant barycentric subdivisions and plain
    reductions of a barycentric subdivision, with the default budget.

    ``sd4`` is sd(boundary of C4), f = (80, 464, 768, 384), the case the
    search spends seconds on. ``sd3`` is its 2-sphere analogue, f = (26, 72,
    48): the same symmetric code path in about 0.1 s, which gives a run
    enough tasks for a tail percentile. ``plain`` is sd(boundary of the
    4-simplex), f = (30, 150, 240, 120), on the plain path.
    """

    name = "reduce_sd"
    kinds = {"sd4": (1 / 15, 1), "sd3": (4.0, 20), "plain": (0.6, 1)}

    def setup(self, seed, seconds, span):
        with span("z2.equivariant_sd"):
            sd4, _ = cross_polytope(4).equivariant_sd()
        with span("z2.equivariant_sd"):
            sd3, _ = cross_polytope(3).equivariant_sd()
        bsd, _ = simplex_boundary(4).barycentric_subdivide()
        sources = {"sd4": (sd4, cross_polytope(4)),
                   "sd3": (sd3, cross_polytope(3)),
                   "plain": (bsd, simplex_boundary(4))}
        tasks = plan(self.name, seed, seconds, self.kinds,
                     lambda kind, rng: (_seed(rng),))
        return Inputs(tasks, {"sources": sources})

    def run(self, task, inputs, span):
        source, _ = inputs.data["sources"][task.kind]
        (search_seed,) = task.params
        with span("reduction.search"):
            if task.kind == "plain":
                return reduce_to_boundary_simplex(source, seed=search_seed)
            return z2_reduce_to_cross_polytope(source, seed=search_seed)

    def check(self, task, report, inputs):
        source, target = inputs.data["sources"][task.kind]
        if not report.reduced:
            return [f"reduction inconclusive, best f = {report.best_f_vector}"]
        if not replay_verify(source, report.sequence, target):
            return ["replay_verify rejected the sequence"]
        return []

    def digests(self, task, report):
        return {"target": report.sequence.target_digest}

    def flips(self, report):
        return report.flips_tried

    def probe(self, task, report, inputs, span):
        source, target = inputs.data["sources"][task.kind]
        probe = Probe()
        final = replay_path(source, report.sequence.moves, span, probe, "replay.search")
        with span("replay.search"):
            with span("complexes.find_isomorphism"):
                if task.kind == "plain":
                    find_isomorphism(final, target)
                else:
                    find_z2_isomorphism(final, target)
        probe.add_search(report, "replay.search", "task")
        return probe


# -- walk_certify -------------------------------------------------------------------


class WalkCertify:
    """Grow a centrally symmetric sphere by a seeded walk, label it, reduce
    it back with the labelling carried along, and render the certificate.

    Walk lengths are pinned, from 40 to 150 steps (up to about 550
    facets). A task's time depends on its walk, so the mix puts the median
    in the middle of one large class (twenty 40-step walks from C4, about
    0.6 s each), with ten shorter walks from C3 below it and eight longer
    walks, which carry most of the time, above it.
    """

    name = "walk_certify"
    kinds = {
        "c3-40": (6 / 30, 6), "c3-60": (4 / 30, 4), "c4-40": (20 / 30, 11),
        "c3-100": (3 / 30, 0), "c4-60": (2 / 30, 0), "c3-150": (1 / 30, 0),
        "c4-100": (1 / 30, 0), "c4-150": (1 / 30, 0),
    }

    @staticmethod
    def _draw(kind, rng):
        half, steps = kind[1:].split("-")
        return int(half), int(steps), _seed(rng), _seed(rng), _seed(rng)

    def setup(self, seed, seconds, span):
        tasks = plan(self.name, seed, seconds, self.kinds, self._draw)
        return Inputs(tasks, {"bases": {3: cross_polytope(3), 4: cross_polytope(4)}})

    def run(self, task, inputs, span):
        half, steps, walk_seed, label_seed, search_seed = task.params
        with span("moves.random_z2_walk"):
            walked, walk = random_z2_walk(inputs.data["bases"][half], steps, walk_seed)
        with span("generators.random_fan_labelling"):
            labelling = random_fan_labelling(walked, walked.dimension + 2, label_seed)
        with span("reduction.fan_certificate"):
            certificate = fan_certificate(walked, labelling, seed=search_seed)
        with span("cli.certificate_document"):
            document = certificate_document(certificate)
        with span("cli.dump"):
            text = dumps_canonical(document)
        return walked, walk, labelling, certificate, text

    def check(self, task, output, inputs):
        walked, walk, _, certificate, _ = output
        half = task.params[0]
        problems = []
        if walk.target_digest != complex_digest(walked.complex):
            problems.append("walk target digest does not match the walked complex")
        if set(certificate.parity_trace) != {1}:
            problems.append(f"parity trace is not all 1s: {certificate.parity_trace}")
        if not replay_verify(walked, certificate.sequence, cross_polytope(half)):
            problems.append("replay_verify rejected the certificate's sequence")
        return problems

    def flips(self, output):
        return None  # the search runs inside fan_certificate; see the traced run

    def digests(self, task, output):
        _, walk, _, certificate, text = output
        return {"walk_target": walk.target_digest,
                "certificate_target": certificate.sequence.target_digest,
                "certificate_sha256": sha256(text)}

    def probe(self, task, output, inputs, span):
        half, steps, _, _, search_seed = task.params
        walked, walk, labelling, certificate, _ = output
        probe = Probe()
        replay_path(inputs.data["bases"][half], walk.moves, span, probe, "replay.walk")
        probe.add("moves.enumerate_z2", "replay.walk", steps)
        probe.add("moves.apply_z2", "replay.walk", steps)
        probe.add("z2.from_complex", "replay.walk", steps)

        with span("replay.search"):
            with span("reduction.search"):
                report = z2_reduce_to_cross_polytope(walked, seed=search_seed)
        moves = certificate.sequence.moves
        final = replay_path(walked, moves, span, probe, "replay.certificate", labelling)
        with span("replay.certificate"):
            with span("complexes.find_isomorphism"):
                find_z2_isomorphism(final, cross_polytope(half))
        probe.add_search(report, "replay.certificate", "replay.search")
        # fan_certificate's transport: one relabel, apply, check and count
        # per move, plus a check and count before and a count after.
        count = len(moves)
        probe.add("fan.relabel_move", "replay.certificate", count)
        probe.add("moves.apply_z2", "replay.certificate", count)
        probe.add("z2.from_complex", "replay.certificate", count)
        probe.add("fan.validate_fan", "replay.certificate", 1 + 2 * count)
        probe.add("fan.alternating_counts", "replay.certificate", count + 2)
        for layer in ("generators.random_fan_labelling", "cli.certificate_document",
                      "cli.dump"):
            probe.add(layer, "task", 1)
        return probe


# -- fan_check ----------------------------------------------------------------------


class FanCheck:
    """The fan-check / tucker path over a corpus of labelled documents.

    Spheres of pinned size, from about 100 to 1000 facets: walked 2- and
    3-spheres, grown until they reach a facet count; sd(boundary of C4);
    and equivariant subdivisions of the two walked 2-spheres. Pinning the
    sizes keeps the corpus equally heavy for every seed. Each sphere
    carries two Fan labellings (bounds d+2 and d+3) and two antipodal
    labellings into +-1..+-d, which always have a complementary edge. A
    task checks one document; a pass checks every document once.
    """

    name = "fan_check"
    pass_seconds = 0.7

    def setup(self, seed, seconds, span):
        rng = random.Random(f"{self.name}:corpus:{seed}")
        small2 = grow(cross_polytope(3), 100, rng)
        large2 = grow(small2, 160, rng)
        small3 = grow(cross_polytope(4), 150, rng)
        large3 = grow(small3, 220, rng)
        spheres = [small2, large2, small3, large3]
        for base in (cross_polytope(4), small2, large2):
            with span("z2.equivariant_sd"):
                spheres.append(base.equivariant_sd()[0])

        documents = []
        for sphere in spheres:
            d = sphere.dimension
            for bound in (d + 2, d + 3):
                labelling = random_fan_labelling(sphere, bound, _seed(rng))
                documents.append(("fan", self._render(sphere, labelling)))
            for _ in range(2):
                labels = {}
                for v in sphere.positive_vertices:
                    x = rng.randint(1, d) * rng.choice((1, -1))
                    labels[v], labels[-v] = x, -x
                documents.append(("antipodal", self._render(sphere, FanLabelling(labels))))
        passes = max(1, round(seconds / self.pass_seconds))
        tasks = [Task("doc", i, (p,))
                 for p in range(passes) for i in range(len(documents))]
        return Inputs(tasks, {"documents": documents})

    @staticmethod
    def _render(sphere, labelling):
        return dumps_canonical(complex_document(sphere.complex, z2=True, labelling=labelling))

    def run(self, task, inputs, span):
        _, text = inputs.data["documents"][task.index]
        with span("cli.parse"):
            complex_, signed, labelling = parse_complex_document(text)
        with span("fan.validate_fan"):
            violations = validate_fan(signed, labelling)
        with span("fan.alternating_counts"):
            counts = alternating_counts(signed, labelling)
        with span("fan.tucker_witness"):
            try:
                edge = tucker_witness(signed, labelling)
            except NoWitness:
                edge = None
        with span("cli.dump"):
            dumped = dumps_canonical(complex_document(complex_, z2=True, labelling=labelling))
        return violations, counts, edge, labelling, dumped

    def check(self, task, output, inputs):
        kind, text = inputs.data["documents"][task.index]
        violations, counts, edge, labelling, dumped = output
        problems = []
        if dumped != text:
            problems.append("parse followed by dump changed the document")
        if kind == "fan":
            if violations:
                problems.append(f"Fan labelling reported invalid: {violations[:3]}")
            if counts.positive % 2 != 1:
                problems.append(f"positive alternating count {counts.positive} is even")
            if edge is not None:
                problems.append(f"Fan labelling has a complementary edge {edge}")
        else:
            if edge is None:
                problems.append("no Tucker witness on an antipodal labelling")
            elif labelling[edge[0]] + labelling[edge[1]] != 0:
                problems.append(f"witness {edge} does not sum to zero")
            elif ("complementary-edge", edge) not in violations:
                problems.append(f"validate_fan missed the complementary edge {edge}")
        return problems

    def flips(self, output):
        return None

    def digests(self, task, output):
        return {"dump_sha256": sha256(output[-1])}

    def probe(self, task, output, inputs, span):
        _, text = inputs.data["documents"][task.index]
        facets = json.loads(text)["facets"]
        probe = Probe()
        with span("replay.parse"):
            with span("complexes.from_facets"):
                complex_ = SimplicialComplex.from_facets(facets)
            with span("z2.from_complex"):
                Z2Complex.from_complex(complex_)
        probe.add("complexes.from_facets", "replay.parse", 1)
        probe.add("z2.from_complex", "replay.parse", 1)
        for layer in ("cli.parse", "fan.validate_fan", "fan.alternating_counts",
                      "fan.tucker_witness", "cli.dump"):
            probe.add(layer, "task", 1)
        return probe


WORKLOADS = {w.name: w for w in (ReduceSd(), WalkCertify(), FanCheck())}
