"""Command line driver and the on-disk document formats.

One JSON document format carries complexes, optionally marked as
centrally symmetric ("z2": true, antipode = id negation) and optionally
labelled.  Facets are sorted with ascending vertices and labels are
sorted by vertex id, so serialization is canonical: writing the same
object twice gives byte-identical files, which keeps certificates and
golden outputs diffable.

Exit codes: 0 success / verified, 1 stdout closed by its reader, 2 validation,
input or file failure (violations on stdout, errors on stderr), 3 inconclusive.
"""

import argparse
import json
import os
import sys
from itertools import chain

from .complexes import SimplicialComplex, complex_digest, is_closed_pseudomanifold
from .errors import BistellarError, CertificateUnavailable
from .fan import FanLabelling, alternating_counts, tucker_witness, validate_fan
from .generators import cross_polytope, random_fan_labelling, simplex_boundary
from .moves import (
    BistellarMove,
    FlipSequence,
    MoveIndex,
    _checked_pure,
    _lone_flip,
    fresh_vertex,
    random_z2_walk,
)
from .reduction import (
    _BUDGET,
    fan_certificate,
    reduce_to_boundary_simplex,
    replay_verify,
    z2_reduce_to_cross_polytope,
)
from .z2 import Z2Complex

FORMAT_VERSION = 1


# -- document format ----------------------------------------------------------

def complex_document(complex_, z2=False, labelling=None):
    """The canonical JSON-ready form of a complex (plus optional labels)."""
    doc = {"format": FORMAT_VERSION, "facets": list(map(list, complex_.facets))}
    if z2:
        doc["z2"] = True
    if labelling is not None:
        doc["labels"] = list(map(list, labelling.items()))
    return doc


def _render(value, depth):
    # Keys sorted, scalar lists inline, one record per line: canonical and
    # diff-friendly at the same time.
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = [f'{inner}{json.dumps(str(k))}: {_render(v, depth + 1)}'
                 for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(value, list):
        if all(isinstance(x, (int, str, bool)) or x is None for x in value):
            return json.dumps(value)
        if (set(map(type, value)) == {list}
                and set(map(type, chain.from_iterable(value))) <= {int}):
            # rows of plain ints (facets, labels): one "%d" format per row length
            row = {n: "[" + ", ".join(["%d"] * n) + "]" for n in set(map(len, value))}
            rows = f",\n{inner}".join([row[len(r)] for r in value])
            return f"[\n{inner}{rows % tuple(chain.from_iterable(value))}\n{pad}]"
        lines = [f"{inner}{_render(x, depth + 1)}" for x in value]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    return json.dumps(value)


def dumps_canonical(doc):
    """The canonical text of a JSON-ready document: keys sorted, lists of
    scalars inline, other lists one item per line, and a final newline.

    >>> print(dumps_canonical({"z2": True, "facets": [[1, 2], [-2, -1]]}), end="")
    {
      "facets": [
        [1, 2],
        [-2, -1]
      ],
      "z2": true
    }
    """
    return _render(doc, 0) + "\n"


def _integer_rows(rows, what, build, width=None):
    """``build(rows)`` for a list of lists (of ``width``) of JSON integers;
    ``build`` makes the one type check of the entries.  A misshapen row, or
    a non-integer entry when ``build`` fails, is named instead."""
    if type(rows) is list and set(map(type, rows)) <= {list} and (
            width is None or set(map(len, rows)) <= {width}):
        try:
            return build(rows)
        except (BistellarError, TypeError):
            if set(map(type, chain.from_iterable(rows))) <= {int}:
                raise
    for row in rows if isinstance(rows, list) else [rows]:
        if type(row) is not list or width not in (None, len(row)):
            raise BistellarError(f"{what}: {json.dumps(row)} is not a "
                                 f"{'pair' if width else 'list'} of integers")
        for v in row:
            if type(v) is not int:
                raise BistellarError(f"{what}: {json.dumps(v)} is not an integer")


def _object(pairs):
    """A JSON object as a dict; a key that occurs twice raises, naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise BistellarError(f"key {json.dumps(key)} occurs more than once")
    return obj


class _UnreadableJSON(BistellarError):
    """The text is not JSON, or is JSON too deep or with too long an int to read."""


def _document(text, valid, what):
    """The JSON object in ``text``, if ``valid`` holds for it, no object in it
    repeats a key and its "format" is 1 or absent (older documents have none).
    Text that is not JSON, or that Python cannot read, raises _UnreadableJSON."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise _UnreadableJSON(f"parse error at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # too deep, or too long an int
        raise _UnreadableJSON(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict) or not valid(doc):
        raise BistellarError(f"document must be an object {what}")
    version = doc.get("format", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise BistellarError(f"format: {json.dumps(version)} is not {FORMAT_VERSION}")
    return doc


def _labelling(rows):
    labels = {}
    for v, x in rows:
        if v in labels:
            raise BistellarError(f"labels: vertex {v} is labelled twice")
        labels[v] = x
    return FanLabelling(labels)


def parse_complex_document(text):
    """Parse a document into (complex, z2complex-or-None, labelling-or-None).

    Vertex ids and labels must be JSON integers, "z2" a JSON boolean and
    "format", if present, the integer 1; nothing is coerced, and no vertex
    may be labelled twice or be labelled without being in the complex.
    """
    doc = _document(text, lambda doc: "facets" in doc, "with a 'facets' list")
    complex_ = _integer_rows(doc["facets"], "facets", SimplicialComplex.from_facets)
    z2 = doc.get("z2", False)
    if type(z2) is not bool:
        raise BistellarError(f"z2: {json.dumps(z2)} is not true or false")
    signed = Z2Complex(complex_) if z2 else None  # checked before the labels
    labelling = None
    if "labels" in doc:
        labelling = _integer_rows(doc["labels"], "labels", _labelling, 2)
        stray = set(labelling.labels).difference((signed or complex_).vertices)
        if stray:
            raise BistellarError(f"labels: vertex {min(stray)} is not in the complex")
    return complex_, signed, labelling


def _move_record(move, z2):
    fresh = []
    if len(move.inserted) == 1:
        fresh = [move.inserted[0]]
        if z2:
            fresh.append(-move.inserted[0])
    return {"removed": list(move.removed), "inserted": list(move.inserted),
            "fresh": sorted(fresh)}


def sequence_document(sequence):
    return {
        "format": FORMAT_VERSION,
        "kind": "flip-sequence",
        "z2": sequence.z2,
        "source": sequence.source_digest,
        "target": sequence.target_digest,
        "moves": [_move_record(m, sequence.z2) for m in sequence.moves],
    }


def parse_sequence_document(text):
    """Parse a "flip-sequence" document: a boolean "z2", string "source" and
    "target" digests, "moves" whose "removed"/"inserted" are integer lists,
    and, if present, "format" 1."""
    doc = _document(text, lambda doc: doc.get("kind") == "flip-sequence",
                    "of kind 'flip-sequence'")
    for key, kind in (("z2", bool), ("source", str), ("target", str)):
        if type(doc.get(key)) is not kind:
            raise BistellarError(f"{key}: {json.dumps(doc.get(key))} is not a "
                                 f"{'boolean' if kind is bool else 'string'}")
    records = doc.get("moves")
    if type(records) is not list or any(type(m) is not dict for m in records):
        raise BistellarError("moves: not a list of objects")
    moves = tuple(_integer_rows([m.get("removed"), m.get("inserted")], "moves",
                                lambda rows: BistellarMove(*rows))
                  for m in records)
    return FlipSequence(moves=moves, z2=doc["z2"],
                        source_digest=doc["source"], target_digest=doc["target"])


def certificate_document(certificate):
    steps = []
    for move, parity in zip(certificate.sequence.moves,
                            certificate.parity_trace[1:]):
        record = _move_record(move, True)
        record["parity"] = parity
        steps.append(record)
    return {
        "format": FORMAT_VERSION,
        "kind": "certificate",
        "source": certificate.source_digest,
        "final": certificate.sequence.target_digest,
        "alpha_positive": certificate.initial_counts[0],
        "alpha_negative": certificate.initial_counts[1],
        "parity": certificate.parity_trace[0],
        "steps": steps,
        "final_labels": [[v, x] for v, x in certificate.final_labelling.items()],
    }


# -- helpers -------------------------------------------------------------------

def _emit(doc, path=None):
    text = dumps_canonical(doc)
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise BistellarError(f"{path}: {exc}") from exc


def _load(path):
    """``(cx, labelling)`` from the document at ``path``, ``cx`` a Z2Complex
    exactly when it is marked "z2"; only an unreadable file names the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            complex_, signed, labelling = parse_complex_document(handle.read())
    except (OSError, UnicodeDecodeError, _UnreadableJSON) as exc:
        raise BistellarError(f"{path}: {exc}") from exc
    return complex_ if signed is None else signed, labelling


def _parse_face(text):
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise BistellarError(f"face {text!r} is not a list of integers") from None


def _need_z2(cx, path):
    if not isinstance(cx, Z2Complex):
        raise BistellarError(f"{path} is not marked 'z2': true")
    return cx


def _need_labels(labelling, path):
    if labelling is None:
        raise BistellarError(f"{path} carries no 'labels'")
    return labelling


# -- subcommands -----------------------------------------------------------------

def _label_report(cx, labelling):
    """Print the Fan violations and return 2, or the alternating counts and 0."""
    violations = validate_fan(cx, labelling)
    if violations:
        for kind, where in violations:
            print(f"violation {kind}: {where}")
        return 2
    counts = alternating_counts(cx, labelling)
    print("valid Fan labelling")
    print(f"alternating facets: +{counts.positive} / -{counts.negative}")
    return 0


def cmd_info(args, cx, labelling):
    fv = cx.f_vector()
    print(f"dimension: {cx.dimension}")
    print(f"f-vector: {fv.counts}")
    print(f"euler-characteristic: {fv.euler_characteristic}")
    print(f"pure: {cx.is_pure()}")
    print(f"closed-pseudomanifold: {is_closed_pseudomanifold(cx)}")
    print(f"digest: {complex_digest(cx)}")
    if isinstance(cx, Z2Complex):
        print(f"z2: valid free involution on "
              f"{len(cx.positive_vertices)} vertex pairs")
    return 0 if labelling is None else _label_report(cx, labelling)


def cmd_moves(args, cx, _):
    found = list(MoveIndex(cx))
    for move in found:
        print(f"removed={list(move.removed)} inserted={list(move.inserted)}")
    print(f"total: {len(found)}")
    return 0


def cmd_flip(args, cx, _):
    _checked_pure(cx)  # an impure complex is named before a bad face
    move = BistellarMove(_parse_face(args.removed), _parse_face(args.inserted))
    _emit(complex_document(_lone_flip(cx, move), z2=isinstance(cx, Z2Complex)), args.output)
    return 0


def cmd_walk(args, cx, _):
    final, sequence = random_z2_walk(_need_z2(cx, args.file), args.steps, args.seed)
    _emit(complex_document(final, z2=True), args.output)
    if args.log:
        _emit(sequence_document(sequence), args.log)
    return 0


def cmd_subdivide(args, cx, _):
    if args.fresh is not None and args.stellar is None:
        raise BistellarError("--fresh needs --stellar")
    if args.stellar is not None:
        face = _parse_face(args.stellar)
        fresh = fresh_vertex(cx) if args.fresh is None else args.fresh
        result = cx.stellar_subdivide(face, fresh)
        mapping = {fresh: tuple(sorted(set(face)))}  # the face it subdivided
    else:
        result, mapping = cx.barycentric_subdivide()
    z2 = args.barycentric and isinstance(cx, Z2Complex)
    _emit(complex_document(result, z2=z2), args.output)
    if args.map:
        _emit({"format": FORMAT_VERSION, "kind": "face-map",
               "map": [[v, list(f)] for v, f in sorted(mapping.items())]}, args.map)
    return 0


def cmd_quotient(args, cx, _):
    subdivided, _ = _need_z2(cx, args.file).equivariant_sd()
    quotient, _ = subdivided.quotient()
    _emit(complex_document(quotient), args.output)
    return 0


def cmd_fan_check(args, cx, labelling):
    return _label_report(cx, _need_labels(labelling, args.file))


def cmd_tucker(args, cx, labelling):
    labelling = _need_labels(labelling, args.file)
    edge = tucker_witness(cx, labelling)
    print(f"complementary edge: {list(edge)} "
          f"(labels {labelling[edge[0]]} and {labelling[edge[1]]})")
    return 0


def cmd_reduce(args, cx, _):
    plain = cx.complex if isinstance(cx, Z2Complex) else cx  # searched without --z2
    source = _need_z2(cx, args.file) if args.z2 else plain
    reduce = z2_reduce_to_cross_polytope if args.z2 else reduce_to_boundary_simplex
    report = reduce(source, budget=args.budget, seed=args.seed)
    print(f"outcome: {report.outcome}")
    print(f"flips tried: {report.flips_tried}, applied: {report.flips_applied}, "
          f"restarts: {report.restarts}")
    print(f"best f-vector: {report.best_f_vector}")
    print(f"sequence length: {len(report.sequence)}")
    if args.log:
        _emit(sequence_document(report.sequence), args.log)
    if report.reduced:
        target = (cross_polytope if args.z2 else simplex_boundary)(cx.dimension + 1)
        verified = replay_verify(source, report.sequence, target)
        print(f"replay verified: {verified}")
        return 0 if verified else 2
    return 3


def cmd_certify(args, cx, labelling):
    if args.labels != "random" and (args.label_bound, args.label_seed) != (None, None):
        raise BistellarError("--label-bound and --label-seed need --labels random")
    signed = _need_z2(cx, args.file)
    if args.labels == "file":
        labelling = _need_labels(labelling, args.file)
    elif args.labels == "canon":
        labelling = FanLabelling({v: v for v in signed.vertices})
    else:
        bound = signed.dimension + 2 if args.label_bound is None else args.label_bound
        labelling = random_fan_labelling(signed, bound, args.label_seed or 0)
    try:
        certificate = fan_certificate(signed, labelling, budget=args.budget,
                                      seed=args.seed)
    except CertificateUnavailable as exc:
        print(f"inconclusive: {exc}")
        print(f"alpha-positive (direct count): {exc.counts.positive}")
        return 3
    plus, minus = certificate.initial_counts
    print(f"alpha-positive: {plus}")
    print(f"alpha-negative: {minus}")
    print(f"parity trace: constant {certificate.parity_trace[0]} over "
          f"{len(certificate.parity_trace)} states")
    print(f"sequence length: {len(certificate.sequence)}")
    print(f"verified: alpha-positive is odd: {plus % 2 == 1}")
    if args.out:
        _emit(certificate_document(certificate), args.out)
    return 0


# -- argument parsing ---------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="bistellar",
        description="Bistellar flips on centrally symmetric triangulations, "
                    "with Fan labelling parity certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    negative = "; negative ids as --%(dest)s=-3,-2,-1 or --%(dest)s '-3 -2 -1'"

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("file", help="input complex document (JSON)")
        return p

    add("info", cmd_info, "f-vector, Euler characteristic and validators")

    add("moves", cmd_moves, "list admissible moves (symmetric pairs on z2 files)")

    p = add("flip", cmd_flip, "apply one move (the symmetric pair on z2 files)")
    p.add_argument("--removed", required=True, help="face to remove, e.g. '1,2,3'" + negative)
    p.add_argument("--inserted", required=True, help="simplex to insert, e.g. '7'" + negative)
    p.add_argument("-o", "--output", help="write result here instead of stdout")

    p = add("walk", cmd_walk, "seeded random walk through symmetric moves")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", help="write result here instead of stdout")
    p.add_argument("--log", help="write the flip sequence here")

    p = add("subdivide", cmd_subdivide, "barycentric or stellar subdivision")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--barycentric", action="store_true",
                       help="barycentric subdivision (equivariant on z2 files)")
    group.add_argument("--stellar", metavar="FACE",
                       help="stellar subdivision at this face, e.g. '1,2'" + negative)
    p.add_argument("--fresh", type=int, help="id for the --stellar vertex (default: auto)")
    p.add_argument("-o", "--output", help="write result here instead of stdout")
    p.add_argument("--map", help="write the new-vertex-to-face map here")

    p = add("quotient", cmd_quotient,
            "equivariant subdivision followed by the antipodal quotient")
    p.add_argument("-o", "--output", help="write result here instead of stdout")

    add("fan-check", cmd_fan_check, "validate labels and count alternating facets")
    add("tucker", cmd_tucker, "find a complementary edge")

    p = add("reduce", cmd_reduce, "heuristic reduction to the canonical sphere")
    p.add_argument("--z2", action="store_true",
                   help="symmetric reduction to the cross polytope")
    p.add_argument("--budget", type=int, default=_BUDGET)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--log", help="write the flip sequence here")

    p = add("certify", cmd_certify,
            "reduce, transport the labelling, and emit the parity trace")
    p.add_argument("--labels", choices=("file", "canon", "random"), default="file",
                   help="label source: the file, the identity labelling, "
                        "or a random Fan labelling")
    p.add_argument("--label-bound", type=int,
                   help="bound for random labels (default: dimension + 2)")
    p.add_argument("--label-seed", type=int,
                   help="seed for random labels (default: 0)")
    p.add_argument("--budget", type=int, default=_BUDGET)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the certificate document here")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args, *_load(args.file))
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout, as ``| head`` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BistellarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
