"""Spans kept in memory, self times, and the per-layer report of a traced run."""

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

# Layers of the package that the report covers, named module.function.
LAYERS = (
    "moves.enumerate_z2", "moves.enumerate", "moves.apply_z2", "moves.apply",
    "z2.from_complex", "z2.equivariant_sd",
    "complexes.from_facets", "complexes.find_isomorphism",
    "fan.relabel_move", "fan.validate_fan", "fan.alternating_counts",
    "fan.tucker_witness",
    "generators.random_fan_labelling",
    "cli.parse", "cli.dump", "cli.certificate_document",
)


def no_span(name):
    return nullcontext()


class Tracer:
    """Records spans as ``[id, parent, name, task, start, end]``.

    Set ``task`` before a task runs; every span opened meanwhile carries it.
    """

    def __init__(self):
        self.spans = []
        self.task = None
        self._open = []

    @contextmanager
    def span(self, name):
        record = [len(self.spans), self._open[-1] if self._open else None,
                  name, self.task, perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[5] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Span id -> duration minus the time its child spans cover."""
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def write(self, path):
        start = self.spans[0][4] if self.spans else 0.0
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, task, begin, end in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "task": task,
                    "start_s": begin - start, "end_s": end - start,
                    "self_s": own[sid]}) + "\n")


def span_totals(tracer):
    """(task, group, name) -> [self seconds, span count].

    ``group`` is the name of the replay span (``replay.*``) a span sits
    in, or ``"task"`` for spans the task or the set-up opened itself.
    """
    own = tracer.self_times()
    names = {s[0]: s[2] for s in tracer.spans}
    totals = {}
    for s in tracer.spans:
        parent = names.get(s[1], "")
        group = parent if parent.startswith("replay.") else "task"
        entry = totals.setdefault((s[3], group, s[2]), [0.0, 0])
        entry[0] += own[s[0]]
        entry[1] += 1
    return totals


def mean_seconds(totals, task, group, name):
    total, spans = totals.get((task, group, name), (0.0, 0))
    return total / spans if spans else 0.0


def layer_report(totals, probes, task_seconds, setup_seconds):
    """Per-layer calls, mean ms per call and share of task time.

    A task's time in a layer is the number of calls it makes times the
    mean self time of that layer's spans in the task's own group (the task
    span, or one replay span). Shares are inclusive: a layer called inside
    another (``z2.from_complex`` in ``moves.apply_z2``) counts in both.
    ``z2.equivariant_sd`` runs only in set-up; its share is of set-up time.
    """
    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for task, probe in probes.items():
        for layer, group, count in probe.calls:
            seconds[layer] += count * mean_seconds(totals, task, group, layer)
            calls[layer] += count
    total, spans = totals.get(("setup", "task", "z2.equivariant_sd"), (0.0, 0))
    seconds["z2.equivariant_sd"], calls["z2.equivariant_sd"] = total, spans

    report = {}
    for layer in LAYERS:
        base = setup_seconds if layer == "z2.equivariant_sd" else task_seconds
        report[layer] = {
            "ms": 1000 * seconds[layer] / calls[layer] if calls[layer] else 0.0,
            "calls": calls[layer],
            "share": seconds[layer] / base if base else 0.0,
        }
    return report
