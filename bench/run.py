#!/usr/bin/env python3
"""Benchmark of the bistellar package.

Every workload, untraced and then traced, one process at a time, with a
summary of all end-to-end metrics:

    python3 bench/run.py --all

One run, the way BENCHMARK.json's command is called:

    python3 bench/run.py --workload reduce_sd --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it and the files under bench/out/ give the same figures
with percentiles, sample counts, failures and run metadata. The package
is imported from src/ next to this directory; nothing is installed.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
GOLDENS = ROOT / "bench" / "goldens.json"
CONTRACT = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("reduce_sd", "walk_certify", "fan_check")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30.0
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, so that a set-up of a millisecond is timed as steadily
# as one of a second; setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# A traced run times its tasks twice and replays them once, so it plans a
# third of the task time to last about as long as an untraced run.
TRACE_SHARE = 3
TAIL_BEYOND = 10
# On a shared 2-core x86-64 host, other tenants slowed identical runs by up
# to 2x for seconds at a time. Untraced timings are therefore scaled by the
# speed of a fixed kernel of plain Python, sampled between tasks at most
# every SAMPLE_EVERY seconds: a timing t is reported as
# t * REFERENCE_SECONDS / (kernel time around it). REFERENCE_SECONDS is a
# fixed unit, near the kernel's time on such a host when idle. Sampling
# inside tasks from a timer signal, or with a kernel whose working set is
# megabytes, followed the tasks' slowdowns less closely.
REFERENCE_SECONDS = 0.0017
SAMPLE_EVERY = 0.25


def _kernel():
    groups = {}
    for i in range(3000):
        groups.setdefault(i % 17, []).append((i * 7919 % 1013, -i))
    seen = set()
    for values in groups.values():
        values.sort()
        seen.update(v for v, _ in values)
    return len(seen)


class HostClock:
    """Samples the host's speed between tasks and scales timings to the
    reference speed."""

    def __init__(self):
        self.samples = []  # (perf_counter, median kernel seconds)

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(5):
                t0 = perf_counter()
                _kernel()
                times.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples.append((perf_counter(), statistics.median(times)))

    def due(self):
        """Sample if the last sample is SAMPLE_EVERY seconds old; returns
        the index of the latest sample."""
        if not self.samples or perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY:
            self.sample()
        return len(self.samples) - 1

    def scale(self, seconds, index):
        """``seconds`` measured after sample ``index`` and before the next."""
        kernel = statistics.mean(k for _, k in self.samples[index:index + 2])
        return seconds * REFERENCE_SECONDS / kernel


def tail(values):
    """The highest percentile with at least TAIL_BEYOND values beyond it,
    as ``(value, percentile)``, or None when that percentile would not lie
    above the median."""
    n = len(values)
    if n <= 2 * TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100 * rank // n


def commit():
    """``(hash, dirty)`` of the checkout, or ``("unknown", None)``."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return head.stdout.strip(), bool(status.stdout.strip())


def metadata():
    hash_, dirty = commit()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": hash_, "dirty": dirty}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_tasks(workload, inputs, seed, tracer=None, clock=None):
    """Run every task in turn: time it, check it untimed, and with a tracer
    run it again under spans and replay its path. With a clock, the task
    times returned are scaled to the reference speed.

    Outputs are checked and dropped task by task, so that the heap, and
    the garbage collector's work, do not grow over a run.
    """
    from spans import no_span

    goldens = {}
    if seed == DEFAULT_SEED and GOLDENS.is_file():
        goldens = json.loads(GOLDENS.read_text()).get(workload.name, {})
    times, traced_times, failures, flips, probes, samples = [], [], {}, [], {}, []
    for i, task in enumerate(inputs.tasks):
        if clock is not None:
            samples.append(clock.due())
        t0 = perf_counter()
        try:
            output = workload.run(task, inputs, no_span)
        except Exception:  # one broken task must not stop the run
            times.append(perf_counter() - t0)
            failures[i] = [traceback.format_exc()]
            continue
        times.append(perf_counter() - t0)
        try:
            problems = workload.check(task, output, inputs)
            digests = workload.digests(task, output)
            if goldens.get(task.key, digests) != digests:
                problems.append(f"golden digest mismatch for {task.key}")
            if workload.flips(output) is not None:
                flips.append((workload.flips(output), i))
            if tracer is not None:
                tracer.task = i
                t0 = perf_counter()
                with tracer.span("task"):
                    traced = workload.run(task, inputs, tracer.span)
                traced_times.append(perf_counter() - t0)
                if workload.digests(task, traced) != digests:
                    problems.append("the traced run gave different outputs")
                with tracer.span("replay"):
                    probes[i] = workload.probe(task, output, inputs, tracer.span)
        except Exception:  # a check that raises is a failed check
            problems = [traceback.format_exc()]
        if problems:
            failures[i] = problems
    raw = times
    if clock is not None:
        clock.sample()
        times = [clock.scale(t, k) for t, k in zip(raw, samples)]
    flips = [(count, times[i]) for count, i in flips]
    return times, raw, failures, flips, traced_times, probes


def metric(value, unit, note=None):
    entry = {"value": value, "unit": unit}
    if note:
        entry["note"] = note
    return entry


def end_to_end(times, raw, setup_times, failures, flips, clock):
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s",
                          f"median of {len(setup_times)} set-ups"),
        "wall_s": metric(sum(times), "s", f"time in {len(times)} tasks"),
        "task_s.p50": metric(statistics.median(times), "s", f"n={len(times)}"),
    }
    high = tail(times)
    if high is not None:
        metrics["task_s.tail"] = metric(
            high[0], "s", f"p{high[1]}, n={len(times)}, {TAIL_BEYOND} tasks beyond")
    if flips:
        metrics["flips_per_s"] = metric(
            sum(f for f, _ in flips) / sum(t for _, t in flips), "1/s",
            f"over {len(flips)} searches")
    metrics["fail_frac"] = metric(len(failures) / len(times), "ratio",
                                  f"{len(failures)} of {len(times)}")
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    kernels = sorted(k / REFERENCE_SECONDS for _, k in clock.samples)
    metrics["host_slowdown"] = metric(
        statistics.median(kernels), "ratio",
        f"median of {len(kernels)} samples, deciles {kernels[len(kernels) // 10]:.2f}"
        f"-{kernels[len(kernels) * 9 // 10]:.2f}; the times above are scaled by it")
    metrics["wall_s_raw"] = metric(sum(raw), "s", "wall_s before scaling")
    return metrics


def per_layer(tracer, times, traced_times, probes):
    """Per-layer metrics of a traced run."""
    from spans import LAYERS, layer_report, mean_seconds, span_totals

    totals = span_totals(tracer)
    setup_seconds = tracer.spans[0][5] - tracer.spans[0][4]
    layers = layer_report(totals, probes, sum(traced_times), setup_seconds)
    estimated = {layer for p in probes.values() for layer, group, _ in p.calls
                 if group != "task"}
    metrics = {}
    for layer in LAYERS:
        note = "estimate from replay" if layer in estimated else None
        metrics[f"{layer}.ms"] = metric(layers[layer]["ms"], "ms", note)
        metrics[f"{layer}.calls"] = metric(layers[layer]["calls"], "count", note)
        metrics[f"{layer}.share"] = metric(layers[layer]["share"], "ratio", note)
    candidates = [c for p in probes.values() for c in p.candidates]
    metrics["moves.enumerate_z2.candidates"] = metric(
        statistics.mean(candidates) if candidates else 0.0, "count",
        "mean moves per call on replayed paths")

    tried = applied = restarts = 0
    search_seconds, self_ms, transport_ms = 0.0, [], []
    for i, probe in probes.items():
        for report, group, search_group, counts in probe.searches:
            tried += report.flips_tried
            applied += report.flips_applied
            restarts += report.restarts
            search = mean_seconds(totals, i, search_group, "reduction.search")
            search_seconds += search
            inner = sum(n * mean_seconds(totals, i, group, layer) for layer, n in counts.items())
            self_ms.append(1000 * (search - inner))
            certificate = mean_seconds(totals, i, "task", "reduction.fan_certificate")
            if certificate:
                transport_ms.append(1000 * (certificate - search))
    untraced, traced = sum(times), sum(traced_times)
    metrics.update({
        "reduction.flips_tried": metric(tried, "count"),
        "reduction.flips_applied": metric(applied, "count"),
        "reduction.restarts": metric(restarts, "count"),
        "reduction.accept_ratio": metric(applied / tried if tried else 0.0, "ratio"),
        "reduction.search.self_ms": metric(
            statistics.mean(self_ms) if self_ms else 0.0, "ms",
            "per search; search time minus estimated enumerate, apply and isomorphism"),
        "reduction.transport.ms": metric(
            statistics.mean(transport_ms) if transport_ms else 0.0, "ms",
            "per certificate; fan_certificate time minus its search"),
        "reduction.flips_per_s": metric(tried / search_seconds if search_seconds else 0.0,
                                        "1/s", "flips tried per second of search"),
        "trace.overhead_s": metric(traced - untraced, "s",
                                   f"traced {traced:.3f} s - untraced {untraced:.3f} s"),
    })
    return metrics


def show(name, entry):
    value = entry["value"]
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    note = f"  ({entry['note']})" if "note" in entry else ""
    print(f"  {name:<40} {text:>14} {entry['unit']:<6}{note}")


def run(args):
    from spans import Tracer, no_span
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        seconds = args.seconds / TRACE_SHARE
        tracer = Tracer()
        tracer.task = "setup"
        with tracer.span("setup"):
            inputs = workload.setup(args.seed, seconds, tracer.span)
        times, _, failures, _, traced_times, probes = run_tasks(
            workload, inputs, args.seed, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}.jsonl")
        metrics = per_layer(tracer, times, traced_times, probes)
    else:
        clock = HostClock()
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(t for t, _ in setup_times) < SETUP_SECONDS:
            index = clock.due()
            t0 = perf_counter()
            inputs = workload.setup(args.seed, args.seconds, no_span)
            setup_times.append((perf_counter() - t0, index))
        clock.sample()
        setup_times = [clock.scale(t, k) for t, k in setup_times]
        times, raw, failures, flips, _, _ = run_tasks(workload, inputs, args.seed, clock=clock)
        metrics = end_to_end(times, raw, setup_times, failures, flips, clock)

    kinds = {}
    for task in inputs.tasks:
        kinds[task.kind] = kinds.get(task.kind, 0) + 1
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tasks": kinds, "metadata": metadata(), "metrics": metrics,
        "failures": {inputs.tasks[i].key: p for i, p in sorted(failures.items())},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    meta = result["metadata"]
    print(f"{workload.name}: seed {args.seed}, {len(inputs.tasks)} tasks {kinds}, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"  python {meta['python']}, nproc {meta['nproc']}, commit {meta['commit']}"
          f"{' (dirty)' if meta['dirty'] else ''}")
    if not args.trace and "task_s.tail" not in metrics:
        print(f"  task_s.tail: too few tasks ({len(times)}); only the median is reported")
    for name, entry in metrics.items():
        show(name, entry)
    for key, problems in result["failures"].items():
        print(f"  FAILED {key}: {problems[0].strip().splitlines()[-1]}", file=sys.stderr)

    contract = json.loads(CONTRACT.read_text())
    keys = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not failures, "attempted": len(inputs.tasks), "failed": len(failures),
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in keys if k in metrics}}))
    return 0


def run_all(args):
    """Each workload untraced and traced, in turn, then one summary table."""
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"error: {name} (trace {trace}) exited {done.returncode}", file=sys.stderr)
                return done.returncode
            print("\n".join(done.stdout.splitlines()[:-1]))  # all but the JSON line
    print("\nsummary (end-to-end metrics, untraced runs; flips_per_s of walk_certify "
          "from its traced run)")
    summary = {}
    for name in WORKLOAD_NAMES:
        plain = json.loads((OUT / f"{name}-trace0.json").read_text())
        traced = json.loads((OUT / f"{name}-trace1.json").read_text())
        metrics = dict(plain["metrics"])
        flips = traced["metrics"]["reduction.flips_per_s"]
        if "flips_per_s" not in metrics and flips["value"]:
            metrics["flips_per_s"] = dict(
                flips, note="traced run, search probes, not host-normalised")
        summary[name] = {"untraced": plain, "traced": traced}
        print(f"{name}:")
        for metric_name in ("setup_s", "wall_s", "task_s.p50", "task_s.tail",
                            "flips_per_s", "fail_frac", "peak_rss_mb"):
            if metric_name in metrics:
                show(metric_name, metrics[metric_name])
            else:
                print(f"  {metric_name:<40} {'n/a':>14}        (no such work here)")
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced, and summarize")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --all and --workload")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bistellar" / "__init__.py").is_file():
        print(f"error: the bistellar package is not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.all else run(args)


if __name__ == "__main__":
    sys.exit(main())
