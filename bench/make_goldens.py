#!/usr/bin/env python3
"""Regenerate goldens.json: the digests of every task of a default-length
run at the default seed, for every workload.

    python3 bench/make_goldens.py

Run it only when a change is meant to alter walks, searches or bytes.
Runs at the default seed check their tasks against this file; a task
that a longer run adds beyond it gets the other checks only.
"""

import json
import sys

from run import DEFAULT_SECONDS, DEFAULT_SEED, GOLDENS, ROOT


def main():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    from spans import no_span
    from workloads import WORKLOADS

    goldens = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.setup(DEFAULT_SEED, DEFAULT_SECONDS, no_span)
        table = goldens[name] = {}
        for task in inputs.tasks:
            if task.key in table:
                continue
            output = workload.run(task, inputs, no_span)
            problems = workload.check(task, output, inputs)
            if problems:
                sys.exit(f"{name} {task.key}: {problems}")
            table[task.key] = workload.digests(task, output)
        print(f"{name}: {len(table)} tasks")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
