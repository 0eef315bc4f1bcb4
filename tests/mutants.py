"""A mutation register: small breaks of the package that named tests must catch.

Each entry names a file of ``src/bistellar``, an exact snippet, its
replacement and the tests that must fail once it is made.  For each entry
this script copies the package to a temporary directory, patches the copy
and runs the named tests against it, printing whether the mutant was killed
and the seconds taken:

    python3 tests/mutants.py

The tests run with ``PYTHONPATH=<copy>`` and ``-o pythonpath=``: the
``pythonpath = ["src"]`` of ``pyproject.toml`` would otherwise put the
checkout ahead of the copy, and every mutant would survive.  Before the
loop the unmutated copy must pass every named test, with ``import
bistellar`` resolving into the copy.  A snippet found more or less than
once makes its entry stale.  The script exits 1 on a stale entry, a failing
unmutated copy or a mutant that survives (a finding: keep its entry).
pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bistellar"

# (name, file, snippet, replacement, tests that must fail)
MUTANTS = [
    ("_flip rechecks only faces whose count is now need", "moves.py",
     "if not (was or len(containing) == need):",
     "if not len(containing) == need:",
     ["tests/test_move_index.py"]),
    ("apply skips the faces waiting on inserted", "moves.py",
     "waiting = [*self._owners.get(key, ()), *self._owners.get(target, ())]",
     "waiting = [*self._owners.get(key, ())]",
     ["tests/test_move_index.py::test_blocked_face_is_released_when_its_simplex_goes"]),
    ("_link_simplex leaves a ridge's apexes unsorted", "moves.py",
     "return (a, b) if a < b else (b, a)",
     "return (a, b)",
     ["tests/test_move_index.py"]),
    ("find_isomorphism pairs only the first face of each orbit", "complexes.py",
     "zip(left._orbit((u,)), right._orbit((w,)))",
     "zip(left._orbit((u,))[:1], right._orbit((w,))[:1])",
     ["tests/test_complexes.py", "tests/test_z2.py"]),
    ("_transport nudges a tied label by 2", "fan.py",
     "labels[u] += 1",
     "labels[u] += 2",
     ["tests/test_transport.py"]),
    ("apply never lowers fresh when a vertex goes", "moves.py",
     "self.fresh = min(self.fresh, abs(removed[0]))",
     "pass",
     ["tests/test_move_index.py"]),
]

# Loaded into the unmutated run by ``-p``: records which package the tests imported.
PROBE = """\
from pathlib import Path


def pytest_sessionfinish(session):
    import bistellar
    Path(__file__).with_suffix(".out").write_text(bistellar.__file__)
"""


def run_tests(copy, tests, *options):
    """pytest's exit code for ``tests`` run against the package in ``copy``,
    from the directory above it, so that the examples hypothesis saves from
    a mutant's failures stay out of the checkout."""
    env = {**os.environ, "PYTHONPATH": str(copy)}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "-o", "pythonpath=", *options, *(str(ROOT / test) for test in tests)]
    return subprocess.run(command, cwd=copy.parent, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def fresh_copy(scratch):
    """A clean copy of the package under ``scratch``; returns the directory
    to put on ``PYTHONPATH``."""
    copy = Path(scratch) / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(PACKAGE, copy / "bistellar",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def main():
    stale = [name for name, file, snippet, _, _ in MUTANTS
             if (PACKAGE / file).read_text().count(snippet) != 1]
    for name in stale:
        print(f"stale entry (snippet not found exactly once): {name}")
    if stale:
        return 1
    named = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as scratch:
        copy = fresh_copy(scratch)
        (copy / "mutant_probe.py").write_text(PROBE)
        if run_tests(copy, named, "-p", "mutant_probe") != 0:
            print("the unmutated copy fails the named tests")
            return 1
        imported = Path((copy / "mutant_probe.out").read_text())
        if copy.resolve() not in imported.resolve().parents:
            print(f"the tests imported {imported}, not the copy in {copy}")
            return 1
        print(f"{'seconds':>7}  result    mutant")
        survived = 0
        for name, file, snippet, replacement, tests in MUTANTS:
            copy = fresh_copy(scratch)
            path = copy / "bistellar" / file
            path.write_text(path.read_text().replace(snippet, replacement))
            start = perf_counter()
            killed = run_tests(copy, tests, "-x") == 1  # 1: tests ran and failed
            survived += not killed
            result = "killed  " if killed else "SURVIVED"
            print(f"{perf_counter() - start:7.1f}  {result}  {name}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
