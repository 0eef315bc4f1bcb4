"""The local parity step on every labelled star in dimensions 4 and 5.

``test_transport.py`` checks each symmetric move's star up to dimension 3
(``test_transport_keeps_the_parity_of_every_labelled_star``).  This script
makes the same three checks for d = 4 and 5, too slow for the suite (about
20 s), and prints per (d, k = |removed|) the number of orbit
representatives, how many fail a check or raise, and the seconds taken:

    python3 tests/transport_stars.py [d ...]

It exits 1 if any star fails.  pytest does not collect it.
"""

import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bistellar import BistellarMove  # noqa: E402
from bistellar.fan import _transport  # noqa: E402
from bistellar.moves import _replaced  # noqa: E402
from test_transport import star_labellings  # noqa: E402


def broken(labels, move, added):
    """The checks that carrying ``labels`` across ``move`` breaks."""
    positive, _ = _transport(labels, move)
    checks = {
        "odd change": positive % 2 == 0,
        "not antipodal": all(labels[-v] == -x for v, x in labels.items()),
        "complementary edge": not any(labels[a] + labels[b] == 0
                                      for f in added for a, b in combinations(f, 2)),
    }
    return [name for name, holds in checks.items() if not holds]


def main(dimensions):
    print("d  k   stars  failed  seconds")
    total = 0
    for d in dimensions:
        for k in range(1, d + 2):
            move = BistellarMove(range(1, k + 1), range(k + 1, d + 3))
            _, added = _replaced(move, True)
            start, stars, failed = perf_counter(), 0, 0
            for labels in star_labellings(move.removed, move.inserted):
                case = dict(labels)
                try:
                    problems = broken(labels, move, added)
                except Exception as exc:  # a raise is a failure too
                    problems = [repr(exc)]
                if problems and not failed:
                    print(f"   first failure at {case}: {', '.join(problems)}")
                stars, failed = stars + 1, failed + bool(problems)
            print(f"{d}  {k}  {stars:6d}  {failed:6d}  {perf_counter() - start:7.2f}")
            total += failed
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]] or [4, 5]))
