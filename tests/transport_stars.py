"""The local parity step on every labelled star in dimensions 4 and 5.

``test_transport.py`` checks each symmetric move's star up to dimension 3
(``test_transport_keeps_the_parity_of_every_labelled_star``).  This script
makes the same checks (``broken`` there) for d = 4 and 5, too slow for the
suite (about 20 s), and prints per (d, k = |removed|) the number of orbit
representatives and the number pinned in ``COUNTS``, how many fail a check
or raise, and the seconds taken:

    python3 tests/transport_stars.py [d ...]

It exits 1 if any star fails or any count differs from its pin (a (d, k)
without one differs).  pytest does not collect it.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bistellar import BistellarMove  # noqa: E402
from bistellar.moves import _replaced  # noqa: E402
from test_transport import STARS, broken, star_labellings  # noqa: E402

# orbit representatives per (d, k), as STARS pins them up to d = 3
COUNTS = {**STARS,
          (4, 1): 2106, (4, 2): 4374, (4, 3): 5490, (4, 4): 4590, (4, 5): 162,
          (5, 1): 7290, (5, 2): 17658, (5, 3): 26514, (5, 4): 26514, (5, 5): 18414,
          (5, 6): 486}


def main(dimensions):
    print("d  k   stars  pinned  failed  seconds")
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
            pinned = COUNTS.get((d, k))
            print(f"{d}  {k}  {stars:6d}  {pinned or '-':>6}  {failed:6d}  "
                  f"{perf_counter() - start:7.2f}")
            total += failed + (stars != pinned)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]] or [4, 5]))
