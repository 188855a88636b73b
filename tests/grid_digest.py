"""The sha256 digest of `analyze` over the 8408-input grid, to compare the
reports of two trees byte for byte.

The grid is p in {2, 3, 5, 7, 11, 13} with 1 <= n <= 9, 6, 5, 4, 3, 3
respectively, -3 <= a <= 4, and b in [-12, 12] together with p^k u for
0 <= k <= n + 1 and u in {1, 3, -5}; inputs run in that order, the b of
each (p, n) sorted and without repeats.

The digest is the sha256 of one line per input, the lines joined by "\\n"
(no newline after the last): `json.dumps(analyze(p, n, a, b))`, with the
report's own key order, or `"{Type}: {message}"` of the exception it
raises, Type the exception's class name.

Pytest does not collect this file.  Run it from the root of the repository:

    python tests/grid_digest.py
    python tests/grid_digest.py --expect SHA   # exit 1 unless it is SHA

It analyzes the source under src/ of the tree it belongs to, and prints
the input count, the count of each outcome (`report`, or the exception's
class name) and the digest.  With --expect it exits 1 when the digest is
another one, so that a report change is never unnoticed.
"""

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from padic_sr import analyze  # noqa: E402

#: the largest n of each p
N_MAX = {2: 9, 3: 6, 5: 5, 7: 4, 11: 3, 13: 3}


def grid():
    """The 8408 inputs (p, n, a, b), in order."""
    for p, n_max in N_MAX.items():
        for n in range(1, n_max + 1):
            bs = sorted(set(range(-12, 13))
                        | {u * p ** k for k in range(n + 2)
                           for u in (1, 3, -5)})
            for a in range(-3, 5):
                for b in bs:
                    yield p, n, a, b


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--expect", metavar="SHA",
                    help="the sha256 the reports must hash to")
    opts = ap.parse_args()
    lines, outcomes = [], Counter()
    for args in grid():
        try:
            lines.append(json.dumps(analyze(*args)))
            outcomes["report"] += 1
        except Exception as exc:  # the class and message are hashed
            lines.append(f"{type(exc).__name__}: {exc}")
            outcomes[type(exc).__name__] += 1
    print(f"inputs: {len(lines)}")
    for name, count in outcomes.most_common():
        print(f"{name}: {count}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"sha256: {digest}")
    if opts.expect is not None and digest != opts.expect:
        print(f"expected sha256: {opts.expect}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
