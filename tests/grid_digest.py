"""The one record of `analyze` output: its digest and outcome table over a
grid of 10268 inputs.

The grid is two blocks, in order.  The power block is p in
{2, 3, 5, 7, 11, 13} with 1 <= n <= 9, 6, 5, 4, 3, 3 respectively,
-3 <= a <= 4, and b in [-12, 12] together with p^k u for 0 <= k <= n + 1
and u in {1, 3, -5}; inputs run in that order, the b of each (p, n)
sorted and without repeats: 8408 inputs.  The identity block is odd
p <= 13 with n <= 4, 1 <= a <= 4 and -6 <= b <= 12; p in {17, 23, 37}
with n <= 2, a <= 2 and -10 <= b < 20; and p = 2 with 2 <= n <= 5,
1 <= a <= 12 and -12 <= b <= 24: 3656 inputs, of which the grid keeps
the 1860 that the power block lacks.

The digest is the sha256 of one line per input, the lines joined by "\\n"
(no newline after the last): `json.dumps(analyze(p, n, a, b))`, with the
report's own key order, or `"{Type}: {message}"` of the exception it
raises, Type the exception's class name.  The outcome table counts the
certificate kind of each report and the class name of each exception.

A report change edits DIGEST and OUTCOMES here, and no other pin of a
grid; `tests/test_golden.py` asserts both, beside its golden reports of
single covers.  Pytest does not collect this file.  Run it from the root
of the repository:

    python tests/grid_digest.py

It analyzes the source under src/ of the tree it belongs to, prints the
input count, the outcome table and the digest, and exits 1 unless the
digest is DIGEST.
"""

import hashlib
import json
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from padic_sr import analyze  # noqa: E402

DIGEST = 'cee858f72c383aea9fff1ed2be7f5c7017c953b0a9d80ff13cad6311d9a8b3b4'

OUTCOMES = {"SplitsArtinSchreier": 3996, "SplitsZ4": 1864,
            "IrreducibilityUnverified": 136, "NotThreePoint": 2587,
            "Disconnected": 1685}

#: the largest n of each p in the power block
N_MAX = {2: 9, 3: 6, 5: 5, 7: 4, 11: 3, 13: 3}


def power_block():
    """The 8408 inputs (p, n, a, b) of the power block, in order."""
    for p, n_max in N_MAX.items():
        for n in range(1, n_max + 1):
            bs = sorted(set(range(-12, 13))
                        | {u * p ** k for k in range(n + 2)
                           for u in (1, 3, -5)})
            for a in range(-3, 5):
                for b in bs:
                    yield p, n, a, b


def identity_block():
    """The 3656 inputs (p, n, a, b) of the identity block, in order."""
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 5):
            for a in range(1, 5):
                for b in range(-6, 13):
                    yield p, n, a, b
    for p in (17, 23, 37):
        for n in (1, 2):
            for a in (1, 2):
                for b in range(-10, 20):
                    yield p, n, a, b
    for n in range(2, 6):
        for a in range(1, 13):
            for b in range(-12, 25):
                yield 2, n, a, b


def grid():
    """The 10268 inputs: the power block, then the identity block's inputs
    that the power block lacks."""
    seen = set(power_block())
    return chain(power_block(),
                 (args for args in identity_block() if args not in seen))


def record():
    """(lines, outcome table) of analyze over the grid, one line each."""
    lines, outcomes = [], Counter()
    for args in grid():
        try:
            report = analyze(*args)
        except Exception as exc:  # the class and message are hashed
            lines.append(f"{type(exc).__name__}: {exc}")
            outcomes[type(exc).__name__] += 1
        else:
            lines.append(json.dumps(report))
            outcomes[report["certificate"]["kind"]] += 1
    return lines, outcomes


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> int:
    lines, outcomes = record()
    got = digest(lines)
    print(f"inputs: {len(lines)}")
    for name, count in outcomes.most_common():
        print(f"{name}: {count}")
    print(f"sha256: {got}")
    if got != DIGEST:
        print(f"recorded sha256: {DIGEST}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
