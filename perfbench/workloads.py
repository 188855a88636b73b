"""Seeded cover generators for the benchmark workloads.

A workload is a fixed list of *cells*; one *round* visits every cell once, in
list order, and draws one fresh cover for each visit.  The seed chooses only
the exponents ``(a, b)`` inside a cell, so every round of every seed has the
same mix of primes, degrees and wildness, and a run that stops at a round
boundary measures the same mix whatever its length.

A cell is ``(p, n, s, square_class)``: the cover has prime ``p``, degree
``p^n`` and wildness ``s`` (so ``v_p(b) = n - s``).  For ``p = 2`` the cell
also fixes the class of the odd part ``b'`` of ``b`` modulo 8: ``b' = +-1``
(class 1) or ``b' = +-3`` (class 3).  That class decides whether the radicand
``(-i)^k b' i`` of the new-tail centre is a square in ``Q_2(i)``, which today
makes ``analyze`` raise ``IrreducibilityUnverified``; fixing it per cell
keeps the share of such covers the same in every round.  ``b' = +-1`` itself
is not drawn: its radicand degenerates to a unit that needs no step, so its
outcome differs from the rest of its class.

Admissibility is decided by ``branch_signature`` alone: a draw it refuses
(disconnected or not three-point) or that normalizes to another wildness is
drawn again, and nothing else is.  No draw is refused because ``analyze``
would fail on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Bound on |a| and on |b'|, the part of b prime to p.
EXPONENT_BOUND = 99


def _cells_odd_survey():
    return tuple((p, n, s, None) for p in (3, 5, 7, 11, 13)
                 for n in (1, 2, 3, 4) for s in range(1, n + 1))


def _cells_two_adic():
    return tuple((2, n, s, c) for n in range(2, 7) for s in range(1, n)
                 for c in (1, 3))


def _cells_large_p():
    # per round: the median falls in the middle of the three p = 23 covers
    # and the p90 in the middle of the two p = 37 covers, away from the gaps
    # in latency between primes
    return ((17, 1, 1, None), (17, 2, 2, None),
            (19, 1, 1, None), (19, 2, 1, None),
            (23, 1, 1, None), (23, 2, 1, None), (23, 2, 2, None),
            (29, 2, 2, None), (31, 1, 1, None),
            (37, 1, 1, None), (37, 1, 1, None))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple
    trace_rounds: int  # rounds in each pass of the traced run


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "odd_survey",
            "acceptance-grid traffic: odd p <= 13, n <= 4, every wildness; "
            "tail bound and disk expansion dominate and covers share (p, n, s)",
            _cells_odd_survey(), 4),
        Workload(
            "two_adic",
            "p = 2, n in 2..6, b' = +-1 and +-3 mod 8 alike: multi-step towers, "
            "conductor case (v) and the known IrreducibilityUnverified defect",
            _cells_two_adic(), 2),
        Workload(
            "large_p",
            "scaling in p: p from 17 to 37, n in {1, 2}; O(L^3) disk expansion "
            "over one degree-2(p-1) tower generator",
            _cells_large_p(), 2),
    )
}


def _draw(rng, cell, seen, branch_signature, admissible_errors):
    p, n, s, square_class = cell
    scale = p ** (n - s)
    while True:
        a = rng.randint(1, EXPONENT_BOUND)
        b_odd = rng.choice((-1, 1)) * rng.randint(1, EXPONENT_BOUND)
        if square_class is not None and (
                abs(b_odd) == 1 or b_odd % 8 not in (square_class,
                                                     8 - square_class)):
            continue
        b = b_odd * scale
        key = (p, n, a, b)
        if key in seen:
            continue
        try:
            spec = branch_signature(p, n, a, b)
        except admissible_errors:
            continue
        if spec.s != s or spec.swaps:
            continue
        seen.add(key)
        return key


def generate(workload: Workload, seed: int, rounds: int, branch_signature,
             admissible_errors):
    """``rounds`` rounds of distinct covers ``(p, n, a, b)`` for the seed.

    ``branch_signature`` and ``admissible_errors`` (the exceptions by which it
    refuses an inadmissible cover) come from the package under test.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    seen = set()
    return [[_draw(rng, cell, seen, branch_signature, admissible_errors)
             for cell in workload.cells]
            for _ in range(rounds)]
