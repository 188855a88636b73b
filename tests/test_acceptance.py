"""Acceptance criteria.  Each test exercises one criterion end to end and
prints a single PASS/FAIL line (run with -s or look at the captured output).

Sampling note: random (a, b) are drawn admissibly — a prime to p, b with
v_p(b) = n - s, a + b nonzero and (for s = n) prime to p.  For p = 2 the
quadratic radicand (-i)^(2n-s) b' i can be a genuine square of Q_2(i) for
unlucky odd parts b'; those draws are locally reducible (the certified tower
refuses them) and the sampler redraws, as documented in the package design.
"""

import itertools
import json
import os
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from padic_sr.analyzer import (
    analyze,
    branch_signature,
    build_stable_graph,
    certify_tail,
    conductor_bound,
    new_tail_locus,
    quotient_spec,
)
from padic_sr.errors import IrreducibilityUnverified
from padic_sr.graph import (
    DecoratedGraph,
    check_local_vanishing,
    check_vanishing_cycles,
    effective_different_profile,
    tail_invariant_checks,
    validate_structure,
)
from padic_sr.metacyclic import MetacyclicSpec, signature_solver
from padic_sr.ramification import (
    Filtration,
    compositum_conductor,
    cyclotomic_filtration,
    cyclotomic_lower_filtration,
    herbrand_convert,
    herbrand_phi,
    herbrand_psi,
)
from padic_sr.series import expand_disk
from padic_sr.tower import square_class_K2_K3
from rational_oracle import CubicExpansion

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _report(num, title, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title}")
    assert ok, f"criterion {num} failed: {title}"


def _draw_pair(rng, p, n, s):
    """Admissible (a, b) with v_p(b) = n - s, redrawing locally reducible
    p = 2 radicands."""
    while True:
        a = rng.randint(1, 60)
        if a % p == 0:
            continue
        b0 = rng.choice([-1, 1]) * rng.randint(1, 60)
        if b0 % p == 0:
            continue
        b = b0 * p ** (n - s)
        if a + b == 0 or (s == n and (a + b) % p == 0):
            continue
        if p == 3 and b in (0, 1, 2):
            continue
        try:
            spec = branch_signature(p, n, a, b)
        except Exception:
            continue
        if spec.s != s:
            continue
        if p == 2:
            try:
                new_tail_locus(spec)
            except IrreducibilityUnverified:
                continue
        return spec


GRID_ODD = [(p, n, s) for p in (5, 7, 11, 13) for n in (1, 2, 3)
            for s in range(1, n + 1)]
GRID_SMALL = [(p, n, s) for p in (3, 2) for (n, s) in
              ((2, 1), (3, 1), (3, 2))]


def test_criterion_1_tail_certification_grid():
    rng = random.Random(1)
    t0 = time.time()
    ok = True
    for p, n, s in GRID_ODD:
        for _ in range(10):
            spec = _draw_pair(rng, p, n, s)
            v = certify_tail(spec)
            ok = ok and v.kind == "SplitsArtinSchreier" \
                and v.count == p ** (n - 1) and v.conductor == 2
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _report(1, f"odd-p certification grid (240 covers, {elapsed:.1f}s, "
               "SplitsArtinSchreier(p^(n-1), h=2))", ok)


def test_criterion_2_small_prime_cells():
    rng = random.Random(2)
    ok = True
    for p, n, s in GRID_SMALL:
        for _ in range(5):
            spec = _draw_pair(rng, p, n, s)
            if p == 3:
                v = certify_tail(spec)
                ok = ok and v.kind == "SplitsArtinSchreier"
                if s == 1:
                    # the cubic centre; the quoted valuations, exactly,
                    # valued by the oracle from the K_l of expand_disk
                    locus = new_tail_locus(spec)
                    exp = expand_disk(spec, locus.d, locus.v_e)
                    prof = CubicExpansion.of_disk(exp).profile()
                    ok = ok and "condition (ii)" in v.notes
                    ok = ok and prof[1] == n + Fraction(5, 12)
                    ok = ok and prof[3] == n + Fraction(1, 4)
                else:
                    # (n, s) = (3, 2) has a rational-center disk and
                    # certifies through condition (i), in closed form
                    ok = ok and "condition (i)" in v.notes
            else:
                v = certify_tail(spec)
                ok = ok and v.kind == "SplitsZ4" \
                    and v.count == 2 ** (n - 2) and v.conductor == 1
    _report(2, "p = 3 / p = 2 appendix cells (30 covers, condition (ii) "
               "valuations and the mu_4 criterion)", ok)


def _representative_specs():
    rng = random.Random(3)
    specs = [_draw_pair(rng, p, n, s) for p, n, s in GRID_ODD]
    specs += [_draw_pair(rng, p, n, s) for p, n, s in GRID_SMALL]
    return specs


def test_criterion_3_graph_identities():
    ok = True
    for spec in _representative_specs():
        g = build_stable_graph(spec)
        ok = ok and check_vanishing_cycles(g) == 0
        ok = ok and all(v == 0 for v in check_local_vanishing(g).values())
        for e in g.edges:
            if g.component(e.target).kind == "augmented":
                continue
            ok = ok and g.signed_sigma_eff(e.source, e) == e.sigma_eff
            ok = ok and g.signed_sigma_eff(e.target, e) == -e.sigma_eff
        profile = effective_different_profile(g)
        seed = Fraction(spec.n - 1) + Fraction(spec.p, spec.p - 1)
        ok = ok and profile[g.root().id] == seed
        total = sum(e.sigma_eff * e.epaisseur for e in g.edges
                    if e.epaisseur is not None
                    and e.target in _etale_tail_path(g))
        ok = ok and total == seed
        if spec.s < spec.n:
            ok = ok and g.outward_edge("Xstar", "Xdagger").epaisseur == \
                Fraction(1, spec.p - 1)
    _report(3, "vanishing cycles, local identities, sigma_eff antisymmetry, "
               "effective-different telescoping, eps(X_*, X_dagger) "
               "= 1/(p-1)", ok)


def _etale_tail_path(g):
    """Component ids on the path from the root to the etale tail."""
    parent = g.parents()
    tail = next(c.id for c in g.components if c.is_tail and c.etale)
    path = set()
    cur = tail
    while cur is not None:
        path.add(cur)
        cur = parent.get(cur)
    return path


def test_criterion_4_structure_fixtures():
    with open(os.path.join(FIXTURES, "expected_codes.json")) as fh:
        expected = json.load(fh)
    ok = len(expected) == 10
    for name, code in expected.items():
        with open(os.path.join(FIXTURES, name)) as fh:
            g = DecoratedGraph.from_json(json.load(fh))
        codes = [c for c, _ in validate_structure(g)
                 + tail_invariant_checks(g)]
        ok = ok and code in codes
    # unmutated analyzer outputs all pass
    for spec in _representative_specs()[:8]:
        g = build_stable_graph(spec)
        ok = ok and validate_structure(g) == [] \
            and tail_invariant_checks(g) == []
    _report(4, "10 mutated graphs rejected with matching codes; emitted "
               "graphs pass", ok)


def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _cyclotomic_oracle(p, n):
    q = p ** n
    i_of = {a: p ** _vp(a - 1, p) for a in range(2, q) if a % p != 0}
    degree = len(i_of) + 1

    def order(i):
        return 1 + sum(1 for v in i_of.values() if v >= i + 1)

    jumps, cur, i = [], order(0), 0
    while cur > 1:
        nxt = order(i + 1)
        if nxt < cur:
            jumps.append((Fraction(i), nxt))
            cur = nxt
        i += 1
    return Filtration(tuple(jumps), degree, "lower")


def test_criterion_5_ramification_oracles():
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for n in (1, 2, 3, 4):
            ok = ok and cyclotomic_lower_filtration(p, n) == \
                _cyclotomic_oracle(p, n)
            up = cyclotomic_filtration(p, n)
            ok = ok and up.conductor() == n - 1
            ok = ok and up.order_at(Fraction(n)) == 1
    rng = random.Random(5)
    for _ in range(100):
        chain = [1]
        for _ in range(rng.randint(1, 4)):
            chain.append(chain[-1] * rng.choice([2, 3, 5, 7]))
        chain = sorted(set(chain), reverse=True)
        jumps, pos = [], rng.randint(0, 2)
        for o in chain[1:]:
            jumps.append((Fraction(pos), o))
            pos += rng.randint(1, 9)
        f = Filtration(tuple(jumps), chain[0], "lower")
        ok = ok and herbrand_convert(herbrand_convert(f, "lower_to_upper"),
                                     "upper_to_lower") == f
        u = Fraction(rng.randint(0, 40), rng.randint(1, 5))
        ok = ok and herbrand_phi(f, herbrand_psi(f, u)) == u
    for _ in range(100):
        hs = [Fraction(rng.randint(0, 30), rng.randint(1, 6))
              for _ in range(rng.randint(1, 5))]
        h = compositum_conductor(hs)
        ok = ok and h == max(hs)
        ok = ok and compositum_conductor(hs + [h]) == h
    _report(5, "cyclotomic brute-force oracle (p <= 13, n <= 4), 100 "
               "Herbrand round-trips, 100 compositum instances", ok)


def test_criterion_6_conductor_bounds():
    ok = True
    for spec in _representative_specs():
        cb = conductor_bound(spec)
        ok = ok and cb["vanishes_at_n"] is True
    # the case-(iii) radicand valuation 3n - 1, exactly
    from padic_sr.series import binom_falling
    from padic_sr.tower import vp_rational
    for n in (2, 3):
        rng = random.Random(60 + n)
        for _ in range(5):
            spec = _draw_pair(rng, 3, n, 1)
            rad = Fraction(3 ** (2 * n + 1)) * binom_falling(spec.b, 3)
            ok = ok and vp_rational(rad, 3) == 3 * n - 1
    # the square-class table, exactly
    for d in (1, 4, 9, 25):
        r = square_class_K2_K3(d)
        ok = ok and r["di_square_K3"] and not r["di_square_K2"] \
            and r["d_square_K2"]
    for d in (2, 8, 18, 50):
        r = square_class_K2_K3(d)
        ok = ok and r["di_square_K2"] and r["d_square_K3"] \
            and not r["d_square_K2"]
    _report(6, "conductor certificates vanish at n on the full grid; "
               "3n-1 radicand valuation and the square-class table verified",
            ok)


def test_criterion_7_signature_solver():
    ok = True
    primes = {m: next(p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                  41, 43, 53, 61, 73) if (p - 1) % m == 0)
              for m in range(2, 13)}
    for m in range(2, 13):
        p = primes[m]
        for a in itertools.product(range(m), repeat=3):
            if all(x == 0 for x in a) or sum(a) % m != 0:
                continue
            sol = signature_solver(MetacyclicSpec(p, 1, m, a))
            sig = sol.sigmas()
            ok = ok and sum(sig) == 1
            ok = ok and all(s == 0 or 0 < s < 1 for s in sig)
            perm = (a[1], a[2], a[0])
            ok = ok and signature_solver(
                MetacyclicSpec(p, 1, m, perm)).sigmas() == \
                (sig[1], sig[2], sig[0])
            ok = ok and signature_solver(MetacyclicSpec(
                p, 1, m, tuple(x + m for x in a))).sigmas() == sig
    o2 = signature_solver(MetacyclicSpec(3, 1, 2, (1, 1, 0))).sigmas()
    o3 = signature_solver(MetacyclicSpec(7, 1, 3, (1, 2, 0))).sigmas()
    ok = ok and o2 == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    ok = ok and o3 == (Fraction(1, 3), Fraction(2, 3), Fraction(0))
    _report(7, "signature solver exhaustive for m <= 12: existence, sum 1, "
               "permutation and representative invariance, derived oracles",
            ok)


def test_criterion_8_quotient_compatibility():
    rng = random.Random(8)
    ok = True
    checked = 0
    while checked < 20:
        p = rng.choice([2, 3, 5, 7, 11])
        n = rng.choice([2, 3, 4] if p > 2 else [3, 4])
        s = rng.randint(2, n) if p > 2 else rng.randint(2, n - 1)
        if s >= n and p > 2:
            s = n - 1 if n > 2 else 2
        if not (2 <= s <= (n if p > 2 else n - 1)) or s >= n + 1:
            continue
        if p > 2 and s == n:
            continue
        spec = _draw_pair(rng, p, n, s)
        j = rng.randint(1, s - 1)
        q = quotient_spec(spec, j)
        gf = build_stable_graph(spec)
        gq = build_stable_graph(q)
        for c in gq.components:
            if c.kind in ("augmented", "original"):
                continue
            ok = ok and any(
                f.inertia_exponent == c.inertia_exponent + j
                and f.radius_valuation == c.radius_valuation
                for f in gf.components if f.kind != "augmented")
        checked += 1
    _report(8, "20 quotient covers embed with matching inertia and disk "
               "radii", ok)
