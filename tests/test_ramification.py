"""Ramification filtrations: brute-force cyclotomic oracle, quadrature
oracle for the Herbrand function, round-trips, composition laws, and the
Kummer-step conductor facts."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from padic_sr.errors import (
    EmptyList,
    MalformedFiltration,
    SearchInconclusive,
)
from padic_sr.ramification import (
    ConductorValue,
    FieldTower,
    Filtration,
    TowerStep,
    compositum_conductor,
    cyclotomic_filtration,
    cyclotomic_lower_filtration,
    cyclotomic_tower,
    herbrand_convert,
    herbrand_phi,
    herbrand_psi,
    kummer_step_conductor,
)
from padic_sr.tower import Tower


# -- brute-force cyclotomic oracle -------------------------------------------

def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _cyclotomic_lower_oracle(p, n):
    """Lower filtration of (Z/p^n)^x from i_G(sigma_a) = p^t with
    p^t || (a - 1), computed by direct enumeration."""
    q = p ** n
    units = [a for a in range(1, q) if a % p != 0]
    i_of = {}
    for a in units:
        if a == 1:
            continue
        t = _vp(a - 1, p)
        i_of[a] = p ** t
    degree = len(units)

    def order_lower(i):
        # |G_i| = #{sigma : i_G(sigma) >= i + 1} (+ identity)
        return 1 + sum(1 for v in i_of.values() if v >= i + 1)

    # a jump at position i means |G_{i+1}| < |G_i|; the recorded order is the
    # order just after the jump
    jumps = []
    cur = order_lower(0)
    i = 0
    while cur > 1:
        nxt = order_lower(i + 1)
        if nxt < cur:
            jumps.append((Fraction(i), nxt))
            cur = nxt
        i += 1
    return Filtration(tuple(jumps), degree, "lower")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cyclotomic_against_bruteforce(p, n):
    assert cyclotomic_lower_filtration(p, n) == _cyclotomic_lower_oracle(p, n)
    upper = cyclotomic_filtration(p, n)
    lo = 1 if p == 2 else 0
    assert [j for j, _ in upper.jumps] == [Fraction(k)
                                           for k in range(lo, n)]
    assert upper.conductor() == n - 1
    # the n-th upper group vanishes
    assert upper.order_at(Fraction(n)) == 1


def test_cyclotomic_quotient_invariance():
    """Dropping the smallest subgroup of Gal(K_n/K_0) gives Gal(K_{n-1}/K_0):
    upper jumps are invariant under quotients."""
    for p in (3, 5, 2):
        for n in (2, 3, 4):
            big = cyclotomic_filtration(p, n)
            small = cyclotomic_filtration(p, n - 1) if n > 1 else None
            # quotient by the last (order-p ... order-1) step: drop the top jump
            # and divide the surviving orders by p
            quot_jumps = tuple((j, o // p) for j, o in big.jumps[:-1])
            quot = Filtration(quot_jumps, big.degree // p, "upper")
            if small is not None:
                assert quot == small


# -- Herbrand: quadrature oracle and round-trips -----------------------------

def _phi_quadrature(lower, t):
    """Step-function quadrature of integral_0^t |G_x|/|G_0| dx on a grid
    refining every breakpoint."""
    t = Fraction(t)
    if t <= 0:
        return t
    den = t.denominator
    for j, _ in lower.jumps:
        den = lcm(den, j.denominator)
    h = Fraction(1, 2 * den)
    steps = int(t / h)
    acc = Fraction(0)
    for k in range(steps):
        mid = h * k + h / 2
        acc += h * Fraction(lower.order_at(mid), lower.degree)
    return acc


def _random_lower_filtration(rng):
    degree = 1
    orders = []
    # a decreasing divisor chain
    n_steps = rng.randint(1, 4)
    primes = [2, 3, 5, 7]
    chain = [1]
    for _ in range(n_steps):
        chain.append(chain[-1] * rng.choice(primes))
    chain = sorted(set(chain), reverse=True)
    degree = chain[0]
    orders = chain[1:]
    jumps = []
    pos = rng.randint(0, 2)
    for o in orders:
        jumps.append((Fraction(pos), o))
        pos += rng.randint(1, 9)
    return Filtration(tuple(jumps), degree, "lower")


def test_herbrand_roundtrip_100_random():
    rng = random.Random(20260824)
    for _ in range(100):
        f = _random_lower_filtration(rng)
        up = herbrand_convert(f, "lower_to_upper")
        back = herbrand_convert(up, "upper_to_lower")
        assert back == f
        u = Fraction(rng.randint(0, 40), rng.randint(1, 5))
        assert herbrand_phi(f, herbrand_psi(f, u)) == u
        assert herbrand_psi(f, herbrand_phi(f, u)) == u


def test_phi_against_quadrature_oracle():
    rng = random.Random(5)
    fils = [cyclotomic_lower_filtration(3, 3),
            cyclotomic_lower_filtration(5, 2),
            cyclotomic_lower_filtration(2, 4)]
    fils += [_random_lower_filtration(rng) for _ in range(5)]
    for f in fils:
        for t in (Fraction(1), Fraction(5, 2), Fraction(9), Fraction(26)):
            assert herbrand_phi(f, t) == _phi_quadrature(f, t)


def test_single_wild_jump_scaling():
    """One wild jump u with full group p*m: upper jump follows the Herbrand
    integral through the tame drop."""
    f = Filtration(((Fraction(0), 5), (Fraction(7), 1)), 15, "lower")
    up = herbrand_convert(f, "lower_to_upper")
    assert up.jumps == ((Fraction(0), 5), (Fraction(7, 3), 1))


def test_malformed_filtrations():
    with pytest.raises(MalformedFiltration):
        Filtration(((Fraction(2), 3), (Fraction(1), 1)), 6, "lower")
    with pytest.raises(MalformedFiltration):
        Filtration(((Fraction(1), 4),), 6, "lower")  # 4 does not divide 6
    with pytest.raises(MalformedFiltration):
        Filtration(((Fraction(1), 2),), 6, "lower")  # does not reach 1
    with pytest.raises(MalformedFiltration):
        Filtration((), 6, "lower")


@pytest.mark.parametrize("jumps,degree", [
    (((0.5, 1),), 3),  # a float jump was stored as 1/2
    (((1, 2.7),), 3),  # a float order was truncated to 2
    (((Fraction(1), 1),), 3.0),  # a float degree
])
def test_floats_refused_in_filtrations(jumps, degree):
    """Jumps are read as exact rationals and orders as integers, so a float
    raises TypeError instead of being rounded into a filtration."""
    with pytest.raises(TypeError):
        Filtration(jumps, degree, "lower")
    f = Filtration((("1/2", 1),), 2, "lower")
    assert f.jumps == ((Fraction(1, 2), 1),)
    for read in (lambda: herbrand_phi(f, 0.5), lambda: herbrand_psi(f, 0.5),
                 lambda: compositum_conductor([1, 0.5])):
        with pytest.raises(TypeError):
            read()


# -- composition laws ---------------------------------------------------------

def test_compositum_tame_laws_100_random():
    rng = random.Random(99)
    for _ in range(100):
        hs = [Fraction(rng.randint(0, 30), rng.randint(1, 6))
              for _ in range(rng.randint(1, 5))]
        h = compositum_conductor(hs)
        assert h == max(hs)
        assert compositum_conductor([h]) == h                 # idempotent
        assert compositum_conductor(list(reversed(hs))) == h  # commutative
        bigger = hs + [h + 1]
        assert compositum_conductor(bigger) >= h              # monotone
    with pytest.raises(EmptyList):
        compositum_conductor([])


# -- Kummer step conductors ---------------------------------------------------

def test_kummer_step_conductor_facts():
    K1 = cyclotomic_tower(3, 1)
    # cube root of an element of valuation prime to 3: exact cap p e/(p-1)
    cv = kummer_step_conductor(K1, 3, 3)
    assert (cv.kind, cv.value) == ("exact", Fraction(3))
    # a cube: trivial step
    cv = kummer_step_conductor(K1, 8, 3)
    assert (cv.kind, cv.value) == ("exact", Fraction(0))
    # a unit at a prime-to-p level below the cap
    cv = kummer_step_conductor(K1, 2, 3)
    assert (cv.kind, cv.value) == ("exact", Fraction(1))
    # degree 9: telescoped bound e/(p-1) + k e + 1
    cv = kummer_step_conductor(K1, 5, 9)
    assert cv.kind == "bound"
    assert cv.value == Fraction(6)


@pytest.mark.parametrize("radicand", [2, 4, 10, 28])
def test_kummer_step_conductor_bound_when_cap_is_not_a_level(radicand):
    """Over Q_3 (e = 1) p e/(p-1) = 3/2 is not a unit level; a radicand of
    valuation divisible by 3 gets the bound 3/2, not a TypeError."""
    cv = kummer_step_conductor(Tower(3), radicand, 3)
    assert cv == ConductorValue("bound", Fraction(3, 2))


def test_kummer_step_conductor_needs_exact_ramification():
    # Q_5(sqrt 2) is unramified, but the tower does not know its index
    # exactly; 3^(1/5) is wildly ramified over it (3^4 != 1 mod 25), so no
    # bound may be quoted
    K = Tower(5).adjoin_radical(2, 2)
    assert not K.ram_exact
    with pytest.raises(SearchInconclusive,
                       match="conductor needs an exact ramification index"):
        kummer_step_conductor(K, 3, 5)


def test_field_tower_to_json():
    ft = FieldTower(3, (TowerStep("cyclotomic", level=2),
                        TowerStep("kummer", exponent=3, radicand="a/(a+b)",
                                  conductor=ConductorValue("exact",
                                                           Fraction(3, 2))),
                        TowerStep("tame")),
                    (("case", "iii"), ("n", 2)))
    assert ft.to_json() == {
        "prime": 3,
        "steps": [{"kind": "cyclotomic", "level": 2},
                  {"kind": "kummer", "exponent": 3, "radicand": "a/(a+b)",
                   "conductor": {"kind": "exact", "value": "3/2"}},
                  {"kind": "tame", "degree": 0}],
        "meta": {"case": "iii", "n": 2}}
