"""Test helpers for towers: a tower builder, the brute-force q-th power
oracle over Q_p, the digit-lifting search that the unit-level decision
of `_is_qth_power_local` is checked against, and the fields Q_2(i) and
Q_2(zeta_8) with the square test over their unramified closures, the
oracles of the closed forms of case (v)."""

import itertools
from fractions import Fraction
from functools import cache

from padic_sr.errors import IrreducibilityUnverified, ZeroElement
from padic_sr.tower import (
    Tower,
    _element,
    _exact_rational,
    unit_level,
    vp_rational,
)


def make_tower(p: int, steps) -> Tower:
    """Build a tower over Q with the given prime and radical steps.

    steps: iterable of (m, radicand) where radicand is a rational or a
    TowerElement of the tower built so far.
    """
    t = Tower(p)
    for m, rad in steps:
        t = t.adjoin_radical(m, rad)
    return t


def is_mth_power(u, m: int, p: int) -> bool:
    """Decide whether the rational u is an m-th power in Q_p.

    Valuation divisibility plus a brute-force Hensel witness search modulo
    p^(2 v_p(m) + 1) for odd p, modulo 2^(2 v_2(m) + 3) for p = 2.
    """
    u = _exact_rational(u)
    if u == 0:
        raise ZeroElement("0 has no well-defined power class")
    if m < 2:
        raise ValueError("m must be >= 2")
    v = vp_rational(u, p)
    if v % m != 0:
        return False
    u0 = u / Fraction(p) ** int(v)
    k = 0
    mm = m
    while mm % p == 0:
        mm //= p
        k += 1
    modulus = p ** (2 * k + 1) if p != 2 else 2 ** (2 * k + 3)
    num = u0.numerator % modulus
    den_inv = pow(u0.denominator, -1, modulus)
    target = (num * den_inv) % modulus
    return any(pow(x, m, modulus) == target for x in range(modulus))


def qth_power_search(tower: Tower, u, q: int) -> bool:
    """Reference for `_is_qth_power_local`: is the unit u a q-th power in
    the completion of an exact tower, searched digit by digit?

    The witnesses are the candidates x = sum a_b b, with b over the
    monomial basis and integers 0 <= a_b < p^depth, and u counts as a q-th
    power when some candidate has v(x^q - u) >= threshold = (2 v_pi(q) +
    1)/e, the Hensel bound.  The coordinates are fixed one p-adic digit at
    a time.  A truncation x_k (digits 0..k) is extended by every
    c p^(k+1), c in {0..p-1}^D.  Each candidate is x_k + p^(k+1) y for one
    of its truncations, with y an integer combination of basis monomials,
    so v(x_k), v(y) >= m0, the least valuation of a basis monomial.  As q
    is prime, p^v_p(q) divides every C(q, j) with 0 < j < q, so

        v(x^q - x_k^q) >= min(v_p(q) + k + 1, q (k + 1)) + q m0 =: T_k.

    A candidate that reaches the threshold therefore has v(x_k^q - u) >=
    min(threshold, T_k) at every level k, and a truncation below that bound
    is dropped with all its extensions.  It tries at most p^D candidates
    per surviving truncation and level, so it is exponential in the degree
    D and serves only as a test oracle on small towers.  It is complete only
    where the integer span of the basis is the ring of integers.
    """
    p, R = tower.p, tower.ram_index
    v_p_q = 1 if q == p else 0
    levels = 2 * R * v_p_q + 1
    depth = -(-levels // R) + 1
    threshold = Fraction(levels, R)
    basis, _ = tower._basis()
    m0 = Fraction(min(sum(e * g for e, g in zip(b, tower._G)) for b in basis),
                  tower._E)
    survivors = [(0,) * len(basis)]
    for k in range(depth):
        need = threshold if k == depth - 1 else min(
            threshold, min(v_p_q + k + 1, q * (k + 1)) + q * m0)
        scale = p ** k
        kept = []
        for base in survivors:
            for digits in itertools.product(range(p), repeat=len(basis)):
                coeffs = tuple(a + c * scale for a, c in zip(base, digits))
                x = _element(tower, 1, {b: a for b, a in zip(basis, coeffs)
                                        if a})
                diff = x ** q - u
                if diff.is_zero():
                    return True
                v = tower.val(diff)
                if v >= threshold:
                    return True
                if v >= need:
                    kept.append(coeffs)
        survivors = kept
    return False


@cache
def q2_i() -> Tower:
    """K_2 = Q_2(i), i^2 = -1, built once per process."""
    return Tower(2).adjoin_radical(2, -1, "i")


@cache
def q2_zeta8() -> Tower:
    """K_3 = Q_2(zeta_8) = Q_2(i)(zeta_8), zeta_8^2 = i, built once per
    process.  Both steps are quadratic, so its norms are relative norms."""
    k2 = q2_i()
    return k2.adjoin_radical(2, k2.gen(0), "zeta8")


def is_square_unramified_closure(tower: Tower, alpha) -> bool:
    """Decide whether alpha is a square in the completed maximal unramified
    extension of the tower's 2-adic completion (residue field algebraically
    closed).

    Obstructions are exactly: odd pi-valuation, and a principal-unit level
    that is odd and below 2 v_pi(2); levels >= 2 v_pi(2) are killed by the
    Artin-Schreier equation z^2 + z = t, solvable over the closed residue
    field with unit derivative.  The level is `unit_level` capped there.
    """
    if tower.p != 2:
        raise ValueError("square-class analysis is specific to p = 2")
    if alpha.is_zero():
        raise ZeroElement("0 is trivially a square; callers must branch")
    if not tower.ram_exact:
        raise IrreducibilityUnverified("needs exact ramification index")
    R = tower.ram_index
    pi = tower.uniformizer()
    if tower.val(pi) * R != 1:
        raise AssertionError("tower has no exact uniformizer")
    k = tower.val(alpha) * R
    if k.denominator != 1:
        raise AssertionError("valuation outside the value group")
    k = int(k)
    if k % 2 != 0:
        return False
    as_level = 2 * R  # v_pi(4)
    return unit_level(tower, alpha * pi.inverse() ** k, as_level) == as_level
