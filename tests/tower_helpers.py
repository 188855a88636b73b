"""Test helpers for towers: a tower builder and the brute-force q-th power
oracle that the digit-lifting search of `_is_qth_power_local` is checked
against."""

from fractions import Fraction

from padic_sr.errors import ZeroElement
from padic_sr.tower import Tower, _exact_rational, vp_rational


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
