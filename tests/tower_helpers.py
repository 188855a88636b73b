"""Test helpers for towers: a tower builder, the brute-force q-th power
oracle over Q_p, the digit-lifting search that the unit-level decision
of `_is_qth_power_local` is checked against, the fields Q_2(i) and
Q_2(zeta_8) with the square test over their unramified closures, the
oracles of the closed forms of case (v), the fields Q_3(pi) and
K_1 = Q_p(zeta_p) with the case (iii) centre in Q_3(pi)(t), the oracles of
the closed forms of cases (iii) and (iv), and the disk expansion with its
centre in a tower, the oracle of the closed form of the rational centre
and of the cubic centre of `expand_disk`."""

import itertools
from fractions import Fraction
from functools import cache
from math import lcm

from padic_sr.errors import IrreducibilityUnverified, ZeroElement
from padic_sr.jsonutil import parse_rat
from padic_sr.ramification import cyclotomic_tower
from padic_sr.series import _scaled
from padic_sr.tower import (
    Tower,
    _element,
    unit_level,
    vp_int,
    vp_rational,
)
from rational_oracle import (
    CenterOnBranchLocus,
    _check_premises,
    default_truncation,
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
    u = parse_rat(u)
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
    process."""
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


@cache
def _q3_pi() -> Tower:
    """Q_3(pi), pi^4 = 3: the base of the case (iii) centre, built once per
    process."""
    return Tower(3).adjoin_radical(4, 3, "pi")


@cache
def _k1(p: int) -> Tower:
    """K_1 = Q_p(zeta_p), the base of the cube-root step of cases (iii)
    and (iv), built once per process."""
    return cyclotomic_tower(p, 1)


def cubic_tower_disk(locus):
    """(d, e) of the disk of a locus with a CubicCentre (c_0 + c_1 t +
    c_2 t^2)/den, t^3 = r, in Q_3(pi)(t), and e = pi^(4 v(e)): the tower
    path of the case (iii) centre, built per call."""
    centre = locus.d
    tower = _q3_pi().adjoin_radical(3, centre.r, "t")
    t = tower.gen(1)
    c0, c1, c2 = centre.nums
    d = (tower.rational(c0) + c1 * t + c2 * t * t) * Fraction(1, centre.den)
    k = 4 * locus.v_e
    if k.denominator != 1:
        raise ValueError(f"v(e) = {locus.v_e} is not a multiple of v(pi)")
    return d, tower.gen(0) ** int(k)


class TowerExpansion:
    """The disk x = d + e t with d and e in one tower, as the values
    K_0 .. K_L with c_l = r^l K_l, r = N e / (delta delta') (series module
    docstring), valued by the tower: the expansion that `expand_disk` made
    for a tower centre, kept as the oracle of the rational and cubic
    centres.  Made from a list with r_factors None, K_l = c_l and r = 1.
    e must be nonzero.  It has the fields and methods that the classifiers
    read, with the scale E the tower's ramification index (its degree when
    the index is not exactly known) times what makes 1/(p-1) a multiple of
    1/E."""

    def __init__(self, spec, d, e, coeffs, r_factors=None):
        tower = d.tower
        self.spec, self.d, self.tower = spec, d, tower
        self.e = tower.coerce(e)
        self.ks = list(coeffs)
        self.r_factors = r_factors  # (N, delta, delta'), or None for r = 1
        self.v_e = tower.val(self.e)
        ram = tower.ram_index if tower.ram_exact else tower.degree
        self.scale = lcm(ram, spec.p - 1)

    @property
    def truncation(self) -> int:
        return len(self.ks) - 1

    @property
    def slope(self) -> int:
        """E v(r), 0 when r = 1."""
        if self.r_factors is None:
            return 0
        N, delta, delta1 = self.r_factors
        return (_scaled(self.v_e, self.scale) + self._scaled_val(N)
                - self._scaled_val(delta) - self._scaled_val(delta1))

    def _scaled_val(self, x) -> int:
        """E v(x) of a nonzero integer or tower element."""
        if isinstance(x, int):
            return self.scale * vp_int(x, self.tower.p)
        return _scaled(self.tower.val(x), self.scale)

    def scaled_profile(self):
        slope = self.slope
        return [None if k == 0 else l * slope + self._scaled_val(k)
                for l, k in enumerate(self.ks)]

    def profile(self):
        return [None if v is None else Fraction(v, self.scale)
                for v in self.scaled_profile()]

    def _scaled_defect(self, M: int):
        """E v(p^M K_p - K_1^p), or None when it is 0."""
        p = self.spec.p
        y = p ** M * self.ks[p] - self.ks[1] ** p
        return None if y == 0 else self._scaled_val(y)

    def check_tail_premises(self):
        """The tail premises on the tower centre: v(d) and v(d - 1) read
        from the tower."""
        val = self.tower.val
        _check_premises(self.spec, val(self.d), val(self.d - 1))


def tower_expand_disk(spec, d, e) -> TowerExpansion:
    """The expansion of the cover on the disk x = d + e t, d and e (nonzero)
    in one tower, to L = 2p: the fraction-free recurrence of the series
    module docstring, run on tower elements.  delta = N d is an integer
    when d is a rational of the tower, else a tower element."""
    tower = d.tower
    if d.is_zero() or (d - 1).is_zero():
        raise CenterOnBranchLocus("disk center lies on the branch locus")
    a, b, N = spec.a, spec.b, d.den
    if d.nums.keys() == {(0,) * len(tower.steps)}:
        (delta,) = d.nums.values()
    else:
        delta = d * N
    delta1 = delta - N
    A = a * delta1 + b * delta
    S = 2 * delta - N
    P = delta * delta1
    k_prev, k = tower.zero(), tower.one()
    ks = [k]
    for l in range(default_truncation(spec.p)):
        k_prev, k = k, ((A * k + (a + b - l + 1) * P * k_prev)
                        * Fraction(1, l + 1))
        A = A - S
        ks.append(k)
    return TowerExpansion(spec, d, e, ks, (N, delta, delta1))
