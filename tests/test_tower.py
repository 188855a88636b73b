"""Exact-valuation tower: frozen oracle values, certificate behavior, and
arithmetic/valuation properties checked against independent oracles."""

import fractions
import gc
import itertools
import random
import sys
import weakref
from fractions import Fraction
from math import gcd

import pytest
import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from padic_sr import tower as tower_module
from padic_sr.analyzer import (
    _cube_radicand,
    branch_signature,
    new_tail_locus,
)
from padic_sr.errors import IrreducibilityUnverified, ZeroElement, ZeroRadicand
from padic_sr.jsonutil import ratstr
from padic_sr.ramification import cyclotomic_tower, kummer_step_conductor
from padic_sr.tower import (
    Tower,
    TowerElement,
    _det_fraction,
    _is_qth_power_local,
    _solve_fraction,
    _vp_capped,
    square_class_K2_K3,
    unit_level,
    vp_int,
    vp_rational,
)
from p2_oracle import centre_field
from tower_helpers import (
    _k1,
    _q3_pi,
    cubic_tower_disk,
    is_mth_power,
    is_square_unramified_closure,
    make_tower,
    q2_i,
    q2_zeta8,
    qth_power_search,
)


def test_empty_tower_is_rationals():
    t = make_tower(5, [])
    assert t.degree == 1
    assert t.val(t.rational(5)) == 1
    assert t.val(t.rational(Fraction(7, 25))) == -2


def test_eighth_root_of_five():
    t = make_tower(5, [(8, 5)])
    pi = t.gen(0)
    assert t.degree == 8
    assert t.val(pi) == Fraction(1, 8)
    assert t.val(pi ** 3 * 25) == Fraction(3, 8) + 2


def test_adjoin_i_over_two_adics():
    t = make_tower(2, [(2, -1)])
    i = t.gen(0)
    assert (i * i + 1).is_zero()
    assert t.val(1 + i) == Fraction(1, 2)


def test_cyclotomic_generator_valuation():
    t = Tower(5).adjoin_root_of_unity(5)
    z = t.gen(0)
    assert t.val(z - 1) == Fraction(1, 4)
    assert (z ** 5 - 1).is_zero()


def test_p2_sqrt_scale_valuation():
    # v(sqrt(2^n b i)) = (2n - s)/2 with v(b) = n - s: n = 3, s = 2, b = 6
    t = Tower(2).adjoin_radical(2, -1, "i")
    i = t.gen(0)
    t2 = t.adjoin_radical(2, ((-i) ** 4) * 3 * i, "w")
    root = ((1 + t2.gen(0)) ** 4) * t2.gen(1)
    assert t2.val(root * root) == 4  # root^2 = 2^n b i, v = n + (n - s)
    assert t2.val(root) == Fraction(2 * 3 - 2, 2)


def test_valuation_of_zero_raises():
    t = make_tower(5, [])
    with pytest.raises(ZeroElement):
        t.val(t.rational(0))


def test_vp_int_refuses_zero_and_non_primes():
    """v_p of an integer is exact on nonzero integers; 0 and a non-prime p
    raise named errors instead of looping forever."""
    assert vp_int(-250, 5) == 3
    assert vp_int(7, 5) == 0
    assert vp_int(2 ** 40, 2) == 40
    with pytest.raises(ZeroElement):
        vp_int(0, 5)
    for p in (1, 4, 0, -3):
        with pytest.raises(ValueError, match="is not prime"):
            vp_int(12, p)


def _naive_vp(x, p):
    """v_p(x) of a nonzero integer, one division per unit: the oracle of
    the doubling search."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_capped_search_is_the_capped_valuation():
    """_vp_capped(x, p, n) = min(v_p(x), n) for x = +-p^k u with k up to
    3001 (256 for p > 100), around each power of 2, where the doubling
    search turns, and seeded draws of u, which may themselves be divisible
    by p or be 0; x = 0 gives the cap.  Every cap 0 <= n <= k + 2 is read
    up to k = 256, and beyond it the caps around k and every 97th.  vp_int
    agrees with the oracle on every nonzero x."""
    rng = random.Random(41)
    ks = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100, 255, 256,
          1023, 1024, 2047, 2048, 3001]
    for p in (2, 3, 5, 7, 101, 65537):
        units = [1, -1, p - 1, p + 1, -(2 * p + 1)]
        units += [rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)]
        for k in ks if p < 100 else ks[:-6]:
            for u in units:
                x = u * p ** k
                want = _naive_vp(x, p) if x else None
                if x:
                    assert vp_int(x, p) == want, (p, k, u)
                caps = range(k + 3) if k <= 256 else \
                    sorted({0, 1, k - 1, k, k + 1, k + 2, *range(0, k, 97)})
                for cap in caps:
                    assert _vp_capped(x, p, cap) == \
                        (cap if want is None else min(want, cap)), \
                        (p, k, u, cap)


@pytest.mark.parametrize("bad", [0.5, 0.75, -2.0])
def test_floats_refused_where_exact_inputs_are_read(bad):
    """A float is no exact rational: every reader of one refuses it, as
    coerce and ratstr do, while strings still parse exactly."""
    t = q2_i()
    for read in (lambda: vp_rational(bad, 2), lambda: t.rational(bad),
                 lambda: t.coerce(bad),
                 lambda: square_class_K2_K3(bad),
                 lambda: kummer_step_conductor(cyclotomic_tower(3, 1), bad,
                                               3)):
        with pytest.raises(TypeError):
            read()
    assert vp_rational("3/4", 2) == -2
    assert t.rational("3/4") == t.rational(Fraction(3, 4))


@pytest.mark.parametrize("bad", [True, False])
def test_bools_refused_where_exact_inputs_are_read(bad):
    """A bool is no exact rational either: Tower.rational and coerce refuse
    it as parse_rat and ratstr do, where Tower.rational(True) was the
    element 1."""
    t = q2_i()
    for read in (lambda: vp_rational(bad, 2), lambda: t.rational(bad),
                 lambda: t.coerce(bad), lambda: ratstr(bad)):
        with pytest.raises(TypeError):
            read()


def test_zero_radicand_rejected():
    with pytest.raises(ZeroRadicand):
        make_tower(5, [(2, 0)])
    with pytest.raises(ZeroRadicand, match="radicand is zero"):
        kummer_step_conductor(cyclotomic_tower(3, 1), 0, 3)


def test_reducible_step_refused():
    # 17 is a 2-adic square (17 = 1 mod 8): x^2 - 17 is locally reducible
    with pytest.raises(IrreducibilityUnverified):
        make_tower(2, [(2, 17)])


def test_is_mth_power_oracles():
    assert is_mth_power(-1, 2, p=2) is False
    assert is_mth_power(16, 2, p=5) is True
    assert is_mth_power(10, 3, p=3) is True  # 10 = 4^3 (mod 27), Hensel lifts
    assert is_mth_power(2, 3, p=3) is False
    assert is_mth_power(5, 2, p=5) is False  # odd valuation


def test_square_class_table():
    # v(d) even: di square in K_3 but not K_2; d square in K_2
    for d in (1, 4):
        r = square_class_K2_K3(d)
        assert r["di_square_K3"] and not r["di_square_K2"]
        assert r["d_square_K2"]
    # v(d) odd: di square in K_2; d square in K_3 but not K_2
    r = square_class_K2_K3(2)
    assert r["di_square_K2"]
    assert r["d_square_K3"] and not r["d_square_K2"]
    # square factors do not change the classification
    assert square_class_K2_K3(9) == square_class_K2_K3(1)
    assert square_class_K2_K3(18) == square_class_K2_K3(2)


#: rationals whose square classes in Q_2 cover all eight (v_2 mod 2, odd
#: part mod 8); most have a nonintegral or even-denominator value
SQUARE_CLASS_SAMPLE = [Fraction(3, 5), Fraction(-7, 12)] + [
    Fraction(2 ** v * num, den) if v >= 0 else Fraction(num, 2 ** -v * den)
    for v in (-3, -2, -1, 0, 1, 2)
    for num, den in ((1, 1), (3, 5), (-7, 3), (5, 9), (-1, 7), (11, 13),
                     (-13, 1), (15, 17))]


def _square_class(d):
    v = vp_rational(d, 2)
    u = d / Fraction(2) ** int(v)
    return int(v) % 2, u.numerator * u.denominator % 8


def test_k3_is_q2_i_with_a_square_root_of_i():
    """K_3 = Q_2(i)(zeta_8), zeta_8^2 = i, the square-class oracle's field:
    two quadratic steps over the shared Q_2(i), totally ramified with
    uniformizer zeta_8 - 1."""
    k3 = q2_zeta8()
    assert k3._lower is q2_i()
    assert [s.degree for s in k3.steps] == [2, 2]
    assert k3.gen(1) ** 2 == k3.gen(0)
    assert k3.ram_exact and k3.ram_index == 4
    assert k3.val(k3.uniformizer()) == Fraction(1, 4)


def test_square_class_table_fills_without_determinants(monkeypatch):
    """All 32 entries of the square-class table, (v_2 mod 2, odd part mod 8,
    K_ell, d or d i), come from square_class_K2_K3 with no Tower built and
    no determinant taken.  Each equals the square class computed on the
    class representative in Q_2(i) and in the quartic tower
    zeta_8^4 = -1."""
    calls = []
    init, det = Tower.__init__, tower_module._det_fraction
    monkeypatch.setattr(Tower, "__init__",
                        lambda self, p: calls.append("Tower") or init(self, p))
    monkeypatch.setattr(tower_module, "_det_fraction",
                        lambda M: calls.append("det") or det(M))
    table = {}
    for v2 in (0, 1):
        for u8 in (1, 3, 5, 7):
            r = square_class_K2_K3(2 ** v2 * u8)
            for ell in (2, 3):
                table[v2, u8, ell, 0] = r[f"d_square_K{ell}"]
                table[v2, u8, ell, 1] = r[f"di_square_K{ell}"]
    assert calls == [] and len(table) == 32
    monkeypatch.undo()
    quartic = Tower(2).adjoin_radical(4, -1)
    i_of = {2: q2_i().gen(0), 3: quartic.gen() ** 2}
    field = {2: q2_i(), 3: quartic}
    for (v2, u8, ell, i_power), square in table.items():
        assert square == is_square_unramified_closure(
            field[ell], i_of[ell] ** i_power * (2 ** v2 * u8)), (
                v2, u8, ell, i_power)


def test_square_class_lookup_matches_the_tower_computation():
    """The closed form of square_class_K2_K3, read from the parity of
    v_2(d), agrees with the oracle is_square_unramified_closure run on the
    actual d i, -d i and d in fresh copies of Q_2(i) and Q_2(zeta_8), on
    rationals of every square class of Q_2.  The other root -i of -1 gives
    the single answer for d i too."""
    assert {_square_class(d) for d in SQUARE_CLASS_SAMPLE} == {
        (v, u) for v in (0, 1) for u in (1, 3, 5, 7)}
    k2 = Tower(2).adjoin_radical(2, -1)
    k3 = Tower(2).adjoin_radical(4, -1)
    i_of = {2: k2.gen(), 3: k3.gen() ** 2}
    for d in SQUARE_CLASS_SAMPLE:
        table = square_class_K2_K3(d)
        for choice in (1, -1):
            oracle = {ell: is_square_unramified_closure(
                k, i_of[ell] * choice * d) for ell, k in ((2, k2), (3, k3))}
            assert table["di_square_K2"] == oracle[2]
            assert table["di_square_K3"] == oracle[3]
        assert table["d_square_K2"] == is_square_unramified_closure(
            k2, k2.rational(d)), d
        assert table["d_square_K3"] == is_square_unramified_closure(
            k3, k3.rational(d)), d


def _random_element(rng, tower, span):
    while True:
        x = tower.rational(0)
        for j in range(span):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if c:
                x = x + c * tower.gen(0) ** j
        if not x.is_zero():
            return x


TEST_TOWERS = [
    lambda: make_tower(5, [(8, 5)]),
    lambda: make_tower(2, [(2, -1)]),
    lambda: make_tower(3, [(4, 3)]),
    lambda: Tower(7).adjoin_root_of_unity(7),
]


@pytest.mark.parametrize("build", TEST_TOWERS)
def test_valuation_multiplicative(build):
    t = build()
    rng = random.Random(20260824)
    span = min(t.degree, 4)
    for _ in range(200):
        x = _random_element(rng, t, span)
        y = _random_element(rng, t, span)
        assert t.val(x * y) == t.val(x) + t.val(y)


@pytest.mark.parametrize("build", TEST_TOWERS)
def test_ultrametric(build):
    t = build()
    rng = random.Random(20260825)
    span = min(t.degree, 4)
    for _ in range(100):
        x = _random_element(rng, t, span)
        y = _random_element(rng, t, span)
        s = x + y
        vx, vy = t.val(x), t.val(y)
        if s.is_zero():
            continue
        assert t.val(s) >= min(vx, vy)
        if vx != vy:
            assert t.val(s) == min(vx, vy)


@pytest.mark.parametrize("p,m,r", [(5, 8, 5), (3, 4, 3), (2, 2, -1),
                                   (7, 12, 7)])
def test_norm_consistency_resultant_oracle(p, m, r):
    """valuation * degree = v_p(resultant(x^m - r, alpha(x))), sympy oracle."""
    t = make_tower(p, [(m, r)])
    rng = random.Random(p * 1000 + m)
    x = sp.Symbol("x")
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(min(m, 4))]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        alpha = t.rational(0)
        poly = sp.Integer(0)
        for j, c in enumerate(coeffs):
            alpha = alpha + c * t.gen(0) ** j
            poly += sp.Rational(c.numerator, c.denominator) * x ** j
        if alpha.is_zero():
            continue
        res = sp.resultant(x ** m - r, poly, x)
        assert res != 0
        assert t.val(alpha) * t.degree == vp_rational(
            Fraction(sp.nsimplify(res)), p)


def test_root_choice_independence():
    """Conjugate roots give identical valuations of all derived elements."""
    t = Tower(2).adjoin_radical(2, -1, "i")
    i = t.gen(0)
    t2 = t.adjoin_radical(2, ((-i) ** 3) * 3 * i, "w")
    w = t2.gen(1)
    for expr_of in (lambda r: 1 + r, lambda r: (1 + t2.gen(0)) ** 3 * r - 2,
                    lambda r: r * r + r):
        e1, e2 = expr_of(w), expr_of(-1 * w)
        if e1.is_zero() or e2.is_zero():
            assert e1.is_zero() == e2.is_zero()
        else:
            assert t2.val(e1) == t2.val(e2)


def test_inverse_and_division():
    """The inverse of an element, of an equal element built another way,
    and of a scalar multiple."""
    t = make_tower(3, [(4, 3)])
    g = t.gen(0)
    x = 2 + g + g ** 2 * Fraction(1, 3)
    first = x.inverse()
    assert ((x * first) - 1).is_zero()
    assert ((x / x) - 1).is_zero()
    assert t.val(x ** -2) == -2 * t.val(x)
    y = (x * 6 + 3) * Fraction(1, 6) - Fraction(1, 2)
    assert y == x and y is not x
    assert y.inverse() == first
    assert (x * 5).inverse() == first / 5


# -- the local q-th power test -----------------------------------------------

def _brute_qth_power(tower, u, q):
    """Reference: try every candidate sum a_b b, 0 <= a_b < p^depth, over the
    monomial basis b, with the threshold of `qth_power_search`."""
    p, R = tower.p, tower.ram_index
    levels = 2 * R * (1 if q == p else 0) + 1
    depth = -(-levels // R) + 1
    threshold = Fraction(levels, R)
    basis, _ = tower._basis()
    for coeffs in itertools.product(range(p ** depth), repeat=len(basis)):
        x = TowerElement(tower, {b: Fraction(a)
                                 for b, a in zip(basis, coeffs) if a})
        diff = x ** q - u
        if diff.is_zero() or tower.val(diff) >= threshold:
            return True
    return False


def _random_unit(rng, tower):
    basis, _ = tower._basis()
    while True:
        x = tower.rational(0)
        for b in basis:
            c = Fraction(rng.randint(-40, 40), rng.choice([1, 1, 3, 5, 7]))
            x = x + TowerElement(tower, {b: c} if c else {})
        if not x.is_zero() and tower.val(x) == 0:
            return x


@pytest.mark.parametrize("build,cap", [
    (lambda: make_tower(2, [(2, -1)]), 4),  # Q_2(i): 2 v_pi(2)
    (lambda: Tower(3).adjoin_root_of_unity(3), 3),  # Q_3(zeta_3): pe/(p-1)
    (lambda: Tower(5).adjoin_root_of_unity(5), 5),
])
def test_unit_level_is_a_class_invariant(build, cap):
    """The level of a unit depends only on its class modulo p-th powers:
    unit_level(u w^p) = unit_level(u) for seeded random units u and w, every
    p-th power reaches the cap, and a level below the cap is prime to p."""
    t = build()
    p = t.p
    rng = random.Random(31)
    levels = set()
    for _ in range(8):
        u, w = _random_unit(rng, t), _random_unit(rng, t)
        j = unit_level(t, u, cap)
        assert j == cap or j % p, (u, j)
        assert unit_level(t, u * w ** p, cap) == j, (u, w)
        assert unit_level(t, w ** p, cap) == cap, w
        levels.add(j)
    assert len(levels) > 1, levels


def _centre_radicands(n, s, b):
    """(Q_2(i), [(-i)^k b' i for each centre d_j]), k = 2n - s - j and
    b' = b/2^(n-s): the radicands of the case (v) square-root steps."""
    t = Tower(2).adjoin_radical(2, -1, "i")
    i = t.gen(0)
    return t, [((-i) ** (2 * n - s - j)) * (b // 2 ** (n - s)) * i
               for j in range(s)]


#: (tower, primes q): q = p = 3 over Q_3(sqrt 3) is too slow for the reference
QTH_POWER_TOWERS = [
    (lambda: Tower(2).adjoin_radical(2, -1), (2, 3)),
    (lambda: Tower(2).adjoin_radical(2, 2), (2, 3)),
    (lambda: Tower(2).adjoin_radical(2, -2), (2, 3)),
    (lambda: Tower(3).adjoin_radical(2, 3), (2,)),
    # a non-integral generator, sqrt(1/2): monomials of valuation -1/2
    (lambda: Tower(2).adjoin_radical(2, Fraction(1, 2)), (2, 3)),
]


@pytest.mark.parametrize("build,qs", QTH_POWER_TOWERS,
                         ids=["Q2(i)", "Q2(sqrt2)", "Q2(sqrt-2)", "Q3(sqrt3)",
                              "Q2(sqrt(1/2))"])
def test_qth_power_lifting_matches_brute_force(build, qs):
    t = build()
    rng = random.Random(20261018 + t.p * 10 + len(t._basis()[0]))
    for q in qs:
        units = [_random_unit(rng, t) for _ in range(12)]
        units += [x ** q for x in (_random_unit(rng, t) for _ in range(12))]
        for u in units:
            assert _is_qth_power_local(t, u, q) == _brute_qth_power(t, u, q)


def test_qth_power_lifting_over_the_rationals_matches_the_oracle():
    """Over Q_p the digit-lifting search decides every unit radicand as the
    brute-force Hensel oracle does, for p <= 13 and q in {2, 3, 5, 7}."""
    units = [Fraction(num, den) for num in range(-60, 61) if num
             for den in (1, 3, 5, 7, 9, 11, 13, 49)]
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        t = Tower(p)
        for u in (u for u in units if vp_rational(u, p) == 0):
            for q in (2, 3, 5, 7):
                assert (_is_qth_power_local(t, t.rational(u), q)
                        == is_mth_power(u, q, p)), (p, u, q)
                checked += 1
    assert checked == 15600


@pytest.mark.parametrize("args,square", [
    ((2, 3, 1, 6), False),  # b' = 3: the step w^2 = (-i)^k 3 i is adjoined
    ((2, 4, 1, 56), True),  # b' = 7: the radicand is a square in Q_2(i)
])
def test_qth_power_lifting_on_centre_radicands(args, square):
    spec = branch_signature(*args)
    t, radicands = _centre_radicands(spec.n, spec.s, spec.b)
    answers = [_is_qth_power_local(t, u, 2) for u in radicands]
    assert answers == [_brute_qth_power(t, u, 2) for u in radicands]
    assert answers[0] is square


@pytest.mark.parametrize("args,square", [((2, 3, 1, 6), False),
                                         ((2, 4, 1, 56), True)])
def test_qth_power_test_tries_few_candidates(monkeypatch, args, square):
    """Timing-free guard on the Q_2(i) radicand of the new-tail centre, the
    step that new_tail_locus decides in integers (_certify_p2_step).  In a
    fresh Q_2(i) the q-th power test decides it by its residue and unit
    level in at most p (floor(c*) + 1) = 10 valuations (p = 2, e = 2,
    c* = 4), and agrees with the integer rule."""
    spec = branch_signature(*args)
    t, radicands = _centre_radicands(spec.n, spec.s, spec.b)
    count, val = [0], Tower.val

    def counting_val(self, x):
        count[0] += 1
        return val(self, x)

    monkeypatch.setattr(Tower, "val", counting_val)
    assert _is_qth_power_local(t, radicands[0], 2) is square
    assert 0 < count[0] <= 10, count
    monkeypatch.undo()
    if square:
        with pytest.raises(IrreducibilityUnverified):
            new_tail_locus(spec)
    else:
        assert new_tail_locus(spec).d == Fraction(spec.a, spec.a + spec.b)


# -- closed forms against the brute-force path -------------------------------

def _q3_pi_t():
    """Q_3(pi)(t), pi^4 = 3, t^3 = 3^5 C(3, 3): the field of the case (iii)
    centre of (p, n, a, b) = (3, 2, 1, 3) on the tower path."""
    d, _ = cubic_tower_disk(new_tail_locus(branch_signature(3, 2, 1, 3)))
    return d.tower


def _k1_cbrt():
    """K_1(cbrt), the case (iv) field L of conductor_bound."""
    return _k1(3).adjoin_radical(3, _cube_radicand(3, 2, 3), "t")


def _q2_i_sqrt_level_3():
    """Q_2(i)(w), w^2 = -1 + 2i: a ramified unit step whose probe w + 1,
    of valuation 3/4, is no uniformizer."""
    i = q2_i().gen(0)
    return q2_i().adjoin_radical(2, -1 + 2 * i, "w")


#: the oracle fields of the closed forms of cases (iii)-(v), the towers
#: above, a ramified unit step whose probe is no uniformizer, and towers
#: whose unit step is not proved ramified (ram_exact False): Q_2(i)(w) for
#: c = 1, a quadratic Q_3(sqrt 2), and the quartic Q_5(2^(1/4)) on the
#: determinant
ORACLE_TOWERS = {
    "q2_i": q2_i,
    "K3": q2_zeta8,
    "Q3(pi)": _q3_pi,
    "K1(3)": lambda: _k1(3),
    "K1(5)": lambda: _k1(5),
    "Q3(zeta9)": lambda: cyclotomic_tower(3, 2),
    **{f"Q{p}(pi)": (lambda p=p: Tower(p).adjoin_radical(2 * (p - 1), p))
       for p in (2, 3, 5, 7, 11, 13)},
    "Q3(pi)(t)": _q3_pi_t,
    "K1(cbrt)": _k1_cbrt,
    **{f"centre({b},{c})": (lambda b=b, c=c: centre_field(b, c)[0])
       for b in (3, -3, 5, -5, 11, -11, 13) for c in (0, 1)},
    **{f"TEST_TOWERS[{j}]": build for j, build in enumerate(TEST_TOWERS)},
    "Q3(sqrt2)": lambda: Tower(3).adjoin_radical(2, 2),
    "Q5(2^(1/4))": lambda: Tower(5).adjoin_radical(4, 2),
    "Q3(pi)(sqrt pi)": lambda: _q3_pi().adjoin_radical(2, _q3_pi().gen()),
    "Q2(i)(sqrt(-1+2i))": _q2_i_sqrt_level_3,
}


def _sparse_element(rng, tower):
    """A nonzero element on a few basis monomials, often with equal-valued
    terms, so that both the unique-minimum and the tie path run."""
    basis, _ = tower._basis()
    return TowerElement(tower, {
        b: Fraction(rng.choice([1, -1]) * tower.p ** rng.randint(0, 1)
                    * rng.randint(1, 6), rng.choice([1, 1, 2, 3]))
        for b in rng.sample(basis, rng.randint(1, min(len(basis), 4)))})


def _oracle_matrix(x):
    """The multiplication matrix of x from the per-term product: column j
    holds the coordinates of x * basis[j]."""
    t = x.tower
    basis, _ = t._basis()
    cols = [_per_term_product(t, x.coords, {b: Fraction(1)}) for b in basis]
    return [[col.get(b, Fraction(0)) for col in cols] for b in basis]


def _sympy_det(M):
    """sympy's determinant of a square matrix of Fractions, over QQ."""
    rows = [[QQ(c.numerator, c.denominator) for c in row] for row in M]
    det = DomainMatrix(rows, (len(rows), len(rows)), QQ).det()
    return Fraction(int(det.numerator), int(det.denominator))


def _det_norm(x):
    """The norm of x as sympy's determinant of the oracle matrix, which
    shares no code with Tower.norm."""
    return _sympy_det(_oracle_matrix(x))


def _solve_inverse(x):
    t = x.tower
    basis, index = t._basis()
    rhs = [Fraction(0)] * len(basis)
    rhs[index[(0,) * len(t.steps)]] = Fraction(1)
    sol = _solve_fraction(_oracle_matrix(x), rhs)
    return {basis[i]: c for i, c in enumerate(sol) if c}


def _binary_power(x, k):
    """x^k by binary powering of the per-term product, through the solved
    inverse for k < 0."""
    t = x.tower
    base = _solve_inverse(x) if k < 0 else x.coords
    result, k = {(0,) * len(t.steps): Fraction(1)}, abs(k)
    while k:
        if k & 1:
            result = _per_term_product(t, result, base)
        k >>= 1
        if k:
            base = _per_term_product(t, base, base)
    return result


@pytest.mark.parametrize("name", ORACLE_TOWERS)
def test_valuation_and_norm_match_the_determinant(name):
    """The norm against sympy's determinant of the per-term multiplication
    matrix, the valuation against the norm, and the inverse against the
    product, on one- and multi-step towers."""
    t = ORACLE_TOWERS[name]()
    rng = random.Random(f"val-norm:{name}")
    for _ in range(20 if t.degree <= 8 else 4):
        x = _sparse_element(rng, t)
        n = _det_norm(x)
        assert t.norm(x) == n, x
        assert t.val(x) == vp_rational(n, t.p) / t.degree, x
        assert x * x.inverse() == 1, x


def test_determinant_matches_sympy():
    """The fraction-free determinant against sympy's on seeded sparse
    rational matrices of size 1 to 8, where zero pivots force row swaps
    and some matrices are singular."""
    rng = random.Random("det")
    singular = 0
    for n in range(1, 9):
        for _ in range(25):
            M = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 25]))
                  if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
                 for _ in range(n)]
            det = _sympy_det(M)
            assert _det_fraction(M) == det, M
            singular += det == 0
    assert 10 < singular < 100, singular


@pytest.mark.parametrize("name", ORACLE_TOWERS)
def test_uniformizer_has_valuation_one_over_the_ramification_index(name):
    """Every step combines its new element with the lower uniformizer, whose
    valuation 1/R_lower is known by construction; every tower of exact
    ramification index gets a uniformizer that way."""
    t = ORACLE_TOWERS[name]()
    assert t._uniformizer is not None or not t.ram_exact
    if t._uniformizer is not None:
        assert t.val(t.uniformizer()) == Fraction(1, t.ram_index)


@pytest.mark.parametrize("name", ORACLE_TOWERS)
def test_monomial_powers_and_inverses_match_the_generic_path(name):
    """Powers and inverses of monomials, whose rewrites reach every step,
    against binary powering of the per-term product and the solved
    inverse of the oracle matrix."""
    t = ORACLE_TOWERS[name]()
    rng = random.Random(f"monomial:{name}")
    basis, _ = t._basis()
    for b in rng.sample(basis, min(len(basis), 3)):
        x = TowerElement(t, {b: Fraction(rng.choice([1, -2, 3]),
                                         rng.choice([1, 5]))})
        assert x.inverse().coords == _solve_inverse(x), x
        for k in range(-5, 41):
            assert (x ** k).coords == _binary_power(x, k), (x, k)


def _class_table_applies(t):
    """Is the q-th power test of a unit of t, den prime to p, a function of
    its coordinates mod p^depth: an exact ramification index and an
    integral monomial basis (m0 >= 0)?"""
    return t.ram_exact and min(t._G, default=0) >= 0


def _qth_depth(t, q):
    """The p-power depth past Hensel's bound 2 v(q) + 1/e, with a level of
    slack, at which the class of a unit decides the q-th power test of t."""
    R = t.ram_index
    return -(-(2 * R * (1 if q == t.p else 0) + 1) // R) + 1


def _integral_unit(rng, t):
    """A unit of t with integer coordinates over a den prime to p."""
    basis, _ = t._basis()
    dens = [d for d in (1, 1, 7, 11, 13) if d % t.p]
    while True:
        den = rng.choice(dens)
        x = TowerElement(t, {b: Fraction(rng.randint(-40, 40), den)
                             for b in basis})
        if not x.is_zero() and t.val(x) == 0:
            return x


#: the towers of ORACLE_TOWERS on which the class-table oracle runs: every
#: one where a unit's class decides the test and p^D <= 729.  Above
#: p^D = 81 it draws one unit, and q = p is left out.
CLASS_TABLE_TOWERS = [name for name, build in ORACLE_TOWERS.items()
                      if _class_table_applies(t := build())
                      and t.p ** t.degree <= 729]


@pytest.mark.parametrize("name", CLASS_TABLE_TOWERS)
def test_class_table_matches_a_fresh_search(name):
    """The q-th power test of a unit is a function of its class: with an
    integral monomial basis and p prime to the den, u + p^depth y, y an
    integer combination of basis monomials, is u times a q-th power by
    Hensel.  A table keyed on (q, coordinates mod p^depth), filled here
    from the test's own decisions on a unit u and on each u + p^k y,
    k = 0 .. depth, agrees with every later decision of the same key, and
    u + p^depth y has the key of u.  A test that read less than the class
    of u would give two answers for one key."""
    t = ORACLE_TOWERS[name]()
    assert _class_table_applies(t)
    basis, _ = t._basis()
    rng = random.Random(f"class-table:{name}")
    small = t.p ** t.degree <= 81
    table = {}
    for q in sorted({2, t.p} if small else {2}):
        depth = _qth_depth(t, q)
        mod = t.p ** depth

        def key(x):
            inv = pow(x.den, -1, mod)
            return q, tuple(x.nums.get(b, 0) * inv % mod for b in basis)

        for _ in range(4 if small else 1):
            u = _integral_unit(rng, t)
            for k in range(-1, depth + 1):  # k = -1: u itself
                y = TowerElement(t, {b: Fraction(rng.randint(-9, 9))
                                     for b in basis})
                x = u if k < 0 else u + t.p ** k * y
                answer = _is_qth_power_local(t, x, q)
                if t.val(x) == 0:  # the key fixes the class of a unit only
                    assert table.setdefault(key(x), answer) is answer, (x, q)
            assert key(x) == key(u)


#: the exact towers of ORACLE_TOWERS and QTH_POWER_TOWERS on which the
#: digit search stays cheap (p^D <= 729) and is complete.  It is not over
#: Q_2(i)(sqrt(-1+2i)): there Z_2[i, w] is not the ring of integers, as
#: w + 1 has valuation 3/4, so a square root can lie outside the span it
#: searches (the class-invariance test below covers that tower).
WALK_ORACLE_TOWERS = {
    name: build for name, build in {
        **ORACLE_TOWERS,
        **{f"QTH_POWER_TOWERS[{j}]": build
           for j, (build, _) in enumerate(QTH_POWER_TOWERS)},
    }.items() if (t := build()).ram_exact and t.p ** t.degree <= 729
    and name != "Q2(i)(sqrt(-1+2i))"}


@pytest.mark.parametrize("name", WALK_ORACLE_TOWERS)
def test_unit_level_decision_matches_the_digit_search(name):
    """The residue and unit-level decision of the q-th power test against
    the digit search of tower_helpers, for q in {2, 3, p}: seeded units,
    q-th powers, and q-th powers times 1 + p^k, k = 1, 2, 3, which sit
    deep in the unit filtration.  Above p^D = 81 it draws one of each."""
    t = WALK_ORACLE_TOWERS[name]()
    p = t.p
    rng = random.Random(f"walk:{name}")
    draws = 4 if p ** t.degree <= 81 else 1
    answers = set()
    for q in sorted({2, 3, p}):
        xs = [_random_unit(rng, t) for _ in range(2 * draws)]
        units = xs[:draws] + [x ** q for x in xs[draws:]]
        units += [xs[-1] ** q * (1 + p ** k) for k in (1, 2, 3)]
        for u in units:
            answer = _is_qth_power_local(t, u, q)
            assert answer == qth_power_search(t, u, q), (u, q)
            answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("r,cube", [(3, True), (-6, True), (-3, False),
                                     (6, False)])
def test_critical_level_is_decided_by_the_residue_of_p_over_pi_e(r, cube):
    """Over Q_3(sqrt r), u = 1 + 3 sqrt r has the critical level c* = 3.
    There (1 + z pi)^3 = 1 + (z^3 + eps z) pi^3 up to higher levels, with
    eps the residue of 3/r.  For r = 3 or -6, eps = 1 and 2z raises the
    level, so u is a cube.  For r = -3 or 6, eps = -1, z^3 - z is 0 on F_3,
    and the walk stops at c*: u is no cube.  The digit search agrees."""
    t = Tower(3).adjoin_radical(2, r)
    u = 1 + 3 * t.gen()
    assert unit_level(t, u, 4) == (4 if cube else 3)
    assert _is_qth_power_local(t, u, 3) is cube
    assert qth_power_search(t, u, 3) is cube


def test_square_outside_the_integer_span_is_refused():
    """Over Q_2(i)(w), w^2 = -1 + 2i, Z_2[i, w] is not the ring of
    integers, and u below is the square of a unit W with half-integer
    coordinates up to Hensel's bound: v(W^2 - u) = 3 > 2 v(2).  A search
    over integer coordinates finds no root; the unit-level walk does, so
    the reducible step x^2 - u is refused."""
    t = _q2_i_sqrt_level_3()
    i, w = t.gen(0), t.gen(1)
    u = 25 + Fraction(35, 3) * w + 5 * i - Fraction(4, 7) * i * w
    W = (9 + w - 3 * i - 5 * i * w) * Fraction(1, 2)
    assert t.val(W) == 0 and t.val(W ** 2 - u) == 3
    assert qth_power_search(t, u, 2) is False
    assert _is_qth_power_local(t, u, 2) is True
    with pytest.raises(IrreducibilityUnverified, match="2-th power"):
        t.adjoin_radical(2, u)


#: towers too large for the digit search: Q_5(pi) (pi^8 = 5), Q_7(zeta_7),
#: Q_3(zeta_9) and Q_5(zeta_5)
LARGE_TOWERS = {
    "Q5(pi)": lambda: Tower(5).adjoin_radical(8, 5),
    "Q7(zeta7)": lambda: cyclotomic_tower(7, 1),
    "Q3(zeta9)": lambda: cyclotomic_tower(3, 2),
    "Q5(zeta5)": lambda: cyclotomic_tower(5, 1),
}


@pytest.mark.parametrize("name", [*LARGE_TOWERS, "Q2(i)(sqrt(-1+2i))"])
def test_p_th_power_test_is_a_class_invariant(name):
    """Over towers where the digit search cannot decide, every w^p is a
    p-th power, and the answer for u is the answer for u w^p, for seeded
    units u, w."""
    t = {**LARGE_TOWERS, **ORACLE_TOWERS}[name]()
    p = t.p
    rng = random.Random(f"large:{name}")
    answers = set()
    for _ in range(6):
        u, w = _random_unit(rng, t), _random_unit(rng, t)
        assert _is_qth_power_local(t, w ** p, p) is True, w
        answer = _is_qth_power_local(t, u, p)
        assert _is_qth_power_local(t, u * w ** p, p) is answer, (u, w)
        answers.add(answer)
    assert False in answers


@pytest.mark.parametrize("name", ["Q5(pi)", "Q7(zeta7)"])
def test_qth_power_test_makes_few_valuations(monkeypatch, name):
    """Counted guard: on a fresh class, one q-th power test for q = 2 and
    one for q = p make at most p (floor(c*) + 1) valuations, c* = p e/(p-1):
    55 over Q_5(pi) (e = 8) and 56 over Q_7(zeta_7) (e = 6).  The units
    include p-th powers, whose walk passes every level up to c*."""
    t = LARGE_TOWERS[name]()
    p, e = t.p, t.ram_index
    bound = p * (p * e // (p - 1) + 1)
    rng = random.Random(f"counted:{name}")
    xs = [_random_unit(rng, t) for _ in range(4)]
    units = xs[:2] + [x ** p for x in xs[2:]] + [xs[-1] ** p * (1 + p)]
    calls = [0]
    val = Tower.val

    def counting_val(self, x):
        calls[0] += 1
        return val(self, x)

    monkeypatch.setattr(Tower, "val", counting_val)
    counts = []
    for q in (2, p):
        for u in units:
            calls[0] = 0
            _is_qth_power_local(t, u, q)
            counts.append(calls[0])
    assert max(counts) <= bound, counts
    assert min(counts) > 0, counts


def _unit_radical_steps(t):
    """Every tower on the chain of t (t, its lower tower, ...) whose top
    step is a radical step g^m = u with u a unit."""
    out = []
    while t.steps:
        step = t.steps[-1]
        if step.kind == "radical" and step.gen_val == 0:
            out.append(t)
        t = t._lower
    return out


@pytest.mark.parametrize("name", ORACLE_TOWERS)
def test_unit_step_probes_read_the_lower_tower(name):
    """After a unit step g^m = u, v(g - c) = v_lower(c^m - u) / m, as the
    relative norm of g - c is +-(c^m - u): the probe read in the lower
    tower equals the valuation in the tower itself, for c in -2..2."""
    for t in _unit_radical_steps(ORACLE_TOWERS[name]()):
        m, u = t.steps[-1].degree, t.steps[-1].radicand
        for c in range(-2, 3):
            assert t._lower.val(c ** m - u) / m == t.val(t.gen() - c), (t, c)


def test_multi_term_rewrite_leaves_the_monomial_path():
    """A cyclotomic step rewrites zeta^deg to several terms, and a power
    past the degree goes through that rewrite: zeta_9^9 = 1."""
    t = cyclotomic_tower(3, 2)
    assert (t.gen() ** 9 - 1).is_zero()


@pytest.mark.parametrize("k", [Fraction(1, 2), 2.0, Fraction(4, 2)])
def test_non_integer_exponents_refused(k):
    """Only an integer k is an exponent: a float or Fraction raises, on a
    monomial as on a sum."""
    t = make_tower(5, [(8, 5)])
    for x in (t.gen(), 1 + t.gen()):
        with pytest.raises(TypeError):
            x ** k


# -- the product against the per-term product -------------------------------

def _per_term_product(t, c1, c2):
    """The product as it was computed term by term: every pair of terms
    rewritten by the step rules, coefficients summed as Fractions."""
    out = {}

    def accumulate(exps, coeff):
        for j in range(len(exps) - 1, -1, -1):
            step = t.steps[j]
            if exps[j] >= step.degree:
                base = list(exps)
                base[j] -= step.degree
                for rexps, rnum in step.rewrite:
                    rexps = rexps + (0,) * (len(exps) - len(rexps))
                    accumulate(tuple(b + r for b, r in zip(base, rexps)),
                               coeff * Fraction(rnum, step.rewrite_den))
                return
        out[exps] = out.get(exps, 0) + coeff

    for e1, a1 in c1.items():
        for e2, a2 in c2.items():
            accumulate(tuple(x + y for x, y in zip(e1, e2)), a1 * a2)
    return {k: c for k, c in out.items() if c}


def _q3_sqrt_third_cbrt():
    """A cube root of (2/9) g + 1/3 over Q_3(g), g^2 = 1/3: rewrites with
    fractional coefficients on two levels."""
    base = Tower(3).adjoin_radical(2, Fraction(1, 3))
    return base.adjoin_radical(3, Fraction(2, 9) * base.gen() + Fraction(1, 3))


#: ORACLE_TOWERS, and towers whose rewrites have fractional coefficients,
#: so that rewritten terms of different denominators meet in one product
KERNEL_TOWERS = {
    **ORACLE_TOWERS,
    "Q2(sqrt 1/2)": lambda: Tower(2).adjoin_radical(2, Fraction(1, 2)),
    "Q3(sqrt 2/3)": lambda: Tower(3).adjoin_radical(2, Fraction(2, 3)),
    "Q5(zeta25)": lambda: cyclotomic_tower(5, 2),
    "Q3(sqrt 1/3)(cbrt)": _q3_sqrt_third_cbrt,
}


def _operands(rng, t):
    """Seeded operand pairs: sparse, dense, single-term and empty, with
    coefficient denominators that differ within and between operands."""
    basis, _ = t._basis()

    def coeff():
        return Fraction(rng.randint(-30, 30) or 1,
                        rng.choice([1, 1, 2, 3, 4, 9, 25]))

    def on(monomials):
        return {b: coeff() for b in monomials}

    dense = on(basis) if len(basis) <= 12 else on(rng.sample(basis, 12))
    for _ in range(6):
        yield (_sparse_element(rng, t).coords,
               _sparse_element(rng, t).coords)
        yield on(rng.sample(basis, min(len(basis), 5))), dense
        yield on([rng.choice(basis)]), on([rng.choice(basis)])
        yield on([rng.choice(basis)]), dense
    yield dense, dense
    yield {}, dense
    yield dense, {}
    yield {}, {}


@pytest.mark.parametrize("name", KERNEL_TOWERS)
def test_structure_constant_product_matches_the_per_term_product(name):
    """The product against the per-term Fraction product of the oracle."""
    t = KERNEL_TOWERS[name]()
    rng = random.Random(f"kernel:{name}")
    for c1, c2 in _operands(rng, t):
        product = TowerElement(t, c1) * TowerElement(t, c2)
        assert product.coords == _per_term_product(t, c1, c2), (c1, c2)


# -- integer coordinates: one denominator per element -----------------------

def _assert_reduced(x):
    """The stored form of x: a positive int den over nonzero int numerators
    on basis monomials, in lowest terms.  The type checks matter, as
    Fraction(1, 2) == 0.5 lets a float pass an equality oracle."""
    _, index = x.tower._basis()
    assert type(x.den) is int and x.den > 0, x
    assert all(type(n) is int and n for n in x.nums.values()), x
    assert all(k in index for k in x.nums), x
    assert gcd(x.den, *x.nums.values()) == 1, x


def _fraction_sum(c1, c2, sign=1):
    """The coordinates of c1 + sign c2, summed as Fractions."""
    out = dict(c1)
    for k, c in c2.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", KERNEL_TOWERS)
def test_integer_coordinates_match_the_fraction_reference(name):
    """Every operation of the integer representation against Fractions: the
    per-term product, Fraction-dict sums, the determinant norm and the
    solved inverse, with the stored form checked after each operation."""
    t = KERNEL_TOWERS[name]()
    rng = random.Random(f"integer-coords:{name}")
    scalars = [0, 1, -6, 9, Fraction(3, 4), Fraction(-5, 9), Fraction(1, 6)]
    for j, (c1, c2) in enumerate(_operands(rng, t)):
        x, y = TowerElement(t, c1), TowerElement(t, c2)
        for z in (x, y):
            _assert_reduced(z)
        assert x.coords == c1 and y.coords == c2
        checks = [(x * y, _per_term_product(t, c1, c2)),
                  (x + y, _fraction_sum(c1, c2)),
                  (x - y, _fraction_sum(c1, c2, -1)),
                  (-x, {k: -c for k, c in c1.items()})]
        q = rng.choice(scalars)
        checks.append((x * q, {k: c * q for k, c in c1.items() if q}))
        checks.append((q * y, {k: c * q for k, c in c2.items() if q}))
        if j % 4 == 0:
            checks.append((x ** 3, _binary_power(x, 3)))
        for got, want in checks:
            _assert_reduced(got)
            assert got.coords == want, (x, y, q)
        if x.is_zero() or j % 3:
            continue
        inv = x.inverse()
        _assert_reduced(inv)
        assert inv.coords == _solve_inverse(x), x
        n = _det_norm(x)
        assert t.norm(x) == n and type(t.norm(x)) is Fraction, x
        assert t.val(x) == vp_rational(n, t.p) / t.degree, x


def test_equal_elements_hash_alike():
    """Equal elements hash alike: a constant like its rational value, any
    other element by its reduced den and terms, however it was built and
    in whichever tower of a chain it lives."""
    t = q2_i()
    assert t.one() == 1 and hash(t.one()) == hash(1)
    assert len({t.one(), 1}) == 1
    assert t.zero() == 0 and hash(t.zero()) == hash(0)
    half = t.rational(Fraction(1, 2))
    quarters = t.rational(Fraction(2, 4))
    assert quarters == half and hash(quarters) == hash(half)
    assert hash(half) == hash(Fraction(1, 2)) and len({half, Fraction(1, 2)}) == 1
    k3 = q2_zeta8()
    x = 1 + k3.gen() * Fraction(3, 4) + k3.gen(0) * Fraction(5, 6)
    for y in (x * 2 * Fraction(1, 2), TowerElement(k3, dict(x.coords)),
              (x - Fraction(1, 3)) + Fraction(1, 3)):
        _assert_reduced(y)
        assert y == x and hash(y) == hash(x)
        assert (y.den, y.nums) == (x.den, x.nums)
    assert x != x * 2 and x != 1
    # a lift into a higher tower pads the exponent tuples with zeros
    i = t.gen(0)
    for y in (i, 1 + i * Fraction(3, 4)):
        lifted = k3.coerce(y)
        assert y == lifted and lifted == y and hash(y) == hash(lifted)
        assert len({y, lifted}) == 1


def test_warm_arithmetic_builds_no_fraction(monkeypatch):
    """A product, a sum, a difference, a negation and scalar multiples
    construct no Fraction in tower.py: they run in ints.  A valuation
    with a unique least term builds one, its result."""
    base = Tower(2).adjoin_radical(2, -1)
    t = base.adjoin_radical(2, base.gen() * 3)
    x = TowerElement(t, {(0, 0): Fraction(4, 3), (1, 0): Fraction(-2, 9),
                         (0, 1): Fraction(1, 5), (1, 1): Fraction(14, 15)})
    y = TowerElement(t, {(0, 0): Fraction(5, 2), (1, 1): Fraction(3, 4)})
    third = Fraction(1, 3)

    def work():
        return [x * y, x + y, x - y, -x, x * 6, 3 * y, x * third,
                y * Fraction(-4, 7), y * 8]

    want = work()
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == fractions.__file__:
            frame = frame.f_back
        if frame.f_code.co_filename == tower_module.__file__:
            built.append(frame.f_code.co_name)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert work() == want
    assert built == []
    assert t.val(want[-1]) == 1
    assert built == ["val"]
    vp_rational(third, 3)  # the counter sees a construction in tower.py
    assert built == ["val", "vp_rational"]


# -- no reference cycles ----------------------------------------------------

def _freed_without_gc(build):
    """Is the tower that build() returns freed on its last del, with the
    garbage collector off?  A tower in a reference cycle is not."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = build()
        ref = weakref.ref(t)
        del t
        return ref() is None
    finally:
        if enabled:
            gc.enable()


def test_towers_hold_no_reference_cycle():
    """The uniformizer keeps plain (den, nums), not an element of its own
    tower, so a tower is freed by reference counting: a ramified radical
    step with its uniformizer, and the case (iv) cube root over K_1."""
    def cube_root():
        t = _k1(3).adjoin_radical(3, _cube_radicand(3, 2, 3), "t")
        assert t._uniformizer is not None
        return t

    assert _freed_without_gc(lambda: Tower(17).adjoin_radical(32, 17))
    assert _freed_without_gc(cube_root)


def test_certify_radical_refuses_exactly_where_adjoining_does():
    """certify_radical is the certificate of adjoin_radical alone: on
    unit and non-unit radicands over Q_2(i) (the case (v) radicands b' and
    b' i for every odd |b'| < 40 among them), Q_3 and Q_5(pi), it raises
    the error and message that adjoining raises, and otherwise returns the
    valuation of the radicand, without building a step."""
    def outcome(f, *args):
        try:
            return f(*args)
        except (ArithmeticError, ValueError, IrreducibilityUnverified,
                ZeroRadicand) as exc:
            return type(exc).__name__, str(exc)

    i = q2_i().gen(0)
    cases = [(q2_i(), 2, u) for b in range(-39, 40, 2) for u in (b, b * i)]
    cases += [(q2_i(), m, r) for m in (1, 2, 4)
              for r in (0, 2, 2 * i, 4, 1 + i)]
    cases += [(Tower(3), m, r) for m in (2, 3) for r in (1, 2, 3, 9, 7, 10)]
    cases += [(make_tower(5, [(8, 5)]), 2, r) for r in (2, 3, 5, 6)]
    refused = 0
    for t, m, r in cases:
        adjoined = outcome(t.adjoin_radical, m, r)
        certified = outcome(t.certify_radical, m, r)
        if isinstance(adjoined, tuple):
            assert certified == adjoined, (t.steps, m, r)
            refused += 1
        else:
            assert certified == t.val(t.coerce(r)), (t.steps, m, r)
    assert 10 < refused < len(cases)
