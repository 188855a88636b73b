"""Proofs that every cover of a shape passes the per-cover checks of its
new-tail certificate, so that the verdict is a fact of the shape (p, n, s)
(analyzer._shape_facts).  Each test takes one certificate the package once
checked per cover, reduces each of its checks to an identity of rational
functions in the cover's exponents that sympy verifies, and writes the
valuation or parity step that finishes it beside it; the steps read only
the cover rule a + b != 0, v_p(b) = n - s, v_p(a+b) = 0 and v_p(a) = 0.
The symbols stand for every cover at once, so nothing is sampled; the
residue checks run over every residue.  Each test then ties the proof to
the package: the radius and verdict of the shape's facts, or the
exponents that series._cubic_shape tests in case (iii), equal the closed
forms proved.
The reference certificates that made the checks per cover are in
tests/rational_oracle.py."""

from fractions import Fraction

import sympy as sp

from padic_sr.analyzer import _shape_facts, _tail_verdict
from padic_sr.series import ReductionVerdict, _cubic_shape


def test_rational_centre_checks_hold_on_every_cover():
    """Cases (i), (ii) and (iv): at the centre d = a/(a+b) of radius
    v(e) = (2n - s + 1/(p-1))/2 every check of the rational certificate
    holds (series module docstring, "Rational centres").  With
    g = gcd(a, a+b), d = delta/N in lowest terms has delta = a/g and
    N = (a+b)/g, delta' = delta - N = -b/g, and T_k = a delta'^k +
    b delta^k.  T_1 = 0 is h_1 = 0; T_2 = ab(a+b)/g^2 decides v(c_2) = tau
    with the exact exponent k2 = n - s; T_3 = ab(a-b)(a+b)/g^3 decides
    v(c_3) > tau with k3 = 1 where p = 3 and n = 1."""
    a, b, g = sp.symbols("a b g", nonzero=True)
    p, n, s = sp.symbols("p n s", positive=True, integer=True)
    m = a + b
    delta, N = a / g, m / g
    delta1 = delta - N
    # the premises.  g divides a and v_p(a) = 0, so v_p(g) = 0: then
    # v(d) = v_p(a) - v_p(a+b) = 0, and v(d - 1) = v_p(delta') - v_p(N)
    # = v_p(b) = n - s, as delta' = -b/g
    assert sp.simplify(delta1 + b / g) == 0
    T1, T2, T3 = (a * delta1 ** k + b * delta ** k for k in (1, 2, 3))
    # h_1 = 0
    assert sp.simplify(T1) == 0
    # v(c_2) = tau: v_p(T_2) = v_p(a) + v_p(b) + v_p(a+b) - 2 v_p(g)
    # = n - s, and the check is that p^k2 divides T_2 exactly, with
    # k2 = tau - 2 v(e) + 2 w, w = v(d) + v(d - 1) + v(N) = n - s
    assert sp.simplify(T2 - a * b * m / g ** 2) == 0
    tau = n + 1 / (p - 1)
    v_e = (2 * n - s + 1 / (p - 1)) / 2
    k2 = tau - 2 * v_e + 2 * (n - s)
    assert sp.simplify(k2 - (n - s)) == 0
    # p = 3, n = 1 (so s = 1): 3^k3 must divide T_3, and k3 =
    # floor(tau - 3 v(e)) + 3 w + 2 = 1 with w = 0
    assert sp.simplify(T3 - a * b * (a - b) * m / g ** 3) == 0
    at = {p: 3, n: 1, s: 1}
    assert sp.floor((tau - 3 * v_e).subs(at)) + 2 == 1
    # a, b and a + b prime to 3 force a = b mod 3, so 3 divides a - b
    assert all((x - y) % 3 == 0 for x in (1, 2) for y in (1, 2)
               if (x + y) % 3)
    # every shape of cases (i), (ii) and (iv) has this radius and verdict
    for p_, n_, s_ in [(3, 1, 1), (3, 3, 2), (3, 4, 4), (5, 1, 1), (5, 3, 1),
                       (7, 2, 2), (37, 2, 1), (101, 3, 2)]:
        facts = _shape_facts(p_, n_, s_)
        assert facts.case in ("i", "ii", "iv")
        assert facts.v_e == v_e.subs({p: p_, n: n_, s: s_})
        assert _tail_verdict(facts) == ReductionVerdict(
            "SplitsArtinSchreier", count=p_ ** (n_ - 1), conductor=2,
            notes=("condition (i)",)), (p_, n_, s_)


def _above(bound, E, et):
    """series._exponents_above in sympy: the least k >= 0 with
    E k + j et > bound, for j = 0, 1, 2."""
    return tuple(sp.Max(sp.floor((bound - j * et) / E) + 1, 0)
                 for j in range(3))


def test_cubic_centre_checks_hold_on_every_cover():
    """Case (iii), p = 3 and s = 1 < n: at the centre (a + t)/(a+b),
    t^3 = r = 3^(2n+1) C(b, 3), of radius v(e) = n - 1/4, every check of
    classify_torsor_reduction holds (series module docstring, "Cubic
    centres").  At the scale E = 12, slope = E v(e) - E (n - s) = 9,
    E v(t) = 12n - 4, E tau = 12n + 6 and M = 2n + 1, so the exponents the
    coordinates of K_1, K_3, K_2 and Y must reach are (n, 0, 0),
    (n - 2, 0, 0), (n - 1, 0, 0), with K_2's first coordinate exactly
    n - 1, and (3n, 2n, n); the closed forms of the K_l and of Y, and the
    cover rule, meet each of them."""
    k = sp.symbols("k", integer=True, nonnegative=True)
    n = k + 2  # n >= 2
    E, slope, et, T, M = 12, 9, 12 * n - 4, 12 * n + 6, 2 * n + 1
    assert 12 * (n - Fraction(1, 4)) - 12 * (n - 1) == slope
    k1 = _above(E * n - slope, E, et)
    k3 = _above(E * n - 3 * slope, E, et)
    k2 = _above(T - 2 * slope - 1, E, et)
    ky = _above(T + E * M - 3 * slope, E, et)
    assert (k1, k3, k2, ky) == ((n, 0, 0), (n - 2, 0, 0), (n - 1, 0, 0),
                                (3 * n, 2 * n, n))
    # K_2's first coordinate is the one whose term meets E tau
    assert E * k2[0] == T - 2 * slope
    a, b, r = sp.symbols("a b r")
    m = a + b
    K2 = (-a * b * m / 2, 0, m * (m - 1) / 2)
    K3 = (m * (2 * a * b * (a - b) + (m - 1) * (m - 2) * r) / 6,
          -a * b * m * (m - 2) / 2, 0)
    # K_1 = (0, m, 0) passes (n, 0, 0) whatever a and b are.  K_2: v_3 of
    # -abm/2 is v_3(b) = n - 1, exactly, as a, m and 2 are units
    assert K2[1] == 0
    # K_3: v_3(m ab (a-b)/3) = (n - 1) - 1 = n - 2, as a - b is a unit
    # (3 divides b and not a), and v_3 of the r term is at least
    # v_3(r) - 1 = 3n - 2, as v_3(r) = 2n + 1 + v_3(b) - 1 = 3n - 1
    assert sp.expand(K3[0] - (m * a * b * (a - b) / 3
                              + m * (m - 1) * (m - 2) * r / 6)) == 0
    assert ((3 * n - 2) - (n - 2)).is_nonnegative
    # Y = 3^M K_3 - (m^3 r, 0, 0), the cancellation of condition (ii)
    w = sp.symbols("w", positive=True)  # 3^M
    C3 = b * (b - 1) * (b - 2) / 6
    y0 = (w * K3[0] - m ** 3 * r).subs(r, w * C3)
    want = (w / 3 * m * (m - 2) / 2
            * ((m - 1) * r - b ** 2 * (b * (m - 1) - 3 * a))).subs(r, w * C3)
    assert sp.expand(y0 - want) == 0
    # b (m - 1) - 3a is divisible by 3, as b is, so v_3 of the first
    # coordinate is at least 2n + min(v_3(r), 2(n - 1) + 1) = 4n - 1 >= 3n;
    # v_3(3^M K_3[1]) >= 2n + 1 + (n - 1) = 3n >= 2n; the last is 0
    assert all((x * (x + y - 1) - 3 * y) % 3 == 0  # b = x, a = y mod 3
               for x in (0,) for y in (1, 2))
    assert ((4 * n - 1) - 3 * n).is_nonnegative
    assert ((2 * n + 1 + n - 1) - 2 * n).is_nonnegative
    # the package tests these exponents at the locus
    for n_ in range(2, 40):
        shape = _cubic_shape(n_, 1, Fraction(4 * n_ - 1, 4))
        assert shape.exponents[:2] == ((n_, 0, 0), (n_ - 2, 0, 0)), n_
        assert shape.exponents[2:] == ((n_ - 1, 0, 0), (0, n_),
                                       (3 * n_, 2 * n_, n_), 2 * n_ + 1), n_
        facts = _shape_facts(3, n_, 1)
        assert facts.v_e == Fraction(4 * n_ - 1, 4)
        assert facts.tail_check == (3, n_ + Fraction(1, 2), True)
        assert _tail_verdict(facts) == shape.verdict == ReductionVerdict(
            "SplitsArtinSchreier", count=3 ** (n_ - 1), conductor=2,
            notes=("condition (ii)",)), n_


def test_case_v_checks_hold_on_every_cover():
    """Case (v), p = 2 and 1 <= s < n: on the disk of the centre
    a/(a+b) + R, R^2 = 2^n b i/(a+b)^4, of radius v(e) = (2n - s + 1)/2,
    v(c_2) = n and the congruence c_1^2 / c_2 = 2^(n+1) i mod 2^(n+2) hold
    (series module docstring, "Case (v) centres").  2 m^3 K_2 / N^2 =
    re + im i with re = -abm^2, of v_2 = n - s, and im = (m - 1) 2^n b,
    of v_2 >= 2n - s + 1, so the norm has v_2 = 2(n - s) = k2, exactly;
    m^3 X / N^2 has real part 2^(2n) (m - 1) b and imaginary part
    2^n b m (1 + am), each of v_2 >= 2n - s + 1, so 2^kx,
    kx = 2(2n - s + 1), divides its norm."""
    a, b, N = sp.symbols("a b N", nonzero=True)
    n, s = sp.symbols("n s", positive=True, integer=True)
    i = sp.I
    m = a + b
    rho = 2 ** n * b
    gamma = -a * m ** 2 + (m - 1) * rho * i / b
    chi = m + a * m ** 2 - (m - 1) * 2 ** n * i
    K1_squared = (N * m) ** 2 * rho * i / m ** 4  # K_1 = N m R
    K2 = N ** 2 * b * gamma / (2 * m ** 3)
    X = K1_squared - 2 ** (n + 1) * i * K2
    assert sp.simplify(X - N ** 2 * rho * i * chi / m ** 3) == 0
    # v(c_2) = n: the norm of re + im i has v_2 = 2 min(v_2(re), v_2(im))
    # when they differ.  a and m are odd, so v_2(re) = v_2(b) = n - s;
    # m - 1 is even, so v_2(im) >= 1 + n + (n - s) > n - s
    re, im = -a * b * m ** 2, (m - 1) * rho
    assert sp.simplify(2 * m ** 3 * K2 / N ** 2 - (re + im * i)) == 0
    v_e = (2 * n - s + 1) / sp.Integer(2)
    slope = 4 * (v_e - n + s)  # E v(u) at E = 4
    assert sp.simplify((2 * n + 2 - slope) - 2 * (n - s)) == 0
    # the congruence: m - 1 and 1 + a m are even, as a and m are odd
    re_x, im_x = 2 ** n * (m - 1) * rho, rho * m + 2 ** n * a * b * m ** 2
    assert sp.simplify(m ** 3 * X / N ** 2 - (re_x + im_x * i)) == 0
    assert sp.expand(im_x - 2 ** n * b * m * (1 + a * m)) == 0
    assert all((y - 1) % 2 == 0 and (1 + x * y) % 2 == 0
               for x in (1, 3) for y in (1, 3))
    # v_2(re_x) >= 2n + (n - s) + 1 and v_2(im_x) >= n + (n - s) + 1, the
    # least of them 2n - s + 1 = kx/2, kx = 4n + 4 - slope
    assert sp.simplify((4 * n + 4 - slope) - 2 * (2 * n - s + 1)) == 0
    for n_ in range(2, 30):
        for s_ in range(1, n_):
            facts = _shape_facts(2, n_, s_)
            assert facts.v_e == v_e.subs({n: n_, s: s_})
            assert _tail_verdict(facts) == ReductionVerdict(
                "SplitsZ4", count=2 ** (n_ - 2), conductor=1,
                notes=("sqrt(c_2) adjoined on demand",
                       "congruence holds with i -> +i")), (n_, s_)
