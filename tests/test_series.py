"""Disk expansions and torsor-reduction classification: frozen oracle
values, the independent sympy expansion oracle, brute-force oracles for the
expansion recurrences and the closed-form tail bound, sympy identities for
the closed forms of h_1, h_2 and h_3 and of K_1, K_2 and K_3, the
recurrences and general classifier of tests/rational_oracle.py as the
oracles of the closed-form certificates of the rational and cubic centres,
the tower expansion of tests/tower_helpers.py as the oracle of both
centres, and the certified verdicts."""

import math
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest
import sympy as sp

from padic_sr.analyzer import (
    CoverSpec,
    _report_shape,
    analyze,
    branch_signature,
    certify_tail,
    new_tail_locus,
)
from padic_sr.errors import (
    ArtifactError,
    CertificationFailed,
    PrecisionExhausted,
)
from padic_sr.series import (
    CubicCentre,
    DiskExpansion,
    ReductionVerdict,
    _cube_radicand,
    binom_falling,
    check_tail_dominated,
    classify_torsor_reduction,
    expand_disk,
    tail_bound,
)
from padic_sr.tower import Tower, TowerElement, vp_int, vp_rational
import p2_oracle
import rational_oracle
from p2_oracle import classify_p2, tower_locus
from rational_oracle import (
    CenterOnBranchLocus,
    CubicExpansion,
    RationalExpansion,
    _val3,
    classify_expansion,
    default_truncation,
    expand_cubic,
    expand_rational,
    vp_classify_p2_torsor,
    vp_classify_rational_centre,
)
from test_analyzer import (
    _is_normal_form,
    _refused_by_the_cover_rule,
    _spec,
    _stand_in,
)
from tower_helpers import (
    TowerExpansion,
    cubic_tower_disk,
    make_tower,
    tower_expand_disk,
)


@cache
def _q_p_pi(p):
    """Q_p(pi), pi^(2(p-1)) = p: a tower that holds the new-tail radius of a
    rational centre."""
    return Tower(p).adjoin_radical(2 * (p - 1), p, "pi")


def _tower_disk(spec, locus):
    """(d, e) of the new-tail disk as elements of one tower: the tower
    oracle's for a case (iii) or (v) centre, and for the rational centre
    a/(a+b) its image in Q_p(pi) with e = pi^((2n-s)(p-1)+1), of valuation
    locus.v_e."""
    if isinstance(locus.d, CubicCentre):
        return cubic_tower_disk(locus)
    if spec.p == 2:
        return tower_locus(spec)
    p, n, s = spec.p, spec.n, spec.s
    t = _q_p_pi(p)
    return t.rational(locus.d), t.gen(0) ** ((2 * n - s) * (p - 1) + 1)


def _expand(spec, d, v_e):
    """The expansion of a disk given by its centre and v(e), by the
    oracle's recurrences: a rational centre's in integers, to c_2p, and a
    cubic centre's in integer triples, to c_3, as far as expand_disk's
    closed forms reach."""
    if isinstance(d, Fraction):
        return expand_rational(spec, d, v_e)
    return expand_cubic(spec, d, v_e)


def _expansion(spec, d, v_e, ks, r_factors):
    """The expansion made from a list of K_l, of the class of the centre."""
    cls = RationalExpansion if isinstance(d, Fraction) else CubicExpansion
    return cls(spec, d, v_e, ks, r_factors)


def _expand_locus(spec):
    """_expand of the new-tail disk of a rational or cubic centre."""
    locus = new_tail_locus(spec)
    return _expand(spec, locus.d, locus.v_e)


def _r(exp):
    """r = N e / (delta delta') of a TowerExpansion, 1 for one made from a
    list."""
    if exp.r_factors is None:
        return 1
    N, delta, delta1 = exp.r_factors
    return exp.e * (Fraction(N) / (delta * delta1))


def _coeffs(exp):
    """The coefficients c_0 .. c_L of a TowerExpansion, c_l = r^l K_l."""
    r = _r(exp)
    return [r ** l * k for l, k in enumerate(exp.ks)]


def _reference_expansion(spec, d, e, L):
    """c_0..c_L by the defining double sum
    c_l = e^l sum_j C(a, l-j) C(b, j) d^(j-l) (d-1)^(-j)."""
    tower = d.tower
    e = tower.coerce(e)
    inv_d, inv_dm1 = d.inverse(), (d - 1).inverse()
    coeffs = [tower.one()]
    for l in range(1, L + 1):
        acc = tower.zero()
        for j in range(l + 1):
            cc = binom_falling(spec.a, l - j) * binom_falling(spec.b, j)
            if cc:
                acc = acc + cc * inv_d ** (l - j) * inv_dm1 ** j
        coeffs.append(e ** l * acc)
    return coeffs


def _reference_ks(spec, d, L):
    """K_0 .. K_L by the defining double sum of the series module docstring,
    K_l = sum_j C(a, l-j) C(b, j) delta^j delta'^(l-j), delta = N d and
    delta' = delta - N, not by the recurrence; with r_factors (N, delta,
    delta').  Integers for a Fraction centre, integer triples for a
    CubicCentre."""
    if isinstance(d, CubicCentre):
        return _reference_cubic_ks(spec, d, L)
    N, delta = d.denominator, d.numerator
    delta1 = delta - N
    ca, cb = [1], [1]  # C(x, k + 1) = C(x, k) (x - k) / (k + 1), exactly
    for k in range(L):
        ca.append(ca[-1] * (spec.a - k) // (k + 1))
        cb.append(cb[-1] * (spec.b - k) // (k + 1))
    pow_d, pow_d1 = [1], [1]
    for _ in range(L):
        pow_d.append(pow_d[-1] * delta)
        pow_d1.append(pow_d1[-1] * delta1)
    ks = [sum(ca[l - j] * cb[j] * pow_d[j] * pow_d1[l - j]
              for j in range(l + 1) if ca[l - j] and cb[j])
          for l in range(L + 1)]
    return ks, (N, delta, delta1)


def _cubic_mul(x, y, r):
    """x y in Z[t]/(t^3 - r): the product polynomial, then t^(3+k) read as
    r t^k."""
    prod = [0] * 5
    for i, u in enumerate(x):
        for j, w in enumerate(y):
            prod[i + j] += u * w
    return (prod[0] + r * prod[3], prod[1] + r * prod[4], prod[2])


def _reference_cubic_ks(spec, d, L):
    """_reference_ks for a CubicCentre d = delta/N, delta a triple: the
    double sum with every power and product taken in Z[t]/(t^3 - r)."""
    N, delta, r = d.den, d.nums, d.r
    delta1 = (delta[0] - N,) + delta[1:]
    ca, cb = [1], [1]
    for k in range(L):
        ca.append(ca[-1] * (spec.a - k) // (k + 1))
        cb.append(cb[-1] * (spec.b - k) // (k + 1))
    pow_d, pow_d1 = [(1, 0, 0)], [(1, 0, 0)]
    for _ in range(L):
        pow_d.append(_cubic_mul(pow_d[-1], delta, r))
        pow_d1.append(_cubic_mul(pow_d1[-1], delta1, r))
    ks = []
    for l in range(L + 1):
        acc = [0, 0, 0]
        for j in range(l + 1):
            term = _cubic_mul(pow_d[j], pow_d1[l - j], r)
            for i in range(3):
                acc[i] += ca[l - j] * cb[j] * term[i]
        ks.append(tuple(acc))
    return ks, (N, delta, delta1)


def _reference_tail_bound(p, n, s, v_e, l, vp_table):
    """Minimum over every 0 <= j <= l of the per-term lower bound: l v_e for
    j = 0, l v_e + (n-s) - v_p(j) - j(n-s) for j >= 1 (the common l v_e is
    added once, so the minimum itself runs over integers)."""
    return l * v_e + min([0] + [(n - s) - vp_table[j] - j * (n - s)
                                for j in range(1, l + 1)])


def test_default_truncation():
    """The oracle's integer recurrence of a rational centre runs to
    L = 2p, the length every expansion once had, and its triple recurrence
    runs a cubic centre to L = 3, whatever p is, as far as expand_disk's
    closed forms K_1, K_2 and K_3 reach."""
    for p in (2, 3, 5, 13):
        assert default_truncation(p) == 2 * p
        spec = _spec(p, 1, 1, 1, 1)
        for d, L in ((Fraction(1, 2), 2 * p),
                     (CubicCentre((1, 1, 0), 2, p), 3)):
            exp = _expand(spec, d, Fraction(1, 5))
            assert exp.truncation == L
            assert len(exp.ks) == len(exp.profile()) == L + 1


def test_binom_falling():
    assert binom_falling(5, 2) == 10
    assert binom_falling(-1, 3) == -1
    assert binom_falling(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_falling(3, 5) == 0


def test_frozen_p5_n1_expansion():
    """p=5, n=s=1, a=b=1, d=1/2, v(e)=5/8: c_1 = 0 and c_2 = -4 e^2 with
    v(c_2) = 5/4 = n + 1/(p-1) (the -4 is frozen from the independent
    expansion oracle; the quoted unit 8 deviates by the factor -2).  The
    Fraction centre has r = N e / (delta delta') = -2e, so K_2 = -1."""
    exp = expand_rational(_spec(5, 1, 1, 1, 1), Fraction(1, 2),
                          Fraction(5, 8))
    assert exp.r_factors == (2, 1, -1)
    assert exp.ks[:3] == [1, 0, -1]
    assert exp.profile()[2] == Fraction(5, 4)
    # the same disk in Q_5(pi), pi^8 = 5, e = pi^5, on the tower oracle
    t = make_tower(5, [(8, 5)])
    e = t.gen(0) ** 5
    oracle = tower_expand_disk(_spec(5, 1, 1, 1, 1),
                               t.rational(Fraction(1, 2)), e)
    coeffs = _coeffs(oracle)
    assert coeffs[1].is_zero()
    assert (coeffs[2] - (-4) * e * e).is_zero()
    assert oracle.profile() == exp.profile()


def test_center_on_branch_locus():
    """A centre 0 or 1 is refused by the reference certificate of a
    rational centre, by the oracle's expansion of it and by the oracle's
    expansion of a cubic centre; expand_disk refuses such a cubic centre
    as no case (iii) centre."""
    spec = branch_signature(5, 1, 1, 1)
    for d in (Fraction(0), Fraction(1)):
        for certify in (vp_classify_rational_centre, expand_rational):
            with pytest.raises(CenterOnBranchLocus):
                certify(spec, d, Fraction(5, 8))
    for d in (CubicCentre((0, 0, 0), 1, 3), CubicCentre((2, 0, 0), 2, 3)):
        with pytest.raises(CenterOnBranchLocus):
            expand_cubic(spec, d, Fraction(5, 8))
        with pytest.raises(CertificationFailed, match="case \\(iii\\) centre"):
            expand_disk(spec, d, Fraction(5, 8))


def test_radius_given_once():
    """An expansion takes a CubicCentre with v(e): a tower element or a
    Fraction as the centre raises TypeError naming the one kind, in
    expand_disk and in the oracle's CubicExpansion, and so does a missing
    v(e)."""
    t = make_tower(5, [(8, 5)])
    spec = _spec(5, 1, 1, 1, 1)
    for d in (t.rational(Fraction(1, 2)), t.gen(0) + 2, Fraction(1, 2)):
        kind = type(d).__name__
        with pytest.raises(TypeError, match=f"^expand_disk takes a "
                                            f"CubicCentre, not {kind}$"):
            expand_disk(spec, d, Fraction(5, 8))
        with pytest.raises(TypeError, match="takes a CubicCentre"):
            CubicExpansion(spec, d, Fraction(5, 8), [1], (2, 1, -1))
    d = CubicCentre((1, 1, 0), 2, 5)
    with pytest.raises(TypeError, match="v_e"):
        expand_disk(spec, d)
    for v_e in (None, t.gen(0) ** 5):
        with pytest.raises(TypeError, match="v\\(e\\) is an int or a "
                                            "Fraction"):
            expand_disk(spec, d, v_e)


def test_frozen_v_c3_identity():
    """p=5, n=2, s=1, a=3, b=10: v(c_3) = 3 v(e) + v(b) - v(3) - 3(n-s)
    = 23/8 at the new-tail disk."""
    spec = branch_signature(5, 2, 3, 10)
    locus = new_tail_locus(spec)
    exp = _expand_locus(spec)
    assert exp.profile()[3] == Fraction(23, 8)
    # the displayed identity, evaluated exactly
    assert exp.profile()[3] == 3 * locus.v_e + 1 - 0 - 3 * (2 - 1)


@pytest.mark.parametrize("p,n,a,b", [(5, 1, 1, 1), (5, 2, 3, 10),
                                     (7, 2, 2, 7)])
def test_valuation_profile_identity(p, n, a, b):
    """Where the j = l term dominates (l >= 3, s < n or the rational-center
    disks), v(c_l) = l v(e) + v(b) - v_p(l) - l(n - s)."""
    spec = branch_signature(p, n, a, b)
    if spec.s == spec.n:
        pytest.skip("identity concerns s < n")
    locus = new_tail_locus(spec)
    exp = _expand_locus(spec)
    for l in range(3, p + 1):
        v = exp.profile()[l]
        if v is None:
            continue
        expected = (l * locus.v_e + (n - spec.s)
                    - vp_rational(Fraction(l), p) - l * (n - spec.s))
        assert v == expected


def test_coefficient_identity_sympy_oracle():
    """c_l = r^l K_l from the oracle's integer recurrence, with
    r = N e / (delta delta') for a rational e, equals the t^l coefficient
    of the direct polynomial expansion of c (d + e t)^a (d + e t - 1)^b."""
    rng = random.Random(77)
    t_sym, e_sym = sp.symbols("t e")
    for _ in range(8):
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        d = Fraction(rng.randint(2, 9), rng.randint(2, 9) * 2 + 1)
        if d == 1:
            continue
        e = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        spec = _spec(5, 1, a, b, 1)
        exp = expand_rational(spec, d, vp_rational(e, 5))
        N, delta, delta1 = exp.r_factors
        r = e * N / (delta * delta1)
        dq = sp.Rational(d.numerator, d.denominator)
        eq = sp.Rational(e.numerator, e.denominator)
        c = dq ** (-a) * (dq - 1) ** (-b)
        poly = sp.expand(c * (dq + eq * t_sym) ** a * (dq + eq * t_sym - 1) ** b)
        for l in range(0, min(10, a + b) + 1):
            want = Fraction(sp.nsimplify(poly.coeff(t_sym, l)))
            assert r ** l * exp.ks[l] == want


def test_verdict_p5_n1():
    spec = branch_signature(5, 1, 1, 1)
    verdict = certify_tail(spec)
    assert verdict.kind == "SplitsArtinSchreier"
    assert verdict.count == 1
    assert verdict.conductor == 2
    assert "condition (i)" in verdict.notes


def test_verdict_p3_condition_ii():
    spec = branch_signature(3, 2, 1, 3)
    locus = new_tail_locus(spec)
    exp = expand_disk(spec, locus.d, locus.v_e)
    verdict = classify_torsor_reduction(exp)
    assert verdict.kind == "SplitsArtinSchreier"
    assert verdict.count == 3
    assert "condition (ii)" in verdict.notes
    # the quoted valuations: v(c_1) = n + 5/12, v(c_3) = n + 1/4, read by
    # the oracle from the K_l of expand_disk
    profile = CubicExpansion.of_disk(exp).profile()
    assert profile[1] == 2 + Fraction(5, 12)
    assert profile[3] == 2 + Fraction(1, 4)


def test_cubic_certificate_runs_the_tail_check_last(monkeypatch):
    """classify_torsor_reduction runs the tail check above tau past c_3
    after its clauses.  On the case (iii) locus disk, where every clause
    holds, it runs once, at v(e) with L = 3 and tau = n + 1/2, and a check
    doctored to fail raises its PrecisionExhausted with its message.  On a
    disk where a clause fails, NotCertified names it and the check does
    not run."""
    import padic_sr.series as series
    message = "tail slope is not positive"
    calls = []

    def failing(*args, **kw):
        calls.append(args[1:])
        raise PrecisionExhausted(message)

    spec = branch_signature(3, 3, 1, 9)
    locus = new_tail_locus(spec)
    monkeypatch.setattr(series, "check_tail_dominated", failing)
    with pytest.raises(PrecisionExhausted, match=rf"^{re.escape(message)}$"):
        classify_torsor_reduction(expand_disk(spec, locus.d, locus.v_e))
    assert calls == [(locus.v_e, 3, Fraction(7, 2))], calls
    verdict = classify_torsor_reduction(
        expand_disk(spec, locus.d, locus.v_e - Fraction(1, 2)))
    assert verdict.reason == "v(c_1) <= n"
    assert len(calls) == 1


def _crafted(spec, coeffs):
    """The TowerExpansion of a crafted profile c_0 .. c_L in Q_5(pi),
    pi^8 = 5, on the disk of centre 1/2 and e = pi^5, made from the list,
    with r = 1.  classify_expansion reads it as it is, its tail
    premises v_5(d) = v_5(d - 1) = 0 from the tower."""
    t = coeffs[0].tower
    return TowerExpansion(spec, t.rational(Fraction(1, 2)), t.gen(0) ** 5,
                          coeffs)


def test_not_certified_min_at_p_index():
    t = make_tower(5, [(8, 5)])
    spec = _spec(5, 1, 1, 1, 1)
    coeffs = [t.one(), t.zero(), t.zero(), t.zero(), t.zero(),
              t.gen(0) ** 10, t.zero()]
    verdict = classify_expansion(_crafted(spec, coeffs))
    assert verdict.kind == "NotCertified"
    assert verdict.reason == "minimum at index divisible by p"


def test_classifier_refuses_unnormalized_expansion():
    """The general classifier of the oracle: c_0 must be 1, read as
    K_0 == 1 of the expansion, on a Fraction centre and on a cubic centre,
    and the expansion must reach c_p, which raised IndexError before it was
    checked."""
    spec = _spec(5, 1, 1, 1, 1)
    for d, ks in ((Fraction(1, 2), []), (Fraction(1, 2), [2] + [0] * 10),
                  (CubicCentre((1, 1, 0), 2, 5), [(2, 0, 0)] +
                   [(0, 0, 0)] * 10)):
        exp = _expansion(spec, d, Fraction(5, 8), ks, (2, 1, -1))
        with pytest.raises(ValueError, match="normalized to c_0 = 1"):
            classify_expansion(exp)
    for d, ks in ((Fraction(1, 2), [1, 1, 0]), (Fraction(1, 2), [1] * 5),
                  (CubicCentre((1, 1, 0), 2, 5), [(1, 0, 0)] * 3)):
        exp = _expansion(spec, d, Fraction(5, 8), ks, (2, 1, -1))
        with pytest.raises(ValueError, match=rf"^expansion stops at "
                                             rf"c_{len(ks) - 1}, before "
                                             rf"c_p = c_5$"):
            classify_expansion(exp)


def test_verdict_json_keys():
    spec = branch_signature(2, 3, 1, 6)
    verdict = certify_tail(spec)
    doc = verdict.to_json()
    assert doc["kind"] == "SplitsZ4"
    assert doc["count"] == 2
    assert doc["first_upper_jump"] == 1


def test_tail_bound_is_a_true_lower_bound():
    spec = branch_signature(5, 2, 3, 10)
    locus = new_tail_locus(spec)
    ks, r_factors = _reference_ks(spec, locus.d, 12)
    exp = RationalExpansion(spec, locus.d, locus.v_e, ks, r_factors)
    for l in range(1, 13):
        v = exp.profile()[l]
        if v is None:
            continue
        assert v >= tail_bound(spec, locus.v_e, l)


@pytest.mark.parametrize("p,n,a,b,case", [
    (5, 2, 3, 10, "rational"), (13, 1, 1, 1, "rational"),
    (11, 1, 3, -7, "rational"), (3, 3, 1, -6, "rational"),
    (3, 2, 1, 3, "p3s1"), (3, 2, 2, -3, "p3s1"), (3, 2, 4, 6, "p3s1"),
    (2, 3, 1, 6, "p2"), (2, 4, 3, -8, "p2"), (2, 3, 1, -2, "p2"),
])
def test_expansion_matches_double_sum(p, n, a, b, case):
    """The recurrence gives exactly the coordinates of the double sum at the
    default truncation, for every new-tail locus case: the tower oracle's
    coefficients, and the oracle's K_l of a rational centre, to c_2p, and of
    a cubic centre, to c_3, where expand_disk's closed forms give K_1, K_2
    and K_3 too."""
    spec = branch_signature(p, n, a, b)
    locus = new_tail_locus(spec)
    assert isinstance(locus.d, CubicCentre) == (case == "p3s1")
    assert (spec.p == 2) == (case == "p2")
    d, e = _tower_disk(spec, locus)
    L = default_truncation(p)
    exp = tower_expand_disk(spec, d, e)
    want = _reference_expansion(spec, d, e, L)
    assert len(_coeffs(exp)) == L + 1
    assert [c.coords for c in _coeffs(exp)] == [c.coords for c in want]
    if case != "p2":
        # the integers, or the triples in Z[t]/(t^3 - r), of the double sum
        fast = _expand(spec, locus.d, locus.v_e)
        assert fast.truncation == (3 if case == "p3s1" else L)
        assert (fast.ks, fast.r_factors) == \
            _reference_ks(spec, locus.d, fast.truncation)
        if case == "p3s1":
            assert list(expand_disk(spec, locus.d, locus.v_e).ks) == \
                fast.ks[1:]


DOUBLE_SUM_CASES = [
    (5, 2, 3, 10), (13, 1, 1, 1), (11, 1, 3, -7), (3, 3, 1, -6), (3, 2, 1, 3),
    (3, 2, 2, -3), (3, 2, 4, 6), (2, 3, 1, 6), (2, 4, 3, -8), (2, 3, 1, -2),
]


def _eager_profile(tower, coeffs):
    return [None if c.is_zero() else tower.val(c) for c in coeffs]


def _check_against_reference(spec, d, e, centre=None):
    """profile() and the coefficients of the tower oracle both agree with
    the double sum, and so does the profile of the same disk given as a
    Fraction or cubic centre with v(e), when there is one, as far as it
    runs."""
    want = _reference_expansion(spec, d, e, default_truncation(spec.p))
    eager = _eager_profile(d.tower, want)
    exp = tower_expand_disk(spec, d, e)
    assert exp.profile() == eager
    assert [c.coords for c in _coeffs(exp)] == [c.coords for c in want]
    assert exp.profile() == _eager_profile(d.tower, _coeffs(exp))
    if centre is not None:
        prof = _expand(spec, centre, exp.v_e).profile()
        assert prof == eager[:len(prof)]


@pytest.mark.parametrize("p,n,a,b", DOUBLE_SUM_CASES)
def test_profile_matches_eager_valuations(p, n, a, b):
    """The profile read off the recurrence values K_l equals the valuations
    of the eagerly built coefficients, on every new-tail locus case."""
    spec = branch_signature(p, n, a, b)
    locus = new_tail_locus(spec)
    d, e = _tower_disk(spec, locus)
    _check_against_reference(spec, d, e,
                             None if spec.p == 2 else locus.d)


def test_profile_matches_eager_valuations_off_locus():
    """The same oracle at seeded random centres that are not a/(a+b):
    rationals whose numerator, denominator or d - 1 may be divisible by p
    (so v(N), v(d) and v(d-1) all enter the valuation slope), given as
    Fractions too, and tower centres with a non-integral generator
    coordinate."""
    rng = random.Random(5)
    checked = 0
    for p in (3, 5, 7):
        tower = _q_p_pi(p)
        pi = tower.gen(0)
        for _ in range(6):
            d = Fraction(rng.randint(-30, 30) * rng.choice((1, p)),
                         rng.randint(1, 30) * rng.choice((1, p)))
            if d in (0, 1):
                continue
            spec = _spec(p, 2, rng.randint(1, 6), rng.randint(-9, 12), 1)
            e = pi ** rng.randint(0, 4 * (p - 1))
            _check_against_reference(spec, tower.rational(d), e, d)
            centre = tower.rational(d) + Fraction(rng.randint(1, 9),
                                                  rng.randint(1, 9)) * pi
            if p < 7:
                _check_against_reference(spec, centre, e)
            checked += 1
    assert checked >= 15


def _identity_grid_odd_covers():
    """Every cover of the odd-p and large-p parts of the identity grid
    whose new-tail locus is built: p in {3, 5, 7, 11, 13} with n <= 4,
    1 <= a <= 4 and -6 <= b <= 12; p in {17, 23, 37} with n <= 2, a <= 2
    and -10 <= b < 20."""
    parts = [((3, 5, 7, 11, 13), range(1, 5), range(1, 5), range(-6, 13)),
             ((17, 23, 37), range(1, 3), range(1, 3), range(-10, 20))]
    for primes, ns, as_, bs in parts:
        for p in primes:
            for n in ns:
                for a in as_:
                    for b in bs:
                        try:
                            spec = branch_signature(p, n, a, b)
                            locus = new_tail_locus(spec)
                        except ArtifactError:
                            continue
                        yield spec, locus


def _identity_grid_rational_covers():
    """The rational-centre covers of _identity_grid_odd_covers."""
    for spec, locus in _identity_grid_odd_covers():
        if isinstance(locus.d, Fraction):
            yield spec, locus


def test_rational_centre_matches_the_tower_path():
    """The Fraction centre with v(e) in closed form gives the expansion and
    verdict that the same disk gives over Q_p(pi), pi^(2(p-1)) = p, with
    e = pi^((2n-s)(p-1)+1), on the tower oracle: the oracle's integer
    recurrence gives the same K_l, v(e), scale, slope and scaled profile,
    and certify_tail, in closed form, the verdict of the Fraction reference
    classifier, on every rational-centre cover of the identity grid."""
    covers = 0
    for spec, locus in _identity_grid_rational_covers():
        fast = expand_rational(spec, locus.d, locus.v_e)
        d, e = _tower_disk(spec, locus)
        slow = tower_expand_disk(spec, d, e)
        assert fast.ks == slow.ks, spec
        assert (fast.v_e, fast.scale, fast.slope) == \
            (slow.v_e, slow.scale, slow.slope), spec
        assert fast.scale == 2 * (spec.p - 1)
        assert fast.scaled_profile() == slow.scaled_profile(), spec
        assert _verdict_or_error(certify_tail, spec) == \
            _verdict_or_error(_reference_classify, slow), spec
        covers += 1
    assert covers > 1000, covers


def _case_iii_grid():
    """Every case (iii) cover (p = 3, s = 1 < n) with n <= 5, 1 <= a <= 7
    and -20 <= b < 30."""
    for n in range(2, 6):
        for a in range(1, 8):
            for b in range(-20, 30):
                try:
                    spec = branch_signature(3, n, a, b)
                except ArtifactError:
                    continue
                if spec.s == 1:
                    yield spec


def test_cubic_centre_matches_the_tower_path():
    """The case (iii) centre as integer triples of Z[t]/(t^3 - r), expanded
    by the oracle's triple recurrence, gives the v(e), scale, slope and
    scaled profile that the same disk gives in Q_3(pi)(t), pi^4 = 3, with
    e = pi^(4n-1), on the tower oracle, as far as it runs (to c_3, the
    tower to c_6), and the verdict of the Fraction reference classifier
    there, on every cover of the case (iii) grid; there expand_disk's
    closed forms give the same K_1, K_2 and K_3 and certify_tail the same
    verdict.  Seeded centres off the locus, (c_0 + c_1 t + c_2 t^2)/den
    with 3 dividing some coordinates, reach the failing tail premises and
    condition (ii)'s failing clauses on the oracle and the tower alike,
    and expand_disk refuses each of them."""
    def agree(spec, locus):
        fast = expand_cubic(spec, locus.d, locus.v_e)
        slow = tower_expand_disk(spec, *cubic_tower_disk(locus))
        assert (fast.v_e, fast.scale, fast.slope) == \
            (slow.v_e, slow.scale, slow.slope), (spec, locus.d)
        assert fast.truncation == 3
        assert fast.scaled_profile() == slow.scaled_profile()[:4], \
            (spec, locus.d)
        want = _verdict_or_error(_reference_classify, slow)
        assert _verdict_or_error(classify_expansion, fast) == want, \
            (spec, locus.d)
        return fast, want

    rng = random.Random(3)
    covers, seen = 0, set()
    for spec in _case_iii_grid():
        locus = new_tail_locus(spec)
        assert isinstance(locus.d, CubicCentre)
        assert locus.d[:2] == ((spec.a, 1, 0), spec.a + spec.b), spec
        oracle, got = agree(spec, locus)
        assert got.kind == "SplitsArtinSchreier", spec
        assert oracle.scale == 12
        assert list(expand_disk(spec, locus.d, locus.v_e).ks) == \
            oracle.ks[1:], spec
        assert certify_tail(spec) == got, spec
        covers += 1
        if covers % 4 == 0:
            nums = tuple(rng.choice((1, 3, 9)) * rng.randint(-9, 9)
                         for _ in range(3))
            den = rng.choice((1, 2, 3, 7, 9))
            g = math.gcd(den, *nums)  # lowest terms, as the tower keeps d
            nums, den = tuple(c // g for c in nums), den // g
            if nums in ((0, 0, 0), (den, 0, 0)):
                continue
            off = SimpleNamespace(d=CubicCentre(nums, den, locus.d.r),
                                  v_e=locus.v_e)
            _, got = agree(spec, off)
            seen.add(got[0] if isinstance(got, tuple) else got.reason)
            if off.d != locus.d:
                with pytest.raises(CertificationFailed,
                                   match="case \\(iii\\) centre"):
                    expand_disk(spec, off.d, off.v_e)
    assert covers == 223, covers
    assert {"PrecisionExhausted", "v(c_1) <= n",
            "v(c_p - c_1^p / p^((p-1)n+1)) <= n + 1/(p-1)"} <= seen, seen


def test_cubic_valuation_matches_the_norm():
    """E v(x) of a triple x = c_0 + c_1 t + c_2 t^2, t^3 = r, the least
    v_p(c_j) + j v(t), equals E v_p(N(x)) / 3 with N(x) = c_0^3 + r c_1^3 +
    r^2 c_2^3 - 3 r c_0 c_1 c_2 the norm from Q(t), as Q_p(t) is totally
    ramified of degree 3: the oracle's valuation, and for p = 3 the
    certificate's.  Seeded triples with zero coordinates and
    coordinates divisible by p, over radicands with v_p(r) prime to 3, of
    either sign, for several primes."""
    rng = random.Random(24)
    checked = 0
    for p in (2, 3, 5, 7):
        for _ in range(60):
            vr = rng.choice([k for k in range(1, 9) if k % 3])
            unit = rng.choice([u for u in range(-40, 41) if u % p])
            r = p ** vr * unit
            spec = _spec(p, 1, 1, 1, 1)
            exp = expand_cubic(spec, CubicCentre((1, 1, 0), 2, r),
                               Fraction(1, 4))
            for _ in range(10):
                x = tuple(rng.choice((0, 1, p, p * p)) *
                          rng.randint(-50, 50) for _ in range(3))
                if not any(x):
                    continue
                c0, c1, c2 = x
                norm = (c0 ** 3 + r * c1 ** 3 + r * r * c2 ** 3
                        - 3 * r * c0 * c1 * c2)
                assert 3 * exp._scaled_val(x) == \
                    exp.scale * vp_int(norm, p), (p, r, x)
                if p == 3:  # the certificate's own valuation, E = 6
                    assert 3 * _val3(x, 6, 2 * vr) == 6 * vp_int(norm, 3), \
                        (r, x)
                checked += 1
    assert checked > 2000, checked


def test_no_truncation_changes_a_verdict():
    """Expanding past c_3 cannot change a verdict: on every odd-p cover
    of the identity grid, the expansion to L = 3p and to L = 40 (where
    that is past 2p), built by the defining double sum and classified
    by the oracle's general classifier through the list constructor, gets
    certify_tail's verdict, every field of it: the closed form's at a
    rational centre and at a cubic one."""
    covers = 0
    for spec, locus in _identity_grid_odd_covers():
        p = spec.p
        want = _outcome(certify_tail, spec)
        for L in (3 * p, 40):
            if L <= 2 * p:
                continue
            ks, r_factors = _reference_ks(spec, locus.d, L)
            exp = _expansion(spec, locus.d, locus.v_e, ks, r_factors)
            assert exp.truncation == L
            assert _outcome(classify_expansion, exp) == want, (spec, L)
        covers += 1
    assert covers > 1000, covers


#: covers of large n, and the verdict kind each certifies with
LARGE_N_COVERS = [
    ((3, 45, 1, 3 ** 44), "SplitsArtinSchreier"),  # case (iii)
    ((5, 40, 1, 5 ** 39), "SplitsArtinSchreier"),  # case (ii)
    ((2, 57, 1, 3 * 2 ** 56), "SplitsZ4"),  # case (v)
    ((3, 200, 1, 3 ** 199), "SplitsArtinSchreier"),
    ((2, 300, 1, 3 * 2 ** 299), "SplitsZ4"),
]


@pytest.mark.parametrize("args,kind", LARGE_N_COVERS)
def test_large_n_covers_certify(monkeypatch, args, kind):
    """The tail check covers every l, however large n is: these covers
    certify end to end, and their tail checks read no per-l bound.  A check
    that tested its bound past a fixed horizon at one l only refused each
    of them as "closed-form tail bound too weak"."""
    import padic_sr.series as series
    calls = []
    monkeypatch.setattr(series, "tail_bound",
                        lambda *a: calls.append(a) or tail_bound(*a))
    assert certify_tail(branch_signature(*args)).kind == kind
    assert calls == []
    assert analyze(*args)["certified"] is True


def test_closed_forms_of_h1_h2_h3_sympy():
    """The closed forms of the series module docstring, as identities of
    rational functions in a, b and d, against the defining sum h_l =
    sum_j C(a, l-j) C(b, j) d^(j-l) (d-1)^(-j) with falling-factorial
    binomials: h_1, h_2 and h_3 in the power sums S_k = a/d^k +
    b/(d-1)^k, their values at d = a/(a+b), and S_k = N^k T_k /
    (delta delta')^k at d = delta/N, T_k = a delta'^k + b delta^k."""
    a, b, d, N, delta = sp.symbols("a b d N delta")
    m = a + b

    def binom(x, k):
        return sp.ff(x, k) / sp.factorial(k)

    h = [sum(binom(a, l - j) * binom(b, j) * d ** (j - l) * (d - 1) ** (-j)
             for j in range(l + 1)) for l in range(4)]
    S = [None] + [a / d ** k + b / (d - 1) ** k for k in (1, 2, 3)]
    assert sp.cancel(h[1] - S[1]) == 0
    assert sp.cancel(h[2] - (S[1] ** 2 - S[2]) / 2) == 0
    assert sp.cancel(h[3] - (S[1] ** 3 - 3 * S[1] * S[2] + 2 * S[3]) / 6) == 0
    at = {d: a / m}
    assert sp.cancel(h[1].subs(at)) == 0
    assert sp.cancel(h[2].subs(at) + m ** 3 / (2 * a * b)) == 0
    assert sp.cancel(h[3].subs(at)
                     - m ** 4 * (b - a) / (3 * a ** 2 * b ** 2)) == 0
    delta1 = delta - N
    for k in (1, 2, 3):
        T = a * delta1 ** k + b * delta ** k
        assert sp.cancel(S[k].subs(d, delta / N)
                         - N ** k * T / (delta * delta1) ** k) == 0


def test_closed_forms_of_k1_k2_k3_sympy():
    """The closed forms of the series module docstring ("Cubic centres"),
    as identities of polynomials in a, b and r: K_l = sum_j C(a, l-j)
    C(b, j) delta^j delta'^(l-j) at delta = a + t, delta' = t - b, reduced
    mod t^3 - r, equals the triple expand_disk writes down; the derivative
    identity P_l' = (m - l + 1) P_(l-1) and the values P_2(a/m) and
    P_3(a/m) that the docstring's Taylor expansion reads; and the closed
    form of the defect Y = 3^M K_3 - m^3 r at r = 3^M C(b, 3),
    M = 2n + 1.  expand_disk gives those triples on a few covers."""
    a, b, r, t, d, w = sp.symbols("a b r t d w")
    m = a + b

    def binom(x, k):
        return sp.ff(x, k) / sp.factorial(k)

    def reduced(expr):
        rem = sp.rem(sp.Poly(sp.expand(expr), t), sp.Poly(t ** 3 - r, t))
        return tuple(rem.as_expr().coeff(t, j) for j in range(3))

    closed = [(0, m, 0),
              (-a * b * m / 2, 0, m * (m - 1) / 2),
              (m * (2 * a * b * (a - b) + (m - 1) * (m - 2) * r) / 6,
               -a * b * m * (m - 2) / 2, 0)]
    P = [sum(binom(a, l - j) * binom(b, j) * d ** j * (d - 1) ** (l - j)
             for j in range(l + 1)) for l in range(5)]
    for l in (1, 2, 3):
        K = sum(binom(a, l - j) * binom(b, j) * (a + t) ** j
                * (t - b) ** (l - j) for j in range(l + 1))
        assert all(sp.expand(u - v) == 0
                   for u, v in zip(reduced(K), closed[l - 1])), l
        assert sp.cancel(K - m ** l * P[l].subs(d, (a + t) / m)) == 0
    for l in range(1, 5):
        assert sp.expand(sp.diff(P[l], d) - (m - l + 1) * P[l - 1]) == 0
    x = a / m
    assert sp.cancel(P[2].subs(d, x) + a * b / (2 * m)) == 0
    assert sp.cancel(P[3].subs(d, x) - a * b * (a - b) / (3 * m ** 2)) == 0
    # Y at r = w C(b, 3), w = 3^M: the docstring's first coordinate
    y0 = (w * closed[2][0] - m ** 3 * r).subs(r, w * b * (b - 1) * (b - 2) / 6)
    want = (w / 3 * m * (m - 2) / 2
            * ((m - 1) * r - b ** 2 * (b * (m - 1) - 3 * a))
            ).subs(r, w * b * (b - 1) * (b - 2) / 6)
    assert sp.expand(y0 - want) == 0
    for args in ((3, 2, 1, 3), (3, 3, 2, -9), (3, 5, 4, 81)):
        spec = branch_signature(*args)
        locus = new_tail_locus(spec)
        subs = {a: spec.a, b: spec.b, r: locus.d.r}
        exp = expand_disk(spec, locus.d, locus.v_e)
        assert exp.ks == tuple(tuple(int(sp.sympify(c).subs(subs)) for c in k)
                               for k in closed), args


def _rational_centre_covers():
    """The rational-centre covers of the identity grid, of LARGE_N_COVERS
    and of COSTLY_IN_P."""
    yield from (spec for spec, _ in _identity_grid_rational_covers())
    for args in [args for args, _ in LARGE_N_COVERS] + COSTLY_IN_P[3:]:
        spec = branch_signature(*args)
        if isinstance(new_tail_locus(spec).d, Fraction) and spec.p != 2:
            yield spec


def test_closed_form_matches_the_integer_recurrence():
    """certify_tail of a rational centre, the shape's verdict, is the
    verdict of the integer recurrence to c_2p and its classification
    (tests/rational_oracle.py), every field of it, on every
    rational-centre cover of the identity grid, of the large-n covers and
    of the p = 3, n = 1 covers, whose c_3 the closed form reads.  On
    doctored specs whose premises fail, which the cover rule refuses in
    certify_tail, the reference certificate vp_classify_rational_centre
    and the oracle's classifier raise the same error at the centre
    a/(a+b), on stand-ins that no rule checks."""
    covers = 0
    for spec in _rational_centre_covers():
        got = _verdict_or_error(certify_tail, spec)
        assert got == _verdict_or_error(rational_oracle.certify_tail, spec), \
            spec
        assert got.notes == ("condition (i)",) and got.conductor == 2, spec
        covers += 1
    assert covers > 1000, covers
    for args, fields, message in DOCTORED_PREMISES + DOCTORED_PREMISE_ABOVE:
        spec = _stand_in(args, **fields)
        d, v_e = _doctored_locus(spec)
        closed = _verdict_or_error(
            lambda sp: vp_classify_rational_centre(sp, d, v_e), spec)
        oracle = _verdict_or_error(
            lambda sp: classify_expansion(expand_rational(sp, d, v_e)), spec)
        assert closed == oracle == ("PrecisionExhausted", message), spec


#: covers whose expansion to c_2p took from 1 ms to 12 s, and two of
#: p = 3, n = 1, the one shape whose c_3 the closed form reads
COSTLY_IN_P = [(1009, 8, 1, 1009 ** 4), (10007, 3, 1, 10007),
               (100003, 2, 1, 100003), (5, 200, 1, 5 ** 100),
               (3, 1, 1, 1), (3, 1, 2, 5)]


def test_rational_centre_cost_does_not_grow_in_p(monkeypatch):
    """No rational centre is expanded: with expand_disk refused in every
    namespace that holds it, covers with p up to 100003 and n up to 200
    certify by condition (i) with conductor 2, each in a few v_p."""
    def refuse(*args):
        raise AssertionError(f"expand_disk{args[1:]} was called")

    holders = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "padic_sr"
               and getattr(module, "expand_disk", None) is expand_disk]
    # analyzer holds no expand_disk: its certify_tail builds no expansion
    assert {module.__name__ for module in holders} >= {
        "padic_sr", "padic_sr.series"}, holders
    for module in holders:
        monkeypatch.setattr(module, "expand_disk", refuse)
    for p, n, a, b in COSTLY_IN_P:
        verdict = certify_tail(branch_signature(p, n, a, b))
        assert verdict == ReductionVerdict(
            "SplitsArtinSchreier", count=p ** (n - 1), conductor=2,
            notes=("condition (i)",)), (p, n)


#: (cover, fields replaced in its spec, the premise that fails): each spec
#: fails one premise of the tail bound, and the last fails only
#: v_p(b) = n - s: d = 1/6 has v(d) = 0 and v(d - 1) = 1 = n - s, but
#: v_5(25) = 2
DOCTORED_PREMISES = [
    ((5, 2, 1, 1), {"a": 5}, "tail bound needs v(d) = 0"),
    ((5, 2, 3, 10), {"b": 3}, "tail bound needs v(d - 1) = n - s"),
    ((5, 2, 3, 10), {"a": 5, "b": 25}, "tail bound needs v(b) = n - s"),
]

#: the same, failing v(d - 1) = n - s = 1 from above: d = 1/26 has
#: v(d - 1) = 2, so the test of p^(n-s) against d - 1 must be exact
DOCTORED_PREMISE_ABOVE = [
    ((5, 2, 3, 10), {"a": 1, "b": 25}, "tail bound needs v(d - 1) = n - s"),
]


#: the same for the case (iii) centre (a + t)/(a+b), t^3 = 3^(2n+1) C(b, 3),
#: whose certificate checks v_3(b) = n - s before it values a triple.  In
#: the first two 3 divides v_3(r) = 2n + v_3(b), so t has no valuation of
#: the certificate's form, and the oracle's triple recurrence raised
#: ValueError there; in the third b = 0, where it raised ZeroElement; the
#: fourth fails only v(d) = 0 (v(d) = 5/3 - 1) and the last only
#: v(d - 1) = n - s (v(d) = 1 - 1, v(d - 1) = 1 - 1)
DOCTORED_CUBIC_PREMISES = [
    ((3, 2, 1, 3), {"b": 9}, "tail bound needs v(b) = n - s"),
    ((3, 3, 1, 9), {"b": 27}, "tail bound needs v(b) = n - s"),
    ((3, 2, 1, 3), {"b": 0}, "tail bound needs v(b) = n - s"),
    ((3, 2, 1, 3), {"a": 9}, "tail bound needs v(d) = 0"),
    ((3, 2, 1, 3), {"a": 3}, "tail bound needs v(d - 1) = n - s"),
]


#: the fact of the cover rule that each doctored spec above breaks first,
#: by (p, n, a, b, s)
FIRST_BROKEN_FACT = {
    (5, 2, 5, 1, 2): "v_p(a) = 0 fails",
    (5, 2, 3, 3, 1): "v_p(b) = n - s fails",
    (5, 2, 1, 25, 1): "v_p(b) = n - s fails",
    (5, 2, 5, 25, 1): "v_p(b) = n - s fails",
    (3, 2, 1, 9, 1): "v_p(b) = n - s fails",
    (3, 3, 1, 27, 1): "v_p(b) = n - s fails",
    (3, 2, 1, 0, 1): "v_p(b) = n - s fails",
    (3, 2, 9, 3, 1): "v_p(a+b) = 0 fails",
    (3, 2, 3, 3, 1): "v_p(a+b) = 0 fails",
}


def _doctored_locus(spec):
    """The centre a/(a+b) and the radius valuation of the new-tail disk of
    a doctored spec, which no CoverSpec has."""
    p, n, s = spec.p, spec.n, spec.s
    return (Fraction(spec.a, spec.a + spec.b),
            Fraction((2 * n - s) * (p - 1) + 1, 2 * (p - 1)))


@pytest.mark.parametrize("args,fields,message",
                         DOCTORED_PREMISES + DOCTORED_CUBIC_PREMISES
                         + DOCTORED_PREMISE_ABOVE)
def test_each_tail_premise_is_checked(args, fields, message):
    """A doctored spec that fails one premise of the tail bound breaks the
    cover rule, and building it is refused with CertificationFailed naming
    the first fact it breaks, at a rational centre and at the cubic centre
    of case (iii), whose certificate derives its premises from the rule.
    The reference certificate vp_classify_rational_centre takes any
    rational centre and checks the premises itself: at a/(a+b), on a
    stand-in that no rule checks, it raises PrecisionExhausted naming the
    premise, each spec reaching its own check."""
    spec = _stand_in(args, **fields)
    key = (spec.p, spec.n, spec.a, spec.b, spec.s)
    with pytest.raises(CertificationFailed,
                       match=rf"^{re.escape(FIRST_BROKEN_FACT[key])}$"):
        replace(branch_signature(*args), **fields)
    if spec.p == 3:
        return
    d, v_e = _doctored_locus(spec)
    with pytest.raises(PrecisionExhausted, match=rf"^{re.escape(message)}$"):
        vp_classify_rational_centre(spec, d, v_e)
    if message.endswith("v(b) = n - s"):
        assert (vp_rational(d, 5), vp_rational(d - 1, 5)) == \
            (0, spec.n - spec.s)


def test_closed_form_names_each_failed_fact():
    """The reference certificate vp_classify_rational_centre refuses,
    naming the fact, a centre other than a/(a+b) on which the premises
    still hold (h_1 != 0: the closed forms of h_2 and h_3 need c_1 = 0),
    and a radius other than the locus's (v(c_2) != tau).  Neither is the
    new-tail disk of a cover, whose verdict is its shape's."""
    spec = branch_signature(5, 2, 3, 10)
    locus = new_tail_locus(spec)
    off = locus.d + 25  # v(d) = 0 and v(d - 1) = 1 = n - s still
    assert (vp_rational(off, 5), vp_rational(off - 1, 5)) == (0, 1)
    assert vp_classify_rational_centre(spec, off, locus.v_e) == \
        ReductionVerdict("NotCertified", reason="h_1 != 0")
    assert vp_classify_rational_centre(
        spec, locus.d, locus.v_e + Fraction(1, 8)) == \
        ReductionVerdict("NotCertified", reason="v(c_2) != n + 1/(p-1)")


#: case (iii) covers of large n, where the closed forms are checked
#: against the triple recurrence too
LARGE_N_CUBIC = [(3, 45, 1, 3 ** 44), (3, 200, 1, 3 ** 199),
                 (3, 60, 2, -2 * 3 ** 59), (3, 31, 5, 7 * 3 ** 30)]


def _case_iii_covers():
    """The covers of the case (iii) grid, then LARGE_N_CUBIC."""
    yield from _case_iii_grid()
    for args in LARGE_N_CUBIC:
        yield branch_signature(*args)


def test_cubic_certificate_matches_the_triple_recurrence():
    """certify_tail at the case (iii) centre, from expand_disk's closed-form
    K_1, K_2 and K_3, gives the verdict of the triple recurrence to c_3
    and the general classifier (tests/rational_oracle.py), every field of
    it, on every cover of the case (iii) grid and on large-n covers; the
    oracle's K_l equal the closed forms there.  The doctored specs that
    fail a premise break the cover rule, and building them is refused
    naming the fact."""
    covers = 0
    for spec in _case_iii_covers():
        got = _verdict_or_error(certify_tail, spec)
        assert got == _verdict_or_error(rational_oracle.certify_tail, spec), \
            spec
        assert got == ReductionVerdict(
            "SplitsArtinSchreier", count=3 ** (spec.n - 1), conductor=2,
            notes=("condition (ii)",)), spec
        locus = new_tail_locus(spec)
        assert list(expand_disk(spec, locus.d, locus.v_e).ks) == \
            expand_cubic(spec, locus.d, locus.v_e).ks[1:], spec
        covers += 1
    assert covers == 223 + len(LARGE_N_CUBIC), covers
    for args, fields, _ in DOCTORED_CUBIC_PREMISES:
        spec = _stand_in(args, **fields)
        key = (spec.p, spec.n, spec.a, spec.b, spec.s)
        assert _verdict_or_error(
            lambda f: replace(branch_signature(*args), **f), fields) == \
            ("CertificationFailed", FIRST_BROKEN_FACT[key]), spec


def test_cubic_certificate_names_each_failed_fact():
    """classify_torsor_reduction refuses a radius other than the locus's,
    naming the first failed clause of condition (ii): as v(c_1) = v(e) +
    2/3, v(c_3) = 3 v(e) - 2n + 1 and v(c_2) = 2 v(e) - n + 1 once the
    premises hold (module docstring), v(e) = n - 2/3 puts v(c_1) at n,
    v(e) = n - 1/3 puts v(c_3) at n with v(c_1) above it, and
    v(e) = n - 1/6 puts v(c_2) above tau with both others above n, where
    Y and the tail bound would pass.  At the locus radius n - 1/4 the
    cover certifies."""
    for args in ((3, 2, 1, 3), (3, 3, 1, 9), (3, 4, 2, -27)):
        spec = branch_signature(*args)
        n, locus = spec.n, new_tail_locus(spec)
        assert locus.v_e == n - Fraction(1, 4)
        for v_e, reason in (
                (n - Fraction(2, 3), "v(c_1) <= n"),
                (n - Fraction(1, 3), "v(c_p) <= n"),
                (n - Fraction(1, 6), "min over i != 1, p is not n + 1/(p-1)")):
            verdict = classify_torsor_reduction(
                expand_disk(spec, locus.d, v_e))
            assert verdict == ReductionVerdict("NotCertified",
                                               reason=reason), (args, v_e)
        assert classify_torsor_reduction(
            expand_disk(spec, locus.d, locus.v_e)).kind == \
            "SplitsArtinSchreier"


def test_cubic_defect_needs_the_cancellation():
    """Condition (ii)'s defect Y = 3^M K_3 - m^3 r, M = 2n + 1, has the
    closed form of the module docstring and v(Y) >= 4n - 1 (or Y = 0, at
    a + b = 2), so E (v(c_3 - c_1^3 / 3^M) - tau) is positive; with m^3 r
    added instead, v(Y) is exactly 3n - 1 and the check would refuse the
    cover.  On every cover of the case (iii) grid and the large-n covers,
    in the certificate's own valuation _val3 at E = 12."""
    zero = 0
    for spec in _case_iii_covers():
        n, a, b = spec.n, spec.a, spec.b
        m, M = a + b, 2 * n + 1
        locus = new_tail_locus(spec)
        r = locus.d.r
        k3 = expand_disk(spec, locus.d, locus.v_e).ks[2]
        assert k3[2] == 0

        def defect(sign):
            return (3 ** M * k3[0] + sign * m ** 3 * r, 3 ** M * k3[1], 0)

        y = defect(-1)
        assert y[:2] == (3 ** (2 * n) * m * (m - 2) * (
            (m - 1) * r - b * b * (b * (m - 1) - 3 * a)) // 2,
            -3 ** M * a * b * m * (m - 2) // 2), spec
        E, et = 12, 12 * n - 4
        margin = 3 * 9 - E * M - (E * n + 6)  # 3 slope - E M - E tau
        if any(y):
            assert _val3(y, E, et) >= E * (4 * n - 1), spec
            assert margin + _val3(y, E, et) > 0, spec
        else:
            assert m == 2, spec
            zero += 1
        assert _val3(defect(1), E, et) == E * (3 * n - 1), spec
        assert margin + _val3(defect(1), E, et) <= 0, spec
    assert zero > 0


def test_expand_disk_refuses_other_centres():
    """The closed forms hold only at (a + t)/(a+b), t^3 = 3^(2n+1) C(b, 3),
    of a cover with p = 3 and s = 1 < n: expand_disk refuses with
    CertificationFailed a cover with p = 5, with s = 2 or with n = 1, each
    at the centre (a + t)/(a+b) of its own a, b, n and s, and a centre
    that differs in one coordinate, the denominator or the radicand only.
    A spec that is no CoverSpec, though its fields are the cover's, raises
    TypeError, so every expansion is of a cover."""
    spec = branch_signature(3, 3, 1, 9)
    d = new_tail_locus(spec).d
    assert isinstance(expand_disk(spec, d, Fraction(11, 4)), DiskExpansion)
    with pytest.raises(TypeError, match=r"^expand_disk takes a CoverSpec, "
                                        r"not SimpleNamespace$"):
        expand_disk(_spec(3, 3, 1, 9, 1), d, Fraction(11, 4))
    (c0, c1, c2), den, r = d

    def own_centre(args):
        other = branch_signature(*args)
        return other, CubicCentre((other.a, 1, 0), other.a + other.b,
                                  _cube_radicand(other.n, other.s, other.b))

    refused = [
        own_centre((5, 3, 1, 25)),  # p = 5, s = 1
        own_centre((3, 3, 1, 3)),  # s = 2
        own_centre((3, 1, 1, 1)),  # n = 1
        (spec, d._replace(nums=(c0 + 3, c1, c2))),
        (spec, d._replace(nums=(c0, c1, 1))),
        (spec, d._replace(den=den + 1)),
        (spec, d._replace(r=3 * r)),
    ]
    for other, centre in refused:
        with pytest.raises(CertificationFailed,
                           match=r"^K_1, K_2 and K_3 are known only at the "
                                 r"case \(iii\) centre"):
            expand_disk(other, centre, Fraction(11, 4))


def test_tail_premises_on_a_fraction_centre():
    """The premises v(d) = 0 and v(d - 1) = n - s are checked with v_p on a
    Fraction centre, by the reference certificate
    vp_classify_rational_centre and by the oracle's expansion, and fail
    with the message the same centre gets in Q_p(pi) on the tower
    oracle."""
    def premises(certify, *args):
        # the message of a failed premise, None when they hold
        kind, what = _outcome(certify, *args)
        return what if kind == "raised" else None

    spec = _spec(5, 2, 3, 10, 1)
    t = _q_p_pi(5)
    messages = set()
    for d in (Fraction(3, 13), Fraction(1, 2), Fraction(5, 3), Fraction(2, 5),
              Fraction(26, 25), Fraction(-4, 1)):
        want = premises(tower_expand_disk(spec, t.rational(d),
                                          t.gen(0) ** 13).check_tail_premises)
        assert premises(vp_classify_rational_centre, spec, d,
                        Fraction(13, 8)) == want, d
        assert premises(expand_rational(spec, d, Fraction(13, 8))
                        .check_tail_premises) == want, d
        messages.add(want)
    assert messages == {None, "tail bound needs v(d) = 0",
                        "tail bound needs v(d - 1) = n - s"}


@pytest.mark.parametrize("p,n,a,b", [(37, 1, 13, 57), (5, 2, 3, 10),
                                     (3, 3, 1, 3)])  # cases (i), (ii), (iv)
def test_rational_centre_needs_no_tower_arithmetic(monkeypatch, p, n, a, b):
    """A rational centre is certified in integers from new_tail_locus to the
    verdict: once the per-process fields are warm, certify_tail builds no
    Tower and multiplies no tower element."""
    spec = branch_signature(p, n, a, b)
    certify_tail(spec)
    calls = {"Tower": 0, "mul": 0}
    init, mul = Tower.__init__, TowerElement.__mul__

    def counted_init(self, *args):
        calls["Tower"] += 1
        return init(self, *args)

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Tower, "__init__", counted_init)
    monkeypatch.setattr(TowerElement, "__mul__", counted_mul)
    locus = new_tail_locus(spec)
    assert isinstance(locus.d, Fraction)
    verdict = certify_tail(spec)
    assert verdict.kind == "SplitsArtinSchreier"
    assert calls == {"Tower": 0, "mul": 0}


def _case_v_grid_and_draws(seed):
    """The p = 2 covers of the identity grid (2 <= n <= 5, 1 <= a <= 12,
    -12 <= b <= 24), then seeded draws with 2 <= n <= 8, |a| <= 99 and
    |b'| <= 99, b' odd, taking the classes of b' mod 8 in turn and b' = +-1
    at every eighth draw.  Inadmissible inputs are skipped, nothing else."""
    for n in range(2, 6):
        for a in range(1, 13):
            for b in range(-12, 25):
                yield 2, n, a, b
    rng = random.Random(seed)
    for draw in range(800):
        n = rng.randint(2, 8)
        s = rng.randint(1, n - 1)
        a = rng.choice((-1, 1)) * rng.randint(1, 99)
        if draw % 8 == 7:
            b_odd = rng.choice((-1, 1))
        else:
            b_odd = rng.choice([u for u in range(-99, 100)
                                if u % 8 == (1, 3, 5, 7)[draw % 4]])
        yield 2, n, a, b_odd * 2 ** (n - s)


def _doctored_case_v_specs(seed):
    """(p, n, a, b, s) of case (v) specs that branch_signature need not make:
    a + b even (so v(a/(a+b)) and v(R) can tie), b' even, and b' = +-1 with
    any a."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < 900:
        n = rng.randint(2, 7)
        s = rng.randint(1, n - 1)
        kind = len(specs) % 3
        a = rng.randint(-99, 99)
        if kind == 0:
            a, b_odd = 2 * rng.randint(-49, 49), rng.randrange(-99, 100, 2)
        elif kind == 1:
            b_odd = 2 * rng.choice((-1, 1)) * rng.randint(1, 49)
        else:
            b_odd = rng.choice((-1, 1))
        b = b_odd * 2 ** (n - s)
        if a and a + b:
            specs.append((2, n, a, b, s))
    return specs


def _verdict_or_error(certify, arg):
    """certify(arg), or the type and message of the error it raises."""
    try:
        return certify(arg)
    except (ArtifactError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _without_cl_reasons(verdict):
    """The verdict with the reasons "v(c_l) < n + 1", l >= 3, dropped: the
    tower path reads c_3 .. c_4, and the closed form reads none of them."""
    if isinstance(verdict, tuple) or verdict.reason is None:
        return verdict
    kept = [r for r in verdict.reason.split("; ")
            if not (r.startswith("v(c_") and r.endswith(") < n + 1"))]
    return ReductionVerdict(verdict.kind, verdict.count, verdict.conductor,
                            "; ".join(kept), verdict.notes)


def test_case_v_closed_form_matches_the_tower_path():
    """certify_tail decides every case (v) spec in closed form as the tower
    path does (the centre in Q_2(i)(w), the expansion to c_L and its
    classifier, now p2_oracle.certify_tail): the same verdict, or the same
    error type and message.  The inputs are the p = 2 identity grid, seeded
    draws with every class of b' mod 8, and doctored specs whose premises
    may fail; there the tower path may also list "v(c_l) < n + 1", which
    the closed form cannot, and every other reason must agree.  Only the
    doctored specs that are covers (a odd with b' = +-1) are compared; the
    others break the cover rule, and building them is refused naming the
    fact."""
    seen = set()
    for args in _case_v_grid_and_draws(31):
        try:
            spec = branch_signature(*args)
        except ArtifactError:
            continue
        new = _verdict_or_error(certify_tail, spec)
        assert new == _verdict_or_error(p2_oracle.certify_tail, spec), args
        seen.add(new[0] if isinstance(new, tuple) else new.kind)
    assert seen == {"SplitsZ4", "IrreducibilityUnverified"}
    compared, refused = 0, 0
    for fields in _doctored_case_v_specs(32):
        spec = _verdict_or_error(lambda f: CoverSpec(*f), fields)
        if not _is_normal_form(_spec(*fields)):
            assert _refused_by_the_cover_rule(spec), fields
            refused += 1
            continue
        new = _verdict_or_error(certify_tail, spec)
        old = _verdict_or_error(p2_oracle.certify_tail, spec)
        assert new == _without_cl_reasons(old), spec
        assert new.kind == "SplitsZ4", spec
        compared += 1
    assert compared >= 100 and refused >= 600, (compared, refused)


def test_case_v_closed_forms_match_the_tower_k_l():
    """The four closed forms of the module docstring, R^2, K_1, K_2 and
    X = K_1^2 - 2^(n+1) i K_2, equal the tower's values on the new-tail
    disk of every case (v) cover of the grid and draws that the tower
    admits, N the denominator of the centre in Q_2(i)(w)."""
    checked = 0
    for args in _case_v_grid_and_draws(33):
        try:
            spec = branch_signature(*args)
            d, e = p2_oracle.tower_locus(spec)
        except ArtifactError:
            continue
        n, a, b = spec.n, spec.a, spec.b
        m = a + b
        i = d.tower.gen(0)
        R = d - Fraction(a, m)
        assert R * R == i * Fraction(2 ** n * b, m ** 4), args
        exp = tower_expand_disk(spec, d, e)
        N = exp.r_factors[0]
        assert exp.ks[1] == R * (N * m), args
        gamma = -a * m ** 2 + (m - 1) * 2 ** n * i
        assert exp.ks[2] == gamma * Fraction(N * N * b, 2 * m ** 3), args
        chi = m + a * m ** 2 - (m - 1) * 2 ** n * i
        x = exp.ks[1] * exp.ks[1] - 2 ** (n + 1) * i * exp.ks[2]
        assert x == chi * i * Fraction(N * N * 2 ** n * b, m ** 3), args
        checked += 1
    assert checked >= 500, checked


#: ((p, n, a, b, s), what building the spec raises): s = 0 and s = n = 3
#: break no cover fact of (2, 3, 1, 8) and (2, 3, 1, 1) but the shape, where
#: v(R) need not lie strictly between v(x) = 0 and v(x - 1) = n - s
P2_NON_COVERS = [
    ((2, 3, 1, 8, 0), "no cover of p = 2, n = 3 has s = 0"),
    ((2, 3, 1, 1, 3), "no cover of p = 2, n = 3 has s = 3"),
    ((2, 3, 2, 6, 2), "v_p(a+b) = 0 fails"),
    ((2, 3, 1, 12, 2), "v_p(b) = n - s fails"),
]


@pytest.mark.parametrize("spec,message", P2_NON_COVERS)
def test_p2_certificate_refuses_a_non_cover(spec, message):
    """The case (v) verdict rests on v(d) = 0 and v(d - 1) = n - s, which
    the cover rule and 1 <= s < n give, and every CoverSpec meets them:
    building a spec that breaks either is refused, with
    CertificationFailed naming what fails, and certify_tail refuses a
    stand-in with its fields, which is no CoverSpec, with TypeError."""
    with pytest.raises(CertificationFailed, match=rf"^{re.escape(message)}$"):
        CoverSpec(*spec)
    with pytest.raises(TypeError, match="^certify_tail takes a "
                                        "CoverSpec, not SimpleNamespace$"):
        certify_tail(_spec(*spec))


@pytest.mark.parametrize("args", [(5, 2, 1, 1), (7, 3, 1, 49),
                                  (3, 3, 1, 9)])
def test_p2_certificate_refuses_an_odd_p(args):
    """The reference certificate vp_classify_p2_torsor applies the closed
    forms of p = 2 only: a cover of odd p, of case (i), (ii) or (iii), is
    refused with ValueError, as vp_classify_rational_centre refuses p = 2,
    and not classified."""
    spec = branch_signature(*args)
    v_e = new_tail_locus(spec).v_e
    with pytest.raises(ValueError, match="^odd p torsors are classified by "):
        vp_classify_p2_torsor(spec, v_e)
    with pytest.raises(ValueError, match="^p = 2 torsors are classified by "):
        vp_classify_rational_centre(branch_signature(2, 3, 1, 6),
                                    Fraction(1, 7), Fraction(5, 2))


def test_cubic_certificate_checks_the_cover_rule():
    """classify_torsor_reduction derives the valuations of its centre from
    the cover rule, and expand_disk takes only a CoverSpec, which meets
    it: building (3, 2, 1, 9, s = 1), where v_3(b) = 2 != n - s and 3
    divides v_3(r), is refused, and a stand-in with its fields is no
    CoverSpec, so expand_disk refuses it even at the centre
    (1 + t)/10."""
    with pytest.raises(CertificationFailed, match=r"^v_p\(b\) = n - s fails$"):
        CoverSpec(3, 2, 1, 9, 1)
    d = CubicCentre((1, 1, 0), 10, _cube_radicand(2, 1, 9))
    with pytest.raises(TypeError, match="takes a CoverSpec"):
        expand_disk(_spec(3, 2, 1, 9, 1), d, Fraction(7, 4))


def test_p2_congruence_needs_no_tower_product(monkeypatch):
    """The p = 2 congruence is decided in closed form, with no tower
    product or inverse at all."""
    spec = branch_signature(2, 3, 1, 6)
    assert new_tail_locus(spec).d == Fraction(1, 7)
    calls = _count_tower_calls(monkeypatch)
    verdict = certify_tail(spec)
    assert "congruence holds with i -> +i" in verdict.notes
    assert calls == {"mul": 0, "inverse": 0}, calls


def _count_tower_calls(monkeypatch):
    """Count Tower multiplications and inverses from now on."""
    calls = {"mul": 0, "inverse": 0}
    mul, inverse = Tower._mul_nums, Tower.inverse

    def counted_mul(self, *args):
        calls["mul"] += 1
        return mul(self, *args)

    def counted_inverse(self, *args):
        calls["inverse"] += 1
        return inverse(self, *args)

    monkeypatch.setattr(Tower, "_mul_nums", counted_mul)
    monkeypatch.setattr(Tower, "inverse", counted_inverse)
    return calls


def test_integer_recurrence_division_is_checked():
    """The integer recurrence divides exactly or raises; it never floors.
    With a = 1/2 the K_l are not integers, so a division by l + 1 leaves a
    remainder, on a Fraction centre (the oracle's) and on a cubic
    centre."""
    spec = _spec(5, 1, Fraction(1, 2), 1, 1)
    for d in (Fraction(1, 3), CubicCentre((1, 1, 0), 3, 5)):
        with pytest.raises(ArithmeticError, match="is not divisible by"):
            _expand(spec, d, Fraction(5, 8))


def test_tail_bound_closed_form_matches_minimum():
    """tail_bound equals the minimum of the per-term bounds over every j,
    with v_e as new_tail_locus sets it, for every s <= n and for s = n + 1,
    which no cover has."""
    cases = 0
    for p in (2, 3, 5, 7, 11, 13, 97):
        vp_table = [None] + [int(vp_rational(Fraction(j), p))
                             for j in range(1, 129)]
        for n in range(1, 7):
            for s in range(1, n + 2):
                v_e = Fraction(2 * n - s + Fraction(1, p - 1), 2)
                spec = _spec(p, n, None, None, s)
                for l in range(1, 129):
                    assert tail_bound(spec, v_e, l) == _reference_tail_bound(
                        p, n, s, v_e, l, vp_table), (p, n, s, l)
                    cases += 1
    assert cases == 7 * 27 * 128


# -- reference implementations of the integer fast paths ----------------------

#: last l the per-l reference reads; its callers pick radii and
#: thresholds whose candidates clear well before it
REFERENCE_TAIL_END = 2048


@cache
def _tail_bounds(p, n, s, v_e):
    """[None, tail_bound(1), ..., tail_bound(REFERENCE_TAIL_END)]."""
    spec = _spec(p, n, None, None, s)
    return [None] + [tail_bound(spec, v_e, l)
                     for l in range(1, REFERENCE_TAIL_END + 1)]


def _reference_check_tail_dominated(spec, v_e, L, threshold, strict=True):
    """check_tail_dominated as a plain loop of tail_bound over every l up to
    REFERENCE_TAIL_END, in Fractions, after refusing a slope
    v_e - (n - s) that is not positive."""
    failure = _reference_tail_failure(spec.p, spec.n, spec.s, v_e, L,
                                      threshold, strict)
    if failure is not None:
        raise PrecisionExhausted(failure)


@cache
def _reference_tail_failure(p, n, s, v_e, L, threshold, strict):
    """The message of _reference_check_tail_dominated, or None when the
    check passes: covers of one shape and radius share it."""
    if v_e - max(n - s, 0) <= 0:
        return "tail slope is not positive"
    bounds = _tail_bounds(p, n, s, v_e)
    for l in range(L + 1, REFERENCE_TAIL_END + 1):
        bnd = bounds[l]
        if not (bnd > threshold or (not strict and bnd >= threshold)):
            return (f"tail coefficient l={l}: bound {bnd} does not clear "
                    f"threshold {threshold}")
    return None


def _reference_classify(exp):
    """classify_expansion on the Fraction profile of a
    TowerExpansion, with the reference tail check."""
    spec = exp.spec
    p, n = spec.p, spec.n
    tower = exp.d.tower
    prof = exp.profile()
    if not (exp.ks[0] - 1).is_zero():  # c_0 = K_0
        raise ValueError("expansion is not normalized to c_0 = 1")
    v_e = tower.val(exp.e)
    if p == 2:
        return _reference_classify_p2(exp, prof, v_e)
    tau = n + Fraction(1, p - 1)
    L = exp.truncation
    finite = [(l, prof[l]) for l in range(1, L + 1) if prof[l] is not None]
    if not finite:
        return ReductionVerdict("NotCertified",
                                reason="all coefficients vanish")
    exp.check_tail_premises()
    _reference_check_tail_dominated(spec, v_e, L, tau, strict=True)
    minv = min(val for _, val in finite)

    def above(start):
        return all(prof[l] is None or prof[l] > tau
                   for l in range(start, L + 1, p))

    if minv == tau and above(p):
        h = max(l for l, val in finite if val == tau)
        return ReductionVerdict("SplitsArtinSchreier", count=p ** (n - 1),
                                conductor=h, notes=("condition (i)",))
    reasons = []
    if not (prof[1] is None or prof[1] > n):
        reasons.append("v(c_1) <= n")
    if not (prof[p] is None or prof[p] > n):
        reasons.append("v(c_p) <= n")
    rest = [(l, val) for l, val in finite if l not in (1, p)]
    if not rest or min(val for _, val in rest) != tau:
        reasons.append("min over i != 1, p is not n + 1/(p-1)")
    if not above(2 * p):
        reasons.append("v(c_i) <= n + 1/(p-1) at an index i > p divisible by p")
    if not reasons:
        r = _r(exp)
        c1, cp = r * exp.ks[1], r ** p * exp.ks[p]
        corr = cp - c1 ** p * Fraction(1, p ** ((p - 1) * n + 1))
        if corr.is_zero() or tower.val(corr) > tau:
            h = max(l for l, val in rest if val == tau)
            return ReductionVerdict("SplitsArtinSchreier", count=p ** (n - 1),
                                    conductor=h, notes=("condition (ii)",))
        reasons.append("v(c_p - c_1^p / p^((p-1)n+1)) <= n + 1/(p-1)")
    if minv == tau:
        bad = [l for l, val in finite if val == minv and l % p == 0]
        if bad and all(val > minv for l, val in finite if l % p != 0):
            return ReductionVerdict(
                "NotCertified", reason="minimum at index divisible by p")
    return ReductionVerdict("NotCertified", reason="; ".join(reasons) or
                            "minimum valuation is not n + 1/(p-1)")


def _reference_classify_p2(exp, prof, v_e):
    spec = exp.spec
    n = spec.n
    tower = exp.d.tower
    if n < 2:
        return ReductionVerdict("NotCertified",
                                reason="p = 2 requires n >= 2")
    tau = Fraction(n + 1)
    reasons = []
    if prof[2] != Fraction(n):
        reasons.append("v(c_2) != n")
    for l in range(3, exp.truncation + 1):
        if prof[l] is not None and prof[l] < tau:
            reasons.append(f"v(c_{l}) < n + 1")
            break
    try:
        exp.check_tail_premises()
        _reference_check_tail_dominated(spec, v_e, exp.truncation, tau,
                                        strict=False)
    except PrecisionExhausted as exc:
        reasons.append(str(exc))
    if reasons:
        return ReductionVerdict("NotCertified", reason="; ".join(reasons))
    notes = ["sqrt(c_2) adjoined on demand"]
    i_elem = _find_i(tower)
    if i_elem is None:
        return ReductionVerdict(
            "NotCertified", reason="tower contains no sqrt(-1)")
    r = _r(exp)
    c1, c2 = r * exp.ks[1], r * r * exp.ks[2]
    lhs = c1 * c1 * c2.inverse()
    for sign in (1, -1):
        diff = lhs - (2 ** (n + 1)) * (i_elem * sign)
        if diff.is_zero() or tower.val(diff) >= n + 2:
            notes.append(
                f"congruence holds with i -> {'+' if sign == 1 else '-'}i")
            return ReductionVerdict("SplitsZ4", count=2 ** (n - 2),
                                    conductor=1, notes=tuple(notes))
    return ReductionVerdict(
        "NotCertified",
        reason="c_1^2/c_2 != 2^(n+1) i mod 2^(n+2) for either i")


def _find_i(tower):
    """A square root of -1 among the tower generators and their squares."""
    for j in range(len(tower.steps)):
        g = tower.gen(j)
        for cand in (g, g * g):
            if (cand * cand + 1).is_zero():
                return cand
    return None


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except PrecisionExhausted as exc:
        return "raised", str(exc)


def _oracle_grid():
    """Every admissible cover with p <= 13, n <= 3, 1 <= a <= 2 and
    -4 <= b <= 6 whose new-tail locus is built: p = 2, n = s and n > s."""
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(2 if p == 2 else 1, 4):
            for a in (1, 2):
                for b in range(-4, 7):
                    try:
                        spec = branch_signature(p, n, a, b)
                        locus = new_tail_locus(spec)
                    except ArtifactError:
                        continue
                    yield spec, locus


def test_classifier_matches_fraction_reference():
    """The integer classifier gives the same verdict, every field of it
    (kind, count, conductor, reason, notes), as the Fraction
    classifier on the oracle grid, and on disks too narrow for the tail
    check, where both must fail the same way.  The integer classifier reads
    the Fraction centre, expanded by the oracle's integer recurrence, or
    the cubic centre with v(e), the Fraction classifier the same disk on
    the tower oracle; at the locus radius certify_tail, in closed form at a
    rational centre, agrees too.  For p = 2 the integer classifier is the
    tower oracle of the closed form, classify_p2."""
    kinds = set()
    for spec, locus in _oracle_grid():
        p = spec.p
        d, radius = _tower_disk(spec, locus)
        narrow = d.tower.gen(0)  # v(e) far below the locus radius
        for e in (radius, narrow):
            oracle = tower_expand_disk(spec, d, e)
            if p == 2:
                fast = _outcome(classify_p2, oracle)
            else:
                fast = _outcome(classify_expansion,
                                _expand(spec, locus.d, oracle.v_e))
            ref = _outcome(_reference_classify, oracle)
            assert fast == ref, (spec, e)
            if e is radius:
                assert _outcome(certify_tail, spec) == ref, spec
            kinds.add((p == 2, spec.n == spec.s, fast[0],
                       fast[1].kind if fast[0] == "ok" else None))
    # the grid reaches both primes' verdicts and the failing tail check
    assert (False, True, "ok", "SplitsArtinSchreier") in kinds
    assert (False, False, "ok", "SplitsArtinSchreier") in kinds
    assert (True, False, "ok", "SplitsZ4") in kinds
    assert (True, False, "ok", "NotCertified") in kinds
    assert any(k[2] == "raised" for k in kinds)


def test_classifier_matches_fraction_reference_on_crafted_profiles():
    """The same agreement on expansions made from lists of monomials
    u pi^k, whose valuations land on, just above and just below n and
    n + 1/(p-1) at every index: the integer classifier reads them as
    scaled integers, the Fraction classifier as Fractions, both on the
    tower oracle."""
    rng = random.Random(11)
    t = make_tower(5, [(8, 5)])
    pi = t.gen(0)
    verdicts = set()
    for n in (1, 2):
        spec = _spec(5, n, 1, 1, n)
        for _ in range(150):
            coeffs = [t.one()] + [
                rng.choice((1, 2, -1)) * pi ** rng.randint(8 * n - 1,
                                                           8 * n + 4)
                if rng.randrange(4) else t.zero()
                for _ in range(10)]
            oracle = _crafted(spec, coeffs)
            fast = _outcome(classify_expansion, oracle)
            ref = _outcome(_reference_classify, oracle)
            assert fast == ref, (n, coeffs)
            verdicts.add(fast[1].reason or fast[1].notes)
    assert len(verdicts) >= 6, verdicts


def test_condition_ii_close_to_its_threshold():
    """Condition (ii) reads only K_1, K_p and the slope E v(r).  At the
    centre a/(a+b) + ... + 9 of the (3, 2, 1, 3) new-tail disk (v(9) = 2 >=
    v(e) = 7/4, so the same disk), E v(c_3 - c_1^3 / 3^5) clears E tau by
    exactly the slope, so a classifier that lost one power of r there would
    refuse the cover.  The centre as integer triples, expanded by the
    oracle's recurrence (expand_disk takes only the locus centre), with
    Y = 3^5 K_3 - K_1^3 read there by the general classifier, agrees with
    the Fraction reference on the tower oracle, which builds the c_l, and
    certifies by condition (ii)."""
    spec = branch_signature(3, 2, 1, 3)
    locus = new_tail_locus(spec)
    d, e = cubic_tower_disk(locus)
    exp = tower_expand_disk(spec, d + 9, e)
    coeffs = _coeffs(exp)
    corr = coeffs[3] - coeffs[1] ** 3 * Fraction(1, 3 ** 5)
    tau = 2 + Fraction(1, 2)
    assert exp.scale * (d.tower.val(corr) - tau) == exp.slope > 0
    (c0, c1, c2), den = locus.d.nums, locus.d.den
    cubic = expand_cubic(spec, CubicCentre((c0 + 9 * den, c1, c2), den,
                                           locus.d.r), locus.v_e)
    assert (cubic.scale, cubic.slope) == (exp.scale, exp.slope)
    assert cubic.scaled_profile() == exp.scaled_profile()[:4]
    verdict = classify_expansion(cubic)
    assert verdict == _reference_classify(exp)
    assert verdict.notes == ("condition (ii)",)


def test_tail_check_matches_per_l_reference():
    """The candidate check passes or raises exactly as the loop over every
    l, with the same message, for thresholds at, just above and just below
    the bound at each l past the truncation, both strictnesses, and radii
    whose slope v_e - (n - s) is positive, zero or negative, or as small as
    1/100, where the walk over the powers of p runs far past L (to 2^10,
    half of REFERENCE_TAIL_END, for p = 2) before it stops.  The specs
    include s = n + 1, which no cover has, where m = n - s is read as 0."""
    def agree(*args):
        fast = _outcome(check_tail_dominated, *args)
        assert fast == _outcome(_reference_check_tail_dominated, *args), args
        return fast[0] == "raised"

    checked = failed = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 4):
            for s in range(1, n + 2):
                spec = _spec(p, n, None, None, s)
                E = 2 * (p - 1)
                v_e = Fraction(2 * n - s + Fraction(1, p - 1), 2)
                for ve in (v_e, Fraction(n - s), Fraction(n - s, 2) +
                           Fraction(1, E)):
                    for L in (p + 1, 2 * p, 70):
                        bounds = {tail_bound(spec, ve, l)
                                  for l in range(L + 1, L + p + 3)}
                        for b in bounds:
                            for thr in (b, b - Fraction(1, E),
                                        b + Fraction(1, E)):
                                for strict in (True, False):
                                    failed += agree(spec, ve, L, thr, strict)
                                    checked += 1
                small = n - s + Fraction(1, 100)
                for thr in (Fraction(-100), Fraction(0)):
                    failed += agree(spec, small, p + 1, thr, True)
                    checked += 1
    assert failed and failed < checked


def test_tail_check_on_the_locus_needs_no_per_l_bound(monkeypatch):
    """At the locus radius the candidates clear the threshold, so the
    per-l fallback never runs: no tail_bound call per cover."""
    import padic_sr.series as series
    calls = []
    monkeypatch.setattr(series, "tail_bound",
                        lambda *args: calls.append(args) or tail_bound(*args))
    for args in ((5, 1, 1, 1), (5, 2, 3, 10), (37, 1, 13, 57), (3, 2, 1, 3),
                 (2, 3, 1, 6), (7, 3, 2, 7)):
        certify_tail(branch_signature(*args))
    assert calls == []


#: two covers of one shape for each kind of centre: rational (case ii),
#: cubic (case iii) and case (v)
SHAPE_PAIRS = [((5, 2, 3, 10), (5, 2, 1, 5)), ((3, 2, 1, 3), (3, 2, 2, 3)),
               ((2, 3, 1, 6), (2, 3, 3, 2))]


def _count_tail_checks(monkeypatch):
    """The list of the arguments past the spec of every check_tail_dominated
    call the analyzer makes from now on."""
    import padic_sr.analyzer as analyzer
    calls = []
    monkeypatch.setattr(analyzer, "check_tail_dominated",
                        lambda *args, **kw: calls.append(args[1:]) or
                        check_tail_dominated(*args, **kw))
    return calls


def test_one_tail_check_per_shape(monkeypatch):
    """The tail verdict is a fact of the shape: two covers of one shape get
    equal verdicts from certify_tail and its JSON from analyze.  Each
    certify_tail call runs the tail check once, and analyze once per miss
    of the shape cache, cleared first: at the locus radius, with the
    shape's L, threshold and strictness."""
    calls = _count_tail_checks(monkeypatch)
    _report_shape.cache_clear()
    checks = [(Fraction(13, 8), 2, Fraction(9, 4), True),
              (Fraction(7, 4), 3, Fraction(5, 2), True),
              (Fraction(5, 2), 2, Fraction(4), False)]
    for pair, check in zip(SHAPE_PAIRS, checks):
        del calls[:]
        first, second = (certify_tail(branch_signature(*args))
                         for args in pair)
        assert first.kind.startswith("Splits"), pair
        assert second == first, pair
        assert calls == [check] * 2, calls
        assert all(analyze(*args)["certificate"] == first.to_json()
                   for args in pair), pair
        assert calls == [check] * 3, calls


def test_a_failing_tail_check_fails_alike_on_every_call(monkeypatch):
    """No shape fails its tail check (series module docstring, "The
    expansion length" and "The l >= 3 bound"), but one that did would be
    refused: with the check doctored to fail, certify_tail and analyze
    raise its PrecisionExhausted, with its message, on every call, at a
    rational centre, a cubic one and in case (v).  Each call runs the
    check once: certify_tail's, and analyze's miss of the shape cache,
    which keeps no entry for a shape that raised."""
    import padic_sr.analyzer as analyzer
    message = "tail coefficient l=5: bound 13/8 does not clear threshold 9/4"
    calls = []

    def failing(*args, **kw):
        calls.append(args)
        raise PrecisionExhausted(message)

    monkeypatch.setattr(analyzer, "check_tail_dominated", failing)
    _report_shape.cache_clear()
    try:
        for args in [first for first, _ in SHAPE_PAIRS] * 2:
            with pytest.raises(PrecisionExhausted,
                               match=rf"^{re.escape(message)}$"):
                certify_tail(branch_signature(*args))
            assert len(calls) % 2 == 1, calls
            with pytest.raises(PrecisionExhausted,
                               match=rf"^{re.escape(message)}$"):
                analyze(*args)
            assert len(calls) % 2 == 0, calls
    finally:
        _report_shape.cache_clear()
    assert len(calls) == 2 * 2 * len(SHAPE_PAIRS), calls
