"""Closed-form certificates of the new etale tail, the disk expansion of the
case (iii) centre, and classification of the reduction type of
mu_{p^n}-torsors from coefficient valuations.

The cover y^(p^n) = c x^a (x-1)^b is restricted to the disk x = d + e t with
the normalization c = d^(-a) (d-1)^(-b), so the restricted equation reads
y^(p^n) = g(d + e t) / g(d) = sum c_l t^l with c_0 = 1 and

    c_l = e^l * h_l,   h_l = sum_{j=0..l} C(a, l-j) C(b, j) d^(j-l) (d-1)^(-j)

with falling-factorial binomials (exact integers for integer a, b), i.e. h_l
is the t^l coefficient of h(t) = (1 + t/d)^a (1 + t/(d-1))^b.

Rational centres.  In cases (i), (ii) and (iv) p is odd, the centre is
d = a/(a+b) and v(e) = (2n - s + 1/(p-1))/2, and `classify_rational_centre`
certifies the disk from c_1, c_2 and c_3 in closed form, with no
expansion.  As log h = sum_{k >= 1} (-1)^(k+1) S_k t^k / k with
S_k = a/d^k + b/(d-1)^k, exponentiating gives h_1 = S_1,
h_2 = (S_1^2 - S_2)/2 and h_3 = (S_1^3 - 3 S_1 S_2 + 2 S_3)/6.  With
d = delta/N in lowest terms and delta' = delta - N, S_k = N^k T_k /
(delta delta')^k with the integer T_k = a delta'^k + b delta^k, so each
valuation is a v_p of an integer.  At d = a/m, m = a + b, a/d = m and
b/(d-1) = -m, so S_1 = 0, S_2 = m^3/(ab) and S_3 = m^3/a^2 - m^3/b^2:

    h_1 = 0,   h_2 = -m^3/(2ab),   h_3 = S_3/3 = m^4 (b - a)/(3 a^2 b^2).

The certificate checks, in order: the tail premises v(d) = 0,
v(d - 1) = n - s and v_p(b) = n - s ("Tail bound"); h_1 = 0, as T_1 = 0;
v(c_2) = 2 v(e) + v_p(S_2) = tau, tau = n + 1/(p-1); when p = 3 and n = 1,
v(c_3) = 3 v(e) + v_p(S_3) - 1 > tau or c_3 = 0; and the tail bound above
tau past L = 2 (L = 3 in that one shape).  A failed premise or tail bound
raises PrecisionExhausted, any other failed fact returns NotCertified
naming it.  On a cover every fact holds.  The premises give
v_p(m) = v_p(b) - v(d - 1) = 0 and v_p(a) = v(d) + v_p(m) = 0, so
v(c_2) = 2 v(e) + 3 v_p(m) - v_p(a) - v_p(b) = 2n - s + 1/(p-1) - (n - s)
= tau.  When p = 3 and n = 1, s = 1 and a, b and a + b are prime to 3,
which forces a = b mod 3, so v(c_3) = 9/4 + v_3(b - a) - 1 >= 9/4 > 3/2 =
tau.  The
tail bound is proved under "The expansion length".  So v(c_2) = tau is
the minimum, reached at l = 2 alone, and every index divisible by p lies
above it: condition (i) of `classify_torsor_reduction` with conductor
h = 2 and count p^(n-1), the verdict that classifier gives on an
expansion of the same disk to any length L >= p.  The cost is a few v_p
of integers the size of a^4 and b^4, whatever p is.

Cubic centres.  The case (iii) centre (p = 3, s = 1 < n) is
d = (a + t)/(a+b) with t^3 = r = 3^(2n+1) C(b, 3), v_3(r) = 3n - 1, and
`expand_disk` expands the cover on its disk.  From
h'/h = a/(d+t) + b/(d-1+t), comparing t^l coefficients of
(d+t)(d-1+t) h' = (a(d-1+t) + b(d+t)) h gives a three-term recurrence
for h_l.  With N the least common denominator of the coordinates of d,
delta = N d and delta' = delta - N, multiplying the defining sum by
d^l (d-1)^l N^l gives h_l = N^l K_l / (delta delta')^l, and the
recurrence, multiplied through by (delta delta')^l / N^(l-1), reads

    K_l = sum_{j=0..l} C(a, l-j) C(b, j) delta^j delta'^(l-j),
    (l+1) K_{l+1} = (a delta' + b delta - (2 delta - N) l) K_l
                    + (a+b-l+1) delta delta' K_{l-1},

with K_0 = 1, K_{-1} = 0, and no inverse.  delta, delta' and every K_l
are triples (c_0, c_1, c_2) of Z[t]/(t^3 - r), read as
c_0 + c_1 t + c_2 t^2, and a product reduces t^3 to r.  As 3 does not
divide v_p(r), x^3 - r is irreducible over Q and 1, t, t^2 is a basis of
Q(t), so the triple of K_l is unique, its coordinates are integers, and
the division by l + 1 is exact in each coordinate (checked, never
floored).  `expand_disk` runs three steps, to K_3 = K_p: the classifier
reads c_1, c_2 and c_3, and the tail bound certifies every later c_l
("The expansion length").  The valuation needs no norm.  The Newton
polygon of x^3 - r over Q_p is one segment of slope v_p(r)/3, whose
denominator is 3, so Q_p(t) is totally ramified of degree 3, v extends
uniquely, and v(t) = v_p(r)/3.  The term c_j t^j has valuation
v_p(c_j) + j v(t), in j v_p(r)/3 + Z, and the classes of 0, v_p(r)/3 and
2 v_p(r)/3 mod 1 are distinct, so two nonzero terms never tie and

    v(c_0 + c_1 t + c_2 t^2) = min over c_j != 0 of (v_p(c_j) + j v(t)),

exactly.  On the locus v(t) = n - 1/3 and v(e) = n - 1/4, so the scale
E = lcm(den v(e), 3, p - 1) is 12, the ramification index of Q_3(pi)(t),
pi^4 = 3, where the same disk has the same scaled profile.  The tail
premises and condition (ii) read the same triples: no tower is built.

Valuations without coefficients.  With c_l = e^l h_l = r^l K_l and
r = N e / (delta delta'), valuations are multiplicative.  Scaled by E (the
profile scale of `DiskExpansion`, which puts every valuation in Z),
E v(c_l) = l slope + E v(K_l) with slope = E v(r) =
E (v(e) + v(N) - v(delta) - v(delta')), and c_l = 0 exactly when K_l = 0.
The classifier reads only the K_l and the slope: it builds no c_l and
inverts nothing.  The test that compares coefficients, not just
valuations, carries the same power of r on both sides, so r enters only
through the slope (tau = n + 1/(p-1)): condition (ii), M = (p-1) n + 1, reads
c_p - c_1^p / p^M = r^p p^(-M) Y with Y = p^M K_p - K_1^p, so
v(c_p - c_1^p / p^M) > tau exactly when Y = 0 or
p slope + E v(Y) - E M > E tau.

Tail bound.  The j-th term of c_l has valuation at least l v(e) when j = 0
and l v(e) + (n-s) - v_p(j) - j(n-s) when j >= 1 (C(a, k) is an integer,
C(b, j) = (b/j) C(b-1, j-1), v(d) = 0, v(d-1) = v(b) = n - s).  The minimum
over 0 <= j <= l has a closed form in integers.  With k = floor(log_p l):

* n = s: every j >= 1 term is l v(e) - v_p(j), and v_p(j) <= k with equality
  at j = p^k, so the minimum is l v(e) - k.
* n > s: the j = l term is at most the j = 0 term, and any term j < l
  exceeds it by (n-s)(l-j) + v_p(l) - v_p(j) >= (l-j) - k, because
  v_p(j) <= log_p l.  Only j in [max(1, l - k), l] can undercut it, so the
  minimum runs over those at most k + 1 candidates.
* n < s (no cover has it): every j >= 1 term is l v(e) + (s-n)(j-1) -
  v_p(j) >= l v(e), as j - 1 >= v_p(j), so the minimum is l v(e).

Checking the tail.  `check_tail_dominated` must show that this bound clears
the threshold at every l > L, and it reads only a few l.  Let m = n - s
and sigma = v_e - m.  Every term of the minimum is at least

    g(l) = l sigma + m - k:

the j >= 1 terms because v_p(j) <= k and j <= l, and the j = 0 term l v_e
because m (1 - l) <= 0 <= k.  So tail_bound(l) >= g(l), with equality when
n = s and when l is a power of p (the j = l term).  (For n < s, m is read
as 0, and g(l) = l v_e - k lies below tail_bound(l) = l v_e.)  When
sigma > 0, g increases between consecutive powers of p, where k is
constant, so its minimum over l > L is at l = L + 1 or at a power of p.
From a power q to the next, g grows by sigma q (p - 1) - 1, so once
sigma q (p - 1) >= 1 no later power scores below g(q).  The check reads g
at L + 1 and at each power of p above it, and stops at the first power q
that clears the threshold with sigma q (p - 1) >= 1: every l >= q clears it
too.  Only when a candidate below q fails (g may lie below tail_bound) does
it read tail_bound at each l in [L + 1, q), raising at the first l that
fails, so it decides exactly whether tail_bound clears the threshold at
every l > L.  sigma <= 0 is refused at once: on the locus sigma =
(s + 1/(p-1))/2 > 0, so only a doctored radius meets it.  The comparisons
run in integers, with v_e and the threshold scaled by the lcm of their
denominators.

The expansion length.  With tau = n + 1/(p-1) and, on the locus,
sigma = (s + 1/(p-1))/2, g(l) - tau = l sigma - s - k - 1/(p-1) depends on
p, s and l alone.  check_tail_dominated(spec, v(e), L, tau) reads it at
l = L + 1 and at the powers of p above, up to the first power q that
clears tau with sigma q (p - 1) >= 1, and every shape of cases (i)-(iv)
clears:

* rational centre, p >= 5, L = 2: g - tau = (s + 1/(p-1))/2 > 0 at l = 3,
  and (p - 2)(s + 1/(p-1))/2 - 1 >= 1/2 at q = p, where
  sigma p (p - 1) >= 1 stops the walk;
* rational centre, p = 3, L = 2, so s >= 2 (s = 1 < n is case (iii)):
  g - tau = s/2 - 3/4 > 0 at q = 3 and 7s/2 - 1/4 > 0 at q = 9, the stop;
* p = 3, s = 1, L = 3 (the rational centre of n = 1, and case (iii)):
  sigma = 3/4, and g - tau = 1/2 at l = 4 and 13/4 at q = 9, the stop.
  At l = 3 the bound misses (g - tau = -1/4), so c_3 is read: from h_3
  at the rational centre, from K_3 at the cubic one.

So every c_l past L lies strictly above tau.  A longer expansion adds only
such coefficients, and no clause of the classifier can see them: each
compares valuations with n or tau or looks for the indices where a
valuation equals tau, and coefficient values are read only at l = 1 and
p <= L.  Nor can they turn "all coefficients vanish": c_1 = 0 only at
d = a/(a+b), and there h_2 = -(a+b)^3/(2ab) is not 0.  The expansion of a
rational centre to L = 2p is the test oracle of its closed form.

Case (v) centres.  For p = 2 the new-tail centre is d = x + R with
x = a/(a+b) and R^2 = 2^n b i/(a+b)^4, so d lies in Q_2(i) or in a
quadratic extension Q_2(i)(R).  `classify_p2_torsor` decides the three
facts of the mu_4 criterion (v(c_2) = n, the congruence, v(c_l) >= n + 1
for l >= 3) from valuations of Gaussian rationals, with no tower and no
expansion.  Once v(c_2) = n is checked, the congruence c_1^2 / c_2 =
2^(n+1) i mod 2^(n+2) reads c_1^2 / c_2 - 2^(n+1) i = X / K_2 with
X = K_1^2 - 2^(n+1) i K_2 and E v(K_2) = E n - 2 slope, so it holds exactly
when X = 0 or E v(X) + 2 slope >= E (2n + 2).  The other choice -i of the
root of -1 moves the right side by 2^(n+2) i, so the congruence holds for
both choices or for neither, and i alone is tested.  With m = a + b,

    K_1 = N m R,
    K_2 = N^2 b gamma / (2 m^3),     gamma = -a m^2 + (m - 1) 2^n i,
    X = K_1^2 - 2^(n+1) i K_2 = N^2 2^n b i chi / m^3,
                                     chi = m + a m^2 - (m - 1) 2^n i:

K_1 = a delta' + b delta = N (m d - a), and K_2 / N^2 is quadratic in d
with derivative (m - 1)(m d - a), so it is its value -ab/(2m) at x plus
m (m - 1) R^2 / 2.  N cancels from every valuation the classifier reads:
v(c_l) = l (v(e) - v(d) - v(d - 1)) + v(K_l / N^l), and K_1 / N is R times
a rational, while K_2 / N^2 and X / N^2 are Gaussian rationals.  In Q_2(i),
v(1 + i) = 1/2 and v(z) is half the 2-adic valuation of the norm of z, so
the classifier compares integers at the scale E = 4, with v(R) =
v(R^2) / 2.

The tie rule.  v(d) = min(v(x), v(R)) and v(d - 1) = min(v(x - 1), v(R))
unless the two terms tie.  R is (1+i)^k i^(k//2) w / m^2 with k = 2n - s
and w^2 = (-i)^(k%2) b' i, b' = b/2^(n-s) odd, so 2 v(R) = k - 4 v_2(m),
while v(x) and v(x - 1) are integers: a tie needs k even.  Then w^2 = b' i,
which is never +-1, and x^2 - b' i is irreducible over Q_2(i), as b' i is
no square there (the proof is at the analyzer's _certify_p2_step): i is
none, as Q_2(zeta_8) has degree 4 over Q_2, and b' is +-1 or +-5 times a
square of Q_2, where Q_2(i)(sqrt 5) is unramified over Q_2(i) and
Q_2(i)(sqrt i) is not.  The valuation of Q_2(i)
therefore extends uniquely to Q_2(i)(R), and v(x + R) is half the
valuation of its norm x^2 - R^2 in Q(i).  When w^2 = +-1, R lies in Q(i)
itself, but k is odd and no tie occurs.

The l >= 3 bound.  Once the premises v(d) = 0 and v(d - 1) = v(b) = n - s
are checked, the tail bound holds at every l, and on the locus v(e) =
(2n - s + 1)/2, sigma = (s + 1)/2, so check_tail_dominated(spec, v_e, 2,
n + 1, strict=False) reads g(3) = n + (s + 1)/2 and g(4) = n + s, both at
least n + 1 (s >= 1), and stops there as 4 sigma >= 1.  So every l >= 3 is
certified: no c_l past c_2 is computed, and case (v) has no expansion
length at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .errors import (
    CenterOnBranchLocus,
    PrecisionExhausted,
)
from .tower import vp_int


class CubicCentre(NamedTuple):
    """The centre (c_0 + c_1 t + c_2 t^2)/den of a disk, t^3 = r: nums =
    (c_0, c_1, c_2), den != 0 and r are integers, and v_p(r) is prime to 3
    (module docstring, "Cubic centres")."""
    nums: tuple
    den: int
    r: int


def _cmul(x, y, r):
    """The product of two triples in Z[t]/(t^3 - r)."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return (x0 * y0 + r * (x1 * y2 + x2 * y1),
            x0 * y1 + x1 * y0 + r * x2 * y2,
            x0 * y2 + x1 * y1 + x2 * y0)


def binom_falling(x, k: int) -> Fraction:
    """Falling-factorial binomial C(x, k) = x(x-1)...(x-k+1)/k!, exact."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(x) - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num / den


class DiskExpansion:
    """The cover equation restricted to the disk x = d + e t of a
    `CubicCentre` d, as the integer triples K_0 .. K_L with c_l = r^l K_l,
    r = N e / (delta delta') and r_factors = (N, delta, delta') (module
    docstring); e is given only by its valuation v_e = v(e).  The length
    L, `truncation`, is that of the list: 3 from `expand_disk`.

    Profiles are kept scaled by E = `scale`, as the integers E v(c_l) =
    l `slope` + E v(K_l) of `scaled_profile()`: every valuation on the disk
    and the classifier's threshold n + 1/(p-1) lie in (1/E)Z, so the
    classifiers compare integers.  `profile()` builds the Fractions v(c_l)
    from that list.
    """

    def __init__(self, spec, d, v_e, coeffs, r_factors):
        if not isinstance(d, CubicCentre):
            raise TypeError(f"expand_disk takes a CubicCentre, not "
                        f"{type(d).__name__}")
        if not isinstance(v_e, (int, Fraction)):
            raise TypeError(f"v(e) is an int or a Fraction, not "
                            f"{type(v_e).__name__}")
        self.spec = spec  # anything with fields p, n, a, b, s
        self.d = d
        self.v_e = v_e
        self.ks = list(coeffs)  # K_0 .. K_L: integer triples
        self.r_factors = r_factors  # (N, delta, delta')
        self._scaled = None
        self._vr = vp_int(d.r, spec.p)  # v_p(r); checks that p is prime
        if self._vr % 3 == 0:
            raise ValueError("a cubic centre needs v_p(r) prime to 3")

    @property
    def truncation(self) -> int:
        """L, the index of the last K_l."""
        return len(self.ks) - 1

    @cached_property
    def scale(self) -> int:
        """E: the denominator of v(e), times 3 for v(t), times what makes
        1/(p-1) a multiple of 1/E."""
        return lcm(self.v_e.denominator, 3, self.spec.p - 1)

    @cached_property
    def slope(self) -> int:
        """E v(r) = E (v(e) + v(N) - v(delta) - v(delta'))."""
        N, delta, delta1 = self.r_factors
        return (_scaled(self.v_e, self.scale) + self._scaled_val(N)
                - self._scaled_val(delta) - self._scaled_val(delta1))

    def _scaled_val(self, x) -> int:
        """E v(x) for a nonzero integer or triple of the centre's ring."""
        E, p = self.scale, self.spec.p
        if isinstance(x, tuple):
            # the least v_p(c_j) + j v(t) (module docstring, "Cubic centres")
            et = E * self._vr // 3
            return min(E * vp_int(c, p) + j * et for j, c in enumerate(x)
                       if c)
        return E * vp_int(x, p)

    def scaled_profile(self):
        """[E v(c_l)] for l = 0 .. L as integers, E = `scale`, with None for
        zero coefficients (valuation +inf)."""
        if self._scaled is None:
            slope = self.slope
            self._scaled = [l * slope + self._scaled_val(k) if any(k)
                            else None for l, k in enumerate(self.ks)]
        return self._scaled

    def _scaled_defect(self, M: int):
        """E v(Y), Y = p^M K_p - K_1^p (condition (ii), module docstring),
        or None when Y = 0."""
        p = self.spec.p
        k1, kp = self.ks[1], self.ks[p]
        power = k1
        for _ in range(p - 1):
            power = _cmul(power, k1, self.d.r)
        y = tuple(p ** M * u - w for u, w in zip(kp, power))
        return self._scaled_val(y) if any(y) else None

    def check_tail_premises(self):
        """The tail bound rests on v(d) = 0 and v(d - 1) = v_p(b) = n - s:
        check them on the centre, read from its triples, before the bound
        is trusted."""
        E, (c0, c1, c2), den = self.scale, self.d.nums, self.d.den
        v_den = self._scaled_val(den)
        _check_premises(self.spec,
                        Fraction(self._scaled_val(self.d.nums) - v_den, E),
                        Fraction(self._scaled_val((c0 - den, c1, c2)) - v_den,
                                 E))

    def profile(self):
        """[v(c_l)] for l = 0 .. L, with None for zero coefficients
        (valuation +inf)."""
        E = self.scale
        return [None if v is None else Fraction(v, E)
                for v in self.scaled_profile()]


def _scaled(v: Fraction, E: int) -> int:
    """E v as an integer; v must lie in (1/E)Z."""
    q, r = divmod(v.numerator * E, v.denominator)
    if r:
        raise AssertionError("valuation outside the value group")
    return q


@dataclass(frozen=True)
class ReductionVerdict:
    kind: str  # "SplitsArtinSchreier" | "SplitsZ4" | "NotCertified"
    count: int | None = None
    conductor: int | None = None  # h for Artin-Schreier; first upper jump for Z4
    reason: str | None = None
    notes: tuple = ()

    def to_json(self):
        doc = {"kind": self.kind}
        if self.count is not None:
            doc["count"] = self.count
        if self.conductor is not None:
            key = "first_upper_jump" if self.kind == "SplitsZ4" else "conductor"
            doc[key] = self.conductor
        if self.reason:
            doc["reason"] = self.reason
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc


def expand_disk(spec, d, v_e) -> DiskExpansion:
    """Expand the normalized cover equation on the disk x = d + e t of a
    `CubicCentre` d, of radius valuation v_e = v(e), to K_3, by the
    fraction-free recurrence on integer triples of the module docstring
    ("Cubic centres").  A rational centre is certified in closed form, by
    classify_rational_centre; any centre that is no CubicCentre raises
    TypeError."""
    if not isinstance(d, CubicCentre):
        raise TypeError(f"expand_disk takes a CubicCentre, not "
                        f"{type(d).__name__}")
    N, delta, r = d.den, d.nums, d.r
    if delta in ((0, 0, 0), (N, 0, 0)):
        raise CenterOnBranchLocus("disk center lies on the branch locus")
    a, b = spec.a, spec.b
    delta1 = (delta[0] - N, delta[1], delta[2])
    # (l+1) K_{l+1} = A_l K_l + (a+b-l+1) P K_{l-1}, with
    # A_l = a delta' + b delta - S l and P = delta delta'
    A = tuple(a * u + b * w for u, w in zip(delta1, delta))
    S = (2 * delta[0] - N, 2 * delta[1], 2 * delta[2])
    P = _cmul(delta, delta1, r)
    ks = [(0, 0, 0), (1, 0, 0)]  # K_{-1}, K_0
    for l in range(3):
        c = a + b - l + 1
        nxt = []
        for u, w in zip(_cmul(A, ks[-1], r), _cmul(P, ks[-2], r)):
            q, rem = divmod(u + c * w, l + 1)
            if rem:
                raise ArithmeticError(f"{u + c * w} is not divisible by "
                                      f"{l + 1}")
            nxt.append(q)
        ks.append(tuple(nxt))
        A = (A[0] - S[0], A[1] - S[1], A[2] - S[2])
    return DiskExpansion(spec, d, v_e, ks[1:], (N, delta, delta1))


# -- rigorous tail bound -----------------------------------------------------

def _log_floor(x: int, p: int) -> int:
    """floor(log_p x) for an integer x >= 1, exactly."""
    k, q = 0, p
    while q <= x:
        q *= p
        k += 1
    return k


def tail_bound(spec, v_e, l):
    """Rigorous lower bound for v(c_l), any l >= 1: the minimum over
    0 <= j <= l of the per-term bounds, in closed form (module docstring)."""
    p, n, s = spec.p, spec.n, spec.s
    if n < s:
        return l * v_e
    k = _log_floor(l, p)
    if n == s:
        return l * v_e - k
    m = n - s
    return l * v_e + min(m - vp_int(j, p) - j * m
                         for j in range(max(1, l - k), l + 1))


def _check_premises(spec, v_d, v_d1):
    """Raise PrecisionExhausted naming the first of v(d) = 0,
    v(d - 1) = n - s and v_p(b) = n - s that fails, given v(d) and
    v(d - 1)."""
    n, s = spec.n, spec.s
    if v_d != 0:
        raise PrecisionExhausted("tail bound needs v(d) = 0")
    if v_d1 != n - s:
        raise PrecisionExhausted("tail bound needs v(d - 1) = n - s")
    if vp_int(spec.b, spec.p) != n - s:
        raise PrecisionExhausted("tail bound needs v(b) = n - s")


def check_tail_dominated(spec, v_e, L, threshold, strict=True):
    """Certify v(c_l) > threshold (or >= when strict=False) for every l > L.

    The lower bound g(l) <= `tail_bound(l)` is read at L + 1 and at the
    powers q of p above it, up to the first q that clears the threshold
    with sigma q (p - 1) >= 1, and `tail_bound` is read at each l in
    [L + 1, q) only when a candidate fails (module docstring).  Everything
    is compared in integers scaled by D, the lcm of the denominators of v_e
    and the threshold.  Raises PrecisionExhausted when the slope sigma is
    not positive or at the first l whose bound does not clear the
    threshold.
    """
    p = spec.p
    m = max(spec.n - spec.s, 0)
    D = lcm(v_e.denominator, threshold.denominator)
    thr = threshold.numerator * (D // threshold.denominator)
    sigma = v_e.numerator * (D // v_e.denominator) - D * m  # D sigma
    if sigma <= 0:
        raise PrecisionExhausted("tail slope is not positive")

    def clears(bound):
        return bound > thr or (not strict and bound >= thr)

    # D g(l) at l = L + 1, then at each power q of p above it
    k = _log_floor(L + 1, p)
    ok = clears((L + 1) * sigma + D * (m - k))
    q = p ** (k + 1)
    while True:
        k += 1
        if not clears(q * sigma + D * (m - k)):
            ok = False
        elif sigma * q * (p - 1) >= D:
            break
        q *= p
    if ok:
        return
    for l in range(L + 1, q):
        bnd = tail_bound(spec, v_e, l)
        if not (bnd > threshold or (not strict and bnd >= threshold)):
            raise PrecisionExhausted(
                f"tail coefficient l={l}: bound {bnd} does not clear "
                f"threshold {threshold}"
            )


# -- classification ----------------------------------------------------------

def classify_torsor_reduction(exp: DiskExpansion) -> ReductionVerdict:
    """Reduction type of the Artin-Schreier torsor (p odd) from the
    valuation profile, compared as integers scaled by E = exp.scale against
    E tau, tau = n + 1/(p-1).  Reads the K_l, exp.slope and
    exp.check_tail_premises only (module docstring), of a DiskExpansion or
    of a test oracle with its fields and methods.  An expansion not
    normalized to c_0 = 1, or one that stops before c_p (both conditions
    read c_p), is refused with ValueError, and so is a p = 2 expansion: the
    mu_4-torsors of case (v) are classified by classify_p2_torsor."""
    spec = exp.spec
    p, n = spec.p, spec.n
    if not exp.ks or (exp.ks[0] != 1 and exp.ks[0] != (1, 0, 0)):
        raise ValueError("expansion is not normalized to c_0 = 1")
    if exp.truncation < p:
        raise ValueError(f"expansion stops at c_{exp.truncation}, before "
                         f"c_p = c_{p}")
    if p == 2:
        raise ValueError("p = 2 torsors are classified by "
                         "classify_p2_torsor")
    prof = exp.scaled_profile()
    E = exp.scale
    tau = n + Fraction(1, p - 1)
    T, En = E * n + E // (p - 1), E * n  # E tau, E n

    finite = [(l, prof[l]) for l in range(1, exp.truncation + 1)
              if prof[l] is not None]
    if not finite:
        return ReductionVerdict("NotCertified",
                                reason="all coefficients vanish")
    exp.check_tail_premises()
    check_tail_dominated(spec, exp.v_e, exp.truncation, tau, strict=True)
    minv = min(val for _, val in finite)

    def p_indices_above(start):
        # v(c_i) > tau at every i >= start divisible by p
        return all(prof[l] is None or prof[l] > T
                   for l in range(start, exp.truncation + 1, p))

    # condition (i): min_i v(c_i) = tau, strict above tau at p-divisible i
    if minv == T and p_indices_above(p):
        h = max(l for l, val in finite if val == T)
        return ReductionVerdict("SplitsArtinSchreier", count=p ** (n - 1),
                                conductor=h, notes=("condition (i)",))

    # condition (ii)
    reasons = []
    v1 = prof[1]
    vp_ = prof[p]
    if not (v1 is None or v1 > En):
        reasons.append("v(c_1) <= n")
    if not (vp_ is None or vp_ > En):
        reasons.append("v(c_p) <= n")
    rest = [(l, val) for l, val in finite if l not in (1, p)]
    if not rest or min(val for _, val in rest) != T:
        reasons.append("min over i != 1, p is not n + 1/(p-1)")
    if not p_indices_above(2 * p):
        reasons.append("v(c_i) <= n + 1/(p-1) at an index i > p divisible by p")
    if not reasons:
        # c_p - c_1^p / p^M = r^p p^(-M) Y
        M = (p - 1) * n + 1
        vy = exp._scaled_defect(M)
        if vy is None or p * exp.slope + vy - E * M > T:
            h = max(l for l, val in rest if val == T)
            return ReductionVerdict("SplitsArtinSchreier", count=p ** (n - 1),
                                    conductor=h, notes=("condition (ii)",))
        reasons.append("v(c_p - c_1^p / p^((p-1)n+1)) <= n + 1/(p-1)")
    if minv == T:
        # name the clause the way the nearest condition fails
        bad = [l for l, val in finite if val == minv and l % p == 0]
        if bad and all(val > minv for l, val in finite if l % p != 0):
            return ReductionVerdict(
                "NotCertified", reason="minimum at index divisible by p")
    return ReductionVerdict("NotCertified", reason="; ".join(reasons) or
                            "minimum valuation is not n + 1/(p-1)")


def classify_rational_centre(spec, d: Fraction, v_e) -> ReductionVerdict:
    """Reduction type of the Artin-Schreier torsor (p odd) on the disk of
    the rational centre d = a/(a+b) and radius valuation v_e, from the
    closed forms of c_1, c_2 and c_3 (module docstring, "Rational
    centres"): no expansion.  It checks the tail premises, h_1 = 0,
    v(c_2) = tau and, when p = 3 and n = 1, v(c_3) > tau, then the tail
    bound above tau past c_2 (past c_3 in that shape).  A failed premise or
    tail bound raises PrecisionExhausted, any other failed fact returns
    NotCertified naming it, a centre 0 or 1 raises CenterOnBranchLocus and
    p = 2 raises ValueError."""
    p, n, a, b = spec.p, spec.n, spec.a, spec.b
    if p == 2:
        raise ValueError("p = 2 torsors are classified by "
                         "classify_p2_torsor")
    N, delta = d.denominator, d.numerator
    delta1 = delta - N
    if not delta or not delta1:
        raise CenterOnBranchLocus("disk center lies on the branch locus")
    v_n = vp_int(N, p)
    v_d, v_d1 = vp_int(delta, p) - v_n, vp_int(delta1, p) - v_n
    _check_premises(spec, v_d, v_d1)
    if a * delta1 + b * delta:  # T_1 = 0, that is h_1 = 0
        return ReductionVerdict("NotCertified", reason="h_1 != 0")
    # E v(c_k) = k E v_e + E (v_p(T_k) - k w - v_p(k)), T_k = a delta'^k +
    # b delta^k, compared with E tau as integers
    w = v_d + v_d1 + v_n
    E = lcm(v_e.denominator, p - 1)
    ve, T = _scaled(v_e, E), E * n + E // (p - 1)
    t2 = a * delta1 ** 2 + b * delta ** 2
    if not t2 or 2 * ve + E * (vp_int(t2, p) - 2 * w) != T:
        return ReductionVerdict("NotCertified",
                                reason="v(c_2) != n + 1/(p-1)")
    L = 2
    if p == 3 and n == 1:
        # the tail bound misses tau at l = 3 in this one shape
        t3 = a * delta1 ** 3 + b * delta ** 3
        if t3 and 3 * ve + E * (vp_int(t3, p) - 3 * w - 1) <= T:
            return ReductionVerdict("NotCertified",
                                    reason="v(c_3) <= n + 1/(p-1)")
        L = 3
    check_tail_dominated(spec, v_e, L, Fraction(T, E), strict=True)
    return ReductionVerdict("SplitsArtinSchreier", count=p ** (n - 1),
                            conductor=2, notes=("condition (i)",))


def _v4(re: int, im: int, den: int = 1):
    """4 v(z) for z = (re + im i)/den in Q_2(i), v(1 + i) = 1/2, or None
    for z = 0: v(z) is half the 2-adic valuation of the norm (re^2 + im^2)
    / den^2, so 4 v(z) is an even integer."""
    norm = re * re + im * im
    if not norm:
        return None
    return 2 * vp_int(norm, 2) - 4 * vp_int(den, 2)


def _v4_centre(x: Fraction, rho: int, m: int, vr: int) -> int:
    """4 v(x + R) for a rational x, R^2 = rho i / m^4 of 4 v(R) = vr, by
    the tie rule of the module docstring: on a tie, x^2 - R^2 is the norm
    of x + R down to Q_2(i)."""
    if not x:
        return vr
    num, den = x.numerator, x.denominator
    vx = 4 * (vp_int(num, 2) - vp_int(den, 2))
    if vx != vr:
        return min(vx, vr)
    m4 = m ** 4
    return _v4(num * num * m4, -rho * den * den, den * den * m4) // 2


def classify_p2_torsor(spec, v_e: Fraction, rho: int) -> ReductionVerdict:
    """Reduction type of the mu_4-torsor on the case (v) disk centred at
    d = a/(a+b) + R, R^2 = rho i/(a+b)^4 (rho = 2^n b on the locus), of
    radius v(e) = v_e, from the closed forms of the module docstring: no
    tower, no expansion.  The caller has certified that rho i is no square
    in Q_2(i) when v_2(rho) is even, the one case where the tie rule needs
    it.  Every l >= 3 is certified by the tail bound."""
    n, a, b = spec.n, spec.a, spec.b
    if n < 2:
        return ReductionVerdict("NotCertified",
                                reason="p = 2 requires n >= 2")
    m = a + b
    x = Fraction(a, m)
    vm = vp_int(m, 2)
    vr = 2 * vp_int(rho, 2) - 8 * vm  # 4 v(R) = 2 v(R^2)
    vd = _v4_centre(x, rho, m, vr)
    vd1 = _v4_centre(x - 1, rho, m, vr)
    # E v(c_l) = l slope + E v(K_l / N^l), E = 4
    slope = _scaled(v_e, 4) - vd - vd1
    reasons = []
    # K_2 / N^2 = (-a b m^2 + (m - 1) rho i) / (2 m^3)
    vk2 = _v4(-a * b * m * m, (m - 1) * rho)
    if vk2 is None or 2 * slope + vk2 - 4 - 12 * vm != 4 * n:
        reasons.append("v(c_2) != n")
    try:
        _check_premises(spec, Fraction(vd, 4), Fraction(vd1, 4))
        check_tail_dominated(spec, v_e, 2, Fraction(n + 1), strict=False)
    except PrecisionExhausted as exc:
        reasons.append(str(exc))
    if reasons:
        return ReductionVerdict("NotCertified", reason="; ".join(reasons))
    # c_2 is a square in R: a square root exists over an at-most-quadratic
    # extension of K, which the construction permits (adjoined on demand)
    notes = ["sqrt(c_2) adjoined on demand"]
    # X / N^2 = (2^n (m - 1) rho + (rho m + 2^n a b m^2) i) / m^3
    vx = _v4(2 ** n * (m - 1) * rho, rho * m + 2 ** n * a * b * m * m)
    if not (vx is None or vx - 12 * vm + 2 * slope >= 4 * (2 * n + 2)):
        return ReductionVerdict(
            "NotCertified",
            reason="c_1^2/c_2 != 2^(n+1) i mod 2^(n+2) for either i")
    notes.append("congruence holds with i -> +i")
    return ReductionVerdict("SplitsZ4", count=2 ** (n - 2), conductor=1,
                            notes=tuple(notes))
