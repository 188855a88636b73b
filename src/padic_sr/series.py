"""Truncated power-series expansion of the cover equation on a disk, and
classification of the reduction type of mu_{p^n}-torsors from coefficient
valuations.

The cover y^(p^n) = c x^a (x-1)^b is restricted to the disk x = d + e t with
the normalization c = d^(-a) (d-1)^(-b), so the restricted equation reads
y^(p^n) = g(d + e t) / g(d) = sum c_l t^l with c_0 = 1 and

    c_l = e^l * h_l,   h_l = sum_{j=0..l} C(a, l-j) C(b, j) d^(j-l) (d-1)^(-j)

with falling-factorial binomials (exact integers for integer a, b), i.e. h_l
is the t^l coefficient of h(t) = (1 + t/d)^a (1 + t/(d-1))^b.

Expansion.  From h'/h = a/(d+t) + b/(d-1+t), the series h satisfies
(d+t)(d-1+t) h' = (a(d-1+t) + b(d+t)) h; comparing t^l coefficients gives the
exact three-term recurrence

    d(d-1)(l+1) h_{l+1} = (a(d-1) + b d - (2d-1) l) h_l + (a+b-l+1) h_{l-1}

with h_0 = 1, h_{-1} = 0.  `expand_disk` runs it fraction-free, in the ring
of the centre.  Let N be the least common denominator of the coordinates of
d, delta = N d and delta' = delta - N = N(d-1).  Multiplying the defining sum
by d^l (d-1)^l N^l gives

    h_l = N^l K_l / (delta delta')^l,
    K_l = sum_{j=0..l} C(a, l-j) C(b, j) delta^j delta'^(l-j),

and substituting h_l into the recurrence above and multiplying through by
(delta delta')^l / N^(l-1) gives

    (l+1) K_{l+1} = (a delta' + b delta - (2 delta - N) l) K_l
                    + (a+b-l+1) delta delta' K_{l-1},

with K_0 = 1, K_{-1} = 0.  No inverse is needed.  When d is rational,
delta and delta' are integers and so is every C(a, k) C(b, j), so the sum
makes K_l an integer: the recurrence runs on Python integers and its
division by l+1 is exact (checked, never floored).  Otherwise delta is a
tower element with integer coordinates and the recurrence runs in the tower.

Rational centres.  In cases (i), (ii) and (iv) the centre a/(a+b) and the
radius v(e) = (2n - s + 1/(p-1))/2 are exact rationals, and nothing below
reads e itself: only v(e) enters, through the slope and the tail bound.  So
a rational centre is given as a `Fraction` d together with v(e), and no
tower is built.  N and delta are the denominator and numerator of d, every
valuation is v_p of an integer, and the profile scale is
E = lcm(den v(e), p - 1), which is 2(p-1) on the locus: the ramification
index of Q_p(e) there.  The whole certification costs O(L) integer
operations.  A rational centre given as an element of a tower, with e in
that tower, runs the same integer recurrence but reads its valuations from
the tower.

Valuations without coefficients.  With c_l = e^l h_l = r^l K_l and
r = N e / (delta delta'), valuations are multiplicative.  Scaled by E (the
profile scale of `DiskExpansion`, which puts every valuation in Z),

    E v(c_l) = l slope + E v(K_l),
    slope = E v(r) = E (v(e) + v(N) - v(delta) - v(delta')),

and c_l = 0 exactly when K_l = 0 (e, d and d-1 are nonzero).  The classifiers
read only the K_l and the slope: they build no c_l and invert nothing, and
for a rational centre every valuation is one v_p of an integer.  The test
that compares coefficients, not just valuations, carries the same power of
r on both sides, so r enters only through the slope (tau = n + 1/(p-1)):
condition (ii), M = (p-1) n + 1, reads c_p - c_1^p / p^M = r^p p^(-M) Y with
Y = p^M K_p - K_1^p, so v(c_p - c_1^p / p^M) > tau exactly when Y = 0 or
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

The expansion length.  expand_disk always expands to L = 2p
(`default_truncation`), and a longer expansion could not change a verdict.
On the locus, with tau = n + 1/(p-1) the classifier's threshold,
g(l) - tau = l sigma - s - k - 1/(p-1).  At l = 2p + 1 and odd p, k = 1
and g - tau = (2p-1) s/2 - 1 + (2p-1)/(2(p-1)) > 0; for p = 2, k = 2 and
g(5) = n + (3s+1)/2 > n + 1 = tau.  Every later candidate is a power
q = p^k with k >= 2 and q >= 8, where g(q) - tau > (q/2 - 1) s - k >=
q/2 - 1 - k >= 0, and sigma q (p - 1) >= 1 there.  So every c_l past c_2p
is certified above tau, and a longer expansion adds only such
coefficients.  No clause of the classifier can see them: each compares
valuations with n or tau or looks for the indices where a valuation equals
tau, and coefficient values are read only at l = 1 and p.  Nor can they
turn "all coefficients vanish": c_1 = 0 only at d = a/(a+b), and there
h_2 = -(a+b)^3/(2ab) is not 0.

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

from .errors import (
    CenterOnBranchLocus,
    PrecisionExhausted,
)
from .tower import check_prime, vp_int, vp_rational

def default_truncation(p: int) -> int:
    """The series length L = 2p of every expansion (module docstring)."""
    return 2 * p


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
    """The cover equation restricted to the disk x = d + e t, as the values
    K_0 .. K_L with c_l = r^l K_l (module docstring).

    `expand_disk` passes r_factors = (N, delta, delta'), so that r = N e /
    (delta delta') and the K_l are the recurrence values, integers for a
    rational centre.  An expansion made from a list, DiskExpansion(spec, d,
    e, coeffs), has K_l = c_l and r = 1.  Its length L, `truncation`, is
    that of the list.

    The centre d is a `Fraction` or an element of a tower (`tower`, None
    for a Fraction).  A Fraction centre has no e: the caller passes
    v_e = v(e), and the K_l must be integers.  A tower centre takes v(e)
    from e.

    Profiles are kept scaled by E = `scale`, as the integers E v(c_l) =
    l `slope` + E v(K_l) of `scaled_profile()`: every valuation in the tower
    and the classifier's threshold n + 1/(p-1) lie in (1/E)Z, so the
    classifiers compare integers.  `profile()` builds the Fractions v(c_l)
    from that list.
    """

    def __init__(self, spec, d, e, coeffs, r_factors=None, v_e=None):
        self.spec = spec  # anything with fields p, n, a, b, s
        self.d = d
        self.e = e
        self.ks = list(coeffs)  # K_0 .. K_L: integers or elements of d's tower
        self.r_factors = r_factors  # (N, delta, delta'), or None for r = 1
        self._scaled = None
        if isinstance(d, Fraction):
            if e is not None or v_e is None:
                raise ValueError("a rational centre takes v(e), not e")
            check_prime(spec.p)  # the profile's v_p loop relies on it
            self.tower = None
            self.v_e = v_e
        else:
            if v_e is not None:
                raise ValueError("a tower centre takes e, not v(e)")
            self.tower = d.tower

    @property
    def truncation(self) -> int:
        """L, the index of the last K_l."""
        return len(self.ks) - 1

    @cached_property
    def scale(self) -> int:
        """E: for a tower centre, the tower's ramification index (its degree
        when the index is not exactly known), and for a rational centre the
        denominator of v(e); times what makes 1/(p-1) a multiple of 1/E."""
        tower = self.tower
        if tower is None:
            return lcm(self.v_e.denominator, self.spec.p - 1)
        e = tower.ram_index if tower.ram_exact else tower.degree
        return lcm(e, self.spec.p - 1)

    @cached_property
    def v_e(self) -> Fraction:
        """v(e), computed once for the profile and the classifier (given by
        the caller for a rational centre)."""
        return self.tower.val(self.e)

    @cached_property
    def slope(self) -> int:
        """E v(r) = E (v(e) + v(N) - v(delta) - v(delta')), 0 when r = 1."""
        if self.r_factors is None:
            return 0
        N, delta, delta1 = self.r_factors
        return (_scaled(self.v_e, self.scale) + self._scaled_val(N)
                - self._scaled_val(delta) - self._scaled_val(delta1))

    def _scaled_val(self, x) -> int:
        """E v(x) for a nonzero integer or element of the centre's tower."""
        E, tower = self.scale, self.tower
        if tower is None:
            return E * vp_int(x, self.spec.p)
        if isinstance(x, int):
            return E * vp_int(x, tower.p)
        return _scaled(tower.val(x), E)

    def scaled_profile(self):
        """[E v(c_l)] for l = 0 .. L as integers, E = `scale`, with None for
        zero coefficients (valuation +inf)."""
        if self._scaled is None:
            E, slope = self.scale, self.slope
            if self.tower is None:
                # integer K_l; p was checked prime at construction
                p = self.spec.p
                prof = []
                for l, k in enumerate(self.ks):
                    if k == 0:
                        prof.append(None)
                        continue
                    v = 0
                    while k % p == 0:
                        k //= p
                        v += 1
                    prof.append(l * slope + E * v)
            else:
                prof = [None if k == 0 else l * slope + self._scaled_val(k)
                        for l, k in enumerate(self.ks)]
            self._scaled = prof
        return self._scaled

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


def expand_disk(spec, d, e, v_e: Fraction | None = None) -> DiskExpansion:
    """Expand the normalized cover equation on the disk x = d + e t up to
    t^L, L = 2p, by the fraction-free recurrence of the module docstring,
    in integers when d is rational and in d's tower otherwise.

    d is a `Fraction` or a tower element.  A Fraction centre is given with
    e = None and the radius valuation v_e = v(e), and builds no tower; a
    tower centre is given with e, an element of (or coercible into) its
    tower."""
    L = default_truncation(spec.p)
    if isinstance(d, Fraction):
        if d == 0 or d == 1:
            raise CenterOnBranchLocus("disk center lies on the branch locus")
        N, delta = d.denominator, d.numerator
    else:
        tower = d.tower
        e = tower.coerce(e)
        if d.is_zero() or (d - 1).is_zero():
            raise CenterOnBranchLocus("disk center lies on the branch locus")
        if e.is_zero():
            return DiskExpansion(spec, d, e,
                                 [tower.one()] + [tower.zero()] * L)
        N = d.den
        if d.nums.keys() == {(0,) * len(tower.steps)}:
            (delta,) = d.nums.values()
        else:
            delta = d * N
    delta1 = delta - N
    a, b = spec.a, spec.b
    # (l+1) K_{l+1} = A_l K_l + (a+b-l+1) P K_{l-1}, with
    # A_l = a delta' + b delta - S l and P = delta delta'
    A = a * delta1 + b * delta
    S = 2 * delta - N
    P = delta * delta1
    ks = [1]
    k_prev, k = 0, 1
    if isinstance(delta, int):
        for l in range(L):
            x = A * k + (a + b - l + 1) * P * k_prev
            k_prev, (k, rem) = k, divmod(x, l + 1)
            if rem:
                raise ArithmeticError(f"{x} is not divisible by {l + 1}")
            A -= S
            ks.append(k)
    else:
        for l in range(L):
            k_prev, k = k, ((A * k + (a + b - l + 1) * P * k_prev)
                            * Fraction(1, l + 1))
            A = A - S
            ks.append(k)
    return DiskExpansion(spec, d, e, ks, (N, delta, delta1), v_e)


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


def _check_tail_premises(exp):
    """The per-term bound rests on v(d) = 0, v(d-1) = v_p(b) = n - s; verify
    these on the actual disk before trusting the bound."""
    p = exp.spec.p
    val = (exp.tower.val if exp.tower is not None
           else lambda x: vp_rational(x, p))
    _check_premises(exp.spec, val(exp.d), val(exp.d - 1))


def _check_premises(spec, v_d, v_d1):
    """Raise PrecisionExhausted naming the first of v(d) = 0,
    v(d - 1) = n - s and v_p(b) = n - s that fails, given v(d) and
    v(d - 1)."""
    n, s = spec.n, spec.s
    if v_d != 0:
        raise PrecisionExhausted("tail bound needs v(d) = 0")
    if v_d1 != n - s:
        raise PrecisionExhausted("tail bound needs v(d - 1) = n - s")
    if vp_rational(Fraction(spec.b), spec.p) != n - s:
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
    E tau, tau = n + 1/(p-1).  Reads the K_l and exp.slope only (module
    docstring): no coefficient is built and nothing is inverted.  A
    rational centre has no e, and its v(e) is finite, so its expansion is
    never constant.  A p = 2 expansion is refused with ValueError: the
    mu_4-torsors of case (v) are classified by classify_p2_torsor."""
    spec = exp.spec
    p, n = spec.p, spec.n
    if not exp.ks or exp.ks[0] != 1:
        raise ValueError("expansion is not normalized to c_0 = 1")
    if p == 2:
        raise ValueError("p = 2 torsors are classified by "
                         "classify_p2_torsor")
    if exp.tower is not None and exp.e.is_zero():
        return ReductionVerdict("NotCertified", reason="constant expansion")
    prof = exp.scaled_profile()
    E = exp.scale
    tau = n + Fraction(1, p - 1)
    T, En = E * n + E // (p - 1), E * n  # E tau, E n

    finite = [(l, prof[l]) for l in range(1, exp.truncation + 1)
              if prof[l] is not None]
    if not finite:
        return ReductionVerdict("NotCertified",
                                reason="all coefficients vanish")
    _check_tail_premises(exp)
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
        y = p ** M * exp.ks[p] - exp.ks[1] ** p
        if y == 0 or p * exp.slope + exp._scaled_val(y) - E * M > T:
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
