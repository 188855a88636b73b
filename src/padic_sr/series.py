"""Closed-form certificates of the new etale tail: the reduction type of
the mu_{p^n}-torsor on the new-tail disk, read from the valuations of its
first coefficients, with a tail bound for all later ones.

The cover y^(p^n) = c x^a (x-1)^b is restricted to the disk x = d + e t with
the normalization c = d^(-a) (d-1)^(-b), so the restricted equation reads
y^(p^n) = g(d + e t) / g(d) = sum c_l t^l with c_0 = 1 and

    c_l = e^l * h_l,   h_l = sum_{j=0..l} C(a, l-j) C(b, j) d^(j-l) (d-1)^(-j)

with falling-factorial binomials (exact integers for integer a, b), i.e. h_l
is the t^l coefficient of h(t) = (1 + t/d)^a (1 + t/(d-1))^b.

The criterion.  For p odd let tau = n + 1/(p-1) and M = (p-1) n + 1.
The torsor reduces to an Artin-Schreier torsor, counted p^(n-1) times,
with conductor h, under either condition:

(i)  min_l v(c_l) = tau, and v(c_l) > tau at every l divisible by p; h is
     the largest l with v(c_l) = tau;
(ii) v(c_1) > n, v(c_p) > n, min over l != 1, p of v(c_l) = tau,
     v(c_l) > tau at every l > p divisible by p, and
     v(c_p - c_1^p / p^M) > tau; h is the largest l != 1, p with
     v(c_l) = tau.

The certificates below read c_1 .. c_L, L = 2 or 3, and the tail bound
puts every later c_l strictly above tau ("The expansion length").  On
the new-tail disk of a cover each fact they read follows from the cover
rule, so the verdict is one of the shape (p, n, s), proved below for
each kind of centre; analyzer._shape_facts holds it, with the tail
check, the one fact that is run (analyzer._tail_verdict).  The general
classifier of an expansion c_0 .. c_L, the recurrences that expand a
disk to any L, and the certificates that check each fact per cover with
v_p are the test oracles of these proofs (tests/rational_oracle.py).

The cover rule.  A spec is a cover's normal form, the one
branch_signature makes (totally ramified above 0 and infinity, of index
p^s above 1), exactly when 1 <= s <= n (s < n for p = 2) and

    a + b != 0,   v_p(b) = n - s,   v_p(a+b) = 0,   v_p(a) = 0.

Building a CoverSpec takes p, n, a, b and s as plain ints (a bool or a
non-integer raises TypeError naming the field) and the swap that made
the normal form, from which it derives the indices and the (a, b) given;
then `CoverSpec.__post_init__` checks the shape (_stable_case), then
these four facts in this order (_check_cover), and raises
CertificationFailed naming the first that fails (b = 0 fails the second,
a = 0 the last).  Each is a divisibility test: v_p(b) = n - s is that
p^(n-s) divides b and p^(n-s+1) does not, tested once b != 0 and p is
prime (a non-prime p raises ValueError there) and n - s is below the bit
length of b, which bounds v_p(b); the last two are that p divides
neither a + b nor a.  `dataclasses.replace` builds through it
too, so every CoverSpec is a cover, and no stage checks the rule again;
each stage that trusts it refuses any spec that is no CoverSpec with
TypeError (_require_cover).  So the valuations that the stages read of a
cover's centres are derived values, proved below, and not a second
computation: v(d) = 0, v(d - 1) = n - s and v_p(a+b) = 0 at every
new-tail centre, and with them each fact of the certificate.

Rational centres.  In cases (i), (ii) and (iv) p is odd, the centre is
d = a/(a+b) and v(e) = (2n - s + 1/(p-1))/2, and the certificate reads
c_1, c_2 and c_3 in closed form, with no expansion.  As
log h = sum_{k >= 1} (-1)^(k+1) S_k t^k / k with
S_k = a/d^k + b/(d-1)^k, exponentiating gives h_1 = S_1,
h_2 = (S_1^2 - S_2)/2 and h_3 = (S_1^3 - 3 S_1 S_2 + 2 S_3)/6.  With
d = delta/N in lowest terms and delta' = delta - N, S_k = N^k T_k /
(delta delta')^k with the integer T_k = a delta'^k + b delta^k, so each
valuation is a v_p of an integer.  At d = a/m, m = a + b, a/d = m and
b/(d-1) = -m, so S_1 = 0, S_2 = m^3/(ab) and S_3 = m^3/a^2 - m^3/b^2:

    h_1 = 0,   h_2 = -m^3/(2ab),   h_3 = S_3/3 = m^4 (b - a)/(3 a^2 b^2).

The certificate's facts are: the tail premises v(d) = 0,
v(d - 1) = n - s and v_p(b) = n - s ("Tail bound"); h_1 = 0, as T_1 = 0;
v(c_2) = 2 v(e) + v_p(S_2) = tau; when p = 3 and n = 1,
v(c_3) = 3 v(e) + v_p(S_3) - 1 > tau or c_3 = 0; and the tail bound above
tau past L = 2 (L = 3 in that one shape).  Past the premises
w = v(d) + v(d - 1) + v(N) = n - s and v(c_k) = k v(e) + v_p(T_k) - k w -
v_p(k), so v(c_2) = tau is that p^k2 divides T_2 exactly,
k2 = tau - 2 v(e) + 2w, and v(c_3) > tau or c_3 = 0 is that p^k3 divides
T_3, k3 = floor(tau - 3 v(e)) + 3w + 2.  On a cover every fact holds.
With g = gcd(a, a+b), delta = a/g and N = (a+b)/g; g divides a, so
v_p(g) = 0, v(d) = v_p(a) - v_p(a+b) = 0, and delta' = -b/g gives
v(d - 1) = v_p(b) = n - s.  Then T_1 = 0, T_2 = ab(a+b)/g^2 has
v_p(T_2) = n - s = k2, as k2 = tau - 2 v(e) + 2(n - s) = n - s on the
locus, so v(c_2) = tau; and when p = 3 and n = 1, s = 1, k3 = 1 and
T_3 = ab(a-b)(a+b)/g^3, where a, b and a + b prime to 3 force a = b
mod 3, so 3 divides T_3 and v(c_3) > tau.  The tail bound is proved
under "The expansion length".  So v(c_2) = tau is the minimum, reached
at l = 2 alone, and every index divisible by p lies above it: condition
(i) with conductor h = 2 and count p^(n-1), on every cover of the shape
(tests/test_tail_proofs.py checks the identities).

Cubic centres.  The case (iii) centre (p = 3, s = 1 < n) is
d = (a + t)/m, m = a + b, with t^3 = r = 3^(2n+1) C(b, 3).  With N = m,
delta = N d = a + t and delta' = delta - N = t - b, multiplying the
defining sum by d^l (d-1)^l N^l gives c_l = u^l K_l, u = N e / (delta
delta'), with

    K_l = sum_{j=0..l} C(a, l-j) C(b, j) delta^j delta'^(l-j) = N^l P_l(d),
    P_l(d) = sum_{j=0..l} C(a, l-j) C(b, j) d^j (d-1)^(l-j).

P_l is a polynomial in d.  Its generating function
G = sum_l P_l z^l = (1 + (d-1) z)^a (1 + d z)^b satisfies
dG/dd = m z G - z^2 dG/dz, as both sides equal
z G (a/(1 + (d-1) z) + b/(1 + d z)); so P_l' = (m - l + 1) P_(l-1), and
P_l has degree l with leading coefficient C(m, l).  At x = a/m,
P_1(x) = m x - a = 0, and P_l(x) = h_l(x) x^l (x-1)^l with
x (x-1) = -ab/m^2 gives P_2(x) = -ab/(2m) and P_3(x) = ab (a-b)/(3 m^2)
from h_2 and h_3 above.  So P_2'(x) = P_3''(x) = 0 (multiples of
P_1(x)) and P_3'(x) = (m - 2) P_2(x).  As d = x + t/m, the Taylor
expansion K_l = m^l sum_k P_l^(k)(x) (t/m)^k / k!, with t^3 read as r,
gives

    K_1 = (0, m, 0),
    K_2 = (-abm/2, 0, m(m-1)/2),
    K_3 = (m (2ab(a-b) + (m-1)(m-2) r)/6, -abm(m-2)/2, 0),

as triples (c_0, c_1, c_2) read as c_0 + c_1 t + c_2 t^2.  Every
coordinate is an integer: ab(a+b) is even, ab(a^2 - b^2) is divisible
by 3, and m(m-1)(m-2) by 6.  `expand_disk` writes these down, and refuses
any other centre.  As 3 does not divide v_3(r) on a cover (below), x^3 - r
is irreducible over Q and 1, t, t^2 is a basis of Q(t), so the triple of
K_l is unique.  The valuation needs no norm.  The Newton polygon of
x^3 - r over Q_p is one segment of slope v_p(r)/3, whose denominator is 3,
so Q_p(t) is totally ramified of degree 3, v extends uniquely, and
v(t) = v_p(r)/3.  The term c_j t^j has valuation v_p(c_j) + j v(t), in
j v_p(r)/3 + Z, and the classes of 0, v_p(r)/3 and 2 v_p(r)/3 mod 1 are
distinct, so two nonzero terms never tie and

    v(c_0 + c_1 t + c_2 t^2) = min over c_j != 0 of (v_p(c_j) + j v(t)),

exactly.  On the locus v(t) = n - 1/3 and v(e) = n - 1/4, so the scale
E = lcm(den v(e), 6) is 12, the ramification index of Q_3(pi)(t),
pi^4 = 3, where the same disk has the same valuations.  No tower is built.

Valuations without coefficients.  As c_l = u^l K_l, valuations are
multiplicative: scaled by E, which puts v(t), tau and v(e) in (1/E) Z,
E v(c_l) = l slope + E v(K_l) with slope = E v(u) =
E (v(e) + v(N) - v(delta) - v(delta')).  Condition (ii) compares
coefficients, not just valuations, in c_3 - c_1^3 / 3^M = u^3 3^(-M) Y,
Y = 3^M K_3 - K_1^3, M = 2n + 1, and K_1^3 = m^3 r is rational, so
Y = 3^M K_3 - m^3 r needs no product of triples, and
v(c_3 - c_1^3 / 3^M) > tau exactly when Y = 0 or
3 slope + E v(Y) - E M > E tau.

Each clause compares the least term E v_3(c_j) + j et, et = E v(t), over
the nonzero coordinates c_j of a triple with a bound B that E, slope and
tau fix, so it is a test of each coordinate.  The least term lies above B
exactly when 3^k_j divides c_j for every j, k_j = max(floor((B - j et)/E)
+ 1, 0) (_exponents_above; a zero coordinate passes).  It equals B
exactly when every term lies at or above B and the term of the one
coordinate j that can meet B equals it: the classes of 0, et and 2 et mod
E differ, so at most one (B - j et)/E is an integer, and v_3(c_j) must be
that integer, that is 3^(k_j + 1) does not divide c_j.  When no j has an
integer target >= 0, the equality cannot hold.  v(c_1) > n and
v(c_3) > n test K_1 and K_3 against B = E n - slope and E n - 3 slope,
v(c_2) = tau tests K_2 against E tau - 2 slope, and the Y check tests Y
against E tau + E M - 3 slope.

`classify_torsor_reduction` checks, in order: v(c_1) > n, v(c_3) > n
and v(c_2) = tau, the clauses of condition (ii) that read a valuation,
in the order in which they are named; Y; and the tail bound past L = 3.
A failed tail bound raises PrecisionExhausted, and any other failed fact
returns NotCertified naming it.  The spec is a CoverSpec, as expand_disk
requires, so the cover rule gives every valuation of the centre, with
s = 1: v_3(b) = n - 1 >= 1, so b - 1 and b - 2 are units,
v_3(r) = 2n + 1 + v_3(b) - 1 = 3n - 1 and
v(t) = n - 1/3; v(delta) = v(a + t) = 0, as v_3(a) = 0 < v(t);
v(delta') = v(t - b) = min(n - 1/3, n - 1) = n - 1, with no tie; and
v_3(N) = v_3(m) = 0.  So v(d) = 0 and v(d - 1) = n - s, the tail
premises, and v_3(a - b) = 0 (b is divisible by 3 and a is not), and the
closed forms give v(K_1) = n - 1/3, v(K_2) = v_3(abm/2) = n - 1 and
v(K_3) = v_3(m ab (a-b)/3) = n - 2 (each other term lies higher), and
v(u) = v(e) - n + 1.  So

    v(c_1) = v(e) + 2/3,   v(c_3) = 3 v(e) - 2n + 1,   v(c_2) = 2 v(e) - n + 1,

each check is a fact about v(e) alone, and a doctored radius fails each
of them first: v(e) <= n - 2/3, n - 2/3 < v(e) <= n - 1/3, and any
v(e) > n - 1/3 other than n - 1/4.  On the locus they read n + 5/12,
n + 1/4 and n + 1/2 = tau.  Past them v(e) = n - 1/4, and no input fails the last
two checks.  Y = (3^(2n) m (m-2) ((m-1) r - b^2 (b(m-1) - 3a))/2,
-3^(2n+1) abm(m-2)/2, 0), where b(m-1) - 3a is divisible by 3, so
v(Y) >= 4n - 1 and v(c_3 - c_1^3 / 3^M) >= 9/4 + 4n - 1 - 2n - 1 > tau.
The check needs that cancellation: with K_1^3 added, not subtracted,
the first coordinate has v_3 exactly 3n - 1 and every cover is refused.
The tail bound clears tau past c_3 at this radius ("The expansion
length").  So condition (ii) holds with h = 2, and the verdict has
count 3^(n-1), on every cover of the shape.

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
such coefficients, and no clause of the criterion can see them: each
compares valuations with n or tau or looks for the indices where a
valuation equals tau, and coefficient values are read only at l = 1 and
p <= L.  So c_1 .. c_L decide the criterion, and the test oracles that
expand the same disks to L = 2p and beyond reach the same verdicts.

Case (v) centres.  For p = 2 the new-tail centre is d = x + R with
x = a/(a+b) and R^2 = 2^n b i/(a+b)^4, so d lies in Q_2(i) or in a
quadratic extension Q_2(i)(R).  The three facts of the mu_4 criterion
(v(c_2) = n, the congruence, v(c_l) >= n + 1 for l >= 3) are read from
valuations of Gaussian rationals, with no tower and no expansion.  Once
v(c_2) = n holds, the congruence c_1^2 / c_2 =
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
m (m - 1) R^2 / 2.  N cancels from every valuation the facts read:
v(c_l) = l (v(e) - v(d) - v(d - 1)) + v(K_l / N^l), and K_1 / N is R times
a rational, while K_2 / N^2 and X / N^2 are Gaussian rationals.  In Q_2(i),
v(1 + i) = 1/2 and v(z) is half the 2-adic valuation of the norm of z, so
the facts compare integers at the scale E = 4, with v(R) = v(R^2) / 2.
With slope = 4 (v(e) - n + s), v(c_2) = n is that 2^k2 divides the norm
of 2 m^3 K_2 / N^2 exactly, k2 = 2n + 2 - slope, and the congruence that
2^kx divides the norm of m^3 X / N^2, kx = 4n + 4 - slope (X = 0 passes).

On a cover both hold.  On the locus v(e) = (2n - s + 1)/2, so
slope = 2s + 2, k2 = 2(n - s) and kx = 2(2n - s + 1).  a and m are odd,
as v_2(a) = v_2(a+b) = 0, so m - 1 and 1 + a m are even.
2 m^3 K_2 / N^2 = -abm^2 + (m - 1) 2^n b i: the real part has
v_2 = v_2(b) = n - s, the imaginary part v_2 >= 1 + n + (n - s), higher,
so the norm has v_2 exactly 2(n - s) = k2.  m^3 X / N^2 =
2^(2n) (m - 1) b + 2^n b m (1 + am) i: both parts have
v_2 >= 2n - s + 1 = kx/2, so 2^kx divides the norm.  With the l >= 3
bound below, every cover of the shape gets the verdict of count
2^(n-2) and first upper jump 1.

No tie at a cover's locus.  d = x + R lies in Q_2(i) or in Q_2(i)(R),
and v(d) = min(v(x), v(R)) and v(d - 1) = min(v(x - 1), v(R)) for every
extension of v to that field, unless the two terms tie.  On a cover
v_2(m) = 0 and v_2(b) = n - s, so v(x) = 0, v(x - 1) = v(-b/m) = n - s and
v(R) = v(R^2)/2 = (n + n - s)/2 = n - s/2, which lies strictly between
them when 1 <= s < n: n - s < n - s/2 as s > 0, and n - s/2 > 0 as
s < 2n.  So no tie occurs, and v(d) = 0 and v(d - 1) = n - s whichever
way v extends: the certificate reads no irreducibility, and neither
square root of R^2 changes a valuation.  Every cover's spec is a
CoverSpec, so 1 <= s < n and the cover rule hold.

The l >= 3 bound.  On a cover v(d) = 0 and v(d - 1) = v(b) = n - s, the
premises of the tail bound, so it holds at every l, and on the locus
v(e) = (2n - s + 1)/2, sigma = (s + 1)/2, so check_tail_dominated(spec,
v_e, 2, n + 1, strict=False) reads g(3) = n + (s + 1)/2 and g(4) = n + s,
both at least n + 1 (s >= 1), and stops there as 4 sigma >= 1.  So every
l >= 3 is certified: no c_l past c_2 is computed, and case (v) has no
expansion length at all.

Per shape and per cover.  The proofs above read only the cover rule,
so on the new-tail disk of every cover of a shape (p, n, s) the
certificate reaches one verdict, and each per-cover fact it once checked
holds; analyzer._shape_facts holds that verdict with the tail check at
the locus radius, the one fact that is run (analyzer._tail_verdict):
certify_tail runs it on each call, and analyze once per shape, on a miss
of its report template, and both hand the verdict out past their w
steps.  A failed tail check, which no shape has, raises its
PrecisionExhausted.  A warm cover reads no coefficient, valuation or
power of p.  tests/test_tail_proofs.py checks each proof's identities
with sympy, and tests/rational_oracle.py keeps the certificates that
check each fact per cover with v_p (vp_classify_rational_centre,
vp_classify_p2_torsor), the oracles of the verdict on every cover of the
grids.

classify_torsor_reduction still classifies any case (iii) expansion of
expand_disk, at any radius: its facts compare a valuation with a value
that E, E v(e), E tau and the slope fix, so each is a divisibility test
of a coordinate, v_3(x) = k exactly when 3^k divides x and 3^(k+1) does
not, v_3(x) >= k (or x = 0) exactly when 3^k divides x.  _cubic_shape
computes the exponents, their powers of 3 and the verdict from n, s and
the radius on each call; _cubic_verdict tests K_1, K_3, K_2 and Y in the
order above, then runs the tail check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import CertificationFailed, PrecisionExhausted
from .tower import check_prime, vp_int


# -- the cover ---------------------------------------------------------------

def _as_int(name: str, value) -> int:
    """value as a plain int (operator.index), so that equal inputs give
    equal specs and reports; a bool, a float or any other non-integer raises
    TypeError naming the argument."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not "
                        f"{type(value).__name__}") from None


#: the Moebius swaps branch_signature can make: none, or one of these
_SWAP_0_1 = ("x -> 1 - x",)  # exchanges 0 and 1
_SWAP_1_INF = ("x -> x/(x-1)",)  # fixes 0, exchanges 1 and infinity


@dataclass(frozen=True)
class CoverSpec:
    """The normal form of a cover y^(p^n) = x^a (x-1)^b, ramified of index
    p^s above 1, as branch_signature makes it.  Building one, directly or
    by dataclasses.replace, takes p, n, a, b and s as plain ints (_as_int:
    a bool or a non-integer raises TypeError naming the field) and swaps,
    (), _SWAP_0_1 or _SWAP_1_INF (any other value raises TypeError), then
    checks the shape (_stable_case) and the cover rule (_check_cover), so
    every CoverSpec is a cover (module docstring, "The cover rule").

    indices and original are derived, not given: the normal form is
    totally ramified above 0 and infinity, so the indices above 0, 1 and
    infinity of the cover as given are (p^n, p^s, p^n) with the swap's two
    points exchanged, and the swap is undone on (a, b).

    A frozen dataclass, with its equality, hash, repr and
    FrozenInstanceError; only __init__ is its own, which fills __dict__ in
    one step rather than with one frozen setattr per field."""
    p: int
    n: int
    a: int
    b: int
    s: int
    # ramification indices above (0, 1, infinity) of the cover as given
    indices: tuple = field(init=False)
    swaps: tuple = ()  # the Moebius normalization applied, if any
    original: tuple = field(init=False)  # (a, b) as given

    def __init__(self, p, n, a, b, s, swaps=()):
        if not (type(p) is int and type(n) is int and type(a) is int
                and type(b) is int and type(s) is int):
            p, n, a, b, s = (_as_int("p", p), _as_int("n", n),
                             _as_int("a", a), _as_int("b", b),
                             _as_int("s", s))
        if swaps == ():
            swaps, original = (), (a, b)
        elif swaps == _SWAP_0_1:
            swaps, original = _SWAP_0_1, (b, a)
        elif swaps == _SWAP_1_INF:
            swaps, original = _SWAP_1_INF, (a, -a - b)
        else:
            raise TypeError(f"swaps must be (), {_SWAP_0_1} or "
                            f"{_SWAP_1_INF}, not {swaps!r}")
        self.__dict__.update(p=p, n=n, a=a, b=b, s=s, swaps=swaps,
                             original=original)
        self.__post_init__()
        # after the checks, so that a refused spec builds no p^n
        q, qs = p ** n, p ** s
        self.__dict__["indices"] = ((qs, q, q) if swaps == _SWAP_0_1
                                    else (q, q, qs) if swaps else (q, qs, q))

    def __post_init__(self):
        _stable_case(self.p, self.n, self.s)
        _check_cover(self)

    def to_json(self):
        return {
            "p": self.p, "n": self.n, "a": self.a, "b": self.b, "s": self.s,
            "indices": list(self.indices),
            "swaps": list(self.swaps),
            "original": list(self.original),
        }


def _stable_case(p: int, n: int, s: int) -> str:
    """The case (i)-(v) of a cover of shape (p, n, s).  analyzer._shape_facts
    lists what each case gives, the conductor certificate and the tail
    verdict included, and analyzer._pieces the components it reads the
    case for; only new_tail_locus, whose centre reads a and b, dispatches
    on the label besides.  It refuses a shape no cover has: an s outside
    1 <= s <= n, or s = n for p = 2, where the cover would have three
    totally ramified points (branch_signature never makes one)."""
    if not 1 <= s <= n or (p == 2 and s == n):
        raise CertificationFailed(f"no cover of p = {p}, n = {n} has s = {s}")
    if p == 2:
        return "v"
    if s == n:
        return "i"
    if p > 3:
        return "ii"
    return "iii" if s == 1 else "iv"


def _check_cover(spec) -> None:
    """Raise CertificationFailed naming the first fact of the cover rule
    that spec breaks: a + b != 0, v_p(b) = n - s, v_p(a+b) = 0 and
    v_p(a) = 0 (module docstring, "The cover rule").  b = 0 fails the
    second and a = 0 the last."""
    p, n, s, a, b = spec.p, spec.n, spec.s, spec.a, spec.b
    if a + b == 0:
        raise CertificationFailed("a + b = 0: the centre a/(a+b) is undefined")
    if b:
        check_prime(p)
    # exactly p^(n-s) divides b; as v_p(b) < bit_length(b), a larger n - s,
    # and b = 0, fail before p^(n-s) is built
    if n - s >= b.bit_length() or b % (q := p ** (n - s)) or not b % (q * p):
        raise CertificationFailed("v_p(b) = n - s fails")
    if (a + b) % p == 0:
        raise CertificationFailed("v_p(a+b) = 0 fails")
    if a % p == 0:
        raise CertificationFailed("v_p(a) = 0 fails")


def _require_cover(spec, stage: str) -> None:
    """Raise TypeError unless spec is a CoverSpec: every public stage that
    reads the cover rule off its spec refuses any other object, so none
    certifies a stand-in that no rule checked."""
    if not isinstance(spec, CoverSpec):
        raise TypeError(f"{stage} takes a CoverSpec, not "
                        f"{type(spec).__name__}")


# -- the new-tail disk -------------------------------------------------------

class CubicCentre(NamedTuple):
    """The centre (c_0 + c_1 t + c_2 t^2)/den of a disk, t^3 = r: nums =
    (c_0, c_1, c_2), den != 0 and r are integers (module docstring, "Cubic
    centres").  The case (iii) centre is ((a, 1, 0), a + b,
    _cube_radicand(n, s, b))."""
    nums: tuple
    den: int
    r: int


def _cube_radicand(n: int, s: int, b: int) -> int:
    """3^(2(n-s)+3) C(b,3), of valuation 3(n-s)+2: the cube-root radicand of
    d' in case (iv) and, at s = 1, of the new-tail centre in case (iii)."""
    return 3 ** (2 * (n - s) + 3) * (b * (b - 1) * (b - 2) // 6)


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


class DiskExpansion(NamedTuple):
    """The case (iii) centre's disk x = d + e t, d a `CubicCentre`, e given
    by v_e = v(e) alone, and ks = (K_1, K_2, K_3), the integer triples with
    c_l = u^l K_l, u = N e / (delta delta') (module docstring, "Cubic
    centres")."""
    spec: CoverSpec
    d: CubicCentre
    v_e: Fraction
    ks: tuple


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
    """K_1, K_2 and K_3 on the disk x = d + e t of the case (iii) centre d,
    of radius valuation v_e = v(e), in closed form (module docstring,
    "Cubic centres"): no recurrence.  A centre that is no CubicCentre, a
    v_e that is no int or Fraction, or a spec that is no CoverSpec raises
    TypeError, so the expansion's spec is a cover; any other CubicCentre
    or a cover other than p = 3, s = 1 < n raises CertificationFailed, as
    the closed forms hold only at (a + t)/(a+b), t^3 = 3^(2n+1) C(b, 3)."""
    if not isinstance(d, CubicCentre):
        raise TypeError(f"expand_disk takes a CubicCentre, not "
                        f"{type(d).__name__}")
    if not isinstance(v_e, (int, Fraction)):
        raise TypeError(f"v(e) is an int or a Fraction, not "
                        f"{type(v_e).__name__}")
    _require_cover(spec, "expand_disk")
    p, n, s, a, b = spec.p, spec.n, spec.s, spec.a, spec.b
    m, r = a + b, d.r
    if (p, s) != (3, 1) or n < 2 or \
            d != CubicCentre((a, 1, 0), m, _cube_radicand(n, s, b)):
        raise CertificationFailed(
            "K_1, K_2 and K_3 are known only at the case (iii) centre "
            "(a + t)/(a+b), t^3 = 3^(2n+1) C(b, 3)")
    return DiskExpansion(spec, d, v_e, _disk_ks(a, b, m, r))


def _disk_ks(a: int, b: int, m: int, r: int) -> tuple:
    """(K_1, K_2, K_3) of the case (iii) disk of a cover with exponents a
    and b, m = a + b, at its centre (a + t)/m, t^3 = r (module docstring,
    "Cubic centres")."""
    ab = a * b
    return ((0, m, 0),
            (-ab * m // 2, 0, m * (m - 1) // 2),
            (m * (2 * ab * (a - b) + (m - 1) * (m - 2) * r) // 6,
             -ab * m * (m - 2) // 2, 0))


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


# -- the shape facts of a certificate ---------------------------------------

class _TailShape(NamedTuple):
    """What classify_torsor_reduction reads of the shape (p, n, s) and the
    radius v(e) alone, and no a or b (module docstring, "Per shape and per
    cover")."""
    exponents: tuple  # the target exponent of each per-cover comparison
    powers: tuple  # p to those exponents, the divisors that decide them
    verdict: ReductionVerdict  # of a cover that passes every per-cover check


def _exponents_above(bound: int, E: int, et: int) -> tuple:
    """The least k >= 0 with E k + j et > bound, for each coordinate j of a
    triple: 3^k divides c_j exactly when its term c_j t^j lies above
    bound / E, or c_j = 0."""
    return tuple(max((bound - j * et) // E + 1, 0) for j in range(3))


def _cubic_shape(n: int, s: int, v_e) -> _TailShape:
    """The shape facts of classify_torsor_reduction at v(e) = v_e, an int
    or a Fraction: E = lcm(den v_e, 6), tau = n + 1/2, and the exponents
    of 3 that the coordinates of K_1, K_3, K_2 and Y must reach, a triple
    each, with the coordinate j of K_2 that must meet tau and k_j + 1, and
    M = 2n + 1; the powers are 3 to each, the pair (j, 3^(k_j + 1)), or
    (0, 1) when no coordinate can meet tau (module docstring, "Valuations
    without coefficients")."""
    E = lcm(v_e.denominator, 6)
    ve, T = _scaled(v_e, E), E * n + E // 2
    et = E * n - E // 3  # v(t) = n - 1/3
    # E v(N e / (delta delta')), as v(N) = v(delta) = 0, v(delta') = n - s
    slope = ve - E * (n - s)
    M = 2 * n + 1
    k1 = _exponents_above(E * n - slope, E, et)
    k3 = _exponents_above(E * n - 3 * slope, E, et)
    k2 = _exponents_above(T - 2 * slope - 1, E, et)
    # the one coordinate of K_2 whose term can meet E tau, and the exponent
    # it must not reach
    exact = next(((j, k + 1) for j, k in enumerate(k2)
                  if E * k + j * et == T - 2 * slope), None)
    ky = _exponents_above(T + E * M - 3 * slope, E, et)
    q1, q3, q2, qy = (tuple(3 ** k for k in ks) for ks in (k1, k3, k2, ky))
    powers = (q1, q3, q2, (exact[0], 3 ** exact[1]) if exact else (0, 1), qy,
              3 ** M)
    return _TailShape((k1, k3, k2, exact, ky, M), powers,
                      ReductionVerdict("SplitsArtinSchreier",
                                       count=3 ** (n - 1), conductor=2,
                                       notes=("condition (ii)",)))


# -- classification ----------------------------------------------------------

def classify_torsor_reduction(exp: DiskExpansion) -> ReductionVerdict:
    """Reduction type of the Artin-Schreier torsor on the case (iii) disk of
    `expand_disk`, from its K_1, K_2 and K_3 (module docstring, "Valuations
    without coefficients").  The spec is a CoverSpec, so v(d) = 0,
    v(d - 1) = n - s and v_3(a+b) = 0 follow from the cover rule.  It
    checks v(c_1) > n, v(c_3) > n and v(c_2) = tau; Y = 3^M K_3 - m^3 r;
    and the tail bound above tau past c_3.  A failed tail bound raises
    PrecisionExhausted, and any other failed fact returns NotCertified
    naming the clause of condition (ii) that fails.  The checks are
    _cubic_verdict's.  On the locus of a cover every check holds, so
    certify_tail and analyze take the verdict of the shape instead."""
    return _cubic_verdict(exp.spec, exp.d.den, exp.d.r, exp.ks, exp.v_e)


def _divisible(cs: tuple, qs: tuple) -> bool:
    """Is each coordinate of the triple cs divisible by its power in qs?"""
    return not (cs[0] % qs[0] or cs[1] % qs[1] or cs[2] % qs[2])


def _cubic_verdict(spec, m: int, r: int, ks: tuple, v_e) -> ReductionVerdict:
    """classify_torsor_reduction's checks on the disk of radius v_e = v(e)
    at the case (iii) centre (a + t)/m, t^3 = r, of the cover spec, whose
    K_1, K_2 and K_3 are ks.

    Of the shape and the radius: the verdict and the powers of 3
    (_cubic_shape).  Of the disk, in that order: each coordinate of K_1,
    then of K_3, is divisible by its power; each of K_2 is, and its one
    coordinate j that can meet tau is not divisible by 3^(k_j + 1); each
    of Y is divisible by its power; then the tail check above tau past
    c_3 runs, and raises its PrecisionExhausted if it fails."""
    _, powers, verdict = _cubic_shape(spec.n, spec.s, v_e)
    q1, q3, q2, (j, h2), qy, qM = powers
    k1, k2, k3 = ks
    if not _divisible(k1, q1):
        return ReductionVerdict("NotCertified", reason="v(c_1) <= n")
    if not _divisible(k3, q3):
        return ReductionVerdict("NotCertified", reason="v(c_p) <= n")
    if not _divisible(k2, q2) or not k2[j] % h2:
        return ReductionVerdict(
            "NotCertified", reason="min over i != 1, p is not n + 1/(p-1)")
    y = (qM * k3[0] - m ** 3 * r, qM * k3[1], qM * k3[2])
    if not _divisible(y, qy):
        return ReductionVerdict(
            "NotCertified",
            reason="v(c_p - c_1^p / p^((p-1)n+1)) <= n + 1/(p-1)")
    check_tail_dominated(spec, v_e, 3, spec.n + Fraction(1, 2))
    return verdict
