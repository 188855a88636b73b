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

with h_0 = 1, h_{-1} = 0.  `expand_disk` runs it with one tower inverse,
1/(d(d-1)), and O(L) tower operations for the whole expansion.

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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CenterOnBranchLocus,
    ConvergenceViolated,
    PrecisionExhausted,
)
from .jsonutil import ratstr
from .tower import TowerElement, vp_rational

#: l index beyond which a single linear bound takes over from the per-l
#: minimum `tail_bound`
_EXACT_TAIL_HORIZON = 64


def default_truncation(p: int) -> int:
    env = os.environ.get("PADIC_SR_TRUNCATION")
    if env:
        return int(env)
    return max(p + 1, 2 * p)


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


@dataclass
class DiskExpansion:
    """Coefficients of the cover equation restricted to the disk x = d + e t."""

    spec: object  # anything with fields p, n, a, b, s
    d: TowerElement
    e: TowerElement
    coeffs: list  # c_0 .. c_L, TowerElements
    truncation: int
    _profile: list = field(default=None, repr=False)

    def profile(self):
        """[(l, v(c_l))] with None for zero coefficients (valuation +inf)."""
        if self._profile is None:
            out = []
            tower = self.d.tower
            for l, c in enumerate(self.coeffs):
                out.append(None if c.is_zero() else tower.val(c))
            self._profile = out
        return self._profile

    def profile_json(self):
        return [
            [l, "inf" if v is None else ratstr(v)]
            for l, v in enumerate(self.profile())
        ]


@dataclass(frozen=True)
class ReductionVerdict:
    kind: str  # "SplitsArtinSchreier" | "SplitsZ4" | "NotCertified"
    count: int | None = None
    conductor: int | None = None  # h for Artin-Schreier; first upper jump for Z4
    reason: str | None = None
    witness: tuple = ()  # the valuation profile used, ((l, Fraction|None), ...)
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


def expand_disk(spec, d, e, L: int | None = None) -> DiskExpansion:
    """Expand the normalized cover equation on the disk x = d + e t up to t^L."""
    p = spec.p
    if L is None:
        L = default_truncation(p)
    if L < p + 1:
        raise ValueError("truncation must be at least p + 1")
    tower = d.tower
    e = tower.coerce(e)
    if d.is_zero() or (d - 1).is_zero():
        raise CenterOnBranchLocus("disk center lies on the branch locus")
    coeffs = [tower.one()]
    if e.is_zero():
        coeffs.extend(tower.zero() for _ in range(L))
        return DiskExpansion(spec, d, e, coeffs, L)
    a, b = spec.a, spec.b
    # h_{l+1} = (A_l h_l + (a+b-l+1) h_{l-1}) / (d(d-1)(l+1)), with
    # A_l = a(d-1) + b d - (2d-1) l
    inv_dd = (d * (d - 1)).inverse()
    a0 = a * (d - 1) + b * d
    step = 2 * d - 1
    h_prev, h = tower.zero(), tower.one()
    e_pow = tower.one()
    for l in range(L):
        h_prev, h = h, ((a0 - step * l) * h + (a + b - l + 1) * h_prev) \
            * inv_dd * Fraction(1, l + 1)
        e_pow = e_pow * e
        coeffs.append(e_pow * h)
    return DiskExpansion(spec, d, e, coeffs, L)


# -- rigorous tail bound -----------------------------------------------------

def _log_floor(x: int, p: int) -> int:
    """floor(log_p x) for an integer x >= 1, exactly."""
    k, q = 0, p
    while q <= x:
        q *= p
        k += 1
    return k


def _vp_int(j: int, p: int) -> int:
    """v_p(j) for an integer j >= 1."""
    v = 0
    while j % p == 0:
        j //= p
        v += 1
    return v


def tail_bound(spec, v_e, l):
    """Rigorous lower bound for v(c_l), any l >= 1: the minimum over
    0 <= j <= l of the per-term bounds, in closed form (module docstring)."""
    p, n, s = spec.p, spec.n, spec.s
    k = _log_floor(l, p)
    if n == s:
        return l * v_e - k
    m = n - s
    return l * v_e + min(m - _vp_int(j, p) - j * m
                         for j in range(max(1, l - k), l + 1))


def _check_tail_premises(exp):
    """The per-term bound rests on v(d) = 0, v(d-1) = v_p(b) = n - s; verify
    these on the actual disk before trusting the bound."""
    spec = exp.spec
    tower = exp.d.tower
    p, n, s = spec.p, spec.n, spec.s
    if tower.val(exp.d) != 0:
        raise PrecisionExhausted("tail bound needs v(d) = 0")
    if tower.val(exp.d - 1) != n - s:
        raise PrecisionExhausted("tail bound needs v(d - 1) = n - s")
    if vp_rational(Fraction(spec.b), p) != n - s:
        raise PrecisionExhausted("tail bound needs v(b) = n - s")


def check_tail_dominated(spec, v_e, L, threshold, strict=True):
    """Certify v(c_l) > threshold (or >= when strict=False) for every l > L.

    The exact per-l minimum `tail_bound` up to the horizon; beyond it, every
    term obeys l*m1 + m0 - log_p(l) with m1 >= 1/2, which is increasing and
    already above the threshold at the horizon.  Raises PrecisionExhausted
    when this cannot be certified.
    """
    p, n, s = spec.p, spec.n, spec.s
    horizon = max(_EXACT_TAIL_HORIZON, 2 * L)
    for l in range(L + 1, horizon + 1):
        bnd = tail_bound(spec, v_e, l)
        if bnd > threshold or (not strict and bnd >= threshold):
            continue
        raise PrecisionExhausted(
            f"tail coefficient l={l}: bound {bnd} does not clear threshold "
            f"{threshold}"
        )
    # closed form beyond the horizon: worst term has
    #   v >= l * (v_e - (n - s)) + (n - s) - v_p(l)   (j = l corner)
    #   v >= l * v_e - v_p(l)                          (j = 0 corner)
    # both slopes are >= s/2 >= 1/2 for admissible specs; v_p(l) <= log_p(l)
    m1 = min(v_e, v_e - (n - s))
    if m1 <= 0:
        raise PrecisionExhausted("tail slope is not positive")
    # between l and p*l the bound grows by at least m1*(p-1)*l - 1 > 0, so
    # checking the horizon value suffices
    log_term = _log_floor(horizon + 1, p) + 1
    closed = (horizon + 1) * m1 - log_term
    if not (closed > threshold):
        raise PrecisionExhausted("closed-form tail bound too weak")
    if m1 * (p - 1) * (horizon + 1) <= 1:
        raise PrecisionExhausted("closed-form tail bound not monotone")


# -- classification ----------------------------------------------------------

def classify_torsor_reduction(exp: DiskExpansion) -> ReductionVerdict:
    spec = exp.spec
    p, n = spec.p, spec.n
    tower = exp.d.tower
    prof = exp.profile()
    if not exp.coeffs or not (exp.coeffs[0] - 1).is_zero():
        raise ValueError("expansion is not normalized to c_0 = 1")
    witness = tuple((l, v) for l, v in enumerate(prof))
    if exp.e.is_zero():
        return ReductionVerdict("NotCertified", reason="constant expansion",
                                witness=witness)
    v_e = tower.val(exp.e)
    if p == 2:
        return _classify_p2(exp, witness, v_e)
    tau = n + Fraction(1, p - 1)

    def v(l):
        return prof[l]  # None = +inf

    finite = [(l, prof[l]) for l in range(1, exp.truncation + 1)
              if prof[l] is not None]
    if not finite:
        return ReductionVerdict("NotCertified",
                                reason="all coefficients vanish",
                                witness=witness)
    _check_tail_premises(exp)
    check_tail_dominated(spec, v_e, exp.truncation, tau, strict=True)
    minv = min(val for _, val in finite)

    # condition (i): min_i v(c_i) = tau, strict above tau at p-divisible i
    def p_indices_above():
        return all(prof[l] is None or prof[l] > tau
                   for l in range(p, exp.truncation + 1, p))

    if minv == tau and p_indices_above():
        h = max(l for l, val in finite if val == tau)
        return ReductionVerdict("SplitsArtinSchreier", count=p ** (n - 1),
                                conductor=h, witness=witness,
                                notes=("condition (i)",))

    # condition (ii)
    reasons = []
    v1 = prof[1]
    vp_ = prof[p]
    if not (v1 is None or v1 > n):
        reasons.append("v(c_1) <= n")
    if not (vp_ is None or vp_ > n):
        reasons.append("v(c_p) <= n")
    rest = [(l, val) for l, val in finite if l not in (1, p)]
    if not rest or min(val for _, val in rest) != tau:
        reasons.append("min over i != 1, p is not n + 1/(p-1)")
    if not all(prof[l] is None or prof[l] > tau
               for l in range(2 * p, exp.truncation + 1, p)):
        reasons.append("v(c_i) <= n + 1/(p-1) at an index i > p divisible by p")
    if not reasons:
        c1, cp = exp.coeffs[1], exp.coeffs[p]
        corr = cp - c1 ** p * Fraction(1, p ** ((p - 1) * n + 1))
        if corr.is_zero() or tower.val(corr) > tau:
            h = max(l for l, val in rest if val == tau)
            return ReductionVerdict("SplitsArtinSchreier", count=p ** (n - 1),
                                    conductor=h, witness=witness,
                                    notes=("condition (ii)",))
        reasons.append("v(c_p - c_1^p / p^((p-1)n+1)) <= n + 1/(p-1)")
    if minv == tau:
        # name the clause the way the nearest condition fails
        bad = [l for l, val in finite if val == minv and l % p == 0]
        if bad and all(val > minv for l, val in finite if l % p != 0):
            return ReductionVerdict(
                "NotCertified", reason="minimum at index divisible by p",
                witness=witness)
    return ReductionVerdict("NotCertified", reason="; ".join(reasons) or
                            "minimum valuation is not n + 1/(p-1)",
                            witness=witness)


def _classify_p2(exp: DiskExpansion, witness, v_e):
    spec = exp.spec
    n = spec.n
    tower = exp.d.tower
    prof = exp.profile()
    if n < 2:
        return ReductionVerdict("NotCertified",
                                reason="p = 2 requires n >= 2",
                                witness=witness)
    tau = Fraction(n + 1)  # n + 1/(p-1) with p = 2
    reasons = []
    if prof[2] != Fraction(n):
        reasons.append("v(c_2) != n")
    for l in range(3, exp.truncation + 1):
        if prof[l] is not None and prof[l] < tau:
            reasons.append(f"v(c_{l}) < n + 1")
            break
    try:
        _check_tail_premises(exp)
        check_tail_dominated(spec, v_e, exp.truncation, tau, strict=False)
    except PrecisionExhausted as exc:
        reasons.append(str(exc))
    if reasons:
        return ReductionVerdict("NotCertified", reason="; ".join(reasons),
                                witness=witness)
    # c_2 is a square in R: a square root exists over an at-most-quadratic
    # extension of K, which the construction permits (adjoined on demand)
    notes = ["sqrt(c_2) adjoined on demand"]
    # congruence c_1^2 / c_2 = 2^(n+1) i mod 2^(n+2), either choice of i
    i_elem = _find_i(tower)
    if i_elem is None:
        return ReductionVerdict(
            "NotCertified", reason="tower contains no sqrt(-1)",
            witness=witness)
    c1, c2 = exp.coeffs[1], exp.coeffs[2]
    lhs = c1 * c1 * c2.inverse()
    ok_choice = None
    for sign in (1, -1):
        diff = lhs - (2 ** (n + 1)) * (i_elem * sign)
        if diff.is_zero() or tower.val(diff) >= n + 2:
            ok_choice = sign
            break
    if ok_choice is None:
        return ReductionVerdict(
            "NotCertified",
            reason="c_1^2/c_2 != 2^(n+1) i mod 2^(n+2) for either i",
            witness=witness)
    notes.append(f"congruence holds with i -> {'+' if ok_choice == 1 else '-'}i")
    return ReductionVerdict("SplitsZ4", count=2 ** (n - 2), conductor=1,
                            witness=witness, notes=tuple(notes))


def _find_i(tower):
    """Locate a square root of -1 among the tower generators (or products)."""
    for j, step in enumerate(tower.steps):
        g = tower.gen(j)
        for cand in (g, g * g):
            if (cand * cand + 1).is_zero():
                return cand
    return None


def binomial_root_series(g_coeffs, p: int, n: int, terms: int | None = None):
    """Coefficients of the p^(n-1)-st root of g = 1 + b w as a series in w.

    Requires v(b) = n + 1/(p-1).  Returns [1, a, ...] with a = b / p^(n-1),
    v(a) = p/(p-1); every later coefficient is checked to have valuation
    strictly greater than p/(p-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(g_coeffs) < 2:
        raise ValueError("need g = 1 + b w")
    one, b = g_coeffs[0], g_coeffs[1]
    tower = b.tower
    if not (tower.coerce(one) - 1).is_zero():
        raise ConvergenceViolated("series must start at 1")
    if any(not tower.coerce(c).is_zero() for c in g_coeffs[2:]):
        raise ConvergenceViolated("only 1 + b w inputs are supported")
    if n == 1:
        return [tower.one()] + [tower.coerce(c) for c in g_coeffs[1:]]
    if b.is_zero():
        raise ConvergenceViolated("b must be nonzero")
    target = n + Fraction(1, p - 1)
    if tower.val(b) != target:
        raise ConvergenceViolated(
            f"v(b) = {tower.val(b)} but the root expansion needs {target}"
        )
    M = p ** (n - 1)
    if terms is None:
        terms = p + 2
    out = [tower.one()]
    ppf = Fraction(p, p - 1)
    for k in range(1, terms + 1):
        ck = binom_falling(Fraction(1, M), k)
        coeff = ck * b ** k
        out.append(coeff)
        if k == 1:
            if tower.val(coeff) != ppf:
                raise ConvergenceViolated("leading root coefficient has the "
                                          "wrong valuation")
        elif not coeff.is_zero() and not (tower.val(coeff) > ppf):
            raise ConvergenceViolated(
                f"degree-{k} coefficient valuation fails the p/(p-1) bound"
            )
    # all k > terms: v >= k * (v(b) - (n-1) - 1/(p-1)) = k > p/(p-1); exact
    # by v(C(1/M, k)) >= -k(n-1) - v(k!) and v(k!) <= k/(p-1)
    return out
