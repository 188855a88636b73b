"""The recurrences that expand a disk to any length, and the general
classifier of an expansion, kept as the oracles of the closed-form
certificates `series.classify_rational_centre` and
`series.classify_torsor_reduction`; and the closed-form certificates as
they read every valuation with v_p (`vp_classify_rational_centre`,
`vp_classify_torsor_reduction`, `vp_classify_p2_torsor`), kept as the
oracles of the package's, which decide each fact with a divisibility test
against a power of p of the shape's record.

`certify_tail` used to expand the cover on the disk of the rational centre
a/(a+b) (cases i, ii and iv) to c_2p by the fraction-free recurrence below,
in integers, and the case (iii) centre (a + t)/(a+b), t^3 = r, to c_3 by the
same recurrence on integer triples of Z[t]/(t^3 - r), and classified the
expansion.  It now reads c_1, c_2 and c_3, or K_1, K_2 and K_3, in closed
form.  `expand_rational` and `expand_cubic` are those expansions,
`RationalExpansion` and `CubicExpansion` their values K_l with the fields
and methods that `classify_expansion`, the general classifier, reads, and
`certify_tail` the old path from the spec to the verdict.

The recurrence (series module docstring, "Cubic centres"): from
h'/h = a/(d+t) + b/(d-1+t), comparing t^l coefficients of
(d+t)(d-1+t) h' = (a(d-1+t) + b(d+t)) h, multiplied through by
(delta delta')^l / N^(l-1),

    (l+1) K_{l+1} = (a delta' + b delta - (2 delta - N) l) K_l
                    + (a+b-l+1) delta delta' K_{l-1},

with K_0 = 1, K_{-1} = 0, and no inverse.  The division by l + 1 is exact
(checked, never floored).
"""

from fractions import Fraction
from math import lcm

from padic_sr.analyzer import new_tail_locus
from padic_sr.errors import CenterOnBranchLocus, PrecisionExhausted
from padic_sr.series import (
    CubicCentre,
    ReductionVerdict,
    _require_cover,
    _scaled,
    check_tail_dominated,
)
from padic_sr.tower import vp_int, vp_rational


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


def default_truncation(p: int) -> int:
    """The series length L = 2p that every expansion once ran to."""
    return 2 * p


class RationalExpansion:
    """The disk x = d + e t of a rational centre d, as the integers
    K_0 .. K_L with c_l = r^l K_l, r = N e / (delta delta'), and e given by
    its valuation v_e alone.  The profile scale E is the denominator of
    v_e times what makes 1/(p-1) a multiple of 1/E."""

    def __init__(self, spec, d, v_e, coeffs, r_factors):
        self.spec, self.d, self.v_e = spec, d, v_e
        self.ks = list(coeffs)
        self.r_factors = r_factors  # (N, delta, delta')
        self.scale = lcm(v_e.denominator, spec.p - 1)

    @property
    def truncation(self) -> int:
        return len(self.ks) - 1

    @property
    def slope(self) -> int:
        """E v(r) = E (v(e) + v(N) - v(delta) - v(delta'))."""
        N, delta, delta1 = self.r_factors
        return (_scaled(self.v_e, self.scale) + self._scaled_val(N)
                - self._scaled_val(delta) - self._scaled_val(delta1))

    def _scaled_val(self, x: int) -> int:
        return self.scale * vp_int(x, self.spec.p)

    def scaled_profile(self):
        slope = self.slope
        return [l * slope + self._scaled_val(k) if k else None
                for l, k in enumerate(self.ks)]

    def profile(self):
        return [None if v is None else Fraction(v, self.scale)
                for v in self.scaled_profile()]

    def _scaled_defect(self, M: int):
        """E v(Y), Y = p^M K_p - K_1^p, or None when Y = 0."""
        p = self.spec.p
        y = p ** M * self.ks[p] - self.ks[1] ** p
        return self._scaled_val(y) if y else None

    def check_tail_premises(self):
        p = self.spec.p
        _check_premises(self.spec, vp_rational(self.d, p),
                        vp_rational(self.d - 1, p))


def _cmul(x, y, r):
    """The product of two triples in Z[t]/(t^3 - r)."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return (x0 * y0 + r * (x1 * y2 + x2 * y1),
            x0 * y1 + x1 * y0 + r * x2 * y2,
            x0 * y2 + x1 * y1 + x2 * y0)


class CubicExpansion(RationalExpansion):
    """The disk x = d + e t of a `CubicCentre` d, as the integer triples
    K_0 .. K_L with c_l = r^l K_l, r = N e / (delta delta') and r_factors =
    (N, delta, delta'); e is given only by its valuation v_e.  Valuations
    are scaled by E = lcm(den v_e, 3, p - 1), so they are integers: a
    triple is valued as the least v_p(c_j) + j v(t), v(t) = v_p(r)/3
    (series module docstring, "Cubic centres"), which needs v_p(r) prime
    to 3."""

    def __init__(self, spec, d, v_e, coeffs, r_factors):
        if not isinstance(d, CubicCentre):
            raise TypeError(f"CubicExpansion takes a CubicCentre, not "
                            f"{type(d).__name__}")
        if not isinstance(v_e, (int, Fraction)):
            raise TypeError(f"v(e) is an int or a Fraction, not "
                            f"{type(v_e).__name__}")
        super().__init__(spec, d, v_e, coeffs, r_factors)
        self.scale = lcm(v_e.denominator, 3, spec.p - 1)
        self._vr = vp_int(d.r, spec.p)  # v_p(r); checks that p is prime
        if self._vr % 3 == 0:
            raise ValueError("a cubic centre needs v_p(r) prime to 3")

    @classmethod
    def of_disk(cls, disk):
        """The CubicExpansion of the K_1, K_2 and K_3 that
        `series.expand_disk` returns, with K_0 = 1."""
        (c0, c1, c2), N = disk.d.nums, disk.d.den
        return cls(disk.spec, disk.d, disk.v_e, [(1, 0, 0), *disk.ks],
                   (N, (c0, c1, c2), (c0 - N, c1, c2)))

    def _scaled_val(self, x) -> int:
        """E v(x) for a nonzero integer or triple of the centre's ring."""
        E, p = self.scale, self.spec.p
        if isinstance(x, tuple):
            et = E * self._vr // 3
            return min(E * vp_int(c, p) + j * et for j, c in enumerate(x)
                       if c)
        return E * vp_int(x, p)

    def scaled_profile(self):
        slope = self.slope
        return [l * slope + self._scaled_val(k) if any(k) else None
                for l, k in enumerate(self.ks)]

    def _scaled_defect(self, M: int):
        p = self.spec.p
        k1, kp = self.ks[1], self.ks[p]
        power = k1
        for _ in range(p - 1):
            power = _cmul(power, k1, self.d.r)
        y = tuple(p ** M * u - w for u, w in zip(kp, power))
        return self._scaled_val(y) if any(y) else None

    def check_tail_premises(self):
        """v(d) = 0 and v(d - 1) = v_p(b) = n - s, read from the triples."""
        E, (c0, c1, c2), den = self.scale, self.d.nums, self.d.den
        v_den = self._scaled_val(den)
        _check_premises(self.spec,
                        Fraction(self._scaled_val(self.d.nums) - v_den, E),
                        Fraction(self._scaled_val((c0 - den, c1, c2)) - v_den,
                                 E))


def expand_rational(spec, d: Fraction, v_e, L=None) -> RationalExpansion:
    """K_0 .. K_L, L = 2p by default, on the disk of the rational centre d
    by the integer recurrence, whose division by l + 1 is checked."""
    if d == 0 or d == 1:
        raise CenterOnBranchLocus("disk center lies on the branch locus")
    a, b = spec.a, spec.b
    N, delta = d.denominator, d.numerator
    delta1 = delta - N
    # (l+1) K_{l+1} = A_l K_l + (a+b-l+1) P K_{l-1}, with
    # A_l = a delta' + b delta - S l and P = delta delta'
    A = a * delta1 + b * delta
    S = 2 * delta - N
    P = delta * delta1
    ks = [1]
    k_prev, k = 0, 1
    for l in range(default_truncation(spec.p) if L is None else L):
        x = A * k + (a + b - l + 1) * P * k_prev
        k_prev, (k, rem) = k, divmod(x, l + 1)
        if rem:
            raise ArithmeticError(f"{x} is not divisible by {l + 1}")
        A -= S
        ks.append(k)
    return RationalExpansion(spec, d, v_e, ks, (N, delta, delta1))


def expand_cubic(spec, d, v_e, L=3) -> CubicExpansion:
    """K_0 .. K_L, L = 3 by default, on the disk of any CubicCentre d by the
    same recurrence on integer triples, whose division by l + 1 is checked
    in each coordinate."""
    N, delta, r = d.den, d.nums, d.r
    if delta in ((0, 0, 0), (N, 0, 0)):
        raise CenterOnBranchLocus("disk center lies on the branch locus")
    a, b = spec.a, spec.b
    delta1 = (delta[0] - N, delta[1], delta[2])
    A = tuple(a * u + b * w for u, w in zip(delta1, delta))
    S = (2 * delta[0] - N, 2 * delta[1], 2 * delta[2])
    P = _cmul(delta, delta1, r)
    ks = [(0, 0, 0), (1, 0, 0)]  # K_{-1}, K_0
    for l in range(L):
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
    return CubicExpansion(spec, d, v_e, ks[1:], (N, delta, delta1))


def classify_expansion(exp) -> ReductionVerdict:
    """The general classifier: the reduction type of the Artin-Schreier
    torsor (p odd) from the valuation profile of an expansion to any L >= p,
    compared as integers scaled by E = exp.scale against E tau,
    tau = n + 1/(p-1), by conditions (i) and (ii) of the series module
    docstring.  Reads the K_l, exp.slope, exp._scaled_defect and
    exp.check_tail_premises only, of a RationalExpansion, CubicExpansion or
    TowerExpansion.  An expansion not normalized to c_0 = 1, or one that
    stops before c_p (both conditions read c_p), is refused with
    ValueError, and so is a p = 2 expansion."""
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


def certify_tail(spec):
    """certify_tail of an odd-p spec as it was: the expansion of the
    rational centre to c_2p, or of the case (iii) centre to c_3, and its
    classification."""
    if spec.p == 2:
        raise ValueError("not an odd-p spec")
    locus = new_tail_locus(spec)
    expand = expand_rational if isinstance(locus.d, Fraction) else expand_cubic
    return classify_expansion(expand(spec, locus.d, locus.v_e))


# -- the closed-form certificates, every valuation read with v_p ------------
# Each computes what the package's shape records hold (E, E v(e), E tau, L,
# the verdict) on every call, and runs the tail check where the record's
# outcome is read, so it raises and names what the package does.

def _val3(x, E: int, et: int) -> int:
    """E v(c_0 + c_1 t + c_2 t^2) of a nonzero triple, E v(t) = et: the
    least E v_3(c_j) + j et (series module docstring, "Cubic centres")."""
    return min(E * vp_int(c, 3) + j * et for j, c in enumerate(x) if c)


def vp_classify_torsor_reduction(exp) -> ReductionVerdict:
    """series.classify_torsor_reduction, each triple valued by _val3."""
    spec, m, v_e = exp.spec, exp.d.den, exp.v_e
    n = spec.n
    E = lcm(v_e.denominator, 6)
    ve, T = _scaled(v_e, E), E * n + E // 2
    et = E * n - E // 3  # v(t) = n - 1/3
    # E v(N e / (delta delta')), as v(N) = v(delta) = 0, v(delta') = n - s
    slope = ve - E * (n - spec.s)
    k1, k2, k3 = exp.ks
    if slope + _val3(k1, E, et) <= E * n:
        return ReductionVerdict("NotCertified", reason="v(c_1) <= n")
    if 3 * slope + _val3(k3, E, et) <= E * n:
        return ReductionVerdict("NotCertified", reason="v(c_p) <= n")
    if 2 * slope + _val3(k2, E, et) != T:
        return ReductionVerdict(
            "NotCertified", reason="min over i != 1, p is not n + 1/(p-1)")
    M = 2 * n + 1
    y = (3 ** M * k3[0] - m ** 3 * exp.d.r, 3 ** M * k3[1], 3 ** M * k3[2])
    if any(y) and 3 * slope + _val3(y, E, et) - E * M <= T:
        return ReductionVerdict(
            "NotCertified",
            reason="v(c_p - c_1^p / p^((p-1)n+1)) <= n + 1/(p-1)")
    check_tail_dominated(spec, v_e, 3, Fraction(T, E), strict=True)
    return ReductionVerdict("SplitsArtinSchreier", count=3 ** (n - 1),
                            conductor=2, notes=("condition (ii)",))


def vp_classify_rational_centre(spec, d: Fraction, v_e) -> ReductionVerdict:
    """series.classify_rational_centre, each fact read from v_p of an
    integer; the premises by _check_premises."""
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
    E = lcm(v_e.denominator, p - 1)
    ve, T = _scaled(v_e, E), E * n + E // (p - 1)
    L = 3 if p == 3 and n == 1 else 2
    # E v(c_k) = k E v_e + E (v_p(T_k) - k w - v_p(k)), T_k = a delta'^k +
    # b delta^k, compared with E tau as integers
    w = v_d + v_d1 + v_n
    t2 = a * delta1 ** 2 + b * delta ** 2
    if not t2 or 2 * ve + E * (vp_int(t2, p) - 2 * w) != T:
        return ReductionVerdict("NotCertified",
                                reason="v(c_2) != n + 1/(p-1)")
    if L == 3:
        t3 = a * delta1 ** 3 + b * delta ** 3
        if t3 and 3 * ve + E * (vp_int(t3, p) - 3 * w - 1) <= T:
            return ReductionVerdict("NotCertified",
                                    reason="v(c_3) <= n + 1/(p-1)")
    check_tail_dominated(spec, v_e, L, Fraction(T, E), strict=True)
    return ReductionVerdict("SplitsArtinSchreier", count=p ** (n - 1),
                            conductor=2, notes=("condition (i)",))


def _v4(re: int, im: int):
    """4 v(z) for the Gaussian integer z = re + im i, v(1 + i) = 1/2, or
    None for z = 0: half the 2-adic valuation of the norm, times 4."""
    norm = re * re + im * im
    return 2 * vp_int(norm, 2) if norm else None


def vp_classify_p2_torsor(spec, v_e: Fraction) -> ReductionVerdict:
    """series.classify_p2_torsor, each Gaussian rational valued by _v4."""
    _require_cover(spec, "classify_p2_torsor")
    if spec.p != 2:
        raise ValueError("odd p torsors are classified by "
                         "classify_rational_centre and "
                         "classify_torsor_reduction")
    n, s, a, b = spec.n, spec.s, spec.a, spec.b
    ve, T = _scaled(v_e, 4), 4 * n
    m, rho = a + b, 2 ** n * b
    # E v(c_l) = l slope + E v(K_l / N^l), E = 4, v(d) = 0, v(d - 1) = n - s
    slope = ve - 4 * (n - s)
    reasons = []
    if 2 * slope + _v4(-a * b * m * m, (m - 1) * rho) - 4 != T:
        reasons.append("v(c_2) != n")
    try:
        check_tail_dominated(spec, v_e, 2, Fraction(n + 1), strict=False)
    except PrecisionExhausted as exc:
        reasons.append(str(exc))
    if reasons:
        return ReductionVerdict("NotCertified", reason="; ".join(reasons))
    vx = _v4(2 ** n * (m - 1) * rho, rho * m + 2 ** n * a * b * m * m)
    if not (vx is None or vx + 2 * slope >= 4 * (2 * n + 2)):
        return ReductionVerdict(
            "NotCertified",
            reason="c_1^2/c_2 != 2^(n+1) i mod 2^(n+2) for either i")
    return ReductionVerdict(
        "SplitsZ4", count=2 ** (n - 2), conductor=1,
        notes=("sqrt(c_2) adjoined on demand",
               "congruence holds with i -> +i"))
