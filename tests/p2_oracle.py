"""The tower path of case (v), kept as the oracle of its closed forms.

`certify_tail` builds the new-tail centre d = a/(a+b) + R in Q_2(i)(w),
expands the cover there and classifies the expansion from its coefficient
valuations; `p2_center` builds the centres d_j that case (v) of
`conductor_bound` reads.  The package classifies the same disks from
valuations of Gaussian rationals, with no tower (`classify_p2_torsor`).
"""

from fractions import Fraction
from functools import lru_cache

from padic_sr.analyzer import _stable_case
from padic_sr.errors import PrecisionExhausted
from padic_sr.series import ReductionVerdict, check_tail_dominated
from tower_helpers import q2_i, tower_expand_disk


@lru_cache(maxsize=2)
def centre_field(b_odd: int, c: int):
    """(tower, w) with w^2 = (-i)^c b' i, b' = b_odd: Q_2(i) itself when
    w^2 = +-1, else Q_2(i)(w)."""
    t = q2_i()
    i = t.gen(0)
    unit = ((-i) ** c) * b_odd * i
    if (unit - 1).is_zero():
        return t, t.rational(1)
    if (unit + 1).is_zero():
        return t, i
    t = t.adjoin_radical(2, unit, "w")
    return t, t.gen(1)


def p2_offset(n: int, s: int, a: int, b: int, j: int):
    """(tower, w, k, a/(a+b)) of the case (v) centre d_j = a/(a+b) + R_j,
    R_j = sqrt(2^(n-j) b i) / (a+b)^2.  The square root is (1+i)^k w_k with
    k = 2n - s - j and w_k^2 = (-i)^k b' i, b' = b/2^(n-s) odd, as
    (1+i)^2 = 2i, and w_k = i^((k-c)/2) w_c for c = k mod 2."""
    k = 2 * n - s - j
    t, w = centre_field(b // 2 ** (n - s), k % 2)
    return t, w, k, Fraction(a, a + b)


def p2_center(n: int, s: int, a: int, b: int, j: int):
    """(tower, d_j) for the centre d_j of p2_offset, with R_j (a+b)^2 =
    (1+i)^k i^(k//2) w_c = (-2)^(k//2) (1+i)^(k%2) w_c."""
    t, w, k, centre = p2_offset(n, s, a, b, j)
    if k % 2:
        w = w + t.gen(0) * w
    root = w * (-2) ** (k // 2)
    return t, t.rational(centre) + root * Fraction(1, (a + b) ** 2)


def tower_locus(spec):
    """(d, e) of the new-tail disk of a case (v) spec in its tower, e =
    (1+i)^(2n-s+1) of valuation (2n - s + 1)/2."""
    if _stable_case(spec.p, spec.n, spec.s) != "v":
        raise ValueError("not a case (v) spec")
    tower, d = p2_center(spec.n, spec.s, spec.a, spec.b, 0)
    return d, (1 + tower.gen(0)) ** (2 * spec.n - spec.s + 1)


def classify_p2(exp) -> ReductionVerdict:
    """The mu_4 classifier on a TowerExpansion: v(c_2) = n, v(c_l) >= n + 1
    for 3 <= l <= L = 4 with the tail bound beyond, and the congruence
    c_1^2 / c_2 = 2^(n+1) i mod 2^(n+2) as X = K_1^2 - 2^(n+1) i K_2."""
    spec = exp.spec
    n = spec.n
    tower = exp.tower
    prof = exp.scaled_profile()
    E = exp.scale
    if not exp.ks or exp.ks[0] != 1:
        raise ValueError("expansion is not normalized to c_0 = 1")
    if n < 2:
        return ReductionVerdict("NotCertified",
                                reason="p = 2 requires n >= 2")
    tau = Fraction(n + 1)
    T = E * (n + 1)
    reasons = []
    if prof[2] != E * n:
        reasons.append("v(c_2) != n")
    for l in range(3, exp.truncation + 1):
        if prof[l] is not None and prof[l] < T:
            reasons.append(f"v(c_{l}) < n + 1")
            break
    try:
        exp.check_tail_premises()
        check_tail_dominated(spec, exp.v_e, exp.truncation, tau, strict=False)
    except PrecisionExhausted as exc:
        reasons.append(str(exc))
    if reasons:
        return ReductionVerdict("NotCertified", reason="; ".join(reasons))
    notes = ["sqrt(c_2) adjoined on demand"]
    first = tower.steps[0] if tower.steps else None
    if first is None or first.degree != 2 or first.radicand != -1:
        return ReductionVerdict(
            "NotCertified", reason="tower contains no sqrt(-1)")
    x = exp.ks[1] * exp.ks[1] - 2 ** (n + 1) * (tower.gen(0) * exp.ks[2])
    if not (x == 0 or (exp._scaled_val(x) + 2 * exp.slope
                       >= E * (2 * n + 2))):
        return ReductionVerdict(
            "NotCertified",
            reason="c_1^2/c_2 != 2^(n+1) i mod 2^(n+2) for either i")
    notes.append("congruence holds with i -> +i")
    return ReductionVerdict("SplitsZ4", count=2 ** (n - 2), conductor=1,
                            notes=tuple(notes))


def certify_tail(spec) -> ReductionVerdict:
    """The case (v) certify_tail through the tower: the centre in
    Q_2(i)(w), the expansion there, and classify_p2."""
    d, e = tower_locus(spec)
    return classify_p2(tower_expand_disk(spec, d, e))
