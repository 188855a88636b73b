"""The integer recurrence of a rational disk centre, kept as the oracle of
the closed-form certificate `series.classify_rational_centre`.

`certify_tail` used to expand the cover on the disk of the rational centre
a/(a+b) (cases i, ii and iv) to c_2p by the fraction-free recurrence of the
series module docstring, in integers, and classify the expansion.  It now
reads c_1, c_2 and c_3 in closed form.  `expand_rational` is that
expansion, `RationalExpansion` its values K_l with the fields and methods
that `classify_torsor_reduction` reads, and `certify_tail` the old path
from the spec to the verdict.
"""

from fractions import Fraction
from math import lcm

from padic_sr.analyzer import new_tail_locus
from padic_sr.errors import CenterOnBranchLocus
from padic_sr.series import (
    _check_premises,
    _scaled,
    classify_torsor_reduction,
)
from padic_sr.tower import vp_int, vp_rational


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


def certify_tail(spec):
    """certify_tail of a rational-centre spec as it was: the expansion to
    c_2p and its classification."""
    locus = new_tail_locus(spec)
    if not isinstance(locus.d, Fraction) or locus.rho is not None:
        raise ValueError("not a rational-centre spec")
    return classify_torsor_reduction(expand_rational(spec, locus.d,
                                                     locus.v_e))
