"""Exact arithmetic in radical extension towers of Q with a certified p-adic
valuation.

A Tower is a chain of steps, each adjoining a generator g with a rewrite rule
g^d = sum_k c_k g^k (radical steps have only the constant term: g^m = r).
Elements are polynomial residues in the generators with exact rational
coefficients, stored as integers over one denominator: an element is a
positive int `den` and a dict `nums` {exponent tuple: nonzero int}, in lowest
terms (gcd(den, *nums) = 1), so equal elements have equal fields.
Products, sums and valuation scores are computed in Python ints; the
norm and the inverse read the multiplication matrix as Fractions, and
`coords`, the Fraction view, is for repr and tests.  Every step carries a
local-irreducibility certificate checked at construction:

  (a) Newton-polygon single segment whose slope has exact denominator equal to
      the step degree (Eisenstein-type, possibly after a small shift of the
      generator), or
  (b) the radicand is a unit and no q-th power in the completion, for every
      prime q dividing the step degree.  An exact tower is totally ramified
      with residue field F_p.  For q != p, Hensel's lemma decides from the
      residue c of the unit; for q = p, `unit_level` walks u c^(-p) up the
      unit filtration U^(j) towards c* = p e/(p-1), in O(p + c*)
      valuations (the proof is at _is_qth_power_local).

Either certificate guarantees the step polynomial is irreducible over the
p-adic completion, so the valuation extends uniquely and
v(alpha) = v_p(Norm(alpha)) / D on the whole tower.  Valuations are
integers over one denominator E, the lcm of the denominators of the
generator valuations v(g_j) = G_j / E: a term n prod g_j^e_j / den has
valuation (E v_p(n) + sum e_j G_j) / E less v_p(den), a unique least term
gives v(alpha), and only a tie among the least terms needs the norm.

`analyze` builds no tower: a Tower is the test oracle of the closed forms
on the certification path and a public API.  So each operation has one
general path, with no second path for a subset of its inputs and no cache
beside it.  A product rewrites each pair of terms by the step rules, a
power is binary powering, an inverse is a linear solve, and the norm is
the determinant of the multiplication matrix, taken fraction-free.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from types import MappingProxyType

from .errors import (
    IrreducibilityUnverified,
    SearchInconclusive,
    ZeroElement,
    ZeroRadicand,
)
from .jsonutil import parse_rat, ratstr

@lru_cache(maxsize=64)  # asked once per v_p and once per tower step
def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


#: every v_p checks its prime, so the usual ones are a set lookup
_SMALL_PRIMES = frozenset(q for q in range(2, 256) if _is_prime(q))


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime number."""
    if p not in _SMALL_PRIMES and not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _vp_capped(x: int, p: int, cap: int) -> int:
    """min(v_p(x), cap) for a prime p, which is not checked, and cap >= 0;
    x = 0 gives cap.  A doubling search: divide by p, p^2, p^4, ... while
    each divides and the cap allows it, then walk back down the same
    powers, so it costs O(log v) divisions and one x % p when p does not
    divide x."""
    v, k, q, ladder = 0, 1, p, []
    while v + k <= cap and not x % q:
        x //= q
        v += k
        ladder.append((q, k))
        q, k = q * q, 2 * k
    # what is left to take, min(v_p(x), cap - v), is below k: its binary
    # digits are the powers on the ladder
    for q, k in reversed(ladder):
        if v + k <= cap and not x % q:
            x //= q
            v += k
    return v


def vp_int(x: int, p: int) -> int:
    """v_p(x) of a nonzero integer x, for a prime p.

    Raises ZeroElement on x = 0 and ValueError when p is not prime, so no
    input can make the search run forever.  v_p(x) < bit_length(x) caps
    the search (_vp_capped)."""
    if x == 0:
        raise ZeroElement("v(0) is +infinity")
    check_prime(p)
    return _vp_capped(x, p, x.bit_length())


def vp_rational(q: Fraction, p: int) -> Fraction:
    """p-adic valuation of a nonzero rational, as a Fraction."""
    q = parse_rat(q)
    if q == 0:
        raise ZeroElement("v(0) is +infinity")
    return Fraction(vp_int(q.numerator, p) - vp_int(q.denominator, p))


def _prime_factors(m: int):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


class Step:
    """One tower step: generator `name`, degree, and the rewrite rule
    g^degree = (sum over (exps, num) terms of num times the monomial exps)
    / rewrite_den, over the tower up to and including this step (exponent of
    this generator always < degree), with integer nums and rewrite_den > 0."""

    def __init__(self, name, degree, rewrite, rewrite_den, kind, gen_val,
                 e_step, radicand=None):
        self.name = name
        self.degree = degree
        self.rewrite = tuple(rewrite)  # tuple of (exps tuple, int)
        self.rewrite_den = rewrite_den
        self.kind = kind  # "radical" | "cyclotomic"
        self.gen_val = gen_val  # Fraction, exact valuation of the generator
        self.e_step = e_step  # int ramification contribution, or None if unknown
        self.radicand = radicand  # TowerElement of the lower tower, radical steps


class TowerElement:
    """An exact element: integer numerators `nums` {exponent tuple: int}
    over one positive `den`, fully reduced, zeros dropped and
    gcd(den, *nums) = 1.  TowerElement(tower, coords) reads a dict of
    rationals; the fields are immutable once built."""

    __slots__ = ("tower", "den", "nums")

    def __init__(self, tower, coords):
        coords = {k: parse_rat(c) for k, c in coords.items()}
        den = lcm(*[c.denominator for c in coords.values()])
        self.tower = tower
        self.den = den
        self.nums = {k: c.numerator * (den // c.denominator)
                     for k, c in coords.items() if c}

    @property
    def coords(self):
        """The coordinates as a read-only {exponent tuple: Fraction} view."""
        den = self.den
        return MappingProxyType({k: Fraction(n, den)
                                 for k, n in self.nums.items()})

    # -- constructors --------------------------------------------------------

    def __add__(self, other):
        return _add(self, self.tower.coerce(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _element(self.tower, self.den,
                        {k: -n for k, n in self.nums.items()})

    def __sub__(self, other):
        return _add(self, self.tower.coerce(other), -1)

    def __rsub__(self, other):
        return _add(self.tower.coerce(other), self, -1)

    def __mul__(self, other):
        return _mul(self, self.tower.coerce(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self.tower.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.tower.coerce(other) / self

    def __pow__(self, k: int):
        k = operator.index(k)  # a float or Fraction exponent is refused
        if k < 0:
            return self.inverse() ** (-k)
        result = self.tower.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not (isinstance(other, TowerElement) and other.tower is self.tower):
            try:
                other = self.tower.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        """A constant hashes like its rational value, as it compares equal
        to it; any other element by its den and its terms with the trailing
        zero exponents dropped, which lifting into a higher tower appends."""
        nums = self.nums
        if not nums:
            return 0
        if len(nums) == 1:
            (exps, n), = nums.items()
            if not any(exps):
                return hash(n if self.den == 1 else Fraction(n, self.den))
        return hash((self.den, frozenset((_unpadded(exps), n)
                                         for exps, n in nums.items())))

    def is_zero(self):
        return not self.nums

    def inverse(self):
        return self.tower.inverse(self)

    def __repr__(self):
        if not self.nums:
            return "<0>"
        names = [s.name for s in self.tower.steps]
        parts = []
        for exps, c in sorted(self.coords.items()):
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exps)
                if e
            )
            parts.append(f"{ratstr(c)}" + (f"*{mono}" if mono else ""))
        return "<" + " + ".join(parts) + ">"


def _unpadded(exps):
    """exps without its trailing zeros."""
    k = len(exps)
    while k and not exps[k - 1]:
        k -= 1
    return exps[:k]


_new_element = object.__new__


def _element(tower, den, nums):
    """The element nums / den of tower, already in lowest terms."""
    x = _new_element(TowerElement)
    x.tower = tower
    x.den = den
    x.nums = nums
    return x


def _reduced(tower, den, nums):
    """The element nums / den of tower, for nonzero integer nums (none for
    0) and den > 0, brought to lowest terms by one gcd."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return _element(tower, den, nums)


def _mul(x, y):
    """x y for elements of one tower."""
    den, nums = x.tower._mul_nums(x.nums, y.nums)
    return _reduced(x.tower, den * x.den * y.den, nums)


def _add(x, y, sign=1):
    """x + sign y for elements of one tower, over the lcm of their dens."""
    if not y.nums:
        return x
    d1, d2 = x.den, y.den
    if d1 == d2:
        out, f = dict(x.nums), sign
    else:
        den = lcm(d1, d2)
        f1 = den // d1
        out = {k: n * f1 for k, n in x.nums.items()}
        d1, f = den, sign * (den // d2)
    for k, n in y.nums.items():
        n = out.get(k, 0) + f * n
        if n:
            out[k] = n
        else:
            del out[k]
    return _reduced(x.tower, d1, out)


def _common(parts):
    """The sum of parts {den: {exps: num}} as (den, {exps: num}) over the
    lcm of their dens, zeros dropped."""
    if len(parts) == 1:
        (den, out), = parts.items()
    else:
        den, out = lcm(*parts), {}
        for d, part in parts.items():
            f = den // d
            for k, n in part.items():
                out[k] = out.get(k, 0) + f * n
    return den, {k: n for k, n in out.items() if n}


class Tower:
    """A certified radical/cyclotomic extension tower of Q with prime p."""

    def __init__(self, p: int):
        check_prime(p)
        self.p = p
        self.steps: list[Step] = []
        self.ram_index = 1  # exact when ram_exact
        self.ram_exact = True
        # (den, nums) of an element with v = 1/ram_index, if known.  It keeps
        # plain data, not an element of this tower, so that a tower holds no
        # reference cycle and is freed on its last del
        self._uniformizer = None
        self._lower = None  # the tower this one extends by its top step
        self._one_exps = ()  # the exponents of the monomial 1
        self._E = 1  # v(g_j) = _G[j] / _E for every generator g_j
        self._G = ()

    # -- basics --------------------------------------------------------------

    @property
    def degree(self) -> int:
        d = 1
        for s in self.steps:
            d *= s.degree
        return d

    def _nvars(self):
        return len(self.steps)

    def zero(self):
        return _element(self, 1, {})

    def one(self):
        return self.coerce(1)

    def rational(self, q):
        if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
            q = parse_rat(q)  # refuses a bool, as a float
        num = q.numerator
        return _element(self, q.denominator,
                        {self._one_exps: num} if num else {})

    def gen(self, j=-1):
        if not self.steps:
            raise ValueError("tower has no steps")
        if j < 0:
            j = len(self.steps) + j
        exps = [0] * self._nvars()
        exps[j] = 1
        return _element(self, 1, {tuple(exps): 1})

    def coerce(self, x) -> TowerElement:
        if isinstance(x, TowerElement):
            if x.tower is self:
                return x
            # lift from a lower tower sharing the same step prefix
            if len(x.tower.steps) <= len(self.steps) and all(
                a is b for a, b in zip(x.tower.steps, self.steps)
            ):
                pad = (0,) * (self._nvars() - x.tower._nvars())
                return _element(self, x.den,
                                {k + pad: n for k, n in x.nums.items()})
            raise ValueError("element belongs to an unrelated tower")
        if isinstance(x, (int, Fraction)):
            return self.rational(x)
        raise TypeError(f"cannot coerce {x!r} into tower")

    def uniformizer(self) -> TowerElement:
        if self._uniformizer is None:
            return self.rational(self.p)
        return _element(self, *self._uniformizer)

    # -- reduced multiplication ----------------------------------------------

    def _mul_nums(self, n1, n2):
        """The reduced product of the integer coordinates n1, n2, as
        (den, {exps: num}): each pair of terms is rewritten by the step
        rules, and the parts of several denominators (rewrites with
        fractional coefficients) meet over their lcm."""
        parts = {}  # denominator -> {exps: integer numerator}
        for e1, a1 in n1.items():
            for e2, a2 in n2.items():
                self._accumulate(parts, tuple(x + y for x, y in zip(e1, e2)),
                                 a1 * a2, 1)
        return _common(parts)

    def _accumulate(self, parts, exps, num, den):
        """Add num / den times monomial(exps) to parts {den: {exps: num}},
        rewriting overflowing powers by the step rules."""
        j = None
        for i in range(len(exps) - 1, -1, -1):
            if exps[i] >= self.steps[i].degree:
                j = i
                break
        if j is None:
            out = parts.get(den)
            if out is None:
                out = parts[den] = {}
            out[exps] = out.get(exps, 0) + num
            return
        step = self.steps[j]
        base = list(exps)
        base[j] -= step.degree
        den *= step.rewrite_den
        for rexps, rnum in step.rewrite:
            rexps = rexps + (0,) * (len(exps) - len(rexps))
            new = tuple(b + r for b, r in zip(base, rexps))
            self._accumulate(parts, new, num * rnum, den)

    # -- linear algebra over the rational basis ------------------------------

    def _basis(self):
        """(the monomial basis as a list of exponent tuples, {monomial:
        its index})."""
        basis = list(itertools.product(*(range(s.degree)
                                          for s in self.steps)))
        return basis, {b: i for i, b in enumerate(basis)}

    def _mul_matrix(self, elem):
        basis, index = self._basis()
        D = len(basis)
        cols = []
        for b in basis:
            col = [Fraction(0)] * D
            den, prod = self._mul_nums(elem.nums, {b: 1})
            den *= elem.den
            for k, n in prod.items():
                col[index[k]] = Fraction(n, den)
            cols.append(col)
        # matrix[i][j] = coefficient of basis[i] in elem * basis[j]
        return [[cols[j][i] for j in range(D)] for i in range(D)]

    def norm(self, elem) -> Fraction:
        """Exact norm to Q: the determinant of the multiplication matrix."""
        return _det_fraction(self._mul_matrix(self.coerce(elem)))

    def inverse(self, elem) -> TowerElement:
        """The inverse, by a linear solve against the multiplication
        matrix."""
        elem = self.coerce(elem)
        if not elem.nums:
            raise ZeroDivisionError("inverse of 0")
        basis, index = self._basis()
        rhs = [Fraction(0)] * len(basis)
        rhs[index[self._one_exps]] = Fraction(1)
        sol = _solve_fraction(self._mul_matrix(elem), rhs)
        return TowerElement(self, dict(zip(basis, sol)))

    # -- valuation -----------------------------------------------------------

    def val(self, elem) -> Fraction:
        """The exact valuation of a nonzero element, as a bare Fraction.

        A term n prod g_j^e_j scores E v_p(n) + sum e_j G_j in integers; a
        unique least score, less E v_p(den), is E v(elem) by the
        ultrametric inequality, and a tie among the least terms is settled
        by the norm."""
        elem = self.coerce(elem)
        if not elem.nums:
            raise ZeroElement("v(0) is +infinity")
        p, E, G = self.p, self._E, self._G
        least = tie = None
        for exps, n in elem.nums.items():
            v = E * vp_int(n, p)
            for e, g in zip(exps, G):
                v += e * g
            if least is None or v < least:
                least, tie = v, False
            elif v == least:
                tie = True
        if tie:
            n = self.norm(elem)
            return Fraction(vp_int(n.numerator, p) - vp_int(n.denominator, p),
                            self.degree)
        if elem.den != 1:
            least -= E * vp_int(elem.den, p)
        return Fraction(least, E)

    # -- step construction ---------------------------------------------------

    def _extended(self, step: Step) -> "Tower":
        t = Tower(self.p)
        t.steps = self.steps + [step]
        t.ram_index = self.ram_index * (step.e_step or 1)
        t.ram_exact = self.ram_exact and step.e_step is not None
        if self._uniformizer is not None:
            den, nums = self._uniformizer
            t._uniformizer = den, {k + (0,): n for k, n in nums.items()}
        t._lower = self
        t._one_exps = (0,) * len(t.steps)
        t._E = E = lcm(self._E, step.gen_val.denominator)
        t._G = tuple(s.gen_val.numerator * (E // s.gen_val.denominator)
                     for s in t.steps)
        return t

    def adjoin_radical(self, m: int, radicand, name=None) -> "Tower":
        """Adjoin g with g^m = radicand, certifying local irreducibility
        (certify_radical)."""
        vr = self.certify_radical(m, radicand)
        rad = self.coerce(radicand)
        name = name or f"g{len(self.steps)}"
        if vr != 0:
            # rewrite: g^m = rad (generator position appended)
            step = Step(name, m, _lifted(rad), rad.den, "radical", vr / m, m,
                        radicand=rad)
            t = self._extended(step)
            t._build_uniformizer(t.gen())
            return t
        step = Step(name, m, _lifted(rad), rad.den, "radical", Fraction(0),
                    None, radicand=rad)
        t = self._extended(step)
        t._detect_unit_step_ramification(lower_exact=self.ram_exact)
        return t

    def certify_radical(self, m: int, radicand) -> Fraction:
        """The certificate of adjoin_radical: prove x^m - radicand
        irreducible over the completion, without building the step, and
        return v(radicand).  A refusal raises what adjoining would:
        ValueError for m < 2, ZeroRadicand, or IrreducibilityUnverified."""
        if m < 2:
            raise ValueError("step exponent must be >= 2")
        rad = self.coerce(radicand)
        if rad.is_zero():
            raise ZeroRadicand("radicand is zero")
        vr = self.val(rad)
        if vr != 0:
            # certificate (a): Newton polygon of x^m - rad is the single
            # segment of slope vr/m; denominator exactly m iff gcd(m, vr*R)=1,
            # which needs the lower ramification index exactly.
            if not self.ram_exact:
                raise IrreducibilityUnverified(
                    "cannot apply the Newton-polygon certificate over a tower "
                    "whose ramification index is not exactly known"
                )
            k = vr * self.ram_index
            if k.denominator != 1:
                raise AssertionError("valuation outside the value group")
            if gcd(m, int(k)) != 1:
                raise IrreducibilityUnverified(
                    f"x^{m} - r with v(r) = {vr}: slope denominator is not {m}"
                )
            return vr
        # certificate (b): unit radicand, not a q-th power locally for any
        # prime q | m
        for q in _prime_factors(m):
            if _is_qth_power_local(self, rad, q):
                raise IrreducibilityUnverified(
                    f"radicand is a {q}-th power in the {self.p}-adic "
                    f"completion; x^{m} - r is reducible there"
                )
        return vr

    def adjoin_root_of_unity(self, order: int, name=None) -> "Tower":
        """Adjoin a primitive root of unity of p-power order p^k (k >= 1),
        certified by the shifted-Eisenstein Newton polygon of Phi_{p^k}(x+1).
        """
        p = self.p
        k = 0
        q = order
        while q % p == 0:
            q //= p
            k += 1
        if q != 1 or k < 1:
            raise ValueError("order must be a positive power of the prime")
        deg = (p - 1) * p ** (k - 1)
        if not self.ram_exact:
            raise IrreducibilityUnverified(
                "cyclotomic certificate needs an exact ramification index"
            )
        # Phi_{p^k}(x+1) is Eisenstein over Q_p; over a ramified lower tower
        # the slope 1/deg must still have denominator deg in the value group.
        if gcd(deg, self.ram_index) != 1:
            raise IrreducibilityUnverified(
                f"Phi_{p**k} slope 1/{deg} is not a new denominator over a "
                f"tower of ramification index {self.ram_index}"
            )
        name = name or f"zeta{p**k}"
        # Phi_{p^k}(x) = sum_{j=0}^{p-1} x^(j p^(k-1));
        # rewrite: g^deg = -(sum_{j<p-1} g^(j p^(k-1)))
        nv = self._nvars()
        rewrite = []
        for j in range(p - 1):
            exps = (0,) * nv + (j * p ** (k - 1),)
            rewrite.append((exps, -1))
        step = Step(name, deg, rewrite, 1, "cyclotomic", Fraction(0), deg)
        t = self._extended(step)
        t._build_uniformizer(t.gen() - 1)
        return t

    def _build_uniformizer(self, new_elem):
        """Combine the new Eisenstein-type element with the uniformizer of
        the lower tower to an element of valuation exactly 1/ram_index.  The
        lower uniformizer has valuation 1/R_lower by construction (p, of
        valuation 1, when the lower tower has none), and it is raised to its
        power in the lower tower, the smaller one."""
        R, lower = self.ram_index, self._lower
        k1 = self.val(new_elem) * R
        if k1.denominator != 1:
            raise AssertionError("valuation outside the value group")
        k2 = R if lower._uniformizer is None else R // lower.ram_index
        g, a, c = _ext_gcd(int(k1), k2)
        if g != 1:
            self._uniformizer = None
            return
        pi = new_elem ** a * self.coerce(lower.uniformizer() ** c)
        self._uniformizer = pi.den, pi.nums

    def _detect_unit_step_ramification(self, lower_exact):
        """After a Hensel-certified unit step g^m = u, probe v(g - c) for
        small integers c; a denominator equal to the full step degree proves
        the step is totally ramified (e.g. v(i - 1) = 1/2 over Q_2).  The
        conjugates of g are the roots of x^m - u, so the relative norm
        N(g - c) is +-(c^m - u), and the probe is v_lower(c^m - u) / m, read
        in the lower tower with no norm in this one.  The certificate proved
        u no m-th power, so c^m - u is never 0.  On a proved ramified step
        the probe g - c is the uniformizer when v(g - c) = 1/ram_index, and
        is combined with the lower one by _build_uniformizer otherwise
        (v(g - c) = k/ram_index with k prime to m)."""
        step = self.steps[-1]
        m, u = step.degree, step.radicand
        for c in range(-2, 3):
            diff = u - c ** m
            if diff.is_zero():
                raise AssertionError(f"the certified radicand is {c}^{m}")
            v = self._lower.val(diff) / m
            if (v * self.ram_index).denominator == step.degree:
                step.e_step = step.degree
                self.ram_index *= step.degree
                self.ram_exact = lower_exact
                if v * self.ram_index == 1:
                    pi = self.gen() - c
                    self._uniformizer = pi.den, pi.nums
                else:
                    self._build_uniformizer(self.gen() - c)
                return
        # Unknown: the step might be unramified or ramified undetected.
        self.ram_exact = False


def _lifted(rad):
    """The terms of the radicand rad with the new generator's exponent 0
    appended: the rewrite of a radical step over rad's tower."""
    return [(exps + (0,), n) for exps, n in rad.nums.items()]


def _is_qth_power_local(tower: Tower, u: TowerElement, q: int) -> bool:
    """Is u, nonzero (a unit radicand in certificate (b)), a q-th power in
    the completion of the tower at p?

    An exact tower is totally ramified (ram_index = degree: every exact
    step multiplies both), so its residue field is F_p, and the residue of
    u is the one c in 1 .. p-1 with v(u - c) > 0.  For q != p, x^q - u is
    separable mod pi, so by Hensel u is a q-th power exactly when c is one
    in F_p: c^((p-1)/gcd(q, p-1)) = 1 mod p.  For q = p, c^p = c mod p, so
    u c^(-p) is a principal unit in the class of u modulo p-th powers.  The
    p-th power map sends U^(i) to U^(p i) for i < e/(p-1), and onto
    U^(i + e) beyond, so every element of U^(j), j > c* = p e/(p-1), is a
    p-th power, and a p-th power below c* has a level divisible by p.
    unit_level divides by p-th powers while p divides the level: a level
    below c* prime to p, or a walk stuck at the critical level c*, means
    no p-th power, and a walk past c* means a p-th power.  A non-unit
    pi^k u0 is a q-th power exactly when q | k and u0 is one.
    """
    p, e = tower.p, tower.ram_index
    if not tower.ram_exact:
        raise IrreducibilityUnverified(
            "q-th power test needs an exact ramification index"
        )
    if e != tower.degree:
        raise AssertionError("an exact tower is totally ramified")
    if tower._uniformizer is None and e != 1:
        raise AssertionError("an exact tower has a uniformizer")
    k = int(tower.val(u) * e)
    if k:
        if k % q:
            return False
        u = u * tower.uniformizer() ** -k
    for c in range(1, p - 1):  # the residue of u, p - 1 if no other
        diff = u - c
        if diff.is_zero() or tower.val(diff) > 0:
            break
    else:
        c = p - 1
    if q != p:
        return pow(c, (p - 1) // gcd(q, p - 1), p) == 1
    cap = p * e // (p - 1) + 1  # the first level above c*
    return unit_level(tower, u * Fraction(1, c ** p), cap) == cap


# -- unit levels --------------------------------------------------------------

def unit_level(tower: Tower, u: TowerElement, cap: int) -> int:
    """The level j = v_pi(u w^(-p) - 1) of the unit u, pushed up by p-th
    powers w^p while p divides j and j < cap.

    w is a product of corrections 1 + c pi^(j/p), c = 1 .. p-1 (the residue
    field of an exact tower is F_p), and the first c that raises the level
    is kept.  As w is a unit, the level of u w^(-p) is v_pi(u - w^p), so no
    inverse is taken.  With eps the residue of p/pi^e (Fesenko-Vostokov,
    Local Fields and Their Extensions, I.5), up to higher levels

        (1 + c pi^i)^p = 1 + c^p pi^(p i)            for p i < c*,
                       = 1 + (c^p + eps c) pi^(p i)   for p i = c*.

    Below c* = p e/(p-1), c^p = c in F_p, so some c raises the level.  At
    c* (a level when (p-1) | e), z -> z^p + eps z is zero on F_p when
    eps = -1, as for p = 2 or over a field holding zeta_p; then no c
    raises the level, which no p-th power of a unit has.  Returns cap once
    the level reaches it, the first level prime to p, or the critical level
    c* where no c succeeds.  A level outside the value group, or one below
    c* divisible by p that no c raises, raises SearchInconclusive.
    """
    p, R = tower.p, tower.ram_index
    pi = tower.uniformizer()

    def level(w):  # v_pi(u w^(-p) - 1) = v_pi(u - w^p), cap when u = w^p
        diff = u - w ** p
        if diff.is_zero():
            return cap
        j = tower.val(diff) * R
        if j.denominator != 1:
            raise SearchInconclusive("level outside the value group")
        return int(j)

    w = tower.one()
    j = level(w)
    while j < cap and j % p == 0:
        for c in range(1, p):
            cand = w * (1 + c * pi ** (j // p))
            jj = level(cand)
            if jj > j:
                w, j = cand, jj
                break
        else:
            if j * (p - 1) == p * R:
                return j  # the critical level c*
            raise SearchInconclusive(
                f"cannot raise the unit level past {j} (divisible by p)")
    return min(j, cap)


# -- squares in the unramified closure (p = 2) -------------------------------

def square_class_K2_K3(d):
    """Square classes of d*i and d in K_2 = Q_2(i) and K_3 = Q_2(zeta_8),
    over the unramified closure (residue field algebraically closed), in
    closed form in the parity of v_2(d).

    An odd 2-adic unit is a square there: u = 1 mod 8 is one in Q_2,
    -1 = i^2, and Q_2(sqrt 5) is unramified, so 3 = -1 (-3) and 5 are too.
    As 2 = -i (1+i)^2, d is i^(v_2(d)) times a square in K_2.  i is no
    square in K_2 over the unramified closure, as Q_2(zeta_8) is totally
    ramified of degree 4 over Q_2, so d is a square in K_2 exactly when
    v_2(d) is even, and d i exactly when it is odd.  In K_3, i = zeta_8^2
    is a square, so d and d i both are.  The other root -i of -1 gives the
    same answer, as -1 is a square in both fields.

    Returns {"di_square_K2", "di_square_K3", "d_square_K2", "d_square_K3"}.
    """
    d = parse_rat(d)
    if d == 0:
        raise ZeroElement("d must be nonzero")
    odd = (vp_int(d.numerator, 2) - vp_int(d.denominator, 2)) % 2 == 1
    return {"di_square_K2": odd, "di_square_K3": True,
            "d_square_K2": not odd, "d_square_K3": True}


# -- exact linear algebra ----------------------------------------------------

def _ext_gcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_x, x = x, old_x - qq * x
        old_y, y = y, old_y - qq * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _det_fraction(M):
    """The determinant of a square matrix of rationals, by fraction-free
    (Bareiss) elimination on the integer matrix den M, den the lcm of the
    denominators of the entries: each division by the previous pivot is
    exact, so the whole elimination runs in Python ints."""
    n = len(M)
    den = lcm(*(x.denominator for row in M for x in row))
    A = [[x.numerator * (den // x.denominator) for x in row] for row in M]
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if A[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        row, akk = A[k], A[k][k]
        for i in range(k + 1, n):
            aik = A[i][k]
            A[i] = [(akk * a - aik * b) // prev for a, b in zip(A[i], row)]
        prev = akk
    return Fraction(sign * A[-1][-1], den ** n)


def _solve_fraction(M, rhs):
    n = len(M)
    A = [M[r][:] + [rhs[r]] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [a * inv for a in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]
