"""Exact arithmetic in radical extension towers of Q with a certified p-adic
valuation.

A Tower is a chain of steps, each adjoining a generator g with a rewrite rule
g^d = sum_k c_k g^k (radical steps have only the constant term: g^m = r).
Elements are polynomial residues in the generators with exact rational
coefficients.  Every step carries a local-irreducibility certificate checked at
construction:

  (a) Newton-polygon single segment whose slope has exact denominator equal to
      the step degree (Eisenstein-type, possibly after a small shift of the
      generator), or
  (b) the radicand is a unit and the Hensel q-th power test is false for every
      prime q dividing the step degree.  The test lifts a root p-adic digit
      by digit over the integer span of the monomial basis: each surviving
      truncation is extended by the p^D digit vectors of the next level, and
      a truncation is dropped once no extension of it can pass, so it tries
      at most p^D candidates per surviving class per p-adic level.

Either certificate guarantees the step polynomial is irreducible over the
p-adic completion, so the valuation extends uniquely and
v(alpha) = v_p(Norm(alpha)) / D on the whole tower.  The arithmetic uses
closed forms of that fact wherever one applies:

  * Products go through structure constants.  Each tower keeps a table,
    filled the first time a pair of basis monomials meets, of their reduced
    product as integers over one denominator.  A product scales each
    operand to integers by the lcm of its denominators, so c1 * c2 costs
    |c1| |c2| table lookups and integer multiply-adds, and one Fraction per
    nonzero output coordinate.
  * Valuations are integers over one denominator E, the lcm of the
    denominators of the generator valuations v(g_j) = G_j / E.  A term
    c prod g_j^e_j has valuation (E v_p(c) + sum e_j G_j) / E, and a unique
    least term gives v(alpha); only a tie among the least terms needs the
    norm.
  * A monomial c prod g_j^e_j, negative exponents included, is reduced by
    divmod against every step whose rewrite has one term (g^m = r, r a
    monomial of the lower tower), so powers and inverses of monomials need
    neither repeated multiplication nor a linear solve.  A multi-term
    rewrite (a cyclotomic step) falls back to the generic path.
  * The norm is a product of relative norms: over a top step
    g^2 = a1 g + a0, N(h0 + h1 g) = N_lower(h0^2 + a1 h0 h1 - a0 h1^2), and
    the recursion descends to the constant of the empty tower.  A top step
    of degree > 2 takes the determinant of the multiplication matrix of its
    tower.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, isqrt, lcm

from .errors import (
    IrreducibilityUnverified,
    SearchInconclusive,
    WrongPrime,
    ZeroElement,
    ZeroRadicand,
)
from .jsonutil import parse_rat, ratstr

INF = object()  # sentinel for v(0); public API raises ZeroElement instead


@lru_cache(maxsize=64)  # asked once per v_p and once per tower step
def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


#: every v_p checks its prime, so the usual ones are a set lookup
_SMALL_PRIMES = frozenset(q for q in range(2, 256) if _is_prime(q))


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime number."""
    if p not in _SMALL_PRIMES and not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def vp_int(x: int, p: int) -> int:
    """v_p(x) of a nonzero integer x, for a prime p.

    Raises ZeroElement on x = 0 and ValueError when p is not prime, so no
    input can make the division loop run forever."""
    if x == 0:
        raise ZeroElement("v(0) is +infinity")
    check_prime(p)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _exact_rational(q) -> Fraction:
    """q as a Fraction.  An int, a Fraction or a string such as "6/4" is
    read exactly; a float is refused, as no float may reach the
    certification path."""
    if isinstance(q, float):
        raise TypeError(f"expected an exact rational, not {q!r}")
    return Fraction(q)


def vp_rational(q: Fraction, p: int) -> Fraction:
    """p-adic valuation of a nonzero rational, as a Fraction."""
    q = _exact_rational(q)
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


@dataclass(frozen=True)
class RatVal:
    """An exact rational p-adic valuation, normalized so v(p) = 1."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def __lt__(self, other):
        return self.value < _val_of(other)

    def __le__(self, other):
        return self.value <= _val_of(other)

    def __gt__(self, other):
        return self.value > _val_of(other)

    def __ge__(self, other):
        return self.value >= _val_of(other)

    def __eq__(self, other):
        return self.value == _val_of(other)

    def __hash__(self):
        return hash(self.value)

    def __add__(self, other):
        return RatVal(self.value + _val_of(other))

    def __sub__(self, other):
        return RatVal(self.value - _val_of(other))

    def __repr__(self):
        return f"RatVal({ratstr(self.value)})"


def _val_of(x):
    if isinstance(x, RatVal):
        return x.value
    return Fraction(x)


class Step:
    """One tower step: generator `name`, degree, and the rewrite rule
    g^degree = sum over (exps, coeff) monomials of the tower up to and
    including this step (exponent of this generator always < degree)."""

    def __init__(self, name, degree, rewrite, kind, gen_val, e_step, radicand=None):
        self.name = name
        self.degree = degree
        self.rewrite = tuple(rewrite)  # tuple of (exps tuple, Fraction)
        self.kind = kind  # "radical" | "cyclotomic"
        self.gen_val = gen_val  # Fraction, exact valuation of the generator
        self.e_step = e_step  # int ramification contribution, or None if unknown
        self.radicand = radicand  # TowerElement of the lower tower, radical steps


class TowerElement:
    """An exact element: dict {exponent tuple -> Fraction}, fully reduced."""

    __slots__ = ("tower", "coords")

    def __init__(self, tower, coords):
        self.tower = tower
        self.coords = coords  # reduced; treat as immutable

    # -- constructors --------------------------------------------------------

    def __add__(self, other):
        other = self.tower.coerce(other)
        return TowerElement(self.tower, _add_coords(self.coords, other.coords))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return TowerElement(self.tower, {k: -c for k, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-self.tower.coerce(other))

    def __rsub__(self, other):
        return self.tower.coerce(other) - self

    def __mul__(self, other):
        other = self.tower.coerce(other)
        return TowerElement(
            self.tower, self.tower._mul_coords(self.coords, other.coords)
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self.tower.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.tower.coerce(other) / self

    def __pow__(self, k: int):
        k = operator.index(k)  # a float or Fraction exponent is refused
        if len(self.coords) == 1:
            (exps, c), = self.coords.items()
            x = self.tower._monomial([e * k for e in exps], c ** k)
            if x is not None:
                return x
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
        try:
            other = self.tower.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(frozenset(self.coords.items()))

    def is_zero(self):
        return not self.coords

    def inverse(self):
        return self.tower.inverse(self)

    def valuation(self) -> RatVal:
        return self.tower.valuation(self)

    def __repr__(self):
        if not self.coords:
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


class Tower:
    """A certified radical/cyclotomic extension tower of Q with prime p."""

    def __init__(self, p: int):
        check_prime(p)
        self.p = p
        self.steps: list[Step] = []
        self.ram_index = 1  # exact when ram_exact
        self.ram_exact = True
        self._uniformizer = None  # TowerElement with v = 1/ram_index, if known
        self._basis_cache = None
        self._inv_cache = {}
        self._prod = {}  # (e1, e2) -> reduced product, filled on first use
        self._lower = None  # the tower this one extends by its top step
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
        return TowerElement(self, {})

    def one(self):
        return self.coerce(1)

    def rational(self, q):
        q = _exact_rational(q)
        if q == 0:
            return self.zero()
        return TowerElement(self, {(0,) * self._nvars(): q})

    def gen(self, j=-1):
        if not self.steps:
            raise ValueError("tower has no steps")
        if j < 0:
            j = len(self.steps) + j
        exps = [0] * self._nvars()
        exps[j] = 1
        return TowerElement(self, {tuple(exps): Fraction(1)})

    def coerce(self, x) -> TowerElement:
        if isinstance(x, TowerElement):
            if x.tower is self:
                return x
            # lift from a lower tower sharing the same step prefix
            if len(x.tower.steps) <= len(self.steps) and all(
                a is b for a, b in zip(x.tower.steps, self.steps)
            ):
                pad = self._nvars() - x.tower._nvars()
                return TowerElement(
                    self, {k + (0,) * pad: c for k, c in x.coords.items()}
                )
            raise ValueError("element belongs to an unrelated tower")
        if isinstance(x, (int, Fraction)):
            return self.rational(x)
        raise TypeError(f"cannot coerce {x!r} into tower")

    def uniformizer(self) -> TowerElement:
        if self._uniformizer is None:
            return self.rational(self.p)
        return self.coerce(self._uniformizer)

    # -- reduced multiplication ----------------------------------------------

    def _mul_coords(self, c1, c2):
        """The reduced coordinates of the product, through the structure
        constants: each operand is scaled to integers by the lcm of its
        denominators, the numerators multiply through the table entries,
        and each nonzero output coordinate is one Fraction."""
        if not c1 or not c2:
            return {}
        d1 = lcm(*[c.denominator for c in c1.values()])
        d2 = lcm(*[c.denominator for c in c2.values()])
        x2 = [(e2, c.numerator * (d2 // c.denominator))
              for e2, c in c2.items()]
        prod = self._prod
        by_den = {}  # table denominator -> {exps: integer numerator}
        for e1, c in c1.items():
            a1 = c.numerator * (d1 // c.denominator)
            for e2, a2 in x2:
                entry = prod.get((e1, e2))
                if entry is None:
                    entry = self._product_entry(e1, e2)
                den, terms = entry
                out = by_den.get(den)
                if out is None:
                    out = by_den[den] = {}
                a = a1 * a2
                for exps, num in terms:
                    out[exps] = out.get(exps, 0) + a * num
        if len(by_den) == 1:
            (den, out), = by_den.items()
        else:  # rewrites with fractional coefficients: one common denominator
            den = lcm(*by_den)
            out = {}
            for d, part in by_den.items():
                f = den // d
                for exps, num in part.items():
                    out[exps] = out.get(exps, 0) + f * num
        den *= d1 * d2
        return {k: Fraction(num, den) for k, num in out.items() if num}

    def _product_entry(self, e1, e2):
        """The table entry of the basis monomials e1, e2: their reduced
        product as (den, ((exps, num), ...)), integers over one den."""
        out = {}
        self._accumulate(out, tuple(x + y for x, y in zip(e1, e2)),
                         Fraction(1))
        out = {k: c for k, c in out.items() if c}
        den = lcm(*[c.denominator for c in out.values()])
        entry = den, tuple((k, c.numerator * (den // c.denominator))
                           for k, c in out.items())
        self._prod[e1, e2] = entry
        return entry

    def _accumulate(self, out, exps, coeff):
        """Add coeff * monomial(exps) to out, rewriting overflowing powers;
        it fills the entries of the product table."""
        j = None
        for i in range(len(exps) - 1, -1, -1):
            if exps[i] >= self.steps[i].degree:
                j = i
                break
        if j is None:
            out[exps] = out.get(exps, Fraction(0)) + coeff
            return
        step = self.steps[j]
        base = list(exps)
        base[j] -= step.degree
        for rexps, rc in step.rewrite:
            rexps = rexps + (0,) * (len(exps) - len(rexps))
            new = tuple(b + r for b, r in zip(base, rexps))
            self._accumulate(out, new, coeff * rc)

    # -- linear algebra over the rational basis ------------------------------

    def _basis(self):
        if self._basis_cache is None:
            ranges = [range(s.degree) for s in self.steps]
            basis = list(itertools.product(*ranges)) if self.steps else [()]
            self._basis_cache = (basis, {b: i for i, b in enumerate(basis)})
        return self._basis_cache

    def _mul_matrix(self, elem):
        basis, index = self._basis()
        D = len(basis)
        cols = []
        for b in basis:
            prod = self._mul_coords(elem.coords, {b: Fraction(1)})
            col = [Fraction(0)] * D
            for k, c in prod.items():
                col[index[k]] = c
            cols.append(col)
        # matrix[i][j] = coefficient of basis[i] in elem * basis[j]
        return [[cols[j][i] for j in range(D)] for i in range(D)]

    def norm(self, elem) -> Fraction:
        """Exact norm to Q, as a product of relative norms down the quadratic
        top steps, and the determinant of the multiplication matrix below a
        top step of degree > 2."""
        elem = self.coerce(elem)
        if elem.is_zero():
            return Fraction(0)
        t, coords = self, elem.coords
        while t.steps:
            step = t.steps[-1]
            if step.degree != 2:
                return _det_fraction(t._mul_matrix(TowerElement(t, coords)))
            # g^2 = a1 g + a0: N(h0 + h1 g) = h0 (h0 + a1 h1) - a0 h1^2
            h0, h1 = _split_top(coords.items())
            a0, a1 = _split_top(step.rewrite)
            t = t._lower
            mul = t._mul_coords
            coords = _add_coords(
                mul(h0, _add_coords(h0, mul(a1, h1))),
                mul({k: -c for k, c in a0.items()}, mul(h1, h1)))
        return coords[()]

    def inverse(self, elem) -> TowerElement:
        elem = self.coerce(elem)
        if elem.is_zero():
            raise ZeroDivisionError("inverse of 0")
        if len(elem.coords) == 1:
            (exps, c), = elem.coords.items()
            inv = self._monomial([-e for e in exps], 1 / c)
            if inv is not None:
                return inv
        key = frozenset(elem.coords.items())
        hit = self._inv_cache.get(key)
        if hit is not None:
            return hit
        basis, index = self._basis()
        D = len(basis)
        M = self._mul_matrix(elem)
        rhs = [Fraction(0)] * D
        rhs[index[(0,) * self._nvars()]] = Fraction(1)
        sol = _solve_fraction(M, rhs)
        out = {basis[i]: sol[i] for i in range(D) if sol[i]}
        inv = TowerElement(self, out)
        self._inv_cache[key] = inv
        if len(self._inv_cache) > 256:
            self._inv_cache.clear()
        return inv

    def _monomial(self, exps, c):
        """c prod g_j^exps[j], reduced, for any integer exponents (the list
        exps is consumed), or None when an exponent outside [0, degree)
        meets a step whose rewrite has more than one term.  A one-term
        rewrite g_j^m = r is a monomial of the lower tower, so
        g_j^(m q) = r^q adds q times the exponents of r to the lower
        generators; the steps are reduced from the top down."""
        steps = self.steps
        for j in range(len(exps) - 1, -1, -1):
            step = steps[j]
            q, exps[j] = divmod(exps[j], step.degree)
            if q:
                if len(step.rewrite) != 1:
                    return None
                (rexps, rc), = step.rewrite
                c *= rc ** q
                for i in range(j):
                    exps[i] += q * rexps[i]
        return TowerElement(self, {tuple(exps): c})

    # -- valuation -----------------------------------------------------------

    def valuation(self, elem) -> RatVal:
        return RatVal(self.val(elem))

    def val(self, elem) -> Fraction:
        """The exact valuation of a nonzero element, as a bare Fraction.

        A term c prod g_j^e_j scores E v_p(c) + sum e_j G_j in integers; a
        unique least score is E v(elem) by the ultrametric inequality, and
        a tie among the least terms is settled by the norm."""
        elem = self.coerce(elem)
        if not elem.coords:
            raise ZeroElement("v(0) is +infinity")
        p, E, G = self.p, self._E, self._G
        least = tie = None
        for exps, c in elem.coords.items():
            v = E * (vp_int(c.numerator, p) - vp_int(c.denominator, p))
            for e, g in zip(exps, G):
                v += e * g
            if least is None or v < least:
                least, tie = v, False
            elif v == least:
                tie = True
        if tie:
            return vp_rational(self.norm(elem), p) / self.degree
        return Fraction(least, E)

    # -- step construction ---------------------------------------------------

    def _extended(self, step: Step) -> "Tower":
        t = Tower(self.p)
        t.steps = self.steps + [step]
        t.ram_index = self.ram_index * (step.e_step or 1)
        t.ram_exact = self.ram_exact and step.e_step is not None
        t._uniformizer = self._uniformizer
        t._lower = self
        t._E = E = lcm(self._E, step.gen_val.denominator)
        t._G = tuple(s.gen_val.numerator * (E // s.gen_val.denominator)
                     for s in t.steps)
        return t

    def adjoin_radical(self, m: int, radicand, name=None) -> "Tower":
        """Adjoin g with g^m = radicand, certifying local irreducibility."""
        if m < 2:
            raise ValueError("step exponent must be >= 2")
        rad = self.coerce(radicand)
        if rad.is_zero():
            raise ZeroRadicand("radicand is zero")
        name = name or f"g{len(self.steps)}"
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
            # rewrite: g^m = rad (lift coords, generator position appended)
            rewrite = [(exps + (0,), c) for exps, c in rad.coords.items()]
            step = Step(name, m, rewrite, "radical", vr / m, m, radicand=rad)
            t = self._extended(step)
            t._build_uniformizer(t.gen())
            return t
        # certificate (b): unit radicand, not a q-th power locally for any
        # prime q | m
        for q in _prime_factors(m):
            if _is_qth_power_local(self, rad, q):
                raise IrreducibilityUnverified(
                    f"radicand is a {q}-th power in the {self.p}-adic "
                    f"completion; x^{m} - r is reducible there"
                )
        rewrite = [(exps + (0,), c) for exps, c in rad.coords.items()]
        step = Step(name, m, rewrite, "radical", Fraction(0), None, radicand=rad)
        t = self._extended(step)
        t._detect_unit_step_ramification(lower_exact=self.ram_exact)
        return t

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
            rewrite.append((exps, Fraction(-1)))
        step = Step(name, deg, rewrite, "cyclotomic", Fraction(0), deg)
        t = self._extended(step)
        t._build_uniformizer(t.gen() - 1)
        return t

    def _build_uniformizer(self, new_elem):
        """Combine the new Eisenstein-type element with the uniformizer of
        the lower tower to an element of valuation exactly 1/ram_index.  The
        lower uniformizer has valuation 1/R_lower by construction (p, of
        valuation 1, when the lower tower has none), and it is raised to its
        power in the lower tower, so a shared lower field serves the inverse
        from its own cache."""
        R, lower = self.ram_index, self._lower
        k1 = self.val(new_elem) * R
        if k1.denominator != 1:
            raise AssertionError("valuation outside the value group")
        k2 = R if lower._uniformizer is None else R // lower.ram_index
        g, a, c = _ext_gcd(int(k1), k2)
        if g != 1:
            self._uniformizer = None
            return
        self._uniformizer = new_elem ** a * self.coerce(lower.uniformizer() ** c)

    def _detect_unit_step_ramification(self, lower_exact):
        """After a Hensel-certified unit step, probe v(g - c) for small
        integers c; a denominator equal to the full step degree proves the
        step is totally ramified (e.g. v(i - 1) = 1/2 over Q_2).  A proved
        ramified step keeps a uniformizer only when a probe is one, as the
        lower one no longer has valuation 1/ram_index."""
        step = self.steps[-1]
        g = self.gen()
        for c in range(-2, 3):
            cand = g - c
            if cand.is_zero():
                continue
            v = self.val(cand)
            if (v * self.ram_index).denominator == step.degree:
                step.e_step = step.degree
                self.ram_index *= step.degree
                self.ram_exact = lower_exact
                self._uniformizer = (cand if v * self.ram_index == 1
                                     else None)
                return
        # Unknown: the step might be unramified or ramified undetected.
        self.ram_exact = False

    # -- serialization -------------------------------------------------------

    def to_json(self):
        basis_by_level = []
        for j in range(len(self.steps)):
            ranges = [range(s.degree) for s in self.steps[:j]]
            basis_by_level.append(list(itertools.product(*ranges)) if j else [()])
        steps = []
        for j, s in enumerate(self.steps):
            if s.kind == "radical":
                basis = basis_by_level[j]
                coords = [ratstr(s.radicand.coords.get(b, Fraction(0)))
                          for b in basis]
                steps.append({"name": s.name, "exponent": s.degree,
                              "radicand": coords})
            else:
                steps.append({"name": s.name, "exponent": s.degree,
                              "radicand": None, "kind": "cyclotomic",
                              "order": _cyclo_order(self.p, s.degree)})
        return {"prime": self.p, "steps": steps}

    @classmethod
    def from_json(cls, doc) -> "Tower":
        t = cls(doc["prime"])
        for s in doc["steps"]:
            if s.get("kind") == "cyclotomic":
                t = t.adjoin_root_of_unity(s["order"], name=s["name"])
                continue
            ranges = [range(st.degree) for st in t.steps]
            basis = list(itertools.product(*ranges)) if t.steps else [()]
            coords = {}
            for b, c in zip(basis, s["radicand"]):
                c = parse_rat(c)
                if c:
                    coords[b] = c
            t = t.adjoin_radical(
                s["exponent"], TowerElement(t, coords), name=s["name"]
            )
        return t


def _add_coords(x, y):
    """The coordinates of x + y, zeros dropped."""
    out = dict(x)
    for k, c in y.items():
        if k in out:
            c += out[k]
            if not c:
                del out[k]
                continue
        out[k] = c
    return out


def _split_top(terms):
    """(h0, h1) with h0 + h1 g the sum of the (exps, coeff) terms, g the
    top generator, of degree 2, as coordinates of the tower below it."""
    h = ({}, {})
    for exps, c in terms:
        h[exps[-1]][exps[:-1]] = c
    return h


def _cyclo_order(p, deg):
    # deg = (p-1) p^(k-1)  =>  order = p^k
    k = 1
    while (p - 1) * p ** (k - 1) < deg:
        k += 1
    return p ** k


# -- public constructors per the external contract ---------------------------

def make_tower(p: int, steps) -> Tower:
    """Build a tower over Q with the given prime and radical steps.

    steps: iterable of (m, radicand) where radicand is a rational or a
    TowerElement of the tower built so far.
    """
    t = Tower(p)
    for m, rad in steps:
        t = t.adjoin_radical(m, rad)
    return t


def valuation(elem: TowerElement) -> RatVal:
    return elem.tower.valuation(elem)


def is_mth_power(u, m: int, p: int | None = None) -> bool:
    """Decide whether u (a rational, or a TowerElement with rational value)
    is an m-th power in Q_p.

    Valuation divisibility plus a brute-force Hensel witness search modulo
    p^(2 v_p(m) + 1) for odd p, modulo 2^(2 v_2(m) + 3) for p = 2.
    """
    if isinstance(u, TowerElement):
        if p is None:
            p = u.tower.p
        if any(any(e for e in exps) for exps in u.coords):
            raise ValueError("is_mth_power expects an element over the base "
                             "rationals")
        u = next(iter(u.coords.values())) if u.coords else Fraction(0)
    if p is None:
        raise ValueError("prime p required for rational input")
    u = _exact_rational(u)
    if u == 0:
        raise ZeroElement("0 has no well-defined power class")
    if m < 2:
        raise ValueError("m must be >= 2")
    v = vp_rational(u, p)
    if v % m != 0:
        return False
    u0 = u / Fraction(p) ** int(v)
    k = 0
    mm = m
    while mm % p == 0:
        mm //= p
        k += 1
    modulus = p ** (2 * k + 1) if p != 2 else 2 ** (2 * k + 3)
    num = u0.numerator % modulus
    den_inv = pow(u0.denominator, -1, modulus)
    target = (num * den_inv) % modulus
    return any(pow(x, m, modulus) == target for x in range(modulus))


def _is_qth_power_local(tower: Tower, u: TowerElement, q: int) -> bool:
    """Is the unit u a q-th power in the completion of the tower at p?

    Over Q this is the spec'd rational test.  Over an extension the witnesses
    are the candidates x = sum a_b b, with b over the monomial basis and
    integers 0 <= a_b < p^depth, and u counts as a q-th power when some
    candidate has v(x^q - u) >= threshold = (2 v_pi(q) + 1)/e.  The basis
    spans the residue ring for the towers built here.

    The coordinates are fixed one p-adic digit at a time.  A truncation x_k
    (digits 0..k) is extended by every c p^(k+1), c in {0..p-1}^D.  Each
    candidate is x_k + p^(k+1) y for one of its truncations, with y an
    integer combination of basis monomials, so v(x_k), v(y) >= m0, the least
    valuation of a monomial (0 for integral generators, negative for e.g.
    sqrt(1/2)).  As q is prime, p^v_p(q) divides every C(q, j) with 0 < j < q,
    so the binomial expansion of (x_k + p^(k+1) y)^q gives

        v(x^q - x_k^q) >= min(v_p(q) + k + 1, q (k + 1)) + q m0 =: T_k.

    A candidate that reaches the threshold therefore has v(x_k^q - u) >=
    min(threshold, T_k) at every level k, and a truncation below that bound
    is dropped with all its extensions.  A truncation that reaches the
    threshold is itself a candidate (higher digits zero), and the last level
    asks for the threshold exactly, so the answer is the one the search over
    all p^(depth D) candidates gives, after at most p^D powers per surviving
    truncation and level.
    """
    p = tower.p
    if not tower.steps:
        return is_mth_power(next(iter(u.coords.values())), q, p)
    if not tower.ram_exact:
        raise IrreducibilityUnverified(
            "q-th power test needs an exact ramification index"
        )
    R = tower.ram_index
    v_p_q = 1 if q == p else 0
    levels = 2 * R * v_p_q + 1  # in pi-units
    # p-power depth covering pi^levels, one extra level of slack
    depth = -(-levels // R) + 1
    threshold = Fraction(levels, R)
    basis, _ = tower._basis()
    m0 = Fraction(min(sum(e * g for e, g in zip(b, tower._G)) for b in basis),
                  tower._E)
    survivors = [(0,) * len(basis)]
    for k in range(depth):
        need = threshold if k == depth - 1 else min(
            threshold, min(v_p_q + k + 1, q * (k + 1)) + q * m0)
        scale = p ** k
        kept = []
        for base in survivors:
            for digits in itertools.product(range(p), repeat=len(basis)):
                coeffs = tuple(a + c * scale for a, c in zip(base, digits))
                x = TowerElement(tower, {b: Fraction(a)
                                         for b, a in zip(basis, coeffs) if a})
                diff = x ** q - u
                if diff.is_zero():
                    return True
                v = tower.val(diff)
                if v >= threshold:
                    return True
                if v >= need:
                    kept.append(coeffs)
        survivors = kept
    return False


# -- unit levels --------------------------------------------------------------

def unit_level(tower: Tower, u: TowerElement, cap: int) -> int:
    """The level j = v_pi(u w^(-p) - 1) of the unit u, pushed up by dividing
    u by p-th powers w^p = (1 + c pi^(j/p))^p while p divides j and j < cap.

    The corrections have integer residues c = 1 .. p-1 (the residue field of
    the towers searched here is F_p), and the first c that raises the level
    is kept.  Below the cap, (1 + c pi^(j/p))^p = 1 + c^p pi^j up to higher
    levels and c^p = c in F_p, so c = the leading residue of (u - 1)/pi^j
    raises the level.  Returns cap once the level reaches it (u is a p-th
    power times an element of U^cap), else the first level prime to p.  A
    level outside the value group, or one divisible by p that no c raises,
    raises SearchInconclusive.
    """
    p, R = tower.p, tower.ram_index
    pi = tower.uniformizer()

    def level(x):  # v_pi(x - 1), cap when x = 1
        w = x - 1
        if w.is_zero():
            return cap
        j = tower.val(w) * R
        if j.denominator != 1:
            raise SearchInconclusive("level outside the value group")
        return int(j)

    j = level(u)
    while j < cap and j % p == 0:
        for c in range(1, p):
            cand = u * ((1 + c * pi ** (j // p)).inverse() ** p)
            jj = level(cand)
            if jj > j:
                u, j = cand, jj
                break
        else:
            raise SearchInconclusive(
                f"cannot raise the unit level past {j} (divisible by p)")
    return min(j, cap)


# -- squares in the unramified closure (p = 2) -------------------------------

def is_square_unramified_closure(tower: Tower, alpha: TowerElement) -> bool:
    """Decide whether alpha is a square in the completed maximal unramified
    extension of the tower's 2-adic completion (residue field algebraically
    closed).

    Obstructions are exactly: odd pi-valuation, and a principal-unit level
    that is odd and below 2 v_pi(2); levels >= 2 v_pi(2) are killed by the
    Artin-Schreier equation z^2 + z = t, solvable over the closed residue
    field with unit derivative.  The level is `unit_level` capped there.
    """
    if tower.p != 2:
        raise WrongPrime("square-class analysis is specific to p = 2")
    if alpha.is_zero():
        raise ZeroElement("0 is trivially a square; callers must branch")
    if not tower.ram_exact:
        raise IrreducibilityUnverified("needs exact ramification index")
    R = tower.ram_index
    pi = tower.uniformizer()
    if tower.val(pi) * R != 1:
        raise AssertionError("tower has no exact uniformizer")
    k = tower.val(alpha) * R
    if k.denominator != 1:
        raise AssertionError("valuation outside the value group")
    k = int(k)
    if k % 2 != 0:
        return False
    as_level = 2 * R  # v_pi(4)
    return unit_level(tower, alpha * pi.inverse() ** k, as_level) == as_level


@cache
def q2_i() -> Tower:
    """K_2 = Q_2(i), i^2 = -1, built once per process and shared by the
    square-class lookup and every case (v) centre."""
    return Tower(2).adjoin_radical(2, -1, "i")


@cache
def _k3() -> Tower:
    """K_3 = Q_2(zeta_8) = Q_2(i)(zeta_8), zeta_8^2 = i, built once per
    process.  Both steps are quadratic, so its norms are relative norms."""
    k2 = q2_i()
    return k2.adjoin_radical(2, k2.gen(0), "zeta8")


def square_class_K2_K3(d, choice_of_i: int = 1):
    """Square classes of d*i and d in K_2 = Q_2(i) and K_3 = Q_2(zeta_8),
    over the unramified closure (residue field algebraically closed).

    Returns {"di_square_K2", "di_square_K3", "d_square_K2", "d_square_K3"}.
    """
    d = _exact_rational(d)
    if d == 0:
        raise ZeroElement("d must be nonzero")
    if choice_of_i not in (1, -1):
        raise ValueError("choice_of_i must be +1 or -1")
    i_power = 1 if choice_of_i == 1 else 3
    return {
        "di_square_K2": _is_square_by_class(d, 2, i_power),
        "di_square_K3": _is_square_by_class(d, 3, i_power),
        "d_square_K2": _is_square_by_class(d, 2, 0),
        "d_square_K3": _is_square_by_class(d, 3, 0),
    }


def _di_square(d: Fraction, ell: int, choice_of_i: int = 1) -> bool:
    """Is d*i a square in K_ell (K_2 = Q_2(i), K_3 = Q_2(zeta_8)) over the
    unramified closure?  d is a nonzero rational."""
    return _is_square_by_class(d, ell, 1 if choice_of_i == 1 else 3)


def _is_square_by_class(d, ell: int, i_power: int) -> bool:
    """Is d i^i_power a square in K_ell over the unramified closure, for a
    nonzero rational d?  Decided by the square class of d in Q_2.

    Q_2^x = 2^Z x Z_2^x, and a 2-adic unit is a square exactly when it is
    1 mod 8, so d = 2^v u (u odd) differs from its class representative
    2^(v mod 2) (u mod 8) by a square of Q_2, hence by a square of K_ell.
    Squareness of d i^i_power in K_ell therefore depends only on
    (v mod 2, u mod 8, ell, i_power): 8 classes times 2 fields times the
    powers 0 (d), 1 (d i) and 3 (-d i), each computed once, exactly, by
    `is_square_unramified_closure` on the representative.  For d = num/den
    the odd part num'/den' is num' den' mod 8, as den'^2 = 1 mod 8.
    """
    d = Fraction(d)
    num, den = d.numerator, d.denominator
    vn, vd = vp_int(num, 2), vp_int(den, 2)
    u8 = ((num >> vn) * (den >> vd)) % 8
    return _square_class_entry((vn - vd) % 2, u8, ell, i_power)


@cache
def _square_class_entry(v2: int, u8: int, ell: int, i_power: int) -> bool:
    """is_square_unramified_closure of 2^v2 u8 i^i_power in K_ell."""
    if ell == 2:
        k = q2_i()
    elif ell == 3:
        k = _k3()
    else:
        raise ValueError("ell must be 2 or 3")
    i = k.gen(0)
    return is_square_unramified_closure(k, (i ** i_power) * (2 ** v2 * u8))


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
    n = len(M)
    M = [row[:] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col] * inv
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return det


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
