"""Higher ramification filtrations and conductors.

Filtrations are step functions u -> |G^u| (or |G_u|) recorded by their jumps;
Herbrand conversion is exact piecewise-linear arithmetic over the rationals.
The conductor of an extension is its greatest upper-numbering jump.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptyList,
    MalformedFiltration,
    SearchInconclusive,
    ZeroRadicand,
)
from .jsonutil import parse_rat, ratstr
from .tower import Tower, TowerElement, unit_level


@dataclass(frozen=True)
class Filtration:
    """Jumps of a ramification filtration of a totally ramified extension.

    jumps: sorted tuple of (jump, group order immediately after the jump);
    degree is |G_0|.  The order before the first jump is the degree; orders
    strictly decrease to 1 at the last jump.
    """

    jumps: tuple
    degree: int
    numbering: str  # "upper" | "lower"

    def __post_init__(self):
        jumps = tuple((parse_rat(j), operator.index(o))
                      for j, o in self.jumps)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "degree", operator.index(self.degree))
        self.validate()

    def validate(self):
        if self.numbering not in ("upper", "lower"):
            raise MalformedFiltration("numbering must be upper or lower")
        if self.degree < 1:
            raise MalformedFiltration("degree must be positive")
        prev_j = None
        prev_o = self.degree
        for j, o in self.jumps:
            if j < 0:
                raise MalformedFiltration("jumps must be >= 0")
            if prev_j is not None and j <= prev_j:
                raise MalformedFiltration("jumps must strictly increase")
            if o >= prev_o:
                raise MalformedFiltration("orders must strictly decrease")
            if prev_o % o != 0:
                raise MalformedFiltration("orders must divide predecessors")
            prev_j, prev_o = j, o
        if self.jumps and self.jumps[-1][1] != 1:
            raise MalformedFiltration("filtration must terminate at order 1")
        if not self.jumps and self.degree != 1:
            raise MalformedFiltration("nontrivial group needs jumps")

    def order_at(self, t: Fraction) -> int:
        """|G_t| (resp. |G^t|) just after position t."""
        o = self.degree
        for j, oo in self.jumps:
            if t >= j:
                o = oo
            else:
                break
        return o

    def conductor(self) -> Fraction:
        if self.numbering != "upper":
            raise MalformedFiltration("conductor reads the upper numbering")
        return self.jumps[-1][0] if self.jumps else Fraction(0)

    def to_json(self):
        return {
            "numbering": self.numbering,
            "degree": self.degree,
            "jumps": [[ratstr(j), o] for j, o in self.jumps],
        }


def herbrand_phi(lower: Filtration, t: Fraction) -> Fraction:
    """phi(t) = integral_0^t |G_x| / |G_0| dx, exact."""
    if lower.numbering != "lower":
        raise MalformedFiltration("phi consumes a lower-numbering filtration")
    t = parse_rat(t)
    if t <= 0:
        return t
    acc = Fraction(0)
    pos = Fraction(0)
    order = lower.degree
    for j, o in lower.jumps:
        if j <= 0:
            order = o
            continue
        seg_end = min(j, t)
        if seg_end > pos:
            acc += (seg_end - pos) * Fraction(order, lower.degree)
            pos = seg_end
        if t <= j:
            return acc
        order = o
    acc += (t - pos) * Fraction(order, lower.degree)
    return acc


def herbrand_psi(lower: Filtration, u: Fraction) -> Fraction:
    """Inverse of phi, exact."""
    u = parse_rat(u)
    if u <= 0:
        return u
    acc = Fraction(0)
    pos = Fraction(0)
    order = lower.degree
    for j, o in lower.jumps:
        if j <= 0:
            order = o
            continue
        slope = Fraction(order, lower.degree)
        seg = (j - pos) * slope
        if acc + seg >= u:
            return pos + (u - acc) / slope
        acc += seg
        pos = j
        order = o
    slope = Fraction(order, lower.degree)
    return pos + (u - acc) / slope


def herbrand_convert(f: Filtration, direction: str) -> Filtration:
    """Convert between upper and lower numbering, exactly."""
    if direction not in ("lower_to_upper", "upper_to_lower"):
        raise ValueError("direction must be lower_to_upper or upper_to_lower")
    if direction == "lower_to_upper":
        if f.numbering != "lower":
            raise MalformedFiltration("expected a lower-numbering filtration")
        jumps = tuple((herbrand_phi(f, j), o) for j, o in f.jumps)
        return Filtration(jumps, f.degree, "upper")
    if f.numbering != "upper":
        raise MalformedFiltration("expected an upper-numbering filtration")
    # psi is built from the lower filtration, which we recover incrementally:
    # on each upper segment the lower slope is degree/order ratio inverted
    lower_jumps = []
    pos_u = Fraction(0)
    pos_l = Fraction(0)
    order = f.degree
    for j, o in f.jumps:
        if j <= 0:
            lower_jumps.append((j, o))
            order = o
            continue
        # lower length of the segment = upper length / (order/degree)
        pos_l = pos_l + (j - pos_u) * Fraction(f.degree, order)
        pos_u = j
        lower_jumps.append((pos_l, o))
        order = o
    return Filtration(tuple(lower_jumps), f.degree, "lower")


def cyclotomic_lower_filtration(p: int, n: int) -> Filtration:
    """Lower-numbering filtration of Gal(Q_p(zeta_{p^n})/Q_p):
    jumps at 0, p-1, p^2-1, ..., p^(n-1)-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    degree = (p - 1) * p ** (n - 1)
    jumps = []
    if p > 2:  # p = 2 has no tame part, so the order does not drop at 0
        jumps.append((Fraction(0), p ** (n - 1)))
    for k in range(1, n):
        jumps.append((Fraction(p ** k - 1), p ** (n - 1 - k)))
    return Filtration(tuple(jumps), degree, "lower")


def cyclotomic_filtration(p: int, n: int) -> Filtration:
    """Upper-numbering filtration of K_n/K_0: jumps exactly {0, ..., n-1}."""
    return herbrand_convert(cyclotomic_lower_filtration(p, n),
                            "lower_to_upper")


def compositum_conductor(hs) -> Fraction:
    hs = [parse_rat(h) for h in hs]
    if not hs:
        raise EmptyList("compositum of no extensions")
    if any(h < 0 for h in hs):
        raise ValueError("conductors must be >= 0")
    return max(hs)


# -- field towers ------------------------------------------------------------

@dataclass(frozen=True)
class ConductorValue:
    kind: str  # "exact" | "bound"
    value: Fraction

    def to_json(self):
        return {"kind": self.kind, "value": ratstr(self.value)}


@dataclass(frozen=True)
class TowerStep:
    kind: str  # "cyclotomic" | "kummer" | "tame"
    # cyclotomic: level n; kummer: exponent m and radicand description;
    # tame: degree (0 = unspecified tame extension)
    level: int = 0
    exponent: int = 0
    radicand: str = ""
    conductor: ConductorValue | None = None

    def to_json(self):
        doc = {"kind": self.kind}
        if self.kind == "cyclotomic":
            doc["level"] = self.level
        elif self.kind == "kummer":
            doc["exponent"] = self.exponent
            doc["radicand"] = self.radicand
        elif self.kind == "tame":
            doc["degree"] = self.level
        if self.conductor is not None:
            doc["conductor"] = self.conductor.to_json()
        return doc


@dataclass(frozen=True)
class FieldTower:
    prime: int
    steps: tuple
    # the cover's parameters as the report prints them (a, b, case, n, s);
    # output only: conductor_bound reads the cover spec
    meta: tuple = ()

    def to_json(self):
        return {"prime": self.prime,
                "steps": [s.to_json() for s in self.steps],
                "meta": {k: v for k, v in self.meta}}


# -- Kummer step conductors --------------------------------------------------

def kummer_step_conductor(tower, u, m: int) -> ConductorValue:
    """Conductor of K(u^(1/m))/K for the field K of an exact Tower (for
    example Q_p(zeta_{p^k}) from cyclotomic_tower), m a p-power, in the
    standard upper numbering of K.

    Degree-p steps are computed from the unit-filtration position of the
    radicand; higher p-powers and radicands outside the cyclotomic field get
    certified bounds.  Values are tagged exact or bound, never guessed; a
    tower whose ramification index is not exact raises SearchInconclusive.
    """
    if not isinstance(tower, Tower):
        raise TypeError("tower must be a Tower (use cyclotomic_tower)")
    p = tower.p
    if isinstance(u, TowerElement):
        uu = tower.coerce(u)
    else:
        uu = tower.rational(u)
    if uu.is_zero():
        raise ZeroRadicand("radicand is zero")
    k = 0
    mm = m
    while mm % p == 0:
        mm //= p
        k += 1
    if mm != 1 or k < 1:
        raise ValueError("m must be a positive power of p")
    if not tower.ram_exact:
        raise SearchInconclusive(
            "conductor needs an exact ramification index")
    e = tower.ram_index
    cap = p * e // (p - 1) if (p * e) % (p - 1) == 0 else None
    cap_frac = Fraction(p * e, p - 1)
    if k > 1:
        # telescoped bound over the p-power chain: a character of order p^k
        # kills U^(j + k e) for j > e/(p-1)
        return ConductorValue("bound", Fraction(e // (p - 1) + k * e + 1))
    # degree-p step
    v = tower.val(uu) * e
    if v.denominator != 1:
        raise SearchInconclusive("radicand valuation outside the value group")
    v = int(v)
    if cap is None:
        # p e/(p-1) is not a unit level of the tower, so neither the
        # Eisenstein case nor the unit-level search gives an exact value.
        # The jump of a degree-p step over a field of absolute ramification
        # index e is at most p e/(p-1) (Serre, Local Fields, IV 2, Ex. 3),
        # whatever the valuation of the radicand.
        return ConductorValue("bound", cap_frac)
    if v % p != 0:
        # Eisenstein-type: totally ramified with the maximal conductor
        return ConductorValue("exact", Fraction(cap))
    pi = tower.uniformizer()
    if pi is None or tower.val(pi) * e != 1:
        return ConductorValue("bound", cap_frac)
    unit = uu * (pi.inverse() ** v)
    try:
        j = unit_level(tower, unit, cap)
    except SearchInconclusive:
        return ConductorValue("bound", cap_frac)
    if j >= cap:
        return ConductorValue("exact", Fraction(0))
    return ConductorValue("exact", Fraction(cap) - j)


def cyclotomic_tower(p: int, level: int) -> Tower:
    """The tower Q(zeta_{p^level}) with its p-adic certificates."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return Tower(p).adjoin_root_of_unity(p ** level)
