"""End-to-end computation of the stable reduction of a three-point cyclic
p-power cover of the line: branch signature, new-tail locus, decorated
reduction graph, torsor certification, stable-model field tower, and the
conductor certificate.

Covers are y^(p^n) = c x^a (x-1)^b with the model constant
c = d^(-a) (d-1)^(-b), normalized so the cover is totally ramified above 0
and infinity and ramified of index p^s above 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    Disconnected,
    IrreducibilityUnverified,
    NotThreePoint,
)
from .graph import (
    Component,
    DecoratedGraph,
    GraphEdge,
    check_local_vanishing,
    check_vanishing_cycles,
    effective_different_profile,
    tail_invariant_checks,
    validate_structure,
)
from .jsonutil import ratstr
from .ramification import (
    ConductorValue,
    FieldTower,
    TowerStep,
    compositum_conductor,
)
from .series import (
    CoverSpec,
    CubicCentre,
    ReductionVerdict,
    _cube_radicand,
    _require_cover,
    _stable_case,
    classify_p2_torsor,
    classify_rational_centre,
    classify_torsor_reduction,
    expand_disk,
)
from .tower import _vp_capped, check_prime


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


def branch_signature(p: int, n: int, a: int, b: int) -> CoverSpec:
    """Ramification indices of y^(p^n) = x^a (x-1)^b above 0, 1, infinity,
    normalized (by Moebius swaps) so 0 and infinity are totally ramified.
    p, n, a and b are taken as plain ints; a bool or a non-integer raises
    TypeError."""
    if not (type(p) is int and type(n) is int and type(a) is int
            and type(b) is int):
        p, n, a, b = (_as_int("p", p), _as_int("n", n), _as_int("a", a),
                      _as_int("b", b))
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if p == 2 and n < 2:
        raise NotThreePoint("there are no three-point Z/2-covers")
    original = (a, b)
    # v_p of the exponents above 0, 1 and infinity, capped at n (a zero
    # exponent gives n); one x % p decides a unit
    c = a + b
    v0 = _vp_capped(a, p, n) if a % p == 0 else 0
    v1 = _vp_capped(b, p, n) if b % p == 0 else 0
    vinf = _vp_capped(c, p, n) if c % p == 0 else 0
    if (v0 == 0) + (v1 == 0) + (vinf == 0) < 2:
        raise Disconnected(
            "fewer than two of a, b, a+b are prime to p; the cover is "
            "disconnected"
        )
    if v0 >= n or v1 >= n or vinf >= n:
        raise NotThreePoint("a branch point has trivial ramification index")
    swaps = ()
    if v0 > 0:
        # x -> 1 - x exchanges 0 and 1
        a, b = b, a
        swaps = ("x -> 1 - x",)
    # the first swap keeps a + b, and only one exponent has v_p > 0
    if vinf > 0:
        # x -> x/(x-1) fixes 0 and exchanges 1 and infinity;
        # the exponent above the new x = 1 is the old exponent at infinity
        b = -c
        swaps += ("x -> x/(x-1)",)
    s = n - max(v0, v1, vinf)  # v_p(b): b now has the one v_p > 0, if any
    indices = (p ** (n - v0), p ** (n - v1), p ** (n - vinf))
    return CoverSpec(p, n, a, b, s, indices, swaps, original)


# -- no fields ---------------------------------------------------------------
# analyze builds no Tower.  Its spec is a CoverSpec, so the cover rule holds
# (series module docstring, "The cover rule"), and every valuation below is
# derived from it.  The rational centre of cases (i), (ii) and (iv) is exact
# data (new_tail_locus), and the case (iii) centre (a + t)/(a+b), t^3 = r,
# is an integer triple over a + b, valued in closed form (series module
# docstring, "Cubic centres").  The cube roots of cases (iii) and (iv) are
# certified from v_3 of their radicand, with constant conductors
# (_case_record).  Case (v) centres are Gaussian rationals plus a square
# root R of one, valued in closed form (classify_p2_torsor, _case_record),
# the step w^2 = u behind R is certified per cover from b' mod 8
# (_certify_p2_step), and the square classes follow from the parity of
# v_2(b) = n - s (_case_record).  Everything of the report but the spec, the tail
# certificate, a and b and the certified flag (the graph, its checks, the
# inseparable tails, the field tower and the conductor certificate) depends
# on (p, n, s) alone: it is computed once per shape from one case record,
# and kept as a JSON report template, in an LRU of 256 shapes
# (_report_shape, below), which each report copies; only callers that
# repeat a shape gain from it.

def _certify_p2_step(b_odd: int, c: int) -> None:
    """Certify the case (v) step w^2 = u = (-i)^c b' i, b' = b_odd, over
    Q_2(i), in integers: a refusal raises the error and message that
    adjoining the step would.  u = +-1 needs no step: w = 1 or i lies in
    Q_2(i).

    b' = b/2^(n-s) is odd, as v_2(b) = n - s on a CoverSpec.  An odd b' is a
    square in Q_2(i) exactly when b' or -b' is a square in Q_2, that is
    b' = +-1 mod 8: then b' or -b' is a square of Q_2, and -1 = i^2.  For
    b' = +-3 mod 8, b' is +-5 times a square of Q_2, and Q_2(i)(sqrt 5) is
    the unramified quadratic extension of Q_2(i), as Q_2(i)/Q_2 is totally
    ramified.  b' i is never a square: i is none, as Q_2(zeta_8) has
    degree 4 over Q_2, so for b' = +-1 mod 8 neither is b' i; for
    b' = +-3 mod 8, sqrt(b' i) in Q_2(i) would make Q_2(i)(sqrt b') =
    Q_2(i)(sqrt i), but the first is unramified over Q_2(i) and the second
    ramified."""
    if c and b_odd % 8 in (1, 7) and b_odd not in (1, -1):
        raise IrreducibilityUnverified(
            "radicand is a 2-th power in the 2-adic completion; x^2 - r is "
            "reducible there")


# -- the new etale tail ------------------------------------------------------

@dataclass(frozen=True)
class NewTailLocus:
    """The disk of the new etale tail (new_tail_locus): its centre and v(e).
    No case label: certify_tail tells case (v) by p = 2, and a Fraction
    centre from a CubicCentre by its type."""
    # CubicCentre (a + t)/(a+b) in case (iii), else the Fraction a/(a+b); in
    # case (v) the centre is d + R, R^2 = 2^n b i/(a+b)^4
    d: object
    v_e: Fraction  # v(e) = (2n - s + 1/(p-1))/2, in closed form


# Bounded like _report_shape.
@lru_cache(maxsize=256)
def _locus_shape(p: int, n: int, s: int) -> tuple:
    """The case of the shape (p, n, s) and the radius valuation
    v(e) = (2n - s + 1/(p-1))/2 of its new-tail disk, one Fraction that
    every cover of the shape shares."""
    return _stable_case(p, n, s), Fraction((2 * n - s) * (p - 1) + 1,
                                           2 * (p - 1))


def new_tail_locus(spec: CoverSpec) -> NewTailLocus:
    """Center and radius valuation v(e) = (2n - s + 1/(p-1))/2 of the disk
    of the unique new etale tail, with the case-correct center.  The
    rational centre a/(a+b) of cases (i), (ii) and (iv) is the Fraction
    itself, the case (iii) centre (a + t)/(a+b), t^3 = 3^(2n+1) C(b,3), is
    a CubicCentre, and the case (v) centre is a/(a+b) + R with
    R^2 = 2^n b i/(a+b)^4, and its locus holds d = a/(a+b); none needs a
    tower or an e.  The spec is a CoverSpec, so a + b != 0.  In case (v)
    the step w^2 = u behind R is certified in integers, from b' mod 8
    (_certify_p2_step), and no field is built.  A spec that is no
    CoverSpec raises TypeError.  The case and v(e) are facts of the shape,
    computed once per shape (_locus_shape); the centre reads a and b."""
    _require_cover(spec, "new_tail_locus")
    p, n, s, a, b = spec.p, spec.n, spec.s, spec.a, spec.b
    case, v_e = _locus_shape(p, n, s)
    if case == "iii":
        return NewTailLocus(CubicCentre((a, 1, 0), a + b,
                                        _cube_radicand(n, s, b)), v_e)
    if case == "v":
        # sqrt(2^n b i) = (1+i)^k i^(k//2) w, k = 2n - s, b' = b/2^(n-s)
        # odd and w^2 = (-i)^(k%2) b' i, as (1+i)^2 = 2i and (-i)^2 = -1
        _certify_p2_step(b // 2 ** (n - s), (2 * n - s) % 2)
    # a rational center, the disk given by v_e
    return NewTailLocus(Fraction(a, a + b), v_e)


def certify_tail(spec: CoverSpec) -> ReductionVerdict:
    """Certify the reduction on the new-tail disk in closed form: at a
    rational centre (cases i, ii and iv) from c_1, c_2 and c_3, at the
    cubic centre of case (iii) from the closed-form K_1, K_2 and K_3 that
    expand_disk writes down, and at a case (v) centre from c_1 and c_2.
    The tail bound certifies every later c_l (series module docstring)."""
    locus = new_tail_locus(spec)
    if spec.p == 2:
        return classify_p2_torsor(spec, locus.v_e)
    if isinstance(locus.d, Fraction):
        return classify_rational_centre(spec, locus.d, locus.v_e)
    return classify_torsor_reduction(
        expand_disk(spec, locus.d, locus.v_e))


# -- the case record ---------------------------------------------------------

class _Piece(NamedTuple):
    """One component of the stable model, as _case_record lists it."""
    id: str
    parent: str | None  # None at X0; a parent precedes its children
    inertia: int  # the component is a p^inertia-component
    radius: Fraction  # valuation of the radius of its disk
    tail_kind: str  # "new" | "primitive" | "none" (not a tail)
    centre: str  # label of the centre of its disk
    definition: str | None  # of an extra-tail centre (d', d_j)
    branch_points: tuple  # (point, p-exponent) pairs specializing here
    upstairs: tuple  # (count, genus, conductor, note) of the curve over it


class _CaseRecord(NamedTuple):
    """What the case (i)-(v) of one shape (p, n, s) builds (_case_record)."""
    p: int
    n: int
    s: int
    case: str
    pieces: tuple  # _Piece, from X0 outward
    steps: tuple  # TowerStep of the stable-model field over K_0
    flag: str | None  # the graph's lower-confidence note, if any
    conductor: ConductorValue  # of the stable-model field over K_0
    detail: tuple  # the lines of the conductor certificate


# Bounded like _report_shape, which reads through it on a miss.
@lru_cache(maxsize=256)
def _case_record(p: int, n: int, s: int) -> _CaseRecord:
    """The case split of the stable model of a cover of shape (p, n, s), in
    one place: every component from X0 outward with the curve over it, the
    extra-tail centres, the field steps and the conductor certificate of
    the field, with its proof beside each case.  build_stable_graph,
    inseparable_tails, stab_field_tower, conductor_bound and _report_shape
    read it, and nothing else dispatches on the case to build them.

    It is built once per shape and kept in an LRU of 256 shapes, so a
    direct call of conductor_bound or stab_field_tower on a shape seen
    before reads it without building it.  The record is immutable, so its
    readers share it: NamedTuples of tuples, ints, strs and Fractions, and
    the frozen dataclasses TowerStep and ConductorValue.

    The stable model is defined over K_n = K_0(zeta_{p^n}), the Kummer
    steps below over it (d', d_j: the centres of the extra tails), and a
    tame step:

    case  condition         Kummer steps over K_n
    i     s = n             none
    ii    p > 3, s < n      (a/(a+b))^(1/p^(n-s))
    iii   p = 3, s = 1 < n  cbrt(3^(2n+1) C(b,3)), (a/(a+b))^(1/3^(n-1))
    iv    p = 3, 1 < s < n  cbrt(3^(2(n-s)+3) C(b,3)) (gives d'),
                            (a/(a+b))^(1/3^(n-s)), and the 3^(n-s+1)-th root
                            of (d')^a (d'-1)^b / (a^a b^b (a+b)^-(a+b))
    v     p = 2 (so s < n)  d_0^(1/2^(n-1)), (d_0 - 1)^(1/2^(s-1)) if s >= 2,
                            and d_j^(1/2^(n-j)), (d_j - 1)^(1/2^(s-j)), 0<j<s

    The conductor certificate says that the n-th upper-numbering
    ramification group of the field vanishes: each step's conductor is
    below n.  Every valuation it quotes is derived from the cover rule
    a + b != 0, v_p(b) = n - s, v_p(a+b) = 0 and v_p(a) = 0, which every
    cover of the shape satisfies, so it depends on (p, n, s) alone; the
    conductor is exact in case (i) and a bound otherwise.  Only the w steps
    of case (v) read more of the cover (conductor_bound).
    """
    case = _stable_case(p, n, s)
    q = Fraction(1, p - 1)
    pieces, kummer = [], []
    inertia_of = {}
    flag = None

    def upstairs(i, has_larger_neighbor):
        # (count, genus, conductor, note) over a p^i-component
        if not has_larger_neighbor:
            return p ** (n - i), 0, None, "radicial"
        if case == "v":
            if i == 0:
                return (2 ** (n - 2), None, None,
                        "mu_4-torsors, first upper jump 1")
            return 2 ** (n - i - 1), None, None, "p = 2 covering structure"
        cond = 1 if (case != "i" and i >= s) else 2
        return p ** (n - i - 1), (cond - 1) * (p - 1) // 2, cond, ""

    def piece(cid, parent, inertia, radius, tail_kind="none", centre="d",
              definition=None, branch_points=()):
        # inertia never rises outward from X0 (validate_structure checks
        # it), so only the parent can be a neighbour of larger inertia
        larger = parent is not None and inertia_of[parent] > inertia
        inertia_of[cid] = inertia
        pieces.append(_Piece(cid, parent, inertia, Fraction(radius), tail_kind,
                             centre, definition, branch_points,
                             upstairs(inertia, larger)))
        return cid

    def step(exponent, radicand):
        kummer.append(TowerStep("kummer", exponent=exponent, radicand=radicand))

    # K_n/K_0 is cyclotomic, with conductor n - 1
    detail = [f"K_{n}/K_0 is cyclotomic: conductor exactly {n - 1} < {n}"]
    parts, kind = [Fraction(n - 1)], "bound"

    if case == "i":
        # chain: X_i has inertia p^(n-i) at radius valuation (i + 1/(p-1))/2
        prev = piece("X0", None, n, 0,
                     branch_points=(("0", n), ("1", n), ("inf", n)))
        for i in range(1, n + 1):
            prev = piece(f"X{i}", prev, n - i, Fraction(i + q, 2),
                         "new" if i == n else "none")
    else:
        prev = piece("X0", None, n, 0, branch_points=(("0", n), ("inf", n)))
        for i in range(n - 1, s + 1 if case == "v" else s, -1):
            prev = piece(f"X{n - i}", prev, i, n - i + q)
        piece("Xstar", prev, s + 1, n - s)
        # the x = 1 inseparable tail
        piece("Xdagger", "Xstar", s, n - s + q, "primitive", "1",
              branch_points=(("1", s),))
        # the d-branch out to the new etale tail; at i = s, p odd, the
        # quotient Y/Q_s argument fixes the disk
        prev = "Xstar"
        for i in range(s, -1, -1):
            r = (n - s + q if i == s and case != "v"
                 else Fraction(2 * n - s - i + q, 2))
            prev = piece(f"X{n - i}", prev, i, r, "new" if i == 0 else "none")

    # Cases (iii) and (iv), p = 3 and s < n: v_3(b) = n - s >= 1, so b - 1
    # and b - 2 are units and the radicand rad = 3^(2(n-s)+3) C(b,3) has
    # v_3(rad) = 2(n-s) + 3 + (n-s) - 1 = 3(n-s) + 2.  K_1 = Q_3(zeta_3)
    # has e = 2, so v_{K_1}(rad) = 2 (3(n-s)+2) = 1 mod 3 is prime to 3,
    # and the Newton polygon of x^3 - rad over K_1 is one slope of
    # denominator 3: L = K_1(cbrt rad) is totally ramified of degree 3,
    # v(cbrt rad) = v_3(rad)/3, and as the radicand's valuation is prime to
    # p the jump of L/K_1 is the maximal p e/(p-1) = 3 (Serre, Local
    # Fields, IV 2), exact.  L/K_0 is Galois of degree 6 (rad lies in K_0,
    # zeta_3 in L) and totally ramified, with tame quotient of order 2, and
    # lower numbering passes to the subgroup Gal(L/K_1): its lower
    # filtration is |G_u| = 6 at u = 0, 3 for 0 < u <= 3 and 1 beyond.  So
    # phi_{L/K_0}(u) = u/2 on [0, 3] and 3/2 + (u - 3)/6 past it, and the
    # conductor of L/K_0 is phi(3) = 3/2.  In case (iv), d'' - 1 =
    # cbrt(rad)/a lies in L, of valuation v_3(rad)/3 - v_3(a) = n - s + 2/3,
    # and M/L is one more cube root over L, where e_L = 3 e_{K_1} = 6, so
    # its jump is at most the cap 3 e_L/2 = 9, and phi(9) = 5/2 bounds the
    # conductor of M/K_0.  Both lie below n: _stable_case gives case (iii)
    # only for n > s = 1 and case (iv) only for n > s > 1, so n >= 2 and
    # n >= 3.
    if case == "i":
        kind = "exact"
    elif case == "ii":
        step(p ** (n - s), "a/(a+b)")
    elif case == "iii":
        step(3, "3^(2n+1) binom(b,3)")
        step(3 ** (n - s), "a/(a+b)")
        parts.append(Fraction(3, 2))
        detail += [f"cube-root radicand valuation {3 * (n - s) + 2} verified",
                   f"conductor of K_1(cbrt)/K_0 is 3/2 (exact) < {n}"]
    elif case == "iv":
        step(3, "3^(2(n-s)+3) binom(b,3)  [gives d']")
        step(3 ** (n - s), "a/(a+b)")
        step(3 ** (n - s + 1), "(d')^a (d'-1)^b / (a^a b^b (a+b)^-(a+b))")
        piece("Xdprime", f"X{n - s}", s - 1, n - s + Fraction(2, 3), "new",
              "d'", "d' = a/(a+b) + cbrt(3^(2(n-s)+3) binom(b,3))/(a+b)")
        flag = ("p = 3 with 1 < s < n: graph shape beyond the certified "
                "tails is lower-confidence")
        parts.append(Fraction(5, 2))
        detail += ["v(d''-1) = n-s+2/3 verified",
                   "conductor of L/K_0 is 3/2 with L/K_1 conductor 3 (exact)",
                   "conductor of M/L is at most 9",
                   f"conductor of M/K_0 is at most 5/2 < {n}"]
    elif case == "v":
        step(2 ** (n - 1), "d_0")
        if s >= 2:
            step(2 ** (s - 1), "d_0 - 1")
        for j in range(1, s):
            step(2 ** (n - j), f"d_{j}")
            step(2 ** (s - j), f"d_{j} - 1")
            piece(f"Xd{j}", f"X{n - j - 1}", j, Fraction(2 * n - s - j + 1, 2),
                  "new", f"d_{j}",
                  f"d_{j} = a/(a+b) + sqrt(2^(n-{j}) b i)/(a+b)^2")
        flag = ("p = 2: graph shape beyond the certified tails is "
                "lower-confidence")
        # p = 2 and 1 <= s < n: v_2(b) = n - s and a, a + b are odd.  For
        # j < s let k = 2n - s - j and d_j = a/(a+b) + R_j,
        # R_j^2 = 2^(n-j) b i/(a+b)^4, so 2 v(R_j) = k.  l(j) asks that
        # 2^(n-j) b i be a square over the unramified closure of K_2
        # (l = 2), or of K_3 but not K_2 (l = 3); it is one over K_3 always,
        # and over K_2 exactly when v_2(2^(n-j) b) = 2n - s - j is odd
        # (square_class_K2_K3), that is when s + j is odd.  As
        # 2 v(R_j) = k > 2(n - s) = 2 v(b/(a+b)), v(d_j - 1) =
        # v(R_j - b/(a+b)) = n - s with no tie; t_j = d_j (a+b)/a - 1 =
        # R_j (a+b)/a has v(t_j) = k/2, and alpha'_j - 1 = (d_j - 1)
        # (a+b)/(-b) - 1 = R_j (a+b)/(-b) has v(alpha'_j - 1) = (s - j)/2.
        # Finally v(b/(a+b)) = n - s.
        detail += [f"d_{j}: l({j}) = {2 if (s + j) % 2 else 3}, "
                   f"v(d_{j}-1) = {n - s}, "
                   f"v(t_{j}) = {ratstr(Fraction(2 * n - s - j, 2))}, "
                   f"v(alpha'_{j}-1) = {ratstr(Fraction(s - j, 2))} verified"
                   for j in range(s)]
        detail.append("square classes and unit levels match the certified "
                      "p = 2 table; conductor of K/K_0 is < n")
    if case in ("ii", "iii", "iv"):
        # a/(a+b) is a unit, as v_p(a) = v_p(a+b) = 0, so its p^(n-s)-th
        # root over K_n has conductor < n
        detail.append("v(a/(a+b)) = 0 verified; p^k-th root of a unit over "
                      "K_n has conductor < n")
    steps = (TowerStep("cyclotomic", level=n), *kummer, TowerStep("tame"))
    return _CaseRecord(p, n, s, case, tuple(pieces), steps, flag,
                       ConductorValue(kind, compositum_conductor(parts)),
                       tuple(detail))


# -- inseparable tails -------------------------------------------------------

@dataclass(frozen=True)
class InsepTail:
    j: int  # a p^j-tail
    center: str
    radius_valuation: Fraction
    tail_kind: str  # "primitive" | "new"

    def to_json(self):
        return {"j": self.j, "center": self.center,
                "radius_valuation": ratstr(self.radius_valuation),
                "tail_kind": self.tail_kind}


def _tails(record: _CaseRecord) -> tuple:
    """The tails of a case record with inertia > 0, each centre given by
    its definition."""
    return tuple(InsepTail(c.inertia, c.definition or c.centre, c.radius,
                           c.tail_kind)
                 for c in record.pieces
                 if c.tail_kind != "none" and c.inertia > 0)


def inseparable_tails(spec: CoverSpec):
    """The inseparable tails forced by the structure results: the x = 1 tail
    whenever s < n, plus the small-prime extra tails of _case_record.  A
    function of (p, n, s) alone, like build_stable_graph."""
    return list(_tails(_case_record(spec.p, spec.n, spec.s)))


# -- the decorated graph -----------------------------------------------------

#: sigma_b of a tail, by its kind
_SIGMA_B = {"new": Fraction(2), "primitive": Fraction(1)}


def _graph(record: _CaseRecord) -> DecoratedGraph:
    """The decorated graph of a case record, in one pass (build_stable_graph).

    Each epaisseur is the child's radius valuation less its parent's.
    sigma_eff - 1 on the edge into a piece is the sum of sigma_b - 1 over
    the etale tails at-or-outward of it, less the wild branch points there
    (graph.sigma_eff_outward); one walk from the tails inward fills it.
    Every branch point is wild, of p-exponent n or s >= 1."""
    n = record.n
    radius = {c.id: c.radius for c in record.pieces}
    below = dict.fromkeys(radius, Fraction(0))
    for c in reversed(record.pieces):
        below[c.id] += ((_SIGMA_B[c.tail_kind] - 1 if c.inertia == 0 else 0)
                        - len(c.branch_points))
        if c.parent is not None:
            below[c.parent] += below[c.id]
    components, edges = [], []
    for c in record.pieces:
        count, genus, cond, note = c.upstairs
        kind = ("original" if c.parent is None
                else "interior" if c.tail_kind == "none" else "tail")
        components.append(Component(
            id=c.id, inertia_exponent=c.inertia, kind=kind,
            tail_kind=c.tail_kind, branch_points=dict(c.branch_points),
            disk_center=c.centre, radius_valuation=c.radius,
            sigma_b=_SIGMA_B.get(c.tail_kind), upstairs_count=count,
            upstairs_genus=genus, upstairs_conductor=cond, note=note))
        if c.parent is not None:
            edges.append(GraphEdge(c.parent, c.id,
                                   c.radius - radius[c.parent],
                                   1 + below[c.id]))
    # an augmented vertex on the piece each branch point specializes to
    holder = {pt: c.id for c in record.pieces for pt, _ in c.branch_points}
    for pt in ("0", "1", "inf"):
        components.append(Component(id=f"{pt}bar", kind="augmented",
                                    note="wild branch point"))
        edges.append(GraphEdge(holder[pt], f"{pt}bar"))

    signatures = [
        {"point": pt, "sigma_w": "0", "logarithmic": True}
        for pt in ("0", "1", "inf")
    ]
    signatures.append({
        "component": "X0", "deformation": "multiplicative",
        "delta": "1", "levels": n,
    })
    if record.flag:
        signatures.append({"flag": record.flag})
    return DecoratedGraph(record.p, n, components, edges, mG=1,
                          signatures=signatures)


def build_stable_graph(spec: CoverSpec) -> DecoratedGraph:
    """The decorated augmented dual graph of the stable reduction, built in
    one pass from the case record of (p, n, s) (_case_record).

    It is a function of (p, n, s) alone: only spec.p, spec.n and spec.s are
    read, so two covers of the same shape get equal graphs.  Each call
    builds a new graph.

    For p = 2, and for p = 3 with 1 < s < n, the shape beyond the
    certified tails follows the same template and is flagged
    lower-confidence in the signature table.
    """
    return _graph(_case_record(spec.p, spec.n, spec.s))


def quotient_spec(spec: CoverSpec, j: int) -> CoverSpec:
    """The cover Y/Q_j -> X: same exponents, p-power degree n - j."""
    if not (0 < j < spec.s):
        raise ValueError("quotient requires 0 < j < s")
    return branch_signature(spec.p, spec.n - j, spec.a, spec.b)


# -- stable-model field tower ------------------------------------------------

def _field_tower(record: _CaseRecord, a, b) -> FieldTower:
    """The tower of the steps of a case record, with the meta the report
    prints: a, b, the case, n and s."""
    meta = (("a", a), ("b", b), ("case", record.case),
            ("n", record.n), ("s", record.s))  # in key order
    return FieldTower(record.p, record.steps, meta)


def stab_field_tower(spec: CoverSpec) -> FieldTower:
    """The field of definition of the stable model as a tower over K_0:
    K_n = K_0(zeta_{p^n}), the Kummer steps that _case_record tabulates for
    the case of (p, n, s), then a tame step.  The steps depend on the shape
    alone, and analyze takes the tower's JSON from its _report_shape entry,
    filling in a and b.
    """
    return _field_tower(_case_record(spec.p, spec.n, spec.s), spec.a, spec.b)


# -- conductor certificate ---------------------------------------------------

def _conductor_certificate(record: _CaseRecord) -> dict:
    """The conductor certificate of a case record, as conductor_bound
    returns it, in new containers."""
    return {"vanishes_at_n": True, "conductor": record.conductor,
            "detail": list(record.detail)}


def conductor_bound(spec: CoverSpec) -> dict:
    """Certify that the n-th upper-numbering ramification group of the
    stable-model field over the base vanishes, from exactly verified
    valuation facts of the steps stab_field_tower lists for the case of
    (p, n, s).  Returns {vanishes_at_n, conductor, detail}; the conductor
    is exact in case (i) and a bound otherwise.

    Like every per-cover stage, it takes a CoverSpec (any other spec raises
    TypeError), so the cover rule a + b != 0, v_p(b) = n - s, v_p(a+b) = 0
    and v_p(a) = 0 holds.  Every valuation the detail quotes is derived
    from that rule, so the certificate is one of the shape (p, n, s), read
    off its case record, where the proofs stand (_case_record).  Only the
    w steps of case (v) read more than the rule: b' = b/2^(n-s) mod 8
    (_certify_p2_step).

    The w step of R_j, j < s, depends on c = k mod 2 only, k = 2n - s - j,
    and b' is odd, so c = 0 never refuses.  At j = 0 and s = 1,
    k = 2n - 1 is odd; for s >= 2, j = 0 and 1 give both parities.  So
    some step has c = 1, and the one call with c = 1 decides every step,
    with the same error and message.  analyze makes the same call."""
    _require_cover(spec, "conductor_bound")
    n, s = spec.n, spec.s
    if spec.p == 2:
        _certify_p2_step(spec.b // 2 ** (n - s), 1)
    return _conductor_certificate(_case_record(spec.p, n, s))


# -- the report template of a shape ------------------------------------------

class _ReportShape(NamedTuple):
    """The report of every cover of one shape (p, n, s), read off one case
    record: whether the graph passed every check and the conductor
    certificate holds, and the shape's fields of the report as JSON."""
    sound: bool  # no violation, zero residuals, and the conductor vanishes
    doc: dict  # the report template; analyze copies it and never hands it out


# Bounded: traffic that cycles through more shapes than an LRU keeps never
# hits it, and the benchmark's odd_survey cycles through 50.
@lru_cache(maxsize=256)
def _report_shape(p: int, n: int, s: int) -> _ReportShape:
    """The report template of (p, n, s), computed once per shape from one
    case record, as the report prints it: the graph, its violations, the
    vanishing-cycles and local residuals, the effective-different profile,
    the inseparable tails, the field tower, the conductor certificate and
    the moduli note, in report key order.  The tower meta's a and b hold
    None; the cover's own fields, spec, certificate and certified, are
    left to analyze.  The arguments are the plain ints branch_signature
    makes, so equal shapes share one entry."""
    record = _case_record(p, n, s)
    graph = _graph(record)
    violations = validate_structure(graph) + tail_invariant_checks(graph)
    residual = check_vanishing_cycles(graph)
    local = check_local_vanishing(graph)
    conductor = _conductor_certificate(record)
    sound = (
        not violations
        and residual == 0
        and all(v == 0 for v in local.values())
        and conductor["vanishes_at_n"]
    )
    profile = effective_different_profile(graph)
    doc = {
        "graph": graph.to_json(),
        "graph_violations": violations,
        "vanishing_cycles_residual": ratstr(residual),
        "local_vanishing_residuals": {k: ratstr(v) for k, v in local.items()},
        "effective_different": {k: ratstr(v) for k, v in profile.items()},
        "inseparable_tails": [t.to_json() for t in _tails(record)],
        "tower": _field_tower(record, None, None).to_json(),
        "conductor": {
            "vanishes_at_n": conductor["vanishes_at_n"],
            "conductor": conductor["conductor"].to_json(),
            "detail": conductor["detail"],
        },
        "moduli_field_note": (
            f"the field of moduli relative to K_0 is K_{n} = "
            f"K_0(zeta_{{{p}^{n}}})"
        ),
    }
    return _ReportShape(sound, doc)


# -- report assembly ---------------------------------------------------------

def _component(doc: dict) -> dict:
    """A component of a graph's JSON in new containers: its branch points,
    disk and upstairs data are the only containers in it."""
    doc = doc.copy()
    if "branch_points" in doc:
        doc["branch_points"] = doc["branch_points"].copy()
    if "disk" in doc:
        doc["disk"] = doc["disk"].copy()
    if "upstairs" in doc:
        doc["upstairs"] = doc["upstairs"].copy()
    return doc


def analyze(p: int, n: int, a: int, b: int) -> dict:
    """Full self-certifying report for one cover.  Every field of the shape
    (p, n, s) comes from the report template of _report_shape, built once
    per shape.  Each call copies every dict and list of the template and
    shares only its immutable values (strs, ints, bools, Nones and the
    tuple of any graph violation), so no report shares a container with
    another or with the cache.  The cover's own fields are the spec, the
    tail certificate, a and b in the tower's meta, and certified.  The
    conductor certificate is the shape's, once the cover passes the w step
    that conductor_bound makes in case (v).  That step comes first: its
    c = 1 call decides every w step with the same error and message
    (conductor_bound), new_tail_locus's among them, so a cover it refuses
    builds no tail certificate."""
    spec = branch_signature(p, n, a, b)
    if spec.p == 2:
        _certify_p2_step(spec.b // 2 ** (spec.n - spec.s), 1)
    verdict = certify_tail(spec)
    shape = _report_shape(spec.p, spec.n, spec.s)
    doc = shape.doc
    graph, tower, conductor = doc["graph"], doc["tower"], doc["conductor"]
    expected = "SplitsZ4" if spec.p == 2 else "SplitsArtinSchreier"
    return {
        "spec": spec.to_json(),
        "certificate": verdict.to_json(),
        "graph": {**graph,
                  "components": list(map(_component, graph["components"])),
                  "edges": list(map(dict.copy, graph["edges"])),
                  "signatures": list(map(dict.copy, graph["signatures"]))},
        "graph_violations": list(doc["graph_violations"]),
        "vanishing_cycles_residual": doc["vanishing_cycles_residual"],
        "local_vanishing_residuals": doc["local_vanishing_residuals"].copy(),
        "effective_different": doc["effective_different"].copy(),
        "inseparable_tails": list(map(dict.copy, doc["inseparable_tails"])),
        "tower": {**tower, "steps": list(map(dict.copy, tower["steps"])),
                  "meta": {**tower["meta"], "a": spec.a, "b": spec.b}},
        "conductor": {**conductor,
                      "conductor": conductor["conductor"].copy(),
                      "detail": list(conductor["detail"])},
        "moduli_field_note": doc["moduli_field_note"],
        "certified": verdict.kind == expected and shape.sound,
    }
