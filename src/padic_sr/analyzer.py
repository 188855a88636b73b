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
    CertificationFailed,
    Disconnected,
    IrreducibilityUnverified,
    NotThreePoint,
    UnsupportedCase,
    ZeroRadicand,
)
from .graph import (
    Component,
    DecoratedGraph,
    GraphEdge,
    check_local_vanishing,
    check_vanishing_cycles,
    effective_different_profile,
    sigma_eff_outward,
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
    CubicCentre,
    ReductionVerdict,
    classify_p2_torsor,
    classify_torsor_reduction,
    expand_disk,
)
from .tower import check_prime, vp_int, vp_rational


@dataclass(frozen=True)
class CoverSpec:
    p: int
    n: int
    a: int
    b: int
    s: int
    indices: tuple  # ramification indices above (0, 1, infinity)
    swaps: tuple = ()  # Moebius normalizations applied, outermost first
    original: tuple = ()  # (a, b) as given before normalization

    def to_json(self):
        return {
            "p": self.p, "n": self.n, "a": self.a, "b": self.b, "s": self.s,
            "indices": list(self.indices),
            "swaps": list(self.swaps),
            "original": list(self.original),
        }


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
    p, n, a, b = (_as_int("p", p), _as_int("n", n), _as_int("a", a),
                  _as_int("b", b))
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if p == 2 and n < 2:
        raise NotThreePoint("there are no three-point Z/2-covers")
    original = (a, b)
    exps = {"0": a, "1": b, "inf": -(a + b)}
    vals = {}
    for key, ex in exps.items():
        vals[key] = n if ex == 0 else min(vp_int(ex, p), n)
    if sum(1 for v in vals.values() if v == 0) < 2:
        raise Disconnected(
            "fewer than two of a, b, a+b are prime to p; the cover is "
            "disconnected"
        )
    if any(v >= n for v in vals.values()):
        raise NotThreePoint("a branch point has trivial ramification index")
    swaps = []
    if vals["0"] > 0:
        # x -> 1 - x exchanges 0 and 1
        a, b = b, a
        swaps.append("x -> 1 - x")
    if vp_int(a + b, p) > 0:
        # x -> x/(x-1) fixes 0 and exchanges 1 and infinity;
        # the exponent above the new x = 1 is the old exponent at infinity
        b = -(a + b)
        swaps.append("x -> x/(x-1)")
    s = n - vp_int(b, p)
    indices = (p ** (n - vals["0"]), p ** (n - vals["1"]),
               p ** (n - vals["inf"]))
    return CoverSpec(p, n, a, b, s, indices, tuple(swaps), original)


# -- the stable-model case split ----------------------------------------------

def _stable_case(p: int, n: int, s: int) -> str:
    """The case (i)-(v) of the cover, tabulated in stab_field_tower; every
    construction that depends on the case dispatches on this label."""
    if p == 2:
        if s == n:
            raise UnsupportedCase("p = 2 covers cannot have three totally "
                                  "ramified points")
        return "v"
    if s == n:
        return "i"
    if p > 3:
        return "ii"
    return "iii" if s == 1 else "iv"


def _cube_radicand(n: int, s: int, b: int) -> int:
    """3^(2(n-s)+3) C(b,3), of valuation 3(n-s)+2: the cube-root radicand of
    d' in case (iv) and, at s = 1, of the new-tail centre in case (iii)."""
    return 3 ** (2 * (n - s) + 3) * (b * (b - 1) * (b - 2) // 6)


# -- no fields ---------------------------------------------------------------
# analyze builds no Tower.  The rational centre of cases (i), (ii) and (iv)
# is exact data (new_tail_locus), and the case (iii) centre (a + t)/(a+b),
# t^3 = r, is an integer triple over a + b, valued in closed form (series
# module docstring, "Cubic centres").  The cube roots of cases (iii) and
# (iv) are certified from v_3 of their radicand, with constant conductors
# (conductor_bound).  Case (v) centres are Gaussian rationals plus a square
# root R of one, valued in closed form (classify_p2_torsor,
# conductor_bound), the step w^2 = u behind R is certified from b' mod 8
# (_certify_p2_step), and the square classes are read from the parity of
# v_2 (conductor_bound).  The graph half of the report (the graph, its
# checks and the inseparable tails) depends on (p, n, s) alone and is
# computed once per shape, in an LRU of 256 shapes (_report_shape, below);
# only callers that repeat a shape gain from it.

def _certify_p2_step(b_odd: int, c: int) -> None:
    """Certify the case (v) step w^2 = u = (-i)^c b' i, b' = b_odd, over
    Q_2(i), in integers: a refusal raises the error and message that
    adjoining the step would.  u = +-1 needs no step: w = 1 or i lies in
    Q_2(i).

    An even b' gives u the valuation v_2(b') >= 1, 2 v_2(b') in the
    uniformizer 1 + i, so the Newton polygon of x^2 - u has integral slope
    and certifies nothing, as certify_radical refuses it.  An odd b' is a
    square in Q_2(i) exactly when b' or -b' is a square in Q_2, that is
    b' = +-1 mod 8: then b' or -b' is a square of Q_2, and -1 = i^2.  For
    b' = +-3 mod 8, b' is +-5 times a square of Q_2, and Q_2(i)(sqrt 5) is
    the unramified quadratic extension of Q_2(i), as Q_2(i)/Q_2 is totally
    ramified.  b' i is never a square: i is none, as Q_2(zeta_8) has
    degree 4 over Q_2, so for b' = +-1 mod 8 neither is b' i; for
    b' = +-3 mod 8, sqrt(b' i) in Q_2(i) would make Q_2(i)(sqrt b') =
    Q_2(i)(sqrt i), but the first is unramified over Q_2(i) and the second
    ramified."""
    if b_odd == 0:
        raise ZeroRadicand("radicand is zero")
    if b_odd % 2 == 0:
        raise IrreducibilityUnverified(
            f"x^2 - r with v(r) = {vp_int(b_odd, 2)}: slope denominator is "
            f"not 2")
    if c and b_odd % 8 in (1, 7) and b_odd not in (1, -1):
        raise IrreducibilityUnverified(
            "radicand is a 2-th power in the 2-adic completion; x^2 - r is "
            "reducible there")


# -- the new etale tail ------------------------------------------------------

@dataclass(frozen=True)
class NewTailLocus:
    case: str  # "rational" | "p3s1" | "p2"
    d: object  # CubicCentre (a + t)/(a+b) ("p3s1"), else Fraction a/(a+b)
    v_e: Fraction  # v(e) = (2n - s + 1/(p-1))/2, in closed form
    rho: int | None = None  # "p2": the centre is d + R, R^2 = rho i/(a+b)^4


def new_tail_locus(spec: CoverSpec) -> NewTailLocus:
    """Center and radius valuation v(e) = (2n - s + 1/(p-1))/2 of the disk
    of the unique new etale tail, with the case-correct center.  The
    rational centre a/(a+b) of cases (i), (ii) and (iv) is the Fraction
    itself, the case (iii) centre (a + t)/(a+b), t^3 = 3^(2n+1) C(b,3), is
    a CubicCentre, and the case (v) centre is a/(a+b) + R with
    R^2 = rho i/(a+b)^4; none needs a tower or an e.  In case (v) the step
    w^2 = u behind R is certified in integers, from b' mod 8
    (_certify_p2_step), as the tie rule of classify_p2_torsor needs it, and
    no field is built."""
    p, n, s, a, b = spec.p, spec.n, spec.s, spec.a, spec.b
    v_e = Fraction(2 * n - s + Fraction(1, p - 1), 2)
    case = _stable_case(p, n, s)
    if case == "v":
        # sqrt(2^n b i) = (1+i)^k i^(k//2) w, k = 2n - s, b' = b/2^(n-s)
        # odd and w^2 = (-i)^(k%2) b' i, as (1+i)^2 = 2i and (-i)^2 = -1
        k = 2 * n - s
        b_odd = b // 2 ** (n - s)
        _certify_p2_step(b_odd, k % 2)
        return NewTailLocus("p2", Fraction(a, a + b), v_e, 2 ** k * b_odd)
    if case == "iii":
        return NewTailLocus("p3s1", CubicCentre((a, 1, 0), a + b,
                                                _cube_radicand(n, s, b)), v_e)
    # cases (i), (ii) and (iv): rational center, the disk given by v_e
    return NewTailLocus("rational", Fraction(a, a + b), v_e)


def certify_tail(spec: CoverSpec) -> ReductionVerdict:
    """Expand the cover on the new-tail disk to c_2p and classify the
    reduction; the tail bound certifies every later c_l, and no longer
    expansion could change the verdict (series module docstring).  A case
    (v) centre is classified in closed form, with no expansion."""
    locus = new_tail_locus(spec)
    if locus.case == "p2":
        return classify_p2_torsor(spec, locus.v_e, locus.rho)
    return classify_torsor_reduction(
        expand_disk(spec, locus.d, None, locus.v_e))


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


def inseparable_tails(spec: CoverSpec):
    """The inseparable tails forced by the structure results: the x = 1 tail
    whenever s < n, plus the small-prime extra tails.  A function of
    (p, n, s) alone, like build_stable_graph."""
    p, n, s = spec.p, spec.n, spec.s
    case = _stable_case(p, n, s)
    if case == "i":
        return []
    out = [InsepTail(s, "1", n - s + Fraction(1, p - 1), "primitive")]
    if case == "iv":
        out.append(InsepTail(
            s - 1,
            "d' = a/(a+b) + cbrt(3^(2(n-s)+3) binom(b,3))/(a+b)",
            Fraction(n - s) + Fraction(2, 3), "new"))
    if case == "v":
        for j in range(1, s):
            out.append(InsepTail(
                j, f"d_{j} = a/(a+b) + sqrt(2^(n-{j}) b i)/(a+b)^2",
                Fraction(2 * n - s - j + 1, 2), "new"))
    return out


# -- the decorated graph -----------------------------------------------------

def _upstairs(p: int, n: int, s: int, case: str, inertia: int,
              has_larger_neighbor: bool):
    """(count, genus, conductor, note) of the covering curve over a
    p^inertia-component of a cover in the given case."""
    i = inertia
    if not has_larger_neighbor:
        return p ** (n - i), 0, None, "radicial"
    if case == "v":
        if i == 0:
            return (2 ** (n - 2), None, None,
                    "mu_4-torsors, first upper jump 1")
        return 2 ** (n - i - 1), None, None, "p = 2 covering structure"
    cond = 1 if (case != "i" and i >= s) else 2
    genus = (cond - 1) * (p - 1) // 2
    return p ** (n - i - 1), genus, cond, ""


def build_stable_graph(spec: CoverSpec) -> DecoratedGraph:
    """The decorated augmented dual graph of the stable reduction.

    It is a function of (p, n, s) alone: only spec.p, spec.n and spec.s are
    read, so two covers of the same shape get equal graphs.  Each call
    builds a new graph.

    For p = 2, and for p = 3 with 1 < s < n, the shape beyond the
    certified tails follows the same template and is flagged
    lower-confidence in the signature table.
    """
    p, n, s = spec.p, spec.n, spec.s
    case = _stable_case(p, n, s)
    q = Fraction(1, p - 1)
    comps = []  # Component fields, before the upstairs decorations
    edges = []  # (source, target, epaisseur)
    flags = []

    def add(cid, inertia, kind, tail_kind="none", radius=None, center=None,
            sigma_b=None, branch_points=None):
        comps.append(dict(
            id=cid, inertia_exponent=inertia, kind=kind, tail_kind=tail_kind,
            branch_points=branch_points or {}, disk_center=center,
            radius_valuation=radius, sigma_b=sigma_b))

    if case == "i":
        # chain: X_i has inertia p^(n-i) at radius valuation (i + 1/(p-1))/2
        add("X0", n, "original", radius=Fraction(0), center="d",
            branch_points={"0": n, "1": n, "inf": n})
        prev = "X0"
        prev_r = Fraction(0)
        for i in range(1, n + 1):
            r = Fraction(i + q, 2)
            if i == n:
                add(f"X{i}", 0, "tail", "new", radius=r, center="d",
                    sigma_b=Fraction(2))
            else:
                add(f"X{i}", n - i, "interior", radius=r, center="d")
            edges.append((prev, f"X{i}", r - prev_r))
            prev, prev_r = f"X{i}", r
        wild_on = {"0bar": "X0", "1bar": "X0", "infbar": "X0"}
    else:
        add("X0", n, "original", radius=Fraction(0), center="d",
            branch_points={"0": n, "inf": n})
        prev = "X0"
        prev_r = Fraction(0)
        chain_lo = s + 2 if case == "v" else s + 1
        for i in range(n - 1, chain_lo - 1, -1):
            r = n - i + q
            add(f"X{n - i}", i, "interior", radius=r, center="d")
            edges.append((prev, f"X{n - i}", r - prev_r))
            prev, prev_r = f"X{n - i}", r
        r_star = Fraction(n - s)
        add("Xstar", s + 1, "interior", radius=r_star, center="d")
        edges.append((prev, "Xstar", r_star - prev_r))
        # the x = 1 inseparable tail
        r_dag = n - s + q
        add("Xdagger", s, "tail", "primitive", radius=r_dag, center="1",
            sigma_b=Fraction(1), branch_points={"1": s})
        edges.append(("Xstar", "Xdagger", q))
        # the d-branch out to the new etale tail
        prev, prev_r = "Xstar", r_star
        for i in range(s, -1, -1):
            if case == "v" or i < s:
                r = Fraction(2 * n - s - i + q, 2)
            else:  # i = s, p odd: the quotient Y/Q_s argument fixes the disk
                r = n - s + q
            kind = "tail" if i == 0 else "interior"
            tk = "new" if i == 0 else "none"
            sb = Fraction(2) if i == 0 else None
            add(f"X{n - i}", i, kind, tk, radius=r, center="d", sigma_b=sb)
            edges.append((prev, f"X{n - i}", r - prev_r))
            prev, prev_r = f"X{n - i}", r
        wild_on = {"0bar": "X0", "1bar": "Xdagger", "infbar": "X0"}
        if case == "iv":
            r = Fraction(n - s) + Fraction(2, 3)
            add("Xdprime", s - 1, "tail", "new", radius=r, center="d'",
                sigma_b=Fraction(2))
            edges.append((f"X{n - s}", "Xdprime", r - (n - s + q)))
            flags.append("p = 3 with 1 < s < n: graph shape beyond the "
                         "certified tails is lower-confidence")
        if case == "v":
            for j in range(1, s):
                r = Fraction(2 * n - s - j + 1, 2)
                add(f"Xd{j}", j, "tail", "new", radius=r, center=f"d_{j}",
                    sigma_b=Fraction(2))
                edges.append((f"X{n - j - 1}", f"Xd{j}", Fraction(1, 2)))
            flags.append("p = 2: graph shape beyond the certified tails is "
                         "lower-confidence")

    # upstairs decorations
    inertia_of = {c["id"]: c["inertia_exponent"] for c in comps}
    neigh = {c["id"]: [] for c in comps}
    for u, v, _ in edges:
        neigh[u].append(v)
        neigh[v].append(u)
    components = []
    for c in comps:
        i = c["inertia_exponent"]
        larger = any(inertia_of[nb] > i for nb in neigh[c["id"]])
        cnt, genus, cond, note = _upstairs(p, n, s, case, i, larger)
        components.append(Component(**c, upstairs_count=cnt,
                                    upstairs_genus=genus,
                                    upstairs_conductor=cond, note=note))
    for wid in wild_on:
        components.append(Component(id=wid, kind="augmented",
                                    note="wild branch point"))
    graph_edges = [GraphEdge(u, v, epaisseur=eps) for u, v, eps in edges]
    graph_edges += [GraphEdge(wild_on[wid], wid) for wid in wild_on]

    signatures = [
        {"point": pt, "sigma_w": "0", "logarithmic": True}
        for pt in ("0", "1", "inf")
    ]
    signatures.append({
        "component": "X0", "deformation": "multiplicative",
        "delta": "1", "levels": n,
    })
    signatures += [{"flag": f} for f in flags]

    draft = DecoratedGraph(p, n, tuple(components), tuple(graph_edges),
                           mG=1, signatures=tuple(signatures))
    # fill sigma_eff on every component edge from the decorations
    final_edges = [
        e if draft.component(e.target).kind == "augmented"
        else GraphEdge(e.source, e.target, e.epaisseur,
                       sigma_eff_outward(draft, e.source, e.target))
        for e in draft.edges]
    return DecoratedGraph(p, n, tuple(components), tuple(final_edges),
                          mG=1, signatures=tuple(signatures))


def quotient_spec(spec: CoverSpec, j: int) -> CoverSpec:
    """The cover Y/Q_j -> X: same exponents, p-power degree n - j."""
    if not (0 < j < spec.s):
        raise ValueError("quotient requires 0 < j < s")
    return branch_signature(spec.p, spec.n - j, spec.a, spec.b)


# -- stable-model field tower ------------------------------------------------

def stab_field_tower(spec: CoverSpec) -> FieldTower:
    """The field of definition of the stable model as a tower over K_0, by
    the case that _stable_case decides (d', d_j: see inseparable_tails):

    case  condition         adjoined to K_n = K_0(zeta_{p^n}), then a tame step
    i     s = n             nothing
    ii    p > 3, s < n      (a/(a+b))^(1/p^(n-s))
    iii   p = 3, s = 1 < n  cbrt(3^(2n+1) C(b,3)), (a/(a+b))^(1/3^(n-1))
    iv    p = 3, 1 < s < n  cbrt(3^(2(n-s)+3) C(b,3)) (gives d'),
                            (a/(a+b))^(1/3^(n-s)), and the 3^(n-s+1)-th root
                            of (d')^a (d'-1)^b / (a^a b^b (a+b)^-(a+b))
    v     p = 2 (so s < n)  d_0^(1/2^(n-1)), (d_0 - 1)^(1/2^(s-1)) if s >= 2,
                            and d_j^(1/2^(n-j)), (d_j - 1)^(1/2^(s-j)), 0<j<s

    meta["case"] records the case for conductor_bound.
    """
    p, n, s, a, b = spec.p, spec.n, spec.s, spec.a, spec.b
    case = _stable_case(p, n, s)
    steps = [TowerStep("cyclotomic", level=n)]

    def kummer(exponent, radicand):
        steps.append(TowerStep("kummer", exponent=exponent, radicand=radicand))

    if case == "iii":
        kummer(3, "3^(2n+1) binom(b,3)")
    elif case == "iv":
        kummer(3, "3^(2(n-s)+3) binom(b,3)  [gives d']")
    if case in ("ii", "iii", "iv"):
        kummer(p ** (n - s), "a/(a+b)")
    if case == "iv":
        kummer(3 ** (n - s + 1), "(d')^a (d'-1)^b / (a^a b^b (a+b)^-(a+b))")
    elif case == "v":
        kummer(2 ** (n - 1), "d_0")
        if s >= 2:
            kummer(2 ** (s - 1), "d_0 - 1")
        for j in range(1, s):
            kummer(2 ** (n - j), f"d_{j}")
            kummer(2 ** (s - j), f"d_{j} - 1")
    steps.append(TowerStep("tame"))
    meta = {"a": a, "b": b, "n": n, "s": s, "case": case}
    return FieldTower(p, tuple(steps), tuple(sorted(meta.items())))


# -- conductor certificate ---------------------------------------------------

def conductor_bound(ft: FieldTower, n: int) -> dict:
    """Certify that the n-th upper-numbering ramification group of the
    stable-model field over the base vanishes, from exactly verified
    valuation facts of the steps stab_field_tower lists for meta["case"].
    A meta that lacks one of a, b, n, s and case, has a + b = 0, gives an n
    other than the n asked for, or a case other than the case of (p, n, s),
    is refused.  Returns {vanishes_at_n, conductor, detail}; the conductor
    is exact in case (i) and a bound otherwise.

    The cube roots of cases (iii) and (iv) are certified in closed form.
    K_1 = Q_3(zeta_3) has e = 2, and the radicand rad = 3^(2(n-s)+3)
    C(b,3) is rational.  Once v_3(rad) = 3(n-s)+2 is checked,
    v_{K_1}(rad) = 2 (3(n-s)+2) = 1 mod 3 is prime to 3, so the Newton
    polygon of x^3 - rad over K_1 is one slope of denominator 3:
    L = K_1(cbrt rad) is totally ramified of degree 3, v(cbrt rad) =
    v_3(rad)/3, and as the radicand's valuation is prime to p the jump of
    L/K_1 is the maximal p e/(p-1) = 3 (Serre, Local Fields, IV 2), exact.
    L/K_0 is Galois of degree 6 (rad lies in K_0, zeta_3 in L) and totally
    ramified, with tame quotient of order 2, and lower numbering passes to
    the subgroup Gal(L/K_1): its lower filtration is |G_u| = 6 at u = 0,
    3 for 0 < u <= 3 and 1 beyond.  So phi_{L/K_0}(u) = u/2 on [0, 3] and
    3/2 + (u - 3)/6 past it, and the conductor of L/K_0 is phi(3) = 3/2.
    In case (iv), M/L is one more cube root over L, where e_L = 3 e_{K_1} =
    6, so its jump is at most the cap 3 e_L/2 = 9, and phi(9) = 5/2 bounds
    the conductor of M/K_0.  Both lie below n, as n >= 2 in case (iii) and
    n >= 3 in case (iv)."""
    meta = ft.meta_dict()
    missing = [key for key in ("a", "b", "n", "s", "case") if key not in meta]
    if missing:
        raise CertificationFailed(
            f"the tower's meta lacks {', '.join(missing)}")
    case, a, b, s = meta["case"], meta["a"], meta["b"], meta["s"]
    if a + b == 0:
        raise CertificationFailed("a + b = 0: the centre a/(a+b) is undefined")
    if meta["n"] != n:
        raise CertificationFailed(f"tower built for n = {meta['n']}, "
                                  f"certified at n = {n}")
    expected = _stable_case(ft.prime, n, s)
    if case != expected:
        raise CertificationFailed(f"case {case!r} is not the case "
                                  f"{expected!r} of p = {ft.prime}, n = {n}, "
                                  f"s = {s}")
    detail = [f"K_{n}/K_0 is cyclotomic: conductor exactly {n - 1} < {n}"]
    parts = [Fraction(n - 1)]

    if case in ("iii", "iv"):
        # the constants of the docstring: L/K_1 has jump 3, L/K_0
        # conductor 3/2, and M/L cap 9 and M/K_0 bound 5/2
        rad = _cube_radicand(n, s, b)  # (iii) is the s = 1 instance of (iv)
        v = vp_int(rad, 3)
        if v != 3 * (n - s) + 2:
            raise CertificationFailed(
                f"v_3(3^(2(n-s)+3) binom(b,3)) = {v}, expected "
                f"{3 * (n - s) + 2}"
            )
        h = Fraction(3, 2)
        if case == "iii":
            detail += [f"cube-root radicand valuation {v} verified",
                       f"conductor of K_1(cbrt)/K_0 is 3/2 (exact) < {n}"]
        else:
            # d'' - 1 = cbrt(rad)/a lies in L, of valuation v/3 - v_3(a)
            if Fraction(v, 3) - vp_int(a, 3) != n - s + Fraction(2, 3):
                raise CertificationFailed("v(d''-1) = n-s+2/3 fails")
            h = Fraction(5, 2)
            detail += ["v(d''-1) = n-s+2/3 verified",
                       "conductor of L/K_0 is 3/2 with L/K_1 conductor 3 "
                       "(exact)",
                       "conductor of M/L is at most 9",
                       f"conductor of M/K_0 is at most 5/2 < {n}"]
        if not h < n:
            raise CertificationFailed(
                f"cube-root part: conductor {ratstr(h)} is not < {n}")
        parts.append(h)
    elif case == "v":
        for j in range(0, s):
            # l(j) asks that 2^(n-j) b i be a square over the unramified
            # closure of K_2 (l = 2), or of K_3 but not K_2 (l = 3).  It is
            # one over K_3 always, and over K_2 exactly when v_2(2^(n-j) b)
            # is odd (square_class_K2_K3): both read v_2 = s + j mod 2
            ell = 2 if (s + j) % 2 == 1 else 3
            if (vp_int(2 ** (n - j) * b, 2) - s - j) % 2:
                raise CertificationFailed(f"square class of 2^(n-{j}) b i "
                                          f"disagrees with l({j}) = {ell}")
            # d_j = a/(a+b) + R_j, R_j^2 = 2^(n-j) b i/(a+b)^4: every fact
            # is v(R_j) plus the valuation of a rational, all doubled into
            # integers, and no d_j is built.  The w step depends on k mod 2
            # only, k = 2n - s - j, so j = 0 and 1 certify every step; it
            # admits only odd b', so 2 v(R_j) = k - 4 v_2(a+b)
            k = 2 * n - s - j
            if j < 2:
                _certify_p2_step(b // 2 ** (n - s), k % 2)
            vm, vb = vp_int(a + b, 2), vp_int(b, 2)
            v_r = k - 4 * vm
            # d_j - 1 = R_j - b/(a+b), and v_2(b) <= n - s; a tie then
            # forces v_2(a+b) > 0, and the min fails the check below as
            # v(d_j - 1) = v(R_j) + 1/4 fails it in the field.  It fails
            # for a = 0 too, so v_2(a) is taken below only for a != 0
            if min(v_r, 2 * (vb - vm)) != 2 * (n - s):
                raise CertificationFailed(f"v(d_{j} - 1) = n - s fails")
            # t_j = d_j (a+b)/a - 1 = R_j (a+b)/a
            if v_r + 2 * (vm - vp_int(a, 2)) != k:
                raise CertificationFailed(f"v(t_{j}) = n - (s+{j})/2 fails")
            # alpha'_j - 1 = (d_j - 1) (a+b)/(-b) - 1 = R_j (a+b)/(-b)
            if v_r + 2 * (vm - vb) != s - j:
                raise CertificationFailed(
                    f"v(alpha'_{j} - 1) = (s-{j})/2 fails")
            vt, va = Fraction(k, 2), Fraction(s - j, 2)
            detail.append(f"d_{j}: l({j}) = {ell}, v(d_{j}-1) = {n - s}, "
                          f"v(t_{j}) = {ratstr(vt)}, "
                          f"v(alpha'_{j}-1) = {ratstr(va)} verified")
        if vp_rational(Fraction(-b, a + b), 2) != n - s:
            raise CertificationFailed("v(b/(a+b)) = n - s fails")
        detail.append("square classes and unit levels match the certified "
                      "p = 2 table; conductor of K/K_0 is < n")
    if case in ("ii", "iii", "iv"):
        # the p^(n-s)-th root of the unit a/(a+b)
        if vp_rational(Fraction(a, a + b), ft.prime) != 0:
            raise CertificationFailed("v(a/(a+b)) = 0 fails")
        detail.append("v(a/(a+b)) = 0 verified; p^k-th root of a unit over "
                      "K_n has conductor < n")

    return {
        "vanishes_at_n": True,
        "conductor": ConductorValue("exact" if case == "i" else "bound",
                                    compositum_conductor(parts)),
        "detail": detail,
    }


# -- the shape half of the report --------------------------------------------

class _Shape(NamedTuple):
    """(p, n, s) of a cover: all that build_stable_graph and
    inseparable_tails read of a spec."""
    p: int
    n: int
    s: int


class _ReportShape(NamedTuple):
    """The graph and everything checked on it, for one (p, n, s).  Every
    field is immutable or never handed out: analyze serializes afresh."""
    graph: DecoratedGraph
    violations: tuple  # (code, detail) pairs
    residual: Fraction  # of the vanishing-cycles count
    local: tuple  # (component id, local vanishing residual) pairs
    profile: tuple  # (component id, effective different) pairs
    tails: tuple  # InsepTail


# Bounded: traffic that cycles through more shapes than an LRU keeps never
# hits it, and the benchmark's odd_survey cycles through 50.
@lru_cache(maxsize=256)
def _report_shape(p: int, n: int, s: int) -> _ReportShape:
    """The decorated graph of the shape (p, n, s), its violations, residuals
    and effective-different profile, and the inseparable tails, computed
    once per shape.  The arguments are the plain ints branch_signature
    makes, so equal shapes share one entry."""
    shape = _Shape(p, n, s)
    graph = build_stable_graph(shape)
    violations = validate_structure(graph) + tail_invariant_checks(graph)
    return _ReportShape(
        graph,
        tuple(violations),
        check_vanishing_cycles(graph),
        tuple(check_local_vanishing(graph).items()),
        tuple(effective_different_profile(graph).items()),
        tuple(inseparable_tails(shape)),
    )


# -- report assembly ---------------------------------------------------------

def analyze(p: int, n: int, a: int, b: int) -> dict:
    """Full self-certifying report for one cover.  The graph half comes from
    _report_shape and is serialized on every call, so no report shares a
    container with another."""
    spec = branch_signature(p, n, a, b)
    p, n = spec.p, spec.n
    verdict = certify_tail(spec)
    shape = _report_shape(p, n, spec.s)
    tower = stab_field_tower(spec)
    conductor = conductor_bound(tower, n)
    expected = "SplitsZ4" if p == 2 else "SplitsArtinSchreier"
    certified = (
        verdict.kind == expected
        and not shape.violations
        and shape.residual == 0
        and all(v == 0 for _, v in shape.local)
        and conductor["vanishes_at_n"]
    )
    return {
        "spec": spec.to_json(),
        "certificate": verdict.to_json(),
        "graph": shape.graph.to_json(),
        "graph_violations": list(shape.violations),
        "vanishing_cycles_residual": ratstr(shape.residual),
        "local_vanishing_residuals": {k: ratstr(v) for k, v in shape.local},
        "effective_different": {k: ratstr(v) for k, v in shape.profile},
        "inseparable_tails": [t.to_json() for t in shape.tails],
        "tower": tower.to_json(),
        "conductor": {
            "vanishes_at_n": conductor["vanishes_at_n"],
            "conductor": conductor["conductor"].to_json(),
            "detail": conductor["detail"],
        },
        "moduli_field_note": (
            f"the field of moduli relative to K_0 is K_{n} = "
            f"K_0(zeta_{{{p}^{n}}})"
        ),
        "certified": certified,
    }
