"""End-to-end analyzer: branch signatures, new-tail loci, graph templates
with frozen radii, field towers, conductor certificates, and quotient
compatibility."""

import json
import random
from fractions import Fraction
from functools import cache

import pytest

from padic_sr.analyzer import (
    _certify_p2_step,
    _k1,
    _q3_pi,
    _report_shape,
    _stable_case,
    analyze,
    branch_signature,
    build_stable_graph,
    certify_tail,
    conductor_bound,
    inseparable_tails,
    new_tail_locus,
    quotient_spec,
    stab_field_tower,
)
from padic_sr.errors import (
    ArtifactError,
    CertificationFailed,
    Disconnected,
    NotThreePoint,
    UnsupportedCase,
)
from padic_sr.graph import (
    check_local_vanishing,
    check_vanishing_cycles,
    effective_different_profile,
    tail_invariant_checks,
    validate_structure,
)
from padic_sr.jsonutil import ratstr
from padic_sr import tower as tower_module
from padic_sr.ramification import FieldTower, TowerStep
from padic_sr.tower import Tower, vp_rational
from p2_oracle import p2_center, tower_locus
from test_golden import _identity_grid
from tower_helpers import (
    is_square_unramified_closure,
    make_tower,
    q2_i,
    q2_zeta8,
)


# -- branch signatures -------------------------------------------------------

def test_signature_basic():
    s = branch_signature(5, 2, 3, 10)
    assert (s.a, s.b, s.s) == (3, 10, 1)
    assert s.indices == (25, 5, 25)
    assert s.swaps == ()


def test_signature_swap_zero_and_one():
    s = branch_signature(5, 2, 10, 3)
    assert (s.a, s.b) == (3, 10)
    assert s.swaps == ("x -> 1 - x",)
    assert s.indices == (5, 25, 25)
    assert s.original == (10, 3)


def test_signature_swap_one_and_infinity():
    s = branch_signature(5, 2, 3, -13)  # a + b = -10
    assert (s.a, s.b) == (3, 10)
    assert s.swaps == ("x -> x/(x-1)",)
    assert s.s == 1


def test_signature_errors():
    with pytest.raises(Disconnected):
        branch_signature(5, 2, 5, 10)  # only one exponent prime to 5
    with pytest.raises(NotThreePoint):
        branch_signature(5, 2, 25, 3)  # index 1 above 0
    with pytest.raises(NotThreePoint):
        branch_signature(2, 1, 1, 1)  # no three-point Z/2-covers
    with pytest.raises(NotThreePoint):
        branch_signature(5, 1, 1, -1)  # a + b = 0: unramified above infinity


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_non_prime_p_refused(p):
    """A non-prime p is refused before any p-adic valuation is taken (p = 1
    used to loop forever in v_p, p = 0 to divide by zero)."""
    with pytest.raises(ValueError, match=rf"^p = {p} is not prime$"):
        branch_signature(p, 2, 1, 1)
    with pytest.raises(ValueError, match=rf"^p = {p} is not prime$"):
        analyze(p, 1, 1, 1)


class _Int(int):
    """An int subclass that prints differently from its value."""

    def __repr__(self):
        return f"_Int({int(self)})"

    __str__ = __repr__


@pytest.mark.parametrize("args,name,kind", [
    ((5.0, 1, 1, 1), "p", "float"),
    ((5, 1.0, 1, 1), "n", "float"),
    ((5, 1, 1, Fraction(1)), "b", "Fraction"),
    ((5, True, 1, 1), "n", "bool"),
    ((True, 2, 1, 1), "p", "bool"),
    ((5, 1, False, 1), "a", "bool"),
])
def test_non_integer_arguments_refused(args, name, kind):
    """A bool, a float or any other non-integer argument raises TypeError
    naming the argument, from branch_signature and from analyze."""
    msg = rf"^{name} must be an integer, not {kind}$"
    with pytest.raises(TypeError, match=msg):
        branch_signature(*args)
    with pytest.raises(TypeError, match=msg):
        analyze(*args)


def test_integer_arguments_become_plain_ints():
    """An int subclass is read as its value: the spec holds plain ints and
    the report equals that of the plain cover, whichever runs first."""
    spec = branch_signature(_Int(5), _Int(2), _Int(3), _Int(10))
    assert spec == branch_signature(5, 2, 3, 10)
    assert all(type(x) is int for x in (spec.p, spec.n, spec.a, spec.b))
    assert all(type(x) is int for x in spec.original)
    _report_shape.cache_clear()
    with pytest.raises(TypeError):
        analyze(5, True, 1, 1)
    odd = json.dumps(analyze(_Int(5), _Int(1), _Int(1), _Int(1)),
                     sort_keys=True)
    plain = json.dumps(analyze(5, 1, 1, 1), sort_keys=True)
    assert odd == plain
    assert "_Int" not in odd and '"n": 1,' in odd


def test_p2_always_partial():
    s = branch_signature(2, 3, 1, 6)
    assert s.s == 2 and s.s < s.n


# -- new-tail locus ----------------------------------------------------------

def test_locus_rational_case():
    spec = branch_signature(5, 2, 3, 10)
    loc = new_tail_locus(spec)
    assert loc.case == "rational"
    assert loc.tower is None and loc.e is None
    assert loc.v_e == Fraction(2 * 2 - 1 + Fraction(1, 4), 2)
    assert loc.d == Fraction(3, 13)
    # the closed form is v(pi^((2n-s)(p-1)+1)) in Q_5(pi), pi^8 = 5
    t = Tower(5).adjoin_radical(8, 5, "pi")
    assert t.val(t.gen(0) ** ((2 * 2 - 1) * 4 + 1)) == loc.v_e


def test_locus_p3_s1_case():
    spec = branch_signature(3, 2, 1, 3)
    loc = new_tail_locus(spec)
    assert loc.case == "p3s1"
    assert loc.tower.val(loc.e) == loc.v_e == Fraction(7, 4)
    # the cube-root correction has valuation (3n-1)/3 = 5/3
    corr = loc.d - Fraction(1, 4)
    assert loc.tower.val(corr) == Fraction(3 * 2 - 1, 3)


def test_locus_p2_case():
    """The case (v) locus is a/(a+b) and R^2 = rho i/(a+b)^4 with no tower;
    the centre the tower oracle builds from it has the listed valuations."""
    spec = branch_signature(2, 3, 1, 6)
    loc = new_tail_locus(spec)
    assert loc.case == "p2"
    assert loc.tower is None and loc.e is None
    assert loc.d == Fraction(1, 7) and loc.rho == 2 ** 3 * 6
    assert loc.v_e == Fraction(2 * 3 - 2 + 1, 2)
    d, e = tower_locus(spec)
    t = d.tower
    assert t.val(e) == loc.v_e
    assert t.val(d - 1) == spec.n - spec.s
    # sqrt(2^n b i) bookkeeping: v(d - a/(a+b)) = (2n - s)/2
    assert t.val(d - loc.d) == Fraction(2 * 3 - 2, 2)
    assert (d - loc.d) ** 2 == t.gen(0) * Fraction(loc.rho, 7 ** 4)


# -- certification grid (small sample; the big grid is in acceptance) --------

@pytest.mark.parametrize("p,n,a,b,h", [(5, 1, 1, 1, 2), (7, 2, 2, 7, 2),
                                       (3, 3, 1, 3, 2), (11, 1, 3, 4, 2)])
def test_certify_odd(p, n, a, b, h):
    v = certify_tail(branch_signature(p, n, a, b))
    assert v.kind == "SplitsArtinSchreier"
    assert v.count == p ** (n - 1)
    assert v.conductor == h


def test_certify_p2():
    v = certify_tail(branch_signature(2, 2, 1, 6))
    assert (v.kind, v.count, v.conductor) == ("SplitsZ4", 1, 1)


@pytest.mark.parametrize("p,n,a,b", [(97, 1, 1, 1), (61, 2, 1, 61)])
def test_scaling_points_certify(p, n, a, b):
    """Large-p covers (truncation L = 2p over a degree-2(p-1) tower)
    certify end to end."""
    report = analyze(p, n, a, b)
    assert report["certified"] is True
    assert report["certificate"]["kind"] == "SplitsArtinSchreier"


# -- inseparable tails -------------------------------------------------------

def test_inseparable_tails_cases():
    assert inseparable_tails(branch_signature(5, 2, 1, 1)) == []
    t = inseparable_tails(branch_signature(5, 3, 1, 5))
    assert len(t) == 1 and t[0].center == "1"
    assert t[0].radius_valuation == 1 + Fraction(1, 4)
    t = inseparable_tails(branch_signature(3, 3, 1, 3))  # s = 2
    kinds = [(x.j, x.tail_kind) for x in t]
    assert (2, "primitive") in kinds and (1, "new") in kinds
    t = inseparable_tails(branch_signature(2, 3, 1, 6))  # s = 2
    kinds = [(x.j, x.tail_kind) for x in t]
    assert (2, "primitive") in kinds and (1, "new") in kinds


# -- graph templates: frozen radii -------------------------------------------

def _radii(g):
    return {c.id: c.radius_valuation for c in g.components
            if c.kind != "augmented"}


def test_full_case_radii_p5_n2():
    g = build_stable_graph(branch_signature(5, 2, 1, 1))
    assert _radii(g) == {"X0": Fraction(0), "X1": Fraction(5, 8),
                        "X2": Fraction(9, 8)}


def test_partial_case_radii_p5_n2():
    g = build_stable_graph(branch_signature(5, 2, 3, 10))
    assert _radii(g) == {
        "X0": Fraction(0), "Xstar": Fraction(1),
        "Xdagger": Fraction(5, 4), "X1": Fraction(5, 4),
        "X2": Fraction(13, 8),
    }


def test_partial_case_radii_p5_n3_s1():
    g = build_stable_graph(branch_signature(5, 3, 2, 25))
    assert _radii(g) == {
        "X0": Fraction(0), "X1": Fraction(1) + Fraction(1, 4),
        "Xstar": Fraction(2), "Xdagger": Fraction(9, 4),
        "X2": Fraction(9, 4), "X3": Fraction(21, 8),
    }


def test_p3_dprime_tail():
    g = build_stable_graph(branch_signature(3, 3, 1, 3))  # s = 2
    r = _radii(g)
    assert r["Xdprime"] == 1 + Fraction(2, 3)
    e = g.outward_edge("X1", "Xdprime")
    assert e.epaisseur == Fraction(1, 6)
    assert any("lower-confidence" in str(s) for s in g.signatures)


def test_p2_template():
    g = build_stable_graph(branch_signature(2, 3, 1, 6))  # n=3, s=2
    r = _radii(g)
    assert r["Xstar"] == 1 and r["Xdagger"] == 2
    assert r["Xd1"] == Fraction(2 * 3 - 2 - 1 + 1, 2)
    assert g.outward_edge("Xstar", "Xdagger").epaisseur == 1
    assert any("lower-confidence" in str(s) for s in g.signatures)


def test_upstairs_decorations():
    g = build_stable_graph(branch_signature(5, 2, 3, 10))
    by_id = {c.id: c for c in g.components}
    assert by_id["X0"].upstairs_count == 1 and by_id["X0"].note == "radicial"
    assert by_id["X2"].upstairs_count == 5
    assert by_id["X2"].upstairs_conductor == 2
    assert by_id["X2"].upstairs_genus == 2  # (h-1)(p-1)/2 with h = 2
    assert by_id["X1"].upstairs_conductor == 1  # i >= s in the partial case
    assert by_id["X1"].upstairs_genus == 0


def test_p2_normalization_forces_partial():
    # a, b odd makes a + b even: the swap moves the even exponent to b,
    # so p = 2 always lands in the partial case s < n
    s = branch_signature(2, 2, 1, 1)
    assert s.swaps == ("x -> x/(x-1)",)
    assert (s.a, s.b, s.s) == (1, -2, 1)
    assert s.s < s.n


# -- field towers and conductor certificates ---------------------------------

def test_tower_cases():
    cases = {
        (5, 2, 1, 1): ("i", ["cyclotomic", "tame"]),
        (5, 2, 3, 10): ("ii", ["cyclotomic", "kummer", "tame"]),
        (3, 2, 1, 3): ("iii", ["cyclotomic", "kummer", "kummer", "tame"]),
        (3, 3, 1, 3): ("iv", ["cyclotomic", "kummer", "kummer", "kummer",
                              "tame"]),
        (2, 3, 1, 6): ("v", ["cyclotomic", "kummer", "kummer", "kummer",
                             "kummer", "tame"]),
    }
    for (p, n, a, b), (case, kinds) in cases.items():
        ft = stab_field_tower(branch_signature(p, n, a, b))
        assert ft.meta_dict()["case"] == case
        assert [s.kind for s in ft.steps] == kinds


def test_conductor_bound_vanishes_everywhere():
    for p, n, a, b in [(5, 2, 1, 1), (5, 2, 3, 10), (3, 2, 1, 3),
                       (3, 3, 1, 3), (2, 3, 1, 6), (2, 3, 1, 12)]:
        spec = branch_signature(p, n, a, b)
        cb = conductor_bound(stab_field_tower(spec), n)
        assert cb["vanishes_at_n"] is True
        assert cb["conductor"].value < n


def test_conductor_bound_case_iii_radicand_valuation():
    spec = branch_signature(3, 3, 1, 9)
    cb = conductor_bound(stab_field_tower(spec), 3)
    assert any("valuation 8 verified" in line for line in cb["detail"])


def test_conductor_certification_failure_detected():
    """A tower whose quoted valuation facts are false is refused."""
    ft = stab_field_tower(branch_signature(3, 3, 1, 9))
    bad = FieldTower(ft.prime, ft.steps,
                     tuple(sorted({"a": 1, "b": 5, "n": 3, "s": 1,
                                   "case": "iii"}.items())))
    with pytest.raises(CertificationFailed):
        conductor_bound(bad, 3)


def _doctored(args, **meta):
    """The field tower of the cover `args` with some meta facts replaced."""
    ft = stab_field_tower(branch_signature(*args))
    doc = dict(ft.meta_dict(), **meta)
    return FieldTower(ft.prime, ft.steps, tuple(sorted(doc.items())))


@pytest.mark.parametrize("meta,match", [
    ({"b": 9}, "v_3"),  # radicand valuation 6, expected 5
    ({"a": 3}, r"v\(d''-1\) = n-s\+2/3 fails"),
])
def test_conductor_certification_failure_detected_case_iv(meta, match):
    bad = _doctored((3, 3, 1, 3), **meta)
    assert bad.meta_dict()["case"] == "iv"
    with pytest.raises(CertificationFailed, match=match):
        conductor_bound(bad, 3)


def test_conductor_certification_failure_detected_case_v():
    bad = _doctored((2, 3, 1, 6), b=12)
    assert bad.meta_dict()["case"] == "v"
    with pytest.raises(CertificationFailed,
                       match=r"square class of 2\^\(n-0\) b i disagrees "
                             r"with l\(0\) = 3"):
        conductor_bound(bad, 3)


@pytest.mark.parametrize("meta,n,match", [
    ({"s": 2}, 3, r"case 'iii' is not the case 'iv' of p = 3, n = 3, s = 2"),
    ({"n": 5}, 3, r"tower built for n = 5, certified at n = 3"),
    ({}, 5, r"tower built for n = 3, certified at n = 5"),
])
def test_conductor_bound_refuses_inconsistent_meta(meta, n, match):
    """The (3,3,1,9) tower (case iii) with a meta that disagrees with its case
    or with the n asked for certified with bound 2 before this check."""
    bad = _doctored((3, 3, 1, 9), **meta)
    with pytest.raises(CertificationFailed, match=match):
        conductor_bound(bad, n)


#: one cover per case (i)-(v)
ONE_COVER_PER_CASE = [(5, 2, 1, 1), (5, 2, 3, 10), (3, 3, 1, 9),
                      (3, 3, 1, 3), (2, 3, 1, 6)]


def _with_meta(args, meta):
    """The field tower of the cover `args` with its meta replaced."""
    ft = stab_field_tower(branch_signature(*args))
    return FieldTower(ft.prime, ft.steps, tuple(sorted(meta.items())))


@pytest.mark.parametrize("args", ONE_COVER_PER_CASE)
@pytest.mark.parametrize("drop", [("case",), ("a",),
                                  ("a", "b", "n", "s", "case")])
def test_conductor_bound_names_a_missing_meta_fact(args, drop):
    """A meta that lacks a fact is refused with CertificationFailed naming
    it, in every case; without the check it raised KeyError."""
    meta = stab_field_tower(branch_signature(*args)).meta_dict()
    bad = _with_meta(args, {k: v for k, v in meta.items() if k not in drop})
    with pytest.raises(CertificationFailed,
                       match=f"the tower's meta lacks {', '.join(drop)}$"):
        conductor_bound(bad, args[1])


@pytest.mark.parametrize("args", ONE_COVER_PER_CASE)
@pytest.mark.parametrize("key", ["a", "b"])
def test_conductor_bound_refuses_a_zero_a_plus_b(args, key):
    """A meta with a + b = 0, which no cover has, is refused with
    CertificationFailed in every case; without the check cases (ii)-(v) could
    raise ZeroDivisionError from Fraction(a, a + b)."""
    meta = stab_field_tower(branch_signature(*args)).meta_dict()
    meta[key] = -meta["b" if key == "a" else "a"]
    with pytest.raises(CertificationFailed,
                       match=r"^a \+ b = 0: the centre a/\(a\+b\) is "
                             r"undefined$"):
        conductor_bound(_with_meta(args, meta), args[1])


#: conductor_bound output of one cover per case (i)-(v): kind, value, detail
GOLDEN_CONDUCTORS = {
    (5, 2, 1, 1): ("i", "exact", Fraction(1), [
        "K_2/K_0 is cyclotomic: conductor exactly 1 < 2",
    ]),
    (5, 2, 3, 10): ("ii", "bound", Fraction(1), [
        "K_2/K_0 is cyclotomic: conductor exactly 1 < 2",
        "v(a/(a+b)) = 0 verified; p^k-th root of a unit over K_n has "
        "conductor < n",
    ]),
    (3, 2, 1, 3): ("iii", "bound", Fraction(3, 2), [
        "K_2/K_0 is cyclotomic: conductor exactly 1 < 2",
        "cube-root radicand valuation 5 verified",
        "conductor of K_1(cbrt)/K_0 is 3/2 (exact) < 2",
        "v(a/(a+b)) = 0 verified; p^k-th root of a unit over K_n has "
        "conductor < n",
    ]),
    (3, 3, 1, 3): ("iv", "bound", Fraction(5, 2), [
        "K_3/K_0 is cyclotomic: conductor exactly 2 < 3",
        "v(d''-1) = n-s+2/3 verified",
        "conductor of L/K_0 is 3/2 with L/K_1 conductor 3 (exact)",
        "conductor of M/L is at most 9",
        "conductor of M/K_0 is at most 5/2 < 3",
        "v(a/(a+b)) = 0 verified; p^k-th root of a unit over K_n has "
        "conductor < n",
    ]),
    (2, 3, 1, 6): ("v", "bound", Fraction(2), [
        "K_3/K_0 is cyclotomic: conductor exactly 2 < 3",
        "d_0: l(0) = 3, v(d_0-1) = 1, v(t_0) = 2, v(alpha'_0-1) = 1 "
        "verified",
        "d_1: l(1) = 2, v(d_1-1) = 1, v(t_1) = 3/2, v(alpha'_1-1) = 1/2 "
        "verified",
        "square classes and unit levels match the certified p = 2 table; "
        "conductor of K/K_0 is < n",
    ]),
}


@pytest.mark.parametrize("args", sorted(GOLDEN_CONDUCTORS))
def test_conductor_bound_golden(args):
    case, kind, value, detail = GOLDEN_CONDUCTORS[args]
    ft = stab_field_tower(branch_signature(*args))
    assert ft.meta_dict()["case"] == case
    cb = conductor_bound(ft, args[1])
    assert cb["vanishes_at_n"] is True
    assert (cb["conductor"].kind, cb["conductor"].value) == (kind, value)
    assert cb["detail"] == detail


# -- quotient compatibility --------------------------------------------------

def _assert_quotient_embeds(spec, j):
    q = quotient_spec(spec, j)
    assert (q.n, q.s) == (spec.n - j, spec.s - j)
    gf = build_stable_graph(spec)
    gq = build_stable_graph(q)
    full = {(c.inertia_exponent + j, c.radius_valuation)
            for c in gf.components if c.kind != "augmented"}
    full_pairs = {(c.inertia_exponent + 0, c.radius_valuation)
                  for c in gf.components if c.kind != "augmented"}
    for c in gq.components:
        if c.kind in ("augmented", "original"):
            continue
        assert (c.inertia_exponent + j, c.radius_valuation) in full_pairs | {
            (c.inertia_exponent + j, c.radius_valuation)}
        assert any(
            f.inertia_exponent == c.inertia_exponent + j
            and f.radius_valuation == c.radius_valuation
            for f in gf.components if f.kind != "augmented"
        )


@pytest.mark.parametrize("p,n,a,b,j", [(5, 3, 2, 5, 1), (7, 3, 1, 7, 1),
                                       (3, 3, 1, 3, 1), (2, 3, 1, 6, 1),
                                       (5, 3, 4, 15, 1)])
def test_quotient_compatibility(p, n, a, b, j):
    spec = branch_signature(p, n, a, b)
    if not (0 < j < spec.s):
        pytest.skip("quotient requires 0 < j < s")
    _assert_quotient_embeds(spec, j)


def test_quotient_range_enforced():
    spec = branch_signature(5, 2, 3, 10)
    with pytest.raises(ValueError):
        quotient_spec(spec, 1)  # j must be < s = 1


# -- full report -------------------------------------------------------------

def test_analyze_report_shape():
    rep = analyze(5, 2, 3, 10)
    for key in ("spec", "certificate", "graph", "graph_violations",
                "vanishing_cycles_residual", "local_vanishing_residuals",
                "effective_different", "inseparable_tails", "tower",
                "conductor", "moduli_field_note", "certified"):
        assert key in rep
    assert rep["certified"] is True
    assert rep["vanishing_cycles_residual"] == "0"
    assert rep["conductor"]["vanishes_at_n"] is True
    assert rep["effective_different"]["X0"] == "9/4"


# -- fields built once -------------------------------------------------------

def _count_adjoins(monkeypatch):
    """Record (prime, steps of the tower extended, exponent or order) of
    every Tower.adjoin_radical and Tower.adjoin_root_of_unity call from now
    on."""
    calls = []
    for method in ("adjoin_radical", "adjoin_root_of_unity"):
        def counted(self, m, *args, _adjoin=getattr(Tower, method), **kw):
            calls.append((self.p, len(self.steps), m))
            return _adjoin(self, m, *args, **kw)

        monkeypatch.setattr(Tower, method, counted)
    return calls


@pytest.mark.parametrize("args,calls", [
    ((3, 2, 1, 3), [(3, 1, 3)]),  # (iii): the cube root over Q_3(pi)
    ((3, 3, 2, 3), []),  # (iv): the cube root over K_1 is only certified
    ((5, 2, 3, 10), []),  # (ii)
    ((5, 1, 1, 1), []),  # (i)
])
def test_second_analyze_builds_only_per_cover_steps(monkeypatch, args,
                                                     calls):
    """A second analyze of a cover adjoins only the steps that depend on the
    cover: Q_3(pi) and K_1 = Q_3(zeta_3) are never rebuilt, the rational
    centre of cases (i), (ii) and (iv) builds no tower at all, and case
    (iv) certifies its cube root over K_1 without building it."""
    first = analyze(*args)
    counted = _count_adjoins(monkeypatch)
    assert analyze(*args) == first
    assert counted == calls


@pytest.mark.parametrize("args", [(2, 4, 1, 6), (2, 5, 1, 6), (2, 5, 3, -10),
                                  (2, 6, 1, 10), (2, 4, 1, 2)])
def test_case_v_adjoins_one_w_per_parity_of_k(monkeypatch, args):
    """A case (v) analyze adjoins nothing: each w step, one for each class
    of k = 2n - s - j mod 2 over j < s, is certified in integers and never
    built, by new_tail_locus and conductor_bound alike."""
    spec = branch_signature(*args)
    assert spec.s >= 3
    classes = {(2 * spec.n - spec.s - j) % 2 for j in range(spec.s)}
    assert len(classes) == 2
    calls = _count_adjoins(monkeypatch)
    assert analyze(*args)["certified"] is True
    assert calls == []


@pytest.mark.parametrize("args", [(2, 4, 1, 6), (2, 6, 1, 10), (2, 4, 1, 2),
                                  (2, 6, 3, -6)])
def test_p2_centres_are_the_listed_square_roots(args):
    """Each d_j that the oracle's p2_center builds from a shared field
    satisfies ((d_j - a/(a+b)) (a+b)^2)^2 = 2^(n-j) b i, for every j < s."""
    spec = branch_signature(*args)
    n, s, a, b = spec.n, spec.s, spec.a, spec.b
    for j in range(s):
        t, dj = p2_center(n, s, a, b, j)
        root = (dj - Fraction(a, a + b)) * (a + b) ** 2
        assert root ** 2 == t.gen(0) * (2 ** (n - j) * b), j


def _outcome(f, *args):
    """f(*args), or the type and message of the domain error it raises."""
    try:
        return f(*args)
    except ArtifactError as exc:
        return type(exc).__name__, str(exc)


def _di_square(d, ell):
    """Is d i a square in K_ell (K_2 = Q_2(i), K_3 = Q_2(zeta_8)) over the
    unramified closure?  Decided in the field, on d i itself."""
    k = q2_i() if ell == 2 else q2_zeta8()
    return is_square_unramified_closure(k, k.gen(0) * d)


def _old_case_v(n, s, a, b):
    """Case (v) of conductor_bound as it was, with every fact a valuation
    of a built d_j in its tower and every square class decided in its
    field; returns the detail lines.  A meta with a + b = 0 is refused
    first, as conductor_bound refuses it."""
    if a + b == 0:
        raise CertificationFailed("a + b = 0: the centre a/(a+b) is "
                                  "undefined")
    detail = []
    for j in range(0, s):
        d = Fraction(2 ** (n - j) * b)
        ell = 2 if (s + j) % 2 == 1 else 3
        ok = _di_square(d, 2) if ell == 2 else (
            _di_square(d, 3) and not _di_square(d, 2))
        if not ok:
            raise CertificationFailed(f"square class of 2^(n-{j}) b i "
                                      f"disagrees with l({j}) = {ell}")
        tw, dj = p2_center(n, s, a, b, j)
        vt, va = Fraction(2 * n - s - j, 2), Fraction(s - j, 2)
        if tw.val(dj - 1) != n - s:
            raise CertificationFailed(f"v(d_{j} - 1) = n - s fails")
        if tw.val(dj * Fraction(a + b, a) - 1) != vt:
            raise CertificationFailed(f"v(t_{j}) = n - (s+{j})/2 fails")
        if tw.val((dj - 1) * Fraction(a + b, -b) - 1) != va:
            raise CertificationFailed(
                f"v(alpha'_{j} - 1) = (s-{j})/2 fails")
        detail.append(f"d_{j}: l({j}) = {ell}, v(d_{j}-1) = {n - s}, "
                      f"v(t_{j}) = {ratstr(vt)}, "
                      f"v(alpha'_{j}-1) = {ratstr(va)} verified")
    if vp_rational(Fraction(-b, a + b), 2) != n - s:
        raise CertificationFailed("v(b/(a+b)) = n - s fails")
    return detail


def _case_v_lines(ft, n):
    """The d_j lines of conductor_bound's detail for a case (v) tower."""
    return [line for line in conductor_bound(ft, n)["detail"]
            if line.startswith("d_")]


@cache
def _case_v_tower(n, s):
    """The field tower of the real case (v) cover (2, n, 1, 3 * 2^(n-s))."""
    return stab_field_tower(branch_signature(2, n, 1, 2 ** (n - s) * 3))


@pytest.mark.parametrize("seed", [1, 2])
def test_case_v_conductor_bound_matches_the_tower_path(seed):
    """On real covers and on metas with a and b doctored, conductor_bound
    certifies, or refuses with the same error and message, exactly where
    the old path through built d_j does.  Seed 1 adds the grid 2 <= n <= 6,
    every s < n, a in {1, 3, -5, 7} and b' in every class mod 8, where
    b' = +-1 mod 8 (b' != +-1) is refused at the w step on both paths.  The
    doctored metas include ties v(R_j) = v(a/(a+b) - 1) and a + b = 0."""
    rng = random.Random(seed)
    metas = [(3, 2, -64, -62), (3, 2, -64, -58), (4, 3, 6, -6)]  # ties, 0
    for n in range(2, 6):
        for s in range(1, n):
            for _ in range(3):
                metas.append((n, s, rng.choice((1, 3, 5, 7, 9)),
                              2 ** (n - s) * rng.choice((3, -3, 5, -5, 7))))
            for _ in range(12):
                metas.append((n, s, rng.randint(-64, 64),
                              rng.choice((-1, 1)) * rng.randint(1, 32) * 2))
    if seed == 1:
        metas += [(n, s, a, 2 ** (n - s) * b_odd)
                  for n in range(2, 7) for s in range(1, n)
                  for a in (1, 3, -5, 7)
                  for b_odd in (3, -3, 5, -5, 7, -7, 9, 1)]
    kinds = set()
    for n, s, a, b in metas:
        ft0 = _case_v_tower(n, s)
        doc = dict(ft0.meta_dict(), a=a, b=b, s=s)
        ft = FieldTower(2, ft0.steps, tuple(sorted(doc.items())))
        old = _outcome(_old_case_v, n, s, a, b)
        assert _outcome(_case_v_lines, ft, n) == old, (n, s, a, b)
        kinds.add(old[0] if isinstance(old, tuple) else "certified")
    assert {"certified", "CertificationFailed", "IrreducibilityUnverified",
            "ZeroRadicand"} <= kinds, kinds
    assert _outcome(_old_case_v, 4, 3, 6, -6) == (
        "CertificationFailed", "a + b = 0: the centre a/(a+b) is undefined")


def test_w_step_rule_matches_certify_radical():
    """The integer rule of _certify_p2_step against the certificate of
    adjoin_radical on a freshly built Q_2(i): for every |b'| <= 255, zero
    and even included, and c in {0, 1}, the same outcome, or the same error
    type and message.  u = +-1 needs no step, as w = 1 or i is in Q_2(i)."""
    t = make_tower(2, [(2, -1)])
    i = t.gen(0)

    def by_field(b_odd, c):
        u = t.rational(b_odd) if c else b_odd * i
        if not ((u - 1).is_zero() or (u + 1).is_zero()):
            t.certify_radical(2, u)

    seen = set()
    for b_odd in range(-255, 256):
        for c in (0, 1):
            want = _outcome(by_field, b_odd, c)
            assert _outcome(_certify_p2_step, b_odd, c) == want, (b_odd, c)
            seen.add(want)
    assert seen >= {
        None, ("ZeroRadicand", "radicand is zero"),
        ("IrreducibilityUnverified",
         "x^2 - r with v(r) = 7: slope denominator is not 2"),
        ("IrreducibilityUnverified", "radicand is a 2-th power in the "
         "2-adic completion; x^2 - r is reducible there")}, seen


def _count_p2_field_work(monkeypatch):
    """Record every Tower built, norm taken, q-th power test and unit-level
    walk from now on, and every step adjoined."""
    calls = _count_adjoins(monkeypatch)
    init, norm = Tower.__init__, Tower.norm
    monkeypatch.setattr(Tower, "__init__",
                        lambda self, p: calls.append("Tower") or init(self, p))
    monkeypatch.setattr(Tower, "norm",
                        lambda self, x: calls.append("norm") or norm(self, x))
    for name in ("_is_qth_power_local", "unit_level"):
        def counted(*args, _name=name, _f=getattr(tower_module, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(tower_module, name, counted)
    return calls


def test_seen_class_of_b_odd_runs_no_digit_search(monkeypatch):
    """No b' runs a unit-level walk: the w steps of b' = 3 and of every
    other odd b' up to 31, b' = 19 (3 mod 16) among them, are decided from
    b' mod 8 with no Tower built, no norm taken, no q-th power test and
    nothing adjoined, on a cold process and after another b' alike."""
    calls = _count_p2_field_work(monkeypatch)
    for b_odd in range(1, 32, 2):
        for sign in (1, -1):
            _report_or_error((2, 4, 1, 2 * sign * b_odd))
    assert analyze(2, 4, 1, 6)["certified"] is True  # b' = 3
    assert analyze(2, 4, 1, 38)["certified"] is True  # b' = 19
    assert calls == []


def test_p2_identity_grid_builds_no_field(monkeypatch):
    """analyze over every p = 2 cover of the identity grid, with the
    analyzer's caches cleared first, builds no Tower and makes no q-th
    power test: the refused covers included, every p = 2 fact is an
    integer rule."""
    for cached in (_report_shape, _q3_pi, _k1):
        cached.cache_clear()
    calls = _count_p2_field_work(monkeypatch)
    covers = [args for args in _identity_grid() if args[0] == 2]
    refused = [r[0] for r in map(_report_or_error, covers)
               if isinstance(r, tuple)]
    assert len(covers) == 1776
    assert refused.count("IrreducibilityUnverified") == 124
    assert calls == []


@pytest.mark.parametrize("args", [(2, 4, 1, 6), (2, 6, 3, -6), (2, 3, 1, 6)])
def test_case_v_conductor_bound_takes_no_norm_and_builds_no_centre(
        monkeypatch, args):
    """On a cover never analyzed before, conductor_bound reads every case
    (v) fact in closed form: no Tower built, no Tower.norm call and no
    step adjoined."""
    spec = branch_signature(*args)
    calls = _count_p2_field_work(monkeypatch)
    cb = conductor_bound(stab_field_tower(spec), spec.n)
    assert cb["vanishes_at_n"] is True
    assert calls == []


MIXED_GRID = [(2, 3, 1, 6), (2, 4, 1, 56), (2, 4, 1, 6), (2, 5, 1, 6),
              (2, 5, 3, -10), (2, 4, 1, 14), (2, 4, 1, 2), (3, 2, 1, 3),
              (3, 3, 1, 9), (3, 3, 2, 3), (3, 4, 1, 9), (5, 2, 1, 5),
              (7, 1, 1, 1), (11, 3, 2, 11), (17, 2, 1, 17), (37, 1, 1, 1)]


def _report_or_error(args):
    try:
        return analyze(*args)
    except ArtifactError as exc:
        return type(exc).__name__, str(exc)


def test_shared_fields_carry_no_cover_state():
    """Analyzing a mixed grid forwards and then backwards, with every
    shared field reused between covers, gives the reports (or errors) that
    each cover gives with the shared fields built afresh."""
    fresh = {}
    for args in MIXED_GRID:
        _q3_pi.cache_clear()
        _k1.cache_clear()
        fresh[args] = _report_or_error(args)
    assert sum(isinstance(r, tuple) for r in fresh.values()) >= 2
    forwards = {args: _report_or_error(args) for args in MIXED_GRID}
    backwards = {args: _report_or_error(args) for args in MIXED_GRID[::-1]}
    assert forwards == fresh
    assert backwards == fresh


# -- no brute force on the certification path --------------------------------

#: (counted cover, warm-up cover of the same case and prime): cases (i)-(v)
#: over p in {2, 3, 5, 17}, with 1 < s < n at p = 3 in case (iv); the case
#: (v) pairs differ in b', so they adjoin different w's
NO_BRUTE_FORCE = [
    ((5, 2, 1, 1), (5, 1, 2, 1)),  # (i)
    ((5, 2, 1, 5), (5, 2, 2, 10)),  # (ii)
    ((17, 2, 1, 17), (17, 2, 2, -17)),  # (ii)
    ((3, 3, 1, 9), (3, 3, 2, 9)),  # (iii)
    ((3, 3, 1, 3), (3, 3, 2, -3)),  # (iv)
    ((3, 4, 1, 9), (3, 3, 2, -3)),  # (iv)
    ((2, 4, 1, 6), (2, 3, 1, 10)),  # (v), b' = 3 after b' = 5
    ((2, 3, 1, 10), (2, 4, 1, 6)),  # (v), b' = 5 after b' = 3
]


@pytest.mark.parametrize("counted,warm", NO_BRUTE_FORCE)
def test_certification_takes_no_determinant_or_solve(monkeypatch, counted,
                                                     warm):
    """Once another cover of the same case has filled the per-process
    fields (with their inverse caches), a certified cover takes every
    valuation, norm, power and inverse in closed form: no
    multiplication-matrix determinant and no linear solve, its own locus
    and centre towers included."""
    specs = branch_signature(*counted), branch_signature(*warm)
    assert len({_stable_case(sp.p, sp.n, sp.s) for sp in specs}) == 1
    assert analyze(*warm)["certified"] is True
    calls = []
    for name in ("_det_fraction", "_solve_fraction"):
        def counting(*args, _name=name, _f=getattr(tower_module, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(tower_module, name, counting)
    assert analyze(*counted)["certified"] is True
    assert calls == []


# -- the shape half of the report, once per (p, n, s) ------------------------

def _shape_covers(seed):
    """Covers of every case (i)-(v) for p in {2, 3, 5, 7, 17, 37}, drawn
    from the seed: b = +-p^(n-s) u with a and u prime to p, the sign taken
    so that a + b is prime to p when s = n (for odd p one of a +- u is), so
    each draw is admissible with s as chosen."""
    rng = random.Random(seed)
    covers = []
    for p, n_max in ((2, 5), (3, 4), (5, 3), (7, 3), (17, 2), (37, 2)):
        units = [x for x in range(1, 4 * p) if x % p]
        for n in range(2 if p == 2 else 1, n_max + 1):
            for s in range(1, n if p == 2 else n + 1):
                for _ in range(2):
                    a = rng.choice(units)
                    u = rng.choice(units)
                    b = rng.choice((1, -1)) * p ** (n - s) * u
                    if s == n and (a + b) % p == 0:
                        b = -b
                    covers.append((p, n, a, b))
    return covers


def _fresh_shape(spec):
    """The graph half of the report, computed the uncached way."""
    graph = build_stable_graph(spec)
    local = check_local_vanishing(graph)
    profile = effective_different_profile(graph)
    return {
        "graph": graph.to_json(),
        "graph_violations": validate_structure(graph)
        + tail_invariant_checks(graph),
        "vanishing_cycles_residual": ratstr(check_vanishing_cycles(graph)),
        "local_vanishing_residuals": {k: ratstr(v) for k, v in local.items()},
        "effective_different": {k: ratstr(v) for k, v in profile.items()},
        "inseparable_tails": [t.to_json() for t in inseparable_tails(spec)],
    }


def _cached_shape(spec):
    """The same fields as analyze reports them from _report_shape, or from
    the analyze report itself when the cover certifies or fails late."""
    try:
        report = analyze(spec.p, spec.n, spec.original[0], spec.original[1])
    except ArtifactError:
        sh = _report_shape(spec.p, spec.n, spec.s)
        return {
            "graph": sh.graph.to_json(),
            "graph_violations": list(sh.violations),
            "vanishing_cycles_residual": ratstr(sh.residual),
            "local_vanishing_residuals": {k: ratstr(v) for k, v in sh.local},
            "effective_different": {k: ratstr(v) for k, v in sh.profile},
            "inseparable_tails": [t.to_json() for t in sh.tails],
        }
    return {key: report[key] for key in _fresh_shape(spec)}


@pytest.mark.parametrize("seed", [11, 12])
def test_cached_shape_equals_fresh_computation(seed):
    """The graph, violations, residuals, effective-different profile and
    inseparable tails that analyze reports equal the uncached computation,
    with the cache cleared before each cover, then forwards, then in
    reverse order."""
    covers = _shape_covers(seed)
    specs = [branch_signature(*c) for c in covers]
    cases = {(spec.p, spec.s == spec.n, spec.s == 1) for spec in specs}
    assert {(3, True, False), (3, False, True), (3, False, False),
            (5, False, True), (2, False, True), (2, False, False)} <= cases
    want = [_fresh_shape(spec) for spec in specs]
    cold = []
    for spec in specs:
        _report_shape.cache_clear()
        cold.append(_cached_shape(spec))
    assert cold == want
    assert [_cached_shape(spec) for spec in specs] == want
    assert [_cached_shape(spec) for spec in specs[::-1]] == want[::-1]


@pytest.mark.parametrize("first,second", [
    ((5, 1, 1, 1), (5, 1, 2, 7)),  # (i)
    ((5, 3, 2, 25), (5, 3, 1, -50)),  # (ii)
    ((3, 3, 1, 9), (3, 3, 2, -9)),  # (iii)
    ((3, 4, 2, 9), (3, 4, 1, 18)),  # (iv)
    ((2, 4, 1, 6), (2, 4, 3, -10)),  # (v)
    ((37, 2, 1, 37), (37, 2, 5, 74)),
])
def test_shape_depends_on_p_n_s_only(first, second):
    """The invariant the cache rests on: two covers with the same (p, n, s)
    and different (a, b) get equal graphs and inseparable tails."""
    s1, s2 = branch_signature(*first), branch_signature(*second)
    assert (s1.p, s1.n, s1.s) == (s2.p, s2.n, s2.s)
    assert (s1.a, s1.b) != (s2.a, s2.b)
    assert build_stable_graph(s1).to_json() == build_stable_graph(s2).to_json()
    assert inseparable_tails(s1) == inseparable_tails(s2)
    assert build_stable_graph(s1) is not build_stable_graph(s1)


def _vandalize(doc):
    """Change every container reachable from doc in place: overwrite each
    scalar entry, and add an entry to each dict and list."""
    if isinstance(doc, dict):
        for key, value in list(doc.items()):
            if isinstance(value, (dict, list)):
                _vandalize(value)
            else:
                doc[key] = "vandalized"
        doc["vandalized"] = True
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            if isinstance(value, (dict, list)):
                _vandalize(value)
            else:
                doc[i] = "vandalized"
        doc.append("vandalized")


@pytest.mark.parametrize("first,second", [
    ((5, 2, 3, 10), (5, 2, 1, 15)),  # (ii), with branch points and tails
    ((3, 4, 2, 9), (3, 4, 1, 18)),  # (iv)
    ((2, 4, 1, 6), (2, 4, 3, -10)),  # (v)
])
def test_reports_share_no_container_with_the_cache(first, second):
    """Mutating every container of a report (graph components, branch
    points, edges, signatures, violations, residuals, profile, tails) leaves
    the next report of the same shape, and of the same cover, equal to a
    report computed with the cache cleared."""
    _report_shape.cache_clear()
    fresh_first = analyze(*first)
    _report_shape.cache_clear()
    fresh_second = analyze(*second)
    _report_shape.cache_clear()
    report = analyze(*first)
    graph = report["graph"]
    assert any("branch_points" in c for c in graph["components"])
    assert graph["signatures"] and report["inseparable_tails"]
    _vandalize(report)
    assert report != fresh_first
    assert report["graph_violations"] == ["vandalized"]
    assert analyze(*second) == fresh_second
    assert analyze(*first) == fresh_first
    assert _report_shape.cache_info().hits >= 2


def test_shape_cache_is_bounded():
    """The cache holds at most a fixed number of shapes, and at least the
    50 shapes that odd_survey-like traffic cycles through."""
    maxsize = _report_shape.cache_info().maxsize
    assert maxsize is not None and maxsize >= 64
