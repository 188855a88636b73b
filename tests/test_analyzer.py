"""End-to-end analyzer: branch signatures, new-tail loci, graph templates
with frozen radii, field towers, conductor certificates, and quotient
compatibility."""

import copy
import json
import pickle
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest

from padic_sr.analyzer import (
    CoverSpec,
    _certify_p2_step,
    _field_tower,
    _graph,
    _pieces,
    _report_shape,
    _shape_facts,
    _stable_case,
    _tails,
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
from padic_sr.ramification import (
    ConductorValue,
    Filtration,
    herbrand_phi,
    kummer_step_conductor,
)
from padic_sr.series import CubicCentre
from padic_sr.tower import Tower, vp_int, vp_rational
import case_oracle
from p2_oracle import p2_center, tower_locus
from grid_digest import grid
from test_golden import _identity_grid
from tower_helpers import (
    _k1,
    cubic_tower_disk,
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


def test_signature_reads_each_valuation_once():
    """branch_signature takes its second swap and s from the valuations it
    computed before any swap: on every admissible input with p in
    {2, 3, 5, 7}, n <= 5, |a| <= 12 and |b| <= 30, the second swap is taken
    exactly when v_p(a + b) > 0 after the first swap, and s = n - v_p(b)
    of the returned b."""
    admissible = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 6):
            for a in range(-12, 13):
                for b in range(-30, 31):
                    try:
                        spec = branch_signature(p, n, a, b)
                    except (Disconnected, NotThreePoint):
                        continue
                    admissible += 1
                    x, y = (b, a) if a % p == 0 else (a, b)
                    second = vp_int(x + y, p) > 0
                    assert ("x -> x/(x-1)" in spec.swaps) == second
                    if second:
                        y = -(x + y)
                    assert (spec.a, spec.b) == (x, y)
                    assert spec.s == n - vp_int(y, p)
    assert admissible == 21236


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_non_prime_p_refused(p):
    """A non-prime p is refused before any p-adic valuation is taken (p = 1
    used to loop forever in v_p, p = 0 to divide by zero), and by the
    cover rule before it tests v_p(b) = n - s, once a + b != 0 and b != 0
    hold; a + b = 0 and b = 0, at any s, fail the rule first."""
    with pytest.raises(ValueError, match=rf"^p = {p} is not prime$"):
        branch_signature(p, 2, 1, 1)
    with pytest.raises(ValueError, match=rf"^p = {p} is not prime$"):
        analyze(p, 1, 1, 1)
    with pytest.raises(ValueError, match=rf"^p = {p} is not prime$"):
        CoverSpec(p, 2, 1, 3, 1)
    for a, b, s in ((1, -1, 1), (1, 0, 1), (1, 0, 2)):
        with pytest.raises(CertificationFailed):
            CoverSpec(p, 2, a, b, s)


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
    assert loc.v_e == Fraction(2 * 2 - 1 + Fraction(1, 4), 2)
    assert loc.d == Fraction(3, 13)
    # the closed form is v(pi^((2n-s)(p-1)+1)) in Q_5(pi), pi^8 = 5
    t = Tower(5).adjoin_radical(8, 5, "pi")
    assert t.val(t.gen(0) ** ((2 * 2 - 1) * 4 + 1)) == loc.v_e


def test_locus_p3_s1_case():
    """The case (iii) centre is (a + t)/(a+b), t^3 = 3^(2n+1) C(b,3), as an
    integer triple; in the tower oracle Q_3(pi)(t) its radius element has
    valuation v_e and the cube-root correction (3n-1)/3."""
    spec = branch_signature(3, 2, 1, 3)
    loc = new_tail_locus(spec)
    assert isinstance(loc.d, CubicCentre)
    assert loc.d == CubicCentre((1, 1, 0), 4, 3 ** 5)
    assert loc.v_e == Fraction(7, 4)
    d, e = cubic_tower_disk(loc)
    assert d.tower.val(e) == loc.v_e
    assert d.tower.val(d - Fraction(1, 4)) == Fraction(3 * 2 - 1, 3)


def test_locus_p2_case():
    """The case (v) locus is a/(a+b), and R^2 = 2^n b i/(a+b)^4 with no
    tower; the centre the tower oracle builds from it has the listed
    valuations."""
    spec = branch_signature(2, 3, 1, 6)
    loc = new_tail_locus(spec)
    assert loc.d == Fraction(1, 7)
    assert loc.v_e == Fraction(2 * 3 - 2 + 1, 2)
    d, e = tower_locus(spec)
    t = d.tower
    assert t.val(e) == loc.v_e
    assert t.val(d - 1) == spec.n - spec.s
    # sqrt(2^n b i) bookkeeping: v(d - a/(a+b)) = (2n - s)/2
    assert t.val(d - loc.d) == Fraction(2 * 3 - 2, 2)
    assert (d - loc.d) ** 2 == t.gen(0) * Fraction(2 ** 3 * 6, 7 ** 4)


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
    # d' at n - s + 2/3
    assert t[1].radius_valuation == 1 + Fraction(2, 3)
    t = inseparable_tails(branch_signature(2, 3, 1, 6))  # s = 2
    kinds = [(x.j, x.tail_kind) for x in t]
    assert (2, "primitive") in kinds and (1, "new") in kinds
    # d_1 at (2n - s - j + 1)/2
    assert t[1].radius_valuation == 2


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
        assert dict(ft.meta)["case"] == case
        assert [s.kind for s in ft.steps] == kinds


def test_conductor_bound_vanishes_everywhere():
    for p, n, a, b in [(5, 2, 1, 1), (5, 2, 3, 10), (3, 2, 1, 3),
                       (3, 3, 1, 3), (2, 3, 1, 6), (2, 3, 1, 12)]:
        cb = conductor_bound(branch_signature(p, n, a, b))
        assert cb["vanishes_at_n"] is True
        assert cb["conductor"].value < n


def test_conductor_bound_case_iii_radicand_valuation():
    cb = conductor_bound(branch_signature(3, 3, 1, 9))
    assert any("valuation 8 verified" in line for line in cb["detail"])


def _spec(p, n, a, b, s):
    """A stand-in for a spec that no rule checks: it reaches checks that no
    CoverSpec can fail."""
    return SimpleNamespace(p=p, n=n, a=a, b=b, s=s)


def _doctored(args, **fields):
    """The spec of the cover `args` with some of a, b, n and s replaced; a
    CoverSpec is a cover, so a spec that breaks the cover rule raises
    CertificationFailed here."""
    return replace(branch_signature(*args), **fields)


def _stand_in(args, **fields):
    """_doctored as a _spec stand-in, which no rule checks."""
    spec = branch_signature(*args)
    return _spec(**{"p": spec.p, "n": spec.n, "a": spec.a, "b": spec.b,
                    "s": spec.s, **fields})


def test_conductor_certification_failure_detected():
    """A case (iii) spec whose quoted valuation facts are false is no cover,
    and building it is refused: v_3(5) != n - s."""
    assert _stable_case(3, 3, branch_signature(3, 3, 1, 9).s) == "iii"
    with pytest.raises(CertificationFailed,
                       match=r"^v_p\(b\) = n - s fails$"):
        _doctored((3, 3, 1, 9), b=5)


#: the refusals of the cover rule (series._check_cover), one per fact, in
#: the order in which it checks them
COVER_FACTS = ("a + b = 0: the centre a/(a+b) is undefined",
               "v_p(b) = n - s fails", "v_p(a+b) = 0 fails",
               "v_p(a) = 0 fails")


def _is_normal_form(spec):
    """Is spec the normal form that branch_signature makes of its own
    (p, n, a, b): the same a, b and s, and no swap?  The cover rule read
    off the branch signature, independently of series._check_cover."""
    try:
        made = branch_signature(spec.p, spec.n, spec.a, spec.b)
    except ArtifactError:
        return False
    return (made.a, made.b, made.s, made.swaps) == (spec.a, spec.b, spec.s,
                                                    ())


def _refused_by_the_cover_rule(outcome):
    """Is outcome, as _outcome gives it, a refusal of one cover fact?"""
    return (isinstance(outcome, tuple) and len(outcome) == 2
            and outcome[0] == "CertificationFailed"
            and outcome[1] in COVER_FACTS)


@pytest.mark.parametrize("args,a", [((5, 2, 3, 10), 25), ((3, 3, 1, 9), 27)])
def test_conductor_bound_checks_the_unit_centre(args, a):
    """A spec of case (ii) or (iii) whose centre a/(a+b) is no unit, 25/35
    or 27/36, breaks the cover rule at v_p(a+b) = 0, and building it is
    refused naming that fact: conductor_bound derives v(a/(a+b)) = 0 from
    the rule (a = 5 and a = 3 give the units 1/3 and 1/4)."""
    with pytest.raises(CertificationFailed,
                       match=r"^v_p\(a\+b\) = 0 fails$"):
        _doctored(args, a=a)


@pytest.mark.parametrize("meta,deleted", [
    ({"b": 9}, "v_3"),  # radicand valuation 6, expected 5
    ({"a": 3}, r"v\(d''-1\) = n-s\+2/3 fails"),
])
def test_conductor_certification_failure_detected_case_iv(meta, deleted):
    """Each doctored case (iv) spec reached a check that the cover rule now
    derives (the radicand's v_3 and v(d''-1), named by `deleted`); building
    it is refused by the fact of the rule it breaks: v_3(9) = 2 != n - s,
    and v_3(3 + 3) = 1."""
    assert _stable_case(3, 3, branch_signature(3, 3, 1, 3).s) == "iv"
    fact = COVER_FACTS[1] if "b" in meta else COVER_FACTS[2]
    with pytest.raises(CertificationFailed, match=rf"^{re.escape(fact)}$"):
        _doctored((3, 3, 1, 3), **meta)


def test_conductor_certification_failure_detected_case_v():
    """b = 12 over n - s = 1 fails the square class of 2^(n-0) b i, which
    the cover rule now derives: building the spec breaks v_2(b) = n - s."""
    with pytest.raises(CertificationFailed,
                       match=r"^v_p\(b\) = n - s fails$"):
        _doctored((2, 3, 1, 6), b=12)


#: (p, n, a, b, s) of doctored specs that break a cover fact and none
#: checked before it, each fact and b = 0 and a = 0 among them.
#: conductor_bound certified the last three before the cover rule:
#: v_5(b) = 0 != 2; v_3(b) = 0 != 2, yet the radicand 3^7 C(10, 3) has the
#: v_3 the cube root needs; v_5(a) = 1
BROKEN_FACTS = [
    ((5, 2, 3, -3, 1), COVER_FACTS[0]),
    ((5, 2, 3, 0, 1), COVER_FACTS[1]),
    ((5, 2, 3, 50, 1), COVER_FACTS[1]),
    ((5, 2, 5, 10, 1), COVER_FACTS[2]),
    ((5, 2, 0, 3, 2), COVER_FACTS[3]),
    ((3, 2, 3, 1, 2), COVER_FACTS[3]),
    ((5, 3, 1, 1, 1), COVER_FACTS[1]),
    ((3, 3, 1, 10, 1), COVER_FACTS[1]),
    ((5, 2, 5, 1, 2), COVER_FACTS[3]),
]


@pytest.mark.parametrize("spec,fact", BROKEN_FACTS)
@pytest.mark.parametrize("stage", [new_tail_locus, certify_tail,
                                   conductor_bound])
def test_cover_rule_names_each_broken_fact(stage, spec, fact):
    """Each fact of the cover rule is checked, in order, when a CoverSpec
    is built, with CertificationFailed naming it: a + b != 0,
    v_p(b) = n - s (b = 0 fails it), v_p(a+b) = 0 and v_p(a) = 0 (a = 0
    fails it), so leaving out any one check fails this test.  No per-cover
    stage checks the rule again, so each refuses the same fields in any
    object but a CoverSpec with TypeError, and certifies none of them."""
    assert not _is_normal_form(_spec(*spec))
    with pytest.raises(CertificationFailed, match=rf"^{re.escape(fact)}$"):
        CoverSpec(*spec)
    with pytest.raises(TypeError,
                       match=r" takes a CoverSpec, not SimpleNamespace$"):
        stage(_spec(*spec))


def test_only_a_cover_certifies():
    """Over an unfiltered grid of hand-built specs (p in {2, 3, 5}, n <= 3,
    1 <= s <= n, |a| <= 6, |b| <= 12), a CoverSpec builds exactly when it
    is its cover's normal form (_is_normal_form), and building any other
    refuses it with CertificationFailed naming a fact of the cover rule or
    the shape.  conductor_bound and certify_tail each return on every spec
    that builds."""
    built, refused, returned = 0, 0, 0
    for p in (2, 3, 5):
        for n in range(1, 4):
            for s in range(1, n + 1):
                for a in range(-6, 7):
                    for b in range(-12, 13):
                        spec = _outcome(CoverSpec, p, n, a, b, s)
                        if not _is_normal_form(_spec(p, n, a, b, s)):
                            assert spec[0] == "CertificationFailed" and (
                                spec[1] in COVER_FACTS or spec[1] ==
                                f"no cover of p = 2, n = {n} has s = {n}"), \
                                (p, n, a, b, s, spec)
                            refused += 1
                            continue
                        assert isinstance(spec, CoverSpec), spec
                        for stage in (conductor_bound, certify_tail):
                            try:
                                stage(spec)
                            except ArtifactError:
                                continue
                            returned += 1
                        built += 1
    assert (built, refused, returned) == (930, 4920, 1860), \
        (built, refused, returned)


#: a field of the cover (5, 2, 1, 5), a value of it that is a bool or no
#: integer, and the type the TypeError names
NON_INTEGER_FIELDS = [
    ("p", 5.0, "float"), ("n", 2.0, "float"), ("b", 5.0, "float"),
    ("a", True, "bool"), ("s", 1.0, "float"), ("n", True, "bool"),
    ("b", Fraction(5), "Fraction"), ("a", "1", "str"), ("p", None, "NoneType"),
]


@pytest.mark.parametrize("field,value,kind", NON_INTEGER_FIELDS)
def test_cover_spec_refuses_non_integer_fields(field, value, kind):
    """Building a CoverSpec, directly or by dataclasses.replace, refuses a
    bool or a non-integer p, n, a, b or s with TypeError naming the field,
    as branch_signature refuses its arguments.  A float p or n used to
    build, and fail later inside Fraction; a float b raised
    AttributeError; a = True built and certified."""
    cover = branch_signature(5, 2, 1, 5)
    fields = {"p": 5, "n": 2, "a": 1, "b": 5, "s": 1}
    assert CoverSpec(**fields) == cover
    msg = rf"^{field} must be an integer, not {kind}$"
    with pytest.raises(TypeError, match=msg):
        CoverSpec(**{**fields, field: value})
    with pytest.raises(TypeError, match=msg):
        replace(cover, **{field: value})


def test_cover_spec_reads_integer_fields_as_plain_ints():
    """An int subclass in a field is read as its value, as branch_signature
    reads its arguments: the spec holds plain ints and equals the plain
    spec."""
    spec = CoverSpec(_Int(5), _Int(2), _Int(3), _Int(10), _Int(1))
    assert spec == CoverSpec(5, 2, 3, 10, 1)
    assert all(type(x) is int for x in (spec.p, spec.n, spec.a, spec.b,
                                        spec.s, *spec.indices,
                                        *spec.original))
    assert type(replace(spec, a=_Int(8)).a) is int


def test_cover_spec_stays_a_frozen_dataclass():
    """CoverSpec's own __init__ keeps the dataclass's contract: positional
    and keyword construction with the default of swaps, equality and hash
    over all eight fields, repr, pickling and copying, FrozenInstanceError
    on setting or deleting a field, and dataclasses.replace building
    through the checks, which derives indices and original anew and
    refuses to be given either.  Every refusal of the shape and the cover
    rule is raised by keyword construction and by replace alike."""
    spec = branch_signature(5, 2, 3, 10)
    same = CoverSpec(p=5, n=2, a=3, b=10, s=1)
    assert same == spec and hash(same) == hash(spec) and same is not spec
    assert repr(spec) == ("CoverSpec(p=5, n=2, a=3, b=10, s=1, "
                          "indices=(25, 5, 25), swaps=(), original=(3, 10))")
    assert [f.name for f in fields(CoverSpec)] == [
        "p", "n", "a", "b", "s", "indices", "swaps", "original"]
    assert vars(spec) == {"p": 5, "n": 2, "a": 3, "b": 10, "s": 1,
                          "indices": (25, 5, 25), "swaps": (),
                          "original": (3, 10)}
    assert CoverSpec(5, 2, 3, 10, 1, ()) == replace(spec) == spec
    for other in (replace(spec, a=8), replace(spec, swaps=("x -> 1 - x",))):
        assert other != spec
    assert replace(spec, a=8).a == 8 and spec.a == 3
    assert replace(spec, a=8).original == (8, 10)
    assert replace(spec, swaps=("x -> 1 - x",)).indices == (5, 25, 25)
    for derived in ("indices", "original"):
        with pytest.raises(ValueError, match=derived):
            replace(spec, **{derived: getattr(spec, derived)})
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert copy.deepcopy(spec) == spec == copy.copy(spec)
    assert {spec: 1}[same] == 1
    with pytest.raises(FrozenInstanceError):
        spec.a = 8
    with pytest.raises(FrozenInstanceError):
        del spec.b
    assert spec.a == 3 and spec.b == 10
    names = ("p", "n", "a", "b", "s")
    for fields_, fact in BROKEN_FACTS:
        with pytest.raises(CertificationFailed,
                           match=rf"^{re.escape(fact)}$"):
            CoverSpec(**dict(zip(names, fields_)))
        with pytest.raises(CertificationFailed,
                           match=rf"^{re.escape(fact)}$"):
            replace(branch_signature(5, 2, 3, 10),
                    **dict(zip(names, fields_)))
    for s in (0, 3):
        with pytest.raises(CertificationFailed,
                           match=rf"^no cover of p = 5, n = 2 has s = {s}$"):
            replace(spec, s=s)
    with pytest.raises(ValueError, match=r"^p = 4 is not prime$"):
        replace(spec, p=4)


def test_cover_spec_derives_indices_and_original():
    """indices and original are facts of the cover and its swap: on every
    input of the 8408-input grid that is a cover, the spec branch_signature
    makes has indices p^(n - v) for v the v_p, capped at n, of the a, b
    and a + b given, and original the (a, b) given, and CoverSpec builds
    the same spec from (p, n, a, b, s, swaps) alone.  Each of the three
    swaps occurs."""
    swaps = Counter()
    for args in grid():
        try:
            spec = branch_signature(*args)
        except ArtifactError:
            continue
        p, n, a, b = args
        vs = (min(vp_int(x, p), n) if x else n for x in (a, b, a + b))
        assert spec.indices == tuple(p ** (n - v) for v in vs), args
        assert spec.original == (a, b), args
        assert CoverSpec(spec.p, spec.n, spec.a, spec.b, spec.s,
                         spec.swaps) == spec, args
        swaps[spec.swaps] += 1
    assert set(swaps) == {(), ("x -> 1 - x",), ("x -> x/(x-1)",)}, swaps


def test_cover_spec_prints_its_own_indices():
    """A hand-built spec of the cover (5, 2, 1, 5) used to print
    "indices": [], as it was given (); it prints the cover's."""
    assert CoverSpec(5, 2, 1, 5, 1, ()).to_json() == \
        branch_signature(5, 2, 1, 5).to_json()
    assert CoverSpec(5, 2, 1, 5, 1).to_json()["indices"] == [25, 5, 25]


@pytest.mark.parametrize("given", [{"indices": [25, 5, 25]},
                                   {"original": None}])
def test_cover_spec_takes_no_derived_field(given):
    """indices=[25, 5, 25] used to build a spec that hash refused, and
    original=None one whose to_json raised TypeError: CoverSpec takes
    neither, so both raise TypeError when built."""
    (name, value), = given.items()
    with pytest.raises(TypeError, match=name):
        CoverSpec(5, 2, 1, 5, 1, **given)


@pytest.mark.parametrize("swaps", [["x -> 1 - x"], "x -> 1 - x", None,
                                   ("x -> 1/x",),
                                   ("x -> 1 - x", "x -> x/(x-1)")])
def test_cover_spec_refuses_swaps_no_normal_form_makes(swaps):
    """branch_signature makes at most one swap, so swaps is (),
    ("x -> 1 - x",) or ("x -> x/(x-1)",): anything else, a list of one of
    them included, raises TypeError, and each of the three builds a spec
    that hashes and prints."""
    with pytest.raises(TypeError, match="^swaps must be "):
        CoverSpec(5, 2, 1, 5, 1, swaps)
    for ok in ((), ("x -> 1 - x",), ("x -> x/(x-1)",)):
        spec = CoverSpec(5, 2, 1, 5, 1, ok)
        assert {spec: 1}[spec] == 1
        assert json.loads(json.dumps(spec.to_json()))["swaps"] == list(ok)


#: (cover, fields replaced in its spec, n): shapes (p, n, s) that no cover
#: has, with s outside 1 <= s <= n or s = n for p = 2
NO_COVER_SHAPES = [
    # the checks of cases (iii)/(iv) pass, and 5/2 < 1 was certified
    ((3, 3, 1, 3), {"a": 1, "b": 3, "n": 1, "s": 0}, 1),
    ((3, 3, 1, 3), {"a": 1, "b": 9, "n": 2, "s": 0}, 2),
    ((3, 3, 1, 3), {"a": 1, "b": 3, "n": 3, "s": -1}, 3),
    ((5, 2, 1, 1), {"a": 1, "b": 1, "n": 2, "s": 3}, 2),
    ((2, 3, 1, 6), {"a": 1, "b": 1, "n": 3, "s": 3}, 3),
]


def _no_cover_message(args, meta, n):
    return rf"^no cover of p = {args[0]}, n = {n} has s = {meta['s']}$"


@pytest.mark.parametrize("args,meta,n", NO_COVER_SHAPES)
def test_conductor_bound_refuses_an_s_no_cover_has(args, meta, n):
    """A spec with s outside 1 <= s <= n, or s = n for p = 2, is refused
    when it is built, by the shape rule _stable_case, which refuses the
    bare shape with the same message: only such an s lets case (iii) or
    (iv) fall on n <= 2, where the conductors 3/2 and 5/2 of the cube
    roots that conductor_bound quotes are not below n."""
    message = _no_cover_message(args, meta, n)
    with pytest.raises(CertificationFailed, match=message):
        _doctored(args, **meta)
    with pytest.raises(CertificationFailed, match=message):
        _stable_case(args[0], n, meta["s"])


@pytest.mark.parametrize("args,meta,n", NO_COVER_SHAPES)
@pytest.mark.parametrize("stage", [new_tail_locus, certify_tail,
                                   build_stable_graph, inseparable_tails,
                                   stab_field_tower, conductor_bound])
def test_every_spec_stage_refuses_an_s_no_cover_has(stage, args, meta, n):
    """No stage that takes a spec accepts a shape no cover has.  Building
    the CoverSpec refuses it (_stable_case).  The per-cover stages refuse a
    stand-in with its fields by type, TypeError, and the shape stages,
    which read (p, n, s) alone, refuse it by the same rule, as their case
    record asks _stable_case for the case first.  Before the rule,
    build_stable_graph of s = 0 or s > n returned a graph, and a p = 2
    spec with s = n raised UnsupportedCase."""
    message = _no_cover_message(args, meta, n)
    with pytest.raises(CertificationFailed, match=message):
        _doctored(args, **meta)
    if stage in (new_tail_locus, certify_tail, conductor_bound):
        error, message = TypeError, r" takes a CoverSpec, not SimpleNamespace$"
    else:
        error = CertificationFailed
    with pytest.raises(error, match=message):
        stage(_stand_in(args, **meta))


#: one cover per case (i)-(v)
ONE_COVER_PER_CASE =[(5, 2, 1, 1), (5, 2, 3, 10), (3, 3, 1, 9),
                      (3, 3, 1, 3), (2, 3, 1, 6)]

ZERO_CENTRE = r"^a \+ b = 0: the centre a/\(a\+b\) is undefined$"


def _zero_a_plus_b(args, key):
    """The spec of the cover `args` with a or b replaced so that a + b = 0."""
    spec = branch_signature(*args)
    return replace(spec, **{key: -(spec.b if key == "a" else spec.a)})


@pytest.mark.parametrize("args", ONE_COVER_PER_CASE)
@pytest.mark.parametrize("key", ["a", "b"])
def test_conductor_bound_refuses_a_zero_a_plus_b(args, key):
    """A spec with a + b = 0, which no cover has, is refused with
    CertificationFailed when it is built, in every case, so no stage sees
    it: without the check conductor_bound and new_tail_locus of cases
    (ii)-(v) could raise ZeroDivisionError from Fraction(a, a + b),
    certify_tail of (5, 2, 1, -1, s = 2) raised ZeroDivisionError, and of
    the case (iii) spec (3, 3, 1, -1, s = 1) ZeroElement."""
    with pytest.raises(CertificationFailed, match=ZERO_CENTRE):
        _zero_a_plus_b(args, key)


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
    spec = branch_signature(*args)
    assert _stable_case(spec.p, spec.n, spec.s) == case
    cb = conductor_bound(spec)
    assert cb["vanishes_at_n"] is True
    assert (cb["conductor"].kind, cb["conductor"].value) == (kind, value)
    assert cb["detail"] == detail


# -- quotient compatibility --------------------------------------------------

def _lowered(label, j):
    """A centre label of Y as the quotient Y/Q_j names it: d_(j+k) is its
    d_k, and d_j its d; every other label is kept."""
    if not label.startswith("d_"):
        return label
    k = int(label[2:]) - j
    return f"d_{k}" if k else "d"


def _assert_quotient_embeds(spec, j):
    """Relation R1 between Y and Y/Q_j, as multisets of (inertia, radius,
    centre label): the components of Y of inertia > j, with the inertia
    lowered by j and each label as the quotient names it, are the
    components of Y/Q_j of inertia > 0."""
    q = quotient_spec(spec, j)
    assert (q.n, q.s) == (spec.n - j, spec.s - j)
    lowered = Counter(
        (c.inertia_exponent - j, c.radius_valuation,
         _lowered(c.disk_center, j))
        for c in build_stable_graph(spec).components if c.inertia_exponent > j)
    quotient = Counter(
        (c.inertia_exponent, c.radius_valuation, c.disk_center)
        for c in build_stable_graph(q).components if c.inertia_exponent > 0)
    assert lowered == quotient, (spec, j)


@pytest.mark.parametrize("p,n,a,b,j", [(5, 3, 2, 5, 1), (7, 3, 1, 7, 1),
                                       (3, 3, 1, 3, 1), (2, 3, 1, 6, 1),
                                       (5, 3, 4, 15, 1)])
def test_quotient_compatibility(p, n, a, b, j):
    spec = branch_signature(p, n, a, b)
    if not (0 < j < spec.s):
        pytest.skip("quotient requires 0 < j < s")
    _assert_quotient_embeds(spec, j)


def test_quotient_relation_r1_on_every_shape():
    """R1 holds on one cover per shape (p, n, s), p in {2, 3, 5, 7} and
    2 <= n <= 7, at every 0 < j < s: 78 pairs with j = 1 and 125 with
    j > 1.  The cover is (p, n, 1, p^(n-s)), or (2, n, 1, 3 * 2^(n-s))."""
    pairs = Counter()
    for p in (2, 3, 5, 7):
        for n in range(2, 8):
            for s in range(2, n if p == 2 else n + 1):
                spec = branch_signature(p, n, 1,
                                        p ** (n - s) * (3 if p == 2 else 1))
                assert spec.s == s, spec
                for j in range(1, s):
                    _assert_quotient_embeds(spec, j)
                    pairs[j == 1] += 1
    assert (pairs[True], pairs[False]) == (78, 125), pairs


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


def _break_local(graph):
    """The local vanishing residuals of graph, the first set to 1."""
    local = check_local_vanishing(graph)
    local[next(iter(local))] = Fraction(1)
    return local


#: the analyzer's name of the graph check behind each field of the report
CHECK_OF_FIELD = {"graph_violations": "validate_structure",
                  "vanishing_cycles_residual": "check_vanishing_cycles",
                  "local_vanishing_residuals": "check_local_vanishing"}


@pytest.mark.parametrize("args", ONE_COVER_PER_CASE)
@pytest.mark.parametrize("doctored,field,shown", [
    (lambda graph: [("doctored", "a violation")],
     "graph_violations", [("doctored", "a violation")]),
    (lambda graph: Fraction(1), "vanishing_cycles_residual", "1"),
    (_break_local, "local_vanishing_residuals", "1"),
])
def test_each_graph_check_reaches_certified(monkeypatch, args, doctored,
                                            field, shown):
    """A structure violation, a nonzero vanishing-cycles residual or a
    nonzero local residual makes the report uncertified, each on its own:
    with one graph check doctored in the analyzer, and the shape cache
    cleared before and after, analyze reports the doctored value and
    certified: false, where the cover certifies with the real checks."""
    import padic_sr.analyzer as analyzer
    assert analyze(*args)["certified"] is True
    first = next(iter(check_local_vanishing(
        build_stable_graph(branch_signature(*args)))))
    monkeypatch.setattr(analyzer, CHECK_OF_FIELD[field], doctored)
    _report_shape.cache_clear()
    try:
        report = analyze(*args)
    finally:
        _report_shape.cache_clear()
    assert report["certified"] is False
    value = report[field]
    if field == "local_vanishing_residuals":
        value = value[first]
    assert value == shown


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
    ((3, 2, 1, 3), []),  # (iii): the centre is an integer triple
    ((3, 3, 2, 3), []),  # (iv): the cube root is certified from v_3
    ((5, 2, 3, 10), []),  # (ii)
    ((5, 1, 1, 1), []),  # (i)
])
def test_second_analyze_builds_only_per_cover_steps(monkeypatch, args,
                                                     calls):
    """A second analyze of a cover adjoins only the steps that depend on the
    cover, and no cover has one left: the case (iii) centre is a triple of
    Z[t]/(t^3 - r), the rational centre of cases (i), (ii) and (iv) is a
    Fraction, and the cube roots of cases (iii) and (iv) are certified in
    closed form, so nothing is adjoined."""
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
    field; returns the detail lines.  A spec with a + b = 0 is refused
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


def _case_v_lines(spec):
    """The d_j lines of conductor_bound's detail for a case (v) spec."""
    return [line for line in conductor_bound(spec)["detail"]
            if line.startswith("d_")]


@cache
def _case_v_spec(n, s):
    """The spec of the real case (v) cover (2, n, 1, 3 * 2^(n-s))."""
    return branch_signature(2, n, 1, 2 ** (n - s) * 3)


@pytest.mark.parametrize("seed", [1, 2])
def test_case_v_conductor_bound_matches_the_tower_path(seed):
    """On real covers, among specs with a and b doctored, conductor_bound
    certifies, or refuses with the same error and message, exactly where
    the old path through built d_j does; building every other doctored
    spec is refused by the cover rule.  Seed 1 adds the grid 2 <= n <= 6, every
    s < n, a in {1, 3, -5, 7} and b' in every class mod 8, where
    b' = +-1 mod 8 (b' != +-1) is refused at the w step on both paths.  The
    doctored specs include ties v(R_j) = v(a/(a+b) - 1) and a + b = 0,
    neither of which a cover has."""
    rng = random.Random(seed)
    draws = [(3, 2, -64, -62), (3, 2, -64, -58), (4, 3, 6, -6)]  # ties, 0
    for n in range(2, 6):
        for s in range(1, n):
            for _ in range(3):
                draws.append((n, s, rng.choice((1, 3, 5, 7, 9)),
                              2 ** (n - s) * rng.choice((3, -3, 5, -5, 7))))
            for _ in range(12):
                draws.append((n, s, rng.randint(-64, 64),
                              rng.choice((-1, 1)) * rng.randint(1, 32) * 2))
    if seed == 1:
        draws += [(n, s, a, 2 ** (n - s) * b_odd)
                  for n in range(2, 7) for s in range(1, n)
                  for a in (1, 3, -5, 7)
                  for b_odd in (3, -3, 5, -5, 7, -7, 9, 1)]
    kinds, refused = set(), 0
    for n, s, a, b in draws:
        spec = _outcome(lambda: replace(_case_v_spec(n, s), a=a, b=b, s=s))
        if not _is_normal_form(_spec(2, n, a, b, s)):
            assert _refused_by_the_cover_rule(spec), (n, s, a, b)
            refused += 1
            continue
        new = _outcome(_case_v_lines, spec)
        old = _outcome(_old_case_v, n, s, a, b)
        assert new == old, (n, s, a, b)
        kinds.add(old[0] if isinstance(old, tuple) else "certified")
    assert kinds == {"certified", "IrreducibilityUnverified"}, kinds
    assert refused >= 100, refused
    assert _outcome(_old_case_v, 4, 3, 6, -6) == (
        "CertificationFailed", "a + b = 0: the centre a/(a+b) is undefined")


def test_w_step_rule_matches_certify_radical():
    """The integer rule of _certify_p2_step against the certificate of
    adjoin_radical on a freshly built Q_2(i): for every odd |b'| <= 255,
    the only b' a CoverSpec has, and c in {0, 1}, the same outcome, or the
    same error type and message.  u = +-1 needs no step, as w = 1 or i is
    in Q_2(i)."""
    t = make_tower(2, [(2, -1)])
    i = t.gen(0)

    def by_field(b_odd, c):
        u = t.rational(b_odd) if c else b_odd * i
        if not ((u - 1).is_zero() or (u + 1).is_zero()):
            t.certify_radical(2, u)

    seen = set()
    for b_odd in range(-255, 256, 2):
        for c in (0, 1):
            want = _outcome(by_field, b_odd, c)
            assert _outcome(_certify_p2_step, b_odd, c) == want, (b_odd, c)
            seen.add(want)
    assert seen == {
        None,
        ("IrreducibilityUnverified", "radicand is a 2-th power in the "
         "2-adic completion; x^2 - r is reducible there")}, seen


def _count_field_work(monkeypatch):
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
    calls = _count_field_work(monkeypatch)
    for b_odd in range(1, 32, 2):
        for sign in (1, -1):
            _report_or_error((2, 4, 1, 2 * sign * b_odd))
    assert analyze(2, 4, 1, 6)["certified"] is True  # b' = 3
    assert analyze(2, 4, 1, 38)["certified"] is True  # b' = 19
    assert calls == []


def test_p2_identity_grid_builds_no_field(monkeypatch):
    """analyze over every p = 2 cover of the identity grid, with the
    shape cache cleared first, builds no Tower and makes no q-th
    power test: the refused covers included, every p = 2 fact is an
    integer rule.  analyze's own w step, the c = 1 call of
    conductor_bound, refuses all 124 before any tail certificate; called
    alone, new_tail_locus refuses the 64 with 2n - s odd."""
    _report_shape.cache_clear()
    calls = _count_field_work(monkeypatch)
    covers = [args for args in _identity_grid() if args[0] == 2]
    refused = [r[0] for r in map(_report_or_error, covers)
               if isinstance(r, tuple)]
    assert len(covers) == 1776
    assert refused.count("IrreducibilityUnverified") == 124
    at_locus = [_outcome(lambda args=args: new_tail_locus(
        branch_signature(*args))) for args in covers]
    assert sum(isinstance(r, tuple) and r[0] == "IrreducibilityUnverified"
               for r in at_locus) == 64
    assert calls == []


def test_p3_identity_grid_builds_no_tower(monkeypatch):
    """analyze over every p = 3 cover of the identity grid, with the shape
    cache cleared first, builds no Tower and adjoins nothing: the case
    (iii) centre is a triple of Z[t]/(t^3 - r), and the cube roots of
    cases (iii) and (iv) are certified from v_3 of their radicand."""
    _report_shape.cache_clear()
    calls = _count_field_work(monkeypatch)
    covers = [args for args in _identity_grid() if args[0] == 3]
    reports = [r for r in map(_report_or_error, covers)
               if isinstance(r, dict)]
    assert {r["tower"]["meta"]["case"] for r in reports} == {"i", "iii",
                                                             "iv"}
    assert all(r["certified"] for r in reports)
    assert calls == []


def _old_cube_case(n, s, a, b):
    """conductor_bound of a case (iii) or (iv) spec as it was, with the
    cube root over K_1 = Q_3(zeta_3): its conductor from
    kummer_step_conductor, v(cbrt rad) from certify_radical and phi_{L/K_0}
    from herbrand_phi.  Each fact is checked against the constant that
    conductor_bound now uses.  Returns (kind, value, detail)."""
    detail = [f"K_{n}/K_0 is cyclotomic: conductor exactly {n - 1} < {n}"]
    rad = Fraction(3 ** (2 * (n - s) + 3)) * Fraction(b * (b - 1) * (b - 2),
                                                      6)
    v = vp_rational(rad, 3)
    if v != 3 * (n - s) + 2:
        raise CertificationFailed(
            f"v_3(3^(2(n-s)+3) binom(b,3)) = {v}, expected {3 * (n - s) + 2}")
    k1 = _k1(3)
    cv = kummer_step_conductor(k1, rad, 3)
    assert cv == ConductorValue("exact", Fraction(3))  # the Eisenstein jump
    low = Filtration(((Fraction(0), 3), (cv.value, 1)), 6, "lower")
    h = herbrand_phi(low, cv.value)
    assert h == Fraction(3, 2)
    if s == 1:
        detail += [f"cube-root radicand valuation {v} verified",
                   f"conductor of K_1(cbrt)/K_0 is {ratstr(h)} "
                   f"({cv.kind}) < {n}"]
    else:
        vt = k1.certify_radical(3, rad) / 3
        assert vt == v / 3
        if vt - vp_int(a, 3) != Fraction(n - s) + Fraction(2, 3):
            raise CertificationFailed("v(d''-1) = n-s+2/3 fails")
        cap = Fraction(3 * 3 * k1.ram_index, 2)
        hl, h = h, max(h, herbrand_phi(low, cap))
        assert (cap, h) == (9, Fraction(5, 2))
        detail += ["v(d''-1) = n-s+2/3 verified",
                   f"conductor of L/K_0 is {ratstr(hl)} with L/K_1 "
                   f"conductor {ratstr(cv.value)} ({cv.kind})",
                   f"conductor of M/L is at most {ratstr(cap)}",
                   f"conductor of M/K_0 is at most {ratstr(h)} < {n}"]
    if vp_rational(Fraction(a, a + b), 3) != 0:
        raise CertificationFailed("v(a/(a+b)) = 0 fails")
    detail.append("v(a/(a+b)) = 0 verified; p^k-th root of a unit over "
                  "K_n has conductor < n")
    return "bound", max(Fraction(n - 1), h), detail


def _new_cube_case(spec):
    cb = conductor_bound(spec)
    assert cb["vanishes_at_n"] is True
    return cb["conductor"].kind, cb["conductor"].value, cb["detail"]


def test_cube_root_closed_forms_match_the_tower_path():
    """conductor_bound of cases (iii) and (iv), with its cube-root facts in
    closed form (jump 3 over K_1, v(cbrt rad) = v_3(rad)/3, conductors 3/2
    and 5/2), gives the kind, value and detail of the old path over K_1 on
    every case (iii) and (iv) cover with n <= 5, 1 <= a <= 4 and
    |b| <= 40.  Building specs with a and b doctored, 3 | a and radicands
    of the wrong valuation or zero among them, is refused by the cover
    rule: as b = 2 mod 3, none of them is a cover."""
    covers = 0
    for n in range(2, 6):
        for a in range(1, 5):
            for b in range(-40, 41):
                try:
                    spec = branch_signature(3, n, a, b)
                except ArtifactError:
                    continue
                if spec.s == n:
                    continue
                assert _new_cube_case(spec) == _old_cube_case(
                    n, spec.s, spec.a, spec.b), spec
                covers += 1
    assert covers == 780, covers
    refused = 0
    for n in range(2, 6):
        for s in range(1, n):
            spec0 = branch_signature(3, n, 1, 3 ** (n - s))
            for a in (1, 2, 3, -5, 6):
                for b in range(-40, 41, 3):
                    if a + b == 0:
                        continue
                    assert not _is_normal_form(_spec(3, n, a, b, s))
                    assert _refused_by_the_cover_rule(
                        _outcome(lambda: replace(spec0, a=a, b=b))), \
                        (n, s, a, b)
                    refused += 1
    assert refused == 1330, refused


@pytest.mark.parametrize("args", [(2, 4, 1, 6), (2, 6, 3, -6), (2, 3, 1, 6)])
def test_case_v_conductor_bound_takes_no_norm_and_builds_no_centre(
        monkeypatch, args):
    """On a cover never analyzed before, conductor_bound reads every case
    (v) fact in closed form: no Tower built, no Tower.norm call and no
    step adjoined."""
    spec = branch_signature(*args)
    calls = _count_field_work(monkeypatch)
    cb = conductor_bound(spec)
    assert cb["vanishes_at_n"] is True
    assert calls == []


#: covers of every case, among them the split-case IrreducibilityUnverified
#: defect (item 1 of the roadmap), and inputs refused whatever becomes of
#: it: (5, 1, 5, 1) has a branch point of trivial ramification index
#: (NotThreePoint), and in (5, 2, 5, 10) 5 divides a, b and a + b
#: (Disconnected)
MIXED_GRID = [(2, 3, 1, 6), (2, 4, 1, 56), (2, 4, 1, 6), (2, 5, 1, 6),
              (2, 5, 3, -10), (2, 4, 1, 14), (2, 4, 1, 2), (3, 2, 1, 3),
              (3, 3, 1, 9), (3, 3, 2, 3), (3, 4, 1, 9), (5, 2, 1, 5),
              (7, 1, 1, 1), (11, 3, 2, 11), (17, 2, 1, 17), (37, 1, 1, 1),
              (5, 1, 5, 1), (5, 2, 5, 10)]


def _report_or_error(args):
    try:
        return analyze(*args)
    except ArtifactError as exc:
        return type(exc).__name__, str(exc)


def test_shared_fields_carry_no_cover_state():
    """Analyzing a mixed grid forwards and then backwards, with the shape
    cache, the analyzer's per-process state, reused between covers, gives
    the reports (or errors) that each cover gives with it cleared.  The
    grid holds refused inputs of two kinds that no certificate decides, so
    a cover's error is checked for carried state too."""
    fresh = {}
    for args in MIXED_GRID:
        _report_shape.cache_clear()
        fresh[args] = _report_or_error(args)
    refused = Counter(r[0] for r in fresh.values() if isinstance(r, tuple))
    assert refused["NotThreePoint"] == refused["Disconnected"] == 1, refused
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
    caches, a certified cover takes every valuation, norm, power and
    inverse in closed form: no multiplication-matrix determinant and no
    linear solve, its own locus and centre included."""
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


#: the report fields of the graph half, in report order
GRAPH_FIELDS = ("graph", "graph_violations", "vanishing_cycles_residual",
                "local_vanishing_residuals", "effective_different",
                "inseparable_tails")


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


def _template_graph_fields(p, n, s):
    """The graph fields of the _report_shape template of (p, n, s), after
    checking that the template holds every field of the report but the
    spec, the cover's own, in report order, and that a and b of the
    tower's meta are empty slots."""
    doc = _report_shape(p, n, s)
    assert list(doc) == ["certificate", *GRAPH_FIELDS, "tower", "conductor",
                         "moduli_field_note", "certified"]
    assert [doc["tower"]["meta"][key] for key in "ab"] == [None, None]
    return {key: doc[key] for key in GRAPH_FIELDS}


def _cached_shape(spec):
    """The same fields as analyze reports them, or as the _report_shape
    template holds them when the cover fails."""
    try:
        report = analyze(spec.p, spec.n, spec.original[0], spec.original[1])
    except ArtifactError:
        return _template_graph_fields(spec.p, spec.n, spec.s)
    return {key: report[key] for key in GRAPH_FIELDS}


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


def _oracle_shapes():
    """Every shape (p, n, s) with p in {2, 3, 5, 7, 11}, n <= 12 for p = 2
    and n <= 8 otherwise, and every s the cover can have."""
    for p in (2, 3, 5, 7, 11):
        for n in range(2 if p == 2 else 1, (12 if p == 2 else 8) + 1):
            for s in range(1, n if p == 2 else n + 1):
                yield p, n, s


def test_case_record_matches_the_oracle():
    """On 210 shapes, past the n <= 4 (odd p) and n <= 5 (p = 2) of the
    identity grid, the graph, the inseparable tails and the field tower
    built from the shape's facts and pieces (_shape_facts, _pieces) equal
    those of the case split written out per builder (tests/case_oracle.py),
    directly, through the public stages and through _report_shape.  Each
    _report_shape template holds the graph fields of the uncached
    computation, every field of the report but the spec and an empty slot
    for a and b of the tower's meta, and its certified flag is the
    conjunct of the uncached checks."""
    shapes = list(_oracle_shapes())
    assert len(shapes) == 210
    for p, n, s in shapes:
        spec = branch_signature(p, n, 1, p ** (n - s))
        assert spec.s == s
        graph = case_oracle.build_stable_graph(spec).to_json()
        tails = [t.to_json() for t in case_oracle.inseparable_tails(spec)]
        tower = case_oracle.stab_field_tower(spec).to_json()
        facts = _shape_facts(p, n, s)
        pieces = _pieces(facts)
        assert _graph(facts, pieces).to_json() == graph
        assert [t.to_json() for t in _tails(pieces)] == tails
        assert _field_tower(facts, spec.a, spec.b).to_json() == tower
        assert build_stable_graph(spec).to_json() == graph
        assert [t.to_json() for t in inseparable_tails(spec)] == tails
        assert stab_field_tower(spec).to_json() == tower
        doc = _template_graph_fields(p, n, s)
        assert doc["graph"] == graph
        assert doc["inseparable_tails"] == tails
        assert doc == _fresh_shape(spec)
        fresh = build_stable_graph(spec)
        assert _report_shape(p, n, s)["certified"] is (
            not validate_structure(fresh) + tail_invariant_checks(fresh)
            and check_vanishing_cycles(fresh) == 0
            and all(v == 0 for v in check_local_vanishing(fresh).values()))


#: one cover of each case (i)-(v), then covers of n = 800 in cases (iii)
#: and (v), the second with s = 400
FACTS_ONLY_COVERS = [(5, 2, 1, 1), (5, 2, 1, 5), (3, 3, 1, 9), (3, 4, 1, 9),
                     (2, 4, 1, 6), (3, 800, 1, 3 ** 799),
                     (2, 800, 1, 3 * 2 ** 400)]


def test_stages_of_the_shape_facts_build_no_piece(monkeypatch):
    """certify_tail, new_tail_locus, conductor_bound and stab_field_tower
    read the shape's facts alone: with _pieces made to raise, each returns
    what it returns with _pieces intact, on a cover of each case and on
    covers of n = 800."""
    import padic_sr.analyzer as analyzer
    stages = (certify_tail, new_tail_locus, conductor_bound,
              stab_field_tower)
    specs = [branch_signature(*args) for args in FACTS_ONLY_COVERS]
    assert [spec.s for spec in specs[-2:]] == [1, 400]
    assert {_stable_case(spec.p, spec.n, spec.s) for spec in specs} == {
        "i", "ii", "iii", "iv", "v"}
    want = [[stage(spec) for stage in stages] for spec in specs]

    def no_pieces(facts):
        raise AssertionError(f"pieces built for {facts[:3]}")

    monkeypatch.setattr(analyzer, "_pieces", no_pieces)
    assert [[stage(spec) for stage in stages] for spec in specs] == want
    with pytest.raises(AssertionError, match="pieces built"):
        build_stable_graph(specs[0])


def test_a_report_miss_builds_the_facts_and_the_pieces_once(monkeypatch):
    """A _report_shape miss builds the shape's facts once and its pieces
    once, on a cover of each case; a second cover of the same shape, and
    the same cover again, build neither."""
    import padic_sr.analyzer as analyzer
    calls = []
    for name in ("_shape_facts", "_pieces"):
        def counted(*args, _name=name, _fn=getattr(analyzer, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(analyzer, name, counted)
    pairs = [((5, 2, 1, 1), (5, 2, 2, 1)), ((5, 2, 1, 5), (5, 2, 2, 5)),
             ((3, 3, 1, 9), (3, 3, 2, 9)), ((3, 4, 1, 9), (3, 4, 2, 9)),
             ((2, 4, 1, 6), (2, 4, 3, -10))]
    _report_shape.cache_clear()
    try:
        for first, second in pairs:
            del calls[:]
            analyze(*first)
            assert calls == ["_shape_facts", "_pieces"], first
            analyze(*second)
            analyze(*first)
            assert calls == ["_shape_facts", "_pieces"], second
    finally:
        _report_shape.cache_clear()


def _oracle_covers(p, n, s):
    """Covers of shape (p, n, s) with different (a, b), none swapped by
    branch_signature: for p = 2, b' = b/2^(n-s) in {1, -3, 7}, where
    b' = 7 is refused at a w step; for odd p, a = 1 and 2."""
    k = n - s
    if p == 2:
        return [(2, n, 1, 2 ** k), (2, n, 3, -3 * 2 ** k),
                (2, n, 1, 7 * 2 ** k)]
    return [(p, n, 1, p ** k), (p, n, 2, -p ** k)]


def _per_cover_report(p, n, a, b):
    """The fields analyze fills from the report template, computed per cover
    the uncached way: the tower, the conductor certificate and the moduli
    note, with the spec and the tail certificate."""
    spec = branch_signature(p, n, a, b)
    verdict = certify_tail(spec)
    cb = conductor_bound(spec)
    return {
        "spec": spec.to_json(),
        "certificate": verdict.to_json(),
        "tower": stab_field_tower(spec).to_json(),
        "conductor": {"vanishes_at_n": cb["vanishes_at_n"],
                      "conductor": cb["conductor"].to_json(),
                      "detail": cb["detail"]},
        "moduli_field_note": (f"the field of moduli relative to K_0 is "
                              f"K_{n} = K_0(zeta_{{{p}^{n}}})"),
    }


def test_report_template_matches_the_per_cover_path():
    """On the 210 oracle shapes, two or three covers each: the tower, the
    conductor certificate, the moduli note, the spec and the tail
    certificate that analyze reports from its _report_shape template equal
    stab_field_tower, conductor_bound and the other per-cover calls, or
    analyze raises the error and message that they raise (p = 2, b' = 7).
    Every cover after the first of a shape takes the shape's template from
    the cache."""
    refused = Counter()
    for p, n, s in _oracle_shapes():
        for args in _oracle_covers(p, n, s):
            assert branch_signature(*args).s == s
            want = _outcome(_per_cover_report, *args)
            got = _outcome(analyze, *args)
            if isinstance(want, tuple):
                assert got == want, args
                refused[want[0]] += 1
                continue
            assert {key: got[key] for key in want} == want, args
            assert list(got) == ["spec", "certificate", *GRAPH_FIELDS,
                                 "tower", "conductor", "moduli_field_note",
                                 "certified"]
            assert got["certified"] is True, args
    # b' = 7 is refused at the locus when s is odd, and at the conductor's
    # w step when s is even
    assert refused == {"IrreducibilityUnverified": 66}, refused


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


def _containers(doc):
    """Every dict and list reachable from doc, doc included."""
    out, stack = [], [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            out.append(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            out.append(item)
            stack.extend(item)
    return out


def test_no_two_reports_share_a_container():
    """On the 210 oracle shapes, two covers each: no dict or list is
    reached twice from the two reports and the shape's cached template
    together (by id), so each report holds its own copy of every container
    of the template, whatever keys its components carry.  The second
    report of each shape takes the template from the cache."""
    _report_shape.cache_clear()
    for p, n, s in _oracle_shapes():
        first, second = (analyze(*args)
                         for args in _oracle_covers(p, n, s)[:2])
        template = _report_shape(p, n, s)
        ids = [id(item) for doc in (first, second, template)
               for item in _containers(doc)]
        assert len(ids) == len(set(ids)), (p, n, s)
    assert _report_shape.cache_info().hits == 2 * 210


def test_shape_cache_is_bounded():
    """The cache holds at most a fixed number of shapes, and at least the
    50 shapes that odd_survey-like traffic cycles through."""
    maxsize = _report_shape.cache_info().maxsize
    assert maxsize is not None and maxsize >= 64
