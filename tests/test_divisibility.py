"""The tail verdict of every cover is its shape's (analyzer._shape_facts),
as the series module docstring proves; its oracles are the closed-form
certificates that read every valuation with v_p and check each fact per
cover (tests/rational_oracle.py), composed with new_tail_locus.  The case
(iii) certificate classify_torsor_reduction still tests each of its facts
by divisibility against powers of 3 (series._cubic_shape), with the same v_p
oracle.  Every input gives the same verdict, every field of it, or the
same exception class and message: the covers of the grid of
tests/grid_digest.py, doctored radii of the case (iii) disk (whose targets
may lie outside Z), forged case (iii) triples, and covers of n = 200 and
n = 800.  Inputs are drawn without filtering."""

import random
from fractions import Fraction

from padic_sr.analyzer import (
    _certify_p2_step,
    _shape_facts,
    analyze,
    branch_signature,
    certify_tail,
    new_tail_locus,
)
from padic_sr.errors import ArtifactError
from padic_sr.series import (
    classify_torsor_reduction,
    expand_disk,
)
import p2_oracle
import rational_oracle
from grid_digest import OUTCOMES, grid
from rational_oracle import (
    vp_classify_p2_torsor,
    vp_classify_rational_centre,
    vp_classify_torsor_reduction,
)


def _outcome(fn, *args):
    """fn(*args), or the class name and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are compared
        return type(exc).__name__, str(exc)


def _vp_certify_tail(spec):
    """new_tail_locus, its w step included, composed with the oracle's
    certificate of its centre: the per-cover checks of each fact."""
    locus = new_tail_locus(spec)
    if spec.p == 2:
        return vp_classify_p2_torsor(spec, locus.v_e)
    if isinstance(locus.d, Fraction):
        return vp_classify_rational_centre(spec, locus.d, locus.v_e)
    return vp_classify_torsor_reduction(expand_disk(spec, locus.d,
                                                    locus.v_e))


def _analyze_certificate(args):
    """The certificate analyze reports for args, or its error."""
    report = _outcome(analyze, *args)
    return report if isinstance(report, tuple) else report["certificate"]


def _grid_covers():
    """The spec of every input of the grid that is a cover."""
    for args in grid():
        try:
            yield branch_signature(*args)
        except ArtifactError:
            continue


def test_certificates_match_the_vp_oracle_on_the_grid():
    """certify_tail and the oracle's certify_tail agree on every cover of
    the grid, all 5996: 5926 certify, and 70 stop at the case (v) w step
    of new_tail_locus (IrreducibilityUnverified) on both sides."""
    kinds = {}
    for spec in _grid_covers():
        got = _outcome(certify_tail, spec)
        assert got == _outcome(_vp_certify_tail, spec), spec
        kind = got[0] if isinstance(got, tuple) else got.kind
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"SplitsArtinSchreier": 3996, "SplitsZ4": 1930,
                     "IrreducibilityUnverified": 70}, kinds


def test_tail_verdict_matches_the_expansion_oracles_on_the_grid():
    """On every cover of the grid, the shape's verdict that certify_tail
    returns is the verdict, or the error, of the old paths that expanded
    the disk: the recurrence to c_2p (c_3 at the cubic centre) and the
    general classifier for odd p (rational_oracle.certify_tail), and the
    expansion in Q_2(i)(w) and the mu_4 classifier for p = 2
    (p2_oracle.certify_tail), whose centre field refuses the 70 covers
    that new_tail_locus's w step refuses."""
    compared = 0
    for spec in _grid_covers():
        oracle = (p2_oracle.certify_tail if spec.p == 2
                  else rational_oracle.certify_tail)
        assert _outcome(certify_tail, spec) == _outcome(oracle, spec), spec
        compared += 1
    assert compared == 5996


def test_analyze_path_matches_the_public_stages_on_the_grid():
    """On every input of the grid, the certificate analyze reports is
    certify_tail's verdict and the oracle's: the shape's verdict on 5860
    covers.  analyze's one w step, the c = 1 call, refuses 136 covers with
    the error and message of conductor_bound's; new_tail_locus and
    certify_tail, with c = (2n - s) mod 2, refuse 70 of them alike and
    certify the other 66.  The other inputs are refused by
    branch_signature before either path.  The counts are the record's
    outcome table."""
    kinds, certified_past_c1 = {}, 0
    for args in grid():
        try:
            spec = branch_signature(*args)
        except ArtifactError as exc:
            kinds[type(exc).__name__] = kinds.get(type(exc).__name__, 0) + 1
            continue
        got = _analyze_certificate(args)
        tail = _outcome(certify_tail, spec)
        assert tail == _outcome(_vp_certify_tail, spec), spec
        if isinstance(got, tuple):
            assert got == _outcome(_certify_p2_step,
                                   spec.b // 2 ** (spec.n - spec.s), 1)
            certified_past_c1 += not isinstance(tail, tuple)
            kind = got[0]
        else:
            assert got == tail.to_json(), spec
            kind = got["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == OUTCOMES, kinds
    assert certified_past_c1 == 66


#: offsets of the doctored radii from the locus's v(e): multiples of 1/24
#: from -5/4 to 5/4, so that each target exponent lies in Z for some and
#: outside it for others, and each threshold is met from both sides
OFFSETS = [Fraction(k, 24) for k in range(-30, 31)]


def test_certificates_match_the_vp_oracle_on_doctored_radii():
    """On the first three covers of each case (iii) shape (p, n, s) of the
    grid, at every radius locus + OFFSETS, classify_torsor_reduction of
    expand_disk and its oracle agree, exception or verdict: a target
    outside Z fails its equality on both sides, and every failed fact is
    named alike.  The verdict and each clause that reads a valuation
    occur, but not the Y check or the tail check: past v(c_2) = tau the
    radius is the locus's, where no cover fails either (series module
    docstring, "Valuations without coefficients");
    tests/test_series.py::test_cubic_certificate_runs_the_tail_check_last
    makes the tail check fail."""
    per_shape, seen = {}, set()
    for spec in _grid_covers():
        shape = (spec.p, spec.n, spec.s)
        if not (spec.p == 3 and spec.s == 1 < spec.n) \
                or per_shape.get(shape, 0) == 3:
            continue
        per_shape[shape] = per_shape.get(shape, 0) + 1
        locus = new_tail_locus(spec)
        assert locus.v_e == _shape_facts(*shape).v_e
        for off in OFFSETS:
            v_e = locus.v_e + off
            disk = expand_disk(spec, locus.d, v_e)
            got = _outcome(classify_torsor_reduction, disk)
            assert got == _outcome(vp_classify_torsor_reduction, disk), \
                (spec, off)
            seen.add(got[0] if isinstance(got, tuple)
                     else got.reason or got.kind)
    assert len(per_shape) == 5, per_shape
    assert {"SplitsArtinSchreier", "v(c_1) <= n", "v(c_p) <= n",
            "min over i != 1, p is not n + 1/(p-1)"} == seen, seen


def _forged(rng, triple, n):
    """triple with each coordinate kept, or put to 0 or to a seeded unit
    times 3^k, k <= 2n + 2; never all 0, where the oracle has no least
    term."""
    def coordinate(c):
        if rng.random() < 0.4:
            return c
        unit = rng.choice((1, 2, 4, 5, -1, -7))
        return rng.choice((0, unit * 3 ** rng.randint(0, 2 * n + 2)))

    while True:
        out = tuple(map(coordinate, triple))
        if any(out):
            return out


def test_cubic_certificate_matches_the_vp_oracle_on_forged_triples():
    """classify_torsor_reduction tests every coordinate of each triple: on
    the case (iii) expansions of the grid, at the locus radius n - 1/4,
    +-1/12 off it and at n/2 - 1/2, with K_1, K_2 and K_3 forged
    (_forged), it gives what its oracle gives, which values each triple by
    its least term, verdict or error.  On an expansion that expand_disk
    makes, the Y check cannot fail past the clauses before it (series
    module docstring, "Valuations without coefficients"); forged, every
    clause can, and each is named.  K_2's t^2 coordinate can fall below
    tau only at a radius v(e) <= n/2 - 5/12, as n/2 - 1/2."""
    rng = random.Random(4103)
    covers = [spec for spec in _grid_covers()
              if spec.p == 3 and spec.s == 1 < spec.n]
    seen = set()
    for _ in range(4000):
        spec = rng.choice(covers)
        locus = new_tail_locus(spec)
        v_e = locus.v_e + rng.choice((0, 0, Fraction(-1, 12), Fraction(1, 12),
                                      -Fraction(2 * spec.n + 1, 4)))
        disk = expand_disk(spec, locus.d, v_e)
        forged = disk._replace(ks=tuple(_forged(rng, k, spec.n)
                                        for k in disk.ks))
        got = _outcome(classify_torsor_reduction, forged)
        assert got == _outcome(vp_classify_torsor_reduction, forged), forged
        seen.add(got[0] if isinstance(got, tuple) else got.reason or got.kind)
    assert {"SplitsArtinSchreier", "v(c_1) <= n", "v(c_p) <= n",
            "min over i != 1, p is not n + 1/(p-1)",
            "v(c_p - c_1^p / p^((p-1)n+1)) <= n + 1/(p-1)"} <= seen, seen


#: case (iii) and case (v) covers of n = 200 and 800, and a case (ii) one
LARGE_N = [(3, 200, 1, 3 ** 199), (3, 200, -7, 5 * 3 ** 199),
           (3, 800, 1, 3 ** 799), (3, 800, 2, -4 * 3 ** 799),
           (2, 200, 1, 3 * 2 ** 100), (2, 200, 3, 5 * 2 ** 199),
           (2, 800, 1, 3 * 2 ** 400), (2, 800, -5, 7 * 2 ** 600),
           (5, 800, 2, 3 * 5 ** 400)]


def test_certificates_match_the_vp_oracle_at_large_n():
    """The covers of LARGE_N certify with the same verdict from
    certify_tail and the oracle, and analyze reports it, or refuses at its
    c = 1 w step (b' = 7 in (2, 800, -5, 7 * 2^600)); the case record's
    radius is new_tail_locus's; the case (iii) certificate and its oracle
    agree at the locus radius plus -1/4, -1/12, 1/12, 1/4 and 1/2."""
    for args in LARGE_N:
        spec = branch_signature(*args)
        got = certify_tail(spec)
        assert got.kind.startswith("Splits"), args
        assert got == _vp_certify_tail(spec), args
        refused = spec.p == 2 and _outcome(
            _certify_p2_step, spec.b // 2 ** (spec.n - spec.s), 1)
        assert _analyze_certificate(args) == (refused or got.to_json()), args
        locus = new_tail_locus(spec)
        assert locus.v_e == _shape_facts(spec.p, spec.n, spec.s).v_e
        if isinstance(locus.d, Fraction):
            continue
        for off in (Fraction(-1, 4), Fraction(-1, 12), Fraction(1, 12),
                    Fraction(1, 4), Fraction(1, 2)):
            disk = expand_disk(spec, locus.d, locus.v_e + off)
            assert _outcome(classify_torsor_reduction, disk) == \
                _outcome(vp_classify_torsor_reduction, disk), (args, off)
