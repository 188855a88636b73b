"""The per-cover facts of the three tail certificates are divisibility
tests against powers of p that the shape's record holds; their oracles
are the same certificates reading every valuation with v_p
(tests/rational_oracle.py).  analyze and certify_tail reach those tests
through _tail_certificate, from the integers of the centre, and their
oracle is the composition of the public stages, new_tail_locus and a
classifier.  Every
input gives the same verdict, every field of it, or the same exception
class and message: the covers of the 8408-input grid, doctored radii
(whose targets may lie outside Z), stand-in specs that no rule checks at a
rational centre, and case (iii) and case (v) covers of n = 200 and
n = 800.  Inputs are drawn without filtering."""

import random
from fractions import Fraction
from types import SimpleNamespace

from padic_sr.analyzer import (
    _certify_p2_step,
    _locus_shape,
    _tail_certificate,
    branch_signature,
    certify_tail,
    new_tail_locus,
)
from padic_sr.errors import ArtifactError
from padic_sr.series import (
    _rational_shape,
    classify_p2_torsor,
    classify_rational_centre,
    classify_torsor_reduction,
    expand_disk,
)
from grid_digest import grid
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


def _both(spec, v_e):
    """The package's and the oracle's outcome on the new-tail disk of the
    cover spec, at the radius v_e: at its rational or cubic centre for odd
    p, and from the spec alone for p = 2."""
    if spec.p == 2:
        return (_outcome(classify_p2_torsor, spec, v_e),
                _outcome(vp_classify_p2_torsor, spec, v_e))
    d = new_tail_locus(spec).d
    if isinstance(d, Fraction):
        return (_outcome(classify_rational_centre, spec, d, v_e),
                _outcome(vp_classify_rational_centre, spec, d, v_e))
    disk = expand_disk(spec, d, v_e)
    return (_outcome(classify_torsor_reduction, disk),
            _outcome(vp_classify_torsor_reduction, disk))


def _vp_certify_tail(spec):
    """The public stages, new_tail_locus and a classifier, composed as
    certify_tail's verdict, with the oracle's certificates."""
    locus = new_tail_locus(spec)
    if spec.p == 2:
        return vp_classify_p2_torsor(spec, locus.v_e)
    if isinstance(locus.d, Fraction):
        return vp_classify_rational_centre(spec, locus.d, locus.v_e)
    return vp_classify_torsor_reduction(expand_disk(spec, locus.d,
                                                    locus.v_e))


def _analyze_path(spec, v_e):
    """_tail_certificate as analyze calls it, at the radius v_e; analyze
    makes its w step, the c = 1 call, before it."""
    return _tail_certificate(spec, _locus_shape(spec.p, spec.n, spec.s)[0],
                             v_e)


def _both_paths(spec, v_e):
    """(analyze's outcome, the public stages') at the radius v_e.  Where
    new_tail_locus refuses at its w step, analyze's outcome is that of its
    own w step, the c = 1 call, which must refuse with the same error and
    message (conductor_bound); elsewhere it is _tail_certificate's.  The
    c = 1 call also refuses some covers whose w step in new_tail_locus
    (c = 0) passes; on those the two certificates are compared."""
    public = _outcome(_public_path, spec, v_e)
    if isinstance(public, tuple) and public[0] == "IrreducibilityUnverified":
        return _outcome(_certify_p2_step, spec.b // 2 ** (spec.n - spec.s),
                        1), public
    return _outcome(_analyze_path, spec, v_e), public


def _public_path(spec, v_e):
    """The public stages composed at the radius v_e, the oracle of
    certify_tail and analyze: new_tail_locus, its w step included, then
    the classifier of its centre."""
    d = new_tail_locus(spec).d
    if spec.p == 2:
        return classify_p2_torsor(spec, v_e)
    if isinstance(d, Fraction):
        return classify_rational_centre(spec, d, v_e)
    return classify_torsor_reduction(expand_disk(spec, d, v_e))


def _grid_covers():
    """The spec of every input of the grid that is a cover."""
    for args in grid():
        try:
            yield branch_signature(*args)
        except ArtifactError:
            continue


def test_certificates_match_the_vp_oracle_on_the_grid():
    """certify_tail and the oracle's certify_tail agree on every cover of
    the 8408-input grid, all 4736: 4728 certify, and 8 stop at the case (v)
    w step of new_tail_locus (IrreducibilityUnverified) on both sides."""
    kinds = {}
    for spec in _grid_covers():
        got = _outcome(certify_tail, spec)
        assert got == _outcome(_vp_certify_tail, spec), spec
        kind = got[0] if isinstance(got, tuple) else got.kind
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"SplitsArtinSchreier": 3528, "SplitsZ4": 1200,
                     "IrreducibilityUnverified": 8}, kinds


def test_analyze_path_matches_the_public_stages_on_the_grid():
    """On every input of the 8408-input grid, analyze's tail certificate
    and the public stages give the same verdict or the same error, which
    is certify_tail's: the 4736 covers, 8 of them refused by the w step on
    both paths, and the other inputs refused by branch_signature before
    either path."""
    kinds = {}
    for args in grid():
        try:
            spec = branch_signature(*args)
        except ArtifactError as exc:
            kinds[type(exc).__name__] = kinds.get(type(exc).__name__, 0) + 1
            continue
        got, public = _both_paths(spec, _locus_shape(spec.p, spec.n,
                                                     spec.s)[1])
        assert got == public == _outcome(certify_tail, spec), spec
        kind = got[0] if isinstance(got, tuple) else got.kind
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"SplitsArtinSchreier": 3528, "SplitsZ4": 1200,
                     "IrreducibilityUnverified": 8, "NotThreePoint": 2325,
                     "Disconnected": 1347}, kinds


#: offsets of the doctored radii from the locus's v(e): multiples of 1/24
#: from -5/4 to 5/4, so that each target exponent lies in Z for some and
#: outside it for others, and each threshold is met from both sides
OFFSETS = [Fraction(k, 24) for k in range(-30, 31)]


def test_certificates_match_the_vp_oracle_on_doctored_radii():
    """On the first three covers of each shape (p, n, s) of the grid, at
    every radius locus + OFFSETS, the certificate and its oracle agree,
    exception or verdict: a radius outside (1/4)Z is refused by both in
    case (v), a target outside Z fails its equality on both sides, and
    every failed fact is named alike.  Both verdicts and each named reason
    occur, but v(c_3) <= tau and the case (v) congruence: past
    v(c_2) = tau, or n, the radius is the locus's, where no cover fails
    either (series module docstring, "Rational centres"; in case (v)
    X / N^2 has chi = m + a m^2 - (m - 1) 2^n i, and 1 + a m is even)."""
    per_shape, seen = {}, set()
    for spec in _grid_covers():
        shape = (spec.p, spec.n, spec.s)
        if per_shape.get(shape, 0) == 3:
            continue
        per_shape[shape] = per_shape.get(shape, 0) + 1
        v0 = _locus_shape(*shape)[1]
        for off in OFFSETS:
            got, want = _both(spec, v0 + off)
            assert got == want, (spec, v0 + off)
            if isinstance(got, tuple):
                seen.add(got[0])
            else:
                seen.update((got.reason or got.kind).split("; "))
    assert {"SplitsArtinSchreier", "SplitsZ4", "AssertionError",
            "v(c_2) != n + 1/(p-1)", "v(c_1) <= n", "v(c_p) <= n",
            "min over i != 1, p is not n + 1/(p-1)", "v(c_2) != n"} <= seen, \
        seen
    assert any(r.startswith("tail coefficient") for r in seen), seen


def test_analyze_path_matches_the_public_stages_on_doctored_radii():
    """On the first three covers of each shape of the grid, at every
    radius locus + OFFSETS, analyze's tail certificate and the public
    stages give the same verdict or the same error, every failed fact and
    the refused radii outside (1/4)Z among them."""
    per_shape, seen = {}, set()
    for spec in _grid_covers():
        shape = (spec.p, spec.n, spec.s)
        if per_shape.get(shape, 0) == 3:
            continue
        per_shape[shape] = per_shape.get(shape, 0) + 1
        v0 = _locus_shape(*shape)[1]
        for off in OFFSETS:
            got, public = _both_paths(spec, v0 + off)
            assert got == public, (spec, v0 + off)
            if isinstance(got, tuple):
                seen.add(got[0])
            else:
                seen.update((got.reason or got.kind).split("; "))
    assert {"SplitsArtinSchreier", "SplitsZ4", "AssertionError",
            "IrreducibilityUnverified", "v(c_2) != n + 1/(p-1)",
            "v(c_1) <= n", "v(c_p) <= n",
            "min over i != 1, p is not n + 1/(p-1)", "v(c_2) != n"} <= seen, \
        seen
    assert any(r.startswith("tail coefficient") for r in seen), seen


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


def _draw_stand_in(rng):
    """A stand-in spec, a Fraction centre and a radius, none of them
    checked: p is any of a few primes, 2 and non-primes, n and s run over
    0..4 (so n < s occurs), a and b are small, or multiples of a power of
    p, or 0, and the centre is a/(a+b) or drawn alike."""
    p = rng.choice((3, 5, 7, 11, 3, 5, 7, 2, 4, 9, 1, 0))
    n, s = rng.randint(0, 4), rng.randint(0, 4)

    def integer():
        x = rng.randint(-30, 30)
        if rng.random() < 0.5 and p > 1:
            x *= p ** rng.randint(0, 4)
        return x

    a, b = integer(), integer()
    if rng.random() < 0.5 and a + b:
        d = Fraction(a, a + b)
    else:
        d = Fraction(integer(), rng.choice((1, 1, 2, 3, 5, 7, 9, 25, 26)))
    v_e = Fraction(rng.randint(-8, 40), rng.choice((1, 2, 3, 4, 6, 8, 12)))
    return SimpleNamespace(p=p, n=n, a=a, b=b, s=s), d, v_e


def test_rational_certificate_matches_the_vp_oracle_on_stand_ins():
    """classify_rational_centre takes any spec and any centre: on 6000
    seeded stand-ins it gives what its oracle gives, a verdict or the same
    error (ValueError for p = 2 or a non-prime p, CenterOnBranchLocus,
    PrecisionExhausted naming a premise or the tail, ZeroElement for
    b = 0 past the first two premises).  Both premise exponents are
    reached from both sides."""
    rng = random.Random(4101)
    seen = set()
    for _ in range(6000):
        spec, d, v_e = _draw_stand_in(rng)
        got = _outcome(classify_rational_centre, spec, d, v_e)
        assert got == _outcome(vp_classify_rational_centre, spec, d, v_e), \
            (spec, d, v_e)
        seen.update(got if isinstance(got, tuple)
                    else (got.reason or got.kind,))
    assert {"ValueError", "CenterOnBranchLocus", "v(0) is +infinity",
            "tail bound needs v(d) = 0", "tail bound needs v(d - 1) = n - s",
            "tail bound needs v(b) = n - s", "h_1 != 0",
            "v(c_2) != n + 1/(p-1)", "SplitsArtinSchreier"} <= seen, seen


def test_analyze_reduces_the_rational_centre_as_fraction_does():
    """analyze hands the rational certificate a/(a+b) in lowest terms, by
    one gcd: on the seeded stand-ins of odd p and a + b != 0,
    _tail_certificate at a rational case gives what
    classify_rational_centre gives at Fraction(a, a + b), verdict or
    error.  Where p divides a common factor of a and b, the unreduced pair
    would fail v(d) = 0, so the reduction is seen; on a cover p divides
    neither a nor the gcd."""
    rng = random.Random(4102)
    compared, common = 0, 0
    for _ in range(6000):
        spec, _, v_e = _draw_stand_in(rng)
        a, b = spec.a, spec.b
        if spec.p == 2 or not a + b:
            continue
        got = _outcome(_tail_certificate, spec, "ii", v_e)
        assert got == _outcome(classify_rational_centre, spec,
                               Fraction(a, a + b), v_e), (spec, v_e)
        compared += 1
        common += spec.p > 1 and a % spec.p == b % spec.p == 0 != a
    assert compared > 4000 and common > 300, (compared, common)


#: case (iii) and case (v) covers of n = 200 and 800, and a case (ii) one
LARGE_N = [(3, 200, 1, 3 ** 199), (3, 200, -7, 5 * 3 ** 199),
           (3, 800, 1, 3 ** 799), (3, 800, 2, -4 * 3 ** 799),
           (2, 200, 1, 3 * 2 ** 100), (2, 200, 3, 5 * 2 ** 199),
           (2, 800, 1, 3 * 2 ** 400), (2, 800, -5, 7 * 2 ** 600),
           (5, 800, 2, 3 * 5 ** 400)]


def test_certificates_match_the_vp_oracle_at_large_n():
    """The covers of LARGE_N certify on both sides with the same verdict,
    and agree at the locus radius plus -1/4, -1/12, 1/12, 1/4 and 1/2; the
    rational record's exponents there are n - s and n - s, and no k3, as
    L = 2."""
    for args in LARGE_N:
        spec = branch_signature(*args)
        got = certify_tail(spec)
        assert got.kind.startswith("Splits"), args
        assert got == _vp_certify_tail(spec), args
        v0 = _locus_shape(spec.p, spec.n, spec.s)[1]
        assert _analyze_path(spec, v0) == got, args
        for off in (Fraction(-1, 4), Fraction(-1, 12), Fraction(1, 12),
                    Fraction(1, 4), Fraction(1, 2)):
            mine, oracle = _both(spec, v0 + off)
            assert mine == oracle, (args, off)
    spec = branch_signature(*LARGE_N[-1])
    v0 = _locus_shape(5, 800, spec.s)[1]
    record = _rational_shape(5, 800, spec.s, v0.numerator, v0.denominator)
    assert record.exponents == (800 - spec.s, 800 - spec.s, None)
