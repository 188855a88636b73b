"""Golden `analyze` reports: the sha256 of the sorted-key JSON report of
about thirty covers (every stable-model case (i)-(v), large p up to 197,
and covers that raise), or the class and message of the exception a cover
raises.  `test_identity_grid_digest` pins the reports of a 3656-input grid
in one hash, and in a second one the key order of each report.

A report change fails here and prints the new report, so every change of
`analyze` output is a reviewed edit of this table.
"""

import hashlib
import json
from collections import Counter

import pytest

from padic_sr import analyze

GOLDEN = {
    # case (i)
    (3, 1, 1, 1):
        '3f82bcccb78d9d9360751d9ca9835080a44ce513bfc1ddb27ca88e15e0ce46ee',
    (5, 1, 1, 1):
        'c8417d0638737d27e81e9fbf7603d731d10adea07ade73853bd407259bf52781',
    (5, 2, 1, 1):
        '487efd57cffccc6e5b2a2cd032d715b0ffa4bfba8627321673f595b50163c02c',
    (7, 1, 1, 2):
        '404fa95d596532891825b4d4ad7af0eed65fcbfc175bf9aa8f5d560e4782bcf1',
    (3, 2, 1, 1):
        'b0ad42dcf39131debfa721b6e8c33071bf6c748282636dd8597395cb5fb8e5ad',
    (11, 1, 2, 3):
        '57b3ad48fddb32aeff7b2904303509cec7483011a6521b5503f37f68ab481cf9',
    # case (ii)
    (5, 2, 1, 5):
        '245af79b223c936b3bb0680997b1f79b7ae1215b1615538ed070c358ae1db173',
    (7, 2, 1, 7):
        'fa3228a99d399ca2dc1cc5bab80d525f0042e0c67b766057811f266a71163920',
    (5, 3, 2, 5):
        '0304cd9123ff5da7d9f6abeee08394d7de8dc5c6c35cae97c098db05022a57be',
    (5, 3, 1, 25):
        '3c45f270091cef5b3014d532c5dbbd7d466c95f0c97ee69cc13ae4cfda0dd927',
    (13, 2, 3, 13):
        '166a49c75ee449b10bd85969188b27358a76f93a5779ebd7b8c6f16f99b7fe72',
    # case (iii)
    (3, 2, 1, 3):
        '05977aa07e153da2c5075951be33682e818b0b8c4de6216c383ca80395bd3d2c',
    (3, 3, 1, 9):
        'cb740013f4f05dac8c6cf984bb29fbb89af9c4a9c1b871dbdc05d2548efcbfc4',
    (3, 2, 2, -3):
        'b412f7120f87992464de3dad3b299e733c3ee8f2d65cddee9003aaa77be6b1fb',
    (3, 4, 1, 27):
        'edb0588d3e71a097f61a46e89ee95eca5cebf7309ef7e7ba184bb25e9e50fbdd',
    # case (iv)
    (3, 3, 1, 3):
        'd6ef48f925f351764a74b85fc23884255c9d9bb3e79c35bfdbde1dbaaf05b574',
    (3, 4, 2, 3):
        '3e7ba17485e5efafec173b9e44c48bba738ea7aa0c4a5259d6c59f9ddd8d5d2b',
    (3, 4, 1, 9):
        '5d38a17bbf9380a3fe4876df899ae514c9d9c2074fff0f143e02431f21d0dbf7',
    # case (v)
    (2, 3, 1, 6):
        'c35f3b1f6140e23464791d9f5c9e2109360cca662a2d48060cf3d41e80900f18',
    (2, 2, 1, 2):
        '17d0c6857a7bc3c0fac973e423a16d1697ec9c90a09521a5024b56ea3f04e049',
    (2, 3, 1, 4):
        '70b6dfa4b9b44220ce04d6f34ad07822a924df7c39909c100d17432bf29a23c1',
    (2, 4, 3, 4):
        '4605189c4cafedadea1cdfd1d38d91980f7f3b4451ffbbd42e75571149934f57',
    (2, 4, 1, -2):
        '9b87a52eb3015c6d43fb30017f2a6b02f213c2d6c2bc62a4c7a2dac11924b2e4',
    # raises
    (2, 2, 3, 11):
        ('IrreducibilityUnverified: radicand is a 2-th power in the '
         '2-adic completion; x^2 - r is reducible there'),
    (3, 1, 3, 3):
        ('Disconnected: fewer than two of a, b, a+b are prime to p; '
         'the cover is disconnected'),
    (5, 1, 5, 1):
        'NotThreePoint: a branch point has trivial ramification index',
    # large p
    (17, 1, 1, 1):
        'e8d4fb98281fd0e7367f7ce3c38605e0efbcb6588f75458c6d31895b89f4dc65',
    (37, 1, 1, 2):
        '2d6d6a038a71656f48ed7fe98fc19300578842b1afc7d76d2f48f85180718306',
    (97, 1, 1, 1):
        '832add47e44ecdfbc117f4b7e9c6d2dae683c854b4cda2c9d371cfc05c1278c8',
    (17, 2, 1, 17):
        'c0415ce4451143aa54e5937f1488ee64cdd97dd3911492fc30bb8c61330979fd',
    # scaling points: p up to 197 and n up to 8
    (61, 4, 1, 1):
        'b1f8fcdd47846504acb861aa7381d168e1a23b00ecd237e2695063f6d2f71ced',
    (97, 6, 2, 3):
        '681cad4ff8e89202acfc9df4f208dd62bbad6484e96a25801c05142a9801a9e8',
    (197, 8, 1, 1):
        '302462c7291c76aa2877aa9f89664a80cd9efc785de93906d17d40533a4d988b',
    (197, 2, 5, 197):
        '45c6d42b97c55dfd4db9092bd53ecdd3a30124b088cf4e1c9b5e260f322926b0',
}


def _outcome(args):
    """(sha256 of the report, report text), or (class: message, None)."""
    try:
        text = json.dumps(analyze(*args), sort_keys=True)
    except Exception as exc:  # the class and message are the golden value
        return f"{type(exc).__name__}: {exc}", None
    return hashlib.sha256(text.encode()).hexdigest(), text


@pytest.mark.parametrize("args", list(GOLDEN))
def test_analyze_report_is_golden(args):
    got, text = _outcome(args)
    if got != GOLDEN[args] and text is not None:
        print(json.dumps(json.loads(text), sort_keys=True, indent=2))
    assert got == GOLDEN[args], f"analyze{args} changed; new report above"


def _identity_grid():
    """The 3656 inputs every report-preserving change is checked on: odd
    p <= 13 with n <= 4, large p in {17, 23, 37} with n <= 2, and p = 2
    with 2 <= n <= 5."""
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 5):
            for a in range(1, 5):
                for b in range(-6, 13):
                    yield p, n, a, b
    for p in (17, 23, 37):
        for n in (1, 2):
            for a in (1, 2):
                for b in range(-10, 20):
                    yield p, n, a, b
    for n in range(2, 6):
        for a in range(1, 13):
            for b in range(-12, 25):
                yield 2, n, a, b


#: sha256 over the identity grid, in order, of one line per input: the
#: sorted-key JSON report, or `Class: message` of the exception
IDENTITY_GRID_DIGEST = (
    '5cdbcaf869349f265976352e646e0a277dd6a99b730e9281b2e41b6f8c2e392e')

#: the same hash over the JSON report in the key order analyze builds, the
#: order `padic-sr analyze` prints
IDENTITY_GRID_ORDERED_DIGEST = (
    'cbdf8570587eb2ece9397aec1fdc90ee464dfadcca02d13f328955da747d9bc0')


def test_identity_grid_digest():
    """Every report and every exception of the identity grid, pinned in one
    hash, and again with the report's own key order; a report change
    updates the digests as a reviewed edit."""
    digest, ordered = hashlib.sha256(), hashlib.sha256()
    outcomes = Counter()
    for args in _identity_grid():
        try:
            report = analyze(*args)
            line = json.dumps(report, sort_keys=True)
            ordered_line = json.dumps(report)
            outcomes["certified"] += 1
        except Exception as exc:  # the class and message are pinned
            line = ordered_line = f"{type(exc).__name__}: {exc}"
            outcomes[type(exc).__name__] += 1
        digest.update(line.encode() + b"\n")
        ordered.update(ordered_line.encode() + b"\n")
    assert outcomes == {"certified": 2487, "NotThreePoint": 561,
                        "Disconnected": 484, "IrreducibilityUnverified": 124}
    assert digest.hexdigest() == IDENTITY_GRID_DIGEST
    assert ordered.hexdigest() == IDENTITY_GRID_ORDERED_DIGEST
