"""Property test: on random admissible covers, analyze is total over the
domain errors and deterministic."""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padic_sr.analyzer import analyze, branch_signature
from padic_sr.errors import ArtifactError, Disconnected, NotThreePoint


@st.composite
def covers(draw):
    """(p, n, a, b) with p in {2, 3, 5, 7, 11, 13}, n <= 3 (2 <= n for
    p = 2) and |a|, |b| <= 40, admissible for branch_signature."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(2 if p == 2 else 1, 3))
    a = draw(st.integers(-40, 40))
    b = draw(st.integers(-40, 40))
    try:
        branch_signature(p, n, a, b)
    except (Disconnected, NotThreePoint):
        assume(False)
    return p, n, a, b


def _outcome(args):
    try:
        return "report", json.dumps(analyze(*args), sort_keys=True)
    except ArtifactError as exc:
        return "raised", type(exc).__name__, str(exc)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(covers())
def test_analyze_is_total_and_deterministic(args):
    assert _outcome(args) == _outcome(args)
