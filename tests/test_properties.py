"""Property tests: on random admissible covers, analyze is total over the
domain errors and deterministic; on random inputs of the same ranges, none
redrawn, certify_tail gives the verdict or error of the paths that expand
the disk; on bounded integer parameters, every CLI subcommand ends in exit
0, 1 or 2 and never in a traceback."""

import copy
import functools
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padic_sr.analyzer import analyze, branch_signature, certify_tail
from padic_sr.cli import main
from padic_sr.errors import ArtifactError, Disconnected, NotThreePoint
import p2_oracle
import rational_oracle


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


@st.composite
def inputs(draw):
    """(p, n, a, b) over the ranges of covers(), admissible or not: no
    input is redrawn."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(2 if p == 2 else 1, 3))
    return p, n, draw(st.integers(-40, 40)), draw(st.integers(-40, 40))


def _tail_outcome(certify, args):
    try:
        return certify(branch_signature(*args))
    except ArtifactError as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(inputs())
def test_tail_verdict_matches_the_expansion_oracles(args):
    """certify_tail's verdict, the shape's, is that of the expansion in
    Q_2(i)(w) for p = 2 (p2_oracle) and of the expansion to c_2p, or c_3
    at the cubic centre, with the general classifier for odd p
    (rational_oracle), or the error of branch_signature or of the w step
    on both sides."""
    oracle = (p2_oracle.certify_tail if args[0] == 2
              else rational_oracle.certify_tail)
    assert _tail_outcome(certify_tail, args) == _tail_outcome(oracle, args)


# -- the command line ---------------------------------------------------------

SMALL = st.integers(-2, 13)  # p, n, m: zero, negatives and non-primes too
EXPONENT = st.integers(-12, 12)
GRAPH_EDITS = ("none", "drop-edge", "drop-component", "inertia", "not-json",
               "list", "empty-object")


@functools.cache
def _graph_doc(p, n, a, b):
    return analyze(p, n, a, b)["graph"]


def _graph_text(edit, pick, value):
    """A graph file for validate-graph: an emitted graph, edited."""
    if edit == "not-json":
        return "not json"
    if edit == "list":
        return "[]"
    if edit == "empty-object":
        return "{}"
    doc = copy.deepcopy(_graph_doc(5, 2, 3, 10))
    if edit == "drop-edge":
        del doc["edges"][pick % len(doc["edges"])]
    elif edit == "drop-component":
        del doc["components"][pick % len(doc["components"])]
    elif edit == "inertia":
        doc["components"][pick % len(doc["components"])][
            "inertia_exponent"] = value
    return json.dumps(doc)


@st.composite
def cli_calls(draw):
    """(argv, graph file text) of one padic-sr call."""
    cmd = draw(st.sampled_from(("analyze", "certify", "conductor",
                                "signature", "batch", "validate-graph")))
    if cmd == "validate-graph":
        text = _graph_text(draw(st.sampled_from(GRAPH_EDITS)),
                           draw(st.integers(0, 20)), draw(EXPONENT))
        return [cmd, "graph.json"], text
    p, n = draw(SMALL), draw(SMALL)
    if cmd == "batch":
        args = ["--p", p, "--n-max", n]
    elif cmd == "signature":
        args = ["--p", p, "--n", n, "--m", draw(SMALL), "--a1",
                draw(EXPONENT), "--a2", draw(EXPONENT), "--a3", draw(EXPONENT)]
    else:
        args = ["--p", p, "--n", n, "--a", draw(EXPONENT), "--b",
                draw(EXPONENT)]
    return [cmd] + [str(x) for x in args], None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cli_calls())
def test_cli_exits_cleanly(call):
    """Every subcommand, on bounded integer parameters, exits 0, 1 or 2
    without letting any exception but SystemExit escape."""
    argv, text = call
    runner = CliRunner()
    with runner.isolated_filesystem():
        if text is not None:
            with open("graph.json", "w") as fh:
                fh.write(text)
        res = runner.invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        argv, res.output, "".join(traceback.format_exception(res.exception)))
    assert res.exit_code in (0, 1, 2), (argv, res.output)


FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_property_test_fails_without_an_internal_error(tmp_path):
    """Under the repository's pytest settings, which turn warnings into
    errors, a failing hypothesis test is reported as one failure: pytest,
    run on a file holding only such a test, ends with "1 failed" and no
    INTERNALERROR.  Hypothesis's failure report imports libcst, whose
    import warns DeprecationWarning on mypy_extensions.TypedDict; as an
    error that warning stopped the session with an INTERNALERROR."""
    root = Path(__file__).resolve().parent.parent
    shutil.copy(root / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_fails.py"], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out
