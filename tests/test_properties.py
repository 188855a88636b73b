"""Property tests: on random admissible covers, analyze is total over the
domain errors and deterministic; on bounded integer parameters, every CLI
subcommand ends in exit 0, 1 or 2 and never in a traceback."""

import copy
import functools
import json
import traceback

from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padic_sr.analyzer import analyze, branch_signature
from padic_sr.cli import main
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
