"""CLI: subcommand behavior, exit codes, JSON/DOT artifacts, and the
exact-rational output convention."""

import json
import re

import pytest
from click.testing import CliRunner

from padic_sr import cli
from padic_sr.cli import main
from padic_sr.metacyclic import (
    MetacyclicSpec,
    moduli_and_tails_note,
    signature_solver,
)


@pytest.fixture
def runner():
    return CliRunner()


def test_analyze_writes_artifacts(runner, tmp_path):
    jpath = tmp_path / "r.json"
    dpath = tmp_path / "g.dot"
    res = runner.invoke(main, ["analyze", "--p", "5", "--n", "2", "--a", "3",
                               "--b", "10", "--json", str(jpath),
                               "--dot", str(dpath)])
    assert res.exit_code == 0, res.output
    doc = json.loads(jpath.read_text())
    assert doc["certified"] is True
    dot = dpath.read_text()
    assert dot.startswith("graph ") and dot.rstrip().endswith("}")


def test_analyze_stdout_json(runner):
    res = runner.invoke(main, ["analyze", "--p", "5", "--n", "1", "--a", "1",
                               "--b", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["certificate"]["kind"] == "SplitsArtinSchreier"


def test_no_floats_anywhere(runner):
    res = runner.invoke(main, ["analyze", "--p", "3", "--n", "2", "--a", "1",
                               "--b", "3"])
    assert res.exit_code == 0
    # every number in the output is an int or a "num/den" string
    assert not re.search(r"\d+\.\d+", res.output)


def test_certify_exit_codes(runner):
    res = runner.invoke(main, ["certify", "--p", "2", "--n", "3", "--a", "1",
                               "--b", "6"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["certificate"]["kind"] == "SplitsZ4"
    # an inadmissible input exits 1 with an actionable message
    res = runner.invoke(main, ["certify", "--p", "5", "--n", "2", "--a", "5",
                               "--b", "10"])
    assert res.exit_code == 1
    assert "Disconnected" in res.output


def test_usage_error_exit_2(runner):
    res = runner.invoke(main, ["certify", "--p", "5"])
    assert res.exit_code == 2


def test_validate_graph(runner, tmp_path):
    from padic_sr.analyzer import analyze
    good = tmp_path / "good.json"
    good.write_text(json.dumps(analyze(5, 2, 3, 10)["graph"]))
    res = runner.invoke(main, ["validate-graph", str(good)])
    assert res.exit_code == 0
    assert json.loads(res.output)["violations"] == []

    doc = analyze(5, 2, 3, 10)["graph"]
    for c in doc["components"]:
        if c["id"] == "Xstar":
            c["inertia_exponent"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["validate-graph", str(bad)])
    assert res.exit_code == 1
    codes = [v["code"] for v in json.loads(res.output)["violations"]]
    assert "etale-non-tail" in codes


def test_conductor_subcommand(runner):
    res = runner.invoke(main, ["conductor", "--p", "3", "--n", "2", "--a",
                               "1", "--b", "3"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["vanishes_at_n"] is True
    assert doc["conductor"]["value"] == "3/2"


def test_signature_subcommand(runner):
    res = runner.invoke(main, ["signature", "--p", "5", "--n", "1", "--m",
                               "2", "--a1", "1", "--a2", "1", "--a3", "0"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    sig = [pt["sigma"] for pt in doc["signature"]["points"]]
    assert sig == ["1/2", "1/2", "0"]
    spec = MetacyclicSpec(5, 1, 2, (1, 1, 0))
    assert doc["spec"] == spec.to_json()
    assert doc["signature"] == signature_solver(spec).to_json()
    assert doc == json.loads(json.dumps(moduli_and_tails_note(spec)))
    assert doc["vanishes_at_n"] is True and doc["graph_violations"] == []
    res = runner.invoke(main, ["signature", "--p", "5", "--n", "1", "--m",
                               "3", "--a1", "1", "--a2", "2", "--a3", "0"])
    assert res.exit_code == 1
    assert "NotFaithful" in res.output


@pytest.mark.parametrize("vanishes,violations", [
    (False, []), (True, [("no-new-or-inseparable", "T1 is a new tail")])])
def test_signature_exits_1_unless_the_report_holds(runner, monkeypatch,
                                                   vanishes, violations):
    def report(spec):
        doc = moduli_and_tails_note(spec)
        doc.update(vanishes_at_n=vanishes, graph_violations=violations)
        return doc

    monkeypatch.setattr(cli, "moduli_and_tails_note", report)
    res = runner.invoke(main, ["signature", "--p", "5", "--n", "1", "--m",
                               "2", "--a1", "1", "--a2", "1", "--a3", "0"])
    assert res.exit_code == 1, res.output
    assert json.loads(res.output)["vanishes_at_n"] is vanishes


def test_batch_table(runner):
    res = runner.invoke(main, ["batch", "--p", "5", "--n-max", "2"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].split()[:5] == ["p", "n", "s", "a", "b"]
    assert all("certified" in line for line in lines[1:])


def test_truncation_flag(runner):
    res = runner.invoke(main, ["certify", "--p", "5", "--n", "1", "--a", "1",
                               "--b", "1", "--truncation", "12"])
    assert res.exit_code == 0


@pytest.mark.parametrize("args,message", [
    (["analyze", "--p", "4", "--n", "1", "--a", "1", "--b", "1"],
     "Invalid value for '--p': p = 4 is not prime"),
    (["analyze", "--p", "1", "--n", "1", "--a", "1", "--b", "1"],
     "Invalid value for '--p': p = 1 is not prime"),
    (["certify", "--p", "5", "--n", "1", "--a", "1", "--b", "1",
      "--truncation", "3"],
     "Invalid value for '--truncation': 3 is below p + 1 = 6"),
    (["analyze", "--truncation", "5", "--p", "5", "--n", "1", "--a", "1",
      "--b", "1"],
     "Invalid value for '--truncation': 5 is below p + 1 = 6"),
    (["conductor", "--p", "0", "--n", "2", "--a", "1", "--b", "1"],
     "Invalid value for '--p': p = 0 is not prime"),
    (["batch", "--p", "-3", "--n-max", "2"],
     "Invalid value for '--p': p = -3 is not prime"),
    (["signature", "--p", "4", "--n", "1", "--m", "2", "--a1", "1", "--a2",
      "1", "--a3", "0"],
     "Invalid value for '--p': p = 4 is not prime"),
    (["analyze", "--p", "5", "--n", "0", "--a", "1", "--b", "1"],
     "Invalid value for '--n': 0 is not in the range x>=1."),
    (["certify", "--p", "5", "--n", "-1", "--a", "1", "--b", "1"],
     "Invalid value for '--n': -1 is not in the range x>=1."),
    (["conductor", "--p", "5", "--n", "0", "--a", "1", "--b", "1"],
     "Invalid value for '--n': 0 is not in the range x>=1."),
    (["signature", "--p", "5", "--n", "0", "--m", "2", "--a1", "1", "--a2",
      "1", "--a3", "0"],
     "Invalid value for '--n': 0 is not in the range x>=1."),
    (["batch", "--p", "5", "--n-max", "0"],
     "Invalid value for '--n-max': 0 is not in the range x>=1."),
])
def test_bad_parameters_are_usage_errors(runner, args, message):
    """A non-prime --p, an --n or --n-max below 1 and a --truncation below
    p + 1 exit 2 with one error line, not a traceback."""
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    errors = [line for line in res.output.splitlines()
              if line.startswith("Error:")]
    assert errors == [f"Error: {message}"]


@pytest.mark.parametrize("text", ["not json", "[]", '{"prime": 5}',
                                  '{"prime": 5, "n": 1, "components": [1], '
                                  '"edges": []}',
                                  '{"prime": 5, "n": 1, "components": [], '
                                  '"edges": [], "signatures": ["x"]}'])
def test_validate_graph_malformed_file(runner, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    res = runner.invoke(main, ["validate-graph", str(path)])
    assert res.exit_code == 1, res.output
    assert "malformed graph file" in res.output
