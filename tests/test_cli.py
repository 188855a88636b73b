"""CLI: subcommand behavior, exit codes, JSON/DOT artifacts, and the
exact-rational output convention."""

import itertools
import json
import re
import sys

import pytest
from click.testing import CliRunner

from padic_sr.cli import main
from padic_sr.errors import ArtifactError
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


@pytest.fixture
def digit_limit():
    """The interpreter's limit on converting ints to and from decimal
    strings (None where Python has none), restored after the test: the
    CLI lifts it, and CliRunner runs the CLI in this process."""
    get = getattr(sys, "get_int_max_str_digits", None)
    limit = get() if get else None
    yield limit
    if get:
        sys.set_int_max_str_digits(limit)


#: b = 10^4400 + 1, a unit at p = 5 with 4401 digits, written as a string
#: so that no int of that size is converted here
LONG_B = "1" + "0" * 4399 + "1"


@pytest.mark.parametrize("p,n,b", [(1009, 1500, "1"), (5, 1, LONG_B)],
                         ids=["index-1009^1500", "b-of-4401-digits"])
def test_analyze_prints_and_parses_integers_of_any_length(runner, digit_limit,
                                                          p, n, b):
    """An admissible cover whose report holds an int of more than 4300
    digits (the index 1009^1500 above 0), or whose b has more, is analyzed
    and printed, exit 0: the CLI lifts the interpreter's default limit on
    converting ints to and from decimal strings."""
    if digit_limit:  # in force before the run: LONG_B cannot be read
        with pytest.raises(ValueError):
            int(LONG_B)
    res = runner.invoke(main, ["analyze", "--p", str(p), "--n", str(n),
                               "--a", "1", "--b", b])
    assert res.exit_code == 0, res.output[-500:]
    doc = json.loads(res.output)
    assert doc["certified"] is True
    assert doc["spec"]["b"] == int(b)
    assert doc["spec"]["indices"][0] == p ** n


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


@pytest.mark.parametrize("args", [(5, 2, 1, 1), (5, 2, 3, 10), (3, 3, 1, 9),
                                  (3, 3, 1, 3), (2, 3, 1, 6)])
def test_conductor_subcommand_matches_analyze(runner, args):
    """On one cover per case (i)-(v), padic-sr conductor prints the tower
    and conductor blocks of the analyze report."""
    opts = [x for name, v in zip(("--p", "--n", "--a", "--b"), args)
            for x in (name, str(v))]
    res = runner.invoke(main, ["conductor", *opts])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    report = json.loads(runner.invoke(main, ["analyze", *opts]).output)
    assert doc.pop("tower") == report["tower"]
    assert doc == report["conductor"]


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
    assert set(doc) == {"spec", "signature", "cited"}
    assert "m_G > 1" in doc["cited"]["result"]
    res = runner.invoke(main, ["signature", "--p", "5", "--n", "1", "--m",
                               "3", "--a1", "1", "--a2", "2", "--a3", "0"])
    assert res.exit_code == 1
    assert "NotFaithful" in res.output


def test_signature_refuses_a_group_that_cannot_exist(runner):
    """m_G divides p - 1, so Z/3^2 with m = 3, which 3 divides, is refused:
    exit 1 with NotFaithful, not a signature."""
    res = runner.invoke(main, ["signature", "--p", "3", "--n", "2", "--m",
                               "3", "--a1", "1", "--a2", "1", "--a3", "1"])
    assert res.exit_code == 1, res.output
    assert "NotFaithful" in res.output
    assert "m = 3 does not divide p - 1 = 2" in res.output


def test_signature_holds_on_every_admissible_spec(runner):
    """Every admissible spec with p <= 13, n <= 3 and m in 2..12, all 1191 of
    them (m divides p - 1, so p = 2 has none), exits 0 with the solver's
    signature, whose sigmas sum to 1: the vanishing-cycles count of the
    star of primitive tails."""
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in (1, 2, 3):
            for m in range(2, 13):
                for a in itertools.product(range(m), repeat=3):
                    try:
                        spec = MetacyclicSpec(p, n, m, a)
                    except ArtifactError:
                        continue
                    args = ["signature", "--p", p, "--n", n, "--m", m]
                    for flag, x in zip(("--a1", "--a2", "--a3"), a):
                        args += [flag, x]
                    res = runner.invoke(main, [str(x) for x in args])
                    assert res.exit_code == 0, (p, n, m, a, res.output)
                    doc = json.loads(res.output)
                    sol = signature_solver(spec)
                    assert doc["signature"] == sol.to_json(), (p, n, m, a)
                    assert sum(sol.sigmas()) == 1, (p, n, m, a)
                    checked += 1
    assert checked == 1191


def test_batch_table(runner):
    res = runner.invoke(main, ["batch", "--p", "5", "--n-max", "2"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].split()[:5] == ["p", "n", "s", "a", "b"]
    assert all("certified" in line for line in lines[1:])


def test_truncation_flag(runner):
    """The series length is fixed at 2p: no command has a --truncation, and
    one given is an unknown option, a usage error."""
    for command, args in (("analyze", ["--n", "1", "--a", "1", "--b", "1"]),
                          ("certify", ["--n", "1", "--a", "1", "--b", "1"]),
                          ("batch", ["--n-max", "1"])):
        assert "--truncation" not in runner.invoke(
            main, [command, "--help"]).output
        res = runner.invoke(main, [command, "--p", "5", *args,
                                   "--truncation", "12"])
        assert res.exit_code == 2, command
        assert "No such option '--truncation'." in res.output, command


@pytest.mark.parametrize("args,message", [
    (["analyze", "--p", "4", "--n", "1", "--a", "1", "--b", "1"],
     "Invalid value for '--p': p = 4 is not prime"),
    (["analyze", "--p", "1", "--n", "1", "--a", "1", "--b", "1"],
     "Invalid value for '--p': p = 1 is not prime"),
    (["certify", "--p", "5", "--n", "1", "--a", "1", "--b", "1",
      "--truncation", "3"],
     "No such option '--truncation'."),
    (["analyze", "--truncation", "5", "--p", "5", "--n", "1", "--a", "1",
      "--b", "1"],
     "No such option '--truncation'."),
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
    """A non-prime --p, an --n or --n-max below 1 and the removed
    --truncation exit 2 with one error line, not a traceback."""
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
                                  '"edges": [], "signatures": ["x"]}',
                                  '{"prime": 5, "n": 1, "components": ['
                                  '{"id": "a", "inertia_exponent": "1", '
                                  '"kind": "tail"}, {"id": "b", '
                                  '"kind": "original"}], "edges": ['
                                  '{"source": "b", "target": "a"}]}',
                                  '{"prime": 5, "n": 1, "components": ['
                                  '{"id": "a"}, {"id": "b"}], "edges": ['
                                  '{"source": "a", "target": "b", '
                                  '"epaisseur": "3/0"}]}',
                                  '{"prime": 5, "n": 1, "mG": 0, '
                                  '"components": [{"id": "a", "kind": '
                                  '"tail", "tail_kind": "new", '
                                  '"sigma_b": "2"}], "edges": []}',
                                  '{"prime": 5, "n": 1, "components": ['
                                  '{"id": ["x"], "kind": "original"}], '
                                  '"edges": []}',
                                  '{"prime": 5, "n": 1, "components": ['
                                  '{"id": "a", "kind": "original"}], '
                                  '"edges": [{"source": "a", '
                                  '"target": {"a": 1}}]}',
                                  '{"prime": 5, "n": 1, "components": ['
                                  '{"id": "a", "kind": "tail", "tail_kind": '
                                  '"new", "sigma_b": 2.5}], "edges": []}',
                                  '{"prime": 5, "n": 1, "components": ['
                                  '{"id": "a", "kind": "tail", "tail_kind": '
                                  '"new", "sigma_b": true}], "edges": []}'])
def test_validate_graph_malformed_file(runner, tmp_path, text):
    """A file that is no graph exits 1 with one error line, not a
    traceback: a string inertia exponent, a zero denominator, mG = 0, a
    component id or edge end that is no string, and a float or bool
    sigma_b, which no exact rational is, among them."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    res = runner.invoke(main, ["validate-graph", str(path)])
    assert res.exit_code == 1, res.output
    assert "malformed graph file" in res.output
