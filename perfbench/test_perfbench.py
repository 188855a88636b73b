"""Tests of the benchmark itself: inputs, correctness gate and tracer.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import padic_sr
from padic_sr import analyze, branch_signature
from padic_sr.errors import ArtifactError, Disconnected, NotThreePoint

from gate import check_report
from run import end_to_end, per_layer, run_pass
from tracer import COUNTED, STAGES, Tracer
from workloads import WORKLOADS, generate

ADMISSIBLE_ERRORS = (Disconnected, NotThreePoint)


def _generate(name, seed, rounds=2):
    return generate(WORKLOADS[name], seed, rounds, branch_signature,
                    ADMISSIBLE_ERRORS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fixed_seed_gives_identical_inputs(name):
    first = _generate(name, 7)
    assert first == _generate(name, 7)
    assert first != _generate(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_covers_are_unique_admissible_and_match_their_cell(name):
    workload = WORKLOADS[name]
    rounds = _generate(name, 3)
    covers = [c for rnd in rounds for c in rnd]
    assert len(set(covers)) == len(covers)
    for rnd in rounds:
        for (p, n, a, b), (cp, cn, cs, square_class) in zip(rnd,
                                                            workload.cells):
            spec = branch_signature(p, n, a, b)
            assert (p, n, spec.s, spec.swaps) == (cp, cn, cs, ())
            if square_class is not None:
                b_odd = b // p ** (n - cs)
                assert abs(b_odd) > 1
                assert b_odd % 8 in (square_class, 8 - square_class)


@pytest.fixture(scope="module")
def reports():
    return {(5, 1): analyze(5, 1, 1, 1), (2, 2): analyze(2, 2, 1, 6)}


@pytest.mark.parametrize("pn", [(5, 1), (2, 2)])
def test_gate_accepts_real_report(reports, pn):
    assert check_report(*pn, reports[pn]) == []


@pytest.mark.parametrize("pn", [(5, 1), (2, 2)])
def test_gate_rejects_float(reports, pn):
    doctored = copy.deepcopy(reports[pn])
    doctored["graph"]["components"][0]["radius_valuation"] = 0.5
    assert any("float" in v for v in check_report(*pn, doctored))


@pytest.mark.parametrize("pn,kind", [((5, 1), "SplitsZ4"),
                                     ((2, 2), "SplitsArtinSchreier"),
                                     ((5, 1), "NotCertified")])
def test_gate_rejects_wrong_verdict_kind(reports, pn, kind):
    doctored = copy.deepcopy(reports[pn])
    doctored["certificate"]["kind"] = kind
    assert any("kind" in v for v in check_report(*pn, doctored))


@pytest.mark.parametrize("field,value,word", [
    ("certified", False, "certified"),
    ("count", 3, "count"),
    ("conductor", 1, "conductor"),
    ("vanishes_at_n", False, "vanishes_at_n"),
])
def test_gate_rejects_other_doctoring(reports, field, value, word):
    doctored = copy.deepcopy(reports[(5, 1)])
    if field == "certified":
        doctored["certified"] = value
    elif field == "vanishes_at_n":
        doctored["conductor"]["vanishes_at_n"] = value
    else:
        doctored["certificate"][field] = value
    assert any(word in v for v in check_report(5, 1, doctored))


def test_run_pass_counts_domain_errors_and_flags_other_exceptions():
    def call(i, p, n, a, b):
        if a == 1:
            raise NotThreePoint("domain error")
        if a == 2:
            raise KeyError("bug")
        return analyze(p, n, a, b)

    res = run_pass([[(5, 1, 1, 1), (5, 1, 2, 1), (5, 1, 3, 1)]], call,
                   ArtifactError)
    assert res.attempted == 3
    assert res.failures == {"NotThreePoint": 1, "KeyError": 1}
    assert len(res.violations) == 1 and "KeyError" in res.violations[0]


def _targets():
    """(owner, attribute) -> original, for every place a wrapper goes."""
    out = {}
    for _, module, cls, attr in STAGES + COUNTED:
        mod = sys.modules[module]
        if cls is not None:
            owner = getattr(mod, cls)
            out[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(mod, attr)
        for name, m in list(sys.modules.items()):
            if name.startswith("padic_sr") and getattr(m, attr, None) is original:
                out[(m, attr)] = original
    return out


def test_tracer_wraps_every_namespace_and_restores_originals():
    before = _targets()
    # analyzer looks these up by name, so they must be wrapped there too
    analyzer = sys.modules["padic_sr.analyzer"]
    for attr in ("expand_disk", "binom_falling", "kummer_step_conductor",
                 "square_class_K2_K3"):
        assert (analyzer, attr) in before
    assert (padic_sr, "expand_disk") in before
    tracer = Tracer()
    with tracer.installed():
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original, (owner, attr)
        tracer.root(0, analyze, 2, 3, 1, 4)
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, (owner, attr)
    calls = tracer.calls()
    for layer in ("analyze", "series.expand_disk", "analyzer.conductor_bound",
                  "tower.square_class_K2_K3", "tower.mul",
                  "series.binom_falling", "series.tail_bound"):
        assert calls[layer] > 0, layer
    self_ns = tracer.self_ns()
    root = [r for r in tracer.spans if r[0] == "analyze"]
    assert len(root) == 1
    assert sum(self_ns.values()) == root[0][2] - root[0][1]
    assert all(v >= 0 for v in self_ns.values())
    total_ns = tracer.total_ns()
    assert total_ns["analyze"] == root[0][2] - root[0][1]
    assert all(self_ns[k] <= v <= total_ns["analyze"]
               for k, v in total_ns.items())


def test_tracer_restores_originals_after_an_exception():
    before = _targets()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("stop")
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in before.items())


def test_command_fails_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    doc = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        doc["command"] + ["--workload", "odd_survey", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]

    def call(i, p, n, a, b):
        return analyze(p, n, a, b)

    covers = [[(5, 1, 1, 1), (5, 1, 2, 1)]]
    plain = run_pass(covers, call, ArtifactError)
    assert plain.attempted == 2 and plain.latencies()
    metrics = end_to_end(plain, [0.1, 0.2])
    assert sorted(metrics) == sorted(m["name"] for m in doc["end_to_end"])
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(covers, lambda i, *c: tracer.root(i, analyze, *c),
                          ArtifactError)
    metrics = per_layer(plain, traced, tracer)
    assert sorted(metrics) == sorted(m["name"] for m in doc["per_layer"])
