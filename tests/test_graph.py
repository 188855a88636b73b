"""Decorated reduction graphs: structural validation, the vanishing-cycles
and local identities, the effective-different telescoping, serialization,
and the mutated-fixture rejections."""

import json
import os
from fractions import Fraction

import pytest

from padic_sr.analyzer import analyze, branch_signature, build_stable_graph
from padic_sr.errors import (
    Disconnected,
    EdgeNotOutward,
    MissingSigma,
    NegativeDifferent,
)
from padic_sr.graph import (
    Component,
    DecoratedGraph,
    GraphEdge,
    check_local_vanishing,
    check_vanishing_cycles,
    effective_different_profile,
    export_graph,
    sigma_eff_outward,
    tail_invariant_checks,
    validate_structure,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

SPECS = [(5, 1, 1, 1), (5, 2, 3, 10), (5, 3, 1, 1), (7, 2, 2, 7),
         (3, 2, 1, 3), (3, 3, 1, 3), (11, 2, 1, 11), (2, 3, 1, 6),
         (2, 3, 1, 12), (13, 2, 4, 13)]


@pytest.fixture(params=SPECS, ids=[str(s) for s in SPECS])
def emitted(request):
    spec = branch_signature(*request.param)
    return spec, build_stable_graph(spec)


def test_emitted_graphs_pass_all_checks(emitted):
    spec, g = emitted
    assert validate_structure(g) == []
    assert tail_invariant_checks(g) == []
    assert check_vanishing_cycles(g) == 0
    assert all(v == 0 for v in check_local_vanishing(g).values())


def test_sigma_eff_antisymmetry(emitted):
    spec, g = emitted
    for e in g.edges:
        if g.component(e.target).kind == "augmented" or e.sigma_eff is None:
            continue
        assert g.signed_sigma_eff(e.source, e) == e.sigma_eff
        assert g.signed_sigma_eff(e.target, e) == -e.sigma_eff


def test_sigma_eff_matches_decorations(emitted):
    """The emitted sigma_eff on every edge equals the per-edge subtree sum
    sigma_eff_outward."""
    spec, g = emitted
    for e in g.edges:
        want = sigma_eff_outward(g, e.source, e.target)
        if g.component(e.target).kind != "augmented":
            assert e.sigma_eff == want


def test_effective_different_telescoping(emitted):
    spec, g = emitted
    profile = effective_different_profile(g)
    p, n = spec.p, spec.n
    seed = Fraction(n - 1) + Fraction(p, p - 1)
    assert profile[g.root().id] == seed
    # sum of sigma_eff * epaisseur along the path to each etale tail = seed
    parent = g.parents()
    for c in g.components:
        if not (c.is_tail and c.etale):
            continue
        assert profile[c.id] == 0
        acc = Fraction(0)
        cur = c.id
        while parent.get(cur) is not None:
            par = parent[cur]
            e = g.outward_edge(par, cur)
            acc += e.sigma_eff * e.epaisseur
            cur = par
        assert acc == seed


def test_epaisseur_star_dagger(emitted):
    spec, g = emitted
    if spec.s == spec.n:
        pytest.skip("no X_* / X_dagger pair in the fully ramified case")
    e = g.outward_edge("Xstar", "Xdagger")
    assert e.epaisseur == Fraction(1, spec.p - 1)


def test_json_roundtrip(emitted):
    spec, g = emitted
    doc = g.to_json()
    assert DecoratedGraph.from_json(json.loads(json.dumps(doc))) == g


def test_json_signatures_must_be_mappings(emitted):
    spec, g = emitted
    doc = g.to_json()
    doc["signatures"].append("not a mapping")
    with pytest.raises(TypeError, match="signature entry must be a mapping"):
        DecoratedGraph.from_json(doc)


def test_json_signatures_are_copied(emitted):
    spec, g = emitted
    doc = g.to_json()
    back = DecoratedGraph.from_json(doc)
    doc["signatures"][0]["point"] = "changed"
    assert back == g
    back.to_json()["signatures"][0]["point"] = "changed"
    assert back == g


def test_dot_export(emitted):
    spec, g = emitted
    dot = export_graph(g, "dot")
    assert dot.startswith("graph ")
    assert dot.count("{") == dot.count("}") == 1
    n_edges = sum(1 for line in dot.splitlines() if " -- " in line)
    assert n_edges == len(g.edges)
    for c in g.components:
        assert f'"{c.id}"' in dot


def _fixture_docs():
    with open(os.path.join(FIXTURES, "expected_codes.json")) as fh:
        return sorted(json.load(fh).items())


@pytest.mark.parametrize("name,code", _fixture_docs())
def test_mutated_fixture_rejected(name, code):
    with open(os.path.join(FIXTURES, name)) as fh:
        g = DecoratedGraph.from_json(json.load(fh))
    codes = [c for c, _ in validate_structure(g) + tail_invariant_checks(g)]
    assert code in codes


def test_tree_maps_match_edges(emitted):
    spec, g = emitted
    parent = g.parents()
    assert {frozenset((e.source, e.target)) for e in g.edges} == {
        frozenset((cid, par)) for cid, par in parent.items() if par}
    parent.clear()  # a caller's copy: the graph's own tree is unchanged
    kids = g.children()
    assert sorted(g.subtree(g.root().id)) == sorted(
        c.id for c in g.components)
    for cid, par in g.parents().items():
        assert (par is None) == (cid == g.root().id)
        assert par is None or cid in kids[par]


def test_not_a_tree_raises_on_every_call():
    with open(os.path.join(FIXTURES, "not_a_tree.json")) as fh:
        g = DecoratedGraph.from_json(json.load(fh))
    for _ in range(2):
        with pytest.raises(Disconnected):
            g.parents()
        assert [c for c, _ in validate_structure(g)] == ["tree"]


def test_edge_to_unknown_component_is_a_tree_violation():
    g = build_stable_graph(branch_signature(5, 2, 3, 10))
    dropped = DecoratedGraph(g.prime, g.n,
                             [c for c in g.components if c.id != "Xstar"],
                             g.edges, g.mG, g.signatures)
    violations = validate_structure(dropped)
    assert violations == [
        ("tree", "edges name unknown components: ['Xstar']")]


def test_missing_sigma_raises():
    g = DecoratedGraph(5, 1, (
        Component(id="X0", inertia_exponent=1, kind="original",
                  branch_points={"0": 1, "1": 1, "inf": 1}),
        Component(id="T", kind="tail", tail_kind="new"),
    ), (GraphEdge("X0", "T"),))
    with pytest.raises(MissingSigma):
        check_vanishing_cycles(g)


def test_outward_edge_direction_enforced():
    spec = branch_signature(5, 2, 3, 10)
    g = build_stable_graph(spec)
    with pytest.raises(EdgeNotOutward):
        g.outward_edge("Xdagger", "Xstar")


def test_negative_different_detected():
    """Inflating an epaisseur drives the effective different negative (or
    nonzero at the etale tail) and is refused."""
    spec = branch_signature(5, 2, 3, 10)
    g = build_stable_graph(spec)
    edges = tuple(
        GraphEdge(e.source, e.target, e.epaisseur + 10, e.sigma_eff)
        if e.target == "X2" else e
        for e in g.edges
    )
    bad = DecoratedGraph(g.prime, g.n, g.components, edges, g.mG,
                         g.signatures)
    with pytest.raises(NegativeDifferent):
        effective_different_profile(bad)


def test_analyzer_report_embeds_valid_graph():
    rep = analyze(5, 2, 3, 10)
    g = DecoratedGraph.from_json(rep["graph"])
    assert validate_structure(g) == []
    assert rep["certified"] is True
