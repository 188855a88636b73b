"""The case split of the stable model as it was written out per builder,
kept as the oracle of the case record (`analyzer._case_record`).

`inseparable_tails`, `_upstairs`, `build_stable_graph` and
`stab_field_tower` below dispatch on the case (i)-(v) at each site, and
`build_stable_graph` fills `sigma_eff` with one `sigma_eff_outward`
subtree walk per edge, on a draft graph.  The package reads one record per
(p, n, s) instead; `test_analyzer.test_case_record_matches_the_oracle`
compares the two on every shape of a grid.
"""

from __future__ import annotations

from fractions import Fraction

from padic_sr.analyzer import InsepTail, _stable_case
from padic_sr.graph import (
    Component,
    DecoratedGraph,
    GraphEdge,
    sigma_eff_outward,
)
from padic_sr.ramification import FieldTower, TowerStep


def inseparable_tails(spec: CoverSpec):
    """The inseparable tails forced by the structure results: the x = 1 tail
    whenever s < n, plus the small-prime extra tails.  A function of
    (p, n, s) alone, like build_stable_graph."""
    p, n, s = spec.p, spec.n, spec.s
    case = _stable_case(p, n, s)
    if case == "i":
        return []
    out = [InsepTail(s, "1", n - s + Fraction(1, p - 1), "primitive")]
    if case == "iv":
        out.append(InsepTail(
            s - 1,
            "d' = a/(a+b) + cbrt(3^(2(n-s)+3) binom(b,3))/(a+b)",
            Fraction(n - s) + Fraction(2, 3), "new"))
    if case == "v":
        for j in range(1, s):
            out.append(InsepTail(
                j, f"d_{j} = a/(a+b) + sqrt(2^(n-{j}) b i)/(a+b)^2",
                Fraction(2 * n - s - j + 1, 2), "new"))
    return out


def _upstairs(p: int, n: int, s: int, case: str, inertia: int,
              has_larger_neighbor: bool):
    """(count, genus, conductor, note) of the covering curve over a
    p^inertia-component of a cover in the given case."""
    i = inertia
    if not has_larger_neighbor:
        return p ** (n - i), 0, None, "radicial"
    if case == "v":
        if i == 0:
            return (2 ** (n - 2), None, None,
                    "mu_4-torsors, first upper jump 1")
        return 2 ** (n - i - 1), None, None, "p = 2 covering structure"
    cond = 1 if (case != "i" and i >= s) else 2
    genus = (cond - 1) * (p - 1) // 2
    return p ** (n - i - 1), genus, cond, ""


def build_stable_graph(spec: CoverSpec) -> DecoratedGraph:
    """The decorated augmented dual graph of the stable reduction.

    It is a function of (p, n, s) alone: only spec.p, spec.n and spec.s are
    read, so two covers of the same shape get equal graphs.  Each call
    builds a new graph.

    For p = 2, and for p = 3 with 1 < s < n, the shape beyond the
    certified tails follows the same template and is flagged
    lower-confidence in the signature table.
    """
    p, n, s = spec.p, spec.n, spec.s
    case = _stable_case(p, n, s)
    q = Fraction(1, p - 1)
    comps = []  # Component fields, before the upstairs decorations
    edges = []  # (source, target, epaisseur)
    flags = []

    def add(cid, inertia, kind, tail_kind="none", radius=None, center=None,
            sigma_b=None, branch_points=None):
        comps.append(dict(
            id=cid, inertia_exponent=inertia, kind=kind, tail_kind=tail_kind,
            branch_points=branch_points or {}, disk_center=center,
            radius_valuation=radius, sigma_b=sigma_b))

    if case == "i":
        # chain: X_i has inertia p^(n-i) at radius valuation (i + 1/(p-1))/2
        add("X0", n, "original", radius=Fraction(0), center="d",
            branch_points={"0": n, "1": n, "inf": n})
        prev = "X0"
        prev_r = Fraction(0)
        for i in range(1, n + 1):
            r = Fraction(i + q, 2)
            if i == n:
                add(f"X{i}", 0, "tail", "new", radius=r, center="d",
                    sigma_b=Fraction(2))
            else:
                add(f"X{i}", n - i, "interior", radius=r, center="d")
            edges.append((prev, f"X{i}", r - prev_r))
            prev, prev_r = f"X{i}", r
        wild_on = {"0bar": "X0", "1bar": "X0", "infbar": "X0"}
    else:
        add("X0", n, "original", radius=Fraction(0), center="d",
            branch_points={"0": n, "inf": n})
        prev = "X0"
        prev_r = Fraction(0)
        chain_lo = s + 2 if case == "v" else s + 1
        for i in range(n - 1, chain_lo - 1, -1):
            r = n - i + q
            add(f"X{n - i}", i, "interior", radius=r, center="d")
            edges.append((prev, f"X{n - i}", r - prev_r))
            prev, prev_r = f"X{n - i}", r
        r_star = Fraction(n - s)
        add("Xstar", s + 1, "interior", radius=r_star, center="d")
        edges.append((prev, "Xstar", r_star - prev_r))
        # the x = 1 inseparable tail
        r_dag = n - s + q
        add("Xdagger", s, "tail", "primitive", radius=r_dag, center="1",
            sigma_b=Fraction(1), branch_points={"1": s})
        edges.append(("Xstar", "Xdagger", q))
        # the d-branch out to the new etale tail
        prev, prev_r = "Xstar", r_star
        for i in range(s, -1, -1):
            if case == "v" or i < s:
                r = Fraction(2 * n - s - i + q, 2)
            else:  # i = s, p odd: the quotient Y/Q_s argument fixes the disk
                r = n - s + q
            kind = "tail" if i == 0 else "interior"
            tk = "new" if i == 0 else "none"
            sb = Fraction(2) if i == 0 else None
            add(f"X{n - i}", i, kind, tk, radius=r, center="d", sigma_b=sb)
            edges.append((prev, f"X{n - i}", r - prev_r))
            prev, prev_r = f"X{n - i}", r
        wild_on = {"0bar": "X0", "1bar": "Xdagger", "infbar": "X0"}
        if case == "iv":
            r = Fraction(n - s) + Fraction(2, 3)
            add("Xdprime", s - 1, "tail", "new", radius=r, center="d'",
                sigma_b=Fraction(2))
            edges.append((f"X{n - s}", "Xdprime", r - (n - s + q)))
            flags.append("p = 3 with 1 < s < n: graph shape beyond the "
                         "certified tails is lower-confidence")
        if case == "v":
            for j in range(1, s):
                r = Fraction(2 * n - s - j + 1, 2)
                add(f"Xd{j}", j, "tail", "new", radius=r, center=f"d_{j}",
                    sigma_b=Fraction(2))
                edges.append((f"X{n - j - 1}", f"Xd{j}", Fraction(1, 2)))
            flags.append("p = 2: graph shape beyond the certified tails is "
                         "lower-confidence")

    # upstairs decorations
    inertia_of = {c["id"]: c["inertia_exponent"] for c in comps}
    neigh = {c["id"]: [] for c in comps}
    for u, v, _ in edges:
        neigh[u].append(v)
        neigh[v].append(u)
    components = []
    for c in comps:
        i = c["inertia_exponent"]
        larger = any(inertia_of[nb] > i for nb in neigh[c["id"]])
        cnt, genus, cond, note = _upstairs(p, n, s, case, i, larger)
        components.append(Component(**c, upstairs_count=cnt,
                                    upstairs_genus=genus,
                                    upstairs_conductor=cond, note=note))
    for wid in wild_on:
        components.append(Component(id=wid, kind="augmented",
                                    note="wild branch point"))
    graph_edges = [GraphEdge(u, v, epaisseur=eps) for u, v, eps in edges]
    graph_edges += [GraphEdge(wild_on[wid], wid) for wid in wild_on]

    signatures = [
        {"point": pt, "sigma_w": "0", "logarithmic": True}
        for pt in ("0", "1", "inf")
    ]
    signatures.append({
        "component": "X0", "deformation": "multiplicative",
        "delta": "1", "levels": n,
    })
    signatures += [{"flag": f} for f in flags]

    draft = DecoratedGraph(p, n, tuple(components), tuple(graph_edges),
                           mG=1, signatures=tuple(signatures))
    # fill sigma_eff on every component edge from the decorations
    final_edges = [
        e if draft.component(e.target).kind == "augmented"
        else GraphEdge(e.source, e.target, e.epaisseur,
                       sigma_eff_outward(draft, e.source, e.target))
        for e in draft.edges]
    return DecoratedGraph(p, n, tuple(components), tuple(final_edges),
                          mG=1, signatures=tuple(signatures))


def stab_field_tower(spec: CoverSpec) -> FieldTower:
    """The field of definition of the stable model as a tower over K_0, by
    the case that _stable_case decides (d', d_j: see inseparable_tails):

    case  condition         adjoined to K_n = K_0(zeta_{p^n}), then a tame step
    i     s = n             nothing
    ii    p > 3, s < n      (a/(a+b))^(1/p^(n-s))
    iii   p = 3, s = 1 < n  cbrt(3^(2n+1) C(b,3)), (a/(a+b))^(1/3^(n-1))
    iv    p = 3, 1 < s < n  cbrt(3^(2(n-s)+3) C(b,3)) (gives d'),
                            (a/(a+b))^(1/3^(n-s)), and the 3^(n-s+1)-th root
                            of (d')^a (d'-1)^b / (a^a b^b (a+b)^-(a+b))
    v     p = 2 (so s < n)  d_0^(1/2^(n-1)), (d_0 - 1)^(1/2^(s-1)) if s >= 2,
                            and d_j^(1/2^(n-j)), (d_j - 1)^(1/2^(s-j)), 0<j<s

    meta records the cover and its case, as the report prints them.
    """
    p, n, s, a, b = spec.p, spec.n, spec.s, spec.a, spec.b
    case = _stable_case(p, n, s)
    steps = [TowerStep("cyclotomic", level=n)]

    def kummer(exponent, radicand):
        steps.append(TowerStep("kummer", exponent=exponent, radicand=radicand))

    if case == "iii":
        kummer(3, "3^(2n+1) binom(b,3)")
    elif case == "iv":
        kummer(3, "3^(2(n-s)+3) binom(b,3)  [gives d']")
    if case in ("ii", "iii", "iv"):
        kummer(p ** (n - s), "a/(a+b)")
    if case == "iv":
        kummer(3 ** (n - s + 1), "(d')^a (d'-1)^b / (a^a b^b (a+b)^-(a+b))")
    elif case == "v":
        kummer(2 ** (n - 1), "d_0")
        if s >= 2:
            kummer(2 ** (s - 1), "d_0 - 1")
        for j in range(1, s):
            kummer(2 ** (n - j), f"d_{j}")
            kummer(2 ** (s - j), f"d_{j} - 1")
    steps.append(TowerStep("tame"))
    meta = {"a": a, "b": b, "n": n, "s": s, "case": case}
    return FieldTower(p, tuple(steps), tuple(sorted(meta.items())))
