"""Decorated augmented dual graphs of stable reductions, with validators.

The graph records the tree of components of the stable reduction of a cover
of the line, decorated with inertia exponents, disks, annulus thicknesses
(epaisseurs), effective ramification invariants sigma_b on tails, effective
different seeds, and the augmented vertices standing for wildly ramified
branch points.  All checks are exact rational arithmetic; violations are
returned as data, not raised.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    Disconnected,
    EdgeNotOutward,
    MissingSigma,
    MissingSigmaEff,
    NegativeDifferent,
)
from .jsonutil import parse_rat, ratstr


@dataclass(frozen=True)
class Component:
    id: str
    inertia_exponent: int = 0
    genus: int = 0
    kind: str = "interior"  # original | interior | tail | augmented
    tail_kind: str = "none"  # primitive | new | none
    # branch points specializing to this component: point label -> p-exponent
    # of the branching index (a for index p^a * s with p not dividing s)
    branch_points: dict = field(default_factory=dict)
    disk_center: str | None = None
    radius_valuation: Fraction | None = None
    sigma_b: Fraction | None = None
    # decorations of the covering curve over this component
    upstairs_count: int | None = None
    upstairs_genus: int | None = None
    upstairs_conductor: int | None = None
    note: str = ""

    @property
    def etale(self) -> bool:
        return self.kind != "augmented" and self.inertia_exponent == 0

    @property
    def is_tail(self) -> bool:
        return self.kind == "tail"

    @property
    def inseparable_tail(self) -> bool:
        return self.is_tail and self.inertia_exponent > 0

    def to_json(self):
        doc = {
            "id": self.id,
            "inertia_exponent": self.inertia_exponent,
            "genus": self.genus,
            "kind": self.kind,
            "tail_kind": self.tail_kind,
        }
        if self.branch_points:
            doc["branch_points"] = dict(self.branch_points)
        if self.radius_valuation is not None:
            doc["disk"] = {"center": self.disk_center or "",
                           "radius_valuation": ratstr(self.radius_valuation)}
        if self.sigma_b is not None:
            doc["sigma_b"] = ratstr(self.sigma_b)
        if self.upstairs_count is not None:
            doc["upstairs"] = {"count": self.upstairs_count,
                               "genus": self.upstairs_genus,
                               "conductor": self.upstairs_conductor}
        if self.note:
            doc["note"] = self.note
        return doc

    @classmethod
    def from_json(cls, doc):
        disk = doc.get("disk") or {}
        up = doc.get("upstairs") or {}
        return cls(
            id=_name(doc["id"], "id"),
            inertia_exponent=operator.index(doc.get("inertia_exponent", 0)),
            genus=operator.index(doc.get("genus", 0)),
            kind=doc.get("kind", "interior"),
            tail_kind=doc.get("tail_kind", "none"),
            branch_points={pt: operator.index(a) for pt, a in
                           dict(doc.get("branch_points", {})).items()},
            disk_center=disk.get("center") or None,
            radius_valuation=(parse_rat(disk["radius_valuation"])
                              if "radius_valuation" in disk else None),
            sigma_b=(parse_rat(doc["sigma_b"])
                     if "sigma_b" in doc else None),
            upstairs_count=up.get("count"),
            upstairs_genus=up.get("genus"),
            upstairs_conductor=up.get("conductor"),
            note=doc.get("note", ""),
        )


@dataclass(frozen=True)
class GraphEdge:
    """Stored in the outward orientation: source is closer to the original
    component.  sigma_eff of the reversed edge is the negation."""

    source: str
    target: str
    epaisseur: Fraction | None = None
    sigma_eff: Fraction | None = None

    def to_json(self):
        doc = {"source": self.source, "target": self.target}
        if self.epaisseur is not None:
            doc["epaisseur"] = ratstr(self.epaisseur)
        if self.sigma_eff is not None:
            doc["sigma_eff"] = ratstr(self.sigma_eff)
        return doc

    @classmethod
    def from_json(cls, doc):
        return cls(
            source=_name(doc["source"], "source"),
            target=_name(doc["target"], "target"),
            epaisseur=(parse_rat(doc["epaisseur"])
                       if "epaisseur" in doc else None),
            sigma_eff=(parse_rat(doc["sigma_eff"])
                       if "sigma_eff" in doc else None),
        )


@dataclass(frozen=True)
class DecoratedGraph:
    prime: int
    n: int
    components: tuple
    edges: tuple
    mG: int = 1
    # numerical invariants of deformation data per flagged vertex
    signatures: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "signatures", tuple(self.signatures))

    # -- basic structure -----------------------------------------------------

    # the indices and tree maps are computed once per graph (it is frozen)

    @cached_property
    def _by_id(self) -> dict:
        """Component id -> component (the first, if an id repeats)."""
        out = {}
        for c in self.components:
            out.setdefault(c.id, c)
        return out

    @cached_property
    def _adjacency(self) -> dict:
        """Component id -> [(neighbour id, edge)], in edge order."""
        adj = {}
        for e in self.edges:
            adj.setdefault(e.source, []).append((e.target, e))
            if e.target != e.source:
                adj.setdefault(e.target, []).append((e.source, e))
        return adj

    @cached_property
    def _edge_by_pair(self) -> dict:
        """Unordered pair of ids -> edge (the first, if edges repeat)."""
        out = {}
        for e in self.edges:
            out.setdefault(frozenset((e.source, e.target)), e)
        return out

    @cached_property
    def _parent(self) -> dict:
        root = self.root()
        parent = {root.id: None}
        queue = [root.id]
        while queue:
            cur = queue.pop(0)
            for nb in self.neighbors(cur):
                if nb == parent[cur]:
                    continue
                if nb in parent:
                    raise Disconnected("graph contains a cycle")
                parent[nb] = cur
                queue.append(nb)
        missing = [c.id for c in self.components if c.id not in parent]
        if missing:
            raise Disconnected(f"unreachable components: {missing}")
        unknown = [cid for cid in parent if cid not in self._by_id]
        if unknown:
            raise Disconnected(f"edges name unknown components: {unknown}")
        return parent

    @cached_property
    def _children(self) -> dict:
        kids = {c.id: [] for c in self.components}
        for cid, par in self._parent.items():
            if par is not None:
                kids[par].append(cid)
        return kids

    def component(self, cid: str) -> Component:
        return self._by_id[cid]

    @property
    def cyclic(self) -> bool:
        return self.mG == 1

    def root(self) -> Component:
        originals = [c for c in self.components if c.kind == "original"]
        if len(originals) != 1:
            raise Disconnected(
                f"expected one original component, found {len(originals)}"
            )
        return originals[0]

    def neighbors(self, cid: str):
        return [nb for nb, _ in self._adjacency.get(cid, ())]

    def parents(self) -> dict:
        """Map component id -> parent id (None at the root), computed by
        breadth-first search from the original component; raises Disconnected
        if the graph is not a tree rooted there."""
        return dict(self._parent)

    def subtree(self, cid: str):
        """All component ids at-or-outward of cid."""
        kids = self._children
        out = []
        stack = [cid]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(kids[cur])
        return out

    def outward_edge(self, source: str, target: str) -> GraphEdge:
        if self._parent.get(target) != source:
            raise EdgeNotOutward(f"{source} -> {target} is not outward")
        return self._edge_by_pair[frozenset((source, target))]

    def signed_sigma_eff(self, vertex: str, e: GraphEdge) -> Fraction | None:
        """sigma_eff of e oriented away from vertex; antisymmetric under
        reversal, and 0 on edges meeting an augmented vertex."""
        other = e.target if e.source == vertex else e.source
        if (self.component(other).kind == "augmented"
                or self.component(vertex).kind == "augmented"):
            return Fraction(0)
        if e.sigma_eff is None:
            return None
        return e.sigma_eff if e.source == vertex else -e.sigma_eff

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "prime": self.prime,
            "n": self.n,
            "mG": self.mG,
            "components": [c.to_json() for c in self.components],
            "edges": [e.to_json() for e in self.edges],
            "signatures": [dict(sig) for sig in self.signatures],
        }

    @classmethod
    def from_json(cls, doc):
        """The graph of a JSON document.  The integer fields must be
        integers and the component ids and edge ends strings (TypeError
        otherwise), and mG at least 1 (ValueError)."""
        mG = operator.index(doc.get("mG", 1))
        if mG < 1:
            raise ValueError(f"mG = {mG} is not a positive integer")
        return cls(
            prime=operator.index(doc["prime"]),
            n=operator.index(doc["n"]),
            mG=mG,
            components=tuple(Component.from_json(c)
                             for c in doc["components"]),
            edges=tuple(GraphEdge.from_json(e) for e in doc["edges"]),
            signatures=tuple(_signature_from_json(sig)
                             for sig in doc.get("signatures", [])),
        )


def _name(value, field: str) -> str:
    """A component name read from JSON: a string, TypeError otherwise."""
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string, not "
                        f"{type(value).__name__}")
    return value


def _signature_from_json(sig) -> dict:
    """A copy of one signature entry; to_json copies it back, so both
    directions take mappings only."""
    if not isinstance(sig, Mapping):
        raise TypeError(f"signature entry must be a mapping, not "
                        f"{type(sig).__name__}")
    return dict(sig)


# -- validators --------------------------------------------------------------

def validate_structure(g: DecoratedGraph):
    """Structural rules of the stable reduction; returns a list of
    violations (code, detail)."""
    violations = []
    try:
        parent = g._parent
    except Disconnected as exc:
        return [("tree", str(exc))]

    real = [c for c in g.components if c.kind != "augmented"]

    def comp_neighbors(cid):
        return [g.component(nb) for nb in g.neighbors(cid)
                if g.component(nb).kind != "augmented"]

    for c in real:
        nbs = comp_neighbors(c.id)
        # a tail is a non-original component meeting exactly one component
        if c.kind == "tail" and (len(nbs) != 1 or c.kind == "original"):
            violations.append(
                ("tail-degree", f"{c.id} marked tail but meets {len(nbs)}")
            )
        if c.kind != "tail" and c.kind != "original" and len(nbs) == 1:
            violations.append(
                ("interior-degree", f"{c.id} meets one component only")
            )
        # etale components are tails
        if c.etale and not c.is_tail:
            violations.append(
                ("etale-non-tail", f"{c.id} is etale but not a tail")
            )
        # the neighbor of a p^a-tail has strictly larger inertia
        if c.is_tail and len(nbs) == 1:
            if nbs[0].inertia_exponent <= c.inertia_exponent:
                violations.append(
                    ("tail-neighbor-inertia",
                     f"tail {c.id} (p^{c.inertia_exponent}) meets "
                     f"{nbs[0].id} (p^{nbs[0].inertia_exponent})")
                )
        # a point branched of index p^a * s specializes to a p^a-component
        for pt, a in c.branch_points.items():
            if a != c.inertia_exponent:
                violations.append(
                    ("branch-point-specialization",
                     f"point {pt} (p-exponent {a}) on {c.id} "
                     f"(p^{c.inertia_exponent})")
                )
        # monotonicity: inertia does not increase outward
        par = parent.get(c.id)
        if par is not None and g.component(par).kind != "augmented":
            if c.inertia_exponent > g.component(par).inertia_exponent:
                violations.append(
                    ("monotonic",
                     f"inertia increases from {par} to {c.id}")
                )

    if g.cyclic:
        for c in real:
            for nb in comp_neighbors(c.id):
                if nb.inertia_exponent - c.inertia_exponent >= 2:
                    violations.append(
                        ("inertia-jump≥2",
                         f"{c.id} (p^{c.inertia_exponent}) meets "
                         f"{nb.id} (p^{nb.inertia_exponent})")
                    )
        for c in real:
            if c.branch_points:
                continue
            nbs = comp_neighbors(c.id)
            if any(nb.inertia_exponent > c.inertia_exponent for nb in nbs):
                continue
            if len(nbs) < 3:
                violations.append(
                    ("two-contract",
                     f"{c.id} has no branch point, no larger-inertia "
                     f"neighbor, and only {len(nbs)} neighbors")
                )
    return violations


def check_vanishing_cycles(g: DecoratedGraph) -> Fraction:
    """Residual of  sum_new (sigma_b - 1) + sum_prim sigma_b - 1  over the
    etale tails; zero iff the vanishing-cycles count holds."""
    acc = Fraction(0)
    for c in g.components:
        if not (c.is_tail and c.etale):
            continue
        if c.sigma_b is None:
            raise MissingSigma(f"etale tail {c.id} has no sigma_b")
        if c.tail_kind == "new":
            acc += c.sigma_b - 1
        else:
            acc += c.sigma_b
    return acc - 1


def check_local_vanishing(g: DecoratedGraph) -> dict:
    """Residual of  sum_{s(e)=v} (sigma_eff_e - 1) - (2 g_v - 2)  at each
    component carrying deformation data (inertia exponent > 0)."""
    residuals = {}
    for c in g.components:
        if c.kind == "augmented" or c.inertia_exponent == 0:
            continue
        incident = g._adjacency.get(c.id, ())
        acc = Fraction(0)
        for _, e in incident:
            s = g.signed_sigma_eff(c.id, e)
            if s is None:
                raise MissingSigmaEff(
                    f"edge {e.source}-{e.target} has no sigma_eff"
                )
            acc += s
        residuals[c.id] = acc - len(incident) - (2 * c.genus - 2)
    return residuals


def sigma_eff_outward(g: DecoratedGraph, source: str, target: str) -> Fraction:
    """sigma_eff of the outward edge source -> target, recomputed from the
    decorations:  sigma_eff - 1 = sum_{b in B_e} (sigma_b - 1) - |Pi_e|,
    B_e the etale tails at-or-outward of the target and Pi_e the wild branch
    points specializing there."""
    edge = g.outward_edge(source, target)  # raises EdgeNotOutward
    if g.component(target).kind == "augmented":
        return Fraction(0)
    acc = Fraction(1)
    for cid in g.subtree(target):
        c = g.component(cid)
        if c.kind == "augmented":
            continue
        if c.is_tail and c.etale:
            if c.sigma_b is None:
                raise MissingSigma(f"etale tail {c.id} has no sigma_b")
            acc += c.sigma_b - 1
        for pt, a in c.branch_points.items():
            if a >= 1:
                acc -= 1
    return acc


def effective_different_profile(g: DecoratedGraph) -> dict:
    """Telescopes the effective different outward from the original
    component: the seed is (r - 1) + p/(p - 1) for a p^r original component
    with multiplicative deformation data, and each outward edge subtracts
    sigma_eff * epaisseur."""
    p = g.prime
    root = g.root()
    r = root.inertia_exponent
    if r < 1:
        raise NegativeDifferent("original component must be inseparable")
    seed = Fraction(r - 1) + Fraction(p, p - 1)
    profile = {root.id: seed}
    kids = g._children
    stack = [root.id]
    while stack:
        cur = stack.pop()
        for kid in kids[cur]:
            c = g.component(kid)
            if c.kind == "augmented":
                continue
            e = g.outward_edge(cur, kid)
            s = g.signed_sigma_eff(cur, e)
            if s is None or e.epaisseur is None:
                raise MissingSigmaEff(
                    f"edge {cur}-{kid} lacks sigma_eff or epaisseur"
                )
            val = profile[cur] - s * e.epaisseur
            if val < 0:
                raise NegativeDifferent(
                    f"effective different {val} < 0 at {kid}"
                )
            if c.is_tail and c.etale and val != 0:
                raise NegativeDifferent(
                    f"effective different {val} != 0 at etale tail {kid}"
                )
            profile[kid] = val
            stack.append(kid)
    return profile


def tail_invariant_checks(g: DecoratedGraph):
    """Bounds and integrality for tail invariants; violations as data."""
    violations = []
    for c in g.components:
        if not c.is_tail:
            continue
        if c.sigma_b is None:
            continue
        if c.inseparable_tail and c.sigma_b.denominator != 1:
            violations.append(
                ("inseparable-sigma-integer",
                 f"inseparable tail {c.id} has sigma_b = {c.sigma_b}")
            )
        if c.tail_kind == "new" and c.sigma_b < 1 + Fraction(1, g.mG):
            violations.append(
                ("new-tail-bound",
                 f"new tail {c.id} has sigma_b = {c.sigma_b} "
                 f"< 1 + 1/{g.mG}")
            )
        if g.mG > 1 and (c.tail_kind == "new" or c.inseparable_tail):
            violations.append(
                ("no-new-or-inseparable",
                 f"{c.id} is a {'new' if c.tail_kind == 'new' else ''}"
                 f"{' inseparable' if c.inseparable_tail else ''} tail "
                 f"but the prime-to-p action is nontrivial")
            )
    return violations


def export_graph(g: DecoratedGraph) -> str:
    """The graph in Graphviz DOT."""
    lines = ["graph stable_reduction {"]
    for c in g.components:
        if c.kind == "augmented":
            label = f"{c.id}"
            shape = "plaintext"
        else:
            label = f"{c.id}\\np^{c.inertia_exponent}"
            if c.genus:
                label += f" g={c.genus}"
            shape = "ellipse" if c.kind != "original" else "doublecircle"
        lines.append(f'  "{c.id}" [label="{label}", shape={shape}];')
    for e in g.edges:
        attrs = []
        if e.sigma_eff is not None:
            attrs.append(f"σᵉᶠᶠ={ratstr(e.sigma_eff)}")
        if e.epaisseur is not None:
            attrs.append(f"ε={ratstr(e.epaisseur)}")
        label = ", ".join(attrs)
        lines.append(f'  "{e.source}" -- "{e.target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
