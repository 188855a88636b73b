"""Tracer for the benchmark's traced run.

The tracer wraps the public functions that ``padic_sr.analyze`` reaches, from
outside the package: no file of the package changes.  A *stage* wrapper
records a span ``[name, start_ns, end_ns, parent, cover]``; a *counted*
wrapper only increments a call counter, so the hot inner calls (tower
multiplication, falling binomials, tail bounds) add no span bookkeeping to the
stage times around them.

Each wrapper is installed in every ``padic_sr`` module namespace that holds
the original function (``analyzer`` imports ``expand_disk`` and friends by
name), and methods are replaced on their class.  ``Tracer.installed()``
restores every original on exit, so code run outside it is unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from time import perf_counter_ns

#: (layer name, module, class or None, attribute) of each spanned stage.
#: The five graph validators ``analyze`` calls share the layer ``graph.checks``.
STAGES = (
    ("analyzer.new_tail_locus", "padic_sr.analyzer", None, "new_tail_locus"),
    ("analyzer.build_stable_graph", "padic_sr.analyzer", None,
     "build_stable_graph"),
    ("analyzer.stab_field_tower", "padic_sr.analyzer", None,
     "stab_field_tower"),
    ("analyzer.conductor_bound", "padic_sr.analyzer", None, "conductor_bound"),
    ("series.expand_disk", "padic_sr.series", None, "expand_disk"),
    ("series.classify_torsor_reduction", "padic_sr.series", None,
     "classify_torsor_reduction"),
    ("series.check_tail_dominated", "padic_sr.series", None,
     "check_tail_dominated"),
    ("tower.norm", "padic_sr.tower", "Tower", "norm"),
    ("tower.inverse", "padic_sr.tower", "Tower", "inverse"),
    ("tower.adjoin_radical", "padic_sr.tower", "Tower", "adjoin_radical"),
    ("tower.square_class_K2_K3", "padic_sr.tower", None, "square_class_K2_K3"),
    ("ramification.kummer_step_conductor", "padic_sr.ramification", None,
     "kummer_step_conductor"),
    ("graph.checks", "padic_sr.graph", None, "validate_structure"),
    ("graph.checks", "padic_sr.graph", None, "tail_invariant_checks"),
    ("graph.checks", "padic_sr.graph", None, "check_vanishing_cycles"),
    ("graph.checks", "padic_sr.graph", None, "check_local_vanishing"),
    ("graph.checks", "padic_sr.graph", None, "effective_different_profile"),
)

#: Hot inner calls: counted, never spanned.
COUNTED = (
    ("tower.mul", "padic_sr.tower", "TowerElement", "__mul__"),
    ("series.binom_falling", "padic_sr.series", None, "binom_falling"),
    ("series.tail_bound", "padic_sr.series", None, "tail_bound"),
)

#: Name of the span the benchmark opens around each ``analyze`` call.
ROOT = "analyze"


class Tracer:
    """Spans and call counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, cover]
        self._stack = []
        self._cells = {}  # counted layer -> one-element list
        self._installed = []  # (owner, attribute, original)
        self.cover = -1

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.cover]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, cover, fn, *args):
        """Call fn(*args) inside the root span of cover number ``cover``."""
        self.cover = cover
        return self._span_wrapper(ROOT, fn)(*args)

    # -- installation ---------------------------------------------------------

    def _install(self, name, module, cls, attr, make):
        mod = sys.modules[module]
        if cls is not None:
            owner = getattr(mod, cls)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(name, original))
            self._installed.append((owner, attr, original))
            return
        original = getattr(mod, attr)
        wrapper = make(name, original)
        for mname, m in list(sys.modules.items()):
            if mname != "padic_sr" and not mname.startswith("padic_sr."):
                continue
            if getattr(m, attr, None) is original:
                setattr(m, attr, wrapper)
                self._installed.append((m, attr, original))

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        try:
            for target in STAGES:
                self._install(*target, self._span_wrapper)
            for target in COUNTED:
                self._install(*target, self._count_wrapper)
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------

    def calls(self):
        """Call counts per layer: span counts for stages, counters otherwise."""
        out = Counter(rec[0] for rec in self.spans)
        for name, cell in self._cells.items():
            out[name] += cell[0]
        return out

    def self_ns(self):
        """Total self time per layer: span duration minus its children's."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = Counter()
        for i, rec in enumerate(self.spans):
            out[rec[0]] += rec[2] - rec[1] - child[i]
        return out

    def total_ns(self):
        """Total inclusive time per layer; a span nested in a span of the
        same layer is not counted twice."""
        out = Counter()
        spans = self.spans
        for rec in spans:
            parent = rec[3]
            while parent >= 0 and spans[parent][0] != rec[0]:
                parent = spans[parent][3]
            if parent < 0:
                out[rec[0]] += rec[2] - rec[1]
        return out

    def to_json(self):
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "cover"],
            "spans": [[index[r[0]], r[1], r[2], r[3], r[4]]
                      for r in self.spans],
            "calls": dict(sorted(self.calls().items())),
        }
