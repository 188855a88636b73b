"""Mutation check of the certification path: every check can fail.

Each entry of MUTANTS is a one-line change of one check, with the tests
that must fail on it.  For each mutant the runner copies the tree (src/,
tests/, perfbench/ and pyproject.toml) to a temporary directory, applies the
one substitution there, and runs the named tests in one pytest run, the
mutants one after another.  A mutant whose tests all pass survives, and is
reported.  EQUIVALENT lists mutants that no input can tell from the
original, each with the reason; they are not run.  Before the mutants, the
union of the named tests must pass on an unchanged copy.

Pytest does not collect this file.  Run it from the root of the repository:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the mutants named
    python tests/mutants.py --list     # names, sites and reasons, no runs

It exits 0 when every mutant run is killed, 1 when one survives, and 2
when the baseline fails, a substitution no longer matches its file once,
or pytest stops for another reason than failing tests.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

SERIES = "src/padic_sr/series.py"
ANALYZER = "src/padic_sr/analyzer.py"
GRAPH = "src/padic_sr/graph.py"
TS = "tests/test_series.py::"
TA = "tests/test_analyzer.py::"
TG = "tests/test_graph.py::"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest node ids expected to fail
    why: str = ""  # for EQUIVALENT: why no input can tell it apart


MUTANTS = [
    # -- the graph conjuncts of analyze's certified, in the shape's sound ---
    Mutant("certified-violations", ANALYZER,
           "        not violations\n", "        True\n",
           (TA + "test_each_graph_check_reaches_certified",)),
    Mutant("certified-residual", ANALYZER,
           "        and residual == 0\n", "",
           (TA + "test_each_graph_check_reaches_certified",)),
    Mutant("certified-local", ANALYZER,
           "        and all(v == 0 for v in local.values())\n", "",
           (TA + "test_each_graph_check_reaches_certified",)),
    Mutant("certified-shape", ANALYZER,
           " and shape.sound,\n", ",\n",
           (TA + "test_each_graph_check_reaches_certified",)),
    # -- the graph identities ----------------------------------------------
    Mutant("vanishing-cycles-zero", GRAPH,
           "    return acc - 1\n", "    return Fraction(0)\n",
           (TG + "test_doctored_graphs_break_each_identity",)),
    Mutant("local-vanishing-genus-0", GRAPH,
           "        residuals[c.id] = acc - len(incident) - (2 * c.genus - 2)",
           "        residuals[c.id] = (0 if c.genus == 0 else\n"
           "            acc - len(incident) - (2 * c.genus - 2))",
           (TG + "test_doctored_graphs_break_each_identity",)),
    Mutant("structure-etale-interior", GRAPH,
           "        if c.etale and not c.is_tail:", "        if False:",
           (TG + "test_mutated_fixture_rejected",)),
    Mutant("tail-inseparable-integer", GRAPH,
           "        if c.inseparable_tail and c.sigma_b.denominator != 1:",
           "        if False:",
           (TG + "test_mutated_fixture_rejected",)),
    Mutant("tail-new-bound", GRAPH,
           'if c.tail_kind == "new" and c.sigma_b < 1 + Fraction(1, g.mG):',
           "if False:",
           (TG + "test_mutated_fixture_rejected",)),
    Mutant("upstairs-conductor", ANALYZER,
           'cond = 1 if (case != "i" and i >= s) else 2',
           'cond = 1 if (case != "i" and i > s) else 2',
           ("tests/test_golden.py",)),
    # -- the tail bound and its check --------------------------------------
    Mutant("tail-bound-j-range", SERIES,
           "for j in range(max(1, l - k), l + 1))",
           "for j in range(max(1, l - k), l))",
           (TS + "test_tail_bound_closed_form_matches_minimum",)),
    Mutant("tail-check-per-l-start", SERIES,
           "    for l in range(L + 1, q):", "    for l in range(L + 2, q):",
           (TS + "test_tail_check_matches_per_l_reference",)),
    Mutant("tail-premise-v(d)", SERIES,
           "    if v_d != 0:", "    if False:",
           (TS + "test_each_tail_premise_is_checked",)),
    Mutant("tail-premise-v(d-1)", SERIES,
           "    if v_d1 != n - s:", "    if False:",
           (TS + "test_each_tail_premise_is_checked",)),
    Mutant("tail-premise-v(b)", SERIES,
           "    if vp_int(spec.b, spec.p) != n - s:", "    if False:",
           (TS + "test_each_tail_premise_is_checked",)),
    # -- the rational centre -----------------------------------------------
    Mutant("rational-h1", SERIES,
           "    if a * delta1 + b * delta:  # T_1 = 0",
           "    if False:  # T_1 = 0",
           (TS + "test_closed_form_names_each_failed_fact",)),
    Mutant("rational-c2-power-of-w", SERIES,
           "(vp_int(t2, p) - 2 * w) != T", "(vp_int(t2, p) - w) != T",
           (TS + "test_large_n_covers_certify",)),
    Mutant("rational-n1-length", SERIES,
           "    L = 3 if p == 3 and n == 1 else 2\n", "    L = 2\n",
           (TS + "test_rational_centre_cost_does_not_grow_in_p",)),
    # -- the cubic centre of case (iii) ------------------------------------
    Mutant("expand-disk-p-and-s", SERIES,
           "    if (p, s) != (3, 1) or n < 2 or", "    if n < 2 or",
           (TS + "test_expand_disk_refuses_other_centres",)),
    Mutant("expand-disk-n", SERIES,
           "    if (p, s) != (3, 1) or n < 2 or", "    if (p, s) != (3, 1) or",
           (TS + "test_expand_disk_refuses_other_centres",)),
    Mutant("expand-disk-centre", SERIES,
           "d != CubicCentre((a, 1, 0), m, _cube_radicand(n, s, b)):",
           "False:",
           (TS + "test_expand_disk_refuses_other_centres",)),
    Mutant("expand-disk-k3", SERIES,
           "         -ab * m * (m - 2) // 2, 0)))",
           "         -ab * m * (m - 1) // 2, 0)))",
           (TS + "test_closed_forms_of_k1_k2_k3_sympy",)),
    Mutant("cubic-c1-deleted", SERIES,
           "    if slope + _val3(k1, E, et) <= E * n:", "    if False:",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c1-strict", SERIES,
           "    if slope + _val3(k1, E, et) <= E * n:",
           "    if slope + _val3(k1, E, et) < E * n:",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c3-deleted", SERIES,
           "    if 3 * slope + _val3(k3, E, et) <= E * n:", "    if False:",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c3-strict", SERIES,
           "    if 3 * slope + _val3(k3, E, et) <= E * n:",
           "    if 3 * slope + _val3(k3, E, et) < E * n:",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c3-power-of-u", SERIES,
           "    if 3 * slope + _val3(k3, E, et) <= E * n:",
           "    if 2 * slope + _val3(k3, E, et) <= E * n:",
           (TS + "test_verdict_p3_condition_ii",)),
    Mutant("cubic-c2-deleted", SERIES,
           "    if 2 * slope + _val3(k2, E, et) != T:", "    if False:",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-y-sign", SERIES,
           "    y = (3 ** M * k3[0] - m ** 3 * exp.d.r,",
           "    y = (3 ** M * k3[0] + m ** 3 * exp.d.r,",
           (TS + "test_verdict_p3_condition_ii",)),
    Mutant("cubic-y-zero", SERIES,
           "    if any(y) and 3 * slope", "    if 3 * slope",
           (TS + "test_cubic_certificate_matches_the_triple_recurrence",)),
    Mutant("cubic-tail-length", SERIES,
           "_tail_outcome(_Shape(p, n, s), v_e, 3, threshold, True)",
           "_tail_outcome(_Shape(p, n, s), v_e, 2, threshold, True)",
           (TS + "test_verdict_p3_condition_ii",)),
    # -- the shape records of the classifiers: a key dropped ------------------
    # the case (v) record read as if every cover had s = 1, and the rational
    # one as if every radius had the locus's denominator 2(p - 1)
    Mutant("record-key-s", SERIES,
           "        2, n, s, v_e.numerator, v_e.denominator)",
           "        2, n, 1, v_e.numerator, v_e.denominator)",
           (TS + "test_a_doctored_radius_gets_its_own_record",)),
    Mutant("record-key-den", SERIES,
           "        p, n, spec.s, v_e.numerator, v_e.denominator)",
           "        p, n, spec.s, v_e.numerator, 2 * (p - 1))",
           (TS + "test_a_doctored_radius_gets_its_own_record",)),
    # -- case (v) ------------------------------------------------------------
    Mutant("p2-congruence-strict", SERIES,
           "vx + 2 * slope >= 4 * (2 * n + 2)",
           "vx + 2 * slope > 4 * (2 * n + 2)",
           (TS + "test_case_v_closed_form_matches_the_tower_path",)),
    Mutant("w-step-new-tail-locus", ANALYZER,
           "        _certify_p2_step(b // 2 ** (n - s), (2 * n - s) % 2)\n",
           "        pass\n",
           (TA + "test_p2_identity_grid_builds_no_field",)),
    Mutant("w-step-conductor", ANALYZER,
           "        _certify_p2_step(spec.b // 2 ** (n - s), 1)\n",
           "        pass\n",
           (TA + "test_case_v_conductor_bound_matches_the_tower_path",)),
    Mutant("w-step-analyze", ANALYZER,
           "        _certify_p2_step(spec.b // 2 ** (spec.n - spec.s), 1)\n",
           "        pass\n",
           (TA + "test_p2_identity_grid_builds_no_field",)),
    # -- the cover's own fields of the report -------------------------------
    Mutant("fill-meta", ANALYZER,
           '"meta": {**tower["meta"], "a": spec.a, "b": spec.b}},',
           '"meta": {**tower["meta"]}},',
           (TA + "test_report_template_matches_the_per_cover_path",)),
    Mutant("fill-certificate", ANALYZER,
           '        "certificate": verdict.to_json(),\n',
           '        "certificate": None,\n',
           (TA + "test_report_template_matches_the_per_cover_path",)),
    # -- each copy of a component of the template ----------------------------
    Mutant("copy-branch-points", ANALYZER,
           'doc["branch_points"] = doc["branch_points"].copy()',
           'doc["branch_points"] = doc["branch_points"]',
           (TA + "test_no_two_reports_share_a_container",)),
    Mutant("copy-disk", ANALYZER,
           'doc["disk"] = doc["disk"].copy()', 'doc["disk"] = doc["disk"]',
           (TA + "test_no_two_reports_share_a_container",)),
    Mutant("copy-upstairs", ANALYZER,
           'doc["upstairs"] = doc["upstairs"].copy()',
           'doc["upstairs"] = doc["upstairs"]',
           (TA + "test_no_two_reports_share_a_container",)),
    Mutant("copy-component", ANALYZER,
           "    doc = doc.copy()\n", "",
           (TA + "test_no_two_reports_share_a_container",)),
    # -- the cover rule, checked when a CoverSpec is built -------------------
    Mutant("post-init-shape", SERIES,
           "        _stable_case(self.p, self.n, self.s)\n", "",
           (TA + "test_conductor_bound_refuses_an_s_no_cover_has",
            TS + "test_p2_certificate_refuses_a_non_cover")),
    Mutant("post-init-cover-rule", SERIES,
           "        _check_cover(self)\n", "",
           (TA + "test_cover_rule_names_each_broken_fact",
            TA + "test_only_a_cover_certifies")),
    # -- each stage that trusts the rule refuses any spec but a CoverSpec ---
    Mutant("expand-disk-cover-spec", SERIES,
           '    _require_cover(spec, "expand_disk")\n', "",
           (TS + "test_expand_disk_refuses_other_centres",
            TS + "test_cubic_certificate_checks_the_cover_rule")),
    Mutant("p2-torsor-cover-spec", SERIES,
           '    _require_cover(spec, "classify_p2_torsor")\n', "",
           (TS + "test_p2_certificate_refuses_a_non_cover",)),
    Mutant("p2-torsor-odd-p", SERIES,
           "    if spec.p != 2:\n", "    if False:\n",
           (TS + "test_p2_certificate_refuses_an_odd_p",)),
    Mutant("new-tail-locus-cover-spec", ANALYZER,
           '    _require_cover(spec, "new_tail_locus")\n', "",
           (TA + "test_cover_rule_names_each_broken_fact",
            TA + "test_every_spec_stage_refuses_an_s_no_cover_has")),
    Mutant("conductor-cover-spec", ANALYZER,
           '    _require_cover(spec, "conductor_bound")\n', "",
           (TA + "test_cover_rule_names_each_broken_fact",
            TA + "test_every_spec_stage_refuses_an_s_no_cover_has")),
    Mutant("cover-a-plus-b", SERIES,
           "    if a + b == 0:", "    if False:",
           (TA + "test_cover_rule_names_each_broken_fact",
            TA + "test_conductor_bound_refuses_a_zero_a_plus_b")),
    Mutant("cover-v(b)", SERIES,
           "    if not b or vp_int(b, p) != n - s:", "    if False:",
           (TA + "test_cover_rule_names_each_broken_fact",)),
    Mutant("cover-b-zero", SERIES,
           "    if not b or vp_int(b, p) != n - s:",
           "    if vp_int(b, p) != n - s:",
           (TA + "test_cover_rule_names_each_broken_fact",)),
    Mutant("cover-v(a+b)", SERIES,
           "    if (a + b) % p == 0:", "    if False:",
           (TA + "test_cover_rule_names_each_broken_fact",)),
    Mutant("cover-v(a)", SERIES,
           "    if a % p == 0:", "    if False:",
           (TA + "test_cover_rule_names_each_broken_fact",)),
]

EQUIVALENT = [
    Mutant("rational-n1-v3-of-3", SERIES,
           "(vp_int(t3, p) - 3 * w - 1) <= T", "(vp_int(t3, p) - 3 * w) <= T",
           (), "past the premises and v(c_2) = tau, v(c_3) >= 9/4 > tau = "
           "3/2 when p = 3 and n = 1, so the check never fails, and neither "
           "does this weaker form (series docstring, \"Rational centres\")"),
    Mutant("cubic-y-deleted", SERIES,
           "    if any(y) and 3 * slope", "    if False and 3 * slope", (),
           "past v(c_2) = tau, v(e) = n - 1/4, and v(Y) >= 4n - 1 gives "
           "v(c_3 - c_1^3/3^M) >= 2n + 1/4 > tau (series docstring, "
           "\"Valuations without coefficients\")"),
    Mutant("cubic-y-power-of-u", SERIES,
           "    if any(y) and 3 * slope", "    if any(y) and 2 * slope", (),
           "the margin of the Y check is at least n - 1/4 >= 7/4, above "
           "v(u) = 3/4"),
    Mutant("cubic-tail-deleted", SERIES,
           "failure = _tail_outcome(_Shape(p, n, s), v_e, 3, threshold, True)",
           "failure = None",
           (),
           "past v(c_2) = tau, v(e) = n - 1/4 and s = 1, and the bound clears "
           "tau past c_3 there (series docstring, \"The expansion length\")"),
]


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        else:
            shutil.copy2(src, dest / name)


def _apply(dest: Path, mutant: Mutant) -> None:
    path = dest / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: {mutant.old!r} occurs "
                          f"{text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _pytest(dest: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=dest, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def _run(mutant=None, tests=()) -> int:
    """The pytest exit code of tests on a fresh copy, mutated if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        if mutant is not None:
            _apply(dest, mutant)
        return _pytest(dest, tests)


def main(argv) -> int:
    if argv[:1] == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.path}; killed by {', '.join(m.tests)}")
        for m in EQUIVALENT:
            print(f"{m.name} (equivalent, not run): {m.path}; {m.why}")
        return 0
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 2
    chosen = [known[name] for name in argv] if argv else MUTANTS
    for m in chosen + EQUIVALENT:  # every substitution still applies
        text = (ROOT / m.path).read_text()
        if text.count(m.old) != 1:
            print(f"{m.name}: the substitution matches {text.count(m.old)} "
                  f"times in {m.path}")
            return 2
    union = sorted({t for m in chosen for t in m.tests})
    code = _run(tests=union)
    if code != 0:
        print(f"baseline: the named tests fail on the unchanged tree "
              f"(pytest exit {code})")
        return 2
    survived, errors = [], []
    for m in chosen:
        code = _run(m, m.tests)
        status = {0: "SURVIVED", 1: "killed"}.get(code, f"error {code}")
        print(f"{m.name}: {status}", flush=True)
        if code == 0:
            survived.append(m.name)
        elif code != 1:
            errors.append(m.name)
    print(f"{len(chosen)} run, {len(chosen) - len(survived) - len(errors)} "
          f"killed, {len(survived)} survived, {len(errors)} errors; "
          f"{len(EQUIVALENT)} equivalent, not run")
    for name in survived:
        print(f"survived: {name}")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
