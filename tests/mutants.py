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
TOWER = "src/padic_sr/tower.py"
METACYCLIC = "src/padic_sr/metacyclic.py"
TS = "tests/test_series.py::"
TA = "tests/test_analyzer.py::"
TG = "tests/test_graph.py::"
TD = "tests/test_divisibility.py::"
TP = "tests/test_tail_proofs.py::"
FORGED = TD + "test_cubic_certificate_matches_the_vp_oracle_on_forged_triples"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest node ids expected to fail
    why: str = ""  # for EQUIVALENT: why no input can tell it apart


MUTANTS = [
    # -- the graph conjuncts of certified, in the shape's template -----------
    Mutant("certified-violations", ANALYZER,
           "        not violations\n", "        True\n",
           (TA + "test_each_graph_check_reaches_certified",)),
    Mutant("certified-residual", ANALYZER,
           "        and residual == 0\n", "",
           (TA + "test_each_graph_check_reaches_certified",)),
    Mutant("certified-local", ANALYZER,
           "        and all(v == 0 for v in local.values())\n", "",
           (TA + "test_each_graph_check_reaches_certified",)),
    Mutant("certified-template", ANALYZER,
           '        "certified": doc["certified"],\n',
           '        "certified": True,\n',
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
    Mutant("pieces-xdprime-radius", ANALYZER,
           "s - 1, n - s + Fraction(2, 3), \"new\",",
           "s - 1, n - s + Fraction(1, 3), \"new\",",
           (TA + "test_case_record_matches_the_oracle",)),
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
           "             -ab * m * (m - 2) // 2, 0))",
           "             -ab * m * (m - 1) // 2, 0))",
           (TS + "test_closed_forms_of_k1_k2_k3_sympy",)),
    Mutant("cubic-c1-deleted", SERIES,
           "    if not _divisible(k1, q1):", "    if False:",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c1-strict", SERIES,
           "    k1 = _exponents_above(E * n - slope, E, et)",
           "    k1 = _exponents_above(E * n - slope - 1, E, et)",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c3-deleted", SERIES,
           "    if not _divisible(k3, q3):", "    if False:",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c3-strict", SERIES,
           "_exponents_above(E * n - 3 * slope, E, et)",
           "_exponents_above(E * n - 3 * slope - 1, E, et)",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c3-power-of-u", SERIES,
           "_exponents_above(E * n - 3 * slope, E, et)",
           "_exponents_above(E * n - 2 * slope, E, et)",
           (TS + "test_verdict_p3_condition_ii",)),
    # every coordinate's exponent one lower: each triple test is weaker
    Mutant("cubic-exponent", SERIES,
           "// E + 1, 0) for j in range(3))", "// E, 0) for j in range(3))",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    # a coordinate dropped from every triple test
    Mutant("cubic-divisible-c0", SERIES,
           "    return not (cs[0] % qs[0] or cs[1] % qs[1] or cs[2] % qs[2])",
           "    return not (cs[1] % qs[1] or cs[2] % qs[2])",
           (TD + "test_certificates_match_the_vp_oracle_on_doctored_radii",)),
    # only a forged K_2 at a small radius has a t^2 term below tau
    Mutant("cubic-divisible-c2", SERIES,
           "    return not (cs[0] % qs[0] or cs[1] % qs[1] or cs[2] % qs[2])",
           "    return not (cs[0] % qs[0] or cs[1] % qs[1])",
           (FORGED,)),
    Mutant("cubic-c2-deleted", SERIES,
           "    if not _divisible(k2, q2) or not k2[j] % h2:",
           "    if False:",
           (TS + "test_cubic_certificate_names_each_failed_fact",)),
    Mutant("cubic-c2-exponent", SERIES,
           "    k2 = _exponents_above(T - 2 * slope - 1, E, et)",
           "    k2 = _exponents_above(T - 2 * slope - 1 - E, E, et)",
           (TS + "test_verdict_p3_condition_ii",)),
    Mutant("cubic-c2-exact", SERIES,
           "    if not _divisible(k2, q2) or not k2[j] % h2:",
           "    if not _divisible(k2, q2):",
           (TD + "test_certificates_match_the_vp_oracle_on_doctored_radii",)),
    Mutant("cubic-y-sign", SERIES,
           "    y = (qM * k3[0] - m ** 3 * r,",
           "    y = (qM * k3[0] + m ** 3 * r,",
           (TS + "test_verdict_p3_condition_ii",)),
    # the Y check cannot fail on an expansion of expand_disk past the
    # clauses before it (series docstring, "Valuations without
    # coefficients"), but it can on a forged K_3
    Mutant("cubic-y-deleted", SERIES,
           "    if not _divisible(y, qy):", "    if False:",
           (FORGED,)),
    Mutant("cubic-y-power-of-u", SERIES,
           "_exponents_above(T + E * M - 3 * slope, E, et)",
           "_exponents_above(T + E * M - 2 * slope, E, et)",
           (FORGED,)),
    Mutant("cubic-y-exponent", SERIES,
           "_exponents_above(T + E * M - 3 * slope, E, et)",
           "_exponents_above(T + E * M - 3 * slope + E, E, et)",
           (FORGED,)),
    Mutant("cubic-tail-length", SERIES,
           "    check_tail_dominated(spec, v_e, 3, spec.n + Fraction(1, 2))",
           "    check_tail_dominated(spec, v_e, 2, spec.n + Fraction(1, 2))",
           (TS + "test_verdict_p3_condition_ii",)),
    # no verdict tells these apart: past v(c_2) = tau an expansion of
    # expand_disk has the locus radius, where the bound clears tau past c_3
    # (series docstring, "The expansion length"); the test doctors the
    # check to fail, and counts its calls
    Mutant("cubic-tail-deleted", SERIES,
           "    check_tail_dominated(spec, v_e, 3, spec.n + Fraction(1, 2))\n",
           "",
           (TS + "test_cubic_certificate_runs_the_tail_check_last",)),
    Mutant("cubic-tail-first", SERIES,
           "    _, powers, verdict = _cubic_shape(spec.n, spec.s, v_e)\n",
           "    _, powers, verdict = _cubic_shape(spec.n, spec.s, v_e)\n"
           "    check_tail_dominated(spec, v_e, 3, spec.n + Fraction(1, 2))\n",
           (TS + "test_cubic_certificate_runs_the_tail_check_last",)),
    # -- the new-tail verdict of a shape, in its facts -----------------------
    Mutant("verdict-count-exponent", ANALYZER,
           "count=p ** (n - 1),", "count=p ** n,",
           (TS + "test_rational_centre_cost_does_not_grow_in_p",)),
    Mutant("verdict-conductor", ANALYZER,
           'conductor=2, notes=("condition (i)",))',
           'conductor=1, notes=("condition (i)",))',
           (TS + "test_closed_form_matches_the_integer_recurrence",)),
    # p = 3, n = 1: the bound misses tau at l = 3
    Mutant("verdict-rational-length", ANALYZER,
           "3 if p == 3 and n == 1 else 2", "2",
           (TS + "test_rational_centre_cost_does_not_grow_in_p",)),
    # no shape fails its tail check; the test counts one check per
    # certify_tail call and per miss of the shape cache, with its L,
    # threshold and strictness
    Mutant("verdict-tail-deleted", ANALYZER,
           "    check_tail_dominated(facts, facts.v_e, *facts.tail_check)\n",
           "",
           (TS + "test_one_tail_check_per_shape",)),
    # strict, every case (v) shape of s = 1 fails: its bound meets n + 1 at
    # l = 4; the test reads the strictness off the check's arguments
    Mutant("verdict-case-v-strict", ANALYZER,
           "        tail_check = (2, Fraction(n + 1), False)\n",
           "        tail_check = (2, Fraction(n + 1), True)\n",
           (TS + "test_one_tail_check_per_shape",)),
    # -- what the proofs of the verdict pin in the package -------------------
    Mutant("proof-rational-radius", ANALYZER,
           "    v_e = Fraction(2 * n - s + q, 2)\n",
           "    v_e = Fraction(2 * n - s + 2 * q, 2)\n",
           (TP + "test_rational_centre_checks_hold_on_every_cover",)),
    Mutant("proof-cubic-slope", SERIES,
           "    slope = ve - E * (n - s)\n",
           "    slope = ve - E * (n - s) + 1\n",
           (TP + "test_cubic_centre_checks_hold_on_every_cover",)),
    Mutant("proof-case-v-count", ANALYZER,
           "count=2 ** (n - 2),", "count=2 ** (n - 1),",
           (TP + "test_case_v_checks_hold_on_every_cover",)),
    # -- the w steps of case (v) ---------------------------------------------
    Mutant("w-step-new-tail-locus", ANALYZER,
           "        _certify_p2_step(b // 2 ** (n - s), (2 * n - s) % 2)\n",
           "        pass\n",
           (TA + "test_p2_identity_grid_builds_no_field",)),
    Mutant("w-step-certify-tail", ANALYZER,
           "        _certify_p2_step(spec.b // 2 ** (n - s), (2 * n - s) % 2)\n",
           "        pass\n",
           (TD + "test_certificates_match_the_vp_oracle_on_the_grid",)),
    Mutant("w-step-conductor", ANALYZER,
           "        _certify_p2_step(spec.b // 2 ** (n - s), 1)\n",
           "        pass\n",
           (TA + "test_case_v_conductor_bound_matches_the_tower_path",)),
    Mutant("w-step-analyze", ANALYZER,
           "        _certify_p2_step(spec.b // 2 ** (spec.n - spec.s), 1)\n",
           "        pass\n",
           (TA + "test_p2_identity_grid_builds_no_field",)),
    # -- the report: the template's certificate, the cover's own fields ------
    Mutant("fill-meta", ANALYZER,
           '"meta": {**tower["meta"], "a": spec.a, "b": spec.b}},',
           '"meta": {**tower["meta"]}},',
           (TA + "test_report_template_matches_the_per_cover_path",)),
    Mutant("template-certificate", ANALYZER,
           '        "certificate": verdict.to_json(),\n',
           '        "certificate": {},\n',
           (TA + "test_report_template_matches_the_per_cover_path",)),
    Mutant("copy-certificate", ANALYZER,
           '"certificate": {**certificate, '
           '"notes": list(certificate["notes"])}',
           '"certificate": certificate',
           (TA + "test_no_two_reports_share_a_container",)),
    Mutant("copy-certificate-notes", ANALYZER,
           '"notes": list(certificate["notes"])',
           '"notes": certificate["notes"]',
           (TA + "test_no_two_reports_share_a_container",)),
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
    Mutant("init-post-init", SERIES,
           "        self.__post_init__()\n", "",
           (TA + "test_cover_rule_names_each_broken_fact",
            TA + "test_cover_spec_stays_a_frozen_dataclass")),
    Mutant("init-field-types", SERIES,
           "        if not (type(p) is int and type(n) is int",
           "        if False and (type(p) is int and type(n) is int",
           (TA + "test_cover_spec_refuses_non_integer_fields",
            TA + "test_cover_spec_reads_integer_fields_as_plain_ints")),
    # -- indices and original, derived from the swap -------------------------
    Mutant("cover-spec-swaps", SERIES,
           "        elif swaps == _SWAP_1_INF:\n", "        elif True:\n",
           (TA + "test_cover_spec_refuses_swaps_no_normal_form_makes",)),
    Mutant("cover-spec-original", SERIES,
           "swaps, original = _SWAP_0_1, (b, a)",
           "swaps, original = _SWAP_0_1, (a, b)",
           (TA + "test_cover_spec_derives_indices_and_original",)),
    Mutant("cover-spec-indices", SERIES,
           "((qs, q, q) if swaps == _SWAP_0_1",
           "((q, qs, q) if swaps == _SWAP_0_1",
           (TA + "test_cover_spec_derives_indices_and_original",)),
    # -- each stage that trusts the rule refuses any spec but a CoverSpec ---
    Mutant("expand-disk-cover-spec", SERIES,
           '    _require_cover(spec, "expand_disk")\n', "",
           (TS + "test_expand_disk_refuses_other_centres",
            TS + "test_cubic_certificate_checks_the_cover_rule")),
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
           "    if n - s >= b.bit_length() or b % (q := p ** (n - s)) or",
           "    if False and",
           (TA + "test_cover_rule_names_each_broken_fact",)),
    # b = 0 fails the bit-length test before any power of p is built, for
    # any p: without it 0 % (0^0 * 0) divides by zero
    Mutant("cover-b-zero", SERIES,
           "    if n - s >= b.bit_length() or b % (q",
           "    if b % (q",
           (TA + "test_non_prime_p_refused",)),
    Mutant("cover-v(b)-exponent", SERIES,
           "b % (q := p ** (n - s))", "b % (q := p ** (n - s + 1))",
           (TA + "test_cover_rule_names_each_broken_fact",)),
    Mutant("cover-v(b)-exact", SERIES,
           " or not b % (q * p):", ":",
           (TA + "test_cover_rule_names_each_broken_fact",)),
    Mutant("cover-prime", SERIES,
           "    if b:\n        check_prime(p)\n", "",
           (TA + "test_non_prime_p_refused",)),
    # -- branch_signature's capped valuations and the search behind them ----
    Mutant("signature-cap", ANALYZER,
           "    v1 = _vp_capped(b, p, n) if b % p == 0 else 0",
           "    v1 = _vp_capped(b, p, n - 1) if b % p == 0 else 0",
           ("tests/test_golden.py",)),
    Mutant("search-descent", TOWER,
           "    for q, k in reversed(ladder):", "    for q, k in ladder[-1:]:",
           ("tests/test_tower.py::test_capped_search_is_the_capped_valuation",)),
    Mutant("search-cap", TOWER,
           "    while v + k <= cap and not x % q:",
           "    while v + k <= cap + 1 and not x % q:",
           ("tests/test_tower.py::test_capped_search_is_the_capped_valuation",)),
    # -- the signature of a prime-to-p action -------------------------------
    Mutant("faithful-p-minus-1", METACYCLIC,
           "    if (p - 1) % m:", "    if False:",
           ("tests/test_metacyclic.py::test_spec_checks_faithfulness",
            "tests/test_cli.py::"
            "test_signature_refuses_a_group_that_cannot_exist")),
    Mutant("cover-v(a+b)", SERIES,
           "    if (a + b) % p == 0:", "    if False:",
           (TA + "test_cover_rule_names_each_broken_fact",)),
    Mutant("cover-v(a)", SERIES,
           "    if a % p == 0:", "    if False:",
           (TA + "test_cover_rule_names_each_broken_fact",)),
]

EQUIVALENT = []


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
