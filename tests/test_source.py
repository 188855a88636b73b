"""Static checks of the package source, each on its ast.

The certification path has no floats: float literals, float(...) calls,
float-valued math functions and fractional powers are refused.  No module
reads the environment, every public name has a caller (or a listed reason),
and every error class has a raise site.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import padic_sr
from padic_sr import errors
from padic_sr.errors import ArtifactError

#: math functions that return floats
FLOAT_MATH = {"log", "log2", "log10", "log1p", "sqrt", "exp", "pow"}

SOURCES = sorted(Path(padic_sr.__file__).parent.glob("*.py"))

#: the root of the repository
REPO = Path(__file__).resolve().parent.parent

#: the benchmark's tracer, which wraps package functions by name
TRACER = REPO / "perfbench" / "tracer.py"


def _float_uses(tree):
    for node in ast.walk(tree):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            yield where, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield where, "float(...) call"
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            yield where, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield where, f"from math import {alias.name}"
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.Constant)
              and isinstance(node.right.value, float)):
            yield where, f"** {node.right.value!r}"


def test_sources_found():
    names = {path.name for path in SOURCES}
    assert {"tower.py", "series.py", "analyzer.py"} <= names


def test_every_file_parses_as_python_3_10():
    """The package supports Python 3.10, where a test run on 3.11 alone
    would not see 3.11 syntax: every .py under src/, tests/ and
    perfbench/ parses with the 3.10 grammar, and an except* clause, new
    in 3.11, does not."""
    paths = sorted(path for root in ("src", "tests", "perfbench")
                   for path in (REPO / root).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def test_no_floats_in_source():
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in _float_uses(ast.parse(path.read_text(),
                                                     str(path)))]
    assert not found, "\n".join(found)


def test_checker_flags_each_float_form():
    src = ("import math\nfrom math import sqrt\nx = 1.5\ny = float(3)\n"
           "z = math.log(8, 2)\nw = 7 ** 0.5\n")
    kinds = [what for _, what in _float_uses(ast.parse(src))]
    assert "from math import sqrt" in kinds
    assert "float literal 1.5" in kinds
    assert "float(...) call" in kinds
    assert "math.log" in kinds
    assert "** 0.5" in kinds
    assert not list(_float_uses(ast.parse("from math import gcd, isqrt\n"
                                          "k = isqrt(10) ** 2\n")))


def test_benchmark_tracer_targets_exist():
    """Every (module, class, attribute) the benchmark tracer wraps exists,
    so a rename cannot silently break the traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module, cls, attr in tracer.STAGES + tracer.COUNTED:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attr):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert not missing, missing


#: the integer kernel of tower.py, by qualified name: its arithmetic is on
#: Python ints, where int / int is a float, so it divides by // or divmod
INTEGER_KERNEL = (
    "_element", "_reduced", "_mul", "_add", "_common", "_lifted",
    "_is_qth_power_local",
    "TowerElement.__neg__", "TowerElement.__add__", "TowerElement.__sub__",
    "TowerElement.__rsub__", "TowerElement.__mul__", "TowerElement.__pow__",
    "TowerElement.__eq__", "TowerElement.__hash__",
    "Tower.rational", "Tower.coerce", "Tower._mul_nums",
    "Tower._accumulate", "Tower.norm", "Tower.inverse", "Tower.val",
)


def _functions(tree):
    """{qualified name: node} of the module-level functions and methods."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{node.name}.{item.name}"] = item
    return out


def _true_divisions(node):
    for sub in ast.walk(node):
        if (isinstance(sub, (ast.BinOp, ast.AugAssign))
                and isinstance(sub.op, ast.Div)):
            yield sub.lineno


def test_integer_kernel_has_no_true_division():
    """The integer kernel of tower.py never divides with /: an int / int
    would be a float.  A listed name that no longer exists fails too, so
    the list follows renames."""
    path = next(path for path in SOURCES if path.name == "tower.py")
    functions = _functions(ast.parse(path.read_text(), str(path)))
    missing = [name for name in INTEGER_KERNEL if name not in functions]
    assert not missing, missing
    found = [f"tower.py:{line}: / in {name}" for name in INTEGER_KERNEL
             for line in _true_divisions(functions[name])]
    assert not found, "\n".join(found)


def test_division_checker_flags_both_forms():
    src = ("def f(a, b):\n    return a / b\n\n"
           "class C:\n    def g(self, a):\n        a /= 2\n"
           "        return a // 2, divmod(a, 3)\n")
    functions = _functions(ast.parse(src))
    assert set(functions) == {"f", "C.g"}
    assert list(_true_divisions(functions["f"])) == [2]
    assert list(_true_divisions(functions["C.g"])) == [6]


def _product_lines(node):
    """Lines that name itertools.product or import product from itertools."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and sub.attr == "product"
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "itertools"):
            yield sub.lineno
        elif (isinstance(sub, ast.ImportFrom) and sub.module == "itertools"
              and any(alias.name == "product" for alias in sub.names)):
            yield sub.lineno


def test_tower_loops_over_no_digit_vectors():
    """itertools.product, the loop over p^D digit vectors that an
    exhaustive search needs, appears in tower.py only where Tower._basis
    lists the monomial basis, so no exhaustive search comes back."""
    path = next(path for path in SOURCES if path.name == "tower.py")
    tree = ast.parse(path.read_text(), str(path))
    allowed = set(_product_lines(_functions(tree)["Tower._basis"]))
    assert allowed
    found = [f"tower.py:{line}: itertools.product"
             for line in _product_lines(tree) if line not in allowed]
    assert not found, "\n".join(found)
    src = ("import itertools\nfrom itertools import product\n"
           "x = itertools.product(range(2), repeat=3)\n")
    assert list(_product_lines(ast.parse(src))) == [2, 3]


#: the os names that read the process environment
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """Lines that name an environment reader: os.environ, os.getenv, or one
    of them imported from os."""
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in ENV_READERS:
            yield node.lineno, name
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENV_READERS:
                    yield node.lineno, f"from os import {alias.name}"


def test_no_module_reads_the_environment():
    """Every setting is a CLI option or an argument; no module, the CLI
    included, reads an environment variable."""
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in _environment_reads(ast.parse(path.read_text(),
                                                            str(path)))]
    assert not found, "\n".join(found)


def test_environment_checker_flags_each_form():
    src = ("import os\nfrom os import getenv\nx = os.environ['A']\n"
           "y = os.getenv('B')\n")
    assert [what for _, what in _environment_reads(ast.parse(src))] == [
        "from os import getenv", "environ", "getenv"]
    assert not list(_environment_reads(ast.parse("import os\nos.sep\n")))


#: public names with no caller outside their own module, src/padic_sr/
#: __init__.py and perfbench/, each with the reason it stays public
PUBLIC_WITHOUT_CALLER = {
    # return types of public functions
    "DiskExpansion": "return type of expand_disk",
    "SignatureSolution": "return type of signature_solver",
    # the acceptance contract
    "Filtration": "imported by test_acceptance.py",
    "cyclotomic_filtration": "imported by test_acceptance.py",
    "herbrand_convert": "imported by test_acceptance.py",
    "herbrand_phi": "imported by test_acceptance.py",
    "herbrand_psi": "imported by test_acceptance.py",
    "quotient_spec": "imported by test_acceptance.py",
    "signature_solver": "imported by test_acceptance.py",
    # the oracles of the closed forms of conductor_bound, cases (iii)-(iv)
    "cyclotomic_tower": "builds K_1 in tests/tower_helpers.py",
    # the oracle of the sigma_eff that build_stable_graph fills bottom-up
    "sigma_eff_outward": "imported by test_graph.py and tests/case_oracle.py",
    # the report
    "inseparable_tails": "the report's inseparable_tails; analyze reaches "
                         "it through _report_shape in its own module",
}

PERFBENCH = TRACER.parent


def _referenced_names(path):
    """Every name, attribute, imported name and string constant of a module:
    the benchmark tracer wraps functions by their names as strings."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_caller():
    """Each name in padic_sr.__all__ is used by another package module or
    by the benchmark, or is listed, with its reason, in
    PUBLIC_WITHOUT_CALLER.  A listed name that gains a caller or leaves
    __all__ fails too, so the list cannot go stale."""
    used_in = {path.stem: _referenced_names(path) for path in SOURCES
               if path.name != "__init__.py"}
    benchmark = set().union(*(_referenced_names(path)
                              for path in PERFBENCH.glob("*.py")))
    callers = {}
    for name in padic_sr.__all__:
        home = getattr(padic_sr, name).__module__.rpartition(".")[2]
        callers[name] = ([stem for stem, names in used_in.items()
                          if stem != home and name in names]
                         + (["perfbench"] if name in benchmark else []))
    unused = sorted(name for name, where in callers.items()
                    if not where and name not in PUBLIC_WITHOUT_CALLER)
    assert not unused, f"public names without a caller: {unused}"
    stale = sorted(name for name in PUBLIC_WITHOUT_CALLER
                   if callers.get(name, ["not in __all__"]))
    assert not stale, f"stale PUBLIC_WITHOUT_CALLER entries: {stale}"


def _raised_names(tree):
    """Names of the exceptions raised in a module: raise X or raise X(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def _unused_imports(tree):
    """(line, name) of each name a module imports and never reads, where a
    read is a Name node or an entry of __all__; __future__ imports bind
    nothing."""
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.name}:{line}: {name}"
             for path in SOURCES
             for line, name in _unused_imports(ast.parse(path.read_text(),
                                                         str(path)))]
    assert not found, "\n".join(found)


def test_unused_import_checker_reads_each_form():
    src = ("from __future__ import annotations\nimport os.path\n"
           "import json as j\nfrom math import gcd, lcm\n"
           "from .tower import Tower\n__all__ = ['Tower']\n"
           "def f(x: int) -> int:\n    return lcm(x, 2)\n")
    assert _unused_imports(ast.parse(src)) == [(2, "os"), (3, "j"),
                                               (4, "gcd")]


def test_every_error_class_is_raised():
    """Every ArtifactError subclass in errors.py has a raise site in the
    package, so no error class outlives its producer."""
    raised = set().union(*(_raised_names(ast.parse(path.read_text(),
                                                   str(path)))
                           for path in SOURCES))
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, ArtifactError)
               and obj is not ArtifactError]
    assert "ZeroRadicand" in classes
    missing = [name for name in classes if name not in raised]
    assert not missing, f"error classes never raised: {missing}"


def test_raise_checker_reads_both_forms():
    src = ("def f():\n    raise KeyError\n\ndef g():\n"
           "    raise ValueError('x') from None\n\ndef h():\n    raise\n")
    assert list(_raised_names(ast.parse(src))) == ["KeyError", "ValueError"]


#: the case (v) tower centres, which left the package for tests/p2_oracle.py
TOWER_CENTRE_NAMES = {"_centre_field", "_p2_center", "_p2_offset"}

#: the analyzer functions that adjoin a radical: none, as the case (iii)
#: centre is an integer triple and every cube root is only certified
ADJOINING_FUNCTIONS = set()


def _adjoin_calls(tree):
    """(line, enclosing function, exponent or None) of each adjoin_radical
    reference; the exponent is the first argument of a call when it is a
    literal."""
    functions = _functions(tree)
    for name, node in functions.items():
        calls = {id(sub.func): sub for sub in ast.walk(node)
                 if isinstance(sub, ast.Call)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "adjoin_radical":
                args = calls[id(sub)].args if id(sub) in calls else []
                exponent = (args[0].value if args
                            and isinstance(args[0], ast.Constant) else None)
                yield sub.lineno, name, exponent


def test_case_v_builds_no_tower_centre():
    """Case (v) is certified in closed form: no tower centre is named
    anywhere in the package, and analyzer.py adjoins no radical at all."""
    found = [f"{path.name}:{line}: {name}"
             for path in SOURCES
             for line, name in _named(ast.parse(path.read_text(), str(path)),
                                      TOWER_CENTRE_NAMES)]
    assert not found, "\n".join(found)
    path = next(path for path in SOURCES if path.name == "analyzer.py")
    tree = ast.parse(path.read_text(), str(path))
    sites = list(_adjoin_calls(tree))
    assert {name for _, name, _ in sites} == ADJOINING_FUNCTIONS, sites
    # a module-level adjoin_radical would escape the checks above
    assert {sub.lineno for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)
            and sub.attr == "adjoin_radical"} == {line for line, *_ in sites}


def _named(tree, names):
    """(line, name) of each name, attribute, def or class among names."""
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.FunctionDef,
                                                    ast.ClassDef, ast.alias))
                else None)
        if name in names:
            yield node.lineno, name


def test_site_checkers_read_each_form():
    src = ("def f(t):\n    return t.adjoin_radical(2, 3)\n\n"
           "class C:\n    def g(self, t):\n        _p2_center(1)\n"
           "        return t.adjoin_radical\n\n"
           "def _p2_offset():\n    pass\n")
    tree = ast.parse(src)
    assert list(_adjoin_calls(tree)) == [(2, "f", 2), (7, "C.g", None)]
    assert sorted(_named(tree, TOWER_CENTRE_NAMES)) == [(6, "_p2_center"),
                                                        (9, "_p2_offset")]
    src = ("class WrongPrime(Exception):\n    pass\n\n"
           "def f(t):\n    t._qth_classes = {}\n    return q2_i()\n")
    assert sorted(_named(ast.parse(src), P2_FIELD_NAMES)) == [
        (1, "WrongPrime"), (5, "_qth_classes"), (6, "q2_i")]


#: what the tower arm of expand_disk read: a centre's or expansion's tower,
#: tower coercion and the zero test of a tower element
TOWER_ARM_ATTRIBUTES = {"tower", "coerce", "is_zero"}


def _tower_arm_sites(tree):
    """(line, what) of each read of a TOWER_ARM_ATTRIBUTES attribute and of
    each parameter named e, the radius that only a tower centre took."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in TOWER_ARM_ATTRIBUTES:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.arg) and node.arg == "e":
            yield node.lineno, "parameter e"


def test_series_has_no_tower_arm():
    """series.py expands only the two centres new_tail_locus makes, a
    Fraction and a CubicCentre, each given with v(e): it reads no tower
    and takes no e.  The tower expansion is the oracle TowerExpansion of
    tests/tower_helpers.py."""
    path = next(path for path in SOURCES if path.name == "series.py")
    found = [f"series.py:{line}: {what}"
             for line, what in _tower_arm_sites(ast.parse(path.read_text(),
                                                          str(path)))]
    assert not found, "\n".join(found)


def test_tower_arm_checker_reads_each_form():
    src = ("def f(spec, d, e, v_e=None):\n    t = d.tower\n"
           "    return t.coerce(e).is_zero()\n\n"
           "g = lambda e: e\nh = lambda E, tower: E\n")
    assert sorted(_tower_arm_sites(ast.parse(src))) == [
        (1, "parameter e"), (2, ".tower"), (3, ".coerce"), (3, ".is_zero"),
        (5, "parameter e")]


#: the labels of the stable-model cases, as analyzer._stable_case returns them
CASE_LABELS = {"i", "ii", "iii", "iv", "v"}

#: the analyzer functions that may compare a case label: the builders of a
#: shape's facts and of its pieces, which reads the case off the facts, and
#: the one fact that depends on more than the shape (p, n, s) of a cover,
#: the new-tail locus
CASE_DISPATCHERS = {"_shape_facts", "_pieces", "new_tail_locus"}

#: the readers of the facts and the pieces, which compare no case label
CASE_READERS = {"certify_tail", "build_stable_graph", "inseparable_tails",
                "stab_field_tower", "conductor_bound", "_report_shape"}


def _owners(tree):
    """{id(node): qualified name of the function that encloses it}."""
    owner = {}
    for name, node in _functions(tree).items():
        for sub in ast.walk(node):
            owner[id(sub)] = name
    return owner


def _label_comparisons(tree, labels=CASE_LABELS):
    """(line, enclosing function or None) of each comparison with one of
    labels, the case labels by default: case == "v" and
    case in ("ii", "iii") alike."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        values = [const.value for operand in operands
                  for const in (operand.elts if isinstance(
                      operand, (ast.Tuple, ast.List, ast.Set)) else [operand])
                  if isinstance(const, ast.Constant)]
        if any(isinstance(v, str) and v in labels for v in values):
            yield node.lineno, owner.get(id(node))


def test_only_the_case_record_builds_by_case():
    """The tail verdict, the graph, the inseparable tails, the field steps
    and the conductor certificate are read off _shape_facts and _pieces: no
    reader of them compares a case label, and only their builders and the
    facts that depend on a, b or a component compare one."""
    path = next(path for path in SOURCES if path.name == "analyzer.py")
    tree = ast.parse(path.read_text(), str(path))
    sites = sorted(_label_comparisons(tree))
    found = [f"analyzer.py:{line}: a case label compared in {name}"
             for line, name in sites if name not in CASE_DISPATCHERS]
    assert not found, "\n".join(found)
    # the names follow renames
    assert (CASE_READERS | CASE_DISPATCHERS) <= set(_functions(tree))
    assert {"_shape_facts", "_pieces"} <= {name for _, name in sites}


def test_label_checker_reads_each_form():
    src = ("def f(case):\n    return case == 'v'\n\n"
           "class C:\n    def g(self, c):\n"
           "        return c in ('ii', 'iii') or 'x' != c\n\n"
           "flag = 'iv' != 'i'\n"
           "def h(k):\n    return k == 'vi' or k < 3\n")
    assert sorted(_label_comparisons(ast.parse(src))) == [
        (2, "f"), (6, "C.g"), (8, None)]
    assert sorted(_label_comparisons(ast.parse(src), {"x", "vi"})) == [
        (6, "C.g"), (10, "h")]


#: the labels of the second case vocabulary, that of the new-tail locus:
#: a reader of a NewTailLocus tells case (v) by p = 2, and the other two by
#: the type of the centre
LOCUS_LABELS = {"rational", "p3s1", "p2"}


def test_no_module_compares_a_locus_label():
    found = [f"{path.name}:{line}: a locus label compared in {name}"
             for path in SOURCES
             for line, name in _label_comparisons(
                 ast.parse(path.read_text(), str(path)), LOCUS_LABELS)]
    assert not found, "\n".join(found)


def _call_sites(tree, name):
    """(line, enclosing function or None) of each call of name, as
    name(...) or x.name(...)."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute)
                      else None)
            if called == name:
                yield node.lineno, owner.get(id(node))


def test_one_call_checks_the_cover_rule():
    """A CoverSpec is a cover, checked once: in the package, _check_cover
    is called only from CoverSpec.__post_init__, and no module defines
    _cover_case, the per-stage check it replaced."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    sites = [(name, line, owner) for name, tree in trees.items()
             for line, owner in _call_sites(tree, "_check_cover")]
    assert [(name, owner) for name, _, owner in sites] == [
        ("series.py", "CoverSpec.__post_init__")], sites
    found = [f"{name}:{line}: {what}" for name, tree in trees.items()
             for line, what in _named(tree, {"_cover_case"})]
    assert not found, "\n".join(found)


def test_call_site_checker_reads_each_form():
    src = ("class C:\n    def __post_init__(self):\n        f(self)\n\n"
           "def g(m):\n    return m.f(1), f\n\nf(2)\n")
    assert sorted(_call_sites(ast.parse(src), "f"),
                  key=lambda site: site[0]) == [
        (3, "C.__post_init__"), (6, "g"), (8, None)]


#: the names of the tower-meta round trip, and the error that only the
#: p = 2, s = n branch of _stable_case raised
META_ROUND_TRIP = {"meta_dict", "UnsupportedCase"}


def _meta_reads(tree):
    """(line, what) of each .meta attribute and each META_ROUND_TRIP name."""
    yield from _named(tree, META_ROUND_TRIP)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "meta":
            yield node.lineno, ".meta"


def test_every_certificate_reads_the_spec():
    """conductor_bound takes the cover spec alone, as every other stage
    does, and analyzer.py reads no tower meta back: the meta is output
    only.  No package module names meta_dict or UnsupportedCase."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    args = _functions(trees["analyzer.py"])["conductor_bound"].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["spec"]
    assert not (args.vararg or args.kwarg or args.kwonlyargs)
    found = [f"analyzer.py:{line}: {what}"
             for line, what in _meta_reads(trees["analyzer.py"])]
    found += [f"{name}:{line}: {what}"
              for name, tree in trees.items()
              for line, what in _named(tree, META_ROUND_TRIP)]
    assert not found, "\n".join(found)


def test_meta_checker_reads_each_form():
    src = ("def f(ft, meta):\n    return ft.meta, meta\n\n"
           "g = lambda ft: dict(ft.meta_dict())\n"
           "class UnsupportedCase(Exception):\n    pass\n")
    assert sorted(_meta_reads(ast.parse(src))) == [
        (2, ".meta"), (4, "meta_dict"), (5, "UnsupportedCase")]


#: the p = 2 fields, the square-class and q-th power class tables and the
#: error only they raised: case (v) decides its w step from b' mod 8 and its
#: square classes from the parity of v_2, so none of them is in the package
P2_FIELD_NAMES = {"q2_i", "_k3", "_di_square", "_square_class_entry",
                  "_qth_classes", "WrongPrime"}


def test_p2_fields_and_class_tables_stay_deleted():
    """No package module defines or names a p = 2 field or a class table;
    the fields live on in tests/tower_helpers.py as oracles."""
    found = [f"{path.name}:{line}: {name}"
             for path in SOURCES
             for line, name in _named(ast.parse(path.read_text(), str(path)),
                                      P2_FIELD_NAMES)]
    assert not found, "\n".join(found)
