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

import padic_sr
from padic_sr import errors
from padic_sr.errors import ArtifactError

#: math functions that return floats
FLOAT_MATH = {"log", "log2", "log10", "log1p", "sqrt", "exp", "pow"}

SOURCES = sorted(Path(padic_sr.__file__).parent.glob("*.py"))

#: the benchmark's tracer, which wraps package functions by name
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
    "_element", "_reduced", "_mul", "_scale", "_add", "_common", "_lifted",
    "_split_top", "_is_qth_power_local",
    "TowerElement.__neg__", "TowerElement.__add__", "TowerElement.__sub__",
    "TowerElement.__rsub__", "TowerElement.__mul__", "TowerElement.__pow__",
    "TowerElement.__eq__", "TowerElement.__hash__",
    "Tower.rational", "Tower.coerce", "Tower._mul_nums",
    "Tower._product_entry", "Tower._accumulate", "Tower.norm",
    "Tower.inverse", "Tower._monomial", "Tower.val",
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
    "CoverSpec": "return type of branch_signature",
    "DiskExpansion": "return type of expand_disk",
    "SignatureSolution": "return type of signature_solver",
    # the acceptance contract
    "cyclotomic_filtration": "imported by test_acceptance.py",
    "herbrand_convert": "imported by test_acceptance.py",
    "herbrand_psi": "imported by test_acceptance.py",
    "quotient_spec": "imported by test_acceptance.py",
    "signature_solver": "imported by test_acceptance.py",
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

#: the analyzer functions that adjoin a radical: Q_3(pi), and the case (iii)
#: cube root, the only step of degree 3 (case (iv) only certifies its own)
ADJOINING_FUNCTIONS = {"_q3_pi", "new_tail_locus"}


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
    anywhere in the package, and analyzer.py adjoins a radical only for
    the case (iii) field: Q_3(pi) and the cube root."""
    found = [f"{path.name}:{line}: {name}"
             for path in SOURCES
             for line, name in _named(ast.parse(path.read_text(), str(path)),
                                      TOWER_CENTRE_NAMES)]
    assert not found, "\n".join(found)
    path = next(path for path in SOURCES if path.name == "analyzer.py")
    tree = ast.parse(path.read_text(), str(path))
    sites = list(_adjoin_calls(tree))
    assert {name for _, name, _ in sites} == ADJOINING_FUNCTIONS, sites
    assert all(name == "_q3_pi" or exponent == 3
               for _, name, exponent in sites), sites
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
