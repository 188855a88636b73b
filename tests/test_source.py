"""Static check of the package source: the certification path has no floats.

Every module of padic_sr is parsed with ast; float literals, float(...)
calls, float-valued math functions and fractional powers are refused.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import padic_sr

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


def test_only_the_cli_reads_the_environment():
    """PADIC_SR_TRUNCATION and any other variable are resolved by the CLI
    and passed down as arguments; the library reads no environment."""
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES if path.name != "cli.py"
             for line, what in _environment_reads(ast.parse(path.read_text(),
                                                            str(path)))]
    assert not found, "\n".join(found)
    cli = next(path for path in SOURCES if path.name == "cli.py")
    assert list(_environment_reads(ast.parse(cli.read_text())))
