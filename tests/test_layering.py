"""Layering guard: only spaces.py may ask which kind a space is.

Every kind answers the space protocol itself (see the spaces module
docstring), so an ``isinstance``/``hasattr`` test on a space class or on
the kind-specific attributes ``fiber``/``outer``/``_index`` elsewhere is a
kind branch that belongs in a space class.  The closed-form and algebra
layers must not import the brute-force oracle they are checked against.
Only cdf.py builds pieces of the cumulative-mass table that F, F_minus
and G read, so no other module constructs a ``GPiece``.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ordercdf"

#: Kind-specific attributes a kind branch would probe for.
KIND_ATTRIBUTES = {"fiber", "outer", "_index"}

#: (module, enclosing function) pairs allowed one kind test: a precondition.
ALLOWED = {("oracle.py", "random_atomic_spec")}

#: Modules below the oracle, which must not import it.
BELOW_ORACLE = ("intervals.py", "measure.py", "cdf.py", "quantile.py", "sampling.py")

#: The one module that builds the table of cumulative masses.
TABLE_MODULE = "cdf.py"


def _space_classes():
    tree = ast.parse((PACKAGE / "spaces.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Space")}


def _names(node):
    """Every bare name, attribute name and string constant under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _calls_with_function(tree):
    """(call, name of the innermost enclosing function) for every call."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else func
            if isinstance(child, ast.Call):
                yield child, func
            yield from visit(child, inner)
    yield from visit(tree, None)


def kind_branches(path: Path, space_classes):
    """Lines of isinstance/hasattr calls that test a space's kind."""
    suspects = space_classes | KIND_ATTRIBUTES
    found = []
    for call, func in _calls_with_function(ast.parse(path.read_text())):
        if not (isinstance(call.func, ast.Name) and call.func.id in ("isinstance", "hasattr")):
            continue
        if (path.name, func) in ALLOWED:
            continue
        if any(name in suspects for arg in call.args for name in _names(arg)):
            found.append(f"{path.name}:{call.lineno}")
    return found


def oracle_imports(path: Path):
    """Lines where the module imports the oracle."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.split(".")[-1] == "oracle" or (not module and "oracle" in names) \
                    or (module == "ordercdf" and "oracle" in names):
                found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracle" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def piece_constructions(path: Path):
    """Lines of calls to ``GPiece``, by bare name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "GPiece":
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_kind_branch_outside_spaces():
    classes = _space_classes()
    assert {"OrderedSpace", "FiniteSpace", "IntRangeSpace",
            "RealIntervalSpace", "LexSpace"} <= classes
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "spaces.py":
            found += kind_branches(path, classes)
    assert not found, f"kind branches outside spaces.py: {found}"


def test_lower_layers_do_not_import_the_oracle():
    found = []
    for name in BELOW_ORACLE:
        found += oracle_imports(PACKAGE / name)
    assert not found, f"imports of the oracle below it: {found}"


def test_guard_sees_a_planted_branch(tmp_path):
    planted = tmp_path / "cdf.py"
    planted.write_text(
        "from .oracle import random_point\n"
        "def f(space):\n"
        "    if isinstance(space, (LexSpace, RealIntervalSpace)):\n"
        "        return 1\n"
        "    return hasattr(space, 'fiber')\n")
    assert kind_branches(planted, _space_classes()) == ["cdf.py:3", "cdf.py:5"]
    assert oracle_imports(planted) == ["cdf.py:1"]


def test_only_cdf_builds_pieces():
    assert piece_constructions(PACKAGE / TABLE_MODULE)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != TABLE_MODULE:
            found += piece_constructions(path)
    assert not found, f"GPiece built outside {TABLE_MODULE}: {found}"


def test_guard_sees_a_planted_piece(tmp_path):
    planted = tmp_path / "quantile.py"
    planted.write_text(
        "from . import cdf\n"
        "from .cdf import GPiece\n"
        "def table():\n"
        "    return [GPiece('atom', 0.0, 0.5),\n"
        "            cdf.GPiece('atom', 0.5, 1.0)]\n")
    assert piece_constructions(planted) == ["quantile.py:4", "quantile.py:5"]
