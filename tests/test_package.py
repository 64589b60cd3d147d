"""The package's public surface: the names it exports and the README's
library examples; and a check of the sources for what a deletion leaves
behind."""

import ast
import contextlib
import io
import re
from collections import Counter
from pathlib import Path

import pytest

import ncflux

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = Path(ncflux.__file__).resolve().parent


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(),
                      flags=re.DOTALL | re.MULTILINE)


def test_every_exported_name_resolves():
    assert len(set(ncflux.__all__)) == len(ncflux.__all__)
    missing = [name for name in ncflux.__all__
               if not hasattr(ncflux, name)]
    assert missing == []
    # one broken-flux type and one jump check serve boxes and triangles
    assert [n for n in ncflux.__all__ if n.endswith("RT")] == ["BrokenRT"]
    assert [n for n in ncflux.__all__
            if n.startswith("max_normal_jump")] == ["max_normal_jump"]
    # and one midpoint type holds both families' recovered flux
    assert [n for n in ncflux.__all__ if "Midpoint" in n] == ["MidpointFlux"]


def test_readme_has_box_and_triangle_examples():
    blocks = python_blocks()
    assert len(blocks) >= 3
    assert any("corrected_flux_cr" in b and "max_normal_jump" in b
               for b in blocks)


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_python_block_runs(index):
    # each block runs alone in a fresh namespace; a solver breakdown
    # raises SolverError and fails the test
    code = python_blocks()[index]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, f"README.md python block {index}", "exec"), {})


def source_trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SOURCES.glob("*.py"))}


def names_read(node):
    """The bare names and attribute names that appear under node."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in source_trees().items():
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        # __init__ re-exports what it imports through __all__
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in stmt.targets)):
                read |= {c.value for c in ast.walk(stmt.value)
                         if isinstance(c, ast.Constant)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_function_is_referenced():
    # referenced anywhere in the package, outside the function's own body;
    # an import by another module counts, and that import is checked above
    trees = source_trees()
    refs = Counter()
    for tree in trees.values():
        refs.update(names_read(tree))
        refs.update(sub.name for sub in ast.walk(tree)
                    if isinstance(sub, ast.alias))
    dead = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if (isinstance(stmt, ast.FunctionDef)
                    and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                own = names_read(stmt).count(stmt.name)
                if refs[stmt.name] <= own:
                    dead.append(f"{name}: {stmt.name}")
    assert dead == []
