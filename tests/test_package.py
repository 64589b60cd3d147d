"""The package's public surface: the names it exports and the README's
library examples."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import ncflux

README = Path(__file__).resolve().parents[1] / "README.md"


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
