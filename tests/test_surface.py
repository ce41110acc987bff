"""The library offers only what a command, an acceptance criterion or
another part of the library uses: every public module-level function and
class of ``torweyl`` is referenced in ``src/torweyl`` beyond its own
definition, or in ``tests/test_acceptance.py``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torweyl"

# the quadrature-refinement test's reference budget: the full-grid sweep
# that the pruned sweep must match, kept in the library beside it
ALLOWED = {"boundary_cell_measure"}


def test_every_public_definition_is_used():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    used |= set(re.findall(r"\w+", (ROOT / "tests" / "test_acceptance.py").read_text()))
    unused = sorted(f"{mod}.{name}" for name, mod in defined.items()
                    if name not in used and name not in ALLOWED)
    assert unused == []
