"""``tests/oracles.py`` stays independent of the library: the Smith,
Hermite and inverse identities check through its ``matmul`` and
``leibniz_det``, so an import from ``toriq`` there would let a library
fault check itself."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_nothing_from_toriq():
    """No ``import toriq``, no ``from toriq... import``, no relative import
    and no call of ``__import__`` or ``import_module``."""
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    modules, bad = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("__import__", "import_module"):
                bad.append(ast.unparse(node))
    assert "fractions" in modules and "itertools" in modules, modules
    bad += [m for m in modules if m.startswith(".") or m.split(".")[0] == "toriq"]
    assert bad == [], bad
