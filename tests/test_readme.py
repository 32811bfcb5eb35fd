"""The README's export list against the names ``macnet/__init__.py`` binds."""

import ast
import re
from pathlib import Path

import macnet

ROOT = Path(__file__).resolve().parents[1]


def readme_exports():
    """Backticked names in the list that follows the README's "Everything `macnet`
    exports" line, up to the first blank line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = text.split("Everything `macnet` exports", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", listing)


def init_bindings():
    """Names bound at the top level of macnet/__init__.py by imports and assignments."""
    tree = ast.parse(Path(macnet.__file__).read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.extend(target.id for target in node.targets)
    return names


def test_readme_export_list_matches_init():
    listed = readme_exports()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(init_bindings())
    assert all(hasattr(macnet, name) for name in listed)
