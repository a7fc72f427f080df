"""Every public function, class, method and module-level name in bandgauge
has a reader.

A public name that nothing in the package or the bench reads is either dead
or kept only for tests; the latter must say why on the allow-list below.
Re-exports in ``__init__.py`` and ``import`` statements do not count as
readers, because neither runs the name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bandgauge"

ALLOWED = {
    "bce_loss": "A3 oracle",
    "pws_energy": "A5 / documented objective",
    "edge_set": "A5 dense-solve input",
    "ftest_significance": "paper's significance test, ROADMAP item 7",
    "read_manifest": "write_manifest's inverse; load_dataset reads numbered rows",
}


def _public(name):
    return not name.startswith("_")


def _definitions():
    """(qualified name, bare name) of every public module-level function,
    class and assigned name, and every public method of a public class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and _public(name.id):
                            out.append((f"{path.stem}.{name.id}", name.id))
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        out.append((f"{path.stem}.{node.name}.{item.name}", item.name))
    return out


def _references():
    """Every identifier read as a Name or an Attribute in the package and
    the bench scripts.  A Name counts only where it is loaded, so that a
    constant's own assignment is not its reader."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_read_outside_the_tests():
    refs = _references()
    unread = sorted(
        qual for qual, name in _definitions() if name not in refs and name not in ALLOWED
    )
    assert unread == [], f"public names that only tests reach: {unread}"


def test_allow_list_entries_still_exist_and_stay_unread():
    defined = {name for _, name in _definitions()}
    refs = _references()
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) & refs) == []
