"""The package namespace holds exactly the names its documentation uses.

Those are the names the README's python blocks and the scripts import from
``skewca``, plus the two the README's prose names. Everything else is
imported from its submodule, so a new re-export needs a documented use.
"""

import ast
import re
from pathlib import Path

import skewca

ROOT = Path(__file__).resolve().parent.parent
PROSE_NAMES = ("skew_matrix", "scan_lambda")


def names_imported_from_skewca(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "skewca" and node.level == 0
        for alias in node.names
    }


def test_namespace_is_the_documented_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    sources += [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("scripts/*.py"))]
    documented = set(PROSE_NAMES).union(*map(names_imported_from_skewca, sources))
    for name in PROSE_NAMES:
        assert f"`{name}(" in readme, name
    assert sorted(skewca.__all__) == sorted(documented)
    assert all(hasattr(skewca, name) for name in skewca.__all__)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1]
    source = re.search(r"```python\n(.*?)```", block, flags=re.S).group(1)
    scope: dict = {}
    exec(compile(source, "README.md", "exec"), scope)
    assert scope["profile"].phi_total > 0
    assert len(scope["regions"]) == 2 * scope["table"].size
