"""Every name a package module imports is used in that module, and the
command line loads no module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rainbow_forge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """The names bound by imports in ``path`` that nothing else in it
    refers to; ``from __future__`` imports and lines marked
    ``# noqa: F401`` are left out."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_importing_the_cli_leaves_out_the_process_pool():
    # run_sweep imports concurrent.futures only to run tasks in processes
    code = (
        "import sys, rainbow_forge.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
