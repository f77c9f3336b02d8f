import ast
import graphlib
import json
import os
import subprocess
import sys
from pathlib import Path

import dispersim

PACKAGE = Path(dispersim.__file__).parent


def _relative_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports relatively, at any nesting level (inside functions too)."""
    deps = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            deps.update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
    return deps


def test_package_import_graph_is_acyclic():
    graph = {p.stem: _relative_imports(p) for p in PACKAGE.glob("*.py")}
    assert graph["transport"] >= {"config", "grid"}  # the walk sees the package's imports
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert order.index("config") < order.index("transport")


def test_package_root_imports_nothing():
    # a fresh interpreter: the root loads no module of the package, and the CLI loads the solver only per subcommand
    code = (
        "import json, sys; import dispersim; root = sorted(sys.modules); import dispersim.cli; "
        "print(json.dumps([root, sorted(sys.modules)]))"
    )
    src = str(PACKAGE.resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    root, cli = json.loads(out.stdout)
    assert [m for m in root if m.startswith("dispersim.")] == []
    assert "dispersim.cli" in cli
    assert "dispersim.transport" not in cli and "scipy.sparse.linalg" not in cli
