"""The public names: every ``__all__`` entry and every package export resolves."""

import ast
import importlib
import pkgutil

import treecut

from util import REPO_ROOT


def test_every_all_name_resolves():
    # the benchmark's span recorder wraps each __all__ name by getattr,
    # so a stale entry would break every traced run
    checked = 0
    for info in pkgutil.iter_modules(treecut.__path__, "treecut."):
        if info.name == "treecut.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names missing {name}"
            checked += 1
    assert checked > 50


def test_package_exports_resolve():
    source = (REPO_ROOT / "src" / "treecut" / "__init__.py").read_text(encoding="utf-8")
    names = [alias.name for node in ast.parse(source).body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "weighted_path_bound" in names and "retraction_weights" in names
    for name in names:
        assert hasattr(treecut, name), name
