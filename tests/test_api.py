"""The public names: every ``__all__`` entry and every package export resolves,
and the result records behave as named tuples."""

import ast
import importlib
import pkgutil

import pytest

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


# every result record that is a typing.NamedTuple, with its fields in order
RECORDS = [
    ("spectral.Eigensystem", "values vectors floor"),
    ("spectral.SpectrumResult", "eigenvalues gap t_rel"),
    ("spectral.HardyCertificate", "A interval delta vertex"),
    ("spectral.HardyLowerBound", "value delta edge recentered g numerator denominator"),
    ("mixing._Orbits", "starts orbit quotients"),
    ("mixing.MixingResult", "epsilon t_mix worst_start tv_curve tail_bound"),
    ("mixing.HittingProfile", "target expected max_vertex"),
    ("mixing.MixingLowerBounds",
     "epsilon delta center recentered hitting_bound degree_bound"),
    ("criteria.TrendFit", "slope intercept r2 points"),
    ("criteria.Diagnostic", "quotient verdict fit threshold values"),
    ("criteria.FamilyReport", "family epsilon rows trends"),
    ("criteria.RetractionReport", "path_sum max_path_load sites max_edge_on_path"),
    ("bdchain.BDSpectrum", "gap eigenfunction"),
    ("bdchain.LiftResult", "values residual"),
    ("generate.Contour", "steps depths n"),
    ("tree.TreeMetrics",
     "depth subtree_size path_load degree max_degree diameter tail_size"),
]


@pytest.mark.parametrize("path, names", RECORDS, ids=[path for path, _ in RECORDS])
def test_result_records_are_named_tuples(path, names):
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"treecut.{module}"), name)
    names = tuple(names.split())
    assert cls._fields == names
    record = cls(*range(len(names)))
    assert record == tuple(range(len(names)))
    text = repr(record)
    for i, field in enumerate(names):
        assert f"{field}={i}" in text
        with pytest.raises(AttributeError):
            setattr(record, field, -1)
