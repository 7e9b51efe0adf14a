"""Public-API surface tests: exports resolve and are documented."""

import ast
import inspect
import re
import warnings
from pathlib import Path

import pytest

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"


def test_phase_two_exports_one_planner_and_one_executor():
    """The retired DP/tree planners, the second executor and the second
    counter stay gone."""
    names = set(repro.__all__)
    assert {n for n in names if n.endswith("_embedding_plan")} == {
        "greedy_embedding_plan"
    }
    assert {n for n in names if n.startswith("materialize_embeddings")} == {
        "materialize_embeddings"
    }
    assert {n for n in names if n.endswith("Plan")} == {"AGPlan", "EmbeddingPlan"}
    assert {n for n in names if n.startswith("count_")} == {"count_embeddings"}


def test_everything_the_e2e_benchmark_imports_resolves():
    """``benchmarks/e2e`` may not change with the program it measures."""
    e2e = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    imported = {
        alias.name
        for path in sorted(e2e.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "repro"
        for alias in node.names
    }
    assert "greedy_embedding_plan" in imported  # the walk found twin.py
    missing = sorted(name for name in imported if not hasattr(repro, name))
    assert not missing, f"benchmarks/e2e imports missing names: {missing}"


def test_version_present():
    assert repro.__version__


def test_version_matches_pyproject():
    """The uninstalled-checkout fallback is kept in sync by hand."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
    assert repro.__version__ == declared.group(1)


def test_version_matches_package_metadata():
    """__version__ is sourced from installed package metadata when present."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        expected = version("repro-answer-graph")
    except PackageNotFoundError:
        pytest.skip("package not installed (PYTHONPATH checkout)")
    assert repro.__version__ == expected


SUPPORTED_SURFACE = [
    # the names the facade contract (ISSUE 6) pins explicitly
    "TripleStore",
    "QueryService",
    "parse_query",
    "load_dataset",
    "load_snapshot",
    "serve",
    "HTTPQueryServer",
    "serve_in_background",
    "ReproError",
    "ParseError",
    "QueryError",
    "EvaluationTimeout",
    "SnapshotError",
    "WireError",
]


def test_supported_surface_is_exported():
    for name in SUPPORTED_SURFACE:
        assert name in repro.__all__, f"{name!r} missing from repro.__all__"


def test_parse_sparql_shim_warns_and_resolves():
    """The renamed parser keeps working behind a DeprecationWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shim = repro.parse_sparql
    assert shim is repro.parse_query
    assert any(
        issubclass(w.category, DeprecationWarning) and "parse_query" in str(w.message)
        for w in caught
    )
    # the deprecated name is not advertised as supported surface
    assert "parse_sparql" not in repro.__all__


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_a_name  # noqa: B018


def test_every_public_item_has_a_docstring():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"public items without docstrings: {undocumented}"


def test_public_classes_have_documented_public_methods():
    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if not inspect.isclass(obj):
            continue
        for attr_name, attr in vars(obj).items():
            if attr_name.startswith("_"):
                continue
            if inspect.isfunction(attr) and not (attr.__doc__ or "").strip():
                missing.append(f"{name}.{attr_name}")
    assert not missing, f"public methods without docstrings: {missing}"


def test_every_module_has_a_docstring():
    import importlib
    import pkgutil

    undocumented = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            undocumented.append(info.name)
    assert not undocumented, f"modules without docstrings: {undocumented}"


def test_engines_share_the_interface():
    from repro import (
        ColumnarEngine,
        Engine,
        HashJoinEngine,
        IndexNestedLoopEngine,
        NavigationalEngine,
        WireframeEngine,
    )

    for cls in (
        WireframeEngine,
        HashJoinEngine,
        IndexNestedLoopEngine,
        ColumnarEngine,
        NavigationalEngine,
    ):
        assert issubclass(cls, Engine)
        assert isinstance(cls.name, str) and cls.name


def test_quickstart_from_module_docstring_runs():
    """The usage example in repro's module docstring must stay valid."""
    from repro import GraphBuilder, WireframeEngine, parse_query

    store = (
        GraphBuilder()
        .edge("alice", "knows", "bob")
        .edge("bob", "knows", "carol")
        .build(freeze=True)
    )
    query = parse_query("select ?a, ?b, ?c where { ?a knows ?b . ?b knows ?c }")
    result = WireframeEngine(store).evaluate(query)
    assert result.count == 1
