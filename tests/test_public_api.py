"""API integrity: every exported name exists, imports, and is documented."""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.core",
    "repro.core.assoc_set",
    "repro.core.completeness",
    "repro.core.edges",
    "repro.core.expression",
    "repro.core.homogeneity",
    "repro.core.identity",
    "repro.core.laws",
    "repro.core.operators",
    "repro.core.pattern",
    "repro.core.predicates",
    "repro.core.template",
    "repro.core.validation",
    "repro.datagen",
    "repro.datasets",
    "repro.engine",
    "repro.engine.profiler",
    "repro.errors",
    "repro.objects",
    "repro.obs",
    "repro.obs.events",
    "repro.obs.explain",
    "repro.obs.export",
    "repro.obs.metrics",
    "repro.obs.span",
    "repro.oql",
    "repro.optimizer",
    "repro.optimizer.stats",
    "repro.relational",
    "repro.relational.nested",
    "repro.rules",
    "repro.schema",
    "repro.server",
    "repro.server.admin",
    "repro.server.client",
    "repro.server.protocol",
    "repro.server.service",
    "repro.storage",
    "repro.viz",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_are_documented(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert (
                obj.__doc__ and obj.__doc__.strip()
            ), f"{module_name}.{name} lacks a docstring"


def test_top_level_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_public_classes_have_documented_public_methods():
    """Spot-check the workhorse classes: every public method documented."""
    from repro.core.assoc_set import AssociationSet
    from repro.core.pattern import Pattern
    from repro.engine.database import Database
    from repro.objects.graph import ObjectGraph
    from repro.obs import Histogram, MetricsRegistry, Tracer
    from repro.schema.graph import SchemaGraph

    for cls in (
        Pattern,
        AssociationSet,
        SchemaGraph,
        ObjectGraph,
        Database,
        Tracer,
        MetricsRegistry,
        Histogram,
    ):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


def test_removed_facade_shims_stay_removed():
    """The query and lifecycle APIs replaced these; nothing re-exports them."""
    import repro.storage
    from repro.engine.database import Database

    for name in ("evaluate", "values", "select_instances"):
        assert not hasattr(Database, name), f"Database.{name} is back"
    for name in ("save_database", "load_database"):
        assert name not in repro.storage.__all__
        assert not hasattr(repro.storage, name), f"repro.storage.{name} is back"
