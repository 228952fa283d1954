"""The traced benchmark run (``bench/run.py --trace 1``) wraps package
functions and methods by name and reads fields of their results; a rename
here breaks it without failing any other test of the package."""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # Loaded from its path and not registered in sys.modules.
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(name):
    return importlib.import_module(f"conflictfair.{name}")


def test_traced_functions_resolve(tracing):
    for name, attrs in tracing.FUNCTIONS.items():
        for attr in attrs:
            assert callable(getattr(layer(name), attr, None)), f"{name}.{attr}"


def test_traced_methods_resolve(tracing):
    for name, cls_name, attr in tracing.METHODS:
        cls = getattr(layer(name), cls_name, None)
        assert cls is not None and attr in vars(cls), f"{name}.{cls_name}.{attr}"


def test_enumerator_is_a_generator_function():
    # tracing picks the wrapper that counts labelings by this test
    assert inspect.isgeneratorfunction(layer("oracle").enumerate_maximal_allocations)


def test_fields_read_after_traced_calls():
    fields = lambda cls: {f.name for f in dataclasses.fields(cls)}
    assert {"steps"} <= fields(layer("chain").Chain)
    assert {"step_index", "chain"} <= fields(layer("chain").ChainOutcome)
    assert {"combined"} <= fields(layer("graph_classes").IntervalChains)
