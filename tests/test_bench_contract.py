"""The library names the benchmark's tracer relies on.

``bench/tracing.py`` reads ``cache_info()`` from the cached functions in
its ``CACHES`` table and wraps the public functions in its ``COVERAGE``
table.  A refactor that renames, uncaches or privatizes one of them
breaks the benchmark; these checks make it fail the test suite instead.
The tracer module is loaded from its file and left unchanged.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import expansion_lab

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def resolve(mod, name):
    assert mod in tracing.LAYERS, f"{mod} is not a traced layer"
    return getattr(importlib.import_module(f"expansion_lab.{mod}"), name)


@pytest.mark.parametrize("prefix", sorted(tracing.CACHES))
def test_cached_names_expose_cache_info(prefix):
    fn = resolve(*tracing.CACHES[prefix])
    assert callable(fn.cache_info)
    assert callable(fn.cache_clear)


def test_cache_sizes_reads_every_cache():
    assert set(tracing.cache_sizes(expansion_lab)) == set(tracing.CACHES)


@pytest.mark.parametrize("label", sorted(tracing.COVERAGE))
def test_coverage_labels_are_public_functions(label):
    # The conditions under which Tracer.install wraps a function.
    mod, name = label.split(".", 1)
    fn = resolve(mod, name)
    assert not name.startswith("_")
    assert callable(fn) and not inspect.isclass(fn)
    assert fn.__module__ == f"expansion_lab.{mod}"
    assert not inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn))
