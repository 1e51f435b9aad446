import importlib
import importlib.util
import os
import pkgutil

import pytest

import trilag

MODULES = ["trilag"] + sorted("trilag." + m.name for m in pkgutil.iter_modules(trilag.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_benchmark_tracer_installs():
    # perfbench/tracer.py imports every trilag module it names and wraps
    # their public functions; a module it names that is gone fails here
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = trilag.bound_states
    t = tracer.Tracer().install()
    try:
        assert trilag.bound_states is not original
    finally:
        t.uninstall()
    assert trilag.bound_states is original
