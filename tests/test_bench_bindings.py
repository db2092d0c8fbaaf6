"""The benchmark's tracer wraps package functions by module and name from
outside the package; a refactor that renames or removes one of them would
leave its layer silently untraced, so every binding must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_a_package_callable():
    bindings = _load_tracing().BINDINGS
    assert bindings
    for module, attr, _, _ in bindings:
        target = importlib.import_module(f"abeltile.{module}")
        assert callable(getattr(target, attr, None)), f"abeltile.{module}.{attr}"
