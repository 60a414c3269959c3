"""The benchmark's tracer patches library attributes by name.

bench/tracing.py lists them in SPANS and COUNTS as (module, attribute
path) pairs, and also wraps the handlers in cli._HANDLERS. A refactor
that renames or removes one of them would make `bench/run.py --trace 1`
fail, so every one must resolve against the package. The benchmark file
is only read here.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve():
    tracing = _tracing()
    modules = {name: importlib.import_module(f"twisted_derivations.{name}")
               for name in tracing.LAYERS}
    missing = []
    for module, path, *_ in tracing.SPANS + tracing.COUNTS:
        owner = modules[module]
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert not missing
    assert all(callable(handler) for handler in modules["cli"]._HANDLERS.values())
