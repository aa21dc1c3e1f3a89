"""The public names that callers outside the package look up still exist.

Every module's ``__all__`` must resolve, and every function that the
benchmark tracer (``bench/tracer.py``) patches must be an attribute of
its module; a deletion that breaks either fails here in well under a
second instead of in the benchmark self-test.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import catbath

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_public_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(catbath.__path__):
        mod = importlib.import_module(f"catbath.{info.name}")
        missing += [f"{info.name}.{n}" for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("catbath_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{fn}"
        for layer, funcs in tracer.TRACED.items()
        for fn in funcs
        if not callable(getattr(importlib.import_module(f"catbath.{layer}"), fn, None))
    ]
    assert missing == []
