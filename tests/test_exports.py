import importlib
import importlib.util
from pathlib import Path

import starcong

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_public_names_resolve():
    for name in starcong.__all__:
        assert hasattr(starcong, name), name


def test_bench_traced_functions_resolve():
    # the traced benchmark run wraps these by name; a deleted or renamed
    # function would break it silently
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, func in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"starcong.{module}"), func, None)), (module, func)
    for module in spans.MODULES:
        importlib.import_module(f"starcong.{module}")
