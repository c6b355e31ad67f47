"""The benchmark tracer's targets still name functions of the package.

``bench/tracer.py`` wraps each ``(module, name)`` of its ``TARGETS`` by
attribute lookup, so a renamed or moved public name makes a traced
benchmark run fail with ``AttributeError``.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, name in tracer.TARGETS:
        try:
            functools.reduce(getattr, name.split("."),
                             importlib.import_module(f"heisgame.{module}"))
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert tracer.TARGETS and not missing
