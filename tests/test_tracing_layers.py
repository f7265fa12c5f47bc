"""Every function that the benchmark's tracer wraps exists in the package.

``perfbench/run.py --trace 1`` looks up each name in ``LAYERS`` of
``perfbench/tracing.py`` with ``getattr``, so a renamed or deleted function
shows only as a crash of the traced benchmark, which this suite does not run.
"""

import importlib
import importlib.util
from pathlib import Path

import realtori

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names, layer, _ in tracing.LAYERS:
        importlib.import_module(f"realtori.{module}")
        targets = tracing._targets(realtori, module, names)
        assert targets, layer
        assert all(callable(fn) for fn in targets), layer
    assert realtori.cli.COMMANDS
