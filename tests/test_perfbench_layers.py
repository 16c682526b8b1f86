"""The benchmark's span tracer wraps chebnets attributes by name.

`perfbench/spans.py` `Tracer.install` looks up every `(module, attribute)`
of `LAYERS`, so renaming or deleting one of them breaks `--trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _load_spans().LAYERS
    assert layers
    for module_name, attr, span_name in layers:
        target = importlib.import_module(f"chebnets.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{span_name}: chebnets.{module_name}.{attr} is missing"
            target = getattr(target, part)
        assert callable(target), span_name
