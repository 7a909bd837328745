"""The benchmark's span tracer wraps library attributes by name; each must exist.

`perfbench/spans.py` swaps a timing wrapper into every ``(module, attribute)``
of its ``TARGETS``.  A renamed attribute would only show up as an
``AttributeError`` in a traced benchmark run, so it is checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from rff_lab import experiments

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    spans = _load_spans()
    # Tracer.unit also swaps in a timed process pool class
    targets = [*((m, a) for m, a, _ in spans.TARGETS), (experiments, "ProcessPoolExecutor")]
    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute in targets
        if not callable(getattr(module, attribute, None))
    ]
    assert not missing, f"perfbench TARGETS name missing attributes: {missing}"


def test_every_traced_layer_names_its_defining_function():
    spans = _load_spans()
    for module, attribute, layer in spans.TARGETS:
        defining, _, name = layer.rpartition(".")
        function = getattr(importlib.import_module(f"rff_lab.{defining}"), name)
        assert getattr(module, attribute) is function, layer
