"""The benchmark's hooks into the library: traced attributes and draw counts.

`perfbench/spans.py` swaps a timing wrapper into every ``(module, attribute)``
of its ``TARGETS``.  A renamed attribute would only show up as an
``AttributeError`` in a traced benchmark run, so it is checked here.

`perfbench/workloads.py` computes ``draws_per_s`` from the array shapes
(`normals_per_trial`), not from the draws, so a trial that drew more or
fewer normals would go unseen there; the count is checked here against the
normals a trial actually draws.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rff_lab import experiments
from rff_lab.channel import ChannelScenario
from rff_lab.signal_model import Method

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class CountingStream:
    """A generator that counts the normals it hands out; any other draw is an error."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.normals = 0

    def standard_normal(self, *args, **kwargs):
        return self._count(self._rng.standard_normal(*args, **kwargs))

    def normal(self, *args, **kwargs):
        return self._count(self._rng.normal(*args, **kwargs))

    def _count(self, drawn):
        self.normals += np.size(drawn)
        return drawn


def test_every_traced_attribute_exists():
    spans = _load("spans")
    # Tracer.unit also swaps in a timed process pool class
    targets = [*((m, a) for m, a, _ in spans.TARGETS), (experiments, "ProcessPoolExecutor")]
    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute in targets
        if not callable(getattr(module, attribute, None))
    ]
    assert not missing, f"perfbench TARGETS name missing attributes: {missing}"


def test_every_traced_layer_names_its_defining_function():
    spans = _load("spans")
    for module, attribute, layer in spans.TARGETS:
        defining, _, name = layer.rpartition(".")
        function = getattr(importlib.import_module(f"rff_lab.{defining}"), name)
        assert getattr(module, attribute) is function, layer


@pytest.mark.parametrize("workload", ["population_config", "sweep_config"])
def test_normals_per_trial_counts_the_draws_of_every_pair(monkeypatch, workload):
    workloads = _load("workloads")
    cfg = getattr(workloads, workload)(42)
    real_streams = experiments._trial_streams
    streams = []

    def counted(*args):
        streams[:] = [CountingStream(rng) for rng in real_streams(*args)]
        return streams

    monkeypatch.setattr(experiments, "_trial_streams", counted)
    for scenario in ChannelScenario:
        for method in Method:
            experiments.run_trial(cfg, scenario, method, cfg.snr_db_grid[0], 0)
            drawn = sum(stream.normals for stream in streams)
            assert drawn == workloads.normals_per_trial(cfg, scenario, method), (scenario, method)
