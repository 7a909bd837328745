"""The benchmark's hooks into the library: traced attributes and draw counts.

`perfbench/spans.py` swaps a timing wrapper into every ``(module, attribute)``
of its ``TARGETS``.  A renamed attribute would only show up as an
``AttributeError`` in a traced benchmark run, so it is checked here.

`perfbench/workloads.py` computes ``draws_per_s`` from the array shapes
(`normals_per_trial`), not from the draws, so a trial that drew more or
fewer normals would go unseen there; the count is checked here against the
normals a trial actually draws, back to back and in a sweep that draws
ahead.  validate_claims' ``draws_per_s`` reads `ORACLE_NORMALS_PER_DRAW`,
checked here against the normals one oracle call draws.  That sweep fills
trials on a helper thread, and ``validate-claims`` has one take (point,
form) evaluations from the back of the queue the calling thread takes from
the front; neither helper may call a traced attribute: the tracer keeps one
span stack for all threads.
"""

import collections
import contextlib
import importlib
import importlib.util
import io
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rff_lab import _scratch, cli, experiments, gaussian_moments
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


def _drawn_ahead_cells(workloads):
    """The sweep workloads' grid at one SNR point, as a one-worker sweep on 2 CPUs runs it."""
    cfg = replace(workloads.sweep_config(42), snr_db_grid=(30.0,))
    return experiments._sorted_cells(cfg)


def test_sweep_default_draws_ahead_and_population_wide_does_not(monkeypatch):
    workloads = _load("workloads")
    monkeypatch.setattr(_scratch, "usable_cpus", lambda: 2)
    assert experiments._draws_ahead(workloads.sweep_config(42))
    assert not experiments._draws_ahead(workloads.population_config(42))


def _record_threads(monkeypatch, targets) -> dict[str, set[int]]:
    """Wrap each ``(module, attribute, layer)`` to record the threads that call it."""
    threads: dict[str, set[int]] = {}

    def on_thread(original, layer):
        def called(*args, **kwargs):
            threads.setdefault(layer, set()).add(threading.get_ident())
            return original(*args, **kwargs)

        return called

    for module, attribute, layer in targets:
        monkeypatch.setattr(module, attribute, on_thread(getattr(module, attribute), layer))
    return threads


def test_every_traced_attribute_runs_on_the_calling_thread_when_drawing_ahead(monkeypatch):
    """The tracer keeps one span stack for all threads, so the helper must call no target."""
    threads = _record_threads(monkeypatch, _load("spans").TARGETS)
    experiments._run_cells(_drawn_ahead_cells(_load("workloads")), True)
    assert {
        "channel.init_trial_channel", "signal_model.draw_fingerprint",
        "channel.sample_csi_block", "silhouette.normalize_block",
        "silhouette.silhouette_from_normalized", "classifier.fit", "classifier.accuracy",
    } <= set(threads)
    assert all(idents == {threading.get_ident()} for idents in threads.values()), threads


def test_a_population_wide_trial_calls_each_score_stage_through_its_traced_attribute(
    monkeypatch,
):
    """A stage inlined past its module attribute would drop out of the tracer's spans."""
    workloads = _load("workloads")
    cfg = workloads.population_config(42)
    calls = collections.Counter()

    def counted(original, layer):
        def called(*args, **kwargs):
            calls[layer, threading.get_ident()] += 1
            return original(*args, **kwargs)

        return called

    for module, attribute, layer in _load("spans").TARGETS:
        monkeypatch.setattr(module, attribute, counted(getattr(module, attribute), layer))
    assert not experiments._draws_ahead(cfg)
    cell = experiments._sorted_cells(replace(cfg, n_trials=1))[0]
    experiments._run_cells([cell], False)
    here = threading.get_ident()
    stages = ("silhouette.normalize_block", "silhouette.silhouette_from_normalized",
              "classifier.fit", "classifier.accuracy")
    assert {key: n for key, n in calls.items() if key[0] in stages} == {
        ("silhouette.normalize_block", here): 2,
        ("silhouette.silhouette_from_normalized", here): 1,
        ("classifier.fit", here): 1,
        ("classifier.accuracy", here): 1,
    }


def test_every_traced_attribute_runs_on_the_calling_thread_in_two_lane_validate_claims(
    monkeypatch,
):
    """The helper lane evaluates what it takes from the back of the queue
    through `gaussian_moments.mc_ratio_detail`, which the tracer does not
    replace."""
    monkeypatch.setattr(_scratch, "usable_cpus", lambda: 2)
    threads = _record_threads(monkeypatch, _load("spans").TARGETS)
    helper = _record_threads(
        monkeypatch, [(gaussian_moments, "mc_ratio_detail", "helper_lane")]
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["validate-claims", "--draws", "10000"]) == 1
    assert set(threads) == {"cli.cmd_validate_claims", "gaussian_moments.mc_ratio_detail"}
    assert all(idents == {threading.get_ident()} for idents in threads.values()), threads
    assert len(helper["helper_lane"]) == 1
    assert threading.get_ident() not in helper["helper_lane"]


def test_normals_per_trial_counts_the_draws_of_a_drawn_ahead_sweep(monkeypatch):
    workloads = _load("workloads")
    real_streams = experiments._trial_streams
    trials = []

    def counted(cfg, scenario, method, snr_db, trial_index):
        streams = [CountingStream(rng) for rng in real_streams(cfg, scenario, method, snr_db,
                                                               trial_index)]
        trials.append((cfg, scenario, method, streams))
        return streams

    monkeypatch.setattr(experiments, "_trial_streams", counted)
    cells = _drawn_ahead_cells(workloads)
    experiments._run_cells(cells, True)
    assert len(trials) == len(cells) * cells[0][0].n_trials
    for cfg, scenario, method, streams in trials:
        drawn = sum(stream.normals for stream in streams)
        assert drawn == workloads.normals_per_trial(cfg, scenario, method), (scenario, method)


@pytest.mark.parametrize("form", list(gaussian_moments.RatioForm), ids=lambda form: form.value)
def test_oracle_normals_per_draw_counts_the_draws_of_one_oracle_call(monkeypatch, form):
    """validate_claims' ``draws_per_s`` reads `ORACLE_NORMALS_PER_DRAW`; a chunked
    last variable must not draw more or fewer normals than the table says."""
    workloads = _load("workloads")
    real_rng = np.random.default_rng
    streams = []

    def counted(seed):
        streams.append(CountingStream(real_rng(seed)))
        return streams[-1]

    monkeypatch.setattr(np.random, "default_rng", counted)
    n_draws = 2 * gaussian_moments._MC_CHUNK + 1
    gaussian_moments.mc_ratio_detail(
        form, gaussian_moments.GaussianSpec(1.0, 0.01), gaussian_moments.RatioParams(1.0, 0.01),
        n_draws, 42,
    )
    assert [stream.normals for stream in streams] == [
        workloads.ORACLE_NORMALS_PER_DRAW[form] * n_draws
    ]
