"""Outside-in tracing for the benchmark.

`Tracer.unit` swaps a timing wrapper into each module attribute that the
pipeline calls through, records one span per call, and restores the original
attributes when the unit ends.  Spans stay in memory until `Tracer.dump`.
The wrappers sit in the benchmark, not in rff_lab: a span starts when the
caller enters the public function and ends when it returns.

Spans are taken in the benchmark process only.  Forked pool workers inherit
the wrappers, but their spans are never collected, so a pooled sweep reports
only the executor timings of `TracedPool`.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from rff_lab import classifier, cli, experiments, signal_model

#: (module, attribute, layer): the attributes each call goes through.  The
#: layer names the module that defines the function; experiments and cli
#: import most of them by name, so those are the attributes to replace.
TARGETS = (
    (experiments, "run_trial", "experiments.run_trial"),
    (experiments, "init_trial_channel", "channel.init_trial_channel"),
    (experiments, "draw_fingerprint", "signal_model.draw_fingerprint"),
    (experiments, "extract_batch", "signal_model.extract_batch"),
    (signal_model, "sample_csi_block", "channel.sample_csi_block"),
    (experiments, "normalize_block", "silhouette.normalize_block"),
    (experiments, "silhouette_from_normalized", "silhouette.silhouette_from_normalized"),
    (classifier, "fit", "classifier.fit"),
    (classifier, "accuracy", "classifier.accuracy"),
    (experiments, "expected_silhouette", "analytic.expected_silhouette"),
    (cli, "cmd_validate_claims", "cli.cmd_validate_claims"),
    (cli, "mc_ratio_detail", "gaussian_moments.mc_ratio_detail"),
)

UNIT = "unit"


def _trial_tag(args) -> str:
    # run_trial(cfg, scenario, method, snr_db, trial_index)
    return f"{args[1].value}.{args[2].value}"


TAGS = {"experiments.run_trial": _trial_tag}


@dataclass(frozen=True)
class PoolTimes:
    """Executor timings of one pooled sweep, in seconds from creation."""

    #: until the first submit returned; with fork, workers start inside it
    startup: float
    #: until fewer cells were unfinished than there are workers
    tail_start: float
    #: until shutdown returned, which joins the workers
    end: float


class Tracer:
    def __init__(self) -> None:
        # (id, layer, start_ns, end_ns, parent id, tag), appended as spans close.
        # Tuples of atoms drop out of the cyclic collector's tracked set, so a
        # long trace does not slow every later collection, as lists would.
        self._closed: list[tuple] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self.pools: list[PoolTimes] = []

    @property
    def spans(self) -> list[tuple]:
        """(layer, start_ns, end_ns, parent index, tag) in the order spans opened."""
        return [span[1:] for span in sorted(self._closed)]

    def _wrap(self, original, layer: str):
        tag_of = TAGS.get(layer)
        closed, stack, ids, clock = self._closed, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            tag = tag_of(args) if tag_of else None
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                closed.append((span_id, layer, start, end, parent, tag))

        return traced

    @contextmanager
    def unit(self):
        """Trace one unit of work; every replaced attribute is restored after."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        saved.append((experiments, "ProcessPoolExecutor", experiments.ProcessPoolExecutor))
        try:
            for (module, attr, original), (_, _, layer) in zip(saved, TARGETS):
                setattr(module, attr, self._wrap(original, layer))
            experiments.ProcessPoolExecutor = _traced_pool(self.pools)
            span_id = next(self._ids)
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                yield
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self._closed.append((span_id, UNIT, start, end, -1, None))
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write the spans (layer, start/end ns, parent index, tag) and pool timings."""
        payload = {
            "span_fields": ("layer", "start_ns", "end_ns", "parent", "tag"),
            "spans": self.spans,
            "pools": [asdict(p) for p in self.pools],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _traced_pool(pools: list[PoolTimes]) -> type:
    class TracedPool(ProcessPoolExecutor):
        """Records when workers were up and when the pool ran short of work."""

        def __init__(self, *args, **kwargs) -> None:
            self._created = time.perf_counter()
            self._first_submit: float | None = None
            self._finished: list[float] = []
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            if self._first_submit is None:
                self._first_submit = time.perf_counter()
            future.add_done_callback(lambda _f: self._finished.append(time.perf_counter()))
            return future

        def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
            super().shutdown(wait=wait, cancel_futures=cancel_futures)
            if not wait or self._first_submit is None:
                return
            end = time.perf_counter()
            done = sorted(self._finished)
            workers = self._max_workers
            # After this completion, fewer cells than workers remain unfinished.
            tail = done[len(done) - workers] if len(done) >= workers else self._created
            pools.append(
                PoolTimes(self._first_submit - self._created, tail - self._created,
                          end - self._created)
            )
            self._first_submit = None

    return TracedPool


# ----------------------------------------------------------------- summaries


@dataclass
class LayerStats:
    """Per-unit totals and pooled call durations of each layer."""

    unit_walls_ns: list[int]
    #: layer -> per-unit inclusive time, ns
    total_ns: dict[str, list[int]]
    #: layer -> per-unit self time (span minus its child spans), ns
    self_ns: dict[str, list[int]]
    #: layer -> every call's duration, ns
    calls_ns: dict[str, list[int]]
    #: run_trial tag -> every trial's duration, ns
    trial_ns: dict[str, list[int]]


def layer_stats(spans: list[tuple]) -> LayerStats:
    child_ns = [0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    walls: list[int] = []
    total: dict[str, list[int]] = {}
    own: dict[str, list[int]] = {}
    calls: dict[str, list[int]] = {}
    trials: dict[str, list[int]] = {}
    for i, (layer, start, end, _, tag) in enumerate(spans):
        duration = end - start
        if layer == UNIT:
            walls.append(duration)
            for per_unit in (total, own):
                for values in per_unit.values():
                    values.append(0)
            continue
        if layer not in total:
            total[layer] = [0] * len(walls)
            own[layer] = [0] * len(walls)
        total[layer][-1] += duration
        own[layer][-1] += duration - child_ns[i]
        calls.setdefault(layer, []).append(duration)
        if tag is not None:
            trials.setdefault(tag, []).append(duration)
    return LayerStats(walls, total, own, calls, trials)

