"""Monte-Carlo harness: trials, sweeps, and analytic-vs-empirical correlation.

One *trial* simulates a fresh population: a trial channel, one fingerprint
per device, ``n_train``/``n_test`` extracted samples per device per phase.
It reports the empirical silhouette score, the classification accuracy of a
discriminant fitted on the training features, and the fraction of samples
dropped for containing non-finite values or overflowing in normalization.

A *sweep* runs ``n_trials`` independent trials for every (scenario, method,
SNR) cell of the grid and aggregates means and standard errors, pairing each
cell with its closed-form expected silhouette score.  Every cell's closed
form is evaluated before any trial runs, so a sweep with a form that is not
finite fails before it starts.  A cell (`_Cell`) carries its parameters
at its SNR and its two extraction laws, built once for all its trials.

Layout: a trial works in two draw blocks, one per phase, each a slab-major
``(3, D, N, K)`` tensor (slab, device, sample, subcarrier), so each slab is
one contiguous ``(D, N, K)`` tensor.  Every device draws a phase's standard
normals from its own stream, one call per drawn slab; the feature
arithmetic then runs once over the phase and leaves the ``(D, N, K)``
features in slab 0, ``blocks[0]`` (`signal_model.extract_batch` documents
the slabs and the draw order); every later stage runs once per phase over
whole contiguous slabs.  The draws are dead after the arithmetic, so
normalization writes its output into slab 1 and its squared deviations into
slab 2, both contiguous and disjoint from the features.  Its ``(D, N)`` mask
of finite rows is the phase's kept mask: a row with a non-finite entry, or
whose normalization overflows, is normalized to zeros, counted as dropped
and left out of the silhouette and the classifier, which take the tensor and
its kept mask as they are.  A device with fewer than 2 kept rows in either
phase aborts the trial with a ValueError.

The two blocks are two rows, train then test, of the thread's scratch
buffer (`rff_lab._scratch`), each row the flat buffer of one phase's blocks.
Each thread that runs trials, serially or in a pool worker process, keeps
that buffer until it exits and grows it only for a trial it cannot hold, so
no trial allocates or page-faults its own blocks.

Every trial runs through one loop, `_run_trials`, in three stages: *set-up*
on the calling thread (stream seeding, the trial channel and the
fingerprints), *fill* (each (phase, device) index's standard-normal calls,
its slab views taken as it is drawn) and *score* (everything after the
draws: the feature arithmetic, normalization, the silhouette and the
classifier, each called through the module attribute that a
benchmark tracer replaces).  `run_trial` runs one job through it; a pool
worker runs one cell's trials.  A sweep with one worker process runs all
its (cell, trial) jobs trial-major, trial t of every cell before trial
t + 1 of any, and draws ahead when the process may run on at least 2 CPUs
and the grid's smallest fill call, ``min(n_train, n_test)`` times its
smallest K, holds at least `_MIN_DRAW_AHEAD_FILL` normals: while it scores
one job on the calling thread, a helper thread fills the next one into the
other half of a 4-row scratch, and the calling thread then fills whatever
the helper has not reached; both drain one iterator of the job's (phase,
device) indices.  numpy releases the GIL while it fills, so the draws run
on the second core.  The helper calls nothing a benchmark tracer replaces,
and a process pool never uses it.

`concurrent.futures` is imported only where a pool is built: the helper
thread's pool in `_run_trials` and the process pool behind the module
attribute `ProcessPoolExecutor`.  It pulls in `multiprocessing`, `socket`,
`subprocess` and `logging`, which no config, closed form or single trial
needs, so ``import rff_lab`` does not load them.

Determinism: every random stream is seeded from
``(master_seed, scenario, method, snr key, trial_index, stream_id)``, where
the snr key is ``round(snr_db * 1000)`` modulo 2**64 (`_snr_stream_key`), so
a negative SNR seeds as a non-negative int.  Results are bit-identical for a
given configuration no matter how many worker processes run the sweep, and
independent of trial execution order and of which thread fills a stream's
blocks: each stream is drawn whole by one thread, in its own order, and each
cell is reduced in trial order.  Two grid points with the same snr key
would share every stream, so `ExperimentConfig` rejects such grids.  Stream
ids: 0 drives the trial channel; device ``d`` uses ``3d + 1`` (fingerprint),
``3d + 2`` (train extraction), ``3d + 3`` (test extraction).  A trial seeds its
``3D + 1`` generators in one pass (`_trial_streams`), each bit-identical to one
seeded from a `SeedSequence` of the tuple.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _scratch, classifier
from ._scratch import scratch
from .analytic import expected_silhouette
from .channel import ChannelScenario, Phase, TrialChannel, init_trial_channel, require_at_least
from .config import ExperimentConfig, Method, ModelParams, _snr_stream_key
from .config import default_config  # re-exported: perfbench/workloads.py reads it here
from .gaussian_moments import _mean_and_se
from .signal_model import Fingerprints, RatioLaw, draw_fingerprint
from .signal_model import _block_features, _extraction_law, _fill
from .signal_model import extract_batch  # noqa: F401 -- perfbench/spans.py traces it here
from .silhouette import normalize_block, silhouette_from_normalized

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "SweepRecord",
    "CorrelationReport",
    "default_config",
    "run_trial",
    "run_sweep",
    "correlate",
]

MIN_PERMUTATIONS = 1_000

_SCENARIO_ORD = {s: i for i, s in enumerate(ChannelScenario)}
_METHOD_ORD = {m: i for i, m in enumerate(Method)}


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one simulated population."""

    silhouette: float
    accuracy: float
    nonfinite_rate: float


@dataclass(frozen=True)
class SweepRecord:
    """Aggregated results of one (scenario, method, SNR) cell."""

    scenario: ChannelScenario
    method: Method
    snr_db: float
    silhouette_empirical: float
    silhouette_empirical_stderr: float
    silhouette_analytic: float
    accuracy: float
    accuracy_stderr: float
    nonfinite_rate: float


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of the empirical silhouette score with accuracy across cells.

    Pearson's r with its permutation-test p-value, and the least-squares line
    of accuracy on silhouette.
    """

    pearson_r: float
    p_value: float
    ls_slope: float
    ls_intercept: float
    n_points: int


# numpy's `SeedSequence` hash (numpy/random/bit_generator.pyx): the constants
# of `mix_entropy`'s hashmix and mix steps and of `generate_state`, in uint32
# arrays, whose products wrap around as numpy's uint32 hash does.
_MULT_A = 0x931E8875
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
#: INIT_A * MULT_A**j, j = 0..4: past a prefix of n words, hashmix step j of a
#: tail word (one per pool word) reads these times MULT_A**(4n) at j and j + 1
_TAIL_CONST = 0x43B0D7E5 * np.array([pow(_MULT_A, j, 1 << 32) for j in range(5)], np.uint32)
#: INIT_B * MULT_B**i, i = 0..8: the hash constants of generate_state's 8 words
_OUTPUT_CONST = 0x8B51F9DD * np.array([pow(0x58F38DED, i, 1 << 32) for i in range(9)], np.uint32)


def _xorshift(words: np.ndarray) -> np.ndarray:
    """``w ^= w >> 16`` in place: the last step of each hash."""
    words ^= words >> 16
    return words


@functools.cache
def _precomputed_seed_type() -> type:
    """A seed sequence that hands a bit generator its finished state.

    Defined on first use: importing `numpy.random` at module level would add
    its import time to every process that runs no trial (`emit-config`).
    """
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.state

    return PrecomputedSeed


@dataclass(frozen=True)
class _Cell:
    """One (scenario, method, SNR) grid cell at ``params``, which is
    ``cfg.params.with_snr(snr_db)``, and the train and test extraction laws
    that all its trials read, built here (`signal_model._extraction_law`)."""

    cfg: ExperimentConfig
    scenario: ChannelScenario
    method: Method
    snr_db: float
    params: ModelParams
    laws: tuple[RatioLaw | None, RatioLaw | None] = field(init=False)  # None for RAW

    def __post_init__(self) -> None:
        laws = (_extraction_law(self.method, self.params, self.scenario, p) for p in Phase)
        object.__setattr__(self, "laws", tuple(laws))  # the record is frozen


def _trial_streams(cell: _Cell, trial_index: int) -> list[np.random.Generator]:
    """The cell's trial's ``3D + 1`` generators, indexed by stream id.

    numpy encodes the key ``(master_seed, scenario, method, snr key,
    trial_index)`` as its ints' 32-bit words (a negative part is a
    ValueError) and mixes them into its 4-word pool.  The key takes at least
    5 words, so the stream id comes after the pool is filled and numpy would
    mix it in last, as one tail word.  Only that tail mix and
    `generate_state(4, uint64)`'s output hash are replayed here, over all
    stream ids at once and in uint32 as numpy computes them.  Each `PCG64`
    takes its row through its own seeding path (`PrecomputedSeed`), so every
    generator is bit-identical to ``default_rng(SeedSequence(key + (stream,)))``.
    """
    key = (
        cell.cfg.master_seed,
        _SCENARIO_ORD[cell.scenario],
        _METHOD_ORD[cell.method],
        _snr_stream_key(cell.snr_db),
        trial_index,
    )
    pool = np.random.SeedSequence(key).pool
    # The hash constant after the prefix of n words: 4 + 12 steps for the
    # pool's fill and all-to-all mix, then 4 per word past the pool.
    n_words = sum(max(1, (int(part).bit_length() + 31) // 32) for part in key)
    const = _TAIL_CONST * pow(_MULT_A, 4 * n_words, 1 << 32)
    stream = np.arange(3 * cell.cfg.n_devices + 1, dtype=np.uint32)[:, None]
    hashed = _xorshift((stream ^ const[:-1]) * const[1:])
    pool = _xorshift(_MIX_MULT_L * pool - _MIX_MULT_R * hashed)
    words = _xorshift((np.tile(pool, 2) ^ _OUTPUT_CONST[:-1]) * _OUTPUT_CONST[1:])
    # generate_state's packing: little-endian word pairs, one row per stream
    state = words.astype("<u4").view("<u8").astype(np.uint64)
    seeded = _precomputed_seed_type()
    return [np.random.Generator(np.random.PCG64(seeded(row))) for row in state]


@dataclass(frozen=True)
class _Job:
    """A trial of ``cell`` set up on the calling thread and ready to fill: its
    trial channel, fingerprints, and both phases' draw blocks and each
    device's extraction streams that fill them, train then test."""

    cell: _Cell
    trial: TrialChannel
    fp: Fingerprints
    blocks: tuple[np.ndarray, np.ndarray]  # train, test: (3, D, N, K) each
    streams: tuple[list[np.random.Generator], list[np.random.Generator]]


def _row_size(cfg: ExperimentConfig, methods: Iterable[Method]) -> int:
    """Entries of one phase's draw blocks, ``(3, D, N, K)``, in ``methods``' largest trial."""
    k = max(method.subcarriers(cfg.params) for method in methods)
    return 3 * cfg.n_devices * max(cfg.n_train, cfg.n_test) * k


def _set_up(cell: _Cell, trial_index: int, rows: np.ndarray) -> _Job:
    """Seed the trial's streams, draw its channel and fingerprints and view
    ``rows`` (train, test) as its draw blocks."""
    cfg, params = cell.cfg, cell.params
    k = cell.method.subcarriers(params)
    blocks = tuple(
        row[: 3 * cfg.n_devices * n * k].reshape(3, cfg.n_devices, n, k)
        for row, n in zip(rows, (cfg.n_train, cfg.n_test))
    )
    streams = _trial_streams(cell, trial_index)
    trial = init_trial_channel(cell.scenario, params.channel, k, streams[0])
    fp = draw_fingerprint(params, streams[1::3])
    return _Job(cell, trial, fp, blocks, (streams[2::3], streams[3::3]))


def _score(job: _Job) -> TrialResult:
    """The score stage of a filled trial: the features, in slab 0 of each
    phase's blocks, then every later stage."""
    train, test = (
        _block_features(law, job.cell.params, job.fp, job.trial, phase, blocks)
        for law, phase, blocks in zip(job.cell.laws, Phase, job.blocks)
    )
    # The features are slab 0 of the slab-major (3, D, N, K) blocks.  The
    # draws in slabs 1 and 2 are dead: those two contiguous (D, N, K) slabs,
    # disjoint from the features, take the normalized features and the
    # squared deviations.  Normalization keeps the rows whose spread is finite.
    train_blocks, test_blocks = job.blocks
    train_norm, train_kept = normalize_block(train, out=train_blocks[1], square=train_blocks[2])
    test_norm, test_kept = normalize_block(test, out=test_blocks[1], square=test_blocks[2])
    counts = np.stack([train_kept.sum(axis=1), test_kept.sum(axis=1)], axis=1)
    short = np.argwhere(counts < 2)  # (device, phase), device-major
    if short.size:
        device, phase = short[0]
        raise ValueError(
            f"device {device} {(Phase.TRAIN, Phase.TEST)[phase].value} set has "
            f"fewer than 2 finite samples at snr_db={job.cell.snr_db}"
        )
    n_total = train_kept.size + test_kept.size
    n_dropped = n_total - int(counts.sum())
    score = silhouette_from_normalized(train_norm, test_norm, train_kept, test_kept)
    model = classifier.fit(train_norm, train_kept)
    acc = classifier.accuracy(model, test_norm, test_kept)

    return TrialResult(
        silhouette=score, accuracy=acc, nonfinite_rate=n_dropped / n_total
    )


def _run_trials(jobs: Sequence[tuple[_Cell, int]], draw_ahead: bool) -> list[TrialResult]:
    """The trials ``(cell, trial_index)`` of ``jobs``, in order: each set up
    and scored on this thread, and filled in between.

    Without ``draw_ahead``, one job is in flight, in 2 rows (train, test) of
    this thread's scratch.  With it, two are, in the two halves of 4 rows,
    so no fill writes the blocks being scored: a helper thread fills job
    j + 1 while job j is scored.  Once job j is scored, this thread sets up
    job j + 2 in j's half, then fills whatever of job j + 1 the helper has
    not reached, so neither thread waits long for the other.  The first job
    to fail, in order, raises: an error in setting up a later job waits its
    turn.  The helper is joined on return and on raise.
    """
    depth = 2 if draw_ahead else 1
    cfg = jobs[0][0].cfg
    work = scratch(depth * len(Phase), _row_size(cfg, {cell.method for cell, _ in jobs}))
    halves = np.split(work, depth)
    results: list[TrialResult] = []
    if draw_ahead:
        from concurrent.futures import ThreadPoolExecutor  # see the module docstring
    with ThreadPoolExecutor(max_workers=1) if draw_ahead else contextlib.nullcontext() as helper:

        def queue(j: int):
            """Job j set up here, the fill of its (phase, device) indices left
            to draw and the helper's run of that fill; or its set-up's error."""
            try:
                job = _set_up(*jobs[j], halves[j % depth])
            except Exception as error:
                return error, None, None
            # both threads drain one iterator; the helper calls nothing a
            # benchmark tracer replaces
            pending = itertools.product(range(len(Phase)), range(cfg.n_devices))
            fill = functools.partial(
                _fill, job.cell.method, job.trial, job.streams, job.blocks, pending
            )
            return job, fill, helper.submit(fill) if helper else None

        queued = collections.deque(map(queue, range(min(depth, len(jobs)))))
        for j in range(len(jobs)):
            job, fill, filled = queued.popleft()
            if fill is None:
                raise job
            fill()
            if filled is not None:
                filled.result()
            results.append(_score(job))
            if j + depth < len(jobs):
                queued.append(queue(j + depth))
    return results


def run_trial(
    cfg: ExperimentConfig,
    scenario: ChannelScenario,
    method: Method,
    snr_db: float,
    trial_index: int,
) -> TrialResult:
    """One independent population simulation; deterministic in its indices.

    Samples whose normalization is not finite are counted as dropped and left
    out of the score; a device left with fewer than 2 in a phase is a ValueError.

    The draw blocks live in this thread's scratch buffer (see the module
    docstring), which the result does not depend on.
    """
    cell = _Cell(cfg, scenario, method, snr_db, cfg.params.with_snr(snr_db))
    return _run_trials([(cell, trial_index)], draw_ahead=False)[0]


def _record(cell: _Cell, analytic: float, results: Sequence[TrialResult]) -> SweepRecord:
    """A cell's record: its trials' results reduced in trial order, and its closed form."""
    sil = np.array([r.silhouette for r in results])
    acc = np.array([r.accuracy for r in results])
    nonfinite = np.array([r.nonfinite_rate for r in results])
    sil_mean, sil_se = _mean_and_se(sil)
    acc_mean, acc_se = _mean_and_se(acc)
    return SweepRecord(
        scenario=cell.scenario,
        method=cell.method,
        snr_db=cell.snr_db,
        silhouette_empirical=sil_mean,
        silhouette_empirical_stderr=sil_se,
        silhouette_analytic=analytic,
        accuracy=acc_mean,
        accuracy_stderr=acc_se,
        nonfinite_rate=float(nonfinite.mean()),
    )


def _sorted_cells(cfg: ExperimentConfig) -> list[tuple[_Cell, float]]:
    """Every grid cell in record order, paired with its closed form, which is
    evaluated first: a law past the floats fails its closed form too, and
    maybe at an earlier step, whose error is the one to report."""
    keys = sorted(
        itertools.product(cfg.scenarios, cfg.methods, cfg.snr_db_grid),
        key=lambda c: (c[0].value, c[1].value, c[2]),
    )
    cells = []
    for scenario, method, snr_db in keys:
        params = cfg.params.with_snr(snr_db)
        analytic = expected_silhouette(method, scenario, params)
        cells.append((_Cell(cfg, scenario, method, snr_db, params), analytic))
    return cells


#: Least standard normals in one fill call, ``min(n_train, n_test)`` times
#: the grid's smallest K, for a one-worker sweep to draw ahead.  Below it the
#: helper thread's GIL hand-offs cost more CPU than its draws hide: at 120-240
#: normals a sweep gained at most 7% in wall time for 26-31% more CPU, at
#: 600-960 it gained 1.38-1.60x for 1-17% more (2-core VM, numpy 2.4).
_MIN_DRAW_AHEAD_FILL = 500


def _draws_ahead(cfg: ExperimentConfig) -> bool:
    """Whether a one-worker sweep of ``cfg`` fills each next trial on a second core."""
    k = min(method.subcarriers(cfg.params) for method in cfg.methods)
    return min(cfg.n_train, cfg.n_test) * k >= _MIN_DRAW_AHEAD_FILL and _scratch.usable_cpus() >= 2


def _run_cells(cells: Sequence[tuple[_Cell, float]], draw_ahead: bool) -> list[SweepRecord]:
    """Every trial of ``cells``, paired with their closed forms, in one
    `_run_trials`, trial-major; each cell is reduced in trial order."""
    jobs = [(cell, t) for t in range(cells[0][0].cfg.n_trials) for cell, _ in cells]
    results = _run_trials(jobs, draw_ahead)
    return [_record(*cell, results[i :: len(cells)]) for i, cell in enumerate(cells)]


def _run_cell(cell: tuple[_Cell, float]) -> SweepRecord:
    """A pool task: one cell's trials, with no helper, since the pool leaves no core spare."""
    return _run_cells([cell], draw_ahead=False)[0]


def ProcessPoolExecutor(max_workers: int):
    """A `concurrent.futures.ProcessPoolExecutor`, its module imported when a
    sweep first builds a pool (see the module docstring).

    `run_sweep` builds its pool through this module attribute, which keeps the
    class's name, so a benchmark tracer can replace it with a pool class.
    """
    from concurrent import futures

    return futures.ProcessPoolExecutor(max_workers=max_workers)


def run_sweep(cfg: ExperimentConfig, n_threads: int = 1) -> list[SweepRecord]:
    """All grid cells, sorted by (scenario, method, snr_db).

    ``n_threads > 1`` distributes cells over worker processes; results do not
    depend on the worker count.  One worker process draws each next trial
    on a helper thread when `_draws_ahead` holds, with the same results.
    Every cell's closed form is evaluated here, before any trial runs or
    worker starts: one that is not finite raises its ValueError first.
    """
    require_at_least("n_threads", n_threads, 1)
    cells = _sorted_cells(cfg)
    if n_threads == 1 or len(cells) == 1:
        return _run_cells(cells, _draws_ahead(cfg))
    with ProcessPoolExecutor(max_workers=min(n_threads, len(cells))) as pool:
        return list(pool.map(_run_cell, cells))


def correlate(
    records: Sequence[SweepRecord],
    n_permutations: int = MIN_PERMUTATIONS,
    seed: int = 0,
) -> CorrelationReport:
    """Pearson correlation between empirical silhouette score and accuracy.

    The two-sided p-value comes from a permutation test that shuffles the
    accuracy column: ``(1 + #{|r_perm| >= |r_obs|}) / (n_permutations + 1)``.
    The least-squares line regresses accuracy on silhouette.
    """
    require_at_least("n_permutations", n_permutations, MIN_PERMUTATIONS)
    if len(records) < 3:
        raise ValueError(f"need at least 3 records, got {len(records)}")
    x = np.array([r.silhouette_empirical for r in records])
    y = np.array([r.accuracy for r in records])
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("records contain non-finite scores")
    if x.std() == 0.0 or y.std() == 0.0:
        raise ValueError("zero variance: correlation undefined")

    def pearson(a: np.ndarray, b: np.ndarray) -> float:
        am = a - a.mean()
        bm = b - b.mean()
        return float((am @ bm) / math.sqrt((am @ am) * (bm @ bm)))

    r_obs = pearson(x, y)
    rng = np.random.default_rng(seed)
    exceed = sum(
        abs(pearson(x, rng.permutation(y))) >= abs(r_obs)
        for _ in range(n_permutations)
    )
    p_value = (1 + exceed) / (n_permutations + 1)
    slope, intercept = np.polyfit(x, y, deg=1)
    return CorrelationReport(
        pearson_r=r_obs,
        p_value=p_value,
        ls_slope=float(slope),
        ls_intercept=float(intercept),
        n_points=len(records),
    )
