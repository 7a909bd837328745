"""Monte-Carlo harness: trials, sweeps, and analytic-vs-empirical correlation.

One *trial* simulates a fresh population: a trial channel, one fingerprint
per device, ``n_train``/``n_test`` extracted samples per device per phase.
It reports the empirical silhouette score, the classification accuracy of a
discriminant fitted on the training features, and the fraction of samples
dropped for containing non-finite values.

A *sweep* runs ``n_trials`` independent trials for every (scenario, method,
SNR) cell of the grid and aggregates means and standard errors, pairing each
cell with its closed-form expected silhouette score.  Every cell's closed
form is evaluated before any trial runs, so a sweep with a form that is not
finite fails before it starts.

Layout: a trial works in two draw blocks, one per phase, each a slab-major
``(3, D, N, K)`` tensor (slab, device, sample, subcarrier), so each slab is
one contiguous ``(D, N, K)`` tensor.  Extraction fills a phase's blocks in
one call, every device drawing from its own stream with one call per drawn
slab, and leaves the ``(D, N, K)`` features in slab 0, ``blocks[0]``
(`extract_batch`); every later stage runs once per phase over whole
contiguous slabs.  One non-finite screen gives a ``(D, N)`` kept mask per
phase: a row with any non-finite entry is zeroed, counted as dropped, and
left out of the silhouette and the classifier, which take the tensor and its
kept mask as they are.  A device with fewer than 2 kept rows in either phase
aborts the trial with a ValueError.  The draws are dead after extraction, so
normalization writes its output into slab 1 and its squared deviations into
slab 2, both contiguous and disjoint from the features.

The two blocks are the two rows, train then test, of the thread's scratch
buffer (`rff_lab._scratch`), each row the flat buffer of one phase's blocks.
Each thread that runs trials, serially or in a pool worker process, keeps
that buffer until it exits and grows it only for a trial it cannot hold, so
no trial allocates or page-faults its own blocks.

Determinism: every random stream is seeded from
``(master_seed, scenario, method, round(snr_db * 1000), trial_index,
stream_id)``; results are bit-identical for a given configuration no matter
how many worker processes run the sweep, and independent of trial execution
order.  Two grid points with the same rounded SNR key would share every
stream, so `ExperimentConfig` rejects such grids.  Stream ids: 0 drives the
trial channel; device ``d`` uses ``3d + 1`` (fingerprint), ``3d + 2`` (train
extraction), ``3d + 3`` (test extraction).  A trial seeds its ``3D + 1``
generators in one pass (`_trial_streams`): numpy encodes the key up to the
trial index, mixes it into its pool and seeds each `PCG64`; the library
replays only the stream id's tail mix and the output hash, over all stream
ids at once.  Every generator is bit-identical to one seeded from a
`SeedSequence` of the tuple.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import classifier
from ._scratch import scratch
from .analytic import expected_silhouette
from .channel import ChannelParams, ChannelScenario, Phase, init_trial_channel
from .signal_model import Method, ModelParams, draw_fingerprint, extract_batch
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

#: SNR grid (dB) of the default sweep.
DEFAULT_SNR_GRID_DB = (0.0, 10.0, 20.0, 25.0, 30.0, 35.0, 40.0)

MIN_PERMUTATIONS = 1_000

_SCENARIO_ORD = {s: i for i, s in enumerate(ChannelScenario)}
_METHOD_ORD = {m: i for i, m in enumerate(Method)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of a sweep."""

    params: ModelParams
    scenarios: tuple[ChannelScenario, ...]
    methods: tuple[Method, ...]
    snr_db_grid: tuple[float, ...]
    n_devices: int
    n_train: int
    n_test: int
    n_trials: int
    master_seed: int
    #: classify on the same normalized features the silhouette uses; turn off
    #: to probe sensitivity to the normalization step
    classify_normalized: bool = True

    def __post_init__(self) -> None:
        # the silhouette and the LDA need 2 devices and 2 samples per device and phase
        for name, least in (("n_devices", 2), ("n_train", 2), ("n_test", 2), ("n_trials", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        for name in ("scenarios", "methods", "snr_db_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty")
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ValueError("scenarios contains duplicates")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods contains duplicates")
        if not all(math.isfinite(v) for v in self.snr_db_grid):
            raise ValueError("snr_db_grid must be finite")
        if len({_snr_stream_key(v) for v in self.snr_db_grid}) != len(self.snr_db_grid):
            raise ValueError(
                "snr_db_grid contains duplicates or points under 0.0005 dB apart, "
                "which would share every random stream"
            )
        for snr_db in self.snr_db_grid:
            self.params.sigma_n_for_snr(snr_db)  # raises where the noise std cannot be set


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


def default_config() -> ExperimentConfig:
    """Reference configuration: the standard parameter set and full grid."""
    channel = ChannelParams(mu_h=1.0, sigma_h=0.15, mu_h_non=1.0, sigma_h_non=0.2)
    params = ModelParams(
        x=1.0,
        f_ra=1.0,
        f_ta=1.0,
        f_ru=1.0,
        f_tu_l=1.0,
        eta=2.0,
        r_l=52,
        r_s=12,
        mu_u=1.0,
        sigma_u=0.1,
        mu_s=1.0,
        sigma_s=0.08,
        sigma_n=0.1,
        channel=channel,
    )
    return ExperimentConfig(
        params=params,
        scenarios=tuple(ChannelScenario),
        methods=tuple(Method),
        snr_db_grid=DEFAULT_SNR_GRID_DB,
        n_devices=10,
        n_train=100,
        n_test=100,
        n_trials=200,
        master_seed=42,
    )


def _snr_stream_key(snr_db: float) -> int:
    """The SNR's part of a stream seed: millidecibels, rounded."""
    try:
        return int(round(snr_db * 1000.0)) & 0xFFFFFFFFFFFFFFFF
    except OverflowError:
        raise ValueError(f"snr_db={snr_db} is out of range: its millidecibels overflow") from None


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
    its import time to every process that only parses a config.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.state

    return PrecomputedSeed


def _trial_streams(
    cfg: ExperimentConfig,
    scenario: ChannelScenario,
    method: Method,
    snr_db: float,
    trial_index: int,
) -> list[np.random.Generator]:
    """The trial's ``3D + 1`` generators, indexed by stream id.

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
        cfg.master_seed,
        _SCENARIO_ORD[scenario],
        _METHOD_ORD[method],
        _snr_stream_key(snr_db),
        trial_index,
    )
    pool = np.random.SeedSequence(key).pool
    # The hash constant after the prefix of n words: 4 + 12 steps for the
    # pool's fill and all-to-all mix, then 4 per word past the pool.
    n_words = sum(max(1, (int(part).bit_length() + 31) // 32) for part in key)
    const = _TAIL_CONST * pow(_MULT_A, 4 * n_words, 1 << 32)
    stream = np.arange(3 * cfg.n_devices + 1, dtype=np.uint32)[:, None]
    hashed = _xorshift((stream ^ const[:-1]) * const[1:])
    pool = _xorshift(_MIX_MULT_L * pool - _MIX_MULT_R * hashed)
    words = _xorshift((np.tile(pool, 2) ^ _OUTPUT_CONST[:-1]) * _OUTPUT_CONST[1:])
    # generate_state's packing: little-endian word pairs, one row per stream
    state = words.astype("<u4").view("<u8").astype(np.uint64)
    seeded = _precomputed_seed_type()
    return [np.random.Generator(np.random.PCG64(seeded(row))) for row in state]


def _screen_nonfinite(block: np.ndarray) -> np.ndarray:
    """The (D, N) mask of rows with only finite entries; the other rows are zeroed."""
    kept = np.isfinite(block).all(axis=2)
    block[~kept] = 0.0
    return kept


def run_trial(
    cfg: ExperimentConfig,
    scenario: ChannelScenario,
    method: Method,
    snr_db: float,
    trial_index: int,
) -> TrialResult:
    """One independent population simulation; deterministic in its indices.

    Samples with non-finite features are counted and left out of the silhouette
    and the classifier; a device left with fewer than 2 in a phase is a ValueError.

    The draw blocks live in this thread's scratch buffer (see the module
    docstring), which the result does not depend on.
    """
    params = cfg.params.with_snr(snr_db)
    k = method.subcarriers(params)
    work = scratch(len(Phase), 3 * cfg.n_devices * max(cfg.n_train, cfg.n_test) * k)
    train_blocks, test_blocks = (
        row[: 3 * cfg.n_devices * n * k].reshape(3, cfg.n_devices, n, k)
        for row, n in zip(work, (cfg.n_train, cfg.n_test))
    )
    streams = _trial_streams(cfg, scenario, method, snr_db, trial_index)
    trial = init_trial_channel(scenario, params.channel, k, streams[0])

    fp = draw_fingerprint(params, streams[1::3])
    train = extract_batch(
        method, params, fp, trial, Phase.TRAIN, cfg.n_train, streams[2::3], blocks=train_blocks
    )
    test = extract_batch(
        method, params, fp, trial, Phase.TEST, cfg.n_test, streams[3::3], blocks=test_blocks
    )

    train_kept = _screen_nonfinite(train)
    test_kept = _screen_nonfinite(test)
    counts = np.stack([train_kept.sum(axis=1), test_kept.sum(axis=1)], axis=1)
    short = np.argwhere(counts < 2)  # (device, phase), device-major
    if short.size:
        device, phase = short[0]
        raise ValueError(
            f"device {device} {(Phase.TRAIN, Phase.TEST)[phase].value} set has "
            f"fewer than 2 finite samples at snr_db={snr_db}"
        )
    n_total = cfg.n_devices * (cfg.n_train + cfg.n_test)
    n_dropped = n_total - int(counts.sum())

    # The features are slab 0 of the slab-major (3, D, N, K) blocks.  The
    # draws in slabs 1 and 2 are dead: those two contiguous (D, N, K) slabs,
    # disjoint from the features, take the normalized features and the
    # squared deviations.
    train_norm = normalize_block(train, out=train_blocks[1], square=train_blocks[2])[0]
    test_norm = normalize_block(test, out=test_blocks[1], square=test_blocks[2])[0]
    score = silhouette_from_normalized(train_norm, test_norm, train_kept, test_kept)

    if cfg.classify_normalized:
        train, test = train_norm, test_norm
    model = classifier.fit(train, train_kept)
    acc = classifier.accuracy(model, test, test_kept)

    return TrialResult(
        silhouette=score, accuracy=acc, nonfinite_rate=n_dropped / n_total
    )


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, float("nan")
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


#: (config, scenario, method, snr_db, closed-form expected silhouette)
_Cell = tuple[ExperimentConfig, ChannelScenario, Method, float, float]


def _run_cell(cell: _Cell) -> SweepRecord:
    cfg, scenario, method, snr_db, analytic = cell
    results = [run_trial(cfg, scenario, method, snr_db, trial) for trial in range(cfg.n_trials)]
    sil = np.array([r.silhouette for r in results])
    acc = np.array([r.accuracy for r in results])
    nonfinite = np.array([r.nonfinite_rate for r in results])
    sil_mean, sil_se = _mean_and_stderr(sil)
    acc_mean, acc_se = _mean_and_stderr(acc)
    return SweepRecord(
        scenario=scenario,
        method=method,
        snr_db=snr_db,
        silhouette_empirical=sil_mean,
        silhouette_empirical_stderr=sil_se,
        silhouette_analytic=analytic,
        accuracy=acc_mean,
        accuracy_stderr=acc_se,
        nonfinite_rate=float(nonfinite.mean()),
    )


def _sorted_cells(cfg: ExperimentConfig) -> list[_Cell]:
    """Every grid cell in record order, carrying its closed form, evaluated here."""
    keys = sorted(
        itertools.product(cfg.scenarios, cfg.methods, cfg.snr_db_grid),
        key=lambda c: (c[0].value, c[1].value, c[2]),
    )
    return [
        (cfg, scenario, method, snr_db,
         expected_silhouette(method, scenario, cfg.params.with_snr(snr_db)))
        for scenario, method, snr_db in keys
    ]


def run_sweep(cfg: ExperimentConfig, n_threads: int = 1) -> list[SweepRecord]:
    """All grid cells, sorted by (scenario, method, snr_db).

    ``n_threads > 1`` distributes cells over worker processes; results do not
    depend on the worker count.  Every cell's closed form is evaluated here,
    before any trial runs or worker starts: one that is not finite raises
    its ValueError first.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    cells = _sorted_cells(cfg)
    if n_threads == 1 or len(cells) == 1:
        return [_run_cell(cell) for cell in cells]
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
    if n_permutations < MIN_PERMUTATIONS:
        raise ValueError(f"n_permutations must be >= {MIN_PERMUTATIONS}")
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
