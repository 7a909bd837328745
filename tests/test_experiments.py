"""Tests for the trial/sweep harness and the correlation report."""

import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rff_lab import _scratch, classifier, experiments
from rff_lab.analytic import expected_silhouette
from rff_lab.channel import ChannelScenario, Phase
from rff_lab.cli import format_records_csv
from rff_lab.config import render_config
from rff_lab.experiments import (
    MIN_PERMUTATIONS,
    CorrelationReport,
    ExperimentConfig,
    SweepRecord,
    correlate,
    default_config,
    run_sweep,
    run_trial,
)
from rff_lab.experiments import _snr_stream_key, _trial_streams
from rff_lab.gaussian_moments import GaussianSpec, RatioForm, RatioParams, _mean_and_se
from rff_lab.gaussian_moments import mc_ratio_detail
from rff_lab.signal_model import Method, ModelParams
from rff_lab.silhouette import normalize_block
from fresh_process import run_fresh
from silhouette_reference import definition_lda, definition_silhouette


def small_config(**overrides) -> ExperimentConfig:
    base = replace(
        default_config(),
        scenarios=(ChannelScenario.DETERMINISTIC,),
        methods=(Method.RAW, Method.CR),
        snr_db_grid=(20.0,),
        n_devices=3,
        n_train=8,
        n_test=8,
        n_trials=3,
        master_seed=7,
    )
    return replace(base, **overrides)


class TestConfig:
    def test_default_config_shape(self):
        cfg = default_config()
        assert cfg.n_devices == 10
        assert cfg.n_train == cfg.n_test == 100
        assert cfg.n_trials == 200
        assert cfg.master_seed == 42
        assert len(cfg.scenarios) == 3
        assert len(cfg.methods) == 5
        assert len(cfg.snr_db_grid) == 7

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_devices": 1},
            {"n_train": 0},
            {"n_test": 0},
            {"n_trials": 0},
            {"master_seed": -1},
            {"methods": ()},
            {"scenarios": ()},
            {"snr_db_grid": ()},
            {"methods": (Method.RAW, Method.RAW)},
            {"scenarios": (ChannelScenario.DETERMINISTIC,) * 2},
            {"snr_db_grid": (20.0, 20.0)},
            {"snr_db_grid": (20.0, float("nan"))},
            {"snr_db_grid": (20.0001, 20.0004)},  # same random streams
            {"n_train": 1},  # a device needs 2 samples per phase
            {"n_test": 1},
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)


class TestRunTrial:
    def test_trial_is_deterministic_in_its_indices(self):
        cfg = small_config()
        a = run_trial(cfg, ChannelScenario.IID_STOCHASTIC, Method.PC, 25.0, 4)
        b = run_trial(cfg, ChannelScenario.IID_STOCHASTIC, Method.PC, 25.0, 4)
        assert a == b  # bitwise-equal floats

    def test_trials_differ_across_indices(self):
        cfg = small_config()
        a = run_trial(cfg, ChannelScenario.IID_STOCHASTIC, Method.PC, 25.0, 0)
        b = run_trial(cfg, ChannelScenario.IID_STOCHASTIC, Method.PC, 25.0, 1)
        assert a.silhouette != b.silhouette

    def test_result_fields_are_in_range(self):
        cfg = small_config()
        r = run_trial(cfg, ChannelScenario.NON_IID_STOCHASTIC, Method.SL, 10.0, 0)
        assert -1.0 <= r.silhouette <= 1.0
        assert 0.0 <= r.accuracy <= 1.0
        assert 0.0 <= r.nonfinite_rate <= 1.0

    def test_identical_devices_degenerate_to_chance(self):
        cfg = small_config(
            params=replace(default_config().params, sigma_u=0.0, sigma_s=0.0),
            n_devices=4,
            n_train=60,
            n_test=250,
        )
        r = run_trial(cfg, ChannelScenario.IID_STOCHASTIC, Method.RAW, 25.0, 0)
        p = 1.0 / cfg.n_devices
        eps = math.sqrt(p * (1.0 - p) / (cfg.n_devices * cfg.n_test))
        assert abs(r.accuracy - p) <= 3.0 * eps
        assert abs(r.silhouette) <= 0.05

    def test_the_classifier_takes_the_features_the_silhouette_scores(self, monkeypatch):
        seen = {}

        def spy(name, function):
            def wrapped(*args):
                seen[name] = args
                return function(*args)

            return wrapped

        for module, name in (
            (experiments, "silhouette_from_normalized"),
            (classifier, "fit"),
            (classifier, "accuracy"),
        ):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        run_trial(small_config(), ChannelScenario.IID_STOCHASTIC, Method.PC, 25.0, 0)
        train, test, train_kept, test_kept = seen["silhouette_from_normalized"]
        fit_train, fit_kept = seen["fit"]
        _, accuracy_test, accuracy_kept = seen["accuracy"]
        assert fit_train is train and fit_kept is train_kept
        assert accuracy_test is test and accuracy_kept is test_kept

    @pytest.mark.parametrize("scenario", list(ChannelScenario))
    def test_a_noise_variance_past_the_floats_stops_every_ratio_method(self, scenario):
        # sigma_n is ~1e155 at -3100 dB, so sigma_n^2 overflows and no ratio
        # law is finite; RAW has no ratio law, but every raw feature's squared
        # deviations overflow, so normalization drops every row
        cfg = small_config()
        for method in (Method.SL, Method.CR, Method.PC, Method.RC):
            with pytest.raises(ValueError) as excinfo:
                run_trial(cfg, scenario, method, -3100.0, 0)
            assert str(excinfo.value) == (
                f"{method.value} closed form is not finite in the train phase"
            )
        with pytest.raises(ValueError) as excinfo:
            run_trial(cfg, scenario, Method.RAW, -3100.0, 0)
        assert str(excinfo.value) == (
            "device 0 train set has fewer than 2 finite samples at snr_db=-3100.0"
        )


class TestRunSweep:
    def test_records_cover_the_grid_in_sorted_order(self):
        cfg = small_config(
            scenarios=(ChannelScenario.IID_STOCHASTIC, ChannelScenario.DETERMINISTIC),
            methods=(Method.SL, Method.RAW),
            snr_db_grid=(30.0, 10.0),
        )
        records = run_sweep(cfg)
        keys = [(r.scenario.value, r.method.value, r.snr_db) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 2 * 2 * 2

    def test_analytic_column_matches_closed_form(self):
        cfg = small_config()
        for r in run_sweep(cfg):
            expected = expected_silhouette(
                r.method, r.scenario, cfg.params.with_snr(r.snr_db)
            )
            assert r.silhouette_analytic == pytest.approx(expected, rel=1e-12)

    def test_worker_count_does_not_change_results(self):
        # the second config makes each worker reuse its workspace across
        # subcarrier counts (SL's 12, PC's 52) and scenarios
        for cfg in (
            small_config(),
            small_config(
                scenarios=(ChannelScenario.DETERMINISTIC, ChannelScenario.IID_STOCHASTIC),
                methods=(Method.SL, Method.PC),
                n_train=9,
                n_test=7,
            ),
        ):
            assert run_sweep(cfg, n_threads=1) == run_sweep(cfg, n_threads=2)

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_each_cell_builds_its_parameters_once(self, monkeypatch, tmp_path, n_threads):
        """The trials of a cell read the parameters built with its closed form.

        Each call appends to a file, so forked pool workers count too.
        """
        calls = tmp_path / "with_snr"
        real = ModelParams.with_snr

        def counted(params, snr_db):
            with open(calls, "a") as handle:
                handle.write("x")
            return real(params, snr_db)

        monkeypatch.setattr(ModelParams, "with_snr", counted)
        cfg = small_config(snr_db_grid=(10.0, 30.0))  # 4 cells of 3 trials
        run_sweep(cfg, n_threads=n_threads)
        assert calls.read_text() == "x" * 4

    def test_each_cell_builds_its_laws_once(self, monkeypatch):
        """A ratio cell builds 2 `RatioParams` for its closed form and 2 for its
        train and test extraction laws, however many trials it runs."""
        built = []

        def counted(self, check=RatioParams.__post_init__):
            built.append(self)
            check(self)

        monkeypatch.setattr(RatioParams, "__post_init__", counted)
        cfg = small_config(
            scenarios=tuple(ChannelScenario),
            methods=(Method.SL, Method.CR, Method.PC, Method.RC),
            snr_db_grid=(20.0, 30.0),
        )
        counts = []
        for n_trials in (1, 4):
            built.clear()
            run_sweep(replace(cfg, n_trials=n_trials))
            counts.append(len(built))
        assert counts == [4 * 3 * 4 * 2] * 2

    def test_a_closed_form_is_evaluated_before_its_cells_laws(self):
        """At x = 1e-60 with zero-mean test CSI, RC's train closed form fails
        though its train law is finite, and its test law fails: the sweep
        reports the closed form's error, a trial the law's."""
        base = default_config().params
        params = replace(base, x=1e-60, channel=replace(base.channel, mu_h_non=0.0))
        scenario = ChannelScenario.NON_IID_STOCHASTIC
        cfg = small_config(params=params, scenarios=(scenario,), methods=(Method.RC,))
        with pytest.raises(ValueError, match="^rc closed form is not finite in the train phase$"):
            run_sweep(cfg)
        with pytest.raises(ValueError, match="^rc closed form is not finite in the test phase$"):
            run_trial(cfg, scenario, Method.RC, 20.0, 0)

    @pytest.mark.parametrize("draw_ahead", [False, True])
    def test_a_one_worker_sweep_runs_trial_major(self, monkeypatch, draw_ahead):
        """Each (scenario, trial index) is one run of jobs, each cell's trials
        rise in index, and every cell keeps the records of the pool and of
        its own pool task."""
        cfg = small_config(
            scenarios=(ChannelScenario.IID_STOCHASTIC, ChannelScenario.DETERMINISTIC),
            methods=(Method.RC, Method.RAW, Method.SL),
            snr_db_grid=(10.0, 30.0),
        )
        real = experiments._set_up
        seen = []

        def set_up(cell, trial_index, rows):
            seen.append((cell.scenario, cell.method, cell.snr_db, trial_index))
            return real(cell, trial_index, rows)

        monkeypatch.setattr(experiments, "_set_up", set_up)
        cells = experiments._sorted_cells(cfg)
        records = experiments._run_cells(cells, draw_ahead)
        runs = [key for key, _ in itertools.groupby(seen, lambda job: (job[0], job[3]))]
        assert len(runs) == len(set(runs)) == 2 * cfg.n_trials
        for cell, _ in cells:
            key = (cell.scenario, cell.method, cell.snr_db)
            assert [job[3] for job in seen if job[:3] == key] == list(range(cfg.n_trials))
        assert len(seen) == len(cells) * cfg.n_trials
        assert records == run_sweep(cfg, n_threads=2)
        assert records == [experiments._run_cell(cell) for cell in cells]

    def test_the_pool_is_built_through_the_module_attribute(self, monkeypatch):
        """A benchmark tracer swaps its own pool class in here."""
        built = []

        class Recorded(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        cfg = small_config()
        serial = format_records_csv(run_sweep(cfg))
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorded)
        assert format_records_csv(run_sweep(cfg, n_threads=2)) == serial
        assert [pool._max_workers for pool in built] == [2]

    def test_default_grid_bytes_are_pinned(self):
        """One trial per default cell at seed 42 reproduces these exact bytes.

        This pins the "same (seed, cell) -> same bytes" contract across
        commits.  A deliberate change to the random streams or to the feature
        or closed-form arithmetic re-records this digest together with a
        version bump.
        """
        text = format_records_csv(run_sweep(replace(default_config(), n_trials=1)))
        assert len(text.splitlines()) == 1 + 105
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f4412c16e9e216c0ffc36fcc4099c88b79e8924bf266a774766357bdb657fec7"
        )

    def test_concurrent_sweeps_in_threads_keep_their_own_workspaces(self):
        """Sweeps of two sizes and oracle calls, interleaved on 4 threads at
        once, give their serial results.

        Each oracle call needs more scratch than either sweep (3 x 2e4 entries
        for the cross difference, 2 x 3e4 for the paired product, against
        2 x 8580), so a thread's buffer grows mid-run.
        """
        g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01)
        jobs = [
            (run_sweep, small_config(methods=(Method.SL, Method.PC), n_trials=2)),
            (mc_ratio_detail, RatioForm.CROSS_DIFFERENCE, g, p, 2 * 10**4, 3),
            (run_sweep, small_config(n_devices=5, n_train=11, n_test=6, n_trials=2)),
            (mc_ratio_detail, RatioForm.PAIRED_PRODUCT, g, p, 3 * 10**4, 4),
        ]
        expected = [fn(*args) for fn, *args in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(*jobs[i % 4]) for i in range(16)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[i % 4] for i in range(16)]

    def test_rejects_nonpositive_thread_count(self):
        with pytest.raises(ValueError, match="n_threads"):
            run_sweep(small_config(), n_threads=0)

    def test_stderr_shrinks_with_trial_count(self):
        cfg = small_config(methods=(Method.RAW,), n_devices=2, n_trials=40)
        (base,) = run_sweep(cfg)
        (quadrupled,) = run_sweep(replace(cfg, n_trials=160))
        ratio = quadrupled.silhouette_empirical_stderr / base.silhouette_empirical_stderr
        assert 0.5 * 0.75 <= ratio <= 0.5 * 1.25

    def test_accuracy_improves_from_low_to_high_snr(self):
        cfg = small_config(
            methods=(Method.RAW,), snr_db_grid=(0.0, 40.0), n_trials=10
        )
        low, high = run_sweep(cfg)
        assert low.snr_db == 0.0 and high.snr_db == 40.0
        assert high.accuracy > low.accuracy
        assert high.silhouette_empirical > low.silhouette_empirical


def subnormal_config(**overrides) -> ExperimentConfig:
    """Nearly every CR feature is 0/0 on this channel, so trials drop too many rows."""
    base = default_config()
    channel = replace(base.params.channel, mu_h=5e-324, sigma_h=5e-324)
    return replace(
        base,
        params=replace(base.params, channel=channel),
        scenarios=(ChannelScenario.IID_STOCHASTIC,),
        methods=(Method.CR,),
        snr_db_grid=(30.0,),
        n_devices=2,
        **overrides,
    )


class TestDrawAhead:
    """The one-worker sweep that fills each next trial on a helper thread."""

    def test_every_scenario_and_method_gives_the_inline_records(self):
        cfg = small_config(
            scenarios=tuple(ChannelScenario),
            methods=tuple(Method),
            snr_db_grid=(10.0, 30.0),
            n_devices=3,
            n_train=7,
            n_test=5,
            n_trials=3,
        )
        cells = experiments._sorted_cells(cfg)
        assert experiments._run_cells(cells, True) == experiments._run_cells(cells, False)

    def test_one_trial_per_cell_and_one_cell(self):
        # one trial leaves a NaN standard error, so compare the CSV bytes
        for cfg in (small_config(n_trials=1), small_config(methods=(Method.PC,), n_trials=4)):
            cells = experiments._sorted_cells(cfg)
            ahead = format_records_csv(experiments._run_cells(cells, True))
            assert ahead == format_records_csv(experiments._run_cells(cells, False))

    def test_run_sweep_draws_ahead_by_the_size_rule(self, monkeypatch):
        """On 2 CPUs a grid whose smallest fill holds 504 normals draws ahead,
        with the records of 1 CPU, where it does not."""
        cfg = small_config(
            scenarios=(ChannelScenario.NON_IID_STOCHASTIC,),
            methods=(Method.SL, Method.RC),
            n_devices=2,
            n_train=50,
            n_test=42,  # 42 x SL's 12 subcarriers
            n_trials=2,
        )
        calls = []
        real = experiments._run_trials
        monkeypatch.setattr(
            experiments,
            "_run_trials",
            lambda jobs, draw_ahead: calls.append(draw_ahead) or real(jobs, draw_ahead),
        )
        monkeypatch.setattr(_scratch, "usable_cpus", lambda: 1)
        serial = run_sweep(cfg)
        assert calls == [False]
        monkeypatch.setattr(_scratch, "usable_cpus", lambda: 2)
        assert run_sweep(cfg) == serial
        assert calls == [False, True]
        assert run_sweep(cfg, n_threads=2) == serial  # the pool never draws ahead
        assert calls == [False, True]
        assert experiments._run_cell(experiments._sorted_cells(cfg)[0]) == serial[0]
        assert calls == [False, True, False]

    @pytest.mark.parametrize(
        "overrides, cpus, ahead",
        [
            ({}, 2, True),  # the default grid: 100 samples x SL's 12
            ({}, 1, False),
            ({"n_test": 41}, 2, False),  # 41 x 12 = 492 < 500
            ({"n_test": 42}, 2, True),  # 504
            ({"n_devices": 40, "n_train": 10, "n_test": 10}, 2, False),  # population_wide
            ({"methods": (Method.PC,), "n_train": 10, "n_test": 10}, 4, True),  # 10 x 52
        ],
    )
    def test_the_size_and_cpu_rule(self, monkeypatch, overrides, cpus, ahead):
        monkeypatch.setattr(_scratch, "usable_cpus", lambda: cpus)
        assert experiments._draws_ahead(replace(default_config(), **overrides)) is ahead

    def test_a_fresh_process_imports_the_helper_pool_at_its_first_sweep(self, monkeypatch):
        """The first drawn-ahead sweep of a process imports `concurrent.futures`
        itself, and gives the in-process bytes."""
        cfg = small_config(methods=(Method.CR,), n_train=10, n_test=10)  # 10 x 52 normals
        script = (
            "import sys\n"
            "from rff_lab import _scratch, cli, config, experiments\n"
            "_scratch.usable_cpus = lambda: 2\n"
            f"cfg = config.parse_config({render_config(cfg)!r})\n"
            "assert experiments._draws_ahead(cfg)\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "records = experiments.run_sweep(cfg)\n"
            "assert 'concurrent.futures' in sys.modules\n"
            "sys.stdout.write(cli.format_records_csv(records))\n"
        )
        monkeypatch.setattr(_scratch, "usable_cpus", lambda: 2)
        assert run_fresh(script) == format_records_csv(run_sweep(cfg))

    def test_usable_cpus_reads_the_affinity_mask(self):
        if hasattr(_scratch.os, "sched_getaffinity"):
            assert _scratch.usable_cpus() == len(_scratch.os.sched_getaffinity(0))
        assert _scratch.usable_cpus() >= 1

    def test_too_few_finite_samples_keeps_its_message(self, monkeypatch):
        # the closed form on this channel is not finite; a stand-in lets trials run
        monkeypatch.setattr(experiments, "expected_silhouette", lambda *args: 0.0)
        cells = experiments._sorted_cells(subnormal_config(n_trials=3))
        with pytest.raises(ValueError, match="^device 0 train set has fewer than 2 finite"):
            experiments._run_cells(cells, False)
        with pytest.raises(ValueError, match="^device 0 train set has fewer than 2 finite"):
            experiments._run_cells(cells, True)

    def test_the_helper_is_joined_after_a_return_and_after_a_raise(self, monkeypatch):
        before = threading.active_count()
        cells = experiments._sorted_cells(small_config(n_trials=2))
        experiments._run_cells(cells, True)
        assert threading.active_count() == before
        monkeypatch.setattr(experiments, "expected_silhouette", lambda *args: 0.0)
        with pytest.raises(ValueError, match="fewer than 2 finite"):
            experiments._run_cells(experiments._sorted_cells(subnormal_config(n_trials=3)), True)
        assert threading.active_count() == before

    def test_concurrent_drawn_ahead_sweeps_under_fast_thread_switching(self):
        """Four drawn-ahead sweeps at once, each with its helper, so 8 threads on
        this machine's cores share the interpreter lock; each gives its inline records."""
        configs = [
            small_config(methods=(Method.SL, Method.RC), n_trials=3),
            small_config(scenarios=(ChannelScenario.IID_STOCHASTIC,), n_devices=4, n_test=5),
        ]
        cells = [experiments._sorted_cells(cfg) for cfg in configs]
        expected = [experiments._run_cells(c, False) for c in cells]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                sweeps = [
                    pool.submit(experiments._run_cells, cells[i % 2], True) for i in range(8)
                ]
                results = [sweep.result(timeout=120) for sweep in sweeps]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[i % 2] for i in range(8)]

    @pytest.mark.parametrize("draw_ahead", [True, False])
    def test_the_first_failing_job_in_job_order_raises(self, monkeypatch, draw_ahead):
        """Drawing ahead, trial 2 is set up before trial 1 is scored; trial 1's
        error still comes first."""
        real_streams, real_normalize = experiments._trial_streams, experiments.normalize_block
        normalized = []

        def streams(cell, trial_index):
            if trial_index == 2:
                raise RuntimeError("trial 2 set-up")
            return real_streams(cell, trial_index)

        def normalize(matrix, **kwargs):
            normalized.append(matrix)
            if len(normalized) == 3:  # trial 1's train phase
                raise RuntimeError("trial 1 score")
            return real_normalize(matrix, **kwargs)

        cells = experiments._sorted_cells(small_config(methods=(Method.CR,), n_trials=3))
        monkeypatch.setattr(experiments, "_trial_streams", streams)
        monkeypatch.setattr(experiments, "normalize_block", normalize)
        with pytest.raises(RuntimeError, match="trial 1 score"):
            experiments._run_cells(cells, draw_ahead)
        # with no error in scoring, the set-up error waits until trials 0 and 1 are scored
        normalized.clear()
        monkeypatch.setattr(experiments, "normalize_block", lambda m, **kw: (
            normalized.append(m) or real_normalize(m, **kw)
        ))
        with pytest.raises(RuntimeError, match="trial 2 set-up"):
            experiments._run_cells(cells, draw_ahead)
        assert len(normalized) == 4

    def test_a_one_worker_sweep_raises_the_first_failing_trial_the_pool_the_first_cell(
        self, monkeypatch
    ):
        """Cell 1 fails at trial 1 and cell 2 at trial 0.  A one-worker sweep
        runs trial 0 of every cell first, so cell 2's error comes first; the
        pool hands back whole cells in record order, so cell 1's does."""
        cfg = small_config(methods=(Method.RAW, Method.CR), n_trials=2)
        real_streams = experiments._trial_streams
        failing = {(Method.CR, 1), (Method.RAW, 0)}  # cr sorts before raw

        def streams(cell, trial_index):
            if (cell.method, trial_index) in failing:
                raise RuntimeError(f"{cell.method.value} trial {trial_index}")
            return real_streams(cell, trial_index)

        monkeypatch.setattr(experiments, "_trial_streams", streams)  # forked workers inherit it
        for draw_ahead in (False, True):
            with pytest.raises(RuntimeError, match="^raw trial 0$"):
                experiments._run_cells(experiments._sorted_cells(cfg), draw_ahead)
        with pytest.raises(RuntimeError, match="^cr trial 1$"):
            run_sweep(cfg, n_threads=2)


class TestTrialLoop:
    """`_run_trials`, the one loop every trial runs through."""

    @pytest.mark.parametrize("cpus, rows", [(1, 2), (2, 4)])
    def test_a_one_worker_sweep_takes_2_scratch_rows_or_4_when_drawing_ahead(
        self, monkeypatch, cpus, rows
    ):
        """One trial in flight holds its train and test rows; drawing ahead
        holds a second trial's."""
        cfg = small_config(
            scenarios=(ChannelScenario.NON_IID_STOCHASTIC,),
            methods=(Method.SL, Method.RC),
            n_devices=2,
            n_train=50,
            n_test=42,  # 42 x SL's 12 subcarriers: 504 normals, so 2 CPUs draw ahead
            n_trials=2,
        )
        monkeypatch.setattr(_scratch, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(_scratch, "_local", threading.local())
        run_sweep(cfg)
        assert _scratch._local.buffer.size == rows * experiments._row_size(cfg, cfg.methods)

    def test_a_pool_task_takes_2_scratch_rows(self, monkeypatch):
        cfg = small_config(methods=(Method.SL,), n_train=50, n_test=50)
        # 50 x 12 normals on 2 CPUs: a one-worker sweep of this grid would draw ahead
        monkeypatch.setattr(_scratch, "usable_cpus", lambda: 2)
        monkeypatch.setattr(_scratch, "_local", threading.local())
        experiments._run_cell(experiments._sorted_cells(cfg)[0])
        assert _scratch._local.buffer.size == 2 * experiments._row_size(cfg, cfg.methods)

    @pytest.mark.parametrize("draw_ahead", [False, True])
    def test_each_job_of_one_loop_gives_its_run_trial_result(self, monkeypatch, draw_ahead):
        """On a NaN-poisoned scratch, each job of a multi-job loop equals
        `run_trial` of that job alone on a fresh scratch."""
        cfg = small_config(
            methods=tuple(Method), snr_db_grid=(10.0, 30.0), n_devices=4, n_train=7, n_test=5
        )
        jobs = [
            (ChannelScenario.IID_STOCHASTIC, Method.PC, 30.0, 0),
            # K = 12 after 52, in a deterministic trial, whose slab 0 draws nothing
            (ChannelScenario.DETERMINISTIC, Method.SL, 10.0, 3),
            # RAW leaves slab 2 undrawn
            (ChannelScenario.DETERMINISTIC, Method.RAW, 30.0, 1),
            (ChannelScenario.NON_IID_STOCHASTIC, Method.RC, 10.0, 2),
            (ChannelScenario.DETERMINISTIC, Method.CR, 30.0, 0),
            (ChannelScenario.IID_STOCHASTIC, Method.RAW, 10.0, 5),
            (ChannelScenario.DETERMINISTIC, Method.PC, 30.0, 4),
        ]
        alone = []
        for job in jobs:
            monkeypatch.setattr(_scratch, "_local", threading.local())
            alone.append(run_trial(cfg, *job))
        monkeypatch.setattr(_scratch, "_local", threading.local())
        _scratch.scratch(4, experiments._row_size(cfg, cfg.methods)).fill(np.nan)
        jobs = [
            (experiments._Cell(cfg, s, m, snr_db, cfg.params.with_snr(snr_db)), t)
            for s, m, snr_db, t in jobs
        ]
        assert experiments._run_trials(jobs, draw_ahead) == alone


#: (scenario, method, poisoned, trial_index, an oracle call before this
#: cell) of one cell
WORKSPACE_CELL = st.tuples(
    st.sampled_from(list(ChannelScenario)),
    st.sampled_from(list(Method)),
    st.booleans(),
    st.integers(0, 3),
    st.booleans(),
)


class TestWorkspace:
    @given(
        cells=st.lists(WORKSPACE_CELL, min_size=2, max_size=6),
        n_devices=st.integers(2, 5),
        n_train=st.integers(3, 9),
        n_test=st.integers(3, 9),
    )
    # K = 52 after SL's 12 and back; deterministic after stochastic, so slab
    # 0 holds stale CSI draws; RAW after a ratio method; poisoned rows;
    # oracle draws left in the buffer
    @example(
        cells=[
            (ChannelScenario.IID_STOCHASTIC, Method.CR, False, 0, False),
            (ChannelScenario.DETERMINISTIC, Method.SL, True, 1, True),
            (ChannelScenario.DETERMINISTIC, Method.RC, False, 2, False),
            (ChannelScenario.NON_IID_STOCHASTIC, Method.RAW, True, 3, False),
            (ChannelScenario.DETERMINISTIC, Method.PC, True, 0, True),
        ],
        n_devices=4,
        n_train=7,
        n_test=4,
    )
    @settings(max_examples=25, deadline=None)
    def test_a_shared_workspace_gives_the_results_of_fresh_ones(
        self, cells, n_devices, n_train, n_test
    ):
        cfg = small_config(
            methods=tuple(Method), n_devices=n_devices, n_train=n_train, n_test=n_test
        )
        g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01)
        # the largest trial here: 2 phases x 5 devices x 3 slabs x 9 samples x 52
        _scratch.scratch(1, 2 * 5 * 3 * 9 * 52).fill(np.nan)
        for scenario, method, poisoned, trial_index, oracle in cells:
            if oracle:  # fills 5 x 1e4 entries, more than any trial here holds
                mc_ratio_detail(RatioForm.CROSS_DIFFERENCE, g, p, 10**4, trial_index)
            with pytest.MonkeyPatch.context() as patch:
                if poisoned:  # one non-finite row per device and phase
                    TestNonfiniteHandling._poison(patch, lambda call: 1)
                shared = run_trial(cfg, scenario, method, 25.0, trial_index)
                patch.setattr(_scratch, "_local", threading.local())
                fresh = run_trial(cfg, scenario, method, 25.0, trial_index)
            assert shared == fresh
            assert (shared.nonfinite_rate > 0.0) == poisoned

    def test_a_supplied_workspace_keeps_the_draw_blocks_out_of_the_trial(self):
        """On a warm thread scratch, a trial peaks below one draw block (3 x D x N x K floats)."""
        cfg = small_config(n_devices=10, n_train=100, n_test=100, methods=tuple(Method))
        block_bytes = 10 * 3 * 100 * 52 * 8
        scenario = ChannelScenario.IID_STOCHASTIC

        def peak(method) -> int:
            tracemalloc.start()
            try:
                run_trial(cfg, scenario, method, 25.0, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_trial(cfg, scenario, Method.CR, 25.0, 0)  # warm up
        for method in (Method.RAW, Method.CR, Method.PC, Method.RC):
            assert peak(method) < block_bytes, method
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_scratch, "_local", threading.local())
            assert peak(Method.CR) > 2 * block_bytes  # the guard sees the blocks


    @pytest.mark.parametrize("method", [Method.RAW, Method.SL, Method.PC])
    def test_each_stage_runs_on_contiguous_disjoint_slabs(self, monkeypatch, method):
        """Extraction returns slab 0 of its blocks; normalization writes into slabs 1 and 2.

        Every slab of the slab-major (3, D, N, K) blocks is C-contiguous, and
        the normalized features and squared deviations share no memory with
        the features they come from.
        """
        real_features, real_normalize = experiments._block_features, experiments.normalize_block
        features, normalized = [], []

        def block_features(*args):
            blocks = args[-1]
            result = real_features(*args)
            assert result.flags.c_contiguous and result.shape == blocks.shape[1:]
            assert result.__array_interface__ == blocks[0].__array_interface__
            features.append(result)
            return result

        def normalize(matrix, *, out, square):
            normalized.append((matrix, out, square))
            return real_normalize(matrix, out=out, square=square)

        monkeypatch.setattr(experiments, "_block_features", block_features)
        monkeypatch.setattr(experiments, "normalize_block", normalize)
        cfg = small_config(n_devices=4, n_train=6, n_test=5)
        run_trial(cfg, ChannelScenario.IID_STOCHASTIC, method, 25.0, 0)
        assert len(features) == len(normalized) == 2
        for feature, (matrix, out, square) in zip(features, normalized):
            assert matrix is feature
            assert out.flags.c_contiguous and square.flags.c_contiguous
            assert out.shape == square.shape == feature.shape
            for a, b in ((out, feature), (square, feature), (out, square)):
                assert not np.shares_memory(a, b)


class TestCellMeanAndStderr:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e100, 1e100), min_size=2, max_size=300))
    def test_equals_numpys_mean_and_std_bit_for_bit(self, values):
        x = np.array(values)
        expected = (float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)))
        assert np.array(_mean_and_se(x.copy())).tobytes() == np.array(expected).tobytes()

    def test_a_one_trial_cell_has_a_nan_stderr(self):
        mean, stderr = _mean_and_se(np.array([0.75]))
        assert mean == 0.75
        assert math.isnan(stderr)


def records_of(pairs) -> list[SweepRecord]:
    """Sweep records carrying the given (silhouette, accuracy) pairs."""
    return [
        SweepRecord(
            scenario=ChannelScenario.DETERMINISTIC,
            method=Method.RAW,
            snr_db=0.0,
            silhouette_empirical=float(sil),
            silhouette_empirical_stderr=0.0,
            silhouette_analytic=float(sil),
            accuracy=float(acc),
            accuracy_stderr=0.0,
            nonfinite_rate=0.0,
        )
        for sil, acc in pairs
    ]


class TestCorrelate:
    def test_perfect_line_gives_unit_correlation(self):
        x = np.linspace(0.1, 0.9, 10)
        pairs = [(float(s), float(2.0 * s + 3.0)) for s in x]
        report = correlate(records_of(pairs), n_permutations=1000, seed=0)
        assert report.pearson_r == pytest.approx(1.0, rel=1e-12)
        assert report.p_value == pytest.approx(1.0 / 1001.0)
        assert report.ls_slope == pytest.approx(2.0, rel=1e-9)
        assert report.ls_intercept == pytest.approx(3.0, rel=1e-9)
        assert report.n_points == 10

    def test_perfect_anticorrelation(self):
        x = np.linspace(0.1, 0.9, 12)
        report = correlate(records_of((s, 1.0 - s) for s in x))
        assert report.pearson_r == pytest.approx(-1.0, rel=1e-12)
        assert report.p_value == pytest.approx(1.0 / (MIN_PERMUTATIONS + 1.0))

    def test_independent_noise_is_insignificant(self):
        rng = np.random.default_rng(99)
        pairs = list(zip(rng.standard_normal(60), rng.standard_normal(60)))
        report = correlate(records_of(pairs), seed=1)
        assert abs(report.pearson_r) < 0.5
        assert report.p_value > 0.01

    def test_accepts_sweep_records(self):
        pairs = [(0.1, 0.5), (0.4, 0.8), (0.7, 0.9), (0.9, 0.99)]
        report = correlate(records_of(pairs), seed=5)
        x, y = np.array(pairs).T
        slope, intercept = np.polyfit(x, y, deg=1)
        assert report.pearson_r == pytest.approx(np.corrcoef(x, y)[0, 1], rel=1e-12)
        assert (report.ls_slope, report.ls_intercept) == (slope, intercept)
        assert report.n_points == 4
        assert report == correlate(records_of(pairs), seed=5)

    def test_validation_errors(self):
        good = records_of([(0.1, 0.2), (0.3, 0.5), (0.6, 0.7)])
        with pytest.raises(ValueError, match="at least 3"):
            correlate(good[:2])
        with pytest.raises(ValueError, match="n_permutations"):
            correlate(good, n_permutations=MIN_PERMUTATIONS - 1)
        with pytest.raises(ValueError, match="zero variance"):
            correlate(records_of((0.5, a) for a in (0.1, 0.2, 0.3)))
        with pytest.raises(ValueError, match="non-finite"):
            correlate(records_of([(0.1, 0.2), (float("nan"), 0.5), (0.6, 0.7)]))

    def test_report_is_a_value_object(self):
        report = CorrelationReport(
            pearson_r=0.5, p_value=0.01, ls_slope=1.0, ls_intercept=0.0, n_points=5
        )
        assert report == CorrelationReport(
            pearson_r=0.5, p_value=0.01, ls_slope=1.0, ls_intercept=0.0, n_points=5
        )


class TestTrialStreams:
    @given(
        st.integers(0, 2**130),  # master seed: 1-5 words, so prefixes of 5-11 words
        st.sampled_from(list(ChannelScenario)),
        st.sampled_from(list(Method)),
        st.one_of(  # SNR: negative and fractional keys take two words
            st.floats(-60.0, 60.0, allow_nan=False),
            st.sampled_from([-10.0, -0.0004, 0.0004, 12.3456, 2.5e6]),
        ),
        st.integers(0, 2**40),  # trial index
        st.integers(2, 40),  # devices
    )
    @settings(max_examples=30, deadline=None)
    # the shortest word prefix (5 words) and the longest (11 words)
    @example(0, ChannelScenario.DETERMINISTIC, Method.RAW, 0.0, 0, 2)
    @example(2**128 + 1, ChannelScenario.NON_IID_STOCHASTIC, Method.RC, -10.0, 2**40, 40)
    # where a part's word count steps up: the hash constant reads the count
    @example(7, ChannelScenario.IID_STOCHASTIC, Method.SL, 30.0, 2**32 - 1, 3)
    @example(7, ChannelScenario.IID_STOCHASTIC, Method.SL, 30.0, 2**32, 3)
    @example(2**64 - 1, ChannelScenario.DETERMINISTIC, Method.CR, 20.0, 5, 3)
    @example(2**64, ChannelScenario.DETERMINISTIC, Method.CR, 20.0, 5, 3)
    def test_each_stream_equals_the_tuple_key(
        self, master_seed, scenario, method, snr_db, trial_index, n_devices
    ):
        cfg = small_config(master_seed=master_seed, n_devices=n_devices)
        cell = experiments._Cell(cfg, scenario, method, snr_db, cfg.params.with_snr(snr_db))
        streams = _trial_streams(cell, trial_index)
        assert len(streams) == 3 * n_devices + 1
        key = (
            master_seed,
            list(ChannelScenario).index(scenario),
            list(Method).index(method),
            _snr_stream_key(snr_db),
            trial_index,
        )
        for stream, rng in enumerate(streams):
            expected = np.random.default_rng(np.random.SeedSequence(key + (stream,)))
            assert rng.bit_generator.state == expected.bit_generator.state
            assert np.array_equal(rng.standard_normal(4), expected.standard_normal(4))

    def test_a_negative_snr_key_wraps_modulo_2_64(self):
        assert _snr_stream_key(-10.0) == 2**64 - 10_000
        assert _snr_stream_key(-0.0004) == 0 == _snr_stream_key(0.0)
        assert _snr_stream_key(30.0) == 30_000

    def test_negative_trial_index_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_trial(small_config(), ChannelScenario.DETERMINISTIC, Method.RAW, 20.0, -1)


def _reference_trial(train_sets, test_sets):
    """`run_trial`'s scores from raw per-device sets, one device at a time,
    keeping the rows whose entries and float64 std are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        train_sets, test_sets = (
            [m[np.isfinite(m).all(axis=1) & np.isfinite(m.std(axis=1))] for m in sets]
            for sets in (train_sets, test_sets)
        )
    train_norm = [normalize_block(m)[0] for m in train_sets]
    test_norm = [normalize_block(m)[0] for m in test_sets]
    return definition_silhouette(train_norm, test_norm), definition_lda(train_norm, test_norm)[1]


class TestNonfiniteHandling:
    @staticmethod
    def _poison(monkeypatch, drops):
        """Make extraction spoil ``drops(call)`` rows of each device's batch,
        each with one NaN, inf, -inf or 1e155 entry.

        A device's batch of a phase is numbered ``call = 2 * device + phase``
        (train 0, test 1).  Returns the list the poisoned batches are recorded
        in, in that order: device 0 train, device 0 test, device 1 train, ...
        """
        real = experiments._block_features
        recorded = {}
        # 1e155 is finite, but its squared deviation overflows
        values = (np.nan, np.inf, -np.inf, 1e155)

        def block_features(law, params, fp, trial, phase, blocks):
            block = real(law, params, fp, trial, phase, blocks)
            n_samples = block.shape[1]
            for device, batch in enumerate(block):
                call = 2 * device + (phase is Phase.TEST)
                rows = np.random.default_rng(call).choice(n_samples, drops(call), replace=False)
                for i, row in enumerate(rows):
                    batch[row, (7 * i) % batch.shape[1]] = values[(call + i) % len(values)]
                recorded[call] = batch.copy()
            batches[:] = [recorded[call] for call in sorted(recorded)]
            return block

        batches = []
        monkeypatch.setattr(experiments, "_block_features", block_features)
        return batches

    @pytest.mark.parametrize(
        "scenario, method, n_devices, n_train, n_test",
        [
            (ChannelScenario.DETERMINISTIC, Method.RAW, 3, 12, 9),
            (ChannelScenario.IID_STOCHASTIC, Method.PC, 5, 10, 14),
            (ChannelScenario.NON_IID_STOCHASTIC, Method.SL, 4, 8, 8),
            (ChannelScenario.IID_STOCHASTIC, Method.RC, 6, 15, 11),
        ],
    )
    def test_dropped_rows_match_a_per_device_reference(
        self, monkeypatch, scenario, method, n_devices, n_train, n_test
    ):
        cfg = small_config(n_devices=n_devices, n_train=n_train, n_test=n_test)
        batches = self._poison(monkeypatch, lambda call: call % 5)
        result = run_trial(cfg, scenario, method, 25.0, 3)
        silhouette, accuracy = _reference_trial(batches[0::2], batches[1::2])
        n_dropped = sum(call % 5 for call in range(2 * n_devices))
        assert result.nonfinite_rate == n_dropped / (n_devices * (n_train + n_test))
        assert result.accuracy == accuracy
        assert result.silhouette == pytest.approx(silhouette, abs=1e-12)

    def test_device_with_one_finite_row_aborts_the_trial(self, monkeypatch):
        cfg = small_config(n_devices=3, n_train=6, n_test=6)
        # device 1's test batch, the fourth call, keeps one row
        self._poison(monkeypatch, lambda call: 5 if call == 3 else call % 2)
        with pytest.raises(ValueError, match="device 1 test set has fewer than 2"):
            run_trial(cfg, ChannelScenario.DETERMINISTIC, Method.CR, 20.0, 0)
