"""Tests for the per-thread scratch buffer that trials and the oracle draw into."""

import inspect
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rff_lab
from rff_lab import _scratch
from rff_lab.channel import ChannelScenario
from rff_lab.experiments import default_config, run_trial
from rff_lab.gaussian_moments import (
    _MC_ROWS,
    GaussianSpec,
    RatioForm,
    RatioParams,
    mc_ratio_detail,
)
from rff_lab.signal_model import Method


@pytest.fixture(autouse=True)
def fresh_thread_scratch(monkeypatch):
    """Each test starts with no buffer on any thread and leaves none behind."""
    monkeypatch.setattr(_scratch, "_local", threading.local())


def data_address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


@pytest.mark.parametrize(
    "rows, size",
    [(1, 1), (2, 4 * 3 * 7 * 52), (_MC_ROWS[RatioForm.CROSS_DIFFERENCE], 1000), (3, 0)],
    ids=["one-entry", "trial-blocks", "oracle-rows", "empty-rows"],
)
def test_the_view_is_rows_of_size_c_contiguous_float64(rows, size):
    work = _scratch.scratch(rows, size)
    assert work.shape == (rows, size)
    assert work.dtype == np.float64
    assert work.flags.c_contiguous
    assert work.flags.writeable


def test_rows_do_not_overlap():
    work = _scratch.scratch(4, 6)
    for i, row in enumerate(work):
        row.fill(i)
    assert (work == np.arange(4)[:, None]).all()


def test_a_repeated_request_returns_the_same_memory():
    first = _scratch.scratch(2, 50)
    second = _scratch.scratch(2, 50)
    assert data_address(first) == data_address(second)


def test_a_smaller_request_reuses_the_buffer_and_its_contents():
    large = _scratch.scratch(2, 10)
    large.flat[:] = np.arange(20.0)
    small = _scratch.scratch(3, 4)
    assert np.shares_memory(large, small)
    assert data_address(large) == data_address(small)
    assert (small.ravel() == np.arange(12.0)).all()
    assert _scratch._local.buffer.size == 20


def test_a_larger_request_grows_the_buffer_to_exactly_its_size():
    small = _scratch.scratch(1, 10)
    large = _scratch.scratch(4, 25)
    assert not np.shares_memory(small, large)
    assert _scratch._local.buffer.size == 100
    assert np.shares_memory(_scratch.scratch(1, 10), large)


def test_a_warm_request_allocates_no_buffer_sized_array():
    """Only the first request of a size pays for the buffer."""
    rows, size = _MC_ROWS[RatioForm.CROSS_DIFFERENCE], 10**5
    buffer_bytes = rows * size * 8

    def peak() -> int:
        tracemalloc.start()
        try:
            _scratch.scratch(rows, size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() >= buffer_bytes  # the guard sees the allocation
    assert peak() < buffer_bytes // 100


def test_a_growing_buffer_is_released_before_the_larger_one_is_allocated():
    """Growing from 2 rows to 3 holds at most the 3 rows at once, not 5."""
    size = 10**5
    tracemalloc.start()
    try:
        _scratch.scratch(2, size)
        _scratch.scratch(3, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 * size * 8 <= peak <= 3 * size * 8 + 64 * 1024


def test_each_thread_has_its_own_buffer():
    n_threads = 3
    barrier = threading.Barrier(n_threads)
    addresses = [0] * n_threads
    intact = [False] * n_threads

    def worker(i: int) -> None:
        work = _scratch.scratch(2, 1000)
        work.fill(i)
        addresses[i] = data_address(work)
        barrier.wait()  # every thread has filled its buffer
        intact[i] = bool((_scratch.scratch(2, 1000) == i).all())

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(intact)
    assert len(set(addresses)) == n_threads


def test_a_new_thread_starts_without_a_buffer():
    main = _scratch.scratch(1, 500)
    main.fill(7.0)
    seen = []

    def worker() -> None:
        seen.append(getattr(_scratch._local, "buffer", None))
        _scratch.scratch(1, 5000).fill(-1.0)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == [None]
    assert _scratch._local.buffer.size == 500
    assert (main == 7.0).all()


def test_trials_and_the_oracle_share_one_buffer_per_thread():
    """An oracle call sizes the buffer; a smaller trial after it reuses it."""
    n_draws = 10**4
    g, p = GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01)
    mc_ratio_detail(RatioForm.CROSS_DIFFERENCE, g, p, n_draws, 0)
    buffer = _scratch._local.buffer
    assert buffer.size == 3 * n_draws
    # 2 phases x 4 devices x 3 slabs x 7 samples x 52 subcarriers < 3 x 1e4
    cfg = replace(default_config(), n_devices=4, n_train=7, n_test=4)
    run_trial(cfg, ChannelScenario.DETERMINISTIC, Method.CR, 25.0, 0)
    assert _scratch._local.buffer is buffer


@pytest.mark.parametrize("form", list(RatioForm), ids=lambda form: form.value)
def test_an_oracle_call_on_a_fresh_thread_leaves_its_forms_rows(form):
    """Each form keeps whole rows only for its draws before the last, and the
    ratio and the statistics reuse them."""
    n_draws = 12_345
    sizes = []

    def worker() -> None:
        mc_ratio_detail(form, GaussianSpec(1.0, 0.01), RatioParams(1.0, 0.01), n_draws, 0)
        sizes.append(_scratch._local.buffer.size)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert sizes == [_MC_ROWS[form] * n_draws]


@pytest.mark.parametrize("function", [run_trial, mc_ratio_detail], ids=lambda f: f.__name__)
def test_the_scratch_users_take_no_work_argument(function):
    assert "work" not in inspect.signature(function).parameters


def test_the_oracle_row_count_is_not_exported():
    assert "MC_WORK_ROWS" not in rff_lab.__all__
    assert not hasattr(rff_lab, "MC_WORK_ROWS")
