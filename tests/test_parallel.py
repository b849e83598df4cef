import os
import signal
import threading
import time

import numpy as np
import pytest

from chaoswpt import _parallel, montecarlo
from chaoswpt._parallel import fork_map
from chaoswpt.distcheck import verify_distributions
from chaoswpt.harvester import EhCircuit
from chaoswpt.montecarlo import RunConfig, fit_scaling, measure_papr, run_once, sweep_beta


@pytest.fixture
def pool(monkeypatch):
    """Three processes, and a test that hangs for 30 s fails instead."""
    # more processes than this host may have CPUs, so the pool path always runs
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 3)

    def expire(signum, frame):
        raise TimeoutError("fork_map did not return")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _force_serial(monkeypatch):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)


def test_fork_map_runs_every_job_once_and_the_caller_takes_a_share(pool):
    import multiprocessing
    calls = multiprocessing.get_context("fork").Value("q", 0)
    caller = os.getpid()

    def job(x):
        with calls.get_lock():
            calls.value += 1
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 2e-5:
            pass  # long enough that every process claims jobs concurrently
        return x * x, os.getpid()

    n = 20_000
    out = fork_map(job, range(n))
    assert [v for v, _ in out] == [x * x for x in range(n)]
    assert calls.value == n  # a lost update on the job counter would break this
    pids = {pid for _, pid in out}
    assert caller in pids
    assert len(pids) > 1


def test_sweep_pool_matches_serial(pool, monkeypatch):
    base = RunConfig(beta=1, r=20.0, n_frames=3000, seed=11, alpha=3.5,
                     circuit=EhCircuit(k4=0.2))
    grid = ([1, 4, 13, 2, 7], [15.0, 27.5], ["full", "bypass"])
    pooled = sweep_beta(*grid, base)
    _force_serial(monkeypatch)
    serial = sweep_beta(*grid, base)
    assert pooled.rows == serial.rows
    assert [(s.beta, s.r, s.psi_mode) for s in pooled.rows] == [
        (b, r, m) for b in grid[0] for r in grid[1] for m in grid[2]]
    # the covariance that each mode's worker sends back gives the same fit
    for r in grid[1]:
        for mode in grid[2]:
            assert fit_scaling(pooled, r, mode) == fit_scaling(serial, r, mode)


def test_verify_distributions_pool_matches_serial(pool, monkeypatch):
    pooled = verify_distributions(n_samples=20_000, seed=3)
    _force_serial(monkeypatch)
    assert verify_distributions(n_samples=20_000, seed=3) == pooled


def test_worker_exception_reraises_with_its_type_and_message(pool):
    caller = os.getpid()

    def job(x):
        if os.getpid() != caller:
            raise ValueError(f"cell {x} failed in a worker")
        time.sleep(0.3)
        return x

    with pytest.raises(ValueError, match=r"cell \d failed in a worker"):
        fork_map(job, range(4))


def test_worker_that_dies_raises_instead_of_hanging(pool):
    caller = os.getpid()

    def job(x):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.3)
        return x

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="died"):
        fork_map(job, range(4))
    assert time.perf_counter() - t0 < 30


def test_caller_exception_stops_the_workers(pool):
    caller = os.getpid()

    def job(x):
        if os.getpid() == caller:
            raise KeyError("caller's share")
        time.sleep(0.05)
        return x

    with pytest.raises(KeyError):
        fork_map(job, range(20))


def test_serial_when_another_thread_is_alive(pool):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        pids = fork_map(lambda x: os.getpid(), range(6))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert set(pids) == {os.getpid()}


def test_serial_when_fork_is_unavailable(pool, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda x: (x, os.getpid()), range(6)) == [(x, os.getpid()) for x in range(6)]


#: 12 full batches and a short one: three chunks of batches at three CPUs
_LONG = 12 * montecarlo._BATCH + 123


@pytest.mark.parametrize("xi", [2, 3])
@pytest.mark.parametrize("mode", ["full", "bypass"])
def test_run_pool_matches_serial(pool, monkeypatch, mode, xi):
    config = RunConfig(beta=3, r=20.0, psi_mode=mode, n_frames=_LONG, seed=29, xi=xi)
    assert len(montecarlo._chunks(_LONG)) == 3
    pooled = run_once(config), measure_papr(3, mode, n_frames=_LONG, seed=29, xi=xi)
    _force_serial(monkeypatch)
    assert (run_once(config), measure_papr(3, mode, n_frames=_LONG, seed=29, xi=xi)) == pooled


def test_chunked_sweep_matches_serial(pool, monkeypatch):
    # nine batches a mode: two chunks each, four jobs over three processes
    base = RunConfig(beta=1, r=20.0, n_frames=8 * montecarlo._BATCH + 10, seed=17)
    grid = ([1, 2, 3, 5, 8], [20.0, 31.0], ["bypass", "full"])
    pooled = sweep_beta(*grid, base)
    _force_serial(monkeypatch)
    serial = sweep_beta(*grid, base)
    assert pooled.rows == serial.rows
    assert pooled.covariance.keys() == serial.covariance.keys()
    for key, cov in serial.covariance.items():
        assert np.array_equal(pooled.covariance[key], cov)
        assert fit_scaling(pooled, *key) == fit_scaling(serial, *key)


def _bits(acc, top):
    return acc._n, acc._sums.tolist(), acc._gram.tolist(), top


@pytest.mark.parametrize("mode", ["full", "bypass"])
def test_orbit_moments_keep_their_bits_at_any_cpu_count(pool, monkeypatch, mode):
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)
        assert len(montecarlo._chunks(_LONG)) == cpus
        ((acc, top),) = montecarlo._orbit_moments(6, _LONG, (1, 4), 3, (mode,), peak=True)
        runs.append(_bits(acc, top))
        # a two-mode call's merge gives each mode the batches of its own call
        both = montecarlo._orbit_moments(6, _LONG, (1, 4), 3, ("full", "bypass"), peak=True)
        assert _bits(*both[("full", "bypass").index(mode)]) == runs[-1]
    assert runs[0][0] == _LONG
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_small_runs_do_not_fork(pool, monkeypatch):
    # a fork, exit and wait costs a few ms: perfbench's 2^17-frame sweep
    # cells, a default run and its 1000-frame setup call stay one job a mode
    jobs = []

    def serial(fn, items):
        items = list(items)
        jobs.append(len(items))
        return [fn(x) for x in items]

    monkeypatch.setattr(montecarlo, "fork_map", serial)
    sweep_beta([10, 20], [20.0], ["full"], RunConfig(beta=1, r=20.0, n_frames=1 << 17))
    run_once(RunConfig(beta=1, r=20.0))
    run_once(RunConfig(beta=2, r=20.0, n_frames=1000, seed=7))
    sweep_beta([10, 20], [20.0], ["full", "bypass"],
               RunConfig(beta=1, r=20.0, n_frames=1 << 17))
    assert jobs == [1, 1, 1, 2]
    # while a run of twice the job size is split
    run_once(RunConfig(beta=1, r=20.0, n_frames=2 * montecarlo._MIN_JOB_BATCHES
                       * montecarlo._BATCH))
    assert jobs[-1] == 2
