import os
import signal
import threading
import time

import pytest

from chaoswpt import _parallel
from chaoswpt._parallel import fork_map
from chaoswpt.distcheck import verify_distributions
from chaoswpt.harvester import EhCircuit
from chaoswpt.montecarlo import RunConfig, fit_scaling, sweep_beta


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
