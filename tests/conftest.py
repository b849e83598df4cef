import multiprocessing

import numpy as np
import pytest

from chaoswpt.chaos import generate_sequence
from chaoswpt.montecarlo import _draw_clean_states
from chaoswpt.waveform import modulate


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail any test that leaves a live child process behind."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.kill()
        proc.join()
    if leaked:
        pytest.fail(f"test left live child processes: {leaked}")


def _transmit_frames(rng: np.random.Generator, n_frames: int, beta: int,
                     xi: int) -> np.ndarray:
    """n_frames frames built chip by chip, drawing what the kernel draws.

    Seed states, then data bits, from ``rng``, in the Monte-Carlo kernel's
    order, so a seed gives the frames that the kernel reduces.
    """
    x0 = _draw_clean_states(rng, n_frames, xi)
    d = rng.integers(0, 2, size=n_frames) * 2 - 1
    pool = np.concatenate([generate_sequence(a, beta, xi).samples for a in x0])
    return modulate(d, beta, pool)


@pytest.fixture
def transmit_frames():
    """The per-frame transmit chain the fast path is checked against."""
    return _transmit_frames
