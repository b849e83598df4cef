"""The per-frame DCSK-WPT chain that the Monte-Carlo fast path is checked against.

``run_once`` and ``measure_papr`` never build a chip: they reduce each frame
to a few statistics as the orbit is iterated.  This module builds every chip
instead.  ``transmit_frames`` draws what the kernel draws, steps each seed
state's orbit chip by chip (``orbits``) and assembles the frames with
``modulate``; ``apply_channel`` scales each frame by the link's gain, the
``FrameAccumulator`` harvests it, and ``empirical_papr`` meters the stream.
The tests hold the fast path to this chain on the same batch streams
(``batch_rng``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chaoswpt.channel import path_gain
from chaoswpt.chaos import _step_scalar, draw_initial_state
from chaoswpt.harvester import PSI_MODES, DcEstimate, EhCircuit


def batch_rng(seed: int, mode: str, b: int = 0) -> np.random.Generator:
    """The generator that batch b of a run at ``seed`` in ``mode`` draws
    from, keyed as ``montecarlo._batch_moments`` keys it: the one place the
    tests state the kernel's seed rule."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(PSI_MODES.index(mode), b)))


def orbits(x0, n: int, xi: int) -> np.ndarray:
    """The n-chip orbit of each seed state in x0, one row each, x0 first.

    Each chip is ``chaos._step_scalar`` of the one before, the step that
    ``generate_sequence`` takes; unlike ``generate_sequence``, which refuses
    a seed near a fixed point, this steps every state the kernel may draw.
    """
    chips = np.empty((np.size(x0), n))
    for row, x in zip(chips, np.asarray(x0, dtype=float).tolist()):
        for k in range(n):
            row[k] = x
            x = _step_scalar(x, xi)
    return chips


def modulate(bits, beta: int, chip_pool) -> np.ndarray:
    """One frame per bit, as an (n_bits, 2*beta) array.

    Frame i takes chips ``[i*beta, (i+1)*beta)`` of the flat ``chip_pool`` as
    its reference half; its data half is that reference times bit i, which
    is exact for a bit of +/-1.
    """
    if beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")
    bits = np.asarray(bits)
    if bits.size == 0:
        raise ValueError("no bits to modulate")
    if not np.all(np.isin(bits, (-1, 1))):
        raise ValueError("bits must take values in {-1, +1}")
    pool = np.asarray(chip_pool, dtype=float)
    if pool.size < beta * bits.size:
        raise ValueError(
            f"chip pool holds {pool.size} chips but {beta * bits.size} are needed"
        )
    ref = pool[: beta * bits.size].reshape(bits.size, beta)
    return np.concatenate([ref, bits.reshape(-1, 1) * ref], axis=1)


def transmit_frames(rng: np.random.Generator, n_frames: int, beta: int, xi: int,
                    mode: str) -> np.ndarray:
    """n_frames frames built chip by chip, drawing what the kernel draws.

    The kernel's draws come from ``rng`` in its order, so a seed gives the
    frames that the kernel reduces; what the kernel does not draw comes from
    a generator spawned off ``rng``, which leaves its stream alone.  In full
    mode that is k ~ Binomial(n_frames, 1/2) and the seed states of the k
    frames whose bit is +1; the other frames, whose bit is -1, correlate to
    0 whatever they carry, and the bits' order is a uniform shuffle, so the
    bits are independent and fair.  In bypass mode it is every frame's seed
    state, and the bits, which no harvest depends on, are drawn apart.
    """
    other = rng.spawn(1)[0]
    if mode == "full":
        k = int(rng.binomial(n_frames, 0.5))
        d = other.permutation(np.repeat([1, -1], [k, n_frames - k]))
        x0 = np.empty(n_frames)
        x0[d == 1] = draw_initial_state(rng, size=k)
        x0[d == -1] = draw_initial_state(other, size=n_frames - k)
    else:
        x0 = draw_initial_state(rng, size=n_frames)
        d = other.integers(0, 2, size=n_frames) * 2 - 1
    return modulate(d, beta, orbits(x0, beta, xi).ravel())


@dataclass
class ChannelDraw:
    h_mag: float   # fading magnitude for this frame, >= 0
    r: float       # transmitter-receiver distance, > 0
    alpha: float   # path-loss exponent, > 0

    def __post_init__(self) -> None:
        if self.h_mag < 0:
            raise ValueError(f"fading magnitude must be >= 0, got {self.h_mag}")
        if self.r <= 0:
            raise ValueError(f"distance must be > 0, got {self.r}")
        if self.alpha <= 0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.alpha}")


def apply_channel(samples, draw: ChannelDraw, p_t: float) -> np.ndarray:
    """Scale transmit samples by sqrt(P_t) * |h| * sqrt(r**-alpha).

    Amplitude-domain operation: the received *power* of a unit-power chip is
    P_t * |h|^2 * r**-alpha.
    """
    if p_t <= 0:
        raise ValueError(f"transmit power must be > 0, got {p_t}")
    samples = np.asarray(samples, dtype=float)
    scale = np.sqrt(p_t) * draw.h_mag * np.sqrt(path_gain(draw.r, draw.alpha))
    return scale * samples


class FrameAccumulator:
    """Streaming mean and standard error of whole frames' rectifier outputs.

    It harvests each frame through the circuit and keeps the count, sum and
    sum of squares of the per-frame harvests w itself, apart from the
    library's accumulator.  ``mean_h4`` weights the quartic term.  At 1 each
    frame is harvested as it is.  At 2, the E[|h|^4] of unit-power Rayleigh
    fading, an unfaded frame is harvested at its expected output over a
    block gain |h| drawn for it, since E[|h|^2] = 1 leaves the quadratic
    term as it is.
    """

    def __init__(self, circuit: EhCircuit, mean_h4: float = 1.0) -> None:
        self.circuit = circuit
        self.mean_h4 = mean_h4
        self.n, self.w_sum, self.w_sumsq = 0, 0.0, 0.0

    def add_frames(self, frame_samples) -> None:
        """Add a batch shaped (n_frames, samples_per_frame).

        A flat 1-D stream is treated as width-1 frames: every sample is its
        own independent unit (the correlator-output convention).
        """
        frames = np.asarray(frame_samples, dtype=float)
        if frames.ndim == 1:
            frames = frames[:, None]
        if frames.ndim != 2 or frames.size == 0:
            raise ValueError("frame batch must be a nonempty 1-D or 2-D array")
        # the rectifier's weights k2*R_ant and k4*R_ant**2 on y**2 and y**4
        c = self.circuit
        a, b = c.k2 * c.r_ant, c.k4 * (float(c.r_ant) * float(c.r_ant))
        p2 = frames * frames
        w = a * p2.sum(axis=1) + self.mean_h4 * b * (p2 * p2).sum(axis=1)
        self.n += w.size
        self.w_sum += float(w.sum())
        self.w_sumsq += float((w * w).sum())

    def result(self) -> DcEstimate:
        """The sample mean of w, and its standard error (NaN for one frame)."""
        if self.n == 0:
            raise ValueError("no frames accumulated")
        mean = self.w_sum / self.n
        if self.n == 1:
            return DcEstimate(mean=mean, std_error=float("nan"), n_frames=1)
        var = max(self.w_sumsq / self.n - mean * mean, 0.0) * self.n / (self.n - 1)
        return DcEstimate(mean=mean, std_error=math.sqrt(var / self.n), n_frames=self.n)


def harvest_dc(frame_samples, circuit: EhCircuit) -> DcEstimate:
    """Harvested-DC estimate from framed antenna samples.

    ``frame_samples`` is (n_frames, samples_per_frame): pass the raw
    2*beta-chip frames for a bypass stream, or the correlator outputs as a
    flat 1-D stream (width-1 frames).  The standard error is the sample std
    of the per-frame DC statistic over sqrt(n_frames) — frames are the
    independent unit.
    """
    acc = FrameAccumulator(circuit)
    acc.add_frames(frame_samples)
    return acc.result()


def empirical_papr(stream, mean_power: float | None = None) -> float:
    """Peak-to-average power ratio max(s^2) / mean(s^2) of a sample stream.

    ``mean_power`` substitutes a known average power for the realized mean —
    the form the closed-form bounds are stated against, since those
    normalize the peak by an expectation, not by a finite-sample average.
    """
    stream = np.asarray(stream, dtype=float)
    if stream.size == 0:
        raise ValueError("empirical_papr needs a nonempty stream")
    peak = float(np.max(np.abs(stream)))
    if mean_power is not None:
        if float(mean_power) <= 0.0:
            raise ValueError("mean power must be > 0; PAPR undefined")
        return peak * peak / float(mean_power)
    if peak == 0.0:
        raise ValueError("stream has zero mean power; PAPR undefined")
    # scaled to a unit peak, so the powers of a tiny stream cannot underflow
    unit = stream / peak
    return 1.0 / float(np.mean(unit * unit))
