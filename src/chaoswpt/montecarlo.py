"""Monte-Carlo estimation of harvested DC over the chaotic WPT chain.

The simulator never materializes whole chip blocks: frames are processed in
vectorized batches, streaming only the per-frame statistics the receiver mode
needs as the orbit is iterated: the chip sum in full mode, or the chip power,
fourth power and peak in bypass mode.  Per-frame harvested-power samples
then feed the streaming accumulator, so memory stays flat no matter how many
frames are requested.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .analytic import ClosedFormInputs, papr_analytic, z_with_correlator, z_without_correlator
from .channel import path_gain, sample_rayleigh
from .chaos import FIXED_POINT_TOL, chebyshev_step, draw_initial_state, map_fixed_points
from .harvester import DcAccumulator, DcEstimate, EhCircuit, rho_params

__all__ = [
    "RunConfig",
    "RunResult",
    "SweepRow",
    "SweepResult",
    "PaprMeasurement",
    "FitResult",
    "run_once",
    "sweep_beta",
    "fit_scaling",
    "measure_papr",
]

_BATCH = 1 << 16

PSI_MODES = ("full", "bypass")


def _require_int(name: str, value) -> None:
    # bool is an int subclass, but True is no spreading factor
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """One Monte-Carlo operating point."""

    beta: int
    r: float
    alpha: float = 4.0
    psi_mode: str = "full"
    n_frames: int = 100_000
    seed: int = 42
    xi: int = 2
    circuit: EhCircuit = field(default_factory=EhCircuit)

    def __post_init__(self) -> None:
        for name in ("beta", "n_frames", "seed", "xi"):
            _require_int(name, getattr(self, name))
        if self.beta < 1:
            raise ValueError(f"beta must be a positive integer, got {self.beta}")
        if self.r <= 0:
            raise ValueError(f"distance must be > 0, got {self.r}")
        if self.alpha <= 0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.alpha}")
        if self.psi_mode not in PSI_MODES:
            raise ValueError(f"psi_mode must be one of {PSI_MODES}, got {self.psi_mode!r}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.n_frames < 100:
            warnings.warn(f"n_frames={self.n_frames} gives a very noisy estimate",
                          stacklevel=3)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.xi < 2:
            raise ValueError(f"map degree must be an integer >= 2, got {self.xi}")

    def closed_form(self) -> ClosedFormInputs:
        rho1, rho2 = rho_params(self.circuit)
        return ClosedFormInputs(beta=self.beta, r=self.r, alpha=self.alpha,
                                rho1=rho1, rho2=rho2)


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    estimate: DcEstimate
    z_analytic: float
    papr_empirical: float
    papr_bound: float

    @property
    def rel_dev(self) -> float:
        return (self.estimate.mean - self.z_analytic) / self.z_analytic

    @property
    def excess_sigma(self) -> float:
        return (self.estimate.mean - self.z_analytic) / self.estimate.std_error


def _fixed_point_mask(x0: np.ndarray, fps: np.ndarray) -> np.ndarray:
    """True where x0 is 0 or within FIXED_POINT_TOL of one of the fixed points."""
    bad = x0 == 0.0
    for fp in fps:
        bad |= np.abs(x0 - fp) < FIXED_POINT_TOL
    return bad


def _draw_clean_states(rng: np.random.Generator, size: int, xi: int) -> np.ndarray:
    """Initial chip states, redrawn away from the map's fixed points.

    The invariant density piles mass near +/-1, so a naive draw lands inside
    the rejection band around a fixed point roughly every 1e5 frames; those
    entries are simply redrawn.
    """
    fps = map_fixed_points(xi)
    x0 = draw_initial_state(rng, size=size)
    while True:
        bad = _fixed_point_mask(x0, fps)
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            return x0
        x0[bad] = draw_initial_state(rng, size=n_bad)


def _orbit_batch_stats(x0: np.ndarray, beta: int, xi: int,
                       psi_mode: str) -> tuple[np.ndarray, ...]:
    """Iterate the chaotic map over a batch of beta-chip frames at once.

    Returns only what ``psi_mode`` needs, per frame and without ever storing
    the chips: ``(chip sum,)`` in full mode, ``(sum of squares, sum of fourth
    powers, peak squared chip)`` in bypass mode.  x0 is the first chip, so
    the map takes beta - 1 steps.
    """
    x = np.array(x0, dtype=float)
    if psi_mode == "full":
        v = x.copy()
        for _ in range(beta - 1):
            chebyshev_step(x, xi, out=x)
            v += x
        return (v,)
    x2 = x * x
    e2 = x2.copy()
    e4 = x2 * x2
    m2 = x2.copy()
    for _ in range(beta - 1):
        chebyshev_step(x, xi, out=x)
        np.multiply(x, x, out=x2)
        e2 += x2
        np.maximum(m2, x2, out=m2)
        x2 *= x2
        e4 += x2
    return e2, e4, m2


def run_once(config: RunConfig) -> RunResult:
    """Estimate harvested DC at one operating point, with its closed form."""
    rng = np.random.default_rng(config.seed)
    acc = DcAccumulator(config.circuit)
    a = config.circuit.k2 * config.circuit.r_ant
    b = config.circuit.k4 * config.circuit.r_ant ** 2
    gain = config.circuit.p_t * path_gain(config.r, config.alpha)

    peak_power = 0.0
    power_sum = 0.0
    power_count = 0

    remaining = config.n_frames
    while remaining > 0:
        m = min(remaining, _BATCH)
        remaining -= m
        x0 = _draw_clean_states(rng, m, config.xi)
        d = rng.integers(0, 2, size=m) * 2 - 1
        h = sample_rayleigh(rng, size=m)
        c2 = gain * h * h  # squared amplitude scale per frame
        stats = _orbit_batch_stats(x0, config.beta, config.xi, config.psi_mode)
        if config.psi_mode == "full":
            (v,) = stats
            # the rectifier sees one integrated value per symbol
            y2 = c2 * ((1 + d) * v) ** 2
            w = a * y2 + b * y2 * y2
            peak_power = max(peak_power, float(np.max(y2)))
            power_sum += float(np.sum(y2))
            power_count += m
        else:
            # raw chip stream: both symbol halves carry identical powers
            e2, e4, m2 = stats
            w = a * c2 * 2.0 * e2 + b * c2 * c2 * 2.0 * e4
            peak_power = max(peak_power, float(np.max(c2 * m2)))
            power_sum += float(np.sum(c2 * 2.0 * e2))
            power_count += m * 2 * config.beta
        acc.add_moments(m, float(np.sum(w)), float(np.sum(w * w)))

    inputs = config.closed_form()
    if config.psi_mode == "full":
        z = z_with_correlator(inputs)
    else:
        z = z_without_correlator(inputs)
    mean_power = power_sum / power_count
    papr_emp = peak_power / mean_power if mean_power > 0 else float("nan")
    return RunResult(config=config, estimate=acc.result(), z_analytic=z,
                     papr_empirical=papr_emp,
                     papr_bound=papr_analytic(config.psi_mode, config.beta))


@dataclass(frozen=True)
class SweepRow:
    beta: int
    r: float
    psi_mode: str
    estimate: DcEstimate
    z_analytic: float
    papr_bound: float

    @property
    def rel_dev(self) -> float:
        """|empirical - analytic| / analytic, always recomputed."""
        return abs(self.estimate.mean - self.z_analytic) / self.z_analytic

    @property
    def excess_sigma(self) -> float:
        """Signed deviation in units of the estimate's standard error."""
        return (self.estimate.mean - self.z_analytic) / self.estimate.std_error


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]

    def select(self, *, beta: int | None = None, r: float | None = None,
               psi_mode: str | None = None) -> list[SweepRow]:
        out = self.rows
        if beta is not None:
            out = [s for s in out if s.beta == int(beta)]
        if r is not None:
            out = [s for s in out if s.r == float(r)]
        if psi_mode is not None:
            out = [s for s in out if s.psi_mode == psi_mode]
        return out


def _subseed(seed: int, beta: int, r: float, psi_mode: str) -> int:
    """Deterministic per-point seed from the row coordinates.

    Hash-derived so every grid cell gets a decorrelated stream regardless of
    sweep ordering or which other cells are present.
    """
    tag = f"{seed}|{beta}|{float(r).hex()}|{PSI_MODES.index(psi_mode)}"
    return int(hashlib.sha256(tag.encode()).hexdigest()[:16], 16)


def sweep_beta(betas, distances, modes, base: RunConfig) -> SweepResult:
    """Cartesian sweep over spreading factors, distances and receiver modes.

    ``base`` supplies everything that is not swept (alpha, circuit, n_frames,
    seed, map degree); its own beta/r/psi_mode are ignored.
    """
    betas = [int(b) for b in betas]
    distances = [float(r) for r in distances]
    modes = list(modes)
    if not betas or not distances or not modes:
        raise ValueError("sweep needs at least one beta, one distance and one mode")
    rows = []
    for beta in betas:
        for r in distances:
            for mode in modes:
                cfg = RunConfig(beta=beta, r=r, alpha=base.alpha, psi_mode=mode,
                                n_frames=base.n_frames, xi=base.xi,
                                circuit=base.circuit,
                                seed=_subseed(base.seed, beta, r, mode))
                res = run_once(cfg)
                rows.append(SweepRow(beta=beta, r=r, psi_mode=mode,
                                     estimate=res.estimate,
                                     z_analytic=res.z_analytic,
                                     papr_bound=res.papr_bound))
    return SweepResult(rows=rows)


@dataclass(frozen=True)
class FitResult:
    c0: float
    c1: float
    c2: float
    c0_stderr: float
    c1_stderr: float
    c2_stderr: float
    n_points: int


def fit_scaling(result: SweepResult, r: float, psi_mode: str) -> FitResult:
    """Quadratic least-squares fit of harvested DC against spreading factor.

    Filters the sweep to one (distance, mode) series; the fitted c2 exposes
    the quadratic growth of the integrate-then-rectify receiver, and should
    be statistically null for the raw stream.  Coefficient standard errors
    come from propagating each point's Monte-Carlo standard error through
    the (unweighted) least-squares solution.
    """
    rows = result.select(r=r, psi_mode=psi_mode)
    if len(rows) < 5:
        raise ValueError(
            f"need at least 5 sweep points at r={r}, mode={psi_mode!r}; got {len(rows)}"
        )
    x = np.array([s.beta for s in rows], dtype=float)
    y = np.array([s.estimate.mean for s in rows], dtype=float)
    se = np.array([s.estimate.std_error for s in rows], dtype=float)
    design = np.vander(x, 3)  # columns: beta^2, beta, 1
    pinv = np.linalg.pinv(design)
    c2, c1, c0 = pinv @ y
    # Var(coef) = P diag(se^2) P^T for the fixed linear map P = pinv
    coef_var = (pinv * pinv) @ (se * se)
    s2, s1, s0 = np.sqrt(coef_var)
    return FitResult(c0=float(c0), c1=float(c1), c2=float(c2),
                     c0_stderr=float(s0), c1_stderr=float(s1),
                     c2_stderr=float(s2), n_points=len(rows))


@dataclass(frozen=True)
class PaprMeasurement:
    psi_mode: str
    beta: int
    n_frames: int
    plain: float
    expectation_normalized: float
    analytic_bound: float


def measure_papr(beta: int, psi_mode: str, n_frames: int = 100_000,
                 seed: int = 42, xi: int = 2) -> PaprMeasurement:
    """Peak-to-average power of the transmit-side waveform (unit gain).

    Fading is deliberately excluded: the analytic bounds are per-symbol and
    scale-free, while a gain that varies across symbols reweights the global
    average and can push the plain ratio past them.  Two ratios are returned:
    'plain' divides the peak by the realized mean power, the expectation-
    normalized ratio divides by the ensemble-mean power that the closed-form
    bounds are stated against.
    """
    for name, value in (("beta", beta), ("n_frames", n_frames), ("seed", seed),
                        ("xi", xi)):
        _require_int(name, value)
    bound = papr_analytic(psi_mode, beta)  # validates mode and beta
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    rng = np.random.default_rng(seed)
    peak = 0.0
    power_sum = 0.0
    power_count = 0
    remaining = n_frames
    while remaining > 0:
        m = min(remaining, _BATCH)
        remaining -= m
        x0 = _draw_clean_states(rng, m, xi)
        d = rng.integers(0, 2, size=m) * 2 - 1
        stats = _orbit_batch_stats(x0, beta, xi, psi_mode)
        if psi_mode == "full":
            (v,) = stats
            y2 = ((1 + d) * v) ** 2
            peak = max(peak, float(np.max(y2)))
            power_sum += float(np.sum(y2))
            power_count += m
        else:
            e2, _, m2 = stats
            peak = max(peak, float(np.max(m2)))
            power_sum += float(np.sum(2.0 * e2))
            power_count += m * 2 * beta
    mean_power = power_sum / power_count
    expected_power = float(beta) if psi_mode == "full" else 0.5
    return PaprMeasurement(psi_mode=psi_mode, beta=int(beta), n_frames=n_frames,
                           plain=peak / mean_power,
                           expectation_normalized=peak / expected_power,
                           analytic_bound=bound)
