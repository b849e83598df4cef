"""Monte-Carlo estimation of harvested DC over the chaotic WPT chain.

The simulator never materializes whole chip blocks: frames are processed in
vectorized batches, streaming only the per-frame statistics the receiver mode
needs as the orbit is iterated: the chip sum in full mode (``_chip_sums``; at
beta = 1 the seed state is the one chip), or the chip power and fourth-power
sums over both symbol halves in bypass mode (``_power_sums``, plus the peak
chip power as one number, which only the PAPR measurement asks for).  The
orbit is iterated in Dickson form, on the exactly scaled state y = 2x (see
:mod:`chaoswpt.chaos`), stepped in place from seed states used as
``draw_initial_state`` draws them.  At xi = 2 a chip's power is the next
Dickson state plus 2, so bypass mode there runs full mode's one orbit sum,
``_chip_sums``, and squares no chip.  Full mode simulates only the frames
whose data bit is +1, since the others harvest exactly 0: each batch draws
their count, then their seed states.  The moments of each frame's drives (s2,
s4), whose weighted sum is its expected harvest over its fading gain, stream
into an accumulator, so memory stays flat however many frames are requested
and one orbit run serves every distance.  Each run allocates one workspace of
batch-sized rows; every per-batch step writes into views of it, and a batch
allocates no array.  The batch loop reduces each batch to the five moment
sums and the peak power itself, so no row of the workspace leaves it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._parallel import fork_map
from .analytic import _weights, papr_analytic, z_with_correlator, z_without_correlator
from .channel import sample_rayleigh
from .chaos import _step_rows, chebyshev_step, draw_initial_state
from .harvester import PSI_MODES, DcAccumulator, DcEstimate, EhCircuit, _check, rho_params

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
    # no longer called here, but kept bound: tracers patch it by this name
    "sample_rayleigh",
]

_BATCH = 1 << 16


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
        for name in ("beta", "r", "alpha", "psi_mode", "n_frames", "seed", "xi"):
            _check(name, getattr(self, name))
        if not isinstance(self.circuit, EhCircuit):
            raise ValueError(f"circuit must be an EhCircuit, got {self.circuit!r}")
        # the weights a run multiplies its drives by; a quartic weight of 0
        # (a linear rectifier, or one that underflows) is a real limit
        c2, c4 = _weights(self.r, self.alpha, *rho_params(self.circuit))
        if not (0.0 < c2 < math.inf and math.isfinite(c4)):
            raise ValueError(f"the harvest weights c2={c2!r}, c4={c4!r} overflow or underflow "
                             f"to 0 for r={self.r!r}, alpha={self.alpha!r}")


@dataclass(frozen=True)
class RunResult:
    """One operating point: the Monte-Carlo estimate and its closed form."""

    beta: int
    r: float
    psi_mode: str
    estimate: DcEstimate
    z_analytic: float
    papr_bound: float

    @property
    def rel_dev(self) -> float:
        """Signed (empirical - analytic) / analytic."""
        return (self.estimate.mean - self.z_analytic) / self.z_analytic

    @property
    def excess_sigma(self) -> float:
        """Signed deviation in units of the estimate's standard error.

        A standard error of 0 (every frame erased) gives the signed infinity,
        or NaN when the deviation is 0 too, as IEEE division does.
        """
        dev = self.estimate.mean - self.z_analytic
        if self.estimate.std_error == 0.0:
            return math.copysign(math.inf, dev) if dev else math.nan
        return dev / self.estimate.std_error


#: a sweep row is one run's result
SweepRow = RunResult


def _chip_sums(y: np.ndarray, beta: int, xi: int, out: np.ndarray, work: np.ndarray,
               peak: bool = False) -> float | None:
    """The one running sum over Dickson states: y_1 + ... + y_beta, in ``out``.

    Steps the states y = y_1 in place, beta - 1 times, and adds each into
    ``out``; ``work`` is the map step's scratch rows (``chaos._step_rows``).
    Returns the largest state, as a float, when ``peak`` is set, and None
    otherwise.  From y = 2x the sum is exactly 2v for the chip sum v: on a
    frame whose bit is d = +1, the correlator output (1 + d) v.
    """
    np.copyto(out, y)
    top = float(np.max(y)) if peak else None
    for _ in range(beta - 1):
        chebyshev_step(y, xi, out=y, work=work)
        out += y
        if peak:
            top = max(top, float(np.max(y)))
    return top


def _power_sums(y: np.ndarray, beta: int, xi: int, out: np.ndarray, work: np.ndarray,
                peak: bool = False) -> float | None:
    """The bypass-mode kernel: each frame's sums of x^2 and x^4, in ``out``.

    Steps the Dickson states y = y_1 in place.  The sums run over both
    symbol halves, whose chips are the orbit's up to sign, so each is twice
    the orbit's: the sums of y^2 and y^4 scaled by 1/2 and 1/8, which is
    exact.  Returns the peak x^2 over every chip, as a float, when ``peak``
    is set, and None otherwise.  ``work`` holds y^2, then the map step's
    scratch rows.

    At xi = 2 and beta >= 2 no chip is squared: y_{k+1} = y_k^2 - 2 makes
    every chip power the next chip plus 2, so with T = y_2 + ... + y_{beta+1}
    (``_chip_sums`` from y_2),

        sum y_k^2 = T + 2 beta,
        sum y_k^4 = (T - y_2 + y_{beta+2}) + 4 T + 6 beta,

    over k = 1 ... beta, and the peak chip power is max(y_2 ... y_{beta+1})
    + 2: beta + 1 map steps and one running sum.  The peak keeps the
    chip-order bits, since the largest power lies in [1, 4] (of two
    consecutive chips, one has |y| >= 1), where the relation is exact (see
    the chaos module) and fl(fl(y^2) - 2) keeps the order of the powers;
    the two sums can differ from chip-order ones in their last few bits.
    The peak is scaled once, after the maximum: fl(t + 2) and the exact
    factor 1/4 keep the order, so that is the maximum of the scaled powers.
    """
    e2, e4 = out
    y2 = work[0]
    if xi == 2 and beta > 1:
        # e4 keeps y_2 until the last step
        chebyshev_step(y, xi, out=y)
        np.copyto(e4, y)
        top = _chip_sums(y, beta, xi, out=e2, work=work[1:], peak=peak)
        chebyshev_step(y, xi, out=y)
        np.subtract(e2, e4, out=e4)
        e4 += y
        e4 += np.multiply(e2, 4.0, out=y2)
        e4 += 6.0 * beta
        e2 += 2.0 * beta
        if peak:
            top += 2.0
    else:
        np.multiply(y, y, out=e2)
        np.multiply(e2, e2, out=e4)
        top = float(np.max(e2)) if peak else None
        for _ in range(beta - 1):
            chebyshev_step(y, xi, out=y, work=work[1:])
            np.multiply(y, y, out=y2)
            e2 += y2
            if peak:
                top = max(top, float(np.max(y2)))
            y2 *= y2
            e4 += y2
    e2 *= 0.5
    e4 *= 0.125
    return top * 0.25 if peak else None


def _frame_batches(rng: np.random.Generator, n_frames: int, beta: int, xi: int,
                   psi_mode: str, peak: bool = False):
    """Yield ``(m, sums, top)`` for each batch of at most _BATCH frames.

    ``sums`` holds the batch's sums of the frames' drives s2, s4 and of
    s2*s2, s2*s4 and s4*s4, in ``DcAccumulator.add_moments``' order, and
    ``top`` its peak power (``peak`` set) or None.  Each batch makes one
    ``draw_initial_state`` call for its seed states, doubles them into the
    Dickson states y = 2x in place (exact), and the kernel steps every state
    drawn.  In bypass mode a batch draws m seed states, and its drives are
    ``_power_sums``' rows and its peak the peak chip power; no output
    depends on the data bits, so none is drawn.  In full mode a frame whose
    bit is d = -1 has the correlator output (1 + d) v = 0, and no output
    depends on which frames carry +1, so a batch draws only the count
    k ~ Binomial(m, 1/2) of its d = +1 frames, then their k seed states: its
    drives are their squared correlator outputs u = (2v)^2 and u^2, and its
    peak is the largest u; the m - k frames not drawn add 0 to every sum.
    One workspace of 4 + ``_step_rows(xi)`` rows is allocated per call: the
    state row, a y^2 row, the map step's rows (at xi >= 3) and the two
    drive rows, which are the draw's scratch until the kernel fills them.
    Every batch step writes into it, and no array leaves.
    """
    size = min(n_frames, _BATCH)
    n_step = _step_rows(xi)
    rows = np.empty((4 + n_step, size))
    for start in range(0, n_frames, _BATCH):
        m = min(_BATCH, n_frames - start)
        k = int(rng.binomial(m, 0.5)) if psi_mode == "full" else m
        work, drives = rows[1:2 + n_step, :k], rows[2 + n_step:, :k]
        y = draw_initial_state(rng, size=k, out=rows[0, :k], work=drives)
        y *= 2.0
        if psi_mode == "bypass":
            top = _power_sums(y, beta, xi, out=drives, work=work, peak=peak)
        else:
            u = drives[0]
            _chip_sums(y, beta, xi, out=u, work=work[1:])
            u *= u
            np.multiply(u, u, out=drives[1])
            top = float(np.max(u, initial=0.0)) if peak else None
        # einsum (optimize=False) calls no BLAS, unlike @, np.dot and np.vdot,
        # whose threads oversubscribe the CPUs a sweep's forked workers hold
        g = np.einsum("ij,kj->ik", drives, drives)
        yield m, [*drives.sum(axis=1), g[0, 0], g[0, 1], g[1, 1]], top


def _orbit_moments(config: RunConfig) -> DcAccumulator:
    """The moments of the drives (s2, s4) over the frames of the orbit run
    that ``config``'s seed, frame count, map degree, beta and mode fix."""
    acc = DcAccumulator()
    rng = np.random.default_rng(config.seed)
    for m, sums, _ in _frame_batches(rng, config.n_frames, config.beta, config.xi,
                                     config.psi_mode):
        acc.add_moments(m, sums)
    return acc


def _row(config: RunConfig, acc: DcAccumulator) -> RunResult:
    """``config``'s ``run_once`` result from the moments of its orbit run; the
    weights are Python floats, so a gain near the float64 limit gives an inf
    or NaN estimate, not a warning, and that is reported as an error."""
    link = (config.r, config.alpha, *rho_params(config.circuit))
    estimate = acc.result(*_weights(*link))
    closed_form = z_with_correlator if config.psi_mode == "full" else z_without_correlator
    z = closed_form(config.beta, *link)
    # one frame has no standard error: it is NaN by definition
    if not (math.isfinite(estimate.mean)
            and (estimate.n_frames == 1 or math.isfinite(estimate.std_error))
            and 0.0 < z < math.inf):
        raise ValueError(
            f"harvested DC is not representable in float64 for r={config.r!r}, "
            f"alpha={config.alpha!r} (mean {estimate.mean}, standard error "
            f"{estimate.std_error}, closed form {z})"
        )
    return RunResult(beta=config.beta, r=config.r, psi_mode=config.psi_mode,
                     estimate=estimate, z_analytic=z,
                     papr_bound=papr_analytic(config.psi_mode, config.beta))


def _warn_if_noisy(config: RunConfig) -> None:
    """Warn, at the line that called the run, when it has under 100 frames."""
    if config.n_frames < 100:
        warnings.warn(f"n_frames={config.n_frames} gives a very noisy estimate",
                      stacklevel=3)


def run_once(config: RunConfig) -> RunResult:
    """Estimate harvested DC at one operating point, with its closed form.

    A frame's w is its expected harvest given its orbit, c2*s2 + c4*s4 for
    the sums s2, s4 of y^2, y^4 over the samples y the rectifier sees and the
    weights c2 = rho1*g, c4 = 2*rho2*g^2 (g = r**-alpha) that the closed forms
    use too: the Rayleigh gain is integrated out (E[h^2] = 1, E[h^4] = 2),
    not drawn, and the standard error is that of this estimator.  A run of
    fewer than 100 frames raises a UserWarning.
    """
    _warn_if_noisy(config)
    return _row(config, _orbit_moments(config))


@dataclass(frozen=True)
class SweepResult:
    rows: list[RunResult]

    def select(self, *, beta: int | None = None, r: float | None = None,
               psi_mode: str | None = None) -> list[RunResult]:
        """The rows that match every filter given; each filter obeys its input's rule."""
        out = self.rows
        for name, value in (("beta", beta), ("r", r), ("psi_mode", psi_mode)):
            if value is not None:
                _check(name, value)
                out = [s for s in out if getattr(s, name) == value]
        return out


def _subseed(seed: int, beta: int, psi_mode: str) -> int:
    """Deterministic seed of a sweep's (beta, mode) group, shared by its rows.

    Hash-derived so every group gets a decorrelated stream regardless of
    sweep ordering or which other groups are present.
    """
    tag = f"{seed}|{beta}|{PSI_MODES.index(psi_mode)}"
    return int(hashlib.sha256(tag.encode()).hexdigest()[:16], 16)


def sweep_beta(betas, distances, modes, base: RunConfig) -> SweepResult:
    """Cartesian sweep over spreading factors, distances and receiver modes.

    ``base`` supplies everything that is not swept (alpha, circuit, n_frames,
    seed, map degree); its own beta/r/psi_mode are ignored.  Each row is the
    ``run_once`` result of its cell at its (beta, mode) group's seed
    (``_subseed``); each group's orbit run is simulated once, in parallel
    (see ``_parallel.fork_map``), and gives every distance's row.  A base of
    fewer than 100 frames raises one UserWarning for the whole sweep.
    """
    betas, distances, modes = list(betas), list(distances), list(modes)
    for name, axis in (("betas", betas), ("distances", distances), ("modes", modes)):
        _check("axis", axis, name)
    _warn_if_noisy(base)
    # the raw values are validated (True is no beta, 2.7 is not 2), and only
    # then normalized, so that rows and seeds see plain ints and floats
    cells = [dataclasses.replace(base, beta=beta, r=r, psi_mode=mode)
             for beta in betas for r in distances for mode in modes]
    cfgs = [dataclasses.replace(c, beta=int(c.beta), r=float(c.r),
                                seed=_subseed(base.seed, c.beta, c.psi_mode))
            for c in cells]
    groups = {(c.beta, c.psi_mode): c for c in cfgs}
    # costliest groups first, so that no process is left with a long one last
    keys = sorted(groups, key=lambda key: -key[0])
    moments = dict(zip(keys, fork_map(_orbit_moments, [groups[k] for k in keys])))
    return SweepResult(rows=[_row(c, moments[c.beta, c.psi_mode]) for c in cfgs])


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
    # a repeated beta adds no point to the quadratic, only a weight
    betas = sorted({s.beta for s in rows})
    if len(betas) < 5:
        raise ValueError(f"need at least 5 distinct betas at r={r}, mode={psi_mode!r}; "
                         f"got {betas}")
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


def measure_papr(beta: int, psi_mode: str, n_frames: int = RunConfig.n_frames,
                 seed: int = RunConfig.seed, xi: int = RunConfig.xi) -> PaprMeasurement:
    """Peak-to-average power of the transmit-side waveform (unit gain).

    Fading is deliberately excluded: the analytic bounds are per-symbol and
    scale-free, while a gain that varies across symbols reweights the global
    average and can push the plain ratio past them.  Two ratios are returned:
    'plain' divides the peak by the realized mean power, the expectation-
    normalized ratio divides by the ensemble-mean power that the closed-form
    bounds are stated against.
    """
    bound = papr_analytic(psi_mode, beta)  # checks psi_mode and beta
    for name, value in (("n_frames", n_frames), ("seed", seed), ("xi", xi)):
        _check(name, value)
    rng = np.random.default_rng(seed)
    peak = 0.0
    power_sum = 0.0
    for _, sums, top in _frame_batches(rng, n_frames, beta, xi, psi_mode, peak=True):
        # each frame's power is its drive s2: u in full mode, the sum of the
        # chip powers in bypass mode
        peak = max(peak, top)
        power_sum += float(sums[0])
    # one power per frame in full mode (0 where d = -1), one per chip (2*beta
    # a frame) in bypass
    mean_power = power_sum / (n_frames if psi_mode == "full" else n_frames * 2 * beta)
    if mean_power == 0.0:
        # every full-mode frame carried bit -1, which erases the symbol
        raise ValueError(f"beta={beta}, {psi_mode} mode, n_frames={n_frames}, seed={seed}: "
                         f"realized mean power is 0; PAPR undefined")
    expected_power = float(beta) if psi_mode == "full" else 0.5
    return PaprMeasurement(psi_mode=psi_mode, beta=int(beta), n_frames=n_frames,
                           plain=peak / mean_power,
                           expectation_normalized=peak / expected_power,
                           analytic_bound=bound)
