"""Monte-Carlo estimation of harvested DC over the chaotic WPT chain.

The simulator never materializes whole chip blocks: frames are processed in
vectorized batches, streaming only the per-frame statistics the receiver mode
needs as the orbit is iterated.  Every map step is taken by one walk along
the orbits, ``_orbit``, iterated in Dickson form on the exactly scaled
state y = 2x (see :mod:`chaoswpt.chaos`), stepped in place from seed states
used as ``draw_initial_state`` draws them.  Each mode's kernel is one loop
over that walk: full mode's (``_correlator_drives``) keeps the chip sum and
writes its drives (at beta = 1 the seed state is the one chip), bypass
mode's (``_power_sums``) writes two raw rows of which the chip power and
fourth-power sums over both symbol halves are an exact affine function.
Both return the peak power as one number, 0.0 unless the PAPR measurement
asks for it.  Chips 1 ... beta of an orbit do not depend on how long it runs,
so one orbit run serves every beta: the walk goes to the largest beta
asked for and each beta's statistics are read as the walk passes it.  At
xi = 2 a chip's power is the next Dickson state plus 2, so bypass mode
there keeps one orbit sum too, and squares no chip past the first.  Full
mode simulates only the frames whose data bit is +1, since the others
harvest exactly 0: each batch draws their count, then their seed states.
A frame's expected harvest over its fading gain is the weighted sum of its
drives (s2, s4), so an affine function of the kernel's raw rows
(``_harvest_weights``).  One batch loop, ``_orbit_moments``, serves
``run_once``, each mode of a sweep and ``measure_papr``: it opens the run's
one stream, draws each batch, calls the kernel on each column block and
adds each batch's moments of the raw rows to one accumulator, so memory
stays flat however many frames are requested, and the weights apply
afterwards, so one orbit run serves every distance too.  A sweep's rows in
one mode thus share one stream, and the accumulator gives their covariance
for the fit from the same formula as their standard errors.  Each run
allocates one workspace, a batch-sized state row and rows one column block
wide; every per-batch step writes into views of it, and the loop reduces
each block itself, so no row of the workspace leaves it: one row sum and
one Gram product of the block's rows give every beta's moments and the
products across betas.  Means and PAPRs use no BLAS; a standard error comes
through that product, so it depends on the BLAS build, but not on its
thread count.
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
#: the kernel's column block: a fixed width, so that a beta's sums round the
#: same whatever other betas share its orbit run
_BLOCK = 1 << 14


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


def _orbit(y: np.ndarray, stop: int, xi: int, work: np.ndarray):
    """The one walk along the orbits, and montecarlo's one map step: steps
    the Dickson states y = y_1 in place, with the step's scratch rows
    ``work`` (``chaos._step_rows``), and yields n once y holds y_n, for
    n = 1 ... stop."""
    yield 1
    for n in range(2, stop + 1):
        chebyshev_step(y, xi, out=y, work=work)
        yield n


def _correlator_drives(y: np.ndarray, betas, xi: int, out: np.ndarray, rows: np.ndarray,
                       work: np.ndarray, peak: bool = False) -> float:
    """The full-mode kernel: betas[i]'s drives u = (2v)^2 and u^2, for the
    chip sum v, in out[2i] and out[2i + 1], written at step n = beta
    (``reads`` maps n to 2i), and the largest beta's peak u (``peak`` set;
    0.0 without).  The running sum y_1 + ... + y_n = 2v is kept in rows[0],
    except at a largest beta of 1, whose sum is y itself: a copy would slow
    that run by 3-4%."""
    s = y if betas[-1] == 1 else rows[0]
    reads = {beta: 2 * i for i, beta in enumerate(betas)}
    for n in _orbit(y, betas[-1], xi, work):
        if n > 1:
            s += y
        elif s is not y:
            np.copyto(s, y)
        if n in reads:
            u = np.multiply(s, s, out=out[reads[n]])
            np.multiply(u, u, out=out[reads[n] + 1])
    return float(np.max(out[-2])) if peak else 0.0


def _orbit_summed(beta: int, xi: int) -> bool:
    """Whether bypass mode reads beta from the orbit sum, not squared chips."""
    return xi == 2 and beta >= 2


def _harvest_weights(betas, xi: int, psi_mode: str, c2: float, c4: float):
    """Each beta's harvest w = c2*s2 + c4*s4 as an affine function of the
    kernel's two raw rows, w = a1*r1 + a2*r2 + k: a (B, 2) array of the
    weights (a1, a2) and a (B,) array of the constants k.

    The one place that states the bypass drive formulas.  Full mode's rows
    are the drives: (c2, c4) and 0.  In bypass mode both symbol halves carry
    the orbit's chips up to sign, and x = y/2, so squared chips' drives are
    s2 = r1/2 and s4 = r2/8: (c2/2, c4/8) and 0, exact scalings.  The orbit
    sum (xi = 2, beta >= 2; r1 = T, r2 = D, see ``_power_sums``) has
    s2 = T/2 + beta and s4 = 5T/8 + D/8 + 3 beta/4: (c2/2 + 5 c4/8, c4/8)
    and (c2 + 3 c4/4) beta.  The weights are formed as Python floats, so one
    that overflows is inf, not a warning.
    """
    if psi_mode == "full":
        rows = [(c2, c4, 0.0)] * len(betas)
    else:
        rows = [(0.5 * c2 + 0.625 * c4, 0.125 * c4, (c2 + 0.75 * c4) * int(beta))
                if _orbit_summed(beta, xi) else (0.5 * c2, 0.125 * c4, 0.0) for beta in betas]
    w = np.array(rows)
    return w[:, :2], w[:, 2]


def _power_sums(y: np.ndarray, betas, xi: int, out: np.ndarray, rows: np.ndarray,
                work: np.ndarray, peak: bool = False) -> float:
    """The bypass-mode kernel: betas[i]'s two raw rows, in out[2i] and
    out[2i + 1], of which its drives, the sums of x^2 and x^4 over both
    symbol halves, are an exact affine function (``_harvest_weights``), and
    the peak x^2 over the largest beta's chips (``peak`` set; 0.0 without).
    ``rows`` holds three rows: two running sums, started at 0 (0 + t is t
    exactly), and y^2 or y_2.  Squared chips (every beta at xi >= 3, and a
    lone beta of 1 at xi = 2) give the raw rows sum y_k^2 and sum y_k^4 over
    k = 1 ... beta, read at n = beta (``reads`` maps n to 2i).

    At xi = 2 and a largest beta >= 2 no chip past the first is squared:
    y_{k+1} = y_k^2 - 2 makes every chip power the next chip plus 2, so with
    T = y_2 + ... + y_{beta+1} and D = y_{beta+2} - y_2,

        sum y_k^2 = T + 2 beta,
        sum y_k^4 = (T - y_2 + y_{beta+2}) + 4 T + 6 beta = 5 T + D + 6 beta,

    over k = 1 ... beta, and the raw rows are T and D, read at n = beta + 2
    before y_n would join the running sum (a beta of 1 in the grid reads the
    squared first state): beta + 1 map steps for the largest beta.  The
    peak chip power is max(y_2 ... y_{beta+1}) + 2, a maximum that starts
    below every state, as one frame's states may all be negative.  It keeps
    the chip-order bits, since the largest power lies in [1, 4] (of two
    consecutive chips, one has |y| >= 1), where the relation is exact (see
    the chaos module) and fl(fl(y^2) - 2) keeps the order of the powers; and
    it is scaled once, after the maximum, since fl(t + 2) and the exact
    factor 1/4 keep the order too.
    """
    e2, e4, y2 = rows
    top = -math.inf
    e2.fill(0.0)
    if not _orbit_summed(betas[-1], xi):
        reads = {beta: 2 * i for i, beta in enumerate(betas)}
        e4.fill(0.0)
        for n in _orbit(y, betas[-1], xi, work):
            sq = np.multiply(y, y, out=y2)
            if peak:
                top = max(top, float(np.max(sq)))
            e2 += sq
            sq *= sq
            e4 += sq
            if n in reads:
                np.copyto(out[reads[n]], e2)
                np.copyto(out[reads[n] + 1], e4)
        return top * 0.25 if peak else 0.0
    if betas[0] == 1:
        np.multiply(y, y, out=out[0])
        np.multiply(out[0], out[0], out=out[1])
    # e2 is the running sum T, e4 keeps y_2
    reads = {beta + 2: 2 * i for i, beta in enumerate(betas) if beta > 1}
    stop = betas[-1] + 2
    for n in _orbit(y, stop, xi, work):
        if n in reads:
            np.copyto(out[reads[n]], e2)
            np.subtract(y, e4, out=out[reads[n] + 1])
        if n == 2:
            np.copyto(e4, y)
        if 2 <= n < stop:
            e2 += y
            if peak:
                top = max(top, float(np.max(y)))
    return (top + 2.0) * 0.25 if peak else 0.0


def _orbit_moments(seed: int, n_frames: int, betas, xi: int, psi_mode: str,
                   peak: bool = False) -> tuple[DcAccumulator, float]:
    """The run's one batch loop: the moments of the kernel's raw rows over
    the n_frames frames of the orbit run that ``np.random.default_rng(seed)``
    draws, read at each beta of ``betas`` (ascending, distinct), in one
    accumulator, and the largest beta's largest peak power (0.0 without
    ``peak``).

    The mode's kernel, picked once per run, is ``_correlator_drives`` or
    ``_power_sums``, called once per block.  Rows 2i and 2i + 1 are
    betas[i]'s two kernel rows: its drives s2, s4 in full mode, its raw rows
    in bypass mode.  Each batch of at most _BATCH frames adds its 2B row
    sums and the (2B, 2B) sums of their products with one ``add_moments``
    call.

    Each batch makes one ``draw_initial_state`` call for its seed states,
    doubles them into the Dickson states y = 2x in place (exact), and the
    kernel walks every state drawn along ``_orbit``.  In bypass mode a batch
    draws m seed states, and its peak is the peak chip power.  No bypass
    output depends on the data bits, so none is drawn.  In full mode a frame
    whose bit is d = -1 has the correlator output (1 + d) v = 0, and no
    output depends on which frames carry +1, so a batch draws only the count
    k ~ Binomial(m, 1/2) of its d = +1 frames, then their k seed states:
    its drives are their squared correlator outputs u = (2v)^2 and u^2, and
    its peak is the largest u; the m - k frames not drawn add 0 to every
    sum.  No draw depends on ``betas``.

    The kernel walks the states in column blocks of _BLOCK, a fixed width,
    and each block is reduced by one row sum and one ``@`` product of all
    its 2B rows, at every B.  The row sums call no BLAS, and the BLAS rounds
    a diagonal block of the product as the product of that beta's two rows
    alone and keeps the product exactly symmetric (properties of its kernel,
    which the sweep tests check), so a beta's sums keep their bits whatever
    else is in ``betas``.  One workspace is allocated per run: the batch's
    state row, then 2B output rows, three kernel rows and the map step's
    rows (at xi >= 3), one block wide; the draw's two scratch rows overlap
    the block rows, which the kernel fills only after the draw.  Every batch
    step writes into it, and no row of it leaves.
    """
    rng = np.random.default_rng(seed)
    acc, top = DcAccumulator(), 0.0
    size = min(n_frames, _BATCH)
    width = min(size, _BLOCK)
    nd = 2 * len(betas)
    n_rows = nd + 3 + _step_rows(xi)
    # the workspace starts on a 64-byte cache line, so that every 2^14-wide
    # row does: at numpy's 16-byte alignment each row straddles lines, which
    # slows a sweep pass by about a tenth; no result depends on the address
    n_space = size + max(2 * size, n_rows * width)
    raw = np.empty(n_space + 8)
    space = raw[-raw.ctypes.data % 64 // 8:][:n_space]
    state, rest = space[:size], space[size:]
    rows = rest[:n_rows * width].reshape(n_rows, width)
    kernel_rows, work = rows[nd:nd + 3], rows[nd + 3:]
    # a batch's and one block's row sums and Gram product
    sums, gram = np.empty(nd), np.empty((nd, nd))
    block_sums, block_gram = np.empty(nd), np.empty((nd, nd))
    kernel = _correlator_drives if psi_mode == "full" else _power_sums
    for start in range(0, n_frames, _BATCH):
        m = min(_BATCH, n_frames - start)
        k = int(rng.binomial(m, 0.5)) if psi_mode == "full" else m
        y = draw_initial_state(rng, size=k, out=state[:k], work=rest[:2 * k].reshape(2, k))
        y *= 2.0
        sums.fill(0.0)
        gram.fill(0.0)
        for j in range(0, k, _BLOCK):
            w = min(_BLOCK, k - j)
            block = rows[:nd, :w]
            top = max(top, kernel(y[j:j + w], betas, xi, out=block, rows=kernel_rows[:, :w],
                                  work=work[:, :w], peak=peak))
            block.sum(axis=1, out=block_sums)
            np.matmul(block, block.T, out=block_gram)
            sums += block_sums
            gram += block_gram
        acc.add_moments(m, sums, gram)
    return acc, top


def _rows(configs, betas, acc: DcAccumulator) -> tuple[list[RunResult], np.ndarray]:
    """The ``run_once`` results of ``configs``, which share one distance and
    one mode, from the moments ``acc`` of their orbit run over ``betas``, and
    the covariance of their means.  A weight is a float, so a gain near the
    float64 limit gives an inf or NaN estimate, not a warning, and that is
    reported as an error."""
    link = (configs[0].r, configs[0].alpha, *rho_params(configs[0].circuit))
    a, k = _harvest_weights(betas, configs[0].xi, configs[0].psi_mode, *_weights(*link))
    at = [betas.index(c.beta) for c in configs]
    estimates, cov = acc.result(at, a[at], k[at])
    rows = []
    for config, estimate in zip(configs, estimates):
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
        rows.append(RunResult(beta=config.beta, r=config.r, psi_mode=config.psi_mode,
                              estimate=estimate, z_analytic=z,
                              papr_bound=papr_analytic(config.psi_mode, config.beta)))
    return rows, cov


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
    betas = [config.beta]
    acc, _ = _orbit_moments(config.seed, config.n_frames, betas, config.xi, config.psi_mode)
    (row,), _ = _rows([config], betas, acc)
    return row


@dataclass(frozen=True)
class SweepResult:
    """A sweep's rows, and the covariance of each (r, psi_mode) series' means.

    ``covariance[r, psi_mode]`` is the matrix over that series' rows, in
    the order ``select(r=r, psi_mode=psi_mode)`` gives them: a sweep's rows
    in one mode share one orbit run, so their errors are correlated, and
    its diagonal is each row's std_error squared.  A SweepResult built from
    bare rows has none, and ``fit_scaling`` then takes the rows as
    independent.  It does not take part in ``==``.
    """

    rows: list[RunResult]
    covariance: dict[tuple[float, str], np.ndarray] = field(default_factory=dict,
                                                            compare=False, repr=False)

    def select(self, *, beta: int | None = None, r: float | None = None,
               psi_mode: str | None = None) -> list[RunResult]:
        """The rows that match every filter given; each filter obeys its input's rule."""
        out = self.rows
        for name, value in (("beta", beta), ("r", r), ("psi_mode", psi_mode)):
            if value is not None:
                _check(name, value)
                out = [s for s in out if getattr(s, name) == value]
        return out


def _subseed(seed: int, psi_mode: str) -> int:
    """Deterministic seed of a sweep's mode group, shared by its rows.

    Hash-derived so every group gets a decorrelated stream regardless of
    sweep ordering or which other groups are present.
    """
    tag = f"{seed}|{PSI_MODES.index(psi_mode)}"
    return int(hashlib.sha256(tag.encode()).hexdigest()[:16], 16)


def sweep_beta(betas, distances, modes, base: RunConfig) -> SweepResult:
    """Cartesian sweep over spreading factors, distances and receiver modes.

    ``base`` supplies everything that is not swept (alpha, circuit, n_frames,
    seed, map degree); its own beta/r/psi_mode are ignored.  Each row is the
    ``run_once`` result of its cell at its mode group's seed (``_subseed``):
    each mode's orbit run is simulated once, stepped to the largest beta,
    and gives every beta's and every distance's row.  The modes run in
    parallel (see ``_parallel.fork_map``), so a one-mode sweep runs in the
    caller.  The rows of one mode share one stream, and the result carries
    each (distance, mode) series' covariance.  A base of fewer than 100
    frames raises one UserWarning for the whole sweep.
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
                                seed=_subseed(base.seed, c.psi_mode))
            for c in cells]
    grid = sorted({c.beta for c in cfgs})
    groups = {c.psi_mode: c for c in cfgs}
    runs = dict(zip(groups, fork_map(lambda c: _orbit_moments(
        c.seed, c.n_frames, grid, c.xi, c.psi_mode)[0], groups.values())))
    rows, covariance = [None] * len(cfgs), {}
    for key in dict.fromkeys((c.r, c.psi_mode) for c in cfgs):
        at = [i for i, c in enumerate(cfgs) if (c.r, c.psi_mode) == key]
        series, covariance[key] = _rows([cfgs[i] for i in at], grid, runs[key[1]])
        for i, row in zip(at, series):
            rows[i] = row
    return SweepResult(rows=rows, covariance=covariance)


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
    propagate the series' covariance (``SweepResult.covariance``) through
    the (unweighted) least-squares solution P: Var(coef) = P Sigma P^T.  A
    series without one, as from bare rows, is taken as independent rows,
    Sigma = diag(se^2).
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
    cov = result.covariance.get((float(r), psi_mode))
    if cov is None:
        cov = np.diag(se * se)
    design = np.vander(x, 3)  # columns: beta^2, beta, 1
    pinv = np.linalg.pinv(design)
    c2, c1, c0 = pinv @ y
    coef_var = np.einsum("ij,jk,ik->i", pinv, cov, pinv)
    s2, s1, s0 = np.sqrt(np.maximum(coef_var, 0.0))
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
    acc, peak = _orbit_moments(seed, n_frames, (beta,), xi, psi_mode, peak=True)
    # each frame's power is its drive s2, weights (c2, c4) = (1, 0): u in full
    # mode (0 where d = -1), the sum of its 2*beta chip powers in bypass mode
    (power,), _ = acc.result([0], *_harvest_weights((beta,), xi, psi_mode, 1.0, 0.0))
    mean_power = power.mean / (1 if psi_mode == "full" else 2 * beta)
    if mean_power == 0.0:
        # every full-mode frame carried bit -1, which erases the symbol
        raise ValueError(f"beta={beta}, {psi_mode} mode, n_frames={n_frames}, seed={seed}: "
                         f"realized mean power is 0; PAPR undefined")
    expected_power = float(beta) if psi_mode == "full" else 0.5
    return PaprMeasurement(psi_mode=psi_mode, beta=int(beta), n_frames=n_frames,
                           plain=peak / mean_power,
                           expectation_normalized=peak / expected_power,
                           analytic_bound=bound)
