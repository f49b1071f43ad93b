"""Seeded Monte Carlo validation of the analytic error rates and variances.

Randomness comes from numpy's PCG64 generator seeded with the 64-bit
scenario seed: one seed, one stream of 64-bit words.  Trial i owns a fixed
slice of the stream, so a report depends only on (scenario, seed, trials),
never on batching or thread scheduling.  A trial draws exactly the words it
reads: one uniform u in both samplers.  A heterodyne trial's squared
deviation |z - alpha|^2 is read off the Box-Muller radius of u,
-variance ln u, with no angle.  A Helstrom trial places u in the cumulative
table of its (hypothesis, outcome) law, whose acceptance probabilities
``discrim`` writes in closed form; this module holds no linear algebra.
Each report names the draw it made.

A sampler is a block kernel, a function from one block of uniforms to an
integer (an error count or an exact sum), handed to ``_split_sum``, which
owns the stream: it cuts the trials into one range of blocks of at most
``_CHUNK_TRIALS`` trials per CPU, run by the calling thread and a thread
pool, and feeds each block to the kernel.  PCG64 jumps ahead any number of
words in O(log n) steps, so each range starts at its own words, and integers
add the same in any order.  The exact sum scales each block's squared
deviations by a power of two into [0, 1), rounds them onto two fixed grids
and sums the parts of each grid and what is left in float64, all without
rounding for blocks of up to 2^16 trials.  The total rounds once: the bits
of ``math.fsum`` over all trials, whatever the block size or CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import gauss
from .discrim import DiscriminationProblem, _input_overlap, helstrom_acceptance, helstrom_error
from .linops import _count

# The draw that each sampler's reports name: one uniform per trial, read as a Box-Muller
# radius or placed in the cumulative (hypothesis, outcome) table.
HETERODYNE_RNG = "pcg64/one-word-box-muller-radius"
HELSTROM_RNG = "pcg64/one-word-cumulative-table"

# Largest trial count a sampler accepts; memory is bounded, run time is not.
MAX_TRIALS = 10**9

# Trials per streamed block, one PCG64 word each.  Every numpy call in a block
# hands the interpreter lock to the other ranges' threads, so larger blocks
# switch less.  On a 2-vCPU Linux VM, in 6 rounds of 8 s monte-carlo benchmark
# runs (seed 1), the median wall_s was 0.0577 s at 2^13, 0.0388 s at 2^14,
# 0.0326 s at 2^15 and 0.0338 s at 2^16; 2^15 beat both neighbours in all 6
# rounds and took 0.7 MB more peak RSS than 2^14 (41.8 MB).  A heterodyne range
# holds its block and one scratch block, 0.5 MB (tracemalloc); a Helstrom range
# its block.  The block sum is exact for blocks of at most 2^16 trials.
_CHUNK_TRIALS = 1 << 15


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one validation run: empirical statistic against its analytic value."""

    scenario: str
    seed: int
    trials: int
    empirical: float
    analytic: float
    z_score: float
    rng: str

    def __post_init__(self):
        _check_seed(self.seed)
        _check_trials(self.trials)
        if not all(map(math.isfinite, (self.empirical, self.analytic, self.z_score))):
            raise ValueError("the empirical value, analytic value and z-score must be finite")


def _check_seed(seed: int) -> None:
    if not 0 <= _count(seed, "seed") < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


def _uniform_chunks(seed: int, first: int, stop: int, per_trial: int):
    """Yield the uniforms of trials ``first`` to ``stop - 1`` less 2^-53, trial i on PCG64
    stream slice i, in blocks of at most ``_CHUNK_TRIALS`` trials, each written over the last.
    Each raw 64-bit word w gives the uniform ((w >> 11) + 1) 2^-53 in (0, 1], which feeds
    logarithms safely; ``random`` writes (w >> 11) 2^-53, and each kernel adds the 2^-53,
    exactly, only where it reads a uniform.  One ``advance`` step skips one word."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(first * per_trial)
    draw = np.random.Generator(bitgen).random
    block = np.empty((min(_CHUNK_TRIALS, stop - first), per_trial))
    for start in range(first, stop, _CHUNK_TRIALS):
        yield draw(out=block[: stop - start])


def _cpu_count() -> int:  # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split_sum(seed: int, trials: int, per_trial: int, kernel) -> int:
    """Sum of the integers ``kernel(u)`` over the ``_uniform_chunks`` blocks of trials 0 to
    ``trials - 1``, ``per_trial`` uniforms each.  The trials are cut into ranges of whole blocks,
    one per CPU and at most one per block; the calling thread runs the first range and a thread
    pool, all joined here, the rest; a helper's exception is raised here, lowest range first.
    An exception in the calling thread, Ctrl-C included, sets the ``abandon`` event, which each
    range checks between blocks, so the helpers stop within a block."""
    # imported here: concurrent.futures loads logging, ~9 ms on every CLI start otherwise
    from concurrent.futures import ThreadPoolExecutor

    _check_seed(seed)
    blocks = -(-trials // _CHUNK_TRIALS)
    ranges = min(_cpu_count(), blocks)
    edges = [min(trials, blocks * i // ranges * _CHUNK_TRIALS) for i in range(ranges + 1)]
    abandon = threading.Event()

    def run(first: int, stop: int) -> int:
        total = 0
        for u in _uniform_chunks(seed, first, stop, per_trial):
            if abandon.is_set():
                break
            total += kernel(u)
        return total

    with ThreadPoolExecutor(max(ranges - 1, 1)) as pool:
        try:
            helpers = [pool.submit(run, edges[i], edges[i + 1]) for i in range(1, ranges)]
            return run(edges[0], edges[1]) + sum(helper.result() for helper in helpers)
        except BaseException:
            abandon.set()
            raise


def _grid_split_sum(values: np.ndarray, scratch: np.ndarray) -> int:
    """The exact sum of at most 2^16 doubles in [0, 1) on the 2^-112 grid, as a count of
    2^-112; overwrites ``values`` and the first ``values.size`` entries of the float64 array
    ``scratch``, which holds each grid's parts.

    With n values and b = min(51, 53 - bit_length(n - 1)) >= 37, each value rounds onto the
    2^-b grid and its remainder onto the 2^-2b grid, each by adding and subtracting 1.5 2^52
    times the grid.  A part is at most 2^b times its grid, and what is left at most 2^(111 - 2b)
    times 2^-112, so each ``np.sum`` of n terms stays within 2^53 units and never rounds."""
    bits = min(51, 53 - (values.size - 1).bit_length())
    part = scratch[: values.size]
    total = 0
    for grid in (bits, 2 * bits):
        splitter = 1.5 * 2.0 ** (52 - grid)
        np.add(values, splitter, out=part)
        part -= splitter
        values -= part
        total += int(np.sum(part) * 2.0**grid) << (112 - grid)
    return total + int(np.sum(values) * 2.0**112)


def _check_trials(trials: int) -> int:
    if not 1 <= (count := _count(trials, "trials")) <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    return count


def _check_deviation_sum(nbar: float, trials: int) -> None:
    """The uniforms are at least 2^-53, so no squared deviation -variance ln u exceeds
    53 ln 2 < 37 times the outcome variance, which is at most 1 + 2 nbar in both schemes: the
    sum over the trials must stay finite.  Divided by 2^top > 37 variance, each lies in [0, 1),
    where ``_grid_split_sum`` adds blocks of up to 2^16 of them exactly."""
    if not math.isfinite(37.0 * (1.0 + 2.0 * nbar) * trials):
        raise ValueError(f"nbar {nbar} with {trials} trials overflows the sum of squared deviations")


def _z_score(empirical: float, analytic: float, std_error: float) -> float:
    if std_error == 0.0:
        return 0.0
    return (empirical - analytic) / std_error


def sample_helstrom(
    problem: DiscriminationProblem, probe, trials: int, seed: int
) -> TrialReport:
    """Sample the optimal binary measurement and compare the error rate to theory.

    Each trial draws a hypothesis from the priors, applies the matching
    unitary to the probe and measures the projector onto the nonnegative
    eigenspace of p1 rho1 - p2 rho2; the empirical error rate is z-scored
    against the minimum-error formula with its binomial standard error.
    q1 and q2, the chances of announcing 1 under each hypothesis, are read in
    closed form off the priors and the outputs' overlap by
    ``discrim.helstrom_acceptance``; no d^2 x d^2 state is built.  A trial's
    one uniform u falls in the cumulative table [p1 q1, p1, p1 + p2 q2, 1] of
    (hypothesis, outcome), hypothesis-major: hypothesis 1 when u <= p1, and
    then 1 announced when u <= p1 q1, or 2 announced when p1 < u <= p1 + p2 q2.
    So a trial errs when lo < u <= hi with lo = p1 q1 and hi = p1 + p2 q2, each
    the exact value rounded once, and each block counts its errors with two
    comparisons.  At orthogonal outputs (q1, q2) = (1, 0) and lo = hi = p1:
    no trial errs.  The uniforms lie on the 2^-53 grid, so the outcome given
    hypothesis 1 resolves q1 to 2^-53 / p1 (q2 to 2^-53 / p2), and the error
    rate to 2^-53, far below the 1/sqrt(trials) scatter of any run.
    """
    trials = _check_trials(trials)
    # imported here: fractions loads decimal, ~3 ms on every CLI start otherwise
    from fractions import Fraction

    p1, p2 = problem.p1, problem.p2
    q1, q2 = helstrom_acceptance(p1, p2, _input_overlap(problem, probe))

    # the blocks hold u - 2^-53, and u - 2^-53 <= t - 2^-53 exactly when u <= t: the
    # subtraction is exact for t >= 2^-53 and leaves a negative threshold, which no uniform
    # meets, below it
    lo = p1 * q1 - 2.0**-53
    hi = float(Fraction(p1) + Fraction(p2) * Fraction(q2)) - 2.0**-53

    def error_count(u: np.ndarray) -> int:
        return int(np.count_nonzero(u <= hi)) - int(np.count_nonzero(u <= lo))

    empirical = _split_sum(seed, trials, 1, error_count) / trials

    analytic = float(helstrom_error(problem, probe))
    std_error = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / trials)
    return TrialReport(
        scenario=f"helstrom[d={problem.dim},p1={problem.p1}]",
        seed=seed,
        trials=trials,
        empirical=float(empirical),
        analytic=analytic,
        z_score=float(_z_score(empirical, analytic, std_error)),
        rng=HELSTROM_RNG,
    )


def sample_heterodyne(
    x: float,
    alpha: complex,
    noise: gauss.NoiseSpec,
    scheme: str,
    trials: int,
    seed: int,
) -> TrialReport:
    """Sample heterodyne outcomes and compare the scatter to the noise formula.

    ``entangled`` probes with the two-mode squeezed state and is scored
    against Delta^2 + 2 nbar; ``unentangled`` probes with the vacuum, the
    two-mode probe at x = 0 with its noise on the probed mode only, and is
    scored against 1 + nbar.  Both sampling laws are ``gauss.epr_heterodyne``.
    """
    trials = _check_trials(trials)
    _check_deviation_sum(noise.nbar_per_mode, trials)
    gauss._check_gain(x)  # both schemes refuse the same gains
    if scheme == "entangled":
        law = gauss.epr_heterodyne(gauss.tmsv_state(x), alpha, noise)
        analytic = gauss.tmsv_epr_variance(x) + 2.0 * noise.nbar_per_mode
    elif scheme == "unentangled":
        law = gauss.epr_heterodyne(gauss.TwoModeProbe(0.0, noise.nbar_per_mode), alpha)
        analytic = 1.0 + noise.nbar_per_mode
    else:
        raise ValueError(f"scheme must be 'entangled' or 'unentangled', got {scheme!r}")

    # no deviation reaches 53 ln 2 < 37 times the variance (see _check_deviation_sum), so the
    # scale -variance 2^-top lies in (-1/37, -1/74].  Each ln u is 0 or below -2^-53 (1 - 2^-53),
    # so a scaled deviation is 2^-top times -variance ln u exactly (neither product leaves the
    # normal range), lies in [0, 1) and is 0 or above 2^-60: a multiple of 2^-112
    top = math.frexp(37.0 * law.variance)[1]
    scale = math.ldexp(-law.variance, -top)

    # each range runs on one thread, so a thread's scratch block serves all of its range
    buffers = threading.local()

    def deviation_sum(u: np.ndarray) -> int:
        # 2^-top |z - alpha|^2 in units of 2^-112, worked out in place: z - alpha is a
        # Box-Muller pair scaled by sqrt(variance / 2), so it is variance / 2 times the squared
        # radius -2 ln u and the angle drops out, so no trial draws it
        deviation = u.reshape(-1)
        deviation += 2.0**-53
        np.log(deviation, out=deviation)
        deviation *= scale
        if not hasattr(buffers, "scratch"):
            buffers.scratch = np.empty(_CHUNK_TRIALS)
        return _grid_split_sum(deviation, buffers.scratch)

    # the exact total rounds once, to a float; the sum is normal, so its scaling is exact
    empirical = math.ldexp(_split_sum(seed, trials, 1, deviation_sum), top - 112) / trials

    # E|z-alpha|^2 is delta^2/2 times a chi-square with 2 dof per trial
    std_error = analytic / math.sqrt(trials)
    return TrialReport(
        scenario=f"heterodyne[{scheme},x={x},nbar={noise.nbar_per_mode}]",
        seed=seed,
        trials=trials,
        empirical=float(empirical),
        analytic=float(analytic),
        z_score=float(_z_score(empirical, analytic, std_error)),
        rng=HETERODYNE_RNG,
    )


@dataclass(frozen=True)
class StabilityScan:
    """Phase-mismatch sensitivity table for squeezed versus entangled probes."""

    phis: np.ndarray
    squeezed_variance: np.ndarray
    entangled_variance: np.ndarray
    squeezed_photons: float
    entangled_photons: float


def stability_scan(s: float, x: float, phi_grid) -> StabilityScan:
    """Tabulate both probes' measured variance across a quadrature-phase grid.

    The squeezed column is the single-mode quadrature variance at each
    mismatch angle, over the whole grid at once.  The entangled column is one
    value at every angle: the EPR law's variance, which a common phase on the
    measured pair cannot move (see ``gauss.epr_heterodyne``).
    """
    phis = np.asarray(phi_grid, dtype=float).reshape(-1)
    if phis.size == 0:
        raise ValueError("the phase grid must not be empty")
    entangled, squeezed = gauss.tmsv_state(x), gauss.squeezed_state(s)
    return StabilityScan(
        phis=phis,
        squeezed_variance=gauss.quadrature_variance(squeezed, phis),
        entangled_variance=np.full(phis.shape, gauss.epr_heterodyne(entangled).variance),
        squeezed_photons=gauss.photon_budget(squeezed),
        entangled_photons=gauss.photon_budget(entangled),
    )
