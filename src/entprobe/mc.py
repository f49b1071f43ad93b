"""Seeded Monte Carlo validation of the analytic error rates and variances.

Randomness comes from the Philox 4x64 counter-based generator keyed by the
64-bit scenario seed.  Trial i owns a fixed slice of the key stream, so a
report depends only on (scenario, seed, trials), never on batching or
thread scheduling.  A heterodyne trial's squared deviation |z - alpha|^2 is
read off the Box-Muller radius of its first uniform, -variance ln u0, with
no angle; the choice is recorded in every report.  A Helstrom trial compares
its uniforms with the priors and the measurement's acceptance probabilities,
which ``discrim`` writes in closed form; this module holds no linear algebra.

A sampler is a block kernel, a function from one block of uniforms to an
integer (an error count or an exact sum), handed to ``_split_sum``, which
owns the stream: it cuts the trials into one range of blocks of at most
``_CHUNK_TRIALS`` trials per CPU, run by the calling thread and a thread
pool, and feeds each block to the kernel.  Philox is counter-based, so each
range starts at its own words, and integers add the same in any order.  The
exact sum scales each block's squared deviations by a power of two into
[0, 1), rounds them onto two fixed grids and sums the parts of each grid and
what is left in float64, all without rounding for blocks of up to 2^16
trials.  The total rounds once: the bits of ``math.fsum`` over all trials,
whatever the block size or CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import gauss
from .discrim import DiscriminationProblem, _input_overlap, helstrom_acceptance, helstrom_error

RNG_DESCRIPTION = "philox4x64/box-muller-radius"

# Largest trial count a sampler accepts; memory is bounded, run time is not.
MAX_TRIALS = 10**9

# Trials per streamed block.  Every numpy call in a block hands the interpreter
# lock to the other ranges' threads.  On 2 CPUs 2^13 ran the monte-carlo
# benchmark 26 % faster than 2^12 and as fast as 2^14, which took 1.7 MB more
# peak RSS.  A thread's block arrays take ~0.33 MB (tracemalloc), and the
# Helstrom sampler's thresholds 0.26 MB more, shared by every thread.  The
# heterodyne block sum is exact for blocks of at most 2^16 trials.
_CHUNK_TRIALS = 1 << 13

# frexp writes a finite double as m 2^e, m in (-1, 1) a multiple of 2^-53 and
# e >= -1073, so every finite double is an integer multiple of 2^-1126.
_UNIT_BITS = 1126


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one validation run: empirical statistic against its analytic value."""

    scenario: str
    seed: int
    trials: int
    empirical: float
    analytic: float
    z_score: float
    rng: str = RNG_DESCRIPTION

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not math.isfinite(self.z_score):
            raise ValueError("z-score must be finite")


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


def _uniform_chunks(seed: int, first: int, stop: int, per_trial: int):
    """Yield the uniforms of trials ``first`` to ``stop - 1`` less 2^-53, trial i on Philox
    stream slice i, in blocks of at most ``_CHUNK_TRIALS`` trials, each written over the last.
    Each raw 64-bit word w gives the uniform ((w >> 11) + 1) 2^-53 in (0, 1], which feeds
    logarithms safely; ``random`` writes (w >> 11) 2^-53, and each kernel adds the 2^-53,
    exactly, only where it reads a uniform.  One ``advance`` step skips one 4-word Philox
    block."""
    _check_seed(seed)
    bitgen = np.random.Philox(key=np.uint64(seed))
    bitgen.advance(first * per_trial // 4)
    bitgen.random_raw(first * per_trial % 4)
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


def _grid_split_sum(values: np.ndarray, top: int) -> int:
    """2^top times the exact sum of at most 2^16 doubles in [0, 1) on the 2^-112 grid, as a
    count of 2^-1126; overwrites ``values``.

    With n values and b = min(51, 53 - bit_length(n - 1)) >= 37, each value rounds onto the
    2^-b grid and its remainder onto the 2^-2b grid, each by adding and subtracting 1.5 2^52
    times the grid.  A part is at most 2^b times its grid, and what is left at most 2^(111 - 2b)
    times 2^-112, so each ``np.sum`` of n terms stays within 2^53 units and never rounds."""
    bits = min(51, 53 - (values.size - 1).bit_length())
    total = 0
    for grid in (bits, 2 * bits):
        splitter = 1.5 * 2.0 ** (52 - grid)
        part = values + splitter
        part -= splitter
        values -= part
        total += int(np.sum(part) * 2.0**grid) << (112 - grid)
    total += int(np.sum(values) * 2.0**112)
    return total << (top + _UNIT_BITS - 112)


def _check_trials(trials: int) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")


def _check_deviation_sum(nbar: float, trials: int) -> None:
    """The uniforms are at least 2^-53, so no squared deviation -variance ln u0 exceeds
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
    A trial's first uniform u0 picks hypothesis 1 when u0 <= p1, and its second,
    u1, announces 1 when u1 <= q1 (q2 under hypothesis 2), the chance of
    announcing 1, read in closed form off the priors and the outputs' overlap
    by ``discrim.helstrom_acceptance``; no d^2 x d^2 state is built.  Each
    block compares its uniforms, flat, once against (p1, q1) and once against
    (p1, q2) per trial and counts the error patterns.
    """
    _check_trials(trials)
    q1, q2 = helstrom_acceptance(problem.p1, problem.p2, abs(_input_overlap(problem, probe)))

    # a trial's (u0 <= p1, u1 <= q) pair of bools, read as one little-endian 16-bit word, is
    # 1 when hypothesis 1 is announced as 2 (against q1) and 256 when hypothesis 2 is
    # announced as 1 (against q2); every range reads the same thresholds.  The blocks hold
    # u - 2^-53, and u - 2^-53 <= t - 2^-53 exactly when u <= t: the subtraction is exact for
    # t >= 2^-53 and leaves a negative threshold, which no uniform meets, below it
    thresholds = [
        np.tile([problem.p1, q], min(_CHUNK_TRIALS, trials)) - 2.0**-53 for q in (q1, q2)
    ]

    def error_count(u: np.ndarray) -> int:
        flat = u.reshape(-1)
        return sum(
            int(np.count_nonzero((flat <= threshold[: flat.size]).view("<u2") == error))
            for threshold, error in zip(thresholds, (1, 256))
        )

    empirical = _split_sum(seed, trials, 2, error_count) / trials

    analytic = float(helstrom_error(problem, probe))
    std_error = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / trials)
    return TrialReport(
        scenario=f"helstrom[d={problem.dim},p1={problem.p1}]",
        seed=seed,
        trials=trials,
        empirical=float(empirical),
        analytic=analytic,
        z_score=float(_z_score(empirical, analytic, std_error)),
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
    against Delta^2 + 2 nbar; ``unentangled`` probes with the vacuum and is
    scored against 1 + nbar.  The sampling law is read off the probe's
    moments by ``gauss.epr_heterodyne`` and ``gauss.heterodyne``.
    """
    _check_trials(trials)
    _check_deviation_sum(noise.nbar_per_mode, trials)
    if scheme == "entangled":
        law = gauss.epr_heterodyne(gauss.tmsv_state(x), alpha, noise)
        analytic = gauss.tmsv_epr_variance(x) + 2.0 * noise.nbar_per_mode
    elif scheme == "unentangled":
        law = gauss.heterodyne(gauss.vacuum_state(), alpha, noise)
        analytic = 1.0 + noise.nbar_per_mode
    else:
        raise ValueError(f"scheme must be 'entangled' or 'unentangled', got {scheme!r}")

    if law.mean != alpha:
        raise ValueError(f"the outcome law is centred on {law.mean}, not on the signal {alpha}")

    # no deviation reaches 53 ln 2 < 37 times the variance (see _check_deviation_sum), so the
    # scale -variance 2^-top lies in (-1/37, -1/74].  Each ln u0 is 0 or below -2^-53 (1 - 2^-53),
    # so a scaled deviation is 2^-top times -variance ln u0 exactly (neither product leaves the
    # normal range), lies in [0, 1) and is 0 or above 2^-60: a multiple of 2^-112
    top = math.frexp(37.0 * law.variance)[1]
    scale = math.ldexp(-law.variance, -top)

    def deviation_sum(u: np.ndarray) -> int:
        # |z - alpha|^2 in units of 2^-1126: z - alpha is a Box-Muller pair scaled by
        # sqrt(variance / 2), so it is variance / 2 times the squared radius -2 ln u0 and the
        # angle, from the trial's second uniform, drops out.  u0 is copied out contiguously, so
        # that numpy's vector log needs no strided gather
        deviation = u[:, 0] + 2.0**-53
        np.log(deviation, out=deviation)
        deviation *= scale
        return _grid_split_sum(deviation, top)

    empirical = _split_sum(seed, trials, 2, deviation_sum) / (1 << _UNIT_BITS) / trials

    # E|z-alpha|^2 is delta^2/2 times a chi-square with 2 dof per trial
    std_error = analytic / math.sqrt(trials)
    return TrialReport(
        scenario=f"heterodyne[{scheme},x={x},nbar={noise.nbar_per_mode}]",
        seed=seed,
        trials=trials,
        empirical=float(empirical),
        analytic=float(analytic),
        z_score=float(_z_score(empirical, analytic, std_error)),
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
    entangled = gauss.epr_heterodyne(gauss.tmsv_state(x)).variance
    return StabilityScan(
        phis=phis,
        squeezed_variance=gauss.quadrature_variance(gauss.squeezed_state(s), phis),
        entangled_variance=np.full(phis.shape, entangled),
        squeezed_photons=gauss.photon_budget("squeezed", s),
        entangled_photons=gauss.photon_budget("tmsv", x),
    )
