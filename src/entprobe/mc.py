"""Seeded Monte Carlo validation of the analytic error rates and variances.

Randomness comes from the Philox 4x64 counter-based generator keyed by the
64-bit scenario seed.  Trial i owns a fixed slice of the key stream, so a
report depends only on (scenario, seed, trials), never on batching or
thread scheduling.  Normal deviates are produced by Box-Muller on the
trial's uniforms; the choice is recorded in every report.

The samplers stream the trials in blocks of at most ``_CHUNK_TRIALS``: one
Philox generator hands out each block's raw words in turn, which are
exactly the words of one long draw, so memory stays bounded at any trial
count.  The heterodyne sampler adds the squared deviations up exactly: each
value splits into an integer mantissa and an exponent, the mantissas are
summed per exponent, and the one rounding happens at the end, giving the
bits of ``math.fsum`` over all trials whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gauss
from .discrim import DiscriminationProblem, helstrom_error
from .linops import ProbeState, vectorize

RNG_DESCRIPTION = "philox4x64/box-muller"

# Largest trial count a sampler accepts; memory is bounded, run time is not.
MAX_TRIALS = 10**9

# Trials per streamed block.  At 2^12 trials a block's arrays stay in cache
# and in the allocator's heap; 2^16 ran the 3e6-trial samplers 1.5x slower
# on the page faults of its 0.5 MB temporaries.
_CHUNK_TRIALS = 1 << 12

# frexp writes a finite double as m 2^e, m in (-1, 1) a multiple of 2^-53 and
# e >= -1073, so every finite double is an integer multiple of 2^-1126.
_UNIT_BITS = 1126
# Adding and subtracting this rounds an m to a multiple of 2^-26.
_SPLITTER = 1.5 * 2.0**26


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


def _uniform_chunks(seed: int, trials: int, per_trial: int):
    """Yield the uniforms of ``trial_uniforms`` in blocks of at most ``_CHUNK_TRIALS`` trials."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    bitgen = np.random.Philox(key=np.uint64(seed))
    for start in range(0, trials, _CHUNK_TRIALS):
        n = min(_CHUNK_TRIALS, trials - start)
        words = bitgen.random_raw(n * per_trial).reshape(n, per_trial)
        yield ((words >> np.uint64(11)) + np.uint64(1)).astype(float) * 2.0**-53


def trial_uniforms(seed: int, trials: int, per_trial: int) -> np.ndarray:
    """Uniforms in (0, 1], shaped (trials, per_trial), trial i on stream slice i.

    Each raw 64-bit Philox word maps to ((word >> 11) + 1) * 2^-53, which
    never returns 0 and therefore feeds logarithms safely.
    """
    return np.concatenate([np.empty((0, per_trial)), *_uniform_chunks(seed, trials, per_trial)])


def _box_muller(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One standard normal pair per row of a (trials, 2) block of uniforms."""
    radius = np.sqrt(-2.0 * np.log(u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    return radius * np.cos(angle), radius * np.sin(angle)


def _fixed_point_sum(values: np.ndarray) -> int:
    """Exact sum of at most 2^26 finite doubles, as an integer count of 2^-1126.

    Each frexp mantissa splits into a high part on the 2^-26 grid and a low
    part below 2^-27 on the 2^-53 grid.  ``bincount`` sums both parts per
    exponent in float64, exactly, since no sum needs more than 53 bits; the
    bins then fold into one Python int, highest exponent first.
    """
    if values.size == 0:
        return 0
    mantissa, exponent = np.frexp(values)
    if not np.isfinite(mantissa).all():
        raise ValueError("an exact sum needs finite values")
    high = (mantissa + _SPLITTER) - _SPLITTER
    low = mantissa - high
    lowest = int(exponent.min())
    bins = exponent - lowest
    total = 0
    for h, lo in zip(np.bincount(bins, high)[::-1], np.bincount(bins, low)[::-1]):
        total = (total << 1) + int(h * 2.0**53) + int(lo * 2.0**53)
    return total << (lowest - 53 + _UNIT_BITS)


def _exact_sum(blocks) -> float:
    """Correctly rounded sum of every value in an iterable of arrays: the bits of ``math.fsum``."""
    return sum(map(_fixed_point_sum, blocks)) / (1 << _UNIT_BITS)


def _check_trials(trials: int) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")


def _z_score(empirical: float, analytic: float, std_error: float) -> float:
    if std_error == 0.0:
        return 0.0
    return (empirical - analytic) / std_error


def _output_vector(problem: DiscriminationProblem, probe, which: int) -> np.ndarray:
    u = problem.u1 if which == 1 else problem.u2
    if isinstance(probe, ProbeState):
        return vectorize(u @ probe.e_op)
    psi = np.asarray(probe, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("local input state must be normalized")
    return u @ psi


def sample_helstrom(
    problem: DiscriminationProblem, probe, trials: int, seed: int
) -> TrialReport:
    """Sample the optimal binary measurement and compare the error rate to theory.

    Each trial draws a hypothesis from the priors, applies the matching
    unitary to the probe and measures the projector onto the nonnegative
    eigenspace of p1 rho1 - p2 rho2; the empirical error rate is z-scored
    against the minimum-error formula with its binomial standard error.
    """
    _check_trials(trials)
    psi1 = _output_vector(problem, probe, 1)
    psi2 = _output_vector(problem, probe, 2)
    rho1 = np.outer(psi1, psi1.conj())
    rho2 = np.outer(psi2, psi2.conj())
    gap = problem.p1 * rho1 - problem.p2 * rho2
    evals, evecs = np.linalg.eigh((gap + gap.conj().T) / 2.0)
    accept = evecs[:, evals >= 0.0]
    project = accept @ accept.conj().T
    # probability of announcing hypothesis 1 under each true hypothesis
    q1 = float(np.real(np.vdot(psi1, project @ psi1)))
    q2 = float(np.real(np.vdot(psi2, project @ psi2)))

    errors = 0
    for u in _uniform_chunks(seed, trials, 2):
        is_first = u[:, 0] <= problem.p1
        errors += int(np.count_nonzero(np.where(is_first, u[:, 1] > q1, u[:, 1] <= q2)))
    empirical = errors / trials

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
    scored against 1 + nbar.  The sampling law itself comes from the
    covariance machinery, so the two routes stay independent.
    """
    _check_trials(trials)
    if scheme == "entangled":
        law = gauss.epr_heterodyne(gauss.tmsv_state(x), alpha, noise)
        analytic = gauss.tmsv_epr_variance(x) + 2.0 * noise.nbar_per_mode
    elif scheme == "unentangled":
        law = gauss.heterodyne(gauss.vacuum_state(), alpha, noise)
        analytic = 1.0 + noise.nbar_per_mode
    else:
        raise ValueError(f"scheme must be 'entangled' or 'unentangled', got {scheme!r}")

    scale = math.sqrt(law.variance / 2.0)

    def deviations(u: np.ndarray) -> np.ndarray:
        g_re, g_im = _box_muller(u)
        z_re = law.mean.real + scale * g_re
        z_im = law.mean.imag + scale * g_im
        return (z_re - np.real(alpha)) ** 2 + (z_im - np.imag(alpha)) ** 2

    empirical = _exact_sum(map(deviations, _uniform_chunks(seed, trials, 2))) / trials

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
    mismatch angle; the entangled column is the EPR outcome variance with
    the measured pair rotated by the same angle, which stays flat.  Both are
    quadratic forms of the probe's covariance over the whole grid at once;
    the entangled one is not the closed form, so its flatness is a check.
    """
    phis = np.asarray(phi_grid, dtype=float).reshape(-1)
    if phis.size == 0:
        raise ValueError("the phase grid must not be empty")
    cos, sin = np.cos(phis), np.sin(phis)
    sq = gauss.squeezed_state(s).cov
    squeezed = cos * cos * sq[0, 0] + sin * sin * sq[1, 1] + 2.0 * sin * cos * sq[0, 1]
    # the pair (x1 - x2, p1 + p2) rotated by phi, as in epr_heterodyne, one 1 x 4 row per phase
    cov = gauss.tmsv_state(x).cov
    entangled = 0.0
    for quadrature in ([cos, sin, -cos, sin], [-sin, cos, sin, cos]):
        f = np.stack(quadrature, axis=-1)[:, None, :]
        entangled = entangled + (f @ cov @ f.swapaxes(1, 2))[:, 0, 0]
    return StabilityScan(
        phis=phis,
        squeezed_variance=squeezed,
        entangled_variance=entangled,
        squeezed_photons=gauss.photon_budget("squeezed", s),
        entangled_photons=gauss.photon_budget("tmsv", x),
    )
