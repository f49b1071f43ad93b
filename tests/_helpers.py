"""Shared assertions and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from entprobe import gauss
from entprobe.discrim import PHASE_DEDUPE_TOL, helstrom_error
from entprobe.mc import TrialReport, _output_vector

TWO_PI = 2.0 * np.pi


def assert_phases_match(expected, actual, tol: float = 1e-8):
    """Compare two phase multisets on the circle, greedy nearest matching."""
    expected = list(np.asarray(expected, dtype=float))
    actual = list(np.asarray(actual, dtype=float))
    assert len(expected) == len(actual)
    for target in expected:
        distances = [abs(np.exp(1j * target) - np.exp(1j * value)) for value in actual]
        best = int(np.argmin(distances))
        # chord distance bounds the arc distance for small separations
        assert distances[best] <= tol, (target, actual)
        actual.pop(best)


# ---------------------------------------------------------------------------
# eigenvalue-polygon oracles: brute enumeration, no closed forms
# ---------------------------------------------------------------------------


def dedupe_circular(phases, tol: float = PHASE_DEDUPE_TOL) -> np.ndarray:
    """Sorted phases with each one closer than ``tol`` to the last kept one dropped.

    The ends are also compared across the seam of a 2 pi window.
    """
    ph = np.sort(np.asarray(phases, dtype=float))
    keep = [ph[0]]
    for value in ph[1:]:
        if value - keep[-1] > tol:
            keep.append(value)
    if len(keep) > 1 and (TWO_PI - (keep[-1] - keep[0])) <= tol:
        keep.pop()
    return np.asarray(keep)


def circular_gaps(sorted_phases: np.ndarray) -> np.ndarray:
    """Gaps between neighbouring sorted phases, the wrap-around gap last."""
    return np.append(np.diff(sorted_phases), TWO_PI - (sorted_phases[-1] - sorted_phases[0]))


def _distinct_sums(values: np.ndarray, base: np.ndarray, tol: float) -> np.ndarray:
    sums = np.sort((values[:, None] + base[None, :]).reshape(-1))
    keep = np.empty(sums.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(sums) > tol
    return sums[keep]


def spread_by_enumeration(phases, n: int, tol: float = PHASE_DEDUPE_TOL) -> float:
    """Spread of the n-copy eigenphases, capped at 2 pi, from every n-fold sum.

    The phases are lifted onto the arc that starts after their largest gap,
    all n-fold sums are enumerated one factor at a time, and the spread is
    read off the extreme sums.
    """
    distinct = dedupe_circular(phases, tol)
    if distinct.size == 1:
        return 0.0
    anchor = distinct[(int(np.argmax(circular_gaps(distinct))) + 1) % distinct.size]
    lifted = np.sort((distinct - anchor) % TWO_PI)
    sums = lifted.copy()
    for _ in range(n - 1):
        sums = _distinct_sums(sums, lifted, tol)
    return float(min(sums[-1] - sums[0], TWO_PI))


def copies_by_enumeration(phases, n_max: int, tol: float = PHASE_DEDUPE_TOL) -> int | None:
    """Fewest n whose n-fold phase sums mod 2 pi leave no gap wider than pi + tol."""
    base = dedupe_circular(phases, tol)
    if base.size == 1:
        return None
    sums = base.copy()
    for n in range(1, n_max + 1):
        if float(circular_gaps(sums).max()) <= np.pi + tol:
            return n
        sums = dedupe_circular(_distinct_sums(sums, base, tol) % TWO_PI, tol)
    return None


def _closest_on_segment(p: complex, q: complex) -> complex:
    """Point of the segment [p, q] closest to the origin."""
    d = q - p
    length_sq = abs(d) ** 2
    if length_sq == 0.0:
        return p
    t = min(1.0, max(0.0, -np.real(np.conj(d) * p) / length_sq))
    return p + t * d


def hull_distance(phases) -> float:
    """Distance from 0 to the convex hull of the points e^(i phase).

    Every vertex and the closest point of every chord propose a direction
    u; the distance is max(0, max_u min_k Re(conj(u) p_k)).  The closest
    hull point lies on some chord, so its direction is among the proposals,
    and no direction separates 0 from a hull that contains it.
    """
    points = np.exp(1j * np.asarray(phases, dtype=float))
    best = 0.0
    for i, p in enumerate(points):
        for q in points[i:]:
            c = _closest_on_segment(p, q)
            if abs(c) > 0.0:
                best = max(best, float(np.min(np.real(np.conj(c / abs(c)) * points))))
    return best


# ---------------------------------------------------------------------------
# Monte Carlo oracles: every trial in one array, one Philox draw, math.fsum
# ---------------------------------------------------------------------------


def one_draw_uniforms(seed: int, trials: int, per_trial: int) -> np.ndarray:
    """The (trials, per_trial) uniforms ((word >> 11) + 1) 2^-53 from one raw draw."""
    words = np.random.Philox(key=np.uint64(seed)).random_raw(trials * per_trial)
    words = np.asarray(words, dtype=np.uint64).reshape(trials, per_trial)
    return ((words >> np.uint64(11)) + np.uint64(1)).astype(float) * 2.0**-53


def _z_score(empirical: float, analytic: float, std_error: float) -> float:
    return 0.0 if std_error == 0.0 else (empirical - analytic) / std_error


def helstrom_by_whole_array(problem, probe, trials: int, seed: int) -> TrialReport:
    """``mc.sample_helstrom`` with all trials held in memory at once."""
    psi1 = _output_vector(problem, probe, 1)
    psi2 = _output_vector(problem, probe, 2)
    rho1 = np.outer(psi1, psi1.conj())
    rho2 = np.outer(psi2, psi2.conj())
    gap = problem.p1 * rho1 - problem.p2 * rho2
    evals, evecs = np.linalg.eigh((gap + gap.conj().T) / 2.0)
    accept = evecs[:, evals >= 0.0]
    project = accept @ accept.conj().T
    q1 = float(np.real(np.vdot(psi1, project @ psi1)))
    q2 = float(np.real(np.vdot(psi2, project @ psi2)))

    u = one_draw_uniforms(seed, trials, 2)
    is_first = u[:, 0] <= problem.p1
    errors = np.where(is_first, u[:, 1] > q1, u[:, 1] <= q2)
    empirical = int(errors.sum()) / trials

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


def heterodyne_by_whole_array(x, alpha, noise, scheme: str, trials: int, seed: int) -> TrialReport:
    """``mc.sample_heterodyne`` with all trials in memory and ``math.fsum`` over a list."""
    if scheme == "entangled":
        law = gauss.epr_heterodyne(gauss.tmsv_state(x), alpha, noise)
        analytic = gauss.tmsv_epr_variance(x) + 2.0 * noise.nbar_per_mode
    else:
        law = gauss.heterodyne(gauss.vacuum_state(), alpha, noise)
        analytic = 1.0 + noise.nbar_per_mode

    u = one_draw_uniforms(seed, trials, 2)
    radius = np.sqrt(-2.0 * np.log(u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    g_re, g_im = radius * np.cos(angle), radius * np.sin(angle)
    scale = math.sqrt(law.variance / 2.0)
    z_re = law.mean.real + scale * g_re
    z_im = law.mean.imag + scale * g_im
    deviations = (z_re - np.real(alpha)) ** 2 + (z_im - np.imag(alpha)) ** 2
    empirical = math.fsum(deviations.tolist()) / trials

    std_error = analytic / math.sqrt(trials)
    return TrialReport(
        scenario=f"heterodyne[{scheme},x={x},nbar={noise.nbar_per_mode}]",
        seed=seed,
        trials=trials,
        empirical=float(empirical),
        analytic=float(analytic),
        z_score=float(_z_score(empirical, analytic, std_error)),
    )
