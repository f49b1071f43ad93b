"""Shared assertions and independent oracles for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from entprobe import gauss
from entprobe.discrim import PHASE_DEDUPE_TOL, helstrom_error, output_vectors
from entprobe.linops import von_neumann_entropy
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


# ---------------------------------------------------------------------------
# brute-force oracles for the closed forms of discrim, gauss and mc
# ---------------------------------------------------------------------------


def holevo_by_ensemble(group, e) -> float:
    """Holevo chi from its definition: entropy of the d^2 x d^2 average output
    state minus the mean entropy of the outputs, one eigendecomposition each."""
    v = output_vectors(group, e)
    avg = (v.T @ v.conj()) / len(group)
    avg = (avg + avg.conj().T) / 2.0
    member_entropies = [von_neumann_entropy(np.outer(row, row.conj())) for row in v]
    return von_neumann_entropy(avg) - float(np.mean(member_entropies))


def ppt_boundary_by_bisection(x: float, tol: float = 1e-12) -> float:
    """Per-mode noise at the separability edge, bisected on the partial-transpose test."""
    if x == 0.0:
        return 0.0
    base = gauss.tmsv_state(x)

    def separable_at(nbar: float) -> bool:
        noisy = gauss.apply_displacement_noise(base, 0, nbar)
        noisy = gauss.apply_displacement_noise(noisy, 1, nbar)
        return gauss.ppt_separability(noisy).min_pt_symplectic_eigenvalue >= gauss.VACUUM_VARIANCE

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if separable_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def epr_law_by_rotated_rows(g, alpha=0.0, nbar: float = 0.0, phi: float = 0.0):
    """``gauss.epr_heterodyne`` the long way round, through intermediate states.

    The probed mode is displaced by ``alpha``, each mode then passes the
    displacement-noise channel, the pair (x1 - x2, p1 + p2) rotated by ``phi``
    is read through two rows over (x1, p1, x2, p2), and the center is rotated
    back by e^(i phi).  The row algebra and the back-rotation run in exact
    rational arithmetic on the float entries and on cos phi and sin phi, so
    the oracle adds no cancellation of its own, even for cosh-sized entries.
    """
    state = gauss.displace(g, 0, alpha)
    for mode in (0, 1):
        state = gauss.apply_displacement_noise(state, mode, nbar)
    mean = [Fraction(m) for m in state.mean.tolist()]
    cov = [[Fraction(v) for v in row] for row in state.cov.tolist()]
    c, s = Fraction(math.cos(phi)), Fraction(math.sin(phi))
    rows = ((c, s, -c, s), (-s, c, s, c))
    re, im = (sum(f * m for f, m in zip(row, mean)) for row in rows)
    variance = sum(f[i] * cov[i][j] * f[j] for f in rows for i in range(4) for j in range(4))
    center = complex(float(c * re - s * im), float(s * re + c * im))
    return gauss.HeterodyneLaw(center, float(variance))


def heterodyne_law_by_rotated_rows(g, alpha=0.0, nbar: float = 0.0):
    """``gauss.heterodyne`` the long way round: displace, add the noise, pair the
    mode with a vacuum ancilla and read the EPR law through ``epr_law_by_rotated_rows``."""
    state = gauss.apply_displacement_noise(gauss.displace(g, 0, alpha), 0, nbar)
    return epr_law_by_rotated_rows(gauss.tensor(state, gauss.vacuum_state()))


def stability_by_loop(s: float, x: float, phis) -> tuple[np.ndarray, np.ndarray]:
    """Both ``mc.stability_scan`` columns, one state read per phase; the entangled
    one through the rotated rows of ``epr_law_by_rotated_rows``."""
    squeezed_state = gauss.squeezed_state(s)
    entangled_state = gauss.tmsv_state(x)
    squeezed = np.array([gauss.quadrature_variance(squeezed_state, 0, phi) for phi in phis])
    entangled = np.array([epr_law_by_rotated_rows(entangled_state, phi=phi).variance for phi in phis])
    return squeezed, entangled
