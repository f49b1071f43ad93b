"""Shared assertions and independent oracles for the test suite."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

from entprobe import gauss
from entprobe.discrim import PHASE_DEDUPE_TOL, helstrom_error, output_vectors
from entprobe.linops import (
    DENSITY_ATOL,
    PPT_ATOL,
    PROB_SUM_ATOL,
    ProbeState,
    matrix_rank,
    von_neumann_entropy,
)
from entprobe.mc import _UNIT_BITS, TrialReport, _uniform_chunks

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
# helpers that only the tests call
# ---------------------------------------------------------------------------

# Largest ||omega| - 1| of the phase fitted to a group product in closure_defect.
CLOSURE_PHASE_TOL = 1e-6
# Largest negative entry and prefix-sum slack in majorization_compare.
MAJORIZATION_ATOL = 1e-10


def is_density(rho) -> bool:
    """True for a square, Hermitian, positive-semidefinite, trace-one matrix, each within
    ``DENSITY_ATOL``: the checks ``von_neumann_entropy`` makes, one at a time."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != rho.shape[1]:
        return False
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_ATOL:
        return False
    if abs(np.trace(rho) - 1.0) > DENSITY_ATOL:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -DENSITY_ATOL)


def closure_defect(group) -> float:
    """Worst-case distance of any pairwise product of a ``UnitaryGroup`` from a phase times a member.

    For each product g*h the best-matching member k is the one maximizing
    |Tr[u_k† u_g u_h]|; the defect is the max-norm residual after peeling
    off the fitted phase.  Small defect certifies projective closure.
    """
    worst = 0.0
    for ug in group.elements:
        for uh in group.elements:
            prod = ug @ uh
            traces = np.array([np.vdot(uk, prod) for uk in group.elements])
            k = int(np.argmax(np.abs(traces)))
            omega = traces[k] / group.dim
            if abs(abs(omega) - 1.0) > CLOSURE_PHASE_TOL:
                return float("inf")
            worst = max(worst, float(np.max(np.abs(prod - omega * group.elements[k]))))
    return worst


def majorization_compare(p, q) -> str:
    """Prefix-sum dominance order of two probability vectors.

    Returns ``"majorized"`` when p is dominated by q, ``"majorizes"`` for
    the reverse, ``"equal"`` for both, else ``"incomparable"``.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, vec in (("p", p), ("q", q)):
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError(f"{name} must be a non-empty 1-d vector")
        if np.any(vec < -MAJORIZATION_ATOL):
            raise ValueError(f"{name} has negative entries")
        if abs(vec.sum() - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"{name} does not sum to 1")
    size = max(p.size, q.size)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: p.size] = np.sort(p)[::-1]
    qq[: q.size] = np.sort(q)[::-1]
    cp = np.cumsum(pp)
    cq = np.cumsum(qq)
    p_below = bool(np.all(cp <= cq + MAJORIZATION_ATOL))
    q_below = bool(np.all(cq <= cp + MAJORIZATION_ATOL))
    if p_below and q_below:
        return "equal"
    if p_below:
        return "majorized"
    if q_below:
        return "majorizes"
    return "incomparable"


def trial_uniforms(seed: int, trials: int, per_trial: int) -> np.ndarray:
    """The sampler's uniforms in (0, 1], shaped (trials, per_trial), trial i on stream slice i,
    gathered from the blocks of ``mc._uniform_chunks``."""
    blocks = [u + 2.0**-53 for u in _uniform_chunks(seed, 0, trials, per_trial)]
    return np.concatenate([np.empty((0, per_trial)), *blocks])


def devectorize(v, d: int) -> np.ndarray:
    """Inverse of ``linops.vectorize`` for local dimension ``d``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise ValueError(f"vector of length {v.size} is not d*d for d={d}")
    return v.reshape(d, d).copy()


def overlap(a, b) -> complex:
    """Inner product of two operators as bipartite vectors, Tr[a† b]."""
    return complex(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def schmidt_coefficients(p) -> np.ndarray:
    """Singular values of a ``ProbeState``'s amplitude matrix, descending."""
    return np.linalg.svd(p.e_op, compute_uv=False)


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


# Adding and subtracting this rounds an m to a multiple of 2^-26.
_SPLITTER = 1.5 * 2.0**26


def _fixed_point_sum(values: np.ndarray) -> int:
    """Exact sum of at most 2^26 finite doubles, as a count of 2^-1126; overwrites ``values``.

    Each frexp mantissa splits into a high part on the 2^-26 grid and a low
    part below 2^-27 on the 2^-53 grid.  ``bincount`` sums both parts per
    exponent in float64, exactly, since no sum needs more than 53 bits; the
    bins then fold into one Python int, highest exponent first.
    """
    if values.size == 0:
        return 0
    mantissa, exponent = np.frexp(values, out=(values, np.empty(values.shape, np.intp)))
    if not np.isfinite(mantissa).all():
        raise ValueError("an exact sum needs finite values")
    high = mantissa + _SPLITTER
    high -= _SPLITTER
    mantissa -= high  # now the low part
    lowest = int(exponent.min())
    exponent -= lowest
    total = 0
    for h, lo in zip(*(np.bincount(exponent, part)[::-1].tolist() for part in (high, mantissa))):
        total = (total << 1) + int(h * 2.0**53) + int(lo * 2.0**53)
    return total << (lowest - 53 + _UNIT_BITS)


def _z_score(empirical: float, analytic: float, std_error: float) -> float:
    return 0.0 if std_error == 0.0 else (empirical - analytic) / std_error


def helstrom_thresholds_by_projector(problem, probe) -> tuple[float, float]:
    """(q1, q2) of the Helstrom measurement, read off the projector onto the nonnegative
    eigenspace of p1 rho1 - p2 rho2, a dense d^2 x d^2 matrix (d x d for a local input) built
    from output vectors formed here."""
    if isinstance(probe, ProbeState):
        psi1, psi2 = ((u @ probe.e_op).reshape(-1) for u in (problem.u1, problem.u2))
    else:
        psi1, psi2 = (u @ np.asarray(probe, dtype=complex) for u in (problem.u1, problem.u2))
    rho1 = np.outer(psi1, psi1.conj())
    rho2 = np.outer(psi2, psi2.conj())
    gap = problem.p1 * rho1 - problem.p2 * rho2
    evals, evecs = np.linalg.eigh((gap + gap.conj().T) / 2.0)
    accept = evecs[:, evals >= 0.0]
    project = accept @ accept.conj().T
    return tuple(float(np.real(np.vdot(psi, project @ psi))) for psi in (psi1, psi2))


def helstrom_acceptance_at_60_digits(p1: float, p2: float, c: float):
    """(q1, q2) = ((1 + (p1 - p2 + 2 p2 w) / S) / 2, (1 - (p2 - p1 + 2 p1 w) / S) / 2) at 60
    digits from the float inputs, w = 1 - c^2 and S^2 = (p1 - p2)^2 + 4 p1 p2 w; None when S = 0."""
    with mpmath.workdps(60):
        p1, p2, c = map(mpmath.mpf, (p1, p2, c))
        w = 1 - c * c
        s = mpmath.sqrt((p1 - p2) ** 2 + 4 * p1 * p2 * w)
        if s == 0:
            return None
        return (1 + (p1 - p2 + 2 * p2 * w) / s) / 2, (1 - (p2 - p1 + 2 * p1 * w) / s) / 2


def helstrom_error_at_40_digits(p1: float, p2: float, c: float):
    """The Helstrom error (p1 + p2 - S) / 2, S^2 = (p1 - p2)^2 + 4 p1 p2 (1 - c^2), from the
    float inputs.  The subtraction cancels about 2 log10(1/c) + log10(1/min(p1, p2)) digits, so
    the working precision grows by as many and the result keeps 40."""

    def lost(x: float) -> int:
        return math.ceil(-math.log10(x)) if 0.0 < x < 1.0 else 0

    with mpmath.workdps(40 + 2 * lost(c) + lost(min(p1, p2))):
        p1, p2, c = map(mpmath.mpf, (p1, p2, c))
        return (p1 + p2 - mpmath.sqrt((p1 - p2) ** 2 + 4 * p1 * p2 * (1 - c * c))) / 2


def helstrom_by_whole_array(problem, probe, trials: int, seed: int) -> TrialReport:
    """``mc.sample_helstrom`` with all trials held in memory at once, its thresholds read off
    the dense projector."""
    q1, q2 = helstrom_thresholds_by_projector(problem, probe)

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


def box_muller(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One standard normal pair per row of a (trials, 2) array of uniforms in (0, 1]."""
    radius = np.sqrt(-2.0 * np.log(u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    return radius * np.cos(angle), radius * np.sin(angle)


def _heterodyne_report(x, alpha, noise, scheme: str, trials: int, seed: int, deviations):
    """The report of ``mc.sample_heterodyne`` for the squared deviations that ``deviations(law,
    u)`` reads off the law and the (trials, 2) uniforms, summed by ``math.fsum``."""
    if scheme == "entangled":
        law = gauss.epr_heterodyne(gauss.tmsv_state(x), alpha, noise)
        analytic = gauss.tmsv_epr_variance(x) + 2.0 * noise.nbar_per_mode
    else:
        law = gauss.heterodyne(gauss.vacuum_state(), alpha, noise)
        analytic = 1.0 + noise.nbar_per_mode

    u = one_draw_uniforms(seed, trials, 2)
    empirical = math.fsum(deviations(law, u).tolist()) / trials

    std_error = analytic / math.sqrt(trials)
    return TrialReport(
        scenario=f"heterodyne[{scheme},x={x},nbar={noise.nbar_per_mode}]",
        seed=seed,
        trials=trials,
        empirical=float(empirical),
        analytic=float(analytic),
        z_score=float(_z_score(empirical, analytic, std_error)),
    )


def heterodyne_by_whole_array(x, alpha, noise, scheme: str, trials: int, seed: int) -> TrialReport:
    """The Box-Muller route: every outcome z = mean + sqrt(variance / 2)(g1 + i g2) formed in
    memory and |z - alpha|^2 taken per quadrature.  It agrees with ``mc.sample_heterodyne`` to
    rounding only, and loses every digit once |alpha| dwarfs the scatter."""

    def deviations(law, u):
        g_re, g_im = box_muller(u)
        scale = math.sqrt(law.variance / 2.0)
        z_re = law.mean.real + scale * g_re
        z_im = law.mean.imag + scale * g_im
        return (z_re - np.real(alpha)) ** 2 + (z_im - np.imag(alpha)) ** 2

    return _heterodyne_report(x, alpha, noise, scheme, trials, seed, deviations)


def heterodyne_by_radius(x, alpha, noise, scheme: str, trials: int, seed: int) -> TrialReport:
    """``mc.sample_heterodyne`` with all trials in memory: -variance ln u0 per trial."""
    return _heterodyne_report(
        x, alpha, noise, scheme, trials, seed, lambda law, u: -law.variance * np.log(u[:, 0])
    )


# ---------------------------------------------------------------------------
# brute-force oracles for the closed forms of discrim, gauss and mc
# ---------------------------------------------------------------------------


def span_by_average_projector(group, e) -> int:
    """Output span as the rank of the d^2 x d^2 average output projector, one SVD."""
    v = output_vectors(group, e)
    return matrix_rank((v.T @ v.conj()) / len(group))


def matched_likelihood_closed_form(e) -> float:
    """Likelihood of the probe's own polar seed, (sum_k sqrt(lambda_k))^2 = ||e||_1^2."""
    return float(np.sum(np.linalg.svd(e.e_op, compute_uv=False))) ** 2


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
    """``gauss.epr_heterodyne`` the long way round, in the lab frame.

    The pair-frame moments of the 2-mode state (a library probe or a
    ``PairState``) go back to the lab ordering
    (x1, p1, x2, p2), the probed mode is displaced by ``alpha``, each lab
    variance gains nbar/2, the pair (x1 - x2, p1 + p2) rotated by ``phi`` is
    read through two rows over the lab quadratures, and the center is rotated
    back by e^(i phi).  All of it runs in exact rational arithmetic on the
    float entries and on cos phi and sin phi, so the oracle adds no
    cancellation of its own, even for cosh-sized entries.
    """
    mean, cov = exact_lab_moments(g)
    alpha = complex(alpha)
    mean[0] += Fraction(alpha.real)
    mean[1] += Fraction(alpha.imag)
    for i in range(4):
        cov[i][i] += Fraction(nbar) / 2
    c, s = Fraction(math.cos(phi)), Fraction(math.sin(phi))
    rows = ((c, s, -c, s), (-s, c, s, c))
    re, im = (sum(f * m for f, m in zip(row, mean)) for row in rows)
    variance = sum(f[i] * cov[i][j] * f[j] for f in rows for i in range(4) for j in range(4))
    center = complex(float(c * re - s * im), float(s * re + c * im))
    return gauss.HeterodyneLaw(center, float(variance))


def heterodyne_law_by_rotated_rows(g, alpha=0.0, nbar: float = 0.0):
    """``gauss.heterodyne`` the long way round: build the mode densely (a library probe
    through ``squeezed_lab``), displace it, add its noise, pair it with a vacuum ancilla in
    the lab frame and read the EPR law of the pair through ``epr_law_by_rotated_rows``."""
    state = add_noise(displace(g, 0, alpha), 0, nbar)
    return epr_law_by_rotated_rows(to_pair(tensor(state, coherent_state(0.0))))


def stability_by_loop(s: float, x: float, phis) -> tuple[np.ndarray, np.ndarray]:
    """Both ``mc.stability_scan`` columns, one state read per phase; the entangled
    one through the rotated rows of ``epr_law_by_rotated_rows``."""
    squeezed_state = gauss.squeezed_state(s)
    entangled_state = gauss.tmsv_state(x)
    squeezed = np.array([gauss.quadrature_variance(squeezed_state, phi) for phi in phis])
    entangled = np.array([epr_law_by_rotated_rows(entangled_state, phi=phi).variance for phi in phis])
    return squeezed, entangled


# ---------------------------------------------------------------------------
# lab-frame oracles: ordering (x1, p1, x2, p2), vacuum covariance I/4
# ---------------------------------------------------------------------------

# Rows of the library's pair frame (x1 - x2, p1 + p2, x1 + x2, p1 - p2) over the lab
# quadratures; PAIR_ROWS @ PAIR_ROWS.T = 2 I, so the way back is PAIR_ROWS.T / 2.
PAIR_ROWS = np.array([[1, 0, -1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, -1]])


class LabState(NamedTuple):
    """Mean and covariance of 1 or 2 modes in the lab ordering, not validated."""

    mean: np.ndarray
    cov: np.ndarray


class PairState(NamedTuple):
    """Mean and covariance of 2 modes in the library's pair frame, not validated: any
    two-mode Gaussian state, where the library holds only the noisy two-mode probe."""

    mean: np.ndarray
    cov: np.ndarray


# The dense one-mode constructor's tolerances: the largest asymmetry of a covariance, the
# uncertainty-bound slack relative to max(1, largest eigenvalue), and the rounding of each
# variance, relative to itself, added back before the Cholesky test.
COV_SYMMETRY_ATOL = 1e-12
UNCERTAINTY_RTOL = 1e-10
COV_PD_RTOL = 1e-15

# (i/4) Omega with Omega = [[0, 1], [-1, 0]] on (x, p): physicality is cov + (i/4) Omega >= 0.
_QUARTER_I_FORM = 0.25j * np.array([[0.0, 1.0], [-1.0, 0.0]])
# Noise far above a finite variance rounds it by eps times itself, which can leave the stored
# covariance singular; the Cholesky test first scales each variance up by that rounding.
_PD_SCALE = 1.0 + COV_PD_RTOL * np.eye(2)


def one_mode_state(mean, cov) -> LabState:
    """A one-mode state from any mean and 2 x 2 covariance, validated: the mean finite, the
    covariance symmetric within ``COV_SYMMETRY_ATOL``, within the uncertainty bound by an
    ``eigvalsh`` of cov + (i/4) Omega, and positive definite by a Cholesky test."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    if mean.size != 2:
        raise ValueError(f"mean must have length 2, got {mean.size}; build a 2-mode probe with tmsv_state")
    if cov.shape != (2, 2):
        raise ValueError(f"covariance shape {cov.shape} does not match a 1-mode mean")
    if not all(map(math.isfinite, mean.tolist())):
        raise ValueError("mean must be finite")
    # a nan or infinite entry makes its asymmetry nan or infinite, so it fails here
    if not np.max(np.abs(cov - cov.T)) <= COV_SYMMETRY_ATOL:
        raise ValueError(f"covariance must be finite and symmetric within {COV_SYMMETRY_ATOL}")
    # eigvalsh errs by ~eps times the largest eigenvalue, so scale the slack
    spectrum = np.linalg.eigvalsh(cov + _QUARTER_I_FORM)
    if spectrum[0] < -UNCERTAINTY_RTOL * max(1.0, spectrum[-1]):
        raise ValueError("covariance violates the uncertainty bound")
    try:
        np.linalg.cholesky(_PD_SCALE * cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive definite") from None
    return LabState(mean, cov)


def squeezed_lab(g: gauss.OneModeProbe) -> LabState:
    """A library one-mode probe built densely: the squeezer diag(e^-s, e^s) applied to the
    vacuum covariance I/4 by two matrix products, (nbar/2) I added, and the result passed
    through ``one_mode_state``."""
    squeezer = np.diag([np.exp(-g.s), np.exp(g.s)])
    cov = squeezer @ (gauss.VACUUM_VARIANCE * np.eye(2)) @ squeezer.T + g.nbar / 2.0 * np.eye(2)
    return one_mode_state(np.zeros(2), cov)


def pair_cov(g: gauss.TwoModeProbe) -> np.ndarray:
    """Read-only pair-frame covariance of the two-mode probe: Delta^2/2 and 1/(2 Delta^2) on
    the diagonal, each plus (nbar0 + nbar1)/2, and (nbar0 - nbar1)/2 between each difference
    and sum."""
    delta_sq = gauss.tmsv_epr_variance(g.x)
    common, split = g.nbar0 / 2.0 + g.nbar1 / 2.0, g.nbar0 / 2.0 - g.nbar1 / 2.0
    low, high = delta_sq / 2.0 + common, 1.0 / delta_sq / 2.0 + common
    cov = np.array(
        [[low, 0.0, split, 0.0], [0.0, low, 0.0, split], [split, 0.0, high, 0.0], [0.0, split, 0.0, high]]
    )
    cov.setflags(write=False)
    return cov


def _pair_moments(g) -> tuple[np.ndarray, np.ndarray]:
    """Pair-frame mean and covariance of a ``PairState`` or of the library's two-mode probe,
    which holds no mean, so zero."""
    if isinstance(g, PairState):
        return g.mean, g.cov
    return np.zeros(4), pair_cov(g)


def to_pair(lab):
    """Lab moments in the library's frame: one mode as a validated ``one_mode_state``, two
    through ``PAIR_ROWS`` as a ``PairState``."""
    mean, cov = np.asarray(lab.mean, dtype=float), np.asarray(lab.cov, dtype=float)
    if mean.size == 2:
        return one_mode_state(mean, cov)
    return PairState(PAIR_ROWS @ mean, PAIR_ROWS @ cov @ PAIR_ROWS.T)


def to_lab(g) -> LabState:
    """The lab moments of a ``LabState``, a library probe (one mode through ``squeezed_lab``)
    or a ``PairState``, in floats."""
    if isinstance(g, LabState):
        return g
    if isinstance(g, gauss.OneModeProbe):
        return squeezed_lab(g)
    mean, cov = _pair_moments(g)
    return LabState(PAIR_ROWS.T @ mean / 2.0, PAIR_ROWS.T @ cov @ PAIR_ROWS / 4.0)


def exact_lab_moments(g) -> tuple[list, list]:
    """The lab moments of a 2-mode library state or ``PairState`` as lists of Fractions, with
    no rounding."""
    back = [[Fraction(int(f), 2) for f in column] for column in PAIR_ROWS.T]
    mean, cov = _pair_moments(g)
    mean = [Fraction(m) for m in mean.tolist()]
    cov = [[Fraction(v) for v in row] for row in cov.tolist()]
    lab_mean = [sum(b * m for b, m in zip(row, mean)) for row in back]
    back_cov = [[sum(b * cov[k][j] for k, b in enumerate(row)) for j in range(4)] for row in back]
    lab_cov = [[sum(h * b for h, b in zip(hrow, brow)) for brow in back] for hrow in back_cov]
    return lab_mean, lab_cov


def lab_tmsv(x: float) -> LabState:
    """The two-mode squeezed vacuum as cosh(2r)/4 on every variance and +-sinh(2r)/4
    between the modes, x = tanh r: the representation whose differences cancel."""
    r = np.arctanh(abs(x))
    c, s = np.cosh(2.0 * r) / 4.0, np.sinh(2.0 * r) / 4.0
    cov = np.array([[c, 0.0, s, 0.0], [0.0, c, 0.0, -s], [s, 0.0, c, 0.0], [0.0, -s, 0.0, c]])
    return LabState(np.zeros(4), cov)


def _check_lab_mode(lab, mode: int) -> None:
    if not 0 <= mode < len(lab.mean) // 2:
        raise ValueError(f"mode {mode} out of range for a {len(lab.mean) // 2}-mode state")


def displace(lab, mode: int, alpha: complex) -> LabState:
    """Shift the mode's (x, p) mean by (Re alpha, Im alpha); covariance untouched."""
    lab = to_lab(lab)
    _check_lab_mode(lab, mode)
    mean = np.array(lab.mean, dtype=float)
    mean[2 * mode] += np.real(alpha)
    mean[2 * mode + 1] += np.imag(alpha)
    return LabState(mean, lab.cov)


def coherent_state(alpha: complex) -> LabState:
    return displace(LabState(np.zeros(2), gauss.VACUUM_VARIANCE * np.eye(2)), 0, alpha)


def add_noise(lab, mode: int, nbar: float) -> LabState:
    """Random-displacement channel: adds (nbar/2) I to the mode's covariance block."""
    lab = to_lab(lab)
    _check_lab_mode(lab, mode)
    cov = np.array(lab.cov, dtype=float)
    block = slice(2 * mode, 2 * mode + 2)
    cov[block, block] += 0.5 * nbar * np.eye(2)
    return LabState(lab.mean, cov)


def tensor(a, b) -> LabState:
    """Product state of two lab states or library probes (at most two modes in total)."""
    a, b = to_lab(a), to_lab(b)
    if len(a.mean) + len(b.mean) > 4:
        raise ValueError("at most two modes are supported")
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    cov[: len(a.mean), : len(a.mean)] = a.cov
    cov[len(a.mean) :, len(a.mean) :] = b.cov
    return LabState(mean, cov)


def symplectic_form(modes: int) -> np.ndarray:
    """The lab commutator form, block-diagonal in [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(cov) -> np.ndarray:
    """Moduli of the eigenvalues of i Omega cov for a lab covariance, one per mode, ascending."""
    cov = np.asarray(cov, dtype=float)
    spectrum = np.abs(np.linalg.eigvals(1j * symplectic_form(cov.shape[0] // 2) @ cov))
    return np.sort(spectrum)[::2]


def pt_eigenvalue_in_lab_frame(g) -> float:
    """Smallest symplectic eigenvalue of a 2-mode library state with p2 flipped in the lab."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(symplectic_eigenvalues(flip @ to_lab(g).cov @ flip)[0])


def pt_eigenvalue_by_eigvals(g) -> float:
    """Smallest modulus in the spectrum of (i/4) F Omega F^T times the pair-frame covariance
    with p1 + p2 and p1 - p2 swapped, by ``np.linalg.eigvals``.  Its error is ~eps times the
    largest eigenvalue, so it holds to a relative 1e-10 only at moderate gain."""
    flip = [0, 3, 2, 1]
    form = 0.5j * np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
    return float(np.abs(np.linalg.eigvals(form @ pair_cov(g)[flip][:, flip])).min())


# The commutator form with the partial transpose p2 -> -p2 applied, which swaps p1 + p2 and
# p1 - p2: halved, [[0, 1], [-1, 0]] on (x1 - x2, p1 + p2) and on (x1 + x2, p1 - p2).
_PT_PAIR_FORM = 0.5 * np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
_UPPER = np.triu_indices(4, 1)


def pt_eigenvalue_by_lapack_cholesky(g) -> gauss.SeparabilityReport:
    """``gauss.ppt_separability`` through ``np.linalg.cholesky``: the same nu_+ and
    nu_- = det L / (4 nu_+), with H = L^T (J + J) L / 2 formed by two 4 x 4 products."""
    if not isinstance(g, gauss.TwoModeProbe):
        raise ValueError(f"the test applies to 2-mode states, got {type(g).__name__}")
    chol = np.linalg.cholesky(pair_cov(g))
    h01, h02, h03, h12, h13, h23 = (chol.T @ _PT_PAIR_FORM @ chol)[_UPPER].tolist()
    nu_max = (math.hypot(h01 + h23, h02 - h13, h03 + h12) + math.hypot(h01 - h23, h02 + h13, h03 - h12)) / 2.0
    nu_min = math.prod(chol.diagonal().tolist()) / (4.0 * nu_max)
    return gauss.SeparabilityReport(nu_min >= gauss.VACUUM_VARIANCE - PPT_ATOL, nu_min)


# The mpmath oracles below work at 50 significant digits.
DIGITS = 50


def _lab_probe_cov(x, nbar0, nbar1) -> mpmath.matrix:
    """The noisy probe's lab covariance, x = tanh r: mode k's variances cosh(2r)/4 + nbar_k/2,
    and +-sinh(2r)/4 between the modes."""
    r = mpmath.atanh(abs(mpmath.mpf(x)))
    c, s = mpmath.cosh(2 * r) / 4, mpmath.sinh(2 * r) / 4
    a, b = c + mpmath.mpf(nbar0) / 2, c + mpmath.mpf(nbar1) / 2
    return mpmath.matrix([[a, 0, s, 0], [0, a, 0, -s], [s, 0, b, 0], [0, -s, 0, b]])


def _lab_pt_eigenvalue(cov) -> mpmath.mpf:
    """Smallest modulus in the spectrum of i Omega V with p2 flipped, by ``mpmath.eig``."""
    flip = mpmath.diag([1, 1, 1, -1])
    omega = mpmath.matrix(symplectic_form(2).tolist())
    return min(abs(e) for e in mpmath.eig(1j * omega * flip * cov * flip, left=False, right=False))


def lab_pt_eigenvalue_at_50_digits(x: float, nbar0: float, nbar1: float) -> mpmath.mpf:
    """Smallest partial-transpose symplectic eigenvalue of the probe with nbar_k noise
    photons on mode k, through the lab-frame cosh/sinh covariance.  ``mpmath.eig`` errs by
    its precision times the largest entry, so the working precision grows by the decimal
    digits of the noise and noise far above the eigenvalue costs the result no digits."""
    with mpmath.workdps(DIGITS + int(math.log10(1.0 + max(nbar0, nbar1)))):
        return _lab_pt_eigenvalue(_lab_probe_cov(x, nbar0, nbar1))


class LabRoute(NamedTuple):
    epr_variance: mpmath.mpf
    pt_eigenvalue: mpmath.mpf
    photons: mpmath.mpf


def lab_route_at_50_digits(x: float, nbar: float) -> LabRoute:
    """The noisy two-mode probe's readouts through the lab-frame cosh/sinh covariance: the
    EPR variance Var(x1 - x2) + Var(p1 + p2), the smallest partial-transpose symplectic
    eigenvalue, and the noiseless photon number, Var(x) + Var(p) - 1/2 summed over the modes."""
    with mpmath.workdps(DIGITS):
        v, bare = _lab_probe_cov(x, nbar, nbar), _lab_probe_cov(x, 0, 0)
        return LabRoute(
            epr_variance=(v[0, 0] + v[2, 2] - 2 * v[0, 2]) + (v[1, 1] + v[3, 3] + 2 * v[1, 3]),
            pt_eigenvalue=_lab_pt_eigenvalue(v),
            photons=sum(bare[i, i] for i in range(4)) - 1,
        )


@functools.lru_cache(maxsize=None)
def lab_edge_at_50_digits(x: float) -> mpmath.mpf:
    """Noise per mode at which the lab-route PT eigenvalue reaches 1/4, by ``mpmath.findroot``."""
    with mpmath.workdps(DIGITS):
        quarter = mpmath.mpf(1) / 4
        return mpmath.findroot(lambda n: _lab_pt_eigenvalue(_lab_probe_cov(x, n, n)) - quarter, (0, 2 * quarter))
