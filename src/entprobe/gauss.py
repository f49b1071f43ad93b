"""Gaussian states of one or two bosonic modes in the covariance picture.

Quadratures x = (a† + a)/2 and p = (a - a†)/2i, vacuum variance 1/4.  A
one-mode state is held in (x, p).  A two-mode state is held in the pair
frame (x1 - x2, p1 + p2, x1 + x2, p1 - p2), where every readout is a
read-off: the two-mode squeezed probe is diagonal, built from Delta^2 with
no subtraction; the EPR measurement reads the first two quadratures; equal
noise on both modes adds nbar I; and the partial transpose is a swap.
Physicality is cov + (i/4) Omega >= 0 with Omega the frame's commutator
form.  A heterodyne outcome z has complex-plane variance E|z - mean|^2 = 1
on the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linops import COV_PD_RTOL, COV_SYMMETRY_ATOL, PPT_ATOL, UNCERTAINTY_RTOL, _freeze

VACUUM_VARIANCE = 0.25

# (i/4) Omega per mode count.  Omega is [[0, 1], [-1, 0]] on (x, p); on the pair frame it is
# F Omega F^T for the frame's rows F over (x1, p1, x2, p2), which pairs x1 - x2 with p1 - p2
# and x1 + x2 with p1 + p2, each with weight 2.  A congruence keeps a matrix semidefinite.
_QUARTER_I_FORM = {
    1: 0.25j * np.array([[0.0, 1.0], [-1.0, 0.0]]),
    2: 0.5j * np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float),
}

# Covariance that each mode's displacement noise adds per photon: (1/2) I on the mode's
# (x, p).  In the pair frame that is (I + S)/2 for mode 0 and (I - S)/2 for mode 1, with S
# swapping the difference and sum quadratures, so equal noise on both adds exactly nbar I.
_PAIR_SWAP = np.roll(np.eye(4), 2, axis=0)
_NOISE_PER_PHOTON = {
    1: (0.5 * np.eye(2),),
    2: (0.5 * (np.eye(4) + _PAIR_SWAP), 0.5 * (np.eye(4) - _PAIR_SWAP)),
}

# The commutator form with the partial transpose p2 -> -p2 applied, which swaps p1 + p2 and
# p1 - p2: halved, [[0, 1], [-1, 0]] on (x1 - x2, p1 + p2) and on (x1 + x2, p1 - p2).
_PT_PAIR_FORM = 0.5 * np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
_UPPER = np.triu_indices(4, 1)
# Noise far above a finite variance rounds it by eps times itself, which can leave the stored
# covariance singular; the Cholesky test first scales each variance up by that rounding.
_PD_SCALE = {size: 1.0 + COV_PD_RTOL * np.eye(size) for size in (2, 4)}


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of a 1-mode state, or of a 2-mode state in the pair frame."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if mean.size not in (2, 4):
            raise ValueError(f"mean must have length 2 or 4, got {mean.size}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean {mean.size}")
        if not all(map(math.isfinite, mean.tolist())):
            raise ValueError("mean must be finite")
        # a nan or infinite entry makes its asymmetry nan or infinite, so it fails here
        if not np.max(np.abs(cov - cov.T)) <= COV_SYMMETRY_ATOL:
            raise ValueError(f"covariance must be finite and symmetric within {COV_SYMMETRY_ATOL}")
        # eigvalsh errs by ~eps times the largest eigenvalue, so scale the slack
        spectrum = np.linalg.eigvalsh(cov + _QUARTER_I_FORM[mean.size // 2])
        if spectrum[0] < -UNCERTAINTY_RTOL * max(1.0, spectrum[-1]):
            raise ValueError("covariance violates the uncertainty bound")
        try:
            np.linalg.cholesky(_PD_SCALE[mean.size] * cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        _freeze(self, mean=mean, cov=cov)

    @property
    def modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class NoiseSpec:
    """Random-displacement noise strength, in mean thermal photons per mode."""

    nbar_per_mode: float = 0.0

    def __post_init__(self):
        _check_nbar(self.nbar_per_mode)


def _check_nbar(nbar: float) -> None:
    """A noise photon number must be finite and nonnegative (nan fails)."""
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"noise photon number must be finite and nonnegative, got {nbar}")


NO_NOISE = NoiseSpec(0.0)


class HeterodyneLaw(NamedTuple):
    """Gaussian outcome law: complex center and total variance E|z - mean|^2."""

    mean: complex
    variance: float


class SeparabilityReport(NamedTuple):
    separable: bool
    min_pt_symplectic_eigenvalue: float


class NoiseBoundaries(NamedTuple):
    """Per-mode noise levels where the measurement advantage and the
    entanglement itself are lost; reported side by side, never conflated."""

    advantage_nbar: float
    ppt_nbar: float


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------


def vacuum_state(modes: int = 1) -> GaussianState:
    """The vacuum; on two modes, the zero-gain probe, with pair-frame variances 1/2."""
    if modes not in (1, 2):
        raise ValueError(f"only 1 or 2 modes are supported, got {modes}")
    return GaussianState(np.zeros(2), VACUUM_VARIANCE * np.eye(2)) if modes == 1 else tmsv_state(0.0)


def squeezed_state(s: float, x0: float = 0.0) -> GaussianState:
    """Probe squeezed along x: Var(x) = e^(-2s)/4, displaced by x0 before squeezing."""
    cov = np.diag([np.exp(-2.0 * s), np.exp(2.0 * s)]) * VACUUM_VARIANCE
    mean = np.array([x0 * np.exp(-s), 0.0])
    return GaussianState(mean, cov)


def _check_gain(x) -> float:
    """The downconversion gain as a float, which must satisfy |x| < 1 (nan fails)."""
    x = float(x)
    if not abs(x) < 1.0:
        raise ValueError(f"|x| must be below 1, got {x}")
    return x


def tmsv_state(x: float) -> GaussianState:
    """Two-mode squeezed vacuum with downconversion gain parameter |x| < 1: in the pair frame,
    Var(x1 - x2) = Var(p1 + p2) = Delta^2/2 and Var(x1 + x2) = Var(p1 - p2) = 1/(2 Delta^2)."""
    delta_sq = tmsv_epr_variance(x)
    return GaussianState(np.zeros(4), np.diag([delta_sq, delta_sq, 1.0 / delta_sq, 1.0 / delta_sq]) / 2.0)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def _check_mode(g: GaussianState, mode: int) -> None:
    if not 0 <= mode < g.modes:
        raise ValueError(f"mode {mode} out of range for a {g.modes}-mode state")


def apply_displacement_noise(g: GaussianState, mode: int, nbar: float) -> GaussianState:
    """Random-displacement channel: adds (nbar/2) I to the covariance of the mode's (x, p)."""
    _check_nbar(nbar)
    _check_mode(g, mode)
    return GaussianState(g.mean, g.cov + nbar * _NOISE_PER_PHOTON[g.modes][mode])


# ---------------------------------------------------------------------------
# measurement statistics
# ---------------------------------------------------------------------------


def quadrature_variance(g: GaussianState, mode: int, phi):
    """Variance of x cos(phi) + p sin(phi) of a 1-mode state, for a phase or an array of them;
    a 2-mode state holds no lab quadrature as an entry, so it is refused."""
    if g.modes != 1:
        raise ValueError(f"a quadrature variance needs a 1-mode state, got {g.modes} modes")
    _check_mode(g, mode)
    c, s = np.cos(phi), np.sin(phi)
    v = g.cov
    return c * c * v[0, 0] + s * s * v[1, 1] + 2.0 * s * c * v[0, 1]


def _check_alpha(alpha) -> complex:
    """A displacement as a complex number with finite parts (nan fails)."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"displacement must be finite, got {alpha}")
    return alpha


def epr_heterodyne(
    g: GaussianState,
    alpha: complex = 0.0,
    noise: NoiseSpec = NO_NOISE,
    phi: float = 0.0,
) -> HeterodyneLaw:
    """Outcome law of the joint measurement of (x1 - x2, p1 + p2).

    The probed mode is displaced by ``alpha`` and the noise in ``noise`` adds
    nbar to both measured variances, so the law reads off the first two pair
    quadratures: center m0 + i m1 + alpha, variance V00 + V11 + 2 nbar.  A
    common phase ``phi`` on the pair cannot move it: the rotated pair reads
    e^(-i phi) z, reported back in the fixed frame as z.
    """
    if g.modes != 2:
        raise ValueError(f"an EPR measurement needs a 2-mode state, got {g.modes} mode(s)")
    m, v = g.mean, g.cov
    center = complex(m[0], m[1]) + _check_alpha(alpha)
    return HeterodyneLaw(center, float(v[0, 0] + v[1, 1] + 2.0 * noise.nbar_per_mode))


def heterodyne(
    g: GaussianState, alpha: complex = 0.0, noise: NoiseSpec = NO_NOISE
) -> HeterodyneLaw:
    """Single-mode heterodyne law: the EPR law of the mode beside a vacuum ancilla,
    whose quadratures add 2 * VACUUM_VARIANCE, so the vacuum probe yields E|z - alpha|^2 = 1.
    """
    if g.modes != 1:
        raise ValueError(f"single-mode heterodyne needs a 1-mode state, got {g.modes}")
    m, v = g.mean, g.cov
    variance = v[0, 0] + v[1, 1] + 2.0 * VACUUM_VARIANCE + noise.nbar_per_mode
    return HeterodyneLaw(complex(m[0], m[1]) + _check_alpha(alpha), float(variance))


def tmsv_epr_variance(x: float) -> float:
    """Closed-form EPR outcome variance (1 - |x|)/(1 + |x|) of the two-mode probe."""
    x = _check_gain(x)
    return (1.0 - abs(x)) / (1.0 + abs(x))


def advantage_threshold(x: float) -> float:
    """Per-scheme noise level where the entangled probe stops paying off.

    Solves delta^2_entangled = delta^2_vacuum, i.e. Delta^2 + 2 nbar =
    1 + nbar, at nbar = 1 - Delta^2 = 2|x|/(1 + |x|): twice the separability
    edge, formed without the low-gain cancellation of 1 - Delta^2.  It tends
    to one thermal photon as the probe approaches maximal entanglement.
    """
    return 2.0 * ppt_noise_boundary(x)


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------


def ppt_separability(g: GaussianState) -> SeparabilityReport:
    """Partial-transpose physicality test for a two-mode Gaussian state.

    The partial transpose p2 -> -p2 swaps p1 + p2 and p1 - p2, so the flipped
    state's symplectic eigenvalues nu_+ >= nu_- (Simon, PRL 84, 2726 (2000))
    are the eigenvalue moduli of (i/2) (J + J) V, with J = [[0, 1], [-1, 0]]
    on (x1 - x2, p1 + p2) and on (x1 + x2, p1 - p2).  With the Cholesky
    factor V = L L^T (V is positive definite on every physical state), the
    real antisymmetric H = L^T (J + J) L / 2 has the same spectrum.  Its
    self-dual and anti-self-dual halves

        a = (h01 + h23, h02 - h13, h03 + h12) / 2,
        b = (h01 - h23, h02 + h13, h03 - h12) / 2

    give nu_+ = |a| + |b|, and its Pfaffian gives nu_+ nu_- = det L / 4, so
    nu_- = det L / (4 (|a| + |b|)).

    No step cancels: nu_+ is a sum of norms, off by eps times itself, and
    det L is a product, so the Delta^2-sized and 1/Delta^2-sized entries of a
    high-gain probe only multiply.  The invariant form nu_-^2 = 2 det /
    (S + sqrt(S^2 - 4 det)), with S = nu_+^2 + nu_-^2 and det = (nu_+ nu_-)^2,
    loses half its digits in the root wherever nu_+ is near nu_-, as on every
    pure product state, which sits on the edge.  The state is separable
    exactly when nu_- stays at or above 1/4.
    """
    if g.modes != 2:
        raise ValueError(f"the test applies to 2-mode states, got {g.modes} mode(s)")
    chol = np.linalg.cholesky(g.cov)
    h01, h02, h03, h12, h13, h23 = (chol.T @ _PT_PAIR_FORM @ chol)[_UPPER].tolist()
    nu_max = (math.hypot(h01 + h23, h02 - h13, h03 + h12) + math.hypot(h01 - h23, h02 + h13, h03 - h12)) / 2.0
    nu_min = math.prod(chol.diagonal().tolist()) / (4.0 * nu_max)
    return SeparabilityReport(nu_min >= VACUUM_VARIANCE - PPT_ATOL, nu_min)


def ppt_noise_boundary(x: float) -> float:
    """Per-mode noise that lands the noisy two-mode probe on the separability edge.

    The smallest partial-transpose symplectic eigenvalue of the probe with
    noise n per mode is Delta^2/4 + n/2 (Simon, PRL 84, 2726 (2000)), so the
    edge sits at n = (1 - Delta^2)/2 = |x|/(1 + |x|).
    """
    x = _check_gain(x)
    return abs(x) / (1.0 + abs(x))


def noise_boundaries(x: float) -> NoiseBoundaries:
    """Advantage-loss and entanglement-loss noise levels for the two-mode probe."""
    return NoiseBoundaries(advantage_threshold(x), ppt_noise_boundary(x))


# ---------------------------------------------------------------------------
# resources
# ---------------------------------------------------------------------------


def photon_budget(kind: str, param: float = 0.0) -> float:
    """Mean photon number spent preparing the probe.

    ``squeezed`` uses sinh^2(s) photons, ``tmsv`` uses 2|x|^2/(1-|x|^2)
    photons across its two modes, with 1 - |x|^2 formed as (1 - |x|)(1 + |x|),
    and ``vacuum`` is free.
    """
    if kind == "vacuum":
        return 0.0
    if kind == "squeezed":
        return float(np.sinh(param) ** 2)
    if kind == "tmsv":
        x = _check_gain(param)
        return 2.0 * x * x / ((1.0 - abs(x)) * (1.0 + abs(x)))
    raise ValueError(f"unknown probe kind {kind!r}")
