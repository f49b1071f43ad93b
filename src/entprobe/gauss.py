"""Gaussian states of one or two bosonic modes in the covariance picture.

Single fixed convention throughout: quadratures x = (a† + a)/2 and
p = (a - a†)/2i, quadrature ordering (x1, p1, x2, p2), vacuum covariance
I/4, and physicality cov + (i/4) Omega >= 0 with Omega block-diagonal in
[[0, 1], [-1, 0]].  A heterodyne outcome z therefore has complex-plane
variance E|z - mean|^2 = 1 on the vacuum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

VACUUM_VARIANCE = 0.25


def symplectic_form(modes: int) -> np.ndarray:
    omega = np.zeros((2 * modes, 2 * modes))
    for m in range(modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of a 1- or 2-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if mean.size not in (2, 4):
            raise ValueError(f"mean must have length 2 or 4, got {mean.size}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean {mean.size}")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance must be symmetric within 1e-12")
        check = cov + 0.25j * symplectic_form(mean.size // 2)
        # eigvalsh errs by ~eps times the largest eigenvalue, so scale the slack
        spectrum = np.linalg.eigvalsh(check)
        if spectrum[0] < -1e-10 * max(1.0, spectrum[-1]):
            raise ValueError("covariance violates the uncertainty bound")
        mean = mean.copy()
        cov = cov.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class NoiseSpec:
    """Random-displacement noise strength, in mean thermal photons per mode."""

    nbar_per_mode: float = 0.0

    def __post_init__(self):
        if self.nbar_per_mode < 0:
            raise ValueError(f"noise photon number must be nonnegative, got {self.nbar_per_mode}")


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
    if modes not in (1, 2):
        raise ValueError(f"only 1 or 2 modes are supported, got {modes}")
    return GaussianState(np.zeros(2 * modes), VACUUM_VARIANCE * np.eye(2 * modes))


def coherent_state(alpha: complex) -> GaussianState:
    return displace(vacuum_state(), 0, alpha)


def squeezed_state(s: float, x0: float = 0.0) -> GaussianState:
    """Probe squeezed along x: Var(x) = e^(-2s)/4, displaced by x0 before squeezing."""
    cov = np.diag([np.exp(-2.0 * s), np.exp(2.0 * s)]) * VACUUM_VARIANCE
    mean = np.array([x0 * np.exp(-s), 0.0])
    return GaussianState(mean, cov)


def tmsv_state(x: float) -> GaussianState:
    """Two-mode squeezed vacuum with downconversion gain parameter |x| < 1."""
    x = float(x)
    if abs(x) >= 1.0:
        raise ValueError(f"|x| must be below 1, got {x}")
    r = np.arctanh(abs(x))
    c = np.cosh(2.0 * r) * VACUUM_VARIANCE
    s = np.sinh(2.0 * r) * VACUUM_VARIANCE
    cov = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return GaussianState(np.zeros(4), cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two Gaussian states (at most two modes in total)."""
    if a.modes + b.modes > 2:
        raise ValueError("at most two modes are supported")
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    cov[: 2 * a.modes, : 2 * a.modes] = a.cov
    cov[2 * a.modes :, 2 * a.modes :] = b.cov
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def _check_mode(g: GaussianState, mode: int) -> None:
    if not 0 <= mode < g.modes:
        raise ValueError(f"mode {mode} out of range for a {g.modes}-mode state")


def displace(g: GaussianState, mode: int, alpha: complex) -> GaussianState:
    """Shift the mode's (x, p) mean by (Re alpha, Im alpha); covariance untouched."""
    _check_mode(g, mode)
    mean = g.mean.copy()
    mean[2 * mode] += np.real(alpha)
    mean[2 * mode + 1] += np.imag(alpha)
    return GaussianState(mean, g.cov)


def apply_displacement_noise(g: GaussianState, mode: int, nbar: float) -> GaussianState:
    """Random-displacement channel: adds (nbar/2) I to the mode's covariance block."""
    if nbar < 0:
        raise ValueError(f"noise photon number must be nonnegative, got {nbar}")
    _check_mode(g, mode)
    cov = g.cov.copy()
    block = slice(2 * mode, 2 * mode + 2)
    cov[block, block] += 0.5 * nbar * np.eye(2)
    return GaussianState(g.mean, cov)


# ---------------------------------------------------------------------------
# measurement statistics
# ---------------------------------------------------------------------------


def quadrature_variance(g: GaussianState, mode: int, phi: float) -> float:
    """Variance of x cos(phi) + p sin(phi) on the given mode."""
    _check_mode(g, mode)
    c, s = np.cos(phi), np.sin(phi)
    i = 2 * mode
    v = g.cov
    return float(c * c * v[i, i] + s * s * v[i + 1, i + 1] + 2.0 * s * c * v[i, i + 1])


def epr_heterodyne(
    g: GaussianState,
    alpha: complex = 0.0,
    noise: NoiseSpec = NO_NOISE,
    phi: float = 0.0,
) -> HeterodyneLaw:
    """Outcome law of the joint measurement of (x1 - x2, p1 + p2).

    The probed mode is displaced by ``alpha`` and both modes then suffer the
    displacement-noise channel at the per-mode strength in ``noise``.  The
    commuting pair may be rotated by a common phase ``phi``; the law is
    reported back in the fixed frame, so the center stays at ``alpha``.
    """
    if g.modes != 2:
        raise ValueError(f"an EPR measurement needs a 2-mode state, got {g.modes} mode(s)")
    state = displace(g, 0, alpha)
    if noise.nbar_per_mode > 0:
        state = apply_displacement_noise(state, 0, noise.nbar_per_mode)
        state = apply_displacement_noise(state, 1, noise.nbar_per_mode)
    c, s = np.cos(phi), np.sin(phi)
    f_re = np.array([c, s, -c, s])
    f_im = np.array([-s, c, s, c])
    var = float(f_re @ state.cov @ f_re + f_im @ state.cov @ f_im)
    rotated = complex(f_re @ state.mean, f_im @ state.mean)
    return HeterodyneLaw(np.exp(1j * phi) * rotated, var)


def heterodyne(
    g: GaussianState, alpha: complex = 0.0, noise: NoiseSpec = NO_NOISE
) -> HeterodyneLaw:
    """Single-mode heterodyne law, realized as an EPR pair with a vacuum ancilla.

    The extra vacuum quadratures contribute the familiar unit of outcome
    variance: the vacuum probe yields E|z - alpha|^2 = 1.
    """
    if g.modes != 1:
        raise ValueError(f"single-mode heterodyne needs a 1-mode state, got {g.modes}")
    state = displace(g, 0, alpha)
    if noise.nbar_per_mode > 0:
        state = apply_displacement_noise(state, 0, noise.nbar_per_mode)
    law = epr_heterodyne(tensor(state, vacuum_state()))
    return HeterodyneLaw(law.mean, law.variance)


def tmsv_epr_variance(x: float) -> float:
    """Closed-form EPR outcome variance (1 - |x|)/(1 + |x|) of the two-mode probe."""
    x = float(x)
    if abs(x) >= 1.0:
        raise ValueError(f"|x| must be below 1, got {x}")
    return (1.0 - abs(x)) / (1.0 + abs(x))


def advantage_threshold(x: float) -> float:
    """Per-scheme noise level where the entangled probe stops paying off.

    Solves delta^2_entangled = delta^2_vacuum, i.e. Delta^2 + 2 nbar =
    1 + nbar; the solution 1 - Delta^2 tends to one thermal photon as the
    probe approaches maximal entanglement.
    """
    return 1.0 - tmsv_epr_variance(x)


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Moduli of the eigenvalues of i Omega cov, one per mode, ascending."""
    cov = np.asarray(cov, dtype=float)
    modes = cov.shape[0] // 2
    spectrum = np.abs(np.linalg.eigvals(1j * symplectic_form(modes) @ cov))
    return np.sort(spectrum)[::2]


def ppt_separability(g: GaussianState) -> SeparabilityReport:
    """Partial-transpose physicality test for a two-mode Gaussian state.

    The partial transpose flips the sign of p2; the state is separable
    exactly when the flipped covariance still satisfies the uncertainty
    bound, i.e. its smallest symplectic eigenvalue stays at or above 1/4.
    """
    if g.modes != 2:
        raise ValueError(f"the test applies to 2-mode states, got {g.modes} mode(s)")
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nu_min = float(symplectic_eigenvalues(flip @ g.cov @ flip)[0])
    return SeparabilityReport(nu_min >= VACUUM_VARIANCE - 1e-10, nu_min)


def ppt_noise_boundary(x: float) -> float:
    """Per-mode noise that lands the noisy two-mode probe on the separability edge.

    The smallest partial-transpose symplectic eigenvalue of the probe with
    noise n per mode is Delta^2/4 + n/2 (Simon, PRL 84, 2726 (2000)), so the
    edge sits at n = (1 - Delta^2)/2 = |x|/(1 + |x|), read without the
    cosh - sinh cancellation of the covariance entries.
    """
    x = float(x)
    if abs(x) >= 1.0:
        raise ValueError(f"|x| must be below 1, got {x}")
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
    photons across its two modes, and ``vacuum`` is free.
    """
    if kind == "vacuum":
        return 0.0
    if kind == "squeezed":
        return float(np.sinh(param) ** 2)
    if kind == "tmsv":
        x = float(param)
        if abs(x) >= 1.0:
            raise ValueError(f"|x| must be below 1, got {x}")
        return 2.0 * x * x / (1.0 - x * x)
    raise ValueError(f"unknown probe kind {kind!r}")
