"""Gaussian states of one or two bosonic modes.

Quadratures x = (a† + a)/2 and p = (a - a†)/2i, vacuum variance 1/4.  The
one-mode family is the vacuum squeezed by s along x with nbar photons of
random-displacement noise, held as the two floats (s, nbar): Var(x) =
e^(-2s)/4 + nbar/2 and Var(p) = e^(2s)/4 + nbar/2.  The two-mode family is
the two-mode squeezed probe with gain |x| < 1 and n0, n1 photons of
random-displacement noise on its modes, held as the three floats (x, n0, n1).
Every readout is a closed form in them; neither family holds a mean, and a
signal displacement enters as the alpha of the EPR law.  Heterodyne detection
of one mode is that law at x = 0, the mode beside a vacuum ancilla: its
outcome z has complex-plane variance E|z - mean|^2 = 1 on the vacuum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .linops import PPT_ATOL, _count

VACUUM_VARIANCE = 0.25

# e^(2|s|), and with it sinh(s)^2, stays finite exactly up to this squeezing.
MAX_SQUEEZING = math.log(sys.float_info.max) / 2.0


@dataclass(frozen=True)
class OneModeProbe:
    """Vacuum squeezed by s along x, with nbar photons of random-displacement noise."""

    s: float
    nbar: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s", _check_squeezing(self.s))
        object.__setattr__(self, "nbar", _check_nbar(self.nbar))


@dataclass(frozen=True)
class TwoModeProbe:
    """Two-mode squeezed vacuum with gain |x| < 1 and nbar0, nbar1 noise photons on its modes."""

    x: float
    nbar0: float = 0.0
    nbar1: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _check_gain(self.x))
        object.__setattr__(self, "nbar0", _check_nbar(self.nbar0))
        object.__setattr__(self, "nbar1", _check_nbar(self.nbar1))


@dataclass(frozen=True)
class NoiseSpec:
    """Random-displacement noise strength, in mean thermal photons per mode."""

    nbar_per_mode: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nbar_per_mode", _check_nbar(self.nbar_per_mode))


def _check_squeezing(s) -> float:
    """A squeezing parameter as a float, which must satisfy |s| <= MAX_SQUEEZING (nan fails)."""
    s = float(s)
    if not abs(s) <= MAX_SQUEEZING:
        raise ValueError(f"squeezing must satisfy |s| <= {MAX_SQUEEZING}, got {s}")
    return s


def _check_nbar(nbar) -> float:
    """A noise photon number as a float, which must be finite and nonnegative (nan fails)."""
    nbar = float(nbar)
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"noise photon number must be finite and nonnegative, got {nbar}")
    return nbar


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


def squeezed_state(s: float) -> OneModeProbe:
    """Probe squeezed along x: Var(x) = e^(-2s)/4 and Var(p) = e^(2s)/4, |s| <= MAX_SQUEEZING."""
    return OneModeProbe(s)


def _check_gain(x) -> float:
    """The downconversion gain as a float, which must satisfy |x| < 1 (nan fails)."""
    x = float(x)
    if not abs(x) < 1.0:
        raise ValueError(f"|x| must be below 1, got {x}")
    return x


def tmsv_state(x: float) -> TwoModeProbe:
    """Two-mode squeezed vacuum with downconversion gain parameter |x| < 1: in the pair frame,
    Var(x1 - x2) = Var(p1 + p2) = Delta^2/2 and Var(x1 + x2) = Var(p1 - p2) = 1/(2 Delta^2)."""
    return TwoModeProbe(x)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def apply_displacement_noise(g, mode: int, nbar: float):
    """Random-displacement channel: adds (nbar/2) I to the covariance of the mode's (x, p), that
    is, nbar to the mode's noise photons, which must stay finite; a one-mode probe has mode 0,
    a two-mode probe modes 0 and 1."""
    nbar, mode = _check_nbar(nbar), _count(mode, "mode")
    if isinstance(g, OneModeProbe) and mode == 0:
        return replace(g, nbar=g.nbar + nbar)
    if isinstance(g, TwoModeProbe) and mode in (0, 1):
        return replace(g, nbar1=g.nbar1 + nbar) if mode else replace(g, nbar0=g.nbar0 + nbar)
    raise ValueError(f"mode {mode} out of range for a {type(g).__name__}")


# ---------------------------------------------------------------------------
# measurement statistics
# ---------------------------------------------------------------------------


def quadrature_variance(g: OneModeProbe, phi):
    """Variance cos^2(phi) Var(x) + sin^2(phi) Var(p) of x cos(phi) + p sin(phi) of a 1-mode
    probe, for a phase or an array of them, with Var(x) = e^(-2s)/4 + nbar/2 and Var(p) =
    e^(2s)/4 + nbar/2 formed as Python floats; both stay finite, since e^(2|s|) does up to
    MAX_SQUEEZING and nbar is finite.  A 2-mode probe holds no lab quadrature, and a phase
    that is not finite no angle, so both are refused."""
    if not isinstance(g, OneModeProbe):
        raise ValueError(f"a quadrature variance needs a 1-mode state, got {type(g).__name__}")
    if not np.isfinite(phi).all():
        raise ValueError("every phase in the grid must be finite")
    c, s = np.cos(phi), np.sin(phi)
    var_x = float(np.exp(-2.0 * g.s)) * VACUUM_VARIANCE + g.nbar / 2.0
    var_p = float(np.exp(2.0 * g.s)) * VACUUM_VARIANCE + g.nbar / 2.0
    return c * c * var_x + s * s * var_p


def _check_alpha(alpha) -> complex:
    """A displacement as a complex number with finite parts (nan fails)."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"displacement must be finite, got {alpha}")
    return alpha


def epr_heterodyne(
    g: TwoModeProbe,
    alpha: complex = 0.0,
    noise: NoiseSpec = NO_NOISE,
    phi: float = 0.0,
) -> HeterodyneLaw:
    """Outcome law of the joint measurement of (x1 - x2, p1 + p2).

    The probed mode is displaced by ``alpha``, and each noise photon on either
    mode, and each of the nbar per mode in ``noise``, adds 1 to the variance:
    center alpha, variance Delta^2 + nbar0 + nbar1 + 2 nbar.  A common phase
    ``phi`` on the pair cannot move it: the rotated pair reads e^(-i phi) z,
    reported back in the fixed frame as z.
    """
    if not isinstance(g, TwoModeProbe):
        raise ValueError(f"an EPR measurement needs a 2-mode state, got {type(g).__name__}")
    alpha = _check_alpha(alpha)
    variance = tmsv_epr_variance(g.x) + g.nbar0 + g.nbar1 + 2.0 * noise.nbar_per_mode
    if not variance < math.inf:
        raise ValueError("the outcome variance overflows: the noise photon numbers are too large")
    return HeterodyneLaw(alpha, variance)


def tmsv_epr_variance(x: float) -> float:
    """Closed-form EPR outcome variance (1 - |x|)/(1 + |x|) of the two-mode probe."""
    x = _check_gain(x)
    return (1.0 - abs(x)) / (1.0 + abs(x))


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------


def ppt_separability(g: TwoModeProbe) -> SeparabilityReport:
    """Partial-transpose physicality test for the noisy two-mode probe.

    In the standard form of the probe (Simon, PRL 84, 2726 (2000)), with
    w = (1 - |x|)(1 + |x|), A = (1 + x^2)/(4w), C = |x|/(2w), a = A + nbar0/2
    and b = A + nbar1/2, the partial transpose has symplectic eigenvalues

        nu_+ = (a + b + hypot((nbar0 - nbar1)/2, 2C)) / 2,
        nu_- = (ab - C^2) / nu_+ = (1/16 + A (nbar0 + nbar1)/2 + nbar0 nbar1/4) / nu_+,

    with A^2 - C^2 = 1/16 cancelled by hand, so every term is positive and
    no step cancels, at any gain and under any noise.  Both are divided by
    max(a, b) first, so that nbar0 nbar1 stays finite up to the largest
    float.  The state is separable exactly when nu_- stays at or above 1/4.
    """
    if not isinstance(g, TwoModeProbe):
        raise ValueError(f"the test applies to 2-mode states, got {type(g).__name__}")
    x, n0, n1 = abs(g.x), g.nbar0, g.nbar1
    w = (1.0 - x) * (1.0 + x)
    big, cross = (1.0 + x * x) / (4.0 * w), x / (2.0 * w)
    a, b = big + n0 / 2.0, big + n1 / 2.0
    scale = max(a, b)
    nu_max = (a / scale + b / scale + math.hypot((n0 - n1) / (2.0 * scale), 2.0 * cross / scale)) / 2.0
    det = 1.0 / (16.0 * scale) + big * (n0 / scale + n1 / scale) / 2.0 + n0 * (n1 / scale) / 4.0
    nu_min = det / nu_max
    return SeparabilityReport(nu_min >= VACUUM_VARIANCE - PPT_ATOL, nu_min)


def noise_boundaries(x: float) -> NoiseBoundaries:
    """Per-mode noise levels where the two-mode probe loses its advantage and its entanglement.

    The smallest partial-transpose symplectic eigenvalue of the probe with
    noise n per mode is Delta^2/4 + n/2 (Simon, PRL 84, 2726 (2000)), so the
    separability edge sits at n = (1 - Delta^2)/2 = |x|/(1 + |x|).  The
    advantage ends where delta^2_entangled = delta^2_vacuum, i.e. Delta^2 +
    2 nbar = 1 + nbar, at nbar = 1 - Delta^2: twice the edge, formed without
    the low-gain cancellation of 1 - Delta^2.  It tends to one thermal photon
    as the probe approaches maximal entanglement.
    """
    x = _check_gain(x)
    edge = abs(x) / (1.0 + abs(x))
    return NoiseBoundaries(2.0 * edge, edge)


# ---------------------------------------------------------------------------
# resources
# ---------------------------------------------------------------------------


def photon_budget(g) -> float:
    """Mean photons spent preparing the probe, its noise photons not counted: sinh^2(s) for the
    one-mode probe, 2x^2/(1 - x^2) across the two modes of the two-mode probe, with 1 - x^2
    formed as (1 - |x|)(1 + |x|)."""
    if isinstance(g, OneModeProbe):
        return float(np.sinh(g.s) ** 2)
    if isinstance(g, TwoModeProbe):
        return 2.0 * g.x * g.x / ((1.0 - abs(g.x)) * (1.0 + abs(g.x)))
    raise ValueError(f"a photon budget needs a 1- or 2-mode probe, got {type(g).__name__}")
