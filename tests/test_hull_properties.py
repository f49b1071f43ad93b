"""Property tests: the closed-form eigenphase hull against brute-force oracles.

Each strategy draws true eigenphases for a hard case, the unitary is
v diag(e^(i phases)) v† for a seeded Haar v, and ``min_overlap_r``,
``copies_for_perfect`` and ``optimal_pair_input`` are compared with the
chord-enumeration hull distance and the n-fold phase-sum enumeration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entprobe.discrim import (
    PHASE_DEDUPE_TOL,
    DiscriminationProblem,
    copies_for_perfect,
    min_overlap_r,
    optimal_pair_input,
)
from entprobe.linops import eig_unitary
from entprobe.rand import generator, haar_unitary

from _helpers import copies_by_enumeration, hull_distance, spread_by_enumeration

N_MAX = 16
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def wrap(phases) -> np.ndarray:
    return np.angle(np.exp(1j * np.asarray(phases, dtype=float)))


@st.composite
def seam_phases(draw):
    """Phases spread over an arc centred on the -pi/pi seam, some narrower than the tolerance."""
    d = draw(st.integers(2, 5))
    width = draw(st.floats(0.0, 6.2) | st.floats(0.0, PHASE_DEDUPE_TOL))
    offsets = draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d))
    return wrap(np.pi + width * np.asarray(offsets))


@st.composite
def pi_over_k_phases(draw):
    """Spread exactly pi/k, or pi/k nudged by 1e-10 either way."""
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, 8))
    spread = np.pi / k + draw(st.sampled_from([-1e-10, 0.0, 1e-10]))
    start = draw(st.floats(-np.pi, np.pi))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=d - 2, max_size=d - 2))
    return wrap(start + spread * np.concatenate(([0.0, 1.0], inner)))


@st.composite
def cos_threshold_phases(draw):
    """Pairs whose cosines differ by about 1e-8, the grouping cut in eig_unitary."""
    phi = draw(st.floats(0.1, np.pi - 0.1)) * draw(st.sampled_from([-1.0, 1.0]))
    factor = draw(st.floats(0.25, 4.0))
    partner = phi + factor * 1e-8 / abs(np.sin(phi))
    mirror = draw(st.booleans())  # -phi shares the cosine of phi exactly
    others = draw(st.lists(st.floats(-np.pi, np.pi), min_size=0, max_size=2))
    return wrap([phi, -phi if mirror else partner, *others])


@st.composite
def sub_tolerance_phases(draw):
    """Chains of phases with neighbours closer together than PHASE_DEDUPE_TOL.

    Steps are fractions of the tolerance whose partial sums stay at least
    0.05 tolerances away from it, so rounding cannot flip a merge.
    """
    centres = draw(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=3))
    phases = []
    for centre in centres:
        steps = draw(st.lists(st.sampled_from([0.3, 0.45, 0.6, 0.9]), min_size=1, max_size=2))
        phases += [centre] + [centre + PHASE_DEDUPE_TOL * t for t in np.cumsum(steps)]
    return wrap(phases[:5])


def unitary(phases, seed: int) -> np.ndarray:
    v = haar_unitary(len(phases), generator(seed))
    return (v * np.exp(1j * phases)) @ v.conj().T


def check_hull(phases, seed: int):
    w = unitary(phases, seed)
    polygon = min_overlap_r(w)
    spread = spread_by_enumeration(phases, 1)
    assert (polygon.spread == 0.0) == (spread == 0.0)
    assert polygon.spread == pytest.approx(spread, abs=2.0 * PHASE_DEDUPE_TOL)
    r = polygon.r
    # chains merged under the dedupe tolerance move each end by at most it
    assert r == pytest.approx(hull_distance(phases), abs=2.0 * PHASE_DEDUPE_TOL)
    problem = DiscriminationProblem(w, np.eye(len(phases)))
    assert (r == 0.0) == (copies_for_perfect(problem, 1) == 1)
    assert copies_for_perfect(problem, N_MAX) == copies_by_enumeration(phases, N_MAX)
    psi = optimal_pair_input(w)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
    assert abs(abs(np.vdot(psi, w @ psi)) - r) < 1e-8


SEEDS = st.integers(0, 2**32 - 1)


@PROPERTY_SETTINGS
@given(seam_phases(), SEEDS)
def test_seam(phases, seed):
    found, _ = eig_unitary(unitary(phases, seed))
    assert np.all(np.diff(found) >= 0.0)
    assert np.all((found > -np.pi) & (found <= np.pi))
    check_hull(phases, seed)


@PROPERTY_SETTINGS
@given(pi_over_k_phases(), SEEDS)
def test_spread_pi_over_k(phases, seed):
    check_hull(phases, seed)


@PROPERTY_SETTINGS
@given(cos_threshold_phases(), SEEDS)
def test_cos_grouping_threshold(phases, seed):
    check_hull(phases, seed)


@PROPERTY_SETTINGS
@given(sub_tolerance_phases(), SEEDS)
def test_phases_below_dedupe_tolerance(phases, seed):
    check_hull(phases, seed)
