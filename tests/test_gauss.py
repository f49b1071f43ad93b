import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entprobe
from entprobe import gauss
from entprobe.gauss import (
    MAX_SQUEEZING,
    NoiseSpec,
    OneModeProbe,
    TwoModeProbe,
    advantage_threshold,
    apply_displacement_noise,
    epr_heterodyne,
    heterodyne,
    noise_boundaries,
    photon_budget,
    ppt_noise_boundary,
    ppt_separability,
    quadrature_variance,
    squeezed_state,
    tmsv_epr_variance,
    tmsv_state,
    vacuum_state,
)

from _helpers import (
    add_noise,
    coherent_state,
    displace,
    epr_law_by_rotated_rows,
    heterodyne_law_by_rotated_rows,
    lab_edge_at_50_digits,
    lab_pt_eigenvalue_at_50_digits,
    lab_route_at_50_digits,
    lab_tmsv,
    one_mode_state,
    pair_cov,
    ppt_boundary_by_bisection,
    pt_eigenvalue_by_eigvals,
    pt_eigenvalue_by_lapack_cholesky,
    pt_eigenvalue_in_lab_frame,
    symplectic_form,
    tensor,
    to_lab,
    to_pair,
)


def two_mode_epr_variance_by_index_sums(state: TwoModeProbe) -> float:
    """Oracle: Var(x1 - x2) + Var(p1 + p2) spelled out entry by entry in the lab frame."""
    v = to_lab(state).cov
    var_minus = v[0, 0] + v[2, 2] - 2.0 * v[0, 2]
    var_plus = v[1, 1] + v[3, 3] + 2.0 * v[1, 3]
    return float(var_minus + var_plus)


class TestStatePreparation:
    def test_vacuum(self):
        st = vacuum_state()
        assert st == OneModeProbe(0.0) == squeezed_state(0.0)
        assert (st.s, st.nbar) == (0.0, 0.0)
        lab = to_lab(st)
        assert np.array_equal(lab.mean, np.zeros(2))
        assert np.array_equal(lab.cov, 0.25 * np.eye(2))

    def test_tmsv_zero_gain_is_vacuum(self):
        st = tmsv_state(0.0)
        # each pair-frame quadrature sums two vacuum quadratures
        assert np.array_equal(pair_cov(st), 0.5 * np.eye(4))
        assert (st.x, st.nbar0, st.nbar1) == (0.0, 0.0, 0.0)
        assert np.array_equal(to_lab(st).cov, 0.25 * np.eye(4))

    def test_tmsv_epr_quadrature_variance(self):
        for x in (0.1, 1.0 / 3.0, 0.5, 0.9):
            st = tmsv_state(x)
            r = np.arctanh(x)
            var_minus = pair_cov(st)[0, 0]
            expected = (1.0 - x) / (1.0 + x)
            assert var_minus == pytest.approx(np.exp(-2.0 * r) / 2.0, abs=1e-12)
            assert var_minus == pytest.approx(expected / 2.0, abs=1e-12)
            # the lab-frame cosh/sinh covariance, where these entries cancel
            np.testing.assert_allclose(to_lab(st).cov, lab_tmsv(x).cov, rtol=0.0, atol=1e-14)

    def test_squeezed_variances(self):
        for s in (0.0, 0.4, 1.3):
            st = squeezed_state(s)
            assert quadrature_variance(st, 0.0) == pytest.approx(
                0.25 * np.exp(-2.0 * s), abs=1e-14
            )
            assert quadrature_variance(st, np.pi / 2) == pytest.approx(
                0.25 * np.exp(2.0 * s), abs=1e-12
            )

    def test_gain_domain(self):
        with pytest.raises(ValueError):
            tmsv_state(1.0)
        with pytest.raises(ValueError):
            tmsv_state(-1.5)

    def test_nan_gain_rejected(self):
        for check in (
            tmsv_state,
            tmsv_epr_variance,
            ppt_noise_boundary,
            lambda x: photon_budget("tmsv", x),
        ):
            with pytest.raises(ValueError, match="below 1"):
                check(float("nan"))

    def test_all_preparations_physical(self):
        # the dense one-mode constructor enforces the uncertainty bound; just build them
        tmsv_state(0.0)
        to_pair(coherent_state(1.5 - 0.5j))
        to_lab(squeezed_state(2.0))
        tmsv_state(0.99)

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            one_mode_state(np.zeros(2), 0.01 * np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            one_mode_state(np.zeros(2), np.array([[0.25, 0.1], [0.0, 0.25]]))

    def test_negative_variance_beside_a_huge_one_rejected(self):
        # the uncertainty slack scales with the largest eigenvalue, 0.1 here, so the -0.01
        # variance passes it and the Cholesky test refuses it
        with pytest.raises(ValueError, match="positive definite"):
            one_mode_state(np.zeros(2), np.diag([-0.01, 1e9]))
        # the two-mode probe carries no variance of its own, and negative noise is refused
        with pytest.raises(ValueError, match="nonnegative"):
            apply_displacement_noise(tmsv_state(0.5), 1, -0.01)

    @pytest.mark.parametrize(
        "mean, cov",
        [
            (np.zeros(2), np.full((2, 2), np.nan)),
            (np.zeros(2), np.array([[0.25, 0.0], [0.0, np.nan]])),
            (np.array([np.nan, 0.0]), 0.25 * np.eye(2)),
            (np.array([0.0, np.inf]), 0.25 * np.eye(2)),
        ],
    )
    def test_non_finite_state_rejected(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            one_mode_state(mean, cov)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="length"):
            one_mode_state(np.zeros(6), 0.25 * np.eye(6))
        with pytest.raises(ValueError, match="tmsv_state"):
            one_mode_state(np.zeros(4), 0.5 * np.eye(4))
        with pytest.raises(ValueError, match="match"):
            one_mode_state(np.zeros(2), 0.25 * np.eye(4))
        with pytest.raises(ValueError, match="two modes"):
            tensor(to_lab(tmsv_state(0.0)), vacuum_state())


# Squeezing values outside the library's domain |s| <= MAX_SQUEEZING.
OUT_OF_RANGE_SQUEEZING = (
    float("nan"),
    float("inf"),
    -float("inf"),
    400.0,
    -400.0,
    math.nextafter(MAX_SQUEEZING, math.inf),
    -math.nextafter(MAX_SQUEEZING, math.inf),
)


class TestOneModeProbe:
    """The one-mode probe is the two floats (s, nbar), checked on construction only."""

    @pytest.mark.parametrize("s", OUT_OF_RANGE_SQUEEZING)
    def test_squeezing_outside_the_domain_refused(self, s):
        message = rf"^squeezing must satisfy \|s\| <= {MAX_SQUEEZING}, got {s}$"
        for build in (OneModeProbe, squeezed_state, lambda s: photon_budget("squeezed", s)):
            with pytest.raises(ValueError, match=message):
                build(s)

    @pytest.mark.parametrize("s", (MAX_SQUEEZING, -MAX_SQUEEZING))
    def test_largest_squeezing_stays_finite(self, s):
        assert MAX_SQUEEZING == math.log(np.finfo(float).max) / 2.0
        phis = np.linspace(-np.pi, np.pi, 33)
        for g in (squeezed_state(s), OneModeProbe(s, 1e308)):
            assert np.all(np.isfinite(quadrature_variance(g, phis)))
            assert all(map(math.isfinite, gauss._xp_variances(g)))
        assert math.isfinite(heterodyne(squeezed_state(s), 1.0 - 2.0j, NoiseSpec(1e300)).variance)
        assert math.isfinite(photon_budget("squeezed", s))

    def test_fields_are_checked_floats(self):
        g = OneModeProbe(np.float64(0.5), 2)
        assert (type(g.s), type(g.nbar)) == (float, float)
        for nbar in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="nonnegative"):
                OneModeProbe(0.5, nbar)
        with pytest.raises(TypeError):
            squeezed_state(1.0, 1.0)

    def test_noise_adds_photons(self):
        g = apply_displacement_noise(squeezed_state(-0.7), 0, 0.3)
        assert g == OneModeProbe(-0.7, 0.3)
        assert apply_displacement_noise(g, 0, 0.45).nbar == 0.3 + 0.45
        for mode in (-1, 1):
            with pytest.raises(ValueError, match="out of range"):
                apply_displacement_noise(g, mode, 0.1)
        # each step is finite, but the photons they add overflow
        with pytest.raises(ValueError, match=r"^noise photon number must be finite and nonnegative, got inf$"):
            apply_displacement_noise(OneModeProbe(0.0, 1e308), 0, 1e308)

    def test_closed_forms_at_pinned_values(self):
        # the stability scan's squeezed column at s = 2 and its photon count, bit for bit
        g = squeezed_state(2.0)
        assert quadrature_variance(g, 0.0) == np.exp(-4.0) * 0.25
        assert gauss._xp_variances(g) == (float(np.exp(-4.0)) / 4.0, float(np.exp(4.0)) / 4.0)
        assert photon_budget("squeezed", 2.0) == 13.154116418008241
        law = heterodyne(OneModeProbe(0.0, 0.5), 0.25 - 1.0j, NoiseSpec(0.7))
        assert law == gauss.HeterodyneLaw(0.25 - 1.0j, 0.25 + 0.25 + 0.5 + 0.5 + 0.7)

    def test_not_exported(self):
        # like the two-mode probe, the one-mode probe is reached through its constructors
        assert not hasattr(entprobe, "OneModeProbe") and not hasattr(entprobe, "TwoModeProbe")
        assert not hasattr(entprobe, "GaussianState") and not hasattr(gauss, "GaussianState")


def _ulps(got: float, exact: Fraction) -> float:
    """Distance of a float from an exact value, in units of the exact value's last place."""
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


# The one-mode family of the oracle tests: squeezing either way, noiseless or noisy far above.
SQUEEZING = st.floats(-20.0, 20.0)
ONE_MODE_NBAR = st.just(0.0) | st.floats(1e-3, 1e300)


class TestOneModeAgainstDenseRoute:
    """The closed forms in (s, nbar) against the dense constructor of ``_helpers``, which
    squeezes the vacuum covariance by two matrix products, checks it, and is read in exact
    rational arithmetic."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(s=SQUEEZING, nbar=ONE_MODE_NBAR, phi=st.floats(-np.pi, np.pi))
    def test_quadrature_variance(self, s, nbar, phi):
        g = OneModeProbe(s, nbar)
        cov = [[Fraction(v) for v in row] for row in to_lab(g).cov.tolist()]
        row = (Fraction(math.cos(phi)), Fraction(math.sin(phi)))
        exact = sum(row[i] * cov[i][j] * row[j] for i in range(2) for j in range(2))
        assert _ulps(quadrature_variance(g, phi), exact) <= 8.0, (s, nbar, phi)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        s=SQUEEZING,
        nbar=ONE_MODE_NBAR,
        extra=ONE_MODE_NBAR,
        re=st.floats(-1e3, 1e3),
        im=st.floats(-1e3, 1e3),
    )
    def test_heterodyne(self, s, nbar, extra, re, im):
        g, alpha = OneModeProbe(s, nbar), complex(re, im)
        law = heterodyne(g, alpha, NoiseSpec(extra))
        expected = heterodyne_law_by_rotated_rows(g, alpha, extra)
        assert law.mean == expected.mean == alpha
        assert _ulps(law.variance, Fraction(expected.variance)) <= 8.0, (s, nbar, extra)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(s=SQUEEZING | st.sampled_from((MAX_SQUEEZING, -MAX_SQUEEZING)), nbar=ONE_MODE_NBAR)
    def test_library_probes_meet_the_uncertainty_bound(self, s, nbar):
        # cov + (i/4) Omega >= 0, by the checks the dense constructor makes, on the variances
        # the readouts use, for the probe as built and as reached through the channel
        for g in (OneModeProbe(s, nbar), apply_displacement_noise(squeezed_state(s), 0, nbar)):
            var_x, var_p = gauss._xp_variances(g)
            one_mode_state(np.zeros(2), np.diag([var_x, var_p]))
            assert Fraction(var_x) * Fraction(var_p) >= Fraction(1, 16) * (1 - Fraction(2, 2**52))


class TestDisplacement:
    def test_vacuum_to_coherent(self):
        alpha = 0.7 + 0.2j
        st = displace(vacuum_state(), 0, alpha)
        assert np.allclose(st.mean, [alpha.real, alpha.imag], atol=1e-15)
        assert np.array_equal(st.cov, coherent_state(alpha).cov)

    def test_covariance_untouched(self):
        st = lab_tmsv(0.6)
        assert np.array_equal(displace(st, 1, 2.0 - 1.0j).cov, st.cov)

    def test_additivity(self):
        a, b = 0.3 + 0.4j, -1.1 + 0.25j
        st1 = displace(displace(vacuum_state(), 0, a), 0, b)
        st2 = displace(vacuum_state(), 0, a + b)
        assert np.allclose(st1.mean, st2.mean, atol=1e-15)

    def test_mode_range(self):
        with pytest.raises(ValueError):
            displace(vacuum_state(), 1, 1.0)


class TestDisplacementNoise:
    def test_composition_law_bitwise_on_representable_values(self):
        # dyadic strengths keep both addition orders exact, so the compared
        # probes must agree bit for bit
        for st in (tmsv_state(0.0), vacuum_state(), squeezed_state(0.7)):
            twice = apply_displacement_noise(apply_displacement_noise(st, 0, 0.25), 0, 0.5)
            once = apply_displacement_noise(st, 0, 0.75)
            assert twice == once

    def test_composition_law_generic_values(self):
        # generic strengths can differ by one rounding of the final sum
        st = tmsv_state(0.5)
        twice = apply_displacement_noise(apply_displacement_noise(st, 0, 0.3), 0, 0.45)
        once = apply_displacement_noise(st, 0, 0.75)
        np.testing.assert_allclose(pair_cov(twice), pair_cov(once), rtol=1e-15, atol=0.0)

    def test_commutes_with_displacement(self):
        # the probe holds no mean, so both orders meet in the lab frame: the displacement and
        # the noise of one order are lab-frame oracles, the noise of the other is the library's
        st = tmsv_state(0.4)
        a = add_noise(displace(to_lab(st), 0, 1.0 + 1.0j), 0, 0.6)
        b = displace(to_lab(apply_displacement_noise(st, 0, 0.6)), 0, 1.0 + 1.0j)
        np.testing.assert_allclose(a.cov, b.cov, rtol=1e-15, atol=1e-15)
        assert np.array_equal(a.mean, b.mean)

    @pytest.mark.parametrize("mode", (-1, 2))
    def test_two_mode_probe_refuses_a_third_mode(self, mode):
        with pytest.raises(ValueError, match="out of range"):
            apply_displacement_noise(tmsv_state(0.5), mode, 0.1)

    def test_zero_noise_identity(self):
        for st in (tmsv_state(0.5), squeezed_state(-1.5)):
            assert apply_displacement_noise(st, 0, 0.0) == st

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            apply_displacement_noise(vacuum_state(), 0, -0.1)
        with pytest.raises(ValueError):
            NoiseSpec(-0.5)

    def test_nan_noise_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            apply_displacement_noise(vacuum_state(), 0, float("nan"))
        with pytest.raises(ValueError, match="nonnegative"):
            NoiseSpec(float("nan"))

    def test_infinite_noise_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(float("inf"))
        with pytest.raises(ValueError, match="finite"):
            apply_displacement_noise(vacuum_state(), 0, float("inf"))

    def test_physicality_preserved(self):
        st = squeezed_state(1.5)
        for nbar in (0.1, 1.0, 10.0):
            noisy = apply_displacement_noise(st, 0, nbar)
            assert noisy == OneModeProbe(1.5, nbar)
            omega = symplectic_form(1)
            assert np.linalg.eigvalsh(to_lab(noisy).cov + 0.25j * omega).min() >= -1e-10

    def test_accumulated_noise_must_stay_finite(self):
        # each step is finite, but the photons they add on one mode overflow
        noisy = apply_displacement_noise(tmsv_state(0.5), 0, 1e308)
        with pytest.raises(ValueError, match=r"^noise photon number must be finite and nonnegative, got inf$"):
            apply_displacement_noise(noisy, 0, 1e308)
        assert apply_displacement_noise(noisy, 1, 1e308).nbar1 == 1e308

    def test_huge_noise_stays_physical(self):
        # the uncertainty check's slack scales with the covariance
        for nbar in (1e50, 1e100, 1e155, 1e200, 1e300):
            noisy = apply_displacement_noise(tmsv_state(0.5), 0, nbar)
            apply_displacement_noise(noisy, 1, nbar)


class TestQuadratureVariance:
    def test_vacuum_flat(self):
        st = vacuum_state()
        for phi in np.linspace(0.0, 2.0 * np.pi, 9):
            assert quadrature_variance(st, phi) == pytest.approx(0.25, abs=1e-14)

    def test_squeezed_interpolation_formula(self):
        s = 0.8
        st = squeezed_state(s)
        for phi in np.linspace(-0.5, 0.5, 11):
            expected = 0.25 * (
                np.exp(2.0 * s) * np.sin(phi) ** 2 + np.exp(-2.0 * s) * np.cos(phi) ** 2
            )
            assert quadrature_variance(st, phi) == pytest.approx(expected, abs=1e-12)

    def test_two_mode_state_refused(self):
        # pair-frame entries are no lab quadrature, so no mode of a 2-mode state is read
        with pytest.raises(ValueError, match="1-mode"):
            quadrature_variance(tmsv_state(0.5), 0.0)


class TestHeterodyne:
    def test_tmsv_noiseless_law(self):
        for x in (0.2, 0.5, 0.8):
            law = epr_heterodyne(tmsv_state(x))
            assert law.variance == pytest.approx(tmsv_epr_variance(x), abs=1e-12)
            assert law.mean == 0.0

    def test_epr_variance_against_index_sum_oracle(self):
        st = tmsv_state(1.0 / 3.0)
        assert two_mode_epr_variance_by_index_sums(st) == pytest.approx(0.5, abs=1e-12)
        assert epr_heterodyne(st).variance == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_probe_unit_variance(self):
        law = heterodyne(vacuum_state())
        assert law.variance == pytest.approx(1.0, abs=1e-12)

    def test_entangled_noise_accounting(self):
        x, nbar = 0.6, 0.8
        law = epr_heterodyne(tmsv_state(x), alpha=1.0 + 0.5j, noise=NoiseSpec(nbar))
        assert law.variance == pytest.approx(tmsv_epr_variance(x) + 2.0 * nbar, abs=1e-12)
        assert law.mean == pytest.approx(1.0 + 0.5j, abs=1e-12)

    def test_unentangled_noise_accounting(self):
        law = heterodyne(vacuum_state(), alpha=0.3, noise=NoiseSpec(0.7))
        assert law.variance == pytest.approx(1.7, abs=1e-12)
        assert law.mean == pytest.approx(0.3 + 0.0j, abs=1e-12)

    def test_phase_flat_to_machine_precision(self):
        st = tmsv_state(0.7)
        baseline = epr_heterodyne(st).variance
        for phi in np.linspace(-np.pi, np.pi, 17):
            assert abs(epr_heterodyne(st, phi=phi).variance - baseline) < 1e-12

    def test_rotated_pair_reports_in_fixed_frame(self):
        alpha = 0.8 - 0.3j
        law = epr_heterodyne(tmsv_state(0.5), alpha=alpha, phi=0.7)
        assert law.mean == pytest.approx(alpha, abs=1e-12)

    def test_variance_strictly_decreasing_in_gain(self):
        xs = np.linspace(0.0, 0.95, 12)
        variances = [epr_heterodyne(tmsv_state(x)).variance for x in xs]
        assert np.all(np.diff(variances) < 0.0)

    def test_overflowing_variance_refused(self):
        # 2 nbar and the noise photons on the modes each overflow a finite sum to inf
        overflow = r"^the outcome variance overflows: the noise photon numbers are too large$"
        with pytest.raises(ValueError, match=overflow):
            epr_heterodyne(tmsv_state(0.5), 0, NoiseSpec(1e308))
        with pytest.raises(ValueError, match=overflow):
            epr_heterodyne(_noisy_probe(0.5, 1e308))
        with pytest.raises(ValueError, match=overflow):
            heterodyne(apply_displacement_noise(vacuum_state(), 0, 1.5e308), 0, NoiseSpec(1e308))
        assert epr_heterodyne(tmsv_state(0.5), 0, NoiseSpec(8e307)).variance == 1.6e308

    def test_mode_count_checked(self):
        with pytest.raises(ValueError, match="needs a 2-mode state, got OneModeProbe"):
            epr_heterodyne(vacuum_state())
        with pytest.raises(ValueError, match="needs a 1-mode state, got TwoModeProbe"):
            heterodyne(tmsv_state(0.1))


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _random_local_symplectic(rng) -> np.ndarray:
    """A phase rotation after a squeezer of up to one e-fold, on one mode."""
    r = rng.uniform(-1.0, 1.0)
    return _rotation(rng.uniform(-np.pi, np.pi)) @ np.diag([np.exp(-r), np.exp(r)])


def random_noisy_two_mode_state(rng) -> TwoModeProbe:
    """The two-mode probe at a random gain with random noise on each mode; one mode is
    noiseless in a third of the draws."""
    nbars = rng.uniform(0.0, 3.0, size=2)
    if rng.random() < 1.0 / 3.0:
        nbars[rng.integers(2)] = 0.0
    return TwoModeProbe(rng.uniform(-0.95, 0.95), *nbars.tolist())


def random_noisy_one_mode_state(rng) -> OneModeProbe:
    """The one-mode probe squeezed by up to two e-folds either way with random noise; it is
    noiseless in a third of the draws."""
    nbar = 0.0 if rng.random() < 1.0 / 3.0 else float(rng.uniform(0.0, 3.0))
    return OneModeProbe(rng.uniform(-2.0, 2.0), nbar)


class TestLawAgainstRotatedRows:
    """The moment read-off against the state-building route of ``_helpers``."""

    CASES = 200

    def draws(self, seed: int):
        rng = np.random.default_rng(seed)
        for k in range(self.CASES):
            alpha = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
            # the ends of both ranges are drawn on purpose
            nbar = (0.0, 2.0)[k] if k < 2 else float(rng.uniform(0.0, 2.0))
            phi = (-np.pi, np.pi)[k] if k < 2 else float(rng.uniform(-np.pi, np.pi))
            yield rng, alpha, nbar, phi

    def test_epr_law(self):
        for rng, alpha, nbar, phi in self.draws(1001):
            g = random_noisy_two_mode_state(rng)
            law = epr_heterodyne(g, alpha, NoiseSpec(nbar), phi)
            expected = epr_law_by_rotated_rows(g, alpha, nbar, phi)
            assert abs(law.mean - expected.mean) <= 1e-12
            assert abs(law.variance - expected.variance) <= 1e-12

    def test_heterodyne_law(self):
        for rng, alpha, nbar, _ in self.draws(1002):
            g = random_noisy_one_mode_state(rng)
            law = heterodyne(g, alpha, NoiseSpec(nbar))
            expected = heterodyne_law_by_rotated_rows(g, alpha, nbar)
            assert abs(law.mean - expected.mean) <= 1e-12
            assert abs(law.variance - expected.variance) <= 1e-12

    def test_phase_is_not_an_input_of_the_law(self):
        rng = np.random.default_rng(1003)
        g = random_noisy_two_mode_state(rng)
        phis = np.linspace(-np.pi, np.pi, 33)
        laws = {epr_heterodyne(g, 0.3 - 1.2j, NoiseSpec(0.4), phi) for phi in phis}
        assert len(laws) == 1


class TestPairFrame:
    """The pair-frame state against the lab-frame oracles it replaced."""

    def test_noise_update_matches_lab_channel(self):
        rng = np.random.default_rng(1004)
        for _ in range(50):
            g = random_noisy_two_mode_state(rng)
            nbar = float(rng.uniform(0.0, 3.0))
            for mode in (0, 1):
                expected = to_pair(add_noise(to_lab(g), mode, nbar))
                got = apply_displacement_noise(g, mode, nbar)
                np.testing.assert_allclose(pair_cov(got), expected.cov, rtol=0.0, atol=1e-12)

    def test_equal_noise_on_both_modes_adds_nbar_identity(self):
        for x in (0.0, 0.5, -0.9, 1.0 - 1e-12):
            st = tmsv_state(x)
            for nbar in (0.3, 1.0, 10.0):
                noisy = pair_cov(_noisy_probe(x, nbar))
                assert np.array_equal(noisy - np.diag(np.diag(noisy)), np.zeros((4, 4)))
                np.testing.assert_allclose(np.diag(noisy), np.diag(pair_cov(st)) + nbar, rtol=1e-15)

    def test_partial_transpose_matches_lab_flip(self):
        rng = np.random.default_rng(1005)
        for _ in range(200):
            g = random_noisy_two_mode_state(rng)
            nu = ppt_separability(g).min_pt_symplectic_eigenvalue
            assert nu == pytest.approx(pt_eigenvalue_in_lab_frame(g), rel=1e-10)

    def test_uncertainty_check_matches_lab_bound(self):
        # every probe the library builds meets the lab bound cov + (i/4) Omega >= 0, and the
        # negative noise that would take a probe past it is refused
        quarter_i_form = 0.25j * symplectic_form(2)
        rng = np.random.default_rng(1009)
        for _ in range(200):
            lab = to_lab(random_noisy_two_mode_state(rng)).cov
            assert np.linalg.eigvalsh(lab + quarter_i_form).min() >= -1e-14 * np.abs(lab).max()
        for x in (0.0, 0.5, -0.9):
            too_quiet = add_noise(to_lab(tmsv_state(x)), 0, -1e-4).cov
            assert np.linalg.eigvalsh(too_quiet + quarter_i_form).min() < -1e-6
            with pytest.raises(ValueError, match="nonnegative"):
                apply_displacement_noise(tmsv_state(x), 0, -1e-4)


def _relative_error(got: float, expected) -> float:
    return float(abs((got - expected) / expected))


def _noisy_probe(x: float, nbar: float) -> TwoModeProbe:
    return apply_displacement_noise(apply_displacement_noise(tmsv_state(x), 0, nbar), 1, nbar)


class TestAgainstLabRouteAt50Digits:
    """Every two-mode readout within a relative 1e-12 of the lab-frame cosh/sinh route
    evaluated at 50 digits, up to |x| = 1 - 10^-15, where that route cancels in floats."""

    NBARS = (0.0, 1e-3, 0.3, 1.0, 10.0)

    def assert_readouts_match(self, x: float, nbar: float):
        oracle = lab_route_at_50_digits(x, nbar)
        g = _noisy_probe(x, nbar)
        for variance in (
            epr_heterodyne(g).variance,
            epr_heterodyne(tmsv_state(x), noise=NoiseSpec(nbar)).variance,
        ):
            assert _relative_error(variance, oracle.epr_variance) <= 1e-12, (x, nbar)
        nu = ppt_separability(g).min_pt_symplectic_eigenvalue
        assert _relative_error(nu, oracle.pt_eigenvalue) <= 1e-12, (x, nbar)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("k", range(1, 16))
    def test_high_gain_grid(self, k, sign):
        x = sign * (1.0 - 10.0**-k)
        for nbar in self.NBARS:
            self.assert_readouts_match(x, nbar)
        edge = lab_edge_at_50_digits(x)
        assert _relative_error(ppt_noise_boundary(x), edge) <= 1e-12
        assert _relative_error(noise_boundaries(x).ppt_nbar, edge) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(1, 15), negative=st.booleans(), nbar=st.floats(0.0, 10.0))
    def test_any_noise_up_to_ten_photons(self, k, negative, nbar):
        x = (1.0 - 10.0**-k) * (-1.0 if negative else 1.0)
        self.assert_readouts_match(x, nbar)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    @pytest.mark.parametrize("k", range(1, 16))
    def test_pt_eigenvalue_with_unequal_noise(self, k, sign):
        # unequal noise couples the 1/Delta^2-sized and Delta^2-sized pair entries
        x = sign * (1.0 - 10.0**-k)
        # and noise on one mode alone, or on both, runs up to 1e300 photons
        pairs = ((0.0, 0.0), (0.5, 0.5), (0.3, 0.1), (2.0, 0.0), (0.0, 7.0), (1e-3, 10.0))
        one_mode = tuple(pair for nbar in (1e3, 1e14, 1e100, 1e300) for pair in ((nbar, 0.0), (0.0, nbar)))
        both = ((1e14, 1e14), (1e160, 1e160), (1e300, 1e300), (1e300, 1e-3))
        for nbar0, nbar1 in pairs + one_mode + both:
            nu = ppt_separability(TwoModeProbe(x, nbar0, nbar1)).min_pt_symplectic_eigenvalue
            oracle = lab_pt_eigenvalue_at_50_digits(x, nbar0, nbar1)
            assert _relative_error(nu, oracle) <= 1e-14, (x, nbar0, nbar1)

    @pytest.mark.parametrize("k", range(1, 16))
    def test_threshold_and_photons_at_both_ends(self, k):
        for x in (10.0**-k, 1.0 - 10.0**-k, -(10.0**-k)):
            oracle = lab_route_at_50_digits(x, 0.0)
            assert _relative_error(advantage_threshold(x), 1 - oracle.epr_variance) <= 1e-12, x
            assert _relative_error(noise_boundaries(x).advantage_nbar, 1 - oracle.epr_variance) <= 1e-12
            assert _relative_error(photon_budget("tmsv", x), oracle.photons) <= 1e-12, x

    def test_advantage_threshold_is_twice_the_edge(self):
        for x in (1e-12, 1e-8, 0.2, 0.5, 0.8, 1.0 - 1e-15):
            assert advantage_threshold(x) == 2.0 * ppt_noise_boundary(x)


class TestClosedFormsAgree:
    """The PT eigenvalue, the separability edge and the EPR variance are three closed forms
    of one noisy probe: with equal noise n the PT eigenvalue is Delta^2/4 + n/2, it crosses
    1/4 at ``ppt_noise_boundary``, and every noise photon adds 1 to the EPR variance."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 15),
        negative=st.booleans(),
        nbar=st.floats(0.0, 1e300) | st.floats(0.0, 1.0),
        nbar0=st.floats(0.0, 1e300),
        nbar1=st.floats(0.0, 1e300),
    )
    def test_pt_eigenvalue_edge_and_epr_variance(self, k, negative, nbar, nbar0, nbar1):
        x = (1.0 - 10.0**-k) * (-1.0 if negative else 1.0)
        report = ppt_separability(_noisy_probe(x, nbar))
        gain = Fraction(abs(x))
        exact = (1 - gain) / (1 + gain) / 4 + Fraction(nbar) / 2
        assert _relative_error(Fraction(report.min_pt_symplectic_eigenvalue), exact) <= 1e-15
        edge = ppt_noise_boundary(x)
        if nbar >= edge:
            assert report.separable
        if nbar <= edge - 4.0 * gauss.PPT_ATOL:
            assert not report.separable
        law = epr_heterodyne(TwoModeProbe(x, nbar0, nbar1), noise=NoiseSpec(nbar))
        assert law.variance == tmsv_epr_variance(x) + nbar0 + nbar1 + 2.0 * nbar


class TestAdvantageThreshold:
    def test_vacuum_gain_no_advantage(self):
        assert advantage_threshold(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_tanh_one(self):
        assert advantage_threshold(np.tanh(1.0)) == pytest.approx(
            1.0 - np.exp(-2.0), abs=1e-12
        )

    def test_limit_approaches_one_photon(self):
        thresholds = [advantage_threshold(x) for x in (0.9, 0.99, 0.999, 0.9999)]
        assert np.all(np.diff(thresholds) > 0.0)
        assert thresholds[-1] > 0.9998

    def test_crossover_equalizes_both_schemes(self):
        x = 0.5
        nbar = advantage_threshold(x)
        entangled = epr_heterodyne(tmsv_state(x), noise=NoiseSpec(nbar)).variance
        unentangled = heterodyne(vacuum_state(), noise=NoiseSpec(nbar)).variance
        assert entangled == pytest.approx(unentangled, abs=1e-12)


class TestSeparability:
    def test_two_mode_vacuum_separable(self):
        vacuum = tmsv_state(0.0)
        assert np.array_equal(to_lab(vacuum).cov, tensor(vacuum_state(), vacuum_state()).cov)
        report = ppt_separability(vacuum)
        assert report.separable
        assert report.min_pt_symplectic_eigenvalue == pytest.approx(0.25, abs=1e-12)

    def test_tmsv_entangled_with_closed_form_eigenvalue(self):
        for x in (0.2, 0.5, 0.8):
            r = np.arctanh(x)
            report = ppt_separability(tmsv_state(x))
            assert not report.separable
            assert report.min_pt_symplectic_eigenvalue == pytest.approx(
                np.exp(-2.0 * r) / 4.0, abs=1e-12
            )

    def test_noise_boundary_matches_closed_form(self):
        for x in (0.2, 0.5, 0.8, 0.95):
            r = np.arctanh(x)
            expected = (1.0 - np.exp(-2.0 * r)) / 2.0
            assert ppt_noise_boundary(x) == pytest.approx(expected, abs=1e-10)

    def test_noise_boundary_matches_bisection(self):
        grid = np.linspace(0.01, 0.99, 25)
        for x in [0.0, *grid, *-grid]:
            expected = ppt_boundary_by_bisection(x)
            assert ppt_noise_boundary(x) == pytest.approx(expected, abs=1e-11), x

    def test_noise_boundary_below_half_near_unit_gain(self):
        # where cosh and sinh of the gain nearly cancel, the edge must still stay below 1/2
        edges = [noise_boundaries(1.0 - 10.0**-k).ppt_nbar for k in range(1, 16)]
        assert all(edge < 0.5 for edge in edges)
        assert all(b >= a for a, b in zip(edges, edges[1:]))

    def test_noise_boundary_edge_inputs(self):
        assert ppt_noise_boundary(0.0) == 0.0
        with pytest.raises(ValueError):
            ppt_noise_boundary(1.0)

    def test_boundary_state_sits_on_the_edge(self):
        x = 0.5
        nbar = ppt_noise_boundary(x)
        st = apply_displacement_noise(
            apply_displacement_noise(tmsv_state(x), 0, nbar), 1, nbar
        )
        assert ppt_separability(st).min_pt_symplectic_eigenvalue == pytest.approx(
            0.25, abs=1e-10
        )

    def test_boundaries_reported_side_by_side(self):
        bounds = noise_boundaries(0.5)
        assert bounds.advantage_nbar == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert bounds.ppt_nbar == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_wrong_mode_count(self):
        with pytest.raises(ValueError):
            ppt_separability(vacuum_state())

    def test_matches_eigvals_route_at_moderate_gain(self):
        for x in np.linspace(-0.9, 0.9, 19):
            for nbar0, nbar1 in ((0.0, 0.0), (0.3, 0.1), (2.0, 0.0), (0.0, 7.0)):
                g = apply_displacement_noise(apply_displacement_noise(tmsv_state(x), 0, nbar0), 1, nbar1)
                nu = ppt_separability(g).min_pt_symplectic_eigenvalue
                assert nu == pytest.approx(pt_eigenvalue_by_eigvals(g), rel=1e-10), (x, nbar0, nbar1)
        rng = np.random.default_rng(1006)
        for _ in range(200):
            g = random_noisy_two_mode_state(rng)
            nu = ppt_separability(g).min_pt_symplectic_eigenvalue
            assert nu == pytest.approx(pt_eigenvalue_by_eigvals(g), rel=1e-10)

    @pytest.mark.parametrize(
        "x, nbar", ((0.5, 1e17), (0.5, 1e100), (0.5, 1e200), (0.1, 1e14), (0.5, 1e14), (0.9, 1e14))
    )
    def test_one_mode_noise_far_above_the_probe(self, x, nbar):
        # the noise rounds every finite pair-frame variance away, and the closed form never
        # reads them: nu_- tends to (1 + x^2)/(4 (1 - x^2)) from the 1/16 + A nbar/2 term
        oracle = lab_pt_eigenvalue_at_50_digits(x, nbar, 0.0)
        for mode in (0, 1):
            nu = ppt_separability(apply_displacement_noise(tmsv_state(x), mode, nbar))
            assert _relative_error(nu.min_pt_symplectic_eigenvalue, oracle) <= 1e-14, mode
            assert nu.separable

    @pytest.mark.parametrize("nbar", (1e160, 1e300))
    def test_equal_noise_near_the_float_limit_stays_finite(self, nbar):
        nu = ppt_separability(_noisy_probe(0.5, nbar)).min_pt_symplectic_eigenvalue
        assert _relative_error(nu, lab_pt_eigenvalue_at_50_digits(0.5, nbar, nbar)) <= 1e-14
        assert nu == nbar / 2.0

    def test_pure_product_states_sit_on_the_edge(self):
        # at zero gain with one mode noiseless, nu_- = 1/4 whatever the other mode's noise;
        # with no noise at all both PT eigenvalues equal 1/4, where sqrt(D^2 - 4 det) would
        # lose half the digits
        rng = np.random.default_rng(1007)
        nbars = [0.0, 1e-300, *(10.0 ** rng.uniform(-20.0, 300.0, 300)).tolist()]
        for nbar in nbars:
            for state in (TwoModeProbe(0.0, 0.0, nbar), TwoModeProbe(-0.0, nbar, 0.0)):
                report = ppt_separability(state)
                assert report.separable
                assert abs(report.min_pt_symplectic_eigenvalue - 0.25) <= 1e-15, nbar


class TestAgainstLapackCholesky:
    """The closed-form factor against ``np.linalg.cholesky`` and two 4 x 4 products, which
    round in another order: the same report within a relative 1e-13."""

    def assert_reports_match(self, g: TwoModeProbe):
        report, oracle = ppt_separability(g), pt_eigenvalue_by_lapack_cholesky(g)
        assert report.separable == oracle.separable
        nu, expected = report.min_pt_symplectic_eigenvalue, oracle.min_pt_symplectic_eigenvalue
        assert _relative_error(nu, expected) <= 1e-13, (g, nu, expected)

    def test_dense_noisy_states(self):
        rng = np.random.default_rng(1008)
        for _ in range(2000):
            g = random_noisy_two_mode_state(rng)
            # unequal noise couples each difference to its sum, so the factor is not diagonal
            assert (np.linalg.cholesky(pair_cov(g))[2, 0] != 0.0) == (g.nbar0 != g.nbar1)
            self.assert_reports_match(g)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 15),
        negative=st.booleans(),
        nbar0=st.floats(0.0, 10.0),
        nbar1=st.floats(0.0, 10.0),
    )
    def test_noisy_probe_at_high_gain(self, k, negative, nbar0, nbar1):
        x = (1.0 - 10.0**-k) * (-1.0 if negative else 1.0)
        self.assert_reports_match(
            apply_displacement_noise(apply_displacement_noise(tmsv_state(x), 0, nbar0), 1, nbar1)
        )


class TestPhotonBudget:
    def test_free_probes(self):
        assert photon_budget("vacuum") == 0.0
        assert photon_budget("squeezed", 0.0) == 0.0
        assert photon_budget("tmsv", 0.0) == 0.0

    def test_squeezing_photons(self):
        for s in (0.5, 1.0, 2.0):
            assert photon_budget("squeezed", s) == pytest.approx(np.sinh(s) ** 2, abs=1e-12)

    def test_downconversion_photons(self):
        for r in (0.3, 1.0):
            x = np.tanh(r)
            assert photon_budget("tmsv", x) == pytest.approx(
                2.0 * np.sinh(r) ** 2, abs=1e-10
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            photon_budget("thermal", 1.0)
