import numpy as np
import pytest

from entprobe import gauss
from entprobe.gauss import (
    GaussianState,
    NoiseSpec,
    advantage_threshold,
    apply_displacement_noise,
    coherent_state,
    displace,
    epr_heterodyne,
    heterodyne,
    noise_boundaries,
    photon_budget,
    ppt_noise_boundary,
    ppt_separability,
    quadrature_variance,
    squeezed_state,
    tensor,
    tmsv_epr_variance,
    tmsv_state,
    vacuum_state,
)

from _helpers import ppt_boundary_by_bisection


def two_mode_epr_variance_by_index_sums(state: GaussianState) -> float:
    """Oracle: Var(x1 - x2) + Var(p1 + p2) spelled out entry by entry."""
    v = state.cov
    var_minus = v[0, 0] + v[2, 2] - 2.0 * v[0, 2]
    var_plus = v[1, 1] + v[3, 3] + 2.0 * v[1, 3]
    return float(var_minus + var_plus)


class TestStatePreparation:
    def test_vacuum(self):
        st = vacuum_state()
        assert np.array_equal(st.mean, np.zeros(2))
        assert np.array_equal(st.cov, 0.25 * np.eye(2))

    def test_tmsv_zero_gain_is_vacuum(self):
        st = tmsv_state(0.0)
        assert np.array_equal(st.cov, 0.25 * np.eye(4))
        assert np.array_equal(st.mean, np.zeros(4))

    def test_tmsv_epr_quadrature_variance(self):
        for x in (0.1, 1.0 / 3.0, 0.5, 0.9):
            st = tmsv_state(x)
            r = np.arctanh(x)
            var_minus = st.cov[0, 0] + st.cov[2, 2] - 2.0 * st.cov[0, 2]
            expected = (1.0 - x) / (1.0 + x)
            assert var_minus == pytest.approx(np.exp(-2.0 * r) / 2.0, abs=1e-12)
            assert var_minus == pytest.approx(expected / 2.0, abs=1e-12)

    def test_squeezed_variances(self):
        for s in (0.0, 0.4, 1.3):
            st = squeezed_state(s)
            assert quadrature_variance(st, 0, 0.0) == pytest.approx(
                0.25 * np.exp(-2.0 * s), abs=1e-14
            )
            assert quadrature_variance(st, 0, np.pi / 2) == pytest.approx(
                0.25 * np.exp(2.0 * s), abs=1e-12
            )

    def test_gain_domain(self):
        with pytest.raises(ValueError):
            tmsv_state(1.0)
        with pytest.raises(ValueError):
            tmsv_state(-1.5)

    def test_all_preparations_physical(self):
        # construction itself enforces the uncertainty bound; just build them
        vacuum_state(2)
        coherent_state(1.5 - 0.5j)
        squeezed_state(2.0, x0=1.0)
        tmsv_state(0.99)

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(np.zeros(2), 0.01 * np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(np.zeros(2), np.array([[0.25, 0.1], [0.0, 0.25]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="length"):
            GaussianState(np.zeros(6), 0.25 * np.eye(6))
        with pytest.raises(ValueError, match="match"):
            GaussianState(np.zeros(2), 0.25 * np.eye(4))
        with pytest.raises(ValueError, match="modes"):
            vacuum_state(3)
        with pytest.raises(ValueError, match="two modes"):
            tensor(vacuum_state(2), vacuum_state(1))


class TestDisplacement:
    def test_vacuum_to_coherent(self):
        alpha = 0.7 + 0.2j
        st = displace(vacuum_state(), 0, alpha)
        assert np.allclose(st.mean, [alpha.real, alpha.imag], atol=1e-15)
        assert np.array_equal(st.cov, coherent_state(alpha).cov)

    def test_covariance_untouched(self):
        st = tmsv_state(0.6)
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
        # covariances must agree bit for bit
        st = vacuum_state(2)
        twice = apply_displacement_noise(apply_displacement_noise(st, 0, 0.25), 0, 0.5)
        once = apply_displacement_noise(st, 0, 0.75)
        assert np.array_equal(twice.cov, once.cov)

    def test_composition_law_generic_values(self):
        # generic strengths can differ by one rounding of the final sum
        st = tmsv_state(0.5)
        twice = apply_displacement_noise(apply_displacement_noise(st, 0, 0.3), 0, 0.45)
        once = apply_displacement_noise(st, 0, 0.75)
        np.testing.assert_allclose(twice.cov, once.cov, rtol=1e-15, atol=0.0)

    def test_commutes_with_displacement(self):
        st = tmsv_state(0.4)
        a = apply_displacement_noise(displace(st, 0, 1.0 + 1.0j), 0, 0.6)
        b = displace(apply_displacement_noise(st, 0, 0.6), 0, 1.0 + 1.0j)
        assert np.array_equal(a.cov, b.cov)
        assert np.array_equal(a.mean, b.mean)

    def test_zero_noise_identity(self):
        st = tmsv_state(0.5)
        out = apply_displacement_noise(st, 0, 0.0)
        assert np.array_equal(out.cov, st.cov)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            apply_displacement_noise(vacuum_state(), 0, -0.1)
        with pytest.raises(ValueError):
            NoiseSpec(-0.5)

    def test_physicality_preserved(self):
        st = squeezed_state(1.5)
        for nbar in (0.1, 1.0, 10.0):
            noisy = apply_displacement_noise(st, 0, nbar)
            omega = gauss.symplectic_form(1)
            assert np.linalg.eigvalsh(noisy.cov + 0.25j * omega).min() >= -1e-10

    def test_huge_noise_stays_physical(self):
        # the uncertainty check's slack scales with the covariance
        for nbar in (1e50, 1e100, 1e155, 1e200, 1e300):
            noisy = apply_displacement_noise(tmsv_state(0.5), 0, nbar)
            apply_displacement_noise(noisy, 1, nbar)


class TestQuadratureVariance:
    def test_vacuum_flat(self):
        st = vacuum_state()
        for phi in np.linspace(0.0, 2.0 * np.pi, 9):
            assert quadrature_variance(st, 0, phi) == pytest.approx(0.25, abs=1e-14)

    def test_squeezed_interpolation_formula(self):
        s = 0.8
        st = squeezed_state(s)
        for phi in np.linspace(-0.5, 0.5, 11):
            expected = 0.25 * (
                np.exp(2.0 * s) * np.sin(phi) ** 2 + np.exp(-2.0 * s) * np.cos(phi) ** 2
            )
            assert quadrature_variance(st, 0, phi) == pytest.approx(expected, abs=1e-12)


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

    def test_mode_count_checked(self):
        with pytest.raises(ValueError):
            epr_heterodyne(vacuum_state())
        with pytest.raises(ValueError):
            heterodyne(tmsv_state(0.1))


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
        report = ppt_separability(tensor(vacuum_state(), vacuum_state()))
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
