import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entprobe import mc
from entprobe.discrim import DiscriminationProblem, optimal_pair_input
from entprobe.gauss import NoiseSpec, tmsv_epr_variance
from entprobe.linops import ProbeState
from entprobe.mc import (
    MAX_TRIALS,
    TrialReport,
    sample_helstrom,
    sample_heterodyne,
    stability_scan,
    trial_uniforms,
)

from _helpers import (
    heterodyne_by_whole_array,
    helstrom_by_whole_array,
    one_draw_uniforms,
    stability_by_loop,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
QUARTER_TURN = np.diag([1.0, np.exp(1j * np.pi / 2)])


class TestSubstreams:
    def test_uniforms_in_half_open_unit_interval(self):
        u = trial_uniforms(3, 10_000, 2)
        assert u.shape == (10_000, 2)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_deterministic_given_seed(self):
        assert np.array_equal(trial_uniforms(9, 500, 3), trial_uniforms(9, 500, 3))
        assert not np.array_equal(trial_uniforms(9, 500, 3), trial_uniforms(10, 500, 3))

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError, match="64 bits"):
            trial_uniforms(-1, 10, 2)
        with pytest.raises(ValueError, match="64 bits"):
            trial_uniforms(2**64, 10, 2)
        trial_uniforms(2**64 - 1, 10, 2)

    def test_trial_prefix_stability(self):
        # trial i owns a fixed stream slice: a shorter run is a prefix
        long = trial_uniforms(4, 1000, 2)
        short = trial_uniforms(4, 600, 2)
        assert np.array_equal(long[:600], short)

    def test_box_muller_moments(self):
        g1, g2 = mc._box_muller(trial_uniforms(17, 200_000, 2))
        for g in (g1, g2):
            assert abs(np.mean(g)) < 0.01
            assert abs(np.var(g) - 1.0) < 0.02


class TestSampleHelstrom:
    def test_orthogonal_outputs_never_err(self):
        problem = DiscriminationProblem(SZ, SX)
        report = sample_helstrom(problem, ProbeState.maximally_entangled(2), 5000, 21)
        assert report.empirical == 0.0
        assert report.analytic == pytest.approx(0.0, abs=1e-12)
        assert report.z_score == 0.0

    def test_quarter_turn_statistics(self):
        problem = DiscriminationProblem(QUARTER_TURN, I2)
        psi = optimal_pair_input(QUARTER_TURN)
        report = sample_helstrom(problem, psi, 100_000, 5)
        assert report.analytic == pytest.approx(0.5 * (1.0 - np.sqrt(0.5)), abs=1e-12)
        assert report.empirical == pytest.approx(0.1464, abs=0.01)
        assert abs(report.z_score) <= 4.0

    def test_bit_identical_reports(self):
        problem = DiscriminationProblem(QUARTER_TURN, I2)
        psi = optimal_pair_input(QUARTER_TURN)
        a = sample_helstrom(problem, psi, 20_000, 123)
        b = sample_helstrom(problem, psi, 20_000, 123)
        assert a == b

    def test_biased_priors(self):
        problem = DiscriminationProblem(QUARTER_TURN, I2, 0.7, 0.3)
        psi = optimal_pair_input(QUARTER_TURN)
        report = sample_helstrom(problem, psi, 50_000, 11)
        assert abs(report.z_score) <= 4.0

    def test_entangled_probe_input(self):
        problem = DiscriminationProblem(QUARTER_TURN, I2)
        report = sample_helstrom(problem, ProbeState.maximally_entangled(2), 50_000, 13)
        assert abs(report.z_score) <= 4.0

    def test_never_beats_the_bound(self):
        problem = DiscriminationProblem(QUARTER_TURN, I2)
        psi = optimal_pair_input(QUARTER_TURN)
        for seed in range(30):
            report = sample_helstrom(problem, psi, 4000, seed)
            std_error = np.sqrt(report.analytic * (1.0 - report.analytic) / report.trials)
            assert report.empirical >= report.analytic - 4.0 * std_error


class TestSampleHeterodyne:
    def test_vacuum_baseline(self):
        report = sample_heterodyne(0.0, 0.4 + 0.1j, NoiseSpec(0.0), "unentangled", 100_000, 31)
        assert report.analytic == 1.0
        assert report.empirical == pytest.approx(1.0, abs=0.05)
        assert abs(report.z_score) <= 4.0

    def test_entangled_variance(self):
        x = np.tanh(1.0)
        report = sample_heterodyne(x, 0.0, NoiseSpec(0.0), "entangled", 100_000, 33)
        assert report.analytic == pytest.approx(np.exp(-2.0), abs=1e-12)
        assert abs(report.z_score) <= 4.0

    def test_one_photon_noise_removes_advantage(self):
        noise = NoiseSpec(1.0)
        for x in (0.3, 0.6, 0.9):
            ent = sample_heterodyne(x, 0.0, noise, "entangled", 1000, 35)
            unent = sample_heterodyne(x, 0.0, noise, "unentangled", 1000, 35)
            assert ent.analytic > unent.analytic
            assert ent.analytic - unent.analytic == pytest.approx(
                tmsv_epr_variance(x), abs=1e-12
            )

    def test_bit_identical_reports(self):
        a = sample_heterodyne(0.5, 1.0 + 1.0j, NoiseSpec(0.2), "entangled", 30_000, 77)
        b = sample_heterodyne(0.5, 1.0 + 1.0j, NoiseSpec(0.2), "entangled", 30_000, 77)
        assert a == b

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            sample_heterodyne(0.5, 0.0, NoiseSpec(0.0), "classical", 10, 0)

    def test_trial_count_guarded(self):
        with pytest.raises(ValueError):
            sample_heterodyne(0.5, 0.0, NoiseSpec(0.0), "entangled", 0, 0)
        with pytest.raises(ValueError):
            sample_helstrom(DiscriminationProblem(SZ, SX), np.array([1.0, 0.0]), 0, 0)

    def test_trial_cap(self):
        # rejected before any trial is drawn
        with pytest.raises(ValueError, match=str(MAX_TRIALS)):
            sample_heterodyne(0.5, 0.0, NoiseSpec(0.0), "entangled", MAX_TRIALS + 1, 0)
        with pytest.raises(ValueError, match=str(MAX_TRIALS)):
            sample_helstrom(
                DiscriminationProblem(SZ, SX), np.array([1.0, 0.0]), MAX_TRIALS + 1, 0
            )

    def test_unnormalized_local_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            sample_helstrom(DiscriminationProblem(SZ, SX), np.array([1.0, 1.0]), 10, 0)


class TestStatisticalSoundness:
    def test_z_scores_within_four_sigma_across_seeds(self):
        problem = DiscriminationProblem(QUARTER_TURN, I2)
        psi = optimal_pair_input(QUARTER_TURN)
        passed = 0
        for seed in range(25):
            if abs(sample_helstrom(problem, psi, 4000, seed).z_score) <= 4.0:
                passed += 1
        for seed in range(25):
            report = sample_heterodyne(0.5, 0.0, NoiseSpec(0.3), "entangled", 4000, seed)
            if abs(report.z_score) <= 4.0:
                passed += 1
        assert passed >= 49

    def test_z_scores_always_finite(self):
        for seed in (0, 1):
            report = sample_heterodyne(0.0, 0.0, NoiseSpec(0.0), "unentangled", 10, seed)
            assert np.isfinite(report.z_score)


class TestTrialReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialReport("s", 0, 0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TrialReport("s", 0, 10, 0.0, 0.0, float("nan"))

    def test_rng_metadata_recorded(self):
        report = sample_heterodyne(0.0, 0.0, NoiseSpec(0.0), "unentangled", 10, 0)
        assert report.rng == "philox4x64/box-muller"


class TestStabilityScan:
    def test_zero_mismatch_column(self):
        scan = stability_scan(1.0, 0.5, [0.0])
        assert scan.squeezed_variance[0] == pytest.approx(0.25 * np.exp(-2.0), abs=1e-12)
        assert scan.entangled_variance[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_entangled_column_flat(self):
        scan = stability_scan(1.5, 0.7, np.linspace(-0.4, 0.4, 21))
        assert np.max(scan.entangled_variance) - np.min(scan.entangled_variance) < 1e-12

    def test_mismatch_growth_dominated_by_antisqueezed_term(self):
        s, phi = 2.0, 0.05
        scan = stability_scan(s, 0.5, [0.0, phi])
        ratio = scan.squeezed_variance[1] / scan.squeezed_variance[0]
        expected = np.exp(4.0 * s) * np.sin(phi) ** 2 + np.cos(phi) ** 2
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio > np.exp(4.0 * s) * np.sin(phi) ** 2

    def test_budgets_reported(self):
        scan = stability_scan(2.0, np.tanh(1.0), [0.0])
        assert scan.squeezed_photons == pytest.approx(np.sinh(2.0) ** 2, abs=1e-12)
        assert scan.entangled_photons == pytest.approx(2.0 * np.sinh(1.0) ** 2, abs=1e-10)

    def test_matched_budget_worst_case_in_strong_squeezing_regime(self):
        # equal photon spend; deep squeezing makes the mismatch blowup dominate
        for s in (2.0, 3.0):
            budget = np.sinh(s) ** 2
            x = np.sqrt(budget / (2.0 + budget))
            scan = stability_scan(s, x, np.linspace(-0.1, 0.1, 21))
            assert scan.entangled_photons == pytest.approx(budget, rel=1e-12)
            assert np.max(scan.entangled_variance) < np.max(scan.squeezed_variance)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            stability_scan(1.0, 0.5, [])

    @pytest.mark.parametrize(
        "s, x, phis",
        [
            (1.2, 0.5, np.linspace(-0.1, 0.1, 41)),
            (-0.7, -0.3, np.linspace(-np.pi, np.pi, 101)),
            (2.5, 0.999999, np.linspace(-1.0, 2.0, 77)),
            (0.0, 0.0, [0.3]),
            (30.0, 0.9, np.linspace(-0.5, 0.5, 11)),
        ],
    )
    def test_matches_per_phase_loop(self, s, x, phis):
        squeezed, entangled = stability_by_loop(s, x, phis)
        scan = stability_scan(s, x, phis)
        np.testing.assert_allclose(scan.squeezed_variance, squeezed, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(scan.entangled_variance, entangled, rtol=1e-12, atol=0.0)


BLOCK_SIZES = (1, 3, 4096, 1 << 16)


def block_edge_counts(block: int) -> list[int]:
    """Trial counts k B - 1, k B and k B + 1 for k = 1, 2 (positive ones only)."""
    return sorted({k * block + e for k in (1, 2) for e in (-1, 0, 1)} - {0})


class TestBlockStream:
    """Reports do not depend on the block size: the whole-array samplers agree bit for bit."""

    def test_default_block_size_is_covered(self):
        assert mc._CHUNK_TRIALS in BLOCK_SIZES

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_uniforms_match_one_draw(self, monkeypatch, block):
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", block)
        for trials in block_edge_counts(block):
            for per_trial in (1, 2, 3):
                expected = one_draw_uniforms(2**64 - 1, trials, per_trial)
                assert np.array_equal(trial_uniforms(2**64 - 1, trials, per_trial), expected)

    def test_zero_trials_keep_their_shape(self):
        assert trial_uniforms(5, 0, 3).shape == (0, 3)
        with pytest.raises(ValueError, match="64 bits"):
            trial_uniforms(-1, 0, 2)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_heterodyne_reports_match_whole_array(self, monkeypatch, block):
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", block)
        for trials in block_edge_counts(block):
            for scheme in ("entangled", "unentangled"):
                args = (0.6, 0.3 - 0.8j, NoiseSpec(0.25), scheme, trials, 9 + trials)
                assert sample_heterodyne(*args) == heterodyne_by_whole_array(*args)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_helstrom_reports_match_whole_array(self, monkeypatch, block):
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", block)
        problem = DiscriminationProblem(QUARTER_TURN, I2, 0.7, 0.3)
        for trials in block_edge_counts(block):
            for probe in (optimal_pair_input(QUARTER_TURN), ProbeState.maximally_entangled(2)):
                args = (problem, probe, trials, 2**63 + trials)
                assert sample_helstrom(*args) == helstrom_by_whole_array(*args)

    def test_bounded_memory(self):
        tracemalloc.start()
        try:
            sample_heterodyne(0.5, 0.0, NoiseSpec(0.1), "entangled", 2_000_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def _bits(value: float) -> str:
    return float(value).hex()


finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and the smallest normals
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300]),
)
spread_magnitudes = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.0, max_value=9.999),
    st.integers(min_value=-300, max_value=300),
)


class TestExactSum:
    """The streamed exact sum rounds once, to the bits of math.fsum."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(finite_doubles | spread_magnitudes, max_size=40), st.integers(1, 5))
    def test_matches_fsum(self, values, pieces):
        try:
            expected = math.fsum(values)
        except OverflowError:
            return  # the bounded ranges above never get here
        array = np.array(values, dtype=float)
        assert _bits(mc._exact_sum([array])) == _bits(expected)
        assert _bits(mc._exact_sum(np.array_split(array, pieces))) == _bits(expected)

    def test_edge_cases(self):
        cases = [
            [],
            [0.0, -0.0],
            [-5e-324],
            [5e-324] * 7,
            [1e300, 1.0, -1e300],
            [1e-300, 1e300, -1e300, 2.5e-308],
            [2.0**53, 1.0, -1.0, 1.0],
            [0.1] * 10,
        ]
        for values in cases:
            assert _bits(mc._exact_sum([np.array(values, dtype=float)])) == _bits(math.fsum(values))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mc._exact_sum([np.array([1.0, 2.0]), np.array([3.0, bad])])
