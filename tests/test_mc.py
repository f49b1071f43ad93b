import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entprobe import gauss, mc
from entprobe.discrim import (
    DiscriminationProblem,
    _input_overlap,
    helstrom_acceptance,
    helstrom_error,
    optimal_pair_input,
)
from entprobe.gauss import NoiseSpec, tmsv_epr_variance
from entprobe.linops import ProbeState
from entprobe.rand import generator, haar_unitary, random_probe
from entprobe.mc import (
    MAX_TRIALS,
    TrialReport,
    sample_helstrom,
    sample_heterodyne,
    stability_scan,
)

from _helpers import (
    UNIT_BITS,
    _fixed_point_sum,
    box_muller,
    heterodyne_by_radius,
    heterodyne_by_whole_array,
    helstrom_by_whole_array,
    one_draw_uniforms,
    pcg64_words,
    stability_by_loop,
    trial_uniforms,
    uniforms_of_words,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
QUARTER_TURN = np.diag([1.0, np.exp(1j * np.pi / 2)])


class TestSubstreams:
    def test_uniforms_in_half_open_unit_interval(self):
        u = trial_uniforms(3, 10_000, 1)
        assert u.shape == (10_000, 1)
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

    @pytest.mark.parametrize("seed", [1.5, True, np.float64(2.0), "1"])
    def test_seed_must_be_an_integer(self, monkeypatch, seed):
        # 1.5 used to sample seed 1's stream and report seed=1.5
        def no_sampling(*args):
            raise AssertionError("sampling started before the seed was checked")

        monkeypatch.setattr(mc, "_uniform_chunks", no_sampling)
        args = (0.5, 0, NoiseSpec(0), "entangled", 1000, seed)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            sample_heterodyne(*args)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            sample_helstrom(DiscriminationProblem(SZ, SX), np.array([1.0, 0.0]), 1000, seed)

    @pytest.mark.parametrize("trials", [True, 1000.5, 1000.0])
    def test_trials_must_be_an_integer(self, trials):
        # True used to run one trial, 1000.5 to escape as a TypeError from _split_sum
        with pytest.raises(ValueError, match="^trials must be an integer"):
            sample_heterodyne(0.5, 0, NoiseSpec(0), "entangled", trials, 1)
        with pytest.raises(ValueError, match="^trials must be an integer"):
            sample_helstrom(DiscriminationProblem(SZ, SX), np.array([1.0, 0.0]), trials, 1)

    def test_numpy_integers_still_count(self):
        report = sample_heterodyne(0.5, 0, NoiseSpec(0), "entangled", np.int64(1000), np.uint64(1))
        assert report == sample_heterodyne(0.5, 0, NoiseSpec(0), "entangled", 1000, 1)

    def test_trial_prefix_stability(self):
        # trial i owns a fixed stream slice: a shorter run is a prefix
        long = trial_uniforms(4, 1000, 1)
        short = trial_uniforms(4, 600, 1)
        assert np.array_equal(long[:600], short)

    def test_box_muller_moments(self):
        # the sampler's uniforms as radii, with angles from a stream of their own
        radius_u = trial_uniforms(17, 200_000, 1)[:, 0]
        g1, g2 = box_muller(radius_u, np.random.default_rng([17, 1]).random(radius_u.size))
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

    def test_pinned_digits(self):
        # any change to the random stream, the cumulative table or the error count shows here
        local = sample_helstrom(
            DiscriminationProblem(QUARTER_TURN, I2, 0.3, 0.7), np.array([0.6, 0.8j]), 100_000, 2024
        )
        entangled = sample_helstrom(
            DiscriminationProblem(QUARTER_TURN, I2, 0.7, 0.3),
            ProbeState(np.diag([0.8, 0.6])),
            100_000,
            2024,
        )
        assert (local.empirical, local.z_score) == (0.13153, 1.2701549892168906)
        assert (entangled.empirical, entangled.z_score) == (0.13008, -0.09249216355764536)
        assert local.analytic == entangled.analytic == 0.130178421397561

    @pytest.mark.parametrize("p1", (0.3, 0.5, 0.7))
    @pytest.mark.parametrize("wrong", ("q1", "q2"))
    def test_one_percent_acceptance_error_shows(self, monkeypatch, p1, wrong):
        # one uniform decides both the hypothesis and the outcome, so the count must still read
        # each hypothesis's acceptance: moving q1 alone, or q2 alone, by 0.01 towards 1/2 moves
        # the error rate by 0.01 p1 (or p2), over 4 standard errors at 10^6 trials
        problem = DiscriminationProblem(QUARTER_TURN, I2, p1, 1.0 - p1)
        psi = optimal_pair_input(QUARTER_TURN)
        args = (problem, psi, 1_000_000, 41)
        assert abs(sample_helstrom(*args).z_score) <= 4.0

        def off_by_one_percent(*priors_and_overlap):
            q = dict(zip(("q1", "q2"), helstrom_acceptance(*priors_and_overlap)))
            q[wrong] += 0.01 if q[wrong] < 0.5 else -0.01
            return q["q1"], q["q2"]

        monkeypatch.setattr(mc, "helstrom_acceptance", off_by_one_percent)
        assert abs(sample_helstrom(*args).z_score) > 4.0


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

    def test_huge_signal_leaves_the_scatter_unchanged(self):
        # the deviation is read off the radius, never as (alpha + scatter) - alpha, whose
        # rounding at |alpha| ~ 1e16 and beyond swamped the scatter
        for scheme in ("entangled", "unentangled"):
            reports = [
                sample_heterodyne(0.5, alpha, NoiseSpec(0.0), scheme, 20_000, 1)
                for alpha in (0.0, 1e16 * (1 - 1j), 3e17 * (1 - 1j))
            ]
            assert len({report.empirical for report in reports}) == 1
            assert abs(reports[0].z_score) <= 4.0

    def test_fraction_signal_reports_as_its_float(self):
        # any number that converts to complex is a signal; a Fraction is centred on its float
        for scheme in ("entangled", "unentangled"):
            exact = sample_heterodyne(0.5, Fraction(1, 3), NoiseSpec(0.1), scheme, 5_000, 4)
            assert exact == sample_heterodyne(0.5, 1 / 3, NoiseSpec(0.1), scheme, 5_000, 4)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            sample_heterodyne(0.5, 0.0, NoiseSpec(0.0), "classical", 10, 0)

    @pytest.mark.parametrize("x", (5.0, -1.0, float("nan")))
    def test_both_schemes_refuse_a_bad_gain(self, x):
        for scheme in ("entangled", "unentangled"):
            with pytest.raises(ValueError, match="below 1"):
                sample_heterodyne(x, 0, NoiseSpec(0), scheme, 10, 1)

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

    @pytest.mark.parametrize("scheme", ["entangled", "unentangled"])
    def test_overflowing_sum_rejected_before_sampling(self, monkeypatch, scheme):
        def no_sampling(*args):
            raise AssertionError("sampling started before the sum bound was checked")

        monkeypatch.setattr(mc, "_uniform_chunks", no_sampling)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                sample_heterodyne(0.5, 0.0, NoiseSpec(1e306), scheme, 1000, 1)

    @pytest.mark.parametrize(
        "alpha",
        [complex(v, 0.0) for v in (math.nan, math.inf, -math.inf)]
        + [complex(0.0, v) for v in (math.nan, math.inf, -math.inf)],
        ids=["re-nan", "re-inf", "re-neginf", "im-nan", "im-inf", "im-neginf"],
    )
    def test_non_finite_alpha_rejected_before_sampling(self, monkeypatch, alpha):
        def no_sampling(*args):
            raise AssertionError("sampling started before alpha was checked")

        monkeypatch.setattr(mc, "_uniform_chunks", no_sampling)
        with pytest.raises(ValueError, match="finite"):
            gauss.epr_heterodyne(gauss.tmsv_state(0.5), alpha)
        with pytest.raises(ValueError, match="finite"):
            gauss.epr_heterodyne(gauss.TwoModeProbe(0.0, 0.1), alpha)
        for scheme in ("entangled", "unentangled"):
            with pytest.raises(ValueError, match="finite"):
                sample_heterodyne(0.5, alpha, NoiseSpec(0.1), scheme, 1000, 1)

    def test_nan_local_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            sample_helstrom(DiscriminationProblem(SZ, SX), np.array([np.nan, 0.0]), 10, 0)


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
            TrialReport("s", 0, 0, 0.0, 0.0, 0.0, "rng")
        with pytest.raises(ValueError):
            TrialReport("s", 0, 10, 0.0, 0.0, float("nan"), "rng")

    def test_rng_has_no_default(self):
        # a report names its draw; none carries a sampler's label by omission
        with pytest.raises(TypeError, match="rng"):
            TrialReport("s", 0, 10, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),
            ("seed", -1),
            ("trials", 2.5),
            ("trials", True),
            ("empirical", float("nan")),
            ("analytic", float("inf")),
        ],
    )
    def test_every_field_is_checked(self, field, value):
        fields = {
            "scenario": "s", "seed": 0, "trials": 10,
            "empirical": 1.0, "analytic": 1.0, "z_score": 0.0, "rng": "rng",
        }
        TrialReport(**fields)
        with pytest.raises(ValueError):
            TrialReport(**{**fields, field: value})

    def test_rng_metadata_recorded(self):
        # one PCG64 word per trial, read as a Box-Muller radius
        report = sample_heterodyne(0.0, 0.0, NoiseSpec(0.0), "unentangled", 10, 0)
        assert report.rng == "pcg64/one-word-box-muller-radius"

    def test_helstrom_rng_names_its_draw(self):
        # a Helstrom trial places one uniform in the cumulative (hypothesis, outcome) table and
        # draws no Box-Muller radius
        problem = DiscriminationProblem(QUARTER_TURN, I2)
        report = sample_helstrom(problem, optimal_pair_input(QUARTER_TURN), 10, 0)
        assert report.rng == "pcg64/one-word-cumulative-table"

    def test_no_report_carries_a_two_word_label(self):
        # the digits of the PCG64 draw never carry the labels of the Philox draws before it: the
        # two-word draw and the one-word draw
        old = {
            "philox4x64/box-muller-radius",
            "philox4x64/uniform-thresholds",
            "philox4x64/one-word-box-muller-radius",
            "philox4x64/one-word-cumulative-table",
        }
        assert {mc.HETERODYNE_RNG, mc.HELSTROM_RNG}.isdisjoint(old)


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

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf")))
    def test_non_finite_phase_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^every phase in the grid must be finite$"):
                stability_scan(1.0, 0.5, [0.0, bad])

    def test_entangled_column_is_one_value(self):
        # the EPR law does not depend on the common phase, so no grid point may move it
        scan = stability_scan(2.0, 0.9, np.linspace(-np.pi, np.pi, 2001))
        assert set(scan.entangled_variance.tolist()) == {
            gauss.epr_heterodyne(gauss.tmsv_state(0.9)).variance
        }

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


BLOCK_SIZES = (1, 3, 4096, 1 << 13, 1 << 15, 1 << 16)
WORKER_COUNTS = (1, 2, 3, 7)


def block_edge_counts(block: int) -> list[int]:
    """Trial counts k B - 1, k B and k B + 1 for k = 1, 2 (positive ones only)."""
    return sorted({k * block + e for k in (1, 2) for e in (-1, 0, 1)} - {0})


def nbar_edge(trials: int) -> float:
    """The largest noise whose sum of squared deviations over ``trials`` trials
    ``mc._check_deviation_sum`` accepts."""

    def accepted(nbar: float) -> bool:
        try:
            mc._check_deviation_sum(nbar, trials)
        except ValueError:
            return False
        return True

    nbar = sys.float_info.max / 74.0 / trials
    while accepted(math.nextafter(nbar, math.inf)):
        nbar = math.nextafter(nbar, math.inf)
    while not accepted(nbar):
        nbar = math.nextafter(nbar, 0.0)
    return nbar


# the sampler's own case, extreme priors, orthogonal outputs, a plain local input and a
# d = 8 Haar pair on an entangled probe
_HAAR = generator(8)
HELSTROM_CASES = {
    "quarter-turn-local": (
        DiscriminationProblem(QUARTER_TURN, I2, 0.7, 0.3),
        optimal_pair_input(QUARTER_TURN),
    ),
    "quarter-turn-entangled": (
        DiscriminationProblem(QUARTER_TURN, I2, 0.7, 0.3),
        ProbeState.maximally_entangled(2),
    ),
    "tiny-prior": (
        DiscriminationProblem(QUARTER_TURN, I2, 1e-12, 1 - 1e-12),
        optimal_pair_input(QUARTER_TURN),
    ),
    "huge-prior": (
        DiscriminationProblem(QUARTER_TURN, I2, 1 - 1e-12, 1e-12),
        ProbeState.maximally_entangled(2),
    ),
    "bell": (DiscriminationProblem(I2, SZ), ProbeState.maximally_entangled(2)),
    "sharp": (DiscriminationProblem(I2, SX), np.array([1.0, 0.0])),
    "local": (DiscriminationProblem(QUARTER_TURN, I2, 0.3, 0.7), np.array([0.6, 0.8j])),
    "haar-8": (
        DiscriminationProblem(haar_unitary(8, _HAAR), haar_unitary(8, _HAAR), 0.4, 0.6),
        random_probe(8, _HAAR),
    ),
}


class TestBlockStream:
    """Reports do not depend on the block size: the whole-array samplers agree bit for bit."""

    def test_default_block_size_is_covered(self):
        assert mc._CHUNK_TRIALS in BLOCK_SIZES

    def test_blocks_fit_the_exact_sum(self):
        # _grid_split_sum is exact for blocks of up to 2^16 values, the largest size tested
        assert mc._CHUNK_TRIALS <= 1 << 16 == max(BLOCK_SIZES)

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
                assert sample_heterodyne(*args) == heterodyne_by_radius(*args)

    @pytest.mark.parametrize("scheme", ("entangled", "unentangled"))
    def test_heterodyne_reports_keep_the_box_muller_route(self, scheme):
        # the Box-Muller pair's angle changes only the rounding of |z - alpha|^2
        grid = ((-0.6, 0.0, 0.5, 0.9), (0.0, 0.25, 3.0), (0.0, 0.3 - 0.8j, 10.0, -6.0 + 8.0j))
        for x, nbar, alpha in itertools.product(*grid):
            for trials in block_edge_counts(mc._CHUNK_TRIALS):
                args = (x, alpha, NoiseSpec(nbar), scheme, trials, 5 + trials)
                report, oracle = sample_heterodyne(*args), heterodyne_by_whole_array(*args)
                assert report.analytic == oracle.analytic
                assert report.empirical == pytest.approx(oracle.empirical, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_helstrom_reports_match_whole_array(self, monkeypatch, block):
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", block)
        problem = DiscriminationProblem(QUARTER_TURN, I2, 0.7, 0.3)
        for trials in block_edge_counts(block):
            for probe in (optimal_pair_input(QUARTER_TURN), ProbeState.maximally_entangled(2)):
                args = (problem, probe, trials, 2**63 + trials)
                assert sample_helstrom(*args) == helstrom_by_whole_array(*args)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_heterodyne_holds_a_block_and_a_scratch_per_range(self, monkeypatch, workers):
        # each range's block is worked on in place and its block sum reuses one scratch block,
        # so no block-sized copy is made; 16 KB per range allow for the thread pool.  A first
        # call loads what the pool imports, which is not the sampler's memory
        monkeypatch.setattr(mc, "_cpu_count", lambda: workers)
        args = (0.5, 0.0, NoiseSpec(0.1), "entangled", 50 * mc._CHUNK_TRIALS, 3)
        sample_heterodyne(*args)
        tracemalloc.start()
        try:
            sample_heterodyne(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * (2 * 8 * mc._CHUNK_TRIALS + 16_000)

    def test_bounded_memory(self):
        tracemalloc.start()
        try:
            sample_heterodyne(0.5, 0.0, NoiseSpec(0.1), "entangled", 2_000_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_heterodyne_reports_do_not_depend_on_workers(self, monkeypatch, block, workers):
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", block)
        monkeypatch.setattr(mc, "_cpu_count", lambda: workers)
        for trials in block_edge_counts(block):
            for scheme in ("entangled", "unentangled"):
                args = (0.6, 0.3 - 0.8j, NoiseSpec(0.25), scheme, trials, 9 + trials)
                assert sample_heterodyne(*args) == heterodyne_by_radius(*args)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_heterodyne_reports_at_the_ends_of_the_variance(self, monkeypatch, block, workers):
        # x one step below 1 gives the entangled law its least variance, ~2^-54, and the noise
        # at the overflow edge for each trial count the largest variance the sampler accepts
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", block)
        monkeypatch.setattr(mc, "_cpu_count", lambda: workers)
        for trials in block_edge_counts(block):
            for x, nbar in ((math.nextafter(1.0, 0.0), 0.0), (0.5, nbar_edge(trials))):
                for scheme in ("entangled", "unentangled"):
                    args = (x, 0.3 - 0.8j, NoiseSpec(nbar), scheme, trials, 9 + trials)
                    assert sample_heterodyne(*args) == heterodyne_by_radius(*args)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_helstrom_reports_do_not_depend_on_workers(self, monkeypatch, block, workers):
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", block)
        monkeypatch.setattr(mc, "_cpu_count", lambda: workers)
        for trials in block_edge_counts(block):
            for problem, probe in HELSTROM_CASES.values():
                args = (problem, probe, trials, 2**63 + trials)
                assert sample_helstrom(*args) == helstrom_by_whole_array(*args)

    @pytest.mark.parametrize("case", list(HELSTROM_CASES))
    def test_helstrom_uniforms_on_and_beside_the_thresholds(self, monkeypatch, case):
        # a stream hits a threshold exactly once in ~2^53 draws, so craft the blocks: every u on
        # the 2^-53 grid point nearest p1 q1, p1 or p1 + p2 q2, each the exact value rounded
        # once, or one step either side, and the least and the largest uniform
        problem, probe = HELSTROM_CASES[case]
        p1, p2 = problem.p1, problem.p2
        q1, q2 = helstrom_acceptance(p1, p2, _input_overlap(problem, probe))
        first_announces_first = p1 * q1
        second_announces_first = float(Fraction(p1) + Fraction(p2) * Fraction(q2))
        near = {2.0**-53, 1.0}
        for t in (first_announces_first, p1, second_announces_first):
            near |= {u for u in (np.round(t * 2.0**53) + np.arange(-1, 2)) * 2.0**-53 if 0 < u <= 1}
        uniforms = np.array(sorted(near))

        def crafted(seed, first, stop, per_trial):
            # exact: every uniform is a multiple of 2^-53
            yield uniforms[first:stop, None] - 2.0**-53

        monkeypatch.setattr(mc, "_uniform_chunks", crafted)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 1)
        # two decisions per trial: the hypothesis, then the outcome within its share
        is_first = uniforms <= p1
        announces_first = np.where(
            is_first, uniforms <= first_announces_first, uniforms <= second_announces_first
        )
        report = sample_helstrom(problem, probe, len(uniforms), 0)
        assert report.empirical == np.count_nonzero(is_first != announces_first) / len(uniforms)
        if helstrom_error(problem, probe) == 0.0:
            assert report.empirical == 0.0

    def test_helstrom_thresholds_reach_the_ends(self):
        # the Bell outputs of I and Z on the maximally entangled probe, and the sharp pair's
        # basis outputs, are orthogonal: every trial is told apart
        for problem, probe in (HELSTROM_CASES["bell"], HELSTROM_CASES["sharp"]):
            c = _input_overlap(problem, probe)
            assert helstrom_acceptance(problem.p1, problem.p2, c) == (1.0, 0.0)

    def test_many_workers_with_frequent_thread_switches(self, monkeypatch):
        # more ranges than CPUs, and the interpreter switching threads every 10 us
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 7)
        args = (0.6, 0.3 - 0.8j, NoiseSpec(0.25), "entangled", 2003, 11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = sample_heterodyne(*args)
        finally:
            sys.setswitchinterval(interval)
        assert report == heterodyne_by_radius(*args)

    @pytest.mark.parametrize("per_trial", (1, 2, 3))
    def test_stream_from_any_trial_matches_one_draw(self, monkeypatch, per_trial):
        # trial offsets 0-9 start 0 to 27 words into the stream, in blocks of 4 trials
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", 4)
        expected = one_draw_uniforms(2**64 - 1, 23, per_trial)
        for first in range(10):
            blocks = [u + 2.0**-53 for u in mc._uniform_chunks(2**64 - 1, first, 23, per_trial)]
            assert all(len(u) == 4 for u in blocks[:-1])
            assert np.array_equal(np.concatenate(blocks), expected[first:])

    @pytest.mark.parametrize("seed", (0, 2**64 - 1))
    @pytest.mark.parametrize("per_trial", (1, 2, 3))
    def test_stream_slices_match_the_python_generator(self, seed, per_trial):
        # the slice of each trial, from the first trials to the last ones the cap allows, is the
        # words that a PCG64 written in Python ints gives at that offset: the jump to a range's
        # first trial does not rest on numpy's advance alone
        for first, stop in [(first, 12) for first in range(10)] + [(MAX_TRIALS - 3, MAX_TRIALS)]:
            blocks = [u + 2.0**-53 for u in mc._uniform_chunks(seed, first, stop, per_trial)]
            words = pcg64_words(seed, first * per_trial, (stop - first) * per_trial)
            expected = uniforms_of_words(words).reshape(-1, per_trial)
            assert np.array_equal(np.concatenate(blocks), expected)

    def test_helper_error_surfaces_and_no_helper_outlives_the_call(self, monkeypatch):
        chunks = mc._uniform_chunks

        def fail_after_the_first_range(seed, first, stop, per_trial):
            if first > 0:
                raise ValueError("second range failed")
            return chunks(seed, first, stop, per_trial)

        monkeypatch.setattr(mc, "_CHUNK_TRIALS", 4)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
        monkeypatch.setattr(mc, "_uniform_chunks", fail_after_the_first_range)
        problem = DiscriminationProblem(QUARTER_TURN, I2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="second range failed"):
            sample_heterodyne(0.5, 0.0, NoiseSpec(0.1), "entangled", 8, 1)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="second range failed"):
            sample_helstrom(problem, ProbeState.maximally_entangled(2), 8, 1)
        assert threading.active_count() == before

    def test_error_in_the_first_range_stops_the_helper_within_a_block(self, monkeypatch):
        # the helper's first block waits until the calling thread's range has failed; without
        # the abandon event it would then run all 100 blocks of its range before the error surfaced
        caller = threading.get_ident()
        failed = threading.Event()
        helper_blocks = []
        block_sum = mc._grid_split_sum

        def fail_in_the_first_range(values, scratch):
            if threading.get_ident() == caller:
                failed.set()
                raise ValueError("first range failed")
            failed.wait(timeout=30)
            helper_blocks.append(len(values))
            return block_sum(values, scratch)

        monkeypatch.setattr(mc, "_CHUNK_TRIALS", 16)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
        monkeypatch.setattr(mc, "_grid_split_sum", fail_in_the_first_range)
        before = threading.active_count()
        with pytest.raises(ValueError, match="first range failed"):
            sample_heterodyne(0.5, 0.0, NoiseSpec(0.1), "entangled", 16 * 200, 1)
        assert threading.active_count() == before
        assert len(helper_blocks) <= 2

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_counting_kernel_sees_every_trial_once(self, monkeypatch, block, workers):
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", block)
        monkeypatch.setattr(mc, "_cpu_count", lambda: workers)
        for trials in block_edge_counts(block):
            assert mc._split_sum(7, trials, 3, len) == trials

    def test_lowest_failing_helper_range_surfaces(self, monkeypatch):
        # ranges 1 and 2 both fail, range 2 first: range 1's error is the one raised
        def range_starts(seed, first, stop, per_trial):
            yield np.full((stop - first, per_trial), first)

        second_failed = threading.Event()

        def kernel(u):
            first = int(u[0, 0])
            if first == 2:
                second_failed.set()
                raise ValueError("range 2 failed")
            if first == 1:
                second_failed.wait(timeout=30)
                raise ValueError("range 1 failed")
            return len(u)

        monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 3)
        monkeypatch.setattr(mc, "_uniform_chunks", range_starts)
        before = threading.active_count()
        with pytest.raises(ValueError, match="range 1 failed"):
            mc._split_sum(0, 3, 1, kernel)
        assert second_failed.is_set()
        assert threading.active_count() == before


def _bits(value: float) -> str:
    return float(value).hex()


def exact_sum(blocks) -> float:
    """The oracle's exact sum of every value in the arrays, rounded once."""
    return sum(_fixed_point_sum(block.copy()) for block in blocks) / (1 << UNIT_BITS)


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
    """The exact-sum oracle of the kernel tests rounds once, to the bits of math.fsum."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(finite_doubles | spread_magnitudes, max_size=40), st.integers(1, 5))
    def test_matches_fsum(self, values, pieces):
        try:
            expected = math.fsum(values)
        except OverflowError:
            return  # the bounded ranges above never get here
        array = np.array(values, dtype=float)
        assert _bits(exact_sum([array])) == _bits(expected)
        assert _bits(exact_sum(np.array_split(array, pieces))) == _bits(expected)

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
            assert _bits(exact_sum([np.array(values, dtype=float)])) == _bits(math.fsum(values))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            exact_sum([np.array([1.0, 2.0]), np.array([3.0, bad])])


def sampler_deviations(u: np.ndarray, variance: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The squared deviations -variance ln u of the uniforms u, the same scaled into [0, 1) as
    the heterodyne sampler hands them to its block sum, and the exponent top of the scale."""
    top = math.frexp(37.0 * variance)[1]
    logs = np.log(u)
    return -variance * logs, logs * math.ldexp(-variance, -top), top


def assert_block_sum_is_exact(u: np.ndarray, variance: float) -> None:
    """The block sum of the sampler's deviations equals the oracle's exact sum, and rounds to
    the bits of math.fsum."""
    deviations, scaled, top = sampler_deviations(u, variance)
    # a scratch longer than the block, as a range's last block gets, holding stale values
    total = mc._grid_split_sum(scaled, np.full(u.size + 3, np.nan)) << (top + UNIT_BITS - 112)
    assert total == _fixed_point_sum(deviations.copy())
    assert _bits(total / (1 << UNIT_BITS)) == _bits(math.fsum(deviations.tolist()))


# uniforms so close to 1 that the last bit of their deviation lies below the lower grid, so that
# only the remainder's sum holds it; with the least and the largest uniform, 2^-53 and 1, they
# are the edges of the sampler's uniforms
NEAR_ONE = 1.0 - np.array([1.0, 2.0, 3.0, 2.0**20, 2.0**30]) * 2.0**-53
U_EDGES = np.concatenate([[2.0**-53], NEAR_ONE, [1.0]])


class TestGridSplitSum:
    """The heterodyne block kernel sums on two grids, exactly: the bits of math.fsum."""

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_values_just_below_the_top(self, size):
        # each upper part is then close to 2^b times its grid, so the grid sums reach 2^53
        # units; the random low bits make any rounding on the way show
        gaps = np.random.default_rng(size).integers(1, 2**40, size) * 2.0**-53
        for top in (-60, 0, 5, 900):
            for values in (np.full(size, math.nextafter(1.0, 0.0)), 1.0 - gaps):
                expected = _fixed_point_sum(np.ldexp(values, top))
                total = mc._grid_split_sum(values.copy(), np.empty(size))
                assert total << (top + UNIT_BITS - 112) == expected
                exact = math.fsum(np.ldexp(values, top).tolist())
                assert _bits(expected / (1 << UNIT_BITS)) == _bits(exact)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("x, nbar", [(0.5, 0.25), (1 - 1e-15, 0.0), (-0.9, 3.0)])
    def test_sampler_blocks(self, size, x, nbar):
        variance = gauss.epr_heterodyne(gauss.tmsv_state(x), 0.0, NoiseSpec(nbar)).variance
        assert_block_sum_is_exact(one_draw_uniforms(2**64 - size, size, 1)[:, 0], variance)

    def test_leftovers_near_zero(self):
        assert_block_sum_is_exact(np.resize(NEAR_ONE, 1 << 13), 0.7)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 2**64 - 1), max_size=40),
        st.floats(0.5, 1.0, exclude_max=True) | st.sampled_from([0.5, math.nextafter(1.0, 0.0)]),
        st.integers(-53, 1019),
    )
    def test_raw_words_over_the_variance_range(self, words, mantissa, exponent):
        # variances from 2^-54 to the overflow edge of each block size, which is ~4.9e306 for
        # one trial, on the uniforms ((w >> 11) + 1) 2^-53 of any 64-bit words and the edge
        # uniforms
        u = np.concatenate([uniforms_of_words(words), U_EDGES])
        variance = max(math.ldexp(mantissa, exponent), 2.0**-54)
        for size in BLOCK_SIZES:
            edge = 1.0 + 2.0 * nbar_edge(size)
            assert_block_sum_is_exact(np.resize(u, size), min(variance, edge))
