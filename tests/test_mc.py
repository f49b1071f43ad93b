import itertools
import math
import sys
import threading
import tracemalloc
import warnings

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
    _fixed_point_sum,
    box_muller,
    heterodyne_by_radius,
    heterodyne_by_whole_array,
    helstrom_by_whole_array,
    one_draw_uniforms,
    stability_by_loop,
    trial_uniforms,
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
        g1, g2 = box_muller(trial_uniforms(17, 200_000, 2))
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
            gauss.heterodyne(gauss.vacuum_state(), alpha)
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
            TrialReport("s", 0, 0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TrialReport("s", 0, 10, 0.0, 0.0, float("nan"))

    def test_rng_metadata_recorded(self):
        report = sample_heterodyne(0.0, 0.0, NoiseSpec(0.0), "unentangled", 10, 0)
        assert report.rng == "philox4x64/box-muller-radius"


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


BLOCK_SIZES = (1, 3, 4096, 1 << 13, 1 << 16)
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
        # a stream hits a threshold exactly once in ~2^53 draws, so craft the blocks: every u0
        # and u1 on the 2^-53 grid point nearest p1, q1 or q2, or one step either side
        problem, probe = HELSTROM_CASES[case]
        q1, q2 = helstrom_acceptance(problem.p1, problem.p2, abs(_input_overlap(problem, probe)))
        near = {
            t: [u for u in (np.round(t * 2.0**53) + np.arange(-1, 2)) * 2.0**-53 if 0 < u <= 1]
            for t in (problem.p1, q1, q2)
        }
        uniforms = np.array(list(itertools.product(near[problem.p1], near[q1] + near[q2])))

        def crafted(seed, first, stop, per_trial):
            yield uniforms[first:stop] - 2.0**-53  # exact: every uniform is a multiple of 2^-53

        monkeypatch.setattr(mc, "_uniform_chunks", crafted)
        monkeypatch.setattr(mc, "_cpu_count", lambda: 1)
        u0, u1 = uniforms.T
        errors = np.where(u0 <= problem.p1, u1 > q1, u1 <= q2)
        report = sample_helstrom(problem, probe, len(uniforms), 0)
        assert report.empirical == np.count_nonzero(errors) / len(uniforms)
        if helstrom_error(problem, probe) == 0.0:
            assert report.empirical == 0.0

    def test_helstrom_thresholds_reach_the_ends(self):
        # the Bell outputs of I and Z on the maximally entangled probe, and the sharp pair's
        # basis outputs, are orthogonal: every trial is told apart
        for problem, probe in (HELSTROM_CASES["bell"], HELSTROM_CASES["sharp"]):
            c = abs(_input_overlap(problem, probe))
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
        # trial offsets 0-9 start at every word position within a 4-word Philox block
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", 4)
        expected = one_draw_uniforms(2**64 - 1, 23, per_trial)
        for first in range(10):
            blocks = [u + 2.0**-53 for u in mc._uniform_chunks(2**64 - 1, first, 23, per_trial)]
            assert all(len(u) == 4 for u in blocks[:-1])
            assert np.array_equal(np.concatenate(blocks), expected[first:])

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

        def fail_in_the_first_range(values, top):
            if threading.get_ident() == caller:
                failed.set()
                raise ValueError("first range failed")
            failed.wait(timeout=30)
            helper_blocks.append(len(values))
            return block_sum(values, top)

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
    return sum(_fixed_point_sum(block.copy()) for block in blocks) / (1 << mc._UNIT_BITS)


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
    total = mc._grid_split_sum(scaled, top)
    assert total == _fixed_point_sum(deviations.copy())
    assert _bits(total / (1 << mc._UNIT_BITS)) == _bits(math.fsum(deviations.tolist()))


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
                assert mc._grid_split_sum(values.copy(), top) == expected
                exact = math.fsum(np.ldexp(values, top).tolist())
                assert _bits(expected / (1 << mc._UNIT_BITS)) == _bits(exact)

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
    def test_philox_words_over_the_variance_range(self, words, mantissa, exponent):
        # variances from 2^-54 to the overflow edge of each block size, which is ~4.9e306 for
        # one trial, on the uniforms ((w >> 11) + 1) 2^-53 of the words and the edge uniforms
        u = (np.array(words, dtype=np.uint64) >> np.uint64(11)).astype(float) * 2.0**-53
        u = np.concatenate([u + 2.0**-53, U_EDGES])
        variance = max(math.ldexp(mantissa, exponent), 2.0**-54)
        for size in BLOCK_SIZES:
            edge = 1.0 + 2.0 * nbar_edge(size)
            assert_block_sum_is_exact(np.resize(u, size), min(variance, edge))
