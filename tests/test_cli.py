import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from entprobe import cli, discrim, gauss, mc
from entprobe.cli import FlagDomainError, main, parse_unitary
from entprobe.discrim import weyl_heisenberg_group
from entprobe.linops import eig_unitary
from entprobe.rand import generator, haar_unitary

from _helpers import table_by_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict:
    """The environment of a separate interpreter that imports these sources first."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_entry_point(*argv):
    """``python -m entprobe.cli`` in a separate interpreter: (return code, stdout, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", "entprobe.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    return result.returncode, result.stdout, result.stderr


def parse_csv(text):
    records = list(csv.reader(io.StringIO(text)))
    header = records[0]
    rows = [dict(zip(header, record)) for record in records[1:]]
    return header, rows


class TestUnitaryParsing:
    def test_pauli_forms(self):
        assert np.array_equal(parse_unitary("pauli:i"), np.eye(2))
        assert np.array_equal(parse_unitary("pauli:x"), np.array([[0, 1], [1, 0]]))

    def test_wh_form(self):
        for d in range(2, 6):
            group = weyl_heisenberg_group(d)
            members = dict(zip(group.labels, group.elements))
            for m in range(d):
                for n in range(d):
                    u = parse_unitary(f"wh:{d},{m},{n}")
                    expected = np.zeros((d, d), dtype=complex)
                    for k in range(d):
                        expected[k, (k + n) % d] = np.exp(2j * np.pi * k * m / d)
                    assert np.allclose(u, expected, atol=1e-12)
                    assert np.array_equal(u, members[f"U({m},{n})"])

    def test_diag_form(self):
        u = parse_unitary("diag:0,1.5707963267948966")
        assert np.allclose(u, np.diag([1.0, 1j]), atol=1e-12)

    def test_file_form(self, tmp_path):
        u = haar_unitary(3, generator(50))
        path = tmp_path / "u.json"
        path.write_text(
            json.dumps([[[u[i, j].real, u[i, j].imag] for j in range(3)] for i in range(3)])
        )
        assert np.allclose(parse_unitary(f"file:{path}"), u, atol=1e-12)

    def test_non_unitary_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]))
        with pytest.raises(FlagDomainError, match="unitary"):
            parse_unitary(f"file:{path}")

    def test_unknown_kind(self):
        with pytest.raises(FlagDomainError):
            parse_unitary("clifford:3")

    def test_malformed_inline_forms(self):
        with pytest.raises(FlagDomainError):
            parse_unitary("pauli:w")
        with pytest.raises(FlagDomainError):
            parse_unitary("wh:3,1")
        with pytest.raises(FlagDomainError):
            parse_unitary("diag:abc")
        with pytest.raises(FlagDomainError):
            parse_unitary("file:/no/such/path.json")


class TestPauliDemo:
    def test_gram_identity_and_zero_error(self, capsys):
        code, out, _ = run_cli(capsys, "pauli-demo")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 16
        for row in rows:
            expected = 1.0 if row["g"] == row["h"] else 0.0
            assert abs(float(row["gram_re"]) - expected) < 1e-12
            assert abs(float(row["gram_im"])) < 1e-12
            if row["g"] != row["h"]:
                assert float(row["p_error"]) == 0.0


class TestNcopies:
    def test_pi_over_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "ncopies", "--u1", "diag:0,1.0471975511965976", "--u2", "diag:0,0"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["reachable"] == "true"
        assert rows[0]["n_copies"] == "3"

    def test_pi_edge_within_tolerance(self, capsys):
        # spread pi - 5e-10 lies inside PHASE_DEDUPE_TOL of pi: r = 0 and one copy
        code, out, _ = run_cli(
            capsys, "ncopies", "--u1", "diag:0,3.1415926530897933", "--u2", "diag:0,0"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["reachable"] == "true"
        assert rows[0]["n_copies"] == "1"
        assert float(rows[0]["r"]) == 0.0

    def test_just_outside_pi_edge(self, capsys):
        spread = repr(np.pi - 1e-6)
        code, out, _ = run_cli(capsys, "ncopies", "--u1", f"diag:0,{spread}", "--u2", "diag:0,0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["r"]) == pytest.approx(np.cos((np.pi - 1e-6) / 2.0), abs=1e-15)
        assert float(rows[0]["r"]) > 0.0
        assert rows[0]["n_copies"] == "2"

    def test_identity_not_reachable(self, capsys):
        code, out, _ = run_cli(capsys, "ncopies", "--u1", "pauli:i", "--u2", "pauli:i")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["reachable"] == "false"
        assert rows[0]["n_copies"] == ""


class TestCvEstimate:
    def test_vacuum_baseline_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "cv-estimate", "--x", "0", "--nbar", "0", "--trials", "2000", "--seed", "5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert {row["scheme"] for row in rows} == {"entangled", "unentangled"}
        for row in rows:
            assert float(row["delta2_analytic"]) == 1.0

    def test_seeded_runs_reproduce(self, capsys):
        args = ("cv-estimate", "--x", "0.5", "--nbar", "0.2", "--trials", "5000", "--seed", "42")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_domain_violation_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "cv-estimate", "--x", "2.0")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    def test_negative_trials_rejected(self, capsys):
        code, _, err = run_cli(capsys, "cv-estimate", "--x", "0.1", "--trials", "0")
        assert code == 2
        assert "trials" in err

    def test_oversized_seed_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "cv-estimate", "--x", "0.1", "--seed", str(2**64)
        )
        assert code == 2
        assert "seed" in err

    def test_pinned_digits(self, capsys):
        # any change to the random stream, the Box-Muller radius or the summation shows here
        code, out, _ = run_cli(
            capsys, "cv-estimate", "--x", "0.5", "--trials", "1000", "--seed", "3"
        )
        assert code == 0
        _, rows = parse_csv(out)
        empirical = {row["scheme"]: row["delta2_empirical"] for row in rows}
        assert empirical == {"entangled": "0.3375926073950181", "unentangled": "1.0127778221850545"}
        # the digits of the full Box-Muller pair, angle included, differ only by rounding
        box_muller = {"entangled": 0.3375926073950182, "unentangled": 1.0127778221850545}
        for scheme, value in box_muller.items():
            assert float(empirical[scheme]) == pytest.approx(value, rel=1e-14, abs=0.0)

    def test_high_gain_entangled_scatter(self, capsys):
        # Delta^2 = 5.0e-9 here, far below the cancellation of cosh- and sinh-sized entries
        code, out, _ = run_cli(capsys, "cv-estimate", "--x", "0.99999999", "--trials", "1000")
        assert code == 0
        _, rows = parse_csv(out)
        entangled = next(row for row in rows if row["scheme"] == "entangled")
        assert float(entangled["delta2_empirical"]) > 0.0
        assert abs(float(entangled["z_score"])) < 5.0

    @pytest.mark.parametrize(
        "flag, value",
        [("--nbar", "inf"), ("--nbar", "nan"), ("--nbar", "1e308"), ("--x", "inf"), ("--x", "nan")],
    )
    def test_non_finite_or_overflowing_flags(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "cv-estimate", "--x", "0.5", "--trials", "10", flag, value)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    def test_sum_bound_scales_with_trials(self, capsys):
        args = ("cv-estimate", "--x", "0.5", "--nbar", "1e303")
        code, out, _ = run_cli(capsys, *args, "--trials", "100")
        assert code == 0 and out
        code, out, err = run_cli(capsys, *args, "--trials", "100000")
        assert (code, out) == (2, "")
        assert "overflows" in err

    @pytest.mark.parametrize(
        "flag, value", [("--nbar", "inf"), ("--nbar", "1e306"), ("--trials", "0"), ("--seed", "-1")]
    )
    def test_sampler_rules_checked_before_sampling(self, capsys, monkeypatch, flag, value):
        # each rule is the library's own, named after its flag, and none wraps the sampler
        argv = ("cv-estimate", "--x", "0.5", "--trials", "1000", flag, value)
        err = assert_rejected_before_work(capsys, monkeypatch, mc, "sample_heterodyne", *argv)
        assert err.startswith(f"entprobe: {flag}: ")

    def test_trial_cap(self, capsys):
        too_many = str(mc.MAX_TRIALS + 1)
        code, out, err = run_cli(capsys, "cv-estimate", "--x", "0.5", "--trials", too_many)
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert str(mc.MAX_TRIALS) in err


class TestThresholdScan:
    def test_columns_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "threshold-scan", "--x-grid", "0.2,0.5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "delta_sq", "advantage_nbar", "ppt_nbar"]
        row = rows[1]
        assert float(row["delta_sq"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert float(row["advantage_nbar"]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert float(row["ppt_nbar"]) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_linspace_grid(self, capsys):
        code, out, _ = run_cli(capsys, "threshold-scan", "--x-grid", "0.1:0.9:5")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5

    def test_grid_domain_checked(self, capsys):
        code, _, _ = run_cli(capsys, "threshold-scan", "--x-grid", "0.5,1.5")
        assert code == 2

    def test_malformed_grid(self, capsys):
        code, _, err = run_cli(capsys, "threshold-scan", "--x-grid", "nope")
        assert code == 2
        assert "x-grid" in err

    def test_low_gain_advantage_is_twice_the_edge(self, capsys):
        # 1 - Delta^2 would cancel here; 2|x|/(1 + |x|) does not
        code, out, _ = run_cli(capsys, "threshold-scan", "--x-grid", "1e-12,1e-8")
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row["advantage_nbar"]) == 2.0 * float(row["ppt_nbar"])
        assert rows[0]["ppt_nbar"] == "9.99999999999e-13"

    def test_pinned_digits(self, capsys):
        # ppt_nbar is the exact x / (1 + x)
        code, out, _ = run_cli(capsys, "threshold-scan", "--x-grid", "0.1:0.9:9")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row["ppt_nbar"] for row in rows] == [
            "0.09090909090909091",
            "0.16666666666666669",
            "0.23076923076923078",
            "0.28571428571428575",
            "0.3333333333333333",
            "0.37499999999999994",
            "0.4117647058823529",
            "0.4444444444444445",
            "0.4736842105263158",
        ]


def assert_rejected_before_work(capsys, monkeypatch, target, attr, *argv):
    """The flag check exits 2 with one stderr line, before ``target.attr`` is reached."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flag check")

    monkeypatch.setattr(target, attr, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    return err


class TestGridFlags:
    @pytest.mark.parametrize("count", [cli.MAX_GRID_POINTS + 1, 10**8, 10**30])
    def test_point_cap(self, capsys, monkeypatch, count):
        argv = ("stability", "--s", "1", "--x", "0.5", f"--phi-grid=0:1:{count}")
        err = assert_rejected_before_work(capsys, monkeypatch, np, "linspace", *argv)
        assert str(cli.MAX_GRID_POINTS) in err

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "-1e308:1e308:3", "0,nan", "-inf,0"])
    @pytest.mark.parametrize("command", ["stability", "threshold-scan"])
    def test_non_finite_values(self, capsys, monkeypatch, command, grid):
        if command == "stability":
            argv = ("stability", "--s", "1", "--x", "0.5", f"--phi-grid={grid}")
            assert_rejected_before_work(capsys, monkeypatch, mc, "stability_scan", *argv)
        else:
            argv = ("threshold-scan", f"--x-grid={grid}")
            assert_rejected_before_work(capsys, monkeypatch, cli.gauss, "noise_boundaries", *argv)

    @pytest.mark.parametrize("grid", ["0.1,,0.5", "0.1,0.5,", ",0.3"])
    @pytest.mark.parametrize("flag", ["--x-grid", "--phi-grid"])
    def test_empty_list_entry(self, capsys, flag, grid):
        # the rule of every comma-list flag: --priors 0.5,0.5, is refused too
        stability = ("stability", "--s", "1", "--x", "0.5")
        command = ("threshold-scan",) if flag == "--x-grid" else stability
        code, out, err = run_cli(capsys, *command, f"{flag}={grid}")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and flag in err and str(cli.MAX_GRID_POINTS) in err


    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (("discriminate", "--u1", "pauli:z", "--u2", "pauli:x"), "--priors", "-0.0,1"),
            (("covariant", "--d", "2"), "--schmidt-spec", "-0.0,1"),
            (("threshold-scan",), "--x-grid", "-0.5:0.5:3"),
            (("stability", "--s", "0.5", "--x", "0.5"), "--phi-grid", "-1:1:3"),
        ],
    )
    def test_leading_dash_value_parses_as_its_equals_form(self, capsys, command, flag, value):
        # plain argparse reads '-0.5:0.5:3' as an unknown option and exits 2 with its usage
        spaced = run_cli(capsys, *command, flag, value)
        assert spaced == run_cli(capsys, *command, f"{flag}={value}")
        assert spaced[0] == 0


class TestStability:
    def test_flat_entangled_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability", "--s", "2", "--x", "0.5", "--phi-grid=-0.1:0.1:5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        entangled = [float(row["entangled_variance"]) for row in rows]
        assert max(entangled) - min(entangled) < 1e-12
        mid = rows[2]
        assert float(mid["squeezed_variance"]) == pytest.approx(
            0.25 * np.exp(-4.0), abs=1e-12
        )

    def test_entangled_column_at_the_largest_gain_below_one(self, capsys):
        # x = 1 - 2^-53, so Delta^2 = 2^-53 / (2 - 2^-53) rounds to 2^-54
        code, out, err = run_cli(capsys, "stability", "--s", "2", "--x", "0.9999999999999999", "--phi-grid=0:1:2")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [row["entangled_variance"] for row in rows] == ["5.551115123125783e-17"] * 2
        assert float(rows[0]["entangled_variance"]) == 2.0**-54

    @pytest.mark.parametrize(
        "s", ["nan", "inf", "400", "-400", repr(math.nextafter(gauss.MAX_SQUEEZING, math.inf))]
    )
    def test_squeezing_must_stay_finite(self, capsys, monkeypatch, s):
        argv = ("stability", "--s", s, "--x", "0.5", "--phi-grid=0:1:3")
        err = assert_rejected_before_work(capsys, monkeypatch, mc, "stability_scan", *argv)
        assert "--s" in err

    @pytest.mark.parametrize("s", [gauss.MAX_SQUEEZING, -gauss.MAX_SQUEEZING])
    def test_largest_squeezing_runs(self, capsys, s):
        argv = ("stability", f"--s={s!r}", "--x", "0.5", "--phi-grid=-3:3:7")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "nan" not in out and "inf" not in out


class TestCovariant:
    def test_pinned_digits(self, capsys):
        code, out, _ = run_cli(capsys, "covariant", "--d", "2", "--schmidt-spec", "0.9,0.1")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0] == {"quantity": "chi_bits", "value": "1.4689955935892813"}

    @pytest.mark.parametrize("d", [cli.MAX_COVARIANT_DIM + 1, 10**6])
    def test_dimension_cap(self, capsys, monkeypatch, d):
        argv = ("covariant", "--d", str(d), "--schmidt-spec", "1")
        err = assert_rejected_before_work(capsys, monkeypatch, cli, "weyl_heisenberg_group", *argv)
        assert str(cli.MAX_COVARIANT_DIM) in err

    def test_quantities(self, capsys):
        code, out, _ = run_cli(capsys, "covariant", "--d", "2", "--schmidt-spec", "0.9,0.1")
        assert code == 0
        _, rows = parse_csv(out)
        values = {row["quantity"]: float(row["value"]) for row in rows}
        assert values["chi_bits"] == pytest.approx(1.4689955935892812, abs=1e-8)
        assert values["span_dim"] == 4.0
        expected_likelihood = (np.sqrt(0.9) + np.sqrt(0.1)) ** 2
        assert values["likelihood"] == pytest.approx(expected_likelihood, abs=1e-10)
        assert values["likelihood"] <= values["likelihood_bound"] + 1e-10

    def test_maximally_entangled_saturates(self, capsys):
        third = repr(1.0 / 3.0)
        code, out, _ = run_cli(
            capsys, "covariant", "--d", "3", "--schmidt-spec", ",".join([third] * 3)
        )
        assert code == 0
        _, rows = parse_csv(out)
        values = {row["quantity"]: float(row["value"]) for row in rows}
        assert values["likelihood"] == pytest.approx(3.0, abs=1e-8)
        assert values["chi_bits"] == pytest.approx(2.0 * np.log2(3.0), abs=1e-8)
        assert values["span_dim"] == 9.0

    def test_weights_must_sum_to_one(self, capsys):
        code, _, err = run_cli(capsys, "covariant", "--d", "2", "--schmidt-spec", "0.8,0.1")
        assert code == 2
        assert "sum" in err

    def test_weight_sum_checked_at_the_library_tolerance(self, capsys):
        err = assert_exit_two(capsys, "covariant", "--d", "2", "--schmidt-spec", "0.5,0.5000005")
        assert "sum" in err

    def test_clipped_negative_weight_accepted(self, capsys):
        # weights down to -SCHMIDT_NEG_ATOL are clipped to 0, as ProbeState.from_schmidt does
        code, out, err = run_cli(capsys, "covariant", "--d", "2", "--schmidt-spec", "1,-1e-13")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "covariant", "--d", "2", "--schmidt-spec", "1,0")[1]

    @pytest.mark.parametrize("spec", ["nan,1", "1,nan", "inf,0", "2,-inf"])
    def test_non_finite_weights_rejected(self, capsys, spec):
        assert_exit_two(capsys, "covariant", "--d", "2", "--schmidt-spec", spec)

    def test_bad_weight_count(self, capsys):
        code, _, err = run_cli(capsys, "covariant", "--d", "3", "--schmidt-spec", "0.5,0.5")
        assert code == 2

    def test_overflowing_weight_sum_prints_one_line(self):
        # a separate interpreter, so that no warning filter of the test run hides a numpy warning
        code, out, err = run_entry_point("covariant", "--d", "2", "--schmidt-spec", "1e308,1e308")
        assert (code, out) == (2, "")
        assert err == "entprobe: --schmidt-spec: Schmidt weights must sum to 1, got inf\n"


class TestWhGroup:
    @pytest.mark.parametrize("d", [cli.MAX_WH_GROUP_DIM + 1, 200, 10**6])
    def test_dimension_cap(self, capsys, monkeypatch, d):
        err = assert_rejected_before_work(
            capsys, monkeypatch, cli, "weyl_heisenberg_group", "wh-group", "--d", str(d)
        )
        assert str(cli.MAX_WH_GROUP_DIM) in err

    def test_hypot_rounds_as_complex_abs(self):
        # the deviation column is np.hypot(re - [j == k], im), which must give the digits of
        # Python's abs(complex(re, im) - (j == k)); np.abs of the complex array does not: under
        # numpy 2.4 it differed in the last digit on a third of 10^6 uniform pairs in [-2, 2)^2
        rng = generator(27)
        n = 100_000
        near_zero = rng.uniform(-1, 1, (2, n)) * 10.0 ** rng.uniform(-300, -1, (2, n))
        near_one = (1 + rng.uniform(-1e-8, 1e-8, n), rng.uniform(-1e-8, 1e-8, n))
        # imaginary parts down to the subnormals, beside unit-sized real parts
        subnormal = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-323, -290, n))
        spread = rng.uniform(-2, 2, (2, n))
        for re, im in (near_zero, near_one, subnormal, spread):
            expected = [abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
            assert np.hypot(re, im).tolist() == expected


def assert_exit_two(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    return err


class TestDiscriminate:
    def test_orthogonal_pair(self, capsys):
        code, out, _ = run_cli(capsys, "discriminate", "--u1", "pauli:z", "--u2", "pauli:x")
        assert code == 0
        _, rows = parse_csv(out)
        values = {row["quantity"]: float(row["value"]) for row in rows}
        assert values["r"] == 0.0
        assert values["p_error"] == 0.0

    def test_bad_priors(self, capsys):
        code, _, _ = run_cli(
            capsys, "discriminate", "--u1", "pauli:z", "--u2", "pauli:x", "--priors", "0.9,0.3"
        )
        assert code == 2

    @pytest.mark.parametrize("priors", ["-0.0,1", "1,-0.0"])
    def test_negative_zero_prior_prints_a_zero_error(self, capsys, priors):
        argv = ("discriminate", "--u1", "pauli:z", "--u2", "pauli:x", f"--priors={priors}")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert {row["quantity"]: row["value"] for row in rows}["p_error"] == "0.0"

    @pytest.mark.parametrize("priors", ["nan,nan", "1,nan", "nan,1"])
    def test_nan_priors_rejected(self, capsys, priors):
        argv = ("discriminate", "--u1", "pauli:z", "--u2", "pauli:x", "--priors", priors)
        assert "priors" in assert_exit_two(capsys, *argv)

    @pytest.mark.parametrize("command", ["discriminate", "ncopies"])
    def test_unitarity_checked_at_the_library_tolerance(self, capsys, tmp_path, command):
        # u†u - I = 6e-9: inside the CLI's former 1e-8, outside the library's 1e-10
        path = tmp_path / "near.json"
        path.write_text(json.dumps([[[1 + 3e-9, 0], [0, 0]], [[0, 0], [1, 0]]]))
        err = assert_exit_two(capsys, command, "--u1", f"file:{path}", "--u2", "pauli:z")
        assert "not unitary within 1e-10" in err

    @pytest.mark.parametrize("command", ["discriminate", "ncopies"])
    def test_relative_unitary_checked(self, capsys, tmp_path, command):
        # each copy passes the 1e-10 rule; u2† u1 = u†u fails it
        path = tmp_path / "edge.json"
        path.write_text("[[[1.000000000049,0],[0,0]],[[0,0],[1.000000000049,0]]]")
        err = assert_exit_two(capsys, command, "--u1", f"file:{path}", "--u2", f"file:{path}")
        assert err == f"entprobe: {command}: relative unitary u2† u1 is not unitary within 1e-10\n"

    @pytest.mark.parametrize("command", ["discriminate", "ncopies"])
    @pytest.mark.parametrize("token", ["Infinity", "NaN"])
    def test_non_finite_file_entry_refused(self, capsys, tmp_path, command, token):
        # json.load reads both tokens; the matrix is refused before any product, where an inf
        # would raise numpy's invalid-value warning
        path = tmp_path / "odd.json"
        path.write_text(f"[[[{token}, 0], [0, 0]], [[0, 0], [1, 0]]]")
        err = assert_exit_two(capsys, command, "--u1", f"file:{path}", "--u2", "pauli:x")
        assert err == f"entprobe: file:{path}: every matrix entry must be finite\n"

    def test_mismatched_dimensions(self, capsys):
        assert_exit_two(capsys, "discriminate", "--u1", "pauli:z", "--u2", "wh:3,1,0")

    @pytest.mark.parametrize(
        "content", ["{}", "[{}]", "3", "[" * 100_000], ids=["object", "list", "number", "deep"]
    )
    def test_file_that_is_no_array(self, capsys, tmp_path, content):
        path = tmp_path / "odd.json"
        path.write_text(content)
        err = assert_exit_two(capsys, "discriminate", "--u1", f"file:{path}", "--u2", "pauli:z")
        assert "could not read" in err


@pytest.mark.parametrize("command", ["discriminate", "ncopies"])
def test_one_eigendecomposition_per_command(capsys, monkeypatch, command):
    # every number both commands print comes from one polygon of u2† u1
    calls = []

    def counted(u):
        calls.append(u.shape)
        return eig_unitary(u)

    monkeypatch.setattr(discrim, "eig_unitary", counted)
    code, _, _ = run_cli(capsys, command, "--u1", "wh:64,1,0", "--u2", "wh:64,0,1")
    assert code == 0
    assert calls == [(64, 64)]


@pytest.mark.parametrize("argv, dim", [(["pauli-demo"], 2), (["wh-group", "--d", "8"], 8)], ids=["pauli-demo", "wh-group"])
def test_one_gram_per_command(capsys, monkeypatch, argv, dim):
    # the Gram columns and the deviation or error column come from one Gram matrix
    calls = []

    def counted(group, probe):
        calls.append(group.dim)
        return discrim.output_gram(group, probe)

    monkeypatch.setattr(cli, "output_gram", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == [dim]


class TestOutputFormats:
    def test_json_metadata_and_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "threshold-scan",
            "--x-grid",
            "0.2,0.7",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"]
        assert doc["command"] == "threshold-scan"
        assert doc["flags"]["x_grid"] == "0.2,0.7"
        assert doc["columns"][0] == "x"
        # shortest round-trip printing: parsing back gives the exact floats
        reparsed = json.loads(json.dumps(doc))
        assert reparsed == doc

    def test_csv_round_trips_exact_floats(self, capsys):
        code, out, _ = run_cli(capsys, "threshold-scan", "--x-grid", "0.1:0.9:7")
        assert code == 0
        _, rows = parse_csv(out)
        from entprobe.gauss import tmsv_epr_variance

        for row in rows:
            x = float(row["x"])  # shortest repr round-trips bit-exactly
            assert float(row["delta_sq"]) == tmsv_epr_variance(x)

    @pytest.mark.parametrize(
        "argv",
        [
            ("pauli-demo",),
            ("wh-group", "--d", "2"),
            ("discriminate", "--u1", "pauli:z", "--u2", "wh:2,1,1"),
            ("ncopies", "--u1", "pauli:i", "--u2", "pauli:i"),
            ("covariant", "--d", "2", "--schmidt-spec", "0.8,0.2"),
            ("cv-estimate", "--x", "0.4", "--nbar", "0.3", "--trials", "500", "--seed", "9"),
            ("threshold-scan", "--x-grid", "0.3,0.6"),
            ("stability", "--s", "1.5", "--x", "0.4", "--phi-grid", "0:0.1:4"),
        ],
    )
    def test_csv_json_value_agreement(self, capsys, argv):
        # the two formats must carry bit-identical numbers
        code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        header, rows = parse_csv(csv_out)
        assert header == doc["columns"]
        assert len(rows) == len(doc["rows"])
        for csv_row, json_row in zip(rows, doc["rows"]):
            for col, json_value in zip(header, json_row):
                if isinstance(json_value, float):
                    assert float(csv_row[col]) == json_value  # exact, both shortest-repr
                elif isinstance(json_value, bool):
                    assert csv_row[col] == ("true" if json_value else "false")
                elif json_value is None:
                    assert csv_row[col] == ""
                else:
                    assert csv_row[col] == str(json_value)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "pauli-demo", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(path.read_text())
        assert len(rows) == 16

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["pauli-demo", "--bogus"])
        assert info.value.code == 2


@pytest.mark.parametrize("angles", ["inf,0", "0,-inf", "nan,0"])
def test_diag_angles_must_be_finite(capsys, angles):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would surface as exit 1
        err = assert_exit_two(capsys, "ncopies", "--u1", f"diag:{angles}", "--u2", "diag:0,0")
    assert "finite" in err


class TestUnitaryDimensionCap:
    def test_largest_dimension_parses(self):
        d = cli.MAX_UNITARY_DIM
        assert parse_unitary(f"wh:{d},1,0").shape == (d, d)
        assert parse_unitary("diag:" + ",".join(["0"] * d)).shape == (d, d)

    def test_wh_form(self, capsys, monkeypatch):
        d = cli.MAX_UNITARY_DIM + 1
        argv = ("discriminate", "--u1", f"wh:{d},1,0", "--u2", "pauli:z")
        err = assert_rejected_before_work(capsys, monkeypatch, cli, "_shift_phase", *argv)
        assert str(cli.MAX_UNITARY_DIM) in err

    def test_diag_form(self, capsys, monkeypatch):
        spec = "diag:" + ",".join(["0"] * (cli.MAX_UNITARY_DIM + 1))
        argv = ("ncopies", "--u1", "pauli:z", "--u2", spec)
        err = assert_rejected_before_work(capsys, monkeypatch, np, "diag", *argv)
        assert str(cli.MAX_UNITARY_DIM) in err

    def test_file_form(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps([[]] * (cli.MAX_UNITARY_DIM + 1)))
        argv = ("discriminate", "--u1", f"file:{path}", "--u2", "pauli:z")
        err = assert_rejected_before_work(capsys, monkeypatch, np, "array", *argv)
        assert str(cli.MAX_UNITARY_DIM) in err


# Every subcommand at a small size: its exact CSV header and the flag names its JSON echoes.
CONTRACT = [
    pytest.param(("pauli-demo",), "g,h,gram_re,gram_im,p_error", set(), id="pauli-demo"),
    pytest.param(("wh-group", "--d", "2"), "g,h,gram_re,gram_im,deviation", {"d"}, id="wh-group"),
    pytest.param(
        ("discriminate", "--u1", "pauli:z", "--u2", "pauli:x"),
        "quantity,value",
        {"u1", "u2", "priors"},
        id="discriminate",
    ),
    pytest.param(
        ("ncopies", "--u1", "pauli:z", "--u2", "pauli:x"),
        "reachable,n_copies,r,spread",
        {"u1", "u2", "n_max"},
        id="ncopies",
    ),
    pytest.param(
        ("covariant", "--d", "2", "--schmidt-spec", "0.8,0.2"),
        "quantity,value",
        {"d", "schmidt_spec"},
        id="covariant",
    ),
    pytest.param(
        ("cv-estimate", "--x", "0.4", "--trials", "100"),
        "scheme,x,nbar,trials,seed,delta2_analytic,delta2_empirical,z_score,rng",
        {"x", "nbar", "trials", "seed"},
        id="cv-estimate",
    ),
    pytest.param(
        ("threshold-scan", "--x-grid", "0.3"),
        "x,delta_sq,advantage_nbar,ppt_nbar",
        {"x_grid"},
        id="threshold-scan",
    ),
    pytest.param(
        ("stability", "--s", "1", "--x", "0.4", "--phi-grid", "0"),
        "phi,squeezed_variance,entangled_variance,squeezed_photons,entangled_photons",
        {"s", "x", "phi_grid"},
        id="stability",
    ),
]


def readme_commands():
    """The argv of each line of the README's command-line block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("entprobe ")]


def first_difference(got: str, want: str):
    """None for equal texts, else where they part and 60 characters of each from there: a
    table of megabytes fails with a short message, not a diff of the whole text."""
    if got == want:
        return None
    at = len(os.path.commonprefix([got, want]))
    return at, got[at : at + 60], want[at : at + 60]


ORACLE_CASES = [
    *readme_commands(),
    *(["wh-group", "--d", str(d)] for d in (2, 16, cli.MAX_WH_GROUP_DIM)),
    ["ncopies", "--u1", "diag:0,0", "--u2", "diag:0,0"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", ORACLE_CASES, ids=[" ".join(argv) for argv in ORACLE_CASES])
def test_table_matches_the_row_writer(capsys, argv, fmt):
    # the columns reach the same bytes as a dict per row; Gram digits depend on the BLAS
    # build, so the oracle is rebuilt here rather than pinned as a hash
    argv = [*argv, "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert first_difference(out, table_by_rows(argv)) is None


class TestCliContract:
    @pytest.mark.parametrize("argv, header, flags", CONTRACT)
    def test_csv_header(self, capsys, argv, header, flags):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == header

    @pytest.mark.parametrize("argv, header, flags", CONTRACT)
    def test_json_flags(self, capsys, argv, header, flags):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["command"], ",".join(doc["columns"])) == (argv[0], header)
        assert set(doc["flags"]) == flags

    def test_internal_failure_exits_one(self, capsys, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "output_gram", broken)
        code, out, err = run_cli(capsys, "pauli-demo")
        assert (code, out, err) == (1, "", "entprobe: internal failure: injected\n")
        path = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, "pauli-demo", "--output", str(path))
        assert (code, out, err) == (1, "", "entprobe: internal failure: injected\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("discriminate", "--u1", "pauli:z", "--u2", "pauli:x", "--priors"),
                "entprobe discriminate: error: argument --priors: expected one argument",
            ),
            (
                ("cv-estimate", "-x", "0.5"),
                "entprobe cv-estimate: error: the following arguments are required: --x",
            ),
            (("wh-group",), "entprobe wh-group: error: the following arguments are required: --d"),
        ],
        ids=["missing-value", "one-dash-flag", "missing-flag"],
    )
    def test_usage_error_prints_one_line(self, capsys, argv, message):
        # plain argparse prints its usage block before the error line
        with pytest.raises(SystemExit) as exited:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exited.value.code, captured.out, captured.err) == (2, "", message + "\n")

    def test_readme_commands_run(self, capsys):
        commands = readme_commands()
        assert [argv[0] for argv in commands] == [param.id for param in CONTRACT]
        for argv in commands:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out

    def test_startup_imports_neither_mpmath_nor_scipy(self):
        # the test oracles use both; the command line must not pay for either at start-up
        probe = "import sys, entprobe.cli; print(sorted({'mpmath', 'scipy'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_startup_imports_neither_logging_nor_the_thread_pool(self):
        # the samplers' pool module loads logging; only a sampler run may pay for either
        probe = "import sys, entprobe.cli; print(sorted({'logging', 'concurrent.futures'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("name", ["", "missing/table.csv"], ids=["directory", "missing-parent"])
    def test_unopenable_output_exits_two(self, tmp_path, name):
        path = str(tmp_path / name)
        code, out, err = run_entry_point("pauli-demo", "--output", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"entprobe: --output: cannot open {path!r}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "name",
        ["", "missing/table.csv", "kept.csv/table.csv"],
        ids=["directory", "missing-parent", "file-parent"],
    )
    def test_unopenable_output_refused_before_the_run(self, capsys, monkeypatch, tmp_path, name):
        # the path is checked before any sampling, and the check creates and truncates nothing
        (tmp_path / "kept.csv").write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        path = str(tmp_path / name)
        with pytest.raises(OSError) as refused:
            open(path, "w")
        err = assert_rejected_before_work(
            capsys, monkeypatch, mc, "sample_heterodyne",
            "cv-estimate", "--x", "0.5", "--trials", "20000000", "--output", path,
        )
        assert err == f"entprobe: --output: cannot open {path!r}: {refused.value.strerror}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "kept.csv").read_text() == "kept\n"

    def test_unwritable_output_directory_refused_before_the_run(self, capsys, monkeypatch, tmp_path):
        # a directory that the process may not write to, as os.access reports it
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        path = str(tmp_path / "table.csv")
        err = assert_rejected_before_work(
            capsys, monkeypatch, mc, "sample_heterodyne",
            "cv-estimate", "--x", "0.5", "--output", path,
        )
        assert err == f"entprobe: --output: cannot open {path!r}: Permission denied\n"
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_ends_the_run_quietly(self):
        # the reader takes the header and closes the pipe, as '| head -n 1' does; the 65 536
        # rows left overflow the pipe's buffer, so the next write meets the closed end
        proc = subprocess.Popen(
            [sys.executable, "-m", "entprobe.cli", "wh-group", "--d", "16"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        try:
            header = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert header == b"g,h,gram_re,gram_im,deviation\n"
        assert (proc.returncode, err) == (141, b"")

    def test_stdout_closed_at_start_needs_output(self, tmp_path):
        # '>&-' starts the interpreter with no fd 1, so sys.stdout is None: without --output
        # the run is refused before any work, with --output the table goes to the file
        def closed_stdout_run(*argv):
            command = ['exec "$0" -m entprobe.cli "$@" >&-', sys.executable, *argv]
            result = subprocess.run(
                ["sh", "-c", *command], capture_output=True, text=True, timeout=60, env=child_env()
            )
            return result.returncode, result.stderr

        code, err = closed_stdout_run("pauli-demo")
        assert code == 2
        assert err.startswith("entprobe: ") and "--output" in err
        assert err.count("\n") == 1 and err.endswith("\n")
        path = tmp_path / "table.csv"
        assert closed_stdout_run("pauli-demo", "--output", str(path)) == (0, "")
        assert path.read_text() == run_entry_point("pauli-demo")[1]
