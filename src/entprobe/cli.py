"""Command-line front end: one subcommand per scenario, CSV or JSON tables out.

Data goes to stdout (or ``--output``), diagnostics to stderr.  Exit status 0
on success, 2 for a flag outside its domain, 1 for an internal numerical
failure.  Floats are printed in shortest round-trip form, so re-parsing an
emitted table reproduces the values exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, gauss, mc
from .discrim import (
    DiscriminationProblem,
    _shift_phase,
    average_likelihood,
    copies_for_perfect,
    helstrom_error,
    holevo_chi,
    min_overlap_r,
    optimal_pair_input,
    output_gram,
    output_span_dimension,
    pauli_group,
    weyl_heisenberg_group,
)
from .linops import ProbeState, assert_unitary


class FlagDomainError(Exception):
    """A parsed flag fell outside the domain of the target operation."""


@dataclass
class RunConfig:
    command: str
    fmt: str = "csv"
    output: str | None = None
    options: dict = field(default_factory=dict)  # parsed values handed to the handler
    flags: dict = field(default_factory=dict)  # raw flag echo for JSON metadata


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


# Most points a grid flag may ask for, checked before the grid is allocated.
MAX_GRID_POINTS = 10**6

# Largest wh-group --d: d^4 rows, 331 776 of them in 1.4 s and 143 MB resident
# at d = 24 (2.4 s, 240 MB at d = 28) on a 2-core x86-64 VM.
MAX_WH_GROUP_DIM = 24

# Largest covariant --d: 0.36 s and 64 MB resident at d = 24 (1.4 s, 131 MB at
# d = 32) on a 2-core x86-64 VM, growing like d^6 with the d^2 x d^2 rank.
MAX_COVARIANT_DIM = 24

# e^(2|s|), and with it sinh(s)^2, stays finite exactly up to this squeezing.
MAX_SQUEEZING = math.log(sys.float_info.max) / 2.0


def _parse_grid(text: str, name: str) -> np.ndarray:
    """Grid flags accept 'lo:hi:count' or a comma-separated list, all finite."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            # an infinite hi - lo would fill the grid with inf and nan
            if 1 <= count <= MAX_GRID_POINTS and math.isfinite(hi - lo):
                return np.linspace(lo, hi, count)
        else:
            values = np.array([float(tok) for tok in text.split(",") if tok != ""])
            if 1 <= values.size <= MAX_GRID_POINTS and np.all(np.isfinite(values)):
                return values
    except ValueError:
        pass
    raise FlagDomainError(
        f"{name} must be 'lo:hi:count' or a comma list of finite numbers, "
        f"at most {MAX_GRID_POINTS} points, got {text!r}"
    )


def _library_check(flag: str, rule, *args):
    """Apply a library validity rule to flag input; its ValueError becomes a FlagDomainError."""
    try:
        return rule(*args)
    except ValueError as err:
        raise FlagDomainError(f"{flag}: {err}") from None


def parse_unitary(text: str) -> np.ndarray:
    """Inline unitaries: pauli:x | wh:d,m,n | diag:t1,t2,... | file:PATH.

    ``file:`` reads a JSON 2-d array whose entries are [re, im] pairs.  All
    forms are checked with the library's unitarity rule.
    """
    kind, _, rest = text.partition(":")
    if kind == "pauli":
        group = pauli_group()
        table = {label.lower(): u for label, u in zip(group.labels, group.elements)}
        if rest.lower() not in table:
            raise FlagDomainError(f"pauli label must be one of i,x,y,z, got {rest!r}")
        u = table[rest.lower()]
    elif kind == "wh":
        try:
            d, m, n = (int(tok) for tok in rest.split(","))
        except ValueError:
            raise FlagDomainError(f"wh spec must be 'd,m,n', got {rest!r}")
        if d < 2 or not (0 <= m < d) or not (0 <= n < d):
            raise FlagDomainError(f"wh indices out of range in {text!r}")
        u = _shift_phase(d, m, n)[0]
    elif kind == "diag":
        try:
            thetas = np.array([float(tok) for tok in rest.split(",")])
        except ValueError:
            raise FlagDomainError(f"diag spec must be a comma list of angles, got {rest!r}")
        if thetas.size == 0:
            raise FlagDomainError("diag spec must contain at least one angle")
        u = np.diag(np.exp(1j * thetas))
    elif kind == "file":
        try:
            with open(rest) as fh:
                raw = json.load(fh)
            arr = np.array(raw, dtype=float)
            if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError
            u = arr[..., 0] + 1j * arr[..., 1]
        except (OSError, ValueError, json.JSONDecodeError):
            raise FlagDomainError(
                f"could not read a square 2-d array of [re, im] pairs from {rest!r}"
            )
    else:
        raise FlagDomainError(f"unknown unitary format {kind!r} in {text!r}")
    return _library_check(text, assert_unitary, u)


def _parse_priors(text: str) -> tuple[float, float]:
    try:
        p1, p2 = (float(tok) for tok in text.split(","))
    except ValueError:
        raise FlagDomainError(f"priors must be 'p1,p2', got {text!r}")
    return p1, p2


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise FlagDomainError(message)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(config: RunConfig, columns: list[str], rows: list[dict], stream) -> None:
    if config.fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in columns])
    else:
        doc = {
            "version": __version__,
            "command": config.command,
            "flags": {k: v for k, v in sorted(config.flags.items())},
            "columns": columns,
            "rows": [[row[col] for col in columns] for row in rows],
        }
        print(json.dumps(doc), file=stream)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_pauli_demo(opts: dict):
    group = pauli_group()
    probe = ProbeState.maximally_entangled(2)
    gram = output_gram(group, probe)
    rows = []
    for j, lj in enumerate(group.labels):
        for k, lk in enumerate(group.labels):
            problem = DiscriminationProblem(group.elements[j], group.elements[k])
            rows.append(
                {
                    "g": lj,
                    "h": lk,
                    "gram_re": float(gram[j, k].real),
                    "gram_im": float(gram[j, k].imag),
                    "p_error": float(helstrom_error(problem, probe)),
                }
            )
    return ["g", "h", "gram_re", "gram_im", "p_error"], rows


def _run_wh_group(opts: dict):
    d = opts["d"]
    _check(2 <= d <= MAX_WH_GROUP_DIM, f"--d must be between 2 and {MAX_WH_GROUP_DIM}, got {d}")
    group = weyl_heisenberg_group(d)
    gram = output_gram(group, ProbeState.maximally_entangled(d))
    target = np.eye(d * d)
    rows = []
    for i, li in enumerate(group.labels):
        for j, lj in enumerate(group.labels):
            rows.append(
                {
                    "g": li,
                    "h": lj,
                    "gram_re": float(gram[i, j].real),
                    "gram_im": float(gram[i, j].imag),
                    "deviation": float(abs(gram[i, j] - target[i, j])),
                }
            )
    return ["g", "h", "gram_re", "gram_im", "deviation"], rows


def _run_discriminate(opts: dict):
    problem = opts["problem"]
    w = problem.relative_unitary
    polygon = min_overlap_r(w)
    psi = optimal_pair_input(w)
    rows = [
        {"quantity": "r", "value": float(polygon.r)},
        {"quantity": "spread", "value": float(polygon.spread)},
        {"quantity": "p_error", "value": float(helstrom_error(problem, psi))},
    ]
    for k, amp in enumerate(psi):
        rows.append({"quantity": f"psi_{k}_re", "value": float(amp.real)})
        rows.append({"quantity": f"psi_{k}_im", "value": float(amp.imag)})
    return ["quantity", "value"], rows


def _run_ncopies(opts: dict):
    problem = opts["problem"]
    n = _library_check("--n-max", copies_for_perfect, problem, opts["n_max"])
    polygon = min_overlap_r(problem.relative_unitary)
    rows = [
        {
            "reachable": n is not None,
            "n_copies": n,
            "r": float(polygon.r),
            "spread": float(polygon.spread),
        }
    ]
    return ["reachable", "n_copies", "r", "spread"], rows


def _run_covariant(opts: dict):
    d = opts["d"]
    _check(2 <= d <= MAX_COVARIANT_DIM, f"--d must be between 2 and {MAX_COVARIANT_DIM}, got {d}")
    weights = opts["schmidt"]
    _check(len(weights) == d, f"--schmidt-spec needs {d} weights, got {len(weights)}")
    probe = _library_check("--schmidt-spec", ProbeState.from_schmidt, weights)
    group = weyl_heisenberg_group(d)
    # rank-one seed built from the probe's polar unitary maximizes the likelihood
    uu, _, vh = np.linalg.svd(probe.e_op)
    polar = uu @ vh
    seed_vec = polar.reshape(-1)
    seed = np.outer(seed_vec, seed_vec.conj())
    rows = [
        {"quantity": "chi_bits", "value": float(holevo_chi(group, probe))},
        {"quantity": "span_dim", "value": float(output_span_dimension(group, probe))},
        {"quantity": "likelihood", "value": float(average_likelihood(seed, probe))},
        {"quantity": "likelihood_bound", "value": float(d)},
    ]
    return ["quantity", "value"], rows


def _run_cv_estimate(opts: dict):
    x, nbar, trials, seed = opts["x"], opts["nbar"], opts["trials"], opts["seed"]
    _library_check("--x", gauss._check_gain, x)
    _check(math.isfinite(nbar) and nbar >= 0.0, f"--nbar must be finite and nonnegative, got {nbar}")
    _library_check("--trials", mc._check_trials, trials)
    _check(0 <= seed < 2**64, f"--seed must fit in 64 bits, got {seed}")
    # Box-Muller uniforms are at least 2^-53, so no squared deviation exceeds
    # 53 ln 2 < 37 times the variance: the sum over the trials must stay finite.
    variance = max(1.0 + nbar, gauss.tmsv_epr_variance(x) + 2.0 * nbar)
    _check(
        math.isfinite(37.0 * variance * trials),
        f"--nbar {nbar} with --trials {trials} overflows the sum of squared deviations",
    )
    noise = gauss.NoiseSpec(nbar)
    rows = []
    for scheme in ("entangled", "unentangled"):
        report = mc.sample_heterodyne(x, 0.0, noise, scheme, trials, seed)
        rows.append(
            {
                "scheme": scheme,
                "x": float(x),
                "nbar": float(nbar),
                "trials": trials,
                "seed": seed,
                "delta2_analytic": report.analytic,
                "delta2_empirical": report.empirical,
                "z_score": report.z_score,
                "rng": report.rng,
            }
        )
    return [
        "scheme",
        "x",
        "nbar",
        "trials",
        "seed",
        "delta2_analytic",
        "delta2_empirical",
        "z_score",
        "rng",
    ], rows


def _run_threshold_scan(opts: dict):
    grid = opts["x_grid"]
    for x in grid:
        _library_check("--x-grid", gauss._check_gain, x)
    rows = []
    for x in grid:
        bounds = gauss.noise_boundaries(float(x))
        rows.append(
            {
                "x": float(x),
                "delta_sq": float(gauss.tmsv_epr_variance(float(x))),
                "advantage_nbar": float(bounds.advantage_nbar),
                "ppt_nbar": float(bounds.ppt_nbar),
            }
        )
    return ["x", "delta_sq", "advantage_nbar", "ppt_nbar"], rows


def _run_stability(opts: dict):
    s = opts["s"]
    _check(abs(s) <= MAX_SQUEEZING, f"--s must satisfy |s| <= {MAX_SQUEEZING}, got {s}")
    _library_check("--x", gauss._check_gain, opts["x"])
    scan = mc.stability_scan(s, opts["x"], opts["phi_grid"])
    rows = []
    for phi, sq, ent in zip(scan.phis, scan.squeezed_variance, scan.entangled_variance):
        rows.append(
            {
                "phi": float(phi),
                "squeezed_variance": float(sq),
                "entangled_variance": float(ent),
                "squeezed_photons": float(scan.squeezed_photons),
                "entangled_photons": float(scan.entangled_photons),
            }
        )
    return [
        "phi",
        "squeezed_variance",
        "entangled_variance",
        "squeezed_photons",
        "entangled_photons",
    ], rows


_HANDLERS = {
    "pauli-demo": _run_pauli_demo,
    "wh-group": _run_wh_group,
    "discriminate": _run_discriminate,
    "ncopies": _run_ncopies,
    "covariant": _run_covariant,
    "cv-estimate": _run_cv_estimate,
    "threshold-scan": _run_threshold_scan,
    "stability": _run_stability,
}


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entprobe", description="entangled-probe measurement scenarios"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write the table here instead of stdout")
        return p

    add("pauli-demo", "Gram matrix and error probabilities of the four Bell outputs")

    p = add("wh-group", "orthogonality report for the shift-and-phase group outputs")
    p.add_argument("--d", type=int, required=True)

    p = add("discriminate", "minimum overlap, spread and optimal input for two unitaries")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--priors", default="0.5,0.5")

    p = add("ncopies", "copies needed for exact discrimination of two unitaries")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--n-max", type=int, default=64)

    p = add("covariant", "information bound and likelihood for a chosen probe spectrum")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--schmidt-spec", required=True, help="comma list of Schmidt-squared weights")

    p = add("cv-estimate", "Monte Carlo displacement estimation with and without entanglement")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--nbar", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("threshold-scan", "advantage and separability noise boundaries over a gain grid")
    p.add_argument("--x-grid", required=True)

    p = add("stability", "phase-mismatch scan of squeezed versus entangled probes")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--phi-grid", required=True)

    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    opts: dict = {}
    command = ns.command
    if command == "wh-group":
        opts["d"] = ns.d
    elif command in ("discriminate", "ncopies"):
        hypotheses = parse_unitary(ns.u1), parse_unitary(ns.u2)
        priors = _parse_priors(ns.priors) if command == "discriminate" else ()
        opts["problem"] = _library_check(command, DiscriminationProblem, *hypotheses, *priors)
        opts["n_max"] = getattr(ns, "n_max", None)
    elif command == "covariant":
        opts["d"] = ns.d
        try:
            opts["schmidt"] = [float(tok) for tok in ns.schmidt_spec.split(",")]
        except ValueError:
            raise FlagDomainError(f"--schmidt-spec must be a comma list, got {ns.schmidt_spec!r}")
    elif command == "cv-estimate":
        opts.update(x=ns.x, nbar=ns.nbar, trials=ns.trials, seed=ns.seed)
    elif command == "threshold-scan":
        opts["x_grid"] = _parse_grid(ns.x_grid, "--x-grid")
    elif command == "stability":
        opts.update(s=ns.s, x=ns.x, phi_grid=_parse_grid(ns.phi_grid, "--phi-grid"))
    flags = {k: v for k, v in vars(ns).items() if k not in ("command", "format", "output")}
    return RunConfig(
        command=command, fmt=ns.format, output=ns.output, options=opts, flags=flags
    )


def run(config: RunConfig) -> int:
    columns, rows = _HANDLERS[config.command](config.options)
    if config.output is None:
        _emit(config, columns, rows, sys.stdout)
    else:
        with open(config.output, "w") as fh:
            _emit(config, columns, rows, fh)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)  # argparse itself exits 2 on unknown flags
    try:
        config = config_from_args(ns)
    except FlagDomainError as err:
        print(f"entprobe: {err}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except FlagDomainError as err:
        print(f"entprobe: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # internal numerical failure
        print(f"entprobe: internal failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
