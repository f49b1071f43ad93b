"""Command-line front end: one subcommand per scenario, CSV or JSON tables out.

Data goes to stdout (or ``--output``), diagnostics to stderr.  Exit status 0
on success, 2 for a flag outside its domain or an ``--output`` path that
cannot be opened, 1 for an internal numerical failure, and 141 when the
reader closes stdout early.  Floats are printed in shortest round-trip form,
so re-parsing an emitted table reproduces the values exactly.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__, gauss, mc
from .discrim import (
    DiscriminationProblem,
    _shift_phase,
    average_likelihood,
    copies_for_perfect,
    helstrom_error,
    holevo_chi,
    output_gram,
    output_span_dimension,
    pauli_group,
    weyl_heisenberg_group,
)
from .linops import ProbeState, assert_unitary


class FlagDomainError(Exception):
    """A parsed flag fell outside the domain of the target operation."""


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


# Most points a grid flag may ask for, checked before the grid is allocated.
MAX_GRID_POINTS = 10**6

# Largest wh-group --d: d^4 rows, 456 976 of them at d = 26 in 1.0 s and 116 MB resident as CSV,
# 0.9 s and 187 MB as JSON (d = 27: 1.2 s, 130 MB; 1.0 s, 212 MB), median of 7 process runs on a
# 2-core x86-64 VM.
MAX_WH_GROUP_DIM = 26

# Largest covariant --d: 0.16-0.20 s, 64 MB resident at d = 24 (0.71-0.81 s, 132 MB at d = 32)
# on a 2-core x86-64 VM, growing like d^6 with the 1-design certificate and the seed check.
MAX_COVARIANT_DIM = 24

# Largest dimension of a parsed unitary: discriminate on wh:d,1,0 vs wh:d,0,1
# takes 0.22-0.31 s and 56 MB resident at d = 384 (0.08-0.11 s at 256, 0.45 s
# at 448, 0.71 s and 74 MB at 512, 4.8 s and 193 MB at 1024) in-process on one
# BLAS thread of a 2-core x86-64 VM, growing like d^3.
MAX_UNITARY_DIM = 384


def _parse_grid(text: str, name: str) -> np.ndarray:
    """Grid flags accept 'lo:hi:count' or a comma list read as ``_parse_numbers`` reads one."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            # an infinite hi - lo would fill the grid with inf and nan
            if 1 <= count <= MAX_GRID_POINTS and math.isfinite(hi - lo):
                # the last point, (count - 1) times the step, may overflow before it is set to hi
                with np.errstate(over="ignore"):
                    return np.linspace(lo, hi, count)
        elif len(values := _parse_numbers(text, name)) <= MAX_GRID_POINTS:
            return np.array(values)
    except (ValueError, FlagDomainError):
        pass
    raise FlagDomainError(
        f"{name} must be 'lo:hi:count' or a comma list of finite numbers, "
        f"at most {MAX_GRID_POINTS} points, got {text!r}"
    )


def _parse_numbers(text: str, name: str) -> list[float]:
    """Priors, Schmidt weights and diag angles: a comma list of finite numbers, no token empty."""
    try:
        values = [float(tok) for tok in text.split(",")]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise FlagDomainError(f"{name} must be a comma list of finite numbers, got {text!r}")


def _library_check(flag: str, rule, *args):
    """Apply a library validity rule to flag input; its ValueError becomes a FlagDomainError."""
    try:
        return rule(*args)
    except ValueError as err:
        raise FlagDomainError(f"{flag}: {err}") from None


def parse_unitary(text: str) -> np.ndarray:
    """Inline unitaries: pauli:x | wh:d,m,n | diag:t1,t2,... | file:PATH.

    ``file:`` reads a JSON 2-d array whose entries are [re, im] pairs.  Every
    form is at most ``MAX_UNITARY_DIM`` wide, checked before the matrix is
    built, and passes the library's unitarity rule.
    """

    def check_dim(d: int) -> None:
        message = f"unitary dimension must be at most {MAX_UNITARY_DIM}, got {d} in {text!r}"
        _check(d <= MAX_UNITARY_DIM, message)

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
        check_dim(d)
        u = _shift_phase(d, m, n)[0]
    elif kind == "diag":
        thetas = _parse_numbers(rest, "diag angles")
        check_dim(len(thetas))
        u = np.diag(np.exp(1j * np.array(thetas)))
    elif kind == "file":
        try:
            with open(rest) as fh:
                raw = json.load(fh)
            if isinstance(raw, list):
                check_dim(len(raw))
            arr = np.array(raw, dtype=float)
            if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError
            u = arr[..., 0] + 1j * arr[..., 1]
        except (OSError, RecursionError, TypeError, ValueError):
            raise FlagDomainError(
                f"could not read a square 2-d array of [re, im] pairs from {rest!r}"
            )
    else:
        raise FlagDomainError(f"unknown unitary format {kind!r} in {text!r}")
    return _library_check(text, assert_unitary, u)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise FlagDomainError(message)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


# Parsed arguments that steer the run rather than describe the table.
_NOT_FLAGS = ("command", "format", "output", "run")


def _emit(ns: argparse.Namespace, table: dict[str, list], stream) -> None:
    """Write ``table``: equal-length columns by name, each of one Python type, one row or more."""
    columns = list(table)
    if ns.format == "csv":
        # the csv module writes a float in shortest round-trip form and None as an empty cell
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        cells = (
            [("false", "true")[v] for v in col] if type(col[0]) is bool else col
            for col in table.values()
        )
        writer.writerows(zip(*cells))
    else:
        doc = {
            "version": __version__,
            "command": ns.command,
            "flags": {k: v for k, v in sorted(vars(ns).items()) if k not in _NOT_FLAGS},
            "columns": columns,
            "rows": list(zip(*table.values())),
        }
        print(json.dumps(doc), file=stream)


# ---------------------------------------------------------------------------
# subcommands: each checks its own flags, then returns its columns
# ---------------------------------------------------------------------------


def _gram_table(group, gram: np.ndarray, column: str, cells: list) -> dict[str, list]:
    """A row per ordered pair (g, h), g-major: their outputs' Gram entry, then ``cells``."""
    labels = list(group.labels)
    return {
        "g": [label for label in labels for _ in labels],
        "h": labels * len(labels),
        "gram_re": gram.real.ravel().tolist(),
        "gram_im": gram.imag.ravel().tolist(),
        column: cells,
    }


def _run_pauli_demo(ns):
    group = pauli_group()
    probe = ProbeState.maximally_entangled(2)
    gram = output_gram(group, probe)
    pairs = [DiscriminationProblem(u, v) for u in group.elements for v in group.elements]
    p_error = [helstrom_error(problem, probe) for problem in pairs]
    return _gram_table(group, gram, "p_error", p_error)


def _run_wh_group(ns):
    d = ns.d
    _check(2 <= d <= MAX_WH_GROUP_DIM, f"--d must be between 2 and {MAX_WH_GROUP_DIM}, got {d}")
    group = weyl_heisenberg_group(d)
    gram = output_gram(group, ProbeState.maximally_entangled(d))
    # hypot rounds as complex abs does; np.abs of the complex array can differ in the last digit
    deviation = np.hypot(gram.real - np.eye(len(gram)), gram.imag)
    return _gram_table(group, gram, "deviation", deviation.ravel().tolist())


def _run_discriminate(ns):
    u1, u2 = parse_unitary(ns.u1), parse_unitary(ns.u2)
    priors = _parse_numbers(ns.priors, "--priors")
    _check(len(priors) == 2, f"--priors must be 'p1,p2', got {ns.priors!r}")
    problem = _library_check(ns.command, DiscriminationProblem, u1, u2, *priors)
    polygon = problem.polygon
    psi = polygon.witness
    values = {"r": polygon.r, "spread": polygon.spread, "p_error": helstrom_error(problem, psi)}
    for k, amp in enumerate(psi):
        values[f"psi_{k}_re"] = amp.real
        values[f"psi_{k}_im"] = amp.imag
    return {"quantity": list(values), "value": list(map(float, values.values()))}


def _run_ncopies(ns):
    hypotheses = parse_unitary(ns.u1), parse_unitary(ns.u2)
    problem = _library_check(ns.command, DiscriminationProblem, *hypotheses)
    n = _library_check("--n-max", copies_for_perfect, problem, ns.n_max)
    polygon = problem.polygon
    return {"reachable": [n is not None], "n_copies": [n], "r": [polygon.r], "spread": [polygon.spread]}


def _run_covariant(ns):
    weights = _parse_numbers(ns.schmidt_spec, "--schmidt-spec")
    d = ns.d
    _check(2 <= d <= MAX_COVARIANT_DIM, f"--d must be between 2 and {MAX_COVARIANT_DIM}, got {d}")
    _check(len(weights) == d, f"--schmidt-spec needs {d} weights, got {len(weights)}")
    probe = _library_check("--schmidt-spec", ProbeState.from_schmidt, weights)
    group = weyl_heisenberg_group(d)
    # rank-one seed built from the probe's polar unitary maximizes the likelihood
    uu, _, vh = np.linalg.svd(probe.e_op)
    polar = uu @ vh
    seed_vec = polar.reshape(-1)
    seed = np.outer(seed_vec, seed_vec.conj())
    values = {
        "chi_bits": holevo_chi(group, probe),
        "span_dim": output_span_dimension(group, probe),
        "likelihood": average_likelihood(seed, probe),
        "likelihood_bound": d,
    }
    return {"quantity": list(values), "value": list(map(float, values.values()))}


def _run_cv_estimate(ns):
    x, nbar, trials, seed = ns.x, ns.nbar, ns.trials, ns.seed
    _library_check("--x", gauss._check_gain, x)
    _library_check("--nbar", gauss._check_nbar, nbar)
    _library_check("--trials", mc._check_trials, trials)
    _library_check("--seed", mc._check_seed, seed)
    _library_check("--nbar", mc._check_deviation_sum, nbar, trials)
    noise = gauss.NoiseSpec(nbar)
    schemes = ["entangled", "unentangled"]
    reports = [mc.sample_heterodyne(x, 0.0, noise, scheme, trials, seed) for scheme in schemes]
    return {
        "scheme": schemes,
        "x": [float(x)] * 2,
        "nbar": [float(nbar)] * 2,
        "trials": [trials] * 2,
        "seed": [seed] * 2,
        "delta2_analytic": [report.analytic for report in reports],
        "delta2_empirical": [report.empirical for report in reports],
        "z_score": [report.z_score for report in reports],
        "rng": [report.rng for report in reports],
    }


def _run_threshold_scan(ns):
    grid = _parse_grid(ns.x_grid, "--x-grid")
    grid = [_library_check("--x-grid", gauss._check_gain, x) for x in grid]
    boundaries = zip(*map(gauss.noise_boundaries, grid))
    return {
        "x": grid,
        "delta_sq": list(map(gauss.tmsv_epr_variance, grid)),
        **dict(zip(gauss.NoiseBoundaries._fields, map(list, boundaries))),
    }


def _run_stability(ns):
    phi_grid = _parse_grid(ns.phi_grid, "--phi-grid")
    _library_check("--s", gauss._check_squeezing, ns.s)
    _library_check("--x", gauss._check_gain, ns.x)
    scan = mc.stability_scan(ns.s, ns.x, phi_grid)
    n = len(scan.phis)
    return {
        "phi": scan.phis.tolist(),
        "squeezed_variance": scan.squeezed_variance.tolist(),
        "entangled_variance": scan.entangled_variance.tolist(),
        "squeezed_photons": [float(scan.squeezed_photons)] * n,
        "entangled_photons": [float(scan.entangled_photons)] * n,
    }


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads every one-dash token it has no option for as a value, so
    '--priors -0.0,1' and '--x-grid -0.5:0.5:3' parse as their '=' forms do.  Plain argparse
    takes only a bare negative number for a value; ``-h`` stays the help flag.  A usage error
    prints one stderr line, without the usage block, and exits 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entprobe", description="entangled-probe measurement scenarios")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write the table here instead of stdout")
        return p

    add("pauli-demo", _run_pauli_demo, "Gram matrix and error probabilities of the four Bell outputs")

    p = add("wh-group", _run_wh_group, "orthogonality report for the shift-and-phase group outputs")
    p.add_argument("--d", type=int, required=True)

    p = add("discriminate", _run_discriminate, "minimum overlap, spread and optimal input for two unitaries")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--priors", default="0.5,0.5")

    p = add("ncopies", _run_ncopies, "copies needed for exact discrimination of two unitaries")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--n-max", type=int, default=64)

    p = add("covariant", _run_covariant, "information bound and likelihood for a chosen probe spectrum")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--schmidt-spec", required=True, help="comma list of Schmidt-squared weights")

    p = add("cv-estimate", _run_cv_estimate, "Monte Carlo displacement estimation with and without entanglement")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--nbar", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("threshold-scan", _run_threshold_scan, "advantage and separability noise boundaries over a gain grid")
    p.add_argument("--x-grid", required=True)

    p = add("stability", _run_stability, "phase-mismatch scan of squeezed versus entangled probes")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--phi-grid", required=True)

    return parser


# The status a shell reports for a filter that SIGPIPE ends, 128 + 13.
_CLOSED_STDOUT = 141


def _check_output(path: str) -> None:
    """Raise the OSError that ``open(path, "w")`` is sure to meet, found without creating or
    truncating anything: a directory, a file that is not writable, or a parent directory that
    is missing, not a directory or not writable."""
    target = os.path.realpath(path)
    if os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    # a new file is made in its directory; a stat with a trailing separator fails as open would
    where = target if os.path.exists(target) else os.path.join(os.path.dirname(target), "")
    os.stat(where)
    if not os.access(where, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def _on_output(path: str, opener, *args):
    """``opener(path, *args)``, an OSError from it reported as a bad --output flag."""
    try:
        return opener(path, *args)
    except OSError as err:
        raise FlagDomainError(f"--output: cannot open {path!r}: {err.strerror}") from None


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)  # exits 2 on a usage error
    if ns.output is None and sys.stdout is None:  # started with stdout closed ('>&-')
        print("entprobe: stdout is closed; write the table to a file with --output", file=sys.stderr)
        return 2
    try:
        if ns.output is not None:  # checked before the run and opened after it
            _on_output(ns.output, _check_output)
        table = ns.run(ns)
        if ns.output is None:
            try:
                _emit(ns, table, sys.stdout)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader has all it wanted ('| head'); stdout now writes to the null
                # device, so the interpreter's last flush meets no closed pipe either
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return _CLOSED_STDOUT
        else:
            with _on_output(ns.output, open, "w") as fh:
                _emit(ns, table, fh)
    except FlagDomainError as err:
        print(f"entprobe: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # internal numerical failure
        print(f"entprobe: internal failure: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
