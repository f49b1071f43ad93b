"""The four benchmark workloads: seeded inputs, the jobs that run them, and
the reference check each job's result must pass.

A job is one call (or one short batch of calls) into the package, or one
``entprobe`` CLI invocation.  Inputs are generated here from the workload
seed with numpy's own generators; ``entprobe.rand`` is not used, so the
package receives only finished inputs.  Library functions are looked up
through their module at call time (``discrim.holevo_chi``, not a captured
reference), so the tracer's wrappers see every call.

Every check is independent of the code path it checks where the physics
gives a closed form (entropies from singular values, hull distances from the
generator's own phases, the PPT edge x/(1+x)), and compares CLI output to the
in-process library result exactly where it does not.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from entprobe import cli, discrim, gauss, linops, mc

# The library's eigenphase dedupe tolerance.  The copy-count reference uses
# it only at the pi edge; the seeded spreads keep n * spread at least 1e-3
# away from pi, so the value only has to match the library's to that order.
PHASE_DEDUPE_TOL = 1e-9

# Largest |z| a Monte Carlo estimate may show; a correct sampler exceeds it
# with probability below 1e-6 per call.
Z_LIMIT = 5.0

CHILD_TIMEOUT_S = 120


@dataclass
class Job:
    """One unit of timed work and the check its result must pass.

    ``check`` returns ``None`` for a correct result and a one-line reason
    otherwise.  ``command`` names the CLI subcommand of an invocation.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    command: str = ""


class Plan(NamedTuple):
    """What a workload runs: ``jobs`` are timed for the end-to-end metrics;
    ``traced_jobs`` run in-process under the tracer (the same list, except
    for the CLI session, whose invocations are subprocesses)."""

    jobs: list
    traced_jobs: list


class CliResult(NamedTuple):
    code: int
    stdout: bytes


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag)).conj()


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _circular_spread(phases: np.ndarray) -> float:
    """Width of the smallest arc holding every phase."""
    ph = np.sort(np.mod(phases, 2.0 * np.pi))
    gaps = np.append(np.diff(ph), 2.0 * np.pi - (ph[-1] - ph[0]))
    return float(2.0 * np.pi - gaps.max())


def _off(value: float, reference: float, tol: float, what: str) -> str | None:
    if not abs(value - reference) <= tol:
        return f"{what} = {float(value)!r}, reference {float(reference)!r} (tolerance {tol})"
    return None


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


def _helstrom_reference(c: float, p1: float = 0.5, p2: float = 0.5) -> float:
    return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * p1 * p2 * c * c)))


# ---------------------------------------------------------------------------
# finite-dim: linops and discrim
# ---------------------------------------------------------------------------


def _holevo_jobs(rng: np.random.Generator) -> list:
    jobs = []
    for d in range(2, 13):
        group = discrim.weyl_heisenberg_group(d)
        rank = int(rng.integers(1, d + 1))
        e = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) @ (
            rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d))
        )
        probe = linops.ProbeState(e / np.linalg.norm(e))
        weights = np.linalg.svd(probe.e_op, compute_uv=False) ** 2
        weights = weights[weights > 1e-15]
        chi_ref = math.log2(d) - float(np.sum(weights * np.log2(weights)))

        jobs.append(
            Job(
                f"holevo_chi/d{d}",
                lambda g=group, p=probe: discrim.holevo_chi(g, p),
                lambda chi, ref=chi_ref: _off(chi, ref, 1e-9, "holevo_chi"),
            )
        )
        jobs.append(
            Job(
                f"output_span_dimension/d{d}",
                lambda g=group, p=probe: discrim.output_span_dimension(g, p),
                lambda dim, ref=d * rank: None if dim == ref else f"span {dim}, reference {ref}",
            )
        )
    return jobs


def _copies_jobs(rng: np.random.Generator) -> list:
    jobs = []
    for d in (3, 4, 5):
        for spread in (0.06, 0.2, 0.9):
            start = rng.uniform(-np.pi, np.pi)
            phases = start + spread * np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, d - 2)))
            base = rng.uniform(-np.pi, np.pi, d)
            problem = discrim.DiscriminationProblem(
                np.diag(np.exp(1j * (base + phases))), np.diag(np.exp(1j * base))
            )
            theta = float(phases.max() - phases.min())
            n_ref = 1
            while n_ref * theta < np.pi - PHASE_DEDUPE_TOL:
                n_ref += 1
            jobs.append(
                Job(
                    f"copies_for_perfect/d{d}/spread{spread}",
                    lambda p=problem: discrim.copies_for_perfect(p, 64),
                    lambda n, ref=n_ref: None if n == ref else f"copies {n}, reference {ref}",
                )
            )
    return jobs


def _eig_check(w: np.ndarray):
    def check(result) -> str | None:
        phases, vecs = result
        d = w.shape[0]
        rebuilt = (vecs * np.exp(1j * phases)) @ vecs.conj().T
        return _first(
            None if np.all(np.diff(phases) >= 0) else "phases not ascending",
            None if np.all((phases > -np.pi) & (phases <= np.pi)) else "phases outside (-pi, pi]",
            _off(float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(d)))), 0.0, 1e-9, "V†V - I"),
            _off(float(np.max(np.abs(rebuilt - w))), 0.0, 1e-9, "V e^(i phi) V† - W"),
        )

    return check


def _pair_jobs(label: str, d: int, w: np.ndarray, problem, r_ref: float, spread_ref, probe) -> list:
    """eig_unitary, min_overlap_r, optimal_pair_input and helstrom_error on one pair."""

    def check_polygon(polygon) -> str | None:
        if spread_ref is None:
            spread_reason = None if polygon.spread >= np.pi else f"spread {polygon.spread} < pi"
        else:
            spread_reason = _off(polygon.spread, spread_ref, 1e-9, "spread")
        return _first(_off(polygon.r, r_ref, 1e-9, "r"), spread_reason)

    def check_input(psi) -> str | None:
        gap = abs(abs(np.vdot(psi, w @ psi)) - r_ref)
        return _first(
            _off(float(np.linalg.norm(psi)), 1.0, 1e-9, "|psi|"),
            _off(gap, 0.0, 1e-8, "constructive gap ||<psi|W|psi>| - r|"),
        )

    p_ref = _helstrom_reference(abs(np.vdot(probe, w @ probe)))
    return [
        Job(f"eig_unitary/{label}/d{d}", lambda: linops.eig_unitary(w), _eig_check(w)),
        Job(f"min_overlap_r/{label}/d{d}", lambda: discrim.min_overlap_r(w), check_polygon),
        Job(f"optimal_pair_input/{label}/d{d}", lambda: discrim.optimal_pair_input(w), check_input),
        Job(
            f"helstrom_error/{label}/d{d}",
            lambda: discrim.helstrom_error(problem, probe),
            lambda p: _off(p, p_ref, 1e-9, "helstrom_error"),
        ),
    ]


def _polygon_jobs(rng: np.random.Generator) -> list:
    jobs = []
    # Haar pairs, redrawn until the origin sits well inside the eigenvalue
    # hull (r = 0); at d = 2 that never happens, so they start at d = 4.
    for d in (4, 8, 16, 32, 64, 128):
        while True:
            u1, u2 = _haar(rng, d), _haar(rng, d)
            w = u2.conj().T @ u1
            if _circular_spread(np.angle(np.linalg.eigvals(w))) >= np.pi + 0.1:
                break
        problem = discrim.DiscriminationProblem(u1, u2)
        jobs += _pair_jobs("haar", d, w, problem, 0.0, None, _unit(rng, d))
    # Narrow pairs: eigenphases inside an arc of width theta < pi, so the
    # origin is outside the hull and r = cos(theta / 2).  The best input is
    # the even superposition of the two extreme eigenvectors.
    for d in (2, 4, 8, 16, 32, 64, 128):
        theta = rng.uniform(0.3, 2.5)
        phases = rng.uniform(-np.pi, np.pi) + theta * np.concatenate(
            ([0.0, 1.0], rng.uniform(0.0, 1.0, d - 2))
        )
        v = _haar(rng, d)
        u2 = _haar(rng, d)
        u1 = u2 @ ((v * np.exp(1j * phases)) @ v.conj().T)
        problem = discrim.DiscriminationProblem(u1, u2)
        w = u2.conj().T @ u1
        best = (v[:, 0] + v[:, 1]) / math.sqrt(2.0)
        jobs += _pair_jobs("narrow", d, w, problem, math.cos(theta / 2.0), theta, best)
    return jobs


def finite_dim(seed: int) -> Plan:
    jobs = _holevo_jobs(_rng(seed, 1)) + _copies_jobs(_rng(seed, 2)) + _polygon_jobs(_rng(seed, 3))
    return Plan(jobs, jobs)


# ---------------------------------------------------------------------------
# monte-carlo: mc
# ---------------------------------------------------------------------------

MC_TRIALS = (100_000, 1_000_000, 3_000_000)


def _z_check(report, trials: int, analytic: float, std_error: float) -> str | None:
    z = 0.0 if std_error == 0.0 else (report.empirical - analytic) / std_error
    return _first(
        None if report.trials == trials else f"trials {report.trials}, expected {trials}",
        _off(report.analytic, analytic, 1e-12, "analytic"),
        _off(report.z_score, z, 1e-6 * max(1.0, abs(z)), "z_score"),
        None if abs(z) <= Z_LIMIT else f"|z| = {abs(z):.2f} > {Z_LIMIT}",
        None if analytic != 0.0 or report.empirical == 0.0 else
        f"empirical error {report.empirical!r} where the analytic error is 0",
    )


def _heterodyne_check(x: float, nbar: float, scheme: str, trials: int):
    analytic = ((1.0 - x) / (1.0 + x) + 2.0 * nbar) if scheme == "entangled" else 1.0 + nbar
    # E|z - alpha|^2 is analytic/2 times a chi-square with 2 dof: sd = analytic
    return lambda report: _z_check(report, trials, analytic, analytic / math.sqrt(trials))


def _helstrom_check(p_error: float, trials: int):
    std_error = math.sqrt(p_error * (1.0 - p_error) / trials)
    return lambda report: _z_check(report, trials, p_error, std_error)


def monte_carlo(seed: int) -> Plan:
    rng = _rng(seed, 4)
    x = float(rng.uniform(0.3, 0.9))
    alpha = complex(rng.normal(), rng.normal())
    jobs = []
    for trials in MC_TRIALS:
        for scheme in ("entangled", "unentangled"):
            for nbar in (0.0, 0.5):
                mc_seed = int(rng.integers(0, 2**63))
                jobs.append(
                    Job(
                        f"sample_heterodyne/{scheme}/nbar{nbar}/t{trials}",
                        lambda s=scheme, n=nbar, t=trials, k=mc_seed: mc.sample_heterodyne(
                            x, alpha, gauss.NoiseSpec(n), s, t, k
                        ),
                        _heterodyne_check(x, nbar, scheme, trials),
                    )
                )

    # One qubit pair with nonzero error for a local input and for an
    # entangled ProbeState, plus one Bell pair whose analytic error is 0.
    u1, u2 = _haar(rng, 2), _haar(rng, 2)
    w = u2.conj().T @ u1
    problem = discrim.DiscriminationProblem(u1, u2)
    local = _unit(rng, 2)
    e = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    entangled = linops.ProbeState(e / np.linalg.norm(e))
    cases = [
        ("local", local, _helstrom_reference(abs(np.vdot(local, w @ local)))),
        (
            "entangled",
            entangled,
            _helstrom_reference(abs(np.trace(entangled.e_op.conj().T @ w @ entangled.e_op))),
        ),
    ]
    for label, probe, p_error in cases:
        for trials in MC_TRIALS:
            mc_seed = int(rng.integers(0, 2**63))
            jobs.append(
                Job(
                    f"sample_helstrom/{label}/t{trials}",
                    lambda p=probe, t=trials, k=mc_seed: mc.sample_helstrom(problem, p, t, k),
                    _helstrom_check(p_error, trials),
                )
            )
    bell = discrim.DiscriminationProblem(np.eye(2), np.diag([1.0, -1.0]))
    bell_probe = linops.ProbeState.maximally_entangled(2)
    bell_seed = int(rng.integers(0, 2**63))
    jobs.append(
        Job(
            "sample_helstrom/bell/t100000",
            lambda: mc.sample_helstrom(bell, bell_probe, 100_000, bell_seed),
            _helstrom_check(0.0, 100_000),
        )
    )
    return Plan(jobs, jobs)


# ---------------------------------------------------------------------------
# cv-boundaries: gauss, plus mc.stability_scan
# ---------------------------------------------------------------------------

GAIN_POINTS = 300
GAIN_BATCH = 25
NOISY_STATES = 2000
STATE_BATCH = 200
PHASE_GRIDS = 5
PHASE_POINTS = 2001


def _noisy_tmsv(x: float, nbar: float):
    state = gauss.tmsv_state(x)
    return gauss.apply_displacement_noise(gauss.apply_displacement_noise(state, 0, nbar), 1, nbar)


def _check_boundaries(xs: np.ndarray):
    def check(results) -> str | None:
        for x, bounds in zip(map(float, xs), results):
            delta_sq = (1.0 - x) / (1.0 + x)
            reason = _first(
                _off(bounds.ppt_nbar, x / (1.0 + x), 1e-11, f"ppt_nbar(x={x!r})"),
                _off(bounds.advantage_nbar, 1.0 - delta_sq, 1e-12, f"advantage_nbar(x={x!r})"),
            )
            if reason:
                return reason
        return None

    return check


def _pt_eigenvalue(x: float, nbar: float) -> float:
    """Smallest partial-transpose symplectic eigenvalue of the noisy probe, a - c."""
    r = math.atanh(x)
    return (math.cosh(2.0 * r) / 4.0 + nbar / 2.0) - math.sinh(2.0 * r) / 4.0


def _check_ppt(params: list):
    def check(reports) -> str | None:
        for (x, nbar, *_), report in zip(params, reports):
            nu = _pt_eigenvalue(x, nbar)
            reason = _first(
                _off(report.min_pt_symplectic_eigenvalue, nu, 1e-12, f"PT eigenvalue(x={x!r})"),
                None if report.separable == (nu >= 0.25) else f"separable flag wrong at x={x!r}",
            )
            if reason:
                return reason
        return None

    return check


def _check_epr(params: list):
    def check(laws) -> str | None:
        for (x, nbar, alpha, extra, _), law in zip(params, laws):
            variance = (1.0 - x) / (1.0 + x) + 2.0 * (nbar + extra)
            reason = _first(
                _off(abs(law.mean - alpha), 0.0, 1e-12, f"EPR mean(x={x!r})"),
                _off(law.variance, variance, 1e-12, f"EPR variance(x={x!r})"),
            )
            if reason:
                return reason
        return None

    return check


def _check_scan(s: float, x: float, phis: np.ndarray):
    def check(scan) -> str | None:
        squeezed = (np.exp(-2.0 * s) * np.cos(phis) ** 2 + np.exp(2.0 * s) * np.sin(phis) ** 2) / 4.0
        return _first(
            _off(float(np.max(np.abs(scan.squeezed_variance - squeezed))), 0.0, 1e-12, "squeezed"),
            _off(
                float(np.max(np.abs(scan.entangled_variance - (1.0 - x) / (1.0 + x)))),
                0.0,
                1e-12,
                "entangled",
            ),
            _off(scan.squeezed_photons, math.sinh(s) ** 2, 1e-12, "squeezed photons"),
            _off(scan.entangled_photons, 2.0 * x * x / (1.0 - x * x), 1e-12, "entangled photons"),
        )

    return check


def cv_boundaries(seed: int) -> Plan:
    rng = _rng(seed, 5)
    jobs = []
    gains = np.sort(rng.uniform(0.01, 0.99, GAIN_POINTS))
    for start in range(0, GAIN_POINTS, GAIN_BATCH):
        xs = gains[start : start + GAIN_BATCH]
        jobs.append(
            Job(
                f"noise_boundaries/{start // GAIN_BATCH}",
                lambda xs=xs: [gauss.noise_boundaries(float(x)) for x in xs],
                _check_boundaries(xs),
            )
        )

    params = []
    while len(params) < NOISY_STATES:
        x, nbar = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 1.0))
        if abs(_pt_eigenvalue(x, nbar) - 0.25) < 1e-9:
            continue  # too close to the separability edge to classify
        alpha = complex(rng.normal(), rng.normal())
        params.append((x, nbar, alpha, float(rng.uniform(0.0, 0.5)), float(rng.uniform(-np.pi, np.pi))))
    states = [_noisy_tmsv(x, nbar) for x, nbar, *_ in params]
    for start in range(0, NOISY_STATES, STATE_BATCH):
        batch = states[start : start + STATE_BATCH]
        batch_params = params[start : start + STATE_BATCH]
        jobs.append(
            Job(
                f"ppt_separability/{start // STATE_BATCH}",
                lambda b=batch: [gauss.ppt_separability(g) for g in b],
                _check_ppt(batch_params),
            )
        )
        jobs.append(
            Job(
                f"epr_heterodyne/{start // STATE_BATCH}",
                lambda b=batch, p=batch_params: [
                    gauss.epr_heterodyne(g, alpha, gauss.NoiseSpec(extra), phi)
                    for g, (_, _, alpha, extra, phi) in zip(b, p)
                ],
                _check_epr(batch_params),
            )
        )

    for k in range(PHASE_GRIDS):
        s, x, half = float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.05, 0.5))
        phis = np.linspace(-half, half, PHASE_POINTS)
        jobs.append(
            Job(
                f"stability_scan/{k}",
                lambda s=s, x=x, phis=phis: mc.stability_scan(s, x, phis),
                _check_scan(s, x, phis),
            )
        )
    return Plan(jobs, jobs)


# ---------------------------------------------------------------------------
# cli-session: the entprobe command line
# ---------------------------------------------------------------------------


def _parse_table(text: str, fmt: str):
    if fmt == "json":
        doc = json.loads(text)
        return doc["command"], doc["columns"], doc["rows"]
    records = list(csv.reader(io.StringIO(text)))
    return None, records[0], records[1:]


def _cell_matches(cell, ref, fmt: str) -> bool:
    if fmt == "json":
        return cell == ref and isinstance(cell, bool) == isinstance(ref, bool)
    if isinstance(ref, bool):
        return cell == ("true" if ref else "false")
    if ref is None:
        return cell == ""
    if isinstance(ref, float):
        return float(cell) == ref
    if isinstance(ref, int):
        return int(cell) == ref
    return cell == ref


def _cli_check(command: str, fmt: str, reference: Callable[[], tuple]):
    """Exit 0, the expected header, and every value equal to the library's."""
    cache = []

    def check(result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit status {result.code}"
        if not cache:
            cache.append(reference())
        columns, rows = cache[0]
        doc_command, header, cells = _parse_table(result.stdout.decode(), fmt)
        if fmt == "json" and doc_command != command:
            return f"JSON command {doc_command!r}"
        if list(header) != columns:
            return f"header {header}, expected {columns}"
        if len(cells) != len(rows):
            return f"{len(cells)} rows, expected {len(rows)}"
        for i, (got, ref) in enumerate(zip(cells, rows)):
            if len(got) != len(ref):
                return f"row {i} has {len(got)} cells, expected {len(ref)}"
            for name, cell, value in zip(columns, got, ref):
                if not _cell_matches(cell, value, fmt):
                    return f"row {i} {name} = {cell!r}, library gives {value!r}"
        return None

    return check


def _ref_pauli_demo():
    group = discrim.pauli_group()
    probe = linops.ProbeState.maximally_entangled(2)
    gram = discrim.output_gram(group, probe)
    rows = []
    for j, lj in enumerate(group.labels):
        for k, lk in enumerate(group.labels):
            problem = discrim.DiscriminationProblem(group.elements[j], group.elements[k])
            p_error = float(discrim.helstrom_error(problem, probe))
            rows.append([lj, lk, float(gram[j, k].real), float(gram[j, k].imag), p_error])
    return ["g", "h", "gram_re", "gram_im", "p_error"], rows


def _ref_wh_group(d: int):
    group = discrim.weyl_heisenberg_group(d)
    gram = discrim.output_gram(group, linops.ProbeState.maximally_entangled(d))
    rows = [
        [li, lj, float(gram[i, j].real), float(gram[i, j].imag), float(abs(gram[i, j] - float(i == j)))]
        for i, li in enumerate(group.labels)
        for j, lj in enumerate(group.labels)
    ]
    return ["g", "h", "gram_re", "gram_im", "deviation"], rows


def _ref_discriminate(spec1: str, spec2: str, priors: tuple):
    problem = discrim.DiscriminationProblem(cli.parse_unitary(spec1), cli.parse_unitary(spec2), *priors)
    w = problem.relative_unitary
    polygon = discrim.min_overlap_r(w)
    psi = discrim.optimal_pair_input(w)
    rows = [
        ["r", float(polygon.r)],
        ["spread", float(polygon.spread)],
        ["p_error", float(discrim.helstrom_error(problem, psi))],
    ]
    for k, amp in enumerate(psi):
        rows += [[f"psi_{k}_re", float(amp.real)], [f"psi_{k}_im", float(amp.imag)]]
    return ["quantity", "value"], rows


def _ref_ncopies(spec1: str, spec2: str, n_max: int):
    problem = discrim.DiscriminationProblem(cli.parse_unitary(spec1), cli.parse_unitary(spec2))
    polygon = discrim.min_overlap_r(problem.relative_unitary)
    n = discrim.copies_for_perfect(problem, n_max)
    return ["reachable", "n_copies", "r", "spread"], [
        [n is not None, n, float(polygon.r), float(polygon.spread)]
    ]


def _ref_covariant(d: int, weights: list):
    probe = linops.ProbeState.from_schmidt(weights)
    group = discrim.weyl_heisenberg_group(d)
    uu, _, vh = np.linalg.svd(probe.e_op)
    seed_vec = (uu @ vh).reshape(-1)
    seed_op = np.outer(seed_vec, seed_vec.conj())
    rows = [
        ["chi_bits", float(discrim.holevo_chi(group, probe))],
        ["span_dim", float(discrim.output_span_dimension(group, probe))],
        ["likelihood", float(discrim.average_likelihood(seed_op, probe))],
        ["likelihood_bound", float(d)],
    ]
    return ["quantity", "value"], rows


def _ref_cv_estimate(x: float, nbar: float, trials: int, seed: int):
    rows = []
    for scheme in ("entangled", "unentangled"):
        report = mc.sample_heterodyne(x, 0.0, gauss.NoiseSpec(nbar), scheme, trials, seed)
        rows.append(
            [scheme, float(x), float(nbar), trials, seed, report.analytic, report.empirical,
             report.z_score, report.rng]
        )
    columns = ["scheme", "x", "nbar", "trials", "seed", "delta2_analytic", "delta2_empirical",
               "z_score", "rng"]
    return columns, rows


def _ref_threshold_scan(grid: np.ndarray):
    rows = []
    for x in grid:
        bounds = gauss.noise_boundaries(float(x))
        rows.append(
            [float(x), float(gauss.tmsv_epr_variance(float(x))), float(bounds.advantage_nbar),
             float(bounds.ppt_nbar)]
        )
    return ["x", "delta_sq", "advantage_nbar", "ppt_nbar"], rows


def _ref_stability(s: float, x: float, grid: np.ndarray):
    scan = mc.stability_scan(s, x, grid)
    rows = [
        [float(phi), float(sq), float(ent), float(scan.squeezed_photons), float(scan.entangled_photons)]
        for phi, sq, ent in zip(scan.phis, scan.squeezed_variance, scan.entangled_variance)
    ]
    columns = ["phi", "squeezed_variance", "entangled_variance", "squeezed_photons",
               "entangled_photons"]
    return columns, rows


def _diag_spec(phases) -> str:
    return "diag:" + ",".join(repr(float(p)) for p in phases)


def _grid_spec(lo: float, hi: float, count: int) -> tuple[str, np.ndarray]:
    return f"{lo!r}:{hi!r}:{count}", np.linspace(lo, hi, count)


def cli_script(seed: int) -> list:
    """The fixed session: (argv, reference) pairs, 40 invocations of all 8
    subcommands at README sizes plus the output-heavy ``wh-group --d 16``
    and ``--format json`` runs.  Sizes are fixed; the seed picks values."""
    rng = _rng(seed, 6)
    script = [
        (["pauli-demo"], _ref_pauli_demo),
        (["pauli-demo", "--format", "json"], _ref_pauli_demo),
    ]
    for d in (2, 3, 4, 5, 6, 8, 16):
        script.append((["wh-group", "--d", str(d)], lambda d=d: _ref_wh_group(d)))
    script.append((["wh-group", "--d", "16", "--format", "json"], lambda: _ref_wh_group(16)))

    labels = ["i", "x", "y", "z"]
    a, b = rng.choice(4, size=2, replace=False)
    wd = int(rng.integers(3, 7))
    pairs = [
        ("pauli:z", "pauli:x", "0.5,0.5"),
        (f"pauli:{labels[a]}", f"pauli:{labels[b]}", "0.25,0.75"),
        (f"wh:{wd},{rng.integers(wd)},{rng.integers(wd)}", f"wh:{wd},{rng.integers(wd)},{rng.integers(wd)}",
         "0.5,0.5"),
        (_diag_spec(rng.uniform(-np.pi, np.pi, 3)), _diag_spec(rng.uniform(-np.pi, np.pi, 3)), "0.5,0.5"),
        (_diag_spec(rng.uniform(0.0, 0.8, 4)), _diag_spec(np.zeros(4)), "0.5,0.5"),
        (_diag_spec(rng.uniform(0.0, 2.0, 2)), _diag_spec(np.zeros(2)), "0.5,0.5"),
    ]
    for spec1, spec2, priors in pairs:
        p = tuple(float(t) for t in priors.split(","))
        script.append(
            (["discriminate", "--u1", spec1, "--u2", spec2, "--priors", priors],
             lambda s1=spec1, s2=spec2, p=p: _ref_discriminate(s1, s2, p))
        )
    spec1, spec2, _ = pairs[3]
    script.append(
        (["discriminate", "--u1", spec1, "--u2", spec2, "--format", "json"],
         lambda s1=spec1, s2=spec2: _ref_discriminate(s1, s2, (0.5, 0.5)))
    )

    copies = [
        ("diag:0,1.0471975511965976", "diag:0,0"),
        (_diag_spec([0.0, 0.0]), _diag_spec([0.0, 0.0])),
    ]
    for d, spread in ((2, 0.4), (2, 1.3), (3, 0.3), (3, 0.7), (4, 0.9)):
        phases = rng.uniform(-np.pi, np.pi) + spread * np.concatenate(([0.0, 1.0], rng.uniform(0, 1, d - 2)))
        copies.append((_diag_spec(phases), _diag_spec(np.zeros(d))))
    for spec1, spec2 in copies:
        script.append(
            (["ncopies", "--u1", spec1, "--u2", spec2, "--n-max", "64"],
             lambda s1=spec1, s2=spec2: _ref_ncopies(s1, s2, 64))
        )

    for d, fmt in ((2, "csv"), (3, "csv"), (4, "csv"), (6, "json")):
        weights = [0.9, 0.1] if d == 2 else [float(w) for w in rng.dirichlet(np.ones(d))]
        spec = ",".join(repr(w) for w in weights)
        script.append(
            (["covariant", "--d", str(d), "--schmidt-spec", spec, "--format", fmt],
             lambda d=d, w=weights: _ref_covariant(d, w))
        )

    for fmt in ("csv", "json"):
        x, nbar, cv_seed = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, 1.0)), int(rng.integers(0, 2**63))
        script.append(
            (["cv-estimate", "--x", repr(x), "--nbar", repr(nbar), "--trials", "100000", "--seed",
              str(cv_seed), "--format", fmt],
             lambda x=x, nbar=nbar, k=cv_seed: _ref_cv_estimate(x, nbar, 100_000, k))
        )

    grids = [(0.1, 0.9, 9)] + [
        (float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.6, 0.99)), count) for count in (20, 35, 50)
    ]
    for i, (lo, hi, count) in enumerate(grids):
        spec, grid = _grid_spec(lo, hi, count)
        fmt = "json" if i == 3 else "csv"
        script.append(
            (["threshold-scan", f"--x-grid={spec}", "--format", fmt],
             lambda g=grid: _ref_threshold_scan(g))
        )
    listed = np.sort(rng.uniform(0.01, 0.99, 12))
    script.append(
        (["threshold-scan", "--x-grid=" + ",".join(repr(float(x)) for x in listed)],
         lambda: _ref_threshold_scan(listed))
    )

    stability = [(2.0, 0.5, -0.1, 0.1, 21)] + [
        (float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.1, 0.9)), -half, half, count)
        for half, count in ((0.05, 51), (0.2, 101), (0.3, 151), (0.5, 201))
    ]
    for i, (s, x, lo, hi, count) in enumerate(stability):
        spec, grid = _grid_spec(lo, hi, count)
        fmt = "json" if i == 4 else "csv"
        script.append(
            (["stability", "--s", repr(s), "--x", repr(x), f"--phi-grid={spec}", "--format", fmt],
             lambda s=s, x=x, g=grid: _ref_stability(s, x, g))
        )
    return script


def run_child(argv: list, env: dict, capture: bool = True) -> CliResult:
    """Run a subprocess to completion, blocked in waitpid.

    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    would add up to 50 ms to every latency measured; a watchdog thread kills
    the child instead if it overruns ``CHILD_TIMEOUT_S``.
    """
    proc = subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout, _ = proc.communicate()
    finally:
        watchdog.cancel()
    return CliResult(proc.returncode, stdout or b"")


def _subprocess_runner(argv: list, env: dict):
    return lambda: run_child([sys.executable, "-m", "entprobe.cli", *argv], env)


def _in_process_runner(argv: list):
    def run() -> CliResult:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return CliResult(code, buffer.getvalue().encode())

    return run


def cli_session(seed: int) -> Plan:
    env = child_env()
    jobs, traced = [], []
    for i, (argv, reference) in enumerate(cli_script(seed)):
        command = argv[0]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
        check = _cli_check(command, fmt, reference)
        jobs.append(Job(f"{i:02d}:{command}", _subprocess_runner(argv, env), check, command))
        traced.append(Job(f"{i:02d}:{command}", _in_process_runner(argv), check, command))
    return Plan(jobs, traced)


def child_env() -> dict:
    """Environment for CLI subprocesses: the sources imported here come first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


WORKLOADS = {
    "finite-dim": finite_dim,
    "monte-carlo": monte_carlo,
    "cv-boundaries": cv_boundaries,
    "cli-session": cli_session,
}

# What a fresh interpreter imports for set-up: the CLI session pays for the
# command line's import, the in-process workloads for the whole package.
SETUP_IMPORT = {"cli-session": "import entprobe.cli"}
DEFAULT_IMPORT = "import entprobe"
