"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
criterion carries the tolerance and the runtime budget it must meet.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from entprobe.discrim import (
    DiscriminationProblem,
    apply_local,
    average_likelihood,
    copies_for_perfect,
    covariant_povm,
    helstrom_error,
    holevo_chi,
    min_overlap_r,
    optimal_pair_input,
    output_gram,
    output_span_dimension,
    pauli_group,
    tensor_power_spread,
    weyl_heisenberg_group,
)
from entprobe.gauss import (
    NoiseSpec,
    advantage_threshold,
    apply_displacement_noise,
    ppt_noise_boundary,
    ppt_separability,
    quadrature_variance,
    squeezed_state,
    tmsv_epr_variance,
    tmsv_state,
)
from entprobe.linops import ProbeState, vectorize, von_neumann_entropy
from entprobe.mc import sample_heterodyne, stability_scan
from entprobe.rand import generator, haar_unitary, random_povm_seed, random_probe, random_pure_state

from _helpers import copies_by_enumeration, spread_by_enumeration


class Criterion:
    """Collects sub-check outcomes, prints one line, then enforces them."""

    def __init__(self, number: int, name: str, budget_seconds: float):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.started = time.perf_counter()
        self.failures: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def note(self, message: str):
        self.notes.append(message)

    def conclude(self):
        elapsed = time.perf_counter() - self.started
        self.check(elapsed < self.budget, f"runtime {elapsed:.2f}s over budget {self.budget}s")
        verdict = "PASS" if not self.failures else "FAIL"
        detail = f" [{'; '.join(self.failures)}]" if self.failures else ""
        notes = f" ({'; '.join(self.notes)})" if self.notes else ""
        print(f"acceptance {self.number:02d} {self.name}: {verdict} ({elapsed:.2f}s){notes}{detail}")
        assert not self.failures, "; ".join(self.failures)


# ---------------------------------------------------------------------------
# independent brute-force oracles
# ---------------------------------------------------------------------------


def bloch_grid_min_overlap(w: np.ndarray) -> float:
    """Two-stage dense grid over qubit states; no eigenvalue geometry used."""

    def values(thetas, phis):
        t, p = np.meshgrid(thetas, phis, indexing="ij")
        c = np.cos(t / 2.0)
        s = np.sin(t / 2.0) * np.exp(1j * p)
        return np.abs(
            np.conj(c) * (w[0, 0] * c + w[0, 1] * s) + np.conj(s) * (w[1, 0] * c + w[1, 1] * s)
        )

    thetas = np.linspace(0.0, np.pi, 240)
    phis = np.linspace(0.0, 2.0 * np.pi, 480, endpoint=False)
    coarse = values(thetas, phis)
    it, ip = np.unravel_index(np.argmin(coarse), coarse.shape)
    dt, dp = np.pi / 239, 2.0 * np.pi / 480
    fine = values(
        np.linspace(thetas[it] - dt, thetas[it] + dt, 60),
        np.linspace(phis[ip] - dp, phis[ip] + dp, 60),
    )
    return float(min(coarse.min(), fine.min()))


def sampled_min_overlap(w: np.ndarray, rng, n_samples=3000, n_polish=6) -> float:
    """Random-state sweep plus local polish over the raw state parametrization."""
    dim = w.shape[0]
    v = rng.standard_normal((n_samples, dim)) + 1j * rng.standard_normal((n_samples, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    vals = np.abs(np.einsum("ni,ij,nj->n", v.conj(), w, v))
    order = np.argsort(vals)
    best = float(vals[order[0]])

    def objective(params):
        vec = params[:dim] + 1j * params[dim:]
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            return 1.0
        vec = vec / norm
        return abs(np.vdot(vec, w @ vec)) ** 2

    for idx in order[:n_polish]:
        start = np.concatenate([v[idx].real, v[idx].imag])
        res = minimize(objective, start, method="L-BFGS-B")
        best = min(best, float(np.sqrt(max(res.fun, 0.0))))
    return best


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_bell_discrimination():
    crit = Criterion(1, "Bell discrimination", 1.0)
    group = pauli_group()
    probe = ProbeState.maximally_entangled(2)
    gram = output_gram(group, probe)
    crit.check(
        float(np.max(np.abs(gram - np.eye(4)))) < 1e-12,
        "Gram matrix of the four outputs deviates from I4 beyond 1e-12",
    )
    for j in range(4):
        for k in range(j + 1, 4):
            problem = DiscriminationProblem(group.elements[j], group.elements[k])
            p_err = helstrom_error(problem, probe)
            crit.check(p_err <= 1e-12, f"pair ({j},{k}) error {p_err:.3e} not zero")
    crit.conclude()


def test_criterion_02_weyl_heisenberg_orthogonality():
    crit = Criterion(2, "Weyl-Heisenberg outputs", 5.0)
    rng = generator(202)
    for d in (2, 3, 4, 5):
        group = weyl_heisenberg_group(d)
        gram = output_gram(group, ProbeState.maximally_entangled(d))
        deviation = float(np.max(np.abs(gram - np.eye(d * d))))
        crit.check(deviation < 1e-10, f"d={d}: Gram deviation {deviation:.2e}")
        for _ in range(5):  # 20 random local probes across the four dimensions
            psi = random_pure_state(d, rng)
            outputs = np.stack([u @ psi for u in group.elements])
            rank = np.linalg.matrix_rank(outputs)
            crit.check(rank <= d, f"d={d}: local outputs span {rank} > {d}")
    crit.conclude()


def test_criterion_03_span_law():
    crit = Criterion(3, "output span law", 10.0)
    rng = generator(303)
    for d in (2, 3, 4):
        group = weyl_heisenberg_group(d)
        for i in range(50):
            rank = int(rng.integers(1, d + 1))
            probe = random_probe(d, rng, rank=rank)
            span = output_span_dimension(group, probe)
            crit.check(span == d * rank, f"d={d} rank={rank}: span {span} != {d * rank}")
    crit.conclude()


def test_criterion_04_information_bound():
    crit = Criterion(4, "information bound", 5.0)
    rng = generator(404)
    chi_max = holevo_chi(pauli_group(), ProbeState.maximally_entangled(2))
    crit.check(abs(chi_max - 2.0) < 1e-8, f"maximally entangled qubit chi {chi_max!r} != 2")
    chi_prod = holevo_chi(pauli_group(), ProbeState.product([1, 0], [1, 0]))
    crit.check(abs(chi_prod - 1.0) < 1e-8, f"product qubit chi {chi_prod!r} != 1")
    groups = {2: pauli_group(), 3: weyl_heisenberg_group(3)}
    for d, group in groups.items():
        for _ in range(10):
            probe = random_probe(d, rng, rank=int(rng.integers(1, d + 1)))
            expected = np.log2(d) + von_neumann_entropy(probe.reduced_state())
            got = holevo_chi(group, probe)
            crit.check(
                abs(got - expected) < 1e-8,
                f"d={d}: chi {got!r} vs log2(d)+S {expected!r}",
            )
    crit.conclude()


def test_criterion_05_overlap_geometry():
    crit = Criterion(5, "overlap geometry", 60.0)
    rng = generator(505)
    worst_oracle_gap = 0.0
    worst_constructive_gap = 0.0
    best_entangled_margin = np.inf

    def entangled_trial_margin(w, r):
        # 200 random states on the doubled space must never beat r
        d = w.shape[0]
        big = np.kron(w, np.eye(d))
        v = rng.standard_normal((200, d * d)) + 1j * rng.standard_normal((200, d * d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        vals = np.abs(np.einsum("ni,ij,nj->n", v.conj(), big, v))
        return float(vals.min() - r)

    for dim in (2, 3):
        for _ in range(100):
            w = haar_unitary(dim, rng)
            r = min_overlap_r(w).r
            oracle = bloch_grid_min_overlap(w) if dim == 2 else sampled_min_overlap(w, rng)
            worst_oracle_gap = max(worst_oracle_gap, abs(oracle - r))
            psi = optimal_pair_input(w)
            worst_constructive_gap = max(
                worst_constructive_gap, abs(abs(np.vdot(psi, w @ psi)) - r)
            )
            best_entangled_margin = min(best_entangled_margin, entangled_trial_margin(w, r))
    crit.check(
        worst_oracle_gap < 2e-3, f"brute-force gap {worst_oracle_gap:.2e} exceeds 2e-3"
    )
    crit.check(
        worst_constructive_gap < 1e-8,
        f"constructive input misses r by {worst_constructive_gap:.2e}",
    )
    crit.check(
        best_entangled_margin > -1e-9,
        f"an entangled trial state beat r by {-best_entangled_margin:.2e}",
    )
    crit.note(f"oracle gap {worst_oracle_gap:.1e}, constructive gap {worst_constructive_gap:.1e}")
    crit.conclude()


def test_criterion_06_ncopy_exactness():
    crit = Criterion(6, "n-copy exactness", 5.0)
    w_third = np.diag(np.exp(1j * np.array([0.0, np.pi / 3.0])))
    eye = np.eye(2, dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)

    n = copies_for_perfect(DiscriminationProblem(w_third, eye), 20)
    crit.check(n == 3, f"phases (0, pi/3) needed {n} copies, expected 3")
    n = copies_for_perfect(DiscriminationProblem(sz, sx), 20)
    crit.check(n == 1, f"antipodal pair needed {n} copies, expected 1")
    n = copies_for_perfect(DiscriminationProblem(eye, eye), 20)
    crit.check(n is None, f"identical unitaries reported reachable at {n}")

    # the library's closed forms against brute enumeration of n-fold phase sums
    rng = generator(606)
    for w in (w_third, haar_unitary(2, rng), haar_unitary(3, rng)):
        phases = np.angle(np.linalg.eigvals(w))
        for copies in range(1, 13):
            expected = spread_by_enumeration(phases, copies)
            got = tensor_power_spread(w, copies)
            crit.check(
                abs(got - expected) < 1e-8,
                f"spread law n={copies}: {got!r} vs enumerated {expected!r}",
            )
        n = copies_for_perfect(DiscriminationProblem(w, np.eye(w.shape[0])), 20)
        expected = copies_by_enumeration(phases, 20)
        crit.check(n == expected, f"copy count {n} vs enumerated {expected}")
    crit.conclude()


def test_criterion_07_covariant_povm():
    crit = Criterion(7, "covariant POVM", 5.0)
    rng = generator(707)
    for i in range(10):
        d = 2 if i % 2 == 0 else 3
        group = weyl_heisenberg_group(d)
        seed = random_povm_seed(d, rng)
        povm = covariant_povm(group, seed)
        completeness = float(np.max(np.abs(sum(povm) - np.eye(d * d))))
        crit.check(completeness < 1e-8, f"seed {i}: completeness defect {completeness:.2e}")
        probe = random_probe(d, rng)
        value = average_likelihood(seed, probe)
        crit.check(value <= d + 1e-10, f"seed {i}: likelihood {value!r} above bound {d}")
    for d in (2, 3):
        u = haar_unitary(d, rng)
        probe = ProbeState(u / np.sqrt(d))
        matched = d * np.outer(probe.as_vector(), probe.as_vector().conj())
        value = average_likelihood(matched, probe)
        crit.check(abs(value - d) < 1e-8, f"matched probe likelihood {value!r} != {d}")
    crit.conclude()


def test_criterion_08_cv_statistics():
    crit = Criterion(8, "continuous-variable statistics", 30.0)
    for i, x in enumerate((0.2, 0.5, 0.8)):
        for j, nbar in enumerate((0.0, 0.5, 1.0)):
            noise = NoiseSpec(nbar)
            ent = sample_heterodyne(x, 0.25 + 0.5j, noise, "entangled", 100_000, 1000 + 100 * i + 10 * j)
            crit.check(
                abs(ent.z_score) <= 4.0,
                f"entangled x={x} nbar={nbar}: z={ent.z_score:.2f}",
            )
            crit.check(
                abs(ent.analytic - (tmsv_epr_variance(x) + 2.0 * nbar)) < 1e-12,
                f"entangled reference off at x={x} nbar={nbar}",
            )
            unent = sample_heterodyne(x, 0.25 + 0.5j, noise, "unentangled", 100_000, 1001 + 100 * i + 10 * j)
            crit.check(
                abs(unent.z_score) <= 4.0,
                f"unentangled x={x} nbar={nbar}: z={unent.z_score:.2f}",
            )
            crit.check(
                abs(unent.analytic - (1.0 + nbar)) < 1e-12,
                f"unentangled reference off at nbar={nbar}",
            )
    for x in (0.2, 0.5, 0.8):
        got = advantage_threshold(x)
        crit.check(
            abs(got - (1.0 - tmsv_epr_variance(x))) < 1e-12,
            f"crossover at x={x} is {got!r}, not 1 - Delta^2",
        )
    ladder = [advantage_threshold(x) for x in (0.9, 0.99, 0.999, 0.9999)]
    crit.check(
        all(b > a for a, b in zip(ladder, ladder[1:])) and ladder[-1] > 0.9998,
        f"threshold ladder {ladder} does not approach 1",
    )
    crit.conclude()


def test_criterion_09_stability():
    crit = Criterion(9, "stability under phase mismatch", 5.0)
    phis = np.linspace(-0.1, 0.1, 41)

    scan = stability_scan(1.2, 0.5, phis)
    expected = 0.25 * (
        np.exp(2.4) * np.sin(phis) ** 2 + np.exp(-2.4) * np.cos(phis) ** 2
    )
    crit.check(
        float(np.max(np.abs(scan.squeezed_variance - expected))) < 1e-12,
        "squeezed column departs from the closed form",
    )
    flatness = float(np.max(scan.entangled_variance) - np.min(scan.entangled_variance))
    crit.check(flatness < 1e-12, f"entangled column varies by {flatness:.2e}")

    # matched budgets: the two-mode probe gets exactly the squeezing photons
    rows = []
    for s in (1.0, 1.5, 2.0, 2.5, 3.0):
        budget = np.sinh(s) ** 2
        x = np.sqrt(budget / (2.0 + budget))
        scan = stability_scan(s, x, phis)
        squeezed_worst = float(np.max(scan.squeezed_variance))
        entangled_flat = float(np.max(scan.entangled_variance))
        # like-for-like units: each scheme relative to its own vacuum level,
        # vacuum quadrature variance 1/4 versus heterodyne variance 1
        entangled_quadrature_equiv = entangled_flat / 4.0
        rows.append((s, squeezed_worst, entangled_flat, entangled_quadrature_equiv))
        crit.check(
            entangled_quadrature_equiv < squeezed_worst,
            f"s={s}: entangled worst case {entangled_quadrature_equiv:.6f} not below "
            f"squeezed worst case {squeezed_worst:.6f} "
            f"(raw scan columns: {entangled_flat:.6f} vs {squeezed_worst:.6f})",
        )
    crit.note(
        "matched-budget table (s, squeezed worst, entangled, entangled/4): "
        + ", ".join(f"({s}, {a:.4f}, {b:.4f}, {c:.4f})" for s, a, b, c in rows)
    )
    crit.conclude()


def test_criterion_10_separability_boundary():
    crit = Criterion(10, "separability boundary", 1.0)
    for x in (0.2, 0.5, 0.8, 0.95):
        r = np.arctanh(x)
        closed_form = (1.0 - np.exp(-2.0 * r)) / 2.0
        located = ppt_noise_boundary(x)
        crit.check(
            abs(located - closed_form) < 1e-10,
            f"x={x}: boundary {located!r} vs closed form {closed_form!r}",
        )
        # closed-form partial-transpose eigenvalue check at the boundary
        state = apply_displacement_noise(
            apply_displacement_noise(tmsv_state(x), 0, closed_form), 1, closed_form
        )
        nu = ppt_separability(state).min_pt_symplectic_eigenvalue
        crit.check(abs(nu - 0.25) < 1e-10, f"x={x}: boundary eigenvalue {nu!r} != 1/4")
        crit.note(
            f"x={x}: advantage boundary {advantage_threshold(x):.6f}, "
            f"separability boundary {located:.6f}"
        )
    crit.conclude()
