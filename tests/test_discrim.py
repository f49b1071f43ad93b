import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entprobe.discrim import (
    DiscriminationProblem,
    UnitaryGroup,
    _input_overlap,
    average_likelihood,
    copies_for_perfect,
    covariant_povm,
    helstrom_acceptance,
    helstrom_error,
    holevo_chi,
    min_overlap_r,
    optimal_pair_input,
    output_gram,
    output_span_dimension,
    output_vectors,
    pauli_group,
    povm_probabilities,
    schur_overlap_omega,
    tensor_power_spread,
    weyl_heisenberg_group,
)
from entprobe.linops import (
    DESIGN_ATOL,
    NORM_ATOL,
    PRIOR_SUM_ATOL,
    RANK_RTOL,
    ProbeState,
    vectorize,
    von_neumann_entropy,
)
from entprobe.rand import generator, haar_unitary, random_povm_seed, random_probe, random_pure_state

from _helpers import (
    closure_defect,
    helstrom_acceptance_at_60_digits,
    helstrom_error_at_40_digits,
    helstrom_thresholds_by_projector,
    holevo_by_ensemble,
    majorization_compare,
    matched_likelihood_closed_form,
    schmidt_coefficients,
    span_by_average_projector,
    spread_by_enumeration,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bloch_grid_min_overlap(w: np.ndarray, n_theta: int = 240, n_phi: int = 480) -> float:
    """Brute-force minimum of |<psi| w |psi>| over qubit states on a Bloch grid.

    Independent of any eigenvalue geometry: two-stage dense grid over the
    polar and azimuthal angles of psi = (cos t/2, e^(i p) sin t/2).
    """

    def values(thetas, phis):
        t, p = np.meshgrid(thetas, phis, indexing="ij")
        c = np.cos(t / 2.0)
        s = np.sin(t / 2.0) * np.exp(1j * p)
        return np.abs(
            np.conj(c) * (w[0, 0] * c + w[0, 1] * s) + np.conj(s) * (w[1, 0] * c + w[1, 1] * s)
        )

    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    grid = values(thetas, phis)
    it, ip = np.unravel_index(np.argmin(grid), grid.shape)
    dt = np.pi / (n_theta - 1)
    dp = 2.0 * np.pi / n_phi
    fine_t = np.linspace(thetas[it] - dt, thetas[it] + dt, 60)
    fine_p = np.linspace(phis[ip] - dp, phis[ip] + dp, 60)
    return float(min(grid.min(), values(fine_t, fine_p).min()))


def brute_force_binary_measurement_error(psi1, psi2, p1=0.5, p2=0.5, n=20_000) -> float:
    """Best error rate over randomly drawn binary projective measurements.

    Draws projector directions at random and keeps the best average error;
    serves as an independent ceiling check on the minimum-error formula.
    """
    rng = generator(987)
    dim = psi1.size
    best = 1.0
    for _ in range(n):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        q1 = abs(np.vdot(v, psi1)) ** 2  # announce hypothesis 1 on outcome v
        q2 = abs(np.vdot(v, psi2)) ** 2
        best = min(best, p1 * (1.0 - q1) + p2 * q2, p1 * q1 + p2 * (1.0 - q2))
    return best


class TestPauliGroup:
    def test_first_element_is_identity(self):
        group = pauli_group()
        assert np.array_equal(group.elements[0], I2)

    def test_bell_outputs_orthonormal(self):
        gram = output_gram(pauli_group(), ProbeState.maximally_entangled(2))
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_local_outputs_linearly_dependent(self):
        rng = generator(30)
        psi = random_pure_state(2, rng)
        outputs = np.stack([u @ psi for u in pauli_group().elements])
        assert np.linalg.matrix_rank(outputs) <= 2

    def test_group_certificates(self):
        group = pauli_group()
        assert closure_defect(group) < 1e-12
        assert group.irreducibility_defect <= DESIGN_ATOL

    def test_non_closed_set_flagged(self):
        from entprobe.discrim import UnitaryGroup

        loose = UnitaryGroup((I2, haar_unitary(2, generator(29))), ("a", "b"))
        assert closure_defect(loose) > 1e-6

    def test_construction_validation(self):
        from entprobe.discrim import UnitaryGroup

        with pytest.raises(ValueError, match="label"):
            UnitaryGroup((I2, SX), ("only-one",))
        with pytest.raises(ValueError, match=r"one shape, got \[\(2, 2\), \(3, 3\)\]"):
            UnitaryGroup((I2, np.eye(3)), ("I2", "I3"))
        with pytest.raises(ValueError, match=r"one shape, got \[\]"):
            UnitaryGroup((), ())


class TestWeylHeisenbergGroup:
    def test_first_element_is_identity(self):
        for d in (2, 3, 5):
            group = weyl_heisenberg_group(d)
            assert np.allclose(group.elements[0], np.eye(d), atol=1e-15)

    def test_d2_matches_pauli_products(self):
        # derived by evaluating the defining sum at d = 2
        group = weyl_heisenberg_group(2)
        table = {"U(0,0)": I2, "U(0,1)": SX, "U(1,0)": SZ, "U(1,1)": SZ @ SX}
        for label, u in zip(group.labels, group.elements):
            assert np.allclose(u, table[label], atol=1e-15), label

    def test_trace_orthogonality(self):
        for d in (2, 3, 4):
            group = weyl_heisenberg_group(d)
            for i, a in enumerate(group.elements):
                for j, b in enumerate(group.elements):
                    expected = d if i == j else 0.0
                    assert abs(np.trace(a.conj().T @ b) - expected) < 1e-10

    def test_d3_entangled_gram_is_identity(self):
        gram = output_gram(weyl_heisenberg_group(3), ProbeState.maximally_entangled(3))
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10

    def test_projective_closure(self):
        for d in (2, 3):
            assert closure_defect(weyl_heisenberg_group(d)) < 1e-8

    def test_irreducibility_certificate(self):
        for d in (2, 3, 4):
            assert weyl_heisenberg_group(d).irreducibility_defect <= DESIGN_ATOL

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            weyl_heisenberg_group(1)

    @pytest.mark.parametrize("d", (2.5, 2.0, True, "3"))
    def test_dimension_must_be_an_integer(self, d):
        with pytest.raises(ValueError, match=r"^dimension must be an integer, got "):
            weyl_heisenberg_group(d)

    def test_numpy_integer_dimension_accepted(self):
        assert np.array_equal(weyl_heisenberg_group(np.int64(3)).elements, weyl_heisenberg_group(3).elements)


def rotated_shift_phase(d: int, seed: int) -> UnitaryGroup:
    """{V u V†} over the shift-and-phase group: a 1-design that is not shift-and-phase."""
    v = haar_unitary(d, generator(seed))
    group = weyl_heisenberg_group(d)
    return UnitaryGroup(v @ group.elements @ v.conj().T, group.labels)


class TestOneDesignCertificate:
    def test_exact_for_pauli_and_shift_phase(self):
        assert pauli_group().irreducibility_defect <= 1e-14
        for d in range(2, 13):
            assert weyl_heisenberg_group(d).irreducibility_defect <= 1e-14, d

    def test_rotated_set_passes(self):
        for d in (3, 4):
            assert rotated_shift_phase(d, 60 + d).irreducibility_defect <= 1e-12

    def test_non_designs_flagged(self):
        assert UnitaryGroup((I2, SZ), ("I", "Z")).irreducibility_defect >= 0.1
        loose = UnitaryGroup((I2, haar_unitary(2, generator(29))), ("a", "b"))
        assert loose.irreducibility_defect >= 0.1
        assert not loose.irreducibility_defect <= DESIGN_ATOL

    def test_independent_of_element_order(self):
        rng = generator(61)
        for group in (pauli_group(), weyl_heisenberg_group(4), rotated_shift_phase(3, 62)):
            order = rng.permutation(len(group))
            shuffled = UnitaryGroup(group.elements[order], tuple(group.labels[k] for k in order))
            assert shuffled.irreducibility_defect == pytest.approx(
                group.irreducibility_defect, abs=1e-15
            )

    def test_deterministic_without_knobs(self, monkeypatch):
        # a property of the group alone, worked out once: covariant's two certificates, in
        # holevo_chi and in output_span_dimension, form one (|G| d^2)-sized product
        defect = UnitaryGroup.__dict__["irreducibility_defect"]
        assert isinstance(defect, functools.cached_property)
        calls = []
        work = defect.func
        monkeypatch.setattr(defect, "func", lambda group: calls.append(group) or work(group))
        group, probe = weyl_heisenberg_group(3), ProbeState.maximally_entangled(3)
        holevo_chi(group, probe)
        output_span_dimension(group, probe)
        assert calls == [group]
        assert group.irreducibility_defect == work(group)


class TestApplyLocal:
    """(u ⊗ I)|e>: one row of ``output_vectors`` per group element."""

    def test_identity(self):
        e = random_probe(3, generator(31))
        rows = output_vectors(weyl_heisenberg_group(3), e)
        assert np.allclose(rows[0], vectorize(e.e_op), atol=1e-15)

    def test_bell_state_relabeling(self):
        group = pauli_group()
        rows = output_vectors(group, ProbeState.maximally_entangled(2))
        for u, row in zip(group.elements, rows):
            assert np.allclose(row, vectorize(u) / np.sqrt(2), atol=1e-15)

    def test_schmidt_invariance(self):
        rng = generator(32)
        e = random_probe(3, rng, rank=2)
        (row,) = output_vectors(UnitaryGroup(haar_unitary(3, rng)[None], ("u",)), e)
        assert np.allclose(
            schmidt_coefficients(ProbeState(row.reshape(3, 3))), schmidt_coefficients(e), atol=1e-10
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            output_vectors(weyl_heisenberg_group(3), ProbeState.maximally_entangled(2))


def schmidt_probe(d: int, weights, rng) -> ProbeState:
    """Probe with the given Schmidt weights, normalized and padded with zeros, in Haar bases."""
    w = np.zeros(d)
    w[: len(weights)] = weights
    e = haar_unitary(d, rng) @ np.diag(np.sqrt(w / w.sum())) @ haar_unitary(d, rng)
    return ProbeState(e)


class TestOutputSpan:
    def test_pauli_maximally_entangled(self):
        assert output_span_dimension(pauli_group(), ProbeState.maximally_entangled(2)) == 4

    def test_pauli_product_probe(self):
        probe = ProbeState.product([1, 0], [0, 1])
        assert output_span_dimension(pauli_group(), probe) == 2

    def test_wh3_rank2_probe(self):
        probe = random_probe(3, generator(33), rank=2)
        assert output_span_dimension(weyl_heisenberg_group(3), probe) == 6

    def test_span_law(self):
        rng = generator(34)
        for d in (2, 3):
            group = weyl_heisenberg_group(d)
            for rank in range(1, d + 1):
                probe = random_probe(d, rng, rank=rank)
                assert output_span_dimension(group, probe) == d * rank

    @pytest.mark.parametrize("ratio", [1.0, 1e-6, 1e-14])
    def test_closed_form_matches_average_projector(self, ratio):
        # the smallest Schmidt weight is ratio times the others; 1e-6 counts, 1e-14 does not
        rng = generator(341)
        groups = [pauli_group()] + [weyl_heisenberg_group(d) for d in range(2, 9)]
        for group in groups:
            d = group.dim
            for rank in range(1, d + 1):
                probe = schmidt_probe(d, [1.0] * (rank - 1) + [ratio], rng)
                counted = rank if rank == 1 or ratio > RANK_RTOL else rank - 1
                assert output_span_dimension(group, probe) == d * counted, (d, rank)
                assert span_by_average_projector(group, probe) == d * counted, (d, rank)

    def test_span_is_d_times_schmidt_number(self):
        # both read one rank rule, so a weight ratio near the cut counts the same way in each
        for d in range(2, 7):
            group = weyl_heisenberg_group(d)
            for r in 10.0 ** np.arange(-20, -7):
                probe = ProbeState.from_schmidt([1.0 - r, r] + [0.0] * (d - 2))
                assert output_span_dimension(group, probe) == d * probe.schmidt_number, (d, r)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            output_span_dimension(pauli_group(), ProbeState.maximally_entangled(3))


class TestHolevoChi:
    def test_maximally_entangled_qubit(self):
        chi = holevo_chi(pauli_group(), ProbeState.maximally_entangled(2))
        assert chi == pytest.approx(2.0, abs=1e-10)

    def test_product_probe(self):
        chi = holevo_chi(pauli_group(), ProbeState.product([1, 0], [1, 0]))
        assert chi == pytest.approx(1.0, abs=1e-10)

    def test_skewed_schmidt_weights(self):
        chi = holevo_chi(pauli_group(), ProbeState.from_schmidt([0.9, 0.1]))
        assert chi == pytest.approx(1.0 + 0.4689955935892812, abs=1e-10)

    def test_matches_entanglement_entropy_formula(self):
        rng = generator(35)
        for d in (2, 3):
            group = weyl_heisenberg_group(d)
            probe = random_probe(d, rng)
            expected = np.log2(d) + von_neumann_entropy(probe.reduced_state())
            assert holevo_chi(group, probe) == pytest.approx(expected, abs=1e-8)

    def test_matches_ensemble_definition(self):
        rng = generator(36)
        cases = [(pauli_group(), rank) for rank in (1, 2)]
        cases += [(weyl_heisenberg_group(d), rank) for d in range(2, 7) for rank in range(1, d + 1)]
        cases += [(rotated_shift_phase(d, 63 + d), rank) for d in (3, 4) for rank in (1, d)]
        for group, rank in cases:
            probe = random_probe(group.dim, rng, rank=rank)
            assert holevo_chi(group, probe) == pytest.approx(
                holevo_by_ensemble(group, probe), abs=1e-10
            ), (group.dim, rank)

    def test_d24_from_singular_values(self):
        d = 24
        probe = random_probe(d, generator(37), rank=17)
        weights = np.linalg.svd(probe.e_op, compute_uv=False) ** 2
        weights = weights[weights > 1e-15]
        expected = np.log2(d) - float(np.sum(weights * np.log2(weights)))
        assert holevo_chi(weyl_heisenberg_group(d), probe) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            holevo_chi(pauli_group(), ProbeState.maximally_entangled(3))

    def test_reducible_group_rejected(self):
        reducible = UnitaryGroup((I2, SZ), ("I", "Z"))
        with pytest.raises(ValueError, match="irreducibility"):
            holevo_chi(reducible, ProbeState.maximally_entangled(2))


def diagonal_subgroup(d: int) -> UnitaryGroup:
    """The phases U(m, 0) of the shift-and-phase group: closed, but reducible."""
    group = weyl_heisenberg_group(d)
    return UnitaryGroup(group.elements[::d], group.labels[::d])


@pytest.mark.parametrize("closed_form", [output_span_dimension, holevo_chi])
@pytest.mark.parametrize(
    "group",
    [UnitaryGroup((I2, SZ), ("I", "Z")), diagonal_subgroup(3), diagonal_subgroup(4)],
    ids=["I,Z", "U(m,0) d=3", "U(m,0) d=4"],
)
def test_closed_forms_reject_reducible_groups(closed_form, group):
    assert closure_defect(group) < 1e-12
    with pytest.raises(ValueError, match="irreducibility"):
        closed_form(group, ProbeState.maximally_entangled(group.dim))


class TestCovariantPovm:
    def test_unitary_seed_satisfies_normalization(self):
        from entprobe.linops import partial_trace

        u = haar_unitary(3, generator(36))
        seed = np.outer(u.reshape(-1), u.reshape(-1).conj())
        assert np.max(np.abs(partial_trace(seed, 3, 3) - np.eye(3))) < 1e-10

    def test_bell_projectors(self):
        group = pauli_group()
        seed = np.outer(vectorize(I2), vectorize(I2).conj())
        povm = covariant_povm(group, seed)
        for u, element in zip(group.elements, povm):
            bell = vectorize(u) / np.sqrt(2)
            assert np.allclose(element, np.outer(bell, bell.conj()), atol=1e-12)
        assert np.allclose(sum(povm), np.eye(4), atol=1e-12)

    def test_perfect_discrimination_probabilities(self):
        group = pauli_group()
        seed = np.outer(vectorize(I2), vectorize(I2).conj())
        povm = covariant_povm(group, seed)
        probe = ProbeState.maximally_entangled(2)
        for h, output in enumerate(output_vectors(group, probe)):
            probs = povm_probabilities(povm, output)
            assert np.allclose(probs, np.eye(4)[h], atol=1e-12)

    def test_completeness_for_random_seeds(self):
        rng = generator(37)
        for d in (2, 3):
            group = weyl_heisenberg_group(d)
            seed = random_povm_seed(d, rng)
            povm = covariant_povm(group, seed)
            assert np.max(np.abs(sum(povm) - np.eye(d * d))) < 1e-8
            for element in povm:
                assert np.linalg.eigvalsh(element).min() > -1e-10

    def test_invalid_seeds_rejected(self):
        group = pauli_group()
        with pytest.raises(ValueError, match="positive"):
            covariant_povm(group, -0.5 * np.eye(4))
        with pytest.raises(ValueError, match="partial trace"):
            covariant_povm(group, np.eye(4))
        with pytest.raises(ValueError, match="doubled"):
            covariant_povm(group, np.eye(2))
        with pytest.raises(ValueError, match="Hermitian"):
            covariant_povm(group, np.triu(np.ones((4, 4))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_seed_rejected(self, bad):
        # refused with one message before numpy's eigensolver or an invalid-value warning
        seed = np.outer(vectorize(I2), vectorize(I2).conj())
        seed[1, 2] = bad
        with pytest.raises(ValueError, match="^every matrix entry must be finite$"):
            covariant_povm(pauli_group(), seed)
        with pytest.raises(ValueError, match="^every matrix entry must be finite$"):
            average_likelihood(seed, ProbeState.maximally_entangled(2))

    def test_reducible_group_rejected(self):
        # under {I, Z} the Bell seed's elements sum to 2 diag(1, 0, 0, 1), not to I
        reducible = UnitaryGroup((I2, SZ), ("I", "Z"))
        seed = np.outer(vectorize(I2), vectorize(I2).conj())
        total = sum(np.kron(u, I2) @ seed @ np.kron(u, I2).conj().T for u in reducible.elements)
        assert np.allclose(total, 2 * np.diag([1, 0, 0, 1]))
        with pytest.raises(ValueError, match="irreducibility"):
            covariant_povm(reducible, seed)


def polar_seed(e: ProbeState) -> np.ndarray:
    """Rank-one seed on the polar unitary of the probe, as the covariant command builds it."""
    uu, _, vh = np.linalg.svd(e.e_op)
    seed_vec = (uu @ vh).reshape(-1)
    return np.outer(seed_vec, seed_vec.conj())


class TestAverageLikelihood:
    def test_polar_seed_closed_form(self):
        rng = generator(381)
        for d in range(2, 9):
            for rank in range(1, d + 1):
                probe = random_probe(d, rng, rank=rank)
                assert average_likelihood(polar_seed(probe), probe) == pytest.approx(
                    matched_likelihood_closed_form(probe), rel=0.0, abs=1e-12
                ), (d, rank)

    def test_polar_seed_reaches_d_at_maximal_entanglement(self):
        for d in range(2, 9):
            probe = ProbeState.maximally_entangled(d)
            assert matched_likelihood_closed_form(probe) == pytest.approx(d, rel=0.0, abs=1e-12)
            assert average_likelihood(polar_seed(probe), probe) == pytest.approx(
                d, rel=0.0, abs=1e-12
            )

    def test_matched_maximally_entangled_probe_saturates(self):
        for d in (2, 3):
            u = haar_unitary(d, generator(38))
            probe = ProbeState(u / np.sqrt(d))
            seed = d * np.outer(vectorize(probe.e_op), vectorize(probe.e_op).conj())
            assert average_likelihood(seed, probe) == pytest.approx(d, abs=1e-8)

    def test_bounded_by_dimension(self):
        rng = generator(39)
        for d in (2, 3):
            probe = random_probe(d, rng)
            seed = random_povm_seed(d, rng)
            value = average_likelihood(seed, probe)
            assert -1e-12 <= value <= d + 1e-10

    def test_product_probe_with_rank_one_seed(self):
        rng = generator(40)
        probe = ProbeState.product(random_pure_state(3, rng), random_pure_state(3, rng))
        v = haar_unitary(3, rng)
        seed = np.outer(v.reshape(-1), v.reshape(-1).conj())
        value = average_likelihood(seed, probe)
        # Cauchy-Schwarz on the trace inner product: |Tr[v† e]|^2 <= rank(e) = 1
        assert value <= 1.0 + 1e-10


class TestHelstrom:
    def test_orthogonal_outputs(self):
        problem = DiscriminationProblem(SZ, SX)
        assert helstrom_error(problem, ProbeState.maximally_entangled(2)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identical_hypotheses(self):
        problem = DiscriminationProblem(SZ, SZ)
        psi = random_pure_state(2, generator(41))
        assert helstrom_error(problem, psi) == pytest.approx(0.5, abs=1e-7)

    def test_cos_pi_4_overlap_value(self):
        w = np.diag([1.0, np.exp(1j * np.pi / 2)])
        problem = DiscriminationProblem(w, I2)
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        expected = 0.5 * (1.0 - np.sqrt(0.5))
        assert helstrom_error(problem, psi) == pytest.approx(expected, abs=1e-12)
        # oracle: no binary projective measurement does better on the outputs
        brute = brute_force_binary_measurement_error(w @ psi, psi)
        assert brute == pytest.approx(expected, abs=2e-3)
        assert brute >= expected - 1e-9

    def test_biased_priors(self):
        w = np.diag([1.0, np.exp(1j * np.pi / 2)])
        problem = DiscriminationProblem(w, I2, 0.8, 0.2)
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        c2 = 0.5
        expected = 0.5 * (1.0 - np.sqrt(1.0 - 4.0 * 0.8 * 0.2 * c2))
        assert helstrom_error(problem, psi) == pytest.approx(expected, abs=1e-12)
        brute = brute_force_binary_measurement_error(w @ psi, psi, 0.8, 0.2)
        assert brute == pytest.approx(expected, abs=2e-3)

    def test_invalid_priors(self):
        with pytest.raises(ValueError):
            DiscriminationProblem(SZ, SX, 0.7, 0.7)

    def test_priors_read_through_float(self):
        # -0.0 is stored as 0.0, so no error probability comes out as -0.0
        for p1, p2 in ((-0.0, 1.0), (1.0, -0.0)):
            problem = DiscriminationProblem(SZ, SX, p1, p2)
            assert math.copysign(1.0, problem.p1) == math.copysign(1.0, problem.p2) == 1.0
            error = helstrom_error(problem, problem.polygon.witness)
            assert (error, math.copysign(1.0, error)) == (0.0, 1.0)
        # every other prior keeps its bits, and whatever float() reads is read
        assert DiscriminationProblem(SZ, SX, 0.3, 0.7).p1 == 0.3
        assert DiscriminationProblem(SZ, SX, "0.5", 0.5).p1 == 0.5
        for unreadable in ("half", None, 1j, [0.5], 10**400):
            with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
                DiscriminationProblem(SZ, SX, unreadable, 0.5)

    @pytest.mark.parametrize("p1, p2", [(np.nan, np.nan), (1.0, np.nan), (np.nan, 1.0)])
    def test_nan_priors_rejected(self, p1, p2):
        with pytest.raises(ValueError, match="priors"):
            DiscriminationProblem(SZ, SX, p1, p2)

    def test_nan_local_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            helstrom_error(DiscriminationProblem(SZ, SX), np.array([np.nan, 0.0]))

    def test_unnormalized_local_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            helstrom_error(DiscriminationProblem(SZ, SX), np.array([1.0, 1.0]))

    def test_relative_unitary_checked_at_construction(self):
        # each factor has unitarity defect 9.8e-11, inside 1e-10; u2† u1 has 2e-10
        near = np.diag([1.000000000049, 1.000000000049])
        with pytest.raises(ValueError, match="relative unitary"):
            DiscriminationProblem(near, near)
        problem = DiscriminationProblem(SZ, SX)
        assert np.array_equal(problem.relative_unitary, SX.conj().T @ SZ)
        assert not problem.relative_unitary.flags.writeable


# priors p1 with p2 = total - p1 for each total PRIOR_SUM_ATOL admits, and overlap moduli
ACCEPTANCE_P1 = (0.0, 1e-300, 1e-12, 1e-6, 0.3, 0.5, 0.7, 1 - 1e-6, 1 - 1e-12, 1.0)
ACCEPTANCE_TOTALS = (1.0, 1.0 + 5e-11, 1.0 - 5e-11)
ACCEPTANCE_C = (
    (0.0, 1e-300, 1e-9, 1e-3, 0.25, 0.5, math.sqrt(0.5), 0.9)
    + (1 - 1e-8, 1 - 1e-12, 1 - 2.0**-53, 1.0)
)


def acceptance_priors():
    for p1 in ACCEPTANCE_P1:
        for total in ACCEPTANCE_TOTALS:
            if total - p1 >= 0.0:
                yield p1, total - p1


class TestHelstromAcceptance:
    def test_matches_60_digits(self):
        for (p1, p2), c in itertools.product(acceptance_priors(), ACCEPTANCE_C):
            exact = helstrom_acceptance_at_60_digits(p1, p2, c)
            if exact is not None:
                for q, reference in zip(helstrom_acceptance(p1, p2, c), exact):
                    assert abs(q - reference) <= 2.0**-51, (p1, p2, c)

    @given(
        st.floats(0.0, 1.0),
        st.floats(-PRIOR_SUM_ATOL, PRIOR_SUM_ATOL),
    )
    def test_orthogonal_outputs_are_told_apart_exactly(self, p1, excess):
        p2 = 1.0 + excess - p1
        if p2 >= 0.0:
            assert helstrom_acceptance(p1, p2, 0.0) == (1.0, 0.0)

    def test_equal_outputs_follow_the_likelier_hypothesis(self):
        # the tie p1 = p2 = 0.5 accepts the whole space, as the projector onto the
        # nonnegative eigenspace of the zero matrix does; a probe normalized within NORM_ATOL
        # can make the overlap modulus exceed 1
        for (p1, p2), c in itertools.product(acceptance_priors(), (1.0, 1.0 + NORM_ATOL)):
            expected = (1.0, 1.0) if p1 >= p2 else (0.0, 0.0)
            assert helstrom_acceptance(p1, p2, c) == expected, (p1, p2, c)

    @pytest.mark.parametrize("d", (2, 3, 5))
    def test_matches_the_dense_projector(self, d):
        # the closed form is the measurement the projector route builds, on Haar pairs with
        # local and entangled probes at moderate priors
        rng = generator(70 + d)
        for p1 in (0.2, 0.5, 0.9):
            problem = DiscriminationProblem(haar_unitary(d, rng), haar_unitary(d, rng), p1, 1 - p1)
            for probe in (random_pure_state(d, rng), random_probe(d, rng)):
                c = _input_overlap(problem, probe)
                expected = helstrom_thresholds_by_projector(problem, probe)
                assert helstrom_acceptance(p1, 1 - p1, c) == pytest.approx(expected, abs=1e-12)


def pair_with_overlap(t: float, sign: float, p1: float = 0.5, p2: float = 0.5):
    """The qubit hypotheses diag(1, sign sqrt(1 - t^2) + i t) and I with the local input
    (1, 1)/sqrt(2): overlap modulus |1 + sign sqrt(1 - t^2) + i t| / 2, which runs from about
    t/2 (sign -1, down to the smallest t) to 1 (sign +1, t = 0)."""
    phase = complex(sign * math.sqrt((1.0 - t) * (1.0 + t)), t)
    problem = DiscriminationProblem(np.diag([1.0, phase]), I2, p1, p2)
    probe = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return problem, probe, _input_overlap(problem, probe)


# t of ``pair_with_overlap``: with both signs the overlap moduli span [0, 1], from 0 and the
# smallest subnormal through the cancelling range of the (1 - sqrt(1 - 4 p1 p2 c^2)) / 2 form
ERROR_T = (0.0, 5e-324, 1e-300, 1e-150, 1e-20, 2.1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0)


class TestHelstromErrorForm:
    """``helstrom_error`` is 2 p1 p2 c^2 / ((p1 + p2) + S): no step cancels at small c."""

    def test_matches_40_digits(self):
        for (p1, p2), t, sign in itertools.product(acceptance_priors(), ERROR_T, (-1.0, 1.0)):
            problem, probe, c = pair_with_overlap(t, sign, p1, p2)
            exact = helstrom_error_at_40_digits(p1, p2, c)
            error = helstrom_error(problem, probe)
            assert abs(error - exact) <= 4 * math.ulp(float(exact)), (p1, p2, t, sign, error, exact)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        priors=st.sampled_from(list(acceptance_priors())) | st.floats(0.0, 1.0).map(lambda p: (p, 1.0 - p)),
        t=st.floats(0.0, 1.0) | st.floats(0.0, 1e-9),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    def test_is_the_error_of_the_acceptance_probabilities(self, priors, t, sign):
        # the error is p1 (1 - q1) + p2 q2 of the one Helstrom measurement, within a few ulps
        # of the error and of the rounding each q carries
        p1, p2 = priors
        problem, probe, c = pair_with_overlap(t, sign, p1, p2)
        error = helstrom_error(problem, probe)
        q1, q2 = helstrom_acceptance(p1, p2, c)
        expected = Fraction(p1) * (1 - Fraction(q1)) + Fraction(p2) * Fraction(q2)
        slack = 4 * (math.ulp(error) + p1 * math.ulp(q1) + p2 * math.ulp(q2))
        assert abs(Fraction(error) - expected) <= Fraction(slack), (p1, p2, t, sign)

    def test_small_overlap_keeps_its_digits(self):
        # the two discriminate inputs whose p_error the cancelling form lost: 0.0 and a
        # relative 3e-11 off
        for angle in (3.1415926515, 3.14):
            problem = DiscriminationProblem(np.diag([1.0, np.exp(1j * angle)]), I2)
            psi = problem.polygon.witness
            c = _input_overlap(problem, psi)
            exact = helstrom_error_at_40_digits(0.5, 0.5, c)
            assert abs(helstrom_error(problem, psi) - exact) <= 2 * math.ulp(float(exact)), angle
        assert helstrom_error(problem, psi) == 1.5853408268986997e-07

    def test_overlap_just_above_one_clamped(self):
        # a probe normalized within NORM_ATOL can put the raw overlap modulus above 1; the
        # overlap is clamped to 1, and the error stays the smaller prior
        problem = DiscriminationProblem(SZ, SZ, 0.3, 0.7)
        probe = np.array([1.0, 0.0]) * (1.0 + 0.4 * NORM_ATOL)
        assert abs(np.vdot(probe, problem.relative_unitary @ probe)) > 1.0
        assert _input_overlap(problem, probe) == 1.0
        assert helstrom_error(problem, probe) == pytest.approx(0.3, rel=0.0, abs=1e-16)


class TestMinOverlap:
    def test_identity(self):
        polygon = min_overlap_r(I2)
        assert polygon.r == pytest.approx(1.0, abs=1e-12)
        assert polygon.spread == pytest.approx(0.0, abs=1e-12)

    def test_sigma_z_antipodal(self):
        polygon = min_overlap_r(SZ)
        assert polygon.r == pytest.approx(0.0, abs=1e-12)
        assert polygon.spread == pytest.approx(np.pi, abs=1e-12)

    def test_quarter_turn(self):
        w = np.diag([1.0, np.exp(1j * np.pi / 2)])
        polygon = min_overlap_r(w)
        assert polygon.r == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
        assert bloch_grid_min_overlap(w) == pytest.approx(polygon.r, abs=1e-3)

    def test_grid_oracle_random_qubits(self):
        rng = generator(42)
        for _ in range(10):
            w = haar_unitary(2, rng)
            assert bloch_grid_min_overlap(w) == pytest.approx(min_overlap_r(w).r, abs=2e-3)

    def test_entangled_trials_never_beat_r(self):
        rng = generator(43)
        for _ in range(5):
            w = haar_unitary(3, rng)
            r = min_overlap_r(w).r
            big = np.kron(w, np.eye(3))
            for _ in range(200):
                psi = random_pure_state(9, rng)
                assert abs(np.vdot(psi, big @ psi)) >= r - 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            min_overlap_r(np.diag([1.0, 0.5]))

    def test_polygon_fields(self):
        # eigenphases 0, 0, pi/3: one repeated phase, two vertices, so an arc of pi/3
        w = np.diag([1.0, 1.0, np.exp(1j * np.pi / 3)])
        polygon = min_overlap_r(w)
        assert [f.name for f in dataclasses.fields(polygon)] == ["spread", "witness"]
        assert polygon.spread == pytest.approx(np.pi / 3, abs=1e-12)
        assert polygon.copies == 3
        assert polygon.copies == copies_for_perfect(DiscriminationProblem(w, np.eye(3)), 3)
        assert polygon.r == pytest.approx(np.cos(np.pi / 6), abs=1e-12)
        # the even mix of the two ends: half its weight on the pi/3 eigenvector
        psi = polygon.witness
        assert abs(psi[2]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(np.vdot(psi, w @ psi)) == pytest.approx(polygon.r, abs=1e-12)
        assert not psi.flags.writeable
        assert not optimal_pair_input(w).flags.writeable


def witness_pairs(d: int, seed: int):
    """(u1, u2, kind) at width d: seeded Haar pairs, pairs whose relative phases sit on a narrow
    arc, and a pair whose relative unitary is a multiple of the identity (one vertex)."""
    rng = generator(seed)
    for _ in range(4):
        yield haar_unitary(d, rng), haar_unitary(d, rng), "haar"
        u2, q = haar_unitary(d, rng), haar_unitary(d, rng)
        arc = rng.uniform(0.0, 0.5) + rng.uniform(0.0, 0.5, d)
        yield u2 @ (q * np.exp(1j * arc)) @ q.conj().T, u2, "narrow"
    u2 = haar_unitary(d, rng)
    yield np.exp(0.7j) * u2, u2, "one vertex"


class TestOptimalPairInput:
    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_witness_attains_r(self, d):
        seen = set()
        for u1, u2, kind in witness_pairs(d, 900 + d):
            problem = DiscriminationProblem(u1, u2)
            polygon = problem.polygon
            psi = polygon.witness
            w = problem.relative_unitary
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12), kind
            assert abs(abs(np.vdot(psi, w @ psi)) - polygon.r) <= 1e-12, kind
            assert np.array_equal(optimal_pair_input(w), psi)
            if kind == "one vertex":
                seen.add("one vertex")
                assert polygon.spread == 0.0
            else:
                seen.add("spread <= pi" if polygon.spread <= np.pi else "spread > pi")
        # two phases always fit on an arc of at most pi
        assert seen == {"one vertex", "spread <= pi", *(["spread > pi"] if d > 2 else [])}

    def test_sigma_z_equal_superposition(self):
        psi = optimal_pair_input(SZ)
        assert abs(np.vdot(psi, SZ @ psi)) < 1e-12
        assert np.allclose(np.abs(psi), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_quarter_turn_weights(self):
        w = np.diag([1.0, np.exp(1j * np.pi / 2)])
        psi = optimal_pair_input(w)
        assert abs(np.vdot(psi, w @ psi)) == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
        assert np.allclose(np.abs(psi) ** 2, [0.5, 0.5], atol=1e-12)

    def test_degenerate_unitary(self):
        w = np.exp(1j * 0.3) * np.eye(3)
        psi = optimal_pair_input(w)
        assert abs(np.vdot(psi, w @ psi)) == pytest.approx(1.0, abs=1e-12)

    def test_achieves_r_for_random_unitaries(self):
        rng = generator(44)
        for d in (2, 3, 4):
            for _ in range(25):
                w = haar_unitary(d, rng)
                psi = optimal_pair_input(w)
                assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
                assert abs(np.vdot(psi, w @ psi)) == pytest.approx(
                    min_overlap_r(w).r, abs=1e-8
                )

    def test_origin_strictly_inside_needs_three_vertices(self):
        w = np.diag(np.exp(1j * np.array([0.0, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0])))
        psi = optimal_pair_input(w)
        assert abs(np.vdot(psi, w @ psi)) < 1e-10

    def test_ancilla_preserves_achieved_overlap(self):
        rng = generator(45)
        w = haar_unitary(3, rng)
        psi = optimal_pair_input(w)
        phi = random_pure_state(3, rng)
        joint = np.kron(psi, phi)
        local = abs(np.vdot(psi, w @ psi))
        lifted = abs(np.vdot(joint, np.kron(w, np.eye(3)) @ joint))
        assert lifted == pytest.approx(local, abs=1e-10)


class TestCopies:
    def test_pi_over_three_needs_three_copies(self):
        w = np.diag(np.exp(1j * np.array([0.0, np.pi / 3.0])))
        problem = DiscriminationProblem(w, I2)
        assert copies_for_perfect(problem, 10) == 3

    def test_antipodal_needs_one(self):
        problem = DiscriminationProblem(SZ, SX)
        assert copies_for_perfect(problem, 10) == 1

    def test_identical_unreachable(self):
        problem = DiscriminationProblem(I2, I2)
        assert copies_for_perfect(problem, 50) is None

    def test_hull_test_false_below_threshold(self):
        w = np.diag(np.exp(1j * np.array([0.0, np.pi / 5.0])))
        problem = DiscriminationProblem(w, I2)
        n = copies_for_perfect(problem, 20)
        assert n == 5
        for n_max in range(1, n):
            assert copies_for_perfect(problem, n_max) is None

    def test_spread_law(self):
        rng = generator(46)
        cases = [
            np.diag(np.exp(1j * np.array([0.0, np.pi / 3.0]))),
            haar_unitary(2, rng),
            haar_unitary(3, rng),
        ]
        for w in cases:
            phases = np.angle(np.linalg.eigvals(w))
            for n in range(1, 13):
                expected = spread_by_enumeration(phases, n)
                assert tensor_power_spread(w, n) == pytest.approx(expected, abs=1e-8)

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            copies_for_perfect(DiscriminationProblem(SZ, SX), 0)
        with pytest.raises(ValueError):
            tensor_power_spread(SZ, 0)

    @pytest.mark.parametrize("count", [2.5, 7.5, 3.0, True])
    def test_counts_must_be_integers(self, count):
        # tensor_power_spread(w, 2.5) used to return 2.5 times the spread
        w = np.diag(np.exp(1j * np.array([0.0, 0.5])))
        with pytest.raises(ValueError, match="^copy count must be an integer"):
            tensor_power_spread(w, count)
        with pytest.raises(ValueError, match="^n_max must be an integer"):
            copies_for_perfect(DiscriminationProblem(w, I2), count)
        assert tensor_power_spread(w, np.int64(2)) == pytest.approx(1.0, abs=1e-12)

    def test_copy_count_beyond_a_float(self):
        # the count closes the circle long before it would meet a float, which 10**400 overflows
        quarter_turn = np.diag([1.0, 1.0j])
        assert tensor_power_spread(quarter_turn, 10**400) == 2.0 * np.pi
        assert tensor_power_spread(np.eye(2), 10**400) == 0.0
        # on both sides of the cut the spread keeps its bits: min(n * spread, 2 pi)
        w = np.diag(np.exp(1j * np.array([0.0, 0.3])))
        spread = min_overlap_r(w).spread
        cut = int(4.0 * np.pi / spread)
        for n in (1, 2, 20, 21, 22, cut - 1, cut, cut + 1, cut + 2, 10**6):
            assert tensor_power_spread(w, n) == float(min(n * spread, 2.0 * np.pi)), n

    def test_n_max_exhausted_without_reaching(self):
        w = np.diag(np.exp(1j * np.array([0.0, np.pi / 8.0])))
        assert copies_for_perfect(DiscriminationProblem(w, I2), 3) is None


class TestSchurAndMajorization:
    def test_maximally_entangled_minimizes_omega(self):
        for d in (2, 3, 4):
            omega = schur_overlap_omega(ProbeState.maximally_entangled(d))
            assert omega == pytest.approx(1.0 / d, abs=1e-12)

    def test_product_probe(self):
        probe = ProbeState.product([1, 0, 0], [0, 1, 0])
        assert schur_overlap_omega(probe) == pytest.approx(1.0, abs=1e-12)

    def test_omega_matches_direct_group_average(self):
        # dual route: dimension-weighted average of |<output|probe>|^2 over the
        # group equals the reduced-state purity
        rng = generator(53)
        for d, group in ((2, pauli_group()), (3, weyl_heisenberg_group(3))):
            probe = random_probe(d, rng)
            overlaps = [
                abs(np.vdot(vectorize(u @ probe.e_op), vectorize(probe.e_op))) ** 2
                for u in group.elements
            ]
            weighted = d / len(group) * np.sum(overlaps)
            assert weighted == pytest.approx(schur_overlap_omega(probe), abs=1e-10)

    def test_omega_monotone_under_majorization(self):
        rng = generator(47)
        for _ in range(25):
            d = 4
            q = rng.dirichlet(np.ones(d))
            # mixing toward uniform produces a vector majorized by q
            t = rng.uniform(0.0, 1.0)
            p = (1.0 - t) * q + t * np.full(d, 1.0 / d)
            assert majorization_compare(p, q) in ("majorized", "equal")
            omega_p = schur_overlap_omega(ProbeState.from_schmidt(p))
            omega_q = schur_overlap_omega(ProbeState.from_schmidt(q))
            assert omega_p <= omega_q + 1e-10

    def test_compare_labels(self):
        assert majorization_compare([0.5, 0.5], [1.0, 0.0]) == "majorized"
        assert majorization_compare([1.0, 0.0], [0.5, 0.5]) == "majorizes"
        assert majorization_compare([0.3, 0.7], [0.7, 0.3]) == "equal"
        assert (
            majorization_compare([0.6, 0.25, 0.15], [0.55, 0.4, 0.05]) == "incomparable"
        )

    def test_uniform_majorized_by_everything(self):
        rng = generator(48)
        uniform = np.full(5, 0.2)
        for _ in range(10):
            q = rng.dirichlet(np.ones(5))
            assert majorization_compare(uniform, q) in ("majorized", "equal")

    def test_validation(self):
        with pytest.raises(ValueError):
            majorization_compare([0.5, 0.6], [1.0, 0.0])
        with pytest.raises(ValueError):
            majorization_compare([1.2, -0.2], [1.0, 0.0])


class TestPerfectErrorLink:
    def test_zero_error_iff_zero_overlap(self):
        rng = generator(49)
        for _ in range(10):
            w = haar_unitary(2, rng)
            problem = DiscriminationProblem(w, I2)
            psi = optimal_pair_input(w)
            r = min_overlap_r(w).r
            p_err = helstrom_error(problem, psi)
            if r < 1e-12:
                assert p_err < 1e-10
            else:
                assert p_err > 0.0
