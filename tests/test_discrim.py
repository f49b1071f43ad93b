import inspect

import numpy as np
import pytest

from entprobe.discrim import (
    DiscriminationProblem,
    UnitaryGroup,
    apply_local,
    average_likelihood,
    copies_for_perfect,
    covariant_povm,
    helstrom_error,
    holevo_chi,
    majorization_compare,
    min_overlap_r,
    optimal_pair_input,
    output_gram,
    output_span_dimension,
    pauli_group,
    povm_probabilities,
    schur_overlap_omega,
    tensor_power_spread,
    weyl_heisenberg_group,
)
from entprobe.linops import (
    RANK_RTOL,
    ProbeState,
    schmidt_coefficients,
    vectorize,
    von_neumann_entropy,
)
from entprobe.rand import generator, haar_unitary, random_povm_seed, random_probe, random_pure_state

from _helpers import (
    assert_phases_match,
    holevo_by_ensemble,
    matched_likelihood_closed_form,
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
        outputs = np.stack([u @ psi for u in pauli_group()])
        assert np.linalg.matrix_rank(outputs) <= 2

    def test_group_certificates(self):
        group = pauli_group()
        assert group.closure_defect() < 1e-12
        assert group.is_irreducible()

    def test_non_closed_set_flagged(self):
        from entprobe.discrim import UnitaryGroup

        loose = UnitaryGroup(2, (I2, haar_unitary(2, generator(29))), ("a", "b"))
        assert loose.closure_defect() > 1e-6

    def test_construction_validation(self):
        from entprobe.discrim import UnitaryGroup

        with pytest.raises(ValueError, match="label"):
            UnitaryGroup(2, (I2, SX), ("only-one",))
        with pytest.raises(ValueError, match="dim"):
            UnitaryGroup(3, (I2,), ("I",))


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
            assert weyl_heisenberg_group(d).closure_defect() < 1e-8

    def test_irreducibility_certificate(self):
        for d in (2, 3, 4):
            assert weyl_heisenberg_group(d).is_irreducible()

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            weyl_heisenberg_group(1)


def rotated_shift_phase(d: int, seed: int) -> UnitaryGroup:
    """{V u V†} over the shift-and-phase group: a 1-design that is not shift-and-phase."""
    v = haar_unitary(d, generator(seed))
    group = weyl_heisenberg_group(d)
    return UnitaryGroup(d, tuple(v @ u @ v.conj().T for u in group), group.labels)


class TestOneDesignCertificate:
    def test_exact_for_pauli_and_shift_phase(self):
        assert pauli_group().irreducibility_defect() <= 1e-14
        for d in range(2, 13):
            assert weyl_heisenberg_group(d).irreducibility_defect() <= 1e-14, d

    def test_rotated_set_passes(self):
        for d in (3, 4):
            assert rotated_shift_phase(d, 60 + d).irreducibility_defect() <= 1e-12

    def test_non_designs_flagged(self):
        assert UnitaryGroup(2, (I2, SZ), ("I", "Z")).irreducibility_defect() >= 0.1
        loose = UnitaryGroup(2, (I2, haar_unitary(2, generator(29))), ("a", "b"))
        assert loose.irreducibility_defect() >= 0.1
        assert not loose.is_irreducible()

    def test_independent_of_element_order(self):
        rng = generator(61)
        for group in (pauli_group(), weyl_heisenberg_group(4), rotated_shift_phase(3, 62)):
            order = rng.permutation(len(group))
            shuffled = UnitaryGroup(
                group.dim,
                tuple(group.elements[k] for k in order),
                tuple(group.labels[k] for k in order),
            )
            assert shuffled.irreducibility_defect() == pytest.approx(
                group.irreducibility_defect(), abs=1e-15
            )

    def test_deterministic_without_knobs(self):
        assert list(inspect.signature(UnitaryGroup.irreducibility_defect).parameters) == ["self"]


class TestApplyLocal:
    def test_identity(self):
        e = random_probe(3, generator(31))
        assert np.allclose(apply_local(np.eye(3), e).e_op, e.e_op, atol=1e-15)

    def test_bell_state_relabeling(self):
        out = apply_local(SX, ProbeState.maximally_entangled(2))
        assert np.allclose(out.as_vector(), vectorize(SX) / np.sqrt(2), atol=1e-15)

    def test_schmidt_invariance(self):
        rng = generator(32)
        e = random_probe(3, rng, rank=2)
        u = haar_unitary(3, rng)
        assert np.allclose(
            schmidt_coefficients(apply_local(u, e)), schmidt_coefficients(e), atol=1e-10
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_local(np.eye(3), ProbeState.maximally_entangled(2))

    def test_input_defects_do_not_add_up(self):
        # each input passes its 1e-10 rule; u e alone has Tr[e†e] - 1 = 1.96e-10
        e = ProbeState(np.eye(2) / np.sqrt(2) * (1 + 4.9e-11))
        out = apply_local(np.diag([1.000000000049] * 2), e)
        assert np.vdot(out.e_op, out.e_op).real == pytest.approx(
            np.vdot(e.e_op, e.e_op).real, rel=0.0, abs=1e-15
        )

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_any_pair_within_both_rules_accepted(self, d):
        rng = generator(33 + d)
        for u_scale, e_scale in [(1 + 4.9e-11, 1 + 4.9e-11), (1 - 4.9e-11, 1 - 4.9e-11)]:
            u = haar_unitary(d, rng) * u_scale
            e = ProbeState(random_probe(d, rng).e_op * e_scale)
            out = apply_local(u, e)
            assert np.allclose(out.e_op, u @ e.e_op, rtol=0.0, atol=1e-9)


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
        reducible = UnitaryGroup(2, (I2, SZ), ("I", "Z"))
        with pytest.raises(ValueError, match="irreducibility"):
            holevo_chi(reducible, ProbeState.maximally_entangled(2))


def diagonal_subgroup(d: int) -> UnitaryGroup:
    """The phases U(m, 0) of the shift-and-phase group: closed, but reducible."""
    group = weyl_heisenberg_group(d)
    return UnitaryGroup(d, group.elements[::d], group.labels[::d])


@pytest.mark.parametrize("closed_form", [output_span_dimension, holevo_chi])
@pytest.mark.parametrize(
    "group",
    [UnitaryGroup(2, (I2, SZ), ("I", "Z")), diagonal_subgroup(3), diagonal_subgroup(4)],
    ids=["I,Z", "U(m,0) d=3", "U(m,0) d=4"],
)
def test_closed_forms_reject_reducible_groups(closed_form, group):
    assert group.closure_defect() < 1e-12
    with pytest.raises(ValueError, match="irreducibility"):
        closed_form(group, ProbeState.maximally_entangled(group.dim))


class TestCovariantPovm:
    def test_unitary_seed_satisfies_normalization(self):
        from entprobe.linops import partial_trace

        u = haar_unitary(3, generator(36))
        seed = np.outer(u.reshape(-1), u.reshape(-1).conj())
        assert np.max(np.abs(partial_trace(seed, 3, 3, side=1) - np.eye(3))) < 1e-10

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
        for h, u in enumerate(group.elements):
            probs = povm_probabilities(povm, apply_local(u, probe).as_vector())
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
            seed = d * np.outer(probe.as_vector(), probe.as_vector().conj())
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
        # eigenphases 0, 0, pi/3: one repeated phase, two vertices
        w = np.diag([1.0, 1.0, np.exp(1j * np.pi / 3)])
        polygon = min_overlap_r(w)
        assert np.allclose(polygon.phases, [0.0, 0.0, np.pi / 3], atol=1e-12)
        assert np.allclose(polygon.vertices, [0.0, np.pi / 3], atol=1e-12)
        for k, phase in enumerate(polygon.vertices):
            v = polygon.vectors[:, k]
            assert np.allclose(w @ v, np.exp(1j * phase) * v, atol=1e-12)
        assert polygon.copies == 3
        assert polygon.copies == copies_for_perfect(DiscriminationProblem(w, np.eye(3)), 3)
        assert polygon.r == pytest.approx(np.cos(np.pi / 6), abs=1e-12)


class TestOptimalPairInput:
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
                abs(np.vdot(vectorize(u @ probe.e_op), probe.as_vector())) ** 2
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
