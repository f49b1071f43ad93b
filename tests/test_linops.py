import numpy as np
import pytest

from entprobe import linops
from entprobe.cli import parse_unitary
from entprobe.linops import (
    ProbeState,
    eig_unitary,
    partial_trace,
    vectorize,
    von_neumann_entropy,
)
from entprobe.rand import generator, haar_unitary, random_probe

from _helpers import (
    assert_phases_match,
    devectorize,
    is_density,
    overlap,
    schmidt_coefficients,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestVectorize:
    def test_bell_vector(self):
        bell = vectorize(I2) / np.sqrt(2)
        assert np.allclose(bell, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_pauli_trace_orthogonality(self):
        assert overlap(SX, SY) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip_random(self):
        rng = generator(11)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(devectorize(vectorize(a), 3), a)

    def test_round_trip_exact_all_dims(self):
        rng = generator(12)
        for d in range(1, 9):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert np.array_equal(devectorize(vectorize(a), d), a)

    def test_overlap_equals_trace_inner_product(self):
        rng = generator(13)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert overlap(a, b) == pytest.approx(np.trace(a.conj().T @ b), abs=1e-10)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            vectorize(np.ones((2, 3)))
        with pytest.raises(ValueError):
            devectorize(np.ones(5), 2)


class TestPartialTrace:
    def test_probe_projector_reduces_to_gram_transpose(self):
        rng = generator(14)
        e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = vectorize(e)
        projector = np.outer(v, v.conj())
        assert np.allclose(
            partial_trace(projector, 3, 3, side=1), (e.conj().T @ e).T, atol=1e-12
        )

    def test_product_state(self):
        rng = generator(15)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(
            partial_trace(np.kron(a, b), 2, 3, side=2), a * np.trace(b), atol=1e-12
        )

    def test_bell_projector_by_explicit_index_sum(self):
        bell = vectorize(I2) / np.sqrt(2)
        projector = np.outer(bell, bell.conj())
        # oracle: spell out Tr_1 as the explicit sum over the first index
        reduced = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for l in range(2):
                reduced[j, l] = sum(projector[i * 2 + j, i * 2 + l] for i in range(2))
        assert np.allclose(reduced, I2 / 2, atol=1e-15)
        assert np.allclose(partial_trace(projector, 2, 2, side=1), reduced, atol=1e-15)

    def test_trace_preserved(self):
        rng = generator(16)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for side in (1, 2):
            assert np.trace(partial_trace(m, 2, 3, side)) == pytest.approx(
                np.trace(m), abs=1e-12
            )

    def test_shape_error(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 3, side=1)

    def test_side_validated(self):
        with pytest.raises(ValueError, match="side"):
            partial_trace(np.eye(6), 2, 3, side=3)


class TestProbeState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            ProbeState(np.eye(2))

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            ProbeState(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_maximally_entangled_coefficients(self):
        coeffs = schmidt_coefficients(ProbeState.maximally_entangled(2))
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_product_state_rank_one(self):
        p = ProbeState.product([1, 0], [1, 0])
        assert np.allclose(schmidt_coefficients(p), [1.0, 0.0], atol=1e-12)
        assert p.schmidt_number == 1

    def test_diagonal_singular_values(self):
        p = ProbeState.from_schmidt([0.9, 0.1])
        assert np.allclose(schmidt_coefficients(p), [np.sqrt(0.9), np.sqrt(0.1)], atol=1e-12)

    def test_squared_coefficients_sum_to_one(self):
        p = random_probe(4, generator(17))
        assert np.sum(schmidt_coefficients(p) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_rank_control(self):
        p = random_probe(4, generator(18), rank=2)
        assert p.schmidt_number == 2


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(I2 / 2) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_scalar_value(self):
        # oracle: direct scalar evaluation of -sum(lam log2 lam)
        expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        assert expected == pytest.approx(0.4689955935892812, abs=1e-15)
        assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        rng = generator(19)
        p = random_probe(4, rng)
        s = von_neumann_entropy(p.reduced_state())
        assert 0.0 <= s <= 2.0 + 1e-12

    def test_reduced_entropies_agree_across_sides(self):
        rng = generator(20)
        for _ in range(5):
            e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            v = vectorize(e / np.linalg.norm(e.reshape(-1)))
            projector = np.outer(v, v.conj())
            s1 = von_neumann_entropy(partial_trace(projector, 4, 4, side=1))
            s2 = von_neumann_entropy(partial_trace(projector, 4, 4, side=2))
            assert s1 == pytest.approx(s2, abs=1e-8)

    def test_non_density_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            von_neumann_entropy(SX)


class TestEigUnitary:
    def test_sigma_z(self):
        phases, _ = eig_unitary(SZ)
        assert_phases_match([0.0, np.pi], phases)

    def test_identity(self):
        phases, _ = eig_unitary(I2)
        assert_phases_match([0.0, 0.0], phases)

    def test_sz_sx_product(self):
        # oracle: det(sz sx - t I) = t^2 + 1, roots +-i, phases +-pi/2
        phases, _ = eig_unitary(SZ @ SX)
        assert_phases_match([np.pi / 2, -np.pi / 2], phases)

    def test_reconstruction_and_orthonormality(self):
        rng = generator(21)
        for d in (2, 3, 5):
            u = haar_unitary(d, rng)
            phases, vecs = eig_unitary(u)
            assert np.max(np.abs(u @ vecs - vecs * np.exp(1j * phases))) < 1e-8
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) < 1e-8

    def test_interval_convention(self):
        phases, _ = eig_unitary(haar_unitary(6, generator(22)))
        assert np.all(phases > -np.pi) and np.all(phases <= np.pi + 1e-12)

    def test_degenerate_spectrum(self):
        u = np.diag([1.0, 1.0, -1.0, 1j])
        phases, vecs = eig_unitary(u)
        assert_phases_match([0.0, 0.0, np.pi, np.pi / 2], phases)
        assert np.max(np.abs(u @ vecs - vecs * np.exp(1j * phases))) < 1e-10

    def test_kron_phases_are_pairwise_sums(self):
        rng = generator(23)
        u = haar_unitary(2, rng)
        v = haar_unitary(3, rng)
        pu, _ = eig_unitary(u)
        pv, _ = eig_unitary(v)
        expected = [(a + b + np.pi) % (2 * np.pi) - np.pi for a in pu for b in pv]
        phases, _ = eig_unitary(np.kron(u, v))
        assert_phases_match(expected, phases)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            eig_unitary(np.diag([1.0, 2.0]))


def _with_phases(phases, rng) -> np.ndarray:
    q = haar_unitary(len(phases), rng)
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def _sized_input(kind: str, d: int):
    """A d-wide unitary of one kind and its exact phases, ascending (None where not known)."""
    rng = generator(1000 + d)
    if kind == "haar":
        return haar_unitary(d, rng), None
    if kind == "wh":
        # relative unitary of the CLI's discriminate example: every cosine is shared by +-phi
        return parse_unitary(f"wh:{d},0,1").conj().T @ parse_unitary(f"wh:{d},1,0"), None
    inner = np.sort(rng.uniform(-3.0, 3.0, d // 4 if kind == "kron" else d))
    if kind == "kron":
        # every phase exactly four times over
        return np.kron(_with_phases(inner, rng), np.eye(4)), np.repeat(inner, 4)
    inner[d // 2 + 1] = inner[d // 2] + 3e-9
    return _with_phases(inner, rng), np.sort(inner)


class TestEigUnitaryAtBenchmarkSizes:
    """Rebuild, orthonormality and exact phases at the widths the benchmark and CLI reach."""

    @pytest.mark.parametrize("kind", ("haar", "wh", "kron", "close"))
    @pytest.mark.parametrize("d", (64, 128, 256))
    def test_rebuild_orthonormality_and_phases(self, d, kind):
        u, exact = _sized_input(kind, d)
        phases, vecs = eig_unitary(u)
        assert np.all(np.diff(phases) >= 0.0)
        assert np.all(phases > -np.pi) and np.all(phases <= np.pi)
        assert np.max(np.abs(u @ vecs - vecs * np.exp(1j * phases))) <= 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) <= 1e-12
        if exact is not None:
            assert np.max(np.abs(phases - exact)) <= 1e-12
        if kind == "wh":
            # (Z X^-1)^d is a multiple c of I: the phases are the d roots of c, 2 pi / d apart
            c = np.linalg.matrix_power(u, d)[0, 0]
            assert np.max(np.abs(np.exp(1j * d * phases) - c)) <= d * 1e-12
            gaps = np.diff(np.r_[phases, phases[0] + 2.0 * np.pi])
            assert np.max(np.abs(gaps - 2.0 * np.pi / d)) <= 1e-12


class TestValidators:
    def test_unitary_flags(self):
        assert linops.is_unitary(SY)
        assert not linops.is_unitary(SY + 1e-8)
        assert not linops.is_unitary(np.ones((2, 3)))

    def test_density_flags(self):
        # von_neumann_entropy reads its one spectrum only for matrices the checks pass, and
        # refuses exactly those the one-check-at-a-time oracle refuses
        assert is_density(np.diag([0.5, 0.5]))
        assert von_neumann_entropy(np.diag([0.5, 0.5])) == 1.0
        refused = (np.diag([0.6, 0.6]), np.diag([1.5, -0.5]), np.array([[0.5, 0.1], [0.0, 0.5]]))
        for rho in refused:
            assert not is_density(rho)
            with pytest.raises(ValueError, match="not a density operator"):
                von_neumann_entropy(rho)

    def test_non_matrix_inputs_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            vectorize(np.ones(3))

    def test_zero_matrix_rank(self):
        assert linops.matrix_rank(np.zeros((3, 3))) == 0

    def test_probe_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            ProbeState(np.ones((2, 3)) / np.sqrt(6))

    def test_schmidt_weight_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ProbeState.from_schmidt([1.5, -0.5])
        with pytest.raises(ValueError, match="sum"):
            ProbeState.from_schmidt([0.7, 0.1])

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0]])
    def test_non_finite_schmidt_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="Schmidt"):
            ProbeState.from_schmidt(weights)
