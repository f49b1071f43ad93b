"""Dense complex linear algebra for bipartite probe states.

All operators are plain complex ``numpy`` arrays.  A bipartite vector is
identified with the matrix of its amplitudes on the product basis: the
vector with component ``a[i, j]`` on ``|i>|j>`` is ``vectorize(a)``, and
``devectorize`` inverts it.  Every function returns a fresh array; inputs
are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The numeric thresholds of every validity and geometry decision in entprobe;
# the other modules import them from here.

# Relative singular-value / eigenvalue cutoff used for every rank decision.
RANK_RTOL = 1e-10
# Max-norm defect of u†u - I that still counts as unitary.
UNITARY_ATOL = 1e-10
# Hermiticity, trace and negative-eigenvalue slack of a density operator.
DENSITY_ATOL = 1e-10
# Density-operator eigenvalues at or below this add nothing to the entropy.
ENTROPY_CUTOFF = 1e-15
# Distance from 1 of a probe's Tr[e†e] or of a local input state's norm.
NORM_ATOL = 1e-10
# Schmidt weights down to minus this are clipped to 0; lower ones are rejected.
SCHMIDT_NEG_ATOL = 1e-12
# Distance from 1 of the sum of Schmidt weights or of a majorization input.
PROB_SUM_ATOL = 1e-8
# Distance from 1 of the sum of two hypothesis priors.
PRIOR_SUM_ATOL = 1e-10
# Largest negative entry and prefix-sum slack in majorization_compare.
MAJORIZATION_ATOL = 1e-10
# Cosines of eigenphases closer than this share one eigenspace in eig_unitary.
EIG_CLUSTER_TOL = 1e-8
# Eigenphases within this of -pi fold up to +pi.
SEAM_TOL = 1e-12
# Eigenphases closer than this (on the circle) collapse to one polygon vertex.
PHASE_DEDUPE_TOL = 1e-9
# Largest ||omega| - 1| of the phase fitted to a group product in closure_defect.
CLOSURE_PHASE_TOL = 1e-6
# Largest 1-design defect for which a group's twirl counts as depolarizing.
DESIGN_ATOL = 1e-8
# Hermiticity and partial-trace defect of a covariant POVM seed.
POVM_SEED_ATOL = 1e-8
# Most negative eigenvalue of a covariant POVM seed.
POVM_SEED_PSD_ATOL = 1e-10
# Largest asymmetry of a Gaussian covariance matrix.
COV_SYMMETRY_ATOL = 1e-12
# Negative slack of the uncertainty bound, relative to max(1, largest eigenvalue).
UNCERTAINTY_RTOL = 1e-10
# Rounding of each variance, relative to itself, added back before a covariance's Cholesky test.
COV_PD_RTOL = 1e-15
# Shortfall below 1/4 of the smallest PT symplectic eigenvalue still called separable.
PPT_ATOL = 1e-10


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return m


def _freeze(instance, **fields) -> None:
    """Set frozen-dataclass fields to read-only copies of their arrays (or tuples of arrays)."""
    for name, value in fields.items():
        frozen = np.array(value)
        frozen.setflags(write=False)
        object.__setattr__(instance, name, tuple(frozen) if isinstance(value, tuple) else frozen)


def is_unitary(u) -> bool:
    """True when ``u`` satisfies u†u = I within ``UNITARY_ATOL`` (max-norm)."""
    u = _as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    defect = u.conj().T @ u - np.eye(u.shape[0])
    return bool(np.max(np.abs(defect)) <= UNITARY_ATOL)


def assert_unitary(u) -> np.ndarray:
    u = _as_matrix(u)
    if not is_unitary(u):
        raise ValueError(f"matrix is not unitary within {UNITARY_ATOL}")
    return u


def is_density(rho) -> bool:
    """True for a Hermitian, positive-semidefinite, trace-one matrix."""
    rho = _as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        return False
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_ATOL:
        return False
    if abs(np.trace(rho) - 1.0) > DENSITY_ATOL:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -DENSITY_ATOL)


def assert_density(rho) -> np.ndarray:
    rho = _as_matrix(rho)
    if not is_density(rho):
        raise ValueError(f"matrix is not a density operator within {DENSITY_ATOL}")
    return rho


def vectorize(a) -> np.ndarray:
    """Flatten a square matrix row-major into the bipartite vector it carries."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"vectorize needs a square matrix, got {a.shape}")
    return a.reshape(-1).copy()


def devectorize(v, d: int) -> np.ndarray:
    """Inverse of :func:`vectorize` for local dimension ``d``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise ValueError(f"vector of length {v.size} is not d*d for d={d}")
    return v.reshape(d, d).copy()


def overlap(a, b) -> complex:
    """Inner product of two operators as bipartite vectors, Tr[a† b]."""
    return complex(np.vdot(_as_matrix(a), _as_matrix(b)))


def partial_trace(m, d1: int, d2: int, side: int) -> np.ndarray:
    """Trace out subsystem ``side`` (1 or 2) of a (d1*d2)-dimensional operator."""
    m = _as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    t = m.reshape(d1, d2, d1, d2)
    if side == 1:
        return np.einsum("ijil->jl", t)
    if side == 2:
        return np.einsum("ijkj->ik", t)
    raise ValueError(f"side must be 1 or 2, got {side}")


def matrix_rank(a) -> int:
    """Rank by singular values above ``RANK_RTOL`` times the largest one."""
    s = np.linalg.svd(_as_matrix(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


@dataclass(frozen=True, eq=False)
class ProbeState:
    """Bipartite pure probe stored through its amplitude matrix.

    ``e_op[i, j]`` is the amplitude on ``|i>|j>``; the unknown transformation
    acts on the first factor only.  The state must be normalized,
    Tr[e† e] = 1 within ``NORM_ATOL``.
    """

    e_op: np.ndarray

    def __post_init__(self):
        e = _as_matrix(self.e_op)
        if e.shape[0] != e.shape[1]:
            raise ValueError(f"probe amplitude matrix must be square, got {e.shape}")
        norm_sq = float(np.real(np.vdot(e, e)))
        if not abs(norm_sq - 1.0) <= NORM_ATOL:  # nan fails
            raise ValueError(f"probe is not normalized: Tr[e†e] = {norm_sq!r}")
        _freeze(self, e_op=e)

    @property
    def dim(self) -> int:
        return self.e_op.shape[0]

    @property
    def schmidt_number(self) -> int:
        """Rank of e† e: ``RANK_RTOL`` cuts the Schmidt-weight ratios lambda_k / lambda_max."""
        return matrix_rank(self.reduced_state())

    def as_vector(self) -> np.ndarray:
        return vectorize(self.e_op)

    def reduced_state(self) -> np.ndarray:
        """Reduced density matrix e† e of the untouched factor."""
        return self.e_op.conj().T @ self.e_op

    @classmethod
    def maximally_entangled(cls, d: int) -> "ProbeState":
        return cls(np.eye(d) / np.sqrt(d))

    @classmethod
    def from_schmidt(cls, weights) -> "ProbeState":
        """Probe with the given Schmidt-squared weights on the diagonal basis."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(w >= -SCHMIDT_NEG_ATOL):
            raise ValueError("Schmidt weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected below
            total = w.sum()
        if not abs(total - 1.0) <= PROB_SUM_ATOL:
            raise ValueError(f"Schmidt weights must sum to 1, got {float(total)!r}")
        return cls(np.diag(np.sqrt(w / total)))

    @classmethod
    def product(cls, psi, phi) -> "ProbeState":
        """Unentangled probe |psi>|phi> (both vectors are normalized here)."""
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        phi = np.asarray(phi, dtype=complex).reshape(-1)
        psi = psi / np.linalg.norm(psi)
        phi = phi / np.linalg.norm(phi)
        return cls(np.outer(psi, phi))


def schmidt_coefficients(p: ProbeState) -> np.ndarray:
    """Singular values of the probe amplitude matrix, descending."""
    return np.linalg.svd(p.e_op, compute_uv=False)


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(lam log2 lam) of a density matrix, in bits."""
    rho = assert_density(rho)
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > ENTROPY_CUTOFF]
    return float(-(evals * (np.log(evals) / np.log(2.0))).sum())


def eig_unitary(u):
    """Eigenphases in (-pi, pi] and orthonormal eigenvectors of a unitary.

    The Hermitian part (u + u†)/2 is diagonalized outright, giving the
    cosines.  Inside every run of cosines closer than ``EIG_CLUSTER_TOL``,
    the eigenvectors of the anti-Hermitian part of m = block† u block, which
    is block† (u - u†)/2i block, split the run.  Every phase is then read off
    one product: the diagonal of v† u v is cos(phi) + i sin(phi).  Besides
    the unitarity check, the only O(n^3) steps are that eigensolve and
    matrix products.

    Returns
    -------
    phases : ndarray of float, ascending
    vectors : ndarray, column k is the eigenvector for ``phases[k]``
    """
    u = assert_unitary(u)
    # exactly Hermitian: entry (i, j) is u_ij + conj(u_ji), its mirror the conjugate
    cos_vals, vecs = np.linalg.eigh((u + u.conj().T) / 2.0)
    edges = np.flatnonzero(np.diff(cos_vals) > EIG_CLUSTER_TOL) + 1
    for start, stop in zip([0, *edges], [*edges, u.shape[0]]):
        if stop - start > 1:
            block = vecs[:, start:stop]
            m = block.conj().T @ u @ block
            _, rot = np.linalg.eigh((m - m.conj().T) / 2.0j)
            vecs[:, start:stop] = block @ rot

    diag = np.einsum("ik,ik->k", vecs.conj(), u @ vecs)
    phases = np.arctan2(diag.imag, diag.real)
    # canonical interval (-pi, pi]: fold anything hugging -pi up to +pi
    phases = np.where(phases <= -np.pi + SEAM_TOL, phases + 2.0 * np.pi, phases)
    order = np.argsort(phases)
    return phases[order], vecs[:, order]
