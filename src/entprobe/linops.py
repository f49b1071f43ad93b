"""Dense complex linear algebra for bipartite probe states.

All operators are plain complex ``numpy`` arrays.  A bipartite vector is
identified with the matrix of its amplitudes on the product basis: the
vector with component ``a[i, j]`` on ``|i>|j>`` is ``vectorize(a)``.  Every
function returns a fresh array; inputs are never mutated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# The numeric thresholds of every validity and geometry decision in entprobe; the other modules
# import them from here.  eig_unitary folds the -pi/pi seam exactly; only the polygon merges
# phases across it.  The Gaussian probes are a few floats whose readouts are closed forms, so they
# need only PPT_ATOL; the squeezing limit gauss.MAX_SQUEEZING is the float range, not a tolerance.

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
# Distance from 1 of the sum of Schmidt weights.
PROB_SUM_ATOL = 1e-8
# Distance from 1 of the sum of two hypothesis priors.
PRIOR_SUM_ATOL = 1e-10
# Cosines of eigenphases closer than this share one eigenspace in eig_unitary.
EIG_CLUSTER_TOL = 1e-8
# Eigenphases closer than this on the circle, across the seam too, make one polygon vertex.
PHASE_DEDUPE_TOL = 1e-9
# Largest 1-design defect for which a group's twirl counts as depolarizing.
DESIGN_ATOL = 1e-8
# Hermiticity and partial-trace defect of a covariant POVM seed.
POVM_SEED_ATOL = 1e-8
# Most negative eigenvalue of a covariant POVM seed.
POVM_SEED_PSD_ATOL = 1e-10
# Shortfall below 1/4 of the smallest PT symplectic eigenvalue still called separable.
PPT_ATOL = 1e-10


def _as_matrix(a) -> np.ndarray:
    """The one way in for a matrix: a non-empty 2-d complex array of finite entries, refused
    otherwise before numpy works on it."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a non-empty 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("every matrix entry must be finite")
    return m


def _count(value, name: str) -> int:
    """A count or seed as an int; a bool, a float or any other non-integer is a ValueError."""
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _freeze(instance, **fields) -> None:
    """Set frozen-dataclass fields to read-only copies of their arrays."""
    for name, value in fields.items():
        frozen = np.array(value)
        frozen.setflags(write=False)
        object.__setattr__(instance, name, frozen)


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


def vectorize(a) -> np.ndarray:
    """Flatten a square matrix row-major into the bipartite vector it carries."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"vectorize needs a square matrix, got {a.shape}")
    return a.reshape(-1).copy()


def partial_trace(m, d1: int, d2: int) -> np.ndarray:
    """Trace out the first (probed) factor of a (d1*d2)-dimensional operator: the d2 x d2
    matrix sum_i <i|m|i> over the d1 basis states of that factor."""
    m = _as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"expected shape {(d1 * d2, d1 * d2)}, got {m.shape}")
    return np.einsum("ijil->jl", m.reshape(d1, d2, d1, d2))


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
        """Rank of e† e: the singular values above ``RANK_RTOL`` times the largest, which is at
        least 1/d for a normalized probe, so the cut is on the ratios lambda_k / lambda_max."""
        s = np.linalg.svd(self.reduced_state(), compute_uv=False)
        return int(np.count_nonzero(s > RANK_RTOL * s[0]))

    def reduced_state(self) -> np.ndarray:
        """Reduced density matrix e† e of the untouched factor."""
        return self.e_op.conj().T @ self.e_op

    @classmethod
    def maximally_entangled(cls, d: int) -> "ProbeState":
        if (d := _count(d, "dimension")) < 1:
            raise ValueError(f"dimension must be at least 1, got {d}")
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
        """Unentangled probe |psi>|phi> (both vectors are normalized here).  Each factor is
        first divided by the largest modulus among its real and imaginary parts, so the norm of
        a finite nonzero factor neither under- nor overflows; a factor whose largest part is
        zero, infinite or nan is refused."""
        factors = []
        for name, v in (("psi", psi), ("phi", phi)):
            v = np.asarray(v, dtype=complex).reshape(-1)
            largest = float(np.max(np.abs([v.real, v.imag]), initial=0.0))
            if not 0.0 < largest < np.inf:  # nan fails
                raise ValueError(f"factor {name} needs a finite nonzero norm, got {largest}")
            # part by part: numpy's complex division by a subnormal overflows on the way
            v = v.real / largest + v.imag / largest * 1j
            factors.append(v / np.linalg.norm(v))
        return cls(np.outer(*factors))


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(lam log2 lam) of a density matrix, in bits; refuses a matrix that is not
    square, Hermitian, of trace one and positive semidefinite within ``DENSITY_ATOL``."""
    rho = _as_matrix(rho)
    if not (
        rho.shape[0] == rho.shape[1]
        and np.max(np.abs(rho - rho.conj().T)) <= DENSITY_ATOL
        and abs(np.trace(rho) - 1.0) <= DENSITY_ATOL
        and (evals := np.linalg.eigvalsh(rho)).min() >= -DENSITY_ATOL
    ):
        raise ValueError(f"matrix is not a density operator within {DENSITY_ATOL}")
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
    # -pi, arctan2's one value outside (-pi, pi], comes of re < 0 with im -0.0 or tiny
    phases = np.arctan2(diag.imag, diag.real)
    phases = np.where(phases == -np.pi, np.pi, phases)
    order = np.argsort(phases)
    return phases[order], vecs[:, order]
