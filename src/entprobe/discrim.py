"""Discrimination of unitary transformations with and without entangled probes.

Covers the finite-dimensional story end to end: projective unitary groups
and their entangled-probe outputs, accessible-information accounting,
group-covariant measurements, the two-hypothesis error bound, and the
eigenvalue-polygon geometry that decides when discrimination can be made
perfect by using several copies of the unknown transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linops import (
    DESIGN_ATOL,
    NORM_ATOL,
    PHASE_DEDUPE_TOL,
    POVM_SEED_ATOL,
    POVM_SEED_PSD_ATOL,
    PRIOR_SUM_ATOL,
    UNITARY_ATOL,
    ProbeState,
    _as_matrix,
    _count,
    _freeze,
    assert_unitary,
    eig_unitary,
    is_unitary,
    partial_trace,
    vectorize,
    von_neumann_entropy,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# unitary groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnitaryGroup:
    """Finite list of same-dimension unitaries, closed under products up to phase, held as one
    read-only (|G|, d, d) array of ``elements``."""

    elements: np.ndarray
    labels: tuple

    def __post_init__(self):
        if len(self.elements) != len(self.labels):
            raise ValueError("one label per element is required")
        elements = [assert_unitary(u) for u in self.elements]
        shapes = sorted({u.shape for u in elements})
        if len(shapes) != 1:
            raise ValueError(f"a group needs elements of one shape, got {shapes}")
        _freeze(self, elements=elements)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def irreducibility_defect(self) -> float:
        """Max-norm gap between the twirl's Choi matrix and I / d: the 1-design defect, worked
        out on first use and kept, since the elements are read-only.

        With the elements as rows V = [vec u_g], V^T conj(V) / |G| is the
        Choi matrix of the twirl X -> mean u X u†.  It equals I / d exactly
        when the twirl sends every X to Tr[X] I / d (for a group: when the
        representation is irreducible), for any element list, unsampled.
        """
        v = self.elements.reshape(len(self), -1)
        choi = (v.T @ v.conj()) / len(self)
        return float(np.max(np.abs(choi - np.eye(self.dim * self.dim) / self.dim)))


def pauli_group() -> UnitaryGroup:
    """The four single-qubit Pauli transformations."""
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    return UnitaryGroup(paulis, ("I", "X", "Y", "Z"))


def _shift_phase(d: int, m, n) -> np.ndarray:
    """Stack of u(m, n) = sum_k e^(2 pi i k m / d) |k><k+n mod d| over paired index arrays."""
    m, n = np.atleast_1d(m, n)
    k = np.arange(d)
    u = np.zeros((m.size, d, d), dtype=complex)
    phase = np.exp(1j * (2.0 * np.pi * k * m[:, None] / d))
    u[np.arange(m.size)[:, None], k, (k + n[:, None]) % d] = phase
    return u


def weyl_heisenberg_group(d: int) -> UnitaryGroup:
    """The d^2 shift-and-phase unitaries u(m, n), labelled U(m,n) in row-major (m, n) order."""
    if (d := _count(d, "dimension")) < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    m, n = np.divmod(np.arange(d * d), d)
    return UnitaryGroup(_shift_phase(d, m, n), [f"U({a},{b})" for a, b in zip(m, n)])


# ---------------------------------------------------------------------------
# entangled-probe outputs
# ---------------------------------------------------------------------------


def output_vectors(group: UnitaryGroup, e: ProbeState) -> np.ndarray:
    """Stack of the bipartite output vectors, one row per group element."""
    if group.dim != e.dim:
        raise ValueError("group and probe dimensions differ")
    return (group.elements @ e.e_op).reshape(len(group), -1)


def output_gram(group: UnitaryGroup, e: ProbeState) -> np.ndarray:
    v = output_vectors(group, e)
    return v.conj() @ v.T


def _check_one_design(group: UnitaryGroup, dim: int) -> None:
    """The closed forms below and the covariant POVM need an operand of the group's dimension
    ``dim`` and a 1-design: a group whose twirl depolarizes completely, its
    ``irreducibility_defect`` at most ``DESIGN_ATOL``."""
    if group.dim != dim:
        raise ValueError("group and probe dimensions differ")
    if not group.irreducibility_defect <= DESIGN_ATOL:
        raise ValueError(
            "group representation failed the irreducibility certificate; "
            "reducible representations are not supported"
        )


def output_span_dimension(group: UnitaryGroup, e: ProbeState) -> int:
    """Output span dimension d * (Schmidt number), off the certified average output
    I/d ⊗ conj(e† e), whose rank is that of e† e; no d^2 x d^2 state."""
    _check_one_design(group, e.dim)
    return group.dim * e.schmidt_number


def holevo_chi(group: UnitaryGroup, e: ProbeState) -> float:
    """Accessible-information bound of the output ensemble, in bits: behind the 1-design
    certificate every output is pure and their average is I/d ⊗ conj(e† e), so
    chi = log2(d) + S(e† e), one d x d eigendecomposition with no d^2 x d^2 state."""
    _check_one_design(group, e.dim)
    return math.log2(group.dim) + von_neumann_entropy(e.reduced_state())


# ---------------------------------------------------------------------------
# covariant measurements
# ---------------------------------------------------------------------------


def _validate_povm_seed(seed_op, d: int) -> np.ndarray:
    s = _as_matrix(seed_op)
    if s.shape != (d * d, d * d):
        raise ValueError(f"seed must act on the doubled space, expected {(d * d, d * d)}")
    if np.max(np.abs(s - s.conj().T)) > POVM_SEED_ATOL:
        raise ValueError("seed operator must be Hermitian")
    if np.linalg.eigvalsh(s).min() < -POVM_SEED_PSD_ATOL:
        raise ValueError("seed operator must be positive semidefinite")
    if np.max(np.abs(partial_trace(s, d, d) - np.eye(d))) > POVM_SEED_ATOL:
        raise ValueError("seed operator must have partial trace I over the probed factor")
    return s


def covariant_povm(group: UnitaryGroup, seed_op) -> list:
    """Group-covariant POVM generated by conjugating a normalized seed.

    Elements are (d/|G|) (u ⊗ I) seed (u ⊗ I)†.  They sum to the identity on
    the doubled space when the seed passes validation and the group passes
    the 1-design certificate, which is checked too: the twirl of a 1-design
    sends the seed to I/d ⊗ Tr_1[seed] = I/d ⊗ I.
    """
    d = group.dim
    _check_one_design(group, d)
    s = _validate_povm_seed(seed_op, d)
    weight = d / len(group)
    bigs = [np.kron(u, np.eye(d)) for u in group.elements]
    return [weight * (big @ s @ big.conj().T) for big in bigs]


def average_likelihood(seed_op, e: ProbeState) -> float:
    """Average likelihood <<e| seed |e>> of the matched covariant strategy.

    Bounded by the probe dimension, with equality exactly at maximally
    entangled probes paired with their own rank-one seed.
    """
    s = _validate_povm_seed(seed_op, e.dim)
    v = vectorize(e.e_op)
    return float(np.real(np.vdot(v, s @ v)))


def povm_probabilities(elements, state_vector) -> np.ndarray:
    """Outcome probabilities of a POVM on a pure state vector, checked as a one-column matrix."""
    v = _as_matrix(np.reshape(state_vector, (-1, 1)))[:, 0]
    return np.array([float(np.real(np.vdot(v, _as_matrix(p) @ v))) for p in elements])


# ---------------------------------------------------------------------------
# two-hypothesis discrimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscriminationProblem:
    """Two candidate unitaries with prior probabilities, and the ``relative_unitary``
    u2† u1 whose eigenvalue geometry decides everything (checked unitary too)."""

    u1: np.ndarray
    u2: np.ndarray
    p1: float = 0.5
    p2: float = 0.5
    relative_unitary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u1 = assert_unitary(self.u1)
        u2 = assert_unitary(self.u2)
        if u1.shape != u2.shape:
            raise ValueError(f"hypotheses act on different spaces: {u1.shape} vs {u2.shape}")
        try:  # + 0.0 keeps every prior's bits but turns -0.0 into 0.0
            p1, p2 = float(self.p1) + 0.0, float(self.p2) + 0.0
        except (TypeError, ValueError, OverflowError):
            p1 = p2 = math.nan
        if not (p1 >= 0 and p2 >= 0 and abs(p1 + p2 - 1.0) <= PRIOR_SUM_ATOL):
            raise ValueError(f"priors must be nonnegative and sum to 1, got {self.p1}, {self.p2}")
        w = u2.conj().T @ u1
        if not is_unitary(w):
            raise ValueError(f"relative unitary u2† u1 is not unitary within {UNITARY_ATOL}")
        _freeze(self, u1=u1, u2=u2, relative_unitary=w)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def dim(self) -> int:
        return self.u1.shape[0]

    @cached_property
    def polygon(self) -> EigenvaluePolygon:
        """Eigenvalue polygon of ``relative_unitary``, built once on first use."""
        return min_overlap_r(self.relative_unitary)


def _input_overlap(problem: DiscriminationProblem, probe) -> float:
    """The modulus c = |<psi| u2† u1 |psi>| of the two outputs' overlap, at most 1: a probe
    normalized within ``NORM_ATOL`` can put the modulus just above 1."""
    w = problem.relative_unitary
    if isinstance(probe, ProbeState):
        if probe.dim != problem.dim:
            raise ValueError("probe dimension does not match the hypotheses")
        return min(1.0, abs(complex(np.trace(probe.e_op.conj().T @ w @ probe.e_op))))
    psi = np.asarray(probe, dtype=complex).reshape(-1)
    if psi.size != problem.dim:
        raise ValueError(f"local input of length {psi.size} for dim {problem.dim}")
    if not abs(np.linalg.norm(psi) - 1.0) <= NORM_ATOL:
        raise ValueError("local input state must be normalized")
    return min(1.0, abs(complex(np.vdot(psi, w @ psi))))


def helstrom_error(problem: DiscriminationProblem, probe) -> float:
    """Minimum error probability for the two output states of the given input.

    ``probe`` is either a local pure state vector or a :class:`ProbeState`
    carrying an ancilla; only the modulus c of the induced overlap enters.  The
    error (p1 + p2 - S) / 2 equals 2 p1 p2 c^2 / ((p1 + p2) + S), with S as in
    ``helstrom_acceptance``, since (p1 + p2)^2 - S^2 = 4 p1 p2 c^2: no step
    cancels, so it keeps its digits at small c.
    """
    c = _input_overlap(problem, probe)
    p1, p2 = problem.p1, problem.p2
    _, s = _helstrom_root(p1, p2, c)
    return 2.0 * p1 * p2 * c * c / ((p1 + p2) + s)


def _helstrom_root(p1: float, p2: float, c: float) -> tuple[float, float]:
    """(w, S) with w = 1 - c^2, formed as (1 - c)(1 + c) and clamped at 0, and
    S = sqrt((p1 - p2)^2 + 4 p1 p2 w), the eigenvalue gap of p1 rho1 - p2 rho2."""
    # a caller may pass c just above 1
    w = max(0.0, (1.0 - c) * (1.0 + c))
    return w, math.sqrt((p1 - p2) ** 2 + 4.0 * p1 * p2 * w)


def helstrom_acceptance(p1: float, p2: float, c: float) -> tuple[float, float]:
    """(q1, q2): the chances that the Helstrom measurement announces hypothesis 1 when
    hypothesis 1, or 2, is true, for pure outputs with overlap modulus ``c`` and priors p1, p2.

    The measurement projects onto the nonnegative eigenspace of p1 rho1 - p2 rho2.  Let
    w = 1 - c^2 and S = sqrt((p1 - p2)^2 + 4 p1 p2 w).  When the hypothesis of prior a is
    true and b is the other prior, the chance of announcing the other one is (1 - N / S) / 2
    with N = a - b + 2 b w.  Since S^2 - N^2 = 4 b^2 w c^2, it is also
    2 b^2 w c^2 / (S (S + N)), the form used when N >= 0; so neither form cancels, and
    orthogonal outputs give exactly (1, 0).  When S = 0 (equal outputs at equal priors) the
    whole space is accepted.
    """
    w, s = _helstrom_root(p1, p2, c)
    if s == 0.0:
        return 1.0, 1.0

    def miss(a: float, b: float) -> float:
        n = a - b + 2.0 * b * w
        if n >= 0.0:
            return 2.0 * b * b * w * c * c / (s * (s + n))
        return min(1.0, 0.5 * (1.0 - n / s))

    return 1.0 - miss(p1, p2), miss(p2, p1)


# ---------------------------------------------------------------------------
# eigenvalue-polygon geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenvaluePolygon:
    """Eigenvalue polygon of a unitary, kept as the two things read off it.

    ``spread`` is the width of the smallest arc holding every eigenphase, which fixes
    ``copies`` and ``r``.  ``witness`` is a local pure state whose overlap modulus under the
    unitary attains ``r``, held as a read-only copy.
    """

    spread: float
    witness: np.ndarray

    def __post_init__(self):
        _freeze(self, witness=self.witness)

    @property
    def copies(self) -> float:
        """The one pi-edge rule: fewest n >= 1 with n * spread >= pi - PHASE_DEDUPE_TOL."""
        if self.spread == 0.0:
            return math.inf
        return max(1, math.ceil((np.pi - PHASE_DEDUPE_TOL) / self.spread))

    @property
    def r(self) -> float:
        """Distance from the origin: 0 once the polygon holds it, else cos(spread / 2)."""
        return 0.0 if self.copies == 1 else float(np.cos(self.spread / 2.0))


def min_overlap_r(w) -> EigenvaluePolygon:
    """Eigenvalue polygon of a unitary, read off one eigendecomposition.

    The polygon's distance ``r`` from the origin is the smallest achievable |<psi| w |psi>|
    over unit vectors.  Its vertices are the distinct eigenphases (phases closer than
    ``PHASE_DEDUPE_TOL`` on the circle, across the -pi/pi seam too, merged into the first),
    taken counterclockwise from the end of the largest gap to its start, an arc of width
    ``spread``.  Below pi the closest hull point is the midpoint of the chord across the
    largest gap, so r = cos(spread / 2); at or past pi the polygon holds the origin and r = 0.

    The witness mixes at most three eigenvectors so that their weighted eigenvalue average
    lands on that closest point: the even mix of the two ends of the largest gap or, when the
    origin lies strictly inside the polygon, those two ends plus the farthest vertex at most
    pi past the gap, weighted by the barycentric coordinates of the origin (each proportional
    to the sine of the arc opposite its vertex).  One vertex gives its own eigenvector.
    """
    phases, vecs = eig_unitary(w)
    keep = [0]
    for k in range(1, phases.size):
        if phases[k] - phases[keep[-1]] > PHASE_DEDUPE_TOL:
            keep.append(k)
    # the ends may be the same point across the -pi/pi seam
    if len(keep) > 1 and TWO_PI - (phases[keep[-1]] - phases[0]) <= PHASE_DEDUPE_TOL:
        keep.pop()
    distinct = phases[keep]
    gaps = np.append(np.diff(distinct), TWO_PI - (distinct[-1] - distinct[0]))
    largest = int(np.argmax(gaps))
    order = np.roll(keep, -(largest + 1))
    spread = float(TWO_PI - gaps[largest])
    if order.size == 1:
        return EigenvaluePolygon(spread, vecs[:, order[0]])
    if spread <= np.pi + PHASE_DEDUPE_TOL:
        return EigenvaluePolygon(spread, (vecs[:, order[0]] + vecs[:, order[-1]]) / np.sqrt(2.0))
    arcs = (phases[order] - phases[order[0]]) % TWO_PI
    k = int(np.searchsorted(arcs, np.pi, side="right")) - 1
    weights = np.sin([spread - arcs[k], -spread, arcs[k]])
    combo = vecs[:, order[[0, k, -1]]] @ np.sqrt(np.clip(weights, 0.0, None))
    return EigenvaluePolygon(spread, combo / np.linalg.norm(combo))


def optimal_pair_input(w) -> np.ndarray:
    """Local pure state whose overlap modulus under ``w`` attains r(w): the polygon's witness,
    read-only."""
    return min_overlap_r(w).witness


# ---------------------------------------------------------------------------
# several copies of the unknown transformation
# ---------------------------------------------------------------------------


def tensor_power_spread(w, n: int) -> float:
    """Angular spread of the n-copy eigenphase multiset, capped at 2 pi.

    The n-fold phase sums span n times the one-copy arc, so the spread is
    min(n * spread, 2 pi), never built from a d^n-dimensional matrix.  A count
    past twice 2 pi / spread gives 2 pi before n meets a float, so a count too
    large for a float is read too.
    """
    if _count(n, "copy count") < 1:
        raise ValueError(f"copy count must be at least 1, got {n}")
    spread = min_overlap_r(w).spread
    if spread == 0.0:
        return 0.0
    return TWO_PI if n > 2.0 * TWO_PI / spread else float(min(n * spread, TWO_PI))


def copies_for_perfect(problem: DiscriminationProblem, n_max: int) -> int | None:
    """Fewest copies after which the two unitaries can be told apart exactly.

    The n-copy polygon spans n times the one-copy spread, so the origin
    falls inside it at the smallest n >= 1 with n * spread >= pi (within
    ``PHASE_DEDUPE_TOL``), i.e. n = ceil(pi / spread), at any dimension.
    The same rule makes r = 0 exactly when n = 1.  A phase-multiple of the
    identity never gets there and yields ``None``, as does an answer beyond
    ``n_max``.
    """
    if _count(n_max, "n_max") < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return n if (n := problem.polygon.copies) <= n_max else None


# ---------------------------------------------------------------------------
# average overlap
# ---------------------------------------------------------------------------


def schur_overlap_omega(e: ProbeState) -> float:
    """Group-averaged squared overlap of the outputs: purity of the reduced state."""
    red = e.reduced_state()
    return float(np.real(np.trace(red @ red)))
