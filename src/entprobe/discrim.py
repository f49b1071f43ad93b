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
    CLOSURE_PHASE_TOL,
    DESIGN_ATOL,
    MAJORIZATION_ATOL,
    NORM_ATOL,
    PHASE_DEDUPE_TOL,
    POVM_SEED_ATOL,
    POVM_SEED_PSD_ATOL,
    PRIOR_SUM_ATOL,
    PROB_SUM_ATOL,
    UNITARY_ATOL,
    ProbeState,
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
    """Finite list of same-dimension unitaries, closed under products up to phase."""

    dim: int
    elements: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.elements) != len(self.labels):
            raise ValueError("one label per element is required")
        elements = tuple(map(assert_unitary, self.elements))
        for u in elements:
            if u.shape != (self.dim, self.dim):
                raise ValueError(f"element of shape {u.shape} in a dim-{self.dim} group")
        _freeze(self, elements=elements)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def closure_defect(self) -> float:
        """Worst-case distance of any pairwise product from a phase times a member.

        For each product g*h the best-matching member k is the one maximizing
        |Tr[u_k† u_g u_h]|; the defect is the max-norm residual after peeling
        off the fitted phase.  Small defect certifies projective closure.
        """
        worst = 0.0
        for ug in self.elements:
            for uh in self.elements:
                prod = ug @ uh
                traces = np.array([np.vdot(uk, prod) for uk in self.elements])
                k = int(np.argmax(np.abs(traces)))
                omega = traces[k] / self.dim
                if abs(abs(omega) - 1.0) > CLOSURE_PHASE_TOL:
                    return float("inf")
                worst = max(worst, float(np.max(np.abs(prod - omega * self.elements[k]))))
        return worst

    def irreducibility_defect(self) -> float:
        """Max-norm gap between the twirl's Choi matrix and I / d: the 1-design defect.

        With the elements as rows V = [vec u_g], V^T conj(V) / |G| is the
        Choi matrix of the twirl X -> mean u X u†.  It equals I / d exactly
        when the twirl sends every X to Tr[X] I / d (for a group: when the
        representation is irreducible), for any element list, unsampled.
        """
        v = np.stack(self.elements).reshape(len(self), -1)
        choi = (v.T @ v.conj()) / len(self)
        return float(np.max(np.abs(choi - np.eye(self.dim * self.dim) / self.dim)))

    def is_irreducible(self) -> bool:
        return self.irreducibility_defect() <= DESIGN_ATOL


def pauli_group() -> UnitaryGroup:
    """The four single-qubit Pauli transformations."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return UnitaryGroup(2, (np.eye(2, dtype=complex), sx, sy, sz), ("I", "X", "Y", "Z"))


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
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    m, n = np.divmod(np.arange(d * d), d)
    labels = tuple(f"U({a},{b})" for a, b in zip(m, n))
    return UnitaryGroup(d, tuple(_shift_phase(d, m, n)), labels)


# ---------------------------------------------------------------------------
# entangled-probe outputs
# ---------------------------------------------------------------------------


def apply_local(u, e: ProbeState) -> ProbeState:
    """Act with ``u`` on the probed factor only; amplitudes map e -> u e.

    A unitary keeps Tr[e†e], but ``u`` may pass its rule with a defect of its
    own, so u e is rescaled to the norm of e: the output inherits the input
    probe's normalization defect and not the sum of both.
    """
    u = assert_unitary(u)
    if u.shape[0] != e.dim:
        raise ValueError(f"unitary dim {u.shape[0]} does not match probe dim {e.dim}")
    out = u @ e.e_op
    out *= math.sqrt(np.vdot(e.e_op, e.e_op).real / np.vdot(out, out).real)
    return ProbeState(out)


def output_vectors(group: UnitaryGroup, e: ProbeState) -> np.ndarray:
    """Stack of the bipartite output vectors, one row per group element."""
    if group.dim != e.dim:
        raise ValueError("group and probe dimensions differ")
    return np.stack([vectorize(u @ e.e_op) for u in group.elements])


def output_gram(group: UnitaryGroup, e: ProbeState) -> np.ndarray:
    v = output_vectors(group, e)
    return v.conj() @ v.T


def _check_one_design(group: UnitaryGroup, e: ProbeState) -> None:
    """The closed forms below need a probe of the group's dimension and a 1-design: a group
    whose twirl depolarizes completely, certified by ``irreducibility_defect``."""
    if group.dim != e.dim:
        raise ValueError("group and probe dimensions differ")
    if not group.is_irreducible():
        raise ValueError(
            "group representation failed the irreducibility certificate; "
            "reducible representations are not supported"
        )


def output_span_dimension(group: UnitaryGroup, e: ProbeState) -> int:
    """Output span dimension d * (Schmidt number), off the certified average output
    I/d ⊗ conj(e† e), whose rank is that of e† e; no d^2 x d^2 state."""
    _check_one_design(group, e)
    return group.dim * e.schmidt_number


def holevo_chi(group: UnitaryGroup, e: ProbeState) -> float:
    """Accessible-information bound of the output ensemble, in bits: behind the 1-design
    certificate every output is pure and their average is I/d ⊗ conj(e† e), so
    chi = log2(d) + S(e† e), one d x d eigendecomposition with no d^2 x d^2 state."""
    _check_one_design(group, e)
    return math.log2(group.dim) + von_neumann_entropy(e.reduced_state())


# ---------------------------------------------------------------------------
# covariant measurements
# ---------------------------------------------------------------------------


def _validate_povm_seed(seed_op, d: int) -> np.ndarray:
    s = np.asarray(seed_op, dtype=complex)
    if s.shape != (d * d, d * d):
        raise ValueError(f"seed must act on the doubled space, expected {(d * d, d * d)}")
    if np.max(np.abs(s - s.conj().T)) > POVM_SEED_ATOL:
        raise ValueError("seed operator must be Hermitian")
    if np.linalg.eigvalsh(s).min() < -POVM_SEED_PSD_ATOL:
        raise ValueError("seed operator must be positive semidefinite")
    if np.max(np.abs(partial_trace(s, d, d, side=1) - np.eye(d))) > POVM_SEED_ATOL:
        raise ValueError("seed operator must have partial trace I over the probed factor")
    return s


def covariant_povm(group: UnitaryGroup, seed_op) -> list:
    """Group-covariant POVM generated by conjugating a normalized seed.

    Elements are (d/|G|) (u ⊗ I) seed (u ⊗ I)† and sum to the identity on
    the doubled space whenever the seed passes validation.
    """
    d = group.dim
    s = _validate_povm_seed(seed_op, d)
    weight = d / len(group)
    eye = np.eye(d)
    elements = []
    for u in group.elements:
        big = np.kron(u, eye)
        elements.append(weight * (big @ s @ big.conj().T))
    return elements


def average_likelihood(seed_op, e: ProbeState) -> float:
    """Average likelihood <<e| seed |e>> of the matched covariant strategy.

    Bounded by the probe dimension, with equality exactly at maximally
    entangled probes paired with their own rank-one seed.
    """
    s = _validate_povm_seed(seed_op, e.dim)
    v = e.as_vector()
    return float(np.real(np.vdot(v, s @ v)))


def povm_probabilities(elements, state_vector) -> np.ndarray:
    """Outcome probabilities of a POVM on a pure state vector."""
    v = np.asarray(state_vector, dtype=complex).reshape(-1)
    return np.array([float(np.real(np.vdot(v, p @ v))) for p in elements])


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
        if not (self.p1 >= 0 and self.p2 >= 0 and abs(self.p1 + self.p2 - 1.0) <= PRIOR_SUM_ATOL):
            raise ValueError(f"priors must be nonnegative and sum to 1, got {self.p1}, {self.p2}")
        w = u2.conj().T @ u1
        if not is_unitary(w):
            raise ValueError(f"relative unitary u2† u1 is not unitary within {UNITARY_ATOL}")
        _freeze(self, u1=u1, u2=u2, relative_unitary=w)

    @property
    def dim(self) -> int:
        return self.u1.shape[0]

    @cached_property
    def polygon(self) -> EigenvaluePolygon:
        """Eigenvalue polygon of ``relative_unitary``, built once on first use."""
        return min_overlap_r(self.relative_unitary)


def _local_input(probe, dim: int) -> np.ndarray:
    psi = np.asarray(probe, dtype=complex).reshape(-1)
    if psi.size != dim:
        raise ValueError(f"local input of length {psi.size} for dim {dim}")
    if not abs(np.linalg.norm(psi) - 1.0) <= NORM_ATOL:
        raise ValueError("local input state must be normalized")
    return psi


def _input_overlap(problem: DiscriminationProblem, probe) -> complex:
    w = problem.relative_unitary
    if isinstance(probe, ProbeState):
        if probe.dim != problem.dim:
            raise ValueError("probe dimension does not match the hypotheses")
        return complex(np.trace(probe.e_op.conj().T @ w @ probe.e_op))
    psi = _local_input(probe, problem.dim)
    return complex(np.vdot(psi, w @ psi))


def helstrom_error(problem: DiscriminationProblem, probe) -> float:
    """Minimum error probability for the two output states of the given input.

    ``probe`` is either a local pure state vector or a :class:`ProbeState`
    carrying an ancilla; only the modulus of the induced overlap enters.
    """
    c = abs(_input_overlap(problem, probe))
    radicand = max(0.0, 1.0 - 4.0 * problem.p1 * problem.p2 * c * c)
    return 0.5 * (1.0 - np.sqrt(radicand))


# ---------------------------------------------------------------------------
# eigenvalue-polygon geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenvaluePolygon:
    """Eigenvalue polygon of a unitary, read off one eigendecomposition.

    ``phases`` are all the eigenphases, ascending.  ``vertices`` are the
    distinct ones (phases closer than ``PHASE_DEDUPE_TOL`` on the circle
    merged into the first), listed counterclockwise from the end of the
    largest gap to its start, so the polygon spans the arc of width
    ``spread`` from ``vertices[0]`` to ``vertices[-1]``.  Column k of
    ``vectors`` is an eigenvector for ``vertices[k]``.  The arrays are
    read-only copies.
    """

    phases: np.ndarray
    vertices: np.ndarray
    vectors: np.ndarray
    spread: float

    def __post_init__(self):
        _freeze(self, phases=self.phases, vertices=self.vertices, vectors=self.vectors)

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

    def witness(self) -> np.ndarray:
        """Local pure state whose overlap modulus under the unitary attains ``r``.

        The state is a superposition of eigenvectors whose weighted eigenvalue
        average lands on the hull point closest to the origin: the even mix of
        the two ends of the largest gap, whose chord midpoint is that point, or,
        when the origin lies strictly inside the polygon, those two ends plus
        the farthest vertex at most pi past the gap, weighted by the
        barycentric coordinates of the origin (each proportional to the sine of
        the arc opposite its vertex).
        """
        vecs = self.vectors
        if self.vertices.size == 1:
            return vecs[:, 0].copy()
        if self.spread <= np.pi + PHASE_DEDUPE_TOL:
            return (vecs[:, 0] + vecs[:, -1]) / np.sqrt(2.0)
        arcs = (self.vertices - self.vertices[0]) % TWO_PI
        k = int(np.searchsorted(arcs, np.pi, side="right")) - 1
        weights = np.sin([self.spread - arcs[k], -self.spread, arcs[k]])
        combo = vecs[:, [0, k, -1]] @ np.sqrt(np.clip(weights, 0.0, None))
        return combo / np.linalg.norm(combo)


def min_overlap_r(w) -> EigenvaluePolygon:
    """Distance from the origin to the eigenvalue polygon of a unitary.

    The returned ``r`` is the smallest achievable |<psi| w |psi>| over unit
    vectors.  ``spread`` is the width of the smallest arc containing all
    eigenphases.  Below pi the closest hull point is the midpoint of the
    chord across the largest gap, so r = cos(spread / 2); at or past pi the
    polygon holds the origin and r = 0.
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
    return EigenvaluePolygon(phases, phases[order], vecs[:, order], float(TWO_PI - gaps[largest]))


def optimal_pair_input(w) -> np.ndarray:
    """Local pure state whose overlap modulus under ``w`` attains r(w): the polygon's witness."""
    return min_overlap_r(w).witness()


# ---------------------------------------------------------------------------
# several copies of the unknown transformation
# ---------------------------------------------------------------------------


def tensor_power_spread(w, n: int) -> float:
    """Angular spread of the n-copy eigenphase multiset, capped at 2 pi.

    The n-fold phase sums span n times the one-copy arc, so the spread is
    min(n * spread, 2 pi), never built from a d^n-dimensional matrix.
    """
    if n < 1:
        raise ValueError(f"copy count must be at least 1, got {n}")
    return float(min(n * min_overlap_r(w).spread, TWO_PI))


def copies_for_perfect(problem: DiscriminationProblem, n_max: int) -> int | None:
    """Fewest copies after which the two unitaries can be told apart exactly.

    The n-copy polygon spans n times the one-copy spread, so the origin
    falls inside it at the smallest n >= 1 with n * spread >= pi (within
    ``PHASE_DEDUPE_TOL``), i.e. n = ceil(pi / spread), at any dimension.
    The same rule makes r = 0 exactly when n = 1.  A phase-multiple of the
    identity never gets there and yields ``None``, as does an answer beyond
    ``n_max``.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    n = problem.polygon.copies
    return n if n <= n_max else None


# ---------------------------------------------------------------------------
# average overlap and majorization
# ---------------------------------------------------------------------------


def schur_overlap_omega(e: ProbeState) -> float:
    """Group-averaged squared overlap of the outputs: purity of the reduced state."""
    red = e.reduced_state()
    return float(np.real(np.trace(red @ red)))


def majorization_compare(p, q) -> str:
    """Prefix-sum dominance order of two probability vectors.

    Returns ``"majorized"`` when p is dominated by q, ``"majorizes"`` for
    the reverse, ``"equal"`` for both, else ``"incomparable"``.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, vec in (("p", p), ("q", q)):
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError(f"{name} must be a non-empty 1-d vector")
        if np.any(vec < -MAJORIZATION_ATOL):
            raise ValueError(f"{name} has negative entries")
        if abs(vec.sum() - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"{name} does not sum to 1")
    size = max(p.size, q.size)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: p.size] = np.sort(p)[::-1]
    qq[: q.size] = np.sort(q)[::-1]
    cp = np.cumsum(pp)
    cq = np.cumsum(qq)
    p_below = bool(np.all(cp <= cq + MAJORIZATION_ATOL))
    q_below = bool(np.all(cq <= cp + MAJORIZATION_ATOL))
    if p_below and q_below:
        return "equal"
    if p_below:
        return "majorized"
    if q_below:
        return "majorizes"
    return "incomparable"
