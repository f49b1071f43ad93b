"""Every library entry point refuses a nan or an inf with a ValueError, before numpy sees it.

Each case is one function that ``entprobe`` exports, or the constructor of one of its input
types, with valid arguments.  Each numeric argument in turn is then made non-finite: a number
becomes nan, and then inf; an array gets nan, and then inf, in its first entry.  The call
must raise ``ValueError``.  A ``RuntimeWarning`` is raised as an error here, so a call that
warns on the way, or that returns at all, fails.

Out of scope: the result records, which the library builds from checked values, and
``epr_heterodyne``'s ``phi``, which the law never reads.
"""

import math
import warnings

import numpy as np
import pytest

import entprobe
from entprobe import (
    DiscriminationProblem,
    NoiseSpec,
    ProbeState,
    UnitaryGroup,
    pauli_group,
    squeezed_state,
    tmsv_state,
)

from test_public_surface import exported_names

# built from checked values, never from caller input
RESULT_RECORDS = {"EigenvaluePolygon", "HeterodyneLaw", "StabilityScan", "TrialReport"}

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
BELL = ProbeState.maximally_entangled(2)
PAULIS = pauli_group()
PROBLEM = DiscriminationProblem(SX, SZ)
# the Bell seed: the projector onto vec(I), whose partial trace is I
SEED = np.outer(np.eye(2).reshape(-1), np.eye(2).reshape(-1))
BASIS_POVM = np.array([np.diag(row) for row in np.eye(4)])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
NOISE = NoiseSpec(0.25)

# callable -> keyword arguments of one valid call
CASES = {
    DiscriminationProblem: dict(u1=SX, u2=SZ, p1=0.25, p2=0.75),
    NoiseSpec: dict(nbar_per_mode=0.5),
    ProbeState: dict(e_op=np.eye(2) / math.sqrt(2.0)),
    UnitaryGroup: dict(elements=PAULIS.elements.copy(), labels=PAULIS.labels),
    entprobe.apply_displacement_noise: dict(g=tmsv_state(0.5), mode=1, nbar=0.5),
    entprobe.average_likelihood: dict(seed_op=SEED, e=BELL),
    entprobe.copies_for_perfect: dict(problem=PROBLEM, n_max=8),
    entprobe.covariant_povm: dict(group=PAULIS, seed_op=SEED),
    entprobe.eig_unitary: dict(u=SX),
    entprobe.epr_heterodyne: dict(g=tmsv_state(0.5), alpha=0.3 - 1j, noise=NOISE, phi=0.0),
    entprobe.helstrom_error: dict(problem=PROBLEM, probe=PLUS),
    entprobe.holevo_chi: dict(group=PAULIS, e=BELL),
    entprobe.min_overlap_r: dict(w=SX),
    entprobe.noise_boundaries: dict(x=0.5),
    entprobe.optimal_pair_input: dict(w=SX),
    entprobe.output_gram: dict(group=PAULIS, e=BELL),
    entprobe.output_span_dimension: dict(group=PAULIS, e=BELL),
    entprobe.output_vectors: dict(group=PAULIS, e=BELL),
    entprobe.partial_trace: dict(m=np.eye(4) / 2.0, d1=2, d2=2),
    entprobe.pauli_group: dict(),
    entprobe.photon_budget: dict(g=squeezed_state(1.0)),
    entprobe.povm_probabilities: dict(elements=BASIS_POVM, state_vector=np.full(4, 0.5)),
    entprobe.ppt_separability: dict(g=tmsv_state(0.5)),
    entprobe.quadrature_variance: dict(g=squeezed_state(1.0), phi=np.array([0.0, 0.5])),
    entprobe.sample_helstrom: dict(problem=PROBLEM, probe=PLUS, trials=10, seed=1),
    entprobe.sample_heterodyne: dict(
        x=0.5, alpha=0.3 - 1j, noise=NOISE, scheme="entangled", trials=10, seed=1
    ),
    entprobe.schur_overlap_omega: dict(e=BELL),
    entprobe.squeezed_state: dict(s=1.0),
    entprobe.stability_scan: dict(s=1.0, x=0.5, phi_grid=np.array([0.0, 0.5])),
    entprobe.tensor_power_spread: dict(w=SX, n=2),
    entprobe.tmsv_epr_variance: dict(x=0.5),
    entprobe.tmsv_state: dict(x=0.5),
    entprobe.vectorize: dict(a=SX),
    entprobe.von_neumann_entropy: dict(rho=np.eye(2) / 2.0),
    entprobe.weyl_heisenberg_group: dict(d=3),
}

# the common phase of the EPR pair, which the law never reads
EXEMPT = {(entprobe.epr_heterodyne, "phi")}


def is_numeric(value) -> bool:
    return isinstance(value, (int, float, complex, np.ndarray)) and not isinstance(value, bool)


def with_non_finite(value, bad: float):
    """``value`` with ``bad`` in place of the number, or of the first entry of the array."""
    if not isinstance(value, np.ndarray):
        return bad
    spoilt = value.astype(np.result_type(value, float))
    spoilt.flat[0] = bad
    return spoilt


def fuzz_cases():
    for call, kwargs in CASES.items():
        for arg, value in kwargs.items():
            if is_numeric(value) and (call, arg) not in EXEMPT:
                for bad in (math.nan, math.inf):
                    yield pytest.param(call, kwargs, arg, bad, id=f"{call.__name__}-{arg}-{bad}")


def test_every_export_is_fuzzed():
    assert sorted(call.__name__ for call in CASES) == sorted(exported_names() - RESULT_RECORDS)


@pytest.mark.parametrize("call", CASES, ids=lambda call: call.__name__)
def test_valid_calls_succeed(call):
    # each case's valid arguments pass, so a refusal below comes of the one non-finite entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        call(**CASES[call])


@pytest.mark.parametrize("call, kwargs, arg, bad", fuzz_cases())
def test_non_finite_argument_refused(call, kwargs, arg, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            call(**{**kwargs, arg: with_non_finite(kwargs[arg], bad)})
