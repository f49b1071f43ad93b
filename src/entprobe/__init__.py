"""entprobe: how much entangled probes buy when identifying an unknown transformation.

The package quantifies, in closed form and by seeded Monte Carlo, the gain
from sending one half of an entangled state through an unknown operation:
perfect discrimination of unitary group elements, minimum-error bounds for
unitary pairs, copy counts for exact discrimination, and displacement
estimation with two-mode squeezed light under Gaussian noise.
"""

from .discrim import (
    DiscriminationProblem,
    EigenvaluePolygon,
    UnitaryGroup,
    average_likelihood,
    copies_for_perfect,
    covariant_povm,
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
from .gauss import (
    HeterodyneLaw,
    NoiseSpec,
    apply_displacement_noise,
    epr_heterodyne,
    noise_boundaries,
    photon_budget,
    ppt_separability,
    quadrature_variance,
    squeezed_state,
    tmsv_epr_variance,
    tmsv_state,
)
from .linops import (
    ProbeState,
    eig_unitary,
    partial_trace,
    vectorize,
    von_neumann_entropy,
)
from .mc import StabilityScan, TrialReport, sample_helstrom, sample_heterodyne, stability_scan

__version__ = "0.1.0"
