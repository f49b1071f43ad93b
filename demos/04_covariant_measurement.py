"""Building the measurement that covers a whole group at once.

A covariant measurement is generated from one positive seed operator by
conjugating it with every group element.  Normalizing the seed's partial
trace makes the family sum to the identity automatically, and the matched
rank-one seed on a maximally entangled probe reaches the likelihood
ceiling set by the dimension.
"""

import numpy as np

from entprobe import (
    ProbeState,
    average_likelihood,
    covariant_povm,
    output_vectors,
    pauli_group,
    vectorize,
)
from entprobe.discrim import povm_probabilities
from entprobe.rand import generator, random_povm_seed, random_probe

group = pauli_group()

# Seed from the identity's bipartite vector: the elements are the four
# Bell projectors and the POVM resolves the identity exactly.
seed = np.outer(vectorize(np.eye(2)), vectorize(np.eye(2)).conj())
povm = covariant_povm(group, seed)
print("completeness defect:", np.max(np.abs(sum(povm) - np.eye(4))))

probe = ProbeState.maximally_entangled(2)
print("\noutcome probabilities, one row per applied transformation:")
for label, output in zip(group.labels, output_vectors(group, probe)):
    probs = povm_probabilities(povm, output)
    print(f"  {label}: ", np.round(probs, 6))
print("-> the diagonal pattern is perfect discrimination")

# Any valid seed gives a complete POVM, since covariant_povm first
# certifies the group as a 1-design; the likelihood stays under d.
rng = generator(11)
print("\nrandom seeds on a qutrit group:")
from entprobe import weyl_heisenberg_group

group3 = weyl_heisenberg_group(3)
for trial in range(3):
    seed3 = random_povm_seed(3, rng)
    povm3 = covariant_povm(group3, seed3)
    value = average_likelihood(seed3, random_probe(3, rng))
    print(
        f"  seed {trial}: completeness {np.max(np.abs(sum(povm3) - np.eye(9))):.1e},"
        f" likelihood {value:.4f} (bound 3)"
    )

probe3 = ProbeState.maximally_entangled(3)
v3 = vectorize(probe3.e_op)
matched = 3 * np.outer(v3, v3.conj())
print("matched maximally entangled probe:", average_likelihood(matched, probe3))
