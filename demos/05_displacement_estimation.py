"""Estimating a phase-space displacement with and without entanglement.

A vacuum probe with heterodyne detection carries an irreducible unit of
outcome noise: heterodyne detection is the joint readout of the probed mode
and a vacuum ancilla, the two-mode probe at zero gain.  Sending half of a
two-mode squeezed state instead shrinks the noise by the factor
(1 - |x|)/(1 + |x|), arbitrarily small as the downconversion gain grows.
Random displacement noise erodes the gain: past one thermal photon the
entangled probe stops paying off, and well before that the probe itself
crosses into separability.
"""

import numpy as np

from entprobe import (
    NoiseSpec,
    apply_displacement_noise,
    epr_heterodyne,
    noise_boundaries,
    photon_budget,
    tmsv_state,
)

alpha = 1.0 + 0.5j

print("outcome variance around the true displacement:")
print(f"  vacuum probe: {epr_heterodyne(tmsv_state(0.0), alpha).variance:.4f}")
for x in (0.3, 0.6, 0.9):
    law = epr_heterodyne(tmsv_state(x), alpha)
    print(
        f"  entangled probe x={x}: {law.variance:.4f}"
        f"  (photon cost {photon_budget(tmsv_state(x)):.3f})"
    )

print("\nwith displacement noise on every mode (x = 0.6):")
for nbar in (0.0, 0.25, 0.5, 1.0, 1.5):
    ent = epr_heterodyne(tmsv_state(0.6), alpha, NoiseSpec(nbar)).variance
    unent = epr_heterodyne(apply_displacement_noise(tmsv_state(0.0), 0, nbar), alpha).variance
    marker = "entangled wins" if ent < unent else "vacuum wins"
    print(f"  nbar={nbar:4.2f}: entangled {ent:.4f} vs vacuum {unent:.4f}  -> {marker}")

print("\nwhere the advantage dies versus where the entanglement dies:")
for x in (0.3, 0.6, 0.9, 0.99):
    bounds = noise_boundaries(x)
    print(
        f"  x={x}: advantage lost at nbar={bounds.advantage_nbar:.4f},"
        f" separable at nbar={bounds.ppt_nbar:.4f}"
    )
print("advantage threshold as the gain approaches 1:", noise_boundaries(0.9999).advantage_nbar)
