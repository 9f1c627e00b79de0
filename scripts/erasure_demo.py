#!/usr/bin/env python3
"""Walk through the erasure experiment at the interference setting.

Shows that the raw detector statistics are a coin flip while the
statistics conditioned on each probe outcome are perfect fringes and
antifringes, and that the total output state is maximally entangled.
"""

import math
import sys

import numpy as np

from mzpovm import extraction, interferometer, linalg, oracle, povm


def main() -> int:
    config = interferometer.MzConfig("erasure", delta=-math.pi / 2, gamma=0.0)
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    scheme = extraction.schemes_for([config])
    measured = extraction.extract_effects(scheme)[0]

    probabilities = oracle.direct_probabilities(scheme, psi)
    print("joint outcome probabilities (detector, probe):")
    for label, p in probabilities.items():
        print(f"  {label}: {p:.6f}")

    contrasts = povm.contrast_stack(povm.joint_marginals(measured[None])[0])
    print("\nmarginal contrasts:")
    for name, contrast in zip(("detector", "probe", "coincidence"), contrasts):
        print(f"  {name}: {contrast:.6f}")

    print("\ndetector statistics conditional on each probe outcome:")
    for probe_label in ("1", "2"):
        conditional = extraction.conditional_probabilities(measured, probe_label, psi)
        print(f"  probe {probe_label}: D1 -> {conditional['1']:.6f}, D2 -> {conditional['2']:.6f}")

    final = interferometer.final_state_stack(
        psi, interferometer.probe_stack([config]), [interferometer.effective_delta(config)]
    )[0]
    weight = linalg.schmidt_stack(final[None])[0][0]
    print(f"\ntotal output state entanglement weight: {weight:.6f} (1/2 = maximal)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
