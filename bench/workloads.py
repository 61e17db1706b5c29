"""The benchmark's workloads and the cases it makes from a seed.

Every workload trains the network from initialization seed 0. The benchmark
seed draws the load magnitude uniformly within +-LOAD_SPREAD of the shipped
normalization. The loss divides compliance by the first iteration's
compliance, so a load change rescales compliance and stress without moving the
design as long as the stress limit does not bind; every seed then gives a
distinct input whose design is the one validated here.
"""

from __future__ import annotations

import numpy as np

NETWORK_SEED = 0
LOAD_SPREAD = 0.0025

WORKLOADS = {
    # the paper's printable beam as shipped; the preset's 600 iterations
    "beam60": dict(
        preset="simply_supported", nelx=60, nely=20, filter_on=True, stress_on=True,
        load_scale=0.15, sigma_allow=2.3,
    ),
    # the same element count in 60 build layers: the filter sweep weighs most
    "tall": dict(
        preset="tip_cantilever", nelx=20, nely=60, filter_on=True, stress_on=True,
        load_scale=2.0, sigma_allow=2.3, iterations=600,
    ),
    # the scaling point: factorization dominates, the filter is off; 150
    # iterations bring the design within the volume tolerance (0.504)
    "beam120": dict(
        preset="simply_supported", nelx=120, nely=40, filter_on=False, stress_on=False,
        load_scale=0.15, iterations=150,
    ),
}


def make_case(workload: str, seed: int, **overrides):
    """The case of ``workload`` for benchmark seed ``seed``."""
    from topofield import preset

    spec = dict(WORKLOADS[workload])
    name = spec.pop("preset")
    draw = np.random.default_rng(seed).uniform(-LOAD_SPREAD, LOAD_SPREAD)
    spec["load_scale"] *= 1.0 + draw
    spec.update(overrides)
    return preset(name, seed=NETWORK_SEED, **spec)
