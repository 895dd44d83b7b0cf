"""
Seeded Monte Carlo against the exact solver, and propagation constants
======================================================================

Path simulation is deterministic given the seed, so runs are reproducible
byte for byte.  The empirical law lands within the distribution-free
envelope of the exact marginal, and the simulated displacement of the
flow-with-jumps process respects its closed-form moment and tail bounds.
"""

import math

import numpy as np

from wflow import (
    DiscreteMeasure,
    ShiftJump,
    named_drift,
    propagation_check,
    propagation_constants,
    simulate_paths,
    uniformized_marginal,
    wasserstein,
)
from wflow.birth_death import mm_infty
from wflow.pdmp import PdmpSpec

gen = mm_infty(1.0, 0.5, n_top=30).to_generator()
p0 = DiscreteMeasure([2.0], [1.0])

n_paths = 50_000
emp = simulate_paths(gen, p0, t=1.0, n_paths=n_paths, seed=11)
exact = uniformized_marginal(gen, p0, t=1.0)
gap = wasserstein(emp, exact, 1.0)
span = float(gen.states[-1] - gen.states[0])
envelope = span * math.sqrt(math.log(2.0 / 0.01) / (2.0 * n_paths))
print(f"W_1(empirical, exact) = {gap:.5f} <= envelope {envelope:.5f}")

again = simulate_paths(gen, p0, t=1.0, n_paths=n_paths, seed=11)
print("rerun identical:", bool(np.array_equal(emp.weights, again.weights)))

# closed-form constants for the flow-with-jumps process: the displacement
# moment bound and the tail-comparison constant of the smoothed marginal
drift, bound = named_drift("neg_tanh")
spec = PdmpSpec(
    drift,
    bound,
    lambda x: np.full_like(np.asarray(x, dtype=float), 0.3),
    0.3,
    ShiftJump(0.5),
)
moment_cap, c_t = propagation_constants(spec, c0=1.0, C0=1.0, t=1.0, q=2.0, mu=16.0)
print(f"displacement moment bound (q=2): {moment_cap:.3f}")
print(f"tail comparison constant c_t:    {c_t:.3f}")

audit = propagation_check(spec, 1.0, 1.0, 1.0, 2.0, math.inf, n_paths=10_000, seed=7)
print(f"simulated moment {audit.moment_estimate:.4f} <= {audit.moment_envelope:.3f}")
print(f"worst tail ratio over its cap: {audit.worst_tail_ratio:.3f}")
