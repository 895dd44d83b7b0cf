"""
Approximating a flow-with-jumps process by a fast pure-jump chain
=================================================================

A process that drifts along an ODE between jumps is approximated by a chain
that takes deterministic flow steps of size 1/mu at rate mu, plus the
genuine jumps.  As mu grows the chain law converges to the process law.
"""

import numpy as np

from wflow import (
    DiscreteMeasure,
    Drift,
    Intensity,
    ShiftJump,
    embed_on_grid,
    flow,
    mu_convergence_study,
    mu_generator,
    uniformized_marginal,
    wasserstein,
)
from wflow.pdmp import PdmpSpec

# the drift -tanh(x) carries its closed-form flow and its bound 1; an
# intensity is a table, linear between nodes and constant beyond, and a
# constant rate is the one-node table
drift = Drift("neg_tanh")

# without jumps the process is the pure flow; the chain marginal approaches
# the flow-pushforward of the initial law at rate O(1/mu)
spec0 = PdmpSpec(drift, Intensity([0.0], [0.0]), ShiftJump(0.5))
atoms = np.linspace(0.5, 1.5, 21)
p0 = DiscreteMeasure(atoms, np.full(21, 1.0 / 21.0))
push = DiscreteMeasure(flow(spec0, atoms, 1.0), np.full(21, 1.0 / 21.0))
grid = np.linspace(-2.0, 3.0, 1025)
e0 = embed_on_grid(p0, grid)
for mu in (8.0, 16.0, 32.0):
    appr = mu_generator(spec0, mu, grid)
    marg = uniformized_marginal(appr.generator, e0, 1.0)
    print(f"mu {mu:5.0f}: W_1(chain, flow-pushforward) = {wasserstein(marg, push, 1.0):.5f}")

# with jumps on, the study tracks the identity residual per mu and the
# distance of each chain law to a doubled-resolution reference
spec = PdmpSpec(drift, Intensity([0.0], [0.3]), ShiftJump(0.5))
p0y = DiscreteMeasure(np.linspace(-1.0, -0.4, 7), np.full(7, 1.0 / 7.0))
study = mu_convergence_study(
    spec, spec, p0, p0y, rho=2.0, t=1.0, mu_list=[4.0, 8.0, 16.0],
    grid_nodes=513, identity_steps=80,
)
print("reference chain resolution:", study.reference_mu)
for k, mu in enumerate(study.mu_list):
    print(
        f"mu {mu:5.0f}: identity residual {study.identity_residuals[k]:.2e}, "
        f"distance to reference {study.cauchy_x[k]:.5f}"
    )
