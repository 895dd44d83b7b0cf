"""
Exact marginals of a jump process and its jump-count layers
===========================================================

Uniformization solves the forward equation of a finite-state pure-jump
process to solver precision, and the same construction splits the marginal
by the number of genuine jumps taken.
"""

import numpy as np

from wflow import (
    DiscreteMeasure,
    JumpGeneratorSpec,
    kernel_moment_bound,
    layer_inequality_report,
    layer_stack,
    marginal_path,
    uniformized_marginal,
)

# a three-state chain with state-dependent rates
gen = JumpGeneratorSpec(
    [-1.0, 0.5, 2.0],
    [1.3, 0.4, 2.1],
    np.array([[0.0, 0.7, 0.3], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]]),
)
p0 = DiscreteMeasure([0.5], [1.0])

marg = uniformized_marginal(gen, p0, t=1.0)
print(
    "marginal at t=1:",
    {float(x): round(float(w), 6) for x, w in zip(marg.support, marg.weights)},
)

# one chain of clock ticks weighted into every node; each node keeps its law
# on every state and declares the clock tails it dropped and its window of ticks
path = marginal_path(gen, p0, np.linspace(0.0, 1.0, 5))
print("last node on every state:", np.round(path[-1].vector, 6))
print("declared truncation per node:", [f"{m.truncation_error:.1e}" for m in path])
print("clock window per node:", [(m.m_min, m.m_max) for m in path])

# the layers P_{n,t} add up to the marginal; their masses decay factorially,
# and the stack declares the mass it leaves out: the layers above n_max plus
# the cut clock tail
stack = layer_stack(gen, p0, t=1.0, n_max=8)
masses = [float(v.sum()) for v in stack.layers]
print("layer masses:", np.round(masses, 6))
print(
    "missing mass:", f"{1.0 - sum(masses):.2e},",
    "declared truncation:", f"{stack.truncation_error:.2e}",
)

# sandwich and time-equivalence inequalities hold with slack to spare
report = layer_inequality_report(gen, p0, s=0.4, t=1.0, n_max=8)
print("worst layer-inequality violation:", f"{report.max_violation:.2e}")

# the kernel-averaged observable is controlled by higher layer moments
f = np.abs(gen.states) + 0.3
res = kernel_moment_bound(gen, p0, t=1.0, f=f, eta=1.0)
print(f"kernel bound: lhs {res.lhs:.6f} <= rhs {res.rhs:.6f}")
