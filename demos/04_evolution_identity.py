"""
The evolution identity for the distance between two evolving laws
==================================================================

The time derivative of the power of the Wasserstein distance between two
jump-process marginals equals minus the integrals of each generator applied
to its Kantorovich potential.  The verifier compares that candidate with the
exact derivative of the cost at every node of a time grid and reports the
worst pointwise residual.  It also integrates the candidate by trapezoid
panels: the cost curve has corners where cumulative weights of the two laws
cross, and a panel holding one is only first-order accurate.
"""

import numpy as np

from wflow import DiscreteMeasure, mm_infty, verify_identity

gen = mm_infty(1.0, 1.0, n_top=40).to_generator()
d3 = DiscreteMeasure([3.0], [1.0])
d7 = DiscreteMeasure([7.0], [1.0])

for n_steps in (50, 100, 200, 400):
    report = verify_identity(gen, gen, d3, d7, rho=2.0, t_end=1.0, n_steps=n_steps)
    print(
        f"n_steps {n_steps:4d}: pointwise residual {report.max_residual:.3e}, "
        f"worst trapezoid panel {np.max(report.residual):.3e}"
    )

# the report carries the full curves; the final distance power is the
# last entry of the tabulated values
print("W_2^2 at t=0:", round(float(report.w_values[0]), 6))
print("W_2^2 at t=1:", round(float(report.w_values[-1]), 6))
print("d/dt W_2^2 at t=1:", round(float(report.derivative[-1]), 6))
