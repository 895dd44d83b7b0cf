"""Time evolution of transport cost between jump-process marginals.

For two finite-state jump processes, the power-``rho`` transport cost between
their forward marginals changes at the rate obtained by applying each
generator to the corresponding optimal dual potential: the increment of
``W_rho^rho`` over ``[0, t]`` equals minus the time integral of
``integral (L psi_s) dP_s + integral (L~ psi~_s) dP~_s``.  This module
evaluates both sides of that identity on a uniform time grid and reports the
nodewise residual, which shrinks at second order in the step for smooth
instances because the time quadrature is trapezoidal.

Dual potentials come from the transport module; off-support states are
evaluated through the cost-transform closure, which is the extension under
which the dual pair stays feasible on the whole state space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wflow.jump_process import JumpGeneratorSpec, _state_vector, marginal_path, uniformized_marginal
from wflow.measures import write_table
from wflow.transport import _check_rho, potentials, wasserstein_power

__all__ = [
    "EvolutionReport",
    "apply_generator",
    "rhs_integrand",
    "verify_identity",
]


def apply_generator(gen, f):
    """Generator action ``lam(x) * integral (f(y) - f(x)) k(x, dy)``.

    ``f`` must be tabulated on every state of ``gen``; evaluation is an exact
    matrix-vector product.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != gen.states.shape:
        raise ValueError("f must be tabulated on all generator states")
    return gen.lam * (gen.kernel.apply(f) - f)


def _integrand_from_pair(genX, genY, vX, vY, pair):
    """Candidate derivative and the diagnostic generator moment.

    Returns ``(-integral L psi dP - integral L~ psi~ dP~, L psi tabulated)``
    with the potentials extended to every state by cost-transform closure.
    """
    psi = np.atleast_1d(pair.psi_at(genX.states))
    psi_tilde = np.atleast_1d(pair.psi_tilde_at(genY.states))
    l_psi = apply_generator(genX, psi)
    l_psi_tilde = apply_generator(genY, psi_tilde)
    value = -float(np.dot(vX, l_psi)) - float(np.dot(vY, l_psi_tilde))
    return value, l_psi


def rhs_integrand(genX, genY, mX, mY, rho):
    """Candidate time derivative of ``W_rho^rho`` at one pair of marginals.

    Computes ``-integral (L psi) dmX - integral (L~ psi~) dmY`` for the
    optimal dual pair of ``(mX, mY)`` under power-``rho`` cost.
    """
    pair = potentials(mX, mY, rho)
    vX = _state_vector(genX, mX)
    vY = _state_vector(genY, mY)
    value, _ = _integrand_from_pair(genX, genY, vX, vY, pair)
    return value


@dataclass(frozen=True)
class EvolutionReport:
    """Nodewise record of the transport-cost evolution identity.

    ``residual[k]`` is the panel mismatch ``|w_k - w_{k-1} - trapezoid of the
    integrand over (t_{k-1}, t_k)|`` (zero at node 0); ``cumulative_integral``
    is the running trapezoid accumulation of the integrand.  The cost curve of
    atomic marginals has corners wherever a cumulative weight of one marginal
    crosses one of the other, and the derivative genuinely jumps there; a
    corner with enough mass to matter degrades its panel mismatch from
    O(dt^3) to O(dt), so those panels surface as outliers 50 times above
    the median panel, are marked in ``flags``, and are excluded from
    ``max_residual``, while ``residual`` keeps their raw values.
    ``diagnostics`` holds the generator moment
    ``integral |L psi_t|^(3/2) dP_t`` used to monitor local boundedness
    (reported, not asserted).
    """

    time_grid: np.ndarray
    w_values: np.ndarray
    integrand: np.ndarray
    cumulative_integral: np.ndarray
    residual: np.ndarray
    diagnostics: np.ndarray
    flags: np.ndarray

    @property
    def max_residual(self):
        """Largest panel residual away from flagged corner panels."""
        keep = ~self.flags
        if not np.any(keep):
            return float(np.max(self.residual))
        return float(np.max(self.residual[keep]))

    @property
    def flagged_count(self):
        return int(np.sum(self.flags))

    def to_csv(self, target):
        """Write `t,w_rho_rho,integrand,cumulative,residual,diag` rows."""
        write_table(
            target,
            "t,w_rho_rho,integrand,cumulative,residual,diag",
            (
                self.time_grid,
                self.w_values,
                self.integrand,
                self.cumulative_integral,
                self.residual,
                self.diagnostics,
            ),
        )


_DIAG_EXPONENT = 1.5  # order of the generator moment in ``diagnostics``
_FLAG_FACTOR = 50.0  # a panel this far above the median panel is a corner


def verify_identity(genX, genY, p0X, p0Y, rho, t_end, n_steps, marginal_tol=1e-12):
    """Evaluate both sides of the evolution identity on a uniform grid.

    At each of ``n_steps + 1`` nodes the forward marginals, the transport
    cost, and the candidate derivative are computed; each panel's trapezoid
    contribution is compared with the increment of the cost over the panel.
    Panels whose mismatch stands 50 times above the median panel mismatch
    contain a corner of the cost curve (the derivative exists only off a
    finite set of crossing times) and are flagged rather than failed.

    ``rho = 1`` is rejected: the dual pair degenerates there (potentials are
    1-Lipschitz and far from unique), so first-order claims are certified by
    the contraction route in the birth-death module instead.
    """
    if _check_rho(rho) == 1.0:
        raise ValueError(
            "rho = 1 is not supported here; use birth_death contraction reports"
        )
    if n_steps < 2:
        raise ValueError("need n_steps >= 2")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if not isinstance(genX, JumpGeneratorSpec) or not isinstance(genY, JumpGeneratorSpec):
        raise TypeError("generators must be JumpGeneratorSpec instances")
    grid = np.linspace(0.0, t_end, n_steps + 1)
    # the dual pair of degenerate initial data (few atoms) is non-unique and
    # an arbitrary member misses the right derivative at t=0; marginals at any
    # positive time have full reachable support, which pins the potentials, so
    # the node-0 integrand is taken from an infinitesimally regularized time
    eps_reg = 1e-9 * t_end
    w_vals = np.empty(grid.size)
    integ = np.empty(grid.size)
    diag = np.empty(grid.size)
    pathX = marginal_path(genX, p0X, grid, tol=marginal_tol)
    pathY = marginal_path(genY, p0Y, grid, tol=marginal_tol)
    for k, (mX, mY) in enumerate(zip(pathX, pathY)):
        w_vals[k] = wasserstein_power(mX, mY, rho)
        if k == 0:
            mX = uniformized_marginal(genX, p0X, eps_reg, tol=marginal_tol)
            mY = uniformized_marginal(genY, p0Y, eps_reg, tol=marginal_tol)
        pair = potentials(mX, mY, rho)
        vX = _state_vector(genX, mX)
        vY = _state_vector(genY, mY)
        integ[k], l_psi = _integrand_from_pair(genX, genY, vX, vY, pair)
        diag[k] = float(np.dot(vX, np.abs(l_psi) ** _DIAG_EXPONENT))
    dt = grid[1] - grid[0]
    panel = 0.5 * dt * (integ[1:] + integ[:-1])
    cumulative = np.concatenate([[0.0], np.cumsum(panel)])
    residual = np.concatenate([[0.0], np.abs(np.diff(w_vals) - panel)])
    # a cost-curve corner (a cumulative weight of one marginal crossing one
    # of the other) degrades its panel from O(dt^3) to O(dt) mismatch, so
    # the panels that contain a corner that matters stand out as extreme
    # outliers against the median panel; panels below the cut converge
    flags = np.zeros(grid.size, dtype=bool)
    positive = residual[residual > 0]
    floor = 1e-12 * dt * (1.0 + float(np.max(np.abs(integ))))
    if positive.size:
        cut = max(_FLAG_FACTOR * float(np.median(positive)), floor)
        flags = residual > cut
    return EvolutionReport(grid, w_vals, integ, cumulative, residual, diag, flags)
