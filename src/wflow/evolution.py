"""Time evolution of transport cost between jump-process marginals.

For two finite-state jump processes, the power-``rho`` transport cost between
their forward marginals changes at the rate obtained by applying each
generator to the corresponding optimal dual potential: the increment of
``W_rho^rho`` over ``[0, t]`` equals minus the time integral of
``integral (L psi_s) dP_s + integral (L~ psi~_s) dP~_s``.  This module
checks the identity pointwise on a uniform time grid, against the exact
derivative that the merge of the marginals' cumulative levels and their rates
``L^T p`` give, and reports the trapezoid panels as a quadrature error.

Dual potentials come from the transport module; off-support states are
evaluated through the cost-transform closure, which is the extension under
which the dual pair stays feasible on the whole state space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wflow.jump_process import JumpGeneratorSpec, Marginal, _state_vector, marginal_path
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


def _laws(genX, genY, vX, vY):
    """Both laws as dense vectors ``v`` with their rates ``L^T v``."""
    rX = genX.weighted_kernel_apply(vX) - genX.lam * vX
    rY = genY.weighted_kernel_apply(vY) - genY.lam * vY
    return vX, vY, rX, rY


def _integrand_from_pair(genX, genY, vX, vY, rX, rY, pair):
    """Candidate derivative and the diagnostic generator moment.

    Returns ``(-integral L psi dP - integral L~ psi~ dP~, L psi tabulated)``.
    Each potential is read by cost-transform closure only on its law's
    support and one-jump targets (``v > 0`` or ``rate != 0``), which is all
    that the generator applied to it reads on the support.
    """
    value, applied = 0.0, []
    for gen, v, rate, psi_at in ((genX, vX, rX, pair.psi_at), (genY, vY, rY, pair.psi_tilde_at)):
        reach = (v > 0.0) | (rate != 0.0)
        psi = np.zeros(gen.n_states)
        psi[reach] = psi_at(gen.states[reach])
        applied.append(apply_generator(gen, psi))
        value -= float(np.dot(v, applied[-1]))
    return value, applied[0]


def rhs_integrand(genX, genY, mX, mY, rho):
    """Candidate time derivative of ``W_rho^rho`` at one pair of marginals.

    Computes ``-integral (L psi) dmX - integral (L~ psi~) dmY`` for the
    optimal dual pair of ``(mX, mY)`` under power-``rho`` cost.
    """
    laws = _laws(genX, genY, _state_vector(genX, mX), _state_vector(genY, mY))
    return _integrand_from_pair(genX, genY, *laws, potentials(mX, mY, rho))[0]


def _merge_derivative(sX, sY, vX, vY, rX, rY, rho):
    """Exact right derivative of ``W_rho^rho`` between the laws ``vX``, ``vY``.

    ``W_rho^rho`` sums ``|x_i - y_j|^rho`` times the gap between merged inner
    cumulative levels; each level moves at its side's ``cumsum`` of the rates,
    adding ``rate * (cost below - cost above)``.  Equal levels are ordered by
    rate, the order an instant later, then by index.
    """
    mX, mY = vX.sum(), vY.sum()
    level = np.concatenate((np.cumsum(vX)[:-1] / mX, np.cumsum(vY)[:-1] / mY))
    rate = np.concatenate((np.cumsum(rX)[:-1] / mX, np.cumsum(rY)[:-1] / mY))
    order = np.lexsort((rate, level))
    on_x = order < sX.size - 1
    i = np.concatenate(([0], np.cumsum(on_x)))
    j = np.concatenate(([0], np.cumsum(~on_x)))
    cost = np.abs(sX[i] - sY[j]) ** rho
    return float(np.dot(rate[order], cost[:-1] - cost[1:]))


@dataclass(frozen=True)
class EvolutionReport:
    """Nodewise record of the transport-cost evolution identity.

    ``derivative[k]`` is the exact right derivative of ``w_values`` at
    ``t_k``; ``derivative_residual[k]`` is ``|derivative - integrand| / (1 +
    |derivative|)``.  ``residual[k]`` is the panel mismatch ``|w_k - w_{k-1} -
    trapezoid of the integrand over (t_{k-1}, t_k)|`` (zero at node 0), first
    order in the step on a panel holding a corner of the cost curve, where a
    cumulative weight of one marginal crosses one of the other.
    ``cumulative_integral`` is the running trapezoid accumulation of the
    integrand.  ``diagnostics`` holds the generator moment
    ``integral |L psi_t|^(3/2) dP_t``, a reported check of local boundedness.
    ``final_x`` and ``final_y`` are the two marginals at the last node.
    """

    time_grid: np.ndarray
    w_values: np.ndarray
    integrand: np.ndarray
    cumulative_integral: np.ndarray
    residual: np.ndarray
    diagnostics: np.ndarray
    derivative: np.ndarray
    derivative_residual: np.ndarray
    final_x: Marginal
    final_y: Marginal

    @property
    def max_residual(self):
        """Worst pointwise residual at ``t > 0`` (node 0 holds the initial ties)."""
        return float(np.max(self.derivative_residual[1:]))

    def to_csv(self, target):
        """Write one row per node with the eight nodewise columns."""
        columns = (self.time_grid, self.w_values, self.integrand, self.cumulative_integral)
        columns += (self.residual, self.diagnostics, self.derivative, self.derivative_residual)
        write_table(target, _CSV_HEADER, columns)


_CSV_HEADER = "t,w_rho_rho,integrand,cumulative,residual,diag,derivative,derivative_residual"


_DIAG_EXPONENT = 1.5  # order of the generator moment in ``diagnostics``


def verify_identity(genX, genY, p0X, p0Y, rho, t_end, n_steps):
    """Evaluate both sides of the evolution identity on a uniform grid.

    At each of ``n_steps + 1`` nodes the forward marginals, the transport
    cost, its exact right derivative and the candidate derivative are
    computed; each panel's trapezoid contribution is also compared with the
    increment of the cost over the panel.  Each side is one :func:`marginal_path`
    (tolerance 1e-12) whose nodes add ``1e-9 t_end``, where node 0's candidate is read.

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
    # degenerate initial data (few atoms) have a non-unique dual pair, whose
    # arbitrary member misses the right derivative at t=0; a positive time
    # fills the reachable support and pins it, so node 0's candidate is read there
    nodes = np.insert(grid, 1, 1e-9 * t_end)
    w_vals, integ, diag, deriv = np.empty((4, grid.size))
    pathX = marginal_path(genX, p0X, nodes, tol=1e-12)
    pathY = marginal_path(genY, p0Y, nodes, tol=1e-12)
    regX, regY = pathX.pop(1), pathY.pop(1)
    for k, (mX, mY) in enumerate(zip(pathX, pathY)):
        w_vals[k] = wasserstein_power(mX, mY, rho)
        laws = _laws(genX, genY, mX.vector, mY.vector)
        deriv[k] = _merge_derivative(genX.states, genY.states, *laws, rho)
        if k == 0:
            mX, mY = regX, regY
            laws = _laws(genX, genY, mX.vector, mY.vector)
        pair = potentials(mX, mY, rho)
        integ[k], l_psi = _integrand_from_pair(genX, genY, *laws, pair)
        diag[k] = float(np.dot(laws[0], np.abs(l_psi) ** _DIAG_EXPONENT))
    dt = grid[1] - grid[0]
    panel = 0.5 * dt * (integ[1:] + integ[:-1])
    cumulative = np.concatenate([[0.0], np.cumsum(panel)])
    residual = np.concatenate([[0.0], np.abs(np.diff(w_vals) - panel)])
    deriv_residual = np.abs(deriv - integ) / (1.0 + np.abs(deriv))
    return EvolutionReport(
        grid, w_vals, integ, cumulative, residual, diag, deriv, deriv_residual, pathX[-1], pathY[-1]
    )
