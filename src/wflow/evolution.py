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

from wflow.jump_process import JumpGeneratorSpec, Marginal, _marginal_paths, marginal_path
from wflow.measures import write_table
from wflow.transport import _check_rho, _path_merge, potentials

__all__ = [
    "EvolutionReport",
    "apply_generator",
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


def _laws(gen, path):
    """Each node's law ``v`` on every state, with its rates ``L^T v``."""
    V = [m.vector for m in path]
    return V, [gen.weighted_kernel_apply(v) - gen.lam * v for v in V]


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
    (tolerance 1e-12) whose nodes add ``1e-9 t_end``, where node 0's candidate
    is read; with ``genX is genY`` the two paths share one set of Poisson
    windows.  The costs and their exact right derivatives come from one merge
    of the two paths' levels and rates; the loop over the nodes builds only
    the potentials and the candidate.

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
    if genX is genY:
        pathX, pathY = _marginal_paths(genX, [p0X, p0Y], nodes, tol=1e-12)
    else:
        pathX = marginal_path(genX, p0X, nodes, tol=1e-12)
        pathY = marginal_path(genY, p0Y, nodes, tol=1e-12)
    (VX, RX), (VY, RY) = _laws(genX, pathX), _laws(genY, pathY)
    W, deriv = _path_merge(genX.states, genY.states, VX, VY, [rho], RX, RY)
    # the regularized node 1 is not on the grid
    w_vals, deriv = np.delete(W[0], 1), np.delete(deriv, 1)
    integ, diag = np.empty((2, grid.size))
    # candidates from path node k + 1: grid node k, or the regularized node at k = 0
    for k, n in enumerate(range(1, nodes.size)):
        pair = potentials(pathX[n], pathY[n], rho)
        integ[k], l_psi = _integrand_from_pair(genX, genY, VX[n], VY[n], RX[n], RY[n], pair)
        diag[k] = float(np.dot(VX[n], np.abs(l_psi) ** _DIAG_EXPONENT))
    dt = grid[1] - grid[0]
    panel = 0.5 * dt * (integ[1:] + integ[:-1])
    cumulative = np.concatenate([[0.0], np.cumsum(panel)])
    residual = np.concatenate([[0.0], np.abs(np.diff(w_vals) - panel)])
    deriv_residual = np.abs(deriv - integ) / (1.0 + np.abs(deriv))
    return EvolutionReport(
        grid, w_vals, integ, cumulative, residual, diag, deriv, deriv_residual, pathX[-1], pathY[-1]
    )
