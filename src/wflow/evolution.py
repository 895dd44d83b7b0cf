"""Time evolution of transport cost between jump-process marginals.

For two finite-state jump processes, the power-``rho`` transport cost between
their forward marginals changes at the rate obtained by applying each
generator to the corresponding optimal dual potential: the increment of
``W_rho^rho`` over ``[0, t]`` equals minus the time integral of
``integral (L psi_s) dP_s + integral (L~ psi~_s) dP~_s``.  This module
checks the identity pointwise on a uniform time grid, against the exact
derivative that the merge of the marginals' cumulative levels and their rates
``L^T p`` give, and reports the trapezoid panels as a quadrature error.

The dual potentials of every node come from the transport module's batched
staircase, a block of nodes at a time: each potential on its law's support,
and off it the cost transform of the other potential over the other law's
support, closed along the coupling.  That extension keeps the pair feasible
wherever one of the two states is an atom, which is every pair that the
generators applied on the supports read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wflow.jump_process import JumpGeneratorSpec, Marginal, _node_marginal, _path_laws
from wflow.measures import write_table
from wflow.transport import PotentialPair, _check_rho, _path_merge, _staircase

__all__ = [
    "EvolutionReport",
    "apply_generator",
    "verify_identity",
]


def apply_generator(gen, f):
    """Generator action ``lam(x) * integral (f(y) - f(x)) k(x, dy)``.

    ``f`` must be tabulated on every state of ``gen``, or be rows of such
    tabulations; evaluation is an exact matrix-vector product per row.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim > 2 or f.shape[-1:] != gen.states.shape:
        raise ValueError("f must be tabulated on all generator states")
    return gen.lam * (gen.kernel.apply(f) - f)


def _rates(gen, V):
    """Each node's rate ``L^T v``, for the laws ``v`` in the rows of ``V``."""
    return gen.weighted_kernel_apply(V) - gen.lam * V


_DUAL_BLOCK = 2**18  # (x, y) reached-state cells per block of nodes in _candidates
_DIAG_EXPONENT = 1.5  # order of the generator moment in ``diagnostics``


def _candidates(genX, genY, VX, VY, RX, RY, rho):
    """Candidate derivative and generator moment at each node, and the last
    node's dual pair.

    Row ``k`` of ``VX``, ``VY`` is a node's law on every state and of ``RX``,
    ``RY`` its rate.  Returns ``-integral L psi dP - integral L~ psi~ dP~``
    and ``integral |L psi|^(3/2) dP`` per node.  Each potential is read only
    on its law's support and one-jump targets (``v > 0`` or ``rate != 0``),
    which is all that the generator applied to it reads on the support.  A
    block of nodes, about ``_DUAL_BLOCK`` cells of the states the path
    reaches, runs one staircase, which gives ``psi`` on every state that
    ``X`` reaches and ``psi~`` on every state that ``Y`` reaches, each
    closed off its support.
    The last node's pair is the last block's last row on the two supports,
    the :class:`PotentialPair` that :func:`potentials` builds from the two
    last laws.
    """
    reach_x, reach_y = ((V > 0.0) | (R != 0.0) for V, R in ((VX, RX), (VY, RY)))
    n_nodes = VX.shape[0]
    integ, diag = np.empty((2, n_nodes))
    cells = np.count_nonzero(reach_x.any(axis=0)) * np.count_nonzero(reach_y.any(axis=0))
    step = max(1, _DUAL_BLOCK // cells)
    for s in range(0, n_nodes, step):
        b = slice(s, s + step)
        # the block's columns: the states some node of the block reaches
        cx, cy = (np.flatnonzero(r[b].any(axis=0)) for r in (reach_x, reach_y))
        vx, vy = VX[b][:, cx], VY[b][:, cy]
        x, y = genX.states[cx], genY.states[cy]
        psi, psi_tilde = _staircase(x, vx, y, vy, rho, first=s)
        applied = []
        for gen, c, f, r in ((genX, cx, psi, reach_x), (genY, cy, psi_tilde, reach_y)):
            full = np.zeros((f.shape[0], gen.n_states))
            full[:, c] = np.where(r[b][:, c], f, 0.0)
            applied.append(apply_generator(gen, full))
        for k, l_psi, l_psi_tilde in zip(range(s, n_nodes), *applied):
            # from 0.0, one side's integral at a time
            integ[k] = 0.0 - float(np.dot(VX[k], l_psi)) - float(np.dot(VY[k], l_psi_tilde))
            diag[k] = float(np.dot(VX[k], np.abs(l_psi) ** _DIAG_EXPONENT))
    on_x, on_y = vx[-1] > 0.0, vy[-1] > 0.0
    final = PotentialPair(rho, x[on_x], psi[-1, on_x], y[on_y], psi_tilde[-1, on_y])
    return integ, diag, final


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
    ``final_x`` and ``final_y`` are the two marginals at the last node, and
    ``final_pair`` their dual pair, as :func:`potentials` gives it.
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
    final_pair: PotentialPair

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


def verify_identity(genX, genY, p0X, p0Y, rho, t_end, n_steps):
    """Evaluate both sides of the evolution identity on a uniform grid.

    At each of ``n_steps + 1`` nodes the forward marginals, the transport
    cost, its exact right derivative and the candidate derivative are
    computed; each panel's trapezoid contribution is also compared with the
    increment of the cost over the panel.  Each side is one path of node
    laws (tolerance 1e-12, as :func:`marginal_path` solves it) whose nodes add
    ``1e-9 t_end``, where node 0's candidate is read; with ``genX is genY``
    the two paths share one set of Poisson windows.  The costs and their
    exact right derivatives come from one merge of the two paths' levels and
    rates.  The potentials and the candidates come a block of nodes at a
    time: one batched staircase, which closes both potentials, and one
    generator product per side.  Only the two last nodes become
    :class:`Marginal` objects, ``final_x`` and ``final_y``, and their dual
    pair is the last block's last row, ``final_pair``.

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
    tol = 1e-12
    if genX is genY:
        (VX, VY), wX = _path_laws(genX, [p0X, p0Y], nodes, tol)
        wY = wX
    else:
        (VX,), wX = _path_laws(genX, [p0X], nodes, tol)
        (VY,), wY = _path_laws(genY, [p0Y], nodes, tol)
    RX, RY = _rates(genX, VX), _rates(genY, VY)
    W, deriv = _path_merge(genX.states, genY.states, VX, VY, [rho], RX, RY)
    # the regularized node 1 is not on the grid
    w_vals, deriv = np.delete(W[0], 1), np.delete(deriv, 1)
    # candidates from path node k + 1: grid node k, or the regularized node at k = 0
    integ, diag, final_pair = _candidates(genX, genY, VX[1:], VY[1:], RX[1:], RY[1:], rho)
    dt = grid[1] - grid[0]
    panel = 0.5 * dt * (integ[1:] + integ[:-1])
    cumulative = np.concatenate([[0.0], np.cumsum(panel)])
    residual = np.concatenate([[0.0], np.abs(np.diff(w_vals) - panel)])
    deriv_residual = np.abs(deriv - integ) / (1.0 + np.abs(deriv))
    final_x = _node_marginal(genX, p0X, VX[-1], wX[-1], tol)
    final_y = _node_marginal(genY, p0Y, VY[-1], wY[-1], tol)
    columns = (grid, w_vals, integ, cumulative, residual, diag, deriv, deriv_residual)
    return EvolutionReport(*columns, final_x, final_y, final_pair)
