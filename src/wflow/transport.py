"""Exact one-dimensional optimal transport: distances, maps, dual potentials.

For laws on the line with power cost ``|x - y|^rho`` (``rho >= 1``) the optimal
coupling is the quantile coupling, so every quantity here reduces to piecewise
integrals of power functions which are evaluated in closed form:

* ``wasserstein`` merges the quantile breakpoints of the two laws and sums the
  exact segment integrals.
* ``optimal_map`` composes the target quantile function with the source CDF.
* ``potentials`` produces a dual pair achieving the primal value, either by
  integrating the signed-power displacement along the source axis (continuous
  CDFs) or along the monotone coupling's staircase (atomic laws).
* ``_staircase`` builds that staircase for a block of law pairs at once,
  rows of dense laws on shared states: one sort of each row's cumulative
  levels and one running sum of the dual equality's increments.  It closes
  both potentials off the atoms along the coupling just walked, ``psi_tilde``
  on every y and ``psi`` on every zero-mass x, each certified by
  ``_coupled_minima`` in O(n + m) window scans.  A row that does not
  certify, like the pair's ``psi_at``/``psi_tilde_at``, goes to
  ``_cost_transform``, the one general cost transform, one row at a time.
  The atomic ``potentials`` is the staircase's one-row case.
* ``_path_merge`` merges the dense node laws of two solved paths, one
  lexsort per node, into every requested cost order and the exact right
  derivative of the first.

The dual pair is normalized so the potential vanishes at the leftmost
tabulation point of the source law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from wflow.measures import (
    DiscreteMeasure,
    GridMeasure,
    _power_integral,
    _signed_power,
    generalized_variance,
    moment,
    quantile,
    write_table,
)

__all__ = [
    "RepresentationError",
    "PotentialConstructionError",
    "IntegrationError",
    "HypothesisError",
    "TransportMap",
    "PotentialPair",
    "TranslatedMapBound",
    "wasserstein",
    "wasserstein_power",
    "optimal_map",
    "potentials",
    "duality_gap",
    "feasibility_violation",
    "potential_moment_bound",
    "translated_map_bound",
]


class RepresentationError(TypeError):
    """The requested object has no faithful representation for these inputs."""


class PotentialConstructionError(RuntimeError):
    """Staircase propagation produced a dual-infeasible pair."""


class IntegrationError(RuntimeError):
    """A computed dual value failed its internal consistency tolerance."""


class HypothesisError(ValueError):
    """A stated integral hypothesis failed on the validation grid."""


def _check_rho(rho, need_gt1=False):
    """``rho`` as a float: finite and at least 1 (above 1 with ``need_gt1``)."""
    rho = float(rho)
    if not (math.isfinite(rho) and rho >= 1.0):
        raise ValueError(f"cost exponent rho must be a finite number >= 1, got {rho!r}")
    if need_gt1 and rho == 1.0:
        raise ValueError("dual potentials are only constructed for rho > 1")
    return rho


# ---------------------------------------------------------------------------
# quantile-function pieces and the merged exact integral


def _quantile_breaks(m):
    """(u_breaks, kind, data) describing the quantile function on (0, 1)."""
    if isinstance(m, DiscreteMeasure):
        # dividing by the last cumulative sum puts the top level at 1 exactly,
        # and the levels below on the same scale, as _path_merge does
        cum = np.cumsum(m.weights)
        return np.concatenate(([0.0], cum / cum[-1])), "step", m.support
    if isinstance(m, GridMeasure):
        return m.cdf_values, "linear", m.grid
    raise TypeError(f"unsupported measure type {type(m)!r}")


def _quantile_on_segments(breaks, kind, data, seg_lo, seg_hi, seg_mid):
    """Quantile values at both ends of merged open segments."""
    if kind == "step":
        idx = np.searchsorted(breaks[1:-1], seg_mid, side="right")
        v = data[idx]
        return v, v
    return np.interp(seg_lo, breaks, data), np.interp(seg_hi, breaks, data)


def wasserstein_power(m1, m2, rho):
    """``W_rho(m1, m2) ** rho`` by exact merged-breakpoint integration."""
    rho = _check_rho(rho)
    b1, k1, d1 = _quantile_breaks(m1)
    b2, k2, d2 = _quantile_breaks(m2)
    breaks = np.union1d(b1, b2)
    lo, hi = breaks[:-1], breaks[1:]
    mid = 0.5 * (lo + hi)
    q1_lo, q1_hi = _quantile_on_segments(b1, k1, d1, lo, hi, mid)
    q2_lo, q2_hi = _quantile_on_segments(b2, k2, d2, lo, hi, mid)
    return float(np.sum(_power_integral(q1_lo - q2_lo, q1_hi - q2_hi, hi - lo, rho)))


_MERGE_BLOCK = 2**16  # merged levels held at once by _path_merge


def _reached(laws, rates):
    """Indices of the states where some node's law is positive or its rate nonzero."""
    keep = np.any(laws > 0.0, axis=0)
    if rates is not None:
        keep |= np.any(rates != 0.0, axis=0)
    return np.flatnonzero(keep)


def _path_merge(sX, sY, VX, VY, orders, RX=None, RY=None):
    """``W_r^r`` between the node laws of two paths, for every order ``r``.

    Row ``VX[k]`` (``VY[k]``) of a 2-d array is node ``k``'s law, not
    renormalized, on the states ``sX`` (``sY``).  With the
    rates ``RX``, ``RY`` (``L^T v`` per node) the exact right derivative of
    the first order's cost comes too.  Per node one lexsort merges both
    sides' inner cumulative levels, ties ordered by rate, the order an
    instant later, then by index with ``x`` first.  The cost sums
    ``|x_i - y_j|^r`` times the gap between merged levels; each level moves
    at its side's cumulative rate, so the derivative adds ``rate * (cost
    below - cost above)`` per level.  Only the states that some node reaches
    (``v > 0`` or ``rate != 0``) take part, and the nodes are stacked in
    blocks of about ``_MERGE_BLOCK`` levels.  Returns ``(W, deriv)`` with
    ``W[o, k]`` for ``orders[o]`` and ``deriv[k]`` (``None`` without rates).
    """
    rated = RX is not None
    cx, cy = _reached(VX, RX), _reached(VY, RY)
    x, y = sX[cx], sY[cy]
    n_nodes, n_lev = len(VX), x.size + y.size - 2
    W = np.empty((len(orders), n_nodes))
    deriv = np.empty(n_nodes) if rated else None
    step = max(1, _MERGE_BLOCK // (n_lev + 1))
    for s in range(0, n_nodes, step):
        b = slice(s, s + step)
        # dividing by each row's last cumulative sum puts the top level at 1
        # exactly, so no spurious gap below 1 meets the large far costs
        cum = [np.cumsum(V[b][:, c], axis=1) for V, c in ((VX, cx), (VY, cy))]
        level = np.concatenate([q[:, :-1] / q[:, -1:] for q in cum], axis=1)
        if rated:
            moving = [np.cumsum(R[b][:, c], axis=1) for R, c in ((RX, cx), (RY, cy))]
            rate = np.concatenate([r[:, :-1] / q[:, -1:] for r, q in zip(moving, cum)], axis=1)
            order = np.lexsort((rate, level), axis=1)
        else:
            order = np.argsort(level, axis=1, kind="stable")
        # corner 0 is atom pair (0, 0); corner s follows merged level s
        i = np.zeros((order.shape[0], n_lev + 1), dtype=np.intp)
        np.cumsum(order < x.size - 1, axis=1, out=i[:, 1:])
        dist = np.abs(x[i] - y[np.arange(n_lev + 1) - i])
        gap = np.diff(np.take_along_axis(level, order, axis=1), axis=1, prepend=0.0, append=1.0)
        for o, r in enumerate(orders):
            cost = dist**r
            W[o, b] = np.sum(cost * gap, axis=1)
            if rated and o == 0:
                moved = np.take_along_axis(rate, order, axis=1)
                deriv[b] = np.sum(moved * (cost[:, :-1] - cost[:, 1:]), axis=1)
    return W, deriv


def wasserstein(m1, m2, rho):
    """Wasserstein distance of order ``rho`` between two laws on the line.

    Parameters
    ----------
    m1, m2 : DiscreteMeasure or GridMeasure
        The two laws; atomic and grid representations may be mixed.
    rho : float
        Cost exponent, ``rho >= 1``.

    Returns
    -------
    float
        ``(integral_0^1 |F1^{-1}(u) - F2^{-1}(u)|^rho du)^(1/rho)``, evaluated
        exactly segment by segment.
    """
    rho = _check_rho(rho)
    return wasserstein_power(m1, m2, rho) ** (1.0 / rho)


# ---------------------------------------------------------------------------
# monotone transport map between grid measures


@dataclass
class TransportMap:
    """Monotone map tabulated at breakpoints; piecewise linear in between."""

    x: np.ndarray
    values: np.ndarray

    def __call__(self, q):
        return np.interp(q, self.x, self.values)


def _refined_source_breaks(m1, m2):
    """Source points where ``T = F2^{-1} o F1`` changes slope."""
    inner = m2.cdf_values[1:-1]
    if inner.size:
        pre = quantile(m1, np.clip(inner, 1e-300, 1.0 - 1e-16))
        xb = np.union1d(m1.grid, pre)
    else:
        xb = m1.grid.copy()
    t = np.interp(m1.cdf_at(xb), m2.cdf_values, m2.grid)
    return xb, t


def optimal_map(m1, m2):
    """Monotone optimal transport map from ``m1`` onto ``m2``.

    Both measures must be :class:`GridMeasure`; a purely atomic source has no
    single-valued monotone map in general and raises
    :class:`RepresentationError`.
    """
    if not isinstance(m1, GridMeasure) or not isinstance(m2, GridMeasure):
        raise RepresentationError(
            "optimal_map needs grid measures on both sides; atomic laws admit "
            "no single-valued monotone map in general"
        )
    xb, t = _refined_source_breaks(m1, m2)
    return TransportMap(xb, t)


# ---------------------------------------------------------------------------
# dual potentials, continuous-CDF route


def _growth(r, p):
    """``((1 + r)^p - 1) / r`` for ``r > -1``, to rounding at every ``r``."""
    safe = np.where(r == 0.0, 1.0, r)
    return np.where(r == 0.0, p, np.expm1(p * np.log1p(r)) / safe)


def _mean_growth(r, p):
    """Mean of ``((1 + r v)^p - 1) / r`` over ``v`` in [0, 1]: the difference
    below, or where it would lose ``eps / |r|``, six Taylor terms
    ``p (p-1)...(p-m) r^m / (m+2)!``."""
    m = np.arange(1.0, 6.0)
    series = np.polynomial.polynomial.polyval(r, np.cumprod(np.r_[p / 2.0, (p - m) / (m + 2.0)]))
    big = np.abs(r) >= 1e-3
    safe = np.where(big, r, 1.0)
    return np.where(big, (_growth(safe, p + 1.0) - (p + 1.0)) / ((p + 1.0) * safe), series)


class _GridDual:
    """Exact evaluator for the dual pair of two grid measures.

    ``psi' = rho sgn(g)|g|^(rho-1)`` for the displacement ``g = T(x) - x``,
    linear on each piece.  The closed forms in ``g`` divide by its slope, so a
    piece whose ends differ by at most half of ``|g_lo| + |g_hi|`` (one sign)
    takes them in the ratio of its end displacements instead.
    """

    def __init__(self, m1, m2, rho):
        self.rho, self.m1, self.m2 = rho, m1, m2
        self.xb, self.t = xb, t = _refined_source_breaks(m1, m2)
        self.g_lo = g_lo = t[:-1] - xb[:-1]
        self.g_hi = g_hi = t[1:] - xb[1:]
        dx = np.diff(xb)
        self.b = b = (g_hi - g_lo) / dx
        self.a = g_lo - b * xb[:-1]
        self.near = np.abs(g_hi - g_lo) <= 0.5 * (np.abs(g_lo) + np.abs(g_hi))
        self.b_safe = np.where(self.near, 1.0, b)
        inc = self._rise(slice(None), g_lo, g_hi, dx)
        self.psi_b = np.concatenate(([0.0], np.cumsum(inc)))

    def _rise(self, k, z0, z1, width, mean=False):
        """Gain of ``psi`` across ``width`` of piece ``k`` while ``g`` runs from
        ``z0`` to ``z1``; with ``mean``, its mean over that stretch."""
        rho, near = self.rho, self.near[k]
        ok = near & (z0 != 0.0)
        r = np.where(ok, (z1 - z0) / np.where(ok, z0, 1.0), 0.0)
        if mean:
            flat = _mean_growth(r, rho)
            steep = _power_integral(z0, z1, np.ones_like(z0), rho) - np.abs(z0) ** rho
        else:
            flat = _growth(r, rho)
            steep = np.abs(z1) ** rho - np.abs(z0) ** rho
        return np.where(near, width * _signed_power(z0, rho - 1.0) * flat, steep / self.b_safe[k])

    def _piece_of(self, x):
        return np.clip(np.searchsorted(self.xb, x, side="right") - 1, 0, self.xb.size - 2)

    def _psi_on(self, k, x):
        """``psi(x)`` for ``x`` on piece ``k``."""
        z = self.a[k] + self.b[k] * x
        return self.psi_b[k] + self._rise(k, self.g_lo[k], z, x - self.xb[k])

    def psi_at(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, self.xb[0], self.xb[-1])
        out = self._psi_on(self._piece_of(xc), xc)
        return out if out.ndim else float(out)

    def map_back(self, y):
        """T~(y) = F1^{-1}(F2(y)), clipped to the source grid hull."""
        return np.interp(self.m2.cdf_at(y), self.m1.cdf_values, self.m1.grid)

    def psi_tilde_at(self, y):
        y = np.asarray(y, dtype=float)
        x = self.map_back(y)
        out = -self.psi_at(x) - np.abs(x - y) ** self.rho
        return out if out.ndim else float(out)

    def integral_source(self):
        """Exact ``integral psi dm1``."""
        dens = self.m1.densities()
        mid = 0.5 * (self.xb[:-1] + self.xb[1:])
        cell = np.clip(np.searchsorted(self.m1.grid, mid, side="right") - 1, 0, dens.size - 1)
        dx = np.diff(self.xb)
        mean = self.psi_b[:-1] + self._rise(slice(None), self.g_lo, self.g_hi, dx, mean=True)
        return float(np.sum(dens[cell] * dx * mean))

    def target_breaks(self):
        return np.union1d(self.m2.grid, self.t)

    def integral_target(self):
        """Exact ``integral psi_tilde dm2``."""
        yb = self.target_breaks()
        lo, hi = yb[:-1], yb[1:]
        dy = hi - lo
        dens = self.m2.densities()
        cell = np.clip(
            np.searchsorted(self.m2.grid, 0.5 * (lo + hi), side="right") - 1, 0, dens.size - 1
        )
        # T~ is linear on each piece, so psi(T~(y)) averages like psi on the
        # stretch of its source piece that T~ covers
        tb = self.map_back(yb)
        k = self._piece_of(0.5 * (tb[:-1] + tb[1:]))
        z0, z1 = self.a[k] + self.b[k] * tb[:-1], self.a[k] + self.b[k] * tb[1:]
        mean_psi = self._psi_on(k, tb[:-1]) + self._rise(k, z0, z1, tb[1:] - tb[:-1], mean=True)
        mean_disp = _power_integral(tb[:-1] - lo, tb[1:] - hi, np.ones_like(dy), self.rho)
        return float(np.sum(dens[cell] * dy * (-mean_psi - mean_disp)))


# ---------------------------------------------------------------------------
# dual potentials, atomic route


def _power_in_place(d, rho):
    """``|d|^rho`` written over ``d``: the same floats as ``np.abs(d) ** rho``."""
    if rho == 2.0:
        return np.multiply(d, d, out=d)
    return np.power(np.abs(d, out=d), rho, out=d)


def _cost_transform(xs, vals, q, rho):
    """``min_i |xs_i - q_j|^rho + vals[i]`` for every query ``j`` (exact),
    ``xs`` sorted and ``vals`` one row of table values.

    A ``+inf`` value leaves its state out.  For rho >= 1 the cost is a Monge
    array: leftmost argmins never decrease in q (Gangbo & McCann 1996;
    Aggarwal et al. 1987).  A dense pass takes the argmins at every
    ceil(sqrt(m))-th sorted query, and each block of queries between two
    anchors scans only the table window that their argmins bracket.  This is
    the general transform: it needs no guess, and serves the pair's
    ``psi_at``/``psi_tilde_at`` and the staircase rows that
    :func:`_coupled_minima` does not certify.
    """
    m = q.size
    out = np.empty(m)
    if m:
        order = np.argsort(q, kind="stable")
        qs = q[order]
        best = np.empty(m)
        anchors = np.append(np.arange(0, m - 1, math.isqrt(m - 1) + 1), m - 1)
        cost = _power_in_place(xs[:, None] - qs[anchors], rho) + vals[:, None]
        arg = np.argmin(cost, axis=0)
        best[anchors] = np.min(cost, axis=0)
        lo, hi = arg[:-1], arg[1:]
        # a non-finite query breaks the argmin order: scan to the table's end
        end = np.where(hi >= lo, hi + 1, xs.size)
        bounds = (anchors[:-1] + 1, anchors[1:], lo, end)
        for a, b, lo, end in zip(*(c.tolist() for c in bounds)):
            scan = _power_in_place(xs[lo:end, None] - qs[a:b], rho)
            best[a:b] = np.min(scan + vals[lo:end, None], axis=0)
        out[order] = best
    return out


def _coupled_minima(xs, vals, q, lo, hi, rho):
    """``min_i M_r[j, i]`` with ``M_r[j, i] = |xs_i - q_j|^rho + vals[r, i]``
    for every row ``r`` and query ``j``, and which rows a window scan certifies.

    ``xs`` and ``q`` are sorted, and ``[lo[r, j], hi[r, j]]`` is a guessed
    range of table positions for query ``j`` of row ``r``, both ends
    nondecreasing in ``j``.  Query ``j`` scans the window from ``lo`` of query
    ``j - 1`` to ``hi`` of query ``j + 1`` (to the table's ends for the first
    and the last query), and its minimum is the window's.  A row is
    certified when its leftmost window argmins are nondecreasing and each
    lies in its own range: then the window of query ``j`` holds the argmins
    of queries ``j - 1`` and ``j + 1``, and the lemma makes each window
    minimum the minimum over the whole table.

    Lemma.  For rho >= 1 each ``M_r`` is a Monge array, ``M[j, i] + M[j',
    i'] <= M[j, i'] + M[j', i]`` for ``j < j'`` and ``i < i'``, on its finite
    columns (``+inf`` leaves a state out of a row, column by column).  Let
    ``g`` be nondecreasing with ``g_0`` the first and ``g_{m+1}`` the last
    table position, and ``M[j, g_j] <= M[j, i]`` for every ``i`` in ``[g_{j-1},
    g_{j+1}]``.  Then ``M[j, g_j]`` is the minimum of ``M[j, :]``.

    Proof.  For ``i > g_j``, downward from ``j = m``, whose window reaches the
    last position: if ``i <= g_{j+1}`` the window holds ``i``; otherwise the
    Monge inequality on columns ``g_{j+1} < i`` gives ``M[j, i] - M[j,
    g_{j+1}] >= M[j+1, i] - M[j+1, g_{j+1}] >= 0``, the latter by induction,
    and the window holds ``g_{j+1}``.  For ``i < g_j`` the same argument runs
    upward from ``j = 1`` on columns ``i < g_{j-1}``.  A ``+inf`` entry never
    attains a minimum, so the argument holds on a row's finite columns.

    Either side may be the table: ``|x - y|^rho`` is symmetric, so the
    lemma holds with the roles of x and y swapped, and the staircase
    closes ``psi_tilde`` over the x atoms and ``psi`` over the y atoms alike.
    The entries are the floats that :func:`_cost_transform` takes the
    minimum of, so a certified minimum is its value; like that transform's
    brackets, the certificate takes the rounded entries to keep the Monge
    order of the exact ones.  A NaN or infinite minimum never certifies.
    The windows of all rows are flattened into one array and reduced by
    ``np.minimum.reduceat``, about ``3 (n + m)`` entries a row for ``n``
    table positions and ``m`` queries.
    """
    n_rows, n = lo.shape[0], xs.size
    w_lo = np.concatenate((np.zeros((n_rows, 1), dtype=lo.dtype), lo[:, :-1]), axis=1)
    w_hi = np.concatenate((hi[:, 1:], np.full((n_rows, 1), n - 1, dtype=hi.dtype)), axis=1)
    window = (w_hi - w_lo + 1).ravel()
    start = np.zeros(window.size, dtype=np.intp)
    np.cumsum(window[:-1], out=start[1:])
    # flat entry k of window (r, j) reads table position k - start + w_lo of row r
    row_at = n * np.arange(n_rows)[:, None]
    at = np.arange(start[-1] + window[-1]) + np.repeat((w_lo + row_at).ravel() - start, window)
    cost = np.tile(xs, n_rows).take(at) - np.repeat(np.tile(q, n_rows), window)
    cost = _power_in_place(cost, rho) + vals.take(at)
    best = np.minimum.reduceat(cost, start)
    # a NaN window has no hit and reads the sentinel, which no range holds
    hit = np.where(cost == np.repeat(best, window), at, n * n_rows)
    arg = np.minimum.reduceat(hit, start).reshape(lo.shape) - row_at
    best = best.reshape(lo.shape)
    ok = np.isfinite(best) & (lo <= arg) & (arg <= hi)
    ok[:, 1:] &= arg[:, :-1] <= arg[:, 1:]
    return best, ok.all(axis=1)


def _coupled_closure(states, atoms, col, corner, vals, q, on_q, first, rho):
    """The closed potential ``-min_i (|s_i - q_j|^rho + vals[r, i])`` for every
    row ``r`` and query state ``q_j``, the minima over the ``states`` ``s``
    that some row's ``atoms`` occupy, found by :func:`_coupled_minima` in
    the ranges that the coupling gives.

    ``vals`` holds each row's potential on ``states``, ``+inf`` off its
    atoms; ``col`` holds the atoms' columns, all rows in turn, and
    ``corner`` the index among them of each staircase corner's atom on this
    side.  ``first`` marks the corners where a query atom (``on_q``) is
    first reached.  A query atom's range runs from its first corner to its
    last, a zero-mass query's from the last corner of the atom before it to
    the first corner of the atom after it (or an end of the table); one more
    position each side takes in the rounding ties of neighbouring atoms.  A
    row that does not certify goes to :func:`_cost_transform`.
    """
    at_table = atoms.any(axis=0)
    table = np.flatnonzero(at_table)
    at = (np.cumsum(at_table) - 1).take(col).take(corner)
    last = np.ones_like(first)
    last[:, :-1] = first[:, 1:]
    first_at = np.full(on_q.shape, table.size)
    last_at = np.full(on_q.shape, -1)
    first_at[on_q] = at[first]
    last_at[on_q] = at[last]
    lo = np.where(on_q, first_at, np.maximum.accumulate(last_at, axis=1))
    hi = np.where(on_q, last_at, np.minimum.accumulate(first_at[:, ::-1], axis=1)[:, ::-1])
    lo, hi = np.maximum(lo - 1, 0), np.minimum(hi + 1, table.size - 1)
    states, vals = states[table], vals[:, table]
    best, ok = _coupled_minima(states, vals, q, lo, hi, rho)
    for r in np.flatnonzero(~ok):
        best[r] = _cost_transform(states, vals[r], q, rho)
    return -best


def _staircase(x, VX, y, VY, rho, first=0):
    """``(psi, psi_tilde)`` per row: the staircase along the monotone coupling
    of each row pair of laws, both closed off the atoms by the cost
    transform, ``psi_tilde`` checked against the staircase within 1e-9
    relative.

    ``VX`` (``VY``) holds one nonnegative law per row on the sorted states
    ``x`` (``y``); a row's atoms are its positive entries, and its levels are
    its cumulative sums over the sum of its atoms.  The path from atom pair
    (0, 0) steps past every inner cumulative level of either law in
    increasing order: an x-step advances the source atom, a y-step the target
    atom, and a level both laws share (matched occurrence by occurrence)
    advances both at once.  The path is one stable sort of the levels per
    row; ``psi`` along it is one running sum of increments.  Holding
    ``psi(x_i) + psi_tilde(y_j) = -|x_i - y_j|^rho`` at every corner gives
    ``c(i-1, j) - c(i, j)`` per x-step and nothing per y-step.  A shared
    level crosses the zero-mass gaps (x_{i-1}, x_i) and (y_{j-1}, y_j)
    together, and its increment integrates the signed-power displacement of
    the limit map ``clip(x, y_{j-1}, y_j)``: constant, then the identity,
    which adds nothing, then constant again.

    Returns ``psi`` and ``psi_tilde`` on every state.  ``psi_tilde`` is the
    cost transform of ``psi`` over the row's x atoms, which the y atoms
    check against the staircase.  ``psi`` is the staircase on the x atoms
    and, on a zero-mass x, the cost transform of the closed ``psi_tilde``
    over the row's y atoms; when every state ``x`` is an atom of every row,
    as in :func:`potentials`, that side is not run.  Each transform follows
    the coupling (:func:`_coupled_closure`): a y atom's range of x atoms
    runs from its first corner to its last, a zero-mass y's from the last
    corner of the atom before it to the first corner of the atom after it,
    and with x and y swapped the same holds for a zero-mass x, each range
    widened by one position.  :func:`_coupled_minima` certifies the rows
    whose minima it finds there; the other rows go to
    :func:`_cost_transform`.  The pair is feasible wherever one of the two
    states is an atom; off both supports it need not be, and no generator
    applied on a support reads such a pair.  A failed check raises
    :class:`PotentialConstructionError` naming the node ``first + row``.
    """
    rows = np.arange(VX.shape[0])
    sides = []
    for s, V in ((x, VX), (y, VY)):
        atoms = V > 0.0
        row, col = np.nonzero(atoms)
        start = np.searchsorted(row, rows)
        # each row's total adds its atoms as DiscreteMeasure.total_mass does
        total = np.array([w.sum() for w in np.split(V[atoms], start[1:])])
        level = np.cumsum(V, axis=1) / total[:, None]
        # a row's inner levels sit at its atoms but the last; a zero-mass
        # state repeats the level before it
        inner = atoms.copy()
        inner[rows, col[np.append(start[1:], col.size) - 1]] = False
        # the atoms of all rows in turn, row r's from start[r], for the corners
        sides.append((atoms, inner, level, col, start))
    (ax, ix, lx, cx, fx), (ay, iy, ly, cy, fy) = sides
    level = np.where(np.concatenate((ix, iy), axis=1), np.concatenate((lx, ly), axis=1), np.inf)
    # the sort is stable, so a source entry precedes its target twin; the
    # states that are no inner level sort last at +inf and take no step
    if any(np.any(inner[:, 1:] & (lev[:, 1:] == lev[:, :-1])) for _, inner, lev, *_ in sides):
        # equal levels on one side (a weight below the cumsum's rounding)
        # pair up with the other side's equal levels in turn, so each
        # carries its rank in its run
        rank = []
        for _, inner, lev, *_ in sides:
            count = np.cumsum(inner, axis=1)
            new = count == 1
            new[:, 1:] |= lev[:, 1:] != lev[:, :-1]
            rank.append(count - np.maximum.accumulate(np.where(new & inner, count, 0), axis=1))
        order = np.lexsort((np.concatenate(rank, axis=1), level), axis=1)
    else:
        order = np.argsort(level, axis=1, kind="stable")
    on_y = order >= x.size
    level = level.take(order + order.shape[1] * rows[:, None])
    real = level < np.inf
    # a source level directly followed by an equal target level is one
    # shared step, and the target entry takes no step of its own
    tie = np.zeros_like(on_y)
    tie[:, :-1] = real[:, :-1] & ~on_y[:, :-1] & on_y[:, 1:] & (level[:, 1:] == level[:, :-1])
    twin = np.zeros_like(tie)
    twin[:, 1:] = tie[:, :-1]
    moves_x = real & ~on_y
    moves_y = (real & on_y & ~twin) | tie
    # corner 0 is atom pair (0, 0); corner s follows step s
    n_rows, n_steps = order.shape
    i = np.zeros((n_rows, n_steps + 1), dtype=np.intp)
    j = np.zeros_like(i)
    np.cumsum(moves_x, axis=1, out=i[:, 1:])
    np.cumsum(moves_y, axis=1, out=j[:, 1:])
    # the index of each corner's atoms among all rows' atoms
    i += fx[:, None]
    j += fy[:, None]
    x_at = x[cx].take(i)
    y_at = y[cy].take(j)
    c = np.abs(x_at - y_at) ** rho
    inc = np.where(moves_x, c[:, :-1] - c[:, 1:], 0.0)
    if tie.any():
        r, k = np.nonzero(tie)
        x_lo, x_hi = x_at[r, k], x_at[r, k + 1]
        y_lo, y_hi = y_at[r, k], y_at[r, k + 1]
        t1 = np.minimum(np.maximum(y_lo, x_lo), x_hi)
        t2 = np.minimum(np.maximum(y_hi, x_lo), x_hi)
        inc[r, k] = (c[r, k] - np.abs(y_lo - t1) ** rho) + (np.abs(y_hi - t2) ** rho - c[r, k + 1])
    run = np.zeros((n_rows, n_steps + 1))
    np.cumsum(inc, axis=1, out=run[:, 1:])
    at_x = np.ones_like(i, dtype=bool)
    at_x[:, 1:] = moves_x
    at_y = np.ones_like(at_x)
    at_y[:, 1:] = moves_y
    psi = np.full(VX.shape, np.inf)
    psi[ax] = run[at_x]
    psit = np.zeros(VY.shape)
    psit[ay] = (-run - c)[at_y]
    closed = _coupled_closure(x, ax, cx, i, psi, y, ay, at_y, rho)
    scale = 1.0 + np.max(np.abs(psit), axis=1)
    gap = np.where(ay, np.abs(closed - psit), 0.0)
    bad = ~(gap <= 1e-9 * scale[:, None])  # a NaN gap or scale fails closed
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        worst = int(np.argmax(gap[row]))
        raise PotentialConstructionError(
            f"staircase propagation of node {first + row} is dual-infeasible near "
            f"y={y[worst]!r} (transform correction {gap[row, worst]!r})"
        )
    if not ax.all():
        off = _coupled_closure(y, ay, cy, j, np.where(ay, closed, np.inf), x, ax, at_x, rho)
        psi = np.where(ax, psi, off)
    return psi, closed


def _closure(table, values, other, other_values, q, rho):
    """``values`` where ``q`` hits ``table``, else the other side's cost transform."""
    q = np.asarray(q, dtype=float)
    flat = np.atleast_1d(q)
    k = np.minimum(np.searchsorted(table, flat), table.size - 1)
    hit = table[k] == flat
    out = np.where(hit, values[k], 0.0)
    out[~hit] = -_cost_transform(other, other_values, flat[~hit], rho)
    return out if q.ndim else float(out[0])


# ---------------------------------------------------------------------------
# the public dual pair


@dataclass
class PotentialPair:
    """Kantorovich dual pair for ``|x-y|^rho`` cost, tabulated on both sides.

    ``psi_at``/``psi_tilde_at`` evaluate off the tabulation: exactly through
    the continuous route's grid dual when there is one, otherwise by the cost
    transform of the other side's table, the extension under which the pair
    stays feasible.  ``transport_map`` is present only for the continuous
    route.
    """

    rho: float
    x: np.ndarray
    psi: np.ndarray
    y: np.ndarray
    psi_tilde: np.ndarray
    transport_map: TransportMap | None = None
    _grid: _GridDual | None = field(default=None, repr=False)

    def psi_at(self, q):
        if self._grid is not None:
            return self._grid.psi_at(q)
        return _closure(self.x, self.psi, self.y, self.psi_tilde, q, self.rho)

    def psi_tilde_at(self, q):
        if self._grid is not None:
            return self._grid.psi_tilde_at(q)
        return _closure(self.y, self.psi_tilde, self.x, self.psi, q, self.rho)

    def to_csv(self, prefix):
        """Write ``<prefix>_psi.csv``, ``<prefix>_psi_tilde.csv`` and, when a
        map is tabulated, ``<prefix>_map.csv``."""
        write_table(f"{prefix}_psi.csv", "x,psi", (self.x, self.psi))
        write_table(f"{prefix}_psi_tilde.csv", "y,psi_tilde", (self.y, self.psi_tilde))
        if self.transport_map is not None:
            write_table(
                f"{prefix}_map.csv",
                "x,T",
                (self.transport_map.x, self.transport_map.values),
            )


def potentials(m1, m2, rho):
    """Construct a dual pair achieving ``wasserstein(m1, m2, rho) ** rho``.

    Parameters
    ----------
    m1, m2 : measures of matching representation
        Two grid measures (continuous route: the potential is the integral of
        the signed-power displacement of the monotone map) or two atomic
        measures (staircase propagation along the monotone coupling, closed by
        the cost transform).
    rho : float
        Cost exponent, strictly greater than 1.

    Returns
    -------
    PotentialPair
        Certified on construction: the continuous route's dual value matches
        the primal within 1e-7 relative (else :class:`IntegrationError`), the
        atomic staircase its closure within 1e-9 (else
        :class:`PotentialConstructionError`).
    """
    rho = _check_rho(rho, need_gt1=True)
    if isinstance(m1, GridMeasure) and isinstance(m2, GridMeasure):
        grid = _GridDual(m1, m2, rho)
        yb = grid.target_breaks()
        w = wasserstein_power(m1, m2, rho)
        dual = -grid.integral_source() - grid.integral_target()
        if abs(w - dual) > 1e-7 * max(abs(w), 1e-9):
            raise IntegrationError(
                f"dual value {dual!r} does not match primal {w!r} within 1e-7 relative"
            )
        return PotentialPair(
            rho,
            grid.xb,
            grid.psi_b.copy(),
            yb,
            grid.psi_tilde_at(yb),
            TransportMap(grid.xb, grid.t),
            grid,
        )
    if isinstance(m1, DiscreteMeasure) and isinstance(m2, DiscreteMeasure):
        psi, psi_tilde = _staircase(
            m1.support, m1.weights[None], m2.support, m2.weights[None], rho
        )
        return PotentialPair(rho, m1.support, psi[0], m2.support, psi_tilde[0])
    raise TypeError("potentials needs both measures atomic or both grid")


def dual_value(pair, m1, m2):
    """``-integral psi dm1 - integral psi_tilde dm2``: exact through the grid
    dual, else against atomic laws at their atoms."""
    if pair._grid is not None:
        return -pair._grid.integral_source() - pair._grid.integral_target()
    if not isinstance(m1, DiscreteMeasure) or not isinstance(m2, DiscreteMeasure):
        raise TypeError("a pair without a grid dual integrates only against atomic laws")
    return -float(m1.weights @ pair.psi_at(m1.support)) - float(
        m2.weights @ pair.psi_tilde_at(m2.support)
    )


_FEASIBILITY_CHUNK = 2_000_000  # (x, y) cells per block of the feasibility scan


def feasibility_violation(pair):
    """max over tabulated (x, y) of ``-psi(x) - psi_tilde(y) - |x-y|^rho``."""
    worst = -np.inf
    n = pair.x.size
    step = max(1, _FEASIBILITY_CHUNK // max(pair.y.size, 1))
    for s in range(0, n, step):
        xs = pair.x[s : s + step, None]
        ps = pair.psi[s : s + step, None]
        v = -ps - pair.psi_tilde[None, :] - np.abs(xs - pair.y[None, :]) ** pair.rho
        worst = max(worst, float(v.max()))
    return worst


def duality_gap(pair, m1, m2):
    """Primal value minus dual value; nonnegative up to 1e-9 for a valid pair."""
    viol = feasibility_violation(pair)
    if viol > 1e-9:
        raise PotentialConstructionError(
            f"pair is dual-infeasible: constraint violated by {viol!r}"
        )
    return wasserstein_power(m1, m2, pair.rho) - dual_value(pair, m1, m2)


# ---------------------------------------------------------------------------
# moment bounds built from the potentials


def _renode(m, points):
    """The same grid measure re-tabulated on a refinement of its grid.

    Inserted points can sit within float noise of existing nodes or inside
    flat stretches of the CDF; each flat run carries no mass, so it collapses
    to a single representative (the last one for the full-mass run, keeping
    the right endpoint).
    """
    pts = np.union1d(m.grid, points)
    cdf = m.cdf_at(pts)
    cdf[0], cdf[-1] = 0.0, 1.0
    vals = np.unique(cdf)
    idx = np.searchsorted(cdf, vals, side="left")
    idx[-1] = pts.size - 1
    return GridMeasure(pts[idx], cdf[idx])


def potential_moment_bound(m1, m2, rho, eps):
    """Centered-moment bound for the dual pair against raw power moments.

    Returns ``(lhs, rhs)`` where ``lhs`` is the larger of the two generalized
    variances of order ``1 + eps`` (potential against its own law) and ``rhs``
    is ``2^(rho (1+eps)) * (moment(m1, rho(1+eps)) + moment(m2, rho(1+eps)))``.
    """
    rho = _check_rho(rho, need_gt1=True)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    pair = potentials(m1, m2, rho)
    q = 1.0 + eps
    if isinstance(m1, GridMeasure):
        mm1 = _renode(m1, pair.x)
        mm2 = _renode(m2, pair.y)
        v1 = generalized_variance(mm1, pair.psi_at(mm1.grid), q)
        v2 = generalized_variance(mm2, pair.psi_tilde_at(mm2.grid), q)
    else:
        v1 = generalized_variance(m1, pair.psi, q)
        v2 = generalized_variance(m2, pair.psi_tilde, q)
    lhs = max(v1, v2)
    p = rho * q
    rhs = 2.0**p * (moment(m1, p) + moment(m2, p))
    return lhs, rhs


@dataclass(frozen=True)
class TranslatedMapBound:
    """Exact moment of the translated monotone map with its two upper bounds."""

    lhs: float
    rhs: float
    rhs_bounded_below: float


def _phi_cumulative(u_nodes, phi_vals, u):
    """Exact integral of the piecewise-linear table from 0 to each u."""
    nodes = np.concatenate(([0.0], u_nodes, [1.0]))
    vals = np.concatenate(([phi_vals[0]], phi_vals, [phi_vals[-1]]))
    seg = 0.5 * (vals[:-1] + vals[1:]) * np.diff(nodes)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    k = np.clip(np.searchsorted(nodes, u, side="right") - 1, 0, nodes.size - 2)
    f_u = np.interp(u, nodes, vals)
    return cum[k] + 0.5 * (vals[k] + f_u) * (u - nodes[k])


def _phi_norm(u_nodes, phi_vals, p):
    """L^p norm of the tabulated function of a uniform variable."""
    if np.isinf(p):
        return float(np.max(phi_vals))
    nodes = np.concatenate(([0.0], u_nodes, [1.0]))
    vals = np.concatenate(([phi_vals[0]], phi_vals, [phi_vals[-1]]))
    total = float(np.sum(_power_integral(vals[:-1], vals[1:], np.diff(nodes), p)))
    return total ** (1.0 / p)


_HYPOTHESIS_LEVELS = 10_000  # equispaced levels where translated_map_bound checks phi_y


def translated_map_bound(m1, m2, y, q, phi_y, delta):
    """Moment bound for the monotone map evaluated at left-translated arguments.

    Parameters
    ----------
    m1, m2 : GridMeasure
        Source and target laws; the map is ``T = F2^{-1} o F1``.
    y : float
        Translation, strictly positive: the integrand is ``|T(x - y)|^q``.
    q : float
        Moment order, strictly positive.
    phi_y : (array_like, array_like)
        Tabulation ``(u_nodes, values)`` on (0,1) of a nonnegative function
        whose running integral dominates ``F1(F1^{-1}(u) + y) - u``.  Checked
        on 10 000 equispaced levels before anything is computed.
    delta : float
        Holder split parameter in ``[0, inf]``; ``delta = 0`` pairs the sup
        norm of ``|X2|^q`` with the L1 norm of ``phi_y``, ``delta = inf`` the
        reverse.

    Returns
    -------
    TranslatedMapBound
        ``lhs`` (exact integral), ``rhs`` (the Holder bound
        ``E|X2|^q + ||X2|^q|_{1+1/delta} ||phi_y(U)||_{1+delta}``), and the
        bounded-below alternative ``|F2^{-1}(0+)|^q + E|X2|^q``.

    Raises
    ------
    HypothesisError
        If the partial-integral domination fails at any checked level.
    """
    if not isinstance(m1, GridMeasure) or not isinstance(m2, GridMeasure):
        raise TypeError("translated_map_bound needs grid measures (continuous CDFs)")
    if y <= 0:
        raise ValueError("translation y must be > 0")
    if q <= 0:
        raise ValueError("moment order q must be > 0")
    u_nodes = np.asarray(phi_y[0], dtype=float)
    phi_vals = np.asarray(phi_y[1], dtype=float)
    if u_nodes.ndim != 1 or u_nodes.shape != phi_vals.shape or u_nodes.size < 1:
        raise ValueError("phi_y must be a pair of equal-length 1-d arrays")
    if np.any(u_nodes <= 0) or np.any(u_nodes >= 1) or np.any(np.diff(u_nodes) <= 0):
        raise ValueError("phi_y nodes must be strictly increasing inside (0, 1)")
    if np.any(phi_vals < 0):
        raise ValueError("phi_y must be nonnegative")
    u = np.linspace(0.0, 1.0, _HYPOTHESIS_LEVELS + 2)[1:-1]
    lhs_check = m1.cdf_at(quantile(m1, u) + y) - u
    rhs_check = _phi_cumulative(u_nodes, phi_vals, u)
    bad = lhs_check > rhs_check
    if np.any(bad):
        k = int(np.argmax(lhs_check - rhs_check))
        raise HypothesisError(
            f"partial-integral hypothesis fails at u={u[k]!r}: "
            f"{lhs_check[k]!r} > {rhs_check[k]!r}"
        )
    # exact lhs: breakpoints where T(x - y) changes slope, or the density changes
    xb1, _ = _refined_source_breaks(m1, m2)
    bx = np.union1d(m1.grid, np.clip(xb1 + y, m1.grid[0], m1.grid[-1]))
    t_lo = m2.grid[0]
    t_at = lambda z: np.where(  # noqa: E731 - tiny local closure
        z <= m1.grid[0],
        t_lo,
        np.interp(m1.cdf_at(z), m2.cdf_values, m2.grid),
    )
    lo, hi = bx[:-1], bx[1:]
    v_lo = t_at(lo - y)
    v_hi = t_at(hi - y)
    dens = m1.densities()
    cell = np.clip(np.searchsorted(m1.grid, 0.5 * (lo + hi), side="right") - 1, 0, dens.size - 1)
    lhs = float(np.sum(dens[cell] * _power_integral(v_lo, v_hi, hi - lo, q)))
    # Holder bound
    m_q = moment(m2, q)
    delta = float(delta)
    if delta < 0:
        raise ValueError("delta must be in [0, inf]")
    if delta == 0.0:
        norm_x = max(abs(m2.grid[0]), abs(m2.grid[-1])) ** q
        norm_phi = _phi_norm(u_nodes, phi_vals, 1.0)
    elif np.isinf(delta):
        norm_x = m_q
        norm_phi = _phi_norm(u_nodes, phi_vals, np.inf)
    else:
        p = 1.0 + 1.0 / delta
        norm_x = moment(m2, q * p) ** (1.0 / p)
        norm_phi = _phi_norm(u_nodes, phi_vals, 1.0 + delta)
    rhs = m_q + norm_x * norm_phi
    rhs_bb = abs(m2.grid[0]) ** q + m_q
    return TranslatedMapBound(lhs, rhs, rhs_bb)
