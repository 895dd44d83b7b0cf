"""Exact one-dimensional optimal transport: distances, maps, dual potentials.

For laws on the line with power cost ``|x - y|^rho`` (``rho >= 1``) the optimal
coupling is the quantile coupling, so every quantity here reduces to piecewise
integrals of power functions which are evaluated in closed form:

* ``wasserstein`` merges the quantile breakpoints of the two laws and sums the
  exact segment integrals.
* ``optimal_map`` composes the target quantile function with the source CDF.
* ``potentials`` produces a dual pair achieving the primal value, either by
  integrating the signed-power displacement along the source axis (continuous
  CDFs) or by propagating the dual equality along the monotone coupling's
  staircase (atomic laws), closed by the cost transform.

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
    _abs_power_segment_integral,
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
    rho = float(rho)
    if rho < 1.0:
        raise ValueError(f"cost exponent rho must be >= 1, got {rho!r}")
    if need_gt1 and rho == 1.0:
        raise ValueError("dual potentials are only constructed for rho > 1")
    return rho


# ---------------------------------------------------------------------------
# quantile-function pieces and the merged exact integral


def _quantile_breaks(m):
    """(u_breaks, kind, data) describing the quantile function on (0, 1)."""
    if isinstance(m, DiscreteMeasure):
        cum = np.cumsum(m.weights) / m.total_mass
        cum[-1] = 1.0
        return np.concatenate(([0.0], cum)), "step", m.support
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
    d_lo = q1_lo - q2_lo
    d_hi = q1_hi - q2_hi
    length = hi - lo
    spread = np.abs(d_hi - d_lo)
    scale = np.abs(d_lo) + np.abs(d_hi)
    const = spread <= 1e-12 * np.maximum(scale, 1e-300)
    out = np.where(
        const,
        length * np.abs(0.5 * (d_lo + d_hi)) ** rho,
        length
        * (_signed_power(d_hi, rho + 1.0) - _signed_power(d_lo, rho + 1.0))
        / ((rho + 1.0) * np.where(const, 1.0, d_hi - d_lo)),
    )
    return float(np.sum(out))


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


class _GridDual:
    """Exact evaluator for the dual pair of two grid measures."""

    def __init__(self, m1, m2, rho):
        self.rho = rho
        self.m1 = m1
        self.m2 = m2
        xb, t = _refined_source_breaks(m1, m2)
        self.xb = xb
        self.t = t
        g_lo = t[:-1] - xb[:-1]
        g_hi = t[1:] - xb[1:]
        dx = np.diff(xb)
        b = (g_hi - g_lo) / dx
        a = g_lo - b * xb[:-1]
        flat = np.abs(g_hi - g_lo) <= 1e-12 * np.maximum(np.abs(g_lo) + np.abs(g_hi), 1e-300)
        b = np.where(flat, 0.0, b)
        a = np.where(flat, 0.5 * (g_lo + g_hi), a)
        self.a, self.b, self.flat = a, b, flat
        inc = np.where(
            flat,
            rho * _signed_power(0.5 * (g_lo + g_hi), rho - 1.0) * dx,
            (np.abs(g_hi) ** rho - np.abs(g_lo) ** rho) / np.where(flat, 1.0, b),
        )
        self.psi_b = np.concatenate(([0.0], np.cumsum(inc)))
        self.g_lo, self.g_hi = g_lo, g_hi

    def _piece_of(self, x):
        return np.clip(np.searchsorted(self.xb, x, side="right") - 1, 0, self.xb.size - 2)

    def psi_at(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, self.xb[0], self.xb[-1])
        k = self._piece_of(xc)
        a, b, flat = self.a[k], self.b[k], self.flat[k]
        gl = self.g_lo[k]
        z = a + b * xc
        out = np.where(
            flat,
            self.psi_b[k] + self.rho * _signed_power(a, self.rho - 1.0) * (xc - self.xb[k]),
            self.psi_b[k]
            + (np.abs(z) ** self.rho - np.abs(gl) ** self.rho) / np.where(flat, 1.0, b),
        )
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
        cell = np.clip(
            np.searchsorted(self.m1.grid, 0.5 * (self.xb[:-1] + self.xb[1:]), side="right") - 1,
            0,
            dens.size - 1,
        )
        lo, hi = self.xb[:-1], self.xb[1:]
        dxp = hi - lo
        power_int = _abs_power_segment_integral(self.a, self.b, lo, hi, self.rho)
        glp = np.abs(self.g_lo) ** self.rho
        smooth = self.psi_b[:-1] * dxp + (power_int - glp * dxp) / np.where(self.flat, 1.0, self.b)
        s = self.rho * _signed_power(self.a, self.rho - 1.0)
        flatpart = self.psi_b[:-1] * dxp + s * 0.5 * dxp * dxp
        parts = np.where(self.flat, flatpart, smooth)
        return float(np.sum(dens[cell] * parts))

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
        tb = self.map_back(yb)
        delta = (tb[1:] - tb[:-1]) / dy
        gamma = tb[:-1] - delta * lo
        k = self._piece_of(0.5 * (tb[:-1] + tb[1:]))
        a, b, flat = self.a[k], self.b[k], self.flat[k]
        # integral of psi(T~(y)) over the piece
        lin_base = self.psi_b[k] - self.rho * _signed_power(a, self.rho - 1.0) * self.xb[k]
        lin_slope = self.rho * _signed_power(a, self.rho - 1.0)
        mean_tb = 0.5 * (tb[:-1] + tb[1:])
        int_flat = lin_base * dy + lin_slope * mean_tb * dy
        c0 = self.psi_b[k] - np.abs(self.g_lo[k]) ** self.rho / np.where(flat, 1.0, b)
        int_pow = _abs_power_segment_integral(a + b * gamma, b * delta, lo, hi, self.rho)
        int_smooth = c0 * dy + int_pow / np.where(flat, 1.0, b)
        int_psi_t = np.where(flat, int_flat, int_smooth)
        # integral of |T~(y) - y|^rho over the piece
        int_disp = _abs_power_segment_integral(gamma, delta - 1.0, lo, hi, self.rho)
        return float(np.sum(dens[cell] * (-int_psi_t - int_disp)))


# ---------------------------------------------------------------------------
# dual potentials, atomic route


def _clip_path_increment(x_lo, x_hi, y_lo, y_hi, rho):
    """Potential increment across a zero-mass gap at a tied cumulative level.

    Crossing the gap (x_lo, x_hi) while the target level jumps from y_lo to
    y_hi, the displacement follows the limit map clip(x, y_lo, y_hi): constant
    y_lo, then the identity, then constant y_hi.  Integrating the signed-power
    displacement derivative over the three parts gives the increment; the
    identity part contributes nothing.
    """
    t1 = min(max(y_lo, x_lo), x_hi)
    t2 = min(max(y_hi, x_lo), x_hi)
    lead = abs(y_lo - x_lo) ** rho - abs(y_lo - t1) ** rho
    trail = abs(y_hi - t2) ** rho - abs(y_hi - x_hi) ** rho
    return lead + trail


def _cost_transform(xs, vals, ys, rho):
    """min_i |xs_i - ys_j|^rho + vals_i for every j (exact), ``xs`` sorted.

    For rho >= 1 the cost is a Monge array: leftmost argmins never decrease in
    y (Gangbo & McCann 1996; Aggarwal et al. 1987).  A dense pass takes them at
    every ceil(sqrt(m))-th sorted query, and each block of queries between two
    anchors scans only the table window that the anchors' argmins bracket.
    """
    m = ys.size
    if m == 0:
        return np.empty(0)
    order = np.argsort(ys, kind="stable")
    q = ys[order]
    best = np.empty(m)
    anchors = np.append(np.arange(0, m - 1, math.isqrt(m - 1) + 1), m - 1)
    cost = np.abs(xs[:, None] - q[anchors]) ** rho + vals[:, None]
    arg = np.argmin(cost, axis=0)
    best[anchors] = cost[arg, np.arange(anchors.size)]
    for a, b, lo, hi in zip(anchors[:-1] + 1, anchors[1:], arg[:-1], arg[1:]):
        # a non-finite query breaks the argmin order: scan to the table's end
        w = slice(lo, hi + 1 if hi >= lo else xs.size)
        best[a:b] = np.min(np.abs(xs[w, None] - q[a:b]) ** rho + vals[w, None], axis=0)
    return best[np.argsort(order)]


class _AtomicDual:
    def __init__(self, m1, m2, rho, validate=True):
        self.rho = rho
        x, y = m1.support, m2.support
        n1, n2 = x.size, y.size
        cum1 = np.cumsum(m1.weights) / m1.total_mass
        cum2 = np.cumsum(m2.weights) / m2.total_mass
        psi = np.zeros(n1)
        psit = np.zeros(n2)
        psit[0] = -np.abs(x[0] - y[0]) ** rho
        i = j = 0
        while i < n1 - 1 or j < n2 - 1:
            at_x_end = i == n1 - 1
            at_y_end = j == n2 - 1
            if not at_x_end and (at_y_end or cum1[i] < cum2[j]):
                i += 1
                psi[i] = -psit[j] - np.abs(x[i] - y[j]) ** rho
            elif not at_y_end and (at_x_end or cum2[j] < cum1[i]):
                j += 1
                psit[j] = -psi[i] - np.abs(x[i] - y[j]) ** rho
            else:
                # tied cumulative masses: both sides jump at the same level
                inc = _clip_path_increment(x[i], x[i + 1], y[j], y[j + 1], rho)
                i += 1
                j += 1
                psi[i] = psi[i - 1] + inc
                psit[j] = -psi[i] - np.abs(x[i] - y[j]) ** rho
        closed = -_cost_transform(x, psi, y, rho)
        if validate:
            scale = 1.0 + float(np.max(np.abs(psit)))
            gap = np.abs(closed - psit)
            worst = int(np.argmax(gap))
            if gap[worst] > 1e-9 * scale:
                raise PotentialConstructionError(
                    "staircase propagation is dual-infeasible near "
                    f"y={y[worst]!r} (transform correction {gap[worst]!r})"
                )
        self.x, self.y = x, y
        self.psi, self.psit = psi, closed

    def _closure(self, table, values, other, other_values, q):
        """``values`` where ``q`` hits ``table``, else the other side's cost transform."""
        q = np.asarray(q, dtype=float)
        flat = np.atleast_1d(q)
        k = np.minimum(np.searchsorted(table, flat), table.size - 1)
        hit = table[k] == flat
        out = np.where(hit, values[k], 0.0)
        out[~hit] = -_cost_transform(other, other_values, flat[~hit], self.rho)
        return out if q.ndim else float(out[0])

    def psi_at(self, q):
        return self._closure(self.x, self.psi, self.y, self.psit, q)

    def psi_tilde_at(self, q):
        return self._closure(self.y, self.psit, self.x, self.psi, q)


# ---------------------------------------------------------------------------
# the public dual pair


@dataclass
class PotentialPair:
    """Kantorovich dual pair for ``|x-y|^rho`` cost, tabulated on both sides.

    ``psi_at``/``psi_tilde_at`` evaluate off the tabulation: exactly for grid
    measures, by cost transform for atomic ones.  ``transport_map`` is present
    only for the continuous-CDF route.
    """

    rho: float
    x: np.ndarray
    psi: np.ndarray
    y: np.ndarray
    psi_tilde: np.ndarray
    transport_map: TransportMap | None = None
    _impl: object = field(default=None, repr=False)

    def psi_at(self, q):
        if self._impl is None:
            return np.interp(q, self.x, self.psi)
        return self._impl.psi_at(q)

    def psi_tilde_at(self, q):
        if self._impl is None:
            return np.interp(q, self.y, self.psi_tilde)
        return self._impl.psi_tilde_at(q)

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


def potentials(m1, m2, rho, validate=True):
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
    validate : bool, optional
        Check the construction's internal duality/feasibility certificates.

    Returns
    -------
    PotentialPair
    """
    rho = _check_rho(rho, need_gt1=True)
    if isinstance(m1, GridMeasure) and isinstance(m2, GridMeasure):
        impl = _GridDual(m1, m2, rho)
        yb = impl.target_breaks()
        pair = PotentialPair(
            rho,
            impl.xb,
            impl.psi_b.copy(),
            yb,
            impl.psi_tilde_at(yb),
            TransportMap(impl.xb, impl.t),
            impl,
        )
        if validate:
            w = wasserstein_power(m1, m2, rho)
            dual = -impl.integral_source() - impl.integral_target()
            if abs(w - dual) > 1e-7 * max(abs(w), 1e-9):
                raise IntegrationError(
                    f"dual value {dual!r} does not match primal {w!r} within 1e-7 relative"
                )
        return pair
    if isinstance(m1, DiscreteMeasure) and isinstance(m2, DiscreteMeasure):
        impl = _AtomicDual(m1, m2, rho, validate=validate)
        return PotentialPair(rho, impl.x, impl.psi, impl.y, impl.psit, None, impl)
    raise TypeError("potentials needs both measures atomic or both grid")


def _integrate_tabulated(m, xs, vals):
    """Integral against ``m`` of the piecewise-linear table ``(xs, vals)``."""
    if isinstance(m, DiscreteMeasure):
        if xs.shape == m.support.shape and np.array_equal(xs, m.support):
            return float(m.weights @ vals)
        return float(m.weights @ np.interp(m.support, xs, vals))
    dens = m.densities()
    pts = np.union1d(m.grid, xs[(xs > m.grid[0]) & (xs < m.grid[-1])])
    v = np.interp(pts, xs, vals)
    cell = np.clip(
        np.searchsorted(m.grid, 0.5 * (pts[:-1] + pts[1:]), side="right") - 1, 0, dens.size - 1
    )
    seg = 0.5 * (v[:-1] + v[1:]) * np.diff(pts)
    return float(np.sum(dens[cell] * seg))


def dual_value(pair, m1, m2):
    """``-integral psi dm1 - integral psi_tilde dm2`` for the tabulated pair."""
    if isinstance(pair._impl, _GridDual):
        return -pair._impl.integral_source() - pair._impl.integral_target()
    return -_integrate_tabulated(m1, pair.x, pair.psi) - _integrate_tabulated(
        m2, pair.y, pair.psi_tilde
    )


def feasibility_violation(pair, chunk=2_000_000):
    """max over tabulated (x, y) of ``-psi(x) - psi_tilde(y) - |x-y|^rho``."""
    worst = -np.inf
    n = pair.x.size
    step = max(1, chunk // max(pair.y.size, 1))
    for s in range(0, n, step):
        xs = pair.x[s : s + step, None]
        ps = pair.psi[s : s + step, None]
        v = -ps - pair.psi_tilde[None, :] - np.abs(xs - pair.y[None, :]) ** pair.rho
        worst = max(worst, float(v.max()))
    return worst


def duality_gap(pair, m1, m2, rho=None):
    """Primal value minus dual value; nonnegative up to 1e-9 for a valid pair."""
    if rho is not None and float(rho) != pair.rho:
        raise ValueError(f"rho {rho!r} does not match the pair's exponent {pair.rho!r}")
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
    lo, hi = nodes[:-1], nodes[1:]
    width = hi - lo
    slope = np.where(width > 0, (vals[1:] - vals[:-1]) / np.where(width > 0, width, 1.0), 0.0)
    a = vals[:-1] - slope * lo
    total = float(np.sum(_abs_power_segment_integral(a, slope, lo, hi, p)))
    return total ** (1.0 / p)


def translated_map_bound(m1, m2, y, q, phi_y, delta, n_check=10_000):
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
        on ``n_check`` equispaced levels before anything is computed.
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
    u = np.linspace(0.0, 1.0, n_check + 2)[1:-1]
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
    width = hi - lo
    slope = np.where(width > 0, (v_hi - v_lo) / np.where(width > 0, width, 1.0), 0.0)
    a = v_lo - slope * lo
    lhs = float(np.sum(dens[cell] * _abs_power_segment_integral(a, slope, lo, hi, q)))
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
