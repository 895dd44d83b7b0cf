"""Independent reference computations used to pin expected test values.

Everything here is deliberately naive: linear programming over the full
coupling polytope, dense quadrature, direct summation, the speed-mu chain
built row by row over the whole grid, drift flows integrated by RK4, the
birth-death constants scanned over a million integers, the quantile-merge
transport cost with its own flatness rule for the segment integral, the
same cost merged in exact rational arithmetic, the rate-ordered merge
derivative on whole state vectors, the symmetric jump band of the speed-mu
chain, the atomic dual staircase walked one atom at a time, and the
evolution identity's candidate built from one dual pair per node, the
Poisson clock window of one node from its own Fox-Glynn recursion, kernel
draws by one searchsorted per distinct row, and lockstep thinning at one
global bound, the propagation audit's tail ratios probed one point at a
time, and the Dvoretzky-Kiefer-Wolfowitz check of a sampled law against an
exact one.  The
package under test must agree with these to tight tolerances on small
instances (the chain build, the constants and the atomic transport cost
exactly).
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize, sparse

from wflow.birth_death import _cost_difference_ratio, _moment_rate_ratio
from wflow.evolution import apply_generator
from wflow.jump_process import JumpGeneratorSpec
from wflow.measures import CoverageError, _signed_power
from wflow.pdmp import MuApproximation, flow
from wflow.transport import (
    IntegrationError,
    PotentialConstructionError,
    _check_rho,
    _cost_transform,
    _quantile_breaks,
    _quantile_on_segments,
)


def lp_coupling_cost(x, wx, y, wy, rho):
    """Exact optimal coupling cost by LP over all couplings of two atomics."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    n, m = x.size, y.size
    cost = (np.abs(x[:, None] - y[None, :]) ** rho).ravel()
    a_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    b_eq = np.concatenate([wx / wx.sum(), wy / wy.sum()])
    res = optimize.linprog(cost, A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def quantile_riemann_cost(q1, q2, rho, n=200_001):
    """Midpoint Riemann sum of |q1(u) - q2(u)|^rho over (0, 1)."""
    u = (np.arange(n) + 0.5) / n
    return float(np.mean(np.abs(q1(u) - q2(u)) ** rho))


def quad_moment(density, lo, hi, q):
    """Adaptive quadrature of |x|^q against a density on [lo, hi]."""
    val, err = integrate.quad(lambda t: np.abs(t) ** q * density(t), lo, hi, limit=400)
    assert err < 1e-9
    return val


def quad_mean(density, lo, hi, phi):
    val, err = integrate.quad(lambda t: phi(t) * density(t), lo, hi, limit=400)
    assert err < 1e-9
    return val


def mu_generator_rowloop(spec, mu, state_grid):
    """Speed-``mu`` chain built row by row over the full grid.

    Each row evaluates the jump CDF at every cell midpoint and accumulates
    flow and jump masses in a dense scratch row; ``pdmp.mu_generator`` must
    return exactly the same kernel, intensities and diagnostics.
    """
    if mu < 1.0:
        raise ValueError("mu must be at least 1")
    grid = np.asarray(state_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("state grid must be strictly increasing, length >= 2")
    n = grid.size
    targets = flow(spec, grid, 1.0 / mu)
    half_lo = 0.5 * (grid[1] - grid[0])
    half_hi = 0.5 * (grid[-1] - grid[-2])
    if np.any(targets < grid[0] - half_lo) or np.any(targets > grid[-1] + half_hi):
        worst = targets[np.argmax(np.abs(targets - np.clip(targets, grid[0], grid[-1])))]
        raise CoverageError(
            f"flow target {float(worst)!r} escapes the grid cell coverage"
        )
    clipped = np.clip(targets, grid[0], grid[-1])
    j = np.clip(np.searchsorted(grid, clipped, side="right") - 1, 0, n - 2)
    theta = (clipped - grid[j]) / (grid[j + 1] - grid[j])
    lam = np.asarray(spec.intensity(grid), dtype=float)
    if np.any(lam < 0) or np.any(lam > spec.intensity_bound + 1e-12):
        raise ValueError("intensity leaves [0, bound] on the state grid")
    total = mu + lam
    mids = 0.5 * (grid[1:] + grid[:-1])
    indptr = [0]
    indices = []
    data = []
    out_lam = np.empty(n)
    self_mass = np.empty(n)
    leak = 0.0
    row = np.zeros(n)
    for i in range(n):
        touched = [j[i], j[i] + 1]
        w_flow = mu / total[i]
        row[j[i]] += w_flow * (1.0 - theta[i])
        row[j[i] + 1] += w_flow * theta[i]
        if lam[i] > 0.0:
            cdf_mid = np.asarray(spec.kernel.cdf(grid[i], mids), dtype=float)
            cell = np.empty(n)
            cell[0] = cdf_mid[0]
            cell[1:-1] = np.diff(cdf_mid)
            cell[-1] = 1.0 - cdf_mid[-1]
            lo_out = float(spec.kernel.cdf(grid[i], np.array([grid[0] - half_lo]))[0])
            hi_out = 1.0 - float(
                spec.kernel.cdf(grid[i], np.array([grid[-1] + half_hi]))[0]
            )
            leak = max(leak, lo_out, hi_out)
            nz = np.nonzero(cell)[0]
            row[nz] += (lam[i] / total[i]) * cell[nz]
            touched.extend(nz.tolist())
        s_mass = row[i]
        self_mass[i] = s_mass
        keep = 1.0 - s_mass
        if keep <= 1e-9:
            # everything returned to the start node: a frozen state
            for k in set(touched):
                row[k] = 0.0
            indices.append(i)
            data.append(1.0)
            out_lam[i] = 0.0
            indptr.append(len(indices))
            continue
        row[i] = 0.0
        cols = sorted(set(touched) - {i})
        for k in cols:
            if row[k] != 0.0:
                indices.append(k)
                data.append(row[k] / keep)
            row[k] = 0.0
        out_lam[i] = total[i] * keep
        indptr.append(len(indices))
    kernel = sparse.csr_matrix(
        (np.asarray(data), np.asarray(indices), np.asarray(indptr)), shape=(n, n)
    )
    gen = JumpGeneratorSpec(grid, out_lam, kernel)
    return MuApproximation(
        float(mu), gen, grid, targets, total, self_mass, float(leak)
    )


def _rk4(v_field, x, s, n):
    h = s / n
    x = np.array(x, dtype=float, copy=True)
    for _ in range(n):
        k1 = v_field(x)
        k2 = v_field(x + 0.5 * h * k1)
        k3 = v_field(x + 0.5 * h * k2)
        k4 = v_field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def flow_rk4(spec, x, s):
    """Drift flow by adaptive RK4, the integrator ``pdmp.flow`` replaced.

    Classical fourth-order integration with an initial step from the local
    Lipschitz estimate of the field, halved until two consecutive
    refinements agree to 1e-10 relatively.  ``s`` may be an array matched
    to ``x`` (per-state horizons); the shared step count is then sized
    from the largest horizon.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    s_arr = np.broadcast_to(np.asarray(s, dtype=float), x_arr.shape)
    s_max = float(np.max(np.abs(s_arr))) if s_arr.size else 0.0
    if s_max == 0.0 or x_arr.size == 0:
        out = x_arr.copy()
        return float(out[0]) if scalar else out
    reach = s_max * spec.drift_bound + 1.0
    zs = np.linspace(x_arr.min() - reach, x_arr.max() + reach, 513)
    vz = np.asarray(spec.drift(zs), dtype=float)
    lip = float(np.max(np.abs(np.diff(vz) / np.diff(zs))))
    h0 = min(s_max / 16.0, 1.0 / (8.0 * (1.0 + lip)))
    n = max(16, int(math.ceil(s_max / h0)))
    prev = _rk4(spec.drift, x_arr, s_arr, n)
    for _ in range(20):
        n *= 2
        cur = _rk4(spec.drift, x_arr, s_arr, n)
        if np.max(np.abs(cur - prev)) <= 1e-10 * (1.0 + np.max(np.abs(cur))):
            return float(cur[0]) if scalar else cur
        prev = cur
    raise IntegrationError("flow step controller failed to converge")


_SCAN_CHUNK = 1 << 16


def _scan_max(f, rho, lo, hi):
    """Max of the elementwise ``f(x, rho)`` over the integers lo..hi, in fixed chunks.

    The max is exact whatever the chunking (a NaN still propagates), and
    memory stays at one chunk; an empty range gives -inf.
    """
    peaks = [
        np.max(f(np.arange(s, min(s + _SCAN_CHUNK, hi + 1), dtype=float), rho))
        for s in range(lo, hi + 1, _SCAN_CHUNK)
    ]
    return float(np.max(peaks, initial=-np.inf))


def scan_moment_rate_constant(rho, scan_top=1_000_000):
    """``birth_death.moment_rate_constant`` as a scan of x = 1..scan_top.

    The scan is combined with the limit ``rho`` of the ratio; nothing bounds
    the ratio beyond ``scan_top``.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    return float(max(_scan_max(_moment_rate_ratio, rho, 1, scan_top), rho))


def scan_cost_difference_constant(rho, scan_top=1_000_000):
    """``birth_death.cost_difference_constant`` as a scan of |z| <= scan_top.

    0 at rho = 1 and 1 on (1, 2]; above 2 the scan is combined with the limit
    ``rho (rho-1) / 2``, and nothing bounds the ratio beyond ``scan_top``.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if rho == 1.0:
        return 0.0
    if rho <= 2.0:
        return 1.0
    scanned = _scan_max(_cost_difference_ratio, rho, -scan_top, scan_top)
    return float(max(scanned, 0.5 * rho * (rho - 1.0)))


def merged_wasserstein_power(m1, m2, rho):
    """``transport.wasserstein_power`` with its own copy of the segment integral.

    Both the midpoint and the quotient form are evaluated on every merged
    segment, and ``np.where`` keeps the midpoint where the two ends differ by
    at most 1e-12 of their summed magnitude.
    """
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


def staircase_loop(m1, m2, rho):
    """``transport._staircase`` as the per-atom walk it replaced.

    One Python step per atom along the monotone coupling, with the same
    1e-9 closure check by the cost transform; returns ``(psi, psi_tilde)``.
    """
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
    scale = 1.0 + float(np.max(np.abs(psit)))
    gap = np.abs(closed - psit)
    worst = int(np.argmax(gap))
    if not gap[worst] <= 1e-9 * scale:  # a NaN gap or scale fails closed
        raise PotentialConstructionError(
            "staircase propagation is dual-infeasible near "
            f"y={y[worst]!r} (transform correction {gap[worst]!r})"
        )
    return psi, closed


def exact_merge_power(x, wx, y, wy, rho):
    """``W_rho^rho`` between the weights ``wx`` on ``x`` and ``wy`` on ``y``,
    merged in exact rational arithmetic.

    The float weights (zeros allowed) are read as exact fractions, so every
    cumulative level and every gap between merged levels is exact; only the
    cost ``|x_i - y_j|^rho`` of a non-integer ``rho`` is a rounded float.
    """
    fx = [Fraction(float(w)) for w in wx]
    fy = [Fraction(float(w)) for w in wy]
    cum_x = np.cumsum(np.array(fx, dtype=object)) / sum(fx)
    cum_y = np.cumsum(np.array(fy, dtype=object)) / sum(fy)
    cum_x, cum_y = list(cum_x), list(cum_y)
    breaks = sorted(set(cum_x) | set(cum_y) | {Fraction(0)})
    total = Fraction(0)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        # the quantile on (lo, hi]: the first state whose level passes lo
        i = bisect.bisect_right(cum_x, lo)
        j = bisect.bisect_right(cum_y, lo)
        gap = abs(Fraction(float(x[i])) - Fraction(float(y[j])))
        cost = gap ** int(rho) if float(rho).is_integer() else Fraction(float(gap) ** rho)
        total += cost * (hi - lo)
    return float(total)


def merge_derivative(sX, sY, vX, vY, rX, rY, rho):
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


def jump_cells_symmetric(kernel, grid, nodes, bound, chunk=1 << 14):
    """``pdmp._jump_cells`` on the symmetric band ``[x - bound, x + bound]``.

    The band that ``mu_generator`` used before jump laws carried their
    support: every node reads the jump CDF within ``bound`` on both sides,
    widened by two cells a side, with the same exact 0/1 edge check.
    """
    n = grid.size
    if nodes.size == 0:
        return nodes, nodes, np.empty(0)
    mids = 0.5 * (grid[1:] + grid[:-1])
    padded = np.concatenate([mids[:1], mids, mids[-1:]])
    x = grid[nodes]
    lo = np.maximum(np.searchsorted(mids, x - bound, side="left") - 3, -1)
    hi = np.minimum(np.searchsorted(mids, x + bound, side="right") + 2, n - 1)
    width = int(np.max(hi - lo)) + 1
    start = np.minimum(lo, n - width)
    offsets = np.arange(width)
    step = max(1, chunk // width)
    rows, cols, vals = [], [], []
    for s in range(0, nodes.size, step):
        part = slice(s, s + step)
        first = start[part]
        g = np.array(
            kernel.cdf(x[part, None], padded[first[:, None] + offsets + 1]), dtype=float
        )
        g[first == -1, 0] = 0.0
        g[first == n - width, -1] = 1.0
        k = np.arange(first.size)
        bad = (g[k, lo[part] - first] != 0.0) | (g[k, hi[part] - first] != 1.0)
        if np.any(bad):
            raise ValueError(f"jump law of node {int(nodes[part][np.argmax(bad)])} overreaches")
        cell = np.diff(g, axis=1).ravel()
        hit = np.flatnonzero(cell)
        r, c = np.divmod(hit, width - 1)
        rows.append(nodes[part][r])
        cols.append(first[r] + 1 + c)
        vals.append(cell[hit])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def integrand_from_pair(genX, genY, vX, vY, rX, rY, pair):
    """Candidate derivative and the diagnostic generator moment of one node.

    ``vX``, ``vY`` are the node's laws on every state and ``rX``, ``rY``
    their rates ``L^T v``; ``pair`` is the node's :class:`PotentialPair`.
    Returns ``(-integral L psi dP - integral L~ psi~ dP~, L psi tabulated)``.
    Each potential is read through the pair's closure only on its law's
    support and one-jump targets (``v > 0`` or ``rate != 0``), as
    ``evolution.verify_identity`` reads it a block of nodes at a time.
    """
    value, applied = 0.0, []
    for gen, v, rate, psi_at in ((genX, vX, rX, pair.psi_at), (genY, vY, rY, pair.psi_tilde_at)):
        reach = (v > 0.0) | (rate != 0.0)
        psi = np.zeros(gen.n_states)
        psi[reach] = psi_at(gen.states[reach])
        applied.append(apply_generator(gen, psi))
        value -= float(np.dot(v, applied[-1]))
    return value, applied[0]


def clock_window_per_node(mu, budget):
    """One node's clock window ``(pmf[m_min..m_max], m_min, m_max, tail)``.

    The Fox-Glynn recursion (CACM 31, 1988) of a single clock mean ``mu``,
    from the mode over ``mode +/- (40 sqrt(mu) + 60)`` cut at 0, normalized
    by its window sum: ``m_max`` is the first tick whose upper tail drops
    below ``budget``, and ``m_min`` the largest lower cut whose tail, added
    to the upper one, stays below ``budget``.  ``mu <= 0`` is the point mass
    at 0.
    """
    if mu <= 0.0:
        return np.ones(1), 0, 0, 0.0
    mode = int(mu)
    width = int(40.0 * math.sqrt(mu) + 60.0)
    lo = max(mode - width, 0)
    up = np.cumprod(mu / np.arange(mode + 1, mode + width + 1))
    down = np.cumprod(np.arange(mode, lo, -1) / mu)[::-1]
    ratio = np.concatenate([down, [1.0], up])
    pmf = ratio / ratio.sum()
    tails = np.zeros(pmf.size)
    tails[:-1] = np.cumsum(pmf[:0:-1])[::-1]
    end = int(np.argmax(tails < budget))
    below = np.cumsum(pmf[:end]) + tails[end]
    cut = int(np.searchsorted(below, budget))
    tail = below[cut - 1] if cut else tails[end]
    return pmf[cut : end + 1], lo + cut, lo + end, float(tail)


def kernel_draw_per_row(kernel, i, u):
    """Inverse-CDF draws from the rows ``i`` of a CSR ``kernel``, row by row.

    Each distinct row takes the cumulative sum of its stored entries, pinned
    to 1.0 at the last one, and one ``searchsorted(side="right")`` of its
    paths' uniforms ``u``.
    """
    order = np.argsort(i, kind="stable")
    rows, first = np.unique(i[order], return_index=True)
    out = np.empty_like(i)
    for r, sel in zip(rows, np.split(order, first[1:])):
        lo, hi = kernel.indptr[r], kernel.indptr[r + 1]
        cum = np.cumsum(kernel.data[lo:hi])
        cum[-1] = 1.0
        out[sel] = kernel.indices[lo:hi][np.searchsorted(cum, u[sel], side="right")]
    return out


def thinning_at_bound(start, cum0, t, rate, n_paths, seed, event, jump, advance=None):
    """Lockstep thinning with every candidate at the one scalar ``rate``.

    The arguments and the order of the draws are those of
    ``jump_process._thinning``, except that ``rate`` is a number: each round
    draws ``rng.exponential(1 / rate, size)`` gaps for all live paths, and a
    path stops only at its first candidate not before ``t``.
    """
    rng = np.random.default_rng(seed)
    u0 = rng.random(n_paths)
    x = start[np.minimum(np.searchsorted(cum0, u0, side="right"), start.size - 1)]
    x0 = x.copy()
    n_jumps = np.zeros(n_paths, dtype=np.int64)
    elapsed = np.zeros(n_paths)
    if rate > 0.0 and t > 0.0:
        live = np.arange(n_paths)
        while live.size:
            tau = rng.exponential(1.0 / rate, live.size)
            keep = elapsed[live] + tau < t
            live = live[keep]
            if not live.size:
                break
            tau = tau[keep]
            elapsed[live] += tau
            x_live = x[live] if advance is None else advance(x[live], tau)
            x_live, jumps = event(x_live, rng.random(live.size))
            x[live] = x_live
            hit = live[jumps]
            if hit.size:
                x[hit] = jump(x[hit], rng.random(hit.size))
                n_jumps[hit] += 1
    if advance is not None:
        x = advance(x, t - elapsed)
    return x0, x, n_jumps


def tail_ratio_per_probe(emp_s, c_t, C0, n_paths):
    """The worst tail ratio over its cap ``c_t exp(C0 y)``, one probe at a time.

    ``emp_s`` is the endpoint law of ``n_paths`` simulated paths.  At each
    empirical quantile 0.05, 0.15, ..., 0.95 and each shift y of 0.25, 0.5, 1
    and 2, the CDF ratio ``F(x + y) / F(x)`` and the survival ratio
    ``S(x - y) / S(x)`` are read by one-element ``cdf_at`` calls, and a side
    is skipped where its denominator carries fewer than 25 paths.
    """
    cum = np.cumsum(emp_s.weights)
    total = cum[-1]
    floor = 25.0 / n_paths

    def cdf_at(pts):
        j = np.searchsorted(emp_s.support, pts, side="right")
        return np.where(j > 0, cum[np.maximum(j - 1, 0)], 0.0)

    worst = 0.0
    for uq in np.linspace(0.05, 0.95, 10):
        k = int(np.searchsorted(cum, uq * total))
        xq = float(emp_s.support[min(k, emp_s.support.size - 1)])
        f_x = float(cdf_at(np.array([xq]))[0])
        s_x = total - float(cdf_at(np.array([xq - 1e-12]))[0])
        for y in np.array([0.25, 0.5, 1.0, 2.0]):
            cap = c_t * math.exp(C0 * y)
            if f_x >= floor:
                ratio = float(cdf_at(np.array([xq + y]))[0]) / f_x
                worst = max(worst, ratio / cap)
            if s_x >= floor:
                sf_up = total - float(cdf_at(np.array([xq - y - 1e-12]))[0])
                worst = max(worst, (sf_up / s_x) / cap)
    return worst


def cdf_gap(states, probs, emp):
    """``sup |F_n - F|`` of the empirical law ``emp`` against the exact law
    ``probs`` on ``states``; an atom of ``emp`` off ``states`` fails."""
    at = np.searchsorted(states, emp.support)
    assert np.all(at < states.size) and np.array_equal(states[at], emp.support)
    counts = np.zeros(states.size)
    counts[at] = emp.weights
    return float(np.max(np.abs(np.cumsum(counts) - np.cumsum(probs))))


def dkw_radius(n, alpha=1e-7):
    """Dvoretzky-Kiefer-Wolfowitz radius: ``P(sup|F_n - F| > eps) <= alpha``."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
