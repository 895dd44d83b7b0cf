"""Birth-death chains: curvature, contraction certificates, moment bounds.

A birth-death process moves up at rate ``eta(x)`` and down at rate ``nu(x)``.
Its Wasserstein curvature ``kappa = inf_x (eta(x) + nu(x+1) - eta(x+1)
- nu(x))`` governs exponential contraction of transport distances between two
copies started from different laws: the first-order distance contracts at
rate ``kappa`` exactly, and for powers in (1, 2] a closed-form envelope with
the rate Lipschitz constants certifies the decay.  Higher powers are handled
by an integrated Gronwall inequality.  Its constant, like the rate of the
moment bound, is the supremum of a ratio over the integers: an exact scan of
a window that doubles from 8 covers the small arguments, and a tail bound
proven in closed form covers the rest.

Everything is certified on the truncated chain actually solved: the top
birth rate is cut to keep the state space finite, and the certified rate is
the truncated curvature, which brackets the raw one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wflow.evolution import _path_pair, _uniform_grid
from wflow.jump_process import JumpGeneratorSpec, Kernel, uniformized_marginal
from wflow.measures import moment, write_table
from wflow.transport import _check_rho, wasserstein_power

__all__ = [
    "BirthDeathSpec",
    "ContractionReport",
    "curvature",
    "truncated_curvature",
    "contraction_report",
    "moment_bound",
    "moment_rate_constant",
    "cost_difference_constant",
    "mm_infty",
]


class BirthDeathSpec:
    """Birth and death rates on the truncated lattice {0..N}.

    ``eta`` and ``nu`` are the rates as modelled; the solved chain uses
    ``eta`` with the top entry set to zero so no mass escapes.  Curvature and
    Lipschitz constants are computed from the rates as given, so the cutoff
    artifact does not inflate them.
    """

    def __init__(self, eta, nu):
        eta = np.asarray(eta, dtype=float)
        nu = np.asarray(nu, dtype=float)
        if eta.ndim != 1 or eta.shape != nu.shape or eta.size < 2:
            raise ValueError("eta and nu must be equal-length 1-d arrays, N >= 1")
        if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(nu))):
            raise ValueError("rates must be finite")
        if np.any(eta < 0) or np.any(nu < 0):
            raise ValueError("rates must be nonnegative")
        if nu[0] != 0.0:
            raise ValueError("death rate at 0 must vanish")
        self.n_top = eta.size - 1
        self.eta_raw = eta
        self.eta = eta.copy()
        self.eta[-1] = 0.0
        self.nu = nu
        self.lip_eta = float(np.max(np.abs(np.diff(eta)))) if eta.size > 1 else 0.0
        self.lip_nu = float(np.max(np.abs(np.diff(nu)))) if nu.size > 1 else 0.0
        states = np.arange(eta.size, dtype=float)
        self.growth_c = float(np.max(eta / (1.0 + states)))

    def to_generator(self):
        """The jump generator of the truncated chain."""
        n = self.n_top + 1
        states = np.arange(n, dtype=float)
        lam = self.eta + self.nu
        # a state without rates jumps to itself; its rows of eta, nu are zero
        frozen = lam == 0.0
        safe = np.where(frozen, 1.0, lam)
        x = np.arange(n)
        kernel = Kernel.from_coo(
            np.concatenate([x[1:], x, x[:-1]]),
            np.concatenate([x[:-1], x, x[1:]]),
            np.concatenate([self.nu[1:] / safe[1:], frozen, self.eta[:-1] / safe[:-1]]),
            n,
        )
        return JumpGeneratorSpec(states, lam, kernel)


def mm_infty(a, b, n_top):
    """Constant birth rate ``a``, death rate ``b x``: the M/M/infinity shape."""
    states = np.arange(n_top + 1, dtype=float)
    return BirthDeathSpec(np.full(n_top + 1, float(a)), float(b) * states)


def curvature(bd):
    """Wasserstein curvature: ``inf_x`` of the rate difference, raw rates."""
    eta, nu = bd.eta_raw, bd.nu
    return float(np.min(eta[:-1] + nu[1:] - eta[1:] - nu[:-1]))


def truncated_curvature(bd):
    """Curvature of the truncated chain: the top birth term is dropped.

    Satisfies the bracketing between the raw infimum over {0..N-1} and the
    one over {0..N-2}.
    """
    if bd.n_top < 2:
        raise ValueError("need n_top >= 2")
    eta, nu = bd.eta_raw, bd.nu
    eta_up = eta[1:].copy()
    eta_up[-1] = 0.0
    return float(np.min(eta[:-1] + nu[1:] - eta_up - nu[:-1]))


_FIRST_WINDOW = 8
_LAST_WINDOW = 1 << 20


def _windowed_sup(ratio, rho, limit, tail, signed):
    """``max(scan, limit, tail)``: a certified supremum of ``ratio`` on the integers.

    The scan is exact on the window ``1 <= x < w`` (``|z| < w`` when
    ``signed``), and ``tail(w)`` bounds the ratio on the rest.  Each tail
    bound falls in ``w``, so the window doubles from 8, scanning only the new
    points, until the tail is at most ``max(scan, limit)``; at ``w = 2**20``
    the scan stops and the tail itself enters the maximum.  An overflowing
    scan or tail raises ``OverflowError``.  The ratio is evaluated in floating
    point, so the result holds up to its rounding: a few ulps, and about
    ``|z|`` ulps where the cost ratio cancels at large ``|z|``.
    """
    lo, hi, peak = (0 if signed else 1), _FIRST_WINDOW, -math.inf
    while True:
        x = np.arange(lo, hi, dtype=float)
        if signed:
            x = np.concatenate((-x, x))
        with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf or nan
            peak = float(np.max(ratio(x, rho), initial=peak))
            bound = float(tail(np.float64(hi)))
        best = float(np.max([peak, limit]))
        if not (math.isfinite(peak) and math.isfinite(bound)):
            raise OverflowError(f"the constant at rho = {rho!r} overflows a double")
        if not bound > best or hi >= _LAST_WINDOW:
            return float(np.max([best, bound]))
        lo, hi = hi, 2 * hi


def _moment_rate_ratio(x, rho):
    # (1+x)^rho - x^rho via expm1/log1p: safe against cancellation at large x
    gap = x**rho * np.expm1(rho * np.log1p(1.0 / x))
    return (1.0 + x) * gap / (1.0 + x**rho)


def moment_rate_constant(rho):
    """``sup_x (1+x)((1+x)^rho - x^rho) / (1+x^rho)`` over the integers x >= 0.

    The ratio is 1 <= rho at x = 0 and tends to ``rho`` as x grows.  By the
    mean value theorem ``(1+x)^rho - x^rho <= rho (1+x)^(rho-1)``, so for
    every ``x >= X >= 1`` the ratio is at most
    ``T(X) = rho (1+X)^rho / (1+X^rho)``, which falls in X (its
    log-derivative has the sign of ``1 - X^(rho-1)``).  The integers
    ``1 <= x < X`` are scanned exactly, with X doubling from 8 until
    ``T(X) <= max(scan, rho)``; the result is ``max(scan, rho, T(X))``, the
    fallback ``T(2**20)`` only if that window is reached first.
    """
    _check_rho(rho)

    def tail(w):
        return rho * (1.0 + 1.0 / w) ** rho / (1.0 + w**-rho)

    return _windowed_sup(_moment_rate_ratio, rho, rho, tail, signed=False)


def _cost_difference_ratio(z, rho):
    az = np.abs(z)
    with np.errstate(divide="ignore"):
        shift = np.where(z >= 0, 1.0, -1.0) / np.where(az == 0, 1.0, az)
        log_term = rho * np.log1p(np.where(z == 0, 0.0, shift))
    gap = np.where(
        z == 0,
        1.0,
        np.where(az == 1.0, np.abs(z + 1) ** rho - 1.0, az**rho * np.expm1(log_term)),
    )
    numer = gap - rho * z * az ** (rho - 2.0)
    denom = 1.0 + az ** (rho - 2.0)
    return numer / denom


def cost_difference_constant(rho):
    """Certified constant C with
    ``|z+1|^rho - |z|^rho - rho z |z|^(rho-2) <= C (1 + |z|^(rho-2))`` on the
    integers (the indicator weight applies for rho > 2).

    Equals 0 at rho = 1 and 1 on (1, 2].  For rho > 2 Lagrange's remainder
    writes the left side as ``rho (rho-1)/2 |xi|^a`` with ``a = rho - 2`` and
    ``|xi| <= |z| + 1``, so for every ``|z| >= Z >= 1`` the ratio is at most
    ``T(Z) = rho (rho-1)/2 (Z+1)^a / (1+Z^a)``.  For ``a <= 1`` subadditivity
    of ``t^a`` caps T at the limit ``rho (rho-1)/2`` itself; for ``a > 1``,
    T falls in Z.  The integers ``|z| < Z`` are scanned exactly, with Z
    doubling from 8 until ``T(Z) <= max(scan, rho (rho-1)/2)``; the result is
    ``max(scan, rho (rho-1)/2, T(Z))``.  It is the fallback ``T(2**20)``
    only where the window reaches 2**20 first: just above rho = 3 (up to
    about 3.1), where the ratio stays within about 1e-6 of its limit on every
    window.
    """
    _check_rho(rho)
    if rho == 1.0:
        return 0.0
    if rho <= 2.0:
        return 1.0
    a = rho - 2.0
    limit = 0.5 * rho * (rho - 1.0)

    def tail(w):
        return limit if a <= 1.0 else limit * (1.0 + 1.0 / w) ** a / (1.0 + w**-a)

    return _windowed_sup(_cost_difference_ratio, rho, limit, tail, signed=True)


def _moment_bounds(bd, p0, rhos, t):
    """:func:`moment_bound` for each ``rho`` of ``rhos``, one law solved for all."""
    for rho in rhos:
        _check_rho(rho)
    if t < 0:
        raise ValueError("time must be nonnegative")
    law = uniformized_marginal(bd.to_generator(), p0, t, tol=1e-12)
    out = []
    for rho in rhos:
        c_rho = moment_rate_constant(rho)
        try:
            growth = math.exp(c_rho * bd.growth_c * t)
        except OverflowError:
            growth = math.inf
        out.append((moment(law, rho), (moment(p0, rho) + 1.0) * growth - 1.0))
    return out


def moment_bound(bd, p0, rho, t):
    """Exact ``E[X_t^rho]`` (clock tolerance 1e-12) with its exponential-growth
    closed-form bound, ``inf`` where the exponential overflows a double."""
    return _moment_bounds(bd, p0, [rho], t)[0]


@dataclass(frozen=True)
class ContractionReport:
    """Nodewise contraction certificates for one pair of marginals.

    ``bound1`` always carries the first-order envelope
    ``W_1(0) exp(-kappa_truncated t)``; ``bound_rho`` carries the certified
    envelope for the requested power (the closed form on (1, 2], the
    integrated Gronwall form above 2, ``bound1`` again at 1).
    ``violation[k]`` is the largest nodewise relative excess over the
    certified bounds, zero when everything holds.
    """

    time_grid: np.ndarray
    w1: np.ndarray
    bound1: np.ndarray
    w_rho: np.ndarray
    bound_rho: np.ndarray
    violation: np.ndarray
    rho: float
    kappa: float
    kappa_truncated: float
    lip_total: float
    cost_constant: float
    degenerate_kappa: bool
    iterated_bound: np.ndarray | None = None

    @property
    def max_violation(self):
        return float(np.max(self.violation))

    def to_csv(self, target):
        """Write `t,w1,bound1,w_rho,bound_rho,violation` rows."""
        write_table(
            target,
            "t,w1,bound1,w_rho,bound_rho,violation",
            (self.time_grid, self.w1, self.bound1, self.w_rho, self.bound_rho, self.violation),
        )


def _relative_excess(value, bound):
    return np.maximum(0.0, (value - bound) / np.maximum(1.0, np.abs(bound)))


def contraction_report(bd, p0X, p0Y, rho, t_end, n_steps):
    """Certify the contraction envelopes along a uniform time grid.

    Both marginals evolve under the same truncated chain, as the node laws
    of two :func:`marginal_path` paths (tolerance 1e-12) that share one set
    of Poisson windows.  They come from the path-pair solve that
    :func:`wflow.evolution.verify_identity` reads too, here without rates:
    one merge per node pair gives ``W_1``, ``W_rho^rho`` and, above 2,
    ``W_{rho-1}^{rho-1}``.  ``t_end`` must be finite and positive, and
    ``n_steps`` at least 1.  The certified
    rate is the truncated curvature; a vanishing ``kappa (rho - 1)`` on
    (1, 2] switches the closed form to its continuity limit
    ``W_rho^rho(0) + Lip W_1(0) t`` and marks the report degenerate.
    """
    _check_rho(rho)
    grid = _uniform_grid(t_end, n_steps, 1)
    gen = bd.to_generator()
    kap = curvature(bd)
    kap_n = truncated_curvature(bd)
    lip = bd.lip_eta + bd.lip_nu
    c_rho = cost_difference_constant(rho)
    # W_1, then W_rho^rho above 1 and W_{rho-1}^{rho-1} above 2, from one merge
    orders = [1.0, rho, rho - 1.0][: 1 + (rho > 1) + (rho > 2)]
    w1, *higher = _path_pair(gen, gen, p0X, p0Y, grid, orders, rated=False).W
    bound1 = w1[0] * np.exp(-kap_n * grid)
    degenerate = False
    iterated = None
    if rho == 1.0:
        w_rho = w1.copy()
        bound_rho = bound1.copy()
    elif rho <= 2.0:
        (w_rho,) = higher
        if abs(kap_n) * (rho - 1.0) * t_end < 1e-12:
            degenerate = True
            bound_rho = w_rho[0] + lip * w1[0] * grid
        else:
            decay_rho = np.exp(-kap_n * rho * grid)
            bound_rho = w_rho[0] * decay_rho + lip * w1[0] * (
                np.exp(-kap_n * grid) - decay_rho
            ) / (kap_n * (rho - 1.0))
    else:
        w_rho, w_prev = higher
        # integrated Gronwall form: trapezoid accumulation of the weighted
        # lower-power distances
        g = np.exp(kap_n * rho * grid) * (w1 + w_prev)
        dt = grid[1] - grid[0]
        acc = np.concatenate([[0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))])
        bound_rho = np.exp(-kap_n * rho * grid) * (w_rho[0] + c_rho * lip * acc)
        if kap_n > 0:
            ceil_m2 = math.ceil(rho - 2.0)
            ceil_m1 = math.ceil(rho - 1.0)
            pis = {-1: 1.0}
            for j in range(0, ceil_m1):
                pis[j] = pis[j - 1] * (
                    cost_difference_constant(rho - j) * lip / (kap_n * (rho - j - 1.0))
                )
            lead = sum(
                pis[j - 1] * wasserstein_power(p0X, p0Y, rho - j)
                for j in range(0, ceil_m2 + 1)
            )
            tail = sum(pis[j - 1] for j in range(1, ceil_m1 + 1)) * w1[0]
            iterated = (lead + tail) * np.exp(-kap_n * grid)
    violation = np.maximum(
        _relative_excess(w1, bound1), _relative_excess(w_rho, bound_rho)
    )
    if iterated is not None:
        violation = np.maximum(violation, _relative_excess(w_rho, iterated))
    return ContractionReport(
        grid,
        w1,
        bound1,
        w_rho,
        bound_rho,
        violation,
        rho,
        kap,
        kap_n,
        lip,
        c_rho,
        degenerate,
        iterated,
    )
