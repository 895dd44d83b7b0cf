"""Birth-death chains: curvature, contraction certificates, moment bounds.

A birth-death process moves up at rate ``eta(x)`` and down at rate ``nu(x)``.
Its Wasserstein curvature ``kappa = inf_x (eta(x) + nu(x+1) - eta(x+1)
- nu(x))`` governs exponential contraction of transport distances between two
copies started from different laws: the first-order distance contracts at
rate ``kappa`` exactly, and for powers in (1, 2] a closed-form envelope with
the rate Lipschitz constants certifies the decay.  Higher powers are handled
by an integrated Gronwall inequality whose constant is computed here by an
exhaustive scan plus its analytic tail limit.

Everything is certified on the truncated chain actually solved: the top
birth rate is cut to keep the state space finite, and the certified rate is
the truncated curvature, which brackets the raw one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from wflow.jump_process import JumpGeneratorSpec, uniformized_marginal
from wflow.measures import write_table
from wflow.transport import wasserstein_power

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

    def __init__(self, eta, nu, growth_c=None):
        eta = np.asarray(eta, dtype=float)
        nu = np.asarray(nu, dtype=float)
        if eta.ndim != 1 or eta.shape != nu.shape or eta.size < 2:
            raise ValueError("eta and nu must be equal-length 1-d arrays, N >= 1")
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
        minimal_c = float(np.max(eta / (1.0 + states)))
        if growth_c is None:
            self.growth_c = minimal_c
        else:
            if growth_c < minimal_c:
                raise ValueError("growth_c does not dominate eta(x)/(1+x)")
            self.growth_c = float(growth_c)

    def to_generator(self):
        """The jump generator of the truncated chain."""
        n = self.n_top + 1
        states = np.arange(n, dtype=float)
        lam = self.eta + self.nu
        kernel = np.zeros((n, n))
        for i in range(n):
            if lam[i] > 0.0:
                if i + 1 < n:
                    kernel[i, i + 1] = self.eta[i] / lam[i]
                if i > 0:
                    kernel[i, i - 1] = self.nu[i] / lam[i]
            else:
                kernel[i, i] = 1.0
        return JumpGeneratorSpec(states, lam, kernel)


def mm_infty(a, b, n_top):
    """Constant birth rate ``a``, death rate ``b x``: the M/M/infinity shape."""
    states = np.arange(n_top + 1, dtype=float)
    return BirthDeathSpec(np.full(n_top + 1, float(a)), float(b) * states)


def curvature(bd):
    """Wasserstein curvature: ``inf_x`` of the rate difference, raw rates."""
    eta, nu = bd.eta_raw, bd.nu
    return float(np.min(eta[:-1] + nu[1:] - eta[1:] - nu[:-1]))


def truncated_curvature(bd, n_top=None):
    """Curvature of the truncated chain: the top birth term is dropped.

    Satisfies the bracketing between the raw infimum over {0..N-1} and the
    one over {0..N-2}.
    """
    if n_top is None:
        n_top = bd.n_top
    if n_top < 2:
        raise ValueError("need n_top >= 2")
    if n_top > bd.n_top:
        raise ValueError("n_top exceeds the stored truncation")
    eta = bd.eta_raw[: n_top + 1].copy()
    nu = bd.nu[: n_top + 1]
    eta_up = eta[1:].copy()
    eta_up[-1] = 0.0
    return float(np.min(eta[:-1] + nu[1:] - eta_up - nu[:-1]))


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


def _moment_rate_ratio(x, rho):
    # (1+x)^rho - x^rho via expm1/log1p: safe against cancellation at large x
    gap = x**rho * np.expm1(rho * np.log1p(1.0 / x))
    return (1.0 + x) * gap / (1.0 + x**rho)


@lru_cache(maxsize=None)
def moment_rate_constant(rho, scan_top=1_000_000):
    """``sup_x (1+x)((1+x)^rho - x^rho) / (1+x^rho)`` over the integers.

    The ratio tends to ``rho`` as x grows; the scan is combined with that
    limit so the tail cannot be undercut; the scan starts at x = 1, since the
    ratio at x = 0 is 1 <= rho.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    return float(max(_scan_max(_moment_rate_ratio, rho, 1, scan_top), rho))


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


@lru_cache(maxsize=None)
def cost_difference_constant(rho, scan_top=1_000_000):
    """Smallest scan-certified constant with
    ``|z+1|^rho - |z|^rho - rho z |z|^(rho-2) <= C (1 + |z|^(rho-2))`` on the
    integers (the indicator weight applies for rho > 2).

    Equals 0 at rho = 1 and 1 on (1, 2]; for rho > 2 the scanned maximum is
    combined with the analytic limit ``rho (rho-1) / 2``.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if rho == 1.0:
        return 0.0
    if rho <= 2.0:
        return 1.0
    scanned = _scan_max(_cost_difference_ratio, rho, -scan_top, scan_top)
    return float(max(scanned, 0.5 * rho * (rho - 1.0)))


def moment_bound(bd, p0, rho, t, tol=1e-12):
    """Exact ``E[X_t^rho]`` with its exponential-growth closed-form bound."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if t < 0:
        raise ValueError("time must be nonnegative")
    gen = bd.to_generator()
    marg = uniformized_marginal(gen, p0, t, tol=tol)
    exact = float(np.sum(marg.weights * marg.support**rho))
    m0 = float(np.sum(p0.weights * p0.support**rho))
    c_rho = moment_rate_constant(rho)
    bound = (m0 + 1.0) * math.exp(c_rho * bd.growth_c * t) - 1.0
    return exact, bound


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


def contraction_report(bd, p0X, p0Y, rho, t_end, n_steps, marginal_tol=1e-12):
    """Certify the contraction envelopes along a uniform time grid.

    Both marginals evolve under the same truncated chain.  The certified
    rate is the truncated curvature; a vanishing ``kappa (rho - 1)`` on
    (1, 2] switches the closed form to its continuity limit
    ``W_rho^rho(0) + Lip W_1(0) t`` and marks the report degenerate.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if t_end <= 0 or n_steps < 1:
        raise ValueError("need t_end > 0 and n_steps >= 1")
    gen = bd.to_generator()
    kap = curvature(bd)
    kap_n = truncated_curvature(bd)
    lip = bd.lip_eta + bd.lip_nu
    c_rho = cost_difference_constant(rho)
    grid = np.linspace(0.0, t_end, n_steps + 1)
    w1 = np.empty(grid.size)
    w_rho = np.empty(grid.size)
    w_prev = np.empty(grid.size)
    for k, t in enumerate(grid):
        mX = uniformized_marginal(gen, p0X, t, tol=marginal_tol)
        mY = uniformized_marginal(gen, p0Y, t, tol=marginal_tol)
        w1[k] = wasserstein_power(mX, mY, 1.0)
        if rho > 1:
            w_rho[k] = wasserstein_power(mX, mY, rho)
        if rho > 2:
            w_prev[k] = wasserstein_power(mX, mY, rho - 1.0)
    bound1 = w1[0] * np.exp(-kap_n * grid)
    degenerate = False
    iterated = None
    if rho == 1.0:
        w_rho = w1.copy()
        bound_rho = bound1.copy()
    elif rho <= 2.0:
        if abs(kap_n) * (rho - 1.0) * t_end < 1e-12:
            degenerate = True
            bound_rho = w_rho[0] + lip * w1[0] * grid
        else:
            decay_rho = np.exp(-kap_n * rho * grid)
            bound_rho = w_rho[0] * decay_rho + lip * w1[0] * (
                np.exp(-kap_n * grid) - decay_rho
            ) / (kap_n * (rho - 1.0))
    else:
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
