"""One-dimensional probability measures with exact quantile, moment and tail operations.

Two concrete representations are supported:

* :class:`DiscreteMeasure` -- finitely many atoms on the real line.
* :class:`GridMeasure` -- a continuous law whose CDF is piecewise linear and
  strictly increasing between the endpoints of a grid.

Both expose the right-continuous generalized inverse ``F^{-1}(u) = inf{x : F(x) > u}``
used throughout the package, exact absolute moments, and CSV round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoverageError",
    "UnboundableError",
    "DiscreteMeasure",
    "GridMeasure",
    "TailConstants",
    "TailRatioCertificate",
    "quantile",
    "moment",
    "generalized_variance",
    "laplace_smooth",
    "tail_ratio_constants",
    "measure_to_csv",
    "measure_from_csv",
    "write_table",
]


class CoverageError(ValueError):
    """Raised when a grid does not carry enough of the measure's mass."""


class UnboundableError(ValueError):
    """Raised when tail ratios admit no finite exponential envelope on the sample grid."""


def _signed_power(z, p):
    """sign(z) * |z|**p, elementwise."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.abs(z) ** p


def _power_integral(z_lo, z_hi, width, q):
    """Exact ``integral |z|^q`` over segments of ``width`` on which ``z`` runs
    linearly from ``z_lo`` to ``z_hi`` (equal-shape 1-d arrays).

    A steep segment takes the quotient of the antiderivative
    ``sign(z)|z|^{q+1} / (q+1)``, which is continuous through a sign change of
    ``z``, so a segment that crosses zero needs no split at the root.  A
    segment whose ends differ by at most 1e-5 of ``|z_lo| + |z_hi|`` takes its
    midpoint value times the width instead: there the midpoint rule's
    relative error, about ``q(q-1)/6`` times the squared relative spread, is
    at most ``q(q-1)/6 * 1e-10``, while the quotient's cancellation would cost
    up to 2e-8.
    """
    out = np.abs(0.5 * (z_lo + z_hi)) ** q * width
    steep = np.abs(z_hi - z_lo) > 1e-5 * (np.abs(z_lo) + np.abs(z_hi))
    if steep.any():
        zl, zh = z_lo[steep], z_hi[steep]
        out[steep] = (
            (_signed_power(zh, q + 1.0) - _signed_power(zl, q + 1.0))
            * width[steep]
            / ((zh - zl) * (q + 1.0))
        )
    return out


class DiscreteMeasure:
    """Purely atomic probability measure on the real line.

    Parameters
    ----------
    support : array_like
        Atom locations, strictly increasing.
    weights : array_like
        Atom masses, strictly positive.  Must sum to 1 within ``mass_tol``.
    mass_tol : float, optional
        Allowed deviation of the total mass from 1.  The default ``1e-12``
        suits exact inputs; truncated numerical marginals may pass the
        tolerance they were computed with.
    """

    def __init__(self, support, weights, mass_tol=1e-12):
        support = np.atleast_1d(np.asarray(support, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if support.ndim != 1 or support.shape != weights.shape:
            raise ValueError("support and weights must be 1-d arrays of equal length")
        if support.size == 0:
            raise ValueError("measure needs at least one atom")
        if not (np.all(np.isfinite(support)) and np.all(np.isfinite(weights))):
            raise ValueError("support and weights must be finite")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        total = float(weights.sum())
        if abs(total - 1.0) > mass_tol:
            raise ValueError(
                f"weights sum to {total!r}, outside 1 +/- {mass_tol!r}"
            )
        self.support = support
        self.weights = weights

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def cumulative(self):
        """Cumulative masses F(x_i) at the atoms, in support order."""
        return np.cumsum(self.weights)

    def cdf_at(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.support, x, side="right")
        cum = np.concatenate(([0.0], self.cumulative()))
        return cum[idx]

    def __repr__(self):
        return f"DiscreteMeasure({self.support.size} atoms on [{self.support[0]}, {self.support[-1]}])"


class GridMeasure:
    """Continuous law with a piecewise-linear, strictly increasing CDF on a grid.

    ``cdf_values`` must start at exactly 0, end at exactly 1 and increase
    strictly; the measure carries no mass outside ``[grid[0], grid[-1]]``.
    """

    def __init__(self, grid, cdf_values):
        grid = np.asarray(grid, dtype=float)
        cdf_values = np.asarray(cdf_values, dtype=float)
        if grid.ndim != 1 or grid.shape != cdf_values.shape or grid.size < 2:
            raise ValueError("grid and cdf_values must be equal-length 1-d arrays, length >= 2")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(cdf_values))):
            raise ValueError("grid and cdf_values must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if cdf_values[0] != 0.0 or cdf_values[-1] != 1.0:
            raise ValueError("cdf_values must run from exactly 0 to exactly 1")
        if np.any(np.diff(cdf_values) <= 0):
            raise ValueError("cdf_values must be strictly increasing")
        self.grid = grid
        self.cdf_values = cdf_values

    @property
    def total_mass(self):
        return 1.0

    def cdf_at(self, x):
        return np.interp(x, self.grid, self.cdf_values)

    def sf_at(self, x):
        return 1.0 - self.cdf_at(x)

    def densities(self):
        """Constant density on each grid cell."""
        return np.diff(self.cdf_values) / np.diff(self.grid)

    def __repr__(self):
        return f"GridMeasure({self.grid.size} nodes on [{self.grid[0]}, {self.grid[-1]}])"


@dataclass(frozen=True)
class TailConstants:
    """Envelope constants (c, C) for CDF/SF shift ratios: ratio <= c * exp(C*y)."""

    c: float
    C: float

    def __post_init__(self):
        if not (self.c >= 1.0):
            raise ValueError("tail constant c must be >= 1")
        if not (self.C > 0.0):
            raise ValueError("tail constant C must be > 0")


@dataclass(frozen=True)
class TailRatioCertificate:
    """Observed shift-ratio maxima on a sample grid, with the fitted envelope."""

    constants: TailConstants
    y_grid: np.ndarray
    max_cdf_ratio: np.ndarray
    max_sf_ratio: np.ndarray


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    return u


def quantile(m, u):
    """Generalized inverse ``F^{-1}(u) = inf{x : F(x) > u}`` at levels ``u``.

    For an atomic measure this selects the first atom whose cumulative mass
    strictly exceeds ``u``; for a grid measure it inverts the piecewise-linear
    CDF.  Levels must lie strictly inside ``(0, 1)``.
    """
    scalar = np.isscalar(u) or np.ndim(u) == 0
    u = _check_u(u)
    if isinstance(m, DiscreteMeasure):
        cum = m.cumulative()
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, m.support.size - 1)
        out = m.support[idx]
    elif isinstance(m, GridMeasure):
        out = np.interp(u, m.cdf_values, m.grid)
    else:
        raise TypeError(f"unsupported measure type {type(m)!r}")
    return float(out) if scalar else out


def moment(m, q):
    """Absolute moment ``integral |x|^q dm`` computed in closed form.

    Atomic measures sum exactly; grid measures integrate the constant density
    of each CDF cell against the power antiderivative, which stays exact even
    on cells straddling the origin.
    """
    if q <= 0:
        raise ValueError("moment order q must be > 0")
    if isinstance(m, DiscreteMeasure):
        return float(np.sum(m.weights * np.abs(m.support) ** q))
    if isinstance(m, GridMeasure):
        # integral of |x|^q over the cell times the constant density
        parts = _power_integral(m.grid[:-1], m.grid[1:], np.diff(m.grid), q)
        return float(np.sum(m.densities() * parts))
    raise TypeError(f"unsupported measure type {type(m)!r}")


def mean_of(m, phi):
    """Exact ``integral phi dm`` for phi tabulated on the support/grid nodes."""
    phi = np.asarray(phi, dtype=float)
    if isinstance(m, DiscreteMeasure):
        if phi.shape != m.support.shape:
            raise ValueError("phi must be tabulated on the support")
        return float(np.sum(m.weights * phi))
    if isinstance(m, GridMeasure):
        if phi.shape != m.grid.shape:
            raise ValueError("phi must be tabulated on the grid")
        dm = np.diff(m.cdf_values)
        # piecewise-linear phi against constant cell density: trapezoid is exact
        return float(np.sum(dm * 0.5 * (phi[:-1] + phi[1:])))
    raise TypeError(f"unsupported measure type {type(m)!r}")


def generalized_variance(m, phi, q):
    """Centered absolute moment ``integral |phi - m(phi)|^q dm``.

    ``phi`` is tabulated on the atoms (atomic case) or the grid nodes
    (grid case, interpolated linearly in between).
    """
    if q <= 0:
        raise ValueError("order q must be > 0")
    phi = np.asarray(phi, dtype=float)
    mu = mean_of(m, phi)
    if isinstance(m, DiscreteMeasure):
        return float(np.sum(m.weights * np.abs(phi - mu) ** q))
    parts = _power_integral(phi[:-1] - mu, phi[1:] - mu, np.diff(m.grid), q)
    return float(np.sum(m.densities() * parts))


_SMOOTH_PAD = 22.0  # pad in units of eta; leaves < 1e-9 mass outside the grid


def _default_smooth_grid(support, eta, n):
    """Nodes clustered in windows of width 22*eta around the atoms.

    Far from every atom the smoothed CDF is flat to machine precision, so a
    uniform grid over the whole support cannot stay strictly increasing once
    atoms sit much farther apart than eta.  Windows around the atoms (merged
    when they overlap) keep every cell's mass representable.
    """
    windows = []
    for x in support:
        lo, hi = x - _SMOOTH_PAD * eta, x + _SMOOTH_PAD * eta
        if windows and lo <= windows[-1][1]:
            windows[-1][1] = max(windows[-1][1], hi)
        else:
            windows.append([lo, hi])
    total = sum(hi - lo for lo, hi in windows)
    pieces = []
    for lo, hi in windows:
        k = max(33, int(round(n * (hi - lo) / total)))
        pieces.append(np.linspace(lo, hi, k))
    grid = np.concatenate(pieces)
    keep = np.concatenate(([True], np.diff(grid) > 1e-3 * eta))
    keep[-1] = True
    grid = grid[keep]
    if np.any(np.diff(grid) <= 0):
        grid = np.unique(grid)
    return grid


def _laplace_cdf(z):
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, 0.5 * np.exp(np.minimum(z, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))


def laplace_smooth(m, eta, grid_spec=4096):
    """Convolve an atomic measure with an ``eta``-scaled Laplace kernel.

    Parameters
    ----------
    m : DiscreteMeasure
        Law to smooth.
    eta : float
        Kernel scale; the kernel density is ``exp(-|x|/eta) / (2 eta)``.
    grid_spec : int or array_like, optional
        Approximate number of grid nodes, clustered in windows of 22*eta
        around the atoms, or an explicit strictly increasing grid.

    Returns
    -------
    (GridMeasure, TailConstants)
        Smoothed law with its exponential tail-envelope constants
        ``(1, 1/eta)``.  The CDF is sampled exactly at interior nodes; the
        sub-1e-9 tail mass beyond the grid is absorbed into the end cells.

    Raises
    ------
    CoverageError
        If the grid holds less than ``1 - 1e-9`` of the smoothed mass.
    """
    if not isinstance(m, DiscreteMeasure):
        raise TypeError("laplace_smooth expects an atomic measure")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if np.ndim(grid_spec) == 0:
        n = int(grid_spec)
        if n < 2:
            raise ValueError("grid_spec must request at least 2 nodes")
        grid = _default_smooth_grid(m.support, eta, n)
    else:
        grid = np.asarray(grid_spec, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("explicit grid must be 1-d and strictly increasing")
    z = (grid[:, None] - m.support[None, :]) / eta
    cdf = _laplace_cdf(z) @ m.weights
    covered = float(cdf[-1] - cdf[0])
    if covered < 1.0 - 1e-9:
        raise CoverageError(
            f"grid carries only {covered!r} of the smoothed mass (needs >= 1 - 1e-9)"
        )
    cdf[0] = 0.0
    cdf[-1] = 1.0
    if np.any(np.diff(cdf) <= 0):
        raise ValueError("grid too coarse: sampled CDF is not strictly increasing")
    return GridMeasure(grid, cdf), TailConstants(1.0, 1.0 / eta)


_RATIO_FLOOR = 1e-6  # numerators at or below this over a zero denominator are skipped


def tail_ratio_constants(m, y_grid):
    """Fit the smallest exponential envelope for CDF/SF shift ratios on a sample grid.

    For every grid node ``x`` and every shift ``y`` in ``y_grid`` the ratios
    ``F(x+y)/F(x)`` and ``SF(x-y)/SF(x)`` are evaluated; the certificate records
    their maxima and the fitted constants ``(c, C) = (1, max log-ratio / y)``.

    A sample whose denominator vanishes (the grid endpoints) is informative
    only when the numerator sits above 1e-6: then no finite envelope exists
    at the grid's resolution and :class:`UnboundableError` is raised.
    Numerators at or below 1e-6 are truncation-level artifacts and are
    skipped.
    """
    if not isinstance(m, GridMeasure):
        raise TypeError("tail_ratio_constants expects a grid measure")
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if np.any(y_grid <= 0):
        raise ValueError("shifts must be strictly positive")
    x = m.grid
    f_x = m.cdf_values
    sf_x = 1.0 - m.cdf_values
    max_f = np.empty(y_grid.size)
    max_sf = np.empty(y_grid.size)
    best_logratio_per_y = np.empty(y_grid.size)
    for k, y in enumerate(y_grid):
        f_up = m.cdf_at(x + y)
        sf_dn = m.sf_at(x - y)
        for numer, denom, kind in ((f_up, f_x, "CDF"), (sf_dn, sf_x, "SF")):
            dead = denom <= 0.0
            bad = dead & (numer > _RATIO_FLOOR)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise UnboundableError(
                    f"{kind} ratio unbounded at x={x[i]!r}, y={y!r}: "
                    f"numerator {numer[i]!r} over a vanishing denominator"
                )
        ok_f = f_x > 0.0
        ok_sf = sf_x > 0.0
        rf = f_up[ok_f] / f_x[ok_f]
        rsf = sf_dn[ok_sf] / sf_x[ok_sf]
        max_f[k] = rf.max()
        max_sf[k] = rsf.max()
        best_logratio_per_y[k] = np.log(max(max_f[k], max_sf[k], 1.0)) / y
    C = float(best_logratio_per_y.max())
    if C <= 0.0:
        C = np.finfo(float).tiny
    constants = TailConstants(1.0, C)
    return TailRatioCertificate(constants, y_grid, max_f, max_sf)


def write_table(target, header, columns):
    """Write equal-length columns as CSV under a ``header`` line.

    ``target`` is a path, or a stream when it has a ``write`` method.
    Numbers are written as ``repr(float(v))``, which reads back exactly;
    strings are written as they are.
    """
    cells = [[v if isinstance(v, str) else repr(float(v)) for v in col] for col in columns]
    text = "\n".join([header, *map(",".join, zip(*cells, strict=True))]) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)


def measure_to_csv(m, path):
    """Write the measure to CSV: header ``x,weight`` (atomic) or ``x,cdf`` (grid)."""
    if isinstance(m, DiscreteMeasure):
        write_table(path, "x,weight", (m.support, m.weights))
    elif isinstance(m, GridMeasure):
        write_table(path, "x,cdf", (m.grid, m.cdf_values))
    else:
        raise TypeError(f"unsupported measure type {type(m)!r}")


def measure_from_csv(path):
    """Read a measure written by :func:`measure_to_csv`; the header decides the type.

    An atomic measure must sum to 1 within 1e-12.
    """
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path) as fh:
            text = fh.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].replace(" ", "").lower()
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if body.ndim != 2 or body.shape[1] != 2:
        raise ValueError("expected two numeric columns")
    if header == "x,weight":
        return DiscreteMeasure(body[:, 0], body[:, 1])
    if header == "x,cdf":
        return GridMeasure(body[:, 0], body[:, 1])
    raise ValueError(f"unrecognized CSV header {lines[0]!r}: need 'x,weight' or 'x,cdf'")
