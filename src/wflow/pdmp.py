"""One-dimensional piecewise-deterministic Markov processes.

A process of this kind follows the flow of a bounded vector field between
jumps that arrive with state-dependent bounded intensity and bounded
amplitude.  It is approximated here by pure jump chains: at rate ``mu`` the
chain takes the deterministic step the flow would make in time ``1/mu``, and
at rate ``lambda(x)`` it performs a genuine jump.  As ``mu`` grows the chain
marginals converge to the process marginals, which transfers the transport
evolution identity of the pure jump theory to the limit; the module solves
the chains exactly on a state grid, simulates the limit process by thinning,
and evaluates the closed-form moment and tail constants that are uniform in
``mu``.  A :class:`PdmpSpec` is built from typed parts that each carry
their exact supremum: a :class:`Drift` with a closed-form flow (so no ODE is
integrated), an :class:`Intensity` table and a :class:`UniformJump` or
:class:`ShiftJump` law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wflow.evolution import apply_generator, verify_identity
from wflow.jump_process import (
    JumpGeneratorSpec,
    Kernel,
    _poisson_window,
    _thinning,
    uniformized_marginal,
)
from wflow.measures import (
    CoverageError,
    DiscreteMeasure,
    GridMeasure,
    TailConstants,
    laplace_smooth,
    quantile,
    write_table,
)
from wflow.transport import wasserstein

__all__ = [
    "PdmpSpec",
    "MuApproximation",
    "MuConvergenceReport",
    "PropagationAudit",
    "UniformJump",
    "ShiftJump",
    "Drift",
    "Intensity",
    "flow",
    "mu_generator",
    "simulate_pdmp",
    "simulate_chain",
    "mu_convergence_study",
    "propagation_constants",
    "propagation_check",
    "embed_on_grid",
    "cell_law",
    "atomize",
]


_DRIFT_NAMES = ("zero", "const", "neg_tanh")
_FAR_LOG = 20.0  # past log(2y) = 20, asinh(y) = log(2y) to double precision


def _neg_tanh_flow(x, s):
    """``asinh(sinh(x) e^{-s})``, the exact flow of ``-tanh``, without overflow.

    With ``log(2y) = |x| - s + log(-expm1(-2|x|))`` for ``y = |sinh(x)| e^{-s}``,
    the far branch ``log(2y) > 20`` returns ``sign(x) log(2y)`` (the omitted
    term is below ``e^{-40}``), and the near branch evaluates ``asinh`` of
    ``y = exp(log(2y)) / 2``, which is at most ``e^20 / 2``.  States with
    ``s = 0`` come back unchanged.
    """
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        log_2y = ax - s + np.log(-np.expm1(-2.0 * ax))
    near = np.arcsinh(0.5 * np.exp(np.minimum(log_2y, _FAR_LOG)))
    out = np.sign(x) * np.where(log_2y > _FAR_LOG, log_2y, near)
    return np.where(s == 0.0, x, out)


@dataclass(frozen=True)
class Drift:
    """A named bounded drift field that carries its exact flow.

    ``zero`` is the field 0, ``const`` the constant ``c`` and ``neg_tanh``
    the field ``-tanh(x)``; ``c`` must be finite, and nonzero only on
    ``const``.  Calling a drift evaluates the field; :meth:`flow` moves
    states along it in closed form, and :attr:`bound` is its supremum.
    """

    name: str
    c: float = 0.0

    def __post_init__(self):
        if self.name not in _DRIFT_NAMES:
            raise ValueError(f"unknown drift name {self.name!r}")
        c = float(self.c)
        if not math.isfinite(c):
            raise ValueError(f"drift c must be finite, got {c!r}")
        if c != 0.0 and self.name != "const":
            raise ValueError(f"drift {self.name!r} takes no c, got {c!r}")
        object.__setattr__(self, "c", c)

    @property
    def bound(self):
        """Supremum of ``|v(x)|`` over the real line."""
        return 1.0 if self.name == "neg_tanh" else abs(self.c)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return -np.tanh(x) if self.name == "neg_tanh" else np.full_like(x, self.c)

    def flow(self, x, s):
        """States ``x`` after signed time ``s`` (shared, or one per state).

        ``zero`` returns a copy of ``x``, ``const`` returns ``x + c s`` and
        ``neg_tanh`` solves ``sinh(x(s)) = sinh(x) e^{-s}``.
        """
        x = np.asarray(x, dtype=float)
        s = np.asarray(s, dtype=float)
        if self.name == "zero":
            return x.copy()
        if self.name == "const":
            return x + self.c * s
        return _neg_tanh_flow(x, s)


class Intensity:
    """A read-only table of finite nonnegative rates ``val`` at strictly
    increasing nodes ``x``: linear between the nodes, constant beyond them,
    bounded by ``max(val)``.  A constant rate is the one-node table."""

    def __init__(self, x, val):
        x = np.array(x, dtype=float)
        val = np.array(val, dtype=float)
        if x.ndim != 1 or x.size == 0 or x.shape != val.shape:
            raise ValueError("intensity x and val must be equal-length, nonempty lists")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(val))):
            raise ValueError("intensity x and val must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("intensity x must be strictly increasing")
        if np.any(val < 0.0):
            raise ValueError("intensity values must be nonnegative")
        x.flags.writeable = val.flags.writeable = False
        self.x, self.val, self.bound = x, val, float(val.max())

    def __call__(self, x):
        return np.interp(x, self.x, self.val)


class UniformJump:
    """Jump law uniform on [x - half_width, x + half_width]; the finite,
    positive ``half_width`` is its bound, and ``support`` holds the offsets
    ``(-half_width, half_width)`` of its reach from x."""

    def __init__(self, half_width):
        self.half_width = self.bound = float(half_width)
        if not (math.isfinite(self.bound) and self.bound > 0.0):
            raise ValueError(f"half_width must be finite and positive, got {half_width!r}")
        self.support = (-self.half_width, self.half_width)

    def cdf(self, x, y):
        y = np.asarray(y, dtype=float)
        return np.clip((y - x + self.half_width) / (2.0 * self.half_width), 0.0, 1.0)

    def quantile(self, x, u):
        return x - self.half_width + 2.0 * self.half_width * u


class ShiftJump:
    """Deterministic jump law: from x move to x + offset; the offset is
    finite and nonzero, ``|offset|`` is its bound, and ``support`` holds the
    offsets ``(offset, offset)`` of its reach from x."""

    def __init__(self, offset):
        self.offset = float(offset)
        if not (math.isfinite(self.offset) and self.offset != 0.0):
            raise ValueError(f"shift offset must be finite and nonzero, got {offset!r}")
        self.bound = abs(self.offset)
        self.support = (self.offset, self.offset)

    def cdf(self, x, y):
        y = np.asarray(y, dtype=float)
        return (y >= x + self.offset).astype(float)

    def quantile(self, x, u):
        return x + self.offset


_JUMP_LAWS = {"uniform_pm": (UniformJump, "m"), "shift": (ShiftJump, "d")}  # config name: law, key


def _only(section, what, *keys):
    """The config mapping ``section``, which may hold no key beyond ``keys``."""
    if not isinstance(section, dict):
        raise ValueError(f"{what} must be a mapping")
    extra = sorted(map(str, set(section) - set(keys)))
    if extra:
        raise ValueError(f"{what}: unknown key {', '.join(extra)}")
    return section


class PdmpSpec:
    """A :class:`Drift`, an :class:`Intensity` and a :class:`UniformJump` or
    :class:`ShiftJump` (else a ``TypeError``), with the exact suprema they
    carry as ``drift_bound``, ``intensity_bound`` and ``jump_bound``.
    ``mu_generator`` evaluates each node's jump law only on the band of its
    support, ``[x + lo, x + hi]`` for the kernel's ``support = (lo, hi)``,
    and fails closed on a CDF that reaches beyond.
    """

    def __init__(self, drift, intensity, kernel):
        if not isinstance(drift, Drift):
            raise TypeError(f"drift must be a Drift, not {type(drift).__name__}")
        if not isinstance(intensity, Intensity):
            raise TypeError(f"intensity must be an Intensity, not {type(intensity).__name__}")
        if not isinstance(kernel, (UniformJump, ShiftJump)):
            raise TypeError(f"kernel must be UniformJump or ShiftJump, not {type(kernel).__name__}")
        self.drift = drift
        self.intensity = intensity
        self.kernel = kernel
        self.drift_bound = drift.bound
        self.intensity_bound = intensity.bound
        self.jump_bound = kernel.bound

    @classmethod
    def from_dict(cls, cfg):
        """Build from a config mapping: ``drift: {name, c}``, ``intensity:
        {const}`` or ``{x, val}``, and ``kernel: {name: uniform_pm, m}`` or
        ``{name: shift, d}``; a key that a section does not read is an error."""
        drift = Drift(**_only(cfg["drift"], "drift", "name", "c"))
        lam_cfg = cfg["intensity"]
        if isinstance(lam_cfg, dict) and "const" in lam_cfg:
            intensity = Intensity([0.0], [_only(lam_cfg, "intensity", "const")["const"]])
        else:
            intensity = Intensity(**_only(lam_cfg, "intensity", "x", "val"))
        name = cfg["kernel"]["name"]
        if name not in _JUMP_LAWS:
            raise ValueError(f"unknown kernel name {name!r}")
        law, key = _JUMP_LAWS[name]
        return cls(drift, intensity, law(_only(cfg["kernel"], "kernel", "name", key)[key]))


def flow(spec, x, s):
    """Advance states along the drift field for signed time ``s``.

    Every drift is a :class:`Drift`, so the flow is its closed form
    (:meth:`Drift.flow`), exact to rounding.  ``s`` is shared or an array
    matched to ``x`` (per-state horizons); a scalar ``x`` gives a float and
    an array gives a new array, which equals ``x`` where ``s = 0``.
    """
    x_arr = np.asarray(x, dtype=float)
    s_arr = np.broadcast_to(np.asarray(s, dtype=float), x_arr.shape)
    out = spec.drift.flow(x_arr, s_arr)
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class MuApproximation:
    """Pure jump chain approximating the process at speed ``mu``.

    ``raw_intensity`` holds ``mu + lambda(x)`` per node, the total event
    rate before self-moves are removed; ``self_mass`` is the kernel weight
    each node placed on itself (flow targets inside the node's own cell),
    which is dropped with the rate rescaled by ``1 - self_mass`` so the
    generator is unchanged.  ``boundary_jump_leak`` is the largest genuine
    jump mass that fell outside the grid span and was absorbed into the end
    cells; it is zero when the grid covers the jump range of every node.
    """

    mu: float
    generator: JumpGeneratorSpec
    grid: np.ndarray
    flow_targets: np.ndarray
    raw_intensity: np.ndarray
    self_mass: np.ndarray
    boundary_jump_leak: float


_BAND_CHUNK = 1 << 14


def _jump_cells(kernel, grid, nodes):
    """Nonzero jump cell masses ``(node, cell, mass)`` from the listed nodes.

    Cell ``c`` is node ``c``'s grid cell, so its mass is ``G(c) - G(c - 1)``
    with ``G(k) = F(mids[k])``, ``G(-1) = 0`` and ``G(n - 1) = 1``.  Per node
    only the band of ``G`` indices covering ``[x + lo, x + hi]`` for the
    kernel's ``support = (lo, hi)``, widened by two cells a side, is
    evaluated, in blocks of at most ``_BAND_CHUNK`` entries; ``G`` must be
    exactly 0 at the lower band edge and exactly 1 at the upper one, else the
    node is named in a ``ValueError``.
    """
    n = grid.size
    if nodes.size == 0:
        return nodes, nodes, np.empty(0)
    mids = 0.5 * (grid[1:] + grid[:-1])
    padded = np.concatenate([mids[:1], mids, mids[-1:]])  # G index k at k + 1
    x = grid[nodes]
    reach_lo, reach_hi = kernel.support
    lo = np.maximum(np.searchsorted(mids, x + reach_lo, side="left") - 3, -1)
    hi = np.minimum(np.searchsorted(mids, x + reach_hi, side="right") + 2, n - 1)
    width = int(np.max(hi - lo)) + 1
    start = np.minimum(lo, n - width)  # windows of one width inside [-1, n-1]
    offsets = np.arange(width)
    step = max(1, _BAND_CHUNK // width)
    rows, cols, vals = [], [], []
    for s in range(0, nodes.size, step):
        part = slice(s, s + step)
        first = start[part]
        g = np.array(
            kernel.cdf(x[part, None], padded[first[:, None] + offsets + 1]), dtype=float
        )
        g[first == -1, 0] = 0.0  # -1 only ever starts a window, n - 1 only ends one
        g[first == n - width, -1] = 1.0
        k = np.arange(first.size)
        bad = (g[k, lo[part] - first] != 0.0) | (g[k, hi[part] - first] != 1.0)
        if np.any(bad):
            i = int(nodes[part][np.argmax(bad)])
            raise ValueError(
                f"jump law of node {i} (x = {float(grid[i])!r}) puts mass "
                f"beyond its support {kernel.support!r}"
            )
        cell = np.diff(g, axis=1).ravel()
        hit = np.flatnonzero(cell)
        r, c = np.divmod(hit, width - 1)
        rows.append(nodes[part][r])
        cols.append(first[r] + 1 + c)
        vals.append(cell[hit])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def mu_generator(spec, mu, state_grid):
    """Discretize the speed-``mu`` jump chain on a state grid.

    Flow moves are snapped to the two grid nodes around the target with a
    mean-preserving mass split; genuine jumps are discretized by CDF
    differences over the grid cells.  A flow target outside the union of
    the grid cells raises a coverage error.

    Jump cells are evaluated only on the band ``[x + lo, x + hi]`` of each
    node, ``(lo, hi) = spec.kernel.support`` (``(-m, m)`` for a uniform law,
    ``(d, d)`` for a shift), widened by two cells a side to absorb
    rounding; ``spec.kernel.cdf(x, y)`` is called with a column of nodes
    against a block of midpoints and must broadcast.  The kernel CDF must be
    nondecreasing with values in ``[0, 1]``; it is then checked to be
    exactly 0 at the lower band edge and exactly 1 at the upper one, so
    every cell outside the band has mass exactly 0, as a full-grid
    evaluation would give.  A CDF that fails the check puts mass beyond the
    support and raises a ``ValueError`` naming the node.  Flow and
    jump masses are summed per entry, the self mass is struck out and each
    row is divided by what remains; a row that keeps at most ``1e-9`` is
    frozen (intensity 0, kernel ``(i, i) = 1``).
    """
    if not math.isfinite(mu) or mu < 1.0:
        raise ValueError("mu must be finite and at least 1")
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
    lam = spec.intensity(grid)
    total = mu + lam
    w_flow = mu / total
    jumping = np.flatnonzero(lam > 0.0)
    jr, jc, jv = _jump_cells(spec.kernel, grid, jumping)
    rows = np.arange(n)
    mass = [w_flow * (1.0 - theta), w_flow * theta, (lam / total)[jr] * jv]
    summed = Kernel.from_coo(
        np.concatenate([rows, rows, jr]), np.concatenate([j, j + 1, jc]), np.concatenate(mass), n
    )  # sums the (at most two) terms of each entry
    self_mass = summed.diagonal()
    keep = 1.0 - self_mass
    frozen = keep <= 1e-9  # everything returned to the start node
    r = summed.rows
    on_diag = summed.indices == r
    live = ~on_diag & ~frozen[r]
    data = np.zeros_like(summed.data)
    data[live] = summed.data[live] / keep[r[live]]
    data[on_diag & frozen[r]] = 1.0
    kernel = Kernel.from_coo(r, summed.indices, data, n)
    leak = 0.0
    if jumping.size:
        edge = np.asarray(
            spec.kernel.cdf(
                grid[jumping, None], np.array([grid[0] - half_lo, grid[-1] + half_hi])
            ),
            dtype=float,
        )
        leak = max(0.0, float(np.max(edge[:, 0])), float(np.max(1.0 - edge[:, 1])))
    gen = JumpGeneratorSpec(grid, np.where(frozen, 0.0, total * keep), kernel)
    return MuApproximation(
        float(mu), gen, grid, targets, total, self_mass, float(leak)
    )


def simulate_pdmp(spec, p0, t, n_paths, seed):
    """Thinning simulation of the process itself; empirical endpoint law.

    The paths flow between candidates, so candidates arrive at the global
    intensity bound (Lewis and Shedler); each candidate is accepted with
    probability intensity/bound evaluated just before the event, with the
    drift's closed-form flow between candidates.  Every path is checked
    against the displacement bound
    ``drift_bound * t + jump_bound * (number of jumps)``.
    Deterministic given the seed: all paths read one seeded stream, with the
    flow advanced for all live paths in lockstep rounds.
    """
    if not isinstance(p0, DiscreteMeasure):
        raise TypeError("initial law must be a DiscreteMeasure")
    lb = spec.intensity_bound

    def event(x, u):
        return x, spec.intensity(x) >= lb * (1.0 - u)

    x_start, x, n_jumps = _thinning(
        p0.support,
        np.cumsum(p0.weights) / p0.total_mass,
        t,
        lambda x: np.full(x.size, lb),
        n_paths,
        seed,
        event,
        spec.kernel.quantile,
        advance=lambda x, s: flow(spec, x, s),
    )
    limit = spec.drift_bound * t + spec.jump_bound * n_jumps
    if np.any(np.abs(x - x_start) > limit + 1e-6 * (1.0 + limit)):
        raise RuntimeError("a path violated the displacement bound")
    support, counts = np.unique(x, return_counts=True)
    return DiscreteMeasure(support, counts / n_paths, mass_tol=1e-9)


def simulate_chain(spec, p0, t, mu, n_paths, seed):
    """Thinning simulation of the speed-``mu`` chain; empirical endpoint law.

    The chain holds still between events, so each path's candidates arrive
    at its own state's rate ``mu + intensity(x)`` and every one is an event.
    One uniform draw splits it two ways: a flow step to the time-``1/mu``
    flow target, or a genuine jump.  Exact in law (no state grid involved)
    and deterministic given the seed.
    """
    if not isinstance(p0, DiscreteMeasure):
        raise TypeError("initial law must be a DiscreteMeasure")
    if mu < 1.0 or not math.isfinite(mu):
        raise ValueError("mu must be finite and at least 1")

    def rate(x):
        return mu + spec.intensity(x)

    def event(x, u):
        move = rate(x) * u <= mu
        if np.any(move):
            x[move] = flow(spec, x[move], 1.0 / mu)
        return x, ~move

    _, x, _ = _thinning(
        p0.support,
        np.cumsum(p0.weights) / p0.total_mass,
        t,
        rate,
        n_paths,
        seed,
        event,
        spec.kernel.quantile,
    )
    support, counts = np.unique(x, return_counts=True)
    return DiscreteMeasure(support, counts / n_paths, mass_tol=1e-9)


def embed_on_grid(m, grid):
    """Mean-preserving relocation of an atomic law onto grid nodes."""
    grid = np.asarray(grid, dtype=float)
    if np.any(m.support < grid[0]) or np.any(m.support > grid[-1]):
        raise CoverageError("measure support leaves the grid span")
    j = np.clip(np.searchsorted(grid, m.support, side="right") - 1, 0, grid.size - 2)
    theta = (m.support - grid[j]) / (grid[j + 1] - grid[j])
    masses = np.zeros(grid.size)
    np.add.at(masses, j, m.weights * (1.0 - theta))
    np.add.at(masses, j + 1, m.weights * theta)
    keep = masses > 0.0
    return DiscreteMeasure(grid[keep], masses[keep], mass_tol=1e-9)


def atomize(gm):
    """Collapse a continuous grid law to one atom per cell (cell mass)."""
    mids = 0.5 * (gm.grid[1:] + gm.grid[:-1])
    return DiscreteMeasure(mids, np.diff(gm.cdf_values), mass_tol=1e-9)


def cell_law(grid, masses):
    """Piecewise-uniform law spreading node masses over their grid cells."""
    grid = np.asarray(grid, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if grid.shape != masses.shape or grid.size < 2:
        raise ValueError("grid and masses must be equal-length, size >= 2")
    first = int(np.argmax(masses > 0.0))
    last = masses.size - 1 - int(np.argmax(masses[::-1] > 0.0))
    grid = grid[first : last + 1]
    masses = masses[first : last + 1]
    if np.any(masses <= 0.0):
        raise ValueError("interior cell without mass")
    steps = np.diff(grid)
    bounds = np.concatenate(
        [
            [grid[0] - 0.5 * steps[0]],
            0.5 * (grid[1:] + grid[:-1]),
            [grid[-1] + 0.5 * steps[-1]],
        ]
    )
    cdf = np.concatenate([[0.0], np.cumsum(masses) / np.sum(masses)])
    cdf[-1] = 1.0
    return GridMeasure(bounds, cdf)


@dataclass(frozen=True)
class MuConvergenceReport:
    """Convergence diagnostics of the chain family toward the process.

    ``identity_residuals`` holds each chain pair's ``EvolutionReport.max_residual``;
    ``cauchy_x``/``cauchy_y`` hold the transport distance from each chain's
    time-``t`` marginal to the reference chain at twice the largest speed;
    ``potential_gap`` holds, per consecutive speed pair, the largest
    difference of generator-applied dual potentials over the bulk window.
    """

    mu_list: np.ndarray
    grid: np.ndarray
    grid_step: float
    embed_error_x: float
    embed_error_y: float
    identity_residuals: np.ndarray
    cauchy_x: np.ndarray
    cauchy_y: np.ndarray
    potential_gap: np.ndarray
    reference_mu: float
    cauchy_decreasing_x: bool
    cauchy_decreasing_y: bool
    potential_gap_decreasing: bool

    def to_csv(self, target):
        """Write `mu,identity_residual,cauchy_x,cauchy_y,potential_gap`."""
        missing = self.mu_list.size - self.potential_gap.size
        write_table(
            target,
            "mu,identity_residual,cauchy_x,cauchy_y,potential_gap",
            (
                self.mu_list,
                self.identity_residuals,
                self.cauchy_x,
                self.cauchy_y,
                np.append(self.potential_gap, np.full(missing, math.nan)),
            ),
        )


def mu_convergence_study(
    specX,
    specY,
    p0X,
    p0Y,
    rho,
    t,
    mu_list,
    grid_nodes=2049,
    identity_steps=200,
):
    """Solve the chain family exactly and certify its convergence trends.

    For every speed in ``mu_list`` the chain is solved on a shared grid
    sized from the drift bound and a high-probability jump count; the
    evolution identity is verified on the chain pair, and its last node is
    compared against the reference chain at twice the largest speed.  When
    ``specY is specX`` each chain is built once and serves both sides.
    """
    mu_arr = np.asarray(mu_list, dtype=float)
    if mu_arr.size < 1 or np.any(np.diff(mu_arr) <= 0) or mu_arr[0] < 1.0:
        raise ValueError("mu_list must be increasing with entries >= 1")
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    lam_bar = max(specX.intensity_bound, specY.intensity_bound)
    n_jump_bound = _poisson_window(lam_bar * t, 1e-9)[3] + 2 if lam_bar > 0 else 0
    reach = (
        max(specX.drift_bound, specY.drift_bound) * t
        + max(specX.jump_bound, specY.jump_bound) * n_jump_bound
    )
    lo = min(p0X.support.min(), p0Y.support.min()) - reach - 1.0
    hi = max(p0X.support.max(), p0Y.support.max()) + reach + 1.0
    grid = np.linspace(lo, hi, grid_nodes)
    step = grid[1] - grid[0]
    e0X = embed_on_grid(p0X, grid)
    e0Y = embed_on_grid(p0Y, grid)
    embed_x = wasserstein(p0X, e0X, 1.0)
    embed_y = wasserstein(p0Y, e0Y, 1.0)

    def chains(mu):
        apprX = mu_generator(specX, mu, grid)
        return apprX, apprX if specY is specX else mu_generator(specY, mu, grid)

    mu_ref = 2.0 * mu_arr[-1]
    refX, refY = chains(mu_ref)
    ref_x = uniformized_marginal(refX.generator, e0X, t)
    ref_y = uniformized_marginal(refY.generator, e0Y, t)
    w_lo = quantile(ref_x, 0.005)
    w_hi = quantile(ref_x, 0.995)
    window = (grid >= w_lo) & (grid <= w_hi)

    residuals = np.empty(mu_arr.size)
    cauchy_x = np.empty(mu_arr.size)
    cauchy_y = np.empty(mu_arr.size)
    applied = []
    for k, mu in enumerate(mu_arr):
        apprX, apprY = chains(mu)
        rep = verify_identity(
            apprX.generator, apprY.generator, e0X, e0Y, rho, t, identity_steps
        )
        residuals[k] = rep.max_residual
        mx, my = rep.final_x, rep.final_y
        cauchy_x[k] = wasserstein(mx, ref_x, rho)
        cauchy_y[k] = wasserstein(my, ref_y, rho)
        applied.append(apply_generator(apprX.generator, rep.final_pair.psi_at(grid)))
    gaps = np.array(
        [
            float(np.max(np.abs((applied[k + 1] - applied[k])[window])))
            for k in range(len(applied) - 1)
        ]
    )
    return MuConvergenceReport(
        mu_arr,
        grid,
        float(step),
        float(embed_x),
        float(embed_y),
        residuals,
        cauchy_x,
        cauchy_y,
        gaps,
        mu_ref,
        bool(np.all(np.diff(cauchy_x) < 0.0)),
        bool(np.all(np.diff(cauchy_y) < 0.0)),
        bool(gaps.size < 2 or np.all(np.diff(gaps) < 0.0)),
    )


def propagation_constants(spec, c0, C0, t, q, mu):
    """Closed-form displacement-moment and tail-envelope constants.

    Valid uniformly over chain speeds from ``1/t`` up to the process itself;
    the moment constant bounds ``E|X_t - X_0|^q`` and the tail constant
    ``c_t`` extends the initial envelope ``(c0, C0)`` to time ``t`` with the
    same exponential rate.  :func:`propagation_check` audits both against a
    seeded simulation.
    """
    if not c0 >= 1.0:  # NaN fails every comparison
        raise ValueError("c0 must be at least 1")
    if not (C0 > 0.0 and t > 0.0 and q > 0.0):
        raise ValueError("C0, t, q must be positive")
    if not mu >= 1.0 / t:
        raise ValueError("mu below 1/t is outside the certified range")
    vb = spec.drift_bound
    m = spec.jump_bound
    lb = spec.intensity_bound
    q_factor = (q / math.e) ** q
    moment_bound = 2.0 ** max(q - 1.0, 0.0) * (
        vb**q * t**q * q_factor * math.exp(math.e)
        + m**q * q_factor * math.exp(lb * t * (math.e - 1.0))
    )
    c_t = (
        c0**2
        * math.exp(
            t * (math.exp(C0 * vb) - math.exp(-C0 * vb))
            + lb * t * (math.exp(C0 * m) - math.exp(-C0 * m))
        )
    )
    return float(moment_bound), float(c_t)


@dataclass(frozen=True)
class PropagationAudit:
    """Simulated values against the closed-form constants ``moment_bound``, ``c_t``.

    ``moment_estimate`` is ``E|X_t - X_0|^q`` from a point start with standard
    error ``moment_sigma``; ``moment_envelope`` is ``moment_bound`` plus four
    sigma.  ``worst_tail_ratio`` is the largest probed tail ratio over its cap
    ``c_t exp(C0 y)``, from a start smoothed with ``initial_tail_constants``.
    """

    moment_bound: float
    c_t: float
    moment_estimate: float
    moment_sigma: float
    moment_envelope: float
    worst_tail_ratio: float
    initial_tail_constants: TailConstants

    @property
    def moment_ok(self):
        return bool(self.moment_estimate <= self.moment_envelope)

    @property
    def tails_ok(self):
        return bool(self.worst_tail_ratio <= 1.0)


_TAIL_QUANTILES = np.linspace(0.05, 0.95, 10)  # tail probe points, as empirical quantiles
_TAIL_OFFSETS = np.array([0.25, 0.5, 1.0, 2.0])  # tail probe shifts y


def propagation_check(spec, c0, C0, t, q, mu, n_paths, seed):
    """Simulation audit of the closed-form propagation constants.

    The displacement moment is estimated from a point start (displacement
    law equals the endpoint law shifted), with a four-sigma CLT envelope on
    top of the closed-form bound.  Tail ratios of the marginal started from
    the Laplace-smoothed point mass (scale ``1/C0``, so the initial envelope
    holds with constants ``(1, C0)``) are probed at the empirical quantiles
    0.05, 0.15, ..., 0.95 and shifts 0.25, 0.5, 1 and 2, on both CDF and
    survival sides, against ``c_t * exp(C0 y)``; probes whose denominator
    carries fewer than 25 paths are skipped as pure noise.
    """
    moment_bound, c_t = propagation_constants(spec, c0, C0, t, q, mu)
    simulate = (
        simulate_pdmp
        if math.isinf(mu)
        else (lambda sp, m0, tt, n, sd: simulate_chain(sp, m0, tt, mu, n, sd))
    )
    start = DiscreteMeasure([0.0], [1.0])
    emp = simulate(spec, start, t, n_paths, seed)
    disp = np.abs(emp.support - 0.0) ** q
    mean = float(np.sum(disp * emp.weights))
    second = float(np.sum(disp**2 * emp.weights))
    sigma = math.sqrt(max(second - mean**2, 0.0) / n_paths)
    envelope = moment_bound + 4.0 * sigma
    smooth, tail0 = laplace_smooth(start, 1.0 / C0)
    emp_s = simulate(spec, atomize(smooth), t, n_paths, seed + 1)
    cum = np.cumsum(emp_s.weights)
    total = cum[-1]
    floor = 25.0 / n_paths

    def cdf_at(pts):
        j = np.searchsorted(emp_s.support, pts, side="right")
        return np.where(j > 0, cum[np.maximum(j - 1, 0)], 0.0)

    worst = 0.0
    for uq in _TAIL_QUANTILES:
        k = int(np.searchsorted(cum, uq * total))
        xq = float(emp_s.support[min(k, emp_s.support.size - 1)])
        f_x = float(cdf_at(np.array([xq]))[0])
        s_x = total - float(cdf_at(np.array([xq - 1e-12]))[0])
        for y in _TAIL_OFFSETS:
            cap = c_t * math.exp(C0 * y)
            if f_x >= floor:
                ratio = float(cdf_at(np.array([xq + y]))[0]) / f_x
                worst = max(worst, ratio / cap)
            if s_x >= floor:
                sf_up = total - float(cdf_at(np.array([xq - y - 1e-12]))[0])
                worst = max(worst, (sf_up / s_x) / cap)
    return PropagationAudit(moment_bound, c_t, mean, sigma, envelope, worst, tail0)
