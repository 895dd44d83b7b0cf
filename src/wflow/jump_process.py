"""Finite-state pure jump processes solved exactly by uniformization.

One clock expansion gives every forward marginal: a Poisson clock of rate
``lambda_bar`` ticks, and at a tick state ``x`` jumps by the kernel with
probability ``lambda(x)/lambda_bar``, so the law at time ``t`` is
``sum_m pmf(m; lambda_bar t) A^m P``, cut below and above where the clock
tails drop below the tolerance.  The Poisson weights are Fox & Glynn's
(1988): a recursion from the mode over a window that holds all but far less
than the smallest double of the mass, with the tails summed from the right.
Jump kernels are frozen CSR :class:`Kernel` objects whose products are
``np.bincount`` sums, so the module needs numpy only.  One loop ticks every
clock: it runs a chain ``A^m P`` from ``t = 0`` and weights it into Poisson
windows.  :func:`marginal_path` asks it for one window per node, each
:class:`Marginal` with its own tails, and :func:`uniformized_marginal` is its
one-node path.  :func:`layer_stack` asks for one window, cut only above and
reaching at least ``n_max`` ticks, on rows split by genuine-jump count, which
restores the exact per-state survival factors ``exp(-lambda(x) t)`` of the
layers.

The module also evaluates the layer comparison inequalities (time equivalence
and the factorial sandwich against the weighted-kernel chain), the kernel
moment bound with its explicit constant, the moment growth bound, and a
thinning Monte Carlo simulator that reads one seeded random stream per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wflow.measures import DiscreteMeasure

__all__ = [
    "NumericalError",
    "Kernel",
    "JumpGeneratorSpec",
    "LayerStack",
    "LayerInequalityReport",
    "KernelMomentBound",
    "Marginal",
    "marginal_path",
    "uniformized_marginal",
    "layer_stack",
    "layer_inequality_report",
    "kernel_moment_bound",
    "kernel_moment_constant",
    "kernel_moment_constant_limit",
    "moment_growth_bound",
    "simulate_paths",
]


class NumericalError(RuntimeError):
    """A computed marginal broke its declared mass tolerance."""


@dataclass(frozen=True, eq=False)
class Kernel:
    """An ``n x n`` matrix in canonical CSR form, with its two products.

    ``indptr``, ``indices`` and ``data`` hold the rows in order, the columns
    strictly increasing within a row and no stored zero; the constructor
    copies them read-only and rejects any other layout, so build a kernel
    from COO triplets with :meth:`from_coo`.  :meth:`apply` and
    :meth:`apply_t` add each output entry's terms in stored order, the order
    of a CSR matrix-vector product, starting from zero.  ``rows`` holds the
    row of each stored entry.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n: int

    def __post_init__(self):
        n = int(self.n)
        fields = {"n": n}
        for name, dtype in (("indptr", np.intp), ("indices", np.intp), ("data", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            fields[name] = arr
        indptr, indices = fields["indptr"], fields["indices"]
        if (
            indptr.shape != (n + 1,)
            or indptr[0] != 0
            or np.any(np.diff(indptr) < 0)
            or indices.shape != (indptr[-1],)
            or fields["data"].shape != indices.shape
        ):
            raise ValueError(f"indptr, indices and data do not form an {n}x{n} CSR matrix")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        rows.flags.writeable = False
        key = rows * n + indices
        if np.any(indices < 0) or np.any(indices >= n) or np.any(np.diff(key) <= 0):
            raise ValueError("CSR columns must be in range and strictly increasing per row")
        if np.any(fields["data"] == 0.0):
            raise ValueError("canonical CSR stores no zeros")
        # the transpose: entries grouped by column, in row order within a column
        order = np.argsort(indices, kind="stable")
        fields["rows"] = rows
        fields["_t"] = (indices[order], rows[order], fields["data"][order])
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_coo(cls, rows, cols, vals, n):
        """Canonical kernel from COO triplets.

        Entries are sorted by row and column, duplicates are summed in their
        given order and zero sums are dropped; non-finite values are kept.
        """
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("rows, cols and vals must have one length")
        if np.any(rows < 0) or np.any(rows >= n) or np.any(cols < 0) or np.any(cols >= n):
            raise ValueError(f"COO entries must lie in an {n}x{n} matrix")
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        summed = np.bincount(np.cumsum(first) - 1, vals[order])
        key = key[first]
        stored = summed != 0.0
        key, summed = key[stored], summed[stored]
        counts = np.bincount(key // n, minlength=n)
        return cls(np.concatenate([[0], np.cumsum(counts)]), key % n, summed, n)

    def apply(self, f):
        """``K f``: row ``x`` is ``sum_y k(x, y) f(y)``."""
        return np.bincount(self.rows, self.data * f.take(self.indices), minlength=self.n)

    def apply_t(self, v):
        """``K^T v``, applied to each row of a 2-d ``v``."""
        cols, rows, data = self._t
        if v.ndim == 1:
            return np.bincount(cols, data * v.take(rows), minlength=self.n)
        bins = cols + self.n * np.arange(v.shape[0])[:, None]
        out = np.bincount(bins.ravel(), (data * v.take(rows, axis=1)).ravel(), minlength=v.size)
        return out.reshape(v.shape)

    def diagonal(self):
        out = np.zeros(self.n)
        on = self.indices == self.rows
        out[self.rows[on]] = self.data[on]
        return out

    def toarray(self):
        out = np.zeros((self.n, self.n))
        out[self.rows, self.indices] = self.data
        return out

    def tocsr(self):
        """The kernel itself: it already exposes ``indptr``, ``indices`` and ``data``."""
        return self


def _as_kernel(kernel, n):
    """A :class:`Kernel` from a kernel, a dense ``n x n`` array or anything with ``.tocsr()``."""
    if isinstance(kernel, Kernel):
        if kernel.n != n:
            raise ValueError(f"kernel must be {n}x{n}")
        return kernel
    if hasattr(kernel, "tocsr"):
        csr = kernel.tocsr()
        if tuple(csr.shape) != (n, n):
            raise ValueError(f"kernel must be {n}x{n}")
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        return Kernel.from_coo(rows, csr.indices, csr.data, n)
    dense = np.asarray(kernel, dtype=float)
    if dense.shape != (n, n):
        raise ValueError(f"kernel must be {n}x{n}")
    rows, cols = np.nonzero(dense)
    return Kernel.from_coo(rows, cols, dense[rows, cols], n)


class JumpGeneratorSpec:
    """Finite-state jump generator: per-state intensity and jump kernel.

    Parameters
    ----------
    states : array_like
        Strictly increasing real state values.
    lam : array_like
        Nonnegative jump intensity per state.
    kernel : Kernel, array_like or object with ``.tocsr()``
        Row-stochastic jump distribution ``k(x, .)``: a :class:`Kernel`, a
        dense ``n x n`` array, or any sparse matrix whose ``.tocsr()`` has
        ``indptr``, ``indices``, ``data`` and ``shape``, read without
        importing its library.  It is stored as a canonical :class:`Kernel`.
        Entries must be finite and nonnegative, rows must sum to 1 within
        1e-12, and a state with positive intensity must not jump to itself;
        any other kernel raises ``ValueError``.
    """

    def __init__(self, states, lam, kernel):
        states = np.asarray(states, dtype=float)
        lam = np.asarray(lam, dtype=float)
        if states.ndim != 1 or states.shape != lam.shape or states.size == 0:
            raise ValueError("states and lam must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(lam))):
            raise ValueError("states and intensities must be finite")
        if states.size > 1 and np.any(np.diff(states) <= 0):
            raise ValueError("states must be strictly increasing")
        if np.any(lam < 0):
            raise ValueError("intensities must be nonnegative")
        n = states.size
        kernel = _as_kernel(kernel, n)
        if not np.all(np.isfinite(kernel.data)):
            raise ValueError("kernel entries must be finite")
        if np.any(kernel.data < 0):
            raise ValueError("kernel entries must be nonnegative")
        if np.any(np.abs(kernel.apply(np.ones(n)) - 1.0) > 1e-12):
            raise ValueError("kernel rows must sum to 1 within 1e-12")
        if np.any(lam * kernel.diagonal() != 0.0):
            raise ValueError("a state with positive intensity cannot jump to itself")
        self.states = states
        self.lam = lam
        self.kernel = kernel
        self.lambda_bar = lb = float(lam.max())
        self._keep = (lb - lam) / lb if lb > 0 else np.ones(n)  # mass a clock tick keeps

    @property
    def n_states(self):
        return self.states.size

    def weighted_kernel_apply(self, v):
        """``(K^T diag(lam)) v``: one step of the weighted chain, per row of a 2-d v."""
        return self.kernel.apply_t(self.lam * v)


class Marginal(DiscreteMeasure):
    """Forward marginal, not renormalized, with its declared truncation.

    The node sums the clock ticks ``m_min..m_max`` of its own Poisson clock
    from ``t = 0``.  ``truncation_error`` is the larger of the two clock tails
    it cuts, ``P(N < m_min) + P(N > m_max)``, and the mass rounding lost
    against ``initial_mass``; it is the node's own, not summed over earlier
    nodes.
    """

    def __init__(
        self, support, weights, clock_tail, m_max, initial_mass, mass_tol=1e-12, m_min=0
    ):
        super().__init__(support, weights, mass_tol=mass_tol)
        self.truncation_error = max(clock_tail, initial_mass - self.total_mass)
        self.m_min = int(m_min)
        self.m_max = int(m_max)


@dataclass
class LayerStack:
    """Jump-count layers of a forward marginal with the weighted-kernel chain.

    ``layers[n]`` is the sub-probability vector of states reached with exactly
    ``n`` genuine jumps; ``q_chain[n]`` is the intensity-weighted kernel chain
    started from the initial law.  ``truncation_error`` bounds the total mass
    missing from the listed layers: the clock tail above the window plus its
    weight on ticks above ``n_max``, which bounds the deeper layers.
    """

    states: np.ndarray
    layers: list
    q_chain: list
    truncation_error: float

    def total(self):
        """Componentwise sum of the layers."""
        return np.sum(np.stack(self.layers), axis=0)


def _state_vector(gen, p0):
    """Initial law as a dense vector over gen.states (exact state match)."""
    if not isinstance(p0, DiscreteMeasure):
        raise TypeError("initial law must be a DiscreteMeasure")
    idx = np.searchsorted(gen.states, p0.support)
    if np.any(idx >= gen.n_states) or np.any(gen.states[np.minimum(idx, gen.n_states - 1)] != p0.support):
        raise ValueError("initial law must be supported on the generator's states")
    v = np.zeros(gen.n_states)
    v[idx] = p0.weights
    return v


def _poisson_window(mu, tol, top=0):
    """Poisson(mu) weights by recursion from the mode (Fox & Glynn, CACM 31, 1988).

    Returns ``(lo, pmf, tails, m_max)``: the probabilities and the tails
    ``P(N > k)`` on the window ``k = lo..K``, and the smallest ``m_max`` with
    ``P(N > m_max) < tol``.  The window is ``mode +/- (40 sqrt(mu) + 60)``,
    cut at 0 and reaching at least ``top``; beyond it every probability is
    below ``exp(-800)``, which no double holds, so the weights are divided by
    their window sum and the tails are the reversed cumulative sum.
    ``mu <= 0`` gives the point mass at 0.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if mu <= 0.0:
        pmf = np.zeros(top + 1)
        pmf[0] = 1.0
        return 0, pmf, np.zeros(top + 1), 0
    mode = int(mu)
    width = int(40.0 * math.sqrt(mu) + 60.0)
    lo = max(mode - width, 0)
    hi = max(mode + width, top)
    # pmf(k) / pmf(mode): products of mu / k above the mode, of k / mu below it
    up = np.cumprod(mu / np.arange(mode + 1, hi + 1))
    down = np.cumprod(np.arange(mode, lo, -1) / mu)[::-1]
    ratio = np.concatenate([down, [1.0], up])
    pmf = ratio / ratio.sum()
    tails = np.zeros(pmf.size)
    tails[:-1] = np.cumsum(pmf[:0:-1])[::-1]
    return lo, pmf, tails, lo + int(np.argmax(tails < tol))


def _clock_window(mu, budget):
    """The ticks a node at clock mean ``mu`` sums, with their weights and cut tails.

    ``m_max`` is the Fox-Glynn cutoff of :func:`_poisson_window` at
    ``budget``; ``m_min`` is the largest lower cut whose tail ``P(N < m_min)``,
    added to ``P(N > m_max)``, stays below ``budget``.  Returns
    ``(pmf[m_min..m_max], m_min, m_max, tail)`` with ``tail`` the two tails'
    sum, strictly below ``budget``.
    """
    lo, pmf, tails, m_max = _poisson_window(mu, budget)
    end = m_max - lo
    # below[i] = P(N <= lo + i) + P(N > m_max): the tail of a cut just above lo + i
    below = np.cumsum(pmf[:end]) + tails[end]
    cut = int(np.searchsorted(below, budget))
    tail = below[cut - 1] if cut else tails[end]
    return pmf[cut : end + 1], lo + cut, m_max, float(tail)


_BLOCK = 256  # clock ticks held in memory at once, fewer when a tick is large


def _clock_sums(tick, u, windows):
    """``sum_m pmf[m] tick^m(u)`` for each window ``(pmf, m_min, m_max, ...)``.

    A window weights ticks ``m_min..m_max``, as :func:`_clock_window` gives
    it.  One chain of ticks runs from ``u`` out to the largest ``m_max``, at
    most ``_BLOCK`` ticks and about ``2**19`` doubles (4 MiB) at a time, and
    each block is weighted into the windows it meets by one single-threaded
    ``einsum``.  Returns one sum per window, each shaped like ``u``.
    """
    first = np.array([w[1] for w in windows])
    last = np.array([w[2] for w in windows])
    n_ticks = int(last.max()) + 1
    size = max(1, min(_BLOCK, 2**19 // u.size))
    acc = np.zeros((len(windows), u.size))
    block = np.empty((min(size, n_ticks), u.size))
    for start in range(0, n_ticks, size):
        stop = min(start + size, n_ticks)
        rows = block[: stop - start]
        for i in range(rows.shape[0]):
            if start + i:
                u = tick(u)
            rows[i] = u.ravel()
        hit = np.flatnonzero((first < stop) & (last >= start))
        weights = np.zeros((hit.size, rows.shape[0]))
        for j, k in enumerate(hit):
            a, b = max(first[k], start), min(last[k] + 1, stop)
            weights[j, a - start : b - start] = windows[k][0][a - first[k] : b - first[k]]
        # einsum, not BLAS: a threaded matmul of these small blocks spins idle cores
        acc[hit] += np.einsum("km,mn->kn", weights, rows)
    return acc.reshape((len(windows),) + u.shape)


def marginal_path(gen, p0, times, tol=1e-12):
    """Exact forward marginals at the nodes ``times``, one :class:`Marginal` each.

    One clock runs from ``t = 0``: the chain ``u_m = tick^m(v0)`` goes out to
    the largest node cutoff, and node ``k`` is ``sum_m pmf(m; lambda_bar
    t_k) u_m`` over its own Poisson window, cut above and below with
    tolerance ``tol / len(times)`` (see :class:`Marginal`).  Raises ``ValueError`` on empty,
    non-finite, negative or decreasing times, on ``tol <= 0``, or when
    ``p0`` leaves the generator's states, and :class:`NumericalError` when a
    node keeps no positive mass or its mass leaves ``1 +/- max(2 tol,
    1e-12)`` (rounding loss beyond the tolerance).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a nonempty 1-d array of finite values")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("time must be nonnegative and nondecreasing")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lb = gen.lambda_bar

    def tick(u):
        return gen._keep * u + gen.weighted_kernel_apply(u) / lb

    windows = [_clock_window(lb * t, tol / times.size) for t in times]
    acc = _clock_sums(tick, _state_vector(gen, p0), windows)
    mass_tol = max(2 * tol, 1e-12)
    path = []
    for t, v, (_, m_min, m_max, tail) in zip(times, acc, windows):
        keep = v > 0.0
        if not np.any(keep):
            raise NumericalError(f"marginal at t={float(t)!r} has no positive mass")
        total = float(v[keep].sum())
        if abs(total - 1.0) > mass_tol:
            raise NumericalError(
                f"marginal at t={float(t)!r} sums to {total!r}, outside 1 +/- {mass_tol!r}"
            )
        path.append(
            Marginal(gen.states[keep], v[keep], tail, m_max, p0.total_mass, mass_tol, m_min)
        )
    return path


def uniformized_marginal(gen, p0, t, tol=1e-10):
    """Exact forward marginal at time ``t`` up to declared Poisson tails.

    The one-node :func:`marginal_path`, not renormalized: ``m_max`` is the
    clock cutoff at ``tol``, and ``truncation_error`` declares the two clock
    tails the window cuts (together strictly below ``tol``) or the mass
    missing against ``p0`` when rounding lost more.  Raises ``ValueError`` if
    ``t < 0``, ``tol <= 0``, or ``p0`` leaves the generator's states, and
    :class:`NumericalError` as :func:`marginal_path` does.
    """
    return marginal_path(gen, p0, [t], tol=tol)[0]


def layer_stack(gen, p0, t, n_max, tol=1e-13):
    """Genuine-jump layers ``P_{n,t}`` for ``n <= n_max`` with the weighted chain.

    The clock of :func:`marginal_path` runs on an ``(n_max + 1) x n_states``
    block: a tick keeps each layer with weight ``1 - lam(x)/lambda_bar`` and
    moves layer ``n - 1`` into layer ``n`` through the kernel otherwise;
    Poisson weights restore the exact per-state survival factors.  ``tol``
    cuts the upper clock tail only, since a lower cut would empty every layer
    below it; the window starts where the Fox-Glynn weights do and reaches
    ``n_max`` ticks, so every listed layer fills.  ``t`` must be finite and
    nonnegative.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    v0 = _state_vector(gen, p0)
    q_chain = [v0]
    for _ in range(n_max):
        q_chain.append(gen.weighted_kernel_apply(q_chain[-1]))

    def tick(block):
        out = gen._keep * block
        out[1:] += gen.weighted_kernel_apply(block[:-1]) / gen.lambda_bar
        return out

    block = np.zeros((n_max + 1, gen.n_states))
    block[0] = v0
    mu = gen.lambda_bar * t
    # no lower cut: a layer below it would lose all its low-tick mass
    lo, pmf, tails, m_tol = _poisson_window(mu, tol, top=n_max)
    # a running clock ticks at least n_max times, so every listed layer fills
    m_max = max(m_tol, n_max) if mu > 0.0 else 0
    pmf = pmf[: m_max - lo + 1]
    layers = _clock_sums(tick, block, [(pmf, lo, m_max)])[0]
    # mass in layers beyond n_max is at most the clock weight on ticks beyond n_max
    deeper = float(pmf[max(n_max + 1 - lo, 0) :].sum())
    return LayerStack(gen.states, list(layers), q_chain, float(tails[m_max - lo]) + deeper)


@dataclass(frozen=True)
class LayerInequalityReport:
    """Componentwise violation maxima for the layer comparison inequalities."""

    equivalence_violation: float
    sandwich_lower_violation: float
    sandwich_upper_violation: float

    @property
    def max_violation(self):
        return max(
            self.equivalence_violation,
            self.sandwich_lower_violation,
            self.sandwich_upper_violation,
        )


def layer_inequality_report(gen, p0, s, t, n_max):
    """Check the time-equivalence and sandwich inequalities on the layers.

    For finite ``0 <= s`` and ``t > 0``: each layer at time s is dominated by
    ``exp(lambda_bar (t-s)^+) (s/t)^n`` times the layer at time t, and each
    layer at time t sits between ``exp(-lambda_bar t) t^n/n!`` and
    ``t^n/n!`` times the n-step weighted-kernel chain.  Returns the maximal
    componentwise violations (nonpositive values mean slack); the layers
    come from :func:`layer_stack` at its default clock tolerance.
    """
    if not 0.0 <= s < math.inf:
        raise ValueError("s must be finite and nonnegative")
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    stack_t = layer_stack(gen, p0, t, n_max)
    stack_s = layer_stack(gen, p0, s, n_max)
    lb = gen.lambda_bar
    factor = math.exp(lb * max(t - s, 0.0))
    equiv = -np.inf
    lo = -np.inf
    hi = -np.inf
    for n in range(n_max + 1):
        ratio = (s / t) ** n
        equiv = max(equiv, float(np.max(stack_s.layers[n] - factor * ratio * stack_t.layers[n])))
        weight = t**n / math.factorial(n)
        q = stack_t.q_chain[n]
        lo = max(lo, float(np.max(math.exp(-lb * t) * weight * q - stack_t.layers[n])))
        hi = max(hi, float(np.max(stack_t.layers[n] - weight * q)))
    return LayerInequalityReport(equiv, lo, hi)


def kernel_moment_constant(lambda_bar, eta, t):
    """Closed-form constant of the kernel moment bound at horizon ``t``."""
    if eta <= 0 or t <= 0:
        raise ValueError("need eta > 0 and t > 0")
    c_eta = math.exp((1.0 + eta) / (math.e * eta))
    growth = (math.exp(lambda_bar * t * (c_eta - 1.0)) - math.exp(-lambda_bar * t)) / t
    return math.exp(lambda_bar * t) * growth ** (eta / (1.0 + eta))


def kernel_moment_constant_limit(lambda_bar, eta):
    """Small-time limit of :func:`kernel_moment_constant`."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    c_eta = math.exp((1.0 + eta) / (math.e * eta))
    return (lambda_bar * c_eta) ** (eta / (1.0 + eta))


@dataclass(frozen=True)
class KernelMomentBound:
    lhs: float
    rhs: float
    constant: float


def kernel_moment_bound(gen, p0, t, f, eta):
    """Bound the kernel-averaged |f| against higher layer moments.

    lhs is ``integral lam(x) (integral |f(y)| k(x,dy)) P_t(dx)``; rhs is the
    constant times ``(sum_{n>=1} integral |f|^{1+eta} dP_{n,t} / t)`` to the
    power ``1/(1+eta)``.  Only the zero-jump layer needs isolating: it is the
    explicit survival-weighted initial law.  ``P_t`` is solved with clock
    tolerance 1e-13.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    if eta <= 0:
        raise ValueError("eta must be positive")
    f = np.asarray(f, dtype=float)
    if f.shape != gen.states.shape:
        raise ValueError("f must be tabulated on the generator's states")
    p_t = _state_vector(gen, uniformized_marginal(gen, p0, t, tol=1e-13))
    abs_f = np.abs(f)
    lhs = float(np.dot(p_t, gen.lam * gen.kernel.apply(abs_f)))
    p0_vec = _state_vector(gen, p0)
    layer0 = np.exp(-gen.lam * t) * p0_vec
    higher = np.maximum(p_t - layer0, 0.0)
    moment_sum = float(np.dot(higher, abs_f ** (1.0 + eta))) / t
    constant = kernel_moment_constant(gen.lambda_bar, eta, t)
    rhs = constant * moment_sum ** (1.0 / (1.0 + eta))
    return KernelMomentBound(lhs, rhs, constant)


def moment_growth_bound(gen, p0, alpha, t):
    """Exact absolute moment at time t with its factorial growth bound.

    The exact moment is taken from the marginal at clock tolerance 1e-12.
    The bound scales ``max(E|X_0|^alpha, sup_x integral |y-x|^alpha k(x,dy))``
    by a truncated exponential series in ``lambda_bar * t`` whose order is the
    integer ceiling of ``alpha``.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if t < 0:
        raise ValueError("time must be nonnegative")
    marg = uniformized_marginal(gen, p0, t, tol=1e-12)
    exact = float(np.sum(marg.weights * np.abs(marg.support) ** alpha))
    # integral |y - x|^alpha k(x, dy) per row, summed over the stored entries
    rows = gen.kernel.rows
    gap = np.abs(gen.states[gen.kernel.indices] - gen.states[rows]) ** alpha
    kernel_moment = np.max(np.bincount(rows, gen.kernel.data * gap, gen.n_states))
    p0_vec = _state_vector(gen, p0)
    k_bar = max(float(np.dot(p0_vec, np.abs(gen.states) ** alpha)), float(kernel_moment))
    ceil_a = math.ceil(alpha)
    mu = gen.lambda_bar * t
    series = sum((n + 1.0) ** alpha * mu**n / math.factorial(n) for n in range(ceil_a))
    series += (ceil_a + 1.0) ** alpha / math.factorial(ceil_a) * mu**ceil_a * math.exp(mu)
    return exact, k_bar * series


def _thinning(start, cum0, t, rate, n_paths, seed, event, jump, advance=None):
    """Lockstep thinning of ``n_paths`` paths at the dominating ``rate``.

    One generator seeded with ``seed`` serves the call, read in a fixed
    order: one uniform per path picks the start from ``start`` by the
    cumulative weights ``cum0``; then each round draws a gap for every live
    path, a uniform for every path whose candidate falls before ``t``, and
    one more for every path that jumps.  A path stops at the first candidate
    not before ``t``.  All live paths advance one candidate per round:

    * ``advance(x, s)`` moves states ``x`` along for times ``s``, between
      candidates and from the last candidate up to ``t`` (``None``: the
      paths hold still);
    * ``event(x, u)`` returns the states after the candidate and the mask
      of those that jump, given each path's uniform ``u``;
    * ``jump(x, u)`` returns the jump targets of states ``x``.

    Returns the start states, the end states and the jump count per path;
    ``t`` must be finite and nonnegative and ``n_paths`` positive.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if n_paths < 1:
        raise ValueError("need at least one path")
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


def simulate_paths(gen, p0, t, n_paths, seed):
    """Empirical endpoint law of thinning Monte Carlo paths.

    All paths read one stream seeded with ``seed``, so the result is identical
    for a given ``(seed, n_paths)``.  Events arrive at the dominating rate;
    an event at state x is accepted iff ``lam(x) >= lambda_bar * u`` with
    ``u`` uniform on (0, 1].
    """
    cum0 = np.cumsum(_state_vector(gen, p0))
    cum0[-1] = 1.0
    lb = gen.lambda_bar
    lam = gen.lam

    def event(i, u):
        return i, lam[i] >= lb * (1.0 - u)

    def jump(i, u):
        # inverse CDF of each kernel row over its stored entries, one
        # searchsorted per distinct row; the last stored entry takes the
        # rounding gap below 1
        order = np.argsort(i, kind="stable")
        rows, first = np.unique(i[order], return_index=True)
        out = np.empty_like(i)
        for r, sel in zip(rows, np.split(order, first[1:])):
            lo, hi = gen.kernel.indptr[r], gen.kernel.indptr[r + 1]
            cum = np.cumsum(gen.kernel.data[lo:hi])
            cum[-1] = 1.0
            out[sel] = gen.kernel.indices[lo:hi][np.searchsorted(cum, u[sel], side="right")]
        return out

    # an event exactly at t still counts: candidates run while their time is <= t
    horizon = float(np.nextafter(t, np.inf)) if t > 0 else t
    _, end, _ = _thinning(
        np.arange(gen.n_states), cum0, horizon, lb, n_paths, seed, event, jump
    )
    counts = np.bincount(end, minlength=gen.n_states)
    keep = counts > 0
    return DiscreteMeasure(gen.states[keep], counts[keep] / float(n_paths), mass_tol=1e-9)
