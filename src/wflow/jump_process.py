"""Finite-state pure jump processes solved exactly by uniformization.

One clock expansion gives every forward marginal: a Poisson clock of rate
``lambda_bar`` ticks, and at a tick state ``x`` jumps by the kernel with
probability ``lambda(x)/lambda_bar``, so the law at time ``t`` is
``sum_m pmf(m; lambda_bar t) A^m P``, cut below and above where the clock
tails drop below the tolerance.  The tick ``A`` is the uniformized jump
step: it keeps ``1 - lambda(x)/lambda_bar`` of the mass at ``x`` and moves
the rest through the kernel, each stored kernel entry pre-scaled once to
the share ``k(x, y) lambda(x)/lambda_bar`` it moves.  The Poisson weights
are Fox & Glynn's (1988): a recursion from the mode over a window that
holds all but far less than the smallest double of the mass, with the
tails summed from the right, run for every node of a path at once.  Jump
kernels are frozen CSR :class:`Kernel` objects whose products are
``np.bincount`` sums, so the module needs numpy only.  One loop ticks every
clock: it runs a chain ``A^m P`` from ``t = 0``, each tick written in place
into its row of a block of ticks, and weights each block into Poisson
windows.  :func:`marginal_path` asks it for one window per node, each
:class:`Marginal` with its own tails, and :func:`uniformized_marginal` is its
one-node path; paths of one generator on one grid share those windows and
one chain, whose tick steps a block with one row per start.
:func:`layer_stack` asks for one window, cut only above and reaching at
least ``n_max`` ticks, on rows split by genuine-jump count, which restores
the exact per-state survival factors ``exp(-lambda(x) t)`` of the layers;
:func:`layer_inequality_report` asks one clock for two such windows.

The module also evaluates the layer comparison inequalities (time equivalence
and the factorial sandwich against the weighted-kernel chain), the kernel
moment bound with its explicit constant, the moment growth bound, and a
thinning Monte Carlo simulator that reads one seeded random stream per call;
each path draws its candidates at a rate of its own state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wflow.measures import DiscreteMeasure, moment

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


_PRODUCT_CELLS = 2**14  # rows times stored entries per bincount of Kernel._product


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

    def _product(self, out, read, data, v):
        """``sum data * v[read]`` into the entries ``out``, per row of a 2-d ``v``.

        Each sum adds its entries in stored order.  A 2-d ``v`` runs in chunks
        of rows, about ``_PRODUCT_CELLS`` stored entries each: one long
        ``bincount`` over many rows of a large kernel is slower than one per
        row, and one per row is slower on a small kernel.
        """
        if v.ndim == 1:
            return np.bincount(out, data * v.take(read), minlength=self.n)
        step = max(1, _PRODUCT_CELLS // max(data.size, 1))
        if v.shape[0] > step:
            chunks = range(0, v.shape[0], step)
            return np.concatenate([self._product(out, read, data, v[s : s + step]) for s in chunks])
        bins = out + self.n * np.arange(v.shape[0])[:, None]
        sums = np.bincount(bins.ravel(), (data * v.take(read, axis=1)).ravel(), minlength=v.size)
        return sums.reshape(v.shape)

    def apply(self, f):
        """``K f``: row ``x`` is ``sum_y k(x, y) f(y)``; per row of a 2-d ``f``."""
        return self._product(self.rows, self.indices, self.data, f)

    def apply_t(self, v):
        """``K^T v``, applied to each row of a 2-d ``v``."""
        return self._product(*self._t, v)

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

    ``vector`` is a read-only copy of the node's law on every state; the atoms
    are its positive entries.  The node sums the ticks ``m_min..m_max`` of its
    own Poisson clock from ``t = 0``.  Its own ``truncation_error`` is the
    larger of the clock tails it cuts, ``P(N < m_min) + P(N > m_max)``, and
    the mass rounding lost against ``initial_mass``.
    """

    def __init__(
        self, states, vector, clock_tail, m_max, initial_mass, mass_tol=1e-12, m_min=0
    ):
        self.vector = np.array(vector, dtype=float)
        self.vector.flags.writeable = False
        keep = self.vector > 0.0
        super().__init__(np.asarray(states, dtype=float)[keep], self.vector[keep], mass_tol)
        self.truncation_error = max(clock_tail, initial_mass - self.total_mass)
        self.m_min = int(m_min)
        self.m_max = int(m_max)


@dataclass
class LayerStack:
    """Jump-count layers of a forward marginal with the weighted-kernel chain.

    ``layers[n]`` is the sub-probability vector of states reached with exactly
    ``n`` genuine jumps; ``q_chain[n]`` is the intensity-weighted kernel chain
    started from the initial law.  ``truncation_error`` is the total mass
    missing from the listed layers: the clock tail above the window plus the
    mass of the layers above ``n_max``, which the clock carries exactly in
    one overflow row.
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


# doubles per row block of one batched window pass: a 256 KiB block stays in a
# core's cache (the 121 birth-death windows of 201 states take 2.8 ms in
# blocks of 2**15 doubles, 5.0 ms in blocks of 2**18, on 2 cores)
_WINDOW_CELLS = 2**15


def _fox_glynn(mus, tol, top=0):
    """Poisson(mu) weights by recursion from the mode (Fox & Glynn, CACM 31, 1988),
    for every mean of the 1-d ``mus`` in one pass.

    Row ``r`` holds the window ``k = lo..hi`` of ``mus[r]``: ``mode +/- (40
    sqrt(mu) + 60)``, cut at 0 and reaching at least ``top``; beyond it every
    probability is below ``exp(-800)``, which no double holds, so the weights
    are divided by their window sum and the tails ``P(N > k)`` are the
    reversed cumulative sum.  ``mu <= 0`` gives the point mass at 0 on
    ``0..top``.  Every row has its mode at one column and is zero outside its
    window, so its running products, its tails and any prefix sum of it are
    those of the row alone, bit for bit; only the window sum is taken over
    the row's own columns, because a pairwise sum depends on its length.
    Returns ``(pmf, tails, first, lo, m_max)``: the two ``(len(mus), width)``
    arrays, the column of each row's ``lo``, the ``lo``, and the smallest
    ``m_max`` with ``P(N > m_max) < tol``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    pos = mus > 0.0
    mu = np.where(pos, mus, 0.0)
    mode = mu.astype(np.intp)
    width = np.where(pos, (40.0 * np.sqrt(mu) + 60.0).astype(np.intp), 0)
    lo = np.maximum(mode - width, 0)
    n_down, n_up = mode - lo, np.maximum(mode + width, top) - mode
    d, u = int(n_down.max()), int(n_up.max())
    # pmf(k) / pmf(mode): products of mu / k above the mode, of k / mu below
    # it.  They run on past a row's window, where they stay finite (factors
    # below 1, and the factor of k = 0 is 0), and are zeroed after.  A row
    # whose mode is 0 has no column below it in its window and divides there
    # by 1, not by its mean: -1 / mu overflows for a mean below about 1e-308
    ratio = np.empty((mus.size, d + 1 + u))
    ratio[:, d] = 1.0
    up, down = ratio[:, d + 1 :], ratio[:, :d][:, ::-1]
    k_mode = mode.astype(float)
    np.add.outer(k_mode, np.arange(1.0, u + 1), out=up)
    np.divide(mu[:, None], up, out=up)
    np.cumprod(up, axis=1, out=up)
    np.subtract.outer(k_mode, np.arange(float(d)), out=down)
    np.divide(down, np.where(mode > 0, mu, 1.0)[:, None], out=down)
    np.cumprod(down, axis=1, out=down)
    first, last = d - n_down, d + n_up
    col = np.arange(ratio.shape[1])
    ratio[(col < first[:, None]) | (col > last[:, None])] = 0.0
    sums = [row[a : b + 1].sum() for row, a, b in zip(ratio, first.tolist(), last.tolist())]
    pmf = ratio
    pmf /= np.array(sums)[:, None]
    tails = np.empty(pmf.shape)
    tails[:, -1] = 0.0
    np.cumsum(pmf[:, :0:-1], axis=1, out=tails[:, -2::-1])
    # the tails never increase along a row, so the cutoff is a count
    m_max = lo + np.maximum(np.count_nonzero(tails >= tol, axis=1), first) - first
    return pmf, tails, first, lo, m_max


def _clock_windows(mus, budget):
    """The ticks each node at clock mean ``mus[k]`` sums, with their weights and cut tails.

    ``m_max`` is the Fox-Glynn cutoff of :func:`_fox_glynn` at ``budget``;
    ``m_min`` is the largest lower cut whose tail ``P(N < m_min)``, added to
    ``P(N > m_max)``, stays below ``budget``.  Returns one window
    ``(pmf[m_min..m_max], m_min, m_max, tail)`` per node, ``tail`` the two
    tails' sum, strictly below ``budget``; the ``pmf`` are consecutive views
    of one array.  The nodes run through :func:`_fox_glynn` in blocks of
    consecutive rows, each at most about ``_WINDOW_CELLS`` doubles.
    """
    mus = np.asarray(mus, dtype=float)
    # a row spans mode +/- width: a block is at most 2 width + 1 columns of its widest row
    reach = 2.0 * (40.0 * np.sqrt(np.maximum(mus, 0.0)) + 60.0) + 1.0
    pieces, m_min, m_max, tail = [], [], [], []
    start = 0
    while start < mus.size:
        cells = np.arange(1, mus.size - start + 1) * np.maximum.accumulate(reach[start:])
        stop = start + max(1, int(np.count_nonzero(cells <= _WINDOW_CELLS)))
        pmf, tails, first, lo, top = _fox_glynn(mus[start:stop], budget)
        rows = np.arange(stop - start)
        end = first + top - lo  # the column of m_max
        pmf = pmf[:, : int(end.max()) + 1]
        # below = P(N <= k) + P(N > m_max), the tail of a cut just above k; it
        # never decreases along a row and reads tails[end] < budget left of lo
        below = np.cumsum(pmf, axis=1)
        below += tails[rows, end][:, None]
        col = np.arange(pmf.shape[1])
        cut = np.count_nonzero((below < budget) & (col < end[:, None]), axis=1) - first
        tail.append(np.where(cut > 0, below[rows, first + cut - 1], tails[rows, end]))
        pieces.append(pmf[(col >= (first + cut)[:, None]) & (col <= end[:, None])])
        m_min.append(lo + cut)
        m_max.append(top)
        start = stop
    m_min, m_max = np.concatenate(m_min), np.concatenate(m_max)
    flat, stops = np.concatenate(pieces), np.cumsum(m_max - m_min + 1).tolist()
    pmfs = [flat[a:b] for a, b in zip([0] + stops[:-1], stops)]
    return list(zip(pmfs, m_min.tolist(), m_max.tolist(), np.concatenate(tail).tolist()))


_BLOCK = 256  # clock ticks held in memory at once, fewer when a tick is large


def _clock_sums(tick, u, windows):
    """``sum_m pmf[m] tick^m(u)`` for each window ``(pmf, m_min, m_max, ...)``.

    A window weights ticks ``m_min..m_max``, as :func:`_clock_windows` gives
    it.  One chain of ticks runs from ``u`` out to the largest ``m_max``,
    at most ``_BLOCK`` ticks and about ``2**19`` doubles (4 MiB) at a time:
    ``tick(prev, out)`` writes each tick into its row of the block, and each
    block is weighted into the windows it meets by one single-threaded
    ``einsum``, its weights gathered from the windows' concatenated ``pmf``.
    Returns one sum per window, each shaped like ``u``.
    """
    pmf = np.concatenate([w[0] for w in windows])
    first = np.array([w[1] for w in windows])
    last = np.array([w[2] for w in windows])
    sizes = last - first + 1
    offset = np.cumsum(sizes) - sizes  # each window's start in pmf
    n_ticks = int(last.max()) + 1
    size = max(1, min(_BLOCK, 2**19 // u.size))
    acc = np.zeros((len(windows), u.size))
    block = np.empty((min(size, n_ticks), u.size))
    block[0] = u.ravel()
    ticks = block.reshape(block.shape[:1] + u.shape)  # rows of the block shaped like u
    for start in range(0, n_ticks, size):
        stop = min(start + size, n_ticks)
        rows = block[: stop - start]
        for i in range(0 if start else 1, rows.shape[0]):
            tick(ticks[i - 1], ticks[i])
        hit = np.flatnonzero((first < stop) & (last >= start))
        a, b = np.maximum(first[hit], start), np.minimum(last[hit] + 1, stop)
        # the ticks a..b-1 of each window the block meets, one cell each
        length = b - a
        along = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)
        cell_window = np.repeat(np.arange(hit.size), length)
        cell_tick = np.repeat(a - start, length) + along
        cell_pmf = np.repeat(offset[hit] + a - first[hit], length) + along
        weights = np.zeros((hit.size, rows.shape[0]))
        weights[cell_window, cell_tick] = pmf[cell_pmf]
        # einsum, not BLAS: a threaded matmul of these small blocks keeps the
        # BLAS threads spinning (300 (121 x 737) @ (737 x 201) products: 0.197 s
        # wall and 0.389 s CPU on 2 cores, numpy 2.4.6 with OpenBLAS)
        acc[hit] += np.einsum("km,mn->kn", weights, rows)
    return acc.reshape((len(windows),) + u.shape)


def _jump_tick(gen, n_starts=1):
    """The uniformized jump step ``out = keep u + K^T (lam u) / lambda_bar``, written in place.

    ``keep = 1 - lam / lambda_bar`` is the mass a tick leaves in place; each
    stored entry of ``K^T`` is pre-scaled once to the share it moves,
    ``k(x, y) lam(x) / lambda_bar``, so a tick is one gather, one product
    and one ``bincount``.  ``u`` holds one law per start, a ``(n_starts,
    n_states)`` block (or one ``n_states`` vector): row ``r``'s CSR indices
    are offset by ``r n_states``, so one ``bincount`` steps every row and
    sums each output entry in the same order as a one-row tick.  ``out`` may
    be ``u`` itself.
    """
    cols, rows, data = gen.kernel._t
    lb, n, keep = gen.lambda_bar, gen.n_states, gen._keep
    moves = data * gen.lam[rows] / lb if lb > 0 else np.zeros(data.size)
    shift = n * np.arange(n_starts)[:, None]
    cols, rows, moves = (cols + shift).ravel(), (rows + shift).ravel(), np.tile(moves, n_starts)

    def tick(u, out):
        moved = np.bincount(cols, moves * u.ravel()[rows], minlength=n_starts * n)
        np.multiply(keep, u, out=out)
        np.add(out, moved.reshape(u.shape), out=out)

    return tick


def _clock_means(gen, times):
    """The clock means ``lambda_bar t`` of ``times``; a :class:`NumericalError`
    names the first time whose mean overflows, before any window is sized."""
    with np.errstate(over="ignore"):
        mus = gen.lambda_bar * times
    bad = np.flatnonzero(~np.isfinite(mus))
    if bad.size:
        t = float(times[bad[0]])
        raise NumericalError(f"clock mean lambda_bar t at t={t!r} is not finite")
    return mus


def _path_laws(gen, starts, times, tol):
    """Per initial law of ``starts``, its node laws on every state as one
    ``(len(times), n_states)`` array, with the nodes' windows.

    The starts share the Poisson windows of :func:`marginal_path`, built in
    one batched pass by :func:`_clock_windows`, and one chain of
    :func:`_jump_tick` steps that ticks every start's row of a ``(starts,
    n_states)`` block; every node of every start passes its mass checks at
    once.  A start's laws equal its one-start solve bit for bit when the
    stacked block holds as many ticks as a one-start block (``n_states <=
    1024`` for two starts, or a clock that fits in one block); beyond that
    the block edges move and a node law can move in its last bits.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a nonempty 1-d array of finite values")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("time must be nonnegative and nondecreasing")
    if tol <= 0:
        raise ValueError("tol must be positive")
    windows = _clock_windows(_clock_means(gen, times), tol / times.size)
    u = np.stack([_state_vector(gen, p0) for p0 in starts])
    acc = _clock_sums(_jump_tick(gen, len(starts)), u, windows)
    totals = np.where(acc > 0.0, acc, 0.0).sum(axis=2)
    mass_tol = max(2 * tol, 1e-12)
    # (start, node) pairs, start-major: the error names the first start's first bad node
    bad = np.argwhere(((totals == 0.0) | (np.abs(totals - 1.0) > mass_tol)).T)
    if bad.size:
        s, k = bad[0]
        t, total = float(times[k]), float(totals[k, s])
        if total == 0.0:
            raise NumericalError(f"marginal at t={t!r} has no positive mass")
        raise NumericalError(f"marginal at t={t!r} sums to {total!r}, outside 1 +/- {mass_tol!r}")
    return list(np.moveaxis(acc, 1, 0).copy()), windows


def _node_marginal(gen, p0, v, window, tol):
    """The :class:`Marginal` of law ``v``, solved from ``p0`` at tolerance
    ``tol`` over ``window`` of :func:`_clock_windows`."""
    _, m_min, m_max, tail = window
    return Marginal(gen.states, v, tail, m_max, p0.total_mass, max(2 * tol, 1e-12), m_min)


def marginal_path(gen, p0, times, tol=1e-12):
    """Exact forward marginals at the nodes ``times``, one :class:`Marginal` each.

    One clock runs from ``t = 0``: the chain ``u_m = tick^m(v0)`` of
    uniformized jump steps goes out to the largest node cutoff, each written
    in place into its row of a block of ticks, and node ``k`` is ``sum_m
    pmf(m; lambda_bar t_k) u_m`` over its own Poisson window, cut above and
    below with tolerance ``tol / len(times)`` (see :class:`Marginal`).  The
    windows of all nodes come from one batched Fox-Glynn pass.  It is the
    one-start case of the paths that share one set of windows.  Raises
    ``ValueError`` on empty, non-finite, negative or decreasing times, on
    ``tol <= 0``, or when ``p0`` leaves the generator's states, and
    :class:`NumericalError` when a node keeps no positive mass or its mass
    leaves ``1 +/- max(2 tol, 1e-12)`` (rounding loss beyond the tolerance).
    """
    (laws,), windows = _path_laws(gen, [p0], times, tol)
    return [_node_marginal(gen, p0, v, w, tol) for v, w in zip(laws, windows)]


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


def _layer_stacks(gen, p0, times, n_max, tol):
    """One :class:`LayerStack` per time, all from one clock and one ``q_chain``.

    The clock of :func:`marginal_path` runs on an ``(n_max + 2) x n_states``
    block: a tick keeps each row with weight ``1 - lam(x)/lambda_bar`` and
    moves row ``n - 1`` into row ``n`` through the kernel otherwise; the last
    row collects every layer above ``n_max`` and keeps its own jumps, so its
    mass is theirs.  Each time weights the chain by its own window, cut only
    above at ``tol`` (a lower cut would empty every layer below it) and
    reaching at least ``n_max`` ticks, so every listed layer fills; the
    windows of all times come from one batched :func:`_fox_glynn` pass.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    v0 = _state_vector(gen, p0)
    q_chain = [v0]
    for _ in range(n_max):
        q_chain.append(gen.weighted_kernel_apply(q_chain[-1]))

    def tick(block, out):
        moved = gen.weighted_kernel_apply(block) / gen.lambda_bar
        np.multiply(gen._keep, block, out=out)
        out[1:] += moved[:-1]
        out[-1] += moved[-1]

    block = np.zeros((n_max + 2, gen.n_states))
    block[0] = v0
    mus = _clock_means(gen, np.asarray(times, dtype=float))
    pmf, upper, first, lo, m_tol = _fox_glynn(mus, tol, top=n_max)
    m_max = np.where(mus > 0.0, np.maximum(m_tol, n_max), 0)
    end = first + m_max - lo  # the column of m_max
    windows = [(row[a : b + 1], c, m) for row, a, b, c, m in zip(pmf, first, end, lo, m_max)]
    return [
        LayerStack(gen.states, list(rows[:-1]), q_chain, float(tail) + float(rows[-1].sum()))
        for rows, tail in zip(_clock_sums(tick, block, windows), upper[np.arange(mus.size), end])
    ]


def layer_stack(gen, p0, t, n_max, tol=1e-13):
    """Genuine-jump layers ``P_{n,t}`` for ``n <= n_max`` with the weighted chain.

    Poisson weights on the clock of :func:`marginal_path`, run on rows split
    by genuine-jump count, restore the exact per-state survival factors.
    ``tol`` cuts the upper clock tail only; ``truncation_error`` is that tail
    plus the exact mass of the layers above ``n_max`` (see
    :class:`LayerStack`).  ``t`` must be finite and nonnegative.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    return _layer_stacks(gen, p0, [t], n_max, tol)[0]


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
    componentwise violations (nonpositive values mean slack); both stacks
    come from one clock at :func:`layer_stack`'s default tolerance.
    """
    if not 0.0 <= s < math.inf:
        raise ValueError("s must be finite and nonnegative")
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    stack_s, stack_t = _layer_stacks(gen, p0, [s, t], n_max, tol=1e-13)
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
    p_t = uniformized_marginal(gen, p0, t, tol=1e-13).vector
    abs_f = np.abs(f)
    lhs = float(np.dot(p_t, gen.lam * gen.kernel.apply(abs_f)))
    p0_vec = _state_vector(gen, p0)
    layer0 = np.exp(-gen.lam * t) * p0_vec
    higher = np.maximum(p_t - layer0, 0.0)
    moment_sum = float(np.dot(higher, abs_f ** (1.0 + eta))) / t
    constant = kernel_moment_constant(gen.lambda_bar, eta, t)
    rhs = constant * moment_sum ** (1.0 / (1.0 + eta))
    return KernelMomentBound(lhs, rhs, constant)


def _moment_growth_bounds(gen, p0, alphas, t):
    """:func:`moment_growth_bound` for each ``alpha`` of ``alphas``, one law
    solved for all."""
    for alpha in alphas:
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
    if t < 0:
        raise ValueError("time must be nonnegative")
    law = uniformized_marginal(gen, p0, t, tol=1e-12)
    p0_vec = _state_vector(gen, p0)
    rows = gen.kernel.rows
    mu = gen.lambda_bar * t
    out = []
    for alpha in alphas:
        # integral |y - x|^alpha k(x, dy) per row, summed over the stored entries
        gap = np.abs(gen.states[gen.kernel.indices] - gen.states[rows]) ** alpha
        kernel_moment = np.max(np.bincount(rows, gen.kernel.data * gap, gen.n_states))
        k_bar = max(float(np.dot(p0_vec, np.abs(gen.states) ** alpha)), float(kernel_moment))
        ceil_a = math.ceil(alpha)
        series = sum((n + 1.0) ** alpha * mu**n / math.factorial(n) for n in range(ceil_a))
        series += (ceil_a + 1.0) ** alpha / math.factorial(ceil_a) * mu**ceil_a * math.exp(mu)
        out.append((moment(law, alpha), k_bar * series))
    return out


def moment_growth_bound(gen, p0, alpha, t):
    """Exact absolute moment at time t with its factorial growth bound.

    The exact moment is taken from the marginal at clock tolerance 1e-12.
    The bound scales ``max(E|X_0|^alpha, sup_x integral |y-x|^alpha k(x,dy))``
    by a truncated exponential series in ``lambda_bar * t`` whose order is the
    integer ceiling of ``alpha``.
    """
    return _moment_growth_bounds(gen, p0, [alpha], t)[0]


def _thinning(start, cum0, t, rate, n_paths, seed, event, jump, advance=None):
    """Lockstep thinning of ``n_paths`` paths, each at its own dominating rate.

    One generator seeded with ``seed`` serves the call, read in a fixed
    order: one uniform per path picks the start from ``start`` by the
    cumulative weights ``cum0``; then each round draws a gap for every live
    path, a uniform for every path whose candidate falls before ``t``, and
    one more for every path that jumps.  A path stops at the first candidate
    not before ``t``, or when its rate is 0.  All live paths advance one
    candidate per round:

    * ``rate(x)`` gives each live state's candidate rate, which must bound
      the path's event rate until its next candidate; a path whose rate is
      0 has no further candidate and leaves the loop before its gap is
      drawn.  A path that holds still can pass its own state's rate, so
      that every candidate is an event (Gillespie); a path that moves
      between candidates passes a global bound (Lewis and Shedler);
    * ``advance(x, s)`` moves states ``x`` along for times ``s``, between
      candidates and from the last candidate up to ``t`` (``None``: the
      paths hold still);
    * ``event(x, u)`` returns the states after the candidate and the mask
      of those that jump, given each path's uniform ``u``;
    * ``jump(x, u)`` returns the jump targets of states ``x``.

    A gap at rate ``r`` is a standard exponential times ``1/r``, bit for bit
    the draw of ``rng.exponential(1/r)``, whether ``1/r`` is one scalar or
    one scale per path; so a constant rate reads the stream exactly as
    thinning at one scalar bound does.
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
    if t > 0.0:
        live = np.arange(n_paths)
        while live.size:
            r = rate(x[live])
            positive = r > 0.0
            if not positive.all():
                live, r = live[positive], r[positive]
            tau = rng.standard_exponential(live.size) * (1.0 / r)
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


def _kernel_draw(kernel):
    """Inverse-CDF draws from the rows of ``kernel``: ``draw(i, u)``.

    ``draw`` returns, for each row ``i[k]``, the column of the first stored
    entry whose cumulative weight exceeds ``u[k]``, that is
    ``searchsorted(cdf_row, u, side="right")`` on the row's stored entries,
    or the row's last entry when none does, so that it takes the rounding
    gap below 1.  Each row's cumulative weights are summed once, in stored
    order; the draws then bisect every path's row at once.
    """
    indptr, indices = kernel.indptr, kernel.indices
    length = np.diff(indptr)
    cdf = kernel.data.copy()
    # the k-th running sum of every row at once: np.cumsum's adds, in its order
    for k in range(1, int(length.max(initial=0))):
        at = indptr[:-1][length > k] + k
        cdf[at] += cdf[at - 1]
    steps = int(length.max(initial=1) - 1).bit_length()

    def draw(i, u):
        # the answer stays in [lo, hi], the row's last entry included
        lo, hi = indptr[i], indptr[i + 1] - 1
        for _ in range(steps):
            mid = (lo + hi) // 2
            over = cdf[mid] > u
            hi = np.where(over, mid, hi)
            lo = np.where(over, lo, mid + 1)
        return indices[hi]

    return draw


def simulate_paths(gen, p0, t, n_paths, seed):
    """Empirical endpoint law of thinning Monte Carlo paths.

    All paths read one stream seeded with ``seed``, so the result is identical
    for a given ``(seed, n_paths)``.  A path holds still between events, so
    its candidates arrive at its own state's rate ``lam(x)`` and every one is
    an event (Gillespie); a state with rate 0 holds the path to ``t``.  The
    jump target is drawn from the kernel row by its inverse CDF.
    """
    cum0 = np.cumsum(_state_vector(gen, p0))
    cum0[-1] = 1.0
    lam = gen.lam

    def event(i, u):
        return i, np.ones(i.size, dtype=bool)

    # an event exactly at t still counts: candidates run while their time is <= t
    horizon = float(np.nextafter(t, np.inf)) if t > 0 else t
    _, end, _ = _thinning(
        np.arange(gen.n_states),
        cum0,
        horizon,
        lambda i: lam[i],
        n_paths,
        seed,
        event,
        _kernel_draw(gen.kernel),
    )
    counts = np.bincount(end, minlength=gen.n_states)
    keep = counts > 0
    return DiscreteMeasure(gen.states[keep], counts[keep] / float(n_paths), mass_tol=1e-9)
