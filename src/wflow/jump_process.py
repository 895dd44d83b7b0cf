"""Finite-state pure jump processes solved exactly by layered uniformization.

The forward marginal of a jump process with bounded intensities splits into
layers by the number of genuine jumps.  Conditioning on the event count of a
dominating Poisson clock of rate ``lambda_bar`` turns the layer recursion into
a two-term matrix recursion over (clock events, genuine jumps): a clock event
at state ``x`` is genuine with probability ``lambda(x)/lambda_bar``, otherwise
the state survives unchanged.  Summing the recursion against Poisson weights
reproduces the exact per-state survival factors ``exp(-lambda(x) t)`` of the
integral formula, so the layers here are the genuine ones up to an explicit
Poisson tail truncation.

The module also evaluates the layer comparison inequalities (time equivalence
and the factorial sandwich against the weighted-kernel chain), the kernel
moment bound with its explicit constant, the moment growth bound, and a
thinning Monte Carlo simulator with counter-based per-path random streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import gammaln, pdtrc, xlogy

from wflow.measures import DiscreteMeasure

__all__ = [
    "JumpGeneratorSpec",
    "LayerStack",
    "LayerInequalityReport",
    "KernelMomentBound",
    "uniformized_marginal",
    "layer_stack",
    "layer_inequality_report",
    "kernel_moment_bound",
    "kernel_moment_constant",
    "kernel_moment_constant_limit",
    "moment_growth_bound",
    "simulate_paths",
]


class JumpGeneratorSpec:
    """Finite-state jump generator: per-state intensity and jump kernel.

    Parameters
    ----------
    states : array_like
        Strictly increasing real state values.
    lam : array_like
        Nonnegative jump intensity per state.
    kernel : ndarray or scipy.sparse matrix
        Row-stochastic jump distribution ``k(x, .)``; a state with positive
        intensity must not jump to itself (``lam(x) * k(x, {x}) = 0``).
    """

    def __init__(self, states, lam, kernel):
        states = np.asarray(states, dtype=float)
        lam = np.asarray(lam, dtype=float)
        if states.ndim != 1 or states.shape != lam.shape or states.size == 0:
            raise ValueError("states and lam must be equal-length 1-d arrays")
        if states.size > 1 and np.any(np.diff(states) <= 0):
            raise ValueError("states must be strictly increasing")
        if np.any(lam < 0):
            raise ValueError("intensities must be nonnegative")
        n = states.size
        if sparse.issparse(kernel):
            kernel = kernel.tocsr()
            row_sums = np.asarray(kernel.sum(axis=1)).ravel()
            diag = kernel.diagonal()
        else:
            kernel = np.asarray(kernel, dtype=float)
            row_sums = kernel.sum(axis=1)
            diag = np.diagonal(kernel)
        if kernel.shape != (n, n):
            raise ValueError(f"kernel must be {n}x{n}")
        if sparse.issparse(kernel):
            if kernel.nnz and kernel.data.min() < 0:
                raise ValueError("kernel entries must be nonnegative")
        elif np.any(kernel < 0):
            raise ValueError("kernel entries must be nonnegative")
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise ValueError("kernel rows must sum to 1 within 1e-12")
        if np.any(lam * diag != 0.0):
            raise ValueError("a state with positive intensity cannot jump to itself")
        self.states = states
        self.lam = lam
        self.kernel = kernel
        self.lambda_bar = float(lam.max())
        self._kt = kernel.T.tocsr() if sparse.issparse(kernel) else kernel.T

    @property
    def n_states(self):
        return self.states.size

    def weighted_kernel_apply(self, v):
        """``(K^T diag(lam)) v``: one step of the intensity-weighted chain."""
        return self._kt @ (self.lam * v)

    def kernel_mean_abs(self, f_abs):
        """``integral |f(y)| k(x, dy)`` for every state x."""
        return self.kernel @ f_abs

    @classmethod
    def from_dict(cls, data):
        """Build from a config mapping with keys states, lambda, kernel."""
        try:
            states = data["states"]
            lam = data["lambda"]
            kernel = data["kernel"]
        except KeyError as exc:
            raise ValueError(f"generator config missing key {exc.args[0]!r}") from exc
        return cls(states, lam, np.asarray(kernel, dtype=float))


@dataclass
class LayerStack:
    """Jump-count layers of a forward marginal with the weighted-kernel chain.

    ``layers[n]`` is the sub-probability vector of states reached with exactly
    ``n`` genuine jumps; ``q_chain[n]`` is the intensity-weighted kernel chain
    started from the initial law.  ``truncation_error`` bounds the total mass
    missing from the listed layers (deeper layers plus the Poisson tail of the
    dominating clock).
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


def _poisson_pmf(k, mu):
    """Poisson(mu) probabilities at the integers ``k``."""
    return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


def _poisson_cutoff(mu, tol):
    """Smallest n with Poisson(mu) mass beyond n below tol, plus that tail."""
    if mu <= 0.0:
        return 0, 0.0
    hi = int(mu + 10.0 * math.sqrt(mu) + 20.0)
    while True:
        grid = np.arange(hi + 1)
        tail = pdtrc(grid, mu)
        below = np.nonzero(tail < tol)[0]
        if below.size:
            n = int(below[0])
            return n, float(tail[n])
        hi *= 2


def _measure_from_vector(gen, vec, mass_tol):
    keep = vec > 0.0
    if not np.any(keep):
        raise ValueError("marginal has no positive mass; tolerance too loose")
    return DiscreteMeasure(gen.states[keep], vec[keep], mass_tol=mass_tol)


def uniformized_marginal(gen, p0, t, tol=1e-10):
    """Exact forward marginal at time ``t`` up to a declared Poisson tail.

    Accumulates the dominating-clock expansion ``sum_m pmf(m) A^m p0`` where
    one clock step keeps the state with probability ``1 - lam(x)/lambda_bar``
    and otherwise jumps by the kernel.  The result is not renormalized; the
    returned measure's ``truncation_error`` attribute declares the discarded
    mass: the Poisson clock tail, which is strictly below ``tol``, or the mass
    the result misses against ``p0`` when rounding lost more than that tail.

    Raises
    ------
    ValueError
        If ``t < 0``, ``tol <= 0``, or ``p0`` leaves the generator's states.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = _state_vector(gen, p0)
    lb = gen.lambda_bar
    mu = lb * t
    m_max, tail = _poisson_cutoff(mu, tol)
    if m_max == 0:
        out = _measure_from_vector(gen, v, max(2 * tol, 1e-12))
        out.truncation_error = tail
        return out
    pmf = _poisson_pmf(np.arange(m_max + 1), mu)
    keep_frac = (lb - gen.lam) / lb
    acc = pmf[0] * v
    for m in range(1, m_max + 1):
        v = keep_frac * v + gen.weighted_kernel_apply(v) / lb
        acc = acc + pmf[m] * v
    out = _measure_from_vector(gen, acc, max(2 * tol, 1e-12))
    # the declared loss also covers what rounding dropped along the expansion
    out.truncation_error = max(tail, p0.total_mass - out.total_mass)
    return out


def layer_stack(gen, p0, t, n_max, tol=1e-13):
    """Genuine-jump layers ``P_{n,t}`` for ``n <= n_max`` with the weighted chain.

    The two-term recursion runs over dominating-clock events m: a state keeps
    its layer with weight ``1 - lam(x)/lambda_bar`` and advances one layer
    through the kernel otherwise; Poisson weights over m restore the exact
    per-state survival factors.  ``tol`` controls only the clock-tail cutoff.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    v0 = _state_vector(gen, p0)
    lb = gen.lambda_bar
    n_states = gen.n_states
    q_chain = [v0.copy()]
    for _ in range(n_max):
        q_chain.append(gen.weighted_kernel_apply(q_chain[-1]))
    mu = lb * t
    m_max, m_tail = _poisson_cutoff(mu, tol)
    m_max = max(m_max, n_max)
    # mass in layers beyond n_max is at most the clock tail beyond n_max
    layer_tail = float(pdtrc(n_max, mu)) if mu > 0 else 0.0
    if lb == 0.0 or t == 0.0:
        layers = [v0.copy()] + [np.zeros(n_states) for _ in range(n_max)]
        return LayerStack(gen.states, layers, q_chain, m_tail + layer_tail)
    pmf = _poisson_pmf(np.arange(m_max + 1), mu)
    keep_frac = (lb - gen.lam) / lb
    current = [v0]
    acc = [pmf[0] * v0] + [np.zeros(n_states) for _ in range(n_max)]
    for m in range(1, m_max + 1):
        top = min(m, n_max)
        nxt = [None] * (top + 1)
        for n in range(top, -1, -1):
            stay = keep_frac * current[n] if n < len(current) else 0.0
            jump = gen.weighted_kernel_apply(current[n - 1]) / lb if n >= 1 else 0.0
            nxt[n] = stay + jump
        current = nxt
        for n in range(top + 1):
            acc[n] = acc[n] + pmf[m] * current[n]
    return LayerStack(gen.states, acc, q_chain, m_tail + layer_tail)


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


def layer_inequality_report(gen, p0, s, t, n_max, tol=1e-13):
    """Check the time-equivalence and sandwich inequalities on the layers.

    For ``0 <= s`` and ``t > 0``: each layer at time s is dominated by
    ``exp(lambda_bar (t-s)^+) (s/t)^n`` times the layer at time t, and each
    layer at time t sits between ``exp(-lambda_bar t) t^n/n!`` and
    ``t^n/n!`` times the n-step weighted-kernel chain.  Returns the maximal
    componentwise violations (nonpositive values mean slack).
    """
    if s < 0 or t <= 0:
        raise ValueError("need 0 <= s and 0 < t")
    stack_t = layer_stack(gen, p0, t, n_max, tol=tol)
    stack_s = layer_stack(gen, p0, s, n_max, tol=tol)
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


def kernel_moment_bound(gen, p0, t, f, eta, tol=1e-13):
    """Bound the kernel-averaged |f| against higher layer moments.

    lhs is ``integral lam(x) (integral |f(y)| k(x,dy)) P_t(dx)``; rhs is the
    constant times ``(sum_{n>=1} integral |f|^{1+eta} dP_{n,t} / t)`` to the
    power ``1/(1+eta)``.  Only the zero-jump layer needs isolating: it is the
    explicit survival-weighted initial law.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    if eta <= 0:
        raise ValueError("eta must be positive")
    f = np.asarray(f, dtype=float)
    if f.shape != gen.states.shape:
        raise ValueError("f must be tabulated on the generator's states")
    marg = uniformized_marginal(gen, p0, t, tol=tol)
    p_t = np.zeros(gen.n_states)
    p_t[np.searchsorted(gen.states, marg.support)] = marg.weights
    abs_f = np.abs(f)
    lhs = float(np.dot(p_t, gen.lam * gen.kernel_mean_abs(abs_f)))
    p0_vec = _state_vector(gen, p0)
    layer0 = np.exp(-gen.lam * t) * p0_vec
    higher = np.maximum(p_t - layer0, 0.0)
    moment_sum = float(np.dot(higher, abs_f ** (1.0 + eta))) / t
    constant = kernel_moment_constant(gen.lambda_bar, eta, t)
    rhs = constant * moment_sum ** (1.0 / (1.0 + eta))
    return KernelMomentBound(lhs, rhs, constant)


def moment_growth_bound(gen, p0, alpha, t, tol=1e-12):
    """Exact absolute moment at time t with its factorial growth bound.

    The bound scales ``max(E|X_0|^alpha, sup_x integral |y-x|^alpha k(x,dy))``
    by a truncated exponential series in ``lambda_bar * t`` whose order is the
    integer ceiling of ``alpha``.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if t < 0:
        raise ValueError("time must be nonnegative")
    marg = uniformized_marginal(gen, p0, t, tol=tol)
    exact = float(np.sum(marg.weights * np.abs(marg.support) ** alpha))
    jump_gap = np.abs(gen.states[None, :] - gen.states[:, None]) ** alpha
    if sparse.issparse(gen.kernel):
        kernel_moment = np.max(
            np.asarray(gen.kernel.multiply(jump_gap).sum(axis=1)).ravel()
        )
    else:
        kernel_moment = np.max(np.sum(gen.kernel * jump_gap, axis=1))
    p0_vec = _state_vector(gen, p0)
    k_bar = max(float(np.dot(p0_vec, np.abs(gen.states) ** alpha)), float(kernel_moment))
    ceil_a = math.ceil(alpha)
    mu = gen.lambda_bar * t
    series = sum((n + 1.0) ** alpha * mu**n / math.factorial(n) for n in range(ceil_a))
    series += (ceil_a + 1.0) ** alpha / math.factorial(ceil_a) * mu**ceil_a * math.exp(mu)
    return exact, k_bar * series


def _thinning(start, cum0, t, rate, n_paths, seed, event, jump, advance=None):
    """Lockstep thinning of ``n_paths`` paths at the dominating ``rate``.

    Path p reads its own counter-based stream keyed ``(seed, p)``, so its
    values do not depend on how paths are scheduled.  The stream is read in
    a fixed order: one uniform picks the start from ``start`` by the
    cumulative weights ``cum0``; then each candidate event reads an
    exponential gap and one uniform, and a candidate that jumps reads one
    more uniform.  A path stops at the first candidate not before ``t``.
    All live paths advance one candidate per round:

    * ``advance(x, s)`` moves states ``x`` along for times ``s``, between
      candidates and from the last candidate up to ``t`` (``None``: the
      paths hold still);
    * ``event(x, u)`` returns the states after the candidate and the mask
      of those that jump, given each path's uniform ``u``;
    * ``jump(x, u)`` returns the jump targets of states ``x``.

    Returns the start states, the end states and the jump count per path.
    """
    rngs = [np.random.Generator(np.random.Philox(key=[seed, p])) for p in range(n_paths)]
    u0 = np.array([rng.random() for rng in rngs])
    x = start[np.minimum(np.searchsorted(cum0, u0, side="right"), start.size - 1)]
    x0 = x.copy()
    n_jumps = np.zeros(n_paths, dtype=np.int64)
    elapsed = np.zeros(n_paths)
    if rate > 0.0 and t > 0.0:
        scale = 1.0 / rate
        live = np.arange(n_paths)
        while live.size:
            tau = np.array([rngs[p].exponential(scale) for p in live.tolist()])
            keep = elapsed[live] + tau < t
            live = live[keep]
            if not live.size:
                break
            tau = tau[keep]
            elapsed[live] += tau
            x_live = x[live] if advance is None else advance(x[live], tau)
            u = np.array([rngs[p].random() for p in live.tolist()])
            x_live, jumps = event(x_live, u)
            x[live] = x_live
            hit = live[jumps]
            if hit.size:
                u_jump = np.array([rngs[p].random() for p in hit.tolist()])
                x[hit] = jump(x[hit], u_jump)
                n_jumps[hit] += 1
    if advance is not None:
        x = advance(x, t - elapsed)
    return x0, x, n_jumps


def simulate_paths(gen, p0, t, n_paths, seed):
    """Empirical endpoint law of thinning Monte Carlo paths.

    Each path consumes its own counter-based stream keyed by
    ``(seed, path index)``, so the result is identical for a given
    ``(seed, n_paths)`` no matter how paths are scheduled.  Events arrive at
    the dominating rate; an event at state x is accepted iff
    ``lam(x) >= lambda_bar * u`` with ``u`` uniform on (0, 1].
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if t < 0:
        raise ValueError("time must be nonnegative")
    cum0 = np.cumsum(_state_vector(gen, p0))
    cum0[-1] = 1.0
    lb = gen.lambda_bar
    lam = gen.lam
    kernel = sparse.csr_array(gen.kernel, copy=True)
    kernel.eliminate_zeros()
    kernel.sum_duplicates()

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
            lo, hi = kernel.indptr[r], kernel.indptr[r + 1]
            cum = np.cumsum(kernel.data[lo:hi])
            cum[-1] = 1.0
            out[sel] = kernel.indices[lo:hi][np.searchsorted(cum, u[sel], side="right")]
        return out

    # an event exactly at t still counts: candidates run while their time is <= t
    horizon = float(np.nextafter(t, np.inf))
    _, end, _ = _thinning(
        np.arange(gen.n_states), cum0, horizon, lb, n_paths, seed, event, jump
    )
    counts = np.bincount(end, minlength=gen.n_states)
    keep = counts > 0
    return DiscreteMeasure(gen.states[keep], counts[keep] / float(n_paths), mass_tol=1e-9)
