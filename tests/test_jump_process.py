"""Tests for jump_process: layered marginals, comparison bounds, simulation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import cumulative_simpson
from scipy.sparse.linalg import expm_multiply
from scipy.special import pdtrc
from scipy.stats import poisson

from oracles import (
    cdf_gap,
    clock_window_per_node,
    dkw_radius,
    kernel_draw_per_row,
    thinning_at_bound,
)
from wflow import jump_process, pdmp
from wflow.birth_death import mm_infty
from wflow.jump_process import (
    JumpGeneratorSpec,
    Kernel,
    Marginal,
    NumericalError,
    _clock_windows,
    _fox_glynn,
    _jump_tick,
    _kernel_draw,
    _layer_stacks,
    _path_laws,
    _state_vector,
    kernel_moment_bound,
    kernel_moment_constant,
    kernel_moment_constant_limit,
    layer_inequality_report,
    layer_stack,
    marginal_path,
    moment_growth_bound,
    simulate_paths,
    uniformized_marginal,
)
from wflow.measures import DiscreteMeasure


def poisson_counter(n_top, rate=1.0):
    """Counting process truncated at n_top: state i jumps to i+1 at `rate`."""
    states = np.arange(n_top + 1, dtype=float)
    lam = np.full(n_top + 1, rate)
    lam[-1] = 0.0
    kernel = np.zeros((n_top + 1, n_top + 1))
    for i in range(n_top):
        kernel[i, i + 1] = 1.0
    kernel[n_top, n_top] = 1.0
    return JumpGeneratorSpec(states, lam, kernel)


def telegraph(a, b):
    """Two-state flip-flop: 0 -> 1 at rate a, 1 -> 0 at rate b."""
    return JumpGeneratorSpec(
        [0.0, 1.0], [a, b], np.array([[0.0, 1.0], [1.0, 0.0]])
    )


def three_state():
    """Small irregular chain used across tests."""
    kernel = np.array(
        [
            [0.0, 0.7, 0.3],
            [0.5, 0.0, 0.5],
            [0.2, 0.8, 0.0],
        ]
    )
    return JumpGeneratorSpec([-1.0, 0.5, 2.0], [1.3, 0.4, 2.1], kernel)


def mu_chain(n_nodes, mu=8.0):
    """Speed-``mu`` chain of a flow with shift jumps on ``n_nodes`` grid nodes."""
    spec = pdmp.PdmpSpec.from_dict(
        {
            "drift": {"name": "neg_tanh"},
            "intensity": {"const": 0.5},
            "kernel": {"name": "shift", "d": 0.4},
        }
    )
    return pdmp.mu_generator(spec, mu, np.linspace(-6.0, 6.0, n_nodes)).generator


def layer_oracle(gen, p0_vec, t, n_max, n_times=4001):
    """Layers by direct quadrature of the recursive integral formula.

    P_0(t) carries the survival factors; each next layer integrates the
    intensity-weighted kernel image of the previous one against the survival
    factor of the arrival state.  Cumulative Simpson on a fine uniform grid
    keeps the quadrature error around h^4.
    """
    ts = np.linspace(0.0, t, n_times)
    lam = gen.lam
    layers = [np.exp(-np.outer(ts, lam)) * p0_vec]
    for _ in range(n_max):
        flux = np.array([gen.weighted_kernel_apply(row) for row in layers[-1]])
        integrand = np.exp(np.outer(ts, lam)) * flux
        integral = cumulative_simpson(integrand, x=ts, axis=0, initial=0.0)
        layers.append(np.exp(-np.outer(ts, lam)) * integral)
    return [layer[-1] for layer in layers]


class TestGeneratorSpec:
    def test_basic_fields(self):
        gen = three_state()
        assert gen.lambda_bar == 2.1
        assert gen.n_states == 3

    def test_rejects_unsorted_states(self):
        with pytest.raises(ValueError):
            JumpGeneratorSpec([1.0, 0.0], [1.0, 1.0], np.array([[0, 1], [1, 0]], dtype=float))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            JumpGeneratorSpec([0.0, 1.0], [-0.1, 1.0], np.array([[0, 1], [1, 0]], dtype=float))

    def test_rejects_bad_row_sum(self):
        kernel = np.array([[0.0, 0.9], [1.0, 0.0]])
        with pytest.raises(ValueError):
            JumpGeneratorSpec([0.0, 1.0], [1.0, 1.0], kernel)

    def test_rejects_self_jump_with_positive_rate(self):
        kernel = np.array([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError):
            JumpGeneratorSpec([0.0, 1.0], [1.0, 1.0], kernel)

    def test_self_jump_allowed_at_zero_rate(self):
        kernel = np.eye(2)
        gen = JumpGeneratorSpec([0.0, 1.0], [0.0, 0.0], kernel)
        assert gen.lambda_bar == 0.0

    def test_rejects_negative_kernel_entry(self):
        kernel = np.array([[0.0, 1.2], [1.0, -0.2]])
        kernel[1, 0] = 1.2
        kernel[1, 1] = -0.2
        with pytest.raises(ValueError):
            JumpGeneratorSpec([0.0, 1.0], [1.0, 1.0], kernel)

    def test_sparse_kernel_matches_dense(self):
        gen_d = three_state()
        dense = gen_d.kernel.toarray()
        gen_s = JumpGeneratorSpec(gen_d.states, gen_d.lam, sparse.csr_matrix(dense))
        p0 = DiscreteMeasure([-1.0], [1.0])
        md = uniformized_marginal(gen_d, p0, 0.9)
        ms = uniformized_marginal(gen_s, p0, 0.9)
        np.testing.assert_allclose(ms.weights, md.weights, rtol=0, atol=1e-15)

    def test_kernel_stored_as_canonical_csr(self):
        # a dense input, a sparse input with duplicate entries and one with
        # explicit zeros all store the same CSR kernel
        dense = np.array([[0.0, 0.7, 0.3], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]])
        rows = [0, 0, 0, 1, 1, 2, 2]
        cols = [2, 1, 2, 2, 0, 1, 0]
        vals = [0.1, 0.7, 0.2, 0.5, 0.5, 0.8, 0.2]
        duplicates = sparse.coo_array((vals, (rows, cols)), shape=(3, 3))
        zeros = sparse.csr_array(
            (
                np.array([0.0, 0.7, 0.3, 0.5, 0.0, 0.5, 0.2, 0.8, 0.0]),
                np.array([0, 1, 2, 0, 1, 2, 0, 1, 2]),
                np.array([0, 3, 6, 9]),
            ),
            shape=(3, 3),
        )
        lam = [1.3, 0.4, 2.1]
        ref = JumpGeneratorSpec([-1.0, 0.5, 2.0], lam, dense).kernel
        assert isinstance(ref, Kernel)
        oracle = sparse.csr_array(dense)
        assert oracle.has_canonical_format and oracle.nnz == 6
        np.testing.assert_array_equal(ref.indptr, oracle.indptr)
        np.testing.assert_array_equal(ref.indices, oracle.indices)
        np.testing.assert_array_equal(ref.data, oracle.data)
        for kernel in (duplicates, zeros):
            got = JumpGeneratorSpec([-1.0, 0.5, 2.0], lam, kernel).kernel
            assert isinstance(got, Kernel)
            np.testing.assert_array_equal(got.indptr, ref.indptr)
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_allclose(got.data, ref.data, rtol=0, atol=1e-16)
        assert zeros.nnz == 9  # the caller's matrix is left as it was


class TestPoissonHelpers:
    """Fox-Glynn Poisson weights against scipy.stats, pdtrc and mpmath."""

    @pytest.mark.parametrize("mu", [1e-9, 0.3, 1.0, 2.0, 5.5, 41.0, 208.0, 550.0, 1200.0])
    def test_pmf_and_tail_match_scipy_stats(self, mu):
        # scipy's exp(k log mu - lgamma(k + 1) - mu) loses about k log(mu) ulps
        # of its exponent, up to 1.4e-12 relative here; mpmath below is exact
        (pmf,), (tails,), _, (lo,), _ = _fox_glynn(np.array([mu]), 1e-12)
        k = np.arange(lo, int(mu + 12.0 * math.sqrt(mu) + 30.0))
        np.testing.assert_allclose(pmf[k - lo], poisson.pmf(k, mu), rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(tails[k - lo], poisson.sf(k, mu), rtol=1e-12, atol=0.0)

    def test_cutoff_matches_isf(self):
        for mu in np.linspace(0.01, 60.0, 601):
            assert _fox_glynn(np.array([mu]), 1e-9)[4][0] == int(poisson.isf(1e-9, mu))

    @pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13, 1e-12 / 121])
    def test_cutoff_and_tail_match_pdtrc(self, tol):
        # pdtrc decreases in k, so pdtrc(m - 1) >= tol > pdtrc(m) makes m its cutoff
        for mu in np.geomspace(1e-3, 2e4, 300):
            _, (tails,), _, (lo,), (m,) = _fox_glynn(np.array([mu]), tol)
            assert m >= 1
            above, below = pdtrc([m - 1, m], mu)
            assert above >= tol > below, mu
            assert tails[m - lo] == pytest.approx(below, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu", [5.0, 550.0, 2e4])
    def test_pmf_matches_mpmath(self, mu):
        mpmath = pytest.importorskip("mpmath")
        (pmf,), _, _, (lo,), (m,) = _fox_glynn(np.array([mu]), 1e-13)
        with mpmath.workdps(40):
            m_mu = mpmath.mpf(mu)
            ref = np.array(
                [
                    float(mpmath.exp(k * mpmath.log(m_mu) - m_mu - mpmath.loggamma(k + 1)))
                    for k in range(lo, m + 1)
                ]
            )
        normal = ref > 1e-290  # below that the doubles lose relative precision
        assert normal.sum() >= min(m + 1, 5000)
        np.testing.assert_allclose(pmf[: m + 1 - lo][normal], ref[normal], rtol=1e-13, atol=0.0)

    def test_window_reaches_top_and_zero_rate(self):
        (pmf,), (tails,), _, (lo,), (m,) = _fox_glynn(np.array([0.5]), 1e-12, top=400)
        assert lo + pmf.size == lo + tails.size >= 401 and tails[-1] == 0.0
        (pmf,), (tails,), _, (lo,), (m,) = _fox_glynn(np.array([0.0]), 1e-12, top=3)
        np.testing.assert_array_equal(pmf, [1.0, 0.0, 0.0, 0.0])
        assert lo == m == 0 and not np.any(tails)
        with pytest.raises(ValueError, match="tol must be positive"):
            _fox_glynn(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("tiny", [1e-310, 5e-324, 1e-300])
    def test_subnormal_mean_beside_a_wide_row(self, tiny):
        # a mode-0 row batched with a wide one has columns below its mode
        # (outside its window) whose factors divide by 1, not by the tiny
        # mean, so nothing overflows; every row is its one-row pass, bit for bit
        mus = np.array([tiny, 550.0, 0.0, tiny])
        pmf, tails, first, lo, m_max = _fox_glynn(mus, 1e-12, top=3)
        assert np.all(np.isfinite(pmf)) and np.all(np.isfinite(tails))
        for r in range(mus.size):
            (one,), (one_tails,), _, (one_lo,), (one_m,) = _fox_glynn(mus[r : r + 1], 1e-12, 3)
            cols = slice(first[r], first[r] + one.size)
            assert np.array_equal(pmf[r, cols], one) and np.array_equal(tails[r, cols], one_tails)
            assert (lo[r], m_max[r]) == (one_lo, one_m)
        gen = mm_infty(2.0, 0.5, 30).to_generator()
        path = marginal_path(gen, DiscreteMeasure([3.0], [1.0]), [tiny, 5.0])
        assert path[0].m_max == 0 and path[1].m_max > 0


def benchmark_generators():
    """The generators of the benchmark's clocks: 31, 201 and 4097 states."""
    spec = pdmp.PdmpSpec.from_dict(
        {
            "drift": {"name": "neg_tanh"},
            "intensity": {"const": 0.5},
            "kernel": {"name": "shift", "d": 0.5},
        }
    )
    grid = np.linspace(-8.5, 9.0, 4097)
    return [
        (mm_infty(2.0, 0.5, 30).to_generator(), [DiscreteMeasure([3.0], [1.0])]),
        (mm_infty(1.0, 0.8, 30).to_generator(), [DiscreteMeasure([6.0], [1.0])]),
        (
            mm_infty(20.0, 1.0, 200).to_generator(),
            [DiscreteMeasure([5.0], [1.0]), DiscreteMeasure([40.0], [1.0])],
        ),
        (
            pdmp.mu_generator(spec, 8.0, grid).generator,
            [
                pdmp.embed_on_grid(DiscreteMeasure([0.5, 1.0, 1.5], [0.4, 0.3, 0.3]), grid),
                pdmp.embed_on_grid(DiscreteMeasure([-1.0, -0.4], [0.5, 0.5]), grid),
            ],
        ),
    ]


def random_sparse_generator(rng, n, density):
    """A generator on the states ``0..n-1``: each row jumps to the next state
    and to about a ``density`` share of the others, and about a fifth of the
    rates are 0 (one rate is 3 so the clock ticks)."""
    jumps = rng.random((n, n)) < density
    jumps[np.arange(n), (np.arange(n) + 1) % n] = True  # every row jumps somewhere
    np.fill_diagonal(jumps, False)
    weights = np.where(jumps, rng.random((n, n)), 0.0)
    kernel = weights / weights.sum(axis=1, keepdims=True)
    lam = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.1, 5.0, n))
    lam[rng.integers(n)] = 3.0
    return JumpGeneratorSpec(np.arange(float(n)), lam, kernel)


def same_windows(a, b):
    """Two lists of clock windows ``(pmf, m_min, m_max, tail)``, bit for bit."""
    return len(a) == len(b) and all(
        np.array_equal(wa[0], wb[0]) and wa[1:] == wb[1:] for wa, wb in zip(a, b)
    )


def reference_tick(gen, u):
    """One uniformized jump step, the kept mass plus the weighted kernel step."""
    return gen._keep * u + gen.weighted_kernel_apply(u) / gen.lambda_bar


def tick_ulp_bound(gen):
    """Per state, the ulps by which the pre-scaled tick may differ from the
    reference: both add the same nonnegative terms in one order, each with
    three roundings, so ``2 k + 6`` ulps for ``k`` stored kernel entries
    into the state bounds them; a state with at most two entries (every
    birth-death state) keeps the measured 4."""
    terms = np.bincount(gen.kernel._t[0], minlength=gen.n_states)
    return np.where(terms <= 2, 4, 2 * terms + 6)


def ulps(a, ref):
    return np.abs(a - ref) / np.spacing(np.abs(ref))


class TestClockPass:
    """The batched Fox-Glynn windows and the pre-scaled tick of the clock."""

    MUS = [0.0, 1e-9, 0.3, 1.0, 2.5, 2000.0, 20000.0]

    @pytest.mark.parametrize("budget", [1e-10, 1e-12 / 121, 1e-14])
    @pytest.mark.parametrize("cells", [None, 3000])
    def test_windows_match_the_per_node_recursion(self, budget, cells, monkeypatch):
        # bit for bit, in the given (unsorted) order; a tiny cell cap puts the
        # nodes in many blocks of one to a dozen rows
        passes = []
        real = jump_process._fox_glynn

        def counted(mus, tol, top=0):
            passes.append(len(mus))
            return real(mus, tol, top)

        monkeypatch.setattr(jump_process, "_fox_glynn", counted)
        if cells is not None:
            monkeypatch.setattr(jump_process, "_WINDOW_CELLS", cells)
        mus = np.concatenate([self.MUS, np.random.default_rng(7).uniform(0.0, 800.0, 400)])
        windows = _clock_windows(mus, budget)
        assert len(windows) == mus.size and sum(passes) == mus.size
        assert (len(passes) > 100) if cells is not None else (len(passes) < 60)
        for mu, (pmf, m_min, m_max, tail) in zip(mus, windows):
            ref, ref_min, ref_max, ref_tail = clock_window_per_node(mu, budget)
            assert np.array_equal(pmf, ref), mu
            assert (m_min, m_max, tail) == (ref_min, ref_max, ref_tail)
            assert type(m_min) is int and type(m_max) is int and type(tail) is float

    def test_tick_matches_the_weighted_kernel_step(self):
        # along the benchmark's chains, 200 ticks from each start
        for gen, starts in benchmark_generators():
            tick, bound = _jump_tick(gen), tick_ulp_bound(gen)
            for p0 in starts:
                u = _state_vector(gen, p0)
                out = np.empty(gen.n_states)
                for _ in range(200):
                    ref = reference_tick(gen, u)
                    tick(u, out)
                    assert np.all(ulps(out, ref)[ref != 0.0] <= bound[ref != 0.0])
                    assert np.array_equal(out == 0.0, ref == 0.0)
                    u = ref

    def test_long_chain_keeps_its_mass(self):
        gen = mm_infty(20, 1, 200).to_generator()
        tick = _jump_tick(gen)
        u = _state_vector(gen, DiscreteMeasure([3.0], [1.0]))
        for _ in range(736):
            tick(u, u)
        assert abs(u.sum() - 1.0) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    def test_tick_on_random_sparse_kernels(self, n, density, seed):
        rng = np.random.default_rng(seed)
        gen = random_sparse_generator(rng, n, density)
        u = rng.dirichlet(np.full(n, 0.5))
        ref = reference_tick(gen, u)
        out = np.empty(n)
        _jump_tick(gen)(u, out)
        assert np.all(ulps(out, ref)[ref != 0.0] <= tick_ulp_bound(gen)[ref != 0.0])
        assert abs(out.sum() - u.sum()) <= 4 * n * np.finfo(float).eps
        _jump_tick(gen)(u, u)  # in place, into its own input
        np.testing.assert_array_equal(u, out)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 30), st.floats(0.05, 1.0), st.integers(1, 3), st.integers(0, 2**32 - 1)
    )
    def test_starts_share_one_chain(self, n, density, n_starts, seed):
        # a path of 1-3 starts ticks one stacked chain; each start's node laws
        # and the shared windows are its one-start solve's, bit for bit
        rng = np.random.default_rng(seed)
        gen = random_sparse_generator(rng, n, density)
        starts = []
        for _ in range(n_starts):
            atoms = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
            starts.append(DiscreteMeasure(gen.states[atoms], rng.dirichlet(np.ones(atoms.size))))
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, rng.integers(1, 6)))])
        laws, windows = _path_laws(gen, starts, times, 1e-12)
        assert len(laws) == n_starts
        for p0, law in zip(starts, laws):
            (one,), one_windows = _path_laws(gen, [p0], times, 1e-12)
            assert law.shape == (times.size, n) and np.array_equal(law, one)
            assert same_windows(windows, one_windows)

    def test_stacked_block_shorter_than_the_clock(self, monkeypatch):
        # two 4097-state starts hold 63 ticks a block against one start's 127;
        # on a clock out to 183 ticks the block edges move, and the node laws
        # may move in their last bits only
        gen, starts = benchmark_generators()[-1]
        times = np.linspace(0.0, 12.0, 5)
        chains = []
        real = jump_process._clock_sums

        def counted(tick, u, windows):
            chains.append(u.shape)
            return real(tick, u, windows)

        monkeypatch.setattr(jump_process, "_clock_sums", counted)
        laws, windows = _path_laws(gen, starts, times, 1e-12)
        assert chains == [(2, 4097)] and windows[-1][2] > 127
        for p0, law in zip(starts, laws):
            (one,), one_windows = _path_laws(gen, [p0], times, 1e-12)
            assert same_windows(windows, one_windows)
            np.testing.assert_allclose(law, one, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("which, t_end, nodes", [(2, 2.5, 121), (3, 1.0, 17)])
    def test_benchmark_pairs_are_their_one_start_solves(self, which, t_end, nodes):
        # the benchmark's path pairs: 201 states out to 736 ticks, and 4097
        # states out to 38, inside one stacked block; bit for bit
        gen, starts = benchmark_generators()[which]
        times = np.linspace(0.0, t_end, nodes)
        laws, _ = _path_laws(gen, starts, times, 1e-12)
        for p0, law in zip(starts, laws):
            (one,), _ = _path_laws(gen, [p0], times, 1e-12)
            assert np.array_equal(law, one)

    def test_long_path_memory_stays_within_the_per_node_pass(self):
        # 400 nodes out to clock mean 2e4: the per-node pass keeps each
        # node's whole 80 sqrt(mu)-wide window alive behind its cut view
        mus = np.linspace(0.0, 2e4, 400)
        budget = 1e-12 / mus.size

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_node = traced_peak(lambda: [clock_window_per_node(mu, budget) for mu in mus])
        assert traced_peak(lambda: _clock_windows(mus, budget)) <= 2 * per_node
        gen = three_state()
        times = mus / gen.lambda_bar
        p0 = DiscreteMeasure([0.5], [1.0])
        assert traced_peak(lambda: marginal_path(gen, p0, times)) <= 2 * per_node


class TestMarginal:
    def test_poisson_closed_form(self):
        # marginal of the truncated counter is the Poisson pmf below the cap
        gen = poisson_counter(30)
        p0 = DiscreteMeasure([0.0], [1.0])
        t = 2.0
        marg = uniformized_marginal(gen, p0, t, tol=1e-13)
        full = np.zeros(31)
        full[np.searchsorted(gen.states, marg.support)] = marg.weights
        for n in range(20):
            expect = math.exp(-t) * t**n / math.factorial(n)
            assert full[n] == pytest.approx(expect, abs=1e-13)

    def test_telegraph_closed_form(self):
        a, b = 1.7, 0.6
        gen = telegraph(a, b)
        p0 = DiscreteMeasure([0.0], [1.0])
        for t in [0.0, 0.3, 1.0, 4.0]:
            marg = uniformized_marginal(gen, p0, t, tol=1e-13)
            p1 = a / (a + b) * (1.0 - math.exp(-(a + b) * t))
            got = 0.0 if marg.support[-1] != 1.0 else marg.weights[-1]
            assert got == pytest.approx(p1, abs=1e-12)

    def test_zero_rate_identity(self):
        gen = JumpGeneratorSpec([0.0, 1.0], [0.0, 0.0], np.eye(2))
        p0 = DiscreteMeasure([0.0, 1.0], [0.3, 0.7])
        marg = uniformized_marginal(gen, p0, 5.0)
        np.testing.assert_array_equal(marg.support, p0.support)
        np.testing.assert_array_equal(marg.weights, p0.weights)
        assert marg.truncation_error == 0.0

    def test_mass_within_declared_truncation(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        for tol in [1e-8, 1e-10, 1e-13]:
            marg = uniformized_marginal(gen, p0, 2.5, tol=tol)
            assert marg.truncation_error < tol
            assert 1.0 - marg.total_mass <= marg.truncation_error + 1e-15

    def test_chapman_kolmogorov(self):
        gen = three_state()
        p0 = DiscreteMeasure([-1.0, 2.0], [0.4, 0.6])
        tol = 1e-12
        direct = uniformized_marginal(gen, p0, 1.4, tol=tol)
        half = uniformized_marginal(gen, p0, 0.5, tol=tol)
        relay = uniformized_marginal(gen, half, 0.9, tol=tol)
        lookup = dict(zip(relay.support, relay.weights))
        for x, w in zip(direct.support, direct.weights):
            assert lookup.get(x, 0.0) == pytest.approx(w, abs=2 * tol)

    def test_negative_time_rejected(self):
        gen = three_state()
        with pytest.raises(ValueError):
            uniformized_marginal(gen, DiscreteMeasure([0.5], [1.0]), -0.1)

    def test_bad_tol_rejected(self):
        gen = three_state()
        with pytest.raises(ValueError):
            uniformized_marginal(gen, DiscreteMeasure([0.5], [1.0]), 1.0, tol=0.0)

    def test_p0_off_states_rejected(self):
        gen = three_state()
        with pytest.raises(ValueError):
            uniformized_marginal(gen, DiscreteMeasure([0.25], [1.0]), 1.0)


def transposed_generator(q):
    """Sparse transposed generator matrix ``Q^T`` with ``Q = diag(lam)(K - I)``."""
    n = q.n_states
    k = sparse.csr_array((q.kernel.data, q.kernel.indices, q.kernel.indptr), shape=(n, n))
    return (sparse.diags_array(q.lam) @ (k - sparse.eye_array(n))).T.tocsc()


class TestMarginalPath:
    @pytest.mark.parametrize(
        "gen, p0, clock, nodes",
        [
            (
                mm_infty(20, 1, 200).to_generator(),
                DiscreteMeasure([3.0, 40.0], [0.5, 0.5]),
                550.0,
                41,
            ),
            (three_state(), DiscreteMeasure([-1.0, 2.0], [0.4, 0.6]), 6.3, 31),
            (three_state(), DiscreteMeasure([0.5], [1.0]), 105.0, 7),
            # a long clock: every node past t = 0 drops hundreds of early ticks
            (three_state(), DiscreteMeasure([0.5], [1.0]), 2000.0, 5),
        ],
    )
    def test_matches_expm_multiply(self, gen, p0, clock, nodes):
        # every node against Al-Mohy & Higham's expm_multiply on the grid,
        # with declared truncation below tol and covering the missing mass
        # and both clock tails the node's window cuts
        t_end = clock / gen.lambda_bar
        times = np.linspace(0.0, t_end, nodes)
        tol = 1e-12
        path = marginal_path(gen, p0, times, tol=tol)
        ref = expm_multiply(
            transposed_generator(gen), _state_vector(gen, p0), start=0.0, stop=t_end, num=nodes
        )
        assert len(path) == nodes
        for t, m, want in zip(times, path, ref):
            assert np.max(np.abs(_state_vector(gen, m) - want)) <= 1e-12
            assert m.truncation_error <= tol
            assert 1.0 - m.total_mass <= m.truncation_error + 1e-15
            mu = gen.lambda_bar * t
            cut = poisson.cdf(m.m_min - 1, mu) + poisson.sf(m.m_max, mu)
            assert cut < tol / nodes
            assert m.truncation_error >= cut * (1.0 - 1e-9)
        if clock >= 2000.0:
            assert all(m.m_min > 0 for m in path[1:])

    def test_nodes_are_one_shot_solves_on_one_clock(self, monkeypatch):
        # 121 nodes out to clock mean 547.5: each node is the one-node solve at
        # the path's per-node tolerance, with its full support, and the path
        # ticks a single chain once out to the last node's cutoff (stepping
        # panel to panel ticks 3480 times here)
        ticks = []
        real = jump_process._clock_sums

        def counted(tick, u, windows):
            def one(prev, out):
                ticks.append(1)
                tick(prev, out)

            return real(one, u, windows)

        monkeypatch.setattr(jump_process, "_clock_sums", counted)
        gen = mm_infty(20, 1, 200).to_generator()
        p0 = DiscreteMeasure([3.0], [1.0])
        times = np.linspace(0.0, 2.5, 121)
        path = marginal_path(gen, p0, times, tol=1e-12)
        assert len(ticks) == path[-1].m_max == max(m.m_max for m in path)
        assert len(ticks) < 1000
        monkeypatch.undo()
        for t, m in zip(times, path):
            one = uniformized_marginal(gen, p0, t, tol=1e-12 / 121)
            np.testing.assert_array_equal(m.support, one.support)
            np.testing.assert_allclose(m.weights, one.weights, rtol=0.0, atol=1e-15)
            assert (m.m_min, m.m_max) == (one.m_min, one.m_max)
            mu = gen.lambda_bar * t
            assert poisson.cdf(m.m_min - 1, mu) + poisson.sf(m.m_max, mu) < 1e-12 / 121

    def test_rounding_loss_is_numerical_error(self):
        # 2e4 clock events in one node: the normalized Poisson weights keep
        # the mass inside 1 +/- 2e-12, but rows that each gain 9e-13 (inside
        # the generator's 1e-12 row check) move it past that band
        gen = mm_infty(20, 1, 200).to_generator()
        p0, t = DiscreteMeasure([3.0], [1.0]), 20000.0 / 220.0
        held = uniformized_marginal(gen, p0, t, tol=1e-12)
        assert abs(held.total_mass - 1.0) <= 2e-12
        k = gen.kernel
        gaining = JumpGeneratorSpec(
            gen.states, gen.lam, Kernel(k.indptr, k.indices, k.data * (1.0 + 9e-13), k.n)
        )
        with pytest.raises(NumericalError, match="outside 1 \\+/- 2e-12"):
            uniformized_marginal(gaining, p0, t, tol=1e-12)

    def test_nodes_are_typed_marginals(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        path = marginal_path(gen, p0, [0.0, 0.4, 1.3])
        for m in path:
            assert isinstance(m, Marginal) and isinstance(m, DiscreteMeasure)
        assert path[0].truncation_error == 0.0 and path[0].m_max == 0
        assert path[2].m_max >= 1
        # the one-panel path is uniformized_marginal
        one = uniformized_marginal(gen, p0, 1.3, tol=1e-12)
        assert isinstance(one, Marginal)
        assert one.m_max == _fox_glynn(np.array([gen.lambda_bar * 1.3]), 1e-12)[4][0]

    def test_fields_set_by_the_constructor(self):
        m = Marginal([0.0, 1.0], [0.5, 0.5 - 3e-13], 1e-13, 7, 1.0)
        assert (m.m_min, m.m_max) == (0, 7)
        assert m.truncation_error == pytest.approx(3e-13, rel=1e-3)
        m = Marginal([0.0, 1.0], [0.5, 0.5], 2e-13, 4, 1.0, m_min=2)
        assert m.truncation_error == 2e-13 and m.m_min == 2

    def test_nodes_keep_their_read_only_state_vectors(self):
        # each node keeps its law on every state; the atoms are its positive
        # entries, and the vector can be changed neither in place nor through
        # the array it was built from
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        for m in marginal_path(gen, p0, [0.0, 0.4, 1.3]):
            assert m.vector.shape == gen.states.shape
            assert not m.vector.flags.writeable
            np.testing.assert_array_equal(m.vector, _state_vector(gen, m))
            with pytest.raises(ValueError):
                m.vector[0] = 1.0
        law = np.array([0.25, 0.0, 0.75])
        m = Marginal(gen.states, law, 0.0, 0, 1.0)
        np.testing.assert_array_equal(m.support, [-1.0, 2.0])
        law[1] = 0.5
        np.testing.assert_array_equal(m.vector, [0.25, 0.0, 0.75])

    @pytest.mark.parametrize(
        "times", [[], [0.5, 0.2], [-0.1, 0.3], [0.0, np.nan], [[0.1, 0.2]]]
    )
    def test_rejects_bad_times(self, times):
        with pytest.raises(ValueError):
            marginal_path(three_state(), DiscreteMeasure([0.5], [1.0]), times)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            marginal_path(three_state(), DiscreteMeasure([0.5], [1.0]), [1.0], tol=0.0)

    def test_overflowing_clock_mean_is_numerical_error(self):
        # lambda_bar t = 219 * 1e307 overflows: a typed error names the time
        # before any window is sized, for the path and for the layers
        gen = mm_infty(20, 1, 200).to_generator()
        p0 = DiscreteMeasure([3.0], [1.0])
        with pytest.raises(NumericalError, match=r"clock mean .* at t=1e\+307 is not finite"):
            marginal_path(gen, p0, [0.5, 1e307])
        with pytest.raises(NumericalError, match=r"at t=1e\+307 is not finite"):
            layer_stack(gen, p0, 1e307, 5)


class TestLayerStack:
    def test_matches_integral_recursion(self):
        # the uniformized two-term recursion against direct quadrature of the
        # defining integral formula
        gen = three_state()
        p0_vec = np.array([0.2, 0.5, 0.3])
        p0 = DiscreteMeasure(gen.states, p0_vec)
        t = 1.5
        stack = layer_stack(gen, p0, t, 3)
        oracle = layer_oracle(gen, p0_vec, t, 3)
        for got, want in zip(stack.layers, oracle):
            np.testing.assert_allclose(got, want, rtol=0, atol=5e-12)

    def test_poisson_layers(self):
        p0 = DiscreteMeasure([0.0], [1.0])
        # in the second case n_max lies above the clock cutoff (12 ticks at
        # tol 1e-13); the window still reaches it, so every layer fills
        for n_top, t, n_max, close in (
            (25, 2.0, 12, {"abs": 1e-14}),
            (40, 0.5, 30, {"rel": 1e-12, "abs": 0.0}),
        ):
            stack = layer_stack(poisson_counter(n_top), p0, t, n_max)
            for n in range(n_max + 1):
                expect = math.exp(-t) * t**n / math.factorial(n)
                assert stack.layers[n][n] == pytest.approx(expect, **close)
                off = stack.layers[n].copy()
                off[n] = 0.0
                assert np.all(off == 0.0)
            # no lower cut here: the declared error is the clock tail above n_max
            tail = poisson.sf(n_max, t)
            assert stack.truncation_error == pytest.approx(tail, rel=1e-12, abs=0.0)

    def test_long_clock_window_above_zero(self):
        # at lambda_bar t = 2000 the window is ticks 152..2337, and genuine
        # jumps are rarer than ticks, so the clock's weight above n_max is ~1;
        # the overflow row declares the 8.8e-14 the layers miss instead
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        t = 2000.0 / gen.lambda_bar
        stack = layer_stack(gen, p0, t, 1500)
        marg = uniformized_marginal(gen, p0, t, tol=1e-13)
        full = np.zeros(3)
        full[np.searchsorted(gen.states, marg.support)] = marg.weights
        total = stack.total()
        np.testing.assert_allclose(total, full, rtol=0, atol=1e-13)
        assert stack.truncation_error >= 1.0 - total.sum()
        assert stack.truncation_error <= 1e-12

    def test_large_layer_block_memory(self):
        # 61 layers of a 4097-node chain: a block of all 61 ticks would be
        # 122 MiB; two-tick blocks peak at 32.1 MiB, the old loop at 28.3 MiB
        gen = mu_chain(4097)
        p0 = pdmp.embed_on_grid(DiscreteMeasure([0.3], [1.0]), gen.states)
        tracemalloc.start()
        try:
            stack = layer_stack(gen, p0, 0.5, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(stack.total().sum() - 1.0) <= stack.truncation_error + 1e-12
        assert peak < 34 * 2**20

    def test_layers_sum_to_marginal(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        t = 1.2
        marg = uniformized_marginal(gen, p0, t, tol=1e-15)
        stack = layer_stack(gen, p0, t, 60, tol=1e-15)
        total = stack.total()
        full = np.zeros(3)
        full[np.searchsorted(gen.states, marg.support)] = marg.weights
        np.testing.assert_allclose(total, full, rtol=0, atol=1e-14)

    def test_layer_mass_bounded_by_poisson_weight(self):
        # n jumps before t requires n arrivals of the dominating clock
        gen = three_state()
        p0 = DiscreteMeasure([-1.0], [1.0])
        t = 0.8
        stack = layer_stack(gen, p0, t, 8)
        mu = gen.lambda_bar * t
        for n, layer in enumerate(stack.layers):
            assert np.all(layer >= 0.0)
            assert layer.sum() <= mu**n / math.factorial(n) + 1e-12

    def test_q_chain_mass_bound(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        stack = layer_stack(gen, p0, 1.0, 6)
        for n, q in enumerate(stack.q_chain):
            assert q.sum() <= gen.lambda_bar**n * (1.0 + 1e-12)

    def test_zero_time(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        stack = layer_stack(gen, p0, 0.0, 4)
        np.testing.assert_array_equal(stack.layers[0], [0.0, 1.0, 0.0])
        for layer in stack.layers[1:]:
            assert np.all(layer == 0.0)
        assert stack.truncation_error == 0.0

    def test_negative_n_max_rejected(self):
        gen = three_state()
        with pytest.raises(ValueError):
            layer_stack(gen, DiscreteMeasure([0.5], [1.0]), 1.0, -1)

    @pytest.mark.parametrize("t", [-0.1, np.nan, np.inf])
    def test_bad_time_rejected(self, t):
        with pytest.raises(ValueError, match="^t must be finite"):
            layer_stack(three_state(), DiscreteMeasure([0.5], [1.0]), t, 3)


class TestLayerInequalities:
    def test_report_small_violations(self):
        gen = three_state()
        p0 = DiscreteMeasure([-1.0, 0.5], [0.5, 0.5])
        rep = layer_inequality_report(gen, p0, 0.6, 1.1, 10)
        assert rep.max_violation <= 1e-10

    def test_report_poisson_instance(self):
        gen = poisson_counter(25)
        p0 = DiscreteMeasure([0.0], [1.0])
        rep = layer_inequality_report(gen, p0, 0.9, 2.3, 12)
        assert rep.max_violation <= 1e-10

    def test_s_equals_t(self):
        gen = three_state()
        p0 = DiscreteMeasure([2.0], [1.0])
        rep = layer_inequality_report(gen, p0, 1.0, 1.0, 8)
        assert rep.max_violation <= 1e-12

    def test_s_zero(self):
        gen = three_state()
        p0 = DiscreteMeasure([2.0], [1.0])
        rep = layer_inequality_report(gen, p0, 0.0, 1.0, 5)
        assert rep.max_violation <= 1e-12

    def test_equivalence_factor_needed(self):
        # dropping the exponential factor must break the time-equivalence
        # bound for some instance, so the factor is load-bearing
        gen = telegraph(2.0, 0.5)
        p0 = DiscreteMeasure([0.0], [1.0])
        s, t = 0.5, 2.0
        stack_s = layer_stack(gen, p0, s, 4)
        stack_t = layer_stack(gen, p0, t, 4)
        bare = max(
            float(np.max(stack_s.layers[n] - (s / t) ** n * stack_t.layers[n]))
            for n in range(5)
        )
        assert bare > 1e-3

    def test_long_clock_keeps_low_layers(self):
        # at lambda_bar t = 60 the clock holds less than 1e-13 of its mass on
        # ticks <= n_max, yet the layers are exact and s = t / 2 meets the
        # time-equivalence inequality with equality
        gen = poisson_counter(40)
        p0 = DiscreteMeasure([0.0], [1.0])
        stack = layer_stack(gen, p0, 60.0, 8)
        for n in range(9):
            expect = math.exp(-60.0) * 60.0**n / math.factorial(n)
            assert stack.layers[n][n] == pytest.approx(expect, rel=1e-12, abs=0.0)
        assert layer_inequality_report(gen, p0, 30.0, 60.0, 8).max_violation <= 1e-10

    def test_one_clock_for_both_times(self, monkeypatch):
        # the report ticks one clock for s and t, and the stacks it reads share
        # one q_chain and equal the one-time stacks bit for bit
        ticked = []
        real = jump_process._clock_sums

        def counted(tick, u, windows):
            ticked.append(len(windows))
            return real(tick, u, windows)

        monkeypatch.setattr(jump_process, "_clock_sums", counted)
        gen = three_state()
        p0 = DiscreteMeasure([-1.0, 0.5], [0.5, 0.5])
        layer_inequality_report(gen, p0, 0.6, 1.1, 10)
        assert ticked == [2]
        monkeypatch.undo()
        stacks = _layer_stacks(gen, p0, [0.6, 1.1], 10, 1e-13)
        assert stacks[0].q_chain is stacks[1].q_chain
        for t, stack in zip((0.6, 1.1), stacks):
            one = layer_stack(gen, p0, t, 10)
            np.testing.assert_array_equal(np.stack(stack.layers), np.stack(one.layers))
            assert stack.truncation_error == one.truncation_error

    def test_one_window_pass_for_every_time(self, monkeypatch):
        # the report's two stacks take their windows from one batched
        # Fox-Glynn pass, also with lambda_bar s subnormal beside lambda_bar t
        passes = []
        real = jump_process._fox_glynn

        def counted(mus, tol, top=0):
            passes.append(len(mus))
            return real(mus, tol, top)

        monkeypatch.setattr(jump_process, "_fox_glynn", counted)
        gen = three_state()
        p0 = DiscreteMeasure([2.0], [1.0])
        rep = layer_inequality_report(gen, p0, 2.2e-313, 1.5, 6)
        assert passes == [2]
        assert rep.max_violation <= 1e-10

    def test_bad_times_rejected(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        with pytest.raises(ValueError):
            layer_inequality_report(gen, p0, -0.1, 1.0, 3)
        with pytest.raises(ValueError):
            layer_inequality_report(gen, p0, 0.1, 0.0, 3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^s must be finite"):
                layer_inequality_report(gen, p0, bad, 1.0, 3)
            with pytest.raises(ValueError, match="^t must be finite"):
                layer_inequality_report(gen, p0, 0.1, bad, 3)


class TestKernelMomentBound:
    def test_bound_holds_three_state(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        f = np.abs(gen.states) + 0.3
        for t in [0.2, 1.0, 3.0]:
            for eta in [0.3, 1.0, 2.5]:
                res = kernel_moment_bound(gen, p0, t, f, eta)
                assert res.lhs <= res.rhs * (1.0 + 1e-12)

    def test_bound_holds_telegraph(self):
        gen = telegraph(1.0, 1.0)
        p0 = DiscreteMeasure([0.0], [1.0])
        res = kernel_moment_bound(gen, p0, 1.0, np.array([0.0, 1.0]), 1.0)
        assert res.lhs <= res.rhs

    def test_constant_value(self):
        # frozen from the closed form: lambda_bar=1, eta=1, t=1 gives
        # e * (e^(e^(2/e) - 1) - e^(-1))^(1/2)
        c_eta = math.exp(2.0 / math.e)
        expect = math.e * math.sqrt(math.exp(c_eta - 1.0) - math.exp(-1.0))
        assert kernel_moment_constant(1.0, 1.0, 1.0) == pytest.approx(expect, rel=1e-15)

    def test_constant_small_time_limit(self):
        for lb in [0.5, 1.0, 3.0]:
            for eta in [0.4, 1.0, 2.0]:
                lim = kernel_moment_constant_limit(lb, eta)
                at_tiny = kernel_moment_constant(lb, eta, 1e-6)
                assert at_tiny == pytest.approx(lim, rel=1e-4)

    def test_limit_value_eta_one(self):
        # lambda_bar=1, eta=1: limit is (e^(2/e))^(1/2) = e^(1/e)
        assert kernel_moment_constant_limit(1.0, 1.0) == pytest.approx(
            math.exp(1.0 / math.e), rel=1e-15
        )

    def test_rejects_bad_args(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        f = np.zeros(3)
        with pytest.raises(ValueError):
            kernel_moment_bound(gen, p0, 0.0, f, 1.0)
        with pytest.raises(ValueError):
            kernel_moment_bound(gen, p0, 1.0, f, 0.0)
        with pytest.raises(ValueError):
            kernel_moment_bound(gen, p0, 1.0, np.zeros(2), 1.0)


class TestMomentGrowthBound:
    def test_holds_on_instances(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        for alpha in [1.0, 2.0, 2.5, 3.0]:
            for t in [0.0, 0.7, 2.0]:
                exact, bound = moment_growth_bound(gen, p0, alpha, t)
                assert exact <= bound * (1.0 + 1e-12)

    def test_zero_rate_equality(self):
        gen = JumpGeneratorSpec([0.0, 1.0], [0.0, 0.0], np.eye(2))
        p0 = DiscreteMeasure([0.0, 1.0], [0.3, 0.7])
        exact, bound = moment_growth_bound(gen, p0, 2.0, 5.0)
        assert exact == pytest.approx(0.7, rel=1e-12)
        assert bound == pytest.approx(0.7, rel=1e-12)

    def test_poisson_second_moment(self):
        # E[N_t^2] = t + t^2 for the counter; compare the exact side
        gen = poisson_counter(60)
        p0 = DiscreteMeasure([0.0], [1.0])
        t = 1.5
        exact, bound = moment_growth_bound(gen, p0, 2.0, t)
        assert exact == pytest.approx(t + t * t, rel=1e-10)
        assert exact <= bound

    def test_kernel_moment_matches_dense_sum(self):
        # the stored-entry sum gives the dense row sums of k(x,y)|y-x|^alpha
        gen = mu_chain(257)
        p0 = pdmp.embed_on_grid(DiscreteMeasure([0.3], [1.0]), gen.states)
        p0_moment = float(np.dot(_state_vector(gen, p0), np.abs(gen.states) ** 2.5))
        gap = np.abs(gen.states[None, :] - gen.states[:, None]) ** 2.5
        k_bar = max(p0_moment, float(np.max(np.sum(gen.kernel.toarray() * gap, axis=1))))
        mu = gen.lambda_bar * 0.4
        series = 1.0 + 2.0**2.5 * mu + 3.0**2.5 / 2.0 * mu**2
        series += 4.0**2.5 / 6.0 * mu**3 * math.exp(mu)
        _, bound = moment_growth_bound(gen, p0, 2.5, 0.4)
        assert bound == pytest.approx(k_bar * series, rel=1e-13)

    def test_no_dense_kernel_copy(self):
        # a 4097-node chain: an n x n array of jump sizes alone would be 128 MiB
        gen = mu_chain(4097)
        p0 = pdmp.embed_on_grid(DiscreteMeasure([0.3], [1.0]), gen.states)
        tracemalloc.start()
        try:
            exact, bound = moment_growth_bound(gen, p0, 2.0, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exact <= bound
        assert peak < 16 * 2**20

    def test_one_law_for_every_order(self, monkeypatch):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        ticked = []
        real = jump_process._clock_sums

        def counted(tick, u, windows):
            ticked.append(len(windows))
            return real(tick, u, windows)

        monkeypatch.setattr(jump_process, "_clock_sums", counted)
        alphas = [1.0, 2.0, 2.5, 3.0]
        together = jump_process._moment_growth_bounds(gen, p0, alphas, 0.7)
        assert ticked == [1]
        assert together == [moment_growth_bound(gen, p0, alpha, 0.7) for alpha in alphas]

    def test_rejects_bad_args(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        with pytest.raises(ValueError):
            moment_growth_bound(gen, p0, 0.5, 1.0)
        with pytest.raises(ValueError):
            moment_growth_bound(gen, p0, 2.0, -1.0)


class TestSimulatePaths:
    def test_deterministic_rerun(self):
        gen = three_state()
        p0 = DiscreteMeasure([-1.0, 0.5], [0.5, 0.5])
        a = simulate_paths(gen, p0, 1.0, 4000, seed=11)
        b = simulate_paths(gen, p0, 1.0, 4000, seed=11)
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_seed_changes_result(self):
        gen = three_state()
        p0 = DiscreteMeasure([-1.0], [1.0])
        a = simulate_paths(gen, p0, 1.0, 4000, seed=1)
        b = simulate_paths(gen, p0, 1.0, 4000, seed=2)
        assert not (
            np.array_equal(a.support, b.support)
            and np.array_equal(a.weights, b.weights)
        )

    def test_telegraph_clt(self):
        # thinning handles state-dependent rates: flip-flop occupancy vs the
        # closed form within 4 binomial sigmas
        a, b = 1.7, 0.6
        gen = telegraph(a, b)
        p0 = DiscreteMeasure([0.0], [1.0])
        t, n = 1.0, 40000
        emp = simulate_paths(gen, p0, t, n, seed=3)
        p1 = a / (a + b) * (1.0 - math.exp(-(a + b) * t))
        got = emp.weights[emp.support == 1.0][0]
        sigma = math.sqrt(p1 * (1.0 - p1) / n)
        assert abs(got - p1) <= 4.0 * sigma

    def test_poisson_mean_clt(self):
        gen = poisson_counter(40)
        p0 = DiscreteMeasure([0.0], [1.0])
        t, n = 2.0, 20000
        emp = simulate_paths(gen, p0, t, n, seed=5)
        mean = float(np.sum(emp.support * emp.weights))
        sigma = math.sqrt(t / n)
        assert abs(mean - t) <= 4.0 * sigma

    def test_no_per_path_generator_state(self):
        # one generator object per path would take tens of MiB at 1e5 paths
        gen = telegraph(1.7, 0.6)
        p0 = DiscreteMeasure([0.0], [1.0])
        tracemalloc.start()
        try:
            emp = simulate_paths(gen, p0, 1.0, 100_000, seed=77)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emp.total_mass == pytest.approx(1.0, abs=1e-12)
        assert peak < 32 * 2**20

    def test_zero_rate_stays_put(self):
        gen = JumpGeneratorSpec([0.0, 1.0], [0.0, 0.0], np.eye(2))
        p0 = DiscreteMeasure([1.0], [1.0])
        emp = simulate_paths(gen, p0, 3.0, 500, seed=9)
        np.testing.assert_array_equal(emp.support, [1.0])
        np.testing.assert_array_equal(emp.weights, [1.0])

    @pytest.mark.parametrize(
        "gen, start, t",
        [
            # pure death at rate x: most paths absorb at 0, where the rate is 0
            (mm_infty(0.0, 1.0, 10).to_generator(), 5.0, 3.0),
            # rates 1 to 41 across the states, the monte-carlo workload's chain
            (mm_infty(1.0, 1.0, 40).to_generator(), 2.0, 1.0),
        ],
        ids=["pure-death", "mm-infty"],
    )
    def test_zero_and_mixed_rates_match_the_exact_law(self, gen, start, t):
        # each path draws its gaps at its own state's rate; the endpoint law
        # stays within the DKW radius at alpha 1e-7 of the exact marginal,
        # and an absorbed path leaves the loop before any division by 0
        p0 = DiscreteMeasure([start], [1.0])
        n = 20_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emp = simulate_paths(gen, p0, t, n, seed=4)
        exact = uniformized_marginal(gen, p0, t).vector
        assert cdf_gap(gen.states, exact, emp) <= dkw_radius(n)

    def test_constant_rate_stream_unchanged(self, monkeypatch):
        # every state a counting path visits jumps at lambda_bar, so its own
        # rate is the bound and the stream is the one thinning at the bound reads
        gen = poisson_counter(40)
        p0 = DiscreteMeasure([0.0], [1.0])
        own = simulate_paths(gen, p0, 2.0, 20_000, seed=77)

        def at_bound(start, cum0, t, rate, *rest):
            return thinning_at_bound(start, cum0, t, gen.lambda_bar, *rest)

        monkeypatch.setattr(jump_process, "_thinning", at_bound)
        ref = simulate_paths(gen, p0, 2.0, 20_000, seed=77)
        np.testing.assert_array_equal(own.support, ref.support)
        np.testing.assert_array_equal(own.weights, ref.weights)

    def test_mass_exactly_one(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        emp = simulate_paths(gen, p0, 0.5, 777, seed=0)
        assert emp.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_args(self):
        gen = three_state()
        p0 = DiscreteMeasure([0.5], [1.0])
        with pytest.raises(ValueError):
            simulate_paths(gen, p0, -1.0, 10, seed=0)
        with pytest.raises(ValueError):
            simulate_paths(gen, p0, 1.0, 0, seed=0)
        for bad in (np.nan, np.inf, -5e-324):
            with pytest.raises(ValueError, match="^t must be finite"):
                simulate_paths(gen, p0, bad, 10, seed=0)


def random_kernel(rng, n, density):
    """A random ``n``-state CSR kernel: each row keeps a random share of its
    columns (at least one) with positive weights summing to 1."""
    keep = rng.random((n, n)) < density
    keep[np.arange(n), rng.integers(0, n, n)] = True
    dense = np.where(keep, rng.random((n, n)) + 1e-3, 0.0)
    return dense_kernel(dense / dense.sum(axis=1, keepdims=True))


def dense_kernel(dense):
    rows, cols = np.nonzero(dense)
    return Kernel.from_coo(rows, cols, dense[rows, cols], dense.shape[0])


class TestKernelDraw:
    @pytest.mark.parametrize(
        "n, density", [(41, None), (3, 0.7), (17, 0.3), (60, 0.5), (60, 1.0)]
    )
    def test_matches_the_per_row_loop(self, n, density):
        # density None: the birth-death kernel of mm_infty(1, 1, 40)
        rng = np.random.default_rng(n)
        if density is None:
            kernel = mm_infty(1.0, 1.0, n - 1).to_generator().kernel
        else:
            kernel = random_kernel(rng, n, density)
        i = rng.integers(0, n, 9000)
        u = rng.random(9000)
        u[:50] = 0.0
        got = _kernel_draw(kernel)(i, u)
        np.testing.assert_array_equal(got, kernel_draw_per_row(kernel, i, u))

    def test_cdf_breaks_go_to_the_next_entry(self):
        # u equal to a cumulative weight draws the entry after it, as
        # searchsorted(side="right") does
        kernel = dense_kernel(np.array([[0.25, 0.25, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]))
        i = np.array([0, 0, 0, 0, 1, 2, 2])
        u = np.array([0.0, 0.25, 0.5, 0.99, 0.7, 0.5, 0.49])
        np.testing.assert_array_equal(_kernel_draw(kernel)(i, u), [0, 1, 2, 2, 1, 2, 0])
        np.testing.assert_array_equal(kernel_draw_per_row(kernel, i, u), [0, 1, 2, 2, 1, 2, 0])

    def test_last_entry_takes_the_rounding_gap_below_one(self):
        # ten weights of 0.1 sum to 0.9999999999999999: a uniform at or above
        # that sum draws the last entry, as a cumulative sum pinned to 1 does
        kernel = dense_kernel(np.full((10, 10), 0.1))
        assert np.cumsum(kernel.data[:10])[-1] < 1.0
        i = np.array([3, 3, 3])
        u = np.array([np.nextafter(1.0, 0.0), 0.95, 0.0])
        np.testing.assert_array_equal(_kernel_draw(kernel)(i, u), [9, 9, 0])
        np.testing.assert_array_equal(kernel_draw_per_row(kernel, i, u), [9, 9, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 200),
    )
    def test_property_agrees_with_the_per_row_loop(self, n, density, seed, m):
        rng = np.random.default_rng(seed)
        kernel = random_kernel(rng, n, density)
        i = rng.integers(0, n, m)
        u = rng.random(m)
        # half the uniforms sit exactly on the rows' cumulative weights
        lo, hi = kernel.indptr[:-1], kernel.indptr[1:]
        breaks = np.concatenate([np.cumsum(kernel.data[a:b])[:-1] for a, b in zip(lo, hi)] + [[0.0]])
        u[::2] = breaks[rng.integers(0, breaks.size, u[::2].size)]
        np.testing.assert_array_equal(_kernel_draw(kernel)(i, u), kernel_draw_per_row(kernel, i, u))


@st.composite
def small_generators(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    states = np.cumsum(
        np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    )
    lam = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    rows = []
    for i in range(n):
        raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        raw[i] = 0.0
        rows.append(raw / raw.sum())
    return JumpGeneratorSpec(states, lam, np.array(rows))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_generators(), st.floats(0.0, 3.0))
    def test_marginal_mass_and_layers(self, gen, t):
        p0 = DiscreteMeasure([gen.states[0]], [1.0])
        marg = uniformized_marginal(gen, p0, t, tol=1e-11)
        assert 1.0 - marg.total_mass <= marg.truncation_error + 1e-15
        assert marg.total_mass <= 1.0 + 1e-12
        stack = layer_stack(gen, p0, t, 6)
        for layer in stack.layers:
            assert np.all(layer >= 0.0)

    @settings(max_examples=15, deadline=None)
    @given(small_generators(), st.floats(0.05, 2.0), st.floats(0.0, 1.0))
    def test_inequality_report(self, gen, t, frac):
        p0 = DiscreteMeasure([gen.states[-1]], [1.0])
        rep = layer_inequality_report(gen, p0, frac * t, t, 6)
        assert rep.max_violation <= 1e-10
