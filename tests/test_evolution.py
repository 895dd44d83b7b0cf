"""Tests for the transport-cost evolution identity."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import exact_merge_power, integrand_from_pair
from test_pdmp import tanh_spec

from wflow import evolution, jump_process, transport
from wflow.evolution import apply_generator, verify_identity
from wflow.jump_process import JumpGeneratorSpec, marginal_path, uniformized_marginal
from wflow.measures import DiscreteMeasure
from wflow.pdmp import ShiftJump, embed_on_grid, mu_generator
from wflow.transport import potentials, wasserstein_power


def birth_death_gen(n_top, birth, death):
    """Nearest-neighbour generator on {0..n_top}; top birth rate cut."""
    states = np.arange(n_top + 1, dtype=float)
    up = np.array([birth(x) for x in states])
    down = np.array([death(x) for x in states])
    up[-1] = 0.0
    down[0] = 0.0
    lam = up + down
    kernel = np.zeros((n_top + 1, n_top + 1))
    for i in range(n_top + 1):
        if lam[i] > 0:
            if i + 1 <= n_top:
                kernel[i, i + 1] = up[i] / lam[i]
            if i - 1 >= 0:
                kernel[i, i - 1] = down[i] / lam[i]
        else:
            kernel[i, i] = 1.0
    return JumpGeneratorSpec(states, lam, kernel)


def counting_gen(n_top, shift=0.0, rate=1.0):
    """Pure-birth counter on {shift..n_top+shift}, absorbing at the top."""
    states = np.arange(n_top + 1, dtype=float) + shift
    lam = np.full(n_top + 1, rate)
    lam[-1] = 0.0
    kernel = np.zeros((n_top + 1, n_top + 1))
    for i in range(n_top):
        kernel[i, i + 1] = 1.0
    kernel[-1, -1] = 1.0
    return JumpGeneratorSpec(states, lam, kernel)


def dirac(x):
    return DiscreteMeasure(np.array([float(x)]), np.array([1.0]))


def reference_instance():
    """Unit-birth, linear-death chain with Dirac starts at 3 and 7."""
    gen = birth_death_gen(40, lambda x: 1.0, lambda x: x)
    return gen, dirac(3.0), dirac(7.0)


class TestApplyGenerator:
    def test_constant_function_annihilated(self):
        gen = birth_death_gen(10, lambda x: 2.0, lambda x: 0.5 * x)
        out = apply_generator(gen, np.full(11, 3.7))
        assert np.max(np.abs(out)) <= 1e-13

    def test_identity_gives_drift(self):
        gen = birth_death_gen(12, lambda x: 1.5, lambda x: 0.3 * x)
        up = np.array([1.5] * 12 + [0.0])
        down = 0.3 * np.arange(13.0)
        out = apply_generator(gen, gen.states)
        assert np.allclose(out, up - down, atol=1e-12)

    def test_counter_identity_function(self):
        # rate-lam counter moves f(x)=x up by lam per unit time, except at
        # the absorbing top
        gen = counting_gen(8, rate=2.0)
        out = apply_generator(gen, gen.states)
        assert np.allclose(out[:-1], 2.0, atol=1e-14)
        assert out[-1] == 0.0

    def test_shape_mismatch_rejected(self):
        gen = counting_gen(5)
        with pytest.raises(ValueError):
            apply_generator(gen, np.ones(3))
        with pytest.raises(ValueError):
            apply_generator(gen, np.ones((2, 2, 6)))

    def test_rows_apply_one_at_a_time(self):
        gen = birth_death_gen(12, lambda x: 1.5, lambda x: 0.3 * x)
        rows = np.random.default_rng(3).normal(size=(4, 13))
        out = apply_generator(gen, rows)
        for f, row in zip(rows, out):
            np.testing.assert_array_equal(row, apply_generator(gen, f))


class TestRhsIntegrand:
    """The identity's right-hand side, read from ``verify_identity``'s integrand."""

    def test_equal_marginals_zero(self):
        gen = birth_death_gen(15, lambda x: 1.0, lambda x: 0.7 * x)
        rep = verify_identity(gen, gen, dirac(4.0), dirac(4.0), 2.0, 0.35, 2)
        assert abs(rep.integrand[-1]) <= 1e-12

    def test_translated_counters_zero(self):
        # identical dynamics on shifted lattices keep the cost constant
        genX = counting_gen(12)
        genY = counting_gen(12, shift=2.0)
        rep = verify_identity(genX, genY, dirac(0.0), dirac(2.0), 2.0, 0.8, 2)
        assert abs(rep.w_values[-1] - 4.0) <= 1e-12
        assert abs(rep.integrand[-1]) <= 1e-12

    def test_finite_difference_oracle(self):
        # central difference of the cost curve at a smooth time
        gen, p0X, p0Y = reference_instance()
        t, d = 0.6, 1e-3
        w = {}
        for s in (t - d, t + d):
            mX = uniformized_marginal(gen, p0X, s)
            mY = uniformized_marginal(gen, p0Y, s)
            w[s] = wasserstein_power(mX, mY, 2.0)
        fd = (w[t + d] - w[t - d]) / (2 * d)
        # the candidate and the exact merge derivative at the last node of a
        # grid ending at t
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, t, 2)
        assert abs(rep.integrand[-1] - fd) <= 2e-5
        assert abs(rep.derivative[-1] - fd) <= 2e-5

    def test_sign_matches_contraction(self):
        # positive curvature forces the cost downward at every time
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 20)
        assert np.all(rep.integrand[[1, 6, 20]] < 0.0)  # t = 0.05, 0.3, 1


class TestVerifyIdentity:
    def test_identical_inputs_exact(self):
        # costs vanish identically; the only nonzero panel is the first,
        # where the regularized node-0 marginal has truncated support and
        # its dual closure bends at the support edge, an O(eps) bias
        gen = birth_death_gen(20, lambda x: 1.0, lambda x: 0.5 * x)
        p0 = dirac(5.0)
        rep = verify_identity(gen, gen, p0, p0, 2.0, 0.5, 40)
        assert np.max(np.abs(rep.w_values)) <= 1e-13
        assert np.max(rep.residual) <= 1e-10
        assert np.max(rep.residual[2:]) <= 1e-15

    def test_translated_counters_flat(self):
        genX = counting_gen(12)
        genY = counting_gen(12, shift=2.0)
        rep = verify_identity(genX, genY, dirac(0.0), dirac(2.0), 2.0, 0.8, 50)
        assert np.max(np.abs(rep.w_values - 4.0)) <= 1e-12
        # node 0 uses regularized marginals whose truncated support bends
        # the closure; small-time nodes keep a trace of the same edge
        # effect until the support fills out, later nodes are float-exact
        assert abs(rep.integrand[0]) <= 1e-8
        assert np.max(np.abs(rep.integrand[1:])) <= 1e-10
        assert np.max(np.abs(rep.integrand[30:])) <= 1e-15
        # the diracs tie every level at t = 0; ordered by rate they give the
        # flat cost's derivative, 0, where the unregularized candidate reads 2
        assert np.max(np.abs(rep.derivative)) <= 1e-12
        assert rep.max_residual <= 1e-10

    def test_reference_instance_residual(self):
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 400)
        assert rep.w_values[0] == 16.0
        assert rep.max_residual <= 1e-9
        # corners of the cost curve leave first-order panels far above the
        # pointwise mismatch
        assert np.max(rep.residual) >= 1e3 * rep.max_residual

    def test_reference_instance_refinement(self):
        gen, p0X, p0Y = reference_instance()
        coarse = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 200)
        fine = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 400)
        assert coarse.max_residual <= 1e-9
        assert fine.max_residual <= 1e-9
        # the shared nodes see the same derivative
        assert np.allclose(fine.derivative[::2], coarse.derivative, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_smooth_window_third_order(self, rho):
        # on a corner-free window the panel mismatch drops like the cube of
        # the step; the first crossing that matters lies in (0.031, 0.0315)
        gen, p0X, p0Y = reference_instance()
        coarse = verify_identity(gen, gen, p0X, p0Y, rho, 0.03, 100)
        fine = verify_identity(gen, gen, p0X, p0Y, rho, 0.03, 200)
        assert np.max(fine.residual[1:]) < 1e-8
        assert np.max(coarse.residual[1:]) / np.max(fine.residual[1:]) >= 3.5
        assert fine.max_residual <= 1e-9

    def test_monotone_decay_under_positive_curvature(self):
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 100)
        assert np.all(rep.integrand <= 1e-12)
        assert np.all(np.diff(rep.w_values) <= 1e-12)

    def test_cumulative_tracks_cost(self):
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 400)
        drift = rep.w_values - rep.w_values[0] - rep.cumulative_integral
        assert np.max(np.abs(drift)) <= 5e-3

    def test_stale_potentials_stay_weakly_dual(self):
        # a dual pair frozen at time t may not exceed the cost at t + h
        gen, p0X, p0Y = reference_instance()
        for t, h in [(0.2, 0.05), (0.5, 0.1), (0.9, 0.02)]:
            mX = uniformized_marginal(gen, p0X, t)
            mY = uniformized_marginal(gen, p0Y, t)
            pair = potentials(mX, mY, 2.0)
            nX = uniformized_marginal(gen, p0X, t + h)
            nY = uniformized_marginal(gen, p0Y, t + h)
            value = -np.dot(
                nX.weights, pair.psi_at(nX.support)
            ) - np.dot(nY.weights, pair.psi_tilde_at(nY.support))
            assert value <= wasserstein_power(nX, nY, 2.0) + 1e-9

    def test_diagnostics_finite(self):
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 50)
        assert np.all(np.isfinite(rep.diagnostics))
        assert np.all(rep.diagnostics >= 0.0)

    def test_csv_layout(self, tmp_path):
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 0.2, 10)
        buf = io.StringIO()
        rep.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == (
            "t,w_rho_rho,integrand,cumulative,residual,diag,derivative,derivative_residual"
        )
        assert len(lines) == 12
        parsed = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:]]
        )
        assert np.array_equal(parsed[:, 0], rep.time_grid)
        assert np.array_equal(parsed[:, 1], rep.w_values)
        assert np.array_equal(parsed[:, 4], rep.residual)
        assert np.array_equal(parsed[:, 6], rep.derivative)
        assert np.array_equal(parsed[:, 7], rep.derivative_residual)
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        assert path.read_text() == buf.getvalue()

    def test_one_clock_per_side(self, monkeypatch):
        # the grid and the regularized node share each side's clock
        ticked = []
        real = jump_process._clock_sums

        def counted(tick, u, windows):
            ticked.append(len(windows))
            return real(tick, u, windows)

        monkeypatch.setattr(jump_process, "_clock_sums", counted)
        gen, p0X, p0Y = reference_instance()
        verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 10)
        assert ticked == [12, 12]

    def test_one_window_per_node_and_one_merge(self, monkeypatch):
        # with one generator both sides read one set of Poisson windows, one
        # batched pass a path, and no node calls wasserstein_power
        windows, costs = [], []
        real_windows, real_power = jump_process._clock_windows, transport.wasserstein_power

        def batched(mus, budget):
            windows.append(len(mus))
            return real_windows(mus, budget)

        def power(m1, m2, r):
            costs.append(r)
            return real_power(m1, m2, r)

        monkeypatch.setattr(jump_process, "_clock_windows", batched)
        monkeypatch.setattr(transport, "wasserstein_power", power)
        gen, p0X, p0Y = reference_instance()
        verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 10)
        assert windows == [12]  # the grid and the regularized node
        other = birth_death_gen(40, lambda x: 1.0, lambda x: x)
        verify_identity(gen, other, p0X, p0Y, 2.0, 1.0, 10)
        assert windows == [12, 12, 12]
        assert sum(windows) == 12 + 24
        assert costs == []

    @pytest.mark.parametrize("instance", ["reference", "benchmark"])
    def test_node_zero_reads_the_regularized_node(self, instance):
        # node 0's candidate and moment equal, bit for bit, those of separate
        # one-node solves at 1e-9 t_end; its cost and exact derivative are
        # taken at t = 0
        if instance == "reference":
            genX, p0X, p0Y = reference_instance()
            genY = genX
        else:
            genX = birth_death_gen(30, lambda x: 2.0, lambda x: 0.5 * x)
            genY = birth_death_gen(30, lambda x: 1.0, lambda x: 0.8 * x)
            p0X, p0Y = dirac(3.0), dirac(6.0)
        rep = verify_identity(genX, genY, p0X, p0Y, 2.0, 1.0, 100)
        mX = uniformized_marginal(genX, p0X, 1e-9, tol=1e-12)
        mY = uniformized_marginal(genY, p0Y, 1e-9, tol=1e-12)
        value, diag = full_state_integrand(genX, genY, mX, mY, 2.0)
        assert (rep.integrand[0], rep.diagnostics[0]) == (value, diag)
        assert rep.w_values[0] == wasserstein_power(p0X, p0Y, 2.0)
        at_zero = verify_identity(genX, genY, p0X, p0Y, 2.0, 2.0, 2)
        assert rep.derivative[0] == at_zero.derivative[0]

    def test_final_marginals_are_the_last_nodes(self):
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 20)
        nodes = np.insert(rep.time_grid, 1, 1e-9)
        for final, p0 in ((rep.final_x, p0X), (rep.final_y, p0Y)):
            last = marginal_path(gen, p0, nodes, tol=1e-12)[-1]
            np.testing.assert_array_equal(final.vector, last.vector)
            assert (final.m_min, final.m_max) == (last.m_min, last.m_max)
            assert final.truncation_error == last.truncation_error
        x, y = rep.final_x, rep.final_y
        exact = exact_merge_power(x.support, x.weights, y.support, y.weights, 2.0)
        assert rep.w_values[-1] == pytest.approx(exact, rel=1e-12)

    def test_argument_validation(self):
        gen, p0X, p0Y = reference_instance()
        with pytest.raises(ValueError):
            verify_identity(gen, gen, p0X, p0Y, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 1)
        with pytest.raises(ValueError):
            verify_identity(gen, gen, p0X, p0Y, 2.0, 0.0, 10)
        with pytest.raises(TypeError):
            verify_identity("gen", gen, p0X, p0Y, 2.0, 1.0, 10)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_non_finite_rho_rejected(self, rho):
        gen, p0X, p0Y = reference_instance()
        with pytest.raises(ValueError, match="finite number >= 1"):
            verify_identity(gen, gen, p0X, p0Y, rho, 1.0, 10)


def full_state_integrand(genX, genY, mX, mY, rho):
    """Candidate and generator moment with psi read on every state."""
    pair = potentials(mX, mY, rho)
    vX = np.zeros(genX.n_states)
    vX[np.searchsorted(genX.states, mX.support)] = mX.weights
    vY = np.zeros(genY.n_states)
    vY[np.searchsorted(genY.states, mY.support)] = mY.weights
    l_psi = apply_generator(genX, pair.psi_at(genX.states))
    l_psi_tilde = apply_generator(genY, pair.psi_tilde_at(genY.states))
    value = -float(np.dot(vX, l_psi)) - float(np.dot(vY, l_psi_tilde))
    return value, float(np.dot(vX, np.abs(l_psi) ** 1.5))


class TestPointwiseDerivative:
    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("start_x", [2, 3, 4])
    @pytest.mark.parametrize("start_y", [5, 6, 7, 8])
    def test_start_sweep(self, rho, start_x, start_y):
        # the benchmark's identity pair: the trapezoid panels hold corners
        # whose size depends on the start, the pointwise check does not
        genX = birth_death_gen(30, lambda x: 2.0, lambda x: 0.5 * x)
        genY = birth_death_gen(30, lambda x: 1.0, lambda x: 0.8 * x)
        rep = verify_identity(genX, genY, dirac(start_x), dirac(start_y), rho, 1.0, 100)
        assert rep.max_residual <= 1e-9

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n_top=st.integers(3, 10),
        rates=st.lists(st.floats(0.1, 3.0), min_size=4, max_size=4),
        starts=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        rho=st.sampled_from([1.5, 2.0, 3.0]),
        t=st.floats(0.05, 2.0),
    )
    def test_random_birth_death_pairs(self, n_top, rates, starts, rho, t):
        bx, dx, by, dy = rates
        genX = birth_death_gen(n_top, lambda x: bx, lambda x: dx * x)
        genY = birth_death_gen(n_top, lambda x: by, lambda x: dy * x)
        p0X = dirac(starts[0])
        p0Y = dirac(n_top - starts[1])
        rep = verify_identity(genX, genY, p0X, p0Y, rho, t, 2)
        assert rep.max_residual <= 1e-9

    def test_reach_restriction_bit_identical_reference(self):
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 200)
        pathX = marginal_path(gen, p0X, rep.time_grid)
        pathY = marginal_path(gen, p0Y, rep.time_grid)
        for k in (1, 7, 63, 200):
            value, diag = full_state_integrand(gen, gen, pathX[k], pathY[k], 2.0)
            assert value == rep.integrand[k]
            assert diag == rep.diagnostics[k]

    def test_reach_restriction_bit_identical_mu_chain(self):
        spec = tanh_spec(lam=0.5, kernel=ShiftJump(0.5))
        grid = np.linspace(-4.0, 5.0, 4097)
        gen = mu_generator(spec, 8.0, grid).generator
        p0X = embed_on_grid(DiscreteMeasure([0.5, 1.0, 1.5], [0.4, 0.3, 0.3]), grid)
        p0Y = embed_on_grid(DiscreteMeasure([-1.0, -0.4], [0.5, 0.5]), grid)
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 16)
        assert rep.max_residual <= 1e-9
        pathX = marginal_path(gen, p0X, rep.time_grid)
        pathY = marginal_path(gen, p0Y, rep.time_grid)
        for k in (1, 8, 16):
            value, diag = full_state_integrand(gen, gen, pathX[k], pathY[k], 2.0)
            assert value == rep.integrand[k]
            assert diag == rep.diagnostics[k]


def hop_gen(n_top):
    """Counter on {0..n_top} that jumps up by 1 or by 3, absorbing at the top.

    From the dirac at 0 a short time leaves state 2 empty between the atoms
    1 and 3, though one jump from 1 reaches it."""
    states = np.arange(n_top + 1, dtype=float)
    lam = np.full(n_top + 1, 1.5)
    lam[-1] = 0.0
    kernel = np.zeros((n_top + 1, n_top + 1))
    for i in range(n_top):
        kernel[i, i + 1] += 0.5
        kernel[i, min(i + 3, n_top)] += 0.5
    kernel[-1, -1] = 1.0
    return JumpGeneratorSpec(states, lam, kernel)


def frozen_gen(n_top):
    """No jumps at all: every law keeps its one atom."""
    n = n_top + 1
    return JumpGeneratorSpec(np.arange(n, dtype=float), np.zeros(n), np.eye(n))


def node_by_node(genX, genY, p0X, p0Y, rho, t_end, n_steps):
    """The candidate and the generator moment per grid node, one dual pair
    per node from :func:`potentials` and read by ``integrand_from_pair``."""
    nodes = np.insert(np.linspace(0.0, t_end, n_steps + 1), 1, 1e-9 * t_end)
    pathX = marginal_path(genX, p0X, nodes, tol=1e-12)
    pathY = marginal_path(genY, p0Y, nodes, tol=1e-12)
    integ, diag = [], []
    for mX, mY in zip(pathX[1:], pathY[1:]):
        vX, vY = mX.vector, mY.vector
        rX = genX.weighted_kernel_apply(vX) - genX.lam * vX
        rY = genY.weighted_kernel_apply(vY) - genY.lam * vY
        pair = potentials(mX, mY, rho)
        value, l_psi = integrand_from_pair(genX, genY, vX, vY, rX, rY, pair)
        integ.append(value)
        diag.append(float(np.dot(vX, np.abs(l_psi) ** 1.5)))
    return np.array(integ), np.array(diag)


class TestBatchedDuals:
    """The batched dual pass against one dual pair per node, bit for bit."""

    def assert_node_by_node(self, genX, genY, p0X, p0Y, rho, t_end, n_steps):
        rep = verify_identity(genX, genY, p0X, p0Y, rho, t_end, n_steps)
        integ, diag = node_by_node(genX, genY, p0X, p0Y, rho, t_end, n_steps)
        np.testing.assert_array_equal(rep.integrand, integ)
        np.testing.assert_array_equal(rep.diagnostics, diag)
        return rep

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_reference_instance(self, rho):
        gen, p0X, p0Y = reference_instance()
        self.assert_node_by_node(gen, gen, p0X, p0Y, rho, 1.0, 40)

    @pytest.mark.parametrize("start_x", [2, 3, 4])
    @pytest.mark.parametrize("start_y", [5, 6, 7, 8])
    def test_two_generators(self, start_x, start_y):
        # the benchmark's identity pair on every start it draws
        genX = birth_death_gen(30, lambda x: 2.0, lambda x: 0.5 * x)
        genY = birth_death_gen(30, lambda x: 1.0, lambda x: 0.8 * x)
        self.assert_node_by_node(genX, genY, dirac(start_x), dirac(start_y), 2.0, 1.0, 100)

    def test_levels_both_sides_share(self):
        # translated counters and equal laws share every cumulative level
        genX, genY = counting_gen(12), counting_gen(12, shift=2.0)
        self.assert_node_by_node(genX, genY, dirac(0.0), dirac(2.0), 2.0, 0.8, 30)
        gen = birth_death_gen(20, lambda x: 1.0, lambda x: 0.5 * x)
        self.assert_node_by_node(gen, gen, dirac(5.0), dirac(5.0), 3.0, 0.5, 20)

    def test_zero_mass_states_between_atoms(self):
        gen = hop_gen(40)
        nodes = np.insert(np.linspace(0.0, 1.0, 21), 1, 1e-9)
        law = marginal_path(gen, dirac(0.0), nodes, tol=1e-12)[1].vector
        assert law[1] > 0.0 and law[2] == 0.0 and law[3] > 0.0
        other = birth_death_gen(40, lambda x: 1.0, lambda x: 0.2 * x)
        self.assert_node_by_node(gen, other, dirac(0.0), dirac(9.0), 2.0, 1.0, 20)
        self.assert_node_by_node(gen, gen, dirac(0.0), dirac(7.0), 1.5, 1.0, 20)

    def test_one_atom_side(self):
        genX = birth_death_gen(25, lambda x: 1.0, lambda x: 0.4 * x)
        rep = self.assert_node_by_node(genX, frozen_gen(25), dirac(3.0), dirac(12.0), 2.0, 1.0, 20)
        assert rep.final_y.support.size == 1
        assert rep.max_residual <= 1e-9

    def test_small_blocks_give_the_values_of_one_block(self, monkeypatch):
        gen, p0X, p0Y = reference_instance()
        other = birth_death_gen(40, lambda x: 2.0, lambda x: 0.7 * x)
        whole = [verify_identity(gen, g, p0X, p0Y, 2.0, 1.0, 30) for g in (gen, other)]
        staircases = []
        real = evolution._staircase

        def counted(x, VX, y, VY, rho, first=0):
            staircases.append((first, VX.shape[0]))
            return real(x, VX, y, VY, rho, first)

        monkeypatch.setattr(evolution, "_staircase", counted)
        # three nodes a block at most: 41 x 41 states are reached
        monkeypatch.setattr(evolution, "_DUAL_BLOCK", 3 * 41 * 41 + 1)
        for g, one in zip((gen, other), whole):
            staircases.clear()
            blocked = verify_identity(gen, g, p0X, p0Y, 2.0, 1.0, 30)
            assert staircases == [(s, min(3, 31 - s)) for s in range(0, 31, 3)]
            np.testing.assert_array_equal(one.integrand, blocked.integrand)
            np.testing.assert_array_equal(one.diagnostics, blocked.diagnostics)

    def test_two_marginals_and_one_staircase_per_block(self, monkeypatch):
        built, staircases, pairs = [], [], []
        real_init, real_stair = jump_process.Marginal.__init__, evolution._staircase

        def init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        def stair(*args, **kwargs):
            staircases.append(args[1].shape[0])
            return real_stair(*args, **kwargs)

        def potentials_call(*args, **kwargs):
            pairs.append(args)
            return potentials(*args, **kwargs)

        monkeypatch.setattr(jump_process.Marginal, "__init__", init)
        monkeypatch.setattr(evolution, "_staircase", stair)
        monkeypatch.setattr(transport, "potentials", potentials_call)
        gen, p0X, p0Y = reference_instance()
        rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 100)
        assert built == [rep.final_x, rep.final_y]
        assert staircases == [101]  # 41 x 41 reached states: every node in one block
        assert pairs == []


def small_mu_chain():
    """The chain-approx shape on 1025 nodes: a speed-8 chain and two starts."""
    spec = tanh_spec(lam=0.5, kernel=ShiftJump(0.5))
    grid = np.linspace(-4.0, 5.0, 1025)
    gen = mu_generator(spec, 8.0, grid).generator
    p0X = embed_on_grid(DiscreteMeasure([0.5, 1.0, 1.5], [0.4, 0.3, 0.3]), grid)
    p0Y = embed_on_grid(DiscreteMeasure([-1.0, -0.4], [0.5, 0.5]), grid)
    return gen, p0X, p0Y


class TestCoupledClosureOnPaths:
    def test_general_transform_runs_only_where_needed(self, monkeypatch):
        # the staircase closes both potentials along its own coupling, psi
        # off the support too, and sends to the general transform only the
        # rows its window scan leaves uncertified: none on these paths
        certified, general, blocks = [], [], []
        real_minima, real_transform = transport._coupled_minima, transport._cost_transform
        real_stair = evolution._staircase

        def minima(*args):
            best, ok = real_minima(*args)
            certified.append(ok.copy())
            return best, ok

        def transform(*args):
            general.append(args)
            return real_transform(*args)

        def stair(x, VX, y, VY, rho, first=0):
            blocks.append(VX.shape[0])
            return real_stair(x, VX, y, VY, rho, first)

        monkeypatch.setattr(transport, "_coupled_minima", minima)
        monkeypatch.setattr(transport, "_cost_transform", transform)
        monkeypatch.setattr(evolution, "_staircase", stair)
        for (gen, p0X, p0Y), one_node in ((small_mu_chain(), True), (reference_instance(), False)):
            for log in (certified, general, blocks):
                log.clear()
            rep = verify_identity(gen, gen, p0X, p0Y, 2.0, 1.0, 16)
            assert rep.max_residual <= 1e-9
            ok = np.concatenate(certified)
            assert ok.all() and np.count_nonzero(ok) >= 15
            assert general == []
            assert blocks == ([1] * 17 if one_node else [17])  # one node per block
            # psi~ closed in every block, psi where some state is off the support
            assert len(blocks) < len(certified) <= 2 * len(blocks)

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_final_pair_is_the_last_nodes_pair(self, rho):
        # as mu_convergence_study reads it, in place of a second staircase
        for gen, p0X, p0Y in (small_mu_chain(), reference_instance()):
            rep = verify_identity(gen, gen, p0X, p0Y, rho, 1.0, 16)
            pair = potentials(rep.final_x, rep.final_y, rho)
            for name in ("x", "psi", "y", "psi_tilde"):
                assert np.array_equal(getattr(rep.final_pair, name), getattr(pair, name)), name
            assert rep.final_pair.rho == rho
