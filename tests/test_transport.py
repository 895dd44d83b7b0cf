"""Transport distances, maps, dual potentials, and the two moment bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import (
    exact_merge_power,
    lp_coupling_cost,
    merge_derivative,
    merged_wasserstein_power,
    quantile_riemann_cost,
    staircase_loop,
)
from wflow import (
    DiscreteMeasure,
    GridMeasure,
    HypothesisError,
    RepresentationError,
    PotentialPair,
    duality_gap,
    feasibility_violation,
    laplace_smooth,
    optimal_map,
    potential_moment_bound,
    potentials,
    quantile,
    translated_map_bound,
    wasserstein,
    wasserstein_power,
)
from wflow.birth_death import mm_infty
from wflow.jump_process import JumpGeneratorSpec, marginal_path, uniformized_marginal
from wflow import transport
from wflow.transport import (
    PotentialConstructionError,
    _cost_transform,
    _mean_growth,
    _path_merge,
    _staircase,
    dual_value,
)


def atoms(points, weights):
    return DiscreteMeasure(np.asarray(points, float), np.asarray(weights, float))


def dense_closure(xs, vals, q, rho):
    """``min_i |xs_i - q_j|^rho + vals[r, i]`` per row by a dense scan; +inf
    leaves a state out of its row."""
    return np.min(np.abs(xs[None, :, None] - q[None, None, :]) ** rho + vals[:, :, None], axis=1)


def random_atoms(rng, max_atoms=6, span=10.0):
    n = rng.integers(1, max_atoms + 1)
    pts = np.sort(rng.uniform(-span, span, size=n))
    while np.any(np.diff(pts) <= 1e-9):
        pts = np.sort(rng.uniform(-span, span, size=n))
    w = rng.dirichlet(np.ones(n))
    return DiscreteMeasure(pts, w / w.sum(), mass_tol=1e-9)


def random_grid_measure(rng, n_cells=6, span=5.0):
    grid = np.sort(rng.uniform(-span, span, size=n_cells + 1))
    while np.any(np.diff(grid) <= 1e-6):
        grid = np.sort(rng.uniform(-span, span, size=n_cells + 1))
    cdf = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, size=n_cells - 1)), [1.0]))
    while np.any(np.diff(cdf) <= 1e-6):
        cdf = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, size=n_cells - 1)), [1.0]))
    return GridMeasure(grid, cdf)


HALF_HALF = atoms([0.0, 1.0], [0.5, 0.5])
UNIFORM_01 = GridMeasure(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
UNIFORM_02 = GridMeasure(np.array([0.0, 2.0]), np.array([0.0, 1.0]))


def exp_left_tail(lam, n=4000, umin=1e-13):
    """Grid law with CDF exp(lam*x) on x <= 0, truncated at mass umin."""
    u = np.geomspace(umin, 1.0, n)
    x = np.log(u) / lam
    u = u.copy()
    u[0] = 0.0
    return GridMeasure(x, u)


def pareto_left_tail(alpha, n=4000, umin=1e-10):
    """Grid law with CDF |x|^(1-alpha) on x <= -1, truncated at mass umin."""
    u = np.geomspace(umin, 1.0, n)
    x = -(u ** (-1.0 / (alpha - 1.0)))
    u = u.copy()
    u[0] = 0.0
    return GridMeasure(x, u)


# =============================================================================
# distances
# =============================================================================


class TestWasserstein:
    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 3.0])
    def test_dirac_pair_is_plain_distance(self, rho):
        assert wasserstein(atoms([-1.0], [1.0]), atoms([2.5], [1.0]), rho) == pytest.approx(3.5)

    def test_split_mass_to_point(self):
        assert wasserstein(HALF_HALF, atoms([0.0], [1.0]), 1.0) == pytest.approx(0.5)

    def test_two_atom_square_cost_matches_lp(self):
        # quantile coupling sends 0->0 and 1->2, so the squared cost is 0.5;
        # the LP over all couplings of these atoms confirms the value
        m2 = atoms([0.0, 2.0], [0.5, 0.5])
        ref = lp_coupling_cost(HALF_HALF.support, HALF_HALF.weights, m2.support, m2.weights, 2.0)
        assert ref == pytest.approx(0.5, abs=1e-12)
        assert wasserstein_power(HALF_HALF, m2, 2.0) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 3.0])
    def test_random_atomic_instances_match_lp(self, rho):
        rng = np.random.default_rng(101 + int(10 * rho))
        for _ in range(12):
            m1 = random_atoms(rng)
            m2 = random_atoms(rng)
            ref = lp_coupling_cost(m1.support, m1.weights, m2.support, m2.weights, rho)
            assert wasserstein_power(m1, m2, rho) == pytest.approx(ref, abs=1e-9)

    def test_levels_on_the_scale_of_the_top_level(self):
        # dividing each law's cumulative sums by its own last one keeps the
        # levels below the top on the same scale as 1, so no gap of a few
        # ulps meets the tail costs up to 200^3 (by the pairwise total W_3
        # sat 1.0e-10 relative off the exact rational merge)
        gen = mm_infty(20.0, 1.0, 200).to_generator()
        mX, mY = (uniformized_marginal(gen, atoms([x], [1.0]), 2.5) for x in (8.0, 31.0))
        for rho in (1.0, 2.0, 3.0):
            exact = exact_merge_power(mX.support, mX.weights, mY.support, mY.weights, rho)
            assert abs(wasserstein_power(mX, mY, rho) - exact) <= 1e-14 * exact

    def test_uniform_stretch(self):
        # T(x) = 2x, so W2^2 = int_0^1 x^2 dx = 1/3
        assert wasserstein_power(UNIFORM_01, UNIFORM_02, 2.0) == pytest.approx(1.0 / 3.0)

    def test_mixed_representations_match_riemann(self):
        rng = np.random.default_rng(5)
        m1 = random_atoms(rng, max_atoms=4, span=2.0)
        m2 = random_grid_measure(rng, n_cells=5, span=2.0)
        for rho in (1.0, 2.0, 2.5):
            ref = quantile_riemann_cost(
                lambda u: quantile(m1, u), lambda u: quantile(m2, u), rho
            )
            assert wasserstein_power(m1, m2, rho) == pytest.approx(ref, rel=5e-5, abs=5e-5)

    def test_identical_measures_are_at_distance_zero(self):
        m = random_grid_measure(np.random.default_rng(9))
        assert wasserstein(m, m, 2.0) == 0.0

    def test_rejects_rho_below_one(self):
        with pytest.raises(ValueError):
            wasserstein(HALF_HALF, HALF_HALF, 0.5)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_non_finite_rho_rejected(self, rho):
        for fn in (wasserstein, wasserstein_power, potentials):
            with pytest.raises(ValueError, match="finite number >= 1"):
                fn(HALF_HALF, atoms([1.0, 2.0], [0.5, 0.5]), rho)

    def test_atomic_pairs_match_merged_oracle_bitwise(self):
        # every merged segment of two atomic laws is flat: the midpoint form
        rng = np.random.default_rng(71)
        for _ in range(200):
            m1 = random_atoms(rng, max_atoms=12)
            m2 = random_atoms(rng, max_atoms=12)
            rho = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.5]))
            assert wasserstein_power(m1, m2, rho) == merged_wasserstein_power(m1, m2, rho)

    def test_birth_death_marginals_match_merged_oracle_bitwise(self):
        gen = mm_infty(20.0, 1.0, 200).to_generator()
        times = np.linspace(0.25, 2.5, 10)
        path_x = marginal_path(gen, atoms([3.0], [1.0]), times)
        path_y = marginal_path(gen, atoms([40.0], [1.0]), times)
        for mx, my in zip(path_x, path_y):
            for rho in (1.0, 2.0, 3.0):
                assert wasserstein_power(mx, my, rho) == merged_wasserstein_power(mx, my, rho)

    def test_grid_and_mixed_pairs_match_merged_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            g1 = random_grid_measure(rng, n_cells=int(rng.integers(2, 12)))
            g2 = random_grid_measure(rng, n_cells=int(rng.integers(2, 12)))
            a = random_atoms(rng, max_atoms=8)
            rho = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.5]))
            for m1, m2 in ((g1, g2), (a, g2), (g1, a)):
                ref = merged_wasserstein_power(m1, m2, rho)
                assert wasserstein_power(m1, m2, rho) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a, b, c = (random_atoms(rng) for _ in range(3))
            for rho in (1.0, 2.0):
                dab = wasserstein(a, b, rho)
                assert dab == pytest.approx(wasserstein(b, a, rho), abs=1e-12)
                assert dab <= wasserstein(a, c, rho) + wasserstein(c, b, rho) + 1e-9

    def test_power_cost_nondecreasing_in_rho_for_integer_support(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p1 = np.sort(rng.choice(np.arange(0, 9), size=3, replace=False)).astype(float)
            p2 = np.sort(rng.choice(np.arange(0, 9), size=3, replace=False)).astype(float)
            m1 = DiscreteMeasure(p1, np.array(rng.dirichlet(np.ones(3))), mass_tol=1e-9)
            m2 = DiscreteMeasure(p2, np.array(rng.dirichlet(np.ones(3))), mass_tol=1e-9)
            costs = [wasserstein_power(m1, m2, r) for r in (1.0, 1.5, 2.0, 3.0)]
            assert all(x <= y + 1e-10 for x, y in zip(costs, costs[1:]))


# =============================================================================
# transport map
# =============================================================================


def merge_instance():
    """Node laws of two paths on 7 and 4 states, with generator rates ``L^T v``.

    Row 0 has zero-mass states inside and above its support and shares the
    levels 0.25 and 0.5 across the sides; row 1 is one atom against four;
    row 2 one atom a side; row 3 spreads over every state but the last X
    state, which no node reaches (zero law and zero rate in every row);
    row 4 weighs ``1 - 3e-13``.
    """
    rng = np.random.default_rng(7)
    sX = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
    sY = np.array([-1.0, 0.5, 2.0, 7.0])
    VX = np.array(
        [
            [0.25, 0.0, 0.25, 0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [*rng.dirichlet(np.ones(6)), 0.0],
            [0.125, 0.125, 0.25, 0.25, 0.25 - 3e-13, 0.0, 0.0],
        ]
    )
    VY = np.array(
        [
            [0.25, 0.25, 0.0, 0.5],
            [0.1, 0.2, 0.3, 0.4],
            [1.0, 0.0, 0.0, 0.0],
            rng.dirichlet(np.ones(4)),
            [0.5, 0.0, 0.25, 0.25],
        ]
    )
    rates = []
    for states, V, unreached in ((sX, VX, [6]), (sY, VY, [])):
        kernel = rng.uniform(0.1, 1.0, (states.size, states.size))
        np.fill_diagonal(kernel, 0.0)
        kernel[:, unreached] = 0.0
        kernel /= kernel.sum(axis=1, keepdims=True)
        gen = JumpGeneratorSpec(states, rng.uniform(0.5, 3.0, states.size), kernel)
        rates.append(np.stack([gen.weighted_kernel_apply(v) - gen.lam * v for v in V]))
    return sX, sY, VX, VY, *rates


class TestPathMerge:
    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 3.0])
    def test_against_exact_merge_and_derivative_oracle(self, rho):
        sX, sY, VX, VY, RX, RY = merge_instance()
        W, deriv = _path_merge(sX, sY, VX, VY, [rho], RX, RY)
        for k in range(VX.shape[0]):
            exact = exact_merge_power(sX, VX[k], sY, VY[k], rho)
            assert abs(W[0, k] - exact) <= 1e-10 * exact, k
            ref = merge_derivative(sX, sY, VX[k], VY[k], RX[k], RY[k], rho)
            assert abs(deriv[k] - ref) <= 1e-12 * (1.0 + abs(ref)), k
            # alone, a node merges only the states it reaches: a one-atom
            # side keeps the zero-mass states its rates move into
            one = slice(k, k + 1)
            W1, d1 = _path_merge(sX, sY, VX[one], VY[one], [rho], RX[one], RY[one])
            assert abs(W1[0, 0] - exact) <= 1e-10 * exact, k
            assert abs(d1[0] - ref) <= 1e-12 * (1.0 + abs(ref)), k

    def test_orders_share_one_merge(self):
        sX, sY, VX, VY, RX, RY = merge_instance()
        orders = [1.0, 1.5, 2.0, 3.0]
        W, deriv = _path_merge(sX, sY, VX, VY, orders, RX, RY)
        for o, rho in enumerate(orders):
            alone, d = _path_merge(sX, sY, VX, VY, [rho], RX, RY)
            np.testing.assert_array_equal(W[o], alone[0])
            if o == 0:
                np.testing.assert_array_equal(deriv, d)
        unrated, none = _path_merge(sX, sY, VX, VY, orders)
        assert none is None
        np.testing.assert_allclose(unrated, W, rtol=1e-14, atol=0)

    def test_blocks_give_the_values_of_one_block(self, monkeypatch):
        sX, sY, VX, VY, RX, RY = merge_instance()
        whole = _path_merge(sX, sY, VX, VY, [1.0, 2.5], RX, RY)
        monkeypatch.setattr(transport, "_MERGE_BLOCK", 2 * (sX.size + sY.size))
        blocked = _path_merge(sX, sY, VX, VY, [1.0, 2.5], RX, RY)
        for a, b in zip(whole, blocked):
            np.testing.assert_array_equal(a, b)

    def test_swapping_the_sides_changes_nothing(self):
        # W is symmetric in the two laws, and so is its derivative once the
        # levels both sides share are ordered by rate rather than by side
        sX, sY, VX, VY, RX, RY = merge_instance()
        W, deriv = _path_merge(sX, sY, VX, VY, [1.5, 2.0], RX, RY)
        W_swap, deriv_swap = _path_merge(sY, sX, VY, VX, [1.5, 2.0], RY, RX)
        np.testing.assert_allclose(W_swap, W, rtol=1e-14, atol=0)
        np.testing.assert_allclose(deriv_swap, deriv, rtol=1e-13, atol=1e-13)

    def test_marginal_path_against_exact_merge(self):
        # a birth-death path from two diracs, costs up to 200^3 in the tails:
        # with the top level pinned to 1 the merged cost stays within 1e-12 of
        # the exact rational merge of the same float weights (dividing by the
        # pairwise total instead leaves it 1.5e-10 off at t = 2.5)
        gen = mm_infty(20.0, 1.0, 200).to_generator()
        grid = np.linspace(0.0, 2.5, 6)
        paths = [marginal_path(gen, atoms([x], [1.0]), grid) for x in (8.0, 31.0)]
        VX, VY = (np.stack([m.vector for m in path]) for path in paths)
        W, _ = _path_merge(gen.states, gen.states, VX, VY, [1.0, 3.0, 2.0])
        for k in range(grid.size):
            for o, rho in enumerate((1.0, 3.0, 2.0)):
                exact = exact_merge_power(gen.states, VX[k], gen.states, VY[k], rho)
                assert abs(W[o, k] - exact) <= 1e-12 * exact


class TestOptimalMap:
    def test_identity(self):
        m = random_grid_measure(np.random.default_rng(3))
        t = optimal_map(m, m)
        assert np.allclose(t(m.grid), m.grid, atol=1e-12)

    def test_translation(self):
        m = random_grid_measure(np.random.default_rng(4))
        shifted = GridMeasure(m.grid + 0.75, m.cdf_values)
        t = optimal_map(m, shifted)
        q = np.linspace(m.grid[0], m.grid[-1], 200)
        assert np.allclose(t(q), q + 0.75, atol=1e-9)

    def test_uniform_stretch_is_linear(self):
        t = optimal_map(UNIFORM_01, UNIFORM_02)
        assert t(0.5) == pytest.approx(1.0)
        assert np.allclose(t(np.array([0.0, 0.25, 1.0])), [0.0, 0.5, 2.0])

    def test_atomic_source_is_representation_error(self):
        with pytest.raises(RepresentationError):
            optimal_map(HALF_HALF, UNIFORM_01)

    def test_map_is_nondecreasing(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            m1 = random_grid_measure(rng)
            m2 = random_grid_measure(rng)
            t = optimal_map(m1, m2)
            assert np.all(np.diff(t.values) >= -1e-12)

    def test_pushforward_matches_target(self):
        # W1 between the image law and the target, evaluated on the quantile
        # axis: |T(F1^{-1}(u)) - F2^{-1}(u)| integrates to ~0 (exact map)
        rng = np.random.default_rng(37)
        m1 = random_grid_measure(rng)
        m2 = random_grid_measure(rng)
        t = optimal_map(m1, m2)
        u = (np.arange(200_001) + 0.5) / 200_001
        w1 = np.mean(np.abs(t(quantile(m1, u)) - quantile(m2, u)))
        step = np.max(np.diff(m1.grid))
        assert w1 <= step


# =============================================================================
# potentials
# =============================================================================


def slackness_violation(pair, m1, m2, n=2001):
    """Max dual-constraint residual along the monotone coupling's support."""
    u = (np.arange(n) + 0.5) / n
    xs = quantile(m1, u)
    ys = quantile(m2, u)
    res = -pair.psi_at(xs) - pair.psi_tilde_at(ys) - np.abs(xs - ys) ** pair.rho
    return float(np.max(np.abs(res)))


class TestPotentials:
    def test_equal_atomic_measures_give_zero_pair(self):
        m = random_atoms(np.random.default_rng(41), max_atoms=5)
        pair = potentials(m, m, 2.0)
        assert np.allclose(pair.psi, 0.0, atol=1e-12)
        assert np.allclose(pair.psi_tilde, 0.0, atol=1e-12)

    def test_grid_shift_has_linear_potential(self):
        # for a pure translation by c under squared cost the potential grows
        # linearly with slope 2c (zero at the leftmost node)
        c = 0.7
        m1 = GridMeasure(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.45, 1.0]))
        m2 = GridMeasure(m1.grid + c, m1.cdf_values)
        pair = potentials(m1, m2, 2.0)
        assert np.allclose(pair.psi, 2 * c * (pair.x - m1.grid[0]), atol=1e-12)
        assert dual_value(pair, m1, m2) == pytest.approx(c * c, abs=1e-12)

    def test_atomic_shift_duality_value(self):
        m1 = random_atoms(np.random.default_rng(43), max_atoms=5)
        m2 = DiscreteMeasure(m1.support + 1.25, m1.weights, mass_tol=1e-9)
        pair = potentials(m1, m2, 2.0)
        assert dual_value(pair, m1, m2) == pytest.approx(1.25**2, abs=1e-10)

    def test_rejects_rho_one(self):
        with pytest.raises(ValueError):
            potentials(HALF_HALF, HALF_HALF, 1.0)

    def test_overflowing_cost_fails_closed(self):
        # |1e200 - 1|^2 overflows: the staircase turns NaN and its closure
        # check must reject it rather than return a NaN pair
        m1 = atoms([0.0, 1e200], [0.5, 0.5])
        m2 = atoms([1.0, 2.0], [0.5, 0.5])
        with np.errstate(all="ignore"), pytest.raises(PotentialConstructionError):
            potentials(m1, m2, 2.0)

    def test_normalization_at_leftmost_point(self):
        rng = np.random.default_rng(47)
        for make in (random_atoms, random_grid_measure):
            m1, m2 = make(rng), make(rng)
            pair = potentials(m1, m2, 2.5)
            assert pair.psi[0] == 0.0

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_atomic_duality_matches_lp_oracle(self, rho):
        rng = np.random.default_rng(int(100 * rho))
        for _ in range(10):
            m1 = random_atoms(rng)
            m2 = random_atoms(rng)
            ref = lp_coupling_cost(m1.support, m1.weights, m2.support, m2.weights, rho)
            pair = potentials(m1, m2, rho)
            assert dual_value(pair, m1, m2) == pytest.approx(ref, abs=1e-9)
            assert feasibility_violation(pair) <= 1e-9
            assert slackness_violation(pair, m1, m2) <= 1e-9

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_grid_pairs_close_duality_gap(self, rho):
        rng = np.random.default_rng(int(7 * rho))
        for _ in range(6):
            m1 = random_grid_measure(rng)
            m2 = random_grid_measure(rng)
            pair = potentials(m1, m2, rho)
            w = wasserstein_power(m1, m2, rho)
            gap = duality_gap(pair, m1, m2)
            assert -1e-9 <= gap <= 1e-7 * max(w, 1.0)
            assert slackness_violation(pair, m1, m2) <= 1e-8

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_near_shift_grid_pairs(self, rho):
        # a law against its copy shifted by 0.5 and stretched by 1 + eps: the
        # displacement is nearly flat on every piece, where closed forms in
        # its slope cancel to nothing
        base = random_grid_measure(np.random.default_rng(0), n_cells=40)
        for eps in np.logspace(-12, -4, 81):
            other = GridMeasure(base.grid * (1.0 + eps) + 0.5, base.cdf_values)
            pair = potentials(base, other, rho)  # certified, else IntegrationError
            w = wasserstein_power(base, other, rho)
            assert abs(w - dual_value(pair, base, other)) <= 1e-9 * w

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.5])
    def test_mean_growth_matches_quadrature(self, p):
        # the mean of ((1 + r v)^p - 1) / r over [0, 1] is
        # integral p (1 - s) (1 + r s)^(p-1) ds, which cancels nowhere
        for r in (0.0, 1e-12, -1e-8, 3e-5, -9.99e-4, 1e-3, -1.001e-3, 0.05, -0.6, 2.0):
            ref, _ = integrate.quad(
                lambda s: p * (1.0 - s) * (1.0 + r * s) ** (p - 1.0),
                0.0,
                1.0,
                epsabs=0.0,
                epsrel=1e-13,
            )
            assert float(_mean_growth(np.array(r), p)) == pytest.approx(ref, rel=1e-12)

    def test_grid_potential_matches_displacement_quadrature(self):
        # independent route: psi(x) = rho * int_0^x sgn(T-s)|T-s|^(rho-1) ds
        rng = np.random.default_rng(53)
        m1 = random_grid_measure(rng)
        m2 = random_grid_measure(rng)
        rho = 2.5
        pair = potentials(m1, m2, rho)
        t = pair.transport_map

        def slope(s):
            d = t(s) - s
            return rho * np.sign(d) * np.abs(d) ** (rho - 1.0)

        # split the quadrature at the tabulation kinks and at the roots of
        # T(s) - s, where |.|^(rho-1) is not smooth
        splits = list(pair.x)
        disp = pair.transport_map.values - pair.x
        for k in range(pair.x.size - 1):
            if disp[k] * disp[k + 1] < 0:
                w = disp[k] / (disp[k] - disp[k + 1])
                splits.append(float(pair.x[k] + w * (pair.x[k + 1] - pair.x[k])))
        for xq in np.linspace(m1.grid[0], m1.grid[-1], 7)[1:]:
            inner = sorted(float(b) for b in splits if m1.grid[0] < b < xq)
            ref, err = integrate.quad(slope, m1.grid[0], xq, limit=400, points=inner)
            assert err < 5e-6
            assert pair.psi_at(xq) == pytest.approx(ref, abs=1e-7)

    def test_zero_pair_gap_equals_primal_cost(self):
        m2 = atoms([0.0, 2.0], [0.5, 0.5])
        zero = PotentialPair(
            2.0,
            HALF_HALF.support,
            np.zeros(2),
            m2.support,
            np.zeros(2),
        )
        assert duality_gap(zero, HALF_HALF, m2) == pytest.approx(
            wasserstein_power(HALF_HALF, m2, 2.0)
        )
        same = PotentialPair(2.0, HALF_HALF.support, np.zeros(2), HALF_HALF.support, np.zeros(2))
        assert duality_gap(same, HALF_HALF, HALF_HALF) == 0.0

    def test_hand_built_pair_extends_by_cost_transform(self):
        # off its table an atomic pair takes the other side's c-transform,
        # the extension under which it stays feasible everywhere
        x, psi = np.array([0.0, 1.0, 3.0]), np.array([0.0, -0.5, 2.0])
        y, psi_tilde = np.array([-1.0, 2.0]), np.array([-1.0, -3.0])
        pair = PotentialPair(2.0, x, psi, y, psi_tilde)
        q = np.linspace(-3.0, 5.0, 161)
        off_x = ~np.isin(q, x)
        off_y = ~np.isin(q, y)
        want_psi = -np.min((q[:, None] - y) ** 2 + psi_tilde, axis=1)
        want_psi_tilde = -np.min((q[:, None] - x) ** 2 + psi, axis=1)
        got_psi = pair.psi_at(q)
        got_psi_tilde = pair.psi_tilde_at(q)
        assert np.allclose(got_psi[off_x], want_psi[off_x], rtol=0.0, atol=1e-12)
        assert np.allclose(got_psi_tilde[off_y], want_psi_tilde[off_y], rtol=0.0, atol=1e-12)
        # on the tables the tabulated values come back unchanged
        assert np.array_equal(pair.psi_at(x), psi)
        assert np.array_equal(pair.psi_tilde_at(y), psi_tilde)
        assert pair.psi_at(0.5) == pytest.approx(-min(2.25 - 1.0, 2.25 - 3.0), abs=1e-15)
        # feasible against the other table from every off-table point, however
        # the hand-built tables themselves were chosen
        slack_x = -got_psi[:, None] - psi_tilde - (q[:, None] - y) ** 2
        slack_y = -got_psi_tilde[:, None] - psi - (q[:, None] - x) ** 2
        assert np.max(slack_x[off_x]) <= 1e-12
        assert np.max(slack_y[off_y]) <= 1e-12

    def test_tied_cumulative_masses(self):
        # staircase walk crosses simultaneous jumps of both CDFs
        m1 = atoms([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        m2 = atoms([0.5, 1.5], [0.75, 0.25])
        for rho in (1.5, 2.0, 3.0):
            ref = lp_coupling_cost(m1.support, m1.weights, m2.support, m2.weights, rho)
            pair = potentials(m1, m2, rho)
            assert dual_value(pair, m1, m2) == pytest.approx(ref, abs=1e-10)
            assert feasibility_violation(pair) <= 1e-9

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_tie_rich_instances_match_lp(self, rho):
        # weights in eighths force many exact cumulative ties, exercising the
        # diagonal step of the staircase walk
        rng = np.random.default_rng(int(1000 * rho))
        for _ in range(12):
            n1, n2 = rng.integers(2, 6, size=2)
            w1 = rng.multinomial(8, np.ones(n1) / n1) / 8.0
            w2 = rng.multinomial(8, np.ones(n2) / n2) / 8.0
            w1, w2 = w1[w1 > 0], w2[w2 > 0]
            m1 = DiscreteMeasure(np.sort(rng.uniform(-5, 5, w1.size)), w1)
            m2 = DiscreteMeasure(np.sort(rng.uniform(-5, 5, w2.size)), w2)
            ref = lp_coupling_cost(m1.support, m1.weights, m2.support, m2.weights, rho)
            pair = potentials(m1, m2, rho)
            assert dual_value(pair, m1, m2) == pytest.approx(ref, abs=1e-9)
            assert feasibility_violation(pair) <= 1e-9

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_staircase_matches_loop_oracle(self, rho):
        # the merged levels and one running sum give the per-atom walk's
        # pair: shared levels (weights over a common denominator), a level
        # repeated within one side (a 1e-300 weight leaves the cumsum at
        # 0.5), one-atom sides and unequal atom counts
        rng = np.random.default_rng(int(10 * rho))

        def weights(n, kind):
            if kind == "shared":
                w = rng.multinomial(12, np.ones(n) / n) / 12.0
                return w[w > 0]
            if kind == "repeated":
                w = np.full(n, 1.0 / n)
                return np.insert(w, rng.integers(1, n) if n > 1 else 1, 1e-300)
            return rng.dirichlet(np.ones(n))

        cases = [
            (np.array([0.5, 1e-300, 0.5]), np.array([0.5, 0.5])),
            (np.array([0.5, 0.5]), np.array([0.25, 0.25, 1e-300, 0.5])),
            (np.array([0.5, 1e-300, 0.5]), np.array([0.5, 1e-300, 1e-300, 0.5])),
            (np.array([1.0]), np.array([0.2, 0.3, 0.5])),
            (np.array([0.1, 0.9]), np.array([1.0])),
            (np.array([1.0]), np.array([1.0])),
        ]
        for _ in range(60):
            n1, n2 = rng.integers(1, 9, size=2)
            kinds = rng.choice(["shared", "repeated", "random"], size=2)
            cases.append((weights(n1, kinds[0]), weights(n2, kinds[1])))
        cases.append((rng.dirichlet(np.ones(300)), rng.dirichlet(np.ones(170))))
        for w1, w2 in cases:
            m1 = DiscreteMeasure(np.sort(rng.choice(400, w1.size, replace=False)) * 0.025 - 5, w1)
            m2 = DiscreteMeasure(np.sort(rng.choice(400, w2.size, replace=False)) * 0.025 - 4, w2)
            want_psi, want_psi_tilde = staircase_loop(m1, m2, rho)
            pair = potentials(m1, m2, rho)
            scale = 1.0 + max(np.max(np.abs(want_psi)), np.max(np.abs(want_psi_tilde)))
            assert np.max(np.abs(pair.psi - want_psi)) <= 1e-12 * scale
            assert np.max(np.abs(pair.psi_tilde - want_psi_tilde)) <= 1e-12 * scale

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_staircase_rows_match_potentials(self, rho, monkeypatch):
        # rows of dense laws on shared states, zeros between the atoms: each
        # row gives the pair of its own atoms bit for bit, for shared levels,
        # levels repeated within one side and one-atom sides.  Off the atoms
        # psi_tilde is the cost transform of psi over the row's x atoms and
        # psi that of psi_tilde over its y atoms, each equal to the dense
        # minimum bit for bit, and nearly every row is certified along its
        # coupling without the general transform
        general = []
        real = transport._cost_transform

        def counted(xs, vals, q, rho):
            general.append(q.size)
            return real(xs, vals, q, rho)

        rng = np.random.default_rng(int(20 * rho))
        x = np.sort(rng.choice(400, 40, replace=False)) * 0.025 - 5
        y = np.sort(rng.choice(400, 30, replace=False)) * 0.025 - 4

        def law(n_states, kind, lo=0, hi=None):
            n = int(rng.integers(1, 9))
            if kind == "one":
                w = np.ones(1)
            elif kind == "shared":
                w = rng.multinomial(12, np.ones(n) / n) / 12.0
                w = w[w > 0]
            elif kind == "repeated":
                w = np.insert(np.full(n, 1.0 / n), int(rng.integers(1, n + 1)), 1e-300)
            else:
                w = rng.dirichlet(np.ones(n))
            v = np.zeros(n_states)
            v[lo + np.sort(rng.choice((hi or n_states) - lo, w.size, replace=False))] = w
            return v

        def placed(w, n_states, at):
            v = np.zeros(n_states)
            v[at] = w
            return v

        # a level repeated on both sides pairs up occurrence by occurrence
        fixed = (
            placed([0.5, 1e-300, 0.5], x.size, [3, 9, 20]),
            placed([0.5, 1e-300, 1e-300, 0.5], y.size, [1, 2, 7, 8]),
        )
        blocks = [tuple(np.stack([f, f[::-1]]) for f in fixed)]
        kinds = ("shared", "repeated", "random", "one")
        for _ in range(6):
            pick = rng.choice(kinds, size=(12, 2))
            VX = np.stack([law(x.size, k) for k in pick[:, 0]])
            blocks.append((VX, np.stack([law(y.size, k) for k in pick[:, 1]])))
        # every row's x atoms among states 12 to 27: zero-mass x states lie
        # before, between and after all of them
        pick = rng.choice(kinds, size=(12, 2))
        VX = np.stack([law(x.size, k, 12, 28) for k in pick[:, 0]])
        blocks.append((VX, np.stack([law(y.size, k) for k in pick[:, 1]])))
        for VX, VY in blocks:
            with monkeypatch.context() as mp:
                mp.setattr(transport, "_cost_transform", counted)
                psi, psi_tilde = _staircase(x, VX, y, VY, rho)
            for vx, vy, p, pt in zip(VX, VY, psi, psi_tilde):
                ax, ay = vx > 0, vy > 0
                m1, m2 = DiscreteMeasure(x[ax], vx[ax]), DiscreteMeasure(y[ay], vy[ay])
                pair = potentials(m1, m2, rho)
                assert np.array_equal(p[ax], pair.psi)
                assert np.array_equal(p[~ax], -dense_closure(y[ay], pt[None, ay], x[~ax], rho)[0])
                assert np.array_equal(pt[ay], pair.psi_tilde)
                assert np.array_equal(pt, -dense_closure(x[ax], p[None, ax], y, rho)[0])
                assert np.array_equal(pt[~ay], -_cost_transform(x[ax], pair.psi, y[~ay], rho))
        assert len(general) <= 2 * sum(VX.shape[0] for VX, _ in blocks) // 10

    def test_staircase_names_the_failing_node(self):
        # the second row puts mass at 1e200, where |x - y|^2 overflows: its
        # closure check fails, and the error names its node
        x, y = np.array([0.0, 1.0, 1e200]), np.array([1.0, 2.0])
        VX = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.25, 0.75, 0.0]])
        VY = np.full((3, 2), 0.5)
        with np.errstate(all="ignore"):
            psi, _ = _staircase(x, VX[[0, 2]], y, VY[[0, 2]], 2.0)
            assert np.all(np.isfinite(psi[:, :2]))
            with pytest.raises(PotentialConstructionError, match="node 8 "):
                _staircase(x, VX, y, VY, 2.0, first=7)

    def test_monotone_argmin_matches_dense_scan(self):
        # the bracketed scan equals the dense minimum bit for bit, for tables
        # and query sets from one cell to well past 250 000 cells, unsorted
        # and duplicate queries, tied costs, one atom, no query at all, +inf
        # entries, which leave their states out, and non-finite queries
        def dense(xs, vals, ys, rho):
            return np.min(np.abs(xs[:, None] - ys[None, :]) ** rho + vals[:, None], axis=0)

        rng = np.random.default_rng(59)
        for rho in (1.5, 2.0, 3.0):
            for n, m in ((1, 1), (1, 50), (40, 70), (300, 800), (400, 700), (1500, 2000)):
                xs = np.sort(rng.uniform(-5, 5, size=n))
                vals = rng.normal(size=n).cumsum() * 0.1
                ys = rng.uniform(-6, 6, size=m)
                ys[: m // 3] = ys[m // 3 : 2 * (m // 3)]
                assert np.array_equal(_cost_transform(xs, vals, ys, rho), dense(xs, vals, ys, rho))
            # half-integer queries tie two integer atoms; repeated levels tie values
            xs = np.arange(30.0)
            ys = rng.permutation(np.arange(-5.0, 35.0, 0.5))
            for vals in (np.zeros(30), np.repeat([0.0, 1.0, 0.5], 10)):
                assert np.array_equal(_cost_transform(xs, vals, ys, rho), dense(xs, vals, ys, rho))
            assert _cost_transform(xs, np.zeros(30), np.empty(0), rho).shape == (0,)
            # non-finite queries break the argmin order but not the result
            ys = np.concatenate((rng.uniform(-6, 40, 200), [np.inf, -np.inf, np.nan]))
            vals = rng.normal(size=30).cumsum()
            got = _cost_transform(xs, vals, ys, rho)
            assert np.array_equal(got, dense(xs, vals, ys, rho), equal_nan=True)
            # a +inf entry leaves its state out: the transform over the rest
            for n, m in ((1, 1), (30, 70), (300, 500), (40, 1)):
                xs = np.sort(rng.uniform(-5, 5, size=n))
                vals = rng.normal(size=n).cumsum() * 0.1
                vals[rng.random(n) < 0.4] = np.inf
                vals[rng.integers(n)] = rng.normal()  # one finite entry at least
                ys = np.concatenate((rng.uniform(-6, 6, size=m), [np.inf, np.nan][: m // 30]))
                keep = np.isfinite(vals)
                got = _cost_transform(xs, vals, ys, rho)
                for want in (_cost_transform, dense):
                    assert np.array_equal(got, want(xs[keep], vals[keep], ys, rho), equal_nan=True)

    def test_shuffled_queries_match_sorted(self):
        # the closure of an atomic pair does not depend on the query order
        rng = np.random.default_rng(67)
        m1 = DiscreteMeasure(np.sort(rng.uniform(-5, 5, 600)), rng.dirichlet(np.ones(600)))
        m2 = DiscreteMeasure(np.sort(rng.uniform(-4, 6, 600)), rng.dirichlet(np.ones(600)))
        pair = potentials(m1, m2, 2.0)
        q = np.sort(np.concatenate([rng.uniform(-6, 7, 800), m1.support[::6], m2.support[::6]]))
        perm = rng.permutation(q.size)
        for at in (pair.psi_at, pair.psi_tilde_at):
            assert np.array_equal(at(q[perm]), at(q)[perm])

    def test_csv_serialization(self, tmp_path):
        rng = np.random.default_rng(61)
        m1 = random_grid_measure(rng)
        m2 = random_grid_measure(rng)
        pair = potentials(m1, m2, 2.0)
        prefix = str(tmp_path / "pair")
        pair.to_csv(prefix)
        psi = np.loadtxt(prefix + "_psi.csv", delimiter=",", skiprows=1)
        psit = np.loadtxt(prefix + "_psi_tilde.csv", delimiter=",", skiprows=1)
        tmap = np.loadtxt(prefix + "_map.csv", delimiter=",", skiprows=1)
        assert np.allclose(psi[:, 0], pair.x) and np.allclose(psi[:, 1], pair.psi)
        assert np.allclose(psit[:, 0], pair.y) and np.allclose(psit[:, 1], pair.psi_tilde)
        assert np.allclose(tmap[:, 1], pair.transport_map.values)
        with open(prefix + "_psi.csv") as fh:
            assert fh.readline().strip() == "x,psi"


# =============================================================================
# potential moment bound
# =============================================================================


class TestPotentialMomentBound:
    def test_equal_measures_give_zero_lhs(self):
        m = random_atoms(np.random.default_rng(67), max_atoms=5)
        lhs, rhs = potential_moment_bound(m, m, 2.0, 0.5)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs > 0

    def test_grid_shift_closed_form(self):
        # psi = 2c(x - x0): its order-1 centered moment is 2c * E|X - EX|,
        # which for uniform [0,1] equals 2c/4
        c = 0.6
        m1 = GridMeasure(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
        m2 = GridMeasure(m1.grid + c, m1.cdf_values)
        lhs, rhs = potential_moment_bound(m1, m2, 2.0, 0.0)
        assert lhs == pytest.approx(2 * c * 0.25, rel=1e-9)
        assert lhs <= rhs

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_random_atomic_instances_hold(self, eps):
        rng = np.random.default_rng(int(71 + 10 * eps))
        for _ in range(10):
            m1 = random_atoms(rng)
            m2 = random_atoms(rng)
            for rho in (1.5, 2.0):
                lhs, rhs = potential_moment_bound(m1, m2, rho, eps)
                assert lhs <= rhs * (1 + 1e-12)

    def test_random_grid_instances_hold(self):
        rng = np.random.default_rng(73)
        for _ in range(6):
            m1 = random_grid_measure(rng)
            m2 = random_grid_measure(rng)
            lhs, rhs = potential_moment_bound(m1, m2, 2.0, 0.5)
            assert lhs <= rhs * (1 + 1e-12)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            potential_moment_bound(HALF_HALF, HALF_HALF, 2.0, -0.1)


# =============================================================================
# translated map bound
# =============================================================================


def exp_envelope(lam, y, n_grid, u_nodes=None):
    """Constant envelope exp(lam*y)-1 plus a chord allowance for the PL CDF."""
    if u_nodes is None:
        u_nodes = np.linspace(1e-6, 1 - 1e-6, 101)
    h = np.log(1e13) / (n_grid - 1)
    val = (np.exp(lam * y) - 1.0) + np.exp(lam * y) * (h * lam) ** 2
    return u_nodes, np.full_like(u_nodes, val)


class TestTranslatedMapBound:
    def test_exponential_tail_all_delta_conventions(self):
        lam = 1.5
        m1 = exp_left_tail(lam)
        m2, _ = laplace_smooth(atoms([-1.0, 2.0], [0.4, 0.6]), 0.3)
        for y in (0.05, 0.5, 1.0):
            phi = exp_envelope(lam, y, 4000)
            for delta in (0.0, 1.0, np.inf):
                r = translated_map_bound(m1, m2, y, 2.0, phi, delta)
                assert r.lhs <= r.rhs
                assert r.lhs <= r.rhs_bounded_below

    def test_exact_exponential_envelope_fails_on_chords(self):
        # the tight envelope admits no slack, so the convex CDF's piecewise
        # linear truncation must reject it at some checked level
        lam = 1.0
        m1 = exp_left_tail(lam)
        m2, _ = laplace_smooth(atoms([0.0], [1.0]), 0.5)
        u_nodes = np.linspace(1e-6, 1 - 1e-6, 101)
        phi = (u_nodes, np.full_like(u_nodes, np.exp(lam * 0.3) - 1.0))
        with pytest.raises(HypothesisError):
            translated_map_bound(m1, m2, 0.3, 2.0, phi, 1.0)

    def test_pareto_tail_raw_envelope(self):
        # the power envelope has genuine slack at every interior level, so it
        # survives the truncation unchanged
        alpha = 3.0
        m1 = pareto_left_tail(alpha)
        m2, _ = laplace_smooth(atoms([0.0, 1.0], [0.5, 0.5]), 0.25)
        u_nodes = np.linspace(1e-6, 1 - 1e-6, 101)
        for y in (0.1, 0.5, 1.0):
            phi = (u_nodes, np.full_like(u_nodes, (1.0 + y) ** alpha - 1.0))
            r = translated_map_bound(m1, m2, y, 1.5, phi, 1.0)
            assert r.lhs <= r.rhs
            assert r.lhs <= r.rhs_bounded_below

    def test_zero_envelope_is_hypothesis_error(self):
        m1 = exp_left_tail(1.0)
        m2 = UNIFORM_01
        u_nodes = np.linspace(0.01, 0.99, 11)
        with pytest.raises(HypothesisError):
            translated_map_bound(m1, m2, 0.5, 1.0, (u_nodes, np.zeros(11)), 1.0)

    def test_bounded_below_bound_is_exact_remark(self):
        # target bounded below: |inf support|^q + E|X~|^q dominates the image
        from wflow import moment

        m1 = exp_left_tail(2.0)
        m2 = GridMeasure(np.array([-2.0, 0.5, 1.0]), np.array([0.0, 0.8, 1.0]))
        phi = exp_envelope(2.0, 0.4, 4000)
        r = translated_map_bound(m1, m2, 0.4, 3.0, phi, 0.0)
        assert r.rhs_bounded_below == pytest.approx(2.0**3 + moment(m2, 3.0), rel=1e-12)
        assert r.lhs <= r.rhs_bounded_below

    def test_rejects_atomic_inputs(self):
        with pytest.raises(TypeError):
            translated_map_bound(HALF_HALF, UNIFORM_01, 0.5, 1.0, ([0.5], [1.0]), 1.0)

    def test_rejects_negative_translation(self):
        with pytest.raises(ValueError):
            translated_map_bound(UNIFORM_01, UNIFORM_01, -0.5, 1.0, ([0.5], [1.0]), 1.0)


# =============================================================================
# property tests
# =============================================================================


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_monotone_coupling_is_optimal(self, seed, rho):
        rng = np.random.default_rng(seed)
        m1 = random_atoms(rng, max_atoms=5)
        m2 = random_atoms(rng, max_atoms=5)
        ref = lp_coupling_cost(m1.support, m1.weights, m2.support, m2.weights, rho)
        assert wasserstein_power(m1, m2, rho) == pytest.approx(ref, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_potentials_stay_feasible(self, seed):
        rng = np.random.default_rng(seed)
        m1 = random_atoms(rng, max_atoms=6)
        m2 = random_atoms(rng, max_atoms=6)
        pair = potentials(m1, m2, 2.0)
        assert feasibility_violation(pair) <= 1e-9
        assert duality_gap(pair, m1, m2) <= 1e-7 * max(wasserstein_power(m1, m2, 2.0), 1.0)


class TestCoupledClosure:
    """The staircase's closure, certified along its own coupling."""

    def test_perturbed_psi_falls_back(self, monkeypatch):
        # lowering psi far from the coupling moves that row's argmins out of
        # their ranges: the row is not certified, and the general transform,
        # which takes its place, gives the dense minimum
        rng = np.random.default_rng(83)
        m1 = DiscreteMeasure(np.sort(rng.uniform(-5, 5, 300)), rng.dirichlet(np.ones(300)))
        m2 = DiscreteMeasure(np.sort(rng.uniform(-4, 6, 200)), rng.dirichlet(np.ones(200)))
        calls = []
        real = transport._coupled_minima

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(transport, "_coupled_minima", spy)
        potentials(m1, m2, 2.0)
        xs, vals, q, lo, hi, rho = calls[0]
        vals = np.concatenate([vals, vals])
        vals[1, -1] -= 50.0
        lo, hi = np.concatenate([lo, lo]), np.concatenate([hi, hi])
        best, ok = real(xs, vals, q, lo, hi, rho)
        assert ok.tolist() == [True, False]
        want = dense_closure(xs, vals, q, rho)
        assert np.array_equal(best[0], want[0])
        assert not np.array_equal(best[1], want[1])
        assert np.array_equal(_cost_transform(xs, vals[1], q, rho), want[1])

    def test_non_finite_rows_never_certify(self):
        xs, q = np.arange(5.0), np.array([0.5, 1.5, 3.5])
        vals = np.zeros((3, 5))
        vals[1, 4] = np.nan
        vals[2, :] = np.inf
        lo = np.array([[0, 1, 3]] * 3)
        hi = np.array([[1, 2, 4]] * 3)
        best, ok = transport._coupled_minima(xs, vals, q, lo, hi, 2.0)
        assert ok.tolist() == [True, False, False]
        assert np.array_equal(best[0], [0.25, 0.25, 0.25])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1.5, 2.0, 3.0]))
    def test_both_closures_match_dense_scans(self, seed, rho):
        # random blocks of rows with shared levels (weights over a common
        # denominator), repeated levels (a 1e-300 weight), one-atom sides and
        # zero-mass states on both sides: psi_tilde on every state and psi
        # off the atoms are the dense closures over the other side's atoms
        # bit for bit, psi on its atoms is that closure within the
        # staircase's 1e-9, and the pair is feasible wherever one state is
        # an atom.  Off both supports it need not be: with 0.5 on each of 0
        # and 1 on both sides, the midpoints close to -0.25 each and miss by
        # 0.5 at rho 2, a pair that no generator applied on a support reads
        rng = np.random.default_rng(seed)
        n_x, n_y, n_rows = rng.integers(1, 13, size=3)
        x = np.sort(rng.choice(400, n_x, replace=False)) * 0.025 - 5
        y = np.sort(rng.choice(400, n_y, replace=False)) * 0.025 - 4

        def law(n_states):
            n = int(rng.integers(1, n_states + 1))
            kind = rng.choice(["one", "shared", "repeated", "random"])
            if kind == "one" or n == 1:
                w = np.ones(1)
            elif kind == "shared":
                w = rng.multinomial(12, np.ones(n) / n) / 12.0
                w = w[w > 0]
            elif kind == "repeated":
                w = np.insert(np.full(n - 1, 1.0 / (n - 1)), int(rng.integers(1, n)), 1e-300)
            else:
                w = rng.dirichlet(np.ones(n))
            v = np.zeros(n_states)
            v[np.sort(rng.choice(n_states, w.size, replace=False))] = w
            return v

        VX = np.stack([law(n_x) for _ in range(n_rows)])
        VY = np.stack([law(n_y) for _ in range(n_rows)])
        psi, psi_tilde = _staircase(x, VX, y, VY, rho)
        for vx, vy, p, pt in zip(VX, VY, psi, psi_tilde):
            ax, ay = vx > 0, vy > 0
            assert np.array_equal(pt, -dense_closure(x[ax], p[None, ax], y, rho)[0])
            back = -dense_closure(y[ay], pt[None, ay], x, rho)[0]
            assert np.array_equal(p[~ax], back[~ax])
            scale = 1.0 + np.max(np.abs(pt))
            assert np.max(np.abs(p - back)) <= 1e-9 * scale
            slack = -p[:, None] - pt[None, :] - np.abs(x[:, None] - y[None, :]) ** rho
            on_one = ax[:, None] | ay[None, :]
            assert np.max(slack[on_one]) <= 1e-9 * scale

    def test_infeasible_certified_row_names_its_node(self, monkeypatch):
        # a certified minimum still meets the 1e-9 check against the staircase
        real = transport._coupled_minima

        def lowered(*args):
            best, ok = real(*args)
            best[1] -= 1.0
            return best, ok

        monkeypatch.setattr(transport, "_coupled_minima", lowered)
        x, y = np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5])
        VX = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        VY = np.full((2, 2), 0.5)
        with pytest.raises(PotentialConstructionError, match="node 4 "):
            _staircase(x, VX, y, VY, 2.0, first=3)
