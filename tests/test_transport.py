"""Transport distances, maps, dual potentials, and the two moment bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import lp_coupling_cost, quantile_riemann_cost
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
from wflow.transport import _cost_transform, dual_value


def atoms(points, weights):
    return DiscreteMeasure(np.asarray(points, float), np.asarray(weights, float))


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

    def test_gap_rejects_mismatched_rho(self):
        pair = potentials(HALF_HALF, atoms([0.0, 2.0], [0.5, 0.5]), 2.0)
        with pytest.raises(ValueError):
            duality_gap(pair, HALF_HALF, HALF_HALF, rho=3.0)

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

    def test_monotone_argmin_matches_dense_scan(self):
        # the bracketed scan equals the dense minimum bit for bit, for tables
        # and query sets from one cell to well past 250 000 cells, unsorted
        # and duplicate queries, tied costs, one atom and no query at all
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
