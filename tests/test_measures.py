"""Measure representations: quantiles, moments, smoothing, tail envelopes."""

from __future__ import annotations

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import quad_mean, quad_moment
from wflow import (
    BirthDeathSpec,
    CoverageError,
    DiscreteMeasure,
    GridMeasure,
    JumpGeneratorSpec,
    TailConstants,
    UnboundableError,
    generalized_variance,
    laplace_smooth,
    measure_from_csv,
    measure_to_csv,
    moment,
    quantile,
    tail_ratio_constants,
    wasserstein,
)
from wflow.measures import _power_integral


def atoms(points, weights):
    return DiscreteMeasure(np.asarray(points, float), np.asarray(weights, float))


HALF_HALF = atoms([0.0, 1.0], [0.5, 0.5])
UNIFORM_01 = GridMeasure(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


# =============================================================================
# construction invariants
# =============================================================================


FLIP = [[0.0, 1.0], [1.0, 0.0]]


class TestConstruction:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: DiscreteMeasure([0.0, 1.0], [np.nan, 0.5]),
            lambda: DiscreteMeasure([np.nan], [1.0]),
            lambda: DiscreteMeasure([0.0, np.inf], [0.5, 0.5]),
            lambda: DiscreteMeasure([0.0, 1.0], [0.5, np.inf]),
            lambda: GridMeasure([0.0, np.nan, 2.0], [0.0, 0.5, 1.0]),
            lambda: GridMeasure([0.0, 1.0, np.inf], [0.0, 0.5, 1.0]),
            lambda: GridMeasure([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
            lambda: BirthDeathSpec([np.nan, 1.0, 0.0], [0.0, 1.0, 2.0]),
            lambda: BirthDeathSpec([1.0, 1.0, 0.0], [0.0, np.inf, 2.0]),
            lambda: JumpGeneratorSpec([0.0, np.inf], [1.0, 1.0], FLIP),
            lambda: JumpGeneratorSpec([np.nan, 1.0], [1.0, 1.0], FLIP),
            lambda: JumpGeneratorSpec([0.0, 1.0], [np.inf, 1.0], FLIP),
            lambda: JumpGeneratorSpec([0.0, 1.0], [1.0, np.nan], FLIP),
            lambda: JumpGeneratorSpec([0.0, 1.0], [1.0, 1.0], [[0.0, np.nan], [1.0, 0.0]]),
            lambda: JumpGeneratorSpec([0.0, 1.0], [1.0, 1.0], [[0.0, np.inf], [1.0, 0.0]]),
        ],
    )
    def test_constructors_reject_non_finite_input(self, build):
        # a NaN slips past every comparison check, so finiteness is its own check
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_atomic_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_atomic_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_atomic_rejects_bad_total(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_atomic_mass_tolerance_is_configurable(self):
        w = np.array([0.5, 0.5 - 1e-7])
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), w)
        m = DiscreteMeasure(np.array([0.0, 1.0]), w, mass_tol=1e-6)
        assert m.total_mass < 1.0

    def test_grid_requires_exact_cdf_endpoints(self):
        with pytest.raises(ValueError):
            GridMeasure(np.array([0.0, 1.0]), np.array([0.0, 0.999999]))
        with pytest.raises(ValueError):
            GridMeasure(np.array([0.0, 1.0]), np.array([1e-12, 1.0]))

    def test_grid_requires_strict_increase(self):
        with pytest.raises(ValueError):
            GridMeasure(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, 1.0]))

    def test_tail_constants_domain(self):
        with pytest.raises(ValueError):
            TailConstants(0.5, 1.0)
        with pytest.raises(ValueError):
            TailConstants(1.0, 0.0)


# =============================================================================
# quantile: right-continuous generalized inverse
# =============================================================================


class TestQuantile:
    def test_point_mass(self):
        assert quantile(atoms([0.0], [1.0]), 0.3) == 0.0

    def test_half_half_at_exact_cumulative(self):
        # F(0) = 0.5 is not strictly above 0.5, so the inverse jumps to 1
        assert quantile(HALF_HALF, 0.5) == 1.0

    def test_half_half_below_and_above(self):
        assert quantile(HALF_HALF, 0.25) == 0.0
        assert quantile(HALF_HALF, 0.75) == 1.0

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_levels_outside_open_interval(self, u):
        with pytest.raises(ValueError):
            quantile(HALF_HALF, u)

    def test_grid_inverse_roundtrip(self):
        rng = np.random.default_rng(7)
        grid = np.array([-1.0, 0.0, 0.25, 2.0])
        m = GridMeasure(grid, np.array([0.0, 0.125, 0.5, 1.0]))
        u = rng.uniform(1e-6, 1.0 - 1e-6, size=1000)
        assert np.allclose(m.cdf_at(quantile(m, u)), u, atol=1e-12)

    def test_vector_levels(self):
        out = quantile(HALF_HALF, np.array([0.1, 0.6]))
        assert out.tolist() == [0.0, 1.0]


# =============================================================================
# moments and generalized variance
# =============================================================================


class TestMoment:
    def test_point_mass_cube(self):
        assert moment(atoms([2.0], [1.0]), 3.0) == 8.0

    def test_two_atoms_square(self):
        assert moment(atoms([0.0, 2.0], [0.5, 0.5]), 2.0) == 2.0

    def test_uniform_mean_abs(self):
        assert moment(UNIFORM_01, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_grid_matches_quadrature_across_sign_change(self):
        # density 0.25 on [-2,0) and 0.25 on [0,2): straddles the origin
        m = GridMeasure(np.array([-2.0, 0.0, 2.0]), np.array([0.0, 0.5, 1.0]))
        for q in (0.5, 1.0, 2.0, 3.7):
            ref = quad_moment(lambda t: 0.25, -2.0, 2.0, q)
            assert moment(m, q) == pytest.approx(ref, rel=1e-9)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            moment(HALF_HALF, 0.0)

    def test_monotone_in_order_for_integer_support(self):
        # gaps >= 1 between atoms force |x|^q to be pointwise nondecreasing in q
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = np.sort(rng.choice(np.arange(0, 12), size=4, replace=False)).astype(float)
            w = rng.dirichlet(np.ones(4))
            w = w / w.sum()
            m = DiscreteMeasure(pts, w, mass_tol=1e-9)
            vals = [moment(m, q) for q in (1.0, 1.5, 2.0, 3.0)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestPowerIntegral:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-3, 50.0),
        st.floats(1e-3, 50.0),
        st.floats(1e-3, 10.0),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.7]),
        st.booleans(),
    )
    def test_zero_crossing_equals_halves_split_at_root(self, neg, pos, width, q, rising):
        # z runs linearly from -neg to pos (or back): the root splits the
        # width in proportion to the two magnitudes
        z_lo, z_hi = (-neg, pos) if rising else (pos, -neg)
        w_lo = width * abs(z_lo) / (neg + pos)
        w_hi = width * abs(z_hi) / (neg + pos)
        whole = _power_integral(np.array([z_lo]), np.array([z_hi]), np.array([width]), q)
        halves = _power_integral(
            np.array([z_lo, 0.0]), np.array([0.0, z_hi]), np.array([w_lo, w_hi]), q
        )
        assert whole[0] == pytest.approx(halves.sum(), rel=1e-13)

    @pytest.mark.parametrize("q", [2, 3])
    def test_near_flat_segments_match_exact_rationals(self, q):
        # at every relative spread of the ends, from 1e-12 to 1e-3, the form
        # taken (midpoint below the switch, quotient above) stays within
        # 2e-10 relative of the integral in exact rational arithmetic
        rng = np.random.default_rng(17 + q)
        worst = 0.0
        for spread in np.geomspace(1e-12, 1e-3, 10):
            z_lo = rng.uniform(0.1, 10.0, 200) * rng.choice([-1.0, 1.0], 200)
            z_hi = z_lo * (1.0 + spread * rng.uniform(0.5, 1.5, 200) * rng.choice([-1.0, 1.0], 200))
            width = rng.uniform(0.1, 2.0, 200)
            got = _power_integral(z_lo, z_hi, width, float(q))
            for a, b, w, g in zip(z_lo, z_hi, width, got):
                a, b = abs(Fraction(float(a))), abs(Fraction(float(b)))
                exact = Fraction(float(w)) * (b ** (q + 1) - a ** (q + 1)) / ((q + 1) * (b - a))
                worst = max(worst, abs(float((Fraction(float(g)) - exact) / exact)))
        assert worst <= 2e-10

    def test_flat_segment_takes_the_midpoint(self):
        # ends 1e-10 apart, relative: no quotient, whose difference would cancel
        z_lo = np.array([2.0, -3.0])
        z_hi = z_lo * (1.0 + 1e-10)
        width = np.array([0.5, 2.0])
        out = _power_integral(z_lo, z_hi, width, 2.5)
        assert np.array_equal(out, np.abs(0.5 * (z_lo + z_hi)) ** 2.5 * width)


class TestGeneralizedVariance:
    def test_constant_has_zero_variance(self):
        assert generalized_variance(HALF_HALF, np.array([3.0, 3.0]), 2.0) == 0.0

    def test_identity_order_two(self):
        assert generalized_variance(HALF_HALF, np.array([0.0, 1.0]), 2.0) == pytest.approx(0.25)

    def test_identity_order_one(self):
        assert generalized_variance(HALF_HALF, np.array([0.0, 1.0]), 1.0) == pytest.approx(0.5)

    def test_grid_matches_quadrature(self):
        m = GridMeasure(np.array([0.0, 1.0, 3.0]), np.array([0.0, 0.75, 1.0]))
        phi = np.array([1.0, -1.0, 2.0])

        def phi_fn(t):
            return np.interp(t, m.grid, phi)

        dens = lambda t: 0.75 if t < 1.0 else 0.125  # noqa: E731
        mu = quad_mean(dens, 0.0, 3.0, phi_fn)
        for q in (1.0, 1.5, 2.0):
            ref, err = integrate.quad(
                lambda t: abs(phi_fn(t) - mu) ** q * dens(t), 0.0, 3.0, limit=400, points=[1.0]
            )
            assert err < 1e-7
            assert generalized_variance(m, phi, q) == pytest.approx(ref, rel=1e-7)

    def test_shape_mismatch_is_domain_error(self):
        with pytest.raises(ValueError):
            generalized_variance(HALF_HALF, np.array([1.0, 2.0, 3.0]), 2.0)


# =============================================================================
# Laplace smoothing
# =============================================================================


class TestLaplaceSmooth:
    def test_centered_kernel_median(self):
        sm, _ = laplace_smooth(atoms([0.0], [1.0]), 1.0)
        assert sm.cdf_at(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_first_moment_matches_kernel_mean_abs(self):
        # the kernel's mean absolute value integrates to exactly 1
        ref = quad_moment(lambda t: 0.5 * np.exp(-abs(t)), -40.0, 40.0, 1.0)
        assert ref == pytest.approx(1.0, abs=1e-9)
        for eta in (0.5, 1.0):
            sm, _ = laplace_smooth(atoms([0.0], [1.0]), eta, grid_spec=8192)
            assert moment(sm, 1.0) == pytest.approx(eta * ref, abs=5e-5)

    def test_tail_constants_are_one_over_eta(self):
        _, tc = laplace_smooth(atoms([0.0, 2.0], [0.25, 0.75]), 0.1)
        assert tc == TailConstants(1.0, 10.0)

    def test_narrow_grid_is_coverage_error(self):
        with pytest.raises(CoverageError):
            laplace_smooth(atoms([0.0], [1.0]), 1.0, grid_spec=np.linspace(-5.0, 5.0, 64))

    def test_smoothing_is_weakly_close(self):
        # W1 between the law and its smoothing is at most eta * E|Z| = eta;
        # the piecewise-linear representation may overshoot by O((h/eta)^2)
        m = atoms([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3])
        for eta in (0.5, 0.1, 0.02):
            sm, _ = laplace_smooth(m, eta, grid_spec=16384)
            assert wasserstein(m, sm, 1.0) <= eta * (1 + 1e-4)

    def test_smoothing_distance_saturates_for_isolated_atoms(self):
        # atoms much farther apart than eta transport their own kernel mass,
        # so the distance approaches eta * E|Z| with equality in the limit
        m = atoms([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3])
        sm, _ = laplace_smooth(m, 0.02, grid_spec=16384)
        assert wasserstein(m, sm, 1.0) == pytest.approx(0.02, rel=1e-4)

    def test_rejects_grid_measure_input(self):
        with pytest.raises(TypeError):
            laplace_smooth(UNIFORM_01, 0.1)


# =============================================================================
# tail ratio envelopes
# =============================================================================


class TestTailRatioConstants:
    def test_smoothed_point_mass_fits_inverse_eta(self):
        eta = 0.25
        sm, _ = laplace_smooth(atoms([0.0], [1.0]), eta, grid_spec=8192)
        y = np.array([0.5, 1.0, 1.5]) * eta
        cert = tail_ratio_constants(sm, y)
        assert cert.constants.c == 1.0
        assert cert.constants.C == pytest.approx(1.0 / eta, rel=1e-3)
        # certificate actually covers the observed ratios
        env = np.exp(cert.constants.C * y)
        assert np.all(cert.max_cdf_ratio <= env * (1 + 1e-12))
        assert np.all(cert.max_sf_ratio <= env * (1 + 1e-12))

    def test_uniform_is_unboundable(self):
        with pytest.raises(UnboundableError):
            tail_ratio_constants(UNIFORM_01, [0.25])

    def test_translation_leaves_constants_unchanged(self):
        eta = 0.5
        sm, _ = laplace_smooth(atoms([0.0, 1.0], [0.5, 0.5]), eta)
        shifted = GridMeasure(sm.grid + 3.25, sm.cdf_values)
        y = [0.2, 0.7]
        a = tail_ratio_constants(sm, y)
        b = tail_ratio_constants(shifted, y)
        assert a.constants.C == pytest.approx(b.constants.C, rel=1e-12)
        assert np.allclose(a.max_cdf_ratio, b.max_cdf_ratio)
        assert np.allclose(a.max_sf_ratio, b.max_sf_ratio)

    def test_rejects_nonpositive_shift(self):
        sm, _ = laplace_smooth(atoms([0.0], [1.0]), 1.0)
        with pytest.raises(ValueError):
            tail_ratio_constants(sm, [0.0])


# =============================================================================
# CSV round trips
# =============================================================================


class TestCsv:
    def test_atomic_roundtrip(self, tmp_path):
        m = atoms([-1.5, 0.0, 2.25], [0.25, 0.25, 0.5])
        path = tmp_path / "m.csv"
        measure_to_csv(m, str(path))
        back = measure_from_csv(str(path))
        assert isinstance(back, DiscreteMeasure)
        assert np.array_equal(back.support, m.support)
        assert np.array_equal(back.weights, m.weights)

    def test_grid_roundtrip_in_memory(self):
        m = GridMeasure(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.125, 1.0]))
        buf = io.StringIO()
        measure_to_csv(m, buf)
        back = measure_from_csv(io.StringIO(buf.getvalue()))
        assert isinstance(back, GridMeasure)
        assert np.array_equal(back.grid, m.grid)
        assert np.array_equal(back.cdf_values, m.cdf_values)

    def test_header_is_required(self):
        with pytest.raises(ValueError):
            measure_from_csv(io.StringIO("0.0,0.5\n1.0,0.5\n"))

    def test_header_identifies_representation(self):
        text = "x,cdf\n0.0,0.0\n1.0,1.0\n"
        back = measure_from_csv(io.StringIO(text))
        assert isinstance(back, GridMeasure)


# =============================================================================
# property tests
# =============================================================================


def atomic_measures():
    return (
        st.lists(
            st.integers(min_value=-50, max_value=50).map(float),
            min_size=1,
            max_size=8,
            unique=True,
        )
        .map(sorted)
        .flatmap(
            lambda pts: st.lists(
                st.integers(min_value=1, max_value=20),
                min_size=len(pts),
                max_size=len(pts),
            ).map(
                lambda raw: DiscreteMeasure(
                    np.array(pts), np.array(raw, float) / float(sum(raw)), mass_tol=1e-9
                )
            )
        )
    )


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(atomic_measures(), st.floats(min_value=0.01, max_value=0.99))
    def test_quantile_lands_on_support(self, m, u):
        assert quantile(m, u) in m.support

    @settings(max_examples=60, deadline=None)
    @given(atomic_measures(), st.floats(min_value=0.01, max_value=0.49))
    def test_quantile_is_monotone(self, m, u):
        assert quantile(m, u) <= quantile(m, u + 0.5)

    @settings(max_examples=60, deadline=None)
    @given(atomic_measures(), st.floats(min_value=0.2, max_value=4.0))
    def test_moment_nonnegative(self, m, q):
        assert moment(m, q) >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(atomic_measures(), st.floats(min_value=1.0, max_value=3.0))
    def test_variance_of_centered_shift_is_invariant(self, m, q):
        phi = m.support.copy()
        a = generalized_variance(m, phi, q)
        b = generalized_variance(m, phi + 17.5, q)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
