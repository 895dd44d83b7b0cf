"""Tests for birth-death curvature, contraction envelopes, and moments."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wflow.birth_death import (
    _SCAN_CHUNK,
    BirthDeathSpec,
    _scan_max,
    contraction_report,
    cost_difference_constant,
    curvature,
    mm_infty,
    moment_bound,
    moment_rate_constant,
    truncated_curvature,
)
from wflow.jump_process import uniformized_marginal
from wflow.measures import DiscreteMeasure
from wflow.transport import wasserstein_power


def dirac(x):
    return DiscreteMeasure(np.array([float(x)]), np.array([1.0]))


def pure_death_spec(b, n_top):
    """Constant death rate b off the origin, no births: zero curvature."""
    nu = np.full(n_top + 1, float(b))
    nu[0] = 0.0
    return BirthDeathSpec(np.zeros(n_top + 1), nu)


class TestSpecValidation:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            BirthDeathSpec(np.array([1.0, -1.0, 1.0]), np.zeros(3))

    def test_rejects_death_at_origin(self):
        with pytest.raises(ValueError):
            BirthDeathSpec(np.ones(3), np.array([0.5, 1.0, 2.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BirthDeathSpec(np.ones(3), np.zeros(4))

    def test_growth_constant_is_minimal_dominator(self):
        bd = mm_infty(2.0, 1.0, 30)
        assert bd.growth_c == 2.0
        bd2 = BirthDeathSpec(np.array([0.0, 4.0, 3.0]), np.array([0.0, 1.0, 1.0]))
        assert bd2.growth_c == 2.0

    def test_rejects_undersized_growth_constant(self):
        with pytest.raises(ValueError):
            BirthDeathSpec(np.full(5, 3.0), np.zeros(5), growth_c=1.0)

    def test_top_birth_capped_but_raw_kept(self):
        bd = mm_infty(1.5, 1.0, 10)
        assert bd.eta[-1] == 0.0
        assert bd.eta_raw[-1] == 1.5
        assert bd.lip_eta == 0.0
        assert bd.lip_nu == 1.0


class TestGenerator:
    def test_nearest_neighbour_structure(self):
        bd = mm_infty(1.0, 2.0, 6)
        gen = bd.to_generator()
        assert np.array_equal(gen.states, np.arange(7.0))
        assert np.allclose(gen.lam[:-1], 1.0 + 2.0 * np.arange(6.0))
        assert gen.lam[-1] == 12.0
        k = np.asarray(gen.kernel)
        assert k[0, 1] == 1.0
        assert np.allclose(k[3, 2], 6.0 / 7.0)
        assert np.allclose(k[3, 4], 1.0 / 7.0)
        assert k[6, 5] == 1.0

    def test_all_rates_zero_gives_frozen_chain(self):
        bd = BirthDeathSpec(np.zeros(4), np.zeros(4))
        gen = bd.to_generator()
        m = uniformized_marginal(gen, dirac(2.0), 3.0)
        assert m.support.tolist() == [2.0]
        assert m.weights.tolist() == [1.0]


class TestCurvature:
    def test_mm_infty_curvature_is_death_slope(self):
        assert curvature(mm_infty(1.0, 1.0, 40)) == 1.0
        assert curvature(mm_infty(2.5, 0.7, 25)) == pytest.approx(0.7, abs=1e-14)

    def test_constant_death_no_birth_flat(self):
        assert curvature(pure_death_spec(1.3, 12)) == 0.0

    def test_no_rates_flat(self):
        assert curvature(BirthDeathSpec(np.zeros(5), np.zeros(5))) == 0.0

    def test_linear_birth_can_be_negative(self):
        states = np.arange(9.0)
        bd = BirthDeathSpec(2.0 * states + 1.0, 0.5 * states)
        # eta grows faster than nu: kappa = 0.5 - 2.0
        assert curvature(bd) == pytest.approx(-1.5, abs=1e-14)

    def test_truncated_matches_example(self):
        bd = mm_infty(1.0, 1.0, 10)
        assert truncated_curvature(bd) == 1.0
        assert truncated_curvature(bd, 5) == 1.0

    def test_truncated_bracketing(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            eta = rng.uniform(0.0, 3.0, n + 1)
            nu = rng.uniform(0.0, 3.0, n + 1)
            nu[0] = 0.0
            bd = BirthDeathSpec(eta, nu)
            raw = eta[:-1] + nu[1:] - eta[1:] - nu[:-1]
            lo = float(np.min(raw))
            hi = float(np.min(raw[:-1]))
            kn = truncated_curvature(bd)
            assert lo - 1e-12 <= kn <= hi + 1e-12

    def test_truncation_argument_validated(self):
        bd = mm_infty(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            truncated_curvature(bd, 1)
        with pytest.raises(ValueError):
            truncated_curvature(bd, 11)


class TestScannedConstants:
    def test_moment_rate_values(self):
        assert moment_rate_constant(1.0) == pytest.approx(1.0, abs=1e-12)
        assert moment_rate_constant(2.0) == pytest.approx(3.0, abs=1e-12)
        assert moment_rate_constant(3.0) == pytest.approx(7.0, abs=1e-10)

    def test_moment_rate_dominates_every_integer(self):
        for rho in (1.5, 2.0, 2.7):
            c = moment_rate_constant(rho)
            x = np.arange(200.0)
            ratio = (1.0 + x) * ((1.0 + x) ** rho - x**rho) / (1.0 + x**rho)
            assert np.all(ratio <= c * (1 + 1e-13))

    def test_cost_difference_small_rho(self):
        assert cost_difference_constant(1.0) == 0.0
        assert cost_difference_constant(1.5) == 1.0
        assert cost_difference_constant(2.0) == 1.0

    def test_cost_difference_above_two(self):
        # direct small-z scan: the quartic case peaks at z=3 above the
        # large-z limit 6
        z = np.arange(-50.0, 51.0)
        ratio = (np.abs(z + 1) ** 4 - z**4 - 4 * z * z**2) / (1 + z**2)
        assert cost_difference_constant(4.0) == pytest.approx(
            float(np.max(ratio)), rel=1e-12
        )
        assert cost_difference_constant(4.0) == pytest.approx(6.7, abs=1e-12)
        assert cost_difference_constant(3.0) == pytest.approx(3.0, abs=1e-10)
        # at rho=2.5 the supremum is the large-z limit rho(rho-1)/2
        assert cost_difference_constant(2.5) == pytest.approx(1.875, abs=1e-9)

    def test_chunked_scan_matches_one_shot(self):
        # a scan_top spanning several chunks gives the one-shot numpy maximum
        top = 3 * _SCAN_CHUNK + 17
        x = np.arange(top + 1, dtype=float)
        z = np.arange(-top, top + 1, dtype=float)
        az = np.abs(z)
        for rho in (1.5, 2.0, 3.0):
            gap = np.concatenate(([1.0], x[1:] ** rho * np.expm1(rho * np.log1p(1.0 / x[1:]))))
            one_shot = max(np.max((1.0 + x) * gap / (1.0 + x**rho)), rho)
            assert moment_rate_constant(rho, scan_top=top) == one_shot
        for rho in (2.5, 3.0, 4.0):
            with np.errstate(divide="ignore"):
                log_term = rho * np.log1p(np.where(z == 0, 0.0, np.sign(z) / np.maximum(az, 1)))
            gap = np.where(
                z == 0,
                1.0,
                np.where(az == 1.0, np.abs(z + 1) ** rho - 1.0, az**rho * np.expm1(log_term)),
            )
            ratio = (gap - rho * z * az ** (rho - 2.0)) / (1.0 + az ** (rho - 2.0))
            one_shot = max(np.max(ratio), 0.5 * rho * (rho - 1.0))
            assert cost_difference_constant(rho, scan_top=top) == one_shot
        # the peak may sit in any chunk; a NaN still propagates
        assert _scan_max(lambda v, c: -((v - c) ** 2), 2 * _SCAN_CHUNK + 5, 0, top) == 0.0
        assert np.isnan(_scan_max(lambda v, c: np.where(v == c, np.nan, v), top, 0, top))
        assert _scan_max(lambda v, c: v, 0, 1, 0) == -np.inf

    def test_cost_difference_dominates_every_integer(self):
        for rho in (2.5, 3.0, 4.0):
            c = cost_difference_constant(rho)
            z = np.arange(-300.0, 301.0)
            lhs = np.abs(z + 1) ** rho - np.abs(z) ** rho - rho * z * np.abs(z) ** (
                rho - 2.0
            )
            assert np.all(lhs <= c * (1 + np.abs(z) ** (rho - 2.0)) * (1 + 1e-12))


class TestContractionReport:
    def test_first_order_envelope_reference(self):
        bd = mm_infty(1.0, 1.0, 40)
        rep = contraction_report(bd, dirac(3.0), dirac(7.0), 1.0, 2.0, 200)
        assert rep.kappa == 1.0
        assert rep.kappa_truncated == 1.0
        assert rep.w1[0] == 4.0
        assert rep.max_violation <= 1e-8
        # stochastic ordering makes the first-order distance exactly the
        # mean gap, which satisfies the envelope with equality
        exact = 4.0 * np.exp(-rep.time_grid)
        assert np.max(np.abs(rep.w1 - exact)) <= 1e-9
        assert np.max(np.abs(rep.bound1 - exact)) <= 1e-12

    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_closed_envelope_reference(self, rho):
        bd = mm_infty(1.0, 1.0, 40)
        rep = contraction_report(bd, dirac(3.0), dirac(7.0), rho, 2.0, 200)
        assert rep.max_violation <= 1e-8
        assert not rep.degenerate_kappa
        assert rep.w_rho[0] == pytest.approx(4.0**rho, abs=1e-12)
        assert rep.bound_rho[0] == pytest.approx(4.0**rho, rel=1e-12)
        assert rep.iterated_bound is None

    def test_high_power_envelopes(self):
        bd = mm_infty(1.0, 1.0, 40)
        rep = contraction_report(bd, dirac(3.0), dirac(7.0), 3.0, 1.0, 100)
        assert rep.max_violation <= 1e-8
        assert rep.cost_constant == pytest.approx(3.0, abs=1e-10)
        assert rep.iterated_bound is not None
        # pi_0 = C_3 L / (2 kappa) = 1.5, pi_1 = pi_0 * C_2 L / kappa = 1.5:
        # initial iterated value 64 + 1.5*16 + 3*4 = 100
        assert rep.iterated_bound[0] == pytest.approx(100.0, rel=1e-12)
        assert np.all(rep.w_rho <= rep.iterated_bound * (1 + 1e-8))

    def test_degenerate_curvature_limit(self):
        bd = pure_death_spec(0.8, 12)
        rep = contraction_report(bd, dirac(0.0), dirac(5.0), 1.5, 1.0, 50)
        assert rep.kappa_truncated == 0.0
        assert rep.degenerate_kappa
        expect = 5.0**1.5 + 0.8 * 5.0 * rep.time_grid
        assert np.max(np.abs(rep.bound_rho - expect)) <= 1e-12
        assert rep.max_violation <= 1e-8

    def test_zero_curvature_first_order_constant_bound(self):
        bd = pure_death_spec(0.8, 12)
        rep = contraction_report(bd, dirac(0.0), dirac(5.0), 1.0, 1.0, 50)
        assert np.all(rep.bound1 == 5.0)
        assert rep.max_violation <= 1e-8

    def test_same_start_stays_zero(self):
        bd = mm_infty(1.0, 1.0, 20)
        rep = contraction_report(bd, dirac(4.0), dirac(4.0), 2.0, 1.0, 20)
        assert np.max(rep.w_rho) <= 1e-10
        assert rep.max_violation == 0.0

    def test_argument_validation(self):
        bd = mm_infty(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            contraction_report(bd, dirac(1.0), dirac(2.0), 0.5, 1.0, 10)
        with pytest.raises(ValueError):
            contraction_report(bd, dirac(1.0), dirac(2.0), 2.0, 0.0, 10)
        with pytest.raises(ValueError):
            contraction_report(bd, dirac(1.0), dirac(2.0), 2.0, 1.0, 0)

    def test_csv_layout(self, tmp_path):
        bd = mm_infty(1.0, 1.0, 15)
        rep = contraction_report(bd, dirac(2.0), dirac(6.0), 2.0, 0.5, 8)
        buf = io.StringIO()
        rep.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,w1,bound1,w_rho,bound_rho,violation"
        assert len(lines) == 10
        parsed = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:]]
        )
        assert np.array_equal(parsed[:, 0], rep.time_grid)
        assert np.array_equal(parsed[:, 1], rep.w1)
        assert np.array_equal(parsed[:, 3], rep.w_rho)
        path = tmp_path / "contraction.csv"
        rep.to_csv(path)
        assert path.read_text() == buf.getvalue()


class TestMomentBound:
    def test_reference_mean_exact(self):
        bd = mm_infty(1.0, 1.0, 60)
        for t in (0.3, 1.0, 2.0):
            exact, bound = moment_bound(bd, dirac(3.0), 1.0, t)
            formula = 3.0 * np.exp(-t) + (1.0 - np.exp(-t))
            assert exact == pytest.approx(formula, abs=1e-10)
            assert exact <= bound

    @pytest.mark.parametrize("rho", [1.0, 2.0, 3.0])
    def test_bound_holds(self, rho):
        bd = mm_infty(1.5, 0.9, 70)
        for t in (0.25, 1.0):
            exact, bound = moment_bound(bd, dirac(4.0), rho, t)
            assert 0.0 < exact <= bound

    def test_rejects_bad_arguments(self):
        bd = mm_infty(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            moment_bound(bd, dirac(1.0), 0.5, 1.0)
        with pytest.raises(ValueError):
            moment_bound(bd, dirac(1.0), 2.0, -1.0)


class TestFamiliesAndStability:
    def test_family_builders_agree(self):
        a = mm_infty(1.2, 0.4, 17)
        assert np.array_equal(a.eta_raw, np.full(18, 1.2))
        assert np.array_equal(a.nu, 0.4 * np.arange(18.0))

    def test_truncation_stability(self):
        # doubling the cutoff moves the marginal by far less than the
        # certification slack when the start sits well inside
        m_small = uniformized_marginal(
            mm_infty(1.0, 1.0, 20).to_generator(), dirac(3.0), 1.0
        )
        m_large = uniformized_marginal(
            mm_infty(1.0, 1.0, 40).to_generator(), dirac(3.0), 1.0
        )
        assert wasserstein_power(m_small, m_large, 1.0) <= 1e-8


@st.composite
def random_bd(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    eta = [draw(st.floats(0.0, 2.0)) for _ in range(n + 1)]
    nu = [0.0] + [draw(st.floats(0.0, 2.0)) for _ in range(n)]
    start_x = draw(st.integers(0, n))
    start_y = draw(st.integers(0, n))
    return BirthDeathSpec(np.array(eta), np.array(nu)), start_x, start_y


class TestContractionProperty:
    @given(random_bd(), st.sampled_from([1.0, 1.5, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_envelope_holds_for_random_chains(self, case, rho):
        bd, sx, sy = case
        rep = contraction_report(bd, dirac(sx), dirac(sy), rho, 0.5, 20)
        assert rep.max_violation <= 1e-7
