"""Tests for birth-death curvature, contraction envelopes, and moments."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import scan_cost_difference_constant, scan_moment_rate_constant
from wflow import birth_death, jump_process
from wflow.birth_death import (
    BirthDeathSpec,
    _moment_bounds,
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
        k = gen.kernel.toarray()
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


MOMENT_RHOS = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0]
COST_RHOS = [2.5, 3.0, 3.5, 4.0, 5.0]


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

    @pytest.mark.parametrize("rho", MOMENT_RHOS)
    def test_moment_rate_matches_million_point_scan(self, rho):
        assert moment_rate_constant(rho) == scan_moment_rate_constant(rho)

    @pytest.mark.parametrize("rho", COST_RHOS)
    def test_cost_difference_matches_two_million_point_scan(self, rho):
        assert cost_difference_constant(rho) == scan_cost_difference_constant(rho)

    def test_each_constant_scans_a_short_window(self, monkeypatch):
        # a work count, not a timing: the million-point scans must not return
        points = []

        def counted(ratio):
            def wrapped(x, rho):
                points.append(np.size(x))
                return ratio(x, rho)

            return wrapped

        for name in ("_moment_rate_ratio", "_cost_difference_ratio"):
            monkeypatch.setattr(birth_death, name, counted(getattr(birth_death, name)))
        for constant, rhos in (
            (moment_rate_constant, MOMENT_RHOS),
            (cost_difference_constant, COST_RHOS),
        ):
            for rho in rhos:
                points.clear()
                constant(rho)
                assert 0 < sum(points) <= 1 << 18, (constant.__name__, rho, sum(points))

    def test_window_fallback_returns_the_tail_bound(self):
        # at rho = 3.01 the scanned ratio never reaches the Lagrange tail bound,
        # which exceeds the limit: the constant falls back to the tail at 2**20,
        # just above the old scan's value
        rho = 3.01
        limit = 0.5 * rho * (rho - 1.0)
        a, w = rho - 2.0, float(1 << 20)
        tail = limit * (1.0 + 1.0 / w) ** a / (1.0 + w**-a)
        assert scan_cost_difference_constant(rho) == limit
        assert cost_difference_constant(rho) == tail > limit

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5])
    def test_non_finite_or_small_rho_rejected(self, bad):
        with pytest.raises(ValueError, match="finite number >= 1"):
            moment_rate_constant(bad)
        with pytest.raises(ValueError, match="finite number >= 1"):
            cost_difference_constant(bad)

    @pytest.mark.parametrize("rho", [1000.0, 5000.0])
    def test_overflowing_constants_raise(self, rho):
        # x**rho overflows a double from x = 3 at rho = 1000: a typed error,
        # not a nan
        with pytest.raises(OverflowError, match=f"rho = {rho!r}"):
            moment_rate_constant(rho)
        with pytest.raises(OverflowError, match=f"rho = {rho!r}"):
            cost_difference_constant(rho)

    @pytest.mark.parametrize(
        "rho, moment, cost",
        [
            (3.0, 6.999999999999998, 3.0),
            (300.0, 2.0370359763344673e90, 1.018517988167243e90),
        ],
    )
    def test_large_finite_constants_unchanged(self, rho, moment, cost):
        assert moment_rate_constant(rho) == moment
        assert cost_difference_constant(rho) == cost

    @given(
        st.floats(1.0, 10.0, exclude_min=True),
        st.integers(0, 10**15),
    )
    @settings(max_examples=150, deadline=None)
    def test_moment_rate_bounds_the_exact_ratio(self, rho, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            r, v = mpmath.mpf(rho), mpmath.mpf(x)
            ratio = (1 + v) * ((1 + v) ** r - v**r) / (1 + v**r)
            assert ratio <= moment_rate_constant(rho) * (1 + 1e-13)

    @given(
        st.floats(1.0, 10.0, exclude_min=True),
        st.integers(-(10**15), 10**15),
    )
    @settings(max_examples=150, deadline=None)
    def test_cost_difference_bounds_the_exact_ratio(self, rho, z):
        # the weight |z|^(rho-2) applies above rho = 2 only; the slack covers
        # the scan's rounding, which grows like |z| ulps where the ratio cancels
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            r, v = mpmath.mpf(rho), mpmath.mpf(z)
            drift = r * v * abs(v) ** (r - 2) if z else 0
            weight = 1 + abs(v) ** (r - 2) if rho > 2 else 1
            ratio = (abs(v + 1) ** r - abs(v) ** r - drift) / weight
            assert ratio <= cost_difference_constant(rho) * (1 + 1e-12)

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
        for rho in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite number >= 1"):
                contraction_report(bd, dirac(1.0), dirac(2.0), rho, 1.0, 10)
        for t_end in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="t_end must be finite and positive"):
                contraction_report(bd, dirac(1.0), dirac(2.0), 2.0, t_end, 10)
        with pytest.raises(ValueError, match="n_steps"):
            contraction_report(bd, dirac(1.0), dirac(2.0), 2.0, 1.0, 0)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 3.0])
    def test_one_window_per_node_and_one_merge(self, rho, monkeypatch):
        # both paths read one set of Poisson windows, built in one batched
        # pass, and W comes from the merge: wasserstein_power runs only on
        # the iterated bound's initial laws (orders rho and rho - 1 at rho = 3)
        windows, costs = [], []
        real_windows, real_power = jump_process._clock_windows, birth_death.wasserstein_power

        def batched(mus, budget):
            windows.append(len(mus))
            return real_windows(mus, budget)

        def power(m1, m2, r):
            costs.append(r)
            return real_power(m1, m2, r)

        monkeypatch.setattr(jump_process, "_clock_windows", batched)
        monkeypatch.setattr(birth_death, "wasserstein_power", power)
        rep = contraction_report(mm_infty(1.0, 1.0, 40), dirac(3.0), dirac(7.0), rho, 1.0, 30)
        assert windows == [31]
        assert costs == ([3.0, 2.0] if rho == 3.0 else [])
        assert rep.max_violation <= 1e-8

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
        for rho in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite number >= 1"):
                moment_bound(bd, dirac(1.0), rho, 1.0)
        with pytest.raises(ValueError):
            moment_bound(bd, dirac(1.0), 2.0, -1.0)

    def test_one_law_for_every_order(self, monkeypatch):
        bd = mm_infty(1.5, 0.9, 70)
        ticked = []
        real = jump_process._clock_sums

        def counted(tick, u, windows):
            ticked.append(len(windows))
            return real(tick, u, windows)

        monkeypatch.setattr(jump_process, "_clock_sums", counted)
        rhos = [1.0, 1.5, 2.0, 3.0]
        together = _moment_bounds(bd, dirac(4.0), rhos, 1.0)
        assert ticked == [1]
        assert together == [moment_bound(bd, dirac(4.0), rho, 1.0) for rho in rhos]

    def test_overflowing_bound_is_infinite(self):
        # exp(3 * 20 * 90.9) overflows a double; the exact moment still holds
        exact, bound = moment_bound(mm_infty(20.0, 1.0, 200), dirac(3.0), 2.0, 90.9090909)
        assert math.isfinite(exact) and exact > 0.0
        assert bound == math.inf


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
