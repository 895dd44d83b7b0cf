"""Tests for the piecewise-deterministic module."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cdf_gap,
    dkw_radius,
    flow_rk4,
    jump_cells_symmetric,
    mu_generator_rowloop,
    tail_ratio_per_probe,
    thinning_at_bound,
)

from wflow import jump_process, pdmp, transport
from wflow.evolution import apply_generator, verify_identity
from wflow.jump_process import JumpGeneratorSpec, simulate_paths, uniformized_marginal
from wflow.measures import CoverageError, DiscreteMeasure, TailConstants, laplace_smooth, quantile
from wflow.pdmp import (
    Drift,
    Intensity,
    PdmpSpec,
    PropagationAudit,
    ShiftJump,
    UniformJump,
    _propagation_checks,
    atomize,
    cell_law,
    embed_on_grid,
    flow,
    mu_convergence_study,
    mu_generator,
    propagation_check,
    propagation_constants,
    simulate_chain,
    simulate_pdmp,
)
from wflow.transport import potentials, wasserstein

# forward Euler for dx/dt = -tanh(x), x(0)=1, over [0,1]; frozen runs at
# 1e6 and 2e6 steps, whose Richardson pair cancels the O(h) bias that the
# raw run carries (~1.3e-7, far above the closed form's rounding)
EULER_1E6 = 0.4198851282147978
EULER_2E6 = 0.41988519288842585
EULER_RICHARDSON = 2.0 * EULER_2E6 - EULER_1E6
# sinh(x(t)) = sinh(x0) e^{-t} integrates the field exactly
TANH_FLOW_CLOSED = math.asinh(math.sinh(1.0) * math.exp(-1.0))


def const_intensity(level):
    return Intensity([0.0], [level])


def tanh_spec(lam=0.0, kernel=None):
    return PdmpSpec(Drift("neg_tanh"), const_intensity(lam), kernel or UniformJump(1.0))


class TestParts:
    def test_drift_bounds_and_validation(self):
        assert Drift("zero").bound == 0.0
        assert Drift("const", -0.7).bound == 0.7
        assert Drift("neg_tanh").bound == 1.0
        assert Drift("const", 2).c == 2.0
        with pytest.raises(ValueError, match="takes no c"):
            Drift("neg_tanh", 0.5)
        with pytest.raises(ValueError, match="takes no c"):
            Drift("zero", -1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                Drift("const", bad)
        with pytest.raises(ValueError, match="unknown drift"):
            Drift("spiral")

    def test_intensity_is_a_frozen_table(self):
        lam = Intensity([-1.0, 1.0], [0.2, 0.6])
        assert lam.bound == 0.6
        xs = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
        np.testing.assert_allclose(lam(xs), [0.2, 0.2, 0.4, 0.6, 0.6])
        with pytest.raises(ValueError, match="read-only"):
            lam.val[0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            lam.x[0] = -9.0
        # a constant rate is the one-node table, bit for bit, out to +-inf
        xs = np.array([-np.inf, -1e300, -2.5, 0.0, 1e-300, 3.0, np.inf])
        one = Intensity([0.0], [0.3])
        assert one.bound == 0.3
        np.testing.assert_array_equal(one(xs), np.full_like(xs, 0.3))

    @pytest.mark.parametrize(
        "x, val, match",
        [
            ([1.0, -1.0], [0.2, 0.6], "increasing"),
            ([0.0, 0.0], [0.2, 0.6], "increasing"),
            ([0.0, math.nan], [0.2, 0.6], "finite"),
            ([0.0, 1.0], [0.2, math.nan], "finite"),
            ([0.0, 1.0], [0.2, math.inf], "finite"),
            ([0.0, 1.0], [0.2, -0.1], "nonnegative"),
            ([0.0, 1.0], [0.2], "equal-length"),
            ([], [], "nonempty"),
            (0.0, 0.5, "nonempty"),
        ],
    )
    def test_intensity_rejects_bad_tables(self, x, val, match):
        with pytest.raises(ValueError, match=match):
            Intensity(x, val)

    def test_jump_laws_carry_their_bound(self):
        assert UniformJump(0.4).bound == 0.4
        assert ShiftJump(-0.35).bound == 0.35
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                UniformJump(bad)
            with pytest.raises(ValueError, match="finite"):
                ShiftJump(bad)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                UniformJump(bad)
        with pytest.raises(ValueError, match="nonzero"):
            ShiftJump(0.0)


class TestSpecValidation:
    def test_drift_must_be_named(self):
        field = lambda x: -np.tanh(np.asarray(x, dtype=float))
        with pytest.raises(TypeError, match="drift must be a Drift"):
            PdmpSpec(field, const_intensity(0.0), UniformJump(1.0))
        drift = Drift("neg_tanh")
        assert PdmpSpec(drift, const_intensity(0.0), UniformJump(1.0)).drift is drift

    def test_parts_must_be_typed(self):
        drift = Drift("zero")
        with pytest.raises(TypeError, match="intensity must be an Intensity"):
            PdmpSpec(drift, lambda x: np.full_like(np.asarray(x, float), 0.5), ShiftJump(0.5))
        with pytest.raises(TypeError, match="kernel must be UniformJump or ShiftJump, not object"):
            PdmpSpec(drift, const_intensity(0.5), object())

    def test_bounds_come_from_the_parts(self):
        spec = PdmpSpec(Drift("const", -0.3), Intensity([0.0, 1.0], [0.7, 0.1]), ShiftJump(-0.25))
        assert (spec.drift_bound, spec.intensity_bound, spec.jump_bound) == (0.3, 0.7, 0.25)

    def test_declared_bounds_must_be_finite(self):
        # every part rejects a non-finite value, so no spec carries a
        # non-finite bound
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                Drift("const", bad)
            with pytest.raises(ValueError, match="finite"):
                Intensity([0.0], [bad])
            with pytest.raises(ValueError, match="finite"):
                UniformJump(bad)
            with pytest.raises(ValueError, match="finite"):
                ShiftJump(bad)

    def test_from_dict_named_forms(self):
        spec = PdmpSpec.from_dict(
            {
                "drift": {"name": "const", "c": -0.3},
                "intensity": {"const": 0.7},
                "kernel": {"name": "shift", "d": 0.25},
            }
        )
        assert spec.drift_bound == 0.3
        assert spec.intensity_bound == 0.7
        assert spec.jump_bound == 0.25
        assert flow(spec, 1.0, 2.0) == pytest.approx(0.4, abs=1e-12)

    def test_from_dict_tabulated_intensity(self):
        spec = PdmpSpec.from_dict(
            {
                "drift": {"name": "zero"},
                "intensity": {"x": [-1.0, 1.0], "val": [0.2, 0.6]},
                "kernel": {"name": "uniform_pm", "m": 0.5},
            }
        )
        assert spec.intensity_bound == 0.6
        assert float(spec.intensity(0.0)) == pytest.approx(0.4)
        with pytest.raises(ValueError, match="increasing"):
            PdmpSpec.from_dict(
                {
                    "drift": {"name": "zero"},
                    "intensity": {"x": [1.0, -1.0], "val": [0.2, 0.6]},
                    "kernel": {"name": "uniform_pm", "m": 0.5},
                }
            )

    def test_from_dict_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            PdmpSpec.from_dict(
                {
                    "drift": {"name": "zero"},
                    "intensity": {"const": 0.1},
                    "kernel": {"name": "cauchy"},
                }
            )
        with pytest.raises(ValueError):
            PdmpSpec.from_dict(
                {
                    "drift": {"name": "zero"},
                    "intensity": {"const": -0.1},
                    "kernel": {"name": "shift", "d": 0.1},
                }
            )

    @pytest.mark.parametrize(
        "section, value, match",
        [
            ("kernel", {"name": "shift", "d": 0.5, "m": 1.0}, "unknown key m"),
            ("kernel", {"name": "uniform_pm", "m": 0.5, "d": 0.1}, "unknown key d"),
            ("drift", {"name": "const", "c": 0.5, "v": 1.0}, "unknown key v"),
            ("drift", {"name": "neg_tanh", "c": 0.5}, "takes no c"),
            ("intensity", {"const": 0.5, "x": [0.0]}, "unknown key x"),
            ("intensity", {"x": [0.0], "val": [0.5], "bound": 1.0}, "unknown key bound"),
            ("intensity", {"level": 0.5}, "unknown key level"),
            ("intensity", 0.5, "must be a mapping"),
        ],
    )
    def test_from_dict_rejects_keys_it_does_not_read(self, section, value, match):
        cfg = {
            "drift": {"name": "zero"},
            "intensity": {"const": 0.5},
            "kernel": {"name": "shift", "d": 0.5},
        }
        cfg[section] = value
        with pytest.raises(ValueError, match=match):
            PdmpSpec.from_dict(cfg)


class TestFlow:
    def test_zero_field_identity(self):
        spec = PdmpSpec(Drift("zero"), const_intensity(0.0), UniformJump(1.0))
        assert flow(spec, 2.5, 3.0) == 2.5
        out = flow(spec, np.array([-1.0, 0.5]), 7.0)
        assert np.array_equal(out, [-1.0, 0.5])

    def test_constant_field_translation(self):
        spec = PdmpSpec(Drift("const", 0.4), const_intensity(0.0), UniformJump(1.0))
        assert flow(spec, 1.0, 2.0) == pytest.approx(1.8, abs=1e-12)
        assert flow(spec, 1.0, -2.0) == pytest.approx(0.2, abs=1e-12)

    def test_tanh_field_frozen_oracles(self):
        value = flow(tanh_spec(), 1.0, 1.0)
        # the Richardson pair of the frozen Euler runs carries the oracle
        # to O(h^2); the raw run keeps its own first-order bias
        assert value == pytest.approx(EULER_RICHARDSON, abs=1e-8)
        assert value == pytest.approx(TANH_FLOW_CLOSED, abs=1e-9)
        assert value == pytest.approx(EULER_1E6, abs=2e-7)
        assert abs(value - EULER_1E6) > 1e-8

    def test_array_horizons_match_scalar_calls(self):
        spec = tanh_spec()
        xs = np.array([0.5, 1.0, -0.7])
        ss = np.array([0.3, 0.9, 0.6])
        batch = flow(spec, xs, ss)
        single = [flow(spec, float(x), float(s)) for x, s in zip(xs, ss)]
        assert np.allclose(batch, single, atol=1e-10)

    def test_zero_horizon_returns_copy(self):
        spec = tanh_spec()
        xs = np.array([1.0, 2.0])
        out = flow(spec, xs, 0.0)
        assert np.array_equal(out, xs)
        assert out is not xs

    def test_reverse_time_round_trip(self):
        spec = tanh_spec()
        fwd = flow(spec, 1.3, 0.8)
        assert flow(spec, fwd, -0.8) == pytest.approx(1.3, abs=1e-9)

    @pytest.mark.parametrize("name", ["zero", "const", "neg_tanh"])
    def test_closed_forms_match_rk4_oracle(self, name):
        spec = PdmpSpec(
            Drift(name, -0.7 if name == "const" else 0.0), const_intensity(0.0), UniformJump(1.0)
        )
        xs = np.linspace(-5.0, 5.0, 41)
        for s in np.linspace(-1.0, 2.0, 7):
            assert np.max(np.abs(flow(spec, xs, s) - flow_rk4(spec, xs, s))) <= 1e-9
            for x in xs[::8]:
                assert flow(spec, float(x), float(s)) == pytest.approx(
                    flow_rk4(spec, float(x), float(s)), abs=1e-9
                )
        per_state = np.random.default_rng(3).uniform(-1.0, 2.0, xs.size)
        assert np.max(np.abs(flow(spec, xs, per_state) - flow_rk4(spec, xs, per_state))) <= 1e-9

    def test_tanh_flow_far_from_the_origin(self):
        spec = tanh_spec()
        xs = np.array([800.0, -800.0, 1e6, -1e6])
        for s in (-1.0, 0.5, 2.0):
            out = flow(spec, xs, s)
            assert np.all(np.isfinite(out))
            np.testing.assert_allclose(out, xs - s * np.sign(xs), rtol=1e-15)
        back = flow(spec, 700.0, -5.0)
        assert math.isfinite(back)
        assert back == pytest.approx(705.0, rel=1e-15)

    @settings(max_examples=10, deadline=None)
    @given(
        x=st.floats(-2.0, 2.0),
        s=st.floats(0.05, 1.0),
        r=st.floats(0.05, 1.0),
    )
    def test_semigroup_property(self, x, s, r):
        spec = tanh_spec()
        once = flow(spec, x, s + r)
        twice = flow(spec, flow(spec, x, s), r)
        assert once == pytest.approx(twice, abs=1e-8)


class TestMuGenerator:
    def test_total_intensity_is_mu_plus_lambda(self):
        spec = tanh_spec(lam=0.5)
        grid = np.linspace(-3.0, 3.0, 121)
        appr = mu_generator(spec, 8.0, grid)
        assert np.allclose(appr.raw_intensity, 8.5, atol=1e-12)

    def test_rows_stochastic_and_self_free(self):
        spec = tanh_spec(lam=0.5, kernel=ShiftJump(0.5))
        grid = np.linspace(-3.0, 3.0, 121)
        appr = mu_generator(spec, 8.0, grid)
        sums = appr.generator.kernel.apply(np.ones(grid.size))
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        diag = appr.generator.kernel.diagonal()
        active = appr.generator.lam > 0
        assert np.all(diag[active] == 0.0)

    def test_generator_mean_drift_matches_flow_target(self):
        # the two-node snap preserves the generator's mean displacement
        spec = tanh_spec()
        grid = np.linspace(-2.0, 2.0, 81)
        mu = 8.0
        appr = mu_generator(spec, mu, grid)
        drift_vec = apply_generator(appr.generator, grid)
        expected = mu * (appr.flow_targets - grid)
        assert np.allclose(drift_vec, expected, atol=1e-9)

    def test_zero_drift_reduces_to_pure_jump_chain(self):
        spec = PdmpSpec(Drift("zero"), const_intensity(0.5), ShiftJump(0.5))
        grid = np.linspace(-2.0, 2.0, 81)
        appr = mu_generator(spec, 16.0, grid)
        # fake flow moves to x itself are struck out by the normalization
        assert np.allclose(appr.generator.lam[:-10], 0.5, atol=1e-9)
        assert np.allclose(appr.self_mass[:-10], 16.0 / 16.5, atol=1e-12)
        row = appr.generator.kernel.toarray()[40]
        target = 40 + 10  # shift by 0.5 on a 0.05-step grid
        assert row[target] == pytest.approx(1.0, abs=1e-9)

    def test_flow_target_coverage_error(self):
        spec = PdmpSpec(Drift("const", 1.0), const_intensity(0.0), UniformJump(1.0))
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(CoverageError):
            mu_generator(spec, 1.0, grid)

    def test_boundary_jump_mass_is_reported_not_fatal(self):
        spec = PdmpSpec(Drift("zero"), const_intensity(1.0), UniformJump(1.0))
        grid = np.linspace(-1.0, 1.0, 41)
        appr = mu_generator(spec, 4.0, grid)
        assert appr.boundary_jump_leak > 0.1
        sums = appr.generator.kernel.apply(np.ones(grid.size))
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_argument_validation(self):
        spec = tanh_spec()
        grid = np.linspace(-1.0, 1.0, 21)
        with pytest.raises(ValueError):
            mu_generator(spec, 0.5, grid)
        with pytest.raises(ValueError):
            mu_generator(spec, 2.0, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            mu_generator(spec, 2.0, np.array([0.0]))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="mu must be finite and at least 1"):
                mu_generator(spec, bad, grid)

    def test_banded_build_matches_row_loop(self):
        zero = Drift("zero")
        tabulated = PdmpSpec.from_dict(
            {
                "drift": {"name": "neg_tanh"},
                "intensity": {"x": [-3.0, -1.0, 0.0, 1.0], "val": [0.0, 0.0, 1.0, 0.5]},
                "kernel": {"name": "uniform_pm", "m": 0.4},
            }
        )
        uniform = np.linspace(-3.0, 3.0, 121)
        small = np.linspace(-1.0, 1.0, 41)
        cases = {
            "shift +": (tanh_spec(0.5, ShiftJump(0.5)), 8.0, uniform),
            "shift -": (tanh_spec(0.5, ShiftJump(-0.35)), 8.0, uniform),
            "uniform narrow": (tanh_spec(0.5, UniformJump(0.4)), 8.0, uniform),
            "uniform wide": (tanh_spec(0.5, UniformJump(3.0)), 4.0, small),
            "tabulated with zeros": (tabulated, 8.0, uniform),
            "non-uniform grid": (
                tanh_spec(0.5, UniformJump(0.4)),
                16.0,
                np.sinh(np.linspace(-2.0, 2.0, 151)),
            ),
            "two nodes": (tanh_spec(0.5, UniformJump(1.0)), 8.0, np.array([-0.5, 0.5])),
            "all frozen": (
                PdmpSpec(zero, const_intensity(0.0), ShiftJump(0.5)), 4.0, uniform
            ),
            "boundary leak": (
                PdmpSpec(zero, const_intensity(1.0), UniformJump(1.0)),
                4.0,
                small,
            ),
        }
        for name, (spec, mu, grid) in cases.items():
            got = mu_generator(spec, mu, grid)
            want = mu_generator_rowloop(spec, mu, grid)
            k_got, k_want = got.generator.kernel, want.generator.kernel
            pairs = {
                "indptr": (k_got.indptr, k_want.indptr),
                "indices": (k_got.indices, k_want.indices),
                "data": (k_got.data, k_want.data),
                "lam": (got.generator.lam, want.generator.lam),
                "self_mass": (got.self_mass, want.self_mass),
                "raw_intensity": (got.raw_intensity, want.raw_intensity),
                "flow_targets": (got.flow_targets, want.flow_targets),
            }
            for field, (a, b) in pairs.items():
                assert a.dtype == b.dtype, (name, field)
                np.testing.assert_array_equal(a, b, err_msg=f"{name}: {field}")
            assert got.boundary_jump_leak == want.boundary_jump_leak, name
        frozen = mu_generator(*cases["all frozen"])
        assert np.all(frozen.generator.lam == 0.0)
        assert np.all(frozen.generator.kernel.diagonal() == 1.0)

    def test_jump_mass_beyond_declared_bound_fails_closed(self):
        class Overreaching(ShiftJump):
            """Samples a shift of 0.5, but its CDF moves the mass twice as far."""

            def cdf(self, x, y):
                return (np.asarray(y, dtype=float) >= x + 1.0).astype(float)

        spec = PdmpSpec(Drift("zero"), const_intensity(0.5), Overreaching(0.5))
        assert spec.jump_bound == 0.5
        grid = np.linspace(-2.0, 2.0, 81)
        # the full-grid row loop keeps the out-of-bound mass without a word
        mu_generator_rowloop(spec, 8.0, grid)
        with pytest.raises(ValueError, match=r"node 0 \(x = -2\.0\)"):
            mu_generator(spec, 8.0, grid)

    @pytest.mark.parametrize("kernel", [ShiftJump(0.5), ShiftJump(-0.3), UniformJump(0.4)])
    def test_support_band_matches_symmetric_band(self, kernel, monkeypatch):
        # shifts whose targets leave the grid at either end, and a uniform
        # law: reading each law on its own support changes no kernel entry
        spec = tanh_spec(0.5, kernel)
        grid = np.linspace(-2.0, 2.0, 161)
        nodes = np.arange(grid.size)
        got = pdmp._jump_cells(kernel, grid, nodes)
        want = jump_cells_symmetric(kernel, grid, nodes, kernel.bound)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        banded = mu_generator(spec, 8.0, grid).generator.kernel
        monkeypatch.setattr(
            pdmp, "_jump_cells", lambda k, g, n: jump_cells_symmetric(k, g, n, k.bound)
        )
        symmetric = mu_generator(spec, 8.0, grid).generator.kernel
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(banded, name), getattr(symmetric, name))


class TestEmbedAndCellLaw:
    def test_embed_preserves_mean_and_mass(self):
        grid = np.linspace(0.0, 1.0, 11)
        m = DiscreteMeasure([0.13, 0.77], [0.4, 0.6])
        emb = embed_on_grid(m, grid)
        assert emb.total_mass == pytest.approx(1.0, abs=1e-12)
        mean_in = 0.13 * 0.4 + 0.77 * 0.6
        mean_out = float(np.sum(emb.support * emb.weights))
        assert mean_out == pytest.approx(mean_in, abs=1e-12)
        assert wasserstein(m, emb, 1.0) <= 0.1  # one grid step

    def test_embed_rejects_outside_support(self):
        with pytest.raises(CoverageError):
            embed_on_grid(DiscreteMeasure([2.0], [1.0]), np.linspace(0, 1, 5))

    def test_cell_law_trims_and_validates(self):
        grid = np.linspace(0.0, 1.0, 6)
        masses = np.array([0.0, 0.3, 0.3, 0.4, 0.0, 0.0])
        gm = cell_law(grid, masses)
        assert gm.cdf_values[0] == 0.0
        assert gm.cdf_values[-1] == 1.0
        with pytest.raises(ValueError):
            cell_law(grid, np.array([0.2, 0.0, 0.3, 0.5, 0.0, 0.0]))

    def test_atomize_round_trip_mass(self):
        gm, _ = laplace_smooth(DiscreteMeasure([0.0], [1.0]), 0.5)
        atoms = atomize(gm)
        assert atoms.total_mass == pytest.approx(1.0, abs=1e-9)
        assert float(np.sum(atoms.support * atoms.weights)) == pytest.approx(
            0.0, abs=1e-9
        )


class TestSimulate:
    def test_no_jump_paths_collapse_to_flow_point(self):
        spec = tanh_spec()
        emp = simulate_pdmp(spec, DiscreteMeasure([1.0], [1.0]), 1.0, 64, 3)
        assert emp.support.size == 1
        assert emp.support[0] == pytest.approx(TANH_FLOW_CLOSED, abs=1e-9)
        assert emp.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_drift_shift_matches_lattice_chain(self):
        # V=0 with a fixed shift is a counting chain on a lattice; compare
        # the thinning endpoints with the exact uniformized law
        spec = PdmpSpec(Drift("zero"), const_intensity(0.5), ShiftJump(0.5))
        n_paths = 20000
        emp = simulate_pdmp(spec, DiscreteMeasure([0.0], [1.0]), 2.0, n_paths, 17)
        states = 0.5 * np.arange(26)
        lam = np.full(26, 0.5)
        lam[-1] = 0.0
        kernel = np.zeros((26, 26))
        kernel[np.arange(25), np.arange(1, 26)] = 1.0
        kernel[-1, -1] = 1.0
        gen = JumpGeneratorSpec(states, lam, kernel)
        exact = uniformized_marginal(gen, DiscreteMeasure([0.0], [1.0]), 2.0)
        envelope = (states[-1] - states[0]) * math.sqrt(
            math.log(2.0 / 0.01) / (2.0 * n_paths)
        )
        assert wasserstein(emp, exact, 1.0) <= envelope
        # both simulators read the one seeded stream in the same order
        lattice = simulate_paths(gen, DiscreteMeasure([0.0], [1.0]), 2.0, n_paths, 17)
        assert np.array_equal(lattice.support, emp.support)
        assert np.array_equal(lattice.weights, emp.weights)

    def test_constant_rate_streams_unchanged(self, monkeypatch):
        # the process flows between candidates and keeps the global bound; the
        # chain at a constant intensity has one rate mu + lambda everywhere:
        # both read the stream that thinning at one scalar bound reads
        varying = PdmpSpec(Drift("neg_tanh"), Intensity([-1.0, 1.0], [0.2, 1.5]), ShiftJump(0.5))
        p0 = DiscreteMeasure([0.5, 1.5], [0.25, 0.75])
        runs = [
            (lambda: simulate_pdmp(tanh_spec(lam=1.0), p0, 1.0, 4000, 7), 1.0),
            (lambda: simulate_pdmp(varying, p0, 1.0, 4000, 7), 1.5),
            (lambda: simulate_chain(tanh_spec(lam=1.0), p0, 1.0, 16.0, 4000, 7), 17.0),
        ]
        own = [run() for run, _ in runs]
        for (run, bound), got in zip(runs, own):

            def at_bound(start, cum0, t, rate, *rest, bound=bound, **kw):
                return thinning_at_bound(start, cum0, t, bound, *rest, **kw)

            monkeypatch.setattr(pdmp, "_thinning", at_bound)
            ref = run()
            assert np.array_equal(got.support, ref.support)
            assert np.array_equal(got.weights, ref.weights)

    def test_state_dependent_intensity_matches_lattice_chain(self):
        # zero drift, shift jumps of 0.5 at an intensity rising from 0.5 to 3:
        # a counting chain on the lattice 0.5 k.  The process (candidates at
        # the bound, thinned) and the speed-mu chain (candidates at mu +
        # intensity(x), every one an event) both match its exact law within
        # the DKW radius at alpha 1e-7
        lam_table = Intensity([0.0, 2.0], [0.5, 3.0])
        spec = PdmpSpec(Drift("zero"), lam_table, ShiftJump(0.5))
        states = 0.5 * np.arange(41)
        lam = lam_table(states)
        lam[-1] = 0.0
        kernel = np.zeros((41, 41))
        kernel[np.arange(40), np.arange(1, 41)] = 1.0
        kernel[-1, -1] = 1.0
        gen = JumpGeneratorSpec(states, lam, kernel)
        p0 = DiscreteMeasure([0.0], [1.0])
        exact = uniformized_marginal(gen, p0, 1.5).vector
        n = 20_000
        for emp in (
            simulate_pdmp(spec, p0, 1.5, n, 5),
            simulate_chain(spec, p0, 1.5, 4.0, n, 5),
        ):
            assert cdf_gap(states, exact, emp) <= dkw_radius(n)

    def test_reruns_byte_identical(self):
        spec = tanh_spec(lam=1.0)
        p0 = DiscreteMeasure([0.5], [1.0])
        a = simulate_pdmp(spec, p0, 1.0, 4000, 7)
        b = simulate_pdmp(spec, p0, 1.0, 4000, 7)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.weights, b.weights)
        c = simulate_chain(spec, p0, 1.0, 16.0, 4000, 7)
        d = simulate_chain(spec, p0, 1.0, 16.0, 4000, 7)
        assert np.array_equal(c.support, d.support)
        assert np.array_equal(c.weights, d.weights)

    def test_chain_approaches_process_law(self):
        spec = tanh_spec(lam=1.0)
        p0 = DiscreteMeasure([0.3], [1.0])
        ref = simulate_pdmp(spec, p0, 1.0, 8000, 11)
        coarse = simulate_chain(spec, p0, 1.0, 4.0, 8000, 11)
        fine = simulate_chain(spec, p0, 1.0, 64.0, 8000, 11)
        assert wasserstein(fine, ref, 1.0) < wasserstein(coarse, ref, 1.0)

    def test_displacement_bound_asserted_per_path(self):
        # jump_bound + drift reach cap every sampled endpoint
        spec = tanh_spec(lam=1.0)
        emp = simulate_pdmp(spec, DiscreteMeasure([0.0], [1.0]), 1.0, 2000, 23)
        n_max = 1.0 * 1.0 + spec.jump_bound * 30  # 30 jumps at t=1 is off-scale
        assert np.max(np.abs(emp.support)) <= n_max

    def test_argument_validation(self):
        spec = tanh_spec(lam=1.0)
        p0 = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(TypeError):
            simulate_pdmp(spec, "p0", 1.0, 10, 0)
        with pytest.raises(ValueError):
            simulate_pdmp(spec, p0, -1.0, 10, 0)
        with pytest.raises(ValueError):
            simulate_pdmp(spec, p0, 1.0, 0, 0)
        with pytest.raises(ValueError):
            simulate_chain(spec, p0, 1.0, 0.5, 10, 0)
        with pytest.raises(ValueError):
            simulate_chain(spec, p0, 1.0, math.inf, 10, 0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^t must be finite"):
                simulate_pdmp(spec, p0, bad, 10, 0)
            with pytest.raises(ValueError, match="^t must be finite"):
                simulate_chain(spec, p0, bad, 4.0, 10, 0)


class TestPropagationConstants:
    def test_frozen_point_example(self):
        # V=0, M=1, intensity bound 1, q=1, t=1
        spec = PdmpSpec(Drift("zero"), const_intensity(1.0), UniformJump(1.0))
        moment_bound, c_t = propagation_constants(spec, 1.0, 1.0, 1.0, 1.0, 2.0)
        assert moment_bound == pytest.approx(math.exp(math.e - 2.0), abs=1e-14)
        assert c_t == pytest.approx(math.exp(math.e - math.exp(-1.0)), rel=1e-12)

    def test_short_horizon_tail_constant_limit(self):
        spec = PdmpSpec(Drift("zero"), const_intensity(1.0), UniformJump(1.0))
        _, c_t = propagation_constants(spec, 1.5, 2.0, 1e-9, 1.0, 1e9)
        assert c_t == pytest.approx(1.5**2, rel=1e-6)

    def test_monotone_in_horizon(self):
        spec = tanh_spec(lam=0.5)
        values = [
            propagation_constants(spec, 1.0, 1.0, t, 2.0, math.inf)
            for t in (0.5, 1.0, 2.0)
        ]
        moments = [v[0] for v in values]
        tails = [v[1] for v in values]
        assert moments == sorted(moments)
        assert tails == sorted(tails)

    def test_domain_errors(self):
        spec = tanh_spec(lam=0.5)
        with pytest.raises(ValueError):
            propagation_constants(spec, 0.5, 1.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            propagation_constants(spec, 1.0, -1.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            propagation_constants(spec, 1.0, 1.0, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("slot", range(5))
    def test_nan_arguments_rejected(self, slot):
        # a NaN c0 would make c_t NaN, and every tail probe would pass against it
        args = [1.0, 1.0, 1.0, 1.0, 2.0]
        args[slot] = math.nan
        with pytest.raises(ValueError):
            propagation_constants(tanh_spec(lam=0.5), *args)

    def test_simulation_audit_passes(self):
        spec = tanh_spec(lam=1.0)
        report = propagation_check(spec, 1.0, 1.0, 1.0, 1.0, math.inf, 4000, 5)
        assert isinstance(report, PropagationAudit)
        assert report.moment_ok
        assert report.tails_ok
        assert report.moment_estimate <= report.moment_bound
        assert report.worst_tail_ratio <= 1.0
        # the audit checks against exactly the closed-form constants
        constants = propagation_constants(spec, 1.0, 1.0, 1.0, 1.0, math.inf)
        assert (report.moment_bound, report.c_t) == constants
        assert report.moment_envelope == report.moment_bound + 4.0 * report.moment_sigma
        assert report.initial_tail_constants == TailConstants(1.0, 1.0)

    def test_finite_mu_audit(self):
        spec = tanh_spec(lam=0.5)
        report = propagation_check(spec, 1.0, 1.0, 1.0, 2.0, 16.0, 4000, 9)
        assert report.moment_ok
        assert report.tails_ok

    @pytest.mark.parametrize("mu, n_paths", [(math.inf, 4000), (16.0, 4000), (math.inf, 60)])
    @pytest.mark.parametrize("qs", [[2.0], [0.5, 1.0, 3.0]])
    def test_one_simulation_pair_for_every_q(self, mu, n_paths, qs, monkeypatch):
        # field for field and bit for bit: the per-probe oracle with the
        # per-q moment recipe, and one propagation_check call per q; 60 paths
        # put the low quantiles' CDF probes under the 25-path floor
        spec, start = tanh_spec(lam=0.5), DiscreteMeasure([0.0], [1.0])
        runs = []
        real = pdmp._thinning

        def counted(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pdmp, "_thinning", counted)
        audits = _propagation_checks(spec, 1.2, 2.0, 1.0, qs, mu, n_paths, 9)
        assert len(runs) == 2 and len(audits) == len(qs)
        monkeypatch.undo()

        def simulate(p0, seed):
            if math.isinf(mu):
                return simulate_pdmp(spec, p0, 1.0, n_paths, seed)
            return simulate_chain(spec, p0, 1.0, mu, n_paths, seed)

        emp = simulate(start, 9)
        smooth, tail0 = laplace_smooth(start, 0.5)
        emp_s = simulate(atomize(smooth), 10)
        cum = np.cumsum(emp_s.weights)
        under_floor = cum[np.searchsorted(cum, 0.05 * cum[-1])] < 25.0 / n_paths
        assert under_floor == (n_paths == 60)
        for q, audit in zip(qs, audits):
            moment_bound, c_t = propagation_constants(spec, 1.2, 2.0, 1.0, q, mu)
            disp = np.abs(emp.support) ** q
            mean = float(np.sum(disp * emp.weights))
            second = float(np.sum(disp**2 * emp.weights))
            sigma = math.sqrt(max(second - mean**2, 0.0) / n_paths)
            worst = tail_ratio_per_probe(emp_s, c_t, 2.0, n_paths)
            want = (moment_bound, c_t, mean, sigma, moment_bound + 4.0 * sigma, worst, tail0)
            assert dataclasses.astuple(audit) == dataclasses.astuple(PropagationAudit(*want))
            assert audit == propagation_check(spec, 1.2, 2.0, 1.0, q, mu, n_paths, 9)

    def test_audit_is_frozen_and_flags_follow_values(self):
        audit = PropagationAudit(1.0, 2.0, 1.5, 0.1, 1.4, 1.2, TailConstants(1.0, 1.0))
        assert not audit.moment_ok
        assert not audit.tails_ok
        with pytest.raises(dataclasses.FrozenInstanceError):
            audit.worst_tail_ratio = 0.5


@pytest.fixture(scope="module")
def study():
    spec = tanh_spec(lam=0.3, kernel=ShiftJump(0.5))
    p0X = DiscreteMeasure(np.linspace(0.5, 1.5, 11), np.full(11, 1 / 11))
    p0Y = DiscreteMeasure(np.linspace(-1.0, -0.4, 7), np.full(7, 1 / 7))
    return mu_convergence_study(
        spec,
        spec,
        p0X,
        p0Y,
        2.0,
        1.0,
        [4.0, 8.0, 16.0],
        grid_nodes=513,
        identity_steps=80,
    )


class TestConvergenceStudy:
    def test_identity_residuals_small(self, study):
        assert np.all(study.identity_residuals < 1e-3)
        assert np.all(np.isfinite(study.identity_residuals))

    def test_cauchy_proxy_strictly_decreasing(self, study):
        assert study.cauchy_decreasing_x
        assert study.cauchy_decreasing_y
        assert study.reference_mu == 32.0

    def test_potential_gap_decreasing(self, study):
        assert study.potential_gap.size == 2
        assert study.potential_gap_decreasing

    def test_embedding_error_below_grid_step(self, study):
        assert study.embed_error_x <= study.grid_step
        assert study.embed_error_y <= study.grid_step

    def test_csv_layout(self, study):
        buf = io.StringIO()
        study.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "mu,identity_residual,cauchy_x,cauchy_y,potential_gap"
        assert len(lines) == 4
        last = [float(v) for v in lines[3].split(",")]
        assert last[0] == 16.0
        assert math.isnan(last[4])

    def test_shared_spec_builds_each_chain_once(self, monkeypatch):
        # one spec on both sides: one chain per speed serves both, and the
        # report equals, array by array, the one from two equal specs
        p0X = DiscreteMeasure([0.5, 1.0, 1.5], [0.4, 0.3, 0.3])
        p0Y = DiscreteMeasure([-1.0, -0.4], [0.5, 0.5])
        built = []
        real = pdmp.mu_generator

        def counted(spec, mu, grid):
            built.append(float(mu))
            return real(spec, mu, grid)

        monkeypatch.setattr(pdmp, "mu_generator", counted)

        def run(specX, specY):
            built.clear()
            return mu_convergence_study(
                specX, specY, p0X, p0Y, 2.0, 1.0, [4.0, 8.0],
                grid_nodes=257, identity_steps=20,
            )

        def spec():
            return tanh_spec(lam=0.5, kernel=ShiftJump(0.5))

        shared = spec()
        one = run(shared, shared)
        assert built == [16.0, 4.0, 8.0]
        two = run(spec(), spec())
        assert built == [16.0, 16.0, 4.0, 4.0, 8.0, 8.0]
        for f in dataclasses.fields(one):
            a, b = getattr(one, f.name), getattr(two, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    def test_time_t_laws_come_from_the_identity_paths(self, monkeypatch):
        # one clock per speed (the identity's two sides tick one chain) plus
        # two for the reference chain; each Cauchy distance reads the
        # identity's last node
        spec = tanh_spec(lam=0.5, kernel=ShiftJump(0.5))
        p0X = DiscreteMeasure([0.5, 1.0, 1.5], [0.4, 0.3, 0.3])
        p0Y = DiscreteMeasure([-1.0, -0.4], [0.5, 0.5])
        ticked = []
        real = jump_process._clock_sums

        def counted(tick, u, windows):
            ticked.append(len(windows))
            return real(tick, u, windows)

        monkeypatch.setattr(jump_process, "_clock_sums", counted)
        study = mu_convergence_study(
            spec, spec, p0X, p0Y, 2.0, 1.0, [4.0, 8.0], grid_nodes=257, identity_steps=20
        )
        assert ticked == [1, 1, 22, 22]
        monkeypatch.undo()
        e0X = pdmp.embed_on_grid(p0X, study.grid)
        e0Y = pdmp.embed_on_grid(p0Y, study.grid)
        ref = pdmp.mu_generator(spec, study.reference_mu, study.grid).generator
        gen = pdmp.mu_generator(spec, 8.0, study.grid).generator
        rep = verify_identity(gen, gen, e0X, e0Y, 2.0, 1.0, 20)
        ref_x, ref_y = (uniformized_marginal(ref, e0, 1.0) for e0 in (e0X, e0Y))
        assert study.cauchy_x[-1] == wasserstein(rep.final_x, ref_x, 2.0)
        assert study.cauchy_y[-1] == wasserstein(rep.final_y, ref_y, 2.0)

    def test_potential_gap_reads_the_identity_pair(self, monkeypatch):
        # each speed's pair is the identity's last-node pair: no second
        # staircase, and the gaps that potentials() of the last laws give
        spec = tanh_spec(lam=0.5, kernel=ShiftJump(0.5))
        p0X = DiscreteMeasure([0.5, 1.0, 1.5], [0.4, 0.3, 0.3])
        p0Y = DiscreteMeasure([-1.0, -0.4], [0.5, 0.5])
        pairs = []
        real = transport._staircase

        def counted(*args, **kwargs):
            pairs.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(transport, "_staircase", counted)
        mus = [4.0, 8.0, 16.0]
        study = mu_convergence_study(
            spec, spec, p0X, p0Y, 2.0, 1.0, mus, grid_nodes=257, identity_steps=20
        )
        assert pairs == []
        monkeypatch.undo()
        e0X = pdmp.embed_on_grid(p0X, study.grid)
        e0Y = pdmp.embed_on_grid(p0Y, study.grid)
        ref = pdmp.mu_generator(spec, study.reference_mu, study.grid).generator
        ref_x = uniformized_marginal(ref, e0X, 1.0)
        keep = (study.grid >= quantile(ref_x, 0.005)) & (study.grid <= quantile(ref_x, 0.995))
        applied = []
        for mu in mus:
            gen = pdmp.mu_generator(spec, mu, study.grid).generator
            rep = verify_identity(gen, gen, e0X, e0Y, 2.0, 1.0, 20)
            pair = potentials(rep.final_x, rep.final_y, 2.0)
            applied.append(apply_generator(gen, pair.psi_at(study.grid)))
        gaps = [np.max(np.abs((b - a)[keep])) for a, b in zip(applied, applied[1:])]
        assert np.array_equal(study.potential_gap, gaps)

    def test_argument_validation(self):
        spec = tanh_spec(lam=0.3, kernel=ShiftJump(0.5))
        p0 = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(ValueError):
            mu_convergence_study(spec, spec, p0, p0, 1.0, 1.0, [4.0])
        with pytest.raises(ValueError):
            mu_convergence_study(spec, spec, p0, p0, 2.0, 0.0, [4.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^t must be finite"):
                mu_convergence_study(spec, spec, p0, p0, 2.0, bad, [4.0])
        with pytest.raises(ValueError):
            mu_convergence_study(spec, spec, p0, p0, 2.0, 1.0, [8.0, 4.0])


class TestFlowPushforwardDecay:
    def test_no_jump_marginal_approaches_pushforward(self):
        # counting noise averages out across a spread initial law, leaving
        # the O(1/mu) bias plus the grid step
        spec = tanh_spec()
        atoms = np.linspace(0.5, 1.5, 21)
        p0 = DiscreteMeasure(atoms, np.full(21, 1 / 21))
        push = DiscreteMeasure(flow(spec, atoms, 1.0), np.full(21, 1 / 21))
        grid = np.linspace(-2.0, 3.0, 1025)
        step = grid[1] - grid[0]
        e0 = embed_on_grid(p0, grid)
        errors = []
        for mu in (8.0, 16.0, 32.0):
            appr = mu_generator(spec, mu, grid)
            marg = uniformized_marginal(appr.generator, e0, 1.0)
            w1 = wasserstein(marg, push, 1.0)
            assert w1 <= 2.0 / mu + step
            errors.append(w1)
        assert errors[2] < errors[0]
