"""Acceptance gate: every headline guarantee at its stated tolerance.

Each test certifies one criterion end to end on fixed instances and prints a
single PASS/FAIL line with the measured margins, bypassing output capture so
the verdicts always reach the terminal.
"""

import io
import math
import time

import numpy as np
import pytest

from oracles import lp_coupling_cost
from test_jump_process import poisson_counter, telegraph, three_state
from test_pdmp import const_intensity, tanh_spec
from test_transport import (
    exp_envelope,
    exp_left_tail,
    pareto_left_tail,
    random_atoms,
    random_grid_measure,
)
from wflow import (
    DiscreteMeasure,
    JumpGeneratorSpec,
    ShiftJump,
    contraction_report,
    duality_gap,
    embed_on_grid,
    flow,
    kernel_moment_bound,
    kernel_moment_constant,
    kernel_moment_constant_limit,
    laplace_smooth,
    layer_inequality_report,
    layer_stack,
    measure_to_csv,
    mm_infty,
    moment_bound,
    moment_growth_bound,
    mu_convergence_study,
    mu_generator,
    potential_moment_bound,
    potentials,
    propagation_check,
    simulate_paths,
    translated_map_bound,
    uniformized_marginal,
    verify_identity,
    wasserstein,
    wasserstein_power,
)


def certify(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {num:02d} {verdict}: {name} ({detail})", flush=True)
    assert ok, f"criterion {num}: {name}: {detail}"


def dirac(x):
    return DiscreteMeasure([float(x)], [1.0])


def random_dense_generator(rng, n_states=20):
    """Fully connected random-rate chain on sorted random states."""
    states = np.sort(rng.uniform(-5.0, 5.0, n_states))
    while np.any(np.diff(states) <= 1e-3):
        states = np.sort(rng.uniform(-5.0, 5.0, n_states))
    lam = rng.uniform(0.2, 3.0, n_states)
    kernel = np.zeros((n_states, n_states))
    for i in range(n_states):
        row = rng.dirichlet(np.ones(n_states - 1))
        kernel[i, :i] = row[:i]
        kernel[i, i + 1 :] = row[i:]
    return JumpGeneratorSpec(states, lam, kernel)


def relative_excess(value, bound):
    return max(0.0, (value - bound) / max(1.0, abs(bound)))


def test_criterion_01_evolution_identity(capsys):
    start = time.perf_counter()
    bd = mm_infty(1.0, 1.0, 40)
    gen = bd.to_generator()
    fine = verify_identity(gen, gen, dirac(3), dirac(7), 2.0, 1.0, 400)
    coarse = verify_identity(gen, gen, dirac(3), dirac(7), 2.0, 1.0, 200)
    elapsed = time.perf_counter() - start
    ok = fine.max_residual <= 1e-9 and coarse.max_residual <= 1e-9 and elapsed < 30.0
    certify(
        capsys,
        1,
        "evolution identity",
        ok,
        f"pointwise residual {fine.max_residual:.3e} (400 steps), "
        f"{coarse.max_residual:.3e} (200 steps) <= 1e-09 at t > 0, "
        f"worst trapezoid panel {np.max(fine.residual):.3e}, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_w1_contraction(capsys):
    start = time.perf_counter()
    bd = mm_infty(1.0, 1.0, 40)
    report = contraction_report(bd, dirac(3), dirac(7), 1.0, 1.0, 199)
    elapsed = time.perf_counter() - start
    ok = (
        report.time_grid.size == 200
        and report.kappa_truncated > 0.0
        and report.max_violation <= 1e-8
        and elapsed < 10.0
    )
    certify(
        capsys,
        2,
        "exponential W1 contraction",
        ok,
        f"max violation {report.max_violation:.3e} <= 1e-08 on "
        f"{report.time_grid.size} nodes, rate {report.kappa_truncated:.3f}, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_03_power_cost_closed_bound(capsys):
    bd = mm_infty(1.0, 1.0, 40)
    worst = 0.0
    for rho in (1.5, 2.0):
        report = contraction_report(bd, dirac(3), dirac(7), rho, 1.0, 199)
        worst = max(worst, report.max_violation)
    ok = worst <= 1e-8
    certify(
        capsys,
        3,
        "closed contraction bound for rho in (1, 2]",
        ok,
        f"max violation {worst:.3e} <= 1e-08",
    )


def test_criterion_04_layer_inequality_suite(capsys):
    rng = np.random.default_rng(2024)
    gen = random_dense_generator(rng)
    p0 = DiscreteMeasure(gen.states[[2, 9, 17]], [0.3, 0.5, 0.2])
    n_max = 15
    worst = 0.0
    for s, t in ((0.3, 0.8), (0.8, 0.8), (1.2, 0.6)):
        worst = max(worst, layer_inequality_report(gen, p0, s, t, n_max).max_violation)
    stack = layer_stack(gen, p0, 0.8, n_max)
    for n in range(n_max + 1):
        mass = float(np.sum(stack.q_chain[n]))
        worst = max(worst, relative_excess(mass, gen.lambda_bar**n))
    for f in (np.abs(gen.states) + 0.3, gen.states**2):
        for eta in (0.5, 1.0):
            for t in (0.25, 1.0):
                res = kernel_moment_bound(gen, p0, t, f, eta)
                worst = max(worst, relative_excess(res.lhs, res.rhs))
    lb = gen.lambda_bar
    limit_gap = 0.0
    for eta in (0.5, 1.0):
        lim = kernel_moment_constant_limit(lb, eta)
        diffs = [abs(kernel_moment_constant(lb, eta, t) - lim) for t in (1e-2, 1e-5, 1e-8)]
        assert diffs[0] > diffs[1] > diffs[2]
        limit_gap = max(limit_gap, diffs[2] / lim)
    ok = worst <= 1e-10 and limit_gap <= 1e-6
    certify(
        capsys,
        4,
        "layer sandwich, equivalence, mass, and kernel bounds",
        ok,
        f"max violation {worst:.3e} <= 1e-10, constant limit gap {limit_gap:.1e}",
    )


def test_criterion_05_potential_and_translated_map_bounds(capsys):
    rng = np.random.default_rng(515)
    potential_checks = 0
    for i in range(100):
        if i % 2 == 0:
            m1, m2 = random_atoms(rng, max_atoms=20), random_atoms(rng, max_atoms=20)
        else:
            m1, m2 = random_grid_measure(rng), random_grid_measure(rng)
        rho = (1.5, 2.0, 3.0)[i % 3]
        eps = (0.0, 0.5, 1.0)[i % 3]
        lhs, rhs = potential_moment_bound(m1, m2, rho, eps)
        assert lhs <= rhs * (1.0 + 1e-12), f"potential bound instance {i}"
        potential_checks += 1
    map_checks = 0
    for i in range(100):
        y = (0.1, 0.5, 1.0)[i % 3]
        q = (1.0, 1.5, 2.0, 3.0)[i % 4]
        delta = (0.0, 1.0, np.inf)[i % 3]
        target = random_atoms(rng, max_atoms=8)
        m2, _ = laplace_smooth(target, 0.25 + 0.5 * rng.random())
        if i % 2 == 0:
            lam = 0.5 + 2.0 * rng.random()
            m1 = exp_left_tail(lam)
            phi = exp_envelope(lam, y, 4000)
        else:
            alpha = 2.2 + 1.8 * rng.random()
            m1 = pareto_left_tail(alpha)
            u_nodes = np.linspace(1e-6, 1 - 1e-6, 101)
            phi = (u_nodes, np.full_like(u_nodes, (1.0 + y) ** alpha - 1.0))
        res = translated_map_bound(m1, m2, y, q, phi, delta)
        assert res.lhs <= res.rhs, f"translated map instance {i}"
        assert res.lhs <= res.rhs_bounded_below, f"bounded-below instance {i}"
        map_checks += 1
    ok = potential_checks == 100 and map_checks == 100
    certify(
        capsys,
        5,
        "potential moment and translated map bounds",
        ok,
        f"{potential_checks} + {map_checks} randomized instances, zero violations",
    )


def test_criterion_06_transport_oracle_equivalence(capsys):
    rng = np.random.default_rng(606)
    worst_cost = 0.0
    worst_gap = 0.0
    for rho in (1.0, 1.5, 2.0, 3.0):
        for _ in range(15):
            m1 = random_atoms(rng, max_atoms=6)
            m2 = random_atoms(rng, max_atoms=6)
            ref = lp_coupling_cost(m1.support, m1.weights, m2.support, m2.weights, rho)
            cost = wasserstein_power(m1, m2, rho)
            worst_cost = max(worst_cost, abs(cost - ref))
            if rho > 1.0:
                pair = potentials(m1, m2, rho)
                gap = duality_gap(pair, m1, m2)
                worst_gap = max(worst_gap, gap / max(1.0, cost))
    ok = worst_cost <= 1e-9 and worst_gap <= 1e-7
    certify(
        capsys,
        6,
        "transport cost equals the coupling oracle",
        ok,
        f"max cost gap {worst_cost:.2e} <= 1e-09, "
        f"max relative duality gap {worst_gap:.2e} <= 1e-07",
    )


def test_criterion_07_monte_carlo_vs_exact(capsys):
    n_paths = 100_000
    eps = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n_paths))
    margins = []
    for gen, p0, t in (
        (telegraph(1.7, 0.6), dirac(0), 1.0),
        (poisson_counter(40), dirac(0), 2.0),
    ):
        emp = simulate_paths(gen, p0, t, n_paths, seed=77)
        again = simulate_paths(gen, p0, t, n_paths, seed=77)
        np.testing.assert_array_equal(emp.support, again.support)
        np.testing.assert_array_equal(emp.weights, again.weights)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        measure_to_csv(emp, buf_a)
        measure_to_csv(again, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        exact = uniformized_marginal(gen, p0, t)
        span = float(gen.states[-1] - gen.states[0])
        gap = wasserstein(emp, exact, 1.0)
        margins.append(gap / (span * eps))
    ok = all(m <= 1.0 for m in margins)
    certify(
        capsys,
        7,
        "Monte Carlo matches the exact solver",
        ok,
        f"distance over envelope {margins[0]:.2f} and {margins[1]:.2f} <= 1.0, "
        "reruns byte-identical",
    )


def test_criterion_08_chain_approximation(capsys):
    start = time.perf_counter()
    spec0 = tanh_spec()
    atoms = np.linspace(0.5, 1.5, 41)
    p0 = DiscreteMeasure(atoms, np.full(41, 1.0 / 41.0))
    push = DiscreteMeasure(flow(spec0, atoms, 1.0), np.full(41, 1.0 / 41.0))
    grid = np.linspace(-2.0, 3.0, 2049)
    step = grid[1] - grid[0]
    e0 = embed_on_grid(p0, grid)
    mus = (8.0, 16.0, 32.0, 64.0)
    push_ok = True
    worst_push = 0.0
    for mu in mus:
        appr = mu_generator(spec0, mu, grid)
        marg = uniformized_marginal(appr.generator, e0, 1.0)
        ratio = wasserstein(marg, push, 1.0) / (2.0 / mu + step)
        worst_push = max(worst_push, ratio)
        push_ok = push_ok and ratio <= 1.0
    spec = tanh_spec(lam=0.3, kernel=ShiftJump(0.5))
    p0y = DiscreteMeasure(np.linspace(-1.0, -0.4, 7), np.full(7, 1.0 / 7.0))
    study = mu_convergence_study(
        spec,
        spec,
        p0,
        p0y,
        2.0,
        1.0,
        list(mus),
        grid_nodes=2049,
        identity_steps=400,
    )
    elapsed = time.perf_counter() - start
    max_resid = float(np.max(study.identity_residuals))
    ok = (
        push_ok
        and max_resid <= 1e-9
        and study.reference_mu == 128.0
        and study.cauchy_decreasing_x
        and study.cauchy_decreasing_y
        and elapsed < 120.0
    )
    certify(
        capsys,
        8,
        "chain approximation of the flow-and-jump process",
        ok,
        f"pushforward error over budget {worst_push:.2f} <= 1.0, "
        f"pointwise identity residual {max_resid:.2e} <= 1e-09, distances to the mu=128 "
        f"reference strictly decreasing, {elapsed:.0f}s < 120s",
    )


def test_criterion_09_propagation_constants(capsys):
    spec = tanh_spec(lam=0.3, kernel=ShiftJump(0.5))
    worst_moment = 0.0
    worst_tail = 0.0
    for mu in (16.0, math.inf):
        for q in (1.0, 2.0):
            audit = propagation_check(spec, 1.0, 1.0, 1.0, q, mu, 20_000, seed=909)
            assert audit.moment_ok and audit.tails_ok, (mu, q)
            worst_moment = max(worst_moment, audit.moment_estimate / audit.moment_envelope)
            worst_tail = max(worst_tail, audit.worst_tail_ratio)
    ok = worst_moment <= 1.0 and worst_tail <= 1.0
    certify(
        capsys,
        9,
        "propagation moment and tail constants",
        ok,
        f"moment over envelope {worst_moment:.3f} <= 1.0, "
        f"tail ratio over cap {worst_tail:.3f} <= 1.0",
    )


def test_criterion_10_moment_growth_bounds(capsys):
    worst = 0.0
    checks = 0
    for bd in (mm_infty(1.0, 1.0, 40), mm_infty(0.8, 0.5, 30)):
        for rho in (1.0, 2.0, 3.0):
            for t in (0.5, 1.0, 2.0):
                exact, bound = moment_bound(bd, dirac(3), rho, t)
                worst = max(worst, relative_excess(exact, bound))
                checks += 1
    rng = np.random.default_rng(1010)
    gens = [
        mm_infty(1.0, 1.0, 40).to_generator(),
        telegraph(1.7, 0.6),
        poisson_counter(40),
        three_state(),
        random_dense_generator(rng),
    ]
    for gen in gens:
        p0 = dirac(gen.states[0])
        for alpha in (1.0, 2.0, 3.0):
            for t in (0.5, 1.0, 2.0):
                exact, bound = moment_growth_bound(gen, p0, alpha, t)
                worst = max(worst, relative_excess(exact, bound))
                checks += 1
    ok = worst <= 1e-12
    certify(
        capsys,
        10,
        "closed-form moment growth bounds",
        ok,
        f"{checks} instance checks, max relative excess {worst:.2e}",
    )
