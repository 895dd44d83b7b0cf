"""Each independent check passes a right answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.linalg import expm

import checks
from checks import CheckError


def _chain():
    q = checks.bd_generator(1.0, 0.5, 30)
    return q, checks.marginal(q, checks.dirac_vector(31, 3), 1.0)


def test_generator_rows_sum_to_zero():
    q = checks.bd_generator(2.0, 0.5, 10)
    assert np.allclose(q.sum(axis=1), 0.0)
    assert q[10, 10] == -5.0  # no births out of the top state


def test_oracle_matches_dense_exponential():
    q, p_t = _chain()
    dense = expm(q.T) @ checks.dirac_vector(31, 3)
    traj = checks.trajectory(q, checks.dirac_vector(31, 3), 1.0, 4)
    assert np.max(np.abs(p_t - dense)) < 1e-13
    assert np.max(np.abs(traj[-1] - dense)) < 1e-13


def test_marginal_check_rejects_a_perturbation_of_1e_6():
    _, p_t = _chain()
    states = np.arange(31.0)
    keep = p_t > 0
    checks.check_marginal("m", states, states[keep], p_t[keep], p_t)
    wrong = p_t.copy()
    wrong[3] += 1e-6
    wrong[4] -= 1e-6
    with pytest.raises(CheckError, match="matrix exponential"):
        checks.check_marginal("m", states, states[keep], wrong[keep], p_t)


def test_lattice_w1_agrees_with_quantile_merge():
    _, p = _chain()
    q = np.roll(p, 2)
    states = np.arange(31.0)
    assert math.isclose(
        checks.w1_lattice(p, q), checks.w_power(states, p, states, q, 1.0), rel_tol=1e-12
    )


def test_w_power_of_shifted_dirac_laws():
    assert checks.w_power(np.array([0.0]), np.array([1.0]), np.array([2.0]), np.array([1.0]), 3.0) == 8.0


def test_dkw_accepts_a_sample_of_the_law_and_rejects_a_shifted_one():
    _, p_t = _chain()
    atoms = np.arange(31.0)
    n = 20000
    draws = np.random.default_rng(5).choice(31, size=n, p=p_t / p_t.sum())
    support, counts = np.unique(draws, return_counts=True)
    checks.check_dkw("mc", atoms, p_t, support.astype(float), counts / n, n)
    with pytest.raises(CheckError, match="envelope"):
        checks.check_dkw("mc", atoms, p_t, support + 1.0, counts / n, n)


def test_dkw_rejects_atoms_off_the_support():
    atoms, probs = checks.lattice_law(0.0, [(0.25, 2.0)])
    with pytest.raises(CheckError, match="zero probability"):
        checks.check_dkw("mc", atoms, probs, np.array([0.1]), np.array([1.0]), 1)


def test_lattice_law_of_two_poisson_sums():
    atoms, probs = checks.lattice_law(1.0, [(0.5, 1.0), (1.0, 2.0)])
    assert math.isclose(probs.sum(), 1.0, rel_tol=1e-12)
    assert math.isclose(float(atoms @ probs), 1.0 + 0.5 * 1.0 + 1.0 * 2.0, rel_tol=1e-12)
    # 0.5 * 2 and 1.0 * 1 land on the same atom and are merged
    assert np.all(np.diff(atoms) > 0)


def _dirac_pair(psi0=0.0, psi_tilde1=-1.0):
    one = np.array([1.0])
    return (np.array([0.0]), np.array([psi0]), np.array([1.0]), np.array([psi_tilde1]), one, one)


def test_dual_pair_check_accepts_the_optimal_pair():
    assert checks.check_dual_pair(*_dirac_pair(), 2.0) == 1.0


def test_dual_pair_check_rejects_an_infeasible_pair():
    with pytest.raises(CheckError, match="infeasible"):
        checks.check_dual_pair(*_dirac_pair(psi0=-0.1), 2.0)


def test_dual_pair_check_rejects_a_duality_gap():
    with pytest.raises(CheckError, match="duality gap"):
        checks.check_dual_pair(*_dirac_pair(psi_tilde1=-0.5), 2.0)


def _write_contraction(tmp_path, opts, w1_scale=1.0):
    """A bd-contraction CSV made from the oracle itself, optionally wrong."""
    q = checks.bd_generator(1.0, 1.0, 20)
    steps, t_end = opts["steps"], opts["horizon"]
    tx = checks.trajectory(q, checks.dirac_vector(21, 2), t_end, steps)
    ty = checks.trajectory(q, checks.dirac_vector(21, 9), t_end, steps)
    grid = np.linspace(0.0, t_end, steps + 1)
    w1 = np.array([checks.w1_lattice(a, b) for a, b in zip(tx, ty)]) * w1_scale
    states = np.arange(21.0)
    w2 = np.array([checks.w_power(states, a, states, b, 2.0) for a, b in zip(tx, ty)])
    bound1 = w1[0] * np.exp(-grid)  # truncated curvature of mm_infty(1, 1, N) is 1
    lines = ["t,w1,bound1,w_rho,bound_rho,violation"]
    rows = zip(grid.tolist(), w1.tolist(), bound1.tolist(), w2.tolist())
    lines += [f"{a!r},{b!r},{c!r},{d!r},{2 * d!r},0.0" for a, b, c, d in rows]
    (tmp_path / "bd-contraction.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "summary.json").write_text(json.dumps({"violations": 0}))


def test_contraction_check_rejects_a_wrong_distance(tmp_path):
    opts = {
        "kind": "bd-contraction",
        "chain": {"mm_infty": {"birth": 1.0, "death": 1.0, "n_top": 20}},
        "p0_x": {"dirac": 2.0},
        "p0_y": {"dirac": 9.0},
        "rho": 2.0,
        "horizon": 1.0,
        "steps": 10,
        "tolerances": {"violation": 1e-8},
    }
    _write_contraction(tmp_path, opts)
    assert checks.check(opts, str(tmp_path)) == []
    _write_contraction(tmp_path, opts, w1_scale=1.0 + 1e-5)
    problems = checks.check(opts, str(tmp_path))
    assert problems and "w1" in problems[0]


def test_missing_output_is_a_problem(tmp_path):
    opts = {"kind": "simulate", "n_paths": 1, "horizon": 1.0}
    assert checks.check(opts, os.fspath(tmp_path))[0].startswith("check could not run")
