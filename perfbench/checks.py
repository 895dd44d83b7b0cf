"""Independent checks of the CLI outputs, built on numpy and scipy only.

Nothing here imports wflow.  Exact laws come from the generator matrix,
built from the config for birth-death chains and from the saved rates and
kernel for grid chains, through ``scipy.sparse.linalg.expm_multiply``
(Al-Mohy & Higham 2011); flow-with-jumps laws with constant drift, intensity
and shift are Poisson sums in closed form.  ``check(...)``
returns the list of problems of one experiment's outputs, empty when it
passes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import traceback

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

# per-check false-alarm probability of the Monte Carlo envelopes; a run makes
# three such checks, so a correct program fails a run with probability < 1e-6
DKW_ALPHA = 1e-7
MARGINAL_TOL = 1e-9  # sup-norm distance of a solved marginal from the oracle
VALUE_RTOL = 1e-8  # relative agreement of reported transport costs
FEASIBILITY_TOL = 1e-9  # dual constraint slack, relative to the potentials
GAP_RTOL = 1e-7  # duality gap, relative to the primal value


class CheckError(AssertionError):
    """An output disagrees with its independently computed value."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def read_table(path):
    """A CSV of numbers as a mapping of column name to array."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(rows, f"{path} has no rows")
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def read_rows(path):
    """``bounds.csv`` as a mapping of row name to (lhs, rhs, violation)."""
    with open(path, newline="") as fh:
        return {
            r["name"]: (float(r["lhs"]), float(r["rhs"]), float(r["violation"]))
            for r in csv.DictReader(fh)
        }


# ---------------------------------------------------------------------------
# exact laws


def bd_generator(birth, death, n_top):
    """Generator matrix of constant births and linear deaths on {0..n_top}.

    Births stop at the top state so no mass leaves the truncated chain.
    """
    n = n_top + 1
    x = np.arange(n)
    up = np.full(n, float(birth))
    up[-1] = 0.0
    down = float(death) * x
    q = np.zeros((n, n))
    q[x[:-1], x[:-1] + 1] = up[:-1]
    q[x[1:], x[1:] - 1] = down[1:]
    q[x, x] = -(up + down)
    return q


def generator_from_kernel(lam, kernel):
    """Sparse ``diag(lam) (K - I)`` for per-state rates and a jump kernel."""
    lam_diag = sparse.diags(lam)
    return (lam_diag @ (sparse.csr_matrix(kernel) - sparse.identity(lam.size))).tocsr()


def trajectory(q, p0, t_end, n_steps):
    """Forward marginals at ``linspace(0, t_end, n_steps + 1)``, one per row."""
    out = expm_multiply(
        q.T, p0, start=0.0, stop=t_end, num=n_steps + 1, endpoint=True
    )
    return np.clip(out, 0.0, None)


def marginal(q, p0, t):
    """Forward marginal at ``t``."""
    return np.clip(expm_multiply(q.T * t, p0), 0.0, None)


def dirac_vector(n, at):
    v = np.zeros(n)
    v[int(at)] = 1.0
    return v


def poisson_pmf(mean, tail=1e-18):
    """Poisson probabilities from 0 up to where the remaining tail is negligible."""
    k_max = int(mean + 12.0 * math.sqrt(mean) + 30.0)
    k = np.arange(k_max + 1)
    logs = -mean + k * math.log(mean) - np.array([math.lgamma(i + 1.0) for i in k])
    pmf = np.exp(logs)
    _require(1.0 - pmf.sum() < tail + 1e-12, "Poisson range too short")
    return pmf


def lattice_law(x0, steps):
    """Law of ``x0 + sum_i size_i * N_i`` with independent Poisson ``N_i``.

    ``steps`` lists (size, mean) pairs; atoms closer than 1e-12 are merged.
    """
    atoms = np.array([float(x0)])
    probs = np.array([1.0])
    for size, mean in steps:
        pmf = poisson_pmf(mean)
        atoms = (atoms[:, None] + size * np.arange(pmf.size)[None, :]).ravel()
        probs = (probs[:, None] * pmf[None, :]).ravel()
    keys = np.round(atoms, 12)
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, probs)
    return uniq, merged


# ---------------------------------------------------------------------------
# transport on the line, recomputed


def w1_lattice(p, q):
    """``W_1`` of two laws on the unit lattice: ``sum_k |F_p(k) - F_q(k)|``."""
    return float(np.sum(np.abs(np.cumsum(p) / p.sum() - np.cumsum(q) / q.sum())))


def w_power(xa, pa, xb, pb, rho):
    """``W_rho^rho`` of two atomic laws by merging their quantile functions."""
    ca = np.cumsum(pa) / np.sum(pa)
    cb = np.cumsum(pb) / np.sum(pb)
    ca[-1] = cb[-1] = 1.0
    levels = np.union1d(np.concatenate(([0.0], ca)), cb)
    mid = 0.5 * (levels[:-1] + levels[1:])
    qa = np.asarray(xa)[np.minimum(np.searchsorted(ca, mid), ca.size - 1)]
    qb = np.asarray(xb)[np.minimum(np.searchsorted(cb, mid), cb.size - 1)]
    return float(np.sum(np.diff(levels) * np.abs(qa - qb) ** rho))


def check_close(what, got, want, rtol=VALUE_RTOL, atol=1e-12):
    got, want = np.asarray(got, float), np.asarray(want, float)
    _require(got.shape == want.shape, f"{what}: {got.shape} values, expected {want.shape}")
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    k = int(np.argmax(err))
    _require(
        err.flat[k] <= 0.0,
        f"{what}: {got.flat[k]!r} differs from the independent {want.flat[k]!r}",
    )


# ---------------------------------------------------------------------------
# the named checks


def check_marginal(what, states, support, weights, exact, tol=MARGINAL_TOL):
    """A solved law on ``states`` against the oracle vector ``exact``."""
    idx = np.searchsorted(states, support)
    idx = np.minimum(idx, states.size - 1)
    _require(np.array_equal(states[idx], support), f"{what}: atoms off the state space")
    vec = np.zeros(states.size)
    vec[idx] = weights
    err = float(np.max(np.abs(vec - exact)))
    _require(err <= tol, f"{what}: marginal is {err:.3g} from the matrix exponential")


def check_dual_pair(x, psi, y, psi_tilde, px, py, rho):
    """Brute-force feasibility over every atom pair and a duality-gap check."""
    scale = 1.0 + float(np.max(np.abs(psi))) + float(np.max(np.abs(psi_tilde)))
    worst = -np.inf
    chunk = max(1, 2_000_000 // max(y.size, 1))
    for s in range(0, x.size, chunk):
        slack = (
            -psi[s : s + chunk, None]
            - psi_tilde[None, :]
            - np.abs(x[s : s + chunk, None] - y[None, :]) ** rho
        )
        worst = max(worst, float(slack.max()))
    _require(
        worst <= FEASIBILITY_TOL * scale,
        f"dual pair infeasible: constraint violated by {worst:.3g}",
    )
    primal = w_power(x, px, y, py, rho)
    dual = -float(psi @ px) / px.sum() - float(psi_tilde @ py) / py.sum()
    gap = primal - dual
    _require(
        abs(gap) <= GAP_RTOL * max(primal, 1e-9) + 1e-12 * scale,
        f"duality gap {gap:.3g} against the primal {primal:.6g}",
    )
    return primal


def dkw_epsilon(n, alpha=DKW_ALPHA):
    """Dvoretzky-Kiefer-Wolfowitz radius: ``P(sup|F_n - F| > eps) <= alpha``."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def check_dkw(what, atoms, probs, sample_x, sample_w, n_paths, alpha=DKW_ALPHA):
    """An empirical law of ``n_paths`` samples against the exact atomic law."""
    counts = np.asarray(sample_w) * n_paths
    _require(
        np.all(np.abs(counts - np.round(counts)) < 1e-6)
        and abs(counts.sum() - n_paths) < 1e-6,
        f"{what}: weights are not counts of {n_paths} paths",
    )
    j = np.clip(np.searchsorted(atoms, sample_x), 1, atoms.size - 1)
    nearest = np.where(
        np.abs(atoms[j - 1] - sample_x) <= np.abs(atoms[j] - sample_x), j - 1, j
    )
    off = np.abs(atoms[nearest] - sample_x) > 1e-8 * (1.0 + np.abs(sample_x))
    _require(not np.any(off), f"{what}: sample atom {sample_x[off][:1]} has zero probability")
    emp = np.zeros(atoms.size)
    np.add.at(emp, nearest, sample_w)
    dist = float(np.max(np.abs(np.cumsum(emp) - np.cumsum(probs))))
    eps = dkw_epsilon(n_paths, alpha)
    _require(dist <= eps, f"{what}: sup |F_n - F| = {dist:.4g} beyond the envelope {eps:.4g}")


# ---------------------------------------------------------------------------
# per kind


def _summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    _require(summary["violations"] == 0, f"summary reports {summary['violations']} violations")
    return summary


def _bd_q(section):
    spec = section["mm_infty"]
    return bd_generator(spec["birth"], spec["death"], spec["n_top"])


def _check_bd_contraction(opts, out, artifact):
    table = read_table(os.path.join(out, "bd-contraction.csv"))
    _summary(out)
    spec = opts["chain"]["mm_infty"]
    q = _bd_q(opts["chain"])
    n, t_end, steps, rho = q.shape[0], opts["horizon"], opts["steps"], opts["rho"]
    grid = np.linspace(0.0, t_end, steps + 1)
    check_close("time grid", table["t"], grid, rtol=1e-14)
    tx = trajectory(q, dirac_vector(n, opts["p0_x"]["dirac"]), t_end, steps)
    ty = trajectory(q, dirac_vector(n, opts["p0_y"]["dirac"]), t_end, steps)
    states = np.arange(n, dtype=float)
    w1 = np.array([w1_lattice(a, b) for a, b in zip(tx, ty)])
    w_rho = np.array([w_power(states, a, states, b, rho) for a, b in zip(tx, ty)])
    check_close("w1", table["w1"], w1)
    check_close("w_rho", table["w_rho"], w_rho)
    # truncated curvature of constant births and linear deaths: births stop at the top
    eta = np.full(n, float(spec["birth"]))
    nu = float(spec["death"]) * states
    eta_up = eta[1:].copy()
    eta_up[-1] = 0.0
    kappa = float(np.min(eta[:-1] + nu[1:] - eta_up - nu[:-1]))
    check_close("bound1", table["bound1"], w1[0] * np.exp(-kappa * grid))
    tol = opts["tolerances"]["violation"]
    for name, value in (("w1", w1), ("w_rho", w_rho)):
        bound = table["bound1" if name == "w1" else "bound_rho"]
        excess = (value - bound) / np.maximum(1.0, np.abs(bound))
        _require(np.all(excess <= tol), f"{name} exceeds its certified bound by {excess.max():.3g}")
    _require(np.all(table["violation"] <= tol), "violation column above tolerance")


def _check_identity(opts, out, artifact):
    table = read_table(os.path.join(out, "identity.csv"))
    summary = _summary(out)
    qx, qy = _bd_q(opts["x"]), _bd_q(opts["y"])
    t_end, steps, rho = opts["horizon"], opts["steps"], opts["rho"]
    tx = trajectory(qx, dirac_vector(qx.shape[0], opts["p0_x"]["dirac"]), t_end, steps)
    ty = trajectory(qy, dirac_vector(qy.shape[0], opts["p0_y"]["dirac"]), t_end, steps)
    sx = np.arange(qx.shape[0], dtype=float)
    sy = np.arange(qy.shape[0], dtype=float)
    w = np.array([w_power(sx, a, sy, b, rho) for a, b in zip(tx, ty)])
    check_close("w_rho_rho", table["w_rho_rho"], w)
    dt = t_end / steps
    panel = 0.5 * dt * (table["integrand"][1:] + table["integrand"][:-1])
    check_close(
        "residual", table["residual"][1:], np.abs(np.diff(table["w_rho_rho"]) - panel), atol=1e-15
    )
    tol = opts["tolerances"]["residual"]
    _require(summary["max_residual"] <= tol, f"identity residual {summary['max_residual']:.3g}")
    _require(artifact is not None, "no final-node dual pair")
    a = np.load(artifact)
    check_marginal("final X marginal", a["states_x"], a["mx_support"], a["mx_weights"], tx[-1])
    check_marginal("final Y marginal", a["states_y"], a["my_support"], a["my_weights"], ty[-1])
    primal = check_dual_pair(
        a["x"], a["psi"], a["y"], a["psi_tilde"], a["mx_weights"], a["my_weights"], rho
    )
    check_close("final w_rho_rho", primal, table["w_rho_rho"][-1])


def _check_pdmp_approx(opts, out, artifact):
    table = read_table(os.path.join(out, "pdmp-approx.csv"))
    _summary(out)
    check_close("mu column", table["mu"], np.asarray(opts["mu_list"], float), rtol=0.0)
    tol = opts["tolerances"]["identity_residual"]
    _require(
        np.all(table["identity_residual"] <= tol),
        f"identity residual {table['identity_residual'].max():.3g} above {tol}",
    )
    for side in ("cauchy_x", "cauchy_y"):
        _require(np.all(np.isfinite(table[side])), f"{side} not finite")
        _require(np.all(np.diff(table[side]) < 0.0), f"{side} distances do not decrease")
    _require(artifact is not None, "no final-node dual pair")
    a = np.load(artifact)
    kernel = sparse.csr_matrix(
        (a["kernel_data"], a["kernel_indices"], a["kernel_indptr"]),
        shape=(a["lam"].size, a["lam"].size),
    )
    _require(
        np.all(np.abs(np.asarray(kernel.sum(axis=1)).ravel() - 1.0) <= 1e-12),
        "chain kernel rows do not sum to 1",
    )
    q = generator_from_kernel(a["lam"], kernel)
    states = a["states_x"]
    for side in ("x", "y"):
        p0 = np.zeros(states.size)
        p0[np.searchsorted(states, a[f"e0{side}_support"])] = a[f"e0{side}_weights"]
        check_marginal(
            f"final {side.upper()} marginal",
            states,
            a[f"m{side}_support"],
            a[f"m{side}_weights"],
            marginal(q, p0, opts["horizon"]),
        )
    check_dual_pair(
        a["x"], a["psi"], a["y"], a["psi_tilde"], a["mx_weights"], a["my_weights"], opts["rho"]
    )


def _check_simulate(opts, out, artifact):
    table = read_table(os.path.join(out, "simulate.csv"))
    _summary(out)
    n_paths, t = opts["n_paths"], opts["horizon"]
    if "pdmp" in opts:
        spec = opts["pdmp"]
        c, lam, d = spec["drift"]["c"], spec["intensity"]["const"], spec["kernel"]["d"]
        mu = opts.get("mu", "inf")
        if mu == "inf":  # x0 + c t + d N,  N ~ Poisson(lam t)
            atoms, probs = lattice_law(opts["p0"]["dirac"] + c * t, [(d, lam * t)])
        else:  # x0 + (c / mu) M + d N,  M ~ Poisson(mu t), N ~ Poisson(lam t)
            atoms, probs = lattice_law(opts["p0"]["dirac"], [(c / mu, mu * t), (d, lam * t)])
    else:
        q = _bd_q(opts["generator"])
        probs = marginal(q, dirac_vector(q.shape[0], opts["p0"]["dirac"]), t)
        atoms = np.arange(q.shape[0], dtype=float)
    check_dkw("simulated law", atoms, probs, table["x"], table["weight"], n_paths)


def _moment_rate_constant(rho, scan_top=1_000_000):
    x = np.arange(scan_top + 1, dtype=float)
    ratio = (1.0 + x) * ((1.0 + x) ** rho - x**rho) / (1.0 + x**rho)
    return max(float(np.max(ratio)), rho)


def _check_bounds(opts, out, artifact):
    rows = read_rows(os.path.join(out, "bounds.csv"))
    _summary(out)
    _require(rows, "no bound rows")
    for name, (lhs, rhs, violation) in rows.items():
        _require(lhs <= rhs and violation == 0.0, f"{name}: {lhs!r} > {rhs!r}")
    t = opts["horizon"]
    family = opts["family"]
    if family in ("bd-moment", "growth-moment"):
        section = opts["chain" if family == "bd-moment" else "generator"]
        q = _bd_q(section)
        x0 = opts["p0"]["dirac"]
        p_t = marginal(q, dirac_vector(q.shape[0], x0), t)
        states = np.arange(q.shape[0], dtype=float)
    if family == "bd-moment":
        _require(len(rows) == len(opts["rho_list"]), "one row per rho")
        growth = section["mm_infty"]["birth"]  # sup of eta(x) / (1 + x), at x = 0
        for rho in opts["rho_list"]:
            lhs, rhs, _ = rows[f"bd_moment_rho_{rho}"]
            check_close(f"E X^{rho}", lhs, float(p_t @ states**rho), rtol=1e-9)
            bound = (x0**rho + 1.0) * math.exp(_moment_rate_constant(rho) * growth * t) - 1.0
            check_close(f"moment bound rho {rho}", rhs, bound, rtol=1e-9)
    elif family == "growth-moment":
        _require(len(rows) == len(opts["alpha_list"]), "one row per alpha")
        lam_t = float(np.max(-np.diag(q))) * t
        for alpha in opts["alpha_list"]:
            lhs, rhs, _ = rows[f"growth_moment_alpha_{alpha}"]
            check_close(f"E|X|^{alpha}", lhs, float(p_t @ states**alpha), rtol=1e-9)
            k_bar = max(x0**alpha, 1.0)  # unit jumps: the kernel moment is 1
            top = math.ceil(alpha)
            series = sum(
                (n + 1.0) ** alpha * lam_t**n / math.factorial(n) for n in range(top)
            ) + (top + 1.0) ** alpha / math.factorial(top) * lam_t**top * math.exp(lam_t)
            check_close(f"growth bound alpha {alpha}", rhs, k_bar * series, rtol=1e-9)
    elif family == "propagation":
        spec = opts["pdmp"]
        vb = 1.0 if spec["drift"]["name"] == "neg_tanh" else abs(spec["drift"].get("c", 0.0))
        m = abs(spec["kernel"]["d"])
        lam = spec["intensity"]["const"]
        for qq in opts["q_list"]:
            lhs, rhs, _ = rows[f"displacement_moment_q_{qq}"]
            q_factor = (qq / math.e) ** qq
            bound = 2.0 ** max(qq - 1.0, 0.0) * (
                vb**qq * t**qq * q_factor * math.exp(math.e)
                + m**qq * q_factor * math.exp(lam * t * (math.e - 1.0))
            )
            _require(rhs >= bound * (1.0 - 1e-12), f"moment envelope {rhs!r} below {bound!r}")
            _require(rows[f"tail_ratio_q_{qq}"][1] == 1.0, "tail envelope is not 1")
    else:
        raise CheckError(f"no check for bounds family {family!r}")


_CHECKS = {
    "bd-contraction": _check_bd_contraction,
    "identity": _check_identity,
    "pdmp-approx": _check_pdmp_approx,
    "simulate": _check_simulate,
    "bounds": _check_bounds,
}


def check(opts, out, artifact=None):
    """Problems found in one experiment's outputs; empty when all checks pass."""
    try:
        _CHECKS[opts["kind"]](opts, out, artifact)
    except CheckError as exc:
        return [str(exc)]
    except Exception:  # a missing or malformed output fails its operation
        return [f"check could not run: {traceback.format_exc(limit=2)}"]
    return []
