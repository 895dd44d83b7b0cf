"""The benchmark's workloads: fixed lists of CLI experiments made from a seed.

Each workload is a list of ``(name, config)`` pairs; ``config`` is the mapping
written to the experiment's YAML file, with ``kind`` naming the CLI kind.  The
seed only moves initial states by small amounts and picks the Monte Carlo
seeds, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("chain-approx", "birth-death", "monte-carlo")

# expected CSV next to summary.json, per CLI kind
OUTPUT_CSV = {
    "identity": "identity.csv",
    "bd-contraction": "bd-contraction.csv",
    "pdmp-approx": "pdmp-approx.csv",
    "simulate": "simulate.csv",
    "bounds": "bounds.csv",
}


def _mm(birth, death, n_top):
    return {"mm_infty": {"birth": birth, "death": death, "n_top": n_top}}


def _chain_approx(rng):
    jx = round(rng.uniform(-0.1, 0.1), 3)
    jy = round(rng.uniform(-0.1, 0.1), 3)
    return [
        (
            "pdmp-approx",
            {
                "kind": "pdmp-approx",
                "x": {
                    "drift": {"name": "neg_tanh"},
                    "intensity": {"const": 0.5},
                    "kernel": {"name": "shift", "d": 0.5},
                },
                "p0_x": {
                    "support": [0.5 + jx, 1.0 + jx, 1.5 + jx],
                    "weights": [0.4, 0.3, 0.3],
                },
                "p0_y": {"support": [-1.0 + jy, -0.4 + jy], "weights": [0.5, 0.5]},
                "rho": 2.0,
                "horizon": 1.0,
                "mu_list": [4.0, 8.0],
                "steps": 16,
                "grid_nodes": 4097,
                "tolerances": {"identity_residual": 1.0e-2},
            },
        )
    ]


def _birth_death(rng):
    return [
        (
            "bd-contraction",
            {
                "kind": "bd-contraction",
                "chain": _mm(20.0, 1.0, 200),
                "p0_x": {"dirac": float(rng.randint(2, 8))},
                "p0_y": {"dirac": float(rng.randint(30, 50))},
                "rho": 3.0,
                "horizon": 2.5,
                "steps": 120,
                "tolerances": {"violation": 1.0e-8},
            },
        ),
        (
            "identity",
            {
                "kind": "identity",
                "x": _mm(2.0, 0.5, 30),
                "y": _mm(1.0, 0.8, 30),
                "p0_x": {"dirac": float(rng.randint(2, 4))},
                "p0_y": {"dirac": float(rng.randint(5, 8))},
                "rho": 2.0,
                "horizon": 1.0,
                "steps": 100,
                "tolerances": {"residual": 1.0e-3},
            },
        ),
        (
            "bd-moment",
            {
                "kind": "bounds",
                "family": "bd-moment",
                "chain": _mm(5.0, 1.0, 100),
                "p0": {"dirac": float(rng.randint(1, 5))},
                "horizon": 2.0,
                "rho_list": [1.5, 2.0, 3.0],
            },
        ),
        (
            # lambda_bar * horizon = 105 * 2 stays below the exp overflow at 709
            "growth-moment",
            {
                "kind": "bounds",
                "family": "growth-moment",
                "generator": _mm(5.0, 1.0, 100),
                "p0": {"dirac": float(rng.randint(1, 5))},
                "horizon": 2.0,
                "alpha_list": [1.0, 2.0, 3.0],
            },
        ),
    ]


# constant drift, intensity and shift: the law is known in closed form
CONST_FLOW = {
    "drift": {"name": "const", "c": 0.5},
    "intensity": {"const": 2.0},
    "kernel": {"name": "shift", "d": 0.25},
}


def _monte_carlo(rng):
    x0 = round(rng.uniform(-1.0, 1.0), 3)
    return [
        (
            "simulate-bd",
            {
                "kind": "simulate",
                "generator": _mm(1.0, 1.0, 40),
                "p0": {"dirac": float(rng.randint(1, 4))},
                "horizon": 1.0,
                "n_paths": 10000,
                "seed": rng.randrange(2**32),
                "confidence": 0.999999999,
            },
        ),
        (
            "simulate-pdmp",
            {
                "kind": "simulate",
                "pdmp": CONST_FLOW,
                "p0": {"dirac": x0},
                "horizon": 1.0,
                "mu": "inf",
                "n_paths": 10000,
                "seed": rng.randrange(2**32),
            },
        ),
        (
            "simulate-chain",
            {
                "kind": "simulate",
                "pdmp": CONST_FLOW,
                "p0": {"dirac": x0},
                "horizon": 1.0,
                "mu": 8.0,
                "n_paths": 4000,
                "seed": rng.randrange(2**32),
            },
        ),
        (
            "propagation",
            {
                "kind": "bounds",
                "family": "propagation",
                "pdmp": {
                    "drift": {"name": "neg_tanh"},
                    "intensity": {"const": 1.0},
                    "kernel": {"name": "shift", "d": 0.5},
                },
                "horizon": 1.0,
                "mu": "inf",
                "n_paths": 2000,
                "seed": rng.randrange(2**32),
                "q_list": [1.0, 2.0],
                "smoothing_eta": 1.0,
            },
        ),
    ]


_BUILDERS = {
    "chain-approx": _chain_approx,
    "birth-death": _birth_death,
    "monte-carlo": _monte_carlo,
}


def experiments(workload, seed):
    """The workload's experiments for ``seed``: a list of (name, config)."""
    return _BUILDERS[workload](random.Random(seed))
