"""Spans around wflow's public functions, installed from outside the library.

``Tracer.install`` wraps every function named in the ``__all__`` of the six
library modules, plus the methods in ``METHODS``, and replaces each original
in every loaded ``wflow`` module that binds it, so ``from wflow.x import f``
bindings are traced too.  A span records name, start, end, parent and the
operation it belongs to; self time is the span's duration minus that of its
children.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("transport", "jump_process", "evolution", "birth_death", "pdmp", "cli")

# the CSV writer of atomic laws, used by the CLI but public in ``measures``
EXTRA_FUNCTIONS = (("measures", "measure_to_csv"),)

# class methods traced on their class: (module, class, method)
METHODS = (
    ("transport", "PotentialPair", "psi_at"),
    ("transport", "PotentialPair", "psi_tilde_at"),
    ("transport", "PotentialPair", "to_csv"),
    ("birth_death", "BirthDeathSpec", "to_generator"),
    ("birth_death", "ContractionReport", "to_csv"),
    ("evolution", "EvolutionReport", "to_csv"),
    ("pdmp", "MuConvergenceReport", "to_csv"),
)


def _size(m):
    support = getattr(m, "support", None)
    return int(np.size(support if support is not None else m.grid))


def _psi_counts(table):
    def counts(a):
        q = np.atleast_1d(np.asarray(a["q"], dtype=float))
        return {"points": q.size, "hits": int(np.isin(q, getattr(a["self"], table)).sum())}

    return counts


# span name -> counts taken from the bound call arguments
COUNTS = {
    "transport.potentials": lambda a: {"atoms": _size(a["m1"]) + _size(a["m2"])},
    "transport.PotentialPair.psi_at": _psi_counts("x"),
    "transport.PotentialPair.psi_tilde_at": _psi_counts("y"),
    "jump_process.uniformized_marginal": lambda a: {
        "clock_mass": float(a["gen"].lambda_bar * a["t"])
    },
    "jump_process.simulate_paths": lambda a: {"paths": int(a["n_paths"])},
    "pdmp.simulate_pdmp": lambda a: {"paths": int(a["n_paths"])},
    "pdmp.simulate_chain": lambda a: {"paths": int(a["n_paths"])},
    "pdmp.mu_generator": lambda a: {"states": int(np.size(a["state_grid"]))},
    "pdmp.flow": lambda a: {"points": int(np.size(a["x"]))},
}


def _public(short):
    module = importlib.import_module(f"wflow.{short}")
    return [
        attr
        for attr in module.__all__
        if callable(getattr(module, attr)) and not inspect.isclass(getattr(module, attr))
    ]


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the running operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn):
        counts = COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "op": self.op,
                "parent": stack[-1]["id"] if stack else None,
                "id": len(spans) + len(stack),
                "children_s": 0.0,
            }
            if counts:
                span.update(counts(signature.bind(*args, **kwargs).arguments))
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1]["children_s"] += span["end"] - span["start"]
                spans.append(span)

        return traced

    def install(self):
        """Wrap the library's public functions and the listed methods."""
        loaded = [m for n, m in sys.modules.items() if n == "wflow" or n.startswith("wflow.")]
        functions = [(short, attr) for short in MODULES for attr in _public(short)]
        for short, attr in functions + list(EXTRA_FUNCTIONS):
            fn = getattr(importlib.import_module(f"wflow.{short}"), attr)
            traced = self.wrap(f"{short}.{attr}", fn)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
        for short, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"wflow.{short}"), cls_name)
            setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}", getattr(cls, method)))

    def write(self, path):
        """One JSON object per span: id, name, op, parent, start, end, counts."""
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per span name: calls, self seconds, and the summed call counts."""
    out = {}
    for span in spans:
        entry = out.setdefault(span["name"], {"calls": 0, "s": 0.0})
        entry["calls"] += 1
        entry["s"] += span["end"] - span["start"] - span["children_s"]
        for key in ("atoms", "points", "hits", "clock_mass", "paths", "states"):
            if key in span:
                entry[key] = entry.get(key, 0) + span[key]
    return out


# layer -> the spans it covers
LAYERS = {
    "transport.wasserstein_power": ("transport.wasserstein_power",),
    "transport.potentials": ("transport.potentials",),
    "transport.psi_eval": (
        "transport.PotentialPair.psi_at",
        "transport.PotentialPair.psi_tilde_at",
    ),
    "jump_process.uniformized_marginal": ("jump_process.uniformized_marginal",),
    "jump_process.simulate_paths": ("jump_process.simulate_paths",),
    "jump_process.moment_growth_bound": ("jump_process.moment_growth_bound",),
    "evolution.verify_identity": ("evolution.verify_identity",),
    "evolution.apply_generator": ("evolution.apply_generator",),
    "birth_death.contraction_report": ("birth_death.contraction_report",),
    "birth_death.to_generator": ("birth_death.BirthDeathSpec.to_generator",),
    "birth_death.moment_bound": ("birth_death.moment_bound",),
    "birth_death.constants": (
        "birth_death.cost_difference_constant",
        "birth_death.moment_rate_constant",
    ),
    "pdmp.mu_generator": ("pdmp.mu_generator",),
    "pdmp.flow": ("pdmp.flow",),
    "pdmp.simulate_pdmp": ("pdmp.simulate_pdmp",),
    "pdmp.simulate_chain": ("pdmp.simulate_chain",),
    "pdmp.mu_convergence_study": ("pdmp.mu_convergence_study",),
    "pdmp.propagation_check": ("pdmp.propagation_check",),
    "cli.output": (
        "measures.measure_to_csv",
        "transport.PotentialPair.to_csv",
        "birth_death.ContractionReport.to_csv",
        "evolution.EvolutionReport.to_csv",
        "pdmp.MuConvergenceReport.to_csv",
    ),
}

# "<layer>.<quantity>", each a per-round total over the layer's spans
METRICS = (
    "transport.wasserstein_power.calls",
    "transport.wasserstein_power.s",
    "transport.potentials.calls",
    "transport.potentials.s",
    "transport.potentials.atoms",
    "transport.psi_eval.calls",
    "transport.psi_eval.s",
    "transport.psi_eval.points",
    "jump_process.uniformized_marginal.calls",
    "jump_process.uniformized_marginal.s",
    "jump_process.uniformized_marginal.clock_mass",
    "jump_process.simulate_paths.s",
    "jump_process.simulate_paths.paths",
    "jump_process.moment_growth_bound.s",
    "evolution.verify_identity.s",
    "evolution.apply_generator.calls",
    "evolution.apply_generator.s",
    "birth_death.contraction_report.s",
    "birth_death.to_generator.s",
    "birth_death.moment_bound.s",
    "birth_death.constants.s",
    "pdmp.mu_generator.calls",
    "pdmp.mu_generator.s",
    "pdmp.mu_generator.states",
    "pdmp.flow.calls",
    "pdmp.flow.s",
    "pdmp.flow.points",
    "pdmp.simulate_pdmp.s",
    "pdmp.simulate_pdmp.paths",
    "pdmp.simulate_chain.s",
    "pdmp.simulate_chain.paths",
    "pdmp.mu_convergence_study.s",
    "pdmp.propagation_check.s",
    "cli.output.s",
)

UNITS = {"s": "s", "clock_mass": "events"}


def layer_metrics(spans, rounds):
    """Per-round layer metrics from the spans of ``rounds`` traced rounds."""
    table = self_times(spans)

    def total(layer, quantity):
        return sum(table.get(name, {}).get(quantity, 0) for name in LAYERS[layer])

    out = {}
    for metric in METRICS:
        layer, quantity = metric.rsplit(".", 1)
        out[metric] = {
            "value": total(layer, quantity) / rounds,
            "unit": UNITS.get(quantity, "count"),
        }
    points = total("transport.psi_eval", "points")
    out["transport.psi_eval.hit_share"] = {
        "value": total("transport.psi_eval", "hits") / points if points else 0.0,
        "unit": "ratio",
    }
    return out
