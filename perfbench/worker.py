"""One benchmark process: import wflow, load the configs, run whole rounds.

Started by ``run.py`` with a plan file.  ``--setup-only`` stops after set-up
and reports only its time.  Otherwise the worker runs every experiment of the
plan through ``wflow.cli.run``, one after another, for whole rounds until
``--seconds`` have passed, and writes per-round times, exit codes and output
digests to ``--result``.  After the timed rounds it computes, untimed, the
extra library outputs that the independent checks need (final-node marginals
and their dual pair) and saves them next to the experiment's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np


def _import_wflow(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import wflow
    import wflow.cli  # loads every module the CLI binds names from

    if not os.path.abspath(wflow.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"wflow imported from {wflow.__file__}, not from {src}")
    return wflow


def _lru_caches():
    """Every functools cache on a wflow module function, to empty per round."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "wflow" or name.startswith("wflow."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and value not in found:
                    found.append(value)
    return found


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_round(cli, plan, configs, tracer, round_no):
    ops = []
    for exp, config in zip(plan["experiments"], configs):
        if tracer is not None:
            tracer.op = f"{round_no}:{exp['name']}"
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.run(config)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code, error = None, traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        csv = os.path.join(exp["out"], exp["csv"])
        outputs_present = os.path.exists(csv) and os.path.exists(
            os.path.join(exp["out"], "summary.json")
        )
        ops.append(
            {
                "name": exp["name"],
                "code": code,
                "error": error,
                "wall": wall,
                "cpu": cpu,
                "digest": _digest(csv) if outputs_present else None,
            }
        )
    return {
        "wall": sum(op["wall"] for op in ops),
        "cpu": sum(op["cpu"] for op in ops),
        "ops": ops,
    }


def _dual_artifact(path, genx, geny, mx, my, pair, **extra):
    np.savez(
        path,
        x=pair.x,
        psi=pair.psi,
        y=pair.y,
        psi_tilde=pair.psi_tilde,
        mx_support=mx.support,
        mx_weights=mx.weights,
        my_support=my.support,
        my_weights=my.weights,
        states_x=genx.states,
        states_y=geny.states,
        **extra,
    )


def _identity_artifact(wflow, opts, path):
    from wflow.birth_death import mm_infty

    gens = []
    for key in ("x", "y"):
        spec = opts[key]["mm_infty"]
        gens.append(mm_infty(spec["birth"], spec["death"], spec["n_top"]).to_generator())
    p0 = [wflow.DiscreteMeasure([opts[k]["dirac"]], [1.0]) for k in ("p0_x", "p0_y")]
    mx = wflow.uniformized_marginal(gens[0], p0[0], opts["horizon"], tol=1e-12)
    my = wflow.uniformized_marginal(gens[1], p0[1], opts["horizon"], tol=1e-12)
    pair = wflow.potentials(mx, my, opts["rho"])
    _dual_artifact(path, gens[0], gens[1], mx, my, pair)


def _pdmp_artifact(wflow, opts, path):
    """Final node of the fastest chain on a grid of the configured size."""
    from wflow import pdmp

    spec = pdmp.PdmpSpec.from_dict(opts["x"])
    t = opts["horizon"]
    lam_t = spec.intensity_bound * t
    reach = spec.drift_bound * t + spec.jump_bound * (lam_t + 10.0 * lam_t**0.5 + 10.0)
    starts = opts["p0_x"]["support"] + opts["p0_y"]["support"]
    grid = np.linspace(min(starts) - reach, max(starts) + reach, opts["grid_nodes"])
    gen = pdmp.mu_generator(spec, max(opts["mu_list"]), grid).generator
    e0 = [
        pdmp.embed_on_grid(wflow.DiscreteMeasure(opts[k]["support"], opts[k]["weights"]), grid)
        for k in ("p0_x", "p0_y")
    ]
    mx = wflow.uniformized_marginal(gen, e0[0], t)
    my = wflow.uniformized_marginal(gen, e0[1], t)
    pair = wflow.potentials(mx, my, opts["rho"])
    kernel = gen.kernel.tocsr()
    _dual_artifact(
        path,
        gen,
        gen,
        mx,
        my,
        pair,
        lam=gen.lam,
        kernel_data=kernel.data,
        kernel_indices=kernel.indices,
        kernel_indptr=kernel.indptr,
        e0x_support=e0[0].support,
        e0x_weights=e0[0].weights,
        e0y_support=e0[1].support,
        e0y_weights=e0[1].weights,
    )


ARTIFACTS = {"identity": _identity_artifact, "pdmp-approx": _pdmp_artifact}


def _layer_metrics(spans, plan, rounds):
    """Per-layer metrics of a traced run, plus set-up, output and overhead."""
    from spans import layer_metrics

    layers = layer_metrics([s for s in spans if s["op"] is not None], len(rounds))
    load = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.load_config")
    layers["cli.load_config.s"] = {"value": load, "unit": "s"}
    written = sum(
        os.path.getsize(os.path.join(exp["out"], name))
        for exp in plan["experiments"]
        for name in os.listdir(exp["out"])
    )
    layers["cli.output.bytes"] = {"value": written, "unit": "bytes"}
    # the same median as run_s, with tracing on: the gap is the tracing overhead
    layers["trace.run_s"] = {
        "value": float(np.median([r["wall"] for r in rounds])),
        "unit": "s",
    }
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)

    wflow = _import_wflow(plan["root"])
    from wflow import cli

    caches = _lru_caches()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    configs = [
        cli.load_config(exp["config"], exp["kind"], out_dir=exp["out"])
        for exp in plan["experiments"]
    ]
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            for cache in caches:  # every CLI call starts with cold caches
                cache.cache_clear()
            rounds.append(_run_round(cli, plan, configs, tracer, len(rounds)))
        result["rounds"] = rounds
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write(os.path.join(plan["out"], "spans.jsonl"))
            result["layers"] = _layer_metrics(tracer.spans, plan, rounds)
        artifacts = {}
        for exp in plan["experiments"]:
            build = ARTIFACTS.get(exp["kind"])
            if build is None:
                continue
            path = os.path.join(exp["out"], "final_node.npz")
            try:
                build(wflow, exp["options"], path)
                artifacts[exp["name"]] = {"path": path}
            except Exception:
                artifacts[exp["name"]] = {"error": traceback.format_exc(limit=3)}
        result["artifacts"] = artifacts
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
