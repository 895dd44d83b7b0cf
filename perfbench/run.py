"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-approx --seed 1 --seconds 25 --trace 0

Makes the workload's configs from the seed, times set-up in separate
processes, runs whole rounds of the experiments in one worker process for
``--seconds``, checks every output against independent computations, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from a
traced worker.  Outputs and spans go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from workloads import OUTPUT_CSV, WORKLOADS, experiments

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3  # set-up is timed in this many processes, the median reported
DEADLINE_S = 170.0  # the whole run stays below three minutes


def _write_plan(workload, seed, out):
    plan = {"root": ROOT, "out": out, "experiments": []}
    os.makedirs(os.path.join(out, "configs"))
    for k, (name, options) in enumerate(experiments(workload, seed)):
        config = os.path.join(out, "configs", f"{k:02d}-{name}.yaml")
        with open(config, "w") as fh:  # JSON is valid YAML
            json.dump(options, fh, indent=2)
            fh.write("\n")
        plan["experiments"].append(
            {
                "name": name,
                "kind": options["kind"],
                "config": config,
                "out": os.path.join(out, "runs", f"{k:02d}-{name}"),
                "csv": OUTPUT_CSV[options["kind"]],
                "options": options,
            }
        )
    path = os.path.join(out, "plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh, indent=2)
    return plan, path


def _worker(plan_path, result, timeout, *extra):
    spawned = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--plan",
            plan_path,
            "--spawned",
            repr(spawned),
            "--result",
            result,
            *extra,
        ],
        cwd=ROOT,
        stdout=sys.stderr,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _count(plan, result):
    """(attempted, failed, problems) over every operation of every round."""
    artifacts = result.get("artifacts", {})
    problems = {}
    for exp in plan["experiments"]:
        art = artifacts.get(exp["name"], {})
        found = [f"artifact: {art['error']}"] if "error" in art else []
        found += checks.check(exp["options"], exp["out"], art.get("path"))
        problems[exp["name"]] = found
    attempted = failed = 0
    first = {op["name"]: op["digest"] for op in result["rounds"][0]["ops"]}
    for k, rnd in enumerate(result["rounds"]):
        for op in rnd["ops"]:
            attempted += 1
            why = list(problems[op["name"]])
            if op["code"] != 0:
                why.append(f"exit code {op['code']} {op['error'] or ''}".strip())
            if op["digest"] is None:
                why.append("missing output")
            elif op["digest"] != first[op["name"]]:
                why.append("CSV differs from the first round's")
            if why:
                failed += 1
                print(f"round {k} {op['name']}: FAILED: {'; '.join(why)}", file=sys.stderr)
    return attempted, failed, any(problems.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "wflow", "cli.py")):
        print(f"no wflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    out = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    plan, plan_path = _write_plan(args.workload, args.seed, out)

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                probe = os.path.join(out, f"setup-{k}.json")
                setups.append(_worker(plan_path, probe, remaining(), "--setup-only")["setup_s"])
        result = _worker(
            plan_path,
            os.path.join(out, "result.json"),
            remaining(),
            "--seconds",
            repr(args.seconds),
            "--trace",
            str(args.trace),
        )
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark did not run: {exc}", file=sys.stderr)
        return 2
    attempted, failed, wrong = _count(plan, result)
    rounds = result["rounds"]
    if args.trace:
        metrics = result["layers"]
    else:
        setups.append(result["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} rounds")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
