"""Every benchmark record at the repository root parses and names its machine.

A ``BENCH_*.json`` holds the before/after numbers a performance change
quotes; they mean little without the machine they were measured on, so each
record carries ``machine.nproc``, ``machine.python`` and ``machine.numpy``.
A record that claims a gain names it in ``claim.metric`` as a workload and
an end-to-end metric of ``BENCHMARK.json``, either ``chain-approx/run_s`` or
``birth-death run_s``.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def claimed_metric(path):
    """The record's ``claim.metric``, or None when it claims no metric."""
    claim = json.loads(path.read_text()).get("claim")
    return claim.get("metric") if isinstance(claim, dict) else None


CLAIMS = [p for p in RECORDS if claimed_metric(p) is not None]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_and_names_its_machine(path):
    record = json.loads(path.read_text())
    machine = record.get("machine")
    assert isinstance(machine, dict), f"{path.name} has no machine block"
    assert isinstance(machine.get("nproc"), int) and machine["nproc"] >= 1
    for key in ("python", "numpy"):
        assert isinstance(machine.get(key), str) and machine[key], f"{path.name}: machine.{key}"


@pytest.mark.parametrize("path", CLAIMS, ids=[p.name for p in CLAIMS])
def test_claim_names_a_workload_and_an_end_to_end_metric(path):
    metric = claimed_metric(path)
    parts = re.split(r"[/\s]+", metric.strip()) if isinstance(metric, str) else []
    assert len(parts) == 2, f"{path.name}: claim.metric {metric!r} is not '<workload>/<metric>'"
    workload, name = parts
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}, f"{path.name}: {workload!r}"
    assert name in {m["name"] for m in BENCHMARK["end_to_end"]}, f"{path.name}: {name!r}"
