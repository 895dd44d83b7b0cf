"""Every benchmark record at the repository root parses and names its machine.

A ``BENCH_*.json`` holds the before/after numbers a performance change
quotes; they mean little without the machine they were measured on, so each
record carries ``machine.nproc``, ``machine.python`` and ``machine.numpy``.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


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
