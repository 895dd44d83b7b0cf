"""The public surface: every export resolves, and the traced methods stay put."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import wflow
from wflow.transport import PotentialPair

MODULES = ("measures", "transport", "jump_process", "evolution", "birth_death", "pdmp", "cli")


@pytest.mark.parametrize("short", MODULES)
def test_module_exports_resolve(short):
    module = importlib.import_module(f"wflow.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_resolve():
    missing = [name for name in wflow.__all__ if not hasattr(wflow, name)]
    assert missing == []
    assert len(set(wflow.__all__)) == len(wflow.__all__)


def test_potential_pair_defines_its_evaluators_on_the_class():
    # a benchmark tracer wraps these by class attribute; a subclass override
    # or an instance-level evaluator would escape it
    for name in ("psi_at", "psi_tilde_at", "to_csv"):
        assert callable(vars(PotentialPair).get(name)), name
    assert {"x", "y"} <= set(PotentialPair.__dataclass_fields__)


@pytest.mark.parametrize(
    "qualname, names",
    [
        ("transport.potentials", ("m1", "m2")),
        ("jump_process.uniformized_marginal", ("gen", "t")),
        ("jump_process.simulate_paths", ("n_paths",)),
        ("pdmp.simulate_pdmp", ("n_paths",)),
        ("pdmp.simulate_chain", ("n_paths",)),
        ("pdmp.mu_generator", ("state_grid",)),
        ("pdmp.flow", ("x",)),
    ],
)
def test_traced_functions_keep_their_parameter_names(qualname, names):
    # a benchmark tracer binds each call's arguments and reads these by name
    short, attr = qualname.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"wflow.{short}"), attr)).parameters
    assert set(names) <= set(params), qualname


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only: a fresh interpreter that imports the CLI,
    # and with it every library module, must not load any part of it
    src = os.path.dirname(os.path.dirname(os.path.abspath(wflow.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys, wflow.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
