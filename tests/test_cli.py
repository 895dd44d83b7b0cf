"""Exit codes, file outputs, and reproducibility of the experiment runner."""

import json
import subprocess
import sys

import pytest

from wflow import cli, jump_process, pdmp
from wflow.transport import IntegrationError

IDENTITY_EQUAL = """\
kind: identity
rho: 2.0
horizon: 0.5
steps: 100
x:
  mm_infty: {birth: 1.0, death: 0.5, n_top: 30}
y:
  mm_infty: {birth: 1.0, death: 0.5, n_top: 30}
p0_x:
  dirac: 3.0
p0_y:
  dirac: 3.0
tolerances:
  residual: 1.0e-10
"""

BD_CONTRACTION = """\
kind: bd-contraction
chain:
  mm_infty: {birth: 1.0, death: 0.5, n_top: 40}
p0_x:
  dirac: 3.0
p0_y:
  dirac: 7.0
rho: 2.0
horizon: 1.0
steps: 200
tolerances:
  violation: 1.0e-8
"""

BAD_KERNEL = """\
kind: simulate
horizon: 1.0
n_paths: 100
seed: 7
generator:
  states: [0.0, 1.0]
  lam: [1.0, 1.0]
  kernel: [[0.0, 0.9], [1.0, 0.0]]
p0:
  dirac: 0.0
"""

SIMULATE = """\
kind: simulate
horizon: 1.0
n_paths: 20000
seed: 11
generator:
  mm_infty: {birth: 1.0, death: 0.5, n_top: 30}
p0:
  dirac: 2.0
confidence: 0.99
"""

PDMP_APPROX = """\
kind: pdmp-approx
x:
  drift: {name: neg_tanh}
  intensity: {const: 0.3}
  kernel: {name: shift, d: 0.5}
p0_x:
  support: [0.5, 1.0, 1.5]
  weights: [0.4, 0.3, 0.3]
p0_y:
  support: [-1.0, -0.4]
  weights: [0.5, 0.5]
rho: 2.0
horizon: 1.0
mu_list: [4, 8]
steps: 40
grid_nodes: 257
tolerances:
  identity_residual: 1.0e-2
"""

BOUNDS_GROWTH = """\
kind: bounds
family: growth-moment
generator:
  mm_infty: {birth: 1.0, death: 0.5, n_top: 40}
p0:
  dirac: 3.0
horizon: 1.0
alpha_list: [1, 2, 3]
"""

BOUNDS_PROPAGATION = """\
kind: bounds
family: propagation
pdmp:
  drift: {name: neg_tanh}
  intensity: {const: 1.0}
  kernel: {name: shift, d: 0.5}
horizon: 1.0
mu: inf
n_paths: 200
seed: 3
q_list: [1.0, 2.0]
smoothing_eta: 1.0
"""

PDMP_SIMULATE = SIMULATE.replace("generator:", "mu: inf\npdmp:").replace(
    "  mm_infty: {birth: 1.0, death: 0.5, n_top: 30}",
    "  drift: {name: const, c: 0.5}\n  intensity: {const: 2.0}\n  kernel: {name: shift, d: 0.25}",
).replace("n_paths: 20000", "n_paths: 2000")

BOUNDS_BD_MOMENT = (
    BOUNDS_GROWTH.replace("growth-moment", "bd-moment")
    .replace("generator:", "chain:")
    .replace("alpha_list: [1, 2, 3]", "rho_list: [1.5, 2.0]")
)


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestExitCodes:
    def test_identity_equal_marginals_passes(self, tmp_path):
        cfg = write_config(tmp_path, IDENTITY_EQUAL)
        out = tmp_path / "out"
        code = cli.main(["identity", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["schema"] == 1
        assert summary["kind"] == "identity"
        assert summary["max_residual"] <= 1e-10
        assert summary["bounds_checked"] == 100  # every node with t > 0
        assert summary["violations"] == 0
        assert summary["runtime_seconds"] > 0
        assert (out / "identity.csv").exists()

    def test_bd_contraction_violation_column(self, tmp_path):
        cfg = write_config(tmp_path, BD_CONTRACTION)
        out = tmp_path / "out"
        code = cli.main(["bd-contraction", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "bd-contraction.csv")
        assert len(rows) == 201
        assert max(float(r["violation"]) for r in rows) <= 1e-8

    def test_invalid_kernel_is_config_error_with_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BAD_KERNEL)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + BAD_KERNEL.splitlines().index("generator:")
        assert err.startswith(f"{cfg}:{line}:")
        assert "kernel rows" in err

    def test_generator_without_kernel_is_config_error_with_line(self, tmp_path, capsys):
        text = BAD_KERNEL.replace("  kernel: [[0.0, 0.9], [1.0, 0.0]]\n", "")
        assert "kernel" not in text
        cfg = write_config(tmp_path, text)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index("generator:")
        assert err.startswith(f"{cfg}:{line}:")
        assert "'kernel'" in err

    def test_rounding_loss_is_numerical_failure(self, tmp_path, capsys):
        # lambda_bar * horizon = 2e4 clock events in one panel, on rows that
        # each gain 9e-13 (inside the generator's 1e-12 row check): the
        # marginal's mass moves past its 2e-12 tolerance
        text = (
            "kind: bounds\n"
            "family: growth-moment\n"
            "generator:\n"
            "  states: [0.0, 1.0]\n"
            "  lam: [1.0, 1.0]\n"
            "  kernel: [[0.0, 1.0000000000009], [1.0000000000009, 0.0]]\n"
            "p0:\n"
            "  dirac: 0.0\n"
            "horizon: 20000.0\n"
            "alpha_list: [2.0]\n"
        )
        cfg = write_config(tmp_path, text)
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: marginal at t=20000.0 sums to")
        assert "Traceback" not in err

    def test_tolerance_violation_exits_nonzero(self, tmp_path):
        text = BD_CONTRACTION.replace("1.0e-8", "1.0e-30")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["bd-contraction", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert read_summary(out)["violations"] == 1

    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, IDENTITY_EQUAL)
        config = cli.load_config(cfg, "identity", out_dir=str(tmp_path / "o"))

        def boom(config, out_dir, started):
            raise IntegrationError("dual check failed")

        monkeypatch.setitem(cli._RUNNERS, "identity", boom)
        assert cli.run(config) == 3

    def test_runtime_error_exits_three(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, IDENTITY_EQUAL)
        config = cli.load_config(cfg, "identity", out_dir=str(tmp_path / "o"))
        monkeypatch.setitem(
            cli._RUNNERS,
            "identity",
            lambda *a: (_ for _ in ()).throw(RuntimeError("diverged")),
        )
        assert cli.run(config) == 3

    def test_exp_overflow_is_numerical_failure(self, tmp_path, capsys):
        # lambda_bar * horizon = 400 * 2 overflows exp in the growth bound
        text = BOUNDS_GROWTH.replace("n_top: 40", "n_top: 400").replace(
            "birth: 1.0, death: 0.5", "birth: 1.0, death: 1.0"
        ).replace("horizon: 1.0", "horizon: 2.0")
        cfg = write_config(tmp_path, text)
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_bound_is_a_violation(self, tmp_path, capsys):
        # the state 1e200 overflows the growth bound to NaN: a numerical failure
        text = BOUNDS_GROWTH.replace(
            "  mm_infty: {birth: 1.0, death: 0.5, n_top: 40}",
            "  states: [0.0, 1.0e200]\n  lam: [1.0, 1.0]\n  kernel: [[0.0, 1.0], [1.0, 0.0]]",
        ).replace("dirac: 3.0", "dirac: 0.0").replace("[1, 2, 3]", "[2]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert read_rows(out / "bounds.csv")[0]["violation"] == "nan"

    def test_kind_mismatch_anchored_to_kind_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, IDENTITY_EQUAL)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"{cfg}:1:")

    def test_yaml_syntax_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind: identity\n  bad: [unclosed\n")
        code = cli.main(["identity", "--config", str(cfg)])
        assert code == 2
        assert "YAML" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["identity", "--config", str(tmp_path / "absent.yaml")])
        assert code == 2

    def test_nonpositive_tolerance_rejected(self, tmp_path, capsys):
        text = IDENTITY_EQUAL.replace("1.0e-10", "-1.0")
        cfg = write_config(tmp_path, text)
        code = cli.main(["identity", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index("tolerances:")
        assert err.startswith(f"{cfg}:{line}:")

    def test_nan_weight_is_config_error_with_line(self, tmp_path, capsys):
        # YAML's .nan parses to a float NaN that no comparison check catches
        text = SIMULATE.replace(
            "p0:\n  dirac: 2.0", "p0:\n  support: [1.0, 2.0]\n  weights: [.nan, 0.5]"
        )
        assert ".nan" in text
        cfg = write_config(tmp_path, text)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index("p0:")
        assert err.startswith(f"{cfg}:{line}:")
        assert "finite" in err

    def test_nan_jump_bound_is_config_error_with_line(self, tmp_path, capsys):
        text = PDMP_APPROX.replace("{name: shift, d: 0.5}", "{name: shift, d: .nan}")
        assert ".nan" in text
        cfg = write_config(tmp_path, text)
        code = cli.main(["pdmp-approx", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index("x:")
        assert err.startswith(f"{cfg}:{line}:")
        assert "finite" in err

    def test_shift_bound_key_is_config_error_with_line(self, tmp_path, capsys):
        # the shift law's bound is |d|: a bound key would not be read, so it
        # is an error rather than a silent change of meaning
        text = PDMP_APPROX.replace("{name: shift, d: 0.5}", "{name: shift, d: 0.5, m: 0.8}")
        cfg = write_config(tmp_path, text)
        code = cli.main(["pdmp-approx", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index("x:")
        assert err.startswith(f"{cfg}:{line}:")
        assert "unknown key m" in err

    def test_overflowing_clock_mean_is_numerical_failure(self, tmp_path, capsys):
        # lambda_bar * t overflows a double at the late nodes of a 1e307 horizon
        text = BD_CONTRACTION.replace("horizon: 1.0", "horizon: 1.0e307")
        cfg = write_config(tmp_path, text)
        code = cli.main(["bd-contraction", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: clock mean lambda_bar t at t=")
        assert "Traceback" not in err

    def test_overflowing_constant_is_numerical_failure(self, tmp_path, capsys):
        text = BD_CONTRACTION.replace("rho: 2.0", "rho: 1000")
        cfg = write_config(tmp_path, text)
        code = cli.main(["bd-contraction", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "rho = 1000" in err

    @pytest.mark.parametrize(
        "key, text, value",
        [
            ("alpha_list", BOUNDS_GROWTH, "2.0"),
            ("alpha_list", BOUNDS_GROWTH, "[1, 0.5]"),
            ("alpha_list", BOUNDS_GROWTH, "[1, .nan]"),
            ("q_list", BOUNDS_PROPAGATION, "2.0"),
            ("q_list", BOUNDS_PROPAGATION, "[1.0, 0.0]"),
            ("q_list", BOUNDS_PROPAGATION, "[1.0, .nan]"),
        ],
    )
    def test_bad_bounds_list_is_config_error_with_line(self, tmp_path, capsys, key, text, value):
        old = next(line for line in text.splitlines() if line.startswith(f"{key}:"))
        text = text.replace(old, f"{key}: {value}")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(f"{key}: {value}")
        assert err.startswith(f"{cfg}:{line}: {key}")
        assert not (out / "bounds.csv").exists()

    @pytest.mark.parametrize("kind", ["simulate", "bounds"])
    @pytest.mark.parametrize("value", ["0.5", ".nan", "-.inf", "fast"])
    def test_bad_mu_is_config_error_with_line(self, tmp_path, capsys, kind, value):
        if kind == "simulate":
            text = SIMULATE.replace("generator:", f"mu: {value}\npdmp:").replace(
                "  mm_infty: {birth: 1.0, death: 0.5, n_top: 30}",
                "  drift: {name: neg_tanh}\n  intensity: {const: 0.3}\n"
                "  kernel: {name: shift, d: 0.5}",
            )
        else:
            text = BOUNDS_PROPAGATION.replace("mu: inf", f"mu: {value}")
        cfg = write_config(tmp_path, text)
        code = cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(f"mu: {value}")
        assert err.startswith(f"{cfg}:{line}: mu:")

    def test_rho_below_one_rejected(self, tmp_path, capsys):
        text = IDENTITY_EQUAL.replace("rho: 2.0", "rho: 0.5")
        cfg = write_config(tmp_path, text)
        code = cli.main(["identity", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_rho_is_config_error_with_line(self, tmp_path, capsys, value):
        text = BD_CONTRACTION.replace("rho: 2.0", f"rho: {value}")
        cfg = write_config(tmp_path, text)
        code = cli.main(["bd-contraction", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(f"rho: {value}")
        assert err.startswith(f"{cfg}:{line}: rho:")
        assert "finite" in err

    @pytest.mark.parametrize("value", [".nan", ".inf", "0.5"])
    def test_bad_rho_list_entry_is_config_error_with_line(self, tmp_path, capsys, value):
        text = BOUNDS_BD_MOMENT.replace("[1.5, 2.0]", f"[1.5, {value}]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(f"rho_list: [1.5, {value}]")
        assert err.startswith(f"{cfg}:{line}: rho_list:")
        assert not (out / "bounds.csv").exists()

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("identity", "steps", "1"),
            ("identity", "steps", "100.0"),
            ("bd-contraction", "steps", "0"),
            ("bd-contraction", "steps", "true"),
            ("pdmp-approx", "rho", "1.0"),
            ("pdmp-approx", "steps", "1"),
            ("pdmp-approx", "grid_nodes", "257.9"),
            ("pdmp-approx", "grid_nodes", "1"),
            ("pdmp-approx", "mu_list", "[4, .nan]"),
            ("pdmp-approx", "mu_list", "[0.5, 8]"),
            ("pdmp-approx", "mu_list", "4"),
            ("simulate", "n_paths", "0"),
            ("simulate", "n_paths", "100.5"),
            ("simulate", "confidence", "high"),
            ("bounds", "n_paths", "true"),
            ("bounds", "c0", ".nan"),
            ("bounds", "c0", "0.5"),
            ("bounds", "C0", "0"),
            ("bounds", "C0", ".inf"),
            ("bounds", "smoothing_eta", "0"),
            ("bounds", "smoothing_eta", ".nan"),
        ],
    )
    def test_bad_count_or_constant_is_config_error_with_line(
        self, tmp_path, capsys, kind, key, value
    ):
        # counts are integers (not bools) with a floor; constants are finite
        # numbers in range; each failure names its own line
        text = {
            "identity": IDENTITY_EQUAL,
            "bd-contraction": BD_CONTRACTION,
            "pdmp-approx": PDMP_APPROX,
            "simulate": SIMULATE,
            "bounds": BOUNDS_PROPAGATION,
        }[kind]
        old = next((line for line in text.splitlines() if line.startswith(f"{key}:")), None)
        text = text.replace(old, f"{key}: {value}") if old else text + f"{key}: {value}\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main([kind, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(f"{key}: {value}")
        assert err.startswith(f"{cfg}:{line}: {key}")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "first, second",
        [("smoothing_eta: 1.0", "C0: 2.0"), ("C0: 2.0", "smoothing_eta: 1.0")],
        ids=["C0-second", "smoothing_eta-second"],
    )
    def test_c0_with_smoothing_eta_is_config_error_at_the_second(
        self, tmp_path, capsys, first, second
    ):
        # smoothing_eta sets C0 = 1/smoothing_eta, so the two together give one
        # constant two values; neither is dropped in silence
        text = BOUNDS_PROPAGATION.replace("smoothing_eta: 1.0\n", f"{first}\n{second}\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(second)
        key = second.split(":")[0]
        assert err.startswith(f"{cfg}:{line}: {key}: give C0 or smoothing_eta, not both")
        assert not (out / "summary.json").exists()

    def test_overflowing_moment_bound_names_its_row(self, tmp_path, capsys):
        # exp(C_2 * growth_c * horizon) = exp(3 * 20 * 90.9) overflows a double
        text = (
            BOUNDS_BD_MOMENT.replace("1.0, death: 0.5, n_top: 40", "20.0, death: 1.0, n_top: 200")
            .replace("horizon: 1.0", "horizon: 90.9090909")
            .replace("[1.5, 2.0]", "[2.0]")
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: bound bd_moment_rho_2.0 is not finite")
        assert "rhs inf" in err
        (row,) = read_rows(out / "bounds.csv")
        assert row["name"] == "bd_moment_rho_2.0" and row["rhs"] == "inf"

    def test_missing_seed_for_sampling(self, tmp_path, capsys):
        text = SIMULATE.replace("seed: 11\n", "")
        cfg = write_config(tmp_path, text)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed_line, flag",
        [
            ("seed: 1.5", []),
            ("seed: 11", ["--seed", "-5"]),
            ("seed: 18446744073709551616", []),
            ("seed: abc", []),
            ("seed: true", []),
        ],
        ids=["float", "negative-flag", "too-large", "string", "bool"],
    )
    def test_bad_seed_is_config_error_with_line(self, tmp_path, capsys, seed_line, flag):
        text = SIMULATE.replace("seed: 11", seed_line)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out), *flag])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(seed_line)
        assert err.startswith(f"{cfg}:{line}:")
        assert "seed must be an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, text, extra",
        [
            # a misspelled tolerances section would otherwise check nothing
            ("identity", IDENTITY_EQUAL.replace("tolerances:\n  residual: 1.0e-10\n", ""),
             "tolerance: {residual: 1.0e-30}"),
            ("bd-contraction", BD_CONTRACTION, "mu: 4.0"),
            # the study runs no Monte Carlo, so it reads no path count
            ("pdmp-approx", PDMP_APPROX, "n_paths: 300"),
            # mu is read only with a pdmp section, tolerances by no simulate run
            ("simulate", SIMULATE, "mu: 8.0"),
            ("simulate", PDMP_SIMULATE, "tolerances: {residual: 0.1}"),
            ("simulate", PDMP_SIMULATE, "generator: {mm_infty: {birth: 1, death: 1, n_top: 9}}"),
            ("bounds", BOUNDS_BD_MOMENT, "alpha_list: [1.0]"),
            ("bounds", BOUNDS_GROWTH, "chain: {mm_infty: {birth: 1.0, death: 0.5, n_top: 40}}"),
            ("bounds", BOUNDS_PROPAGATION, "p0: {dirac: 1.0}"),
        ],
        ids=["identity", "bd-contraction", "pdmp-approx", "simulate-generator",
             "simulate-pdmp", "simulate-both", "bd-moment", "growth-moment", "propagation"],
    )
    def test_unread_key_is_config_error_with_line(self, tmp_path, capsys, kind, text, extra):
        # each kind (and bounds family) lists the keys it reads; any other
        # key fails closed at its own line, before anything runs
        text = text + extra + "\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main([kind, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        key = extra.split(":")[0]
        line = 1 + text.splitlines().index(extra)
        assert err.startswith(f"{cfg}:{line}: {key}: not a key that {kind}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, text, old, new, anchor",
        [
            ("identity", IDENTITY_EQUAL, "  residual: 1.0e-10", "  violation: 1.0e-10",
             "  violation: 1.0e-10"),
            ("bd-contraction", BD_CONTRACTION, "tolerances:\n  violation: 1.0e-8",
             "tolerances: {residual: 1.0e-8}", "tolerances: {residual: 1.0e-8}"),
            ("pdmp-approx", PDMP_APPROX, "  identity_residual: 1.0e-2",
             "  identity_residual: 1.0e-2\n  residual: 1.0e-2", "  residual: 1.0e-2"),
            ("bounds", BOUNDS_GROWTH, "alpha_list: [1, 2, 3]",
             "alpha_list: [1, 2, 3]\ntolerances:\n  residual: 0.1", "  residual: 0.1"),
        ],
    )
    def test_unchecked_tolerance_is_config_error_with_line(
        self, tmp_path, capsys, kind, text, old, new, anchor
    ):
        # a tolerance the kind does not check is an error at its own line, or
        # at the tolerances line when the section is written on one line
        text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        code = cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(anchor)
        assert err.startswith(f"{cfg}:{line}: tolerances: {kind}")
        assert "checks no tolerance" in err

    def test_missing_bounds_family(self, tmp_path, capsys):
        text = BOUNDS_GROWTH.replace("family: growth-moment\n", "")
        cfg = write_config(tmp_path, text)
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "missing required key 'family'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "0", "high"])
    def test_pdmp_simulate_range_checks_confidence(self, tmp_path, capsys, value):
        # no law is checked on this branch yet, but its confidence is read
        text = PDMP_SIMULATE.replace("confidence: 0.99", f"confidence: {value}")
        cfg = write_config(tmp_path, text)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        line = 1 + text.splitlines().index(f"confidence: {value}")
        assert err.startswith(f"{cfg}:{line}: confidence:")

    def test_unknown_bounds_family(self, tmp_path, capsys):
        text = BOUNDS_GROWTH.replace("growth-moment", "mystery")
        cfg = write_config(tmp_path, text)
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_unknown_kind_rejected_by_parser(self, tmp_path):
        cfg = write_config(tmp_path, IDENTITY_EQUAL)
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectral", "--config", str(cfg)])
        assert exc.value.code == 2


class TestReproducibility:
    def test_simulate_csv_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
            assert code == 0
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE)
        base = tmp_path / "base"
        cli.main(["simulate", "--config", str(cfg), "--out", str(base)])
        same = tmp_path / "same"
        cli.main(["simulate", "--config", str(cfg), "--out", str(same), "--seed", "11"])
        other = tmp_path / "other"
        cli.main(["simulate", "--config", str(cfg), "--out", str(other), "--seed", "12"])
        base_csv = (base / "simulate.csv").read_bytes()
        assert base_csv == (same / "simulate.csv").read_bytes()
        assert base_csv != (other / "simulate.csv").read_bytes()


class TestRunners:
    def test_simulate_gap_within_envelope(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["violations"] == 0
        assert summary["max_residual"] > 0
        assert summary["certified"] is True
        rows = read_rows(out / "simulate.csv")
        assert abs(sum(float(r["weight"]) for r in rows) - 1.0) < 1e-12

    def test_simulate_finite_mu_chain(self, tmp_path):
        text = SIMULATE.replace("generator:", "mu: 16\npdmp:").replace(
            "  mm_infty: {birth: 1.0, death: 0.5, n_top: 30}",
            "  drift: {name: neg_tanh}\n  intensity: {const: 0.3}\n"
            "  kernel: {name: shift, d: 0.5}",
        ).replace("n_paths: 20000", "n_paths: 2000")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "simulate.csv").exists()
        assert read_summary(out)["certified"] is False

    def test_simulate_flow_with_jumps_is_uncertified(self, tmp_path):
        # no exact law is checked against the paths: the summary says so
        cfg = write_config(tmp_path, PDMP_SIMULATE)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["certified"] is False
        assert summary["bounds_checked"] == 0

    def test_pdmp_approx_without_sampling_needs_no_seed(self, tmp_path):
        cfg = write_config(tmp_path, PDMP_APPROX)
        out = tmp_path / "out"
        code = cli.main(["pdmp-approx", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "pdmp-approx.csv")
        assert [float(r["mu"]) for r in rows] == [4.0, 8.0]
        assert all(float(r["identity_residual"]) <= 1e-2 for r in rows)

    def test_bounds_growth_moment(self, tmp_path):
        cfg = write_config(tmp_path, BOUNDS_GROWTH)
        out = tmp_path / "out"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "bounds.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row["lhs"]) <= float(row["rhs"])
            assert float(row["violation"]) == 0.0

    def test_bounds_propagation(self, tmp_path):
        cfg = write_config(tmp_path, BOUNDS_PROPAGATION)
        out = tmp_path / "out"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        names = [row["name"] for row in read_rows(out / "bounds.csv")]
        assert names == [
            "displacement_moment_q_1.0",
            "tail_ratio_q_1.0",
            "displacement_moment_q_2.0",
            "tail_ratio_q_2.0",
        ]

    @pytest.mark.parametrize("text", [BOUNDS_BD_MOMENT, BOUNDS_GROWTH], ids=["bd", "growth"])
    def test_bounds_solve_one_law(self, tmp_path, monkeypatch, text):
        # every entry of rho_list / alpha_list reads one solved marginal
        ticked = []
        real = jump_process._clock_sums

        def counted(tick, u, windows):
            ticked.append(len(windows))
            return real(tick, u, windows)

        monkeypatch.setattr(jump_process, "_clock_sums", counted)
        cfg = write_config(tmp_path, text)
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert ticked == [1]

    def test_propagation_simulates_one_pair(self, tmp_path, monkeypatch):
        # every entry of q_list reads one simulation pair and one tail probe
        runs = []
        real = pdmp._thinning

        def counted(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pdmp, "_thinning", counted)
        cfg = write_config(tmp_path, BOUNDS_PROPAGATION.replace("[1.0, 2.0]", "[1.0, 2.0, 3.0]"))
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(runs) == 2
        tails = {row["lhs"] for row in read_rows(out / "bounds.csv") if "tail" in row["name"]}
        assert len(tails) == 1

    def test_bounds_bd_moment(self, tmp_path):
        cfg = write_config(tmp_path, BOUNDS_BD_MOMENT)
        out = tmp_path / "out"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["bounds_checked"] == 2
        assert summary["violations"] == 0

    def test_console_script_runs(self, tmp_path):
        cfg = write_config(tmp_path, IDENTITY_EQUAL)
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "wflow.cli",
                "identity",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (out / "summary.json").exists()
