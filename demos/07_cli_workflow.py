"""
Running experiments from config files
=====================================

Each experiment is one YAML file; the runner writes a CSV with the full
curves and a summary.json with the headline numbers.  Identical config and
seed reproduce the CSV byte for byte.  The same flow is available from the
shell as `wflow <kind> --config <path> [--out <dir>] [--seed <n>]`.
"""

import json
import pathlib
import tempfile

from wflow import cli

CONFIG = """\
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

with tempfile.TemporaryDirectory(prefix="wflow-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    config_path = workdir / "contraction.yaml"
    config_path.write_text(CONFIG)

    config = cli.load_config(config_path, "bd-contraction", out_dir=str(workdir / "out"))
    code = cli.run(config)
    print("exit code:", code)

    summary = json.loads((workdir / "out" / "summary.json").read_text())
    print("summary:", {k: summary[k] for k in ("kind", "max_residual", "violations")})

    csv_lines = (workdir / "out" / "bd-contraction.csv").read_text().splitlines()
    print("csv header:", csv_lines[0])
    print("rows:", len(csv_lines) - 1)

    # a config error comes back as exit code 2 with a line-anchored message
    bad = workdir / "bad.yaml"
    bad.write_text(CONFIG.replace("rho: 2.0", "rho: 0.25"))
    code = cli.main(["bd-contraction", "--config", str(bad), "--out", str(workdir / "o2")])
    print("exit code for rho below 1:", code)
