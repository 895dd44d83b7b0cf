"""Batch experiment runner: config in, CSV + JSON summary out.

One experiment per config file.  Every run writes the module report as CSV
next to a ``summary.json`` carrying ``schema: 1`` and the headline numbers;
a ``simulate`` run also writes ``certified``, false for a flow-with-jumps
process, whose paths are not checked against an exact law.  The exit code is
0 exactly when no configured tolerance was violated, 1 when a configured
tolerance was violated, including a NaN residual (a check passes only if
``value <= limit`` holds), 2 on an invalid config (message anchored to the
offending line), and 3 when the numerics themselves fail, including a
``bounds`` row with a non-finite side (its ``bounds.csv`` is still
written).  All randomness comes from explicit seeds, so identical config and
seed reproduce the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass

import numpy as np
import yaml

from wflow.birth_death import BirthDeathSpec, contraction_report, mm_infty, moment_bound
from wflow.evolution import verify_identity
from wflow.jump_process import (
    JumpGeneratorSpec,
    moment_growth_bound,
    simulate_paths,
    uniformized_marginal,
)
from wflow.measures import (
    CoverageError,
    DiscreteMeasure,
    UnboundableError,
    measure_to_csv,
    write_table,
)
from wflow.pdmp import (
    PdmpSpec,
    mu_convergence_study,
    propagation_check,
    simulate_chain,
    simulate_pdmp,
)
from wflow.transport import IntegrationError, wasserstein

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run", "main"]

KINDS = ("identity", "bd-contraction", "pdmp-approx", "simulate", "bounds")


class ConfigError(ValueError):
    """Invalid experiment config; ``key`` anchors the message to a line."""

    def __init__(self, message, key=None, text=""):
        super().__init__(message)
        self.key = key
        self.text = text


@dataclass
class ExperimentConfig:
    """One parsed experiment: kind, raw options, and output destination."""

    kind: str
    options: dict
    out_dir: str
    seed: int | None
    source_path: str = "<config>"
    source_text: str = ""

    def __post_init__(self):
        text = self.source_text
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}", key="kind", text=text
            )
        for name, value in self.tolerances.items():
            try:
                ok = float(value) > 0
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ConfigError(
                    f"tolerance {name!r} must be a positive number",
                    key="tolerances",
                    text=text,
                )
        if self.options.get("rho") is not None:
            _power(self.options["rho"], "rho", text)

    @property
    def tolerances(self):
        tol = self.options.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ConfigError(
                "tolerances must be a mapping", key="tolerances", text=self.source_text
            )
        return tol


def _number(value, key, rule, ok, text=""):
    """``value`` as a float; a ``ConfigError`` at ``key`` naming ``rule`` unless ``ok``."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not ok(number):
        raise ConfigError(f"{key}: {value!r} is not {rule}", key=key, text=text)
    return number


def _power(value, key, text=""):
    """A configured power rho: a finite number, at least 1."""
    return _number(value, key, "a finite number >= 1", lambda v: math.isfinite(v) and v >= 1, text)


def _finite_positive(value, key):
    return _number(value, key, "a finite number > 0", lambda v: math.isfinite(v) and v > 0)


def _entries(options, key, read):
    """``(raw, value)`` per entry of the list ``options[key]``, each read by ``read``."""
    values = _need(options, key)
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list", key=key)
    return [(raw, read(raw, key)) for raw in values]


def _speed(options):
    """``mu``: ``inf`` (the default: the process itself) or a chain speed >= 1."""
    return _number(options.get("mu", "inf"), "mu", "inf or a finite number >= 1", lambda v: v >= 1)


def _key_line(text, key):
    """1-based line of the first occurrence of a top-level-ish config key."""
    if key:
        pattern = re.compile(rf"^\s*{re.escape(key)}\s*:")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if pattern.match(line):
                return lineno
    return 1


def _need(options, key):
    if key not in options:
        raise ConfigError(f"missing required key {key!r}", key=key)
    return options[key]


def _positive(options, key):
    return _finite_positive(_need(options, key), key)


def _tolerance(config, name):
    value = config.tolerances.get(name)
    return None if value is None else float(value)


def _measure_from(options, key):
    section = _need(options, key)
    try:
        if isinstance(section, dict) and "dirac" in section:
            return DiscreteMeasure([float(section["dirac"])], [1.0])
        return DiscreteMeasure(section["support"], section["weights"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid measure under {key!r}: {exc}", key=key)


def _bd_from(options, key):
    section = _need(options, key)
    try:
        if "mm_infty" in section:
            inner = section["mm_infty"]
            return mm_infty(
                float(inner["birth"]), float(inner["death"]), int(inner["n_top"])
            )
        return BirthDeathSpec(section["eta"], section["nu"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid birth-death spec under {key!r}: {exc}", key=key)


def _generator_from(options, key):
    section = _need(options, key)
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a mapping", key=key)
    try:
        if "mm_infty" in section or "eta" in section:
            return _bd_from(options, key).to_generator()
        return JumpGeneratorSpec(
            section["states"], section["lam"], np.asarray(section["kernel"], float)
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid generator under {key!r}: {exc}", key=key)


def _pdmp_from(options, key):
    try:
        return PdmpSpec.from_dict(_need(options, key))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid process spec under {key!r}: {exc}", key=key)


def _seed_of(config):
    if config.seed is None:
        raise ConfigError("this experiment consumes randomness: set a seed", key="seed")
    return config.seed


def _summary(out_dir, kind, max_residual, bounds_checked, violations, started, certified=None):
    payload = {
        "schema": 1,
        "kind": kind,
        "max_residual": max_residual,
        "bounds_checked": bounds_checked,
        "violations": violations,
        "runtime_seconds": time.time() - started,
    }
    if certified is not None:  # only simulate runs say whether a law was checked
        payload["certified"] = certified
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return violations == 0


def _run_identity(config, out_dir, started):
    opts = config.options
    rho = float(_need(opts, "rho"))
    if rho <= 1.0:
        raise ConfigError("identity experiments need rho > 1", key="rho")
    horizon = _positive(opts, "horizon")
    steps = int(_need(opts, "steps"))
    gen_x = _generator_from(opts, "x")
    gen_y = _generator_from(opts, "y")
    p0_x = _measure_from(opts, "p0_x")
    p0_y = _measure_from(opts, "p0_y")
    report = verify_identity(gen_x, gen_y, p0_x, p0_y, rho, horizon, steps)
    report.to_csv(os.path.join(out_dir, "identity.csv"))
    tol = _tolerance(config, "residual")
    checked = int(report.residual.size - report.flagged_count)
    violations = int(tol is not None and not report.max_residual <= tol)
    return _summary(
        out_dir, config.kind, report.max_residual, checked, violations, started
    )


def _run_bd_contraction(config, out_dir, started):
    opts = config.options
    bd = _bd_from(opts, "chain")
    p0_x = _measure_from(opts, "p0_x")
    p0_y = _measure_from(opts, "p0_y")
    rho = float(_need(opts, "rho"))
    horizon = _positive(opts, "horizon")
    steps = int(_need(opts, "steps"))
    report = contraction_report(bd, p0_x, p0_y, rho, horizon, steps)
    report.to_csv(os.path.join(out_dir, "bd-contraction.csv"))
    curves = 1 + int(rho > 1.0) + int(report.iterated_bound is not None)
    checked = int(report.time_grid.size * curves)
    tol = _tolerance(config, "violation")
    violations = int(tol is not None and not report.max_violation <= tol)
    return _summary(
        out_dir, config.kind, float(report.max_violation), checked, violations, started
    )


def _run_pdmp_approx(config, out_dir, started):
    opts = config.options
    spec_x = _pdmp_from(opts, "x")
    spec_y = _pdmp_from(opts, "y") if "y" in opts else spec_x
    p0_x = _measure_from(opts, "p0_x")
    p0_y = _measure_from(opts, "p0_y")
    rho = float(_need(opts, "rho"))
    horizon = _positive(opts, "horizon")
    mu_list = [float(v) for v in _need(opts, "mu_list")]
    n_paths = int(opts.get("n_paths", 0))
    seed = _seed_of(config) if n_paths > 0 else 0
    report = mu_convergence_study(
        spec_x,
        spec_y,
        p0_x,
        p0_y,
        rho,
        horizon,
        mu_list,
        n_paths,
        seed,
        grid_nodes=int(opts.get("grid_nodes", 2049)),
        identity_steps=int(opts.get("steps", 200)),
    )
    report.to_csv(os.path.join(out_dir, "pdmp-approx.csv"))
    violations = 0
    tol = _tolerance(config, "identity_residual")
    if tol is not None:
        violations += int(np.sum(~(report.identity_residuals <= tol)))
    if not report.cauchy_decreasing_x:
        violations += 1
    if not report.cauchy_decreasing_y:
        violations += 1
    checked = len(mu_list) + 2 + max(len(mu_list) - 1, 0)
    max_residual = float(np.max(report.identity_residuals))
    return _summary(out_dir, config.kind, max_residual, checked, violations, started)


def _run_simulate(config, out_dir, started):
    opts = config.options
    horizon = _positive(opts, "horizon")
    n_paths = int(_need(opts, "n_paths"))
    seed = _seed_of(config)
    if "pdmp" in opts:
        spec = _pdmp_from(opts, "pdmp")
        p0 = _measure_from(opts, "p0")
        mu = _speed(opts)
        if math.isinf(mu):
            empirical = simulate_pdmp(spec, p0, horizon, n_paths, seed)
        else:
            empirical = simulate_chain(spec, p0, horizon, mu, n_paths, seed)
        measure_to_csv(empirical, os.path.join(out_dir, "simulate.csv"))
        # no exact law is compared against the paths here
        return _summary(out_dir, config.kind, None, 0, 0, started, certified=False)
    gen = _generator_from(opts, "generator")
    p0 = _measure_from(opts, "p0")
    empirical = simulate_paths(gen, p0, horizon, n_paths, seed)
    measure_to_csv(empirical, os.path.join(out_dir, "simulate.csv"))
    exact = uniformized_marginal(gen, p0, horizon)
    gap = wasserstein(empirical, exact, 1.0)
    confidence = float(opts.get("confidence", 0.99))
    if not 0.0 < confidence < 1.0:
        raise ConfigError("confidence must lie in (0, 1)", key="confidence")
    span = float(gen.states[-1] - gen.states[0])
    envelope = span * math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n_paths))
    violations = int(not gap <= envelope)
    return _summary(out_dir, config.kind, float(gap), 1, violations, started, certified=True)


def _bounds_rows(config):
    opts = config.options
    family = _need(opts, "family")
    rows = []
    if family == "bd-moment":
        bd = _bd_from(opts, "chain")
        p0 = _measure_from(opts, "p0")
        horizon = _positive(opts, "horizon")
        for name, rho in _entries(opts, "rho_list", _power):
            exact, bound = moment_bound(bd, p0, rho, horizon)
            rows.append((f"bd_moment_rho_{name}", exact, bound))
    elif family == "growth-moment":
        gen = _generator_from(opts, "generator")
        p0 = _measure_from(opts, "p0")
        horizon = _positive(opts, "horizon")
        for name, alpha in _entries(opts, "alpha_list", _power):
            exact, bound = moment_growth_bound(gen, p0, alpha, horizon)
            rows.append((f"growth_moment_alpha_{name}", exact, bound))
    elif family == "propagation":
        spec = _pdmp_from(opts, "pdmp")
        horizon = _positive(opts, "horizon")
        c0 = float(opts.get("c0", 1.0))
        eta = opts.get("smoothing_eta")
        big_c0 = float(opts.get("C0", 1.0 / float(eta) if eta else 1.0))
        mu = _speed(opts)
        n_paths = int(_need(opts, "n_paths"))
        seed = _seed_of(config)
        for name, q in _entries(opts, "q_list", _finite_positive):
            audit = propagation_check(spec, c0, big_c0, horizon, q, mu, n_paths, seed)
            rows.append(
                (f"displacement_moment_q_{name}", audit.moment_estimate, audit.moment_envelope)
            )
            rows.append((f"tail_ratio_q_{name}", audit.worst_tail_ratio, 1.0))
    else:
        raise ConfigError(f"unknown bounds family {family!r}", key="family")
    return rows


def _run_bounds(config, out_dir, started):
    rows = _bounds_rows(config)
    tol = _tolerance(config, "violation") or 0.0
    # np.maximum keeps a NaN excess, where the builtin max would drop it
    excess = [float(np.maximum(0.0, (lhs - rhs) / max(1.0, abs(rhs)))) for _, lhs, rhs in rows]
    columns = [[row[k] for row in rows] for k in range(3)] + [excess]
    write_table(os.path.join(out_dir, "bounds.csv"), "name,lhs,rhs,violation", columns)
    for name, lhs, rhs in rows:
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise FloatingPointError(f"bound {name} is not finite: lhs {lhs!r}, rhs {rhs!r}")
    worst = float(np.max(excess, initial=0.0))
    violations = sum(int(not e <= tol) for e in excess)
    return _summary(out_dir, config.kind, worst, len(rows), violations, started)


_RUNNERS = {
    "identity": _run_identity,
    "bd-contraction": _run_bd_contraction,
    "pdmp-approx": _run_pdmp_approx,
    "simulate": _run_simulate,
    "bounds": _run_bounds,
}


def run(config):
    """Execute one experiment; returns the process exit code (0, 1, 2, or 3)."""
    started = time.time()
    out_dir = config.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        passed = _RUNNERS[config.kind](config, out_dir, started)
        return 0 if passed else 1
    except (
        IntegrationError,
        CoverageError,
        UnboundableError,
        FloatingPointError,
        OverflowError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        line = _key_line(config.source_text, exc.key)
        print(f"{config.source_path}:{line}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{config.source_path}:1: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def load_config(path, kind, seed=None, out_dir=None):
    """Read a YAML experiment file into an ExperimentConfig."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        line = getattr(getattr(exc, "problem_mark", None), "line", 0) + 1
        raise ConfigError(f"not valid YAML at line {line}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    file_kind = raw.get("kind", kind)
    if file_kind != kind:
        raise ConfigError(
            f"config kind {file_kind!r} does not match requested {kind!r}",
            key="kind",
            text=text,
        )
    seed = seed if seed is not None else raw.get("seed")
    if seed is not None and (type(seed) is not int or not 0 <= seed < 2**64):  # bool is not int
        raise ConfigError(
            f"seed must be an integer in [0, 2**64), got {seed!r}", key="seed", text=text
        )
    config = ExperimentConfig(
        kind=kind,
        options=raw,
        out_dir=out_dir or raw.get("out", "wflow-out"),
        seed=seed,
        source_path=str(path),
        source_text=text,
    )
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wflow", description="run one configured experiment"
    )
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.kind, seed=args.seed, out_dir=args.out)
    except ConfigError as exc:
        print(f"{args.config}:{_key_line(exc.text, exc.key)}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{args.config}: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
