"""Command-line front end.

Subcommands
-----------
run          one Monte-Carlo point vs its closed form
sweep        cartesian grid over spreading factor / distance / receiver mode
papr         transmit-waveform peak-to-average ratios vs the analytic bounds
crossover    spreading-factor threshold where the correlated link wins
verify-dist  reference-distribution battery (normalization / moments / KS)

Configuration is a nested JSON document; every value can also be overridden
from the command line with --set key=value (dotted paths or the bare aliases
listed in ALIASES).  Precedence: built-in defaults < --config file <
CHAOSWPT_SEED environment variable < --set overrides.

Exit status: 0 success, 1 usage or configuration error, 2 tolerance
violation (verify-dist failures, sweep points that failed to run).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys

from .analytic import ClosedFormInputs, beta_crossover, z_with_correlator, z_without_correlator
from .channel import path_gain
from .distcheck import verify_distributions
from .harvester import EhCircuit, rho_params
from .montecarlo import RunConfig, measure_papr, run_once, sweep_beta

ENV_SEED = "CHAOSWPT_SEED"

DEFAULTS: dict = {
    "circuit": {
        "k2": 0.0034,
        "k4": 0.3829,
        "r_ant": 50.0,
        "p_t_dbm": 30.0,
        "p_t_watts": None,  # set to override p_t_dbm directly in watts
    },
    "channel": {"alpha": 4.0},
    "waveform": {"xi": 2},
    "run": {
        "beta": 10,
        "r": 20.0,
        "psi_mode": "full",
        "n_frames": 100_000,
        "seed": 42,
    },
    "sweep": {
        "betas": [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
        "distances": [20.0, 30.0],
        "modes": ["full", "bypass"],
    },
    "crossover": {"r_c": None, "r_nc": None},
    "verify": {"n_samples": 1_000_000},
}

#: bare --set shortcuts into the nested document
ALIASES = {
    "beta": ("run", "beta"),
    "r": ("run", "r"),
    "psi_mode": ("run", "psi_mode"),
    "n_frames": ("run", "n_frames"),
    "seed": ("run", "seed"),
    "alpha": ("channel", "alpha"),
    "xi": ("waveform", "xi"),
    "k2": ("circuit", "k2"),
    "k4": ("circuit", "k4"),
    "r_ant": ("circuit", "r_ant"),
    "p_t_dbm": ("circuit", "p_t_dbm"),
    "p_t_watts": ("circuit", "p_t_watts"),
    "n_samples": ("verify", "n_samples"),
}

SWEEP_HEADER = ("beta", "r", "mode", "z_empirical", "z_stderr",
                "z_analytic", "rel_dev", "papr_analytic")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _merge(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here!r} must be an object")
            _merge(base[key], value, here)
        else:
            base[key] = value


def _apply_set(config: dict, expr: str) -> None:
    if "=" not in expr:
        raise ConfigError(f"--set needs key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings like psi_mode=full
    if "." in key:
        path = tuple(key.split("."))
    elif key in ALIASES:
        path = ALIASES[key]
    else:
        raise ConfigError(
            f"unknown --set key {key!r}; use a dotted path or one of: "
            + ", ".join(sorted(ALIASES))
        )
    node = config
    for part in path[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key {key!r}")
        node = node[part]
    leaf = path[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key {key!r}")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"config key {key!r} is a section, not a value")
    node[leaf] = value


def _load_config(args) -> dict:
    config = copy.deepcopy(DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"invalid JSON in {args.config} at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(document, dict):
            raise ConfigError("config file must contain a JSON object")
        _merge(config, document)
    if ENV_SEED in os.environ:
        raw = os.environ[ENV_SEED]
        try:
            config["run"]["seed"] = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc
    for expr in args.set or ():
        _apply_set(config, expr)
    return config


def _transmit_watts(circuit_cfg: dict) -> float:
    watts = circuit_cfg.get("p_t_watts")
    if watts is not None:
        if (isinstance(watts, bool) or not isinstance(watts, (int, float))
                or not 0 < watts < math.inf):
            raise ConfigError(f"p_t_watts must be a finite number > 0, got {watts!r}")
        return float(watts)
    dbm = circuit_cfg.get("p_t_dbm")
    if dbm is None:
        raise ConfigError("one of circuit.p_t_dbm or circuit.p_t_watts is required")
    if isinstance(dbm, bool) or not isinstance(dbm, (int, float)):
        raise ConfigError(f"p_t_dbm must be a number, got {dbm!r}")
    try:
        watts = 10.0 ** ((float(dbm) - 30.0) / 10.0)
    except OverflowError:
        watts = math.inf
    if not 0.0 < watts < math.inf:
        raise ConfigError(f"p_t_dbm must give a finite positive power in watts, "
                          f"got {dbm!r}")
    return watts


def _circuit(config: dict) -> EhCircuit:
    c = config["circuit"]
    return EhCircuit(k2=c["k2"], k4=c["k4"], r_ant=c["r_ant"],
                     p_t=_transmit_watts(c))


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(rows: list[dict], header: tuple[str, ...], args, config: dict) -> None:
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt_cell(row[col]) for col in header) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {"config": config, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sweep_row(beta: int, r: float, mode: str, estimate, z: float,
               papr_bound: float) -> dict:
    rel = abs(estimate.mean - z) / z if z != 0 else math.nan
    return {
        "beta": beta, "r": r, "mode": mode,
        "z_empirical": estimate.mean, "z_stderr": estimate.std_error,
        "z_analytic": z, "rel_dev": rel, "papr_analytic": papr_bound,
    }


def _run_config(config: dict) -> RunConfig:
    return RunConfig(beta=config["run"]["beta"], r=config["run"]["r"],
                     alpha=config["channel"]["alpha"],
                     psi_mode=config["run"]["psi_mode"],
                     n_frames=config["run"]["n_frames"],
                     seed=config["run"]["seed"], xi=config["waveform"]["xi"],
                     circuit=_circuit(config))


def _cmd_run(config: dict, args) -> int:
    cfg = _run_config(config)
    res = run_once(cfg)
    row = _sweep_row(cfg.beta, cfg.r, cfg.psi_mode, res.estimate,
                     res.z_analytic, res.papr_bound)
    _emit([row], SWEEP_HEADER, args, config)
    return 0


def _sweep_axis(sw: dict, key: str, check) -> tuple[list, dict]:
    """The values of one sweep axis, and the error of each invalid one."""
    values = sw[key]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.{key} must be a nonempty JSON list, got {values!r}")
    errors = {}
    for i, value in enumerate(values):
        try:
            check(value)
        except ValueError as exc:
            errors[i] = exc
    return values, errors


def _cmd_sweep(config: dict, args) -> int:
    base = _run_config(config)
    sw = config["sweep"]
    betas, beta_err = _sweep_axis(
        sw, "betas", lambda b: dataclasses.replace(base, beta=b))
    distances, r_err = _sweep_axis(
        sw, "distances", lambda r: (dataclasses.replace(base, r=r),
                                    path_gain(r, base.alpha)))
    modes, mode_err = _sweep_axis(
        sw, "modes", lambda m: dataclasses.replace(base, psi_mode=m))

    def valid(values, errors):
        return [v for i, v in enumerate(values) if i not in errors]

    grid = valid(betas, beta_err), valid(distances, r_err), valid(modes, mode_err)
    # every cell on valid axis values runs in one call, so in parallel
    points = iter(sweep_beta(*grid, base).rows if all(grid) else ())
    failures = 0
    rows = []
    for i, beta in enumerate(betas):
        for j, r in enumerate(distances):
            for k, mode in enumerate(modes):
                exc = beta_err.get(i) or r_err.get(j) or mode_err.get(k)
                if exc is None:
                    point = next(points)
                    rows.append(_sweep_row(point.beta, point.r, point.psi_mode,
                                           point.estimate, point.z_analytic,
                                           point.papr_bound))
                    continue
                # marker row, keep the sweep going
                failures += 1
                print(f"chaoswpt: sweep point beta={beta} r={r} mode={mode} "
                      f"failed: {exc}", file=sys.stderr)
                rows.append({
                    "beta": beta, "r": r, "mode": mode,
                    "z_empirical": math.nan, "z_stderr": math.nan,
                    "z_analytic": math.nan, "rel_dev": math.nan,
                    "papr_analytic": math.nan,
                })
    _emit(rows, SWEEP_HEADER, args, config)
    return 2 if failures else 0


def _cmd_papr(config: dict, args) -> int:
    header = ("beta", "mode", "n_frames", "papr_plain",
              "papr_expectation_normalized", "papr_bound")
    rows = []
    for mode in ("bypass", "full"):
        m = measure_papr(config["run"]["beta"], mode,
                         n_frames=config["run"]["n_frames"],
                         seed=config["run"]["seed"], xi=config["waveform"]["xi"])
        rows.append({"beta": m.beta, "mode": m.psi_mode, "n_frames": m.n_frames,
                     "papr_plain": m.plain,
                     "papr_expectation_normalized": m.expectation_normalized,
                     "papr_bound": m.analytic_bound})
    _emit(rows, header, args, config)
    return 0


def _cmd_crossover(config: dict, args) -> int:
    r_c = config["crossover"]["r_c"]
    r_nc = config["crossover"]["r_nc"]
    if r_c is None or r_nc is None:
        raise ConfigError("crossover needs both distances: set crossover.r_c "
                          "and crossover.r_nc")
    circuit = _circuit(config)
    rho1, rho2 = rho_params(circuit)
    alpha = config["channel"]["alpha"]
    bound = beta_crossover(r_c, r_nc, alpha, rho1, rho2)
    beta_min = max(1, math.floor(bound) + 1)
    z_c = z_with_correlator(ClosedFormInputs(beta=beta_min, r=r_c, alpha=alpha,
                                             rho1=rho1, rho2=rho2))
    z_nc = z_without_correlator(ClosedFormInputs(beta=beta_min, r=r_nc,
                                                 alpha=alpha, rho1=rho1,
                                                 rho2=rho2))
    header = ("r_c", "r_nc", "bound", "beta_min",
              "z_with_correlator", "z_without_correlator")
    rows = [{"r_c": float(r_c), "r_nc": float(r_nc), "bound": bound,
             "beta_min": beta_min, "z_with_correlator": z_c,
             "z_without_correlator": z_nc}]
    _emit(rows, header, args, config)
    return 0


def _cmd_verify_dist(config: dict, args) -> int:
    reports = verify_distributions(n_samples=config["verify"]["n_samples"],
                                   seed=config["run"]["seed"])
    header = ("family", "beta", "atom_mass", "norm_integral", "norm_target",
              "norm_abs_err", "max_moment_rel_err", "ks_stat", "n", "status")
    rows = []
    ok = True
    for rep in reports:
        passed = rep.passed(moment_rel_tol=1e-5)
        ok = ok and passed
        rows.append({
            "family": rep.family,
            "beta": rep.beta if rep.beta is not None else 1,
            "atom_mass": rep.atom_mass,
            "norm_integral": rep.norm_integral,
            "norm_target": rep.norm_target,
            "norm_abs_err": rep.norm_abs_err,
            "max_moment_rel_err": rep.max_moment_rel_err,
            "ks_stat": rep.ks_stat,
            "n": rep.n_samples,
            "status": "ok" if passed else "FAIL",
        })
    _emit(rows, header, args, config)
    return 0 if ok else 2


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="JSON config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config value (repeatable)")
    sub.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chaoswpt",
                     description="Chaotic-waveform wireless power transfer simulator")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "single Monte-Carlo point vs closed form"),
        ("sweep", "grid sweep over beta / distance / mode"),
        ("papr", "waveform peak-to-average ratios vs bounds"),
        ("crossover", "spreading-factor crossover between the two receivers"),
        ("verify-dist", "reference distribution verification battery"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "papr": _cmd_papr,
    "crossover": _cmd_crossover,
    "verify-dist": _cmd_verify_dist,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"chaoswpt: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"chaoswpt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
