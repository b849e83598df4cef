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
violation (a verify-dist row that missed its gate).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
import warnings

from .analytic import beta_crossover, z_with_correlator, z_without_correlator
from .distcheck import verify_distributions
from .harvester import EhCircuit, _check, rho_params
from .montecarlo import RunConfig, RunResult, measure_papr, run_once, sweep_beta

ENV_SEED = "CHAOSWPT_SEED"

#: the built-in config; a default the library also has is read from the
#: library (RunConfig leaves beta and r to its caller, so they are the CLI's)
DEFAULTS: dict = {
    "circuit": {
        "k2": EhCircuit.k2,
        "k4": EhCircuit.k4,
        "r_ant": EhCircuit.r_ant,
        "p_t_dbm": 30.0 + 10.0 * math.log10(EhCircuit.p_t),
        "p_t_watts": None,  # set to override p_t_dbm directly in watts
    },
    "channel": {"alpha": RunConfig.alpha},
    "waveform": {"xi": RunConfig.xi},
    "run": {
        "beta": 10,
        "r": 20.0,
        "psi_mode": RunConfig.psi_mode,
        "n_frames": RunConfig.n_frames,
        "seed": RunConfig.seed,
    },
    "sweep": {
        "betas": [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
        "distances": [20.0, 30.0],
        "modes": ["full", "bypass"],
    },
    "crossover": {"r_c": None, "r_nc": None},
    "verify": {"n_samples": 1_000_000},
}

#: bare --set shortcuts into the nested document: every key of these sections
ALIASES = {key: (section, key)
           for section in ("run", "channel", "waveform", "circuit", "verify")
           for key in DEFAULTS[section]}

SWEEP_HEADER = ("beta", "r", "mode", "z_empirical", "z_stderr",
                "z_analytic", "rel_dev", "papr_analytic")
#: each sweep axis and the RunConfig field its values fill, in sweep_beta's order
_SWEEP_AXES = {"betas": "beta", "distances": "r", "modes": "psi_mode"}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _merge(base, override: dict, path: str = "") -> None:
    """Merge ``override`` into ``base``, whose keys are the only known ones."""
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        # a value has no keys, so an object given for one names unknown keys
        if not isinstance(base, dict) or key not in base:
            while isinstance(value, dict) and value:  # name the full key given
                key, value = next(iter(value.items()))
                here += f".{key}"
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(value, dict):
            if not value and not isinstance(base[key], dict):
                raise ConfigError(f"config key {here!r} must be a value, got {{}}")
            _merge(base[key], value, here)
        elif isinstance(base[key], dict):
            raise ConfigError(f"config key {here!r} must be an object")
        else:
            base[key] = value


def _apply_set(config: dict, expr: str) -> None:
    """Merge one --set key=value, as the one-key document it stands for."""
    if "=" not in expr:
        raise ConfigError(f"--set needs key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings like psi_mode=full
    if "." in key:
        path = key.split(".")
    elif key in ALIASES:
        path = ALIASES[key]
    else:
        raise ConfigError(
            f"unknown --set key {key!r}; use a dotted path or one of: "
            + ", ".join(sorted(ALIASES))
        )
    for part in reversed(path):
        value = {part: value}
    _merge(config, value)


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
            seed = int(raw)
        except ValueError:
            seed = raw  # text that int() cannot parse is no seed
        _check("seed", seed, ENV_SEED)
        config["run"]["seed"] = seed
    for expr in args.set or ():
        _apply_set(config, expr)
    return config


def _transmit_watts(circuit_cfg: dict) -> float:
    watts = circuit_cfg.get("p_t_watts")
    if watts is not None:
        _check("p_t", watts, "p_t_watts")
        return float(watts)
    dbm = circuit_cfg.get("p_t_dbm")
    if dbm is None:
        raise ConfigError("one of circuit.p_t_dbm or circuit.p_t_watts is required")
    _check("p_t_dbm", dbm)
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
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _emit(rows: list[dict], args, config: dict) -> None:
    """Write ``rows`` as CSV, whose columns are the first row's keys, or as JSON."""
    if args.format == "csv":
        header = list(rows[0])
        lines = [",".join(header)]
        lines += [",".join(_fmt_cell(row[col]) for col in header) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        # JSON has no NaN or infinity: a non-finite float is written as null
        payload = json.loads(json.dumps({"config": config, "rows": rows}),
                             parse_constant=lambda _: None)
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out {args.out!r} cannot be written: "
                              f"{exc.strerror or exc}") from exc


def _sweep_row(res: RunResult) -> dict:
    return dict(zip(SWEEP_HEADER, (
        res.beta, res.r, res.psi_mode, res.estimate.mean, res.estimate.std_error,
        res.z_analytic, res.rel_dev, res.papr_bound)))


def _run_config(config: dict, beta, r, psi_mode) -> RunConfig:
    """``config``'s run at the cell (beta, r, psi_mode) its caller picks."""
    return RunConfig(beta=beta, r=r, alpha=config["channel"]["alpha"], psi_mode=psi_mode,
                     n_frames=config["run"]["n_frames"],
                     seed=config["run"]["seed"], xi=config["waveform"]["xi"],
                     circuit=_circuit(config))


def _cmd_run(config: dict, args) -> int:
    run = config["run"]
    res = run_once(_run_config(config, run["beta"], run["r"], run["psi_mode"]))
    _emit([_sweep_row(res)], args, config)
    return 0


def _cmd_sweep(config: dict, args) -> int:
    # sweep_beta ignores its base's beta, r and psi_mode: placeholders stand in
    base = _run_config(config, 1, 1.0, "full")
    axes = []
    for key, field in _SWEEP_AXES.items():
        values = config["sweep"][key]
        _check("axis", values, f"sweep.{key}")
        for i, value in enumerate(values):
            try:
                dataclasses.replace(base, **{field: value})
            except ValueError as exc:
                raise ConfigError(f"sweep.{key}[{i}]: {exc}") from exc
        axes.append(values)
    _emit([_sweep_row(res) for res in sweep_beta(*axes, base).rows], args, config)
    return 0


def _cmd_papr(config: dict, args) -> int:
    rows = []
    for mode in ("bypass", "full"):
        m = measure_papr(config["run"]["beta"], mode,
                         n_frames=config["run"]["n_frames"],
                         seed=config["run"]["seed"], xi=config["waveform"]["xi"])
        rows.append({"beta": m.beta, "mode": m.psi_mode, "n_frames": m.n_frames,
                     "papr_plain": m.plain,
                     "papr_expectation_normalized": m.expectation_normalized,
                     "papr_bound": m.analytic_bound})
    _emit(rows, args, config)
    return 0


def _cmd_crossover(config: dict, args) -> int:
    r_c = config["crossover"]["r_c"]
    r_nc = config["crossover"]["r_nc"]
    if r_c is None or r_nc is None:
        raise ConfigError("crossover needs both distances: set crossover.r_c "
                          "and crossover.r_nc")
    # the circuit and the crossover check the remaining inputs, alpha included
    rho1, rho2 = rho_params(_circuit(config))
    alpha = config["channel"]["alpha"]
    bound = beta_crossover(r_c, r_nc, alpha, rho1, rho2,
                           labels=("crossover.r_c", "crossover.r_nc"))
    beta_min = max(1, math.floor(bound) + 1)
    z_c = z_with_correlator(beta_min, r_c, alpha, rho1, rho2)
    z_nc = z_without_correlator(beta_min, r_nc, alpha, rho1, rho2)
    if not (math.isfinite(z_c) and math.isfinite(z_nc)):
        raise ConfigError(f"harvested DC at the crossover (bound {bound!r}) overflows for "
                          f"crossover.r_c={r_c!r}, crossover.r_nc={r_nc!r}, alpha={alpha!r}")
    rows = [{"r_c": float(r_c), "r_nc": float(r_nc), "bound": bound,
             "beta_min": beta_min, "z_with_correlator": z_c,
             "z_without_correlator": z_nc}]
    _emit(rows, args, config)
    return 0


def _cmd_verify_dist(config: dict, args) -> int:
    reports = verify_distributions(n_samples=config["verify"]["n_samples"],
                                   seed=config["run"]["seed"])
    rows = []
    for rep in reports:
        row = dataclasses.asdict(rep)
        row["n"] = row.pop("n_samples")
        row["status"] = "ok" if rep.passed() else "FAIL"
        rows.append(row)
    _emit(rows, args, config)
    return 0 if all(row["status"] == "ok" for row in rows) else 2


#: each subcommand's function and help line
_COMMANDS = {
    "run": (_cmd_run, "single Monte-Carlo point vs closed form"),
    "sweep": (_cmd_sweep, "grid sweep over beta / distance / mode"),
    "papr": (_cmd_papr, "waveform peak-to-average ratios vs bounds"),
    "crossover": (_cmd_crossover, "spreading-factor crossover between the two receivers"),
    "verify-dist": (_cmd_verify_dist, "reference distribution verification battery"),
}


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
    for name, (_, help_text) in _COMMANDS.items():
        _add_common(subs.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    def show(message, *_):
        # a library warning is one line, like every other message
        print(f"chaoswpt: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            config = _load_config(args)
            command, _ = _COMMANDS[args.command]
            return command(config, args)
        # a warning that the interpreter's filters raise (python -W error)
        # ends the run like any other refused input
        except (ConfigError, ValueError, Warning) as exc:
            print(f"chaoswpt: error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
