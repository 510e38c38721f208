"""Command-line front end producing deterministic data files.

Commands: ``limits`` and ``surface`` evaluate boundary sweeps, ``simulate``
runs the coincidence Monte Carlo, ``tomo`` runs a simulated tomography of a
specified state, and ``pipeline`` chains simulation, detection mixing,
state estimation, tomography and classification per scenario.

Configuration is a plain-text key=value file ('#' starts a comment); the
--seed, --out and --format flags override file values.  Exit status 0 on
success, 2 on configuration/validation errors, 3 on runtime numerical
failures.  Identical (config, seed) pairs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter as _get
from typing import Any, Callable, NamedTuple

import numpy as np

from . import channel, entanglement, limits, photonics, tomography
from .qmat import DensityMatrix, fidelity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

GRID_KEYS = ("p_t", "p_l", "p_s")
RATE_KEYS = ("rate_singlet", "rate_singles", "rate_noise", "tau")

SURFACE_DEFAULTS = {"p_t": (0.0, 0.5, 26), "p_l": (0.0, 0.9, 19), "p_s": (0.0, 1.0, 41)}

#: Largest grid `limits` and `surface` accept.  A run peaks at about 300
#: bytes per point writing csv and 470 writing jsonl (tracemalloc, default
#: grid), so at 1 KiB a point this cap keeps a run within a 1 GiB budget.
MAX_GRID_POINTS = 2**30 // 1024


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def parse_config(text: str) -> dict[str, str]:
    """Parse key=value lines; blank lines and '#' comments are ignored.
    Duplicate keys are rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"duplicate key {key!r}")
        out[key] = value
    return out


def serialize_config(cfg: dict[str, str]) -> str:
    """Canonical text form: sorted 'key = value' lines."""
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


@dataclass
class RunConfig:
    command: str
    seed: int
    out: str
    fmt: str
    params: dict[str, Any]


def _checked(keys: tuple[str, ...], build: Callable, *args: Any) -> Any:
    """`build(*args)`, its ValueError turned into a ConfigError naming `keys`."""
    try:
        return build(*args)
    except ValueError as exc:
        named = f"key {keys[0]!r}" if len(keys) == 1 else "keys " + "/".join(keys)
        raise ConfigError(f"{named}: {exc}") from None


def _pop(cfg: dict[str, str], key: str, parse: Callable[[str], Any], default: Any = None) -> Any:
    """Remove `key` from `cfg` and parse its value.  An absent key gives
    `default`; with no default the key is required."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return _checked((key,), parse, cfg.pop(key))


def _parse_axis(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) == 1:
        return (float(text), float(text), 1)
    if len(parts) != 3:
        raise ValueError(f"expected 'value' or 'lo:hi:count', got {text!r}")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


def _parse_duration(text: str) -> float:
    duration = float(text)
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError("must be finite and > 0")
    return duration


def _load_state(path: str) -> DensityMatrix:
    try:
        raw = np.loadtxt(path, dtype=complex)
    except OSError as exc:
        raise ValueError(f"cannot read state file: {exc}") from None
    return DensityMatrix(raw, (2, 2))


def _check_out_writable(out: str) -> None:
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ConfigError(f"key 'out': path {out!r} is not writable")


def load_run_config(
    command: str,
    config_path: str,
    seed: int | None = None,
    out: str | None = None,
    fmt: str | None = None,
) -> RunConfig:
    """Read, merge and validate a configuration; flags override file values.
    All module-level preconditions are checked here, before any work."""
    try:
        with open(config_path, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    if command not in COMMAND_TABLE:
        raise ConfigError(f"unknown command {command!r}")

    run_seed = seed if seed is not None else _pop(cfg, "seed", int, 0)
    cfg.pop("seed", None)
    run_out = out if out is not None else cfg.pop("out", "qcool_out.csv")
    run_fmt = fmt if fmt is not None else cfg.pop("format", "csv")
    if run_fmt not in ("csv", "jsonl"):
        raise ConfigError(f"key 'format': must be csv or jsonl, got {run_fmt!r}")
    if not 0 <= run_seed < 2**64:
        raise ConfigError("key 'seed': must fit in an unsigned 64-bit integer")
    _check_out_writable(run_out)

    params_from, _ = COMMAND_TABLE[command]
    params = params_from(cfg)
    if cfg:
        raise ConfigError(f"unknown key {sorted(cfg)[0]!r}")
    return RunConfig(command=command, seed=run_seed, out=run_out, fmt=run_fmt, params=params)


def _grid_params(defaults: dict[str, Any], cfg: dict[str, str]) -> dict[str, Any]:
    axes = [_pop(cfg, key, _parse_axis, defaults.get(key)) for key in GRID_KEYS]
    # linspace allocates every axis, so an empty axis counts as one point
    # here and cannot hide a huge one.
    size = math.prod(max(n, 1) for _, _, n in axes)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"keys p_t/p_l/p_s: {size} grid points exceed the cap of {MAX_GRID_POINTS}")
    return {"grid": _checked(GRID_KEYS, limits.GridSpec.from_ranges, *axes)}


def _rate_config(cfg: dict[str, str], prefix: str = "") -> photonics.RateConfig:
    keys = tuple(prefix + key for key in RATE_KEYS)
    return _checked(keys, photonics.RateConfig, *(_pop(cfg, key, float) for key in keys))


def _simulate_params(cfg: dict[str, str]) -> dict[str, Any]:
    return {"rate_config": _rate_config(cfg), "duration": _pop(cfg, "duration", _parse_duration)}


def _tomo_params(cfg: dict[str, str]) -> dict[str, Any]:
    # The settings carry seed 0 until the run replaces it.
    settings = _checked(
        ("shots_per_setting", "noise_model"), tomography.TomographySettings,
        _pop(cfg, "shots_per_setting", int, 1_000_000), 0,
        _pop(cfg, "noise_model", str, "multinomial"),
    )
    if "state_file" in cfg:
        both = [key for key in ("p_s", "p_l", "p_t") if key in cfg]
        if both:
            raise ConfigError(
                f"keys state_file and {'/'.join(both)}: give either a state file "
                "or p_s/p_l/p_t, not both"
            )
        truth = _pop(cfg, "state_file", _load_state)
        return {"truth": truth, "params": None, "spec": None, "settings": settings}
    p_s, p_l = _pop(cfg, "p_s", float), _pop(cfg, "p_l", float)
    params = _checked(("p_s", "p_l"), channel.ChannelParams, p_s, 1.0 - p_s - p_l, p_l)
    spec = _checked(("p_t",), channel.EnvironmentSpec, _pop(cfg, "p_t", float))
    truth, _ = channel.conditional_state(params, spec)
    return {"truth": truth, "params": params, "spec": spec, "settings": settings}


def _scenario(cfg: dict[str, str], prefix: str, default_duration: float | None) -> tuple:
    """A pipeline scenario's (rate_config, spec, duration)."""
    rate_config = _rate_config(cfg, prefix)
    _checked((prefix + "rate_singlet",), photonics.rate_ratio, rate_config)
    spec = _checked((prefix + "p_t",), channel.EnvironmentSpec, _pop(cfg, prefix + "p_t", float))
    return rate_config, spec, _pop(cfg, prefix + "duration", _parse_duration, default_duration)


def _pipeline_params(cfg: dict[str, str]) -> dict[str, Any]:
    settings = _checked(
        ("shots_per_setting",), tomography.TomographySettings,
        _pop(cfg, "shots_per_setting", int, 100_000),
    )
    default_duration = _pop(cfg, "duration", _parse_duration) if "duration" in cfg else None
    # Indices stay strings: int() refuses numbers of over 4300 digits.
    indices = {m[1] for m in map(re.compile(r"scenario([1-9]\d*)\.").match, cfg) if m}
    if not indices:
        raise ConfigError("missing required key 'scenario1.rate_singlet' (no scenarios)")
    n = len(indices)
    gap = next((k for k in range(1, n + 1) if str(k) not in indices), None)
    if gap is not None:
        raise ConfigError(f"missing scenario{gap}.*: scenarios are numbered 1..n without gaps")
    scenarios = [_scenario(cfg, f"scenario{k}.", default_duration) for k in range(1, n + 1)]
    return {"scenarios": scenarios, "settings": settings}


def _fmt_value(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.12g}"
    return str(v)


def _json_cell(key: str, v: Any) -> str:
    return f"{key}: {json.dumps(None if isinstance(v, float) and math.isnan(v) else v)}"


def _cells(column: Any, fmt_one: Callable[[Any], str]) -> list[str]:
    """`fmt_one` of each entry.  An array is formatted once per distinct
    value (by bits, so -0.0 keeps its sign), each as a Python scalar."""
    if not isinstance(column, np.ndarray):
        return [fmt_one(v) for v in column]
    keys = column.view(np.uint64) if column.dtype == float else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    cells = [fmt_one(v) for v in distinct.view(column.dtype).tolist()]
    return np.array(cells, dtype=object)[inverse].tolist()


def write_rows(path: str, fmt: str, columns: dict[str, Any]) -> None:
    """Write the table `columns`, which maps each column name to a list or
    1-D array with one entry per row.  Every row is formatted before the
    file is opened, so a failing formatter leaves no partial file."""
    if fmt == "csv":
        cells = [_cells(col, _fmt_value) for col in columns.values()]
        lines = [",".join(columns), *map(",".join, zip(*cells))]
    else:
        cells = [_cells(col, partial(_json_cell, json.dumps(c))) for c, col in columns.items()]
        lines = ["{" + ", ".join(row) + "}" for row in zip(*cells)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _columns(getters: dict[str, Callable], records: list) -> dict[str, list]:
    """The table of `getters` read from each record, as columns."""
    return {name: [get(rec) for rec in records] for name, get in getters.items()}


#: The name of each `limits.SweepTable` column, in its order.
LIMITS_COLUMNS = ("p_T", "P_S", "P_L", "P_TL", "uncond_boundary", "cond_boundary",
                  "uncond_ok", "cond_ok", "numeric_negativity", "feasible")


def run_limits(rc: RunConfig) -> int:
    write_rows(rc.out, rc.fmt, dict(zip(LIMITS_COLUMNS, limits.sweep(rc.params["grid"]))))
    return EXIT_OK


def _unless(empty: Callable, get: Callable) -> Callable:
    """Getter giving None, an empty cell, for a record where `empty` holds."""
    return lambda rec: None if empty(rec) else get(rec)


_if_triples = partial(_unless, lambda tally: tally.n_triple == 0)
_if_singlets = partial(_unless, lambda tally: tally.config.rate_singlet == 0)


def _predicted(tally: photonics.CoincidenceTally) -> channel.ChannelParams:
    return photonics.params_from_ratio(photonics.rate_ratio(tally.config))


SIMULATE_COLUMNS = {
    **{key: _get("config." + key) for key in RATE_KEYS},
    "duration": _get("duration"),
    "ratio": lambda t: photonics.rate_ratio(t.config) if t.config.rate_singlet > 0 else math.nan,
    "n_triple": _get("n_triple"),
    "n_success": _get("n_success"),
    "n_flip": _get("n_flip"),
    "n_loss": _get("n_loss"),
    "n_discarded": _get("n_discarded"),
    "p_s_emp": _if_triples(_get("empirical_params.p_s")),
    "p_f_emp": _if_triples(_get("empirical_params.p_f")),
    "p_l_emp": _if_triples(_get("empirical_params.p_l")),
    "p_s_err": _if_triples(lambda t: t.standard_errors[0]),
    "p_f_err": _if_triples(lambda t: t.standard_errors[1]),
    "p_l_err": _if_triples(lambda t: t.standard_errors[2]),
    "p_s_pred": _if_singlets(lambda t: _predicted(t).p_s),
    "p_f_pred": _if_singlets(lambda t: _predicted(t).p_f),
    "p_l_pred": _if_singlets(lambda t: _predicted(t).p_l),
    "two_ps_plus_pl": _if_triples(lambda t: 2.0 * t.empirical_params.p_s + t.empirical_params.p_l),
}


def run_simulate(rc: RunConfig) -> int:
    tally = photonics.simulate_streams(rc.params["rate_config"], rc.params["duration"], rc.seed)
    write_rows(rc.out, rc.fmt, _columns(SIMULATE_COLUMNS, [tally]))
    return EXIT_OK


class TomoRecord(NamedTuple):
    params: channel.ChannelParams | None
    spec: channel.EnvironmentSpec | None
    settings: tomography.TomographySettings
    fidelity: float
    true: entanglement.EntanglementReport
    recon: entanglement.EntanglementReport


_if_params = partial(_unless, lambda rec: rec.params is None)


TOMO_COLUMNS = {
    "p_t": _if_params(_get("spec.p_t")),
    "p_s": _if_params(_get("params.p_s")),
    "p_f": _if_params(_get("params.p_f")),
    "p_l": _if_params(_get("params.p_l")),
    "shots_per_setting": _get("settings.shots_per_setting"),
    "noise_model": _get("settings.noise_model"),
    "fidelity": _get("fidelity"),
    "negativity_true": _get("true.negativity"),
    "negativity_recon": _get("recon.negativity"),
    "entangled_true": _get("true.entangled"),
    "entangled_recon": _get("recon.entangled"),
    "uncond_ok": _if_params(lambda r: r.params.p_s > limits.uncond_boundary(r.spec.p_t)),
    "cond_ok": _if_params(
        lambda r: r.params.p_s > limits.cond_boundary(r.spec.p_t * r.params.p_l)
    ),
}


def run_tomo(rc: RunConfig) -> int:
    truth: DensityMatrix = rc.params["truth"]
    settings = replace(rc.params["settings"], seed=rc.seed)
    probs = tomography.born_probabilities(truth, settings)
    recon = tomography.reconstruct(tomography.sample_counts(probs, settings))
    record = TomoRecord(
        rc.params["params"], rc.params["spec"], settings, fidelity(truth, recon),
        entanglement.report(truth), entanglement.report(recon),
    )
    write_rows(rc.out, rc.fmt, _columns(TOMO_COLUMNS, [record]))
    return EXIT_OK


class PipelineRecord(NamedTuple):
    scenario: int
    rate_config: photonics.RateConfig
    spec: channel.EnvironmentSpec
    duration: float
    mixed: photonics.CoincidenceTally
    recon: entanglement.EntanglementReport


def _uncond_boundary(rec: PipelineRecord) -> float:
    return limits.uncond_boundary(rec.spec.p_t)


def _uncond_ok(rec: PipelineRecord) -> bool:
    return rec.mixed.empirical_params.p_s > _uncond_boundary(rec)


def classify(rec: PipelineRecord) -> str:
    if _uncond_ok(rec):
        return "unconditional"
    return "conditional_only" if rec.recon.entangled else "separable"


PIPELINE_COLUMNS = {
    "scenario": _get("scenario"),
    **{key: _get("rate_config." + key) for key in RATE_KEYS},
    "p_t": _get("spec.p_t"),
    "duration": _get("duration"),
    "ratio": lambda r: photonics.rate_ratio(r.rate_config),
    "n_triple": _get("mixed.n_triple"),
    "p_s_emp": _get("mixed.empirical_params.p_s"),
    "p_f_emp": _get("mixed.empirical_params.p_f"),
    "p_l_emp": _get("mixed.empirical_params.p_l"),
    "uncond_boundary": _uncond_boundary,
    "cond_boundary": lambda r: limits.cond_boundary(r.spec.p_t * r.mixed.empirical_params.p_l),
    "uncond_ok": _uncond_ok,
    "recon_negativity": _get("recon.negativity"),
    "cond_entangled": _get("recon.entangled"),
    "classification": classify,
}


def run_pipeline(rc: RunConfig) -> int:
    records = []
    for idx, (config, spec, duration) in enumerate(rc.params["scenarios"], start=1):
        seq = np.random.SeedSequence(rc.seed, spawn_key=(idx,))
        seed_g, seed_e, seed_mix, seed_tomo = (
            int(s.generate_state(1, dtype=np.uint64)[0]) for s in seq.spawn(4)
        )
        tally_g = photonics.simulate_streams(config, duration, seed_g)
        tally_e = photonics.simulate_streams(config, duration, seed_e)
        if tally_g.n_triple == 0 or tally_e.n_triple == 0:
            raise RuntimeError(f"scenario {idx}: no heralded triples")
        mixed = photonics.mix_detections(tally_g, tally_e, spec.p_t, seed_mix)
        estimated, _ = channel.conditional_state(mixed.empirical_params, spec)

        settings = replace(rc.params["settings"], seed=seed_tomo)
        counts = tomography.sample_counts(
            tomography.born_probabilities(estimated, settings), settings
        )
        recon = entanglement.report(tomography.reconstruct(counts))
        records.append(PipelineRecord(idx, config, spec, duration, mixed, recon))
    write_rows(rc.out, rc.fmt, _columns(PIPELINE_COLUMNS, records))
    return EXIT_OK


#: Each command's parameter loader and runner.
COMMAND_TABLE = {
    "limits": (partial(_grid_params, {}), run_limits),
    "surface": (partial(_grid_params, SURFACE_DEFAULTS), run_limits),
    "simulate": (_simulate_params, run_simulate),
    "tomo": (_tomo_params, run_tomo),
    "pipeline": (_pipeline_params, run_pipeline),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcool",
        description="Cooling-limit sweeps, coincidence Monte Carlo and simulated tomography",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_TABLE:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "jsonl"), default=None, dest="fmt")
    args = parser.parse_args(argv)

    try:
        rc = load_run_config(args.command, args.config, args.seed, args.out, args.fmt)
    except ConfigError as exc:
        print(f"qcool: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _, runner = COMMAND_TABLE[rc.command]
        return runner(rc)
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"qcool: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
