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
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import channel, entanglement, limits, photonics, tomography
from .qmat import DensityMatrix, fidelity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

COMMANDS = ("limits", "surface", "simulate", "tomo", "pipeline")

SURFACE_DEFAULTS = {"p_t": "0:0.5:26", "p_l": "0:0.9:19", "p_s": "0:1:41"}

LIMITS_COLUMNS = (
    "p_T", "P_S", "P_L", "P_TL", "uncond_boundary", "cond_boundary",
    "uncond_ok", "cond_ok", "numeric_negativity", "feasible",
)
SIMULATE_COLUMNS = (
    "rate_singlet", "rate_singles", "rate_noise", "tau", "duration", "ratio",
    "n_triple", "n_success", "n_flip", "n_loss", "n_discarded",
    "p_s_emp", "p_f_emp", "p_l_emp", "p_s_err", "p_f_err", "p_l_err",
    "p_s_pred", "p_f_pred", "p_l_pred", "two_ps_plus_pl",
)
TOMO_COLUMNS = (
    "p_t", "p_s", "p_f", "p_l", "shots_per_setting", "noise_model",
    "fidelity", "negativity_true", "negativity_recon",
    "entangled_true", "entangled_recon", "uncond_ok", "cond_ok",
)
PIPELINE_COLUMNS = (
    "scenario", "rate_singlet", "rate_singles", "rate_noise", "tau", "p_t",
    "duration", "ratio", "n_triple", "p_s_emp", "p_f_emp", "p_l_emp",
    "uncond_boundary", "cond_boundary", "uncond_ok", "recon_negativity",
    "cond_entangled", "classification",
)


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
    params: dict[str, Any] = field(default_factory=dict)


def _pop_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = cfg.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from None


def _pop_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = cfg.pop(key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from None


def _parse_axis(key: str, text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            return (v, v, 1)
        if len(parts) == 3:
            return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise ConfigError(f"key {key!r}: expected 'value' or 'lo:hi:count', got {text!r}")


def _reject_unknown(cfg: dict[str, str]) -> None:
    if cfg:
        raise ConfigError(f"unknown key {sorted(cfg)[0]!r}")


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

    run_seed = seed if seed is not None else _pop_int(cfg, "seed", 0)
    cfg.pop("seed", None)
    run_out = out if out is not None else cfg.pop("out", "qcool_out.csv")
    run_fmt = fmt if fmt is not None else cfg.pop("format", "csv")
    if run_fmt not in ("csv", "jsonl"):
        raise ConfigError(f"key 'format': must be csv or jsonl, got {run_fmt!r}")
    if not 0 <= run_seed < 2**64:
        raise ConfigError("key 'seed': must fit in an unsigned 64-bit integer")
    _check_out_writable(run_out)

    rc = RunConfig(command=command, seed=run_seed, out=run_out, fmt=run_fmt)
    if command in ("limits", "surface"):
        if command == "surface":
            for key, value in SURFACE_DEFAULTS.items():
                cfg.setdefault(key, value)
        axes = {}
        for key in ("p_t", "p_l", "p_s"):
            if key not in cfg:
                raise ConfigError(f"missing required key {key!r}")
            axes[key] = _parse_axis(key, cfg.pop(key))
        try:
            grid = limits.GridSpec.from_ranges(axes["p_t"], axes["p_l"], axes["p_s"])
        except ValueError as exc:
            raise ConfigError(f"keys p_t/p_l/p_s: {exc}") from None
        rc.params = {"grid": grid}
    elif command == "simulate":
        rc.params = {
            "rate_config": _rate_config_from(cfg, prefix=""),
            "duration": _duration_from(cfg, "duration"),
        }
    elif command == "tomo":
        rc.params = _tomo_params_from(cfg)
    elif command == "pipeline":
        rc.params = _pipeline_params_from(cfg)
    else:
        raise ConfigError(f"unknown command {command!r}")
    _reject_unknown(cfg)
    return rc


def _duration_from(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    duration = _pop_float(cfg, key, default)
    if not (math.isfinite(duration) and duration > 0):
        raise ConfigError(f"key {key!r}: must be finite and > 0")
    return duration


def _rate_config_from(cfg: dict[str, str], prefix: str) -> photonics.RateConfig:
    try:
        return photonics.RateConfig(
            rate_singlet=_pop_float(cfg, prefix + "rate_singlet"),
            rate_singles=_pop_float(cfg, prefix + "rate_singles"),
            rate_noise=_pop_float(cfg, prefix + "rate_noise"),
            tau=_pop_float(cfg, prefix + "tau"),
        )
    except ValueError as exc:
        raise ConfigError(f"keys {prefix}rate_*/{prefix}tau: {exc}") from None


def _tomo_params_from(cfg: dict[str, str]) -> dict[str, Any]:
    shots = _pop_int(cfg, "shots_per_setting", 1_000_000)
    noise_model = cfg.pop("noise_model", "multinomial")
    if noise_model not in ("multinomial", "poisson"):
        raise ConfigError("key 'noise_model': must be multinomial or poisson")
    if shots < 1:
        raise ConfigError("key 'shots_per_setting': must be >= 1")
    if "state_file" in cfg:
        path = cfg.pop("state_file")
        try:
            raw = np.loadtxt(path, dtype=complex)
            truth = DensityMatrix(raw, (2, 2))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"key 'state_file': malformed state file: {exc}") from None
        return {"truth": truth, "params": None, "spec": None,
                "shots": shots, "noise_model": noise_model}
    p_s = _pop_float(cfg, "p_s")
    p_l = _pop_float(cfg, "p_l")
    p_t = _pop_float(cfg, "p_t")
    try:
        params = channel.ChannelParams(p_s, 1.0 - p_s - p_l, p_l)
    except ValueError as exc:
        raise ConfigError(f"keys p_s/p_l: {exc}") from None
    try:
        spec = channel.EnvironmentSpec(p_t)
    except ValueError as exc:
        raise ConfigError(f"key 'p_t': {exc}") from None
    truth, _ = channel.conditional_state(params, spec)
    return {"truth": truth, "params": params, "spec": spec,
            "shots": shots, "noise_model": noise_model}


def _pipeline_params_from(cfg: dict[str, str]) -> dict[str, Any]:
    shots = _pop_int(cfg, "shots_per_setting", 100_000)
    if shots < 1:
        raise ConfigError("key 'shots_per_setting': must be >= 1")
    default_duration = _duration_from(cfg, "duration") if "duration" in cfg else None
    scenarios = []
    k = 1
    while any(key.startswith(f"scenario{k}.") for key in cfg):
        prefix = f"scenario{k}."
        rate_config = _rate_config_from(cfg, prefix)
        p_t = _pop_float(cfg, prefix + "p_t")
        try:
            spec = channel.EnvironmentSpec(p_t)
        except ValueError as exc:
            raise ConfigError(f"key {prefix}p_t: {exc}") from None
        duration = _duration_from(cfg, prefix + "duration", default_duration)
        scenarios.append({"rate_config": rate_config, "spec": spec, "duration": duration})
        k += 1
    if not scenarios:
        raise ConfigError("missing required key 'scenario1.rate_singlet' (no scenarios)")
    return {"scenarios": scenarios, "shots": shots}


def _fmt_value(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.12g}"
    return str(v)


def write_rows(path: str, fmt: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "csv":
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt_value(row[c]) for c in columns) + "\n")
        else:
            for row in rows:
                clean = {
                    c: (None if isinstance(row[c], float) and math.isnan(row[c]) else row[c])
                    for c in columns
                }
                fh.write(json.dumps(clean) + "\n")


def run_limits(rc: RunConfig) -> int:
    records = limits.sweep(rc.params["grid"])
    rows = [
        {
            "p_T": r.p_t,
            "P_S": r.p_s,
            "P_L": r.p_l,
            "P_TL": r.p_tl,
            "uncond_boundary": r.verdicts.uncond_boundary_ps,
            "cond_boundary": r.verdicts.cond_boundary_ps,
            "uncond_ok": r.verdicts.unconditional_ok,
            "cond_ok": r.verdicts.conditional_ok,
            "numeric_negativity": r.numeric_negativity,
            "feasible": r.feasible,
        }
        for r in records
    ]
    write_rows(rc.out, rc.fmt, LIMITS_COLUMNS, rows)
    return EXIT_OK


def run_simulate(rc: RunConfig) -> int:
    config: photonics.RateConfig = rc.params["rate_config"]
    tally = photonics.simulate_streams(config, rc.params["duration"], rc.seed)
    ratio = photonics.rate_ratio(config) if config.rate_singlet > 0 else math.nan
    pred = photonics.params_from_ratio(ratio) if not math.isnan(ratio) else None
    row = {
        "rate_singlet": config.rate_singlet,
        "rate_singles": config.rate_singles,
        "rate_noise": config.rate_noise,
        "tau": config.tau,
        "duration": tally.duration,
        "ratio": ratio,
        "n_triple": tally.n_triple,
        "n_success": tally.n_success,
        "n_flip": tally.n_flip,
        "n_loss": tally.n_loss,
        "n_discarded": tally.n_discarded,
    }
    if tally.n_triple > 0:
        emp = tally.empirical_params
        err = tally.standard_errors
        row.update(
            p_s_emp=emp.p_s, p_f_emp=emp.p_f, p_l_emp=emp.p_l,
            p_s_err=err[0], p_f_err=err[1], p_l_err=err[2],
            two_ps_plus_pl=2.0 * emp.p_s + emp.p_l,
        )
    else:
        row.update(
            p_s_emp=None, p_f_emp=None, p_l_emp=None,
            p_s_err=None, p_f_err=None, p_l_err=None, two_ps_plus_pl=None,
        )
    if pred is not None:
        row.update(p_s_pred=pred.p_s, p_f_pred=pred.p_f, p_l_pred=pred.p_l)
    else:
        row.update(p_s_pred=None, p_f_pred=None, p_l_pred=None)
    write_rows(rc.out, rc.fmt, SIMULATE_COLUMNS, [row])
    return EXIT_OK


def run_tomo(rc: RunConfig) -> int:
    truth: DensityMatrix = rc.params["truth"]
    settings = tomography.TomographySettings(
        shots_per_setting=rc.params["shots"],
        seed=rc.seed,
        noise_model=rc.params["noise_model"],
    )
    probs = tomography.born_probabilities(truth, settings)
    counts = tomography.sample_counts(probs, settings)
    recon = tomography.reconstruct(counts)
    rep_true = entanglement.report(truth)
    rep_recon = entanglement.report(recon)
    params: channel.ChannelParams | None = rc.params["params"]
    spec: channel.EnvironmentSpec | None = rc.params["spec"]
    row = {
        "p_t": spec.p_t if spec else None,
        "p_s": params.p_s if params else None,
        "p_f": params.p_f if params else None,
        "p_l": params.p_l if params else None,
        "shots_per_setting": settings.shots_per_setting,
        "noise_model": settings.noise_model,
        "fidelity": fidelity(truth, recon),
        "negativity_true": rep_true.negativity,
        "negativity_recon": rep_recon.negativity,
        "entangled_true": rep_true.entangled,
        "entangled_recon": rep_recon.entangled,
        "uncond_ok": params.p_s > limits.uncond_boundary(spec.p_t) if params else None,
        "cond_ok": params.p_s > limits.cond_boundary(spec.p_t * params.p_l) if params else None,
    }
    write_rows(rc.out, rc.fmt, TOMO_COLUMNS, [row])
    return EXIT_OK


def classify(uncond_ok: bool, cond_entangled: bool) -> str:
    if uncond_ok:
        return "unconditional"
    if cond_entangled:
        return "conditional_only"
    return "separable"


def run_pipeline(rc: RunConfig) -> int:
    rows = []
    for idx, scenario in enumerate(rc.params["scenarios"], start=1):
        config: photonics.RateConfig = scenario["rate_config"]
        spec: channel.EnvironmentSpec = scenario["spec"]
        duration = scenario["duration"]
        seq = np.random.SeedSequence(rc.seed, spawn_key=(idx,))
        seed_g, seed_e, seed_mix, seed_tomo = (
            int(s.generate_state(1, dtype=np.uint64)[0]) for s in seq.spawn(4)
        )
        tally_g = photonics.simulate_streams(config, duration, seed_g)
        tally_e = photonics.simulate_streams(config, duration, seed_e)
        if tally_g.n_triple == 0 or tally_e.n_triple == 0:
            raise RuntimeError(f"scenario {idx}: no heralded triples")
        mixed = photonics.mix_detections(tally_g, tally_e, spec.p_t, seed_mix)
        emp = mixed.empirical_params
        estimated = photonics.heralded_state_estimate(mixed, spec)

        settings = tomography.TomographySettings(
            shots_per_setting=rc.params["shots"], seed=seed_tomo
        )
        counts = tomography.sample_counts(
            tomography.born_probabilities(estimated, settings), settings
        )
        recon = tomography.reconstruct(counts)
        rep = entanglement.report(recon)

        ub = limits.uncond_boundary(spec.p_t)
        cb = limits.cond_boundary(spec.p_t * emp.p_l)
        uncond_ok = emp.p_s > ub
        rows.append({
            "scenario": idx,
            "rate_singlet": config.rate_singlet,
            "rate_singles": config.rate_singles,
            "rate_noise": config.rate_noise,
            "tau": config.tau,
            "p_t": spec.p_t,
            "duration": duration,
            "ratio": photonics.rate_ratio(config),
            "n_triple": mixed.n_triple,
            "p_s_emp": emp.p_s,
            "p_f_emp": emp.p_f,
            "p_l_emp": emp.p_l,
            "uncond_boundary": ub,
            "cond_boundary": cb,
            "uncond_ok": uncond_ok,
            "recon_negativity": rep.negativity,
            "cond_entangled": rep.entangled,
            "classification": classify(uncond_ok, rep.entangled),
        })
    write_rows(rc.out, rc.fmt, PIPELINE_COLUMNS, rows)
    return EXIT_OK


_RUNNERS = {
    "limits": run_limits,
    "surface": run_limits,
    "simulate": run_simulate,
    "tomo": run_tomo,
    "pipeline": run_pipeline,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcool",
        description="Cooling-limit sweeps, coincidence Monte Carlo and simulated tomography",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
        return _RUNNERS[rc.command](rc)
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"qcool: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
