"""Command-line entry points tying propagation, models, simulation and
analysis together.

Subcommands: propagate, models, simulate, analyze, calibrate.  All state
comes from an INI-style config file plus a few flags; exit codes are
0 success, 2 config error, 3 data-format error, 4 convergence error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import shots
from .bloch import detect_phase_flip, pulse_area
from .dwell import (
    MODEL_EGALITARIAN,
    MODEL_MIN_COHERENT,
    default_bloch_config,
    egalitarian_broadband,
    min_coherent_model,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
)
from .estimator import analyze_file, run_calibration
from .medium import (
    MediumSpec,
    PulseSpec,
    gaussian_envelope,
    propagate_spectral,
    transmission_probability,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str)
                              else format(float(cell), ".17g")
                              for cell in row) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return parser


def _read(parser: configparser.ConfigParser, name: str, keys: dict,
          required: bool = False) -> dict:
    """The [name] section's values by key.  `keys` maps each key to its
    default, whose type picks the parser: text, a comma list of finite
    floats (tuple), an integer (an integer literal, or an integral float
    such as 1e6), or else a finite float; a default of ... makes the key
    required.  A `required` section must be present."""
    if parser.has_section(name):
        body = dict(parser.items(name))
    elif required:
        raise ConfigError(f"config is missing the [{name}] section")
    else:
        body = {}
    unknown = sorted(set(body) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {', '.join(unknown)}")
    values = {}
    for key, default in keys.items():
        if key in body:
            values[key] = _parse(key, body[key], default)
        elif default is ...:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default
    return values


def _parse(key: str, raw: str, default):
    """`raw` read by the type of `default`, as `_read` describes."""
    if isinstance(default, str):
        return raw
    listed = isinstance(default, tuple)
    parts = [p for p in raw.split(",") if p.strip()] if listed else [raw]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key!r} must be finite, got {raw!r}")
    if listed:
        return tuple(values)
    [value] = values
    if isinstance(default, int):
        if value != int(value):
            raise ConfigError(f"{key!r} must be an integer, got {value!r}")
        # an integer literal exactly, past a float's 53 bits
        return int(raw) if raw.strip().lstrip("+-").isdigit() else int(value)
    return value


def _experiment_from_config(parser) -> shots.ExperimentConfig:
    fields = dataclasses.fields(shots.ExperimentConfig)
    body = _read(parser, "experiment",
                 {f.name.lower(): f.default for f in fields}, required=True)
    return shots.ExperimentConfig(
        **{f.name: body[f.name.lower()] for f in fields})


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- propagate ---------------------------------------------------------------


def _envelope_rows(env):
    t = env.times()
    return [(ti, si.real, si.imag)
            for ti, si in zip(t, env.samples)]


def cmd_propagate(args) -> int:
    parser = _load_config(args.config)
    body = _read(parser, "pulse", {"sigma_t": ..., "carrier_detuning": 0.0,
                                   "mean_photons": 1.0}, required=True)
    pulse = PulseSpec(intensity_rms=body["sigma_t"],
                      carrier_detuning=body["carrier_detuning"],
                      mean_photons=body["mean_photons"])
    medium = MediumSpec.from_lifetime(**_read(
        parser, "medium", {"peak_od": ..., "tau_sp": 26.5e-9}, required=True))
    depth_steps = _read(parser, "propagate", {"depth_steps": 4})["depth_steps"]
    if depth_steps < 1:
        raise ConfigError("depth_steps must be >= 1")

    out = _out_dir(args)
    tail = 10.0 * medium.tau_sp
    env_in = gaussian_envelope(pulse, n_samples=4096, tail=tail)
    env_out = propagate_spectral(env_in, medium, 1.0)
    header = ("t", "re", "im")
    _write_csv(out / "envelope_in.csv", header, _envelope_rows(env_in))
    _write_csv(out / "envelope_out.csv", header, _envelope_rows(env_out))

    bloch = default_bloch_config(pulse, medium)
    depths = [k / depth_steps for k in range(depth_steps + 1)]
    area_rows = []
    for d in depths:
        env_d = (env_in if d == 0 else env_out if d == 1
                 else propagate_spectral(env_in, medium, d))
        area_rows.append((d, pulse_area(env_d, bloch)))
    _write_csv(out / "area_vs_depth.csv", ("depth_fraction", "area"), area_rows)

    flip = detect_phase_flip(env_out)
    diagnostics = {
        "p_transmit": transmission_probability(pulse, medium),
        "energy_ratio": env_out.photon_number / env_in.photon_number,
        "phase_flip_time": flip,
        "peak_od": medium.peak_od,
        "sigma_t": pulse.intensity_rms,
    }
    _write_json(out / "diagnostics.json", diagnostics)
    return EXIT_OK


# --- models ------------------------------------------------------------------


_MODELS_HEADER = ("model", "sigma_t_ns", "peak_od", "p_loss", "tau0",
                  "tauL", "tauT", "tauT_over_tau0")
_MODELS_KEYS = {
    "od_grid": (0.01, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
    "sigma_t_broad": 10e-9,
    "sigma_t_narrow": 50e-9,
    "tau_sp": 26.5e-9,
    "carrier_detuning": 0.0,
    "slices": 8,
}


def _model_curve(model: str, pulse: PulseSpec, medium: MediumSpec,
                 od_grid: tuple, slices: int) -> list:
    """One entry per OD: a DwellBreakdown, or the error that OD failed with;
    a curve that fails to converge as a whole gives its error at every OD."""
    try:
        if model == MODEL_MIN_COHERENT:
            return min_coherent_model(pulse, medium, od_grid, slices=slices)
        return egalitarian_broadband(pulse, medium, od_grid)
    except ConvergenceError as exc:
        return [exc] * len(od_grid)


def cmd_models(args) -> int:
    body = _read(_load_config(args.config), "models", _MODELS_KEYS)
    od_grid = body["od_grid"]
    medium = MediumSpec.from_lifetime(peak_od=1.0, tau_sp=body["tau_sp"])
    curves = [(model, PulseSpec(intensity_rms=sigma,
                                carrier_detuning=body["carrier_detuning"]))
              for model in (MODEL_EGALITARIAN, MODEL_MIN_COHERENT)
              for sigma in (body["sigma_t_broad"], body["sigma_t_narrow"])]
    results = [_model_curve(model, pulse, medium, od_grid, body["slices"])
               for model, pulse in curves]
    rows = []
    for (model, pulse), curve in zip(curves, results):
        sigma = pulse.intensity_rms
        for od, b in zip(od_grid, curve):
            if isinstance(b, Exception):
                rows.append((f"# {model},sigma_t={sigma:g},peak_od={od:g} "
                             f"failed: {b}",))
                continue
            b.check_identities()
            ratio = b.tauT / b.tau0 if b.tau0 > 0 else 0.0
            rows.append((model, sigma * 1e9, od, b.p_loss, b.tau0,
                         b.tauL, b.tauT, ratio))
    _write_csv(_out_dir(args) / "model_curves.csv", _MODELS_HEADER, rows)
    return EXIT_OK


# --- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    parser = _load_config(args.config)
    cfg = _experiment_from_config(parser)
    body = _read(parser, "campaign", {"n_shots": 100000, "with_truth": 1})

    out = _out_dir(args)
    summary = shots.run_campaign(cfg, n_shots=body["n_shots"], seed=args.seed,
                                 out_path=out / "shots.bin",
                                 with_truth=bool(body["with_truth"]),
                                 workers=args.workers)
    report = {
        "n_shots": summary.n_shots,
        "click_rate": summary.click_rate,
        "expected_click_rate": shots.expected_click_rate(cfg),
        "mean_dwell": summary.mean_dwell,
        "mean_transmitted": summary.mean_transmitted,
        "digest": summary.digest,
        "path": summary.path,
        "seed": args.seed,
    }
    _write_json(out / "summary.json", report)
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    parser = _load_config(args.config)
    cfg = _experiment_from_config(parser)
    body = _read(parser, "analysis", {
        "input": str(Path(args.out) / "shots.bin"), "s2": 0.0, "s2_se": 0.0})

    report, binned = analyze_file(body["input"], cfg, s2=body["s2"],
                                  s2_se=body["s2_se"],
                                  force_digest=args.force_digest)
    out = _out_dir(args)
    _write_json(out / "report.json", report)
    t = cfg.sample_dt * np.arange(cfg.n_samples)
    rows = zip(t, binned.delta_phi, binned.se_delta)
    _write_csv(out / "delta_phi.csv", ("t", "delta_phi", "se"), rows)
    return EXIT_OK


# --- calibrate ---------------------------------------------------------------


def cmd_calibrate(args) -> int:
    parser = _load_config(args.config)
    cfg = _experiment_from_config(parser)
    body = _read(parser, "calibrate", {
        "photon_numbers": (588.0, 898.0, 1527.0, 3040.0),
        "n_shots": 1000000, "target_click_rate": 0.10})
    result = run_calibration(cfg, body["photon_numbers"], body["n_shots"],
                             args.seed, target_click=body["target_click_rate"],
                             workers=args.workers)
    out = _out_dir(args)
    _write_json(out / "calibration.json", result)
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once.  It names the subcommand and leaves
    `--workers` at None when not given; `main` resolves both when it runs,
    so a handler replaced after the first call and the CPUs the process
    may use then both count."""
    parser = argparse.ArgumentParser(
        prog="xdwell",
        description="Simulate and analyze single-photon dwell-time campaigns")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": dict(required=True, help="INI config path"),
        "--out": dict(default=".", help="output directory"),
        "--seed": dict(type=int, default=0, help="campaign seed"),
        "--workers": dict(type=int,
                          help="threads generating campaign batches "
                          "(default: the CPUs this process may use)"),
        "--force-digest": dict(action="store_true",
                               help="analyze despite a config-digest mismatch"),
    }
    commands = {
        "propagate": (),
        "models": (),
        "simulate": ("--seed", "--workers"),
        "analyze": ("--force-digest",),
        "calibrate": ("--seed", "--workers"),
    }
    for name, extra in commands.items():
        p = sub.add_parser(name)
        for flag in ("--config", "--out") + extra:
            p.add_argument(flag, **flags[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if "workers" in args and args.workers is None:
        args.workers = _available_cpus()
    if not 0 <= getattr(args, "seed", 0) <= 2**64 - 1:
        print("error: --seed must fit in an unsigned 64-bit value",
              file=sys.stderr)
        return EXIT_CONFIG
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
