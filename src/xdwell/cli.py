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
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
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
    od_grid_array,
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


def _section(parser: configparser.ConfigParser, name: str,
             required: bool = True) -> dict:
    if not parser.has_section(name):
        if required:
            raise ConfigError(f"config is missing the [{name}] section")
        return {}
    return dict(parser.items(name))


def _pop_float(section: dict, key: str, default=None) -> float:
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return float(default)
    raw = section.pop(key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{key!r} must be finite, got {raw!r}")
    return value


def _pop_int(section: dict, key: str, default=None) -> int:
    value = _pop_float(section, key, default)
    if value != int(value):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _pop_list(section: dict, key: str, default: str) -> list:
    raw = section.pop(key, default)
    try:
        values = [float(p) for p in str(raw).split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key!r} values must be finite, got {raw!r}")
    return values


def _reject_unknown(section: dict, name: str):
    if section:
        raise ConfigError(
            f"unknown keys in [{name}]: {', '.join(sorted(section))}")


def _pulse_from_config(parser) -> PulseSpec:
    body = _section(parser, "pulse")
    pulse = PulseSpec(
        intensity_rms=_pop_float(body, "sigma_t"),
        carrier_detuning=_pop_float(body, "carrier_detuning", 0.0),
        mean_photons=_pop_float(body, "mean_photons", 1.0),
    )
    _reject_unknown(body, "pulse")
    return pulse


def _medium_from_config(parser) -> MediumSpec:
    body = _section(parser, "medium")
    medium = MediumSpec.from_lifetime(
        peak_od=_pop_float(body, "peak_od"),
        tau_sp=_pop_float(body, "tau_sp", 26.5e-9),
    )
    _reject_unknown(body, "medium")
    return medium


def _pop_fields(section: dict, spec) -> dict:
    """Keyword arguments for the flat dataclass `spec` from the `section`
    keys that are its field names, lower-cased (configparser lower-cases
    every key), each read by the type of the field's default."""
    kwargs = {}
    for f in dataclasses.fields(spec):
        key = f.name.lower()
        if key not in section:
            continue
        elif isinstance(f.default, tuple):
            kwargs[f.name] = tuple(_pop_list(section, key, ""))
        elif isinstance(f.default, int):
            kwargs[f.name] = _pop_int(section, key)
        else:
            kwargs[f.name] = _pop_float(section, key)
    return kwargs


def _experiment_from_config(parser) -> shots.ExperimentConfig:
    body = _section(parser, "experiment")
    kwargs = _pop_fields(body, shots.ExperimentConfig)
    _reject_unknown(body, "experiment")
    return shots.ExperimentConfig(**kwargs)


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
    pulse = _pulse_from_config(parser)
    medium = _medium_from_config(parser)
    body = _section(parser, "propagate", required=False)
    depth_steps = _pop_int(body, "depth_steps", 4)
    _reject_unknown(body, "propagate")
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
        env_d = env_in if d == 0 else propagate_spectral(env_in, medium, d)
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
_DEFAULT_OD_GRID = "0.01,0.25,0.5,1,1.5,2,3,4"


def _model_curve(model: str, pulse: PulseSpec, medium: MediumSpec,
                 od_grid: list, slices: int) -> list:
    """One entry per OD: a DwellBreakdown, or the error that OD failed with;
    a curve that fails as a whole gives its error at every OD."""
    try:
        if model == MODEL_MIN_COHERENT:
            return min_coherent_model(pulse, medium, od_grid, slices=slices)
        return egalitarian_broadband(pulse, medium, od_grid)
    except (ConvergenceError, ConfigError) as exc:
        return [exc] * len(od_grid)


def cmd_models(args) -> int:
    parser = _load_config(args.config)
    body = _section(parser, "models", required=False)
    od_grid = _pop_list(body, "od_grid", _DEFAULT_OD_GRID)
    sigma_broad = _pop_float(body, "sigma_t_broad", 10e-9)
    sigma_narrow = _pop_float(body, "sigma_t_narrow", 50e-9)
    tau_sp = _pop_float(body, "tau_sp", 26.5e-9)
    carrier = _pop_float(body, "carrier_detuning", 0.0)
    slices = _pop_int(body, "slices", 8)
    _reject_unknown(body, "models")

    medium = MediumSpec.from_lifetime(peak_od=1.0, tau_sp=tau_sp)
    od_grid_array(medium, od_grid)  # a bad grid exits 2 before any job
    curves = [(model, PulseSpec(intensity_rms=sigma, carrier_detuning=carrier))
              for model in (MODEL_EGALITARIAN, MODEL_MIN_COHERENT)
              for sigma in (sigma_broad, sigma_narrow)]
    out = _out_dir(args)
    # curves run on --workers threads, one curve per thread (numpy releases
    # the GIL in the FFTs and array passes); rows are written in grid
    # order, so the file is the same at any worker count
    rows = []
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = pool.map(lambda c: _model_curve(*c, medium, od_grid, slices),
                           curves)
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
    _write_csv(out / "model_curves.csv", _MODELS_HEADER, rows)
    return EXIT_OK


# --- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    parser = _load_config(args.config)
    cfg = _experiment_from_config(parser)
    body = _section(parser, "campaign", required=False)
    n_shots = _pop_int(body, "n_shots", 100000)
    with_truth = bool(_pop_int(body, "with_truth", 1))
    _reject_unknown(body, "campaign")

    out = _out_dir(args)
    summary = shots.run_campaign(cfg, n_shots=n_shots, seed=args.seed,
                                 out_path=out / "shots.bin",
                                 with_truth=with_truth, workers=args.workers)
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
    body = _section(parser, "analysis", required=False)
    input_path = body.pop("input", None)
    s2 = _pop_float(body, "s2", 0.0)
    s2_se = _pop_float(body, "s2_se", 0.0)
    _reject_unknown(body, "analysis")
    if input_path is None:
        input_path = str(Path(args.out) / "shots.bin")

    report, binned = analyze_file(input_path, cfg, s2=s2, s2_se=s2_se,
                                  force_digest=args.force_digest)
    out = _out_dir(args)
    _write_json(out / "report.json", report)
    t = cfg.sample_dt * np.arange(cfg.n_samples)
    rows = zip(t, binned.delta_phi, binned.se_delta)
    _write_csv(out / "delta_phi.csv", ("t", "delta_phi", "se"), rows)
    return EXIT_OK


# --- calibrate ---------------------------------------------------------------


_DEFAULT_CAL_PHOTONS = "588,898,1527,3040"


def cmd_calibrate(args) -> int:
    parser = _load_config(args.config)
    cfg = _experiment_from_config(parser)
    body = _section(parser, "calibrate", required=False)
    photon_numbers = _pop_list(body, "photon_numbers", _DEFAULT_CAL_PHOTONS)
    n_shots = _pop_int(body, "n_shots", 1000000)
    target_click = _pop_float(body, "target_click_rate", 0.10)
    _reject_unknown(body, "calibrate")
    if len(photon_numbers) < 4:
        raise ConfigError("photon_numbers needs at least 4 entries")

    result = run_calibration(cfg, photon_numbers, n_shots, args.seed,
                             target_click=target_click, workers=args.workers)
    out = _out_dir(args)
    _write_json(out / "calibration.json", result)
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdwell",
        description="Simulate and analyze single-photon dwell-time campaigns")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "propagate": cmd_propagate,
        "models": cmd_models,
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "calibrate": cmd_calibrate,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", type=int, default=0, help="campaign seed")
        p.add_argument("--workers", type=int, default=_available_cpus(),
                       help="threads generating campaign batches or model "
                       "curves (default: the CPUs this process may use)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--force-digest", action="store_true",
                       help="analyze despite a config-digest mismatch")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed < 0 or args.seed > 2**64 - 1:
        print("error: --seed must fit in an unsigned 64-bit value",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args)
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
