"""Command-line interface.

Subcommands: simulate (synthetic spectra), fit (peak fitting), calibrate
(segmented calibration fits and readout inversion), zfs (dipolar tensor
from orbital cubes), sensitivity (shot-noise figure).

Every output is byte-deterministic: JSON is dumped with sorted keys,
floats go through repr, and nothing timestamps itself.  Every JSON output
follows one rule (_plain): a result object is written as its dataclass
fields, keyed by field name; arrays and tuples become lists, numpy
scalars Python numbers, and non-finite floats null.  CONFIG_SCHEMA
declares each parameter once, with its type, bounds and default; every
flag stores into its config key.  A flag overrides the config file,
which overrides the default, and the merged values are checked against
the same schema whether they came from a flag or a file.  Non-finite
numbers (NaN, infinities, integers too large for a float) are refused.
seed and threads read ODMRSENSE_SEED / ODMRSENSE_THREADS between flag
and config.  Exit codes: 0 success, 1 computation failure (e.g. a fit
that did not converge), 2 bad input or configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np
import jsonschema

from . import calibration, dipolar, kinetics, spectra, spin, textio, volumetric
from .errors import (
    DataFormatError,
    ConfigError,
    InvalidParameterError,
    OdmrSenseError,
)

# Largest frequency grid simulate builds (a run at the limit with --svg
# peaks near 290 MB RSS); larger grids are refused before anything is
# allocated.
MAX_GRID_SAMPLES = 1_000_000

_KINETICS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "pump_rate": {"type": "number", "minimum": 0},
        "radiative_rate": {"type": "number", "minimum": 0},
        "isc_rate": {"type": "number", "minimum": 0},
        "isc_branching": {
            "type": "array", "items": {"type": "number"},
            "minItems": 3, "maxItems": 3,
        },
        "triplet_decay": {
            "type": "array", "items": {"type": "number"},
            "minItems": 3, "maxItems": 3,
        },
        "mw_rate": {"type": "number", "minimum": 0},
        "mw_pair": {"enum": ["xy", "yz", "xz"]},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": ["integer", "null"], "minimum": 0, "default": None},
        "threads": {"type": "integer", "minimum": 1, "default": 1},
        "kinetics": _KINETICS_SCHEMA,
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d_mhz": {"type": "number", "default": 1392.0},
                "e_mhz": {"type": "number", "default": 53.0},
                "linewidth_fwhm": {"type": "number", "exclusiveMinimum": 0, "default": 4.3},
                "shape_mix": {"type": "number", "minimum": 0, "maximum": 1, "default": 1.0},
                "noise_sigma": {"type": "number", "minimum": 0, "default": 0.0},
                "mw_rate": {"type": "number", "exclusiveMinimum": 0, "default": 0.05},
                "amplitudes": {
                    "type": ["array", "null"], "items": {"type": "number"},
                    "minItems": 3, "maxItems": 3,
                },
                "fmin": {"type": "number", "default": 50.0},
                "fmax": {"type": "number", "default": 1500.0},
                "step": {"type": "number", "exclusiveMinimum": 0, "default": 0.5},
                "windows": {"type": "boolean", "default": False},
                "window_half": {"type": "number", "exclusiveMinimum": 0, "default": 25.0},
                "control_value": {"type": ["number", "null"]},
                "control_unit": {"type": ["string", "null"]},
            },
        },
        "fit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "centers": {"type": ["array", "null"], "items": {"type": "number"}},
                "fwhm_guess": {"type": "number", "exclusiveMinimum": 0, "default": 4.0},
                "mix_guess": {"type": "number", "minimum": 0, "maximum": 1, "default": 0.5},
            },
        },
        "calibrate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "segments": {"type": "integer", "minimum": 1, "default": 1},
                "invert_frequency": {"type": ["number", "null"]},
            },
        },
        "zfs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "cutoff_angstrom": {"type": ["number", "null"]},
            },
        },
        "sensitivity": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "tau_s": {"type": "number", "exclusiveMinimum": 0},
                "signal_slope": {"type": "number", "exclusiveMinimum": 0},
                "calib_slope": {"type": "number", "exclusiveMinimum": 0},
                "unit": {"type": "string", "default": ""},
            },
        },
    },
}


def load_config(path) -> dict:
    """Read and schema-validate a JSON run configuration."""
    data = textio.read_json(path, ConfigError)
    try:
        jsonschema.Draft202012Validator(CONFIG_SCHEMA).validate(data)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{path}: {exc.message} (at {where})") from exc
    return data


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"environment variable {name}={raw!r} is not an integer") from exc


def _setting(args, config: dict, key: str):
    """Top-level seed or threads: flag, else ODMRSENSE_<KEY>, else config, else default."""
    env = f"ODMRSENSE_{key.upper()}"
    spec = CONFIG_SCHEMA["properties"][key]
    value = getattr(args, key)
    if value is None:
        value = _env_int(env)
    if value is None:
        value = config.get(key, spec.get("default"))
    try:
        jsonschema.Draft202012Validator(spec).validate(value)
    except jsonschema.ValidationError as exc:
        raise InvalidParameterError(f"--{key}/{env}: {exc.message}") from None
    return value


def _finite(value) -> bool:
    """False for NaN, infinities and integers too large for a float."""
    try:
        return all(math.isfinite(v) for v in (value if isinstance(value, list) else [value])
                   if isinstance(v, (int, float)))
    except OverflowError:
        return False


def _flag(args, key: str, spec: dict):
    value = getattr(args, key, None)
    if isinstance(value, str) and "array" in spec.get("type", ()):
        try:
            return [float(v) for v in value.split(",")]
        except ValueError:
            raise InvalidParameterError(f"--{key} needs comma-separated numbers, "
                                        f"got {value!r}") from None
    return value


def _params(args, config: dict, section: str) -> dict:
    """One section's parameters: schema default, then config value, then flag.

    A null config value counts as absent, and keys with no default and no
    value are left out.  The merged values are checked against the
    section's schema; args=None reads no flags.
    """
    schema = CONFIG_SCHEMA["properties"][section]
    params = {}
    for key, spec in schema["properties"].items():
        for value in (spec.get("default"), config.get(section, {}).get(key),
                      _flag(args, key, spec)):
            if value is not None:
                params[key] = value
    for key, value in params.items():
        if not _finite(value):
            raise InvalidParameterError(f"{section}.{key} must be a finite number")
    try:
        jsonschema.Draft202012Validator(schema).validate(params)
    except jsonschema.ValidationError as exc:
        # the config passed this schema when it was loaded: a flag is at fault
        raise InvalidParameterError(
            f"flag for {section}.{exc.absolute_path[0]}: {exc.message}") from None
    return params


def _plain(obj):
    """obj as JSON data: dataclass fields by name, lists, Python numbers, None for non-finite."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_svg(path, x, y, width: int = 640, height: int = 360,
              title: str = "") -> None:
    """Minimal deterministic polyline plot."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    margin = 40.0
    spanx = x.max() - x.min() or 1.0
    spany = y.max() - y.min() or 1.0
    px = margin + (x - x.min()) / spanx * (width - 2 * margin)
    py = height - margin - (y - y.min()) / spany * (height - 2 * margin)
    points = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(px, py))
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="20" font-size="12">{title}</text>',
        (f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}"'
         f' height="{height - 2 * margin}" fill="none" stroke="black"/>'),
        f'<polyline points="{points}" fill="none" stroke="steelblue"/>',
        "</svg>",
    ]
    textio.write_lines(path, body)


def _cmd_simulate(args, config: dict) -> int:
    p = _params(args, config, "simulate")
    seed = _setting(args, config, "seed")
    step = p["step"]

    transitions = spin.transitions_from_zfs(spin.ZfsParameters(p["d_mhz"], p["e_mhz"]))
    amps = p.get("amplitudes")
    if amps is None:
        rates = {key: tuple(v) if isinstance(v, list) else v
                 for key, v in _params(None, config, "kinetics").items()}
        contrast = kinetics.contrast_spectrum_amplitudes(kinetics.KineticsParams(**rates),
                                                         p["mw_rate"])
        amps = [contrast["xy"], contrast["yz"], contrast["xz"]]

    centers = [transitions.f_xy, transitions.f_yz, transitions.f_xz]
    lines = [spectra.LineModel.symmetric(c, p["linewidth_fwhm"], a, p["shape_mix"])
             for c, a in zip(centers, amps)]
    if p["windows"]:
        spans = [(c - p["window_half"], c + p["window_half"]) for c in sorted(centers)]
    else:
        if p["fmax"] <= p["fmin"]:
            raise InvalidParameterError("fmax must exceed fmin")
        spans = [(p["fmin"], p["fmax"])]
    # count before allocating: a mistyped step must not reach np.arange
    n_samples = sum((hi - lo) / step + 1.0 for lo, hi in spans)
    if not n_samples <= MAX_GRID_SAMPLES:
        raise InvalidParameterError(
            f"frequency grid would hold {n_samples:.4g} samples, "
            f"above the limit of {MAX_GRID_SAMPLES:,}")
    freqs = np.unique(np.concatenate(
        [np.arange(lo, hi + step / 2.0, step) for lo, hi in spans]))

    spectrum = spectra.synthesize(lines, freqs, noise_sigma=p["noise_sigma"], seed=seed,
                                  control_value=p.get("control_value"),
                                  control_unit=p.get("control_unit"))
    spectra.write_spectrum(spectrum, args.out)
    if args.svg:
        write_svg(args.svg, spectrum.freqs_mhz, spectrum.signal,
                  title="simulated spectrum")
    return 0


def _cmd_fit(args, config: dict) -> int:
    p = _params(args, config, "fit")
    spectrum = spectra.read_spectrum(args.input)
    centers = p.get("centers")
    guesses = None
    if centers:
        baseline = float(np.median(spectrum.signal))
        guesses = []
        for center in centers:
            k = int(np.argmin(np.abs(spectrum.freqs_mhz - center)))
            amp = float(spectrum.signal[k] - baseline) or 1e-6
            guesses.append(spectra.LineModel.symmetric(center, p["fwhm_guess"], amp,
                                                       p["mix_guess"]))
    fits = spectra.fit_peaks(spectrum, guesses)
    payload = {
        "peaks": fits,
        "noise_sigma": spectra.robust_noise_sigma(spectrum),
        "n_samples": len(spectrum),
    }
    textio.write_json(args.out, _plain(payload))
    if not all(f.converged for f in fits):
        print("fit did not converge", file=sys.stderr)
        return 1
    return 0


def _cmd_calibrate(args, config: dict) -> int:
    p = _params(args, config, "calibrate")
    series = calibration.read_calibration(args.input)
    fit = calibration.segmented_fit(series, p["segments"])
    payload = {**_plain(fit), "n_segments": fit.n_segments}
    invert = p.get("invert_frequency")
    if invert is not None:
        control, sigma = calibration.invert_readout(fit, invert)
        payload["readout"] = {"frequency_mhz": invert, "control": control,
                              "control_sigma": sigma}
    textio.write_json(args.out, _plain(payload))
    if args.svg:
        asc = series.ascending()
        write_svg(args.svg, asc.control, asc.freq_mhz, title="calibration series")
    return 0


def _stats_dict(stats: volumetric.OrbitalStats) -> dict:
    return {
        "norm": stats.norm,
        "centroid_angstrom": stats.centroid,
        "spread_angstrom": stats.spread,
    }


def _analyse_phase(homo_path, lumo_path, cutoff, threads) -> dict:
    homo = volumetric.load_cube(homo_path)
    lumo = volumetric.load_cube(lumo_path)
    homo_stats = volumetric.orbital_stats(homo)
    lumo_stats = volumetric.orbital_stats(lumo)
    tensor = dipolar.zfs_pair_tensor(homo, lumo, cutoff_angstrom=cutoff, threads=threads)
    eigenvalues, _ = spin.ordered_eigensystem(tensor)
    params, _ = spin.tensor_to_parameters(tensor)
    return {
        "homo_stats": _stats_dict(homo_stats),
        "lumo_stats": _stats_dict(lumo_stats),
        "homo_lumo_shift_pm": volumetric.homo_lumo_shift(homo_stats, lumo_stats),
        "tensor_mhz": tensor.tensor,
        "eigenvalues_mhz": eigenvalues,
        "d_mhz": params.D,
        "e_mhz": params.E,
    }


def _cmd_zfs(args, config: dict) -> int:
    cutoff = _params(args, config, "zfs").get("cutoff_angstrom")
    threads = _setting(args, config, "threads")

    jobs = [("a", args.homo, args.lumo)]
    if args.homo_b or args.lumo_b:
        if not (args.homo_b and args.lumo_b):
            raise InvalidParameterError("--homo-b and --lumo-b must come together")
        jobs.append(("b", args.homo_b, args.lumo_b))
    phases = _plain({name: _analyse_phase(h, l, cutoff, threads) for name, h, l in jobs})
    payload: dict = {
        "cutoff_angstrom": cutoff,
        "phases": phases,
        "comparison": None,
    }
    if len(jobs) == 2:
        tensor_a = spin.ZfsTensor(np.asarray(phases["a"]["tensor_mhz"]))
        tensor_b = spin.ZfsTensor(np.asarray(phases["b"]["tensor_mhz"]))
        payload["comparison"] = dipolar.compare_phases(tensor_a, tensor_b)
    textio.write_json(args.out, _plain(payload))

    if args.table:
        rows = [(name, *ph["eigenvalues_mhz"], ph["d_mhz"], ph["e_mhz"])
                for name, ph in sorted(phases.items())]
        textio.write_table(args.table, "phase,eig_x_mhz,eig_y_mhz,eig_z_mhz,d_mhz,e_mhz", rows)
    return 0


def _cmd_sensitivity(args, config: dict) -> int:
    p = _params(args, config, "sensitivity")
    missing = [key for key in CONFIG_SCHEMA["properties"]["sensitivity"]["properties"]
               if key not in p]
    if missing:
        raise InvalidParameterError(f"missing sensitivity inputs: {', '.join(missing)}")
    textio.write_json(args.out, _plain(calibration.sensitivity(**p)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")

    parser = argparse.ArgumentParser(
        prog="odmrsense",
        description="Triplet ODMR spectra: simulation, fitting, calibration, "
                    "dipolar tensors and sensitivity figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="synthesize a three-line ODMR spectrum")
    p.add_argument("--seed", type=int, help="RNG seed (overrides ODMRSENSE_SEED)")
    p.add_argument("--d-mhz", type=float)
    p.add_argument("--e-mhz", type=float)
    p.add_argument("--linewidth", dest="linewidth_fwhm", type=float, help="FWHM in MHz")
    p.add_argument("--shape-mix", type=float)
    p.add_argument("--amplitudes", help="three comma-separated line amplitudes")
    p.add_argument("--mw-rate", type=float,
                   help="microwave rate for kinetics-derived amplitudes (1/us)")
    p.add_argument("--noise", dest="noise_sigma", type=float)
    p.add_argument("--fmin", type=float)
    p.add_argument("--fmax", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--windows", action="store_true", default=None,
                   help="sample only windows around each line")
    p.add_argument("--window-half", type=float)
    p.add_argument("--control-value", type=float)
    p.add_argument("--control-unit")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="optional SVG plot path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", parents=[common], help="fit resonance lines")
    p.add_argument("--input", required=True, help="spectrum CSV")
    p.add_argument("--centers", help="comma-separated center guesses in MHz")
    p.add_argument("--fwhm-guess", type=float)
    p.add_argument("--mix-guess", type=float)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("calibrate", parents=[common],
                       help="segmented linear calibration fit")
    p.add_argument("--input", required=True, help="calibration CSV")
    p.add_argument("--segments", type=int)
    p.add_argument("--invert-frequency", type=float,
                   help="also invert this frequency back to the control value")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--svg", help="optional SVG plot path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("zfs", parents=[common],
                       help="dipolar fine-structure tensor from orbital cubes")
    p.add_argument("--homo", required=True, help="HOMO cube file")
    p.add_argument("--lumo", required=True, help="LUMO cube file")
    p.add_argument("--homo-b", help="second-phase HOMO cube")
    p.add_argument("--lumo-b", help="second-phase LUMO cube")
    p.add_argument("--threads", type=int,
                   help="FFT worker threads (overrides ODMRSENSE_THREADS)")
    p.add_argument("--cutoff", dest="cutoff_angstrom", type=float,
                   help="kernel cutoff in angstrom")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--table", help="optional eigenvalue CSV path")
    p.set_defaults(func=_cmd_zfs)

    p = sub.add_parser("sensitivity", parents=[common],
                       help="shot-noise sensitivity figure")
    p.add_argument("--sigma", type=float, help="per-shot signal noise")
    p.add_argument("--tau", dest="tau_s", type=float, help="shot duration in seconds")
    p.add_argument("--signal-slope", type=float, help="signal change per MHz")
    p.add_argument("--calib-slope", type=float, help="MHz per control unit")
    p.add_argument("--unit", help="label for the resulting eta unit")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except (DataFormatError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OdmrSenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
