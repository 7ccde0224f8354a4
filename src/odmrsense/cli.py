"""Command-line interface.

Subcommands: simulate (synthetic spectra), fit (peak fitting), calibrate
(segmented calibration fits and readout inversion), zfs (dipolar tensor
from orbital cubes), sensitivity (shot-noise figure).

Every output is byte-deterministic: JSON is dumped with sorted keys,
floats go through repr, and nothing timestamps itself.  Every JSON output
follows one rule (_plain): a result object is written as its dataclass
fields, keyed by field name; arrays and tuples become lists, numpy
scalars Python numbers, and non-finite floats null.  CONFIG_SCHEMA
declares each parameter once, with its type, bounds, default and help
text, in its subcommand's section (seed is simulate.seed, threads is
zfs.threads, which is still checked but has no effect: numpy's FFTs run
on one thread, and a forked child parses each phase's LUMO cube when
two CPUs are usable); every flag but the file names is built from that
section and stores into its config key.  A flag overrides the config
file, which overrides the default, and the merged values are checked
against the same schema (by _schema_error, not jsonschema, which would
add about 80 ms to every process) whether they came from a flag or a
file.  Non-finite numbers (NaN, infinities, integers too large for a
float) are refused.  Exit codes: 0 success, 1 computation failure (e.g.
a fit that did not converge), 2 bad input or configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import pickle
import signal
import sys

import numpy as np

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


def _section(**properties) -> dict:
    """A JSON object schema that admits only the given properties."""
    return {"type": "object", "additionalProperties": False, "properties": properties}


_TRIPLE = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}

# Each subcommand's section also declares its flags: a key's flag is
# --key-with-dashes unless "flag" names another, its type follows the
# schema type (a boolean is a switch, an array comma-separated numbers)
# and its help is the "description".
CONFIG_SCHEMA = _section(
    kinetics=_section(
        pump_rate={"type": "number", "minimum": 0},
        radiative_rate={"type": "number", "minimum": 0},
        isc_rate={"type": "number", "minimum": 0},
        isc_branching=_TRIPLE,
        triplet_decay=_TRIPLE,
    ),
    simulate=_section(
        seed={"type": ["integer", "null"], "minimum": 0, "description": "RNG seed of the noise"},
        d_mhz={"type": "number", "default": 1392.0, "description": "fine-structure D in MHz"},
        e_mhz={"type": "number", "default": 53.0, "description": "fine-structure E in MHz"},
        linewidth_fwhm={"type": "number", "exclusiveMinimum": 0, "default": 4.3,
                        "flag": "--linewidth", "description": "FWHM in MHz"},
        shape_mix={"type": "number", "minimum": 0, "maximum": 1, "default": 1.0,
                   "description": "line shape, 1 Lorentzian to 0 Gaussian"},
        noise_sigma={"type": "number", "minimum": 0, "default": 0.0, "flag": "--noise",
                     "description": "Gaussian noise sigma"},
        mw_rate={"type": "number", "exclusiveMinimum": 0, "default": 0.05,
                 "description": "microwave rate for kinetics-derived amplitudes (1/us)"},
        amplitudes={**_TRIPLE, "type": ["array", "null"],
                    "description": "three comma-separated line amplitudes"},
        fmin={"type": "number", "default": 50.0, "description": "scan start in MHz"},
        fmax={"type": "number", "default": 1500.0, "description": "scan end in MHz"},
        step={"type": "number", "exclusiveMinimum": 0, "default": 0.5,
              "description": "sample step in MHz"},
        windows={"type": "boolean", "default": False,
                 "description": "sample only windows around each line"},
        window_half={"type": "number", "exclusiveMinimum": 0, "default": 25.0,
                     "description": "window half-width in MHz"},
        control_value={"type": ["number", "null"],
                       "description": "control value recorded in the sidecar"},
        control_unit={"type": ["string", "null"], "description": "unit of the control value"},
    ),
    fit=_section(
        centers={"type": ["array", "null"], "items": {"type": "number"},
                 "description": "comma-separated center guesses in MHz"},
        fwhm_guess={"type": "number", "exclusiveMinimum": 0, "default": 4.0,
                    "description": "FWHM guess in MHz for each center"},
        mix_guess={"type": "number", "minimum": 0, "maximum": 1, "default": 0.5,
                   "description": "shape-mix guess for each center"},
    ),
    calibrate=_section(
        segments={"type": "integer", "minimum": 1, "default": 1,
                  "description": "number of linear segments"},
        invert_frequency={"type": ["number", "null"],
                          "description": "also invert this frequency back to the control value"},
    ),
    zfs=_section(
        threads={"type": "integer", "minimum": 1, "default": 1,
                 "description": "has no effect (the FFTs run on one thread); kept so "
                                "existing scripts run"},
        cutoff_angstrom={"type": ["number", "null"], "flag": "--cutoff",
                         "description": "kernel cutoff in angstrom"},
    ),
    sensitivity=_section(
        sigma={"type": "number", "exclusiveMinimum": 0, "description": "per-shot signal noise"},
        tau_s={"type": "number", "exclusiveMinimum": 0, "flag": "--tau",
               "description": "shot duration in seconds"},
        signal_slope={"type": "number", "exclusiveMinimum": 0,
                      "description": "signal change per MHz"},
        calib_slope={"type": "number", "exclusiveMinimum": 0,
                     "description": "MHz per control unit"},
        unit={"type": "string", "default": "", "description": "label for the resulting eta unit"},
    ),
)


# The JSON types CONFIG_SCHEMA names, checked as JSON Schema 2020-12
# checks them on JSON data: a bool is no number, and an integral float
# such as 1.0 is an integer.
_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, (int, float)),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}

# keyword: (fails, message) of the keywords that bound one number or
# list; each fails on the comparison jsonschema makes, so NaN passes
_BOUNDS = {
    "minimum": (lambda v, b: v < b, "is less than the minimum of {!r}"),
    "maximum": (lambda v, b: v > b, "is greater than the maximum of {!r}"),
    "exclusiveMinimum": (lambda v, b: v <= b, "is less than or equal to the minimum of {!r}"),
    "minItems": (lambda v, b: len(v) < b, "is too short"),
    "maxItems": (lambda v, b: len(v) > b, "is too long"),
}


def _schema_error(value, schema: dict, path: tuple = ()):
    """The first error of value against schema, as (message, path), or None.

    Implements the keywords CONFIG_SCHEMA uses (type, the _BOUNDS,
    items, properties and additionalProperties: false) with the messages,
    paths and keyword order of jsonschema's Draft202012Validator.validate,
    which reports the first error it finds; other keywords are ignored.
    """
    for keyword, arg in schema.items():
        if keyword == "type":
            types = arg if isinstance(arg, list) else [arg]
            if not any(_TYPES[t](value) for t in types):
                return f"{value!r} is not of type {', '.join(map(repr, types))}", path
        elif keyword in _BOUNDS:
            fails, message = _BOUNDS[keyword]
            kind = "array" if keyword.endswith("Items") else "number"
            if _TYPES[kind](value) and fails(value, arg):
                return f"{value!r} {message.format(arg)}", path
        elif keyword == "items" and isinstance(value, list):
            for index, item in enumerate(value):
                if error := _schema_error(item, arg, path + (index,)):
                    return error
        elif keyword == "properties" and isinstance(value, dict):
            for key, spec in arg.items():
                if key in value and (error := _schema_error(value[key], spec, path + (key,))):
                    return error
        elif keyword == "additionalProperties" and isinstance(value, dict):
            extra = sorted(set(value) - set(schema.get("properties", {})), key=str)
            if extra:
                listed = ", ".join(map(repr, extra))
                verb = "was" if len(extra) == 1 else "were"
                return f"Additional properties are not allowed ({listed} {verb} unexpected)", path
    return None


def load_config(path) -> dict:
    """Read and schema-validate a JSON run configuration."""
    data = textio.read_json(path, ConfigError)
    if error := _schema_error(data, CONFIG_SCHEMA):
        message, where = error
        raise ConfigError(f"{path}: {message} (at {'/'.join(map(str, where)) or '<root>'})")
    return data


def _finite(value) -> bool:
    """False for NaN, infinities and integers too large for a float."""
    try:
        return all(math.isfinite(v) for v in (value if isinstance(value, list) else [value])
                   if isinstance(v, (int, float)))
    except OverflowError:
        return False


def _flag_name(key: str, spec: dict) -> str:
    return spec.get("flag", "--" + key.replace("_", "-"))


def _flag(args, key: str, spec: dict):
    value = getattr(args, key, None)
    if isinstance(value, str) and "array" in spec["type"]:
        try:
            return [float(v) for v in value.split(",")]
        except ValueError:
            raise InvalidParameterError(f"{_flag_name(key, spec)} needs comma-separated "
                                        f"numbers, got {value!r}") from None
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
    if error := _schema_error(params, schema):
        # the config passed this schema when it was loaded: a flag is at fault
        message, where = error
        raise InvalidParameterError(f"flag for {section}.{where[0]}: {message}")
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

    spectrum = spectra.synthesize(lines, freqs, noise_sigma=p["noise_sigma"], seed=p.get("seed"),
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


def _load_cubes(homo_path, lumo_path):
    """(homo, lumo) grids; on two usable CPUs a forked child parses the LUMO meanwhile.

    The child pipes back its grid or its error, pickled, and exits 0 once all is
    written, else this process parses the LUMO; a HOMO error is raised first.
    """
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return volumetric.load_cube(homo_path), volumetric.load_cube(lumo_path)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's stack
        try:
            os.close(read_fd)  # a write to a parent gone then fails instead of blocking
            try:
                lumo = volumetric.load_cube(lumo_path)
            except Exception as exc:
                lumo = exc
            with open(write_fd, "wb", closefd=False) as pipe:
                pickle.dump(lumo, pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)  # exit closes write_fd: the parent's EOF means the child is done
        finally:
            os._exit(1)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            homo = volumetric.load_cube(homo_path)
            data = pipe.read()
    finally:  # EOF comes only with the child's exit, which a kill then leaves as it was
        os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    lumo = pickle.loads(data) if status == 0 else volumetric.load_cube(lumo_path)
    if isinstance(lumo, Exception):
        raise lumo
    return homo, lumo


def _analyse_phase(homo_path, lumo_path, cutoff) -> dict:
    homo, lumo = _load_cubes(homo_path, lumo_path)
    homo_stats = volumetric.orbital_stats(homo)
    lumo_stats = volumetric.orbital_stats(lumo)
    tensor = dipolar.zfs_pair_tensor(homo, lumo, cutoff_angstrom=cutoff)
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
    p = _params(args, config, "zfs")
    cutoff = p.get("cutoff_angstrom")

    jobs = [("a", args.homo, args.lumo)]
    if args.homo_b is not None or args.lumo_b is not None:
        if args.homo_b is None or args.lumo_b is None:
            raise InvalidParameterError("--homo-b and --lumo-b must come together")
        jobs.append(("b", args.homo_b, args.lumo_b))
    phases = _plain({name: _analyse_phase(h, l, cutoff) for name, h, l in jobs})
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


# The flags that name files, as (flag, help, required); every other flag
# is built from the subcommand's CONFIG_SCHEMA section.
_OUT = ("--out", "output JSON path (default stdout)", False)
_SVG = ("--svg", "optional SVG plot path", False)
_COMMANDS = {
    "simulate": (_cmd_simulate, "synthesize a three-line ODMR spectrum",
                 [("--out", "output CSV path", True), _SVG]),
    "fit": (_cmd_fit, "fit resonance lines", [("--input", "spectrum CSV", True), _OUT]),
    "calibrate": (_cmd_calibrate, "segmented linear calibration fit",
                  [("--input", "calibration CSV", True), _OUT, _SVG]),
    "zfs": (_cmd_zfs, "dipolar fine-structure tensor from orbital cubes",
            [("--homo", "HOMO cube file", True), ("--lumo", "LUMO cube file", True),
             ("--homo-b", "second-phase HOMO cube", False),
             ("--lumo-b", "second-phase LUMO cube", False), _OUT,
             ("--table", "optional eigenvalue CSV path", False)]),
    "sensitivity": (_cmd_sensitivity, "shot-noise sensitivity figure", [_OUT]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odmrsense",
        description="Triplet ODMR spectra: simulation, fitting, calibration, "
                    "dipolar tensors and sensitivity figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, files) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON run configuration")
        for flag, text, required in files:
            p.add_argument(flag, required=required, help=text)
        for key, spec in CONFIG_SCHEMA["properties"][command]["properties"].items():
            kind = spec["type"][0] if isinstance(spec["type"], list) else spec["type"]
            how = ({"action": "store_true", "default": None} if kind == "boolean"
                   else {"type": {"number": float, "integer": int}.get(kind, str)})
            p.add_argument(_flag_name(key, spec), dest=key, help=spec.get("description"), **how)
        p.set_defaults(func=func)
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
