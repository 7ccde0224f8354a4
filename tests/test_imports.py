"""The package runs on numpy alone: no step imports SciPy or jsonschema.

Both are development dependencies only, the oracles the numpy routines
and the config validator are tested against.  A fresh interpreter (this
test process has both loaded already) puts first on sys.meta_path a
finder that refuses either package and records each attempt, so an
import that some code catches still shows.  It then imports the CLI and
runs the steps in the order of STEPS: the five subcommands (calibrate
with three segments and a readout) and a library call of kinetics.evolve
over 1e4 us.  Each step reports its exit code (or the exception it
raised) and the attempts made by its end.

Importing the package loads neither numpy nor any numeric module; each
name loads its module on first access, and each subcommand imports only
the modules it runs, so sensitivity, --help and refusals run without
numpy.  The first numeric import loads numpy with one OpenBLAS thread,
unless numpy came first or the caller set a thread count; fresh
interpreters show each case, and that the environment is left as it was.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import odmrsense
from odmrsense import (CalibrationSeries, LineModel, gaussian_orbital, make_grid, save_cube,
                       synthesize, write_calibration, write_spectrum)

STEPS = ["import", "sensitivity", "calibrate", "simulate", "fit", "fit_auto", "zfs", "evolve"]

PROBE = """
import json, sys

attempts = []

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "jsonschema"):
            attempts.append(name)
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None

sys.meta_path.insert(0, Refuse())

import odmrsense.cli
report = {"import": [0, list(attempts)]}
for name, argv in json.loads(sys.argv[1]):
    try:
        if name == "evolve":
            from odmrsense import KineticsParams, PopulationState, evolve
            evolve(KineticsParams(), PopulationState.ground(), 1e4)
            code = 0
        else:
            code = odmrsense.cli.main(argv)
    except Exception as exc:  # reported in place of the exit code
        code = repr(exc)
    report[name] = [code, list(attempts)]
with open(sys.argv[2], "w") as out:
    json.dump(report, out)
"""


def write_inputs(tmp) -> dict:
    """argv of every subcommand step, with its input files written to tmp."""
    control = np.linspace(10.0, 300.0, 30)
    write_calibration(CalibrationSeries(control, 1450.0 - 0.02 * control), tmp / "cal.csv")
    lines = [LineModel.symmetric(c, 2.0, a) for c, a in ((1339.0, 0.01), (1445.0, -0.01))]
    write_spectrum(synthesize(lines, np.arange(1330.0, 1455.0, 0.25), noise_sigma=5e-4,
                              seed=7), tmp / "spec.csv")
    dims = (12, 10, 8)
    origin, axes = make_grid(dims, (8.0, 6.0, 5.0))
    for name, node in (("homo", None), ("lumo", 0)):
        save_cube(gaussian_orbital(origin, axes, dims, (0.0, 0.0, 0.0), (1.5, 0.8, 0.5),
                                   node_axis=node), tmp / f"{name}.cube")
    return {
        "sensitivity": ["sensitivity", "--sigma", "2e-4", "--tau", "1.0", "--signal-slope",
                        "1.6e-3", "--calib-slope", "1.8", "--out", str(tmp / "sens.json")],
        "calibrate": ["calibrate", "--input", str(tmp / "cal.csv"), "--segments", "3",
                      "--invert-frequency", "1446.0", "--out", str(tmp / "cal.json")],
        # no --amplitudes: the line amplitudes come from the kinetics model
        "simulate": ["simulate", "--seed", "7", "--noise", "5e-4", "--windows",
                     "--out", str(tmp / "kin.csv"), "--svg", str(tmp / "kin.svg")],
        "zfs": ["zfs", "--homo", str(tmp / "homo.cube"), "--lumo", str(tmp / "lumo.cube"),
                "--out", str(tmp / "zfs.json")],
        "fit": ["fit", "--input", str(tmp / "spec.csv"), "--centers", "1339,1445",
                "--out", str(tmp / "fit.json")],
        "fit_auto": ["fit", "--input", str(tmp / "spec.csv"), "--out", str(tmp / "fit_auto.json")],
        "evolve": None,  # a library call, not a subcommand
    }


def package_env(env) -> dict:
    """env with this checkout's package first on PYTHONPATH."""
    src = str(Path(odmrsense.__file__).resolve().parent.parent)
    return {**env, "PYTHONPATH": os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    return tmp, write_inputs(tmp)


@pytest.fixture(scope="module")
def report(inputs):
    tmp, steps = inputs
    order = [(name, steps[name]) for name in STEPS if name in steps]
    subprocess.run([sys.executable, "-c", PROBE, json.dumps(order), str(tmp / "report.json")],
                   env=package_env(os.environ), cwd=tmp, check=True, timeout=120)
    return json.loads((tmp / "report.json").read_text())


@pytest.mark.parametrize("step", STEPS)
def test_scipy_modules_loaded(report, step):
    code, attempts = report[step]
    assert code == 0
    assert attempts == []


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# runs its first argument, then reports OpenBLAS's thread count as
# perfbench/worker.py:blas_threads reads it, every os.environ key written,
# and whether the environment (Python's and the C library's) is as before
BLAS_PROBE = """
import ctypes, json, os, sys

writes = []

class Recording(type(os.environ)):
    def __setitem__(self, key, value):
        writes.append(key)
        super().__setitem__(key, value)

before = dict(os.environ)
os.environ.__class__ = Recording
exec(sys.argv[1])
threads = None
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = int(fn())
libc_getenv = ctypes.CDLL(None).getenv
libc_getenv.restype = ctypes.c_char_p
json.dump({"threads": threads, "writes": writes,
           "environ_kept": dict(os.environ) == before
           and all((libc_getenv(k.encode()) or b"").decode() == before.get(k, "")
                   for k in %r)}, sys.stdout)
""" % (BLAS_THREAD_VARS,)


def blas_probe(code, **variables) -> dict:
    """BLAS_PROBE's report on code run in a fresh interpreter with only the given variables
    of BLAS_THREAD_VARS set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE, code],
                         env=package_env({**env, **variables}), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def default_blas_threads():
    """numpy's own OpenBLAS thread count here; the cases differ only from two threads."""
    threads = blas_probe("import numpy")["threads"]
    if threads is None:
        pytest.skip("numpy has no OpenBLAS mapped")
    if threads < 2:
        pytest.skip("OpenBLAS starts one thread here by default")
    return threads


# spin stands for every numeric module: each takes numpy from odmrsense._numpy
@pytest.mark.parametrize("code, variables, threads, writes", [
    ("import odmrsense.spin", {}, 1, ["OPENBLAS_NUM_THREADS"]),
    ("import numpy, odmrsense.spin", {}, None, []),
    ("import odmrsense.spin", {"OPENBLAS_NUM_THREADS": "2"}, 2, []),
    ("import odmrsense.spin", {"OMP_NUM_THREADS": "2"}, 2, []),
], ids=["package-first", "numpy-first", "openblas-set", "omp-set"])
def test_blas_threads_at_load(default_blas_threads, code, variables, threads, writes):
    assert blas_probe(code, **variables) == {
        "threads": threads or default_blas_threads, "writes": writes, "environ_kept": True}


def test_package_import_maps_no_blas():
    assert blas_probe("import odmrsense") == {"threads": None, "writes": [],
                                              "environ_kept": True}


# runs main(argv) and reports its exit code and every module then loaded
MODULES_PROBE = """
import json, sys
from odmrsense.cli import main
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:  # --help and argparse's usage errors
    code = exc.code
with open(sys.argv[2], "w") as out:
    json.dump({"code": code, "modules": sorted(sys.modules)}, out)
"""


def modules_after(tmp, argv) -> tuple[int, set]:
    """(exit code, loaded module names) of main(argv) in a fresh interpreter."""
    subprocess.run([sys.executable, "-c", MODULES_PROBE, json.dumps(argv),
                    str(tmp / "modules.json")], env=package_env(os.environ), cwd=tmp,
                   capture_output=True, check=True, timeout=60)
    report = json.loads((tmp / "modules.json").read_text())
    return report["code"], set(report["modules"])


@pytest.mark.parametrize("case", ["sensitivity", "help", "usage-error", "config-refusal"])
def test_numpy_not_loaded(inputs, case):
    tmp, steps = inputs
    (tmp / "bad.json").write_text('{"sensitivity": {"sigma": "x"}}')
    argv, code = {"sensitivity": (steps["sensitivity"], 0), "help": (["--help"], 0),
                  "usage-error": (["sensitivity", "--sigma", "x"], 2),
                  "config-refusal": (["sensitivity", "--config", str(tmp / "bad.json")], 2)}[case]
    got, modules = modules_after(tmp, argv)
    assert got == code
    assert "numpy" not in modules


@pytest.mark.parametrize("step, unused", [
    ("calibrate", {"dipolar", "kinetics", "spectra", "volumetric"}),
    ("zfs", {"calibration", "kinetics", "spectra"}),
], ids=["calibrate", "zfs"])
def test_subcommand_loads_only_what_it_runs(inputs, step, unused):
    tmp, steps = inputs
    code, modules = modules_after(tmp, steps[step])
    assert code == 0
    assert {f"odmrsense.{name}" for name in unused}.isdisjoint(modules)


# odmrsense.__all__, pinned: loading names lazily must not change the public set
PUBLIC_NAMES = {
    "BOHR_RADIUS_ANGSTROM", "CalibrationSeries", "ConfigError", "CubeParseError",
    "DIPOLAR_PREFACTOR_MHZ_A3", "DataFormatError", "DegenerateKineticsError",
    "DivisionDomainError", "FitConvergenceError", "GridMismatchError", "InvalidParameterError",
    "KineticsParams", "LineModel", "OdmrSenseError", "OrbitalGrid", "OrbitalStats", "PeakFit",
    "PhaseComparison", "PiecewiseLinearFit", "PopulationState", "ReadoutAmbiguityError",
    "ReadoutError", "ReadoutRangeError", "SegmentFit", "SensitivityReport", "Spectrum",
    "SpectrumMeta", "TransitionSet", "ZfsParameters", "ZfsTensor", "assert_commensurate",
    "auto_guesses", "calibration", "compare_phases", "constants", "contrast_spectrum_amplitudes",
    "delta_d_estimate", "dipolar", "errors", "evaluate_lines", "evolve", "fit_peaks",
    "gaussian_orbital", "homo_lumo_shift", "invert_readout", "kinetics", "load_cube",
    "make_grid", "odmr_contrast", "orbital_stats", "ordered_eigensystem",
    "parameters_to_tensor", "point_dipole_tensor", "rate_matrix", "read_calibration",
    "read_spectrum", "robust_noise_sigma", "save_cube", "segmented_fit", "sensitivity",
    "spectra", "spin", "steady_state", "synthesize", "tensor_to_parameters", "textio",
    "transitions_from_zfs", "volumetric", "write_calibration", "write_spectrum",
    "zfs_from_transitions", "zfs_pair_tensor",
}


def test_public_names_unchanged():
    """__all__ holds the pinned names, and a star import in a fresh interpreter
    binds each of them to the package's own attribute."""
    assert set(odmrsense.__all__) == PUBLIC_NAMES
    code = ("import json, sys\n"
            "import odmrsense\n"
            "names = {}\n"
            "exec('from odmrsense import *', names)\n"
            "json.dump({name: getattr(odmrsense, name) is value for name, value in names.items()\n"
            "           if name != '__builtins__'}, sys.stdout)\n")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(os.environ),
                         capture_output=True, check=True, text=True, timeout=60).stdout
    assert json.loads(out) == dict.fromkeys(PUBLIC_NAMES, True)
