"""The CLI loads neither SciPy nor jsonschema, step by step.

Importing SciPy's submodules costs up to a second each and jsonschema
about 80 ms, in every CLI process: the subcommands run on numpy alone
(SciPy serves only kinetics.evolve, which no subcommand calls, and
jsonschema only the tests).  The checks run in a fresh interpreter,
since this test process has both loaded already.  One interpreter runs
the steps in the order of STEPS and reports the modules of either
package loaded by the end of each step.
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

STEPS = ["import", "sensitivity", "calibrate", "simulate", "fit", "fit_auto", "zfs"]

PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy", "jsonschema")))

import odmrsense.cli
report = {"import": [0, loaded()]}
for name, argv in json.loads(sys.argv[1]):
    report[name] = [odmrsense.cli.main(argv), loaded()]
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
    }


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    steps = write_inputs(tmp)
    src = str(Path(odmrsense.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    order = [(name, steps[name]) for name in STEPS if name in steps]
    subprocess.run([sys.executable, "-c", PROBE, json.dumps(order), str(tmp / "report.json")],
                   env=env, cwd=tmp, check=True, timeout=120)
    return json.loads((tmp / "report.json").read_text())


@pytest.mark.parametrize("step", STEPS)
def test_scipy_modules_loaded(report, step):
    code, modules = report[step]
    assert code == 0
    assert modules == []
