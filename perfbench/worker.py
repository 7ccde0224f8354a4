"""One workload run inside its own process; started by run.py.

Modes:
  setup   import the package and generate the inputs, then stop
  run     set up, then run the timed closed loop (one client): CLI ops as
          fresh processes reaped with os.wait4, library ops in-process
  traced  set up, then run the same operations in-process twice, untraced
          and traced, plus one pass with allocation tracking, and report
          per-layer metrics

The result is written as JSON to --result.  Time spent importing the
package and generating inputs is reported as setup_s.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from run import Timeout, alarm, child_env  # noqa: E402

CLI_ENTRY = "import sys; from odmrsense.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 120


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_cli_process(argv, workdir: Path) -> dict:
    """One CLI op as a fresh process; wall, CPU and max-RSS of that process."""
    err_path = workdir / "op_stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *argv], env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err, cwd=workdir)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            status = None
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    if status is None:
        proc.returncode = -signal.SIGKILL
        code = f"timeout after {OP_TIMEOUT_S} s"
    else:
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        code = f"{code} ({tail[0]})" if tail else code
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "result": code}


def run_in_process(op) -> dict:
    """One op in this process: a library call, or cli.main(argv)."""
    from odmrsense import cli

    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        result = op.call() if op.call is not None else cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects the argv
        result = f"exit {exc.code}"
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, the loop goes on
        result = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return {"wall": wall, "cpu": time.process_time() - cpu0, "rss_kb": None,
            "result": result}


def execute(op, runner, workdir: Path) -> dict:
    if runner == "process" and op.argv is not None:
        rec = run_cli_process(op.argv, workdir)
    else:
        rec = run_in_process(op)
    result = rec.pop("result")
    if isinstance(result, str):
        rec["failures"] = [f"{op.label}: {result}"]
    else:
        try:
            rec["failures"] = op.check(result)
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a failure
            rec["failures"] = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
    rec["label"] = op.label
    return rec


def closed_loop(workload, runner, workdir: Path, seconds=None, n_ops=None):
    """Run whole rounds until `seconds` have passed or `n_ops` ops are done."""
    records = []
    start = time.perf_counter()
    rounds = workload.rounds()
    while True:
        for op in next(rounds):
            records.append(execute(op, runner, workdir))
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if n_ops is not None and len(records) >= n_ops:
            break
    return records, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["setup", "run", "traced"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, alarm)

    import workloads  # imports numpy and the package from ROOT/src
    import odmrsense

    src = (ROOT / "src").resolve()
    if src not in Path(odmrsense.__file__).resolve().parents:
        raise SystemExit(f"odmrsense imported from {odmrsense.__file__}, not {src}")

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    result: dict = {"blas_threads": blas_threads()}
    if args.mode == "traced":
        import layers

        def loop(wl, **kw):
            return closed_loop(wl, "in_process", args.workdir, **kw)

        result.update(layers.traced_run(workload, args.seconds, args.seed, args.workdir,
                                        loop))
    else:
        workload.setup()
        if not workload.cli:
            # the first library call pays scipy's lazy imports (about 1 s for
            # fit_peaks), a once-per-process cost like the imports themselves
            closed_loop(workload, "in_process", args.workdir, n_ops=1)
        result["setup_s"] = time.perf_counter() - PROCESS_START
        if args.mode == "run":
            runner = "process" if workload.cli else "in_process"
            records, wall = closed_loop(workload, runner, args.workdir, seconds=args.seconds)
            result.update(ops=records, phase_wall_s=wall)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
