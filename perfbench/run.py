"""odmrsense benchmark: one workload, one seed, one run.

Run from the root of a checkout that holds ``src/odmrsense``:

    python3 perfbench/run.py --workload fit_batch --seed 1 --seconds 20 --trace 0

Workloads: desk_cli, fit_batch, zfs_two_phase, calib_long (see
perfbench/README.md).  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it prints the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones listed in BENCHMARK.json.

Every workload run happens in its own worker process (perfbench/worker.py),
so set-up time and peak RSS belong to one workload.  Set-up is repeated in
separate workers and its median reported.  The harness itself imports
nothing from the package and starts no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk_cli", "fit_batch", "zfs_two_phase", "calib_long")
SETUP_SAMPLES = 3        # the run worker's own set-up plus two set-up-only workers
IMPORT_SAMPLES = 3       # fresh processes timing `import odmrsense.cli`
P90_MIN_OPS = 100        # p90 needs at least ten samples beyond it
RUN_BUDGET_S = 170       # the whole run, set-up included


class Timeout(Exception):
    pass


def alarm(signum, frame):
    raise Timeout()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ODMRSENSE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(mode: str, args, workdir: Path, deadline: float):
    """Start one worker, reap it with os.wait4, return (result, rusage)."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--mode", mode,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--workdir", str(workdir),
         "--result", str(result_path)],
        env=child_env(), stdout=subprocess.DEVNULL, start_new_session=True)
    signal.alarm(max(1, int(deadline - time.monotonic())))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # the worker leads a process group holding its CLI processes: stop them all
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(result_path.read_text()), usage


def import_seconds() -> list[float]:
    """`import odmrsense.cli` timed inside fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import odmrsense.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout))
    return out


def end_to_end(run: dict, setups: list[float], usages) -> dict:
    """All seven end-to-end metrics, each with its sample count."""
    ops = run["ops"]
    n = len(ops)
    walls = [op["wall"] * 1e3 for op in ops]
    rss_kb = [u.ru_maxrss for u in usages] + [op["rss_kb"] for op in ops if op["rss_kb"]]
    p90 = None
    if n >= P90_MIN_OPS:
        p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "ops_per_s": {"value": n / run["phase_wall_s"], "unit": "1/s", "samples": n},
        "op_ms_p50": {"value": statistics.median(walls), "unit": "ms", "samples": n},
        "op_ms_p90": {"value": p90, "unit": "ms", "samples": n,
                      **({} if p90 is not None else
                         {"omitted": f"fewer than {P90_MIN_OPS} ops in the run"})},
        "cpu_s_per_op": {"value": sum(op["cpu"] for op in ops) / n, "unit": "s",
                         "samples": n},
        "peak_rss_mb": {"value": max(rss_kb) / 1024.0, "unit": "MB",
                        "samples": len(rss_kb)},
        "fail_ratio": {"value": sum(1 for op in ops if op["failures"]) / n, "unit": "1",
                       "samples": n},
    }


def per_label(ops) -> dict:
    labels: dict[str, list[float]] = {}
    for op in ops:
        labels.setdefault(op["label"], []).append(op["wall"] * 1e3)
    return {label: {"ops": len(w), "op_ms_p50": statistics.median(w)}
            for label, w in labels.items()}


def distinct(messages, limit: int = 10) -> list[str]:
    return list(dict.fromkeys(messages))[:limit]


def untraced(args, work: Path, deadline: float) -> tuple[dict, dict]:
    setups, usages = [], []
    for k in range(SETUP_SAMPLES - 1):
        result, usage = run_worker("setup", args, work / f"setup{k}", deadline)
        setups.append(result["setup_s"])
        usages.append(usage)
    run, usage = run_worker("run", args, work / "run", deadline)
    setups.append(run["setup_s"])
    usages.append(usage)
    metrics = end_to_end(run, setups, usages)
    ops = run["ops"]
    failures = [msg for op in ops for msg in op["failures"]]
    report = {
        "metrics": metrics,
        "by_label": per_label(ops),
        "timed_phase_s": run["phase_wall_s"],
        "setup_samples_s": setups,
        "blas_threads": run["blas_threads"],
        "failures": distinct(failures),
    }
    summary = {"attempted": len(ops), "failed": sum(1 for op in ops if op["failures"])}
    return report, summary


def traced(args, work: Path, deadline: float) -> tuple[dict, dict]:
    run, _ = run_worker("traced", args, work / "traced", deadline)
    imports = import_seconds()
    layers = dict(run["layers"])
    layers["cli.import_s"] = {"value": statistics.median(imports), "unit": "s",
                              "samples": len(imports), "source": "fresh process"}
    report = {
        "layers": layers,
        "tracing_overhead": run["overhead"],
        "span_tree": run["tree"],
        "coverage_span_tree": run["coverage_tree"],
        "blas_threads": run["blas_threads"],
        "failures": distinct(run["failures"]),
    }
    summary = {"attempted": run["attempted"], "failed": run["failed"]}
    return report, summary


def print_summary(args, report: dict, summary: dict) -> None:
    print(f"# odmrsense benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {summary['attempted']} ops, {summary['failed']} failed")
    rows = report.get("metrics") or report["layers"]
    for name, m in rows.items():
        value = "omitted" if m["value"] is None else f"{m['value']:.6g}"
        print(f"#   {name:<42} {value:>12} {m['unit']:<6} n={m['samples']}"
              + (f" ({m['source']})" if "source" in m else ""))
    if "span_tree" in report:
        print("#   span tree (calls, total ms, self ms, thread CPU ms):")
        for row in report["span_tree"]:
            depth = row["path"].count("/")
            name = row["path"].rsplit("/", 1)[-1]
            print(f"#     {'  ' * depth}{name:<44} {row['calls']:>7} "
                  f"{row['total_ms']:>11.2f} {row['self_ms']:>11.2f} "
                  f"{row['thread_cpu_ms']:>11.2f}")
        over = report["tracing_overhead"]
        print(f"#   tracing overhead: {over['ratio']:+.1%} over {over['ops']} ops")
    for msg in report["failures"]:
        print(f"#   FAILED {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="odmrsense benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    signal.signal(signal.SIGALRM, alarm)
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "odmrsense" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'odmrsense'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = traced if args.trace else untraced
        report, summary = run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), **summary, **report}
    print_summary(args, report, summary)
    print(json.dumps({"report": report}))
    measured = report.get("metrics") or report["layers"]
    metrics = {}
    for spec in wanted:
        got = measured[spec["name"]]
        if got["unit"] != spec["unit"] or got["value"] is None:
            raise RuntimeError(f"metric {spec['name']} not measured as {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
