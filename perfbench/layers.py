"""Traced run: per-layer metrics from spans around the package's functions.

The layers are the package's modules.  Spans wrap ``cli.main`` and every
public function of the six library modules.  A traced run does, in one
process:

1. set-up under the tracer (spans kept apart, e.g. ``spectra.synthesize``
   on fit_batch);
2. one warm-up round, then an untraced pass of about 30 % of the run;
3. the same ops again under the tracer (time pass); the two passes give
   the tracing overhead;
4. one round under the tracer with ``tracemalloc`` on (allocation pass;
   it slows Python-level code, so its times are not used);
5. when the workload's own ops never reach a layer function that a
   metric needs, one coverage round (a desk_cli round in-process plus one
   fit_batch round) under the tracer, time pass and allocation pass, to
   fill that metric.  The report names the source of every metric.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from tracer import Tracer, concurrent_cpu, outermost, public_functions, self_times, span_tree

LIBRARY_LAYERS = ("spin", "kinetics", "spectra", "calibration", "volumetric", "dipolar")
UNTRACED_SHARE = 0.3

# name, unit, kind, span name (or layer prefix), parent span for calls_per_parent
METRICS = (
    ("cli.main.self_ms", "ms", "self", "cli.main"),
    ("spin.busy_ms", "ms", "busy_per_op", "spin."),
    ("kinetics.contrast_spectrum_amplitudes_ms", "ms", "median",
     "kinetics.contrast_spectrum_amplitudes"),
    ("kinetics.steady_state.calls", "count", "calls_per_op", "kinetics.steady_state"),
    ("spectra.fit_peaks_ms", "ms", "median", "spectra.fit_peaks"),
    ("spectra.fit_peaks.self_ms", "ms", "self", "spectra.fit_peaks"),
    ("spectra.evaluate_lines.calls_per_fit", "count", "calls_per_parent",
     "spectra.evaluate_lines", "spectra.fit_peaks"),
    ("spectra.evaluate_lines_ms", "ms", "median", "spectra.evaluate_lines"),
    ("spectra.auto_guesses_ms", "ms", "median", "spectra.auto_guesses"),
    ("spectra.fit_peaks.converged_ratio", "1", "converged", "spectra.fit_peaks"),
    ("spectra.synthesize_ms", "ms", "median", "spectra.synthesize"),
    ("spectra.read_spectrum_ms", "ms", "median", "spectra.read_spectrum"),
    ("spectra.write_spectrum_ms", "ms", "median", "spectra.write_spectrum"),
    ("calibration.read_calibration_ms", "ms", "median", "calibration.read_calibration"),
    ("calibration.segmented_fit_ms", "ms", "median", "calibration.segmented_fit"),
    ("calibration.segmented_fit.alloc_peak_mb", "MB", "alloc", "calibration.segmented_fit"),
    ("calibration.invert_readout_us", "us", "median", "calibration.invert_readout"),
    ("calibration.invert_readout.calls", "count", "calls_per_op", "calibration.invert_readout"),
    ("volumetric.load_cube_ms", "ms", "median", "volumetric.load_cube"),
    ("volumetric.load_cube.alloc_peak_mb", "MB", "alloc", "volumetric.load_cube"),
    ("volumetric.orbital_stats_ms", "ms", "median", "volumetric.orbital_stats"),
    ("dipolar.zfs_pair_tensor_ms", "ms", "median", "dipolar.zfs_pair_tensor"),
    ("dipolar.zfs_pair_tensor.cpu_ms", "ms", "cpu", "dipolar.zfs_pair_tensor"),
    ("dipolar.zfs_pair_tensor.alloc_peak_mb", "MB", "alloc", "dipolar.zfs_pair_tensor"),
)
SCALE = {"ms": 1e3, "us": 1e6, "MB": 1.0 / 2 ** 20, "count": 1.0, "1": 1.0}
PER_OP_KINDS = ("busy_per_op", "calls_per_op")
RESULT_ATTRS = {
    "spectra.fit_peaks": lambda fits: {"converged": all(f.converged for f in fits)},
}


def targets() -> dict:
    import importlib

    from odmrsense import cli

    found = {cli: ["main"]}
    for layer in LIBRARY_LAYERS:
        module = importlib.import_module(f"odmrsense.{layer}")
        found[module] = public_functions(module)
    return found


def _has_ancestor(spans, span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def evaluate(kind: str, target: str, unit: str, spans, ops, parent: str | None = None):
    """(value, samples) of one metric on one set of spans, or None."""
    scale = SCALE[unit]
    if kind == "busy_per_op":
        busy = outermost(spans, target)
        return (sum(s.wall for s in busy) * scale / ops, ops) if busy else None
    named = [s for s in spans if s.name == target]
    if not named:
        return None
    if kind == "median":
        return statistics.median(s.wall for s in named) * scale, len(named)
    if kind == "self":
        selfs = self_times(spans)
        return (statistics.median(selfs[i] for i, s in enumerate(spans) if s.name == target)
                * scale, len(named))
    if kind == "calls_per_op":
        return len(named) / ops, ops
    if kind == "calls_per_parent":
        parents = sum(1 for s in spans if s.name == parent)
        nested = sum(1 for s in named if _has_ancestor(spans, s, parent))
        return (nested / parents, parents) if parents else None
    if kind == "converged":
        return sum(bool(s.attrs.get("converged")) for s in named) / len(named), len(named)
    if kind == "cpu":
        return concurrent_cpu(named) * scale / len(named), len(named)
    if kind == "alloc":
        return statistics.median(s.alloc_peak for s in named) * scale, len(named)
    raise ValueError(kind)


def layer_metrics(time_sources, alloc_sources) -> dict:
    """Every metric from the first source that reaches its span.

    Each source is (label, spans, ops); ops is None for set-up spans,
    which per-op metrics skip.
    """
    out = {}
    for name, unit, kind, target, *parent in METRICS:
        sources = alloc_sources if kind == "alloc" else time_sources
        for label, spans, ops in sources:
            if ops is None and kind in PER_OP_KINDS:
                continue
            got = evaluate(kind, target, unit, spans, ops, *parent)
            if got is not None:
                out[name] = {"value": got[0], "unit": unit, "samples": got[1],
                             "source": label}
                break
    return out


def _tally(records) -> tuple[int, list[str]]:
    failures = [msg for rec in records for msg in rec["failures"]]
    failed = sum(1 for rec in records if rec["failures"])
    return failed, failures


def traced_run(workload, seconds: float, seed: int, workdir: Path, loop) -> dict:
    """All passes of a traced run; `loop(workload, seconds=.., n_ops=..)`."""
    from workloads import DeskCli, FitBatch

    found = targets()
    setup_tracer = Tracer(found, result_attrs=RESULT_ATTRS)
    with setup_tracer.installed():
        workload.setup()

    records, _ = loop(workload, n_ops=1)                      # warm-up
    base, base_wall = loop(workload, seconds=UNTRACED_SHARE * seconds)
    records += base
    time_tracer = Tracer(found, result_attrs=RESULT_ATTRS)
    with time_tracer.installed():
        traced, traced_wall = loop(workload, n_ops=len(base))
    records += traced
    alloc_tracer = Tracer(found, track_alloc=True, result_attrs=RESULT_ATTRS)
    with alloc_tracer.installed():
        alloc_records, alloc_wall = loop(workload, n_ops=1)
    records += alloc_records

    time_sources = [("loop", time_tracer.spans, len(traced)),
                    ("setup", setup_tracer.spans, None)]
    alloc_sources = [("loop", alloc_tracer.spans, len(alloc_records))]
    metrics = layer_metrics(time_sources, alloc_sources)
    coverage_tree = None
    if len(metrics) < len(METRICS):
        cover_dir = workdir / "coverage"
        cover_dir.mkdir()
        cover = [DeskCli(seed, cover_dir), FitBatch(seed, cover_dir)]
        for wl in cover:
            wl.setup()
            records += loop(wl, n_ops=1)[0]                   # warm-up
        cover_spans = {}
        for track_alloc in (False, True):
            tracer = Tracer(found, track_alloc=track_alloc, result_attrs=RESULT_ATTRS)
            ops = 0
            with tracer.installed():
                for wl in cover:
                    got, _ = loop(wl, n_ops=1 if wl.cli else 4)
                    records += got
                    ops += len(got)
            cover_spans[track_alloc] = (tracer.spans, ops)
        spans, ops = cover_spans[False]
        time_sources.append(("coverage", spans, ops))
        alloc_sources.append(("coverage", *cover_spans[True]))
        metrics = layer_metrics(time_sources, alloc_sources)
        coverage_tree = span_tree(spans)

    failed, failures = _tally(records)
    return {
        "layers": metrics,
        "tree": span_tree(time_tracer.spans),
        "coverage_tree": coverage_tree,
        "overhead": {
            "ops": len(base),
            "untraced_s_per_op": base_wall / len(base),
            "traced_s_per_op": traced_wall / len(traced),
            "ratio": traced_wall / base_wall - 1.0,
            "alloc_pass_s_per_op": alloc_wall / len(alloc_records),
        },
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
    }
