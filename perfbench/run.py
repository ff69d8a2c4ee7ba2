#!/usr/bin/env python3
"""The repository benchmark: one workload per run, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk_fp32 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` runs the same workload with every traced layer
wrapped (see ``perfbench/layers.py``), traces half of the schedule's cycles
and reports the per-layer metrics, the measured Table-5 shares beside the
cycle model's (bulk workloads), and the tracing overhead.  Workload and
metric names come from ``BENCHMARK.json``.  Human-readable lines come
first; the last line of standard output is the JSON result.  A fuller
report (environment, set-up phases, per-call latencies, spans) is written
under ``.bench_build/perfbench/``.

Failed calls and wrong outputs are counted in the result's ``failed``
against ``attempted``; ``failed_frac`` is printed, not reported as a
metric, because it is 0 on every correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def declared():
    """``BENCHMARK.json``: the workloads and metrics this command emits."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _prepare_environment() -> bool:
    """Point imports and build caches at this checkout; False if it is incomplete."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    # Write nothing outside the checkout: the compiled kernel is cached in
    # the build directory, and no bytecode is cached at all.
    os.environ["REPRO_KERNEL_CACHE_DIR"] = str(BUILD / "repro-kernels")
    sys.dont_write_bytecode = True
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    return True


def end_to_end_values(outcome, peak_mb, unit):
    """End-to-end metric values by name, plus notes printed beside some."""
    from perfbench.system import median, tail

    setups = [sum(phases.values()) for phases in outcome.setups]
    tail_ms, percentile, beyond = tail(outcome.latencies_ms)
    samples = len(outcome.latencies_ms)
    values = {
        "setup_s": median(setups),
        "tokens_per_s": outcome.tokens / outcome.wall_s,
        "latency_p50_ms": median(outcome.latencies_ms),
        "latency_tail_ms": tail_ms,
        "max_abs_err": outcome.max_abs_err,
        "peak_rss_mb": peak_mb + outcome.worker_peak_mb,
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{seconds:.3f}" for seconds in setups),
        "latency_p50_ms": f"per {unit}, {samples} samples",
        "latency_tail_ms": f"p{percentile:.1f} of {samples} samples, {beyond} beyond",
    }
    if outcome.worker_peak_mb:
        notes["peak_rss_mb"] = f"{peak_mb:.1f} benchmark + {outcome.worker_peak_mb:.1f} workers"
    return values, notes


def per_layer_values(outcome, tracer):
    """Per-layer metric values by name, from the traced windows' spans."""
    from statistics import fmean

    from perfbench.layers import layer_metrics
    from perfbench.system import median
    from perfbench.tracing import totals_by_name

    values = layer_metrics(totals_by_name(tracer.spans), len(outcome.latencies_ms))
    values.update(outcome.serving)
    values["sharding.service_inflation_x"] = outcome.service_inflation_x
    for phase in ("lut_fit", "model_build", "pool_spawn", "warmup"):
        values[f"setup.{phase}_s"] = median([phases[phase] for phases in outcome.setups])
    # Means, not medians: traced and untraced cycles hold the same mix of calls.
    traced, untraced = fmean(outcome.latencies_ms), fmean(outcome.untraced_ms or [0.0])
    values["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    return values


def table5_lines(values, sequence_length):
    from perfbench.layers import TABLE5, modelled_shares

    modelled = modelled_shares(sequence_length)
    lines = [f"table5: measured shares of models.forward vs the repro.hardware NN-LUT "
             f"model at L={sequence_length} (modelled shares are not gated)"]
    for category in TABLE5:
        measured = values[f"table5.{category}_share"]
        lines.append(f"  {category:<11} measured {measured:6.1%}  modelled {modelled[category]:6.1%}")
    lines.append(f"  {'unaccounted':<11} measured {values['table5.unaccounted_share']:6.1%}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, profile=None):
    """Run one workload; returns ``(result, human lines, report)``."""
    from perfbench import workloads
    from perfbench.layers import instrument
    from perfbench.system import environment, peak_rss_mb
    from perfbench.tracing import Tracer

    profile = profile or workloads.FULL
    kernel = workloads.kernel_name()
    tracer = Tracer() if trace else None
    if tracer is not None:
        instrument(tracer)
    try:
        outcome = workloads.run(profile, workload, seed, seconds, kernel, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
             f"kernel {kernel}"]
    unit = "request" if workload == workloads.SERVING else "forward call"
    notes = {}
    if tracer is not None:
        names, values = declared()["per_layer"], per_layer_values(outcome, tracer)
    else:
        names = declared()["end_to_end"]
        values, notes = end_to_end_values(outcome, peak_rss_mb(), unit)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names}
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    if tracer is not None and workload != workloads.SERVING:
        # The token-weighted mean request length: the shape the model sees.
        lengths = [n for template in workloads.templates(profile, workload) for n in template]
        lines += table5_lines(values, round(sum(n * n for n in lengths) / sum(lengths)))
    lines.append(f"failed_frac {outcome.failed / outcome.attempted:.6g} ratio  "
                 f"({outcome.failed} of {outcome.attempted})")
    lines += [f"problem: {problem}" for problem in outcome.problems]
    env = environment(kernel)
    lines.append("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    report = {"environment": env, "result": result, "problems": outcome.problems,
              "setups": outcome.setups,
              "latencies_ms": outcome.latencies_ms,
              "spans": [span.to_dict() for span in tracer.spans] if tracer else []}
    return result, lines, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _prepare_environment():
        print(f"perfbench: {ROOT} holds no repro sources (src/repro)", file=sys.stderr)
        return 2
    known = [entry["name"] for entry in declared()["workloads"]]
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    from perfbench.system import stop_child_processes

    try:
        result, lines, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_child_processes()
    out_dir = BUILD / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))
    print("\n".join(lines))
    print(f"report {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
