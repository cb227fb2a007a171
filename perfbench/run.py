"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper-single-link --seed 1 \\
        --seconds 30 --trace 0

Runs from the root of a source checkout; it imports the program from
``src/`` and keeps its scratch files (result caches, the pure-packet
reference, span dumps) under ``.perfbench/``.  With ``--trace 0`` the
last line of standard output is a JSON object carrying the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of the
traced run.  Every line before it is a human-readable report.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-single-link", "table1-multihop", "city-hybrid-sweep")

#: Fresh set-ups per run behind setup_s: this process plus replicas in
#: child interpreters.
SETUP_SAMPLES = 5

#: Reference slices run after each set-up to normalise it.
SETUP_SLICES = 2

#: Seeds for baselines and tuning, and the seed kept out of both for
#: confirming a claim.
DEFAULT_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 1999

END_TO_END = (
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("norm_pkts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.draingen_s", "s"),
    ("setup.pool_s", "s"),
    ("traffic.compile_s", "s"),
    ("traffic.packets", "count"),
    ("sim.run_s.wtp", "s"),
    ("sim.run_s.bpr", "s"),
    ("sim.run_s.drr", "s"),
    ("sim.run_s.pad", "s"),
    ("sim.pkts_per_s.wtp", "1/s"),
    ("sim.pkts_per_s.bpr", "1/s"),
    ("sim.pkts_per_s.drr", "1/s"),
    ("sim.pkts_per_s.pad", "1/s"),
    ("core.audit_s", "s"),
    ("core.ddp_error", "ratio"),
    ("network.run_s.wtp", "s"),
    ("network.run_s.drr", "s"),
    ("network.hop_pkts", "count"),
    ("network.inconsistent_frac", "ratio"),
    ("hybrid.plan_s", "s"),
    ("hybrid.packet_s", "s"),
    ("hybrid.fluid_s", "s"),
    ("hybrid.split_s", "s"),
    ("hybrid.envelope_s", "s"),
    ("hybrid.fluid_frac", "ratio"),
    ("hybrid.packet_frac", "ratio"),
    ("hybrid.gaps_accepted_frac", "ratio"),
    ("hybrid.demotions", "count"),
    ("hybrid.error", "ratio"),
    ("hybrid.over_epsilon_frac", "ratio"),
    ("runner.map_s", "s"),
    ("runner.worker_busy_s", "s"),
    ("runner.overhead_s", "s"),
    ("runner.warm_map_s", "s"),
    ("runner.cache_hit_frac", "ratio"),
    ("runner.coordinator_rss_mb", "MB"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("checks.failed_frac", "ratio"),
)

SCHEDULERS = ("wtp", "bpr", "drr", "pad")


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(name: str, seed: int, scale: float, workdir: Path):
    """Import the program, build the workload, generate its drain
    bodies and start its worker pool; return it with the timings.

    ``slice_s``, the mean of reference slices run right after, is the
    host speed that normalises the set-up time."""
    began = time.perf_counter()
    from perfbench import workloads  # imports the program

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, scale, workdir)
    timings = workload.start()
    timings["import_s"] = imported - began
    timings["setup_s"] = time.perf_counter() - began
    from perfbench.hostspeed import reference_slice

    timings["slice_s"] = statistics.fmean(
        reference_slice() for _ in range(SETUP_SLICES)
    )
    return workload, timings


def setup_replicas(name: str, seed: int, count: int) -> list[dict]:
    """Time ``count`` fresh set-ups, each in its own interpreter."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _status_mb(pid, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def worker_rss_mb() -> dict[int, float]:
    """Current RSS of each live worker process, by pid."""
    import multiprocessing

    return {child.pid: _status_mb(child.pid, "VmRSS")
            for child in multiprocessing.active_children()}


def peak_rss_mb(worker_start: dict[int, float]) -> float:
    """Peak RSS of this process plus each pool worker's growth past the
    RSS it started with.

    Pool workers are forked after set-up, so the RSS a worker starts
    with is pages it shares with this process; they are counted once,
    in this process's peak.
    """
    import multiprocessing

    total = _status_mb("self", "VmHWM")
    for child in multiprocessing.active_children():
        try:
            grown = _status_mb(child.pid, "VmHWM") - worker_start[child.pid]
        except (OSError, KeyError):
            continue  # exited, or not a worker of the pool
        total += max(grown, 0.0)
    return total


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, rnd, tracer) -> dict:
    """Per-layer figures of one traced round."""
    from perfbench.tracing import total

    spans, counts = tracer.spans, tracer.counts
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics["traffic.compile_s"] = total(spans, "traffic.compile")
    metrics["traffic.packets"] = counts["traffic.packets"]
    for name in SCHEDULERS:
        # Outermost simulation spans only: a replay's own Simulator.run
        # is inside its span.
        run_s = total(spans, "sim.run", exclude_parent="sim.run",
                      scheduler=name)
        metrics[f"sim.run_s.{name}"] = run_s
        metrics[f"sim.pkts_per_s.{name}"] = (
            counts[f"sim.pkts.{name}"] / run_s if run_s > 0 else 0.0
        )
    metrics["core.audit_s"] = total(spans, "core.audit")
    for name in ("wtp", "drr"):
        metrics[f"network.run_s.{name}"] = total(
            spans, "network.run", scheduler=name
        )
    metrics["network.hop_pkts"] = counts["network.hop_pkts"]
    if counts["network.experiments"]:
        metrics["network.inconsistent_frac"] = (
            counts["network.inconsistent"] / counts["network.experiments"]
        )
    metrics["hybrid.plan_s"] = total(spans, "hybrid.plan")
    metrics["hybrid.packet_s"] = total(spans, "sim.run", parent="hybrid.run",
                                       own=True)
    metrics["hybrid.fluid_s"] = total(spans, "hybrid.run", own=True)
    metrics["hybrid.split_s"] = total(spans, "hybrid.split")
    metrics["hybrid.envelope_s"] = total(spans, "hybrid.envelope")
    maps = [end - start for name, start, end, _, _ in spans
            if name == "runner.map"]
    if maps:
        busy = total(spans, "city.cell")
        metrics["runner.map_s"] = maps[0]
        metrics["runner.worker_busy_s"] = busy
        metrics["runner.overhead_s"] = maps[0] - busy / workload.jobs
        metrics["runner.warm_map_s"] = sum(maps[1:])
    metrics.update(rnd.layers)
    metrics["trace.spans"] = len(spans)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path = WORKDIR, scale: float = 1.0,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload for ``seconds``; return its metrics, check
    counts and digests."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload, own_setup = set_up(name, seed, scale, workdir)
    worker_start = worker_rss_mb()
    from perfbench.hostspeed import REF_NOMINAL_S, Clock
    from perfbench.tracing import NULL_TRACER, Tracer, instrument
    from perfbench.workloads import digest

    plain, traced = [], []
    try:
        began = time.perf_counter()
        index = 0
        while True:
            if trace and index % 2 == 1:
                tracer = Tracer()
                with instrument(tracer):
                    rnd = workload.run_round(index, tracer, Clock())
                traced.append((rnd, tracer))
            else:
                rnd = workload.run_round(index, NULL_TRACER, Clock())
                plain.append(rnd)
            index += 1
            # The simulators' object graphs are cyclic: collect them so
            # peak RSS does not grow with the number of rounds.
            gc.collect()
            # Start another round only if it should end near the close
            # of the window, not a whole round past it.
            elapsed = time.perf_counter() - began
            if elapsed + rnd.wall_s / 2 >= seconds and (traced or not trace):
                break
        window_s = time.perf_counter() - began
        peak = peak_rss_mb(worker_start)
    finally:
        workload.close()

    setups = [own_setup] + setup_replicas(name, seed, setup_samples - 1)

    rounds = plain + [rnd for rnd, _ in traced]
    digests = [digest(rnd.outputs) for rnd in rounds]
    checks: dict[str, int] = {}
    attempted = failed = 0
    for rnd, round_digest in zip(rounds, digests):
        for cell in workload.check(rnd):
            cell["deterministic"] = round_digest == digests[0]
            attempted += 1
            for check, passed in cell.items():
                checks[check] = checks.get(check, 0) + (not passed)
            failed += not all(cell.values())
    quality = workload.quality(rounds[0])

    e2e = {
        "setup_s": _median(s["setup_s"] * REF_NOMINAL_S / s["slice_s"]
                           for s in setups),
        "norm_wall_s": _median(rnd.norm_s for rnd in plain),
        "norm_pkts_per_s": _median(rnd.packet_hops / rnd.norm_s
                                   for rnd in plain),
        "peak_rss_mb": peak,
    }
    result = {
        "workload": name,
        "seed": seed,
        "window_s": window_s,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "walls": [rnd.wall_s for rnd in plain],
        "norms": [rnd.norm_s for rnd in plain],
        "raw_setup_s": _median(s["setup_s"] for s in setups),
        "wall_s": _median(rnd.wall_s for rnd in plain),
        "pkts_per_s": _median(rnd.packet_hops / rnd.wall_s for rnd in plain),
        "e2e": e2e,
        "ddp_error": quality["ddp_error"],
        "hybrid_error": quality["hybrid_error"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "checks": checks,
        "over_epsilon": quality.get("over_epsilon"),
        "cells": len(rounds[0].outputs),
        "digest": digests[0],
        "digests_equal": len(set(digests)) == 1,
        "setup_samples": len(setups),
    }
    if trace:
        per_round = [layer_metrics(workload, rnd, tracer)
                     for rnd, tracer in traced]
        layers = {metric: _median(m[metric] for m in per_round)
                  for metric, _ in PER_LAYER}
        for part in ("import_s", "draingen_s", "pool_s"):
            layers[f"setup.{part}"] = _median(s[part] for s in setups)
        layers["core.ddp_error"] = quality["ddp_error"]
        layers["hybrid.error"] = quality["hybrid_error"] or 0.0
        if result["over_epsilon"] is not None:
            layers["hybrid.over_epsilon_frac"] = (
                result["over_epsilon"] / result["cells"]
            )
        layers["checks.failed_frac"] = result["failed_frac"]
        layers["trace.overhead_s"] = (
            _median(rnd.norm_s for rnd, _ in traced) - e2e["norm_wall_s"]
        )
        result["layers"] = layers
        spans_path = workdir / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(
            [{"round": i, "spans": tracer.spans, "counts": tracer.counts}
             for i, (_, tracer) in enumerate(traced)]
        ))
        result["spans_path"] = str(spans_path)
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def report_lines(result: dict) -> list[str]:
    units = dict(END_TO_END)
    e2e = result["e2e"]
    walls, norms = result["walls"], result["norms"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"window {result['window_s']:.1f} s  rounds {result['rounds']}"
        + (f" + {result['traced_rounds']} traced"
           if result["traced_rounds"] else ""),
        f"  setup_s          {e2e['setup_s']:.4f} s   "
        f"(median of {result['setup_samples']} set-ups, normalised; raw "
        f"{result['raw_setup_s']:.4f} s)",
        f"  norm_wall_s      {e2e['norm_wall_s']:.4f} s   (median of "
        f"{len(norms)} rounds; min {min(norms):.4f}, max {max(norms):.4f})",
        f"  norm_pkts_per_s  {e2e['norm_pkts_per_s']:.1f} "
        f"{units['norm_pkts_per_s']}",
        f"  wall_s           {result['wall_s']:.4f} s   (raw host time, "
        f"not normalised; min {min(walls):.4f}, max {max(walls):.4f})",
        f"  pkts_per_s       {result['pkts_per_s']:.1f} 1/s (raw)",
        f"  peak_rss_mb      {e2e['peak_rss_mb']:.1f} MB",
        f"  ddp_error        {result['ddp_error']:.6f} ratio",
        "  hybrid_error     "
        + (f"{result['hybrid_error']:.6f} ratio"
           if result["hybrid_error"] is not None
           else "n/a (the workload runs no hybrid cells)"),
        f"  failed_frac      {result['failed_frac']:.4f} ratio "
        f"({result['attempted']} cells attempted)",
    ]
    if result["over_epsilon"] is not None:
        lines.append(
            f"  over_epsilon {result['over_epsilon']} / {result['cells']} "
            "cells (hybrid_error > epsilon; the fidelity check allows the "
            "seed commit's own misses)"
        )
    lines.append("checks (cells failing / attempted):")
    for check, count in sorted(result["checks"].items()):
        lines.append(f"  {check:<16} {count} / {result['attempted']}")
    lines.append(
        f"digest {result['digest']}"
        + ("" if result["digests_equal"] else "  (ROUNDS DIFFER)")
    )
    if "layers" in result:
        lines.append("per-layer (median of traced rounds):")
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<28} {result['layers'][name]:.6g} {unit}")
        lines.append(f"spans written to {result['spans_path']}")
    return lines


def result_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": result["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {
        # A round whose digest differs fails its "deterministic" check.
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def supervise(argv: list[str]) -> int:
    """Run the measurement in a child interpreter and wait for every
    process it leaves behind.

    multiprocessing's resource tracker (started for the city sweep's
    shared-memory traces) exits only once the process that started it
    has exited.  As a child subreaper, this process inherits it and
    waits for it, so the command returns only when all of its
    processes have ended.
    """
    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    code = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *argv, "--measure"], cwd=ROOT).returncode
    while True:
        try:
            os.wait()
        except ChildProcessError:
            return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one fresh set-up and print it as JSON")
    parser.add_argument("--measure", action="store_true",
                        help="measure in this process (no supervisor)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    # Shard stores and other temporary files stay inside the checkout.
    tempfile.tempdir = str(WORKDIR / "tmp")

    if args.setup_only:
        workload, timings = set_up(args.workload, args.seed, 1.0, WORKDIR)
        workload.close()
        print(json.dumps(timings))
        return 0
    if not args.measure:
        return supervise(sys.argv[1:] if argv is None else list(argv))

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(result):
        print(line)
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
