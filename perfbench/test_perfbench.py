"""Tiny-scale tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench import workloads  # noqa: E402

#: Small enough for seconds per workload, large enough that every
#: output check holds at the benchmark's own tolerances.
SCALE = 0.05


def _measure(name, trace, tmp_path):
    return run.measure(name, seed=3, seconds=0.0, trace=trace,
                       workdir=tmp_path, scale=SCALE, setup_samples=1)


def _names_units(entries):
    return [(entry["name"], entry["unit"]) for entry in entries]


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _names_units(spec["end_to_end"]) == list(run.END_TO_END)
    assert _names_units(spec["per_layer"]) == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_carries_exactly_the_declared_metrics(trace, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    line = run.result_line(_measure("paper-single-link", trace, tmp_path), trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())


def test_injected_failing_check_raises_failed_frac(tmp_path, monkeypatch):
    clean = _measure("paper-single-link", False, tmp_path)
    assert clean["failed"] == 0 and clean["failed_frac"] == 0.0
    monkeypatch.setattr(workloads, "_replay_tolerance", lambda: -1.0)
    broken = _measure("paper-single-link", False, tmp_path)
    assert broken["checks"]["conservation"] == broken["attempted"]
    assert broken["failed"] == broken["attempted"]
    assert broken["failed_frac"] == 1.0
    assert run.result_line(broken, False)["correct"] is False


def test_fidelity_check_allows_only_the_seed_misses(tmp_path, monkeypatch):
    city = workloads.CitySweep(seed=1, scale=SCALE, workdir=tmp_path)
    pure = [[1.0, 2.0, 4.0, 8.0] for _ in city.cells]
    city._reference = pure
    monkeypatch.setattr(workloads, "SEED_MISSES", {"bpr@0.8": 0.12})

    def failing(error):
        outputs = [
            {"cold": {"mean_delays": [d * (1 + error) for d in delays],
                      "ratios": [0.5, 0.5, 0.5]},
             "warm_matches": True}
            for delays in pure
        ]
        verdicts = city.check(workloads.Round(1.0, 1.0, 1, outputs))
        return {workloads.cell_label(cell.scheduler, cell.utilization)
                for cell, verdict in zip(city.cells, verdicts)
                if not all(verdict.values())}

    labels = {workloads.cell_label(c.scheduler, c.utilization)
              for c in city.cells}
    assert failing(0.04) == set()
    assert failing(0.10) == labels - {"bpr@0.8"}
    assert failing(0.13) == labels


def test_clock_scales_laps_by_the_reference_slices(monkeypatch):
    ticks = iter([0.0, 2.0, 2.0, 5.0, 5.0])
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(ticks))
    ref = hostspeed.REF_NOMINAL_S
    slices = iter([ref, 3 * ref, ref])
    clock = hostspeed.Clock(reference=lambda: next(slices))
    # 2 s between slices that ran at 1/1 and 1/3 of nominal speed.
    clock.lap()
    # 3 s, 1 s of it slices run elsewhere, at twice nominal speed.
    clock.lap(slice_s=ref / 2, untimed_s=1.0)
    assert clock.wall_s == pytest.approx(4.0)
    assert clock.norm_s == pytest.approx(1.0 + 4.0)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_and_untraced_digests_are_equal(name, tmp_path):
    untraced = _measure(name, False, tmp_path)
    traced = _measure(name, True, tmp_path)
    assert untraced["digests_equal"] and traced["digests_equal"]
    assert traced["digest"] == untraced["digest"]
    assert traced["layers"]["trace.spans"] > 0
    # The instrumented entry points are restored after the traced round.
    import repro.scenarios.city as city
    import repro.sim.engine as engine

    assert not hasattr(engine.Simulator.run, "__wrapped__")
    assert city.city_summary is workloads.city_summary


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "paper-single-link", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
