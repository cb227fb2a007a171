"""Tests for the ablation harnesses and the CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.ablations import (
    adaptive_wtp_correction,
    additive_convergence,
    plr_demo,
    scheduler_comparison,
    sdp_ratio_sweep,
    wtp_starvation_demo,
)
from repro.experiments.reporting import format_ablation_rows, format_table


class TestAblations:
    def test_sdp_ratio_sweep_error_grows_with_spacing(self):
        rows = sdp_ratio_sweep(
            ratios=(2.0, 8.0), horizon=6e4, warmup=3e3
        )
        assert len(rows) == 2
        # Section 5: wider spacing -> larger deviations (check WTP).
        assert rows[1].values["wtp"] > rows[0].values["wtp"]

    def test_scheduler_comparison_has_all_rows(self):
        rows = scheduler_comparison(
            schedulers=("wtp", "fcfs", "strict"), horizon=5e4, warmup=2e3
        )
        labels = [r.label for r in rows]
        assert labels == ["wtp", "fcfs", "strict"]
        fcfs = next(r for r in rows if r.label == "fcfs")
        # FCFS: no differentiation, ratios ~ 1.
        assert fcfs.values["r12"] == pytest.approx(1.0, abs=0.4)

    def test_additive_convergence_rows(self):
        rows = additive_convergence(
            offsets=(0.0, 300.0), utilization=0.97, horizon=1e5, warmup=5e3
        )
        assert len(rows) == 1
        measured = rows[0].values["measured_diff"]
        assert 0.3 * 300.0 < measured <= 1.2 * 300.0

    def test_wtp_starvation_demo_all_overtake(self):
        row = wtp_starvation_demo(burst_packets=100)
        assert row.values["condition_holds"] == 1.0
        assert row.values["overtakers"] == 100.0

    def test_adaptive_wtp_correction_helps_at_moderate_load(self):
        rows = adaptive_wtp_correction(
            utilizations=(0.75,), horizon=2e5, warmup=1e4
        )
        assert len(rows) == 1
        assert rows[0].values["adaptive-wtp"] < rows[0].values["wtp"]

    def test_absolute_vs_relative_tradeoff(self):
        from repro.experiments.ablations import absolute_vs_relative

        rows = absolute_vs_relative(surge_factors=(0.8, 2.0), horizon=5e4)
        by_label = {r.label: r.values for r in rows}
        # Inside the profile: (almost) nothing lost either way.
        assert by_label["surge=0.8x"]["premium_loss"] < 0.05
        # Past it: premium keeps its delay but sheds ~half the traffic;
        # relative keeps everything and lets the delay grow.
        surged = by_label["surge=2x"]
        assert surged["premium_loss"] > 0.35
        assert surged["premium_delay"] < by_label["surge=0.8x"]["premium_delay"] * 2
        assert surged["relative_delay"] > by_label["surge=0.8x"]["relative_delay"]

    def test_quantization_sweep_rows(self):
        from repro.experiments.ablations import quantization_sweep

        rows = quantization_sweep(
            epochs_p_units=(0.1, 100.0), horizon=6e4, warmup=3e3
        )
        by_label = {r.label: r.values["worst_error"] for r in rows}
        assert by_label["epoch=100p"] > by_label["epoch=0.1p"]

    def test_plr_demo_tracks_targets(self):
        row = plr_demo(horizon=5e4)
        assert row.values["total_drops"] > 50
        measured = row.values["measured_l1/l2"]
        target = row.values["target_l1/l2"]
        assert measured == pytest.approx(target, rel=0.5)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["33", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_ablation_rows_missing_keys(self):
        from repro.experiments.ablations import AblationRow

        rows = [
            AblationRow("x", {"a": 1.0}),
            AblationRow("y", {"b": 2.0}),
        ]
        text = format_ablation_rows(rows, "demo")
        assert "demo" in text and "--" in text


class TestCLI:
    def test_figure3_quick(self, capsys):
        assert main(["figure3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "wtp" in out and "bpr" in out

    def test_figure45_quick(self, capsys):
        assert main(["figure45", "--scale", "0.05"]) == 0
        assert "microscopic" in capsys.readouterr().out

    def test_export_dir_writes_csv(self, capsys, tmp_path):
        assert main(
            ["figure3", "--scale", "0.05", "--export-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        exported = tmp_path / "figure3.csv"
        assert exported.exists()
        header = exported.read_text().splitlines()[0]
        assert header.startswith("scheduler,tau_p_units")

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure1", "--scale", "2.0"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    @pytest.mark.parametrize(
        "extra, missing",
        [
            (["--store-dir", "shards"], "--shard"),
            (["--shard-size", "4"], "--shard"),
            (["--hybrid-epsilon", "0.1"], "--hybrid"),
        ],
        ids=["store-dir", "shard-size", "hybrid-epsilon"],
    )
    def test_option_without_its_mode_rejected(
        self, capsys, tmp_path, extra, missing
    ):
        argv = ["figure3", "--scale", "0.05", "--jobs", "1", "--no-cache"]
        if extra[0] == "--store-dir":
            extra = [extra[0], str(tmp_path / extra[1])]
        with pytest.raises(SystemExit):
            main(argv + extra)
        assert f"needs {missing}" in capsys.readouterr().err
