"""Hybrid fluid/packet engine: maps, planner, handoffs, wiring.

Covers the fluid edge-case guards in :mod:`repro.schedulers.bpr`, the
load-shape modulators and rate envelopes feeding the planner, the Eq 5
exactness of the fluid per-class split, the packet<->fluid handoff
seams on :class:`~repro.sim.link.Link`, and the end-to-end controller:
``epsilon = 0`` short-circuits to a run bit-identical to the evented
path, and ``epsilon > 0`` holds the DDP fidelity of a steady cell
within the knob.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conservation import fcfs_waiting_times
from repro.errors import ConfigurationError
from repro.schedulers.bpr import (
    FluidBPRTracker,
    fluid_backlogs,
    fluid_clearing_time,
)
from repro.scenarios.city import (
    CityScenarioConfig,
    CityTask,
    city_summary,
    compile_city_traces,
    trace_group_key,
)
from repro.scenarios.generators import LoadShape
from repro.sim.hybrid import (
    FLUID_SCHEDULERS,
    HybridConfig,
    HybridController,
    Segment,
    drain_idle,
    fluid_split,
    fluid_window,
    plan_segments,
    run_hybrid_city,
)
from repro.traffic.compile import RateEnvelope

SDPS = (1.0, 2.0, 4.0, 8.0)


# ----------------------------------------------------------------------
# Fluid edge-case guards (repro.schedulers.bpr)
# ----------------------------------------------------------------------
class TestFluidGuards:
    def test_all_empty_system_stays_empty(self):
        assert fluid_backlogs([0.0, 0.0], (1.0, 2.0), 5.0, 123.0) == [0.0, 0.0]
        assert fluid_backlogs([0.0], (1.0,), 5.0, 0.0) == [0.0]

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ConfigurationError, match="elapsed"):
            fluid_backlogs([1.0, 1.0], (1.0, 2.0), 5.0, -0.1)

    def test_nonempty_system_past_clearing_rejected(self):
        # Total 10 bytes at R=5 clears at t=2; asking for t=3 raises.
        with pytest.raises(ConfigurationError, match="empties"):
            fluid_backlogs([4.0, 6.0], (1.0, 2.0), 5.0, 3.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            fluid_backlogs([1.0], (1.0,), 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="capacity"):
            fluid_clearing_time([1.0], 0.0)

    def test_clearing_time_checks_each_element(self):
        # Sum is positive, but one element is negative: must raise.
        with pytest.raises(ConfigurationError, match="non-negative"):
            fluid_clearing_time([5.0, -1.0], 2.0)

    def test_tracker_add_fluid_bounds(self):
        tracker = FluidBPRTracker((1.0, 2.0), 4.0)
        with pytest.raises(ConfigurationError, match="class_id"):
            tracker.add_fluid(2, 1.0)
        with pytest.raises(ConfigurationError, match="class_id"):
            tracker.add_fluid(-1, 1.0)
        with pytest.raises(ConfigurationError, match="amount"):
            tracker.add_fluid(0, -1.0)

    @pytest.mark.property
    @settings(max_examples=50, deadline=None)
    @given(
        q=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=4
        ),
        frac=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_fluid_drain_conserves_work(self, q, frac):
        """sum q_i(t) = Q(0) - R*t and each class only drains."""
        sdps = tuple(float(2**i) for i in range(len(q)))
        capacity = 3.0
        total = sum(q)
        elapsed = frac * total / capacity
        after = fluid_backlogs(q, sdps, capacity, elapsed)
        assert sum(after) == pytest.approx(
            total - capacity * elapsed, rel=1e-6, abs=1e-6
        )
        for before_i, after_i in zip(q, after):
            assert -1e-9 <= after_i <= before_i + 1e-9

    @pytest.mark.property
    @settings(max_examples=50, deadline=None)
    @given(
        q=st.lists(
            st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=4
        ),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_higher_sdp_drains_faster(self, q, frac):
        """Relative survival q_i(t)/q_i(0) is monotone in the SDP."""
        sdps = tuple(float(2**i) for i in range(len(q)))
        capacity = 3.0
        elapsed = frac * sum(q) / capacity
        after = fluid_backlogs(q, sdps, capacity, elapsed)
        survival = [a / b for a, b in zip(after, q)]
        for left, right in zip(survival, survival[1:]):
            assert right <= left + 1e-9


# ----------------------------------------------------------------------
# Load shapes (satellite: diurnal + flash crowd)
# ----------------------------------------------------------------------
class TestLoadShape:
    def test_flat_is_identity(self):
        shape = LoadShape()
        assert shape.flat
        times = np.array([0.0, 1.5, 7.0])
        assert np.array_equal(shape.warp_times(times), times)
        assert shape.internal_horizon(100.0) == 100.0
        assert shape.transient_edges(100.0) == ()

    def test_zero_amplitude_and_unit_factor_are_flat(self):
        assert LoadShape(kind="diurnal", amplitude=0.0).flat
        assert LoadShape(kind="flash_crowd", duration=0.0).flat
        assert LoadShape(
            kind="flash_crowd", start=1.0, duration=5.0, factor=1.0
        ).flat

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadShape(kind="square")
        with pytest.raises(ConfigurationError):
            LoadShape(kind="diurnal", amplitude=1.0)
        with pytest.raises(ConfigurationError):
            LoadShape(kind="diurnal", period=0.0)
        with pytest.raises(ConfigurationError):
            LoadShape(kind="flash_crowd", factor=0.0)
        with pytest.raises(ConfigurationError):
            LoadShape(kind="flash_crowd", start=-1.0)

    def test_flash_crowd_cumulative_and_edges(self):
        shape = LoadShape(
            kind="flash_crowd", start=10.0, duration=5.0, factor=3.0
        )
        # Lambda gains (factor-1)*duration over the crowd window.
        assert shape.cumulative(np.array([10.0]))[0] == pytest.approx(10.0)
        assert shape.cumulative(np.array([15.0]))[0] == pytest.approx(25.0)
        assert shape.cumulative(np.array([20.0]))[0] == pytest.approx(30.0)
        assert shape.internal_horizon(100.0) == pytest.approx(110.0)
        assert shape.transient_edges(100.0) == (10.0, 15.0)
        # Edges outside (0, horizon) are dropped.
        assert shape.transient_edges(12.0) == (10.0,)

    def test_diurnal_multiplier_mean_is_one(self):
        shape = LoadShape(kind="diurnal", amplitude=0.5, period=100.0)
        t = np.linspace(0.0, 100.0, 10_001)
        assert float(shape.multiplier(t).mean()) == pytest.approx(1.0, abs=1e-3)
        # Lambda over a whole period equals the period (mass preserved).
        assert shape.cumulative(np.array([100.0]))[0] == pytest.approx(100.0)

    @pytest.mark.property
    @settings(max_examples=30, deadline=None)
    @given(
        amplitude=st.floats(min_value=0.0, max_value=0.9),
        u=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=20
        ),
    )
    def test_diurnal_warp_inverts_cumulative(self, amplitude, u):
        shape = LoadShape(kind="diurnal", amplitude=amplitude, period=90.0)
        internal = np.sort(np.asarray(u))
        warped = shape.warp_times(internal)
        assert np.all(np.diff(warped) >= -1e-9)  # monotone
        roundtrip = shape.cumulative(warped)
        np.testing.assert_allclose(roundtrip, internal, rtol=1e-7, atol=1e-7)

    @pytest.mark.property
    @settings(max_examples=30, deadline=None)
    @given(
        factor=st.floats(min_value=1.1, max_value=5.0),
        u=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=20
        ),
    )
    def test_flash_warp_inverts_cumulative(self, factor, u):
        shape = LoadShape(
            kind="flash_crowd", start=50.0, duration=30.0, factor=factor
        )
        internal = np.sort(np.asarray(u))
        warped = shape.warp_times(internal)
        roundtrip = shape.cumulative(warped)
        np.testing.assert_allclose(roundtrip, internal, rtol=1e-9, atol=1e-9)

    def test_city_traces_flash_crowd_boosts_window(self):
        base = CityScenarioConfig(flows=120, horizon=12_000.0, warmup=500.0)
        crowd = dataclasses.replace(
            base,
            load_shape=LoadShape(
                kind="flash_crowd", start=4_000.0, duration=2_000.0, factor=3.0
            ),
        )
        flat_times = np.concatenate(
            [t.times for t in compile_city_traces(base)]
        )
        crowd_times = np.concatenate(
            [t.times for t in compile_city_traces(crowd)]
        )

        def rate(times, lo, hi):
            return ((times >= lo) & (times < hi)).sum() / (hi - lo)

        # Inside the crowd window the arrival rate is ~factor times the
        # pre-crowd rate; before the window the two compiles agree.
        before = rate(crowd_times, 0.0, 4_000.0)
        inside = rate(crowd_times, 4_000.0, 6_000.0)
        assert inside / before == pytest.approx(3.0, rel=0.15)
        assert rate(flat_times, 0.0, 4_000.0) == pytest.approx(
            before, rel=1e-12
        )
        # Distinct trace-group identity: modulated cells never share
        # compiled traces with flat ones.
        assert trace_group_key(base) != trace_group_key(crowd)


# ----------------------------------------------------------------------
# Rate envelopes + fast-forward (repro.traffic.compile)
# ----------------------------------------------------------------------
class TestRateEnvelope:
    def test_from_arrays_bins_bytes(self):
        times = np.array([0.5, 1.5, 2.5, 2.75])
        class_ids = np.array([0, 1, 0, 1])
        sizes = np.array([100.0, 200.0, 300.0, 400.0])
        env = RateEnvelope.from_arrays(times, class_ids, sizes, 3.0, 1.0)
        assert env.num_classes == 2
        assert env.bins == 3
        np.testing.assert_allclose(env.byte_rates[0], [100.0, 0.0, 300.0])
        np.testing.assert_allclose(env.byte_rates[1], [0.0, 200.0, 400.0])
        np.testing.assert_allclose(
            env.aggregate_byte_rates(), [100.0, 200.0, 700.0]
        )

    def test_change_points_flag_jumps_only(self):
        times = np.arange(0.0, 100.0, 0.5)
        sizes = np.where(times < 50.0, 10.0, 100.0)
        env = RateEnvelope.from_arrays(
            times, np.zeros(len(times), dtype=np.int64), sizes, 100.0, 10.0
        )
        points = env.change_points(rel_jump=0.25)
        assert list(points) == [50.0]
        flat = RateEnvelope.from_arrays(
            times,
            np.zeros(len(times), dtype=np.int64),
            np.full(len(times), 10.0),
            100.0,
            10.0,
        )
        assert len(flat.change_points(rel_jump=0.25)) == 0


# ----------------------------------------------------------------------
# Fluid split (Eq 5) and arrival-free drains
# ----------------------------------------------------------------------
class TestFluidSplit:
    def test_conservation_exact(self):
        counts = [40, 30, 20, 10]
        d_agg = 3.7
        for scheduler in ("fcfs", "wtp", "bpr"):
            delays = fluid_split(scheduler, SDPS, counts, d_agg)
            weighted = sum(n * d for n, d in zip(counts, delays))
            assert weighted == pytest.approx(sum(counts) * d_agg, rel=1e-12)

    def test_fcfs_is_uniform_wtp_is_inverse_sdp(self):
        counts = [10, 10, 10, 10]
        fcfs = fluid_split("fcfs", SDPS, counts, 2.0)
        assert fcfs == pytest.approx([2.0] * 4)
        wtp = fluid_split("wtp", SDPS, counts, 2.0)
        for i in range(3):
            assert wtp[i] / wtp[i + 1] == pytest.approx(
                SDPS[i + 1] / SDPS[i], rel=1e-12
            )

    def test_calibration_overrides_analytic(self):
        counts = [10, 10, 10, 10]
        measured = [8.0, 4.0, 2.0, 1.0]
        delays = fluid_split("wtp", SDPS, counts, 3.0, calibration=measured)
        # Shape follows the measurement; level satisfies Eq 5.
        assert delays[0] / delays[3] == pytest.approx(8.0, rel=1e-12)
        assert sum(n * d for n, d in zip(counts, delays)) == pytest.approx(
            40 * 3.0, rel=1e-12
        )

    def test_strict_and_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="successive-subset"):
            fluid_split("strict", SDPS, [1, 1, 1, 1], 1.0)
        # qwtp is a registered *scheduler* but has no fluid map: the
        # registry error must name the supported set.
        with pytest.raises(ConfigurationError, match="register_fluid_map"):
            fluid_split("qwtp", SDPS, [1, 1, 1, 1], 1.0)
        with pytest.raises(ConfigurationError, match="calibration"):
            fluid_split(
                "wtp", SDPS, [1, 1, 1, 1], 1.0, calibration=[1.0, 0.0, 1.0, 1.0]
            )

    def test_empty_window_is_nan(self):
        delays = fluid_split("wtp", SDPS, [0, 0, 0, 0], 1.0)
        assert all(math.isnan(d) for d in delays)


class TestDrainIdle:
    def test_clears_past_clearing_time(self):
        for scheduler in FLUID_SCHEDULERS:
            out = drain_idle(scheduler, SDPS, 2.0, [4.0, 4.0, 0.0, 0.0], 4.0)
            assert out == [0.0] * 4

    def test_strict_drains_top_class_first(self):
        out = drain_idle("strict", SDPS, 2.0, [10.0, 0.0, 0.0, 6.0], 2.0)
        assert out == pytest.approx([10.0, 0.0, 0.0, 2.0])
        out = drain_idle("strict", SDPS, 2.0, [10.0, 0.0, 0.0, 6.0], 4.0)
        assert out == pytest.approx([8.0, 0.0, 0.0, 0.0])

    def test_bpr_matches_tracker(self):
        backlogs = [8.0, 6.0, 4.0, 2.0]
        tracker = FluidBPRTracker(SDPS, 2.0)
        for cid, q in enumerate(backlogs):
            tracker.add_fluid(cid, q)
        tracker.advance(3.0)
        out = drain_idle("bpr", SDPS, 2.0, backlogs, 3.0)
        assert out == pytest.approx(tracker.backlogs)

    def test_proportional_conserves_work(self):
        backlogs = [9.0, 3.0, 6.0, 0.0]
        out = drain_idle("wtp", SDPS, 2.0, backlogs, 3.0)
        assert sum(out) == pytest.approx(sum(backlogs) - 6.0)
        # Composition is preserved under the proportional drain.
        assert out[0] / out[1] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Fluid windows
# ----------------------------------------------------------------------
def _uniform_window(n=400, gap=1.0, size=0.8, capacity=1.0):
    times = np.arange(n) * gap
    class_ids = np.arange(n) % 4
    sizes = np.full(n, size)
    return times, class_ids, sizes, capacity


class TestFluidWindow:
    def test_aggregate_matches_lindley(self):
        times, class_ids, sizes, capacity = _uniform_window()
        result = fluid_window(
            times, class_ids, sizes, 4, capacity, 0.0, 400.0,
            "wtp", SDPS, [0.0] * 4,
        )
        waits = fcfs_waiting_times(times, sizes, capacity)
        assert result.d_agg == pytest.approx(float(waits.mean()), rel=1e-12)
        assert result.counts == [100] * 4
        weighted = sum(
            n * d for n, d in zip(result.counts, result.delays)
        )
        assert weighted == pytest.approx(400 * result.d_agg, rel=1e-12)

    def test_carried_backlog_enters_as_virtual_arrival(self):
        times, class_ids, sizes, capacity = _uniform_window()
        loaded = fluid_window(
            times, class_ids, sizes, 4, capacity, 0.0, 400.0,
            "wtp", SDPS, [5.0, 0.0, 0.0, 0.0],
        )
        empty = fluid_window(
            times, class_ids, sizes, 4, capacity, 0.0, 400.0,
            "wtp", SDPS, [0.0] * 4,
        )
        assert loaded.d_agg > empty.d_agg

    def test_empty_window_drains_carried(self):
        result = fluid_window(
            np.empty(0), np.empty(0, dtype=np.int64), np.empty(0),
            4, 2.0, 0.0, 1.0, "bpr", SDPS, [8.0, 0.0, 0.0, 0.0],
        )
        assert result.counts == [0] * 4
        assert sum(result.end_backlogs) == pytest.approx(6.0)
        result = fluid_window(
            np.empty(0), np.empty(0, dtype=np.int64), np.empty(0),
            4, 2.0, 0.0, 100.0, "bpr", SDPS, [8.0, 0.0, 0.0, 0.0],
        )
        assert result.regenerated
        assert result.end_backlogs == [0.0] * 4

    def test_regeneration_prefers_idle_boundary(self):
        # Sparse arrivals (gap 2, size 0.5, capacity 1): every arrival
        # sees an idle server, so the last arrival in the regen window
        # is a zero-wait regeneration point.
        times = np.arange(0.0, 100.0, 2.0)
        class_ids = np.zeros(len(times), dtype=np.int64)
        sizes = np.full(len(times), 0.5)
        result = fluid_window(
            times, class_ids, sizes, 1, 1.0, 0.0, 100.0,
            "fcfs", (1.0,), [0.0], regen_window=10.0,
        )
        assert result.regenerated
        assert result.deferred == 1
        assert result.handoff_time == pytest.approx(98.0)
        assert result.end_backlogs == [0.0]

    def test_strict_subset_delays_telescope(self):
        times, class_ids, sizes, capacity = _uniform_window()
        result = fluid_window(
            times, class_ids, sizes, 4, capacity, 0.0, 400.0,
            "strict", SDPS, [0.0] * 4,
        )
        # Eq 5 conservation holds through the subset telescope too.
        weighted = sum(n * d for n, d in zip(result.counts, result.delays))
        assert weighted == pytest.approx(400 * result.d_agg, rel=1e-9)
        # Higher class id = higher priority here: delays decrease.
        for left, right in zip(result.delays, result.delays[1:]):
            assert right <= left + 1e-9


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_epsilon_zero_is_single_packet_segment(self):
        plan = plan_segments(
            1e4, 1e3, HybridConfig(epsilon=0.0), [5e3], lambda a, b: 0.0
        )
        assert plan == [Segment(0.0, 1e4, "packet")]

    def test_forced_prefix_and_guards(self):
        hybrid = HybridConfig(
            epsilon=0.5, spinup=1e3, guard=500.0, min_fluid=1e3
        )
        plan = plan_segments(20e3, 1e3, hybrid, [10e3], lambda a, b: 0.0)
        assert plan[0] == Segment(0.0, 2e3, "packet")
        modes = {(s.start, s.end): s.mode for s in plan}
        assert modes[(2e3, 9.5e3)] == "fluid"
        assert modes[(9.5e3, 10.5e3)] == "packet"
        assert modes[(10.5e3, 20e3)] == "fluid"
        # Contiguity: segments tile [0, horizon) exactly.
        assert plan[0].start == 0.0
        assert plan[-1].end == 20e3
        for a, b in zip(plan, plan[1:]):
            assert a.end == b.start

    def test_high_predicted_error_stays_packet(self):
        hybrid = HybridConfig(epsilon=0.05, spinup=1e3, min_fluid=1e3)
        plan = plan_segments(20e3, 1e3, hybrid, [], lambda a, b: 0.2)
        assert plan == [Segment(0.0, 20e3, "packet")]

    def test_short_gaps_not_worth_switching(self):
        hybrid = HybridConfig(
            epsilon=0.5, spinup=1e3, guard=500.0, min_fluid=5e3
        )
        # Transients every 2k: every gap is under min_fluid.
        plan = plan_segments(
            10e3, 1e3, hybrid, [2e3, 4e3, 6e3, 8e3], lambda a, b: 0.0
        )
        assert all(s.mode == "packet" for s in plan)

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            HybridConfig(epsilon=-0.1)
        with pytest.raises(ConfigurationError):
            HybridConfig(bin_width=0.0)
        with pytest.raises(ConfigurationError):
            HybridConfig(guard=-1.0)


# ----------------------------------------------------------------------
# Controller wiring
# ----------------------------------------------------------------------
def _small_cell(**overrides) -> CityScenarioConfig:
    defaults = dict(flows=80, horizon=8_000.0, warmup=500.0, seed=3)
    defaults.update(overrides)
    return CityScenarioConfig(**defaults)


class TestController:
    def test_epsilon_zero_bit_identical_to_evented(self):
        config = _small_cell(hybrid=HybridConfig(epsilon=0.0))
        traces = compile_city_traces(config)
        controller = HybridController(config, traces)
        assert [s.mode for s in controller.plan(config.horizon)] == ["packet"]
        controller.run()
        reference = city_summary(
            CityTask(dataclasses.replace(config, hybrid=None))
        )
        assert controller.monitor.mean_delays() == reference["mean_delays"]
        assert controller.monitor.counts() == reference["class_counts"]
        assert controller.packet_departures == reference["hub_departures"]

    def test_fluid_segments_run_and_monitor_credits(self):
        config = _small_cell(
            hybrid=HybridConfig(epsilon=0.5, spinup=500.0, min_fluid=500.0)
        )
        summary = city_summary(CityTask(config))
        hybrid = summary["hybrid"]
        assert hybrid["fluid_time_fraction"] > 0.5
        assert hybrid["fluid_credited"] > 0
        assert any(t["mode"] == "fluid" for t in hybrid["timeline"])
        total = hybrid["fluid_credited"] + summary["hub_departures"]
        assert sum(summary["class_counts"]) <= total

    @pytest.mark.integration
    def test_fidelity_within_epsilon_on_steady_cell(self):
        epsilon = 0.05
        config = _small_cell(
            flows=200, horizon=60_000.0, warmup=1_000.0,
            hybrid=HybridConfig(epsilon=epsilon),
        )
        hybrid = city_summary(CityTask(config))
        pure = city_summary(
            CityTask(dataclasses.replace(config, hybrid=None))
        )
        errors = [
            abs(h - p) / p
            for h, p in zip(hybrid["mean_delays"], pure["mean_delays"])
        ]
        assert sum(errors) / len(errors) <= epsilon, errors
        assert hybrid["hybrid"]["fluid_time_fraction"] > 0.8

    def test_unsupported_scheduler_rejected(self):
        # qwtp has no registered fluid map (drr/scfq/pad/hpd now do).
        config = _small_cell(
            scheduler="qwtp", hybrid=HybridConfig(epsilon=0.1)
        )
        with pytest.raises(ConfigurationError, match="no fluid map"):
            HybridController(config, compile_city_traces(config))

    def test_epsilon_zero_allows_any_scheduler(self):
        config = _small_cell(scheduler="qwtp", hybrid=HybridConfig(epsilon=0.0))
        controller = run_hybrid_city(config, compile_city_traces(config))
        assert controller.packet_departures > 0

    def test_invariants_and_hybrid_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="pure packet"):
            _small_cell(hybrid=HybridConfig(), check_invariants=True)

    def test_run_hybrid_delegates_through_simulator(self):
        from repro.errors import SimulationError
        from repro.sim.engine import Simulator

        config = _small_cell(hybrid=HybridConfig(epsilon=0.0))
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="hybrid"):
            sim.run(until=10.0, hybrid=object())


class TestSeededHandoff:
    def test_seed_backlog_preserves_backdated_ages(self):
        from repro.schedulers import make_scheduler
        from repro.sim import Link, PacketSink, Simulator
        from repro.sim.packet import Packet

        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(),
            name="seeded",
        )
        seeds = [
            Packet(packet_id=i, class_id=i % 2, size=2.0, created_at=-3.0 + i)
            for i in range(3)
        ]
        sim.schedule(0.0, link.seed_backlog, seeds)
        sim.run(until=10.0)
        assert link.departures == 3
        assert link.arrivals == 3

    def test_backlog_snapshot_reads_queue_and_remnant(self):
        from repro.schedulers import make_scheduler
        from repro.sim import Link, PacketSink, Simulator
        from repro.traffic.trace import ArrivalTrace, TraceSource

        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("fcfs", SDPS),
            capacity=1.0,
            target=PacketSink(),
            name="snap",
        )
        trace = ArrivalTrace(
            np.array([0.0, 0.0, 0.0]),
            np.array([0, 1, 2], dtype=np.int64),
            np.array([4.0, 3.0, 2.0]),
        )
        TraceSource(sim, link, trace).start()
        sim.run(until=1.0)
        snapshot = link.backlog_snapshot()
        # 9 bytes arrived, 1 byte-time served: 8 bytes remain, with the
        # in-service remnant attributed to the serving class.
        assert sum(snapshot) == pytest.approx(8.0)
        assert snapshot[0] == pytest.approx(3.0)


class TestMultihopHybrid:
    def test_fast_forward_preserves_experiment_results(self):
        from repro.network.multihop import MultiHopConfig, run_multihop

        config = MultiHopConfig(hops=2, experiments=5, warmup=8_000.0)
        full = run_multihop(config)
        fast = run_multihop(config, hybrid=HybridConfig(epsilon=0.05))
        # Cross-traffic draws are consumed identically, so post-warm-up
        # arrivals (and the experiments riding on them) are unchanged.
        assert fast.rd == pytest.approx(full.rd, rel=1e-9)
        assert fast.truncated_experiments == full.truncated_experiments


class TestFastForward:
    def test_skip_then_emit_matches_full_tail(self):
        from repro.sim.rng import RandomStreams
        from repro.traffic.compile import CompiledMixedSource
        from repro.traffic.pareto import ParetoInterarrivals

        class _Capture:
            def __init__(self):
                self.times = []

            def receive(self, packet, now):
                self.times.append(now)

        def build(seed=7):
            streams = RandomStreams(seed)
            return CompiledMixedSource(
                _Capture(),
                ParetoInterarrivals(2.0, 1.9, streams.generator()),
                (0.5, 0.5),
                1.0,
                streams.generator(),
            )

        full = build()
        drained = []
        t = full.peek_time()
        while t is not None and t < 200.0:
            drained.append(t)
            full.emit()
            t = full.peek_time()

        skipped = build()
        nskip, _ = skipped.fast_forward(100.0)
        tail = []
        t = skipped.peek_time()
        while t is not None and t < 200.0:
            tail.append(t)
            skipped.emit()
            t = skipped.peek_time()
        expected_tail = [x for x in drained if x >= 100.0]
        assert tail == expected_tail
        assert nskip == len(drained) - len(expected_tail)

    def test_rejected_after_emission(self):
        from repro.sim.rng import RandomStreams
        from repro.traffic.compile import CompiledMixedSource
        from repro.traffic.pareto import ParetoInterarrivals

        class _Sink:
            def receive(self, packet, now):
                pass

        streams = RandomStreams(7)
        source = CompiledMixedSource(
            _Sink(),
            ParetoInterarrivals(2.0, 1.9, streams.generator()),
            (0.5, 0.5),
            1.0,
            streams.generator(),
        )
        source.peek_time()
        source.emit()
        with pytest.raises(ConfigurationError, match="fast_forward"):
            source.fast_forward(10.0)


class TestDelayCurveCrossCheck:
    """The fluid aggregate is the same d(lambda) the paper's delay-curve
    estimator computes: both run the exact O(n) FCFS recursion, so at
    the measured operating point (keep fraction 1.0) they must agree
    to the last bit."""

    def test_fluid_aggregate_matches_delay_curve_operating_point(self):
        from repro.core.delay_curve import estimate_delay_curve
        from repro.traffic.trace import merge_traces

        config = CityScenarioConfig(flows=32, horizon=8_000.0, warmup=0.0)
        trace = merge_traces(compile_city_traces(config))
        capacity = float(trace.sizes.sum()) / config.horizon / 0.9
        result = fluid_window(
            trace.times,
            trace.class_ids,
            trace.sizes,
            config.num_classes,
            capacity,
            start=0.0,
            end=config.horizon,
            scheduler="fcfs",
            sdps=config.sdps,
            carried=[0.0] * config.num_classes,
        )
        curve = estimate_delay_curve(trace, capacity, fractions=(0.5, 1.0))
        measured_rate = len(trace) / float(trace.times[-1])
        assert result.d_agg == curve(measured_rate)
