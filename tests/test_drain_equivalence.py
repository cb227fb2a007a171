"""Drain-vs-evented equivalence: the busy-period drain kernel must be
bit-identical to the classic one-event-per-departure path.

Every registered scheduler is replayed over the same trace with the
drain kernel on and off; departure sequences (ids, classes, timestamps,
per-hop delays) and monitor series must match *exactly* -- no
tolerances.  Boundary cases pin the tie-breaking rules: arrivals landing
exactly on a departure timestamp, duplicate arrival instants, foreign
calendar events (a ``BacklogSampler``) forcing mid-busy-period parks,
and bounded ``run(until=...)`` horizons splitting a busy period.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.invariants import InvariantChecker
from repro.schedulers import available_schedulers, make_scheduler
from repro.sim import (
    BacklogSampler,
    DelayMonitor,
    Link,
    PacketSink,
    Simulator,
)
from repro.sim.rng import RandomStreams
from repro.traffic import (
    FixedPacketSize,
    PacketIdAllocator,
    PoissonInterarrivals,
    TrafficSource,
)
from repro.traffic.trace import ArrivalTrace, TraceSource

SDPS = (1.0, 2.0, 4.0, 8.0)


def random_trace(n: int = 600, seed: int = 11) -> ArrivalTrace:
    rng = np.random.default_rng(seed)
    return ArrivalTrace(
        times=np.cumsum(rng.exponential(1.05, size=n)),
        class_ids=rng.integers(0, 4, size=n),
        sizes=rng.choice([0.5, 1.0, 2.0], size=n),
    )


def boundary_trace() -> ArrivalTrace:
    """Integer arrival times with unit sizes at capacity 1.0: every
    departure lands exactly on later arrival timestamps, including
    duplicate arrival instants, so tie-breaking is fully exercised."""
    times = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0, 8.0, 9.0, 9.0, 10.0, 15.0]
    classes = [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]
    return ArrivalTrace(
        times=np.asarray(times),
        class_ids=np.asarray(classes),
        sizes=np.ones(len(times)),
    )


def packet_fingerprint(sink: PacketSink) -> list[tuple]:
    return [
        (
            p.packet_id,
            p.class_id,
            p.size,
            p.arrived_at,
            p.service_start,
            p.departed_at,
            tuple(p.hop_delays),
        )
        for p in sink.packets
    ]


def replay(
    trace: ArrivalTrace,
    scheduler_name: str,
    drain: bool,
    keep: bool = True,
    monitor: bool = False,
    sampler_period: float | None = None,
    until: float | None = None,
):
    sim = Simulator()
    scheduler = make_scheduler(scheduler_name, SDPS)
    link = Link(
        sim,
        scheduler,
        capacity=1.0,
        target=PacketSink(keep_packets=keep),
        drain=drain,
    )
    delay_monitor = None
    if monitor:
        delay_monitor = DelayMonitor(4, keep_samples=True)
        link.add_monitor(delay_monitor)
    sampler = None
    if sampler_period is not None:
        sampler = BacklogSampler(
            period=sampler_period, horizon=float(trace.times[-1])
        )
        sampler.attach(sim, link)
    TraceSource(sim, link, trace).start()
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
        sim.run()  # finish the remainder: drains must resume cleanly
    return sim, link, delay_monitor, sampler


def link_state(sim: Simulator, link: Link) -> tuple:
    queues = link.scheduler.queues
    return (
        sim.now,
        link.arrivals,
        link.departures,
        link.bytes_sent,
        link.busy_time,
        link.busy,
        link.target.received,
        queues.total_packets,
        tuple(queues.head_arrivals),
        tuple(queues.bytes_backlog),
    )


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_departures_bit_identical_all_schedulers(name):
    trace = random_trace()
    sim_d, link_d, _, _ = replay(trace, name, drain=True)
    sim_e, link_e, _, _ = replay(trace, name, drain=False)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_boundary_arrival_at_departure_timestamp(name):
    trace = boundary_trace()
    sim_d, link_d, _, _ = replay(trace, name, drain=True)
    sim_e, link_e, _, _ = replay(trace, name, drain=False)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_columnar_vs_object_bit_identical_all_schedulers(name):
    """The columnar hot path (lazy Packet materialization, every select
    through the scheduler's generated body) against the evented oracle,
    which carries real Packet objects throughout: the departures (ids,
    timestamps, hop delays) must be bit-identical."""
    trace = random_trace(seed=17)
    sim_c, link_c, _, _ = replay(trace, name, drain=True)
    sim_o, link_o, _, _ = replay(trace, name, drain=False)
    assert packet_fingerprint(link_c.target) == packet_fingerprint(
        link_o.target
    )
    assert link_state(sim_c, link_c) == link_state(sim_o, link_o)


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_columnar_vs_evented_bit_identical_all_schedulers(name):
    """The columnar fused drain against the classic
    one-event-per-departure path, on a second trace."""
    trace = random_trace(seed=29)
    sim_c, link_c, _, _ = replay(trace, name, drain=True)
    sim_e, link_e, _, _ = replay(trace, name, drain=False)
    assert packet_fingerprint(link_c.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_c, link_c) == link_state(sim_e, link_e)


@pytest.mark.parametrize("name", ["wtp", "bpr", "fcfs"])
def test_monitor_series_identical(name):
    trace = random_trace(seed=23)
    _, link_d, mon_d, _ = replay(trace, name, drain=True, monitor=True)
    _, link_e, mon_e, _ = replay(trace, name, drain=False, monitor=True)
    for series_d, series_e in zip(mon_d.samples, mon_e.samples):
        assert np.array_equal(series_d, series_e)
    assert [s.count for s in mon_d.stats] == [s.count for s in mon_e.stats]
    assert [s.mean for s in mon_d.stats] == [s.mean for s in mon_e.stats]


@pytest.mark.parametrize("name", ["wtp", "strict"])
def test_foreign_events_force_identical_parks(name):
    """A BacklogSampler's periodic ticks interleave with the drain; the
    sampled backlog trajectory must match the evented run exactly."""
    trace = random_trace(seed=5)
    _, link_d, _, samp_d = replay(trace, name, drain=True, sampler_period=2.5)
    _, link_e, _, samp_e = replay(trace, name, drain=False, sampler_period=2.5)
    assert samp_d.times == samp_e.times
    assert samp_d.samples == samp_e.samples
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )


def test_bounded_run_splits_busy_period_identically():
    trace = random_trace(seed=7)
    mid = float(trace.times[len(trace) // 2])
    sim_d, link_d, _, _ = replay(trace, "wtp", drain=True, until=mid)
    sim_e, link_e, _, _ = replay(trace, "wtp", drain=False, until=mid)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


def test_multi_source_fused_identical():
    """Several fused TrafficSources (the multi-feeder drain loop, which
    pulls scalars via ``pull_col``) match the evented run packet for
    packet."""

    def run(drain: bool):
        sim = Simulator()
        streams = RandomStreams(3)
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        ids = PacketIdAllocator()
        for class_id in range(4):
            TrafficSource(
                sim,
                link,
                class_id,
                PoissonInterarrivals(4.0 / 0.9, streams.generator()),
                FixedPacketSize(1.0),
                ids=ids,
            ).start()
        sim.run(until=800.0)
        return sim, link

    sim_d, link_d = run(True)
    sim_e, link_e = run(False)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


def test_drain_actually_engages():
    """Sanity: the drain collapses per-packet calendar events, so the
    equivalence above is not vacuous."""
    trace = random_trace()
    sim_d, link_d, _, _ = replay(trace, "wtp", drain=True, keep=False)
    sim_e, link_e, _, _ = replay(trace, "wtp", drain=False, keep=False)
    assert link_d.departures == link_e.departures == len(trace)
    assert sim_d.events_processed < sim_e.events_processed / 10


def test_invariant_checker_suspends_drain():
    """Attaching the checker falls back to the evented path and still
    produces identical results."""
    trace = random_trace(seed=31)
    sim = Simulator()
    link = Link(
        sim,
        make_scheduler("wtp", SDPS),
        capacity=1.0,
        target=PacketSink(keep_packets=True),
        drain=True,
    )
    checker = InvariantChecker(link).attach()
    TraceSource(sim, link, trace).start()
    assert link._feeders == []  # suspended before any event fired
    sim.run()
    report = checker.finalize()
    assert report.departures == len(trace)
    assert report.busy_periods > 0
    _, link_e, _, _ = replay(trace, "wtp", drain=False)
    assert packet_fingerprint(link.target) == packet_fingerprint(
        link_e.target
    )


def test_monitor_attached_mid_drain_bit_identical():
    """A DelayMonitor attached by a calendar event landing inside a
    busy period: the columnar fast loop must park on the foreign key,
    and every later drain entry (``monitors`` now non-empty) routes to
    the fused loop, which folds it in.  Post-attach monitor series and
    the full departure fingerprint must match the evented run
    exactly."""
    trace = random_trace(seed=41)
    attach_at = float(trace.times[len(trace) // 2]) + 0.25

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        monitor = DelayMonitor(4, keep_samples=True)
        seen = {}

        def attach():
            seen["busy"] = link.busy
            seen["cols"] = link.scheduler.queues.col_count
            link.add_monitor(monitor)

        sim.schedule(attach_at, attach)
        TraceSource(sim, link, trace).start()
        sim.run()
        return link, monitor, seen

    link_c, mon_c, seen_c = run(True)
    link_e, mon_e, seen_e = run(False)
    # The boundary was genuinely exercised: the link was mid-busy-period
    # with object-free columnar backlog when the monitor appeared.
    assert seen_c["busy"] and seen_e["busy"]
    assert seen_c["cols"] > 0
    assert seen_e["cols"] == 0
    assert packet_fingerprint(link_c.target) == packet_fingerprint(
        link_e.target
    )
    for series_c, series_e in zip(mon_c.samples, mon_e.samples):
        assert np.array_equal(series_c, series_e)
    assert [s.count for s in mon_c.stats] == [s.count for s in mon_e.stats]
    assert [s.mean for s in mon_c.stats] == [s.mean for s in mon_e.stats]


def test_drop_policy_forces_object_fallback():
    """A drop policy (bounded buffer) is an observation boundary at
    arrival time: the link fails ``_fast_ok``, columns never form, and
    the generic drain still matches the evented run drop for drop."""
    from repro.dropping import TailDropPolicy

    trace = random_trace(seed=13)

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
            buffer_packets=6,
            drop_policy=TailDropPolicy(),
        )
        TraceSource(sim, link, trace).start()
        sim.run()
        return sim, link

    sim_d, link_d = run(True)
    sim_e, link_e = run(False)
    assert link_d._fast_ok is False
    assert link_d.scheduler.queues.col_count == 0
    assert link_d.drops == link_e.drops > 0
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_state(sim_d, link_d) == link_state(sim_e, link_e)


def test_checker_attached_mid_run_demotes_columns():
    """An InvariantChecker attached mid-run (between events, columnar
    backlog queued) must demote every column to real Packets before its
    hooks fire, then verify the rest of the run -- bit-identically to
    an evented run with the checker attached at the same instant."""
    trace = random_trace(seed=37)
    attach_at = float(trace.times[len(trace) // 2]) + 0.25

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("wtp", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        checker = InvariantChecker(link)
        seen = {}

        def attach():
            seen["cols"] = link.scheduler.queues.col_count
            checker.attach()
            seen["cols_after"] = link.scheduler.queues.col_count

        sim.schedule(attach_at, attach)
        TraceSource(sim, link, trace).start()
        sim.run()
        return link, checker, seen

    link_c, checker_c, seen_c = run(True)
    link_e, checker_e, seen_e = run(False)
    # The attach really crossed the boundary: columnar backlog existed
    # and was demoted in place (checker scans see real Packets).
    assert seen_c["cols"] > 0
    assert seen_c["cols_after"] == 0
    assert packet_fingerprint(link_c.target) == packet_fingerprint(
        link_e.target
    )
    report_c = checker_c.finalize()
    report_e = checker_e.finalize()
    assert report_c.departures == report_e.departures > 0
    assert report_c.busy_periods == report_e.busy_periods


def test_utilization_horizon_clamps_in_progress_service():
    """A service still running at the horizon cutoff contributes only
    its pre-horizon portion (regression test for the open-busy-period
    overcount)."""
    sim = Simulator()
    link = Link(
        sim,
        make_scheduler("fcfs", SDPS),
        capacity=1.0,
        target=PacketSink(),
        drain=True,
    )
    trace = ArrivalTrace(
        times=np.asarray([1.0]),
        class_ids=np.asarray([0]),
        sizes=np.asarray([10.0]),
    )
    TraceSource(sim, link, trace).start()
    sim.run(until=6.0)
    assert link.busy
    # Busy on [1, 6] so far; horizon 4 must clamp the open segment.
    assert link.utilization(horizon=4.0) == pytest.approx(3.0 / 4.0)
    assert link.utilization(horizon=6.0) == pytest.approx(5.0 / 6.0)
    assert link.utilization() == pytest.approx(5.0 / 6.0)
    sim.run()
    # Service ended at 11; a horizon past the end sees the full 10.
    assert link.utilization(horizon=20.0) == pytest.approx(10.0 / 20.0)


# ----------------------------------------------------------------------
# Monitored fused path: the DelayMonitor folded into the columnar drain
# ----------------------------------------------------------------------
class Recorder:
    """A receiver that is not a PacketSink: keeps every packet."""

    def __init__(self) -> None:
        self.packets: list = []

    def receive(self, packet) -> None:
        self.packets.append(packet)


def heap_fingerprint(sim: Simulator) -> list[tuple]:
    """The calendar's contents, payloads reduced to comparable fields."""
    rows = []
    for time, seq, callback, payload in sim._heap:
        if payload is None:
            fields = None
        else:
            fields = (
                payload.packet_id,
                payload.class_id,
                payload.size,
                payload.arrived_at,
                payload.service_start,
                tuple(payload.hop_delays),
            )
        rows.append((time, seq, callback.__name__, fields))
    return sorted(rows)


def monitor_fingerprint(monitor: DelayMonitor) -> tuple:
    stats = tuple(
        (s.count, s.total.hex(), s.total_sq.hex(), s.min.hex(), s.max.hex())
        for s in monitor.stats
    )
    samples = tuple(
        tuple(float(v).hex() for v in series) for series in monitor.samples
    )
    return stats, samples


def monitored_run(
    trace: ArrivalTrace,
    name: str,
    drain: bool,
    warmup: float,
    keep_samples: bool,
    until: float,
):
    """A DelayMonitor'd replay split at ``until``: returns the monitor,
    link and calendar fingerprints at the split and at the end."""
    sim = Simulator()
    link = Link(
        sim,
        make_scheduler(name, SDPS),
        capacity=1.0,
        target=PacketSink(keep_packets=True),
        drain=drain,
    )
    monitor = DelayMonitor(4, warmup=warmup, keep_samples=keep_samples)
    link.add_monitor(monitor)
    TraceSource(sim, link, trace).start()
    sim.run(until=until)
    split = (
        monitor_fingerprint(monitor),
        link_state(sim, link),
        heap_fingerprint(sim),
    )
    sim.run()
    end = (
        monitor_fingerprint(monitor),
        link_state(sim, link),
        packet_fingerprint(link.target),
    )
    return split, end


def departure_instant(trace: ArrivalTrace, name: str, index: int) -> float:
    """An exact departure timestamp of the scheduler's evented replay."""
    _, link, _, _ = replay(trace, name, drain=False)
    return link.target.packets[index].departed_at


@pytest.mark.parametrize("keep_samples", [False, True])
@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_monitored_fused_matches_evented_and_object(name, keep_samples):
    """Every registered scheduler with a DelayMonitor attached: the
    fused columnar loop (monitor folded inline, every select through
    the generated body) against the evented path, whose packets are
    real objects throughout.  Stats (as float hex), kept samples, link
    counters and the calendar left at a mid-run split must match bit
    for bit; the warm-up lands exactly on a departure instant."""
    trace = random_trace(seed=43)
    warmup = departure_instant(trace, name, 150)
    until = float(trace.times[len(trace) // 2]) + 0.5
    fused = monitored_run(trace, name, True, warmup, keep_samples, until)
    assert fused == monitored_run(
        trace, name, False, warmup, keep_samples, until
    )
    # The warm-up really splits the departures.
    counts = sum(s[0] for s in fused[1][0][0])
    assert 0 < counts < len(trace)


@pytest.mark.parametrize("name", ["wtp", "bpr", "drr", "scfq"])
def test_monitored_fused_path_engages(name, monkeypatch):
    """The monitored replay takes the fused loop, always with a bound
    generated select (stock schedulers included)."""
    entries = []
    original = Link._drain_fused

    def spy(self, packet, gsel, genq, monitors):
        entries.append(gsel)
        return original(self, packet, gsel, genq, monitors)

    monkeypatch.setattr(Link, "_drain_fused", spy)
    sim = Simulator()
    link = Link(sim, make_scheduler(name, SDPS), capacity=1.0)
    link.add_monitor(DelayMonitor(4))
    TraceSource(sim, link, random_trace(seed=3)).start()
    sim.run()
    assert entries
    assert all(callable(gsel) for gsel in entries)


def test_target_rebind_to_non_sink_falls_back():
    """Rebinding a drained link's target after construction to a
    receiver that is not a PacketSink must leave the fused loop (which
    only knows how to count into a PacketSink) and deliver exactly what
    the evented path delivers."""
    trace = random_trace(seed=19)

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim, make_scheduler("wtp", SDPS), capacity=1.0, drain=drain
        )
        link.target = Recorder()
        TraceSource(sim, link, trace).start()
        sim.run()
        return sim, link

    sim_d, link_d = run(True)
    sim_e, link_e = run(False)
    assert len(link_d.target.packets) == len(trace)
    assert packet_fingerprint(link_d.target) == packet_fingerprint(
        link_e.target
    )
    assert link_d.departures == link_e.departures
    assert link_d.busy_time == link_e.busy_time
    assert sim_d.now == sim_e.now


def test_monitor_attached_between_runs_with_column_backlog():
    """A DelayMonitor attached between two ``sim.run(until=...)`` calls
    while columnar backlog is queued: the next drain entry folds it in
    and must match the evented run exactly."""
    trace = random_trace(seed=47)
    split = float(trace.times[len(trace) // 2]) + 0.25

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("bpr", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        TraceSource(sim, link, trace).start()
        sim.run(until=split)
        cols = link.scheduler.queues.col_count
        monitor = DelayMonitor(4, keep_samples=True)
        link.add_monitor(monitor)
        sim.run()
        return cols, monitor_fingerprint(monitor), link_state(sim, link), (
            packet_fingerprint(link.target)
        )

    fused = run(True)
    evented = run(False)
    assert fused[0] > 0  # column backlog was queued at the attach
    assert evented[0] == 0
    assert fused[1:] == evented[1:]


def test_monitor_plus_tap_keeps_generic_loop(monkeypatch):
    """A PacketTap next to the DelayMonitor cannot be folded: the link
    must run the generic object loop, identically to evented."""
    from repro.sim import PacketTap

    monkeypatch.setattr(
        Link,
        "_drain_fused",
        lambda *args: pytest.fail("fused loop ran with a PacketTap attached"),
    )
    trace = random_trace(seed=53)

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler("drr", SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        monitor = DelayMonitor(4, keep_samples=True)
        tap = PacketTap(4, start=50.0, end=300.0)
        link.add_monitor(monitor)
        link.add_monitor(tap)
        TraceSource(sim, link, trace).start()
        sim.run()
        rows = [tap.samples_array(c).tolist() for c in range(4)]
        return monitor_fingerprint(monitor), rows, link_state(sim, link), (
            packet_fingerprint(link.target)
        )

    drained = run(True)
    assert drained == run(False)
    assert sum(len(rows) for rows in drained[1]) > 0


def _failed_verdict_run(monkeypatch, name: str, scheduler_cls) -> None:
    """A scheduler class whose generated body failed verification has
    no ``gsel``: its monitored link keeps the wrapper-based generic
    loop and stays identical to evented."""
    from repro.schedulers import draingen

    draingen.generation_report()  # verdicts cached before the override
    monkeypatch.setitem(draingen._VERDICTS, scheduler_cls, "forced failure")
    monkeypatch.setattr(
        Link,
        "_drain_fused",
        lambda *args: pytest.fail("fused loop ran without a verified body"),
    )
    trace = random_trace(seed=59)

    def run(drain: bool):
        sim = Simulator()
        scheduler = make_scheduler(name, SDPS)
        assert type(scheduler) is scheduler_cls
        link = Link(
            sim,
            scheduler,
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        assert draingen.generated_drain_pair(scheduler) is None
        monitor = DelayMonitor(4, keep_samples=True)
        link.add_monitor(monitor)
        TraceSource(sim, link, trace).start()
        sim.run()
        assert link.scheduler.queues.col_count == 0
        return monitor_fingerprint(monitor), link_state(sim, link), (
            packet_fingerprint(link.target)
        )

    assert run(True) == run(False)


def test_failed_draingen_verdict_keeps_wrapper_loop(monkeypatch):
    """A hook-overriding scheduler (bpr) with a failed verdict."""
    from repro.schedulers.bpr import BPRScheduler

    _failed_verdict_run(monkeypatch, "bpr", BPRScheduler)


def test_failed_stock_verdict_keeps_wrapper_loop(monkeypatch):
    """A stock scheduler (wtp) with a failed verdict: its shared body
    is gated per class like any other, so it keeps the wrapper loop."""
    from repro.schedulers.wtp import WTPScheduler

    _failed_verdict_run(monkeypatch, "wtp", WTPScheduler)


# ----------------------------------------------------------------------
# Replacing a link's scheduler between events
# ----------------------------------------------------------------------
SWAPS = [("wtp", "bpr"), ("bpr", "wtp")]


def _swapped_scheduler(name: str):
    scheduler = make_scheduler(name, SDPS)
    if hasattr(scheduler, "bind_capacity"):
        scheduler.bind_capacity(1.0)
    return scheduler


@pytest.mark.parametrize("before,after", SWAPS)
def test_scheduler_swap_single_link(before, after):
    """``Link.scheduler`` replaced after construction: the fused loop
    reads the live scheduler's generated body at every entry, so the
    replay matches the evented run bit for bit."""
    trace = random_trace(seed=61)

    def run(drain: bool):
        sim = Simulator()
        link = Link(
            sim,
            make_scheduler(before, SDPS),
            capacity=1.0,
            target=PacketSink(keep_packets=True),
            drain=drain,
        )
        link.scheduler = _swapped_scheduler(after)
        monitor = DelayMonitor(4, keep_samples=True)
        link.add_monitor(monitor)
        TraceSource(sim, link, trace).start()
        sim.run()
        return monitor_fingerprint(monitor), link_state(sim, link), (
            packet_fingerprint(link.target)
        )

    fused = run(True)
    assert fused == run(False)
    assert fused[1][2] == len(trace)  # every packet departed
