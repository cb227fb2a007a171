"""Output link: a work-conserving server driving a scheduler.

The link is the paper's forwarding engine for one hop: packets arrive
(from sources or an upstream node), join the scheduler's per-class
FIFOs, and are transmitted one at a time at ``capacity`` bytes per time
unit.  By default the link is lossless (unbounded buffers), matching the
paper's stable ECN-regulated operating assumption (Section 3); an
optional packet-count buffer limit plus a drop policy turn it into a
lossy multiplexer for the loss-differentiation extension.

Departed packets are handed to ``target.receive(packet)`` (next hop or
sink) and reported to the attached monitors.

The runtime invariant checker (:mod:`repro.invariants`) attaches to a
link by *replacing bound methods on the instance* (``receive`` and
``_complete_service``), so an unchecked link runs the exact original
code with no hook branches; ``_start_service`` deliberately looks up
``self._complete_service`` at call time so the per-instance override
takes effect.

Busy-period drain kernel
------------------------
With ``drain=True`` (the default) the link fuses service completions --
and the arrivals of *fused feeders* (sources that registered through
:meth:`Link.attach_feeder`) -- into a tight loop instead of bouncing
every one through the event calendar.  Within a busy period departures
are deterministic given the backlog, so the calendar adds no
information; the drain advances a local clock by ``size / capacity``
per packet and selects through the scheduler's generated drain body
(below) directly.

Bit-identity with the evented path is structural, not best-effort:

* A fused feeder keeps scheduling its *real* arrival event exactly as
  an unfused source would, while mirroring that event's ``(time, seq)``
  key in ``next_time`` / ``next_seq`` attributes.  Whenever control is
  in the run loop, the heap contents are therefore *identical* to an
  evented run.
* The drain only processes an event inline when its ``(time, seq)``
  key is the global calendar minimum (and within the active run
  horizon, :attr:`Simulator._run_until`).  A mirrored feeder arrival is
  popped off the heap at that moment and the feeder switches to
  *virtual* mode: subsequent arrivals reserve a sequence number from
  the kernel without pushing an event.  Completions likewise reserve
  their sequence number at select time.
* When any foreign event precedes the next fused one (a monitor tick,
  another link's completion, the horizon), the drain *parks*: every
  virtual feeder pushes its reserved arrival back onto the heap and the
  pending completion is pushed with its reserved key -- restoring the
  exact heap an evented run would have at that point -- and control
  returns to the run loop.

Because sequence numbers are reserved at exactly the points the
evented path would allocate them, the interleaving with *any* external
event stream is reproduced exactly; golden runs and drain-vs-event
property tests (``tests/test_drain_equivalence.py``) pin this down.
The one observable difference is :attr:`Simulator.events_processed`,
which only counts real calendar dispatches.  When invariant-checking
hooks are attached the drain steps aside entirely (see
:meth:`Link._complete_service`).

Chain-fused drain (DAG of coupled servers)
------------------------------------------
A single-link drain still parks whenever the *next hop's* completion
precedes its own, so a chain of saturated links (the Section 6
multi-hop path) bounces through the calendar once per packet per hop.
When this link's target resolves -- directly, or through a
demultiplexer implementing the drain-demux protocol
(``drain_resolve(packet)`` / ``drain_successors()`` /
``drain_guard()``, see :class:`~repro.network.topology.FlowDemux` and
:class:`~repro.network.routed.RouteDemux`) -- to further drain-capable
links, those links are *coupled*: the fused loop keeps one local
``(time, seq)``-keyed heap over every member's pending completion,
every member's fused feeder arrivals, and the pending keys of any
:class:`~repro.traffic.compile.ArrivalCursor` feeding a member, and
repeatedly processes the globally earliest fused event inline.  A
departure whose resolved receiver is another member is enqueued there
directly (opening the downstream busy period inline, reserving its
completion's sequence number exactly where ``receive`` would have
called ``sim.schedule``); any other receiver gets a plain
``receive`` call, whose scheduled events surface as foreign calendar
entries the loop parks on.

The mirror protocol generalizes to members and cursors:

* A member that was already busy when the chain formed has a *real*
  completion event in the calendar; its key is mirrored in
  :attr:`Link._pending_key` (maintained at every point control leaves
  the link) and the event is absorbed -- popped -- only when it is the
  global heap minimum, exactly like a mirrored feeder arrival.
* An :class:`~repro.traffic.compile.ArrivalCursor` mirrors its single
  pending calendar entry the same way; once absorbed, the chain runs
  the cursor's batch-injection loop inline against an *emulated* heap
  minimum (real calendar union the chain's virtual keys), so the batch
  boundaries -- and therefore sequence-number consumption -- are
  bit-identical to an evented run.
* On park, every still-busy member pushes one resumption event with
  its reserved key, every virtual feeder and cursor re-parks, and the
  calendar is restored bit-identical to the evented run's.

Eligibility is strict: members must be lossless (no buffer, no drop
policy), drain-enabled, hook-free, and use the unmodified
``receive``/``_complete_service`` method bodies.  A member selects
through its scheduler's generated body when it has one and nothing
observes it; a monitored member (or one without a verified body) is
an *object-mode* member that runs the ``enqueue``/``select``
wrappers.  An invariant checker
attached to *any* link reachable through the walk marks the chain
*blocked*: chain fusion is disabled and every link keeps its
single-link drain paths, which hand packets through plain ``receive``
calls and therefore never bypass another link's hooks
(``tests/test_multihop_drain_equivalence.py`` pins both the fallback
and chain-vs-evented bit-identity).  Fusion also stays off -- purely a
performance choice -- when no member has an inline arrival source
(fused feeder or cursor), since every arrival would then be a foreign
calendar event to park on; the routing decision is cached on the link
(:attr:`Link._chain_fuse`) so non-fusing completions pay one flag
check, and the cache refreshes when a source attaches or routes
change.

Columnar hot path (structure-of-arrays)
---------------------------------------
The fused loops above do not materialize
:class:`~repro.sim.packet.Packet` objects for packets nothing
observes.  Fused arrivals enter the scheduler's
:class:`~repro.sim.queues.ClassQueueSet` as flat per-class column
entries ``(arrived_at, size, meta)`` -- ``meta`` being an ``int``
packet id or a ``(packet_id, flow_id, created_at, hop_history)`` tuple
-- and are selected off the maintained ``head_arrivals`` timestamps,
so a packet can traverse queueing, selection, transmission, chain
hand-off, and the departure counters as three scalars that never exist
as an object.  Every selection a fused loop makes goes through the
scheduler's one oracle-verified :mod:`repro.schedulers.draingen` body
``gsel`` (plus ``genq`` for arrival-tagging schedulers): the stock
schedulers' shared body wraps their live ``choose_class``, the
hook-overriding ones (bpr/hpd/pad/drr/scfq/adaptive-wtp) run
transcribed bodies.  The link holds no FIFO pop of its own.  A real
``Packet`` is built (:func:`~repro.sim.queues.materialize_entry`,
bit-identical to the one the evented path would carry) only at an
observation boundary:

* a sink that retains packets (``keep_packets``) or any non-``Link``
  receiver (``FlowRecorder``, custom sinks) at departure; a single
  link whose target is not a bare ``PacketSink`` -- read at every
  drain entry, so rebinding ``Link.target`` counts -- takes the
  generic loop,
* a monitor the fused loop cannot fold.  A single link folds one
  :class:`~repro.sim.monitor.DelayMonitor` inline (the float ops of
  ``ClassDelayStats.add``); any other monitor type, a second monitor,
  or a monitor on a chain member forces the generic drain loop /
  object-mode chain members, which demote column residue and select
  through the wrappers,
* a drop policy or bounded buffer (columns never form: those links
  fail ``_fast_ok`` and are excluded from chains),
* the invariant checker (attach demotes every column to objects, and
  the hook fallback in :meth:`Link._complete_service` demotes as a
  safety net),
* a scheduler *without* a verified generated body (a subclass, an
  unbound BPR capacity, a failed verification): it keeps the
  wrapper-based generic loop, which demotes any column residue.  The
  body is looked up on the live scheduler at every drain entry, so
  replacing ``Link.scheduler`` is honoured,
* a park (the pending completion must become a real calendar event
  payload; queued columns stay columnar across parks).

Because the column entries carry exactly the fields the evented path
would have written at the same points -- and every float expression,
mutation order, and sequence-number reservation is kept verbatim --
the fused runs are bit-identical to the evented oracle (``drain=False``)
in all externally visible state (``tests/test_drain_equivalence.py``
and ``tests/differential.py`` pin every registered scheduler, plus
mid-run materialization boundaries).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heappushpop, heapreplace
from math import inf
from typing import Optional, Protocol, Sequence, TYPE_CHECKING

from ..errors import ConfigurationError, SchedulingError
from .engine import Simulator
from .monitor import DelayMonitor
from .packet import Packet
from .queues import materialize_entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..dropping.base import DropPolicy
    from ..schedulers.base import Scheduler

__all__ = ["Link", "PacketSink", "Receiver"]


class Receiver(Protocol):
    """Anything that can accept a departed packet (next hop, sink...)."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class PacketSink:
    """Terminal receiver: counts packets and optionally keeps them."""

    def __init__(self, keep_packets: bool = False) -> None:
        self.received = 0
        self.keep_packets = keep_packets
        self.packets: list[Packet] = []

    def receive(self, packet: Packet) -> None:
        self.received += 1
        if self.keep_packets:
            self.packets.append(packet)


class _ChainLink:
    """Per-member state for one coupled server in a chain drain.

    The ``pend_*`` scalars / ``t_c`` / ``s_c`` / ``virtual`` describe
    the member's in-flight completion *within the current drain entry*:
    the packet in service (as columnar scalars -- ``pend_meta`` may be
    a real :class:`Packet` or an unmaterialized meta, see
    :mod:`repro.sim.queues`), its reserved ``(time, seq)`` heap key,
    and whether that key is virtual (reserved inline) or mirrors a real
    calendar event that predates the drain entry.  They are reset on
    every entry; ``colmode`` (a generated body + no monitors) is
    likewise recomputed per entry, so a monitor attached between events
    flips the member to object mode at the next one.
    """

    __slots__ = (
        "link",
        "scheduler",
        "queues",
        "monitors",
        "capacity",
        "direct_target",
        "direct_dcl",
        "resolve",
        "split",
        "flow_rcv",
        "cross_rcv",
        "flow_dcl",
        "cross_dcl",
        "heads",
        "backlog",
        "nclasses",
        "ccols",
        "cheads",
        "colmode",
        "gsel",
        "genq",
        "pend_meta",
        "pend_cid",
        "pend_arr",
        "pend_size",
        "pend_sstart",
        "t_c",
        "s_c",
        "virtual",
    )

    def __init__(self, link: "Link") -> None:
        scheduler = link.scheduler
        queues = scheduler.queues
        self.link = link
        self.scheduler = scheduler
        self.queues = queues
        self.monitors = link.monitors
        self.capacity = link.capacity
        self.direct_target: Optional[Receiver] = None
        #: Coupled member behind ``direct_target`` (resolved post-walk).
        self.direct_dcl: Optional["_ChainLink"] = None
        self.resolve = None
        #: The demux itself when the target declared a pure
        #: flow-id split (``drain_flow_split``); departures then branch
        #: inline on ``packet.flow_id`` instead of calling ``resolve``.
        self.split = None
        self.flow_rcv: Optional[Receiver] = None
        self.cross_rcv: Optional[Receiver] = None
        self.flow_dcl: Optional["_ChainLink"] = None
        self.cross_dcl: Optional["_ChainLink"] = None
        self.heads = queues.head_arrivals
        self.backlog = queues.bytes_backlog
        self.nclasses = queues.num_classes
        self.ccols = queues.cols
        self.cheads = queues.col_heads
        self.colmode = False
        #: Generated drain body (``repro.schedulers.draingen``): a
        #: fused select -- choose_class + ClassQueueSet.pop + on_select
        #: with identical float ops and mutation order -- verified
        #: against the live wrappers and the scheduler's registered
        #: invariant-checker oracle; plus the generated enqueue hook
        #: (SCFQ arrival tags, else ``None``) called after every
        #: columnar push into this member.  ``gsel is None`` (no
        #: verified body) keeps the member in object mode.
        from ..schedulers.draingen import generated_drain_pair

        self.gsel, self.genq = generated_drain_pair(scheduler) or (None, None)
        #: In-service representation (None == idle): real Packet, int
        #: packet id, or (pid, flow_id, created_at, hop_history) tuple.
        self.pend_meta = None
        self.pend_cid = 0
        self.pend_arr = 0.0
        self.pend_size = 0.0
        self.pend_sstart = 0.0
        self.t_c = 0.0
        self.s_c = 0
        self.virtual = False


class _Chain:
    """Validated snapshot of the drain-couplable graph below a link.

    Rebuilt lazily whenever :meth:`valid` fails; the guard list makes
    revalidation cheap (a handful of identity/attribute checks per
    drain entry) while still catching every event that can change the
    chain shape: target rewiring, scheduler replacement, invariant
    checker attach/detach, drain-flag flips, demux rebinding, and new
    routes in a :class:`~repro.network.routed.RoutedNetwork`.
    """

    __slots__ = ("members", "coupled", "blocked", "sources", "guards")

    def __init__(
        self,
        members: list[_ChainLink],
        coupled: Optional[dict],
        blocked: bool,
        sources: bool,
        guards: list,
    ) -> None:
        self.members = members
        #: id(link) -> _ChainLink for every member, or None when the
        #: chain is this link alone (no fusion possible).
        self.coupled = coupled
        #: True when an invariant checker is attached somewhere in the
        #: couplable graph: chain fusion is disabled (the entry link
        #: keeps its single-link paths, which never bypass another
        #: link's hooks).
        self.blocked = blocked
        #: True when some member had fused feeders or an arrival cursor
        #: at build time.  Without inline arrival sources every arrival
        #: is a foreign calendar event, so a chain drain would park
        #: once per arrival and its setup would dominate; the entry
        #: then keeps the cheap single-link drain paths.  (A source
        #: attached later clears the link's chain cache, refreshing
        #: this.)
        self.sources = sources
        self.guards = guards

    def valid(self) -> bool:
        for g in self.guards:
            if g.__class__ is tuple:
                L = g[1]
                if g[0] == 0:
                    # Member guard: same target/scheduler, still
                    # drain-enabled and hook-free.
                    if (
                        L.target is not g[2]
                        or L.scheduler is not g[3]
                        or not L.drain
                        or "_complete_service" in L.__dict__
                        or "receive" in L.__dict__
                        or "select" in L.scheduler.__dict__
                    ):
                        return False
                else:
                    # Blocked guard: the chain stays blocked only while
                    # the checker hooks remain attached.
                    if not (
                        "_complete_service" in L.__dict__
                        or "receive" in L.__dict__
                        or "select" in L.scheduler.__dict__
                    ):
                        return False
            elif not g():
                # Demux guard closure (drain_guard protocol).
                return False
        return True


def _materialize_pending(cl: _ChainLink, now: float) -> Packet:
    """Real, fully-stamped Packet for a member's *departing* columnar
    entry -- the observation boundary is crossed at departure time, so
    the object carries exactly the stamps the evented path would have
    written by this point."""
    packet = materialize_entry(
        cl.pend_cid, cl.pend_arr, cl.pend_size, cl.pend_meta
    )
    sstart = cl.pend_sstart
    packet.service_start = sstart
    packet.departed_at = now
    packet.hop_delays.append(sstart - cl.pend_arr)
    return packet


def _chain_select(cl: _ChainLink, now: float, sim):
    """Start the next service at a member and return its fused-heap
    item, reserving the completion's sequence number exactly where the
    evented path would have called ``sim.schedule``.

    A colmode member selects through its generated body, so a columnar
    head stays unmaterialized in ``pend_meta``; an object-mode member
    runs the ``select`` wrapper, which materializes on pop.  NOTE:
    ``_chain_complete`` inlines this body (the per-departure hot path);
    keep the two in sync.
    """
    if cl.colmode:
        meta, cid, arr, size = cl.gsel(now)
    else:
        meta = cl.scheduler.select(now)
        cid = meta.class_id
        arr = meta.arrived_at
        size = meta.size
    s = sim._seq
    sim._seq = s + 1
    cl.pend_meta = meta
    cl.pend_cid = cid
    cl.pend_arr = arr
    cl.pend_size = size
    cl.pend_sstart = now
    t_c = now + size / cl.capacity
    cl.t_c = t_c
    cl.s_c = s
    cl.virtual = True
    return (t_c, s, 0, cl)


def _chain_arrival(cl: _ChainLink, packet: Packet, now: float, sim, fheap) -> None:
    """Object arrival at a coupled member: Link.receive for the
    lossless case.

    The completion's sequence number is reserved exactly where
    ``receive -> _start_service`` would have called ``sim.schedule``.
    The ``enqueue`` wrapper's push is hybrid-aware: when the class tail
    lives in a column the object is appended there (as a
    pre-materialized meta) so FIFO order never interleaves.
    """
    L = cl.link
    packet.arrived_at = now
    L.arrivals += 1
    cl.scheduler.enqueue(packet, now)
    if not L.busy:
        L.busy = True
        L._busy_since = now
        heappush(fheap, _chain_select(cl, now, sim))


def _chain_arrival_col(
    cl: _ChainLink, cid: int, size: float, meta, now: float, sim, fheap
) -> None:
    """Columnar arrival at a colmode member: no Packet is built."""
    L = cl.link
    L.arrivals += 1
    if not 0 <= cid < cl.nclasses:
        raise SchedulingError(
            f"packet class {cid} out of range [0, {cl.nclasses})"
        )
    if cl.heads[cid] == inf:
        cl.heads[cid] = now
    cl.ccols[cid].extend((now, size, meta))
    queues = cl.queues
    queues.col_count += 1
    cl.backlog[cid] += size
    queues.total_packets += 1
    if cl.genq is not None:
        # on_enqueue equivalent for the generated body (SCFQ tags).
        cl.genq(cid, size, meta, now)
    if not L.busy:
        L.busy = True
        L._busy_since = now
        heappush(fheap, _chain_select(cl, now, sim))


def _chain_complete(cl: _ChainLink, now: float, sim, fheap, coupled):
    """Departure at a coupled member, mirroring the evented path's
    exact ordering: stamps/counters, scheduler hook, monitors,
    hand-off, then the next service's sequence reservation.  The
    departing packet is ``cl.pend_meta`` (+ scalars): a real Packet on
    observed members, an unmaterialized meta in colmode.

    Returns the fused-heap item for the next completion (or ``None``
    when the busy period closes) instead of pushing it, so the drain
    loop can ``heapreplace`` the event it is handling -- one sift
    instead of a pop plus a push."""
    L = cl.link
    meta = cl.pend_meta
    size = cl.pend_size
    sstart = cl.pend_sstart
    L.departures += 1
    L.bytes_sent += size
    if type(meta) is Packet:
        packet = meta
        packet.service_start = sstart
        packet.departed_at = now
        packet.hop_delays.append(sstart - cl.pend_arr)
        cl.scheduler.on_departure(packet, now)
        if cl.monitors:
            for monitor in cl.monitors:
                monitor.on_departure(packet, now)
        flow = packet.flow_id
    else:
        packet = None
        flow = None if type(meta) is int else meta[1]
    dmx = cl.split
    if dmx is not None:
        # Pure flow-id demux (drain_flow_split): branch inline and keep
        # the demux counters exactly as drain_resolve would have.
        if flow is None:
            dmx.cross_packets += 1
            dcl = cl.cross_dcl
            rcv = cl.cross_rcv
        else:
            dmx.user_packets += 1
            dcl = cl.flow_dcl
            rcv = cl.flow_rcv
    else:
        rcv = cl.direct_target
        if rcv is None:
            if packet is None:
                # Routing inspects the packet: materialize for resolve.
                packet = _materialize_pending(cl, now)
            rcv = cl.resolve(packet)
            dcl = coupled.get(id(rcv))
        else:
            dcl = cl.direct_dcl
    if dcl is not None:
        down = dcl.link
        if packet is None and dcl.colmode:
            # Columnar hop hand-off: extend the meta's hop history with
            # this hop's queueing delay and push the scalars downstream.
            delay = sstart - cl.pend_arr
            if type(meta) is int:
                meta = (meta, None, cl.pend_arr, (delay,))
            else:
                meta = (meta[0], meta[1], meta[2], meta[3] + (delay,))
            down.arrivals += 1
            cid = cl.pend_cid
            if not 0 <= cid < dcl.nclasses:
                raise SchedulingError(
                    f"packet class {cid} out of range [0, {dcl.nclasses})"
                )
            if dcl.heads[cid] == inf:
                dcl.heads[cid] = now
            dcl.ccols[cid].extend((now, size, meta))
            queues = dcl.queues
            queues.col_count += 1
            dcl.backlog[cid] += size
            queues.total_packets += 1
            if dcl.genq is not None:
                dcl.genq(cid, size, meta, now)
            if not down.busy:
                down.busy = True
                down._busy_since = now
                heappush(fheap, _chain_select(dcl, now, sim))
        else:
            if packet is None:
                packet = _materialize_pending(cl, now)
            _chain_arrival(dcl, packet, now, sim, fheap)
    elif packet is not None:
        rcv.receive(packet)
    elif type(rcv) is PacketSink and not rcv.keep_packets:
        # Unobserved terminal sink: the packet's only externally
        # visible trace is the count -- no object is ever built.
        rcv.received += 1
    else:
        rcv.receive(_materialize_pending(cl, now))
    if cl.queues.total_packets:
        # Next service: inline copy of _chain_select (keep in sync),
        # returning the item for the caller's heapreplace.
        if cl.colmode:
            meta, cid, arr, size = cl.gsel(now)
        else:
            meta = cl.scheduler.select(now)
            cid = meta.class_id
            arr = meta.arrived_at
            size = meta.size
        s = sim._seq
        sim._seq = s + 1
        cl.pend_meta = meta
        cl.pend_cid = cid
        cl.pend_arr = arr
        cl.pend_size = size
        cl.pend_sstart = now
        t_c = now + size / cl.capacity
        cl.t_c = t_c
        cl.s_c = s
        cl.virtual = True
        return (t_c, s, 0, cl)
    cl.pend_meta = None
    L.busy = False
    L._in_service = None
    L.busy_time += now - L._busy_since
    return None


class Link:
    """Single-server transmission link with pluggable scheduler."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: "Scheduler",
        capacity: float,
        target: Optional[Receiver] = None,
        name: str = "link",
        buffer_packets: Optional[int] = None,
        drop_policy: Optional["DropPolicy"] = None,
        drain: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"link capacity must be positive: {capacity}")
        if buffer_packets is not None and buffer_packets < 1:
            raise ConfigurationError("buffer_packets must be >= 1 when set")
        if drop_policy is not None and buffer_packets is None:
            raise ConfigurationError("a drop policy requires buffer_packets")
        self.sim = sim
        self.scheduler = scheduler
        self.capacity = capacity
        # Schedulers that need the link rate (e.g. BPR's Eq 9) expose
        # bind_capacity; bind it unless the caller already fixed one.
        bind = getattr(scheduler, "bind_capacity", None)
        if bind is not None and getattr(scheduler, "capacity", None) is None:
            bind(capacity)
        self._target: Receiver = target if target is not None else PacketSink()
        self.name = name
        self.buffer_packets = buffer_packets
        self.drop_policy = drop_policy
        self.monitors: list = []
        #: Busy-period drain kernel A/B switch (see module docstring).
        self.drain = drain
        self._feeders: list = []
        self._cursors: list = []
        #: ``(time, seq)`` heap key of the scheduled completion event
        #: for the packet in service, mirrored so a chain drain can
        #: couple this link mid-busy-period and absorb the real event.
        #: Maintained at every point control leaves the link with a
        #: completion scheduled; ``None`` means "unknown", which merely
        #: keeps the link uncoupled until it parks again.
        self._pending_key: Optional[tuple] = None
        self._chain_cache: Optional[_Chain] = None
        #: Simulator topology revision the cached chain was built at.
        #: A moved version forces a rebuild even when ``_chain_fuse``
        #: is False -- upstream-side edits (a new fan-in link, a feeder
        #: attaching to a *member*, a route rewire) are invisible to a
        #: non-fusing entry's own guards.
        self._chain_topo = -1
        #: Cached routing decision: True only when the cached chain can
        #: fuse (coupled members, arrival sources, not blocked).  When
        #: False, completions skip chain validation entirely -- the
        #: cache is cleared (forcing recomputation) whenever a feeder
        #: or cursor attaches, a checker detaches, or routes change.
        self._chain_fuse = False

        self.busy = False
        self._in_service: Optional[Packet] = None
        # Counters (arrivals/departures are per link; drops only with a
        # bounded buffer).
        self.arrivals = 0
        self.departures = 0
        self.drops = 0
        self.drops_per_class = [0] * scheduler.num_classes
        self.bytes_sent = 0.0
        self.busy_time = 0.0
        self._busy_since = 0.0
        # Register on the simulator: the chain walk scans this to find
        # upstream fan-in members, and the version bump invalidates any
        # cached chain the new link might belong to.
        sim._links.append(self)
        sim._topo_version += 1

    @property
    def target(self) -> Receiver:
        """Downstream receiver; rebinding it is a topology edit."""
        return self._target

    @target.setter
    def target(self, value: Receiver) -> None:
        self._target = value
        self._chain_cache = None
        self.sim._topo_version += 1

    @property
    def _fast_ok(self) -> bool:
        """Whether the fused loop may own this link's departures: no
        buffer management and a bare :class:`PacketSink` target.  Read
        at every drain entry, so a target rebound after construction
        is honoured (monitors and the scheduler are checked there too).
        """
        return (
            self.drop_policy is None
            and self.buffer_packets is None
            and type(self._target) is PacketSink
        )

    # ------------------------------------------------------------------
    def add_monitor(self, monitor) -> None:
        """Attach an object with ``on_departure(packet, now)``."""
        self.monitors.append(monitor)

    def attach_feeder(self, feeder) -> bool:
        """Register a source for inline arrival fusion during drains.

        ``feeder`` must follow the feeder protocol: ``next_time`` /
        ``next_seq`` attributes mirroring its scheduled arrival event's
        heap key (``next_time is None`` when nothing is pending), a
        ``_virtual`` flag owned by the drain, a ``flow_id`` tag, and
        ``pull()`` / ``pull_col(now)`` / ``advance(now)`` /
        ``park(heap)`` methods
        (:class:`~repro.traffic.trace.TraceSource` and
        :class:`~repro.traffic.source.TrafficSource` implement it).

        Returns ``False`` -- and registers nothing -- when the drain
        kernel is disabled or instrumentation hooks are already
        attached, in which case the source simply runs evented.
        """
        if (
            not self.drain
            or "_complete_service" in self.__dict__
            or "receive" in self.__dict__
            or "select" in self.scheduler.__dict__
        ):
            return False
        self._feeders.append(feeder)
        # A new inline arrival source may flip the cached chain-fusion
        # decision (see _complete_service); recompute on next entry --
        # for every chain this link is a member of, not just our own.
        self._chain_cache = None
        self.sim._topo_version += 1
        return True

    def _attach_cursor(self, cursor) -> None:
        """Register an :class:`~repro.traffic.compile.ArrivalCursor`.

        Called by the cursor itself at ``start()`` for every distinct
        link its compiled streams inject into.  Chain drains absorb the
        cursor's single pending calendar event through the same mirror
        protocol as fused feeders (see module docstring).  Registration
        is unconditional and idempotent -- chain eligibility is
        re-checked at every drain entry, so an ineligible link simply
        never uses the registration.
        """
        for c in self._cursors:
            if c is cursor:
                return
        self._cursors.append(cursor)
        self._chain_cache = None  # refresh the cached fusion decision
        self.sim._topo_version += 1

    def suspend_drain(self) -> None:
        """Permanently detach all fused feeders from this link.

        Safe at any point between events: a fused feeder's pending
        arrival is always a *real* calendar event (the mirror protocol),
        so detaching merely stops the drain from pulling its arrivals
        inline -- the source keeps running evented, bit-identically.
        The invariant checker calls this when attaching hooks.
        """
        self._feeders = []
        self.sim._topo_version += 1

    @property
    def backlog_packets(self) -> int:
        """Queued packets, excluding the one in service."""
        return self.scheduler.queues.total_packets

    @property
    def in_service(self) -> Optional[Packet]:
        """The packet currently being transmitted, if any.

        Exposed read-only for instrumentation (monitors, the invariant
        checker); the link alone mutates the underlying slot.
        """
        return self._in_service

    @property
    def busy_since(self) -> float:
        """Start time of the current busy period (valid while ``busy``)."""
        return self._busy_since

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Packet arrival at this hop."""
        now = self.sim.now
        packet.arrived_at = now
        self.arrivals += 1
        if self.drop_policy is not None:
            self.drop_policy.on_arrival(packet.class_id, now)
        if (
            self.buffer_packets is not None
            and self.backlog_packets >= self.buffer_packets
        ):
            if not self._drop_for(packet):
                return  # arriving packet itself was dropped
        self.scheduler.enqueue(packet, now)
        if not self.busy:
            self._begin_busy_period(now)
            self._start_service()

    def seed_backlog(self, packets: Sequence[Packet]) -> None:
        """Inject pre-built backlog packets at the current instant.

        The fluid->packet handoff seam of the hybrid engine
        (:mod:`repro.sim.hybrid`): unlike :meth:`receive`, the packets'
        possibly *backdated* ``arrived_at`` stamps are preserved, so the
        seeded queue state carries the age profile implied by the fluid
        delay estimates (head-age schedulers like WTP resume with
        plausible priorities, and the seeds' own measured delays match
        the fluid estimate they were derived from).  Packets must be
        pre-sorted by ``arrived_at`` per class (FIFO) and the call must
        come from inside a scheduled event -- the hybrid controller
        schedules it at the packet segment's start instant.  Service
        begins immediately when the link was idle.

        On a multihop topology *every* link is seeded independently
        with its own carried backlog: the hub's seeds are backdated by
        the fluid per-class delay estimates, upstream hops' by a
        uniform drain-time estimate (their per-class fluid state is
        aggregate-only).  Byte totals per link are exact either way;
        the age profile is the modeled part of the handoff contract
        (see ``DESIGN.md``, "Fluid/packet handoff contract").
        """
        now = self.sim.now
        scheduler = self.scheduler
        for packet in packets:
            self.arrivals += 1
            scheduler.enqueue(packet, packet.arrived_at)
        if not self.busy and scheduler.queues.total_packets:
            self._begin_busy_period(now)
            self._start_service()

    def backlog_snapshot(self, now: Optional[float] = None) -> list[float]:
        """Per-class backlog bytes, including the in-service remnant.

        The packet->fluid handoff read-out: queued bytes per class plus
        the unserved remainder of the packet in service (when the link
        is busy and its pending completion is visible; a columnar
        chain-fused drain may leave at most one in-flight packet
        unaccounted, which the hybrid's guard bands absorb).  Call only
        while the calendar is at rest (between ``run`` invocations).
        The network-wide hybrid controller reads every link's snapshot
        at a packet segment's end and threads each into that link's
        carried backlog for the next fluid segment.
        """
        if now is None:
            now = self.sim.now
        backlogs = list(self.scheduler.queues.bytes_backlog)
        packet = self._in_service
        if self.busy and packet is not None and self._pending_key is not None:
            remaining = (self._pending_key[0] - now) * self.capacity
            backlogs[packet.class_id] += min(max(remaining, 0.0), packet.size)
        return backlogs

    def _drop_for(self, arriving: Packet) -> bool:
        """Make room for ``arriving``; return False if *it* was dropped."""
        if self.drop_policy is None:
            # Plain tail drop of the arriving packet.
            self.drops += 1
            self.drops_per_class[arriving.class_id] += 1
            return False
        victim_class = self.drop_policy.choose_victim(
            self.scheduler.queues, arriving, self.sim.now
        )
        if victim_class is None:
            self.drops += 1
            self.drops_per_class[arriving.class_id] += 1
            self.drop_policy.on_drop(arriving.class_id, self.sim.now)
            return False
        self.scheduler.queues.pop_tail(victim_class)
        self.drops += 1
        self.drops_per_class[victim_class] += 1
        self.drop_policy.on_drop(victim_class, self.sim.now)
        return True

    # ------------------------------------------------------------------
    def _begin_busy_period(self, now: float) -> None:
        self.busy = True
        self._busy_since = now

    def _start_service(self) -> None:
        sim = self.sim
        now = sim.now
        packet = self.scheduler.select(now)
        packet.service_start = now
        self._in_service = packet
        t_c = now + packet.size / self.capacity
        self._pending_key = (t_c, sim._seq)
        sim.schedule(t_c, self._complete_service, packet)

    def _complete_service(self, packet: Packet) -> None:
        """Service completion: drain the busy period, or fall back.

        Entry point for every completion event.  Routes to the evented
        path when the drain kernel is off or per-instance hooks (the
        invariant checker) are attached -- hooks replace this method on
        the *instance*, so reaching the class method with an instance
        override present means we were called from inside a hook
        wrapper and must not drain underneath it.
        """
        scheduler = self.scheduler
        if (
            not self.drain
            or "_complete_service" in self.__dict__
            or "receive" in self.__dict__
            or "select" in scheduler.__dict__
        ):
            if self._feeders:
                self.suspend_drain()
            if scheduler.queues.col_count:
                # Hooks observe whole queues: any columnar residue is
                # an observation boundary (checker attach demotes too;
                # this is the safety net for hooks installed by hand).
                scheduler.queues.demote()
            self._complete_service_evented(packet)
            return
        sim = self.sim
        chain = self._chain_cache
        if chain is None or self._chain_topo != sim._topo_version:
            chain = self._build_chain()
            self._chain_cache = chain
            self._chain_topo = sim._topo_version
            self._chain_fuse = (
                chain.coupled is not None
                and not chain.blocked
                and chain.sources
            )
        if self._chain_fuse:
            # Revalidation (and a rebuild on guard failure) only runs
            # on fusing entries -- once per chain entry, not per
            # completion; a non-fusing link pays a single flag check.
            if not chain.valid():
                chain = self._build_chain()
                self._chain_cache = chain
                self._chain_topo = sim._topo_version
                self._chain_fuse = (
                    chain.coupled is not None
                    and not chain.blocked
                    and chain.sources
                )
            if self._chain_fuse and self._drain_chain(packet, chain):
                return
        feeders = self._feeders
        monitors = self.monitors
        if (
            feeders
            and self._fast_ok
            and (
                not monitors
                or (len(monitors) == 1 and type(monitors[0]) is DelayMonitor)
            )
        ):
            # Fused loop: only a bare sink and a foldable DelayMonitor
            # observe departures, and the live scheduler has a
            # verified generated body.
            from ..schedulers.draingen import generated_drain_pair

            pair = generated_drain_pair(scheduler)
            if pair is not None:
                self._drain_fused(packet, *pair, monitors)
                return
        if scheduler.queues.col_count:
            # Columns are read in place only by generated bodies; any
            # residue crossing into the wrapper-based loop below (a
            # hook-overriding choose_class reads deques) is an
            # observation boundary -- demote it.
            scheduler.queues.demote()
        heap = sim._heap
        until = sim._run_until
        capacity = self.capacity
        queues = scheduler.queues
        target = self.target
        select = scheduler.select
        on_departure = scheduler.on_departure
        complete = self._complete_service
        now = sim.now
        while True:
            # -- departure of `packet` at `now` (mirrors the evented path)
            packet.departed_at = now
            packet.hop_delays.append(packet.service_start - packet.arrived_at)
            self.departures += 1
            self.bytes_sent += packet.size
            self._in_service = None
            on_departure(packet, now)
            for monitor in monitors:
                monitor.on_departure(packet, now)
            target.receive(packet)
            if queues.total_packets:
                nxt = select(now)
                nxt.service_start = now
                self._in_service = nxt
                t_c = now + nxt.size / capacity
                # Reserve the completion's sequence number exactly where
                # the evented path would have called sim.schedule.
                s_c = sim._seq
                sim._seq = s_c + 1
            else:
                nxt = None
                self.busy = False
                self.busy_time += now - self._busy_since
            # -- consume fused arrivals that precede the next completion
            while True:
                feeder = None
                t_a = inf
                s_a = 0
                for f in feeders:
                    ft = f.next_time
                    if ft is not None and (
                        ft < t_a or (ft == t_a and f.next_seq < s_a)
                    ):
                        t_a = ft
                        s_a = f.next_seq
                        feeder = f
                if feeder is None or (
                    nxt is not None
                    and (t_c < t_a or (t_c == t_a and s_c < s_a))
                ):
                    # Next fused event is the completion (or nothing).
                    if nxt is None:
                        return  # idle, no fused arrivals pending
                    if t_c > until or (
                        heap
                        and (
                            heap[0][0] < t_c
                            or (heap[0][0] == t_c and heap[0][1] < s_c)
                        )
                    ):
                        for f in feeders:
                            f.park(heap)
                        self._pending_key = (t_c, s_c)
                        heappush(heap, (t_c, s_c, complete, nxt))
                        return
                    now = t_c
                    sim.now = t_c
                    packet = nxt
                    break
                # Next fused event is `feeder`'s arrival at (t_a, s_a).
                if t_a > until:
                    for f in feeders:
                        f.park(heap)
                    if nxt is not None:
                        self._pending_key = (t_c, s_c)
                        heappush(heap, (t_c, s_c, complete, nxt))
                    return
                if heap:
                    head = heap[0]
                    ht = head[0]
                    if ht < t_a or (ht == t_a and head[1] < s_a):
                        for f in feeders:
                            f.park(heap)
                        if nxt is not None:
                            self._pending_key = (t_c, s_c)
                            heappush(heap, (t_c, s_c, complete, nxt))
                        return
                    if ht == t_a and head[1] == s_a:
                        # The arrival's own mirrored calendar event is
                        # the heap minimum: absorb it and go virtual.
                        heappop(heap)
                        feeder._virtual = True
                now = t_a
                sim.now = t_a
                arriving = feeder.pull()
                arriving.arrived_at = t_a
                self.arrivals += 1
                if self.drop_policy is not None:
                    self.drop_policy.on_arrival(arriving.class_id, t_a)
                if (
                    self.buffer_packets is not None
                    and queues.total_packets >= self.buffer_packets
                    and not self._drop_for(arriving)
                ):
                    feeder.advance(t_a)
                    continue
                scheduler.enqueue(arriving, t_a)
                if nxt is None:
                    # Arrival onto an idle link: the drain spans the
                    # idle gap and opens the next busy period inline.
                    self.busy = True
                    self._busy_since = t_a
                    nxt = select(t_a)
                    nxt.service_start = t_a
                    self._in_service = nxt
                    t_c = t_a + nxt.size / capacity
                    s_c = sim._seq
                    sim._seq = s_c + 1
                feeder.advance(t_a)

    def _drain_fused(self, packet: Packet, gsel, genq, monitors) -> None:
        """Fused busy-period drain for one or more fused feeders.

        Runs only while per-packet state is unobservable but for a bare
        :class:`PacketSink` and at most one :class:`DelayMonitor` (see
        :meth:`_complete_service`).  Every selection runs the
        scheduler's oracle-verified generated body ``gsel`` (and every
        arrival its ``genq`` hook, when it has one;
        :mod:`repro.schedulers.draingen`).  The monitor is folded in:
        its :class:`ClassDelayStats` are updated at each departure with
        the float ops, order and warm-up test of
        :meth:`DelayMonitor.on_departure`.  Float expressions, mutation
        order and sequence reservations are those of the evented path;
        only the Python call layers disappear.

        Arrivals enter the per-class columns as ``(arrived_at, size,
        meta)`` scalars (``pull_col``) and are selected, transmitted
        and counted without ever existing as objects; a real
        :class:`Packet` is materialized only when the sink keeps
        packets (at departure, fully stamped) or at a park (the pending
        completion becomes a calendar payload).  The earliest pending
        feeder arrival ``(ft, fs, feeder)`` lives in locals, the others
        in a local min-heap keyed like the calendar (seqs are unique,
        so feeders never compare).  Link counters accumulate in locals
        and are published in the ``finally`` block, so externally
        visible state is consistent whenever control is back in the
        run loop.
        """
        sim = self.sim
        heap = sim._heap
        until = sim._run_until
        capacity = self.capacity
        queues = self.scheduler.queues
        cols = queues.cols
        heads = queues.head_arrivals
        backlog_bytes = queues.bytes_backlog
        num_classes = queues.num_classes
        target = self._target
        keep = target.keep_packets
        kept = target.packets
        feeders = self._feeders
        complete = self._complete_service
        # No monitor: an infinite warm-up keeps every departure out.
        warmup = inf
        if monitors:
            monitor = monitors[0]
            warmup = monitor.warmup
            mstats = monitor.stats
            samples = monitor._samples if monitor.keep_samples else None
        fheap = [
            (f.next_time, f.next_seq, f)
            for f in feeders
            if f.next_time is not None
        ]
        ft = None
        fs = 0
        if fheap:
            heapify(fheap)
            ft, fs, feeder = heappop(fheap)
            # The current feeder's pull and flow tag, rebound whenever
            # another feeder becomes the earliest.
            pull = feeder.pull_col
            fid = feeder.flow_id
        now = sim.now
        total = queues.total_packets
        ccount = queues.col_count
        # Departing-service scalars (the completion being handled) and
        # pending-service scalars (the next reserved completion).
        dmeta = packet
        dcid = packet.class_id
        darr = packet.arrived_at
        dsize = packet.size
        dstart = packet.service_start
        smeta = None
        scid = s_c = 0
        sarr = ssize = sstart = t_c = 0.0
        arrivals = departures = received = 0
        nbytes = 0.0
        parked = False
        try:
            while True:
                # -- departure of the in-service packet at `now`
                departures += 1
                nbytes += dsize
                received += 1
                if now >= warmup:
                    # inline DelayMonitor.on_departure + ClassDelayStats.add
                    delay = dstart - darr
                    st = mstats[dcid]
                    st.count += 1
                    st.total += delay
                    st.total_sq += delay * delay
                    if delay < st.min:
                        st.min = delay
                    if delay > st.max:
                        st.max = delay
                    if samples is not None:
                        samples[dcid].append(delay)
                if keep:
                    if type(dmeta) is Packet:
                        p = dmeta
                    else:
                        p = materialize_entry(dcid, darr, dsize, dmeta)
                    p.service_start = dstart
                    p.departed_at = now
                    p.hop_delays.append(dstart - darr)
                    kept.append(p)
                smeta = None
                if total:
                    # The packet count is kept in a local -- publish it
                    # before scheduler code sees the queue set.
                    queues.total_packets = total
                    queues.col_count = ccount
                    smeta, scid, sarr, ssize = gsel(now)
                    total = queues.total_packets
                    ccount = queues.col_count
                    sstart = now
                    t_c = now + ssize / capacity
                    s_c = sim._seq
                    sim._seq = s_c + 1
                else:
                    self.busy = False
                    self.busy_time += now - self._busy_since
                # -- consume fused arrivals preceding the completion
                while True:
                    if ft is None or (
                        smeta is not None
                        and (t_c < ft or (t_c == ft and s_c < fs))
                    ):
                        if smeta is None:
                            return  # idle, every feeder exhausted
                        if t_c > until or (
                            heap
                            and (
                                heap[0][0] < t_c
                                or (heap[0][0] == t_c and heap[0][1] < s_c)
                            )
                        ):
                            parked = True
                            return
                        now = t_c
                        dmeta = smeta
                        dcid = scid
                        darr = sarr
                        dsize = ssize
                        dstart = sstart
                        break
                    if ft > until:
                        parked = True
                        return
                    if heap:
                        head = heap[0]
                        ht = head[0]
                        if ht < ft or (ht == ft and head[1] < fs):
                            parked = True
                            return
                        if ht == ft and head[1] == fs:
                            # The arrival's own mirrored calendar event
                            # is the heap minimum: absorb it, go virtual.
                            heappop(heap)
                            feeder._virtual = True
                    now = ft
                    idle = smeta is None
                    if idle:
                        # The evented path schedules the completion
                        # (inside receive) before the next arrival:
                        # reserve its seq ahead of the feeder's.
                        s_c = sim._seq
                        sim._seq = s_c + 1
                    pid, acid, asize = pull(ft)
                    arrivals += 1
                    if not 0 <= acid < num_classes:
                        raise SchedulingError(
                            f"packet class {acid} out of range "
                            f"[0, {num_classes})"
                        )
                    if heads[acid] == inf:
                        heads[acid] = ft
                    meta = pid if fid is None else (pid, fid, ft, ())
                    cols[acid].extend((ft, asize, meta))
                    ccount += 1
                    backlog_bytes[acid] += asize
                    total += 1
                    if genq is not None:
                        # on_enqueue equivalent (SCFQ tags).
                        genq(acid, asize, meta, ft)
                    if idle:
                        # Arrival onto an idle link: open the next busy
                        # period inline.
                        self.busy = True
                        self._busy_since = ft
                        queues.total_packets = total
                        queues.col_count = ccount
                        smeta, scid, sarr, ssize = gsel(ft)
                        total = queues.total_packets
                        ccount = queues.col_count
                        sstart = ft
                        t_c = ft + ssize / capacity
                    nt = feeder.next_time
                    if not fheap:
                        ft = nt
                        fs = feeder.next_seq
                        continue
                    if nt is None:
                        ft, fs, feeder = heappop(fheap)
                    else:
                        ft, fs, feeder = heappushpop(
                            fheap, (nt, feeder.next_seq, feeder)
                        )
                    pull = feeder.pull_col
                    fid = feeder.flow_id
        finally:
            for f in feeders:
                f.park(heap)
            queues.total_packets = total
            queues.col_count = ccount
            sim.now = now
            if smeta is None:
                self._in_service = None
                self._pending_key = None
            else:
                # Park/exception boundary: the pending completion must
                # be a real calendar payload.
                if type(smeta) is not Packet:
                    smeta = materialize_entry(scid, sarr, ssize, smeta)
                smeta.service_start = sstart
                self._in_service = smeta
                self._pending_key = (t_c, s_c)
                if parked:
                    heappush(heap, (t_c, s_c, complete, smeta))
            self.arrivals += arrivals
            self.departures += departures
            self.bytes_sent += nbytes
            target.received += received

    def _complete_service_evented(self, packet: Packet) -> None:
        now = self.sim.now
        packet.departed_at = now
        packet.hop_delays.append(packet.service_start - packet.arrived_at)
        self.departures += 1
        self.bytes_sent += packet.size
        self._in_service = None
        scheduler = self.scheduler
        scheduler.on_departure(packet, now)
        for monitor in self.monitors:
            monitor.on_departure(packet, now)
        self.target.receive(packet)
        if scheduler.queues.total_packets:
            # Inlined _start_service (one departure-to-service handoff
            # per transmitted packet makes this the hottest link path).
            # ``scheduler.select`` and ``self._complete_service`` stay
            # call-time lookups so per-instance overrides (the invariant
            # checker) keep intercepting both.
            nxt = scheduler.select(now)
            nxt.service_start = now
            self._in_service = nxt
            sim = self.sim
            t_c = now + nxt.size / self.capacity
            self._pending_key = (t_c, sim._seq)
            sim.schedule(t_c, self._complete_service, nxt)
        else:
            self.busy = False
            self.busy_time += now - self._busy_since

    # ------------------------------------------------------------------
    def _build_chain(self) -> _Chain:
        """Walk the target graph and snapshot the couplable chain.

        Breadth-first from this link through direct ``Link`` targets
        and demuxes implementing the drain-demux protocol.  Couplable
        successors (drain-enabled, same simulator, lossless, hook-free,
        unmodified method bodies) become chain members; a hooked successor
        (invariant checker) marks the chain *blocked*; anything else is
        a chain boundary reached via plain ``receive``.  Every object
        examined contributes a guard so :meth:`_Chain.valid` detects
        any change that could alter the walk's outcome.

        After the downstream walk, a fan-in fixpoint scans the
        simulator's link registry for *upstream* members: couplable
        links whose target (or demux successor set) resolves into an
        already-walked member.  Those merge into the same chain, so
        multiple feeder-driven upstream links converging on one server
        -- and routed DAGs converging through ``RouteDemux`` -- drain
        in one fused loop.  A hooked or lossy upstream candidate is
        simply left out (it keeps running evented; its departures reach
        the member as foreign calendar events the drain parks on), and
        upstream edits that no guard can see are caught by the
        simulator's ``_topo_version`` stamp instead.
        """
        guards: list = []
        members: list[_ChainLink] = []
        by_id: dict[int, _ChainLink] = {}
        blocked = False
        sim = self.sim
        # A lossy entry keeps its single-link drain (which implements
        # the drop path); only lossless links may join a fused chain.
        extend = self.buffer_packets is None and self.drop_policy is None
        pending: list[Link] = [self]
        seen = {id(self)}
        while True:
            while pending:
                L = pending.pop(0)
                tgt = L.target
                cl = _ChainLink(L)
                members.append(cl)
                by_id[id(L)] = cl
                guards.append((0, L, tgt, L.scheduler))
                if isinstance(tgt, Link):
                    cl.direct_target = tgt
                    succs: tuple = (tgt,)
                else:
                    resolve = getattr(tgt, "drain_resolve", None)
                    if resolve is None:
                        cl.direct_target = tgt
                        succs = ()
                    else:
                        cl.resolve = resolve
                        split = getattr(tgt, "drain_flow_split", None)
                        if split is not None:
                            cl.split = tgt
                            cl.flow_rcv, cl.cross_rcv = split()
                        guards.append(tgt.drain_guard())
                        succs = tuple(tgt.drain_successors())
                if not extend:
                    continue
                for r in succs:
                    if not isinstance(r, Link) or id(r) in seen:
                        continue
                    seen.add(id(r))
                    if (
                        "_complete_service" in r.__dict__
                        or "receive" in r.__dict__
                        or "select" in r.scheduler.__dict__
                    ):
                        blocked = True
                        guards.append((1, r))
                        continue
                    if (
                        r.drain
                        and r.sim is sim
                        and r.buffer_packets is None
                        and r.drop_policy is None
                        and type(r).receive is Link.receive
                        and type(r)._complete_service is Link._complete_service
                        and type(r)._start_service is Link._start_service
                    ):
                        pending.append(r)
            if not extend:
                break
            # Fan-in fixpoint: adopt couplable registered links that
            # feed a current member.  Repeats (via the outer loop) until
            # no new upstream link qualifies, so grandparent feeders of
            # a merge point join too.
            grew = False
            for r in sim._links:
                if id(r) in seen:
                    continue
                if (
                    not r.drain
                    or r.buffer_packets is not None
                    or r.drop_policy is not None
                    or type(r).receive is not Link.receive
                    or type(r)._complete_service is not Link._complete_service
                    or type(r)._start_service is not Link._start_service
                    or "_complete_service" in r.__dict__
                    or "receive" in r.__dict__
                    or "select" in r.scheduler.__dict__
                ):
                    continue
                rt = r.target
                if isinstance(rt, Link):
                    succs = (rt,)
                else:
                    ds = getattr(rt, "drain_successors", None)
                    if ds is None:
                        continue
                    succs = tuple(ds())
                if any(id(s) in by_id for s in succs):
                    seen.add(id(r))
                    pending.append(r)
                    grew = True
            if not grew:
                break
        coupled = by_id if len(members) > 1 else None
        sources = any(
            cl.link._feeders or cl.link._cursors for cl in members
        )
        if coupled is not None:
            # Pre-resolve each member's receivers to coupled members so
            # the hot departure path never touches the dict.
            for cl in members:
                if cl.direct_target is not None:
                    cl.direct_dcl = by_id.get(id(cl.direct_target))
                elif cl.split is not None:
                    cl.flow_dcl = by_id.get(id(cl.flow_rcv))
                    cl.cross_dcl = by_id.get(id(cl.cross_rcv))
        return _Chain(members, coupled, blocked, sources, guards)

    def _drain_chain(self, first: Packet, chain: _Chain) -> bool:
        """Fused drain over the whole coupled chain (module docstring).

        Returns ``False`` -- with no state touched -- when a member is
        busy mid-period with an unknown completion key (its event was
        scheduled while the chain shape was different); the entry then
        falls back to the single-link drain paths until that member
        parks with a mirrored key again.
        """
        members = chain.members
        sim = self.sim
        fheap: list = []
        for cl in members[1:]:
            L = cl.link
            if L.busy:
                key = L._pending_key
                p = L._in_service
                if key is None or p is None:
                    return False
                cl.pend_meta = p
                cl.pend_cid = p.class_id
                cl.pend_arr = p.arrived_at
                cl.pend_size = p.size
                cl.pend_sstart = p.service_start
                cl.t_c, cl.s_c = key
                cl.virtual = False
                fheap.append((cl.t_c, cl.s_c, 0, cl))
            else:
                cl.pend_meta = None
                cl.virtual = False
        heap = sim._heap
        until = sim._run_until
        coupled = chain.coupled
        entry = members[0]
        entry.virtual = False
        feeders: list = []
        cursors: list = []
        seen_cursors: set = set()
        for cl in members:
            L = cl.link
            cl.colmode = cl.gsel is not None and not L.monitors
            if not cl.colmode and cl.queues.col_count:
                # A member that lost colmode (a monitor appeared) may
                # hold columnar residue a hook-overriding wrapper select
                # cannot read: observation boundary, demote.
                cl.queues.demote()
            for f in L._feeders:
                feeders.append(f)
                ft = f.next_time
                if ft is not None:
                    fheap.append((ft, f.next_seq, 1, (f, cl)))
            for c in L._cursors:
                cid = id(c)
                if cid not in seen_cursors:
                    seen_cursors.add(cid)
                    cursors.append(c)
                    ct = c.next_time
                    if ct is not None:
                        fheap.append((ct, c.next_seq, 2, c))
        heapify(fheap)
        entry.pend_meta = first
        entry.pend_cid = first.class_id
        entry.pend_arr = first.arrived_at
        entry.pend_size = first.size
        entry.pend_sstart = first.service_start
        item = _chain_complete(entry, sim.now, sim, fheap, coupled)
        if item is not None:
            heappush(fheap, item)
        while fheap:
            head = fheap[0]
            t = head[0]
            s = head[1]
            if t > until:
                break
            if heap:
                h = heap[0]
                ht = h[0]
                if ht < t or (ht == t and h[1] < s):
                    break  # foreign calendar event precedes: park
                if ht == t and h[1] == s:
                    # The fused event's own mirrored calendar entry is
                    # the heap minimum: absorb it and go virtual.
                    heappop(heap)
                    kind = head[2]
                    if kind == 0:
                        head[3].virtual = True
                    elif kind == 1:
                        head[3][0]._virtual = True
                    else:
                        head[3]._virtual = True
            sim.now = t
            kind = head[2]
            obj = head[3]
            # Kinds 0/1 leave the handled event at the heap root and
            # heapreplace it with its successor (one sift); kind 2 must
            # pop first because drain_batch reads fheap[0] to find the
            # batch boundary.
            if kind == 0:
                item = _chain_complete(obj, t, sim, fheap, coupled)
                if item is not None:
                    heapreplace(fheap, item)
                else:
                    heappop(fheap)
            elif kind == 1:
                f, cl = obj
                _chain_arrival(cl, f.pull(), t, sim, fheap)
                f.advance(t)
                nt = f.next_time
                if nt is not None:
                    heapreplace(fheap, (nt, f.next_seq, 1, obj))
                else:
                    heappop(fheap)
            else:
                heappop(fheap)
                if obj.drain_batch(t, until, heap, fheap, coupled):
                    heappush(fheap, (obj.next_time, obj.next_seq, 2, obj))
        # Park: restore the exact calendar an evented run would have at
        # this instant.  Never-absorbed (non-virtual) events are still
        # in the heap and must not be re-pushed.
        for f in feeders:
            f.park(heap)
        for c in cursors:
            c.park(heap)
        for cl in members:
            meta = cl.pend_meta
            if meta is not None:
                L = cl.link
                if type(meta) is not Packet:
                    # Park boundary: the pending completion becomes a
                    # real calendar payload / visible in-service packet.
                    meta = materialize_entry(
                        cl.pend_cid, cl.pend_arr, cl.pend_size, meta
                    )
                    cl.pend_meta = meta
                # service_start is deferred to pend_sstart while fused;
                # the evented completion reads it off the packet.
                meta.service_start = cl.pend_sstart
                L._in_service = meta
                L._pending_key = (cl.t_c, cl.s_c)
                if cl.virtual:
                    cl.virtual = False
                    heappush(
                        heap, (cl.t_c, cl.s_c, L._complete_service, meta)
                    )
        return True

    # ------------------------------------------------------------------
    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the server was transmitting.

        If the link is busy at the end of the run the open busy period
        is counted up to ``now`` -- clamped to ``horizon`` when one is
        given, so a service still in progress at the cutoff contributes
        only its pre-horizon portion.  ``horizon`` defaults to the
        current clock.
        """
        total = self.busy_time
        if self.busy:
            end = (
                self.sim.now
                if horizon is None
                else min(self.sim.now, horizon)
            )
            if end > self._busy_since:
                total += end - self._busy_since
        span = horizon if horizon is not None else self.sim.now
        return total / span if span > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Link({self.name!r}, capacity={self.capacity}, "
            f"scheduler={self.scheduler.name})"
        )
