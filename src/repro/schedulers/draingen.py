"""Generated drain bodies: the one select every fused kernel calls.

The drain kernels of :mod:`repro.sim.link` (the single-link fused loop
and the chain-fused drain, plus the chain's inline arrival-cursor
batches) never select through the ``Scheduler.select`` wrapper and
never inline a FIFO pop of their own.  They call one generated,
oracle-verified body per scheduler, compiled by this module::

    gsel(now) -> (meta, cid, arrived_at, size)

It runs on the columnar queue state (no ``Packet`` objects, no wrapper
calls) and is composed of three source fragments:

* a *choose* fragment -- for a *stock* scheduler (one that keeps the
  base ``enqueue``/``select`` and every hook; wtp, qwtp, fcfs, strict,
  additive) simply ``cid = choose(now)`` with ``choose`` bound to the
  live ``choose_class``, which already reads the
  incrementally-maintained ``head_arrivals`` keys.  A hook-overriding
  scheduler (BPR, PAD, HPD, adaptive WTP, DRR, SCFQ) gets its
  ``choose_class`` transcribed to read the hybrid deque+column FIFOs
  directly (head arrival times from ``head_arrivals``, head sizes from
  the deque head or the column cursor -- bit-identical floats to the
  attribute reads the wrapper path performs, since both are maintained
  from the same values);
* the shared *pop* fragment -- a verbatim transcription of
  ``ClassQueueSet.pop`` over the hybrid FIFO, minus the
  materialization (the whole point is that column entries stay
  unmaterialized until an observation boundary);
* an *on_select* fragment -- the scheduler's hook rewritten over the
  columnar scalars ``(cid, arr, size, meta)`` (empty for stock
  schedulers, whose hook is the base no-op).

Schedulers that tag packets at arrival (SCFQ) additionally get a
generated enqueue hook ``genq(cid, size, meta, now)``, called by the
drain kernels after every columnar push.

Codegen contract (see DESIGN.md)
--------------------------------
A generated body may only be handed to the drain kernel when

1. the scheduler's ``name`` has a registered invariant-checker oracle
   (:mod:`repro.invariants.scheduler_checks`) -- an independent
   reference implementation of its selection rule; and
2. the template has passed *class-level verification*: a seeded
   differential workload on fresh canonical instances, run twice --

   * an **object phase** where both the reference (wrapper
     ``enqueue``/``select``) and the generated body consume identical
     real-``Packet`` streams, every generated dispatch is compared
     field-for-field against the wrapper's and additionally validated
     by the registered oracle, and
   * a **columnar phase** where the generated side is fed raw column
     entries (``push_col`` + ``genq``) while the wrapper side consumes
     the equivalent objects, proving the column transcription of the
     choose fragment reads the same floats the object path would --

   followed by an exact final-state comparison (every scheduler
   attribute, queue counters included; no tolerances anywhere).

Verification runs once per scheduler *class* and is cached; a failure
permanently disables generation for that class (the drain kernel then
keeps the always-correct wrapper path) and is recorded in
:func:`generation_report` so the differential test harness can fail
loudly rather than silently losing the fast path.  Templates are keyed
by exact class: a subclass (an impostor with a rewritten
``choose_class``, say) has no template and runs the wrapper path.

Float-op fidelity notes (kept in sync with the scheduler sources):

* BPR: the empty-class scan must still zero ``_virtual`` entries, and
  ``_recompute_rates``'s weighted sum accumulates left-to-right.
* HPD: normalizers are frozen per selection and the maxima are written
  back *after* the scan.
* adaptive WTP: ``best_priority`` starts at ``-1.0`` (not ``-inf``),
  the EWMA NaN-init test is ``previous != previous``, and the
  controller step reuses the scheduler's own ``_adjust`` (same method,
  same floats).
* DRR: the real ``choose_class`` peeks heads via ``queues.head``,
  which *promotes* column entries into the deque; the generated body
  reads the head size in place instead -- a pure storage-layout
  difference, invisible to every observable (the promoted object would
  have carried exactly the floats the column holds).
* SCFQ: ``_last_class_finish`` is *rebound* by the empty-reset in
  ``on_select``, so generated code reaches it through the scheduler
  attribute each time; ``_finish_tags`` is only ever mutated in place
  and may be captured.
"""

from __future__ import annotations

import random
from math import inf
from typing import Any, Callable, Optional

from ..errors import ConfigurationError
from ..sim.packet import Packet
from ..sim.queues import _COL_COMPACT

__all__ = ["generated_drain_pair", "generation_report", "supported_classes"]


# ----------------------------------------------------------------------
# Source fragments
# ----------------------------------------------------------------------
#: Verbatim transcription of ``ClassQueueSet.pop`` over the hybrid
#: deque+column FIFO, minus materialization.  Binds ``cid`` (set by the
#: choose fragment) and leaves ``meta``/``arr``/``size`` for the
#: on_select fragment and the return.
_POP_SRC = """\
    queue = qlist[cid]
    if queue:
        nxt = queue.popleft()
        size = nxt.size
        if queue:
            backlog[cid] -= size
            heads[cid] = queue[0].arrived_at
        else:
            col = cols[cid]
            h = cheads[cid]
            if h < len(col):
                backlog[cid] -= size
                heads[cid] = col[h]
            else:
                backlog[cid] = 0.0
                heads[cid] = inf
        queues.total_packets -= 1
        meta = nxt
        arr = nxt.arrived_at
    else:
        col = cols[cid]
        h = cheads[cid]
        arr = col[h]
        size = col[h + 1]
        meta = col[h + 2]
        h += 3
        queues.col_count -= 1
        if h == len(col):
            col.clear()
            cheads[cid] = 0
            backlog[cid] = 0.0
            heads[cid] = inf
        else:
            if h >= _COL_COMPACT:
                del col[:h]
                h = 0
            cheads[cid] = h
            backlog[cid] -= size
            heads[cid] = col[h]
        queues.total_packets -= 1
"""

#: Extract the packet id from a columnar ``meta`` (int id, richer
#: tuple, or pre-materialized Packet) without materializing.
_PID_SRC = """\
    if type({src}) is int:
        pid = {src}
    elif type({src}) is Packet:
        pid = {src}.packet_id
    else:
        pid = {src}[0]
"""

_BPR_CHOOSE = """\
    last = S._last_decision
    cid = -1
    best_score = inf
    for c in range(n - 1, -1, -1):
        ha = heads[c]
        if ha == inf:
            virtual[c] = 0.0
            continue
        if last is None or ha > last:
            virtual[c] = 0.0
        else:
            virtual[c] += rates[c] * (now - last)
        q = qlist[c]
        if q:
            hsize = q[0].size
        else:
            hsize = cols[c][cheads[c] + 1]
        score = hsize - virtual[c]
        if score < best_score:
            best_score = score
            cid = c
"""

_BPR_ON_SELECT = """\
    virtual[cid] = max(0.0, virtual[cid] - size)
    weight_sum = 0.0
    for c in range(n):
        weight_sum += sdps[c] * backlog[c]
    if weight_sum <= 0.0:
        for c in range(n):
            rates[c] = 0.0
    else:
        scale = S.capacity / weight_sum
        for c in range(n):
            rates[c] = sdps[c] * backlog[c] * scale
    S._last_decision = now
"""

_PAD_CHOOSE = """\
    cid = -1
    best_metric = NEGINF
    for c in range(n - 1, -1, -1):
        ha = heads[c]
        if ha == inf:
            continue
        head_wait = now - ha
        metric = (sums[c] + head_wait) / (counts[c] + 1) * sdps[c]
        if metric > best_metric:
            best_metric = metric
            cid = c
"""

_PAD_ON_SELECT = """\
    sums[cid] += now - arr
    counts[cid] += 1
"""

_HPD_CHOOSE = """\
    cid = -1
    best_metric = NEGINF
    inv_w = 1.0 / S._wtp_scale
    inv_a = 1.0 / S._pad_scale
    max_wtp = S._wtp_scale
    max_pad = S._pad_scale
    for c in range(n - 1, -1, -1):
        ha = heads[c]
        if ha == inf:
            continue
        head_wait = now - ha
        wtp_term = sdps[c] * head_wait
        pad_term = (sums[c] + head_wait) / (counts[c] + 1) * sdps[c]
        if wtp_term > max_wtp:
            max_wtp = wtp_term
        if pad_term > max_pad:
            max_pad = pad_term
        metric = G * wtp_term * inv_w + (1.0 - G) * pad_term * inv_a
        if metric > best_metric:
            best_metric = metric
            cid = c
    S._wtp_scale = max_wtp
    S._pad_scale = max_pad
"""

_ADAPTIVE_CHOOSE = """\
    cid = -1
    best_priority = -1.0
    for c in range(n - 1, -1, -1):
        ha = heads[c]
        if ha == inf:
            continue
        priority = (now - ha) * esdps[c]
        if priority > best_priority:
            best_priority = priority
            cid = c
"""

_ADAPTIVE_ON_SELECT = """\
    delay = now - arr
    previous = ewma[cid]
    if previous != previous:
        ewma[cid] = delay
    else:
        ewma[cid] = (1.0 - ALPHA) * previous + ALPHA * delay
    served = S._served_since_adjust + 1
    if served >= PERIOD:
        S._served_since_adjust = 0
        S._adjust()
    else:
        S._served_since_adjust = served
"""

_DRR_CHOOSE = """\
    cid = -1
    active = S._active
    if active is not None:
        q = qlist[active]
        if q:
            hsize = q[0].size
        else:
            col = cols[active]
            h = cheads[active]
            hsize = col[h + 1] if h < len(col) else None
        if hsize is not None and hsize <= deficits[active]:
            cid = active
        else:
            if hsize is None:
                deficits[active] = 0.0
            S._active = None
    if cid < 0:
        for _ in range(BOUND):
            c = S._round_cursor
            S._round_cursor = (c + 1) % n
            q = qlist[c]
            if q:
                hsize = q[0].size
            else:
                col = cols[c]
                h = cheads[c]
                hsize = col[h + 1] if h < len(col) else None
            if hsize is None:
                deficits[c] = 0.0
                continue
            deficits[c] += quanta[c]
            if hsize <= deficits[c]:
                S._active = c
                cid = c
                break
        else:
            raise ConfigurationError(
                "DRR quantum too small for the offered packet sizes"
            )
"""

_DRR_ON_SELECT = """\
    deficits[cid] -= size
"""

_SCFQ_CHOOSE = """\
    cid = -1
    best_tag = inf
    for c in range(n - 1, -1, -1):
        q = qlist[c]
        if q:
            pid = q[0].packet_id
        else:
            col = cols[c]
            h = cheads[c]
            if h >= len(col):
                continue
            m = col[h + 2]
            if type(m) is int:
                pid = m
            elif type(m) is Packet:
                pid = m.packet_id
            else:
                pid = m[0]
        tag = tags[pid]
        if tag < best_tag:
            best_tag = tag
            cid = c
"""

_SCFQ_ON_SELECT = (
    _PID_SRC.format(src="meta")
    + """\
    S._virtual_now = tags.pop(pid)
    if queues.total_packets == 0:
        S._virtual_now = 0.0
        S._last_class_finish = [0.0] * n
"""
)

_SCFQ_GENQ = (
    "def genq(cid, size, meta, now):\n"
    + _PID_SRC.format(src="meta")
    + """\
    start = max(S._last_class_finish[cid], S._virtual_now)
    finish = start + size / weights[cid]
    tags[pid] = finish
    S._last_class_finish[cid] = finish
"""
)


def _gsel_source(choose_src: str, on_select_src: str) -> str:
    return (
        "def gsel(now):\n"
        + choose_src
        + _POP_SRC
        + on_select_src
        + "    return meta, cid, arr, size\n"
    )


#: The stock select: the live ``choose_class`` plus the pop (stock
#: schedulers keep the base no-op ``on_select``).
_STOCK_GSEL = _gsel_source("    cid = choose(now)\n", "")


# ----------------------------------------------------------------------
# Templates
# ----------------------------------------------------------------------
class _Template:
    """One scheduler class's generation recipe.

    ``extra_env(scheduler)`` supplies the per-instance closure bindings
    the fragments reference beyond the base queue-state names;
    ``canonical()`` builds a fresh instance for class verification;
    ``ready(scheduler)`` gates per-instance prerequisites (e.g. BPR's
    bound capacity).
    """

    __slots__ = ("gsel_src", "genq_src", "extra_env", "canonical", "ready")

    def __init__(
        self,
        gsel_src: str,
        genq_src: Optional[str],
        extra_env: Callable[[Any], dict],
        canonical: Callable[[], Any],
        ready: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.gsel_src = gsel_src
        self.genq_src = genq_src
        self.extra_env = extra_env
        self.canonical = canonical
        self.ready = ready

    def build(self, scheduler: Any):
        """Compile and bind (gsel, genq) for one live instance."""
        queues = scheduler.queues
        env = {
            "S": scheduler,
            "queues": queues,
            "qlist": queues.queues,
            "heads": queues.head_arrivals,
            "backlog": queues.bytes_backlog,
            "cols": queues.cols,
            "cheads": queues.col_heads,
            "n": scheduler.num_classes,
            "inf": inf,
            "NEGINF": -inf,
            "_COL_COMPACT": _COL_COMPACT,
            "Packet": Packet,
            "ConfigurationError": ConfigurationError,
            "__builtins__": {
                "range": range,
                "len": len,
                "type": type,
                "max": max,
                "int": int,
            },
        }
        env.update(self.extra_env(scheduler))
        namespace: dict = {}
        exec(compile(self.gsel_src, "<draingen:gsel>", "exec"), env, namespace)
        gsel = namespace["gsel"]
        genq = None
        if self.genq_src is not None:
            exec(
                compile(self.genq_src, "<draingen:genq>", "exec"),
                env,
                namespace,
            )
            genq = namespace["genq"]
        return gsel, genq


def _make_templates() -> dict:
    from .adaptive_wtp import AdaptiveWTPScheduler
    from .additive import AdditiveDelayScheduler
    from .bpr import BPRScheduler
    from .drr import DRRScheduler
    from .fcfs import FCFSScheduler
    from .hpd import HPDScheduler
    from .pad import PADScheduler
    from .quantized_wtp import QuantizedWTPScheduler
    from .strict_priority import StrictPriorityScheduler
    from .wfq import SCFQScheduler
    from .wtp import WTPScheduler

    sdps = (1.0, 2.0, 4.0, 8.0)
    templates = {
        BPRScheduler: _Template(
            _gsel_source(_BPR_CHOOSE, _BPR_ON_SELECT),
            None,
            lambda s: {
                "virtual": s._virtual,
                "rates": s._rates,
                "sdps": s.sdps,
            },
            lambda: BPRScheduler(sdps, capacity=3125.0),
            ready=lambda s: s.capacity is not None,
        ),
        PADScheduler: _Template(
            _gsel_source(_PAD_CHOOSE, _PAD_ON_SELECT),
            None,
            lambda s: {
                "sums": s._delay_sums,
                "counts": s._delay_counts,
                "sdps": s.sdps,
            },
            lambda: PADScheduler(sdps),
        ),
        HPDScheduler: _Template(
            _gsel_source(_HPD_CHOOSE, _PAD_ON_SELECT),
            None,
            lambda s: {
                "sums": s._delay_sums,
                "counts": s._delay_counts,
                "sdps": s.sdps,
                "G": s.g,
            },
            lambda: HPDScheduler(sdps),
        ),
        AdaptiveWTPScheduler: _Template(
            _gsel_source(_ADAPTIVE_CHOOSE, _ADAPTIVE_ON_SELECT),
            None,
            lambda s: {
                "esdps": s.effective_sdps,
                "ewma": s._ewma_delay,
                "ALPHA": s.ewma_alpha,
                "PERIOD": s.adjustment_period,
            },
            lambda: AdaptiveWTPScheduler(sdps),
        ),
        DRRScheduler: _Template(
            _gsel_source(_DRR_CHOOSE, _DRR_ON_SELECT),
            None,
            lambda s: {
                "deficits": s._deficits,
                "quanta": s.quanta,
                "BOUND": 2 * s.num_classes * 64,
            },
            lambda: DRRScheduler(sdps),
        ),
        SCFQScheduler: _Template(
            _gsel_source(_SCFQ_CHOOSE, _SCFQ_ON_SELECT),
            _SCFQ_GENQ,
            lambda s: {
                "tags": s._finish_tags,
                "weights": s.weights,
            },
            lambda: SCFQScheduler(sdps),
        ),
    }
    # Stock schedulers share one body; only the canonical instance
    # that class verification runs on differs.
    for cls, canonical in (
        (WTPScheduler, lambda: WTPScheduler(sdps)),
        (QuantizedWTPScheduler, lambda: QuantizedWTPScheduler(sdps, 1.0)),
        (FCFSScheduler, lambda: FCFSScheduler(len(sdps))),
        (StrictPriorityScheduler, lambda: StrictPriorityScheduler(len(sdps))),
        (
            AdditiveDelayScheduler,
            lambda: AdditiveDelayScheduler((0.0, 1.0, 3.0, 7.0)),
        ),
    ):
        templates[cls] = _Template(
            _STOCK_GSEL,
            None,
            lambda s: {"choose": s.choose_class},
            canonical,
        )
    return templates


_TEMPLATES: Optional[dict] = None
#: Per-class verification verdict: True (proven), or the failure text.
_VERDICTS: dict[type, Any] = {}


def _templates() -> dict:
    global _TEMPLATES
    if _TEMPLATES is None:
        _TEMPLATES = _make_templates()
    return _TEMPLATES


def supported_classes() -> tuple[type, ...]:
    """Scheduler classes with a generation template."""
    return tuple(_templates())


# ----------------------------------------------------------------------
# Class-level verification (the codegen contract's "oracle-verified
# before first use")
# ----------------------------------------------------------------------
class _GenerationMismatch(RuntimeError):
    pass


def _expect(cond: bool, detail: str) -> None:
    if not cond:
        raise _GenerationMismatch(detail)


def _meta_pid(meta) -> int:
    if type(meta) is int:
        return meta
    if type(meta) is Packet:
        return meta.packet_id
    return meta[0]


def _freeze(value):
    """Hashable, NaN-stable snapshot of one scheduler attribute."""
    if isinstance(value, float) and value != value:
        return "NaN"
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _state_of(scheduler: Any) -> dict:
    state = {
        key: _freeze(value)
        for key, value in scheduler.__dict__.items()
        if key not in ("queues", "_draingen_pair")
    }
    queues = scheduler.queues
    state["@total_packets"] = queues.total_packets
    state["@bytes_backlog"] = tuple(queues.bytes_backlog)
    state["@head_arrivals"] = tuple(queues.head_arrivals)
    return state


def _compare_dispatch(ref_packet: Packet, gen, now: float) -> None:
    meta, cid, arr, size = gen
    if (
        ref_packet.class_id == cid
        and ref_packet.packet_id == _meta_pid(meta)
        and ref_packet.arrived_at == arr
        and ref_packet.size == size
    ):
        return
    # Formatted only on failure: verification runs at first use of
    # every scheduler class, once per dispatch.
    raise _GenerationMismatch(
        f"dispatch mismatch at t={now!r}: wrapper served "
        f"(cid={ref_packet.class_id}, pid={ref_packet.packet_id}, "
        f"arr={ref_packet.arrived_at!r}, size={ref_packet.size!r}) "
        f"but generated body served (cid={cid}, pid={_meta_pid(meta)}, "
        f"arr={arr!r}, size={size!r})"
    )


_SIZES = (250.0, 500.0, 1000.0, 1500.0)


def _run_differential(template: _Template, columnar: bool) -> None:
    """One verification phase: wrapper reference vs generated body.

    ``columnar=False`` feeds both sides identical real Packets (the
    generated dispatches additionally run through the scheduler's
    registered oracle, which reads object deques); ``columnar=True``
    feeds the generated side raw column entries instead, proving the
    column transcription.
    """
    from ..invariants.scheduler_checks import scheduler_check_for

    ref = template.canonical()
    gen = template.canonical()
    oracle = None if columnar else scheduler_check_for(gen)
    _expect(
        columnar or oracle is not None,
        f"no registered oracle for {type(ref).__name__} "
        f"(name={ref.name!r}); refusing to verify without one",
    )
    gsel, genq = template.build(gen)

    rng = random.Random(0xD1FF * (2 if columnar else 1))
    now = 0.0
    next_pid = 0
    num_classes = ref.num_classes

    def arrive() -> None:
        nonlocal now, next_pid
        now += rng.random() * 0.5
        cid = rng.randrange(num_classes)
        size = _SIZES[rng.randrange(len(_SIZES))]
        ref.enqueue(Packet(next_pid, cid, size, now), now)
        if columnar:
            gen.queues.push_col(cid, now, size, next_pid)
            if genq is not None:
                genq(cid, size, next_pid, now)
        else:
            gen.enqueue(Packet(next_pid, cid, size, now), now)
        next_pid += 1

    def serve() -> None:
        nonlocal now
        now += rng.random() * 2.0
        ref_packet = ref.select(now)
        dispatched = gsel(now)
        _compare_dispatch(ref_packet, dispatched, now)
        if oracle is not None:
            oracle(gen.queues.queues, now, dispatched[0])

    for _ in range(1600):
        if ref.queues.total_packets and rng.random() < 0.55:
            serve()
        else:
            arrive()
    while ref.queues.total_packets:
        serve()

    ref_state = _state_of(ref)
    gen_state = _state_of(gen)
    _expect(
        ref_state == gen_state,
        "final state mismatch after "
        f"{'columnar' if columnar else 'object'} phase: "
        + "; ".join(
            f"{key}: wrapper={ref_state.get(key)!r} "
            f"generated={gen_state.get(key)!r}"
            for key in sorted(set(ref_state) | set(gen_state))
            if ref_state.get(key) != gen_state.get(key)
        ),
    )


def _verify_class(cls: type, template: _Template) -> Any:
    """True when the template survives both phases, else failure text."""
    try:
        _run_differential(template, columnar=False)
        _run_differential(template, columnar=True)
    except Exception as exc:  # noqa: BLE001 - verdict, not control flow
        return f"{type(exc).__name__}: {exc}"
    return True


def generation_report() -> dict[str, Any]:
    """Verification verdict per supported scheduler class name.

    Forces verification of every template (normally it runs lazily on
    first use).  Values are ``True`` or the failure description; the
    differential harness asserts they are all ``True`` so a codegen
    regression fails CI instead of silently reverting schedulers to
    the wrapper path.
    """
    report = {}
    for cls, template in _templates().items():
        verdict = _VERDICTS.get(cls)
        if verdict is None:
            verdict = _verify_class(cls, template)
            _VERDICTS[cls] = verdict
        report[cls.__name__] = verdict
    return report


def generated_drain_pair(scheduler: Any):
    """``(gsel, genq)`` bound to ``scheduler``, or ``None``.

    Returns ``None`` -- leaving the drain kernel on the always-correct
    wrapper path -- when the scheduler's exact class has no template
    (a subclass or an out-of-registry scheduler), its ``name`` has no
    registered oracle, a per-instance prerequisite is missing (unbound
    BPR capacity), or class verification failed.  The bound pair is
    cached on the instance; verification is cached per class.  The
    drain kernels call this at every entry, so the cached case is the
    first test.
    """
    cached = scheduler.__dict__.get("_draingen_pair")
    if cached is not None:
        return cached
    cls = type(scheduler)
    template = _templates().get(cls)
    if template is None:
        return None
    if template.ready is not None and not template.ready(scheduler):
        return None
    from ..invariants.scheduler_checks import registered_scheduler_checks

    if scheduler.name not in registered_scheduler_checks():
        return None
    verdict = _VERDICTS.get(cls)
    if verdict is None:
        verdict = _verify_class(cls, template)
        _VERDICTS[cls] = verdict
    if verdict is not True:
        return None
    pair = template.build(scheduler)
    scheduler._draingen_pair = pair
    return pair
